//! Property-style tests for the modeling substrate: textual round-trips,
//! diff/apply identity, and conformance stability.
//!
//! Models are generated with a small local SplitMix64 generator over fixed
//! seeds, so the suite is deterministic and dependency-free (this crate
//! sits at the bottom of the workspace and cannot use the simulator's RNG).

use mddsm_meta::diff::{apply, diff, equivalent};
use mddsm_meta::model::{Model, ObjectId};
use mddsm_meta::text;
use mddsm_meta::Value;
use std::collections::BTreeMap;

/// Minimal deterministic generator (SplitMix64) for test-case shapes.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-ish value in `[lo, hi)` (modulo bias is irrelevant here).
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    /// Lowercase ASCII word with length in `[min_len, max_len]`.
    fn word(&mut self, min_len: u64, max_len: u64) -> String {
        let len = self.range(min_len, max_len + 1) as usize;
        (0..len)
            .map(|_| char::from(b'a' + self.range(0, 23) as u8))
            .collect()
    }

    /// A slot name: usually one word, sometimes two, which the textual
    /// format must quote.
    fn slot_name(&mut self, max_len: u64) -> String {
        let word = self.word(1, max_len);
        if self.range(0, 4) == 0 {
            format!("{word} {}", self.word(1, 3))
        } else {
            word
        }
    }

    /// A value at an edge of the textual format: an extreme integer, an
    /// infinity, an enum whose type or literal name is a keyword or needs
    /// quotes, or a string of characters `Value`'s `Display` escapes.
    fn edge_value(&mut self) -> Value {
        const ENUMS: [(&str, &str); 6] = [
            ("true", "X"),
            ("false", "Y"),
            ("My Enum", "Lit"),
            ("Color", "Dark Red"),
            ("NaN", "inf"),
            ("", ""),
        ];
        const CHARS: [char; 10] = [
            '\r',
            '\0',
            '\u{1b}',
            '\u{7f}',
            '\u{301}',
            '\u{10ffff}',
            '\n',
            '"',
            '\\',
            'x',
        ];
        match self.range(0, 6) {
            0 => Value::Int(i64::MIN),
            1 => Value::Int(i64::MAX),
            2 => Value::Float(f64::INFINITY),
            3 => Value::Float(f64::NEG_INFINITY),
            4 => {
                let (ty, lit) = ENUMS[self.range(0, ENUMS.len() as u64) as usize];
                Value::enumeration(ty, lit)
            }
            _ => Value::Str(
                (0..self.range(1, 6))
                    .map(|_| CHARS[self.range(0, CHARS.len() as u64) as usize])
                    .collect(),
            ),
        }
    }
}

/// A generated model: a set of uniquely-named objects of a few classes with
/// random attributes and random (valid) references between them.
fn arb_model(gen: &mut Gen) -> Model {
    const CLASSES: [&str; 4] = ["Node", "Graph", "Link", "My Class"];
    let n = gen.range(0, 12) as usize;
    let mut m = Model::new("mm");
    let mut ids = Vec::new();
    for i in 0..n {
        let class = CLASSES[gen.range(0, CLASSES.len() as u64) as usize];
        let id = m.create(class);
        // Unique name so diffing keys are unambiguous.
        m.set_attr(id, "name", Value::from(format!("obj{i}")));
        for _ in 0..gen.range(0, 4) {
            let k = gen.slot_name(6);
            if k == "name" {
                continue;
            }
            let v = match gen.range(0, 5) {
                0 => Value::Int(gen.next() as i64),
                1 => Value::Str(gen.word(0, 8)),
                2 => Value::Bool(gen.range(0, 2) == 0),
                // No NaN here; it breaks value equality by design.
                3 => Value::Float((gen.range(0, 2000) as f64 - 1000.0) / 8.0),
                _ => gen.edge_value(),
            };
            m.set_attr(id, k, v);
        }
        ids.push(id);
    }
    if !ids.is_empty() {
        for _ in 0..gen.range(0, 6) {
            let src = ids[gen.range(0, ids.len() as u64) as usize];
            let slot = gen.slot_name(5);
            let targets: Vec<_> = (0..gen.range(0, 3))
                .map(|_| ids[gen.range(0, ids.len() as u64) as usize])
                .collect();
            if !targets.is_empty() {
                m.set_refs(src, slot, targets);
            }
        }
    }
    m
}

#[test]
fn textual_roundtrip_is_identity() {
    for case in 0..128u64 {
        let m = arb_model(&mut Gen(0xA1_0000 + case));
        let written = text::write(&m);
        let parsed = text::parse(&written).expect("written model must parse");
        assert_eq!(&m, &parsed);
        // And writing again is stable (canonical form).
        assert_eq!(written, text::write(&parsed));
        // NaN != NaN, so a model holding one compares by its written text.
        let mut with_nan = m;
        let o = with_nan.create("Node");
        with_nan.set_attr(o, "nan", Value::Float(f64::NAN));
        let written = text::write(&with_nan);
        let parsed = text::parse(&written).expect("written model must parse");
        assert_eq!(written, text::write(&parsed));
    }
}

#[test]
fn diff_of_model_with_itself_is_empty() {
    for case in 0..128u64 {
        let m = arb_model(&mut Gen(0xA2_0000 + case));
        assert!(diff(&m, &m).is_empty());
        assert!(equivalent(&m, &m));
    }
}

#[test]
fn diff_apply_reaches_target() {
    for case in 0..128u64 {
        let mut gen = Gen(0xA3_0000 + case);
        let a = arb_model(&mut gen);
        let b = arb_model(&mut gen);
        let cl = diff(&a, &b);
        let mut patched = a.clone();
        apply(&mut patched, &cl).expect("apply must succeed");
        assert!(
            equivalent(&patched, &b),
            "apply(diff(a,b)) must be equivalent to b\nchanges: {cl:?}"
        );
        // Empty diff afterwards.
        assert!(diff(&patched, &b).is_empty());
    }
}

#[test]
fn diff_size_bounded_by_total_objects() {
    for case in 0..128u64 {
        let mut gen = Gen(0xA4_0000 + case);
        let a = arb_model(&mut gen);
        let b = arb_model(&mut gen);
        // Each object contributes at most 1 create/delete plus one change
        // per touched slot; a gross upper bound is objects * (slots + 1).
        let cl = diff(&a, &b);
        let slots = |m: &Model| {
            m.iter()
                .map(|(_, o)| o.attrs().count() + o.refs().count() + 1)
                .sum::<usize>()
        };
        assert!(cl.len() <= slots(&a) + slots(&b));
    }
}

#[test]
fn weave_with_empty_is_identity() {
    for case in 0..128u64 {
        let m = arb_model(&mut Gen(0xA5_0000 + case));
        let empty = Model::new("mm");
        let w = mddsm_meta::weave::weave(&[m.clone(), empty]).expect("no conflicts");
        assert!(equivalent(&w, &m));
    }
}

#[test]
fn weave_is_idempotent() {
    for case in 0..128u64 {
        let m = arb_model(&mut Gen(0xA6_0000 + case));
        let w = mddsm_meta::weave::weave(&[m.clone(), m.clone()]).expect("self-weave agrees");
        assert!(equivalent(&w, &m));
    }
}

/// The final slots of one generated object, as maps would hold them:
/// attribute values and reference targets (indices of helper objects),
/// each slot possibly empty.
struct Spec {
    attrs: BTreeMap<String, Vec<Value>>,
    refs: BTreeMap<String, Vec<usize>>,
}

const HELPERS: usize = 4;

fn arb_spec(gen: &mut Gen) -> Spec {
    let mut attrs = BTreeMap::new();
    for _ in 0..gen.range(0, 6) {
        let values = (0..gen.range(0, 4))
            .map(|_| match gen.range(0, 3) {
                0 => Value::Int(gen.range(0, 5) as i64),
                1 => Value::Str(gen.word(0, 3)),
                _ => gen.edge_value(),
            })
            .collect();
        attrs.insert(gen.slot_name(3), values);
    }
    let mut refs = BTreeMap::new();
    for _ in 0..gen.range(0, 5) {
        let targets = (0..gen.range(0, 4))
            .map(|_| gen.range(0, HELPERS as u64) as usize)
            .collect();
        refs.insert(gen.slot_name(3), targets);
    }
    Spec { attrs, refs }
}

/// Builds the spec's object (plus its reference targets) in an order and
/// through a mix of setters that `gen` picks: decoy slots set and unset,
/// values overwritten, targets set at once or added one by one around a
/// removed decoy. `skip` leaves one slot out.
fn build(spec: &Spec, gen: &mut Gen, skip: Option<&str>) -> (Model, ObjectId) {
    let mut m = Model::new("mm");
    let helpers: Vec<ObjectId> = (0..HELPERS)
        .map(|i| {
            let h = m.create("Helper");
            m.set_attr(h, "name", Value::from(format!("h{i}")));
            h
        })
        .collect();
    let o = m.create("Node");
    // Each step sets one slot; steps run in a shuffled order.
    let mut steps: Vec<(bool, &String)> = (spec.attrs.keys().map(|k| (true, k)))
        .chain(spec.refs.keys().map(|k| (false, k)))
        .filter(|(_, k)| Some(k.as_str()) != skip)
        .collect();
    for i in (1..steps.len()).rev() {
        steps.swap(i, gen.range(0, i as u64 + 1) as usize);
    }
    for (is_attr, name) in steps {
        let decoy = format!("{name}~");
        if gen.range(0, 3) == 0 {
            m.set_attr(o, decoy.as_str(), Value::Int(0));
            m.unset_attr(o, &decoy);
        }
        if is_attr {
            let values = &spec.attrs[name];
            if gen.range(0, 2) == 0 {
                m.set_attr_many(o, name.as_str(), vec![Value::Bool(true); 3]);
            }
            match (values.as_slice(), gen.range(0, 3)) {
                ([one], 0) => m.set_attr(o, name.as_str(), one.clone()),
                (_, 1) => {
                    m.unset_attr(o, name);
                    m.set_attr_many(o, name.as_str(), values.clone());
                }
                _ => m.set_attr_many(o, name.as_str(), values.iter().cloned()),
            }
        } else {
            let targets: Vec<ObjectId> = spec.refs[name].iter().map(|&i| helpers[i]).collect();
            if gen.range(0, 2) == 0 {
                m.set_refs(o, name.as_str(), targets);
            } else {
                // A decoy first, the targets after it, then the decoy's
                // removal (its first occurrence): the targets remain.
                m.add_ref(o, name.as_str(), helpers[0]);
                for t in targets {
                    m.add_ref(o, name.as_str(), t);
                }
                m.remove_ref(o, name, helpers[0]);
            }
        }
    }
    (m, o)
}

#[test]
fn slots_keep_map_semantics_whatever_the_order_of_setting() {
    for case in 0..128u64 {
        let mut gen = Gen(0xA9_0000 + case);
        let spec = arb_spec(&mut gen);
        let (first, o) = build(&spec, &mut gen, None);
        let obj = first.object(o).expect("built object");
        // Slots list in name order with the spec's values, empty ones too.
        let attrs: Vec<(String, Vec<Value>)> = (obj.attrs())
            .map(|(n, v)| (n.to_string(), v.to_vec()))
            .collect();
        assert_eq!(attrs, spec.attrs.clone().into_iter().collect::<Vec<_>>());
        let refs: Vec<(String, Vec<u32>)> = (obj.refs())
            .map(|(n, t)| (n.to_string(), t.iter().map(|t| t.index()).collect()))
            .collect();
        let want: Vec<(String, Vec<u32>)> = (spec.refs.iter())
            .map(|(n, t)| (n.clone(), t.iter().map(|&i| i as u32).collect()))
            .collect();
        assert_eq!(refs, want);
        let written = text::write(&first);
        for _ in 0..4 {
            let (other, _) = build(&spec, &mut gen, None);
            assert_eq!(other, first, "case {case}");
            assert_eq!(text::write(&other), written, "case {case}");
            assert!(diff(&first, &other).is_empty(), "case {case}");
        }
        // An empty slot differs from an absent one.
        let empty = (spec.attrs.iter().map(|(n, v)| (n, v.is_empty())))
            .chain(spec.refs.iter().map(|(n, t)| (n, t.is_empty())));
        for (name, _) in empty.filter(|(_, empty)| *empty) {
            let (absent, _) = build(&spec, &mut gen, Some(name));
            assert_ne!(absent, first, "case {case}: slot `{name}`");
        }
    }
}

#[test]
fn constraint_parser_never_panics() {
    for case in 0..128u64 {
        let mut gen = Gen(0xA7_0000 + case);
        let len = gen.range(0, 41) as usize;
        let src: String = (0..len)
            .map(|_| char::from(b' ' + gen.range(0, 95) as u8))
            .collect();
        let _ = mddsm_meta::constraint::parse(&src);
    }
}

#[test]
fn text_parser_never_panics() {
    for case in 0..128u64 {
        let mut gen = Gen(0xA8_0000 + case);
        let len = gen.range(0, 81) as usize;
        let src: String = (0..len)
            .map(|_| {
                if gen.range(0, 12) == 0 {
                    '\n'
                } else {
                    char::from(b' ' + gen.range(0, 95) as u8)
                }
            })
            .collect();
        let _ = text::parse(&src);
    }
}
