//! Differential oracle for the textual model format's parser:
//! `mddsm_meta::text::parse`, one borrowing pass over the source bytes,
//! against a reference kept here — the lexer and parser it replaced, which
//! collected the source into chars and owned every token. The reference is
//! verbatim but for the lines marked "enum round-trip", which make it read
//! `true`/`false` and a quoted string before `::` as an enum type, as the
//! parser now does. The corpora:
//!
//! * the four domain fixtures of the root `tests/textual_models.rs`;
//! * `text::write` of the platform and broker models that `mddsm-core`'s
//!   `model_artifacts` test transports, and of E11's four domain broker
//!   models;
//! * seeded `model_edits`-shaped CML edit streams;
//! * `text::write` of generated models: escaped, multi-byte and empty
//!   strings and names, extreme integers, NaN, infinities and `-0.0`, and
//!   enum names that are keywords or need quotes;
//! * hand-written edge texts: integer range limits, comments at the end
//!   of input, columns after multi-byte chars, a lexical error after a
//!   grammar error, escapes and enum forms;
//! * byte mutations of all of the above (insertions from an alphabet of
//!   quotes, escapes, comments, `::`, `->`, `\r`, multi-byte chars, an
//!   out-of-range integer, `NaN` and `inf`; deletions; truncations).
//!
//! On every input both parsers must build equal models (compared by their
//! `Debug` text, since NaN != NaN) or fail with identical error texts,
//! line and column included.
//!
//! `cargo test -p bench --test text_oracle` runs the quick count;
//! `cargo test --release -p bench --test text_oracle -- --ignored` runs the
//! full one (ten times the seeds).

use mddsm_broker::BrokerModelBuilder;
use mddsm_core::mwmodel::PlatformModelBuilder;
use mddsm_meta::model::Model;
use mddsm_meta::{text, Value};
use mddsm_sim::SimRng;

mod cml_stream;
use cml_stream::cml_edit_stream;

// -- The reference parser ----------------------------------------------------------

mod reference {
    use mddsm_meta::model::{Model, ObjectId};
    use mddsm_meta::{MetaError, Result, Value};
    use std::collections::BTreeMap;

    // ---------------------------------------------------------------- lexing

    #[derive(Debug, Clone, PartialEq)]
    enum Tok {
        Ident(String),
        /// An integer literal's magnitude; a preceding `-` negates it.
        Int(u64),
        Float(f64),
        Str(String),
        LBrace,
        RBrace,
        LBracket,
        RBracket,
        Eq,
        Arrow,
        ColonColon,
        Comma,
        Minus,
        Eof,
    }

    struct Lexed {
        toks: Vec<(Tok, u32, u32)>,
    }

    fn lex(src: &str) -> Result<Lexed> {
        let chars: Vec<char> = src.chars().collect();
        let mut toks = Vec::new();
        let (mut i, mut line, mut col) = (0usize, 1u32, 1u32);
        let err = |line: u32, col: u32, message: String| MetaError::Syntax { line, col, message };
        while i < chars.len() {
            let c = chars[i];
            let (tl, tc) = (line, col);
            match c {
                '\n' => {
                    line += 1;
                    col = 1;
                    i += 1;
                }
                c if c.is_whitespace() => {
                    i += 1;
                    col += 1;
                }
                '/' if chars.get(i + 1) == Some(&'/') => {
                    while i < chars.len() && chars[i] != '\n' {
                        i += 1;
                    }
                }
                '{' => {
                    toks.push((Tok::LBrace, tl, tc));
                    i += 1;
                    col += 1;
                }
                '}' => {
                    toks.push((Tok::RBrace, tl, tc));
                    i += 1;
                    col += 1;
                }
                '[' => {
                    toks.push((Tok::LBracket, tl, tc));
                    i += 1;
                    col += 1;
                }
                ']' => {
                    toks.push((Tok::RBracket, tl, tc));
                    i += 1;
                    col += 1;
                }
                '=' => {
                    toks.push((Tok::Eq, tl, tc));
                    i += 1;
                    col += 1;
                }
                ',' => {
                    toks.push((Tok::Comma, tl, tc));
                    i += 1;
                    col += 1;
                }
                '-' => {
                    if chars.get(i + 1) == Some(&'>') {
                        toks.push((Tok::Arrow, tl, tc));
                        i += 2;
                        col += 2;
                    } else {
                        toks.push((Tok::Minus, tl, tc));
                        i += 1;
                        col += 1;
                    }
                }
                ':' => {
                    if chars.get(i + 1) == Some(&':') {
                        toks.push((Tok::ColonColon, tl, tc));
                        i += 2;
                        col += 2;
                    } else {
                        return Err(err(tl, tc, "expected `::`".into()));
                    }
                }
                '"' => {
                    let mut s = String::new();
                    i += 1;
                    col += 1;
                    loop {
                        match chars.get(i) {
                            None => return Err(err(tl, tc, "unterminated string".into())),
                            Some('"') => {
                                i += 1;
                                col += 1;
                                break;
                            }
                            Some('\\') => {
                                let escape = match chars.get(i + 1) {
                                    Some('"') => Some(('"', 2)),
                                    Some('\\') => Some(('\\', 2)),
                                    Some('n') => Some(('\n', 2)),
                                    Some('t') => Some(('\t', 2)),
                                    Some('r') => Some(('\r', 2)),
                                    Some('0') => Some(('\0', 2)),
                                    Some('u') => unicode_escape(&chars[i + 2..]),
                                    _ => None,
                                };
                                let Some((c, len)) = escape else {
                                    return Err(err(
                                        line,
                                        col,
                                        format!(
                                            "bad escape `\\{}`",
                                            chars.get(i + 1).unwrap_or(&' ')
                                        ),
                                    ));
                                };
                                s.push(c);
                                i += len;
                                col += len as u32;
                            }
                            Some(c) => {
                                s.push(*c);
                                if *c == '\n' {
                                    line += 1;
                                    col = 1;
                                } else {
                                    col += 1;
                                }
                                i += 1;
                            }
                        }
                    }
                    toks.push((Tok::Str(s), tl, tc));
                }
                c if c.is_ascii_digit() => {
                    let start = i;
                    while i < chars.len() && chars[i].is_ascii_digit() {
                        i += 1;
                        col += 1;
                    }
                    let mut is_float = false;
                    if i < chars.len()
                        && chars[i] == '.'
                        && chars.get(i + 1).is_some_and(|c| c.is_ascii_digit())
                    {
                        is_float = true;
                        i += 1;
                        col += 1;
                        while i < chars.len() && chars[i].is_ascii_digit() {
                            i += 1;
                            col += 1;
                        }
                    }
                    let text: String = chars[start..i].iter().collect();
                    if is_float {
                        toks.push((
                            Tok::Float(
                                text.parse()
                                    .map_err(|e| err(tl, tc, format!("bad float: {e}")))?,
                            ),
                            tl,
                            tc,
                        ));
                    } else {
                        toks.push((
                            Tok::Int(
                                text.parse()
                                    .map_err(|e| err(tl, tc, format!("bad int: {e}")))?,
                            ),
                            tl,
                            tc,
                        ));
                    }
                }
                c if c.is_alphabetic() || c == '_' => {
                    let start = i;
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                        col += 1;
                    }
                    toks.push((Tok::Ident(chars[start..i].iter().collect()), tl, tc));
                }
                other => return Err(err(tl, tc, format!("unexpected character `{other}`"))),
            }
        }
        toks.push((Tok::Eof, line, col));
        Ok(Lexed { toks })
    }

    /// The scalar of a `\u{…}` escape and the escape's length, `\u` included,
    /// given the text after its `\u`: one to six hex digits in braces that
    /// name a Unicode scalar value (what `Value`'s `Display` writes for a
    /// control character).
    fn unicode_escape(rest: &[char]) -> Option<(char, usize)> {
        let digits = rest.iter().skip(1).take_while(|c| c.is_ascii_hexdigit());
        let n = digits.clone().count();
        if rest.first() != Some(&'{') || !(1..=6).contains(&n) || rest.get(n + 1) != Some(&'}') {
            return None;
        }
        let code = digits.fold(0, |code, c| code * 16 + c.to_digit(16).unwrap_or(0));
        Some((char::from_u32(code)?, n + 4))
    }

    // ---------------------------------------------------------------- parsing

    /// Parses a model from its textual form.
    pub fn parse(src: &str) -> Result<Model> {
        let lexed = lex(src)?;
        let mut p = P {
            toks: &lexed.toks,
            pos: 0,
        };
        p.model()
    }

    struct P<'a> {
        toks: &'a [(Tok, u32, u32)],
        pos: usize,
    }

    impl<'a> P<'a> {
        fn peek(&self) -> &(Tok, u32, u32) {
            &self.toks[self.pos.min(self.toks.len() - 1)]
        }

        fn err(&self, message: impl Into<String>) -> MetaError {
            let (_, line, col) = self.peek();
            MetaError::Syntax {
                line: *line,
                col: *col,
                message: message.into(),
            }
        }

        fn eat(&mut self, t: &Tok) -> bool {
            if &self.peek().0 == t {
                self.pos += 1;
                true
            } else {
                false
            }
        }

        fn expect(&mut self, t: &Tok, what: &str) -> Result<()> {
            if self.eat(t) {
                Ok(())
            } else {
                Err(self.err(format!("expected {what}")))
            }
        }

        fn ident(&mut self, what: &str) -> Result<String> {
            match &self.peek().0 {
                Tok::Ident(s) => {
                    let s = s.clone();
                    self.pos += 1;
                    Ok(s)
                }
                Tok::Str(s) => {
                    let s = s.clone();
                    self.pos += 1;
                    Ok(s)
                }
                _ => Err(self.err(format!("expected {what}"))),
            }
        }

        fn kw(&mut self, kw: &str) -> Result<()> {
            match &self.peek().0 {
                Tok::Ident(s) if s == kw => {
                    self.pos += 1;
                    Ok(())
                }
                _ => Err(self.err(format!("expected keyword `{kw}`"))),
            }
        }

        fn model(&mut self) -> Result<Model> {
            self.kw("model")?;
            let _name = self.ident("model name")?;
            self.kw("conformsTo")?;
            let mm = self.ident("metamodel name")?;
            self.expect(&Tok::LBrace, "`{`")?;

            // A local reference: target local id plus the source line/column
            // for error reporting.
            type LocalRef = (String, u32, u32);
            let mut model = Model::new(mm);
            let mut local: BTreeMap<String, ObjectId> = BTreeMap::new();
            // (object, slot, local ids) resolved after all objects are created.
            let mut pending_refs: Vec<(ObjectId, String, Vec<LocalRef>)> = Vec::new();

            while !self.eat(&Tok::RBrace) {
                if self.peek().0 == Tok::Eof {
                    return Err(self.err("unexpected end of input (unclosed model block)"));
                }
                let class = self.ident("class name")?;
                let lid = self.ident("object local id")?;
                if local.contains_key(&lid) {
                    return Err(self.err(format!("duplicate object id `{lid}`")));
                }
                let id = model.create(class);
                local.insert(lid, id);
                self.expect(&Tok::LBrace, "`{` opening object body")?;
                while !self.eat(&Tok::RBrace) {
                    if self.peek().0 == Tok::Eof {
                        return Err(self.err("unexpected end of input (unclosed object body)"));
                    }
                    let slot = self.ident("slot name")?;
                    if self.eat(&Tok::Eq) {
                        let values = self.values()?;
                        model.set_attr_many(id, slot, values);
                    } else if self.eat(&Tok::Arrow) {
                        let mut targets = Vec::new();
                        if self.eat(&Tok::LBracket) {
                            if !self.eat(&Tok::RBracket) {
                                loop {
                                    targets.push(self.local_ref()?);
                                    if self.eat(&Tok::RBracket) {
                                        break;
                                    }
                                    self.expect(&Tok::Comma, "`,` or `]`")?;
                                }
                            }
                        } else {
                            targets.push(self.local_ref()?);
                        }
                        pending_refs.push((id, slot, targets));
                    } else {
                        return Err(self.err("expected `=` (attribute) or `->` (reference)"));
                    }
                }
            }
            self.expect(&Tok::Eof, "end of input")?;

            for (id, slot, targets) in pending_refs {
                let mut ids = Vec::with_capacity(targets.len());
                for (lid, line, col) in targets {
                    let t = local.get(&lid).copied().ok_or(MetaError::Syntax {
                        line,
                        col,
                        message: format!("reference to undefined object `{lid}`"),
                    })?;
                    ids.push(t);
                }
                model.set_refs(id, slot, ids);
            }
            Ok(model)
        }

        fn local_ref(&mut self) -> Result<(String, u32, u32)> {
            let (_, line, col) = *self.peek();
            let lid = self.ident("object id")?;
            Ok((lid, line, col))
        }

        fn values(&mut self) -> Result<Vec<Value>> {
            if self.eat(&Tok::LBracket) {
                let mut out = Vec::new();
                if self.eat(&Tok::RBracket) {
                    return Ok(out);
                }
                loop {
                    out.push(self.value()?);
                    if self.eat(&Tok::RBracket) {
                        return Ok(out);
                    }
                    self.expect(&Tok::Comma, "`,` or `]`")?;
                }
            }
            Ok(vec![self.value()?])
        }

        fn value(&mut self) -> Result<Value> {
            let (tok, _, _) = self.peek().clone();
            match tok {
                Tok::Int(n) => self.int(n, false),
                Tok::Float(x) => {
                    self.pos += 1;
                    Ok(Value::Float(x))
                }
                Tok::Str(s) if self.toks[self.pos + 1].0 != Tok::ColonColon => {
                    // enum round-trip
                    self.pos += 1;
                    Ok(Value::Str(s))
                }
                Tok::Minus => {
                    self.pos += 1;
                    match self.peek().0.clone() {
                        Tok::Int(n) => self.int(n, true),
                        Tok::Float(x) => {
                            self.pos += 1;
                            Ok(Value::Float(-x))
                        }
                        Tok::Ident(name) if name == "inf" => {
                            self.pos += 1;
                            Ok(Value::Float(f64::NEG_INFINITY))
                        }
                        _ => Err(self.err("expected number after `-`")),
                    }
                }
                Tok::Ident(name) | Tok::Str(name) => {
                    // enum round-trip
                    self.pos += 1;
                    match name.as_str() {
                        "true" if self.peek().0 != Tok::ColonColon => Ok(Value::Bool(true)), // enum round-trip
                        "false" if self.peek().0 != Tok::ColonColon => Ok(Value::Bool(false)), // enum round-trip
                        "NaN" if self.peek().0 != Tok::ColonColon => Ok(Value::Float(f64::NAN)),
                        "inf" if self.peek().0 != Tok::ColonColon => {
                            Ok(Value::Float(f64::INFINITY))
                        }
                        _ => {
                            self.expect(&Tok::ColonColon, "`::` (enum literal)")?;
                            let lit = self.ident("enum literal")?;
                            Ok(Value::Enum(name, lit))
                        }
                    }
                }
                _ => Err(self.err("expected value")),
            }
        }

        /// The integer literal of magnitude `n` under the cursor, negated when
        /// a `-` preceded it: `-9223372036854775808` is `i64::MIN`, while
        /// `9223372036854775808` is out of range.
        fn int(&mut self, n: u64, negative: bool) -> Result<Value> {
            let value = if negative {
                0i64.checked_sub_unsigned(n)
            } else {
                i64::try_from(n).ok()
            };
            let value =
                value.ok_or_else(|| self.err("bad int: number too large to fit in target type"))?;
            self.pos += 1;
            Ok(Value::Int(value))
        }
    }
}

// -- Corpora -----------------------------------------------------------------------

/// The domain fixtures of the root `tests/textual_models.rs`.
const FIXTURES: [&str; 4] = [
    r#"
// A three-party conference with voice and screen share.
model conference conformsTo cml {
    CommSchema s { name = "standup" persons -> [ana, bob, cj] media -> [voice, screen] connections -> [main] }
    Person ana { name = "ana" userId = "ana@cvm" device = "desktop" }
    Person bob { name = "bob" userId = "bob@cvm" device = "mobile" }
    Person cj  { name = "cj"  userId = "cj@cvm" }
    Medium voice  { name = "voice" kind = MediaKind::Audio bandwidthKbps = 64 codec = "opus" }
    Medium screen { name = "screen" kind = MediaKind::Video bandwidthKbps = 1024 codec = "h264" }
    Connection main { name = "main" parties -> [ana, bob, cj] media -> [voice, screen] }
}
"#,
    r#"
model home conformsTo mgridml {
    Microgrid g { name = "home" sources -> [pv, gen] storage -> [batt] loads -> [hvac, pool] }
    PowerSource pv  { name = "pv"  kind = SourceKind::Solar capacityKw = 4.5 }
    PowerSource gen { name = "gen" kind = SourceKind::Generator capacityKw = 2.0 online = true }
    StorageUnit batt { name = "batt" capacityKwh = 10.0 chargeKwh = 6.5 }
    Load hvac { name = "hvac" demandKw = 3.0 priority = LoadPriority::Critical }
    Load pool { name = "pool" demandKw = 1.5 priority = LoadPriority::Deferrable enabled = true }
}
"#,
    r#"
model lab conformsTo "2sml" {
    SmartSpace lab { name = "lab" users -> [u] objects -> [lamp] rules -> [welcome] }
    User u { name = "dana" }
    SmartObject lamp { name = "hall:lamp" kind = ObjectKind::Lamp location = "hall" }
    AutomationRule welcome { name = "welcome" onEvent = SpaceEvent::objectEntered object = "hall:lamp" action = "on" }
}
"#,
    r#"
model survey conformsTo csml {
    SensingQuery air { name = "air" sensor = Sensor::AirQuality region = "harbor" sampleRateHz = 4 aggregation = Aggregation::Max }
}
"#,
];

/// Hand-written texts at the format's edges, each body inside
/// `model m conformsTo mm { A a { ... } }` unless it starts with `model`.
const EDGES: [&str; 34] = [
    "x = 9223372036854775807 y = -9223372036854775808",
    "x = 9223372036854775808",
    "x = -9223372036854775809",
    "x = 18446744073709551616",
    "x = [1, -2.5, -inf, inf, NaN, true, false, 0.0, -0.0]",
    "x = true::X y = false::Y z = \"My Enum\"::Lit w = Color::\"Dark Red\"",
    "x = NaN::X y = inf::Y z = \"\"::\"\" w = \"true\"",
    "x = -inf::X",
    "x = - 5",
    "x = -",
    "x = Color",
    "x = Color:Red",
    "x = \"\\u{1F600}\\u{0}\\u{10ffff}\" y = \"\\\"\\\\\\n\\t\\r\\0\"",
    "x = \"\\u{d800}\"",
    "x = \"\\q\"",
    "x = \"\\é\"",
    "x = \"abc",
    "x = \"abc\\",
    "x = 12abc y = 1.5.3",
    "x = 1. }",
    "x = .5",
    "x = = } } \\",
    "é = \"é\" ü = ? }",
    "\u{a0}x\u{2028}=\u{85}1\r\n y = 2 // note\r\n }",
    "x -> [a, a] y -> [] z -> nope",
    "x -> [a,] }",
    "x -> [a b] }",
    "model m conformsTo mm { A a { } // tail",
    "model m conformsTo mm { A a { x = 1 // tail\n",
    "model m conformsTo mm {\n  A é { x = \"é\" } ü // é",
    "model m conformsTo mm { A a { } B a { } }",
    "model \"my model\" conformsTo \"my mm\" { \"My Class\" \"a b\" { \"two words\" = \"\" } }",
    "model m conformsTo mm {} trailing",
    "// only a comment",
];

fn edges() -> Vec<String> {
    EDGES
        .iter()
        .map(|e| match e.starts_with("model") || e.starts_with("//") {
            true => e.to_string(),
            false => format!("model m conformsTo mm {{ A a {{ {e} }} }}"),
        })
        .collect()
}

/// The models `mddsm-core`'s `model_artifacts` test transports as text,
/// and E11's domain broker models.
fn transported_models() -> Vec<Model> {
    let platform = PlatformModelBuilder::new("cvm", "communication")
        .ui("cml")
        .synthesis("Error")
        .controller(|m, c| m.set_attr(c, "adaptive", Value::from(false)))
        .broker("ncb")
        .build();
    let broker = BrokerModelBuilder::new("rt")
        .call_handler("h", "svc.op")
        .policy("always", "true")
        .action(
            "h",
            "a",
            "res",
            "op",
            &["k=$k"],
            Some("always"),
            &["count=+1"],
        )
        .bind_resource("res", "sim.res")
        .build();
    let mut models = vec![platform, broker];
    models.extend(bench::e11::corpus().into_iter().map(|(_, m)| m));
    models
}

const CLASSES: [&str; 5] = ["Node", "My Class", "Zürich", "_x9", "true"];
const SLOTS: [&str; 7] = ["name", "w", "two words", "é", "model", "conformsTo", ""];
const ENUMS: [(&str, &str); 8] = [
    ("Kind", "Video"),
    ("true", "X"),
    ("false", "Y"),
    ("My Enum", "Lit"),
    ("Color", "Dark Red"),
    ("NaN", "X"),
    ("inf", "Y"),
    ("", ""),
];
const CHARS: [char; 16] = [
    'a',
    ' ',
    '"',
    '\\',
    '\n',
    '\r',
    '\t',
    '\0',
    '\u{1b}',
    '\u{7f}',
    '\u{301}',
    'é',
    '\u{a0}',
    '\u{2028}',
    '😀',
    '\u{10ffff}',
];

fn pick<T: Copy>(rng: &mut SimRng, items: &[T]) -> T {
    items[rng.index(items.len())]
}

fn random_value(rng: &mut SimRng) -> Value {
    match rng.index(5) {
        0 => {
            let any = rng.next_u64() as i64;
            Value::Int(pick(rng, &[0, -1, 42, i64::MIN, i64::MAX, any]))
        }
        1 => Value::Float(pick(
            rng,
            &[
                0.5,
                -2.25,
                1e300,
                1e-7,
                -0.0,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ],
        )),
        2 => Value::Bool(rng.chance(0.5)),
        3 => Value::Str((0..rng.index(6)).map(|_| pick(rng, &CHARS)).collect()),
        _ => {
            let (ty, lit) = pick(rng, &ENUMS);
            Value::enumeration(ty, lit)
        }
    }
}

/// A generated model of up to eight objects, with random slots and
/// references among them.
fn generated(rng: &mut SimRng) -> Model {
    let mut m = Model::new(pick(rng, &["mm", "2sml", "my mm"]));
    let ids: Vec<_> = (0..rng.index(9))
        .map(|_| m.create(pick(rng, &CLASSES)))
        .collect();
    for &id in &ids {
        for _ in 0..rng.index(4) {
            let values: Vec<Value> = (0..rng.index(4)).map(|_| random_value(rng)).collect();
            m.set_attr_many(id, pick(rng, &SLOTS), values);
        }
        if rng.chance(0.5) {
            let targets: Vec<_> = (0..rng.index(4)).map(|_| pick(rng, &ids)).collect();
            m.set_refs(id, pick(rng, &SLOTS), targets);
        }
    }
    m
}

/// Every corpus text but the mutants: `seeds` CML edit streams and
/// generated models on top of the fixed texts.
fn corpus(seeds: u64) -> Vec<String> {
    let mut texts: Vec<String> = FIXTURES.iter().map(|f| f.to_string()).collect();
    texts.extend(edges());
    texts.extend(transported_models().iter().map(text::write));
    for seed in 0..seeds {
        texts.extend(cml_edit_stream(seed, 20));
        let mut rng = SimRng::seed_from_u64(0x7E_0000 + seed);
        texts.extend((0..4).map(|_| text::write(&generated(&mut rng))));
    }
    texts
}

// -- Mutation ----------------------------------------------------------------------

const ALPHABET: [&str; 12] = [
    "\"",
    "\\",
    "\\u{",
    "//",
    "::",
    "->",
    "\r",
    "\u{a0}",
    "é",
    "9223372036854775808",
    "NaN",
    "inf",
];

/// The first char boundary of `s` at or after byte `at`.
fn boundary(s: &str, at: usize) -> usize {
    (at..s.len())
        .find(|&i| s.is_char_boundary(i))
        .unwrap_or(s.len())
}

/// `src` after one to three random insertions, deletions or truncations.
fn mutate(src: &str, rng: &mut SimRng) -> String {
    let mut s = src.to_owned();
    for _ in 0..rng.range(1, 4) {
        let at = boundary(&s, rng.index(s.len() + 1));
        match rng.index(3) {
            // Appending after a truncation ends the input inside a token.
            0 => {
                let at = if rng.chance(0.25) { s.len() } else { at };
                s.insert_str(at, pick(rng, &ALPHABET));
            }
            1 => {
                let end = boundary(&s, at + 1 + rng.index(8));
                s.replace_range(at..end, "");
            }
            _ => s.truncate(at),
        }
    }
    s
}

// -- The oracle --------------------------------------------------------------------

/// Parses `src` with both parsers, requires the same outcome, and
/// returns whether it was a model.
fn check(src: &str) -> bool {
    let got = text::parse(src).map(|m| format!("{m:?}"));
    let want = reference::parse(src).map(|m| format!("{m:?}"));
    let (got, want) = (
        got.map_err(|e| e.to_string()),
        want.map_err(|e| e.to_string()),
    );
    assert_eq!(got, want, "the parsers disagree on {src:?}");
    got.is_ok()
}

fn run(seeds: u64, mutants_per_text: usize) {
    let texts = corpus(seeds);
    let parsed = texts.iter().filter(|t| check(t)).count();
    // Every text but the edges' errors is a model.
    assert!(
        parsed + EDGES.len() >= texts.len(),
        "{parsed} of {}",
        texts.len()
    );
    let mut rng = SimRng::seed_from_u64(0x7E_0F00 + seeds);
    let (mut tried, mut accepted) = (0, 0);
    for t in &texts {
        for _ in 0..mutants_per_text {
            tried += 1;
            accepted += usize::from(check(&mutate(t, &mut rng)));
        }
    }
    // The mutants must both parse and fail, or they test nothing.
    assert!(accepted > 0 && accepted < tried, "{accepted} of {tried}");
}

#[test]
fn parser_matches_the_reference() {
    run(8, 32);
}

#[test]
#[ignore = "the full count; CI runs it in release"]
fn parser_matches_the_reference_full() {
    run(80, 32);
}
