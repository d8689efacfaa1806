//! Differential oracle and mutation fuzz test for the journal codec: the
//! allocation-free encoder and borrowed decoder
//! (`mddsm_broker::journal::{encode_line, parse_line}`) against a
//! reference kept here — the `format!`-based encoder and owned decoder the
//! journal used before — over two corpora:
//!
//! * generated records (every record kind, escaped and multi-byte text,
//!   empty strings, `i64::MIN`/`MAX`, `u64::MAX`, `u32::MAX` attempts,
//!   zero-op upgrades, empty snapshots), framed and unframed;
//! * the journals of seeded call streams on every shipped broker model
//!   (the E11 domain corpus plus the E8, E10 and E15 models), framed and
//!   unframed.
//!
//! Every corpus line encodes byte-identically to the reference, decodes
//! to the record the reference decodes, and re-encodes to itself. The
//! mutation fuzzer then damages the lines (byte flips, truncations,
//! dropped or duplicated fields, non-canonical and oversized numbers) and
//! feeds each through `parse_line`, `Standby::receive` and `replay`:
//! nothing may panic or abort, and every line the decoder accepts must
//! re-encode to itself and read the same to the reference.
//!
//! `cargo test -p bench --test codec_oracle` runs the quick seed count;
//! `cargo test --release -p bench --test codec_oracle -- --ignored` runs
//! the full one (ten times the seeds).

use bench::{e10, e11, e15, e8};
use mddsm_broker::journal::{self, CommandKind, JournalRecord, Ops, SnapVars};
use mddsm_broker::state::{OpView, StateOp, ValueView};
use mddsm_broker::{CallMeta, GenericBroker, Standby, StateManager};
use mddsm_meta::Model;
use mddsm_sim::resource::{Args, Outcome};
use mddsm_sim::{ResourceHub, SimDuration, SimRng};
use std::borrow::Cow;

// -- The reference codec -------------------------------------------------------

/// A value as the reference holds it.
#[derive(Debug, Clone, PartialEq)]
enum RefValue {
    Str(String),
    Int(i64),
}

/// An op as the reference holds it; `None` removes the key.
#[derive(Debug, Clone, PartialEq)]
struct RefOp {
    lsn: u64,
    key: String,
    value: Option<RefValue>,
}

/// The reference's owned record.
#[derive(Debug, Clone, PartialEq)]
enum RefRecord {
    Op(RefOp),
    OpCoalesced {
        first_lsn: u64,
        op: RefOp,
    },
    Command {
        clock_us: u64,
        call: bool,
        selector: String,
        action: String,
        ok: bool,
        attempts: u32,
        cost_us: u64,
    },
    Clock {
        clock_us: u64,
    },
    Epoch {
        epoch: u64,
    },
    Note {
        text: String,
    },
    Upgrade {
        version: u64,
        tag: String,
        ops: Vec<RefOp>,
    },
    Snapshot {
        version: u64,
        vars: Vec<(String, RefValue)>,
        clock_us: u64,
        calls: u64,
        events: u64,
    },
}

fn ref_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '%' => out.push_str("%25"),
            ' ' => out.push_str("%20"),
            '\n' => out.push_str("%0A"),
            '\t' => out.push_str("%09"),
            _ => out.push(c),
        }
    }
    out
}

fn ref_unescape(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        match (chars.next(), chars.next()) {
            (Some('2'), Some('5')) => out.push('%'),
            (Some('2'), Some('0')) => out.push(' '),
            (Some('0'), Some('A')) => out.push('\n'),
            (Some('0'), Some('9')) => out.push('\t'),
            _ => return Err(format!("corrupt escape in `{s}`")),
        }
    }
    Ok(out)
}

fn ref_op_body(op: &RefOp) -> String {
    let (lsn, key) = (op.lsn, ref_escape(&op.key));
    match &op.value {
        Some(RefValue::Str(v)) => format!("{lsn} str {key} {}", ref_escape(v)),
        Some(RefValue::Int(v)) => format!("{lsn} int {key} {v}"),
        None => format!("{lsn} del {key}"),
    }
}

fn ref_payload(rec: &RefRecord) -> String {
    use std::fmt::Write;
    match rec {
        RefRecord::Op(op) => format!("op {}", ref_op_body(op)),
        RefRecord::OpCoalesced { first_lsn, op } => format!("opc {first_lsn} {}", ref_op_body(op)),
        RefRecord::Command {
            clock_us,
            call,
            selector,
            action,
            ok,
            attempts,
            cost_us,
        } => format!(
            "cmd {clock_us} {} {} {} {} {attempts} {cost_us}",
            if *call { "call" } else { "event" },
            ref_escape(selector),
            ref_escape(action),
            u8::from(*ok)
        ),
        RefRecord::Clock { clock_us } => format!("clk {clock_us}"),
        RefRecord::Epoch { epoch } => format!("ep {epoch}"),
        RefRecord::Note { text } => format!("note {}", ref_escape(text)),
        RefRecord::Upgrade { version, tag, ops } => {
            let mut line = format!("up {version} {} {}", ref_escape(tag), ops.len());
            for op in ops {
                let _ = write!(line, " {}", ref_op_body(op));
            }
            line
        }
        RefRecord::Snapshot {
            version,
            vars,
            clock_us,
            calls,
            events,
        } => {
            let mut line = format!("snap {version} {clock_us} {calls} {events}");
            for (key, value) in vars {
                let _ = match value {
                    RefValue::Str(v) => write!(line, " {} str {}", ref_escape(key), ref_escape(v)),
                    RefValue::Int(v) => write!(line, " {} int {v}", ref_escape(key)),
                };
            }
            line
        }
    }
}

/// The reference wire line, trailing newline included.
fn ref_line(rec: &RefRecord, framed: bool) -> String {
    let payload = ref_payload(rec);
    if framed {
        format!("v1 {:08x} {payload}\n", journal::crc32(payload.as_bytes()))
    } else {
        format!("{payload}\n")
    }
}

fn ref_u64(field: Option<&str>) -> Result<u64, String> {
    field
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| "bad number".to_owned())
}

fn ref_parse_op(f: &mut std::str::Split<'_, char>) -> Result<RefOp, String> {
    let lsn = ref_u64(f.next())?;
    let ty = f.next().ok_or("missing op type")?;
    let key = ref_unescape(f.next().ok_or("missing key")?)?;
    let value = match ty {
        "str" => Some(RefValue::Str(ref_unescape(
            f.next().ok_or("missing value")?,
        )?)),
        "int" => Some(RefValue::Int(
            f.next().and_then(|v| v.parse().ok()).ok_or("bad int")?,
        )),
        "del" => None,
        _ => return Err("unknown op type".to_owned()),
    };
    Ok(RefOp { lsn, key, value })
}

/// The reference decoder: the owned, lenient parser the strict decoder
/// replaced. Only lines the strict decoder accepted reach it, so the op
/// count it sizes a buffer from is one the line really holds.
fn ref_parse(line: &str) -> Result<RefRecord, String> {
    let payload = match line.strip_prefix("v1 ") {
        None => line,
        Some(rest) => {
            let crc = rest.get(..8).ok_or("frame")?;
            let stored = u32::from_str_radix(crc, 16).map_err(|e| e.to_string())?;
            let payload = rest.get(9..).ok_or("frame")?;
            if stored != journal::crc32(payload.as_bytes()) {
                return Err("crc".to_owned());
            }
            payload
        }
    };
    let mut f = payload.split(' ');
    Ok(match f.next().unwrap_or_default() {
        "op" => RefRecord::Op(ref_parse_op(&mut f)?),
        "opc" => RefRecord::OpCoalesced {
            first_lsn: ref_u64(f.next())?,
            op: ref_parse_op(&mut f)?,
        },
        "cmd" => RefRecord::Command {
            clock_us: ref_u64(f.next())?,
            call: f.next() == Some("call"),
            selector: ref_unescape(f.next().ok_or("selector")?)?,
            action: ref_unescape(f.next().ok_or("action")?)?,
            ok: f.next() == Some("1"),
            attempts: ref_u64(f.next())? as u32,
            cost_us: ref_u64(f.next())?,
        },
        "clk" => RefRecord::Clock {
            clock_us: ref_u64(f.next())?,
        },
        "ep" => RefRecord::Epoch {
            epoch: ref_u64(f.next())?,
        },
        "note" => RefRecord::Note {
            text: ref_unescape(f.next().unwrap_or_default())?,
        },
        "up" => {
            let version = ref_u64(f.next())?;
            let tag = ref_unescape(f.next().ok_or("tag")?)?;
            let n = ref_u64(f.next())?;
            let mut ops = Vec::with_capacity(n as usize);
            for _ in 0..n {
                ops.push(ref_parse_op(&mut f)?);
            }
            RefRecord::Upgrade { version, tag, ops }
        }
        "snap" => {
            let version = ref_u64(f.next())?;
            let clock_us = ref_u64(f.next())?;
            let calls = ref_u64(f.next())?;
            let events = ref_u64(f.next())?;
            let mut vars = Vec::new();
            while let Some(key) = f.next() {
                let key = ref_unescape(key)?;
                let value = match (f.next(), f.next()) {
                    (Some("str"), Some(v)) => RefValue::Str(ref_unescape(v)?),
                    (Some("int"), Some(v)) => RefValue::Int(v.parse().map_err(|_| "bad int")?),
                    _ => return Err("bad var".to_owned()),
                };
                vars.push((key, value));
            }
            RefRecord::Snapshot {
                version,
                vars,
                clock_us,
                calls,
                events,
            }
        }
        _ => return Err("unknown tag".to_owned()),
    })
}

// -- Between the two -----------------------------------------------------------

fn owned_value(v: &ValueView<'_>) -> RefValue {
    match v {
        ValueView::Str(s) => RefValue::Str(s.to_string()),
        ValueView::Int(i) => RefValue::Int(*i),
    }
}

fn owned_op(op: &OpView<'_>) -> RefOp {
    RefOp {
        lsn: op.lsn,
        key: op.key.to_string(),
        value: op.value.as_ref().map(owned_value),
    }
}

/// A decoded (or live) record, copied into the reference's form.
fn owned(rec: &JournalRecord<'_>) -> RefRecord {
    match rec {
        JournalRecord::Op(op) => RefRecord::Op(owned_op(op)),
        JournalRecord::OpCoalesced { first_lsn, op } => RefRecord::OpCoalesced {
            first_lsn: *first_lsn,
            op: owned_op(op),
        },
        JournalRecord::Command {
            clock_us,
            kind,
            selector,
            action,
            ok,
            attempts,
            cost_us,
        } => RefRecord::Command {
            clock_us: *clock_us,
            call: *kind == CommandKind::Call,
            selector: selector.to_string(),
            action: action.to_string(),
            ok: *ok,
            attempts: *attempts,
            cost_us: *cost_us,
        },
        JournalRecord::Clock { clock_us } => RefRecord::Clock {
            clock_us: *clock_us,
        },
        JournalRecord::Epoch { epoch } => RefRecord::Epoch { epoch: *epoch },
        JournalRecord::Note { text } => RefRecord::Note {
            text: text.to_string(),
        },
        JournalRecord::Upgrade { version, tag, ops } => RefRecord::Upgrade {
            version: *version,
            tag: tag.to_string(),
            ops: ops.iter().map(|op| owned_op(&op)).collect(),
        },
        JournalRecord::Snapshot {
            version,
            vars,
            clock_us,
            calls,
            events,
        } => RefRecord::Snapshot {
            version: *version,
            vars: vars
                .iter()
                .map(|(k, v)| (k.to_string(), owned_value(&v)))
                .collect(),
            clock_us: *clock_us,
            calls: *calls,
            events: *events,
        },
    }
}

/// What a reference record's view borrows: an upgrade's pending ops and
/// a snapshot's live state.
struct Backing {
    ops: Vec<StateOp>,
    state: StateManager,
}

fn backing(rec: &RefRecord) -> Backing {
    let mut b = Backing {
        ops: Vec::new(),
        state: StateManager::new(),
    };
    match rec {
        RefRecord::Upgrade { ops, .. } => {
            b.ops = ops
                .iter()
                .map(|op| {
                    let (lsn, key) = (op.lsn, op.key.as_str().into());
                    match &op.value {
                        Some(RefValue::Str(v)) => StateOp::SetStr {
                            lsn,
                            key,
                            value: v.clone(),
                        },
                        Some(RefValue::Int(value)) => StateOp::SetInt {
                            lsn,
                            key,
                            value: *value,
                        },
                        None => StateOp::Unset { lsn, key },
                    }
                })
                .collect()
        }
        RefRecord::Snapshot { version, vars, .. } => b
            .state
            .restore(*version, vars.iter().map(|(k, v)| (k, view_value(v)))),
        _ => {}
    }
    b
}

fn view_value(v: &RefValue) -> ValueView<'_> {
    match v {
        RefValue::Str(s) => ValueView::Str(Cow::Borrowed(s)),
        RefValue::Int(i) => ValueView::Int(*i),
    }
}

fn view_op(op: &RefOp) -> OpView<'_> {
    OpView {
        lsn: op.lsn,
        key: Cow::Borrowed(&op.key),
        value: op.value.as_ref().map(view_value),
    }
}

/// The codec's record for a reference record, borrowing it.
fn view<'a>(rec: &'a RefRecord, b: &'a Backing) -> JournalRecord<'a> {
    match rec {
        RefRecord::Op(op) => JournalRecord::Op(view_op(op)),
        RefRecord::OpCoalesced { first_lsn, op } => JournalRecord::OpCoalesced {
            first_lsn: *first_lsn,
            op: view_op(op),
        },
        RefRecord::Command {
            clock_us,
            call,
            selector,
            action,
            ok,
            attempts,
            cost_us,
        } => JournalRecord::Command {
            clock_us: *clock_us,
            kind: if *call {
                CommandKind::Call
            } else {
                CommandKind::Event
            },
            selector: Cow::Borrowed(selector),
            action: Cow::Borrowed(action),
            ok: *ok,
            attempts: *attempts,
            cost_us: *cost_us,
        },
        RefRecord::Clock { clock_us } => JournalRecord::Clock {
            clock_us: *clock_us,
        },
        RefRecord::Epoch { epoch } => JournalRecord::Epoch { epoch: *epoch },
        RefRecord::Note { text } => JournalRecord::Note {
            text: Cow::Borrowed(text),
        },
        RefRecord::Upgrade { version, tag, .. } => JournalRecord::Upgrade {
            version: *version,
            tag: Cow::Borrowed(tag),
            ops: Ops::Pending(&b.ops),
        },
        RefRecord::Snapshot {
            version,
            clock_us,
            calls,
            events,
            ..
        } => JournalRecord::Snapshot {
            version: *version,
            vars: SnapVars::Live(&b.state),
            clock_us: *clock_us,
            calls: *calls,
            events: *events,
        },
    }
}

fn encode(rec: &JournalRecord<'_>, framed: bool) -> Vec<u8> {
    let mut out = Vec::new();
    journal::encode_line(rec, framed, &mut out);
    out
}

// -- Corpus 1: generated records -----------------------------------------------

const STRINGS: &[&str] = &[
    "plain",
    "a b",
    "100%",
    "%25 looks escaped",
    "line\nbreak",
    "tab\there",
    "αβ→γ",
    "日本",
    "",
    "v1 00000000 op",
];
const KEYS: &[&str] = &["tier", "mode x", "served", "ключ", "", "w%"];
const INTS: &[i64] = &[0, 1, -1, 42, -1_000, i64::MIN, i64::MAX];
const U64S: &[u64] = &[0, 1, 9, 10, 4_294_967_295, 4_294_967_296, u64::MAX];

fn pick<'a>(rng: &mut SimRng, from: &[&'a str]) -> &'a str {
    from[rng.index(from.len())]
}

fn any_u64(rng: &mut SimRng) -> u64 {
    if rng.chance(0.5) {
        U64S[rng.index(U64S.len())]
    } else {
        rng.range(0, 1_000_000)
    }
}

fn any_value(rng: &mut SimRng) -> RefValue {
    if rng.chance(0.5) {
        RefValue::Str(pick(rng, STRINGS).to_owned())
    } else {
        RefValue::Int(INTS[rng.index(INTS.len())])
    }
}

fn any_op(rng: &mut SimRng) -> RefOp {
    RefOp {
        lsn: any_u64(rng),
        key: pick(rng, KEYS).to_owned(),
        value: (!rng.chance(0.2)).then(|| any_value(rng)),
    }
}

/// One generated record of every kind in turn, with fields drawn from the
/// palettes above.
fn generated(seed: u64, n: usize) -> Vec<RefRecord> {
    let mut rng = SimRng::seed_from_u64(0xC0DE_C000 + seed);
    (0..n)
        .map(|i| match i % 8 {
            0 => RefRecord::Op(any_op(&mut rng)),
            1 => RefRecord::OpCoalesced {
                first_lsn: any_u64(&mut rng),
                op: any_op(&mut rng),
            },
            2 => RefRecord::Command {
                clock_us: any_u64(&mut rng),
                call: rng.chance(0.5),
                selector: pick(&mut rng, STRINGS).to_owned(),
                action: pick(&mut rng, STRINGS).to_owned(),
                ok: rng.chance(0.5),
                attempts: [0, 1, 3, u32::MAX][rng.index(4)],
                cost_us: any_u64(&mut rng),
            },
            3 => RefRecord::Clock {
                clock_us: any_u64(&mut rng),
            },
            4 => RefRecord::Epoch {
                epoch: any_u64(&mut rng),
            },
            5 => RefRecord::Note {
                text: pick(&mut rng, STRINGS).to_owned(),
            },
            6 => RefRecord::Upgrade {
                version: any_u64(&mut rng),
                tag: pick(&mut rng, STRINGS).to_owned(),
                ops: (0..rng.range(0, 4)).map(|_| any_op(&mut rng)).collect(),
            },
            _ => {
                // A snapshot lists each key once, in key order: the form a
                // live state encodes to.
                let mut state = StateManager::new();
                for _ in 0..rng.range(0, 5) {
                    match any_value(&mut rng) {
                        RefValue::Str(s) => state.set_str(pick(&mut rng, KEYS), &s),
                        RefValue::Int(v) => state.set_int(pick(&mut rng, KEYS), v),
                    }
                }
                RefRecord::Snapshot {
                    version: any_u64(&mut rng),
                    vars: state
                        .vars()
                        .map(|(k, v)| (k.to_owned(), owned_value(&v.view())))
                        .collect(),
                    clock_us: any_u64(&mut rng),
                    calls: any_u64(&mut rng),
                    events: any_u64(&mut rng),
                }
            }
        })
        .collect()
}

/// Checks one generated record against the reference in both dialects
/// and returns its two wire lines.
fn check_generated(rec: &RefRecord) -> [String; 2] {
    let b = backing(rec);
    [false, true].map(|framed| {
        let line = encode(&view(rec, &b), framed);
        let line = String::from_utf8(line).expect("the encoder writes UTF-8");
        assert_eq!(line, ref_line(rec, framed), "encoding differs for {rec:?}");
        let decoded = journal::parse_line(line.trim_end_matches('\n')).expect("decodes");
        assert_eq!(&owned(&decoded), rec, "decoding differs for {line:?}");
        assert_eq!(encode(&decoded, framed), line.as_bytes(), "{line:?}");
        line
    })
}

// -- Corpus 2: journals of seeded call streams ---------------------------------

/// A hub where every resource a model names answers, failing at random.
fn hub(model: &Model, seed: u64) -> ResourceHub {
    let mut hub = ResourceHub::new(seed);
    let mut names: Vec<String> = Vec::new();
    for b in model.all_of_class("ResourceBinding") {
        names.extend(model.attr_str(b, "resource").map(str::to_owned));
    }
    for a in model.all_of_class("Action") {
        names.extend(model.attr_str(a, "resource").map(str::to_owned));
    }
    for (i, name) in names.into_iter().enumerate() {
        let mut rng = SimRng::seed_from_u64(seed ^ i as u64);
        hub.register_fn(name, move |_: &str, _: &Args| {
            if rng.chance(0.2) {
                Outcome::Failed("flaky".into())
            } else {
                Outcome::ok()
            }
        });
    }
    hub
}

/// The journal of a seeded call stream through `model`'s broker.
fn stream_journal(model: &Model, seed: u64, steps: usize, framed: bool) -> Vec<u8> {
    let text = |class: &str, attr: &str| -> Vec<String> {
        model
            .all_of_class(class)
            .into_iter()
            .filter_map(|id| model.attr_str(id, attr).map(str::to_owned))
            .collect()
    };
    let (selectors, classes) = (text("Handler", "selector"), text("AdmissionClass", "name"));
    let mut broker =
        GenericBroker::from_model(model, hub(model, seed)).expect("shipped model loads");
    broker.enable_journal_with(16, framed);
    let mut rng = SimRng::seed_from_u64(seed);
    for _ in 0..steps {
        let args = vec![("k".to_owned(), pick(&mut rng, STRINGS).to_owned())];
        match rng.index(10) {
            0 => {
                let value = ["1", "-1", "alpha", "two words"][rng.index(4)];
                broker.corrupt_state(pick(&mut rng, KEYS), value);
            }
            1 => {
                let _ = broker.autonomic_tick();
                let _ = broker.brownout_tick();
            }
            2 => broker.advance_clock(SimDuration::from_micros(rng.range(0, 5_000))),
            3 if broker.monitor_latched() => {
                let _ = broker.rollback_to_snapshot();
            }
            4 => broker.journal_note(pick(&mut rng, STRINGS)),
            _ if !selectors.is_empty() => {
                let op = &selectors[rng.index(selectors.len())];
                let _ = if classes.is_empty() || rng.chance(0.3) {
                    broker.call(op, &args).map(drop)
                } else {
                    let class = &classes[rng.index(classes.len())];
                    let meta = CallMeta::new(class, broker.now().as_micros());
                    broker.call_admitted(op, &args, &meta).map(drop)
                };
                let _ = broker.event(op, &args);
            }
            _ => {}
        }
    }
    broker.journal_bytes().expect("journaling on").to_vec()
}

fn shipped_models() -> Vec<(String, Model)> {
    let mut models: Vec<(String, Model)> = e11::corpus()
        .into_iter()
        .map(|(n, m)| (n.to_owned(), m))
        .collect();
    models.push(("e8".into(), e8::e8_broker_model()));
    models.push(("e10".into(), e10::e10_broker_model(true)));
    models.push(("e15".into(), e15::e15_broker_model(e15::NODES3, 2)));
    models
}

/// Checks every line of a stream journal against the reference and
/// returns the lines.
fn check_stream(name: &str, bytes: &[u8]) -> Vec<String> {
    let text = std::str::from_utf8(bytes).expect("journal is UTF-8");
    let mut lines = Vec::new();
    for line in text.split_inclusive('\n') {
        let body = line.trim_end_matches('\n');
        let decoded = journal::parse_line(body).expect("journal line decodes");
        let reference = ref_parse(body).expect("reference decodes");
        assert_eq!(owned(&decoded), reference, "{name}: {body:?}");
        let framed = body.starts_with("v1 ");
        assert_eq!(ref_line(&reference, framed), line, "{name}: reference");
        assert_eq!(
            encode(&decoded, framed),
            line.as_bytes(),
            "{name}: {body:?}"
        );
        lines.push(line.to_owned());
    }
    lines
}

// -- The mutation fuzzer -------------------------------------------------------

/// Replacements for a numeric field: non-canonical forms the encoder never
/// writes, and counts large enough to abort a reader that sizes a buffer
/// from them.
const NUMBERS: &[&str] = &[
    "0",
    "01",
    "+1",
    "-0",
    "4294967296",
    "1000000000000",
    "18446744073709551615",
];

fn is_numeric(field: &str) -> bool {
    let digits = field.strip_prefix('-').unwrap_or(field);
    !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit())
}

/// `payload` as a line in `framed`'s dialect, CRC recomputed so the damage
/// reaches the decoder rather than stopping at the frame check.
fn reframe(payload: &str, framed: bool) -> String {
    if framed {
        format!("v1 {:08x} {payload}", journal::crc32(payload.as_bytes()))
    } else {
        payload.to_owned()
    }
}

/// Mutants of one corpus line (given without its newline): every numeric
/// field replaced by every [`NUMBERS`] entry, plus seeded byte flips,
/// truncations and dropped or duplicated fields.
fn mutants(line: &str, rng: &mut SimRng) -> Vec<Vec<u8>> {
    let framed = line.starts_with("v1 ");
    let payload = journal::line_payload(line);
    let fields: Vec<&str> = payload.split(' ').collect();
    let join = |fields: &[&str]| reframe(&fields.join(" "), framed).into_bytes();
    let mut out = Vec::new();
    for (i, field) in fields.iter().enumerate() {
        if is_numeric(field) {
            for n in NUMBERS {
                let mut f = fields.clone();
                f[i] = n;
                out.push(join(&f));
            }
        }
    }
    let i = rng.index(fields.len());
    let mut dropped = fields.clone();
    dropped.remove(i);
    out.push(join(&dropped));
    let mut duplicated = fields.clone();
    duplicated.insert(i, fields[i]);
    out.push(join(&duplicated));
    let bytes = line.as_bytes();
    for _ in 0..2 {
        let mut flipped = bytes.to_vec();
        let at = rng.index(flipped.len());
        flipped[at] ^= 1 << rng.index(8);
        out.push(flipped);
        // The same flip inside the payload, under a matching CRC.
        let mut p = payload.as_bytes().to_vec();
        let at = rng.index(p.len());
        p[at] ^= 1 << rng.index(8);
        if let Ok(p) = String::from_utf8(p) {
            out.push(reframe(&p, framed).into_bytes());
        }
        out.push(bytes[..rng.index(bytes.len())].to_vec());
    }
    out
}

/// Feeds one mutant through every reader that takes journal or wire
/// lines. Refusals are fine; panics and aborts are not, and whatever the
/// decoder accepts must re-encode to itself and read the same to the
/// reference.
fn drive(mutant: &[u8]) -> bool {
    let mut journal = mutant.to_vec();
    journal.push(b'\n');
    let _ = journal::replay(&journal);
    let _ = journal::prefix_through_lsn(&journal, 1);
    let Ok(line) = std::str::from_utf8(mutant) else {
        return false;
    };
    let _ = Standby::new("m").receive(0, line, 1);
    let Ok(rec) = journal::parse_line(line) else {
        return false;
    };
    let framed = line.starts_with("v1 ");
    assert_eq!(
        encode(&rec, framed),
        journal,
        "accepted line does not re-encode: {line:?}"
    );
    assert_eq!(
        ref_parse(line).as_ref(),
        Ok(&owned(&rec)),
        "reference disagrees: {line:?}"
    );
    true
}

/// The oracle plus the mutation fuzzer over `seeds` generator seeds and,
/// per shipped model and dialect, one call stream for every eighth seed.
fn run(seeds: u64, steps: usize) {
    let mut lines: Vec<String> = Vec::new();
    for seed in 0..seeds {
        for rec in generated(seed, 64) {
            lines.extend(check_generated(&rec));
        }
    }
    for (name, model) in &shipped_models() {
        for framed in [false, true] {
            for seed in 0..seeds.div_ceil(8) {
                let bytes = stream_journal(model, seed, steps, framed);
                lines.extend(check_stream(name, &bytes));
            }
        }
    }
    let mut rng = SimRng::seed_from_u64(0x0F_0220 + seeds);
    let (mut tried, mut accepted) = (0u64, 0u64);
    for line in &lines {
        for mutant in mutants(line.trim_end_matches('\n'), &mut rng) {
            tried += 1;
            accepted += u64::from(drive(&mutant));
        }
    }
    // The mutations must both pass and fail the decoder, or they test
    // nothing: "0" in a numeric field is usually still canonical.
    assert!(accepted > 0 && accepted < tried, "{accepted} of {tried}");
}

#[test]
fn codec_matches_the_reference_and_survives_mutation() {
    run(8, 120);
}

#[test]
#[ignore = "the full seed count; CI runs it in release"]
fn codec_matches_the_reference_and_survives_mutation_full() {
    run(80, 400);
}
