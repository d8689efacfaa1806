//! Writing and validation of the `BENCH_*.json` artifacts the experiments
//! emit.
//!
//! Every experiment renders its artifact through the small writer below
//! ([`document`], [`row`], [`campaign_row`], [`rows`], [`array()`]), so all
//! artifacts share one layout: one top-level key per line, one inline row
//! per run. CI regenerates the artifacts (`experiments -- quick`) and then
//! runs the `check_artifacts` binary, which uses this module to verify
//! that every `BENCH_*.json` in the working directory parses as JSON and
//! carries the keys downstream tooling relies on. Writer and parser are
//! hand-rolled and deliberately minimal (objects, arrays, strings,
//! numbers, booleans, null) — the workspace is dependency-free by design,
//! so no serde.

use std::collections::BTreeMap;
use std::fmt::{self, Display};

/// Named values of one JSON object, in output order.
pub type Fields<'a> = [(&'a str, &'a dyn Display)];

/// A float rendered with a fixed number of decimals (`Fixed(x, 3)` is
/// `{x:.3}`).
pub struct Fixed(pub f64, pub usize);

impl Display for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.*}", self.1, self.0)
    }
}

/// A JSON string literal (quoted, with `"` and `\` escaped).
pub struct Str<'a>(pub &'a str);

impl Display for Str<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let escaped = self.0.replace('\\', "\\\\").replace('"', "\\\"");
        write!(f, "\"{escaped}\"")
    }
}

fn pairs(fields: &Fields) -> Vec<String> {
    fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect()
}

/// An inline object: `{"k": v, "k2": v2}`.
pub fn row(fields: &Fields) -> String {
    format!("{{{}}}", pairs(fields).join(", "))
}

/// A campaign row: the seed and the first run on one line, every further
/// run on its own line.
pub fn campaign_row(seed: u64, runs: &Fields) -> String {
    format!("{{\"seed\": {seed}, {}}}", pairs(runs).join(",\n     "))
}

/// An inline array: `[1, 3, 7]`.
pub fn array<T: Display>(items: &[T]) -> String {
    let items: Vec<String> = items.iter().map(T::to_string).collect();
    format!("[{}]", items.join(", "))
}

/// An array of rows, one per line, nested one level below the document.
pub fn rows(rows: &[String]) -> String {
    let rows: Vec<String> = rows.iter().map(|r| format!("    {r}")).collect();
    format!("[\n{}\n  ]", rows.join(",\n"))
}

/// The top-level document: one key per line, newline-terminated.
pub fn document(fields: &Fields) -> String {
    format!("{{\n  {}\n}}\n", pairs(fields).join(",\n  "))
}

/// A parsed JSON value (just enough for artifact checking).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as f64; artifact values are small).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, key-ordered.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, why: &str) -> String {
        format!("{why} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(b) => {
                    // Multi-byte UTF-8 passes through untouched.
                    let ch_len = match b {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let chunk = self
                        .bytes
                        .get(self.pos..self.pos + ch_len)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or_else(|| self.err("bad UTF-8 in string"))?;
                    out.push_str(chunk);
                    self.pos += ch_len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

/// Parses a JSON document; trailing content (other than whitespace) is an
/// error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content"));
    }
    Ok(v)
}

/// Required top-level keys per experiment id (`"experiment"` itself is
/// always required).
pub fn required_keys(experiment: &str) -> &'static [&'static str] {
    match experiment {
        "e6" => &["seed", "calls", "period_ms", "baseline", "resilient"],
        "e7" => &[
            "seed",
            "calls",
            "period_ms",
            "supervised_trace_identical",
            "naive_trace_identical",
            "baseline",
            "supervised",
            "naive",
        ],
        "e8" => &[
            "seed",
            "horizon_ms",
            "shed_beats_naive",
            "brownout_beats_naive",
            "crash_trace_identical",
            "recovered_mode_matches",
            "naive",
            "shed",
            "brownout",
        ],
        "e9" => &[
            "seed",
            "seeds",
            "calls",
            "period_ms",
            "ack_zero_lost",
            "ack_zero_divergence",
            "async_loss_observed",
            "replays_consistent",
            "one_primary_per_epoch",
            "campaigns",
        ],
        "e10" => &[
            "seed",
            "seeds",
            "calls",
            "period_ms",
            "unmonitored_divergence_observed",
            "monitors_caught_all",
            "zero_divergence_monitored",
            "standby_caught_all",
            "replays_consistent",
            "campaigns",
        ],
        "e13" => &[
            "seed",
            "seeds",
            "calls",
            "period_ms",
            "naive_loss_observed",
            "checksummed_detects_byte_damage",
            "self_healing_detected_all",
            "self_healing_zero_loss",
            "repairs_byte_identical",
            "replays_consistent",
            "campaigns",
        ],
        "e14" => &[
            "seed",
            "seeds",
            "calls",
            "period_ms",
            "all_consistent",
            "zero_committed_lost",
            "replays_byte_identical",
            "live_goodput_wins",
            "goodput_live",
            "goodput_stw",
            "campaigns",
        ],
        "e15" => &[
            "seed",
            "seeds",
            "calls",
            "period_ms",
            "quorum_zero_lost",
            "quorum_zero_divergence",
            "availability_strictly_better",
            "replays_consistent",
            "one_primary_per_epoch",
            "upgrades_propagated",
            "unavailable_quorum",
            "unavailable_baseline",
            "campaigns",
        ],
        "e11" => &[
            "seed",
            "seeds",
            "draws_per_model",
            "trials_run",
            "detected",
            "detection_rate",
            "false_positives",
            "baselines",
            "trials",
        ],
        _ => &["seed"],
    }
}

/// Checks one artifact's text: parses it and verifies the experiment's
/// required keys exist. Returns the experiment id.
pub fn check_artifact(name: &str, text: &str) -> Result<String, String> {
    let v = parse(text).map_err(|e| format!("{name}: does not parse: {e}"))?;
    let exp = v
        .get("experiment")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{name}: missing string key \"experiment\""))?
        .to_owned();
    for key in required_keys(&exp) {
        if v.get(key).is_none() {
            return Err(format!(
                "{name}: experiment `{exp}` is missing key \"{key}\""
            ));
        }
    }
    Ok(exp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_arrays_and_objects() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(
            parse("\"a\\n\\\"b\\u0041\"").unwrap(),
            Json::Str("a\n\"bA".into())
        );
        let v = parse("{\"a\": [1, 2, {\"b\": false}], \"c\": null}").unwrap();
        assert!(matches!(v.get("a"), Some(Json::Arr(items)) if items.len() == 3));
        assert_eq!(v.get("c"), Some(&Json::Null));
        assert_eq!(parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), Json::Obj(BTreeMap::new()));
    }

    #[test]
    fn rejects_garbage_and_trailing_content() {
        assert!(parse("nope").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("[1, 2").is_err());
    }

    #[test]
    fn real_artifacts_pass_the_check() {
        let e6 = crate::e6::run(3, 50, 20).to_json();
        assert_eq!(check_artifact("BENCH_e6.json", &e6).unwrap(), "e6");
        let e7 = crate::e7::run(3, 80, 20).to_json();
        assert_eq!(check_artifact("BENCH_e7.json", &e7).unwrap(), "e7");
        let e8 = crate::e8::run(3, 300).to_json();
        assert_eq!(check_artifact("BENCH_e8.json", &e8).unwrap(), "e8");
        let e9 = crate::e9::run(&[3], 120, 20).to_json();
        assert_eq!(check_artifact("BENCH_e9.json", &e9).unwrap(), "e9");
        let e10 = crate::e10::run(&[3], 120, 20).to_json();
        assert_eq!(check_artifact("BENCH_e10.json", &e10).unwrap(), "e10");
        let e13 = crate::e13::run(&[3], 120, 20).to_json();
        assert_eq!(check_artifact("BENCH_e13.json", &e13).unwrap(), "e13");
        let e14 = crate::e14::run(&[3], 120, 20).to_json();
        assert_eq!(check_artifact("BENCH_e14.json", &e14).unwrap(), "e14");
        let e15 = crate::e15::run(&[3], 120, 20).to_json();
        assert_eq!(check_artifact("BENCH_e15.json", &e15).unwrap(), "e15");
    }

    #[test]
    fn the_writer_renders_the_artifact_layout_and_parses_back() {
        let run = row(&[("n", &3u64), ("ok", &true), ("ms", &Fixed(1.23456, 3))]);
        assert_eq!(run, "{\"n\": 3, \"ok\": true, \"ms\": 1.235}");
        let c = campaign_row(7, &[("a", &run), ("b", &run)]);
        assert_eq!(
            c,
            format!("{{\"seed\": 7, \"a\": {run},\n     \"b\": {run}}}")
        );
        let doc = document(&[
            ("experiment", &Str("e0")),
            ("seeds", &array(&[1, 3])),
            ("note", &Str("say \"hi\"\\")),
            ("campaigns", &rows(&[c.clone(), c])),
        ]);
        assert!(doc.starts_with("{\n  \"experiment\": \"e0\",\n  \"seeds\": [1, 3],\n"));
        assert!(doc.ends_with("}}\n  ]\n}\n"));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("note").and_then(Json::as_str), Some("say \"hi\"\\"));
        assert!(matches!(v.get("campaigns"), Some(Json::Arr(items)) if items.len() == 2));
    }

    #[test]
    fn missing_keys_are_reported() {
        let bad = "{\"experiment\": \"e7\", \"seed\": 1}";
        let err = check_artifact("x.json", bad).unwrap_err();
        assert!(err.contains("missing key"), "{err}");
        let no_exp = "{\"seed\": 1}";
        assert!(check_artifact("x.json", no_exp).is_err());
    }
}
