//! Textual model format (HUTN-like): the concrete syntax users and tools
//! exchange models in.
//!
//! A model is written as a flat list of objects with local ids; reference
//! slots point at local ids. Example:
//!
//! ```text
//! model sessions conformsTo cml {
//!   // objects are Class localId { slots }
//!   Session s1 {
//!     name = "standup"
//!     kind = Kind::Video
//!     parties -> [p1, p2]
//!   }
//!   Party p1 { name = "ana"  bw = 250 }
//!   Party p2 { name = "bob"  bw = 100 }
//! }
//! ```
//!
//! [`write()`] and [`parse()`] round-trip: `parse(&write(m))` is equivalent to
//! `m` (object ids are renumbered in arena order).

use crate::error::MetaError;
use crate::model::{Model, ObjectId};
use crate::{Result, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

// ---------------------------------------------------------------- writing

/// Serializes a model to the textual format.
pub fn write(model: &Model) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "model {} conformsTo {} {{",
        ident_or_str("m"),
        ident_or_str(model.metamodel_name())
    );
    for (id, obj) in model.iter() {
        let _ = writeln!(out, "  {} o{} {{", ident_or_str(&obj.class), id.index());
        for (name, vals) in &obj.attrs {
            if vals.is_empty() {
                continue;
            }
            let name = ident_or_str(name);
            if vals.len() == 1 {
                let _ = writeln!(out, "    {name} = {}", vals[0]);
            } else {
                let items: Vec<String> = vals.iter().map(ToString::to_string).collect();
                let _ = writeln!(out, "    {name} = [{}]", items.join(", "));
            }
        }
        for (name, targets) in &obj.refs {
            if targets.is_empty() {
                continue;
            }
            let name = ident_or_str(name);
            if targets.len() == 1 {
                let _ = writeln!(out, "    {name} -> o{}", targets[0].index());
            } else {
                let items: Vec<String> =
                    targets.iter().map(|t| format!("o{}", t.index())).collect();
                let _ = writeln!(out, "    {name} -> [{}]", items.join(", "));
            }
        }
        let _ = writeln!(out, "  }}");
    }
    out.push_str("}\n");
    out
}

fn ident_or_str(s: &str) -> String {
    let is_ident = !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_alphanumeric() || c == '_');
    if is_ident {
        s.to_owned()
    } else {
        format!("{:?}", s)
    }
}

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
                                    format!("bad escape `\\{}`", chars.get(i + 1).unwrap_or(&' ')),
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
            Tok::Str(s) => {
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
            Tok::Ident(name) => {
                self.pos += 1;
                match name.as_str() {
                    "true" => Ok(Value::Bool(true)),
                    "false" => Ok(Value::Bool(false)),
                    "NaN" if self.peek().0 != Tok::ColonColon => Ok(Value::Float(f64::NAN)),
                    "inf" if self.peek().0 != Tok::ColonColon => Ok(Value::Float(f64::INFINITY)),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::equivalent;

    fn sample_model() -> Model {
        let mut m = Model::new("cml");
        let s = m.create("Session");
        m.set_attr(s, "name", Value::from("standup"));
        m.set_attr(s, "kind", Value::enumeration("Kind", "Video"));
        m.set_attr_many(s, "tags", vec![Value::from("daily"), Value::from("team")]);
        let p1 = m.create("Party");
        m.set_attr(p1, "name", Value::from("ana"));
        m.set_attr(p1, "bw", Value::from(250));
        let p2 = m.create("Party");
        m.set_attr(p2, "name", Value::from("bob"));
        m.set_attr(p2, "rate", Value::from(-1.5));
        m.set_refs(s, "parties", vec![p1, p2]);
        m.set_refs(s, "owner", vec![p1]);
        m
    }

    #[test]
    fn roundtrip_preserves_model() {
        let m = sample_model();
        let text = write(&m);
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed.metamodel_name(), "cml");
        assert!(equivalent(&m, &parsed));
        // Arena order is preserved, so the models are structurally identical.
        assert_eq!(m, parsed);
    }

    #[test]
    fn parses_handwritten_source() {
        let src = r#"
            model sessions conformsTo cml {
              // a comment
              Session s1 {
                name = "standup"
                kind = Kind::Video
                parties -> [p1, p2]
                owner -> p1
              }
              Party p1 { name = "ana" bw = 250 ok = true }
              Party p2 { name = "bob" xs = [1, 2, 3] }
            }
        "#;
        let m = parse(src).unwrap();
        assert_eq!(m.len(), 3);
        let s = m.all_of_class("Session")[0];
        assert_eq!(m.refs(s, "parties").len(), 2);
        assert_eq!(m.attr_str(s, "name"), Some("standup"));
        let p2 = m.refs(s, "parties")[1];
        assert_eq!(m.attr_all(p2, "xs").len(), 3);
    }

    #[test]
    fn forward_references_allowed() {
        let src = r#"model m conformsTo mm {
            A a1 { next -> a2 }
            A a2 { }
        }"#;
        let m = parse(src).unwrap();
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn undefined_reference_rejected_with_position() {
        let src = "model m conformsTo mm {\n A a1 { next -> nope }\n}";
        let e = parse(src).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("undefined object `nope`"), "{msg}");
        assert!(msg.contains("2:"), "{msg}");
    }

    #[test]
    fn duplicate_local_id_rejected() {
        let src = "model m conformsTo mm { A x { } B x { } }";
        assert!(parse(src)
            .unwrap_err()
            .to_string()
            .contains("duplicate object id"));
    }

    #[test]
    fn syntax_errors() {
        assert!(parse("").is_err());
        assert!(parse("model m {").is_err());
        assert!(parse("model m conformsTo mm {").is_err());
        assert!(parse("model m conformsTo mm { A a {").is_err());
        assert!(parse("model m conformsTo mm { A a { x } }").is_err());
        assert!(parse("model m conformsTo mm { A a { x = } }").is_err());
        assert!(parse("model m conformsTo mm { A a { x = Color } }").is_err());
        assert!(parse("model m conformsTo mm {} trailing").is_err());
        // Out of range: only a negated literal reaches `i64::MIN`.
        assert!(parse("model m conformsTo mm { A a { x = 9223372036854775808 } }").is_err());
        assert!(parse("model m conformsTo mm { A a { x = -9223372036854775809 } }").is_err());
        // A `\u` escape names one Unicode scalar value in 1-6 hex digits.
        for bad in [
            r#""\u{110000}""#,
            r#""\u{d800}""#,
            r#""\u{}""#,
            r#""\u{1234567}""#,
            r#""\u{1b""#,
            r#""\u1b""#,
            r#""\u"#,
        ] {
            let src = format!("model m conformsTo mm {{ A a {{ x = {bad} }} }}");
            let msg = parse(&src).unwrap_err().to_string();
            assert!(msg.contains("bad escape `\\u`"), "{src}: {msg}");
        }
    }

    #[test]
    fn empty_model_roundtrip() {
        let m = Model::new("mm");
        let parsed = parse(&write(&m)).unwrap();
        assert!(parsed.is_empty());
        assert_eq!(parsed.metamodel_name(), "mm");
    }

    #[test]
    fn negative_numbers_and_empty_lists() {
        let src = "model m conformsTo mm { A a { x = -3 y = -2.5 zs = [] } }";
        let m = parse(src).unwrap();
        let a = m.all_of_class("A")[0];
        assert_eq!(m.attr_int(a, "x"), Some(-3));
        assert_eq!(m.attr_float(a, "y"), Some(-2.5));
        assert!(m.attr_all(a, "zs").is_empty());
    }

    #[test]
    fn quoted_metamodel_name() {
        let src = "model \"my model\" conformsTo \"my mm\" { }";
        let m = parse(src).unwrap();
        assert_eq!(m.metamodel_name(), "my mm");
    }
}
