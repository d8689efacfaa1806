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
//!
//! [`parse()`] reads the source in one pass over its bytes. Tokens borrow
//! the source (a string literal is copied only when it holds an escape),
//! and carry only their byte offset: an error's line and column are
//! computed when the error is built. Text is copied only into the
//! [`Model`] it builds, each distinct class or slot name once, and the
//! model's arena is sized once from the object count. The whole input is
//! lexed before it is parsed, so a lexical error anywhere wins over a
//! grammar error before it.
//!
//! The scanner is the crate's only lexer: [`crate::constraint`] reads
//! OCL-lite with it too, so both languages share one set of rules for
//! identifiers, numbers, strings and their escapes, `//` comments and
//! error positions. Each language passes its punctuation to it as a
//! function, for which the scanner is compiled separately.

use crate::error::MetaError;
use crate::model::{Model, Name, ObjectId};
use crate::{Result, Value};
use std::borrow::Cow;
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
        let _ = writeln!(out, "  {} o{} {{", ident_or_str(obj.class()), id.index());
        for (name, vals) in obj.attrs().filter(|(_, vals)| !vals.is_empty()) {
            write_slot(&mut out, name, " = ", "", vals.iter().map(Written));
        }
        for (name, targets) in obj.refs().filter(|(_, targets)| !targets.is_empty()) {
            write_slot(
                &mut out,
                name,
                " -> ",
                "o",
                targets.iter().map(|t| t.index()),
            );
        }
        let _ = writeln!(out, "  }}");
    }
    out.push_str("}\n");
    out
}

/// Writes a slot of one item as `name op item`, of several as
/// `name op [item, item]`, each item after `prefix` (`op` carries its
/// spaces).
fn write_slot<T: std::fmt::Display>(
    out: &mut String,
    name: &str,
    op: &str,
    prefix: &str,
    items: impl ExactSizeIterator<Item = T>,
) {
    let many = items.len() != 1;
    out.push_str("    ");
    out.push_str(&ident_or_str(name));
    out.push_str(op);
    out.push_str(if many { "[" } else { "" });
    for (i, item) in items.enumerate() {
        out.push_str(if i > 0 { ", " } else { "" });
        let _ = write!(out, "{prefix}{item}");
    }
    out.push_str(if many { "]\n" } else { "\n" });
}

/// A value as the format writes it: its `Display` form, except that an
/// enum's type and literal names are quoted unless they are identifiers.
struct Written<'a>(&'a Value);

impl std::fmt::Display for Written<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 {
            Value::Enum(ty, lit) => write!(f, "{}::{}", ident_or_str(ty), ident_or_str(lit)),
            value => std::fmt::Display::fmt(value, f),
        }
    }
}

fn ident_or_str(s: &str) -> Cow<'_, str> {
    let is_ident = !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_alphanumeric() || c == '_');
    if is_ident {
        Cow::Borrowed(s)
    } else {
        Cow::Owned(format!("{:?}", s))
    }
}

// ---------------------------------------------------------------- lexing

/// A token of model text or of OCL-lite, over the language's punctuation
/// `P`.
#[derive(Debug, PartialEq)]
pub(crate) enum Tok<'a, P> {
    Ident(&'a str),
    /// An integer literal's magnitude; the parser negates it after a `-`
    /// and checks its range.
    Int(u64),
    Float(f64),
    Str(Cow<'a, str>),
    Punct(P),
    Eof,
}

/// A token and the byte offset it starts at.
pub(crate) type Token<'a, P> = (Tok<'a, P>, usize);

/// What an integer literal out of `i64`'s range is refused with.
pub(crate) const BAD_INT: &str = "bad int: number too large to fit in target type";

/// The model format's punctuation.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Punct {
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Eq,
    Arrow,
    ColonColon,
    Comma,
    Minus,
}

/// The mark of the model format's punctuation that `rest` starts with,
/// and its length in bytes.
fn punct(rest: &[u8]) -> Option<(Punct, usize)> {
    Some(match rest {
        [b'-', b'>', ..] => (Punct::Arrow, 2),
        [b':', b':', ..] => (Punct::ColonColon, 2),
        [b'{', ..] => (Punct::LBrace, 1),
        [b'}', ..] => (Punct::RBrace, 1),
        [b'[', ..] => (Punct::LBracket, 1),
        [b']', ..] => (Punct::RBracket, 1),
        [b'=', ..] => (Punct::Eq, 1),
        [b',', ..] => (Punct::Comma, 1),
        [b'-', ..] => (Punct::Minus, 1),
        _ => return None,
    })
}

/// The syntax error `message` at byte `offset` of `src`. The line counts
/// newlines before the offset; the column counts chars since the last one.
pub(crate) fn syntax(src: &str, offset: usize, message: impl Into<String>) -> MetaError {
    let before = &src[..offset];
    let line_start = before.rfind('\n').map_or(0, |n| n + 1);
    let ordinal = |n: usize| u32::try_from(n + 1).unwrap_or(u32::MAX);
    MetaError::Syntax {
        line: ordinal(before.bytes().filter(|&b| b == b'\n').count()),
        col: ordinal(before[line_start..].chars().count()),
        message: message.into(),
    }
}

/// The char at byte `i` of `src`, decoded only when it is not ASCII.
fn char_at(src: &str, i: usize) -> Option<char> {
    match *src.as_bytes().get(i)? {
        b if b.is_ascii() => Some(char::from(b)),
        _ => src[i..].chars().next(),
    }
}

/// The end of the run of ASCII digits at byte `i`.
fn digits_end(bytes: &[u8], i: usize) -> usize {
    i + bytes[i..].iter().take_while(|b| b.is_ascii_digit()).count()
}

/// The scanner of both languages: splits `src` into tokens, ending with
/// [`Tok::Eof`]. `punct` gives the language's punctuation mark a text
/// starts with and its length in bytes; the rest is shared: whitespace,
/// `//` line comments, identifiers, numbers, strings and their escapes,
/// and a `:` that does not start `::` is an error.
pub(crate) fn lex<P>(
    src: &str,
    punct: impl Fn(&[u8]) -> Option<(P, usize)>,
) -> Result<Vec<Token<'_, P>>> {
    let bytes = src.as_bytes();
    // About one token per four bytes of model text.
    let mut toks = Vec::with_capacity(src.len() / 4 + 1);
    let (mut i, mut eof) = (0, src.len());
    while let Some(c) = char_at(src, i) {
        let start = i;
        i += c.len_utf8();
        let tok = match c {
            '/' if bytes.get(i) == Some(&b'/') => {
                match bytes[i..].iter().position(|&b| b == b'\n') {
                    Some(n) => i += n,
                    // A comment does not advance the column, so an end of
                    // input right after one is reported where it starts.
                    None => (i, eof) = (src.len(), start),
                }
                continue;
            }
            c if c.is_whitespace() => continue,
            ':' if bytes.get(i) != Some(&b':') => return Err(syntax(src, start, "expected `::`")),
            '"' => {
                let (s, end) = string(src, i)?;
                i = end;
                Tok::Str(s)
            }
            '0'..='9' => {
                i = digits_end(bytes, start);
                let is_float =
                    bytes.get(i) == Some(&b'.') && bytes.get(i + 1).is_some_and(u8::is_ascii_digit);
                if is_float {
                    i = digits_end(bytes, i + 1);
                    let x = src[start..i].parse();
                    Tok::Float(x.map_err(|e| syntax(src, start, format!("bad float: {e}")))?)
                } else {
                    let n = src[start..i].parse();
                    Tok::Int(n.map_err(|e| syntax(src, start, format!("bad int: {e}")))?)
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                while let Some(c) = char_at(src, i).filter(|c| c.is_alphanumeric() || *c == '_') {
                    i += c.len_utf8();
                }
                Tok::Ident(&src[start..i])
            }
            c => match punct(&bytes[start..]) {
                Some((p, len)) => {
                    i = start + len;
                    Tok::Punct(p)
                }
                None => return Err(syntax(src, start, format!("unexpected character `{c}`"))),
            },
        };
        toks.push((tok, start));
    }
    toks.push((Tok::Eof, eof));
    Ok(toks)
}

/// The string literal whose body starts at byte `body`, and the offset
/// after its closing quote. It borrows the source unless it holds an
/// escape.
fn string(src: &str, body: usize) -> Result<(Cow<'_, str>, usize)> {
    let bytes = src.as_bytes();
    let (mut owned, mut run, mut i) = (None::<String>, body, body);
    loop {
        i += bytes[i..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or_else(|| syntax(src, body - 1, "unterminated string"))?;
        if bytes[i] == b'"' {
            let s = match owned {
                None => Cow::Borrowed(&src[body..i]),
                Some(mut s) => {
                    s.push_str(&src[run..i]);
                    Cow::Owned(s)
                }
            };
            return Ok((s, i + 1));
        }
        let Some((c, len)) = escape(&bytes[i + 1..]) else {
            let next = src[i + 1..].chars().next().unwrap_or(' ');
            return Err(syntax(src, i, format!("bad escape `\\{next}`")));
        };
        let s = owned.get_or_insert_with(String::new);
        s.push_str(&src[run..i]);
        s.push(c);
        i += len;
        run = i;
    }
}

/// The char an escape stands for and the escape's length, backslash
/// included, given the bytes after its backslash.
fn escape(rest: &[u8]) -> Option<(char, usize)> {
    let c = match rest.first()? {
        b'"' => '"',
        b'\\' => '\\',
        b'n' => '\n',
        b't' => '\t',
        b'r' => '\r',
        b'0' => '\0',
        b'u' => return unicode_escape(&rest[1..]),
        _ => return None,
    };
    Some((c, 2))
}

/// The scalar of a `\u{…}` escape and the escape's length, `\u` included,
/// given the text after its `\u`: one to six hex digits in braces that
/// name a Unicode scalar value (what `Value`'s `Display` writes for a
/// control character).
fn unicode_escape(rest: &[u8]) -> Option<(char, usize)> {
    let digits = rest.iter().skip(1).take_while(|b| b.is_ascii_hexdigit());
    let n = digits.clone().count();
    if rest.first() != Some(&b'{') || !(1..=6).contains(&n) || rest.get(n + 1) != Some(&b'}') {
        return None;
    }
    let code = digits.fold(0, |code, &b| {
        code * 16 + char::from(b).to_digit(16).unwrap_or(0)
    });
    Some((char::from_u32(code)?, n + 4))
}

// ---------------------------------------------------------------- parsing

/// Parses a model from its textual form.
pub fn parse(src: &str) -> Result<Model> {
    let toks = lex(src, punct)?;
    P {
        src,
        toks: &toks,
        pos: 0,
    }
    .model()
}

struct P<'a> {
    src: &'a str,
    toks: &'a [Token<'a, Punct>],
    pos: usize,
}

impl<'a> P<'a> {
    fn peek(&self) -> &'a Token<'a, Punct> {
        let toks = self.toks;
        &toks[self.pos.min(toks.len() - 1)]
    }

    fn err(&self, message: impl Into<String>) -> MetaError {
        syntax(self.src, self.peek().1, message)
    }

    fn at_eof(&self) -> bool {
        self.peek().0 == Tok::Eof
    }

    fn eat(&mut self, p: Punct) -> bool {
        let hit = self.peek().0 == Tok::Punct(p);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, p: Punct, what: &str) -> Result<()> {
        if self.eat(p) {
            Ok(())
        } else {
            Err(self.err(format!("expected {what}")))
        }
    }

    /// An identifier or a quoted string, borrowed from the source or its
    /// token.
    fn ident(&mut self, what: &str) -> Result<&'a str> {
        let s = match &self.peek().0 {
            Tok::Ident(s) => s,
            Tok::Str(s) => s.as_ref(),
            _ => return Err(self.err(format!("expected {what}"))),
        };
        self.pos += 1;
        Ok(s)
    }

    fn kw(&mut self, kw: &str) -> Result<()> {
        if self.peek().0 == Tok::Ident(kw) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected keyword `{kw}`")))
        }
    }

    fn model(&mut self) -> Result<Model> {
        self.kw("model")?;
        let _name = self.ident("model name")?;
        self.kw("conformsTo")?;
        // Each object's body is one brace pair inside the model's.
        let lbrace = Tok::Punct(Punct::LBrace);
        let braces = self.toks.iter().filter(|(t, _)| *t == lbrace).count();
        let metamodel = self.ident("metamodel name")?;
        let mut model = Model::with_capacity(metamodel.into(), braces.saturating_sub(1));
        self.expect(Punct::LBrace, "`{`")?;

        // One shared name per distinct class or slot name of the text. The
        // first few are found by a scan, cheaper than a map lookup for the
        // handful a model has; further ones go to a map, so a text of many
        // names is not scanned quadratically.
        const SCANNED: usize = 32;
        let (mut first, mut more) = (Vec::with_capacity(SCANNED), BTreeMap::<_, Name>::new());
        let mut name = |s: &'a str| -> Name {
            match first.iter().find(|n: &&Name| ***n == *s) {
                Some(n) => n.clone(),
                None if first.len() == SCANNED => more.entry(s).or_insert_with(|| s.into()).clone(),
                None => {
                    first.push(s.into());
                    first[first.len() - 1].clone()
                }
            }
        };
        let mut local: BTreeMap<&str, ObjectId> = BTreeMap::new();
        // Reference slots, resolved after all objects are created: (object,
        // slot, target count), with every slot's targets (offset and local
        // id) in order in `targets`.
        let mut slots: Vec<(ObjectId, Name, usize)> = Vec::new();
        let mut targets: Vec<(usize, &str)> = Vec::new();
        let mut values = Vec::new();

        while !self.eat(Punct::RBrace) {
            if self.at_eof() {
                return Err(self.err("unexpected end of input (unclosed model block)"));
            }
            let class = self.ident("class name")?;
            let lid = self.ident("object local id")?;
            let id = model.create(name(class));
            if local.insert(lid, id).is_some() {
                return Err(self.err(format!("duplicate object id `{lid}`")));
            }
            self.expect(Punct::LBrace, "`{` opening object body")?;
            while !self.eat(Punct::RBrace) {
                if self.at_eof() {
                    return Err(self.err("unexpected end of input (unclosed object body)"));
                }
                let slot = self.ident("slot name")?;
                if self.eat(Punct::Eq) {
                    self.items(&mut values, Self::value)?;
                    model.set_attr_many(id, name(slot), values.drain(..));
                } else if self.eat(Punct::Arrow) {
                    let before = targets.len();
                    self.items(&mut targets, |p| Ok((p.peek().1, p.ident("object id")?)))?;
                    slots.push((id, name(slot), targets.len() - before));
                } else {
                    return Err(self.err("expected `=` (attribute) or `->` (reference)"));
                }
            }
        }
        if !self.at_eof() {
            return Err(self.err("expected end of input"));
        }

        let mut ids = Vec::with_capacity(targets.len());
        for (at, lid) in targets {
            let Some(&t) = local.get(lid) else {
                let message = format!("reference to undefined object `{lid}`");
                return Err(syntax(self.src, at, message));
            };
            ids.push(t);
        }
        let mut ids = ids.into_iter();
        for (id, slot, n) in slots {
            model.set_refs(id, slot, ids.by_ref().take(n));
        }
        Ok(model)
    }

    /// Appends one item, or a bracketed, comma-separated list of them.
    fn items<T>(&mut self, out: &mut Vec<T>, item: impl Fn(&mut Self) -> Result<T>) -> Result<()> {
        if !self.eat(Punct::LBracket) {
            out.push(item(self)?);
            return Ok(());
        }
        if self.eat(Punct::RBracket) {
            return Ok(());
        }
        loop {
            out.push(item(self)?);
            if self.eat(Punct::RBracket) {
                return Ok(());
            }
            self.expect(Punct::Comma, "`,` or `]`")?;
        }
    }

    fn value(&mut self) -> Result<Value> {
        let negative = self.eat(Punct::Minus);
        let value = match (&self.peek().0, negative) {
            // `-9223372036854775808` is `i64::MIN`, while
            // `9223372036854775808` is out of range.
            (Tok::Int(n), _) => {
                let n = if negative {
                    0i64.checked_sub_unsigned(*n)
                } else {
                    i64::try_from(*n).ok()
                };
                Value::Int(n.ok_or_else(|| self.err(BAD_INT))?)
            }
            (Tok::Float(x), _) => Value::Float(if negative { -x } else { *x }),
            (Tok::Ident("inf"), true) => Value::Float(f64::NEG_INFINITY),
            (_, true) => return Err(self.err("expected number after `-`")),
            (Tok::Ident(name), _) => return self.word(name, false),
            (Tok::Str(s), _) => return self.word(s, true),
            _ => return Err(self.err("expected value")),
        };
        self.pos += 1;
        Ok(value)
    }

    /// The value an identifier or (`quoted`) string under the cursor
    /// starts: an enum's type when `::` follows it, else a keyword or the
    /// string itself.
    fn word(&mut self, name: &str, quoted: bool) -> Result<Value> {
        self.pos += 1;
        if self.eat(Punct::ColonColon) {
            let lit = self.ident("enum literal")?;
            return Ok(Value::Enum(name.to_owned(), lit.to_owned()));
        }
        Ok(match (name, quoted) {
            (s, true) => Value::Str(s.to_owned()),
            ("true", _) => Value::Bool(true),
            ("false", _) => Value::Bool(false),
            ("NaN", _) => Value::Float(f64::NAN),
            ("inf", _) => Value::Float(f64::INFINITY),
            _ => return Err(self.err("expected `::` (enum literal)")),
        })
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
