//! Temporal properties over streams of model states.
//!
//! OCL-lite invariants speak about *one* state; runtime verification also
//! needs properties about how states *evolve* — "the breaker never opens
//! while we are shedding", "at most one primary is promoted per epoch".
//! Following the integrated-runtime-verification line of work for DSMLs,
//! this module gives those properties a tiny surface syntax layered on the
//! existing expression language:
//!
//! ```text
//! always <expr>                    every reachable state satisfies <expr>
//! never <expr> during <expr>       no state satisfies both expressions
//! at-most-one <key> per <key>      the first key takes at most one
//!                                  (non-null) value while the second
//!                                  keeps its value
//! ```
//!
//! A bare `<expr>` parses as `always <expr>`, so every existing invariant
//! string is already a property. Parsing yields a [`Property`]; turning it
//! into an incremental monitor is the runtime's job (the Broker layer
//! compiles properties into in-stream journal monitors).

use super::parser::{parse_tokens, punct, Op};
use super::Expr;
use crate::analysis::collect_self_paths;
use crate::text::{lex, syntax, Tok, Token};
use crate::Result;

/// A parsed temporal property.
#[derive(Debug, Clone, PartialEq)]
pub enum Property {
    /// `always e` (or a bare expression): `e` must hold in every state.
    Always(Expr),
    /// `never n during d`: no state may satisfy `n` and `d` together.
    NeverDuring {
        /// The forbidden condition.
        never: Expr,
        /// The scope condition it is forbidden during.
        during: Expr,
    },
    /// `at-most-one k per p`: while state variable `p` keeps its value,
    /// variable `k` may take at most one distinct non-null value.
    AtMostOnePer {
        /// The variable bounded to one value per period.
        key: String,
        /// The variable whose value delimits the period.
        per: String,
    },
}

impl Property {
    /// The state variables the property depends on: the `self.<key>`
    /// navigations of its expressions, or the two keys of an
    /// `at-most-one` property. An incremental monitor only needs
    /// re-evaluation when one of these changes.
    pub fn watched_keys(&self) -> Vec<String> {
        let mut out = Vec::new();
        match self {
            Property::Always(e) => collect_self_paths(e, &mut out),
            Property::NeverDuring { never, during } => {
                collect_self_paths(never, &mut out);
                collect_self_paths(during, &mut out);
            }
            Property::AtMostOnePer { key, per } => {
                out.push(key.clone());
                out.push(per.clone());
            }
        }
        out.sort();
        out.dedup();
        out
    }
}

/// Whether token `i` (not the first) is the keyword `kw`: that
/// identifier, but not as a property or operation name (right after `.`
/// or `->`).
fn is_keyword(toks: &[Token<'_, Op>], i: usize, kw: &str) -> bool {
    toks[i].0 == Tok::Ident(kw) && !matches!(toks[i - 1].0, Tok::Punct(Op::Dot | Op::Arrow))
}

/// The index of the last `during` keyword of a `never` property's tokens
/// that is outside parentheses: `during` binds loosest.
fn last_during(toks: &[Token<'_, Op>]) -> Option<usize> {
    let (mut depth, mut found) = (0usize, None);
    for i in 1..toks.len() {
        match toks[i].0 {
            Tok::Punct(Op::LParen) => depth += 1,
            Tok::Punct(Op::RParen) => depth = depth.saturating_sub(1),
            _ if depth == 0 && is_keyword(toks, i, "during") => found = Some(i),
            _ => {}
        }
    }
    found
}

/// The state-variable name an `at-most-one` operand spells: the source
/// text of `toks` but the last (which ends the operand), refused unless
/// it is a plain name.
fn identifier(src: &str, toks: &[Token<'_, Op>], role: &str) -> Result<String> {
    let is_name = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '.';
    let (from, end) = (toks[0].1, toks[toks.len() - 1].1);
    // The name ends with the name chars its last token starts with, so a
    // comment may follow it.
    let last = toks[toks.len().saturating_sub(2)].1;
    let to = last + src[last..end].find(|c| !is_name(c)).unwrap_or(end - last);
    let name = &src[from..to];
    if to > last && name.chars().all(is_name) {
        Ok(name.to_owned())
    } else {
        let s = src[from..end].trim_end();
        let message = format!("`at-most-one` {role} `{s}` is not a state-variable name");
        Err(syntax(src, from, message))
    }
}

/// Parses a temporal property. A source with no temporal keyword parses
/// as a plain invariant (`always <expr>`). The source is scanned once, and
/// every error carries its line and column in the whole source.
pub fn parse_property(source: &str) -> Result<Property> {
    let mut toks = lex(source, punct)?;
    let s = source.trim();
    let eof = toks[toks.len() - 1].1;
    match toks.as_slice() {
        [(Tok::Ident("always"), _), ..] => Ok(Property::Always(parse_tokens(source, &toks[1..])?)),
        [(Tok::Ident("never"), _), ..] => {
            let Some(d) = last_during(&toks) else {
                let message = format!("`never` property `{s}` is missing a `during` clause");
                return Err(syntax(source, eof, message));
            };
            // The forbidden condition ends where `during` starts.
            toks[d].0 = Tok::Eof;
            Ok(Property::NeverDuring {
                never: parse_tokens(source, &toks[1..=d])?,
                during: parse_tokens(source, &toks[d + 1..])?,
            })
        }
        [(Tok::Ident("at"), at), _, _, _, (Tok::Ident("one"), _), ..]
            if source[*at..].starts_with("at-most-one") =>
        {
            let Some(per) = (5..toks.len()).find(|&i| is_keyword(&toks, i, "per")) else {
                let message = format!("`at-most-one` property `{s}` is missing a `per` clause");
                return Err(syntax(source, eof, message));
            };
            Ok(Property::AtMostOnePer {
                key: identifier(source, &toks[5..=per], "subject")?,
                per: identifier(source, &toks[per + 1..], "period")?,
            })
        }
        _ => Ok(Property::Always(parse_tokens(source, &toks)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::parse;
    use crate::MetaError;

    /// The line and column, and the message, of the syntax error `src`
    /// fails with.
    fn error_at(src: &str) -> ((u32, u32), String) {
        match parse_property(src) {
            Err(MetaError::Syntax { line, col, message }) => ((line, col), message),
            other => panic!("expected a syntax error on {src:?}, got {other:?}"),
        }
    }

    #[test]
    fn bare_expressions_parse_as_always() {
        let p = parse_property("self.opens >= 0").unwrap();
        assert!(matches!(p, Property::Always(_)));
        assert_eq!(p.watched_keys(), vec!["opens".to_string()]);
        assert_eq!(
            parse_property("always self.opens >= 0").unwrap(),
            parse_property("self.opens >= 0").unwrap()
        );
    }

    #[test]
    fn never_during_splits_on_the_last_during() {
        let p = parse_property("never self.breaker = 1 during self.shed = 1").unwrap();
        match &p {
            Property::NeverDuring { never, during } => {
                assert_eq!(never, &parse("self.breaker = 1").unwrap());
                assert_eq!(during, &parse("self.shed = 1").unwrap());
            }
            other => panic!("expected NeverDuring, got {other:?}"),
        }
        assert_eq!(
            p.watched_keys(),
            vec!["breaker".to_string(), "shed".to_string()]
        );
    }

    #[test]
    fn during_splits_only_as_a_keyword() {
        let p = parse_property(r#"never self.a = 1 during self.b = " during ""#).unwrap();
        let want = Property::NeverDuring {
            never: parse("self.a = 1").unwrap(),
            during: parse(r#"self.b = " during ""#).unwrap(),
        };
        assert_eq!(p, want);
        // Nor inside parentheses, nor as a property or operation name.
        let src = "never self.during = 1 during (self.x->during() and self.y)";
        let want = Property::NeverDuring {
            never: parse("self.during = 1").unwrap(),
            during: parse("(self.x->during() and self.y)").unwrap(),
        };
        assert_eq!(parse_property(src).unwrap(), want);
    }

    #[test]
    fn expression_errors_point_into_the_whole_property() {
        // The forbidden condition is missing its right operand where
        // `during` starts.
        let (at, message) = error_at("never self.a = during self.b = 1");
        assert_eq!((at, message.as_str()), ((1, 16), "expected expression"));
        assert_eq!(error_at("always self.a =").0, (1, 16));
        assert_eq!(error_at("never self.a = 1\n  during self.b =").0, (2, 18));
    }

    #[test]
    fn property_errors_carry_their_position() {
        for (src, at, what) in [
            ("never self.x = 1", (1, 17), "missing a `during` clause"),
            ("at-most-one primary", (1, 20), "missing a `per` clause"),
            ("at-most-one a b per c d", (1, 13), "subject `a b` is not"),
            ("at-most-one a per c d", (1, 19), "period `c d` is not"),
        ] {
            let (got, message) = error_at(src);
            assert_eq!(got, at, "{src}: {message}");
            assert!(message.contains(what), "{src}: {message}");
        }
    }

    #[test]
    fn comments_end_at_the_line() {
        let p = Property::AtMostOnePer {
            key: "primary".into(),
            per: "epoch".into(),
        };
        for src in [
            "at-most-one primary // one leader\n per epoch // per term\n",
            "// one leader per term\nat-most-one primary per epoch // per term",
        ] {
            assert_eq!(parse_property(src).unwrap(), p, "{src:?}");
        }
        let (at, message) = error_at("at-most-one a // b\n c per d");
        assert_eq!(at, (1, 13));
        assert!(message.contains("subject `a // b\n c` is not"), "{message}");
        assert_eq!(
            parse_property("never self.a = 1 // during x\n during self.b = 1").unwrap(),
            parse_property("never self.a = 1 during self.b = 1").unwrap()
        );
    }

    #[test]
    fn at_most_one_parses_identifiers() {
        let p = parse_property("at-most-one primary per epoch").unwrap();
        assert_eq!(
            p,
            Property::AtMostOnePer {
                key: "primary".into(),
                per: "epoch".into()
            }
        );
        assert_eq!(
            p.watched_keys(),
            vec!["epoch".to_string(), "primary".to_string()]
        );
    }

    #[test]
    fn malformed_properties_are_syntax_errors() {
        assert!(parse_property("never self.x = 1").is_err());
        assert!(parse_property("at-most-one primary").is_err());
        assert!(parse_property("at-most-one a b per c d").is_err());
        assert!(parse_property("always self.").is_err());
        assert!(parse_property("self.").is_err());
    }

    #[test]
    fn watched_keys_see_through_nesting() {
        let p = parse_property("always self.a > 0 and (self.b = null or self.a < self.c)").unwrap();
        assert_eq!(
            p.watched_keys(),
            vec!["a".to_string(), "b".to_string(), "c".to_string()]
        );
    }
}
