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

use super::{parse, Expr};
use crate::analysis::collect_self_paths;
use crate::{MetaError, Result};

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

fn syntax(message: String) -> MetaError {
    MetaError::Syntax {
        line: 1,
        col: 1,
        message,
    }
}

/// Checks that an `at-most-one` operand is a plain state-variable name.
fn identifier(s: &str, role: &str) -> Result<String> {
    let s = s.trim();
    let ok = !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.');
    if ok {
        Ok(s.to_owned())
    } else {
        Err(syntax(format!(
            "`at-most-one` {role} `{s}` is not a state-variable name"
        )))
    }
}

/// Parses a temporal property. A source with no temporal keyword parses
/// as a plain invariant (`always <expr>`).
pub fn parse_property(source: &str) -> Result<Property> {
    let s = source.trim();
    if let Some(rest) = s.strip_prefix("always ") {
        return Ok(Property::Always(parse(rest)?));
    }
    if let Some(rest) = s.strip_prefix("never ") {
        // `during` binds loosest: split at the last occurrence so the
        // forbidden condition may itself mention the word in a string.
        let idx = rest.rfind(" during ").ok_or_else(|| {
            syntax(format!(
                "`never` property `{s}` is missing a `during` clause"
            ))
        })?;
        return Ok(Property::NeverDuring {
            never: parse(&rest[..idx])?,
            during: parse(&rest[idx + " during ".len()..])?,
        });
    }
    if let Some(rest) = s.strip_prefix("at-most-one ") {
        let (key, per) = rest.split_once(" per ").ok_or_else(|| {
            syntax(format!(
                "`at-most-one` property `{s}` is missing a `per` clause"
            ))
        })?;
        return Ok(Property::AtMostOnePer {
            key: identifier(key, "subject")?,
            per: identifier(per, "period")?,
        });
    }
    Ok(Property::Always(parse(s)?))
}

#[cfg(test)]
mod tests {
    use super::*;

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
