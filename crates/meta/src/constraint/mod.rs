//! OCL-lite: the constraint and expression language of the modeling
//! substrate.
//!
//! Constraints annotate metaclasses as invariants, guard labeled-transition
//! edges in the Synthesis layer, and express selection policies in the
//! Controller and Broker layers. The language is a small, side-effect-free
//! subset of OCL:
//!
//! ```text
//! self.parties->size() >= 2 and self.parties->forAll(p | p.enabled)
//! self.kind = MediaKind::Video implies self.bandwidth > 100
//! ```
//!
//! * Navigation: `self.slot`, chained; single-valued slots yield scalars or
//!   objects, multi-valued slots yield collections.
//! * Collection operations via `->`: `size`, `isEmpty`, `notEmpty`,
//!   `includes(e)`, `excludes(e)`, `forAll(x | e)`, `exists(x | e)`,
//!   `select(x | e)`, `reject(x | e)`, `collect(x | e)`, `sum`, `first`.
//! * Object test: `e.isKindOf(ClassName)`.
//! * Operators (loosest to tightest): `implies`; `or`; `and`; `not`;
//!   comparisons `= <> < <= > >=`; `+ -`; `* / mod`; unary `-`.
//! * Literals: integers (up to `i64::MAX`; a unary `-` negates), floats,
//!   strings, `true`/`false`, `EnumType::Literal`, `null`.
//!
//! The lexical rules are the model format's: the text is read by the
//! scanner of [`crate::text`], with OCL-lite's punctuation. A string takes
//! the escapes `\"`, `\\`, `\n`, `\t`, `\r`, `\0` and `\u{…}` (one to six
//! hex digits naming a Unicode scalar value), and `//` starts a comment
//! that runs to the end of the line. Errors carry the line and column
//! (in chars) of the offending token; the whole text is lexed before it is
//! parsed, so a lexical error anywhere wins over a grammar error.
//!
//! Parse with [`parse`], evaluate with [`eval`] against an [`EvalEnv`].
//! An expression nests at most [`MAX_NESTING`] levels; deeper text is a
//! syntax error rather than a stack overflow.

mod ast;
mod eval;
mod parser;
pub mod temporal;

pub use ast::{BinOp, Expr, UnOp};
pub use eval::{eval, eval_bool, EvalEnv, Val};
pub use parser::MAX_NESTING;
pub use temporal::{parse_property, Property};

use crate::Result;

/// Parses an OCL-lite expression.
pub fn parse(source: &str) -> Result<Expr> {
    parser::parse_tokens(source, &crate::text::lex(source, parser::punct)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metamodel::{DataType, Metamodel, MetamodelBuilder, Multiplicity};
    use crate::model::Model;
    use crate::Value;

    fn mm() -> Metamodel {
        MetamodelBuilder::new("m")
            .enumeration("Kind", ["Audio", "Video"])
            .class("Party", |c| {
                c.attr("name", DataType::Str)
                    .attr_default("enabled", DataType::Bool, Value::from(true))
                    .attr("bw", DataType::Int)
            })
            .class("Session", |c| {
                c.attr("kind", DataType::Enum("Kind".into()))
                    .contains("parties", "Party", Multiplicity::MANY)
                    .reference("owner", "Party", Multiplicity::OPT)
            })
            .build()
            .unwrap()
    }

    fn sample() -> (Metamodel, Model, crate::ObjectId) {
        let mm = mm();
        let mut m = Model::new("m");
        let s = m.create("Session");
        m.set_attr(s, "kind", Value::enumeration("Kind", "Video"));
        for (n, bw) in [("a", 100), ("b", 250)] {
            let p = m.create("Party");
            m.set_attr(p, "name", Value::from(n));
            m.set_attr(p, "enabled", Value::from(true));
            m.set_attr(p, "bw", Value::from(bw));
            m.add_ref(s, "parties", p);
        }
        (mm, m, s)
    }

    fn check(src: &str) -> bool {
        let (mm, m, s) = sample();
        let expr = parse(src).unwrap();
        let env = EvalEnv::for_object(&m, &mm, s);
        eval_bool(&expr, &env).unwrap()
    }

    #[test]
    fn arithmetic_and_comparison() {
        assert!(check("1 + 2 * 3 = 7"));
        assert!(check("(1 + 2) * 3 = 9"));
        assert!(check("10 / 4 = 2"));
        assert!(check("10.0 / 4 = 2.5"));
        assert!(check("7 mod 3 = 1"));
        assert!(check("-3 < 2"));
        assert!(check("2 <> 3"));
        assert!(check("\"ab\" = \"ab\""));
    }

    #[test]
    fn boolean_connectives() {
        assert!(check("true and not false"));
        assert!(check("false or true"));
        assert!(check("false implies false"));
        assert!(check("not (true and false)"));
    }

    #[test]
    fn navigation_and_collections() {
        assert!(check("self.parties->size() = 2"));
        assert!(check("self.parties->notEmpty()"));
        assert!(check("self.parties->forAll(p | p.enabled)"));
        assert!(check("self.parties->exists(p | p.bw > 200)"));
        assert!(check("self.parties->select(p | p.bw > 200)->size() = 1"));
        assert!(check("self.parties->reject(p | p.bw > 200)->size() = 1"));
        assert!(check("self.parties->collect(p | p.bw)->sum() = 350"));
        assert!(check("self.parties->collect(p | p.name)->includes(\"a\")"));
        assert!(check("self.parties->collect(p | p.name)->excludes(\"z\")"));
        assert!(check("self.parties->first().name = \"a\""));
    }

    #[test]
    fn enums_and_implies() {
        assert!(check("self.kind = Kind::Video"));
        assert!(check(
            "self.kind = Kind::Video implies self.parties->size() >= 2"
        ));
        assert!(!check("self.kind = Kind::Audio"));
    }

    #[test]
    fn null_and_optional_refs() {
        assert!(check("self.owner = null"));
        assert!(!check("self.owner <> null"));
    }

    #[test]
    fn kind_test() {
        assert!(check("self.isKindOf(Session)"));
        assert!(!check("self.isKindOf(Party)"));
    }

    #[test]
    fn parse_errors_are_located() {
        let e = parse("1 +").unwrap_err();
        assert!(e.to_string().contains("syntax error"));
        assert!(parse("self.").is_err());
        assert!(parse("->size()").is_err());
        assert!(parse("(1").is_err());
    }

    #[test]
    fn lexical_rules_are_the_model_formats() {
        let lit = |v: Value| Box::new(Expr::Lit(v));
        let sub = Expr::Binary(BinOp::Sub, lit(Value::Int(1)), lit(Value::Int(2)));
        assert_eq!(parse("1-2").unwrap(), sub);
        // A `.` not followed by a digit ends a number.
        assert_eq!(
            parse("1.x").unwrap(),
            Expr::Prop(lit(Value::Int(1)), "x".into())
        );
        let s = parse(r#""\"\\\n\t\r\0\u{1F600}é""#).unwrap();
        assert_eq!(s, Expr::Lit(Value::Str("\"\\\n\t\r\0\u{1F600}é".into())));
        assert_eq!(
            parse("1 // one\n  + 2 // two").unwrap(),
            parse("1 + 2").unwrap()
        );
        for (src, error) in [
            ("a # b", "1:3: unexpected character `#`"),
            ("a : b", "1:3: expected `::`"),
            ("\"open", "1:1: unterminated string"),
            ("\"\\q\"", "1:2: bad escape `\\q`"),
            (
                "\"a\nb\" = é\n  .",
                "3:4: expected property or method name after `.`",
            ),
            ("1 + // no operand", "1:5: expected expression"),
            (
                "9223372036854775808",
                "1:1: bad int: number too large to fit in target type",
            ),
            // An integer too large for `i64` fails where the parser
            // reaches it, so a grammar error before it wins.
            ("(1 + ) = 9223372036854775808", "1:6: expected expression"),
        ] {
            let got = parse(src).unwrap_err().to_string();
            assert_eq!(got, format!("syntax error at {error}"), "{src:?}");
        }
    }

    #[test]
    fn nesting_past_the_bound_is_a_syntax_error() {
        // Far past the bound, each shape used to abort the process with a
        // stack overflow (while parsing, evaluating or dropping the tree).
        let n = 100_000;
        for src in [
            format!("{}true{}", "(".repeat(n), ")".repeat(n)),
            format!("{}true", "not ".repeat(n)),
            format!("true{}", " and true".repeat(n)),
            format!("0{} = 0", " + 0".repeat(n)),
            format!("self{}", ".x".repeat(n)),
        ] {
            let e = parse(&src).unwrap_err();
            assert!(matches!(e, crate::MetaError::Syntax { .. }), "{e}");
            assert!(e.to_string().contains("nested deeper than"), "{e}");
        }
    }

    #[test]
    fn eval_errors() {
        let (mm, m, s) = sample();
        let env = EvalEnv::for_object(&m, &mm, s);
        // Unknown variable.
        let e = parse("nope > 1").unwrap();
        assert!(eval(&e, &env).is_err());
        // Division by zero.
        let e = parse("1 / 0").unwrap();
        assert!(eval(&e, &env).is_err());
        // Type error: adding bool.
        let e = parse("true + 1").unwrap();
        assert!(eval(&e, &env).is_err());
    }

    #[test]
    fn extra_variables_in_env() {
        let (mm, m, s) = sample();
        let mut env = EvalEnv::for_object(&m, &mm, s);
        env.bind("threshold", Val::Scalar(Value::from(200)));
        let e = parse("self.parties->exists(p | p.bw > threshold)").unwrap();
        assert!(eval_bool(&e, &env).unwrap());
    }
}
