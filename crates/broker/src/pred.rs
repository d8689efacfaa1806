//! The one predicate compiler: policy guards, monitor properties and
//! autonomic symptoms compile into direct reads of the state's slots.
//!
//! A compiled predicate decides exactly as the OCL-lite interpreter
//! (`mddsm_meta::constraint::eval`) would, wherever the values decide
//! it: an unset variable reads as `null`, `null = "lit"` is false,
//! operands of different types compare unequal, and `and`/`or`/`implies`
//! short-circuit left to right. Wherever the interpreter would raise an
//! error (ordering on `null`, a type error) or the shape is outside the
//! compiled subset (arithmetic, float literals, navigation past
//! `self.<key>`, collections), it defers the whole expression to
//! `StateManager::interpret`, so verdicts and error texts stay the
//! interpreter's.

use crate::state::{Key, SnapValue, StateManager};
use crate::Result;
use mddsm_meta::constraint::temporal::{parse_property, Property};
use mddsm_meta::constraint::{BinOp, Expr, UnOp};
use mddsm_meta::model::Model;
use mddsm_meta::Value;
use std::cmp::Ordering;

/// A predicate over the state object, compiled once from its expression.
#[derive(Debug, Clone)]
pub struct Pred {
    node: Node,
    expr: Expr,
}

#[derive(Debug, Clone)]
enum Node {
    Const(bool),
    /// A comparison (`=`, `<>`, `<`, `<=`, `>`, `>=`) of two operands.
    Cmp(BinOp, Operand, Operand),
    Not(Box<Node>),
    /// `and`, `or` or `implies`.
    Logic(BinOp, Box<Node>, Box<Node>),
    /// Outside the compiled subset: the interpreter decides.
    Interpreted,
}

#[derive(Debug, Clone)]
enum Operand {
    /// A literal; `None` is `null`.
    Lit(Option<SnapValue>),
    /// `self.<key>`.
    Var(Key),
}

impl Pred {
    /// Compiles `expr`.
    pub fn new(expr: Expr) -> Pred {
        Pred {
            node: Node::compile(&expr),
            expr,
        }
    }

    /// The expression the predicate was compiled from.
    pub fn expr(&self) -> &Expr {
        &self.expr
    }

    /// `true` when part of the expression is outside the compiled subset,
    /// so evaluating it may run the interpreter whatever the state holds.
    pub fn is_interpreted(&self) -> bool {
        self.node.is_interpreted()
    }

    /// The compiled verdict, or `None` where the interpreter decides.
    pub fn decide(&self, state: &StateManager) -> Option<bool> {
        self.node.decide(state)
    }

    /// Evaluates the predicate against `state`.
    pub fn eval(&self, state: &StateManager) -> Result<bool> {
        self.decide(state)
            .map_or_else(|| state.interpret(&self.expr), Ok)
    }
}

/// [`Pred::eval`] of `expr` without keeping the compiled form.
pub(crate) fn eval(state: &StateManager, expr: &Expr) -> Result<bool> {
    let verdict = Node::compile(expr).decide(state);
    verdict.map_or_else(|| state.interpret(expr), Ok)
}

impl Node {
    fn compile(e: &Expr) -> Node {
        match e {
            Expr::Lit(Value::Bool(b)) => Node::Const(*b),
            Expr::Unary(UnOp::Not, inner) => Node::Not(Box::new(Node::compile(inner))),
            Expr::Binary(op @ (BinOp::And | BinOp::Or | BinOp::Implies), a, b) => {
                Node::Logic(*op, Box::new(Node::compile(a)), Box::new(Node::compile(b)))
            }
            Expr::Binary(
                op @ (BinOp::Eq | BinOp::Neq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge),
                a,
                b,
            ) => match (Operand::compile(a), Operand::compile(b)) {
                (Some(x), Some(y)) => Node::Cmp(*op, x, y),
                _ => Node::Interpreted,
            },
            _ => Node::Interpreted,
        }
    }

    fn is_interpreted(&self) -> bool {
        match self {
            Node::Interpreted => true,
            Node::Not(p) => p.is_interpreted(),
            Node::Logic(_, a, b) => a.is_interpreted() || b.is_interpreted(),
            Node::Const(_) | Node::Cmp(..) => false,
        }
    }

    fn decide(&self, state: &StateManager) -> Option<bool> {
        match self {
            Node::Const(b) => Some(*b),
            Node::Cmp(op, a, b) => {
                let (a, b) = (a.read(state), b.read(state));
                match op {
                    BinOp::Eq => Some(a == b),
                    BinOp::Neq => Some(a != b),
                    BinOp::Lt => Some(ord(a, b)?.is_lt()),
                    BinOp::Le => Some(ord(a, b)?.is_le()),
                    BinOp::Gt => Some(ord(a, b)?.is_gt()),
                    _ => Some(ord(a, b)?.is_ge()),
                }
            }
            Node::Not(p) => p.decide(state).map(|v| !v),
            Node::Logic(op, a, b) => match (op, a.decide(state)?) {
                (BinOp::And, false) => Some(false),
                (BinOp::Or, true) | (BinOp::Implies, false) => Some(true),
                _ => b.decide(state),
            },
            Node::Interpreted => None,
        }
    }
}

impl Operand {
    fn compile(e: &Expr) -> Option<Operand> {
        Some(match e {
            Expr::Null => Operand::Lit(None),
            Expr::Lit(Value::Int(i)) => Operand::Lit(Some(SnapValue::Int(*i))),
            Expr::Lit(Value::Str(s)) => Operand::Lit(Some(SnapValue::Str(s.clone()))),
            Expr::Unary(UnOp::Neg, inner) => match inner.as_ref() {
                Expr::Lit(Value::Int(i)) => Operand::Lit(Some(SnapValue::Int(i.checked_neg()?))),
                _ => return None,
            },
            Expr::Prop(recv, name) if matches!(recv.as_ref(), Expr::Var(v) if v == "self") => {
                Operand::Var(Key::new(name.as_str()))
            }
            _ => return None,
        })
    }

    /// The operand's value; `None` is `null`. Equality of these values is
    /// the interpreter's `=` on them: mismatched types are unequal.
    fn read<'a>(&'a self, state: &'a StateManager) -> Option<&'a SnapValue> {
        match self {
            Operand::Lit(v) => v.as_ref(),
            Operand::Var(key) => state.value(key),
        }
    }
}

/// The interpreter's ordering; `None` where it would raise an error.
fn ord(a: Option<&SnapValue>, b: Option<&SnapValue>) -> Option<Ordering> {
    match (a?, b?) {
        (SnapValue::Int(x), SnapValue::Int(y)) => Some(x.cmp(y)),
        (SnapValue::Str(x), SnapValue::Str(y)) => Some(x.cmp(y)),
        _ => None,
    }
}

/// The predicates of a broker model that stay, at least in part, on the
/// interpreter fallback: the path of every policy, monitor property and
/// symptom condition with a shape the compiler does not decide.
/// Unparsable sources are the analyzer's to report.
pub fn interpreted(model: &Model) -> Vec<String> {
    let mut out = Vec::new();
    let mut check = |path: String, exprs: Vec<Expr>| {
        if exprs.into_iter().any(|e| Pred::new(e).is_interpreted()) {
            out.push(path);
        }
    };
    let spec = crate::model::read(model);
    for p in spec.policies {
        if let Ok(e) = p.expr {
            check(format!("policy:{}", p.name), vec![e]);
        }
    }
    for (name, source) in spec.monitors {
        match parse_property(&source) {
            Ok(Property::Always(e)) => check(format!("monitor:{name}"), vec![e]),
            Ok(Property::NeverDuring { never, during }) => {
                check(format!("monitor:{name}"), vec![never, during]);
            }
            _ => {}
        }
    }
    for (symptom, _) in spec.symptoms {
        if let Ok(e) = symptom.expr {
            check(format!("symptom:{}", symptom.name), vec![e]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mddsm_meta::constraint::parse;

    fn pred(src: &str) -> Pred {
        Pred::new(parse(src).unwrap())
    }

    #[test]
    fn shipped_guard_shapes_decide_over_unset_keys() {
        // The monitor-only compiler deferred these whenever `k` was unset.
        let s = StateManager::new();
        for (src, want) in [
            ("self.k = null or self.k = \"lit\"", true),
            ("self.k <> null and self.k > 1", false),
            ("self.k = \"lit\"", false),
            ("self.k = null or self.k < 3", true),
        ] {
            assert_eq!(pred(src).decide(&s), Some(want), "{src}");
            assert!(!pred(src).is_interpreted(), "{src}");
        }
    }

    #[test]
    fn interpreted_lists_what_the_compiler_leaves_to_the_interpreter() {
        let model = crate::BrokerModelBuilder::new("m")
            .call_handler("h", "op")
            .policy("plain", "self.k = null or self.k = \"lit\"")
            .policy("sum", "self.k + 1 > 2")
            .action("h", "a", "r", "o", &[], Some("plain"), &["k=1"])
            .monitor("cap", "always self.k < 3 or self.k - 1 > 0")
            .autonomic_rule("s", "self.k > 1", &["set k 0"])
            .build();
        assert_eq!(interpreted(&model), vec!["policy:sum", "monitor:cap"]);
    }

    #[test]
    fn errors_and_other_shapes_defer_to_the_interpreter() {
        let mut s = StateManager::new();
        s.set_str("mode", "x");
        let ordered_null = pred("self.k < 3");
        assert_eq!(ordered_null.decide(&s), None);
        assert!(!ordered_null.is_interpreted());
        let err = ordered_null.eval(&s).unwrap_err().to_string();
        assert_eq!(
            err,
            s.interpret(ordered_null.expr()).unwrap_err().to_string()
        );
        let arith = pred("self.n + 1 > 2");
        assert!(arith.is_interpreted());
        assert_eq!(arith.decide(&s), None);
        // A deciding left side short-circuits past an erroring right side.
        assert_eq!(
            pred("self.mode = \"x\" or self.k < 3").decide(&s),
            Some(true)
        );
    }
}
