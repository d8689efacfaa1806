//! Evaluator for the OCL-lite constraint language.

use super::ast::{BinOp, Expr, UnOp};
use crate::error::MetaError;
use crate::metamodel::Metamodel;
use crate::model::{Model, ObjectId};
use crate::{Result, Value};
use std::collections::HashMap;

/// Result of evaluating an expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    /// Absent value (`null`, empty optional slot).
    Null,
    /// A scalar.
    Scalar(Value),
    /// A model object.
    Obj(ObjectId),
    /// An ordered collection.
    Coll(Vec<Val>),
}

impl Val {
    /// Truthiness used by `eval_bool`; only booleans are truthy/falsy.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Val::Scalar(Value::Bool(b)) => Ok(*b),
            other => Err(MetaError::Eval(format!("expected boolean, got {other:?}"))),
        }
    }
}

/// Environment against which constraints are evaluated.
pub struct EvalEnv<'a> {
    /// Model containing the objects under evaluation.
    pub model: &'a Model,
    /// Metamodel the model conforms to (used for slot typing and kind tests).
    pub metamodel: &'a Metamodel,
    vars: HashMap<String, Val>,
}

impl<'a> EvalEnv<'a> {
    /// Environment with no variable bindings.
    pub fn new(model: &'a Model, metamodel: &'a Metamodel) -> Self {
        EvalEnv {
            model,
            metamodel,
            vars: HashMap::new(),
        }
    }

    /// Environment with `self` bound to the given object — the usual setup
    /// for checking a class invariant.
    pub fn for_object(model: &'a Model, metamodel: &'a Metamodel, obj: ObjectId) -> Self {
        let mut env = Self::new(model, metamodel);
        env.bind("self", Val::Obj(obj));
        env
    }

    /// Binds (or rebinds) a variable; a rebinding reuses the name.
    pub fn bind(&mut self, name: &str, val: Val) {
        match self.vars.get_mut(name) {
            Some(slot) => *slot = val,
            None => {
                self.vars.insert(name.to_owned(), val);
            }
        }
    }

    fn lookup(&self, name: &str) -> Result<Val> {
        self.vars
            .get(name)
            .cloned()
            .ok_or_else(|| MetaError::Eval(format!("unknown variable `{name}`")))
    }

    fn child(&self) -> EvalEnv<'a> {
        EvalEnv {
            model: self.model,
            metamodel: self.metamodel,
            vars: self.vars.clone(),
        }
    }
}

/// Evaluates an expression to a [`Val`].
pub fn eval(expr: &Expr, env: &EvalEnv<'_>) -> Result<Val> {
    match expr {
        Expr::Lit(v) => Ok(Val::Scalar(v.clone())),
        Expr::Null => Ok(Val::Null),
        Expr::Var(name) => env.lookup(name),
        Expr::EnumLit(ty, lit) => Ok(Val::Scalar(Value::Enum(ty.clone(), lit.clone()))),
        Expr::Prop(recv, name) => {
            let r = eval(recv, env)?;
            navigate(&r, name, env)
        }
        Expr::Call(recv, name, args) => {
            let r = eval(recv, env)?;
            call(&r, name, args, env)
        }
        Expr::CollOp {
            recv,
            op,
            var,
            body,
        } => {
            let r = eval(recv, env)?;
            coll_op(&r, op, var.as_deref(), body.as_deref(), env)
        }
        Expr::Unary(op, e) => {
            let v = eval(e, env)?;
            match (op, v) {
                (UnOp::Neg, Val::Scalar(Value::Int(i))) => Ok(Val::Scalar(Value::Int(-i))),
                (UnOp::Neg, Val::Scalar(Value::Float(x))) => Ok(Val::Scalar(Value::Float(-x))),
                (UnOp::Not, Val::Scalar(Value::Bool(b))) => Ok(Val::Scalar(Value::Bool(!b))),
                (op, v) => Err(MetaError::Eval(format!("cannot apply {op:?} to {v:?}"))),
            }
        }
        Expr::Binary(op, a, b) => binary(*op, a, b, env),
    }
}

/// Evaluates an expression, requiring a boolean result.
pub fn eval_bool(expr: &Expr, env: &EvalEnv<'_>) -> Result<bool> {
    eval(expr, env)?.as_bool()
}

fn navigate(recv: &Val, name: &str, env: &EvalEnv<'_>) -> Result<Val> {
    match recv {
        Val::Obj(id) => {
            let obj = env.model.object(*id)?;
            if let Some(attr) = env.metamodel.attribute(obj.class(), name) {
                // An unset slot with a declared default reads as that
                // default (EMF getter semantics).
                let vals = match obj.attr_slot(name) {
                    Some(vals) if !vals.is_empty() => vals,
                    _ => &attr.default,
                };
                return Ok(slot_val(scalars(vals), attr.multiplicity.upper == Some(1)));
            }
            if let Some(r) = env.metamodel.reference(obj.class(), name) {
                let targets = obj.ref_slot(name).unwrap_or_default();
                return Ok(slot_val(
                    targets.iter().map(|t| Val::Obj(*t)),
                    r.multiplicity.upper == Some(1),
                ));
            }
            // Fall back to raw slots for metamodel-free models.
            if let Some(vals) = obj.attr_slot(name) {
                return Ok(slot_val(scalars(vals), vals.len() <= 1));
            }
            if let Some(targets) = obj.ref_slot(name) {
                return Ok(Val::Coll(targets.iter().map(|t| Val::Obj(*t)).collect()));
            }
            Ok(Val::Null)
        }
        Val::Null => Ok(Val::Null),
        other => Err(MetaError::Eval(format!(
            "cannot navigate `{name}` on {other:?}"
        ))),
    }
}

fn scalars(vals: &[Value]) -> impl Iterator<Item = Val> + '_ {
    vals.iter().map(|v| Val::Scalar(v.clone()))
}

/// A slot's value: its first item (or null) when single-valued, else the
/// collection of its items.
fn slot_val(mut vals: impl Iterator<Item = Val>, single: bool) -> Val {
    if single {
        vals.next().unwrap_or(Val::Null)
    } else {
        Val::Coll(vals.collect())
    }
}

fn call(recv: &Val, name: &str, args: &[Expr], env: &EvalEnv<'_>) -> Result<Val> {
    match name {
        "isKindOf" | "oclIsKindOf" => {
            let class = match args {
                [Expr::Lit(Value::Str(s))] => s.clone(),
                [other] => match eval(other, env)? {
                    Val::Scalar(Value::Str(s)) => s,
                    v => {
                        return Err(MetaError::Eval(format!(
                            "isKindOf expects a class name, got {v:?}"
                        )))
                    }
                },
                _ => return Err(MetaError::Eval("isKindOf takes one argument".into())),
            };
            match recv {
                Val::Obj(id) => {
                    let obj = env.model.object(*id)?;
                    Ok(Val::Scalar(Value::Bool(
                        env.metamodel.is_subclass_of(obj.class(), &class),
                    )))
                }
                Val::Null => Ok(Val::Scalar(Value::Bool(false))),
                other => Err(MetaError::Eval(format!("isKindOf on non-object {other:?}"))),
            }
        }
        other => Err(MetaError::Eval(format!("unknown method `{other}`"))),
    }
}

fn coll_op(
    recv: &Val,
    op: &str,
    var: Option<&str>,
    body: Option<&Expr>,
    env: &EvalEnv<'_>,
) -> Result<Val> {
    let items: &[Val] = match recv {
        Val::Coll(v) => v,
        Val::Null => &[],
        // Singleton coercion mirrors OCL's implicit collect semantics.
        other => std::slice::from_ref(other),
    };
    let iterate = |var: Option<&str>, body: &Expr, item: &Val| -> Result<Val> {
        let mut child = env.child();
        child.bind(var.unwrap_or("it"), item.clone());
        eval(body, &child)
    };
    match op {
        "size" => Ok(Val::Scalar(Value::Int(items.len() as i64))),
        "isEmpty" => Ok(Val::Scalar(Value::Bool(items.is_empty()))),
        "notEmpty" => Ok(Val::Scalar(Value::Bool(!items.is_empty()))),
        "first" => Ok(items.first().cloned().unwrap_or(Val::Null)),
        "sum" => {
            let mut int_sum = 0i64;
            let mut float_sum = 0f64;
            let mut is_float = false;
            for it in items {
                match it {
                    Val::Scalar(Value::Int(i)) => {
                        int_sum += i;
                        float_sum += *i as f64;
                    }
                    Val::Scalar(Value::Float(x)) => {
                        is_float = true;
                        float_sum += x;
                    }
                    other => return Err(MetaError::Eval(format!("sum over non-number {other:?}"))),
                }
            }
            Ok(Val::Scalar(if is_float {
                Value::Float(float_sum)
            } else {
                Value::Int(int_sum)
            }))
        }
        "includes" | "excludes" => {
            let body = body.ok_or_else(|| MetaError::Eval(format!("{op} requires an argument")))?;
            let needle = eval(body, env)?;
            let found = items.iter().any(|i| vals_eq(i, &needle));
            Ok(Val::Scalar(Value::Bool(found == (op == "includes"))))
        }
        "count" => {
            let body = body.ok_or_else(|| MetaError::Eval("count requires an argument".into()))?;
            let needle = eval(body, env)?;
            let n = items.iter().filter(|i| vals_eq(i, &needle)).count();
            Ok(Val::Scalar(Value::Int(n as i64)))
        }
        "forAll" | "exists" => {
            let body = body.ok_or_else(|| MetaError::Eval(format!("{op} requires a body")))?;
            for it in items {
                let b = iterate(var, body, it)?.as_bool()?;
                if op == "forAll" && !b {
                    return Ok(Val::Scalar(Value::Bool(false)));
                }
                if op == "exists" && b {
                    return Ok(Val::Scalar(Value::Bool(true)));
                }
            }
            Ok(Val::Scalar(Value::Bool(op == "forAll")))
        }
        "select" | "reject" => {
            let body = body.ok_or_else(|| MetaError::Eval(format!("{op} requires a body")))?;
            let mut out = Vec::new();
            for it in items {
                let b = iterate(var, body, it)?.as_bool()?;
                if b == (op == "select") {
                    out.push(it.clone());
                }
            }
            Ok(Val::Coll(out))
        }
        "collect" => {
            let body = body.ok_or_else(|| MetaError::Eval("collect requires a body".into()))?;
            let mut out = Vec::new();
            for it in items {
                out.push(iterate(var, body, it)?);
            }
            Ok(Val::Coll(out))
        }
        other => Err(MetaError::Eval(format!(
            "unknown collection operation `{other}`"
        ))),
    }
}

fn vals_eq(a: &Val, b: &Val) -> bool {
    match (a, b) {
        (Val::Null, Val::Null) => true,
        (Val::Obj(x), Val::Obj(y)) => x == y,
        (Val::Scalar(Value::Int(i)), Val::Scalar(Value::Float(x)))
        | (Val::Scalar(Value::Float(x)), Val::Scalar(Value::Int(i))) => *i as f64 == *x,
        (Val::Scalar(x), Val::Scalar(y)) => x == y,
        (Val::Coll(x), Val::Coll(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(a, b)| vals_eq(a, b))
        }
        _ => false,
    }
}

fn binary(op: BinOp, a: &Expr, b: &Expr, env: &EvalEnv<'_>) -> Result<Val> {
    // Short-circuit logical operators.
    match op {
        BinOp::And => {
            return Ok(Val::Scalar(Value::Bool(
                eval(a, env)?.as_bool()? && eval(b, env)?.as_bool()?,
            )))
        }
        BinOp::Or => {
            return Ok(Val::Scalar(Value::Bool(
                eval(a, env)?.as_bool()? || eval(b, env)?.as_bool()?,
            )))
        }
        BinOp::Implies => {
            return Ok(Val::Scalar(Value::Bool(
                !eval(a, env)?.as_bool()? || eval(b, env)?.as_bool()?,
            )))
        }
        _ => {}
    }
    let va = eval(a, env)?;
    // An enum literal operand is compared in place rather than built.
    if let (BinOp::Eq | BinOp::Neq, Expr::EnumLit(ty, lit)) = (op, b) {
        let eq = matches!(&va, Val::Scalar(Value::Enum(t, l)) if t == ty && l == lit);
        return Ok(Val::Scalar(Value::Bool(eq == (op == BinOp::Eq))));
    }
    let vb = eval(b, env)?;
    match op {
        BinOp::Eq => Ok(Val::Scalar(Value::Bool(vals_eq(&va, &vb)))),
        BinOp::Neq => Ok(Val::Scalar(Value::Bool(!vals_eq(&va, &vb)))),
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let ord = compare(&va, &vb)?;
            let b = match op {
                BinOp::Lt => ord.is_lt(),
                BinOp::Le => ord.is_le(),
                BinOp::Gt => ord.is_gt(),
                _ => ord.is_ge(),
            };
            Ok(Val::Scalar(Value::Bool(b)))
        }
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => arith(op, &va, &vb),
        _ => unreachable!("logical ops handled above"),
    }
}

fn compare(a: &Val, b: &Val) -> Result<std::cmp::Ordering> {
    match (a, b) {
        (Val::Scalar(Value::Int(x)), Val::Scalar(Value::Int(y))) => Ok(x.cmp(y)),
        (Val::Scalar(Value::Str(x)), Val::Scalar(Value::Str(y))) => Ok(x.cmp(y)),
        _ => {
            let (x, y) = (num(a)?, num(b)?);
            x.partial_cmp(&y)
                .ok_or_else(|| MetaError::Eval("incomparable floats (NaN)".into()))
        }
    }
}

fn num(v: &Val) -> Result<f64> {
    match v {
        Val::Scalar(Value::Int(i)) => Ok(*i as f64),
        Val::Scalar(Value::Float(x)) => Ok(*x),
        other => Err(MetaError::Eval(format!("expected number, got {other:?}"))),
    }
}

fn arith(op: BinOp, a: &Val, b: &Val) -> Result<Val> {
    // String concatenation via `+`.
    if let (BinOp::Add, Val::Scalar(Value::Str(x)), Val::Scalar(Value::Str(y))) = (op, a, b) {
        return Ok(Val::Scalar(Value::Str(format!("{x}{y}"))));
    }
    if let (Val::Scalar(Value::Int(x)), Val::Scalar(Value::Int(y))) = (a, b) {
        let r = match op {
            BinOp::Add => x.checked_add(*y),
            BinOp::Sub => x.checked_sub(*y),
            BinOp::Mul => x.checked_mul(*y),
            BinOp::Div => {
                if *y == 0 {
                    return Err(MetaError::Eval("division by zero".into()));
                }
                x.checked_div(*y)
            }
            BinOp::Mod => {
                if *y == 0 {
                    return Err(MetaError::Eval("modulo by zero".into()));
                }
                x.checked_rem(*y)
            }
            _ => unreachable!(),
        };
        return r
            .map(|v| Val::Scalar(Value::Int(v)))
            .ok_or_else(|| MetaError::Eval("integer overflow".into()));
    }
    let (x, y) = (num(a)?, num(b)?);
    let r = match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        BinOp::Div => {
            if y == 0.0 {
                return Err(MetaError::Eval("division by zero".into()));
            }
            x / y
        }
        BinOp::Mod => x % y,
        _ => unreachable!(),
    };
    Ok(Val::Scalar(Value::Float(r)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::parse;
    use crate::metamodel::MetamodelBuilder;

    fn empty_env() -> (Model, Metamodel) {
        (Model::new("m"), MetamodelBuilder::new("m").build().unwrap())
    }

    fn ev(src: &str) -> Result<Val> {
        let (m, mm) = empty_env();
        let env = EvalEnv::new(&m, &mm);
        eval(&parse(src).unwrap(), &env)
    }

    #[test]
    fn string_concat() {
        assert_eq!(
            ev("\"a\" + \"b\"").unwrap(),
            Val::Scalar(Value::Str("ab".into()))
        );
    }

    #[test]
    fn mixed_numeric_comparison() {
        assert_eq!(ev("2 = 2.0").unwrap(), Val::Scalar(Value::Bool(true)));
        assert_eq!(ev("2 < 2.5").unwrap(), Val::Scalar(Value::Bool(true)));
    }

    #[test]
    fn integer_overflow_detected() {
        assert!(ev("9223372036854775807 + 1").is_err());
    }

    #[test]
    fn short_circuit_avoids_rhs_error() {
        // `1/0` on the rhs must not evaluate.
        assert_eq!(
            ev("false and 1 / 0 = 1").unwrap(),
            Val::Scalar(Value::Bool(false))
        );
        assert_eq!(
            ev("true or 1 / 0 = 1").unwrap(),
            Val::Scalar(Value::Bool(true))
        );
        assert_eq!(
            ev("false implies 1 / 0 = 1").unwrap(),
            Val::Scalar(Value::Bool(true))
        );
    }

    #[test]
    fn null_navigation_yields_null() {
        let (mut m, mm) = empty_env();
        let o = m.create("X");
        let mut env = EvalEnv::new(&m, &mm);
        env.bind("x", Val::Obj(o));
        let e = parse("x.missing = null").unwrap();
        assert!(eval_bool(&e, &env).unwrap());
        let e = parse("x.missing.deeper = null").unwrap();
        assert!(eval_bool(&e, &env).unwrap());
    }

    #[test]
    fn collection_ops_on_null_treat_as_empty() {
        assert_eq!(
            ev("null->size() = 0").unwrap(),
            Val::Scalar(Value::Bool(true))
        );
        assert_eq!(
            ev("null->isEmpty()").unwrap(),
            Val::Scalar(Value::Bool(true))
        );
    }

    #[test]
    fn singleton_coercion() {
        assert_eq!(ev("1->size() = 1").unwrap(), Val::Scalar(Value::Bool(true)));
        assert_eq!(
            ev("1->includes(1)").unwrap(),
            Val::Scalar(Value::Bool(true))
        );
    }

    #[test]
    fn count_operation() {
        let (m, mm) = empty_env();
        let mut env = EvalEnv::new(&m, &mm);
        env.bind(
            "xs",
            Val::Coll(vec![
                Val::Scalar(Value::Int(1)),
                Val::Scalar(Value::Int(2)),
                Val::Scalar(Value::Int(1)),
            ]),
        );
        let e = parse("xs->count(1) = 2").unwrap();
        assert!(eval_bool(&e, &env).unwrap());
    }
}
