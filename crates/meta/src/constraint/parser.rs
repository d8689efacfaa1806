//! Recursive-descent parser for the OCL-lite constraint language.

use super::ast::{BinOp, Expr, UnOp};
use super::lexer::{TokKind, Token};
use crate::error::MetaError;
use crate::{Result, Value};

/// The deepest expression nesting the parser accepts.
///
/// Parsing, evaluating, compiling and dropping an expression all recurse
/// once per level of its tree, so an unbounded depth lets a model text
/// overflow the stack and abort the process. One level is a parenthesized
/// or argument expression, an `implies`, a `not`, a unary minus, one
/// operator of an `or`/`and`/`+`/`*` chain (each wraps the chain so far),
/// or one `.`/`->` step of a navigation chain. The shipped models nest a
/// few levels deep; past the bound, parsing fails with a syntax error.
pub const MAX_NESTING: usize = 64;

pub fn parse_tokens(tokens: &[Token]) -> Result<Expr> {
    let mut p = Parser {
        toks: tokens,
        pos: 0,
        depth: 0,
    };
    let e = p.implies()?;
    p.expect_eof()?;
    Ok(e)
}

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
    /// Levels of nesting open at the current token (see [`MAX_NESTING`]).
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Token {
        &self.toks[self.pos.min(self.toks.len() - 1)]
    }

    fn bump(&mut self) -> &Token {
        let t = &self.toks[self.pos.min(self.toks.len() - 1)];
        self.pos += 1;
        t
    }

    fn err(&self, message: impl Into<String>) -> MetaError {
        let t = self.peek();
        MetaError::Syntax {
            line: t.line,
            col: t.col,
            message: message.into(),
        }
    }

    fn eat(&mut self, kind: &TokKind) -> bool {
        if &self.peek().kind == kind {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokKind, what: &str) -> Result<()> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self.err(format!("expected {what}")))
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if self.peek().kind == TokKind::Eof {
            Ok(())
        } else {
            Err(self.err("expected end of expression"))
        }
    }

    /// Opens one more level of nesting, refusing to pass [`MAX_NESTING`].
    fn nest(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(self.err(format!(
                "expression nested deeper than {MAX_NESTING} levels"
            )));
        }
        Ok(())
    }

    /// Runs `f` one level deeper.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        self.nest()?;
        let out = f(self);
        self.depth -= 1;
        out
    }

    /// Is the current token the given keyword-identifier?
    fn at_kw(&self, kw: &str) -> bool {
        matches!(&self.peek().kind, TokKind::Ident(s) if s == kw)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn implies(&mut self) -> Result<Expr> {
        let lhs = self.or()?;
        if self.eat_kw("implies") {
            // Right-associative, as in OCL.
            let rhs = self.nested(Self::implies)?;
            Ok(Expr::Binary(BinOp::Implies, Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn or(&mut self) -> Result<Expr> {
        let base = self.depth;
        let mut lhs = self.and()?;
        while self.eat_kw("or") {
            self.nest()?;
            let rhs = self.and()?;
            lhs = Expr::Binary(BinOp::Or, Box::new(lhs), Box::new(rhs));
        }
        self.depth = base;
        Ok(lhs)
    }

    fn and(&mut self) -> Result<Expr> {
        let base = self.depth;
        let mut lhs = self.not()?;
        while self.eat_kw("and") {
            self.nest()?;
            let rhs = self.not()?;
            lhs = Expr::Binary(BinOp::And, Box::new(lhs), Box::new(rhs));
        }
        self.depth = base;
        Ok(lhs)
    }

    fn not(&mut self) -> Result<Expr> {
        if self.eat_kw("not") {
            let e = self.nested(Self::not)?;
            Ok(Expr::Unary(UnOp::Not, Box::new(e)))
        } else {
            self.cmp()
        }
    }

    fn cmp(&mut self) -> Result<Expr> {
        let lhs = self.add()?;
        let op = match self.peek().kind {
            TokKind::Eq => Some(BinOp::Eq),
            TokKind::Neq => Some(BinOp::Neq),
            TokKind::Lt => Some(BinOp::Lt),
            TokKind::Le => Some(BinOp::Le),
            TokKind::Gt => Some(BinOp::Gt),
            TokKind::Ge => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.add()?;
            Ok(Expr::Binary(op, Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn add(&mut self) -> Result<Expr> {
        let base = self.depth;
        let mut lhs = self.mul()?;
        loop {
            let op = match self.peek().kind {
                TokKind::Plus => BinOp::Add,
                TokKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            self.nest()?;
            let rhs = self.mul()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        self.depth = base;
        Ok(lhs)
    }

    fn mul(&mut self) -> Result<Expr> {
        let base = self.depth;
        let mut lhs = self.unary()?;
        loop {
            let op = match &self.peek().kind {
                TokKind::Star => BinOp::Mul,
                TokKind::Slash => BinOp::Div,
                TokKind::Ident(s) if s == "mod" => BinOp::Mod,
                _ => break,
            };
            self.bump();
            self.nest()?;
            let rhs = self.unary()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        self.depth = base;
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat(&TokKind::Minus) {
            let e = self.nested(Self::unary)?;
            Ok(Expr::Unary(UnOp::Neg, Box::new(e)))
        } else {
            self.postfix()
        }
    }

    fn postfix(&mut self) -> Result<Expr> {
        let base = self.depth;
        let mut e = self.primary()?;
        loop {
            if matches!(self.peek().kind, TokKind::Dot | TokKind::Arrow) {
                self.nest()?;
            }
            if self.eat(&TokKind::Dot) {
                let name = self.ident("property or method name after `.`")?;
                if self.eat(&TokKind::LParen) {
                    let mut args = Vec::new();
                    if !self.eat(&TokKind::RParen) {
                        loop {
                            // Bare identifiers as method arguments denote
                            // class names (for isKindOf) and parse as string
                            // literals when not followed by postfix syntax.
                            args.push(self.call_arg()?);
                            if self.eat(&TokKind::RParen) {
                                break;
                            }
                            self.expect(&TokKind::Comma, "`,` or `)` in argument list")?;
                        }
                    }
                    e = Expr::Call(Box::new(e), name, args);
                } else {
                    e = Expr::Prop(Box::new(e), name);
                }
            } else if self.eat(&TokKind::Arrow) {
                let op = self.ident("collection operation after `->`")?;
                self.expect(&TokKind::LParen, "`(` after collection operation")?;
                if self.eat(&TokKind::RParen) {
                    e = Expr::CollOp {
                        recv: Box::new(e),
                        op,
                        var: None,
                        body: None,
                    };
                    continue;
                }
                // Either `var | body` or a single argument expression.
                let checkpoint = self.pos;
                let var = if let TokKind::Ident(v) = &self.peek().kind {
                    let v = v.clone();
                    self.pos += 1;
                    if self.eat(&TokKind::Pipe) {
                        Some(v)
                    } else {
                        self.pos = checkpoint;
                        None
                    }
                } else {
                    None
                };
                let body = self.nested(Self::implies)?;
                self.expect(&TokKind::RParen, "`)` closing collection operation")?;
                e = Expr::CollOp {
                    recv: Box::new(e),
                    op,
                    var,
                    body: Some(Box::new(body)),
                };
            } else {
                break;
            }
        }
        self.depth = base;
        Ok(e)
    }

    /// A method-call argument: a bare identifier (class name) or a full
    /// expression.
    fn call_arg(&mut self) -> Result<Expr> {
        if let TokKind::Ident(name) = &self.peek().kind {
            let name = name.clone();
            // A bare identifier followed by `,` or `)` is a class-name
            // argument, represented as a string literal.
            let next = &self.toks.get(self.pos + 1).map(|t| &t.kind);
            if matches!(next, Some(TokKind::Comma) | Some(TokKind::RParen))
                && !matches!(name.as_str(), "true" | "false" | "null" | "self")
            {
                self.pos += 1;
                return Ok(Expr::Lit(Value::Str(name)));
            }
        }
        self.nested(Self::implies)
    }

    fn ident(&mut self, what: &str) -> Result<String> {
        match &self.peek().kind {
            TokKind::Ident(s) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            _ => Err(self.err(format!("expected {what}"))),
        }
    }

    fn primary(&mut self) -> Result<Expr> {
        let t = self.peek().clone();
        match t.kind {
            TokKind::Int(i) => {
                self.bump();
                Ok(Expr::Lit(Value::Int(i)))
            }
            TokKind::Float(x) => {
                self.bump();
                Ok(Expr::Lit(Value::Float(x)))
            }
            TokKind::Str(s) => {
                self.bump();
                Ok(Expr::Lit(Value::Str(s)))
            }
            TokKind::Ident(name) => {
                self.bump();
                match name.as_str() {
                    "true" => Ok(Expr::Lit(Value::Bool(true))),
                    "false" => Ok(Expr::Lit(Value::Bool(false))),
                    "null" => Ok(Expr::Null),
                    _ => {
                        if self.eat(&TokKind::ColonColon) {
                            let lit = self.ident("enum literal after `::`")?;
                            Ok(Expr::EnumLit(name, lit))
                        } else {
                            Ok(Expr::Var(name))
                        }
                    }
                }
            }
            TokKind::LParen => {
                self.bump();
                let e = self.nested(Self::implies)?;
                self.expect(&TokKind::RParen, "`)`")?;
                Ok(e)
            }
            _ => Err(self.err("expected expression")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::parse;
    use super::*;

    #[test]
    fn precedence_shape() {
        let e = parse("1 + 2 * 3").unwrap();
        match e {
            Expr::Binary(BinOp::Add, _, rhs) => {
                assert!(matches!(*rhs, Expr::Binary(BinOp::Mul, _, _)));
            }
            other => panic!("unexpected shape: {other:?}"),
        }
    }

    #[test]
    fn implies_right_associative() {
        let e = parse("true implies false implies true").unwrap();
        match e {
            Expr::Binary(BinOp::Implies, _, rhs) => {
                assert!(matches!(*rhs, Expr::Binary(BinOp::Implies, _, _)));
            }
            other => panic!("unexpected shape: {other:?}"),
        }
    }

    #[test]
    fn collection_with_and_without_iterator() {
        let e = parse("xs->includes(y)").unwrap();
        match e {
            Expr::CollOp { var, body, .. } => {
                assert!(var.is_none());
                assert!(body.is_some());
            }
            other => panic!("unexpected shape: {other:?}"),
        }
        let e = parse("xs->forAll(p | p)").unwrap();
        match e {
            Expr::CollOp { var, .. } => assert_eq!(var.as_deref(), Some("p")),
            other => panic!("unexpected shape: {other:?}"),
        }
    }

    #[test]
    fn class_name_argument_is_string() {
        let e = parse("self.isKindOf(Session)").unwrap();
        match e {
            Expr::Call(_, name, args) => {
                assert_eq!(name, "isKindOf");
                assert_eq!(args, vec![Expr::Lit(Value::Str("Session".into()))]);
            }
            other => panic!("unexpected shape: {other:?}"),
        }
    }

    #[test]
    fn trailing_tokens_rejected() {
        assert!(parse("1 2").is_err());
        assert!(parse("xs->size() )").is_err());
    }
}
