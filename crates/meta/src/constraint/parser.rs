//! Recursive-descent parser for the OCL-lite constraint language, over
//! the tokens of the scanner it shares with the model format.

use super::ast::{BinOp, Expr, UnOp};
use crate::text::{syntax, Tok, Token, BAD_INT};
use crate::{MetaError, Result, Value};

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

/// OCL-lite's punctuation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum Op {
    LParen,
    RParen,
    Dot,
    Arrow,
    ColonColon,
    Pipe,
    Comma,
    Plus,
    Minus,
    Star,
    Slash,
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
}

/// The mark of OCL-lite's punctuation that `rest` starts with, and its
/// length in bytes.
pub(super) fn punct(rest: &[u8]) -> Option<(Op, usize)> {
    Some(match rest {
        [b'-', b'>', ..] => (Op::Arrow, 2),
        [b':', b':', ..] => (Op::ColonColon, 2),
        [b'<', b'=', ..] => (Op::Le, 2),
        [b'<', b'>', ..] => (Op::Neq, 2),
        [b'>', b'=', ..] => (Op::Ge, 2),
        [b'(', ..] => (Op::LParen, 1),
        [b')', ..] => (Op::RParen, 1),
        [b'.', ..] => (Op::Dot, 1),
        [b'|', ..] => (Op::Pipe, 1),
        [b',', ..] => (Op::Comma, 1),
        [b'+', ..] => (Op::Plus, 1),
        [b'-', ..] => (Op::Minus, 1),
        [b'*', ..] => (Op::Star, 1),
        [b'/', ..] => (Op::Slash, 1),
        [b'=', ..] => (Op::Eq, 1),
        [b'<', ..] => (Op::Lt, 1),
        [b'>', ..] => (Op::Gt, 1),
        _ => return None,
    })
}

/// Parses one expression from `toks`, tokens of `src` that end with
/// [`Tok::Eof`].
pub(super) fn parse_tokens(src: &str, toks: &[Token<'_, Op>]) -> Result<Expr> {
    let mut p = Parser {
        src,
        toks,
        pos: 0,
        depth: 0,
    };
    let e = p.implies()?;
    p.expect_eof()?;
    Ok(e)
}

struct Parser<'a> {
    src: &'a str,
    toks: &'a [Token<'a, Op>],
    pos: usize,
    /// Levels of nesting open at the current token (see [`MAX_NESTING`]).
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &'a Token<'a, Op> {
        let toks = self.toks;
        &toks[self.pos.min(toks.len() - 1)]
    }

    fn err(&self, message: impl Into<String>) -> MetaError {
        syntax(self.src, self.peek().1, message)
    }

    fn eat(&mut self, op: Op) -> bool {
        let hit = self.peek().0 == Tok::Punct(op);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, op: Op, what: &str) -> Result<()> {
        if self.eat(op) {
            Ok(())
        } else {
            Err(self.err(format!("expected {what}")))
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if self.peek().0 == Tok::Eof {
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

    fn eat_kw(&mut self, kw: &str) -> bool {
        let hit = self.peek().0 == Tok::Ident(kw);
        self.pos += usize::from(hit);
        hit
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
        let op = match &self.peek().0 {
            Tok::Punct(Op::Eq) => Some(BinOp::Eq),
            Tok::Punct(Op::Neq) => Some(BinOp::Neq),
            Tok::Punct(Op::Lt) => Some(BinOp::Lt),
            Tok::Punct(Op::Le) => Some(BinOp::Le),
            Tok::Punct(Op::Gt) => Some(BinOp::Gt),
            Tok::Punct(Op::Ge) => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
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
            let op = match &self.peek().0 {
                Tok::Punct(Op::Plus) => BinOp::Add,
                Tok::Punct(Op::Minus) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
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
            let op = match &self.peek().0 {
                Tok::Punct(Op::Star) => BinOp::Mul,
                Tok::Punct(Op::Slash) => BinOp::Div,
                Tok::Ident("mod") => BinOp::Mod,
                _ => break,
            };
            self.pos += 1;
            self.nest()?;
            let rhs = self.unary()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        self.depth = base;
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat(Op::Minus) {
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
            if matches!(self.peek().0, Tok::Punct(Op::Dot | Op::Arrow)) {
                self.nest()?;
            }
            if self.eat(Op::Dot) {
                let name = self.ident("property or method name after `.`")?;
                if self.eat(Op::LParen) {
                    let mut args = Vec::new();
                    if !self.eat(Op::RParen) {
                        loop {
                            // Bare identifiers as method arguments denote
                            // class names (for isKindOf) and parse as string
                            // literals when not followed by postfix syntax.
                            args.push(self.call_arg()?);
                            if self.eat(Op::RParen) {
                                break;
                            }
                            self.expect(Op::Comma, "`,` or `)` in argument list")?;
                        }
                    }
                    e = Expr::Call(Box::new(e), name, args);
                } else {
                    e = Expr::Prop(Box::new(e), name);
                }
            } else if self.eat(Op::Arrow) {
                let op = self.ident("collection operation after `->`")?;
                self.expect(Op::LParen, "`(` after collection operation")?;
                if self.eat(Op::RParen) {
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
                let var = if let Tok::Ident(v) = &self.peek().0 {
                    self.pos += 1;
                    if self.eat(Op::Pipe) {
                        Some((*v).to_owned())
                    } else {
                        self.pos = checkpoint;
                        None
                    }
                } else {
                    None
                };
                let body = self.nested(Self::implies)?;
                self.expect(Op::RParen, "`)` closing collection operation")?;
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
        if let Tok::Ident(name) = &self.peek().0 {
            // A bare identifier followed by `,` or `)` is a class-name
            // argument, represented as a string literal.
            let next = self.toks.get(self.pos + 1).map(|t| &t.0);
            if matches!(next, Some(Tok::Punct(Op::Comma | Op::RParen)))
                && !matches!(*name, "true" | "false" | "null" | "self")
            {
                self.pos += 1;
                return Ok(Expr::Lit(Value::Str((*name).to_owned())));
            }
        }
        self.nested(Self::implies)
    }

    fn ident(&mut self, what: &str) -> Result<String> {
        match &self.peek().0 {
            Tok::Ident(s) => {
                self.pos += 1;
                Ok((*s).to_owned())
            }
            _ => Err(self.err(format!("expected {what}"))),
        }
    }

    fn primary(&mut self) -> Result<Expr> {
        let lit = match &self.peek().0 {
            Tok::Int(n) => Value::Int(i64::try_from(*n).map_err(|_| self.err(BAD_INT))?),
            Tok::Float(x) => Value::Float(*x),
            Tok::Str(s) => Value::Str(s.as_ref().to_owned()),
            Tok::Ident(name) => {
                self.pos += 1;
                return Ok(match *name {
                    "true" => Expr::Lit(Value::Bool(true)),
                    "false" => Expr::Lit(Value::Bool(false)),
                    "null" => Expr::Null,
                    _ if self.eat(Op::ColonColon) => {
                        let lit = self.ident("enum literal after `::`")?;
                        Expr::EnumLit((*name).to_owned(), lit)
                    }
                    _ => Expr::Var((*name).to_owned()),
                });
            }
            Tok::Punct(Op::LParen) => {
                self.pos += 1;
                let e = self.nested(Self::implies)?;
                self.expect(Op::RParen, "`)`")?;
                return Ok(e);
            }
            _ => return Err(self.err("expected expression")),
        };
        self.pos += 1;
        Ok(Expr::Lit(lit))
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
