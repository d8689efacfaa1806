//! Differential oracle for the OCL-lite front end: `constraint::parse`,
//! which reads the tokens of the scanner it shares with the model format
//! (`mddsm_meta::text`), against a reference kept here — the char-vector
//! lexer it replaced and the parser as it read that lexer's owned tokens.
//! The reference is verbatim but for the blocks marked "shared scanner",
//! which run only when its `shared` flag is set and give it the three
//! documented differences of the shared scanner:
//!
//! 1. strings also accept the `\r`, `\0` and `\u{…}` escapes;
//! 2. `//` starts a line comment;
//! 3. an integer above `i64::MAX` fails where the parser reaches it, with
//!    the model format's `bad int: number too large to fit in target
//!    type`, so a grammar error before it (or a lexical error anywhere)
//!    wins over it; one above `u64::MAX` still fails while lexing.
//!
//! Each difference has its own test against the verbatim reference
//! (`shared` unset). The corpora:
//!
//! * every OCL-lite text the shipped models carry: the policies, monitor
//!   properties and symptom conditions of the four domain broker models
//!   and of the experiment models, the invariants of every shipped
//!   metamodel, and the four domains' LTS guards;
//! * the predicate oracle's expression generator;
//! * hand-written edge texts: non-ASCII identifiers, newlines inside
//!   strings, each escape, integer range limits, comments, nesting at and
//!   past the bound;
//! * byte mutations of all of the above.
//!
//! On every input both front ends must build equal expressions or fail
//! with identical error texts, line and column included. `parse_property`
//! must also give the reference's `Property` for every shipped monitor and
//! for generated `always`, `never … during …` and bare properties.
//!
//! `cargo test -p bench --test constraint_oracle` runs the quick count;
//! `cargo test --release -p bench --test constraint_oracle -- --ignored`
//! runs the full one (ten times the seeds).

use bench::{e10, e11, e14, e15, e6, e7, e8, e9};
use mddsm_meta::constraint::{self, parse_property};
use mddsm_meta::{Metamodel, Model};
use mddsm_sim::SimRng;

mod predicate_gen;
use predicate_gen::predicate;

// -- The reference front end -------------------------------------------------------

mod reference {
    use mddsm_meta::constraint::temporal::Property;
    use mddsm_meta::constraint::{BinOp, Expr, UnOp};
    use mddsm_meta::{MetaError, Result, Value};

    /// The deepest expression nesting the parser accepts.
    pub const MAX_NESTING: usize = 64;

    /// Parses an OCL-lite expression; `shared` turns on the blocks marked
    /// "shared scanner".
    pub fn parse(source: &str, shared: bool) -> Result<Expr> {
        let tokens = lex(source, shared)?;
        parse_tokens(&tokens)
    }

    // ---------------------------------------------------------------- lexing

    /// One lexical token with its source position (1-based line/column).
    #[derive(Debug, Clone, PartialEq)]
    pub struct Token {
        pub kind: TokKind,
        pub line: u32,
        pub col: u32,
    }

    /// Token kinds of the constraint language.
    #[derive(Debug, Clone, PartialEq)]
    pub enum TokKind {
        Ident(String),
        Int(i64),
        Float(f64),
        Str(String),
        /// `(`
        LParen,
        /// `)`
        RParen,
        /// `.`
        Dot,
        /// `->`
        Arrow,
        /// `::`
        ColonColon,
        /// `|`
        Pipe,
        /// `,`
        Comma,
        Plus,
        Minus,
        Star,
        Slash,
        /// `=`
        Eq,
        /// `<>`
        Neq,
        Lt,
        Le,
        Gt,
        Ge,
        /// End of input sentinel.
        Eof,
        /// shared scanner: an integer literal above `i64::MAX`.
        BigInt,
    }

    pub fn lex(src: &str, shared: bool) -> Result<Vec<Token>> {
        let mut out = Vec::new();
        let chars: Vec<char> = src.chars().collect();
        let mut i = 0usize;
        let mut line = 1u32;
        let mut col = 1u32;
        let err = |line: u32, col: u32, message: String| MetaError::Syntax { line, col, message };

        macro_rules! push {
            ($kind:expr, $line:expr, $col:expr) => {
                out.push(Token {
                    kind: $kind,
                    line: $line,
                    col: $col,
                })
            };
        }

        while i < chars.len() {
            let c = chars[i];
            let (tl, tc) = (line, col);
            // shared scanner: a `//` comment runs to the end of the line.
            if shared && c == '/' && chars.get(i + 1) == Some(&'/') {
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
                continue;
            }
            // Punctuation: the token and its length in chars.
            let punct = match (c, chars.get(i + 1)) {
                ('-', Some('>')) => Some((TokKind::Arrow, 2)),
                (':', Some(':')) => Some((TokKind::ColonColon, 2)),
                ('<', Some('=')) => Some((TokKind::Le, 2)),
                ('<', Some('>')) => Some((TokKind::Neq, 2)),
                ('>', Some('=')) => Some((TokKind::Ge, 2)),
                ('(', _) => Some((TokKind::LParen, 1)),
                (')', _) => Some((TokKind::RParen, 1)),
                ('.', _) => Some((TokKind::Dot, 1)),
                ('|', _) => Some((TokKind::Pipe, 1)),
                (',', _) => Some((TokKind::Comma, 1)),
                ('+', _) => Some((TokKind::Plus, 1)),
                ('-', _) => Some((TokKind::Minus, 1)),
                ('*', _) => Some((TokKind::Star, 1)),
                ('/', _) => Some((TokKind::Slash, 1)),
                ('=', _) => Some((TokKind::Eq, 1)),
                ('<', _) => Some((TokKind::Lt, 1)),
                ('>', _) => Some((TokKind::Gt, 1)),
                _ => None,
            };
            if let Some((kind, n)) = punct {
                push!(kind, tl, tc);
                i += n;
                col += n as u32;
                continue;
            }
            match c {
                '\n' => {
                    line += 1;
                    col = 1;
                    i += 1;
                }
                c if c.is_whitespace() => {
                    col += 1;
                    i += 1;
                }
                ':' => return Err(err(tl, tc, "expected `::`".into())),
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
                                let esc = chars.get(i + 1).copied();
                                match esc {
                                    Some('"') => s.push('"'),
                                    Some('\\') => s.push('\\'),
                                    Some('n') => s.push('\n'),
                                    Some('t') => s.push('\t'),
                                    // shared scanner: the model format's escapes.
                                    Some('r') if shared => s.push('\r'),
                                    Some('0') if shared => s.push('\0'),
                                    Some('u')
                                        if shared && unicode_escape(&chars[i + 2..]).is_some() =>
                                    {
                                        let (c, len) = unicode_escape(&chars[i + 2..]).unwrap();
                                        s.push(c);
                                        i += len;
                                        col += len as u32;
                                        continue;
                                    }
                                    other => {
                                        return Err(err(
                                            line,
                                            col,
                                            format!("bad escape `\\{}`", other.unwrap_or(' ')),
                                        ))
                                    }
                                }
                                i += 2;
                                col += 2;
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
                    push!(TokKind::Str(s), tl, tc);
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
                        let v = text
                            .parse::<f64>()
                            .map_err(|e| err(tl, tc, format!("bad float `{text}`: {e}")))?;
                        push!(TokKind::Float(v), tl, tc);
                    } else if shared && text.parse::<i64>().is_err() {
                        // shared scanner: the parser refuses an integer
                        // past `i64::MAX`, the lexer one past `u64::MAX`.
                        if let Err(e) = text.parse::<u64>() {
                            return Err(err(tl, tc, format!("bad int: {e}")));
                        }
                        push!(TokKind::BigInt, tl, tc);
                    } else {
                        let v = text
                            .parse::<i64>()
                            .map_err(|e| err(tl, tc, format!("bad integer `{text}`: {e}")))?;
                        push!(TokKind::Int(v), tl, tc);
                    }
                }
                c if c.is_alphabetic() || c == '_' => {
                    let start = i;
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                        col += 1;
                    }
                    let text: String = chars[start..i].iter().collect();
                    push!(TokKind::Ident(text), tl, tc);
                }
                other => return Err(err(tl, tc, format!("unexpected character `{other}`"))),
            }
        }
        out.push(Token {
            kind: TokKind::Eof,
            line,
            col,
        });
        Ok(out)
    }

    /// shared scanner: the scalar of a `\u{…}` escape and the escape's
    /// length, `\u` included, given the chars after its `\u`.
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
                // shared scanner
                TokKind::BigInt => Err(self.err("bad int: number too large to fit in target type")),
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

    // ---------------------------------------------------------------- properties

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
    /// as a plain invariant (`always <expr>`). Its expressions parse with
    /// `shared` set.
    pub fn parse_property(source: &str) -> Result<Property> {
        let s = source.trim();
        if let Some(rest) = s.strip_prefix("always ") {
            return Ok(Property::Always(parse(rest, true)?));
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
                never: parse(&rest[..idx], true)?,
                during: parse(&rest[idx + " during ".len()..], true)?,
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
        Ok(Property::Always(parse(s, true)?))
    }
}

// -- Corpora -----------------------------------------------------------------------

/// Every broker model that ships: the four domain platforms' and the
/// experiments' (the models `analyze_models` gates).
fn broker_models() -> Vec<Model> {
    let mut models: Vec<Model> = e11::corpus().into_iter().map(|(_, m)| m).collect();
    models.extend([
        e6::e6_broker_model(true),
        e7::e7_broker_model(),
        e8::e8_broker_model(),
        e9::e9_broker_model(Some("AckWindowed")),
        e10::e10_broker_model(true),
        e14::e14_model_v1(),
        e14::e14_model_v2(),
        e14::e14_model_v3(),
        e15::e15_broker_model(e15::NODES3, 2),
        e15::e15_broker_model(e15::NODES5, 3),
    ]);
    models
}

/// Every shipped metamodel.
fn metamodels() -> Vec<Metamodel> {
    vec![
        mddsm_broker::broker_metamodel(),
        mddsm_core::mwmodel::middleware_metamodel(),
        cvm::cml::cml_metamodel(),
        csvm::csml::csml_metamodel(),
        mgridvm::mgridml::mgridml_metamodel(),
        ssvm::twosml::twosml_metamodel(),
        mddsm_sim::fault::fault_metamodel(),
    ]
}

/// The shipped OCL-lite expressions: policies, symptom conditions,
/// metamodel invariants and LTS guards.
fn shipped_expressions() -> Vec<String> {
    let mut out = Vec::new();
    for m in broker_models() {
        let text = |id, attr| m.attr_str(id, attr).unwrap_or_default().to_owned();
        out.extend(
            m.all_of_class("Policy")
                .into_iter()
                .map(|p| text(p, "expression")),
        );
        out.extend(
            m.all_of_class("Symptom")
                .into_iter()
                .map(|s| text(s, "condition")),
        );
    }
    for mm in metamodels() {
        out.extend(
            mm.classes()
                .flat_map(|c| c.constraints.iter().map(|k| k.source.clone())),
        );
    }
    // The only guarded domain LTS is 2SML's: one transition per event, as
    // `ssvm::twosml::twosml_lts` writes it.
    let events = ssvm::twosml::twosml_metamodel()
        .enum_def("SpaceEvent")
        .unwrap()
        .literals
        .clone();
    out.extend(
        events
            .iter()
            .map(|e| format!("self.onEvent = SpaceEvent::{e}")),
    );
    out
}

/// The shipped monitor properties, and the failover property the broker's
/// supervisor observes (`mddsm_broker::monitor::failover_properties`).
fn shipped_properties() -> Vec<String> {
    let mut out = vec!["at-most-one primary per epoch".to_owned()];
    for m in broker_models() {
        let monitors = m.all_of_class("Monitor").into_iter();
        out.extend(monitors.map(|id| m.attr_str(id, "property").unwrap_or_default().to_owned()));
    }
    out
}

/// Hand-written texts at the language's edges.
const EDGES: [&str; 64] = [
    "self.naïve = \"ü\" and self.Zürich_1 > 0",
    "日本 = 名前 and _x9 <> self.ÿ",
    "self.é",
    "self.s = \"line one\nline two\" and self.t = \"a\r\nb\"",
    "\"\\\"\" = \"\\\\\" and \"\\n\" <> \"\\t\"",
    "self.s = \"\\r\"",
    "self.s = \"a\\0b\"",
    "self.s = \"\\u{1F600}\\u{0}\\u{10ffff}\\u{a}\"",
    "self.s = \"\\u{d800}\"",
    "self.s = \"\\u{}\"",
    "self.s = \"\\u{110000}\"",
    "self.s = \"\\u{1234567}\"",
    "self.s = \"\\u1b\"",
    "self.s = \"\\q\"",
    "self.s = \"\\é\"",
    "self.s = \"abc",
    "self.s = \"abc\\",
    "9223372036854775807 + 0",
    "9223372036854775808",
    "-9223372036854775808",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999 = 1",
    "(1 + ) = 9223372036854775808",
    "1 + 9223372036854775808 # 2",
    "1 9223372036854775808",
    "self.a = 9223372036854775808 \"open",
    "1.5 + 0.25 * 2.0 = 2.0",
    "1.5.3",
    "1.x",
    "1-2",
    "1->size()",
    "12abc",
    ".5",
    "1.",
    "self.a > 1 // why",
    "// only a comment",
    "self.a = 1 // one\n and self.b = 2 // two\n",
    "self.a = 1 //",
    "a / / b",
    "a/b",
    "a : b",
    "a # b",
    "a :: b",
    "Kind::Video = Kind::",
    "self.isKindOf(Session) and self.isKindOf(true, x)",
    "self.xs->forAll(p | p.a > 0) and xs->select(x | x)->size() >= 2",
    "self.xs->exists(p p)",
    "\u{a0}self.x\u{2028}=\u{85}1\r\n\t",
    "not not true implies false or true and false",
    "1 mod 2 * 3 / 4 - -5 + - - 6",
    "",
    "   \n\n  ",
    "self.x >",
    "self.",
    "->size()",
    "(1",
    "1 2",
    "xs->size() )",
    "self.a <> null and self.b <= 3 and self.c >= 4 and self.d < 5 and self.e > 6",
    "self.during = 1 and self.x->during()",
    "never self.a = 1 during self.b = \" during \"",
    "always self.x = 1",
    "at-most-one primary per epoch",
];

/// Nesting at the bound, and one level past it, in each shape that opens
/// a level.
fn nesting() -> Vec<String> {
    let n = reference::MAX_NESTING;
    let mut out = Vec::new();
    for n in [n - 1, n, n + 1] {
        out.push(format!("{}true{}", "(".repeat(n), ")".repeat(n)));
        out.push(format!("{}true", "not ".repeat(n)));
        out.push(format!("true{}", " and true".repeat(n)));
        out.push(format!("self{}", ".x".repeat(n)));
    }
    out
}

/// Every corpus text but the mutants: `seeds` times 50 generated
/// predicates on top of the fixed texts.
fn corpus(seeds: u64) -> Vec<String> {
    let mut texts = shipped_expressions();
    texts.extend(shipped_properties());
    texts.extend(EDGES.iter().map(|e| e.to_string()));
    texts.extend(nesting());
    for seed in 0..seeds {
        let mut rng = SimRng::seed_from_u64(0x0C_0000 + seed);
        texts.extend((0..50).map(|_| predicate(&mut rng, 3)));
    }
    texts
}

// -- Mutation ----------------------------------------------------------------------

const ALPHABET: [&str; 24] = [
    "\"",
    "\\",
    "\\r",
    "\\0",
    "\\u{",
    "}",
    "//",
    "/",
    "\n",
    "::",
    ":",
    "->",
    "-",
    ".",
    "(",
    ")",
    "|",
    "<>",
    "é",
    "\u{a0}",
    "9223372036854775808",
    "18446744073709551616",
    "1.5",
    " during ",
];

/// The first char boundary of `s` at or after byte `at`.
fn boundary(s: &str, at: usize) -> usize {
    (at..s.len())
        .find(|&i| s.is_char_boundary(i))
        .unwrap_or(s.len())
}

/// `src` after one to three random insertions, deletions or truncations.
fn mutate(src: &str, rng: &mut SimRng) -> String {
    let mut s = src.to_owned();
    for _ in 0..rng.range(1, 4) {
        let at = boundary(&s, rng.index(s.len() + 1));
        match rng.index(3) {
            0 => s.insert_str(at, ALPHABET[rng.index(ALPHABET.len())]),
            1 => {
                let end = boundary(&s, at + 1 + rng.index(8));
                s.replace_range(at..end, "");
            }
            _ => s.truncate(at),
        }
    }
    s
}

// -- The oracle --------------------------------------------------------------------

/// Parses `src` with both front ends, requires the same outcome, and
/// returns whether it was an expression.
fn check(src: &str) -> bool {
    let got = constraint::parse(src).map_err(|e| e.to_string());
    let want = reference::parse(src, true).map_err(|e| e.to_string());
    assert_eq!(got, want, "the parsers disagree on {src:?}");
    got.is_ok()
}

/// Requires `parse_property` to give the reference's property for `src`.
fn check_property(src: &str) {
    let got = parse_property(src).map_err(|e| e.to_string());
    let want = reference::parse_property(src).map_err(|e| e.to_string());
    assert!(
        got.is_ok() && got == want,
        "{src:?}: {got:?} against {want:?}"
    );
}

fn run(seeds: u64, mutants_per_text: usize) {
    // 28 shipped expressions and 10 properties today: a reader that
    // loses most of them tests little.
    let (expressions, properties) = (shipped_expressions(), shipped_properties());
    assert!(expressions.len() >= 20 && properties.len() >= 5);
    let texts = corpus(seeds);
    let rejected = texts.iter().filter(|t| !check(t)).count();
    // Only edge texts, nesting past the bound and properties (whose
    // keywords are no expression) fail.
    assert!(
        rejected <= EDGES.len() + 4 + properties.len(),
        "{rejected} of {}",
        texts.len()
    );
    for src in &properties {
        check_property(src);
    }
    let mut rng = SimRng::seed_from_u64(0x0C_0F00 + seeds);
    for _ in 0..seeds * 50 {
        let (p, q) = (predicate(&mut rng, 3), predicate(&mut rng, 2));
        for src in [format!("always {p}"), format!("never {p} during {q}"), p] {
            check_property(&src);
        }
    }
    let (mut tried, mut accepted, mut differ) = (0, 0, 0);
    for t in &texts {
        for _ in 0..mutants_per_text {
            let m = mutate(t, &mut rng);
            tried += 1;
            accepted += usize::from(check(&m));
            let verbatim = reference::parse(&m, false).map_err(|e| e.to_string());
            differ +=
                usize::from(verbatim != reference::parse(&m, true).map_err(|e| e.to_string()));
        }
    }
    // The mutants must both parse and fail, and reach the differences, or
    // they test nothing.
    assert!(accepted > 0 && accepted < tried, "{accepted} of {tried}");
    assert!(differ > 0, "no mutant reached a documented difference");
}

#[test]
fn front_end_matches_the_reference() {
    run(8, 32);
}

#[test]
#[ignore = "the full count; CI runs it in release"]
fn front_end_matches_the_reference_full() {
    run(80, 32);
}

// -- The three documented differences ----------------------------------------------

/// The error text of `src` under the front end, and under the verbatim
/// reference.
fn new_and_old(src: &str) -> (Result<String, String>, Result<String, String>) {
    let shown = |r: mddsm_meta::Result<constraint::Expr>| {
        r.map(|e| format!("{e:?}")).map_err(|e| e.to_string())
    };
    check(src);
    (
        shown(constraint::parse(src)),
        shown(reference::parse(src, false)),
    )
}

#[test]
fn strings_accept_the_model_formats_escapes() {
    for (src, old) in [
        (
            r#"self.s = "a\rb""#,
            "syntax error at 1:12: bad escape `\\r`",
        ),
        (
            r#"self.s = "a\0b""#,
            "syntax error at 1:12: bad escape `\\0`",
        ),
        (
            r#"self.s = "\u{1F600}""#,
            "syntax error at 1:11: bad escape `\\u`",
        ),
    ] {
        let (new, verbatim) = new_and_old(src);
        assert_eq!(verbatim, Err(old.to_owned()), "{src}");
        assert!(new.is_ok(), "{src}: {new:?}");
    }
    let e = constraint::parse(r#""\r\0\u{1F600}""#).unwrap();
    assert_eq!(
        e,
        constraint::Expr::Lit(mddsm_meta::Value::Str("\r\0😀".into()))
    );
    // A malformed `\u` escape fails as before.
    let (new, verbatim) = new_and_old(r#"self.s = "\u{d800}""#);
    assert_eq!(new, verbatim);
}

#[test]
fn a_double_slash_starts_a_line_comment() {
    let (new, verbatim) = new_and_old("self.a > 1 // why");
    assert_eq!(
        verbatim,
        Err("syntax error at 1:13: expected expression".to_owned())
    );
    assert_eq!(new, new_and_old("self.a > 1").0);
    // An end of input right after a comment is reported where the
    // comment starts, one after its newline on the next line.
    let (new, _) = new_and_old("self.a > // why");
    assert_eq!(
        new,
        Err("syntax error at 1:10: expected expression".to_owned())
    );
    let (new, verbatim) = new_and_old("self.a > // why\n");
    assert_eq!(
        new,
        Err("syntax error at 2:1: expected expression".to_owned())
    );
    assert_eq!(
        verbatim,
        Err("syntax error at 1:10: expected expression".to_owned())
    );
}

#[test]
fn integers_past_i64_fail_in_the_parser() {
    let reason = "number too large to fit in target type";
    let (new, verbatim) = new_and_old("self.a = 9223372036854775808");
    assert_eq!(new, Err(format!("syntax error at 1:10: bad int: {reason}")));
    let old = format!("syntax error at 1:10: bad integer `9223372036854775808`: {reason}");
    assert_eq!(verbatim, Err(old));
    // A grammar error before it now wins, and so does a lexical error after it.
    let (new, _) = new_and_old(") = 9223372036854775808");
    assert_eq!(
        new,
        Err("syntax error at 1:1: expected expression".to_owned())
    );
    let (new, _) = new_and_old("9223372036854775808 #");
    assert_eq!(
        new,
        Err("syntax error at 1:21: unexpected character `#`".to_owned())
    );
    // Past `u64::MAX` the scanner refuses it, as it does in model text.
    let (new, _) = new_and_old(") = 18446744073709551616");
    assert_eq!(new, Err(format!("syntax error at 1:5: bad int: {reason}")));
}
