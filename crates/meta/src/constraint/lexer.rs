//! Hand-written lexer for the OCL-lite constraint language.

use crate::error::MetaError;
use crate::Result;

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
}

pub fn lex(src: &str) -> Result<Vec<Token>> {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_operators_and_literals() {
        assert_eq!(
            kinds("a -> b :: 1 2.5 \"x\" <= <> ="),
            vec![
                TokKind::Ident("a".into()),
                TokKind::Arrow,
                TokKind::Ident("b".into()),
                TokKind::ColonColon,
                TokKind::Int(1),
                TokKind::Float(2.5),
                TokKind::Str("x".into()),
                TokKind::Le,
                TokKind::Neq,
                TokKind::Eq,
                TokKind::Eof,
            ]
        );
    }

    #[test]
    fn tracks_positions() {
        let toks = lex("a\n  b").unwrap();
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn string_escapes() {
        assert_eq!(
            kinds(r#""a\"b\n""#),
            vec![TokKind::Str("a\"b\n".into()), TokKind::Eof]
        );
        assert!(lex("\"open").is_err());
        assert!(lex(r#""\q""#).is_err());
    }

    #[test]
    fn rejects_stray_characters() {
        assert!(lex("a # b").is_err());
        assert!(lex("a : b").is_err());
    }

    #[test]
    fn minus_vs_arrow() {
        assert_eq!(
            kinds("1-2"),
            vec![
                TokKind::Int(1),
                TokKind::Minus,
                TokKind::Int(2),
                TokKind::Eof
            ]
        );
    }

    #[test]
    fn dot_not_part_of_trailing_number() {
        // `1.` followed by ident is Int Dot Ident (method call on int is a
        // later eval error, but lexing must not swallow the dot).
        assert_eq!(
            kinds("1.x"),
            vec![
                TokKind::Int(1),
                TokKind::Dot,
                TokKind::Ident("x".into()),
                TokKind::Eof
            ]
        );
    }
}
