//! Hand-written lexer for the Silage-like language.
//!
//! The parser pulls one token at a time from a [`Lexer`], so only the
//! prefix it actually parses is ever lexed, and no token list is held.

use std::iter::Peekable;
use std::str::Chars;

use crate::error::SilageError;
use crate::token::{Token, TokenKind};

/// Splits a source program into tokens on demand.
///
/// Comments start with `#` or `//` and run to the end of the line.
pub struct Lexer<'a> {
    chars: Peekable<Chars<'a>>,
    line: u32,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `source`.
    pub fn new(source: &'a str) -> Self {
        Lexer { chars: source.chars().peekable(), line: 1 }
    }

    /// The next token; at the end of input an [`TokenKind::Eof`] token,
    /// on this and every later call.
    ///
    /// # Errors
    ///
    /// Returns [`SilageError::UnexpectedChar`] for a character outside the
    /// language and [`SilageError::NumberTooLarge`] for an oversized
    /// literal.
    pub fn next_token(&mut self) -> Result<Token, SilageError> {
        self.skip_blanks_and_comments();
        let line = self.line;
        let Some(c) = self.chars.next() else {
            return Ok(Token { kind: TokenKind::Eof, line });
        };
        let kind = match c {
            c if c.is_ascii_digit() => {
                let mut value = i64::from(c as u8 - b'0');
                while let Some(d) = self.chars.next_if(char::is_ascii_digit) {
                    value = value
                        .checked_mul(10)
                        .and_then(|v| v.checked_add(i64::from(d as u8 - b'0')))
                        .ok_or(SilageError::NumberTooLarge { line })?;
                }
                TokenKind::Number(value)
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut ident = String::from(c);
                while let Some(d) = self.chars.next_if(|&d| d.is_ascii_alphanumeric() || d == '_') {
                    ident.push(d);
                }
                match ident.as_str() {
                    "func" => TokenKind::Func,
                    "if" => TokenKind::If,
                    "then" => TokenKind::Then,
                    "else" => TokenKind::Else,
                    "num" => TokenKind::Num,
                    _ => TokenKind::Ident(ident),
                }
            }
            '/' => TokenKind::Slash,
            '(' => TokenKind::LParen,
            ')' => TokenKind::RParen,
            '{' => TokenKind::LBrace,
            '}' => TokenKind::RBrace,
            '[' => TokenKind::LBracket,
            ']' => TokenKind::RBracket,
            ',' => TokenKind::Comma,
            ';' => TokenKind::Semicolon,
            ':' => TokenKind::Colon,
            '+' => TokenKind::Plus,
            '*' => TokenKind::Star,
            '-' => self.pair('>', TokenKind::Arrow, TokenKind::Minus),
            '<' => self.pair('=', TokenKind::Le, TokenKind::Lt),
            '>' => self.pair('=', TokenKind::Ge, TokenKind::Gt),
            '=' => self.pair('=', TokenKind::EqEq, TokenKind::Assign),
            '!' => {
                if self.chars.next_if_eq(&'=').is_none() {
                    return Err(SilageError::UnexpectedChar { ch: '!', line });
                }
                TokenKind::NotEq
            }
            other => return Err(SilageError::UnexpectedChar { ch: other, line }),
        };
        Ok(Token { kind, line })
    }

    /// `double` if the next character is `second` (consuming it), else
    /// `single`.
    fn pair(&mut self, second: char, double: TokenKind, single: TokenKind) -> TokenKind {
        if self.chars.next_if_eq(&second).is_some() {
            double
        } else {
            single
        }
    }

    /// Skips whitespace and comments, counting lines.
    fn skip_blanks_and_comments(&mut self) {
        while let Some(&c) = self.chars.peek() {
            let comment = c == '#' || (c == '/' && self.chars.clone().nth(1) == Some('/'));
            if comment {
                // Up to the newline, which the next round counts.
                while self.chars.next_if(|&c| c != '\n').is_some() {}
            } else if c.is_whitespace() {
                self.line += u32::from(c == '\n');
                self.chars.next();
            } else {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every token of `source`, up to and including the `Eof`.
    fn tokenize(source: &str) -> Result<Vec<Token>, SilageError> {
        let mut lexer = Lexer::new(source);
        let mut tokens = vec![lexer.next_token()?];
        while tokens[tokens.len() - 1].kind != TokenKind::Eof {
            tokens.push(lexer.next_token()?);
        }
        Ok(tokens)
    }

    fn kinds(source: &str) -> Vec<TokenKind> {
        tokenize(source).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_keywords_idents_and_numbers() {
        let toks = kinds("func f(a) -> (b) { b = if a then 1 else 2; }");
        assert!(toks.contains(&TokenKind::Func));
        assert!(toks.contains(&TokenKind::If));
        assert!(toks.contains(&TokenKind::Then));
        assert!(toks.contains(&TokenKind::Else));
        assert!(toks.contains(&TokenKind::Ident("f".into())));
        assert!(toks.contains(&TokenKind::Number(2)));
        assert_eq!(*toks.last().unwrap(), TokenKind::Eof);
    }

    #[test]
    fn lexes_operators() {
        assert_eq!(
            kinds("a <= b >= c == d != e < f > g"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Le,
                TokenKind::Ident("b".into()),
                TokenKind::Ge,
                TokenKind::Ident("c".into()),
                TokenKind::EqEq,
                TokenKind::Ident("d".into()),
                TokenKind::NotEq,
                TokenKind::Ident("e".into()),
                TokenKind::Lt,
                TokenKind::Ident("f".into()),
                TokenKind::Gt,
                TokenKind::Ident("g".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn arrow_vs_minus() {
        assert_eq!(
            kinds("a - b -> c"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Minus,
                TokenKind::Ident("b".into()),
                TokenKind::Arrow,
                TokenKind::Ident("c".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn comments_are_skipped_and_lines_tracked() {
        let toks = tokenize("# comment\n// another\n  x = 1;\n").unwrap();
        assert_eq!(toks[0].kind, TokenKind::Ident("x".into()));
        assert_eq!(toks[0].line, 3);
    }

    #[test]
    fn unexpected_character_is_reported_with_line() {
        let err = tokenize("a = 1;\nb = $;\n").unwrap_err();
        assert_eq!(err, SilageError::UnexpectedChar { ch: '$', line: 2 });
    }

    #[test]
    fn bare_bang_is_rejected() {
        let err = tokenize("a ! b").unwrap_err();
        assert!(matches!(err, SilageError::UnexpectedChar { ch: '!', .. }));
    }

    #[test]
    fn oversized_number_is_rejected() {
        let err = tokenize("99999999999999999999999").unwrap_err();
        assert!(matches!(err, SilageError::NumberTooLarge { .. }));
    }

    #[test]
    fn slash_is_division_unless_doubled() {
        assert_eq!(
            kinds("a / b"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Slash,
                TokenKind::Ident("b".into()),
                TokenKind::Eof
            ]
        );
    }
}
