//! Error type for the Silage-like frontend.

use std::fmt;

use cdfg::CdfgError;

use crate::token::TokenKind;
use crate::MAX_DEPTH;

/// Errors produced while compiling a program.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SilageError {
    /// An unexpected character was encountered while lexing.
    UnexpectedChar {
        /// The offending character.
        ch: char,
        /// 1-based source line.
        line: u32,
    },
    /// An integer literal does not fit in a 64-bit signed word.
    NumberTooLarge {
        /// 1-based source line.
        line: u32,
    },
    /// The parser found a token it did not expect.
    UnexpectedToken {
        /// Description of what the parser expected.
        expected: String,
        /// The token that was found instead.
        found: TokenKind,
        /// 1-based source line.
        line: u32,
    },
    /// The program contains no function definitions.
    EmptyProgram,
    /// A name was used before being defined.
    UndefinedName {
        /// The undefined name.
        name: String,
        /// 1-based source line.
        line: u32,
    },
    /// A name was assigned more than once (the language is single
    /// assignment).
    Reassignment {
        /// The reassigned name.
        name: String,
        /// 1-based source line.
        line: u32,
    },
    /// A declared output was never assigned.
    UnassignedOutput(String),
    /// Two parameters or outputs share a name.
    DuplicateDeclaration(String),
    /// Parentheses or `if`s nest deeper than [`crate::MAX_DEPTH`] levels.
    TooDeep {
        /// 1-based source line of the `(` or `if` one level too deep.
        line: u32,
    },
    /// Compilation produced a structurally invalid CDFG (internal error or
    /// a degenerate function such as one with no outputs).
    Construction(CdfgError),
}

impl fmt::Display for SilageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SilageError::UnexpectedChar { ch, line } => {
                write!(f, "line {line}: unexpected character `{ch}`")
            }
            SilageError::NumberTooLarge { line } => {
                write!(f, "line {line}: integer literal too large")
            }
            SilageError::UnexpectedToken { expected, found, line } => {
                write!(f, "line {line}: expected {expected}, found {found}")
            }
            SilageError::EmptyProgram => f.write_str("program contains no function definitions"),
            SilageError::UndefinedName { name, line } => {
                write!(f, "line {line}: `{name}` is used before being defined")
            }
            SilageError::Reassignment { name, line } => {
                write!(f, "line {line}: `{name}` is assigned more than once")
            }
            SilageError::UnassignedOutput(name) => write!(f, "output `{name}` is never assigned"),
            SilageError::DuplicateDeclaration(name) => {
                write!(f, "`{name}` is declared more than once")
            }
            SilageError::TooDeep { line } => {
                write!(f, "line {line}: expressions nest deeper than {MAX_DEPTH} levels")
            }
            SilageError::Construction(e) => write!(f, "elaboration failed: {e}"),
        }
    }
}

impl std::error::Error for SilageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SilageError::Construction(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CdfgError> for SilageError {
    fn from(e: CdfgError) -> Self {
        SilageError::Construction(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_line_numbers() {
        let err = SilageError::UndefinedName { name: "x".into(), line: 7 };
        assert!(err.to_string().contains("line 7"));
        let err = SilageError::UnexpectedToken {
            expected: "`;`".into(),
            found: TokenKind::RBrace,
            line: 3,
        };
        assert!(err.to_string().contains("expected `;`"));
        let err = SilageError::TooDeep { line: 5 };
        assert_eq!(err.to_string(), "line 5: expressions nest deeper than 64 levels");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SilageError>();
    }
}
