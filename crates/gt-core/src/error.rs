//! Error types shared across the workspace.

use std::fmt;
use std::io;

/// A parse error in the graph stream format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number in the source, if known.
    pub line: Option<usize>,
    /// What went wrong.
    pub kind: ParseErrorKind,
}

/// The specific kind of parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// Unknown command token in the first field.
    UnknownCommand(String),
    /// Missing a required field (command or entity id).
    MissingField(&'static str),
    /// Entity id could not be parsed.
    InvalidEntity(String),
    /// Payload was malformed for the command (e.g. non-numeric speed factor).
    InvalidPayload(String),
    /// The line's bytes are not UTF-8.
    InvalidUtf8,
}

impl ParseError {
    /// Builds an error for an unparseable entity id.
    pub fn invalid_entity(s: &str) -> Self {
        ParseError {
            line: None,
            kind: ParseErrorKind::InvalidEntity(s.trim().to_owned()),
        }
    }

    /// Builds an error for a malformed payload.
    pub fn invalid_payload(msg: impl Into<String>) -> Self {
        ParseError {
            line: None,
            kind: ParseErrorKind::InvalidPayload(msg.into()),
        }
    }

    /// Builds an error for an unknown command token.
    pub fn unknown_command(cmd: &str) -> Self {
        ParseError {
            line: None,
            kind: ParseErrorKind::UnknownCommand(cmd.trim().to_owned()),
        }
    }

    /// Builds an error for a missing field.
    pub fn missing_field(name: &'static str) -> Self {
        ParseError {
            line: None,
            kind: ParseErrorKind::MissingField(name),
        }
    }

    /// Builds an error for a line that is not UTF-8.
    pub fn invalid_utf8() -> Self {
        ParseError {
            line: None,
            kind: ParseErrorKind::InvalidUtf8,
        }
    }

    /// Attaches a 1-based line number to this error.
    #[must_use]
    pub fn at_line(mut self, line: usize) -> Self {
        self.line = Some(line);
        self
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(line) = self.line {
            write!(f, "line {line}: ")?;
        }
        match &self.kind {
            ParseErrorKind::UnknownCommand(c) => write!(f, "unknown command `{c}`"),
            ParseErrorKind::MissingField(n) => write!(f, "missing field `{n}`"),
            ParseErrorKind::InvalidEntity(s) => write!(f, "invalid entity id `{s}`"),
            ParseErrorKind::InvalidPayload(m) => write!(f, "invalid payload: {m}"),
            ParseErrorKind::InvalidUtf8 => write!(f, "not valid UTF-8"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Top-level error for stream I/O and parsing.
#[derive(Debug)]
pub enum CoreError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Stream format violation.
    Parse(ParseError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Io(e) => write!(f, "i/o error: {e}"),
            CoreError::Parse(e) => write!(f, "parse error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Io(e) => Some(e),
            CoreError::Parse(e) => Some(e),
        }
    }
}

impl From<io::Error> for CoreError {
    fn from(e: io::Error) -> Self {
        CoreError::Io(e)
    }
}

impl From<ParseError> for CoreError {
    fn from(e: ParseError) -> Self {
        CoreError::Parse(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_line_numbers() {
        let e = ParseError::unknown_command("FOO").at_line(17);
        assert_eq!(e.to_string(), "line 17: unknown command `FOO`");
    }

    #[test]
    fn display_without_line() {
        let e = ParseError::missing_field("entity");
        assert_eq!(e.to_string(), "missing field `entity`");
    }

    #[test]
    fn core_error_wraps_sources() {
        let e = CoreError::from(ParseError::invalid_entity("x"));
        assert!(std::error::Error::source(&e).is_some());
        let io = CoreError::from(io::Error::other("boom"));
        assert!(io.to_string().contains("boom"));
    }
}
