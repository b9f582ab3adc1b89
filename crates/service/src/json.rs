//! A minimal JSON tree for the wire protocol.
//!
//! The workspace vendors no external crates, so this module hand-rolls the
//! little JSON the protocol needs: a [`Json`] tree, a recursive-descent
//! parser and a compact single-line emitter.  Two deliberate choices keep
//! the protocol byte-exact:
//!
//! * **Numbers stay raw tokens** ([`Json::Number`] holds the literal text),
//!   so a `u64` seed or an engine-formatted float survives a round trip
//!   without ever passing through `f64` and losing precision.
//! * **Objects are ordered pair lists**, so an emitted request or event has
//!   exactly the key order the protocol code wrote — no hash-map shuffling
//!   between daemon and client.
//!
//! Report payloads (the engine's pre-rendered JSON strings) are carried as
//! *strings* inside protocol messages; this module only needs to escape and
//! unescape them faithfully, never to re-parse their numerics.
//!
//! # Cost
//!
//! The wire path does work in proportion to the bytes it carries.  Text
//! lives in [`Cow`]s: an emitted message borrows its payloads instead of
//! cloning them, and a parsed document borrows every string and number that
//! needed no unescaping straight from the input line.  A string with
//! escapes is built by copying each unescaped run as one slice.  Escaping
//! goes through the workspace's one escaper,
//! [`engine::report::push_json_string`].  Nesting is bounded by
//! [`MAX_DEPTH`], so no input can exhaust the parser's stack.

use std::borrow::Cow;
use std::fmt;

use engine::report::push_json_string;

/// Deepest array/object nesting [`Json::parse`] accepts.  Protocol
/// messages nest about five levels; the bound only exists so a hostile
/// line of brackets is a typed error instead of a stack overflow.
pub const MAX_DEPTH: usize = 64;

/// One JSON value, borrowing its text where it can (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum Json<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its literal token (see the module docs).
    Number(Cow<'a, str>),
    /// A string (unescaped).
    Str(Cow<'a, str>),
    /// An array.
    Array(Vec<Json<'a>>),
    /// An object as an ordered `(key, value)` list.
    Object(Vec<(Cow<'a, str>, Json<'a>)>),
}

/// Why [`Json::parse`] rejected a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// Arrays and objects nest deeper than [`MAX_DEPTH`].
    TooDeep {
        /// Byte offset of the bracket that would exceed the limit.
        pos: usize,
    },
    /// Any other malformation; the message says what and where.
    Syntax(String),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::TooDeep { pos } => {
                write!(f, "nesting deeper than {MAX_DEPTH} levels at byte {pos}")
            }
            JsonError::Syntax(detail) => f.write_str(detail),
        }
    }
}

impl std::error::Error for JsonError {}

impl From<JsonError> for String {
    fn from(err: JsonError) -> String {
        err.to_string()
    }
}

fn syntax(detail: impl Into<String>) -> JsonError {
    JsonError::Syntax(detail.into())
}

impl<'a> Json<'a> {
    /// A number value from anything displayable as a numeric token.
    pub fn number(n: impl ToString) -> Json<'a> {
        Json::Number(Cow::Owned(n.to_string()))
    }

    /// A string value, borrowed or owned.
    pub fn str(s: impl Into<Cow<'a, str>>) -> Json<'a> {
        Json::Str(s.into())
    }

    /// An object from `(key, value)` pairs, in order.
    pub fn object(fields: impl IntoIterator<Item = (&'a str, Json<'a>)>) -> Json<'a> {
        Json::Object(fields.into_iter().map(|(key, value)| (Cow::Borrowed(key), value)).collect())
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json<'a>> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Moves an object field's value out (first match), leaving `null` in
    /// its place — how a parser of the tree takes large strings without
    /// copying them.
    pub fn take(&mut self, key: &str) -> Option<Json<'a>> {
        match self {
            Json::Object(fields) => fields
                .iter_mut()
                .find(|(k, _)| k == key)
                .map(|(_, v)| std::mem::replace(v, Json::Null)),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The string payload as an owned `String`, if this is a string: a move
    /// for strings the parser had to unescape, one copy for borrowed ones.
    pub fn into_string(self) -> Option<String> {
        match self {
            Json::Str(s) => Some(s.into_owned()),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json<'a>]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The number token parsed as `u64`, if this is an integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(token) => token.parse().ok(),
            _ => None,
        }
    }

    /// The number token parsed as `u32`.
    pub fn as_u32(&self) -> Option<u32> {
        match self {
            Json::Number(token) => token.parse().ok(),
            _ => None,
        }
    }

    /// The number token parsed as `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Number(token) => token.parse().ok(),
            _ => None,
        }
    }

    /// Emits the value as compact single-line JSON (no added whitespace, so
    /// one protocol message is always exactly one line).
    pub fn emit(&self) -> String {
        let mut out = String::new();
        self.emit_into(&mut out);
        out
    }

    fn emit_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Number(token) => out.push_str(token),
            Json::Str(s) => push_json_string(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.emit_into(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_json_string(out, key);
                    out.push(':');
                    value.emit_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document; trailing content (other than whitespace) is
    /// an error, so a framing bug can never silently truncate a message.
    ///
    /// # Errors
    ///
    /// [`JsonError::TooDeep`] past [`MAX_DEPTH`] levels of nesting,
    /// [`JsonError::Syntax`] for every other malformation.
    pub fn parse(text: &'a str) -> Result<Json<'a>, JsonError> {
        let mut parser = Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0 };
        let value = parser.value()?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(syntax(format!("trailing content at byte {}", parser.pos)));
        }
        Ok(value)
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_whitespace(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(syntax(format!("expected `{}` at byte {}", byte as char, self.pos)))
        }
    }

    fn literal(&mut self, word: &str, value: Json<'a>) -> Result<Json<'a>, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(syntax(format!("bad literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Json<'a>, JsonError> {
        self.skip_whitespace();
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(JsonError::TooDeep { pos: self.pos });
                }
                self.depth += 1;
                let value = if open == b'[' { self.array() } else { self.object() };
                self.depth -= 1;
                value
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(syntax(format!("unexpected input at byte {}", self.pos))),
        }
    }

    fn number(&mut self) -> Result<Json<'a>, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        self.skip_digits();
        if self.pos == digits_start {
            return Err(syntax(format!("malformed number at byte {start}")));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.skip_digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.skip_digits();
        }
        // Every byte of the token is ASCII, so the slice is a `str` slice.
        Ok(Json::Number(Cow::Borrowed(&self.text[start..self.pos])))
    }

    fn skip_digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    /// Advances to the next `"` or `\` (or the end of input) and returns
    /// the run skipped.  Both stop bytes are ASCII, so the run is a whole
    /// number of characters: slicing it out of the input `str` costs a
    /// boundary check, not a UTF-8 validation.
    fn run(&mut self) -> &'a str {
        let start = self.pos;
        let len = self.bytes[start..].iter().position(|&b| b == b'"' || b == b'\\');
        self.pos = len.map_or(self.bytes.len(), |len| start + len);
        &self.text[start..self.pos]
    }

    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let first = self.run();
        if self.peek() == Some(b'"') {
            // No escapes: borrow the literal's text from the input.
            self.pos += 1;
            return Ok(Cow::Borrowed(first));
        }
        let mut out = String::from(first);
        loop {
            match self.peek() {
                None => return Err(syntax("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                _ => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
            }
            out.push_str(self.run());
        }
    }

    /// Decodes the escape whose backslash was just consumed.
    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let unit = self.hex4()?;
                // Combine a UTF-16 surrogate pair; a lone surrogate is a
                // protocol error.
                let c = if (0xd800..0xdc00).contains(&unit) {
                    if !(self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u'))
                    {
                        return Err(syntax("lone high surrogate"));
                    }
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&low) {
                        return Err(syntax("bad low surrogate"));
                    }
                    let code = 0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00);
                    char::from_u32(code).ok_or_else(|| syntax("bad surrogate pair"))?
                } else {
                    char::from_u32(unit).ok_or_else(|| syntax("bad unicode escape"))?
                };
                out.push(c);
                return Ok(());
            }
            _ => return Err(syntax(format!("bad escape at byte {}", self.pos))),
        };
        self.pos += 1;
        out.push(c);
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        let digits =
            self.bytes.get(self.pos..end).ok_or_else(|| syntax("truncated unicode escape"))?;
        let mut unit = 0;
        for &digit in digits {
            let value =
                char::from(digit).to_digit(16).ok_or_else(|| syntax("bad unicode escape"))?;
            unit = unit * 16 + value;
        }
        self.pos = end;
        Ok(unit)
    }

    fn array(&mut self) -> Result<Json<'a>, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(syntax(format!("expected `,` or `]` at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Json<'a>, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(syntax(format!("expected `,` or `}}` at byte {}", self.pos))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(value: &Json) {
        let line = value.emit();
        assert_eq!(&Json::parse(&line).unwrap(), value, "{line}");
    }

    #[test]
    fn scalars_round_trip() {
        roundtrip(&Json::Null);
        roundtrip(&Json::Bool(true));
        roundtrip(&Json::Bool(false));
        roundtrip(&Json::number(u64::MAX));
        roundtrip(&Json::number("-12.5e-3"));
        roundtrip(&Json::str(""));
        roundtrip(&Json::str("plain"));
    }

    #[test]
    fn u64_numbers_keep_full_precision() {
        // Through an f64 this would round; the raw token must not.
        let token = Json::number(u64::MAX).emit();
        assert_eq!(token, "18446744073709551615");
        assert_eq!(Json::parse(&token).unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn embedded_report_strings_round_trip_byte_exactly() {
        let report = "{\n  \"records\": [\n    {\"x\": 1.25}\n  ]\n}\n";
        let wrapped = Json::object([("report", Json::str(report))]);
        let line = wrapped.emit();
        assert!(!line.contains('\n'), "one message stays one line");
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed.get("report").unwrap().as_str(), Some(report));
    }

    #[test]
    fn escapes_and_unicode_round_trip() {
        roundtrip(&Json::str("quote \" backslash \\ newline \n tab \t bell \u{0007}"));
        roundtrip(&Json::str("π ≈ 3.14159 — ✓ 🦀"));
        assert_eq!(Json::parse("\"\\u00e9\\ud83e\\udd80\"").unwrap().as_str(), Some("é🦀"));
        assert_eq!(Json::parse("\"a\\/b\\bc\\fd\"").unwrap().as_str(), Some("a/b\u{8}c\u{c}d"));
        assert!(Json::parse("\"\\ud800\"").is_err(), "lone surrogate rejected");
        assert!(Json::parse("\"\\udc00\"").is_err(), "lone low surrogate rejected");
        assert!(Json::parse("\"\\u+041\"").is_err(), "hex digits only");
        assert!(Json::parse("\"\\u00é\"").is_err(), "multi-byte hex digit rejected");
    }

    #[test]
    fn unescaped_text_is_borrowed_and_escaped_text_owned() {
        let parsed = Json::parse("{\"plain\":\"é x\",\"escaped\":\"a\\nb\",\"n\":-1.5}").unwrap();
        assert!(matches!(parsed.get("plain"), Some(Json::Str(Cow::Borrowed("é x")))));
        assert!(matches!(parsed.get("escaped"), Some(Json::Str(Cow::Owned(s))) if s == "a\nb"));
        assert!(matches!(parsed.get("n"), Some(Json::Number(Cow::Borrowed("-1.5")))));
    }

    #[test]
    fn take_moves_a_field_out_and_leaves_null() {
        let mut obj = Json::object([("a", Json::str("x")), ("b", Json::number(2))]);
        assert_eq!(obj.take("a").and_then(Json::into_string).as_deref(), Some("x"));
        assert_eq!(obj.get("a"), Some(&Json::Null));
        assert_eq!(obj.take("missing"), None);
        assert_eq!(Json::Null.take("a"), None);
        assert_eq!(Json::number(1).into_string(), None);
    }

    #[test]
    fn objects_preserve_key_order() {
        let obj = Json::object([("zebra", Json::number(1)), ("alpha", Json::Bool(false))]);
        assert_eq!(obj.emit(), "{\"zebra\":1,\"alpha\":false}");
        roundtrip(&obj);
        assert_eq!(obj.get("alpha"), Some(&Json::Bool(false)));
        assert_eq!(obj.get("missing"), None);
    }

    #[test]
    fn nested_structures_parse_with_whitespace() {
        let parsed = Json::parse(" { \"a\" : [ 1 , 2.5 , { \"b\" : null } ] } ").unwrap();
        let items = parsed.get("a").unwrap().as_array().unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].as_u64(), Some(1));
        assert_eq!(items[2].get("b"), Some(&Json::Null));
    }

    #[test]
    fn malformed_input_is_rejected() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1 2", "\"unterminated", "{'a':1}"] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
        assert_eq!(Json::parse("1 2").unwrap_err().to_string(), "trailing content at byte 2");
        assert_eq!(Json::parse("\"a\\q\"").unwrap_err().to_string(), "bad escape at byte 3");
        assert_eq!(
            Json::parse("\"ab").unwrap_err(),
            JsonError::Syntax("unterminated string".into())
        );
        assert_eq!(Json::parse("\"\\u12").unwrap_err().to_string(), "truncated unicode escape");
    }

    #[test]
    fn nesting_is_bounded_by_a_typed_error() {
        // A million brackets fail at the bracket past the limit, not at the
        // end of the line.
        let hostile = "[".repeat(1_000_000);
        assert_eq!(Json::parse(&hostile), Err(JsonError::TooDeep { pos: MAX_DEPTH }));
        let message = String::from(JsonError::TooDeep { pos: 7 });
        assert_eq!(message, format!("nesting deeper than {MAX_DEPTH} levels at byte 7"));
    }
}
