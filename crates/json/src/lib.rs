//! The workspace's one JSON grammar: a borrowing [`Lexer`] and the string
//! escaper [`push_str`].
//!
//! Two readers parse JSON in this workspace, and both read through the
//! lexer: the span codec in `xsp-trace` (span JSON, span-JSON-lines,
//! `xsp export --from`) and the vendored `serde_json` (daemon control
//! frames, `.xspc` metadata, bench summaries). Both writers escape strings
//! through [`push_str`]. So every JSON byte the workspace reads or escapes
//! follows one grammar. The crate has no dependencies; `serde_json`
//! re-exports [`Error`] as `serde_json::Error`.
//!
//! The lexer walks a `&str` in place. A string without escapes is borrowed
//! from the input, and an escaped one copies its runs of plain bytes in
//! one piece. Numbers are classified as the `serde_json` parser classifies
//! them ([`Number`]). [`Lexer::skip_value`] validates and skips a value of
//! any shape with an explicit stack, so nesting costs heap, not call
//! stack; a reader that builds a tree by recursion bounds its own depth.

#![warn(missing_docs)]

use std::borrow::Cow;
use std::fmt;

/// Error produced while reading JSON: malformed text, or valid JSON whose
/// shape does not match what the reader wanted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The input is not syntactically valid JSON. Carries a message and the
    /// byte offset the parser failed at.
    Syntax {
        /// Human-readable description of the problem.
        message: String,
        /// Byte offset in the input where parsing failed.
        offset: usize,
    },
    /// The JSON parsed, but its shape does not match the requested type.
    Data(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Syntax { message, offset } => {
                write!(f, "JSON syntax error at byte {offset}: {message}")
            }
            Error::Data(message) => write!(f, "JSON data error: {message}"),
        }
    }
}

impl std::error::Error for Error {}

/// A JSON number, classified as the `serde_json` parser classifies it: a
/// `u64` if its text parses as one, else an `i64`, else an `f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// An integer that fits a `u64`.
    PosInt(u64),
    /// A negative integer that fits an `i64`.
    NegInt(i64),
    /// A number with a fraction or an exponent, or an integer outside both
    /// ranges.
    Float(f64),
}

/// Appends `s` as a JSON string: `"`, `\` and control characters are
/// escaped, everything else (non-ASCII included) is copied verbatim.
pub fn push_str(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    out.push(b'"');
    let mut copied = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.extend_from_slice(&bytes[copied..i]);
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            _ => {
                let hex = [HEX[usize::from(b >> 4)], HEX[usize::from(b & 0xf)]];
                out.extend_from_slice(b"\\u00");
                out.extend_from_slice(&hex);
            }
        }
        copied = i + 1;
    }
    out.extend_from_slice(&bytes[copied..]);
    out.push(b'"');
}

/// A cursor over one JSON text. Each reading method consumes one token or
/// value at the cursor; the caller places JSON whitespace between them
/// with [`ws`](Self::ws). A clone is a saved position to rewind to.
#[derive(Debug, Clone)]
pub struct Lexer<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// Reads `text` as one JSON document: `value` reads the value, and only
    /// JSON whitespace may surround it.
    pub fn document<T>(
        text: &'a str,
        value: impl FnOnce(&mut Self) -> Result<T, Error>,
    ) -> Result<T, Error> {
        let mut lexer = Self { text, pos: 0 };
        lexer.ws();
        let parsed = value(&mut lexer)?;
        lexer.ws();
        if lexer.pos == text.len() {
            Ok(parsed)
        } else {
            Err(lexer.syntax("trailing characters after JSON value"))
        }
    }

    /// A syntax error at the cursor.
    pub fn syntax(&self, message: &str) -> Error {
        Error::Syntax {
            message: message.to_owned(),
            offset: self.pos,
        }
    }

    /// The byte at the cursor, if any.
    #[inline]
    pub fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Skips JSON whitespace.
    #[inline]
    pub fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `byte`, or fails without moving.
    #[inline]
    pub fn eat(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.syntax(&format!("expected `{}`", byte as char)))
        }
    }

    /// Consumes `word` if the input continues with it.
    pub fn eat_word(&mut self, word: &str) -> bool {
        let found = self
            .text
            .as_bytes()
            .get(self.pos..)
            .is_some_and(|rest| rest.starts_with(word.as_bytes()));
        if found {
            self.pos += word.len();
        }
        found
    }

    /// Consumes `word` (a literal such as `null`), or fails.
    pub fn word(&mut self, word: &str) -> Result<(), Error> {
        if self.eat_word(word) {
            Ok(())
        } else {
            Err(self.syntax(&format!("expected `{word}`")))
        }
    }

    /// Walks one object, handing each key (escapes decoded) to `member`
    /// with the cursor at the member's value; `member` consumes the value.
    #[inline]
    pub fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.eat(b'{')?;
        self.ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.eat(b':')?;
            self.ws();
            member(self, key)?;
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.syntax("expected `,` or `}` in object")),
            }
        }
    }

    /// Walks one array, calling `item` with the cursor at each element;
    /// `item` consumes the element.
    #[inline]
    pub fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.eat(b'[')?;
        self.ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.ws();
            item(self)?;
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.syntax("expected `,` or `]` in array")),
            }
        }
    }

    /// A number; anything that does not start like one is a
    /// [`Error::Data`] mismatch, so a caller can tell a value of another
    /// shape from a malformed number.
    #[inline]
    pub fn number(&mut self) -> Result<Number, Error> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(Error::Data("expected a number".to_owned()));
        }
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // RFC 8259: an integer part is one `0` or starts with `1`-`9`, and
        // a `.` must be followed by a digit.
        let int_start = self.pos;
        self.digits();
        if self.pos - int_start > 1 && self.text.as_bytes()[int_start] == b'0' {
            return Err(self.syntax("invalid number"));
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            let frac_start = self.pos;
            self.digits();
            if self.pos == frac_start {
                return Err(self.syntax("invalid number"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits();
        }
        let text = self.slice(start, self.pos)?;
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Number::PosInt(v));
            }
            // `-0` is the float -0.0, as `serde_json` reads it.
            match text.parse::<i64>() {
                Ok(0) => return Ok(Number::Float(-0.0)),
                Ok(v) => return Ok(Number::NegInt(v)),
                Err(_) => {}
            }
        }
        text.parse::<f64>()
            .map(Number::Float)
            .map_err(|_| self.syntax("invalid number"))
    }

    /// A string, borrowed from the input unless it holds escapes.
    #[inline]
    pub fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.eat(b'"')?;
        let start = self.pos;
        loop {
            match self.peek() {
                None => return Err(self.syntax("unterminated string")),
                Some(b'"') => {
                    let s = self.slice(start, self.pos)?;
                    self.pos += 1;
                    return Ok(Cow::Borrowed(s));
                }
                Some(b'\\') => break,
                Some(_) => self.pos += 1,
            }
        }
        let mut out = self.slice(start, self.pos)?.to_owned();
        loop {
            match self.peek() {
                None => return Err(self.syntax("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| self.syntax("unterminated escape"))?;
                    self.pos += 1;
                    out.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        _ => return Err(self.syntax("invalid escape character")),
                    });
                }
                Some(_) => {
                    let run = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(self.slice(run, self.pos)?);
                }
            }
        }
    }

    /// Skips one JSON value of any shape, validating it as the readers do.
    /// Open containers live on an explicit stack of closing bytes, so
    /// nesting depth costs heap, not call stack.
    pub fn skip_value(&mut self) -> Result<(), Error> {
        let mut open: Vec<u8> = Vec::new();
        loop {
            // One value: a scalar, or the start of a non-empty container.
            match self.peek() {
                Some(b'[' | b'{') => {
                    let close = if self.peek() == Some(b'[') {
                        b']'
                    } else {
                        b'}'
                    };
                    self.pos += 1;
                    self.ws();
                    if self.peek() == Some(close) {
                        self.pos += 1;
                    } else {
                        open.push(close);
                        if close == b'}' {
                            self.key()?;
                        } else {
                            self.ws();
                        }
                        continue;
                    }
                }
                Some(b'"') => {
                    self.string()?;
                }
                Some(b'n') => self.word("null")?,
                Some(b't') => self.word("true")?,
                Some(b'f') => self.word("false")?,
                Some(b'-' | b'0'..=b'9') => {
                    self.number()?;
                }
                Some(_) => return Err(self.syntax("unexpected character")),
                None => return Err(self.syntax("unexpected end of input")),
            }
            // Close every container the value completes, up to the next
            // element.
            loop {
                let Some(&close) = open.last() else {
                    return Ok(());
                };
                self.ws();
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                        if close == b'}' {
                            self.key()?;
                        } else {
                            self.ws();
                        }
                        break;
                    }
                    Some(b) if b == close => {
                        self.pos += 1;
                        open.pop();
                    }
                    _ if close == b'}' => {
                        return Err(self.syntax("expected `,` or `}` in object"));
                    }
                    _ => return Err(self.syntax("expected `,` or `]` in array")),
                }
            }
        }
    }

    /// An object key and its colon, leaving the cursor at the value.
    fn key(&mut self) -> Result<(), Error> {
        self.ws();
        self.string()?;
        self.ws();
        self.eat(b':')?;
        self.ws();
        Ok(())
    }

    #[inline]
    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    /// The text between two positions that sit next to ASCII bytes, which
    /// are always character boundaries.
    #[inline]
    fn slice(&self, from: usize, to: usize) -> Result<&'a str, Error> {
        self.text
            .get(from..to)
            .ok_or_else(|| self.syntax("string splits a UTF-8 character"))
    }

    /// The character of a `\u` escape (the `\u` already consumed), joining
    /// a surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            if self.peek() != Some(b'\\') {
                return Err(self.syntax("lone high surrogate"));
            }
            self.pos += 1;
            self.eat(b'u')?;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.syntax("invalid low surrogate"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| self.syntax("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let hex = self
            .text
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.syntax("truncated \\u escape"))?;
        // Exactly four hex digits: no sign, no other character.
        if !hex.iter().all(u8::is_ascii_hexdigit) {
            return Err(self.syntax("invalid \\u escape"));
        }
        let code = hex.iter().fold(0, |code, &b| {
            code << 4 | (b as char).to_digit(16).expect("a hex digit")
        });
        self.pos += 4;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn string(text: &str) -> Result<Cow<'_, str>, Error> {
        Lexer::document(text, Lexer::string)
    }

    fn number(text: &str) -> Result<Number, Error> {
        Lexer::document(text, Lexer::number)
    }

    #[test]
    fn strings_borrow_unless_escaped_and_join_surrogate_pairs() {
        assert!(matches!(
            string(r#""plain ⟨é⟩""#),
            Ok(Cow::Borrowed("plain ⟨é⟩"))
        ));
        let escaped = string(r#""a\"b\\c\/d\b\f\n\r\té😀 tail""#).unwrap();
        assert!(matches!(escaped, Cow::Owned(_)));
        assert_eq!(escaped, "a\"b\\c/d\u{8}\u{c}\n\r\té😀 tail");
        for (bad, message) in [
            (r#""\ud83d""#, "lone high surrogate"),
            (r#""\ud83dA""#, "lone high surrogate"),
            (r#""\ud83d\u0041""#, "invalid low surrogate"),
            (r#""\udc00""#, "invalid unicode escape"),
            (r#""\u12""#, "truncated \\u escape"),
            (r#""\u+041""#, "invalid \\u escape"),
            (r#""\q""#, "invalid escape character"),
            (r#""open"#, "unterminated string"),
        ] {
            match string(bad) {
                Err(Error::Syntax { message: got, .. }) => assert_eq!(got, message, "{bad}"),
                other => panic!("{bad} read as {other:?}"),
            }
        }
    }

    #[test]
    fn numbers_classify_as_serde_json_does() {
        for (text, want) in [
            ("0", Number::PosInt(0)),
            ("18446744073709551615", Number::PosInt(u64::MAX)),
            (
                "18446744073709551616",
                Number::Float(18446744073709551616.0),
            ),
            ("-1", Number::NegInt(-1)),
            ("-9223372036854775808", Number::NegInt(i64::MIN)),
            (
                "-9223372036854775809",
                Number::Float(-9223372036854775809.0),
            ),
            ("1.0", Number::Float(1.0)),
            ("-2.5E-3", Number::Float(-0.0025)),
            ("1e300", Number::Float(1e300)),
        ] {
            assert_eq!(number(text), Ok(want), "{text}");
        }
        assert_eq!(
            number("\"7\""),
            Err(Error::Data("expected a number".to_owned()))
        );
        assert!(matches!(number("-"), Err(Error::Syntax { .. })));
        assert!(matches!(number("1e"), Err(Error::Syntax { .. })));
        // RFC 8259 refuses a leading zero before a digit and a fraction
        // without digits, as `serde_json` does.
        for bad in ["01", "-01", "00.5", "1.", "1.e5"] {
            assert!(
                matches!(number(bad), Err(Error::Syntax { ref message, .. }) if message == "invalid number"),
                "{bad} read as {:?}",
                number(bad)
            );
        }
        assert_eq!(number("0.5"), Ok(Number::Float(0.5)));
        assert_eq!(number("-0.5"), Ok(Number::Float(-0.5)));
        // `-0` is the float -0.0: its sign survives.
        match number("-0") {
            Ok(Number::Float(v)) => assert!(v == 0.0 && v.is_sign_negative(), "{v}"),
            other => panic!("-0 read as {other:?}"),
        }
    }

    #[test]
    fn skip_value_walks_any_depth_without_recursing() {
        let depth = 100_000;
        let deep = format!("{}null{}", "[{\"k\":".repeat(depth), "}]".repeat(depth));
        assert_eq!(Lexer::document(&deep, Lexer::skip_value), Ok(()));
        for cut in [1, deep.len() / 2, deep.len() - 1] {
            assert!(Lexer::document(&deep[..cut], Lexer::skip_value).is_err());
        }
        assert!(Lexer::document("[1,]", Lexer::skip_value).is_err());
        assert!(Lexer::document("{\"a\" 1}", Lexer::skip_value).is_err());
    }

    #[test]
    fn push_str_escapes_quotes_backslashes_and_control_bytes() {
        let mut out = Vec::new();
        push_str(&mut out, "q\"b\\n\nr\rt\t\u{0}\u{1f}\u{7f}é😀");
        assert_eq!(
            out,
            "\"q\\\"b\\\\n\\nr\\rt\\t\\u0000\\u001f\u{7f}é😀\"".as_bytes()
        );
        assert_eq!(
            string(std::str::from_utf8(&out).unwrap()).unwrap(),
            "q\"b\\n\nr\rt\t\u{0}\u{1f}\u{7f}é😀"
        );
    }
}
