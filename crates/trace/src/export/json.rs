//! The direct span JSON codec: span objects and Chrome trace events are
//! encoded straight into a byte buffer, and span objects are decoded
//! straight from text into [`Span`], with no `serde_json::Value` tree in
//! either direction.
//!
//! The encoders write exactly the bytes the vendored `serde_json` wrote
//! for the derived `Serialize` impls: fields in declaration order,
//! externally tagged enums (`"level":"Kernel"`, `{"U64":7}`), integral
//! floats with a `.0`, non-finite floats as `null`, and `serde_json`'s
//! string escapes. The Chrome encoder reproduces the `args` object that
//! `serde_json::Map::insert` built: a repeated key keeps its first
//! position and takes its last value.
//!
//! The parser accepts exactly what `serde_json::from_str::<Span>`
//! accepted: keys in any order, JSON whitespace, unknown keys with any
//! nested value, a missing `parent`, and repeated keys, where the last one
//! wins (an earlier duplicate need only be valid JSON). Unknown values are
//! skipped with an explicit stack, so hostile nesting cannot overflow the
//! call stack. The goldens and the reference proptests in
//! `tests/proptests.rs` pin both directions against `serde_json`.

use crate::span::{tag_keys, LogEvent, Span, SpanId, StackLevel, TagKey, TagValue, TraceId};
use serde_json::Error;
use std::borrow::Cow;
use std::io::Write as _;

/// `StackLevel`'s serde variant names, indexed by [`StackLevel::rank`].
const LEVEL_VARIANTS: [&str; 5] = ["Application", "Model", "Layer", "Library", "Kernel"];

/// Appends `span` as one span-JSON object, under run `trace_id` and over
/// `[start_ns, end_ns]` (the span's own values, or a serving step's).
pub(crate) fn push_span(
    out: &mut Vec<u8>,
    span: &Span,
    trace_id: TraceId,
    start_ns: u64,
    end_ns: u64,
) {
    out.extend_from_slice(b"{\"id\":");
    push_u64(out, span.id.0);
    out.extend_from_slice(b",\"trace_id\":");
    push_u64(out, trace_id.0);
    out.extend_from_slice(b",\"name\":");
    push_str(out, &span.name);
    out.extend_from_slice(b",\"level\":\"");
    out.extend_from_slice(LEVEL_VARIANTS[span.level.rank() as usize].as_bytes());
    out.extend_from_slice(b"\",\"start_ns\":");
    push_u64(out, start_ns);
    out.extend_from_slice(b",\"end_ns\":");
    push_u64(out, end_ns);
    out.extend_from_slice(b",\"parent\":");
    match span.parent {
        Some(p) => push_u64(out, p.0),
        None => out.extend_from_slice(b"null"),
    }
    out.extend_from_slice(b",\"tags\":[");
    for (i, (key, value)) in span.tags.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.push(b'[');
        push_str(out, key);
        out.extend_from_slice(b",{\"");
        out.extend_from_slice(match value {
            TagValue::Str(_) => b"Str",
            TagValue::I64(_) => b"I64",
            TagValue::U64(_) => b"U64",
            TagValue::F64(_) => b"F64",
            TagValue::Bool(_) => b"Bool",
        });
        out.extend_from_slice(b"\":");
        push_tag_value(out, value);
        out.extend_from_slice(b"}]");
    }
    out.extend_from_slice(b"],\"logs\":[");
    for (i, log) in span.logs.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.extend_from_slice(b"{\"at_ns\":");
        push_u64(out, log.at_ns);
        out.extend_from_slice(b",\"message\":");
        push_str(out, &log.message);
        out.push(b'}');
    }
    out.extend_from_slice(b"]}");
}

/// One member of a Chrome event's `args` object.
#[derive(Clone, Copy)]
enum Arg<'a> {
    Id(u64),
    Tag(&'a TagValue),
}

/// Appends `span` as one Chrome "X" (complete) event: microsecond
/// timestamps, the trace as the process row and the stack level as the
/// thread row; `args` holds `span_id`, `parent` when known, then the tags.
/// The run and interval are passed as for [`push_span`].
pub(crate) fn push_chrome_event(
    out: &mut Vec<u8>,
    span: &Span,
    trace_id: TraceId,
    start_ns: u64,
    end_ns: u64,
) {
    out.extend_from_slice(b"{\"name\":");
    push_str(out, &span.name);
    out.extend_from_slice(b",\"cat\":\"");
    write!(out, "{}", span.level).expect("Vec writes cannot fail");
    out.extend_from_slice(b"\",\"ph\":\"X\",\"ts\":");
    push_f64(out, start_ns as f64 / 1e3);
    out.extend_from_slice(b",\"dur\":");
    push_f64(out, (end_ns - start_ns) as f64 / 1e3);
    out.extend_from_slice(b",\"pid\":");
    push_u64(out, trace_id.0);
    out.extend_from_slice(b",\"tid\":");
    push_u64(out, u64::from(span.level.rank()));
    out.extend_from_slice(b",\"args\":{");
    let head = [
        ("span_id", Some(span.id.0)),
        ("parent", span.parent.map(|p| p.0)),
    ];
    let args = head
        .into_iter()
        .filter_map(|(key, id)| id.map(|id| (key, Arg::Id(id))))
        .chain(span.tags.iter().map(|(key, v)| (&**key, Arg::Tag(v))));
    let mut first = true;
    for (i, (key, own)) in args.clone().enumerate() {
        // Map::insert semantics: the first occurrence fixes the position,
        // the last one supplies the value.
        if args.clone().take(i).any(|(k, _)| k == key) {
            continue;
        }
        let value = args
            .clone()
            .skip(i + 1)
            .filter(|&(k, _)| k == key)
            .last()
            .map_or(own, |(_, v)| v);
        if !first {
            out.push(b',');
        }
        first = false;
        push_str(out, key);
        out.push(b':');
        match value {
            Arg::Id(id) => push_u64(out, id),
            Arg::Tag(v) => push_tag_value(out, v),
        }
    }
    out.extend_from_slice(b"}}");
}

/// Appends a tag's bare JSON value (no variant wrapper).
fn push_tag_value(out: &mut Vec<u8>, value: &TagValue) {
    match value {
        TagValue::Str(s) => push_str(out, s),
        TagValue::I64(v) => {
            if *v < 0 {
                out.push(b'-');
            }
            push_u64(out, v.unsigned_abs());
        }
        TagValue::U64(v) => push_u64(out, *v),
        TagValue::F64(v) => push_f64(out, *v),
        TagValue::Bool(true) => out.extend_from_slice(b"true"),
        TagValue::Bool(false) => out.extend_from_slice(b"false"),
    }
}

fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Rust's shortest round-trip spelling, with a `.0` added so an integral
/// float stays a float on re-parse; JSON has no NaN or infinity, so those
/// become `null`.
fn push_f64(out: &mut Vec<u8>, v: f64) {
    if !v.is_finite() {
        out.extend_from_slice(b"null");
        return;
    }
    let start = out.len();
    write!(out, "{v}").expect("Vec writes cannot fail");
    if !out[start..].iter().any(|b| matches!(b, b'.' | b'e' | b'E')) {
        out.extend_from_slice(b".0");
    }
}

/// Appends `s` as a JSON string: `"`, `\` and control characters are
/// escaped, everything else (non-ASCII included) is copied verbatim.
fn push_str(out: &mut Vec<u8>, s: &str) {
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

/// Parses one span object, with optional JSON whitespace around it.
pub(crate) fn parse_span(text: &str) -> Result<Span, Error> {
    let mut p = Parser::new(text);
    p.ws();
    let span = p.span()?;
    p.end()?;
    Ok(span)
}

/// Parses a JSON array of span objects.
pub(crate) fn parse_span_array(text: &str) -> Result<Vec<Span>, Error> {
    let mut p = Parser::new(text);
    p.ws();
    let mut spans = Vec::new();
    p.array(|p| {
        spans.push(p.span()?);
        Ok(())
    })?;
    p.end()?;
    Ok(spans)
}

/// The error for input bytes that are not UTF-8.
pub(crate) fn utf8_error(e: std::str::Utf8Error) -> Error {
    Error::Syntax {
        message: "invalid UTF-8".to_owned(),
        offset: e.valid_up_to(),
    }
}

/// A JSON number as the `serde_json` parser classified it.
enum Number {
    Pos(u64),
    Neg(i64),
    Float(f64),
}

/// Per-key state of one object member: absent, or the last occurrence's
/// value — `Err` when that value was valid JSON of the wrong shape.
type Slot<T> = Option<Result<T, Error>>;

/// The value of a required member.
fn required<T>(slot: Slot<T>, what: &str) -> Result<T, Error> {
    slot.unwrap_or_else(|| Err(Error::Data(format!("{what}: missing field"))))
}

fn mismatch(what: &str) -> Error {
    Error::Data(format!("expected {what}"))
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn syntax(&self, message: &str) -> Error {
        Error::Syntax {
            message: message.to_owned(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.syntax(&format!("expected `{}`", byte as char)))
        }
    }

    fn eat_word(&mut self, word: &str) -> bool {
        let found = self
            .bytes
            .get(self.pos..)
            .is_some_and(|rest| rest.starts_with(word.as_bytes()));
        if found {
            self.pos += word.len();
        }
        found
    }

    fn end(&mut self) -> Result<(), Error> {
        self.ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.syntax("trailing characters after JSON value"))
        }
    }

    /// The text between two positions that sit next to ASCII bytes, which
    /// are always character boundaries.
    fn slice(&self, from: usize, to: usize) -> Result<&'a str, Error> {
        self.text
            .get(from..to)
            .ok_or_else(|| self.syntax("string splits a UTF-8 character"))
    }

    /// Walks one object, handing each key (escapes decoded) to `member`
    /// with the parser standing at the member's value; `member` consumes
    /// the value.
    fn object(
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

    /// Walks one array, calling `item` with the parser at each element.
    fn array(&mut self, mut item: impl FnMut(&mut Self) -> Result<(), Error>) -> Result<(), Error> {
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

    /// Parses a member's value with `parse`. If that fails, the value is
    /// re-read as plain JSON: malformed JSON fails the whole document,
    /// while valid JSON of the wrong shape becomes an `Err` slot that a
    /// later repeated key may still replace.
    fn field<T>(
        &mut self,
        what: &str,
        parse: impl FnOnce(&mut Self) -> Result<T, Error>,
    ) -> Result<Slot<T>, Error> {
        let start = self.pos;
        match parse(self) {
            Ok(v) => Ok(Some(Ok(v))),
            Err(e) => {
                self.pos = start;
                self.skip_value()?;
                let detail = match e {
                    Error::Syntax { message, .. } | Error::Data(message) => message,
                };
                Ok(Some(Err(Error::Data(format!("{what}: {detail}")))))
            }
        }
    }

    fn span(&mut self) -> Result<Span, Error> {
        let (mut id, mut trace_id, mut name, mut level) = (None, None, None, None);
        let (mut start_ns, mut end_ns, mut parent) = (None, None, None);
        let (mut tags, mut logs) = (None, None);
        self.object(|p, key| {
            match &*key {
                "id" => id = p.field("Span.id", Self::u64)?,
                "trace_id" => trace_id = p.field("Span.trace_id", Self::u64)?,
                "name" => name = p.field("Span.name", Self::owned_string)?,
                "level" => level = p.field("Span.level", Self::level)?,
                "start_ns" => start_ns = p.field("Span.start_ns", Self::u64)?,
                "end_ns" => end_ns = p.field("Span.end_ns", Self::u64)?,
                "parent" => parent = p.field("Span.parent", Self::parent)?,
                "tags" => tags = p.field("Span.tags", Self::tags)?,
                "logs" => logs = p.field("Span.logs", Self::logs)?,
                _ => p.skip_value()?,
            }
            Ok(())
        })?;
        let span = Span {
            id: SpanId(required(id, "Span.id")?),
            trace_id: TraceId(required(trace_id, "Span.trace_id")?),
            name: required(name, "Span.name")?,
            level: required(level, "Span.level")?,
            start_ns: required(start_ns, "Span.start_ns")?,
            end_ns: required(end_ns, "Span.end_ns")?,
            parent: parent.transpose()?.flatten(),
            tags: required(tags, "Span.tags")?,
            logs: required(logs, "Span.logs")?,
        };
        // Every duration downstream is `end - start`; a span that ends
        // before it starts (a corrupted or hand-edited timestamp) is
        // refused here.
        if span.end_ns < span.start_ns {
            return Err(Error::Data(format!(
                "Span.end_ns {} is before Span.start_ns {}",
                span.end_ns, span.start_ns
            )));
        }
        Ok(span)
    }

    fn parent(&mut self) -> Result<Option<SpanId>, Error> {
        if self.eat_word("null") {
            Ok(None)
        } else {
            self.u64().map(|id| Some(SpanId(id)))
        }
    }

    fn level(&mut self) -> Result<StackLevel, Error> {
        let name = self.string()?;
        LEVEL_VARIANTS
            .iter()
            .position(|v| *v == name)
            .map(|rank| StackLevel::ALL[rank])
            .ok_or_else(|| Error::Data(format!("unknown StackLevel variant {name:?}")))
    }

    /// The tag list; each key is read borrowed from the input and goes
    /// through [`tag_keys::resolve`], so a well-known key allocates nothing.
    fn tags(&mut self) -> Result<Vec<(TagKey, TagValue)>, Error> {
        let mut tags = Vec::new();
        self.array(|p| {
            p.eat(b'[')?;
            p.ws();
            let key = tag_keys::resolve(p.string()?);
            p.ws();
            p.eat(b',')?;
            p.ws();
            let value = p.tag_value()?;
            p.ws();
            p.eat(b']')?;
            tags.push((key, value));
            Ok(())
        })?;
        Ok(tags)
    }

    /// An externally tagged `TagValue`: an object with exactly one
    /// distinct key naming the variant.
    fn tag_value(&mut self) -> Result<TagValue, Error> {
        let mut variant: Option<(Cow<'a, str>, Slot<TagValue>)> = None;
        self.object(|p, key| {
            if matches!(&variant, Some((seen, _)) if *seen != key) {
                return Err(mismatch("a single TagValue variant key"));
            }
            let value = p.field("TagValue", |p| match &*key {
                "Str" => p.owned_string().map(TagValue::from),
                "I64" => match p.number()? {
                    Number::Pos(v) => i64::try_from(v)
                        .map(TagValue::I64)
                        .map_err(|_| mismatch("an i64")),
                    Number::Neg(v) => Ok(TagValue::I64(v)),
                    Number::Float(_) => Err(mismatch("an i64")),
                },
                "U64" => p.u64().map(TagValue::U64),
                "F64" => match p.number()? {
                    Number::Pos(v) => Ok(TagValue::F64(v as f64)),
                    Number::Neg(v) => Ok(TagValue::F64(v as f64)),
                    Number::Float(v) => Ok(TagValue::F64(v)),
                },
                "Bool" => {
                    if p.eat_word("true") {
                        Ok(TagValue::Bool(true))
                    } else if p.eat_word("false") {
                        Ok(TagValue::Bool(false))
                    } else {
                        Err(mismatch("a bool"))
                    }
                }
                other => Err(Error::Data(format!("unknown TagValue variant {other:?}"))),
            })?;
            variant = Some((key, value));
            Ok(())
        })?;
        required(variant.and_then(|(_, value)| value), "TagValue")
    }

    fn logs(&mut self) -> Result<Vec<LogEvent>, Error> {
        let mut logs = Vec::new();
        self.array(|p| {
            let (mut at_ns, mut message) = (None, None);
            p.object(|p, key| {
                match &*key {
                    "at_ns" => at_ns = p.field("LogEvent.at_ns", Self::u64)?,
                    "message" => message = p.field("LogEvent.message", Self::owned_string)?,
                    _ => p.skip_value()?,
                }
                Ok(())
            })?;
            logs.push(LogEvent {
                at_ns: required(at_ns, "LogEvent.at_ns")?,
                message: required(message, "LogEvent.message")?,
            });
            Ok(())
        })?;
        Ok(logs)
    }

    fn u64(&mut self) -> Result<u64, Error> {
        match self.number()? {
            Number::Pos(v) => Ok(v),
            _ => Err(mismatch("a u64")),
        }
    }

    /// A number, scanned and classified as the `serde_json` parser did:
    /// a `u64` if it parses as one, else an `i64`, else an `f64`.
    fn number(&mut self) -> Result<Number, Error> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(mismatch("a number"));
        }
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.digits();
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            self.digits();
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
                return Ok(Number::Pos(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Number::Neg(v));
            }
        }
        text.parse::<f64>()
            .map(Number::Float)
            .map_err(|_| self.syntax("invalid number"))
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    fn owned_string(&mut self) -> Result<String, Error> {
        self.string().map(Cow::into_owned)
    }

    /// A string, borrowed from the input unless it holds escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, Error> {
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

    /// The character of a `\u` escape (the `\u` already consumed),
    /// joining a surrogate pair.
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
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.syntax("truncated \\u escape"))?;
        let hex = std::str::from_utf8(hex).map_err(|_| self.syntax("non-ASCII in \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.syntax("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// Skips one JSON value of any shape, validating it as the
    /// `serde_json` parser did. Open containers live on an explicit stack
    /// of closing bytes, so nesting depth costs heap, not call stack.
    fn skip_value(&mut self) -> Result<(), Error> {
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

    /// An object key and its colon, leaving the parser at the value.
    fn key(&mut self) -> Result<(), Error> {
        self.ws();
        self.string()?;
        self.ws();
        self.eat(b':')?;
        self.ws();
        Ok(())
    }

    fn word(&mut self, word: &str) -> Result<(), Error> {
        if self.eat_word(word) {
            Ok(())
        } else {
            Err(self.syntax(&format!("expected `{word}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_keys_let_a_valid_value_replace_a_mistyped_one() {
        let line = r#"{"id":"x","trace_id":1,"name":"n","level":"Model","start_ns":0,
            "end_ns":1,"tags":[["t",{"U64":"no","U64":3}]],"logs":[],"id":7}"#;
        let span = parse_span(line).unwrap();
        assert_eq!(span.id, SpanId(7));
        assert_eq!(span.tags, vec![("t".into(), TagValue::U64(3))]);
    }

    #[test]
    fn deep_unknown_values_do_not_recurse() {
        let depth = 100_000;
        let line = format!(
            r#"{{"x":{}{},"id":1,"trace_id":1,"name":"n","level":"Model","start_ns":0,"end_ns":1,"tags":[],"logs":[]}}"#,
            "[".repeat(depth),
            "]".repeat(depth)
        );
        assert_eq!(parse_span(&line).unwrap().id, SpanId(1));
        assert!(parse_span(&line[..line.len() / 2]).is_err());
    }
}
