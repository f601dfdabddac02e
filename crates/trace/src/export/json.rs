//! The direct span JSON codec: span objects and Chrome trace events are
//! encoded straight into a byte buffer from any [`SpanFields`] view, and
//! span objects are decoded straight from text, with no `serde_json::Value`
//! tree in either direction. The decoder reads a span's fixed fields into
//! a [`SpanHead`] and its tags and logs into a [`Parts`], with strings
//! borrowed from the input unless escaped: [`parse_span`] makes an owned
//! [`Span`] of them, and a store ingest interns them from lists it reuses
//! from line to line.
//!
//! The encoders write exactly the bytes the vendored `serde_json` wrote
//! for the derived `Serialize` impls: fields in declaration order,
//! externally tagged enums (`"level":"Kernel"`, `{"U64":7}`), integral
//! floats with a `.0`, non-finite floats as `null`, and `serde_json`'s
//! string escapes. The Chrome encoder reproduces the `args` object that
//! `serde_json::Map::insert` built: a repeated key keeps its first
//! position and takes its last value.
//!
//! The JSON grammar itself is not here: the decoder reads through
//! `xsp-json`'s shared [`Lexer`], the one the vendored `serde_json` reads
//! through, and strings are escaped by the same [`push_str`]. This module
//! keeps only the span-object layer: which fields a span has, repeated
//! keys, and the tag variants. It accepts exactly what
//! `serde_json::from_str::<Span>` accepts: keys in any order, unknown keys
//! with any nested value, a missing `parent`, and repeated keys, where the
//! last one wins (an earlier duplicate need only be valid JSON). Unknown
//! values are skipped without recursion and at any depth, so hostile
//! nesting cannot overflow the call stack (the vendored `serde_json`
//! builds a tree and stops at its recursion limit even there; the real
//! crate skips them as this codec does). With the grammar shared, what the
//! goldens and the reference proptests in `tests/proptests.rs` still pin
//! is this span-object layer and the number spellings, in both
//! directions, against `serde_json`'s derived `Span` impl.

use crate::span::{
    tag_keys, LogEvent, Span, SpanFields, SpanId, StackLevel, TagKey, TagValue, TraceId,
};
use crate::store::TagRef;
use std::borrow::Cow;
use std::io::Write as _;
use xsp_json::{push_str, Error, Lexer, Number};

/// `StackLevel`'s serde variant names, indexed by [`StackLevel::rank`].
const LEVEL_VARIANTS: [&str; 5] = ["Application", "Model", "Layer", "Library", "Kernel"];

/// Appends `span` as one span-JSON object.
pub(crate) fn push_span(out: &mut Vec<u8>, span: &impl SpanFields) {
    out.extend_from_slice(b"{\"id\":");
    push_u64(out, span.id().0);
    out.extend_from_slice(b",\"trace_id\":");
    push_u64(out, span.trace_id().0);
    out.extend_from_slice(b",\"name\":");
    push_str(out, span.name());
    out.extend_from_slice(b",\"level\":\"");
    out.extend_from_slice(LEVEL_VARIANTS[span.level().rank() as usize].as_bytes());
    out.extend_from_slice(b"\",\"start_ns\":");
    push_u64(out, span.start_ns());
    out.extend_from_slice(b",\"end_ns\":");
    push_u64(out, span.end_ns());
    out.extend_from_slice(b",\"parent\":");
    match span.parent() {
        Some(p) => push_u64(out, p.0),
        None => out.extend_from_slice(b"null"),
    }
    out.extend_from_slice(b",\"tags\":[");
    for (i, (key, value)) in span.tags().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.push(b'[');
        push_str(out, key);
        out.extend_from_slice(b",{\"");
        out.extend_from_slice(match value {
            TagRef::Str(_) => b"Str",
            TagRef::I64(_) => b"I64",
            TagRef::U64(_) => b"U64",
            TagRef::F64(_) => b"F64",
            TagRef::Bool(_) => b"Bool",
        });
        out.extend_from_slice(b"\":");
        push_tag_value(out, value);
        out.extend_from_slice(b"}]");
    }
    out.extend_from_slice(b"],\"logs\":[");
    for (i, (at_ns, message)) in span.logs().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.extend_from_slice(b"{\"at_ns\":");
        push_u64(out, at_ns);
        out.extend_from_slice(b",\"message\":");
        push_str(out, message);
        out.push(b'}');
    }
    out.extend_from_slice(b"]}");
}

/// One member of a Chrome event's `args` object.
#[derive(Clone, Copy)]
enum Arg<'a> {
    Id(u64),
    Tag(TagRef<'a>),
}

/// Appends `span` as one Chrome "X" (complete) event: microsecond
/// timestamps, the trace as the process row and the stack level as the
/// thread row; `args` holds `span_id`, `parent` when known, then the tags.
pub(crate) fn push_chrome_event(out: &mut Vec<u8>, span: &impl SpanFields) {
    out.extend_from_slice(b"{\"name\":");
    push_str(out, span.name());
    out.extend_from_slice(b",\"cat\":\"");
    out.extend_from_slice(span.level().label().as_bytes());
    out.extend_from_slice(b"\",\"ph\":\"X\",\"ts\":");
    push_us(out, span.start_ns());
    out.extend_from_slice(b",\"dur\":");
    push_us(out, span.end_ns() - span.start_ns());
    out.extend_from_slice(b",\"pid\":");
    push_u64(out, span.trace_id().0);
    out.extend_from_slice(b",\"tid\":");
    push_u64(out, u64::from(span.level().rank()));
    out.extend_from_slice(b",\"args\":{");
    let tags = span.tags();
    let distinct = tags.clone().enumerate().all(|(i, (key, _))| {
        key != "span_id" && key != "parent" && !tags.clone().take(i).any(|(k, _)| k == key)
    });
    if distinct {
        // No member repeats: every member in order, in one pass.
        out.extend_from_slice(b"\"span_id\":");
        push_u64(out, span.id().0);
        if let Some(parent) = span.parent() {
            out.extend_from_slice(b",\"parent\":");
            push_u64(out, parent.0);
        }
        for (key, value) in tags {
            out.push(b',');
            push_str(out, key);
            out.push(b':');
            push_tag_value(out, value);
        }
        out.extend_from_slice(b"}}");
        return;
    }
    let head = [
        ("span_id", Some(span.id().0)),
        ("parent", span.parent().map(|p| p.0)),
    ];
    let args = head
        .into_iter()
        .filter_map(|(key, id)| id.map(|id| (key, Arg::Id(id))))
        .chain(tags.map(|(key, v)| (key, Arg::Tag(v))));
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
fn push_tag_value(out: &mut Vec<u8>, value: TagRef<'_>) {
    match value {
        TagRef::Str(s) => push_str(out, s),
        TagRef::I64(v) => {
            if v < 0 {
                out.push(b'-');
            }
            push_u64(out, v.unsigned_abs());
        }
        TagRef::U64(v) => push_u64(out, v),
        TagRef::F64(v) => push_f64(out, v),
        TagRef::Bool(true) => out.extend_from_slice(b"true"),
        TagRef::Bool(false) => out.extend_from_slice(b"false"),
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

/// Appends `ns` nanoseconds in microseconds, exactly as
/// `push_f64(ns as f64 / 1e3)` spells them. Below 10^15 the quotient is a
/// decimal of at most 15 significant digits, which is the shortest
/// spelling of its nearest `f64`: the whole microseconds, then the
/// nanoseconds' digits with trailing zeros trimmed (`.0` when integral).
/// Larger values take the float path.
fn push_us(out: &mut Vec<u8>, ns: u64) {
    if ns >= 1_000_000_000_000_000 {
        push_f64(out, ns as f64 / 1e3);
        return;
    }
    push_u64(out, ns / 1_000);
    let frac = ns % 1_000;
    let digits = [
        b'.',
        b'0' + (frac / 100) as u8,
        b'0' + (frac / 10 % 10) as u8,
        b'0' + (frac % 10) as u8,
    ];
    let len = if frac % 100 == 0 {
        2
    } else if frac % 10 == 0 {
        3
    } else {
        4
    };
    out.extend_from_slice(&digits[..len]);
}

/// A span object's fixed fields as parsed; the name is borrowed from the
/// input unless it holds escapes. Its tags and logs went to a [`Parts`].
pub(crate) struct SpanHead<'a> {
    pub(crate) id: SpanId,
    pub(crate) trace_id: TraceId,
    pub(crate) name: Cow<'a, str>,
    pub(crate) level: StackLevel,
    pub(crate) start_ns: u64,
    pub(crate) end_ns: u64,
    pub(crate) parent: Option<SpanId>,
}

/// A tag value as parsed: [`TagValue`] with the string borrowed from the
/// input unless it holds escapes.
pub(crate) enum ParsedValue<'a> {
    Str(Cow<'a, str>),
    I64(i64),
    U64(u64),
    F64(f64),
    Bool(bool),
}

impl ParsedValue<'_> {
    pub(crate) fn as_ref(&self) -> TagRef<'_> {
        match self {
            ParsedValue::Str(s) => TagRef::Str(s),
            ParsedValue::I64(v) => TagRef::I64(*v),
            ParsedValue::U64(v) => TagRef::U64(*v),
            ParsedValue::F64(v) => TagRef::F64(*v),
            ParsedValue::Bool(v) => TagRef::Bool(*v),
        }
    }
}

/// Where the span-object layer puts a span's tags and logs as it reads
/// them. A repeated `tags` or `logs` member clears its list first, so the
/// last one wins.
pub(crate) trait Parts<'a> {
    fn clear_tags(&mut self);
    fn push_tag(&mut self, key: Cow<'a, str>, value: ParsedValue<'a>);
    fn clear_logs(&mut self);
    fn push_log(&mut self, at_ns: u64, message: Cow<'a, str>);
}

/// The lists of an owned [`Span`]: each key goes through
/// [`tag_keys::resolve`], so a well-known one allocates nothing, and
/// strings are owned.
#[derive(Default)]
struct OwnedParts {
    tags: Vec<(TagKey, TagValue)>,
    logs: Vec<LogEvent>,
}

impl<'a> Parts<'a> for OwnedParts {
    fn clear_tags(&mut self) {
        self.tags.clear();
    }

    fn push_tag(&mut self, key: Cow<'a, str>, value: ParsedValue<'a>) {
        let value = match value {
            ParsedValue::Str(s) => TagValue::Str(Cow::Owned(s.into_owned())),
            ParsedValue::I64(v) => TagValue::I64(v),
            ParsedValue::U64(v) => TagValue::U64(v),
            ParsedValue::F64(v) => TagValue::F64(v),
            ParsedValue::Bool(v) => TagValue::Bool(v),
        };
        self.tags.push((tag_keys::resolve(key), value));
    }

    fn clear_logs(&mut self) {
        self.logs.clear();
    }

    fn push_log(&mut self, at_ns: u64, message: Cow<'a, str>) {
        self.logs.push(LogEvent {
            at_ns,
            message: message.into_owned(),
        });
    }
}

/// A span's tags and logs with their strings borrowed from the input, in
/// lists a caller reuses from span to span: a store ingest copies them
/// into its arenas and allocates nothing per span.
#[derive(Default)]
pub(crate) struct BorrowedParts<'a> {
    pub(crate) tags: Vec<(Cow<'a, str>, ParsedValue<'a>)>,
    pub(crate) logs: Vec<(u64, Cow<'a, str>)>,
}

impl<'a> Parts<'a> for BorrowedParts<'a> {
    fn clear_tags(&mut self) {
        self.tags.clear();
    }

    fn push_tag(&mut self, key: Cow<'a, str>, value: ParsedValue<'a>) {
        self.tags.push((key, value));
    }

    fn clear_logs(&mut self) {
        self.logs.clear();
    }

    fn push_log(&mut self, at_ns: u64, message: Cow<'a, str>) {
        self.logs.push((at_ns, message));
    }
}

/// Parses one span object, with optional JSON whitespace around it.
pub(crate) fn parse_span(text: &str) -> Result<Span, Error> {
    let mut parts = OwnedParts::default();
    let head = Lexer::document(text, |p| span(p, &mut parts))?;
    Ok(owned(head, parts))
}

/// Parses one span object into its head and `parts`, which it empties
/// first.
pub(crate) fn parse_span_parts<'a>(
    text: &'a str,
    parts: &mut BorrowedParts<'a>,
) -> Result<SpanHead<'a>, Error> {
    parts.clear_tags();
    parts.clear_logs();
    Lexer::document(text, |p| span(p, parts))
}

/// Parses a JSON array of span objects.
pub(crate) fn parse_span_array(text: &str) -> Result<Vec<Span>, Error> {
    Lexer::document(text, |p| {
        let mut spans = Vec::new();
        p.array(|p| {
            let mut parts = OwnedParts::default();
            let head = span(p, &mut parts)?;
            spans.push(owned(head, parts));
            Ok(())
        })?;
        Ok(spans)
    })
}

fn owned(head: SpanHead<'_>, parts: OwnedParts) -> Span {
    Span {
        id: head.id,
        trace_id: head.trace_id,
        name: head.name.into_owned(),
        level: head.level,
        start_ns: head.start_ns,
        end_ns: head.end_ns,
        parent: head.parent,
        tags: parts.tags,
        logs: parts.logs,
    }
}

/// The error for input bytes that are not UTF-8.
pub(crate) fn utf8_error(e: std::str::Utf8Error) -> Error {
    Error::Syntax {
        message: "invalid UTF-8".to_owned(),
        offset: e.valid_up_to(),
    }
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

/// Parses a member's value with `parse`. If that fails, the value is
/// re-read as plain JSON: malformed JSON fails the whole document, while
/// valid JSON of the wrong shape becomes an `Err` slot that a later
/// repeated key may still replace.
fn field<'a, T>(
    p: &mut Lexer<'a>,
    what: &str,
    parse: impl FnOnce(&mut Lexer<'a>) -> Result<T, Error>,
) -> Result<Slot<T>, Error> {
    let start = p.clone();
    match parse(p) {
        Ok(v) => Ok(Some(Ok(v))),
        Err(e) => {
            *p = start;
            p.skip_value()?;
            let detail = match e {
                Error::Syntax { message, .. } | Error::Data(message) => message,
            };
            Ok(Some(Err(Error::Data(format!("{what}: {detail}")))))
        }
    }
}

/// Reads one span object: its fixed fields into the returned head, its
/// tags and logs into `parts`.
fn span<'a>(p: &mut Lexer<'a>, parts: &mut impl Parts<'a>) -> Result<SpanHead<'a>, Error> {
    let (mut id, mut trace_id, mut name, mut level) = (None, None, None, None);
    let (mut start_ns, mut end_ns, mut parent) = (None, None, None);
    let (mut tags, mut logs) = (None, None);
    p.object(|p, key| {
        match &*key {
            "id" => id = field(p, "Span.id", unsigned)?,
            "trace_id" => trace_id = field(p, "Span.trace_id", unsigned)?,
            "name" => name = field(p, "Span.name", Lexer::string)?,
            "level" => level = field(p, "Span.level", stack_level)?,
            "start_ns" => start_ns = field(p, "Span.start_ns", unsigned)?,
            "end_ns" => end_ns = field(p, "Span.end_ns", unsigned)?,
            "parent" => parent = field(p, "Span.parent", parent_id)?,
            "tags" => tags = field(p, "Span.tags", |p| tag_list(p, parts))?,
            "logs" => logs = field(p, "Span.logs", |p| log_list(p, parts))?,
            _ => p.skip_value()?,
        }
        Ok(())
    })?;
    let head = SpanHead {
        id: SpanId(required(id, "Span.id")?),
        trace_id: TraceId(required(trace_id, "Span.trace_id")?),
        name: required(name, "Span.name")?,
        level: required(level, "Span.level")?,
        start_ns: required(start_ns, "Span.start_ns")?,
        end_ns: required(end_ns, "Span.end_ns")?,
        parent: parent.transpose()?.flatten(),
    };
    required(tags, "Span.tags")?;
    required(logs, "Span.logs")?;
    // Every duration downstream is `end - start`; a span that ends
    // before it starts (a corrupted or hand-edited timestamp) is
    // refused here.
    if head.end_ns < head.start_ns {
        return Err(Error::Data(format!(
            "Span.end_ns {} is before Span.start_ns {}",
            head.end_ns, head.start_ns
        )));
    }
    Ok(head)
}

fn parent_id(p: &mut Lexer<'_>) -> Result<Option<SpanId>, Error> {
    if p.eat_word("null") {
        Ok(None)
    } else {
        unsigned(p).map(|id| Some(SpanId(id)))
    }
}

fn stack_level(p: &mut Lexer<'_>) -> Result<StackLevel, Error> {
    let name = p.string()?;
    LEVEL_VARIANTS
        .iter()
        .position(|v| *v == name)
        .map(|rank| StackLevel::ALL[rank])
        .ok_or_else(|| Error::Data(format!("unknown StackLevel variant {name:?}")))
}

/// The tag list, into `parts`; each key is read borrowed from the input.
fn tag_list<'a>(p: &mut Lexer<'a>, parts: &mut impl Parts<'a>) -> Result<(), Error> {
    parts.clear_tags();
    p.array(|p| {
        p.eat(b'[')?;
        p.ws();
        let key = p.string()?;
        p.ws();
        p.eat(b',')?;
        p.ws();
        let value = tag_value(p)?;
        p.ws();
        p.eat(b']')?;
        parts.push_tag(key, value);
        Ok(())
    })
}

/// An externally tagged `TagValue`: an object with exactly one distinct
/// key naming the variant.
fn tag_value<'a>(p: &mut Lexer<'a>) -> Result<ParsedValue<'a>, Error> {
    let mut variant: Option<(Cow<'a, str>, Slot<ParsedValue<'a>>)> = None;
    p.object(|p, key| {
        if matches!(&variant, Some((seen, _)) if *seen != key) {
            return Err(mismatch("a single TagValue variant key"));
        }
        let value = field(p, "TagValue", |p| match &*key {
            "Str" => p.string().map(ParsedValue::Str),
            "I64" => match p.number()? {
                Number::PosInt(v) => i64::try_from(v)
                    .map(ParsedValue::I64)
                    .map_err(|_| mismatch("an i64")),
                Number::NegInt(v) => Ok(ParsedValue::I64(v)),
                Number::Float(_) => Err(mismatch("an i64")),
            },
            "U64" => unsigned(p).map(ParsedValue::U64),
            "F64" => match p.number()? {
                Number::PosInt(v) => Ok(ParsedValue::F64(v as f64)),
                Number::NegInt(v) => Ok(ParsedValue::F64(v as f64)),
                Number::Float(v) => Ok(ParsedValue::F64(v)),
            },
            "Bool" => {
                if p.eat_word("true") {
                    Ok(ParsedValue::Bool(true))
                } else if p.eat_word("false") {
                    Ok(ParsedValue::Bool(false))
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

/// The log list, into `parts`.
fn log_list<'a>(p: &mut Lexer<'a>, parts: &mut impl Parts<'a>) -> Result<(), Error> {
    parts.clear_logs();
    p.array(|p| {
        let (mut at_ns, mut message) = (None, None);
        p.object(|p, key| {
            match &*key {
                "at_ns" => at_ns = field(p, "LogEvent.at_ns", unsigned)?,
                "message" => message = field(p, "LogEvent.message", Lexer::string)?,
                _ => p.skip_value()?,
            }
            Ok(())
        })?;
        let at_ns = required(at_ns, "LogEvent.at_ns")?;
        parts.push_log(at_ns, required(message, "LogEvent.message")?);
        Ok(())
    })
}

fn unsigned(p: &mut Lexer<'_>) -> Result<u64, Error> {
    match p.number()? {
        Number::PosInt(v) => Ok(v),
        _ => Err(mismatch("a u64")),
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

    /// `push_us` against the float spelling it replaces.
    #[test]
    fn microseconds_are_spelled_as_the_float_path_spells_them() {
        let check = |ns: u64| {
            let (mut fast, mut float) = (Vec::new(), Vec::new());
            push_us(&mut fast, ns);
            push_f64(&mut float, ns as f64 / 1e3);
            assert_eq!(
                String::from_utf8(fast).unwrap(),
                String::from_utf8(float).unwrap(),
                "{ns} ns"
            );
        };
        for ns in [
            0,
            1,
            10,
            100,
            999,
            1_000,
            1_010,
            10u64.pow(15) - 1,
            10u64.pow(15),
            1 << 53,
            u64::MAX,
        ] {
            check(ns);
        }
        // A seeded sweep over every magnitude below 10^15 and a little past.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..200_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let digits = (x % 17) as u32;
            check(x % 10u64.pow(digits));
            check(x % (1 << 53));
        }
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
