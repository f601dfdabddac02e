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

use crate::span::{tag_keys, LogEvent, Span, SpanId, StackLevel, TagKey, TagValue, TraceId};
use std::borrow::Cow;
use std::io::Write as _;
use xsp_json::{push_str, Error, Lexer, Number};

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

/// Parses one span object, with optional JSON whitespace around it.
pub(crate) fn parse_span(text: &str) -> Result<Span, Error> {
    Lexer::document(text, span)
}

/// Parses a JSON array of span objects.
pub(crate) fn parse_span_array(text: &str) -> Result<Vec<Span>, Error> {
    Lexer::document(text, |p| {
        let mut spans = Vec::new();
        p.array(|p| {
            spans.push(span(p)?);
            Ok(())
        })?;
        Ok(spans)
    })
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

fn span(p: &mut Lexer<'_>) -> Result<Span, Error> {
    let (mut id, mut trace_id, mut name, mut level) = (None, None, None, None);
    let (mut start_ns, mut end_ns, mut parent) = (None, None, None);
    let (mut tags, mut logs) = (None, None);
    p.object(|p, key| {
        match &*key {
            "id" => id = field(p, "Span.id", unsigned)?,
            "trace_id" => trace_id = field(p, "Span.trace_id", unsigned)?,
            "name" => name = field(p, "Span.name", owned_string)?,
            "level" => level = field(p, "Span.level", stack_level)?,
            "start_ns" => start_ns = field(p, "Span.start_ns", unsigned)?,
            "end_ns" => end_ns = field(p, "Span.end_ns", unsigned)?,
            "parent" => parent = field(p, "Span.parent", parent_id)?,
            "tags" => tags = field(p, "Span.tags", tag_list)?,
            "logs" => logs = field(p, "Span.logs", log_list)?,
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

/// The tag list; each key is read borrowed from the input and goes
/// through [`tag_keys::resolve`], so a well-known key allocates nothing.
fn tag_list(p: &mut Lexer<'_>) -> Result<Vec<(TagKey, TagValue)>, Error> {
    let mut tags = Vec::new();
    p.array(|p| {
        p.eat(b'[')?;
        p.ws();
        let key = tag_keys::resolve(p.string()?);
        p.ws();
        p.eat(b',')?;
        p.ws();
        let value = tag_value(p)?;
        p.ws();
        p.eat(b']')?;
        tags.push((key, value));
        Ok(())
    })?;
    Ok(tags)
}

/// An externally tagged `TagValue`: an object with exactly one distinct
/// key naming the variant.
fn tag_value<'a>(p: &mut Lexer<'a>) -> Result<TagValue, Error> {
    let mut variant: Option<(Cow<'a, str>, Slot<TagValue>)> = None;
    p.object(|p, key| {
        if matches!(&variant, Some((seen, _)) if *seen != key) {
            return Err(mismatch("a single TagValue variant key"));
        }
        let value = field(p, "TagValue", |p| match &*key {
            "Str" => owned_string(p).map(TagValue::from),
            "I64" => match p.number()? {
                Number::PosInt(v) => i64::try_from(v)
                    .map(TagValue::I64)
                    .map_err(|_| mismatch("an i64")),
                Number::NegInt(v) => Ok(TagValue::I64(v)),
                Number::Float(_) => Err(mismatch("an i64")),
            },
            "U64" => unsigned(p).map(TagValue::U64),
            "F64" => match p.number()? {
                Number::PosInt(v) => Ok(TagValue::F64(v as f64)),
                Number::NegInt(v) => Ok(TagValue::F64(v as f64)),
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

fn log_list(p: &mut Lexer<'_>) -> Result<Vec<LogEvent>, Error> {
    let mut logs = Vec::new();
    p.array(|p| {
        let (mut at_ns, mut message) = (None, None);
        p.object(|p, key| {
            match &*key {
                "at_ns" => at_ns = field(p, "LogEvent.at_ns", unsigned)?,
                "message" => message = field(p, "LogEvent.message", owned_string)?,
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

fn unsigned(p: &mut Lexer<'_>) -> Result<u64, Error> {
    match p.number()? {
        Number::PosInt(v) => Ok(v),
        _ => Err(mismatch("a u64")),
    }
}

fn owned_string(p: &mut Lexer<'_>) -> Result<String, Error> {
    p.string().map(Cow::into_owned)
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
