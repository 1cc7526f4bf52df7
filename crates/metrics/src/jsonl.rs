//! Hand-rolled line-delimited JSON (JSONL) codec.
//!
//! The engine's wire protocol is one flat JSON object per line: string,
//! integer/float and boolean values only — no nesting, no arrays. This
//! module supplies the std-only parse/serialize pair (the workspace has
//! no serde), sharing the report-writing philosophy of
//! [`crate::report`]: small, explicit, dependency-free.
//!
//! Serialization is deterministic: keys are emitted in insertion order,
//! floats through Rust's shortest-roundtrip `Display` (the same bytes on
//! every platform for the same bit pattern), and escaping covers exactly
//! `"`/`\\` plus control characters (as `\u00XX`). Parsing accepts the
//! standard JSON escapes and both integer and float notation.
//!
//! Two surfaces share that grammar:
//!
//! * the [`JsonObject`] tree — general, allocating, used by reports,
//!   by the escape fallback and by [`resync_line`] recovery;
//! * the ingest fast path — [`parse_record_borrowed`] decodes a
//!   protocol record as borrowed spans with zero heap allocation, and
//!   [`LineBuf`] renders event lines into a reusable buffer through the
//!   shared [`write_f64`]/[`write_u64`] formatters, byte-identical to
//!   [`JsonObject::to_line`].
//!
//! Beneath both, one framer turns a byte stream into lines:
//! [`LineFramer`] splits on newlines, skips invalid UTF-8 and lines
//! over [`DEFAULT_MAX_LINE`] bytes, and gives the same spans however
//! the stream was chunked. Every JSONL byte-stream consumer frames
//! through it.

use std::fmt::Write as _;

/// One scalar JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A JSON string.
    Str(String),
    /// A JSON number (stored as `f64`; integers round-trip exactly up to
    /// 2^53).
    Num(f64),
    /// A JSON boolean.
    Bool(bool),
}

impl JsonValue {
    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// A flat JSON object with insertion-ordered keys.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JsonObject {
    entries: Vec<(String, JsonValue)>,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        JsonObject::default()
    }

    /// Appends a string field.
    pub fn push_str(&mut self, key: &str, value: impl Into<String>) -> &mut Self {
        self.entries.push((key.to_string(), JsonValue::Str(value.into())));
        self
    }

    /// Appends a numeric field.
    pub fn push_num(&mut self, key: &str, value: f64) -> &mut Self {
        // lint:allow(hot-propagate) -- JsonObject builds per-transition session events, not per-sample lines; the sample path renders through LineBuf
        self.entries.push((key.to_string(), JsonValue::Num(value)));
        self
    }

    /// Appends a boolean field.
    pub fn push_bool(&mut self, key: &str, value: bool) -> &mut Self {
        // lint:allow(hot-propagate) -- JsonObject builds per-transition session events, not per-sample lines; the sample path renders through LineBuf
        self.entries.push((key.to_string(), JsonValue::Bool(value)));
        self
    }

    /// First value under `key`, if present.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// String value under `key`, if present and a string.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(JsonValue::as_str)
    }

    /// Numeric value under `key`, if present and a number.
    pub fn get_f64(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(JsonValue::as_f64)
    }

    /// All fields in insertion order.
    pub fn entries(&self) -> &[(String, JsonValue)] {
        &self.entries
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the object has no fields.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serializes to one compact JSON line (no trailing newline).
    ///
    /// Non-finite numbers serialize as `null`-free `0` replacements are
    /// **not** applied here — they are the caller's bug; this codec
    /// emits them as `null` so a corrupt value is visible, not hidden.
    pub fn to_line(&self) -> String {
        let mut out = String::with_capacity(16 + 16 * self.entries.len());
        out.push('{');
        for (i, (k, v)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_into(&mut out, k);
            out.push(':');
            match v {
                JsonValue::Str(s) => escape_into(&mut out, s),
                JsonValue::Num(n) => write_f64(&mut out, *n),
                JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            }
        }
        out.push('}');
        out
    }

    /// Parses one JSONL line into a flat object.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax problem: non-object
    /// lines, nested values, unterminated strings, bad escapes, or
    /// malformed numbers.
    // lint:allow(hot-propagate) -- the error String is built only for malformed input, after which the record is rejected anyway
    pub fn parse(line: &str) -> Result<Self, String> {
        let mut parser = Parser { bytes: line.as_bytes(), pos: 0 };
        let obj = parser.parse_object()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(format!("trailing content at byte {}", parser.pos));
        }
        Ok(obj)
    }

    /// Parses one object from the front of `text`, returning it together
    /// with the number of bytes consumed. Unlike [`JsonObject::parse`],
    /// trailing content after the closing `}` is allowed — this is the
    /// building block of [`resync_line`], which recovers records from
    /// lines where a corrupted record and a valid one were fused.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax problem.
    pub fn parse_prefix(text: &str) -> Result<(Self, usize), String> {
        let mut parser = Parser { bytes: text.as_bytes(), pos: 0 };
        let obj = parser.parse_object()?;
        Ok((obj, parser.pos))
    }
}

/// One segment of a dirty input line, in line order: either a recovered
/// object or a span of bytes the decoder had to skip to resynchronise.
#[derive(Debug, Clone, PartialEq)]
pub enum Segment {
    /// A valid flat object recovered from the line.
    Object(JsonObject),
    /// Bytes skipped while hunting for the next parsable record.
    Skipped {
        /// Number of bytes the span covers.
        bytes: usize,
        /// Why the span failed to parse (first failure in the span).
        reason: String,
    },
}

/// Scans a line that failed (or may fail) to parse as a single object
/// and recovers every embedded valid record, resynchronising past
/// corrupted spans.
///
/// The scanner walks the line left to right: at each `{` it attempts a
/// prefix parse ([`JsonObject::parse_prefix`]); on success the object is
/// emitted and scanning resumes after it, on failure the next `{` is
/// tried. Bytes not covered by a recovered object are reported as
/// [`Segment::Skipped`] spans carrying the first parse failure seen in
/// the span, so a truncated record fused with a healthy one
/// (`{"a":1,"b{"tenant":...}`) loses only the corrupted prefix.
///
/// Whitespace-only residue is not reported. The scan is linear in the
/// number of `{` candidates; the [`LineFramer`]'s line cap bounds its
/// cost.
pub fn resync_line(line: &str) -> Vec<Segment> {
    let mut segments = Vec::new();
    let bytes = line.as_bytes();
    let mut pos = 0usize;
    // Start of the current unconsumed (potentially skipped) span, plus
    // the first parse failure inside it.
    let mut skip_from = 0usize;
    let mut skip_reason: Option<String> = None;
    let flush_skip = |segments: &mut Vec<Segment>,
                          from: usize,
                          to: usize,
                          reason: &mut Option<String>| {
        let span = line.get(from..to).unwrap_or("");
        if !span.trim().is_empty() {
            segments.push(Segment::Skipped {
                bytes: to - from,
                reason: reason
                    .take()
                    .unwrap_or_else(|| "no object found".to_string()),
            });
        }
        *reason = None;
    };
    while pos < bytes.len() {
        let Some(off) = line.get(pos..).and_then(|rest| rest.find('{')) else {
            break;
        };
        let brace = pos + off;
        match line.get(brace..).map(JsonObject::parse_prefix) {
            Some(Ok((obj, consumed))) => {
                flush_skip(&mut segments, skip_from, brace, &mut skip_reason);
                segments.push(Segment::Object(obj));
                pos = brace + consumed;
                skip_from = pos;
            }
            Some(Err(reason)) => {
                if skip_reason.is_none() {
                    skip_reason = Some(reason);
                }
                pos = brace + 1;
            }
            None => break,
        }
    }
    flush_skip(&mut segments, skip_from, bytes.len(), &mut skip_reason);
    segments
}

/// Per-line byte cap of [`LineFramer`]: a physical line longer than
/// this is skipped whole, so a stream that stops sending newlines
/// cannot grow the framer's buffer without bound.
pub const DEFAULT_MAX_LINE: usize = 64 * 1024;

/// Skip reason for a line over [`DEFAULT_MAX_LINE`] bytes.
const OVERSIZED_LINE: &str = "line exceeds the 65536-byte cap";

/// Skip reason for an invalid UTF-8 sequence.
const INVALID_UTF8: &str = "invalid UTF-8";

/// One span of a JSONL byte stream, as [`LineFramer`] hands it out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span<'a> {
    /// A non-blank, valid UTF-8 stretch of one physical line, without
    /// its newline: the whole line, or the part of it on one side of an
    /// invalid UTF-8 sequence.
    Line(&'a str),
    /// Bytes the framer skipped: one invalid UTF-8 sequence, or a whole
    /// line over [`DEFAULT_MAX_LINE`] bytes.
    Skipped {
        /// Number of bytes the span covers.
        bytes: usize,
        /// Why the span was skipped.
        reason: &'static str,
    },
}

/// Splits a JSONL byte stream into lines — the one framer every JSONL
/// consumer uses.
///
/// Feed the stream in chunks of any size with [`LineFramer::push`] and
/// end it with [`LineFramer::finish`], which frames a trailing
/// unterminated line. Each call hands its spans to a callback, in
/// stream order. A line that ends inside the chunk is handed out as a
/// `&str` borrowed from the chunk; only a line that spans two chunks is
/// copied, into a carry buffer that is reused. The framer never panics
/// on any input, and its spans do not depend on how the stream was cut
/// into chunks:
///
/// * a line longer than [`DEFAULT_MAX_LINE`] bytes is one
///   [`Span::Skipped`] covering its full length, however it arrived,
///   and the carry buffer never holds more than the cap;
/// * invalid UTF-8 splits a line: each offending sequence is one
///   [`Span::Skipped`], and the valid text on either side of it is
///   handed out as [`Span::Line`]s;
/// * whitespace-only text is counted but not handed out.
#[derive(Debug, Default)]
pub struct LineFramer {
    /// The current unterminated line, while it is within the cap.
    carry: Vec<u8>,
    /// Full length of the current unterminated line so far (past the
    /// cap, `carry` is empty and only this keeps counting).
    partial: usize,
    lines: u64,
}

impl LineFramer {
    /// A framer at the start of a stream.
    pub fn new() -> Self {
        LineFramer::default()
    }

    /// Number of physical lines (newline-terminated, plus a final
    /// unterminated one once [`LineFramer::finish`] ran) framed so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Frames one chunk of the stream, handing every span of the lines
    /// it completes to `emit`.
    pub fn push(&mut self, chunk: &[u8], mut emit: impl FnMut(Span<'_>)) {
        let mut rest = chunk;
        while let Some(nl) = find_newline(rest) {
            self.end_line(rest.get(..nl).unwrap_or(rest), &mut emit);
            rest = rest.get(nl + 1..).unwrap_or(&[]);
        }
        self.partial += rest.len();
        if self.partial > DEFAULT_MAX_LINE {
            self.carry.clear();
        } else {
            self.carry.extend_from_slice(rest);
        }
    }

    /// Ends the stream: frames the trailing unterminated line, if any.
    pub fn finish(&mut self, mut emit: impl FnMut(Span<'_>)) {
        if self.partial > 0 {
            self.end_line(&[], &mut emit);
        }
    }

    /// Completes the current line with `head`, its last bytes before
    /// the newline (or end of stream).
    fn end_line(&mut self, head: &[u8], emit: &mut impl FnMut(Span<'_>)) {
        self.lines += 1;
        let len = self.partial + head.len();
        if len > DEFAULT_MAX_LINE {
            emit(Span::Skipped { bytes: len, reason: OVERSIZED_LINE });
        } else if self.carry.is_empty() {
            split_utf8(head, emit);
        } else {
            self.carry.extend_from_slice(head);
            split_utf8(&self.carry, emit);
        }
        self.carry.clear();
        self.partial = 0;
    }
}

/// Index of the first `\n` in `bytes`, eight bytes per step. XOR-ing a
/// word with `\n` in every byte zeroes exactly the newline bytes, and the
/// zero-byte test `(x - 0x01..) & !x & 0x80..` flags every zero byte.
/// It can also flag a byte above a zero byte (the subtraction's borrow
/// runs upward), never one below, so the lowest flagged byte —
/// `trailing_zeros` of the little-endian mask — is the first newline.
// hot-path
fn find_newline(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    const NEWLINES: u64 = ONES * b'\n' as u64;
    let mut words = bytes.chunks_exact(8);
    let mut base = 0;
    for word in words.by_ref() {
        let x = u64::from_le_bytes(word.try_into().unwrap_or([0; 8])) ^ NEWLINES;
        let found = x.wrapping_sub(ONES) & !x & HIGHS;
        if found != 0 {
            return Some(base + (found.trailing_zeros() / 8) as usize);
        }
        base += 8;
    }
    words.remainder().iter().position(|&b| b == b'\n').map(|i| base + i)
}

/// Hands out one complete physical line: its non-blank valid UTF-8
/// stretches as [`Span::Line`], each invalid sequence as a skipped
/// span.
fn split_utf8(line: &[u8], emit: &mut impl FnMut(Span<'_>)) {
    let mut rest = line;
    loop {
        let (text, bad) = match std::str::from_utf8(rest) {
            Ok(text) => (text, 0),
            Err(e) => {
                let valid = e.valid_up_to();
                let text = rest.get(..valid).and_then(|p| std::str::from_utf8(p).ok());
                (text.unwrap_or(""), e.error_len().unwrap_or(rest.len() - valid).max(1))
            }
        };
        if !text.trim().is_empty() {
            emit(Span::Line(text));
        }
        if bad == 0 {
            return;
        }
        emit(Span::Skipped { bytes: bad, reason: INVALID_UTF8 });
        rest = rest.get(text.len() + bad..).unwrap_or(&[]);
        if rest.is_empty() {
            return;
        }
    }
}

/// Appends `s` as a quoted, escaped JSON string.
fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        match self.bump() {
            Some(got) if got == b => Ok(()),
            Some(got) => Err(format!(
                "expected '{}' at byte {}, found '{}'",
                b as char,
                self.pos - 1,
                got as char
            )),
            None => Err(format!("expected '{}' at end of line", b as char)),
        }
    }

    fn parse_object(&mut self) -> Result<JsonObject, String> {
        self.skip_ws();
        self.expect_byte(b'{')?;
        let mut obj = JsonObject::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(obj);
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            obj.entries.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(obj),
                Some(b) => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found '{}'",
                        self.pos - 1,
                        b as char
                    ))
                }
                None => return Err("unterminated object".to_string()),
            }
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Str(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_keyword("false", JsonValue::Bool(false)),
            Some(b'{' | b'[') => Err(format!(
                "nested values are not part of the protocol (byte {})",
                self.pos
            )),
            Some(_) => self.parse_number(),
            None => Err("expected a value at end of line".to_string()),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        let end = self.pos + word.len();
        if self.bytes.get(self.pos..end) == Some(word.as_bytes()) {
            self.pos = end;
            Ok(value)
        } else {
            Err(format!("malformed keyword at byte {}", self.pos))
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'u') => {
                        let end = self.pos + 4;
                        let hex = self
                            .bytes
                            .get(self.pos..end)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                        // Surrogate pairs are outside the protocol's
                        // character set; reject rather than mis-decode.
                        let c = char::from_u32(code)
                            .ok_or_else(|| format!("\\u{hex} is not a scalar value"))?;
                        out.push(c);
                        self.pos = end;
                    }
                    Some(b) => return Err(format!("bad escape '\\{}'", b as char)),
                    None => return Err("unterminated escape".to_string()),
                },
                Some(b) if b < 0x20 => {
                    return Err("raw control character in string".to_string())
                }
                Some(_) => {
                    // Re-scan from the byte we consumed to keep UTF-8
                    // sequences intact.
                    let start = self.pos - 1;
                    let rest = std::str::from_utf8(&self.bytes[start..])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    let c = rest.chars().next().ok_or("empty string tail")?;
                    out.push(c);
                    self.pos = start + c.len_utf8();
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid UTF-8 in number".to_string())?;
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("malformed number {text:?} at byte {start}"))
    }
}

/// Appends `n` in decimal without going through `core::fmt`.
// hot-path
pub fn write_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        if let Some(d) = digits.get_mut(at) {
            *d = b'0' + (n % 10) as u8;
        }
        n /= 10;
        if n == 0 || at == 0 {
            break;
        }
    }
    if let Ok(text) = std::str::from_utf8(digits.get(at..).unwrap_or(&[])) {
        out.push_str(text);
    }
}

/// Appends `n` in decimal, byte-identical to `i64`'s `Display`.
// hot-path
pub fn write_i64(out: &mut String, n: i64) {
    if n < 0 {
        out.push('-');
    }
    write_u64(out, n.unsigned_abs());
}

/// Appends `n` in the codec's canonical number format: integers without
/// a fraction (fast digit loop), everything else through Rust's
/// shortest-roundtrip `Display`, non-finite values as `null`. This is
/// the single authority both [`JsonObject::to_line`] and [`LineBuf`]
/// render numbers through, so their outputs are byte-identical.
// hot-path
pub fn write_f64(out: &mut String, n: f64) {
    if n.is_finite() {
        // Integers print without a fraction; everything else uses
        // shortest-roundtrip formatting.
        // lint:allow(float-eq) -- exact zero fraction selects integer formatting; near-integers must round-trip via {n}
        if n.fract() == 0.0 && n.abs() < 9.0e15 {
            write_i64(out, n as i64);
        } else {
            let _ = write!(out, "{n}");
        }
    } else {
        out.push_str("null");
    }
}

/// A reusable JSONL line writer: the allocation-free counterpart of
/// building a [`JsonObject`] and calling [`JsonObject::to_line`]. The
/// internal buffer is cleared — not freed — by [`LineBuf::begin`], so a
/// long-lived `LineBuf` renders every event of a stream with zero
/// steady-state allocation. Field for field it emits exactly the bytes
/// `to_line` would (same escaping, same number format).
#[derive(Debug, Default)]
pub struct LineBuf {
    buf: String,
    fields: usize,
}

impl LineBuf {
    /// An empty writer.
    pub fn new() -> Self {
        LineBuf::default()
    }

    /// Starts a new line, discarding the previous one (the allocation is
    /// kept).
    // hot-path
    pub fn begin(&mut self) -> &mut Self {
        self.buf.clear();
        self.fields = 0;
        self.buf.push('{');
        self
    }

    // hot-path
    fn sep(&mut self) {
        if self.fields > 0 {
            self.buf.push(',');
        }
        self.fields += 1;
    }

    /// Appends a string field.
    // hot-path
    pub fn field_str(&mut self, key: &str, value: &str) -> &mut Self {
        self.sep();
        escape_into(&mut self.buf, key);
        self.buf.push(':');
        escape_into(&mut self.buf, value);
        self
    }

    /// Appends a numeric field in the canonical [`write_f64`] format.
    // hot-path
    pub fn field_num(&mut self, key: &str, value: f64) -> &mut Self {
        self.sep();
        escape_into(&mut self.buf, key);
        self.buf.push(':');
        write_f64(&mut self.buf, value);
        self
    }

    /// Appends an unsigned integer field via the fast digit loop.
    ///
    /// Matches [`LineBuf::field_num`] byte for byte up to 2^53, the
    /// codec's exact-integer range.
    // hot-path
    pub fn field_u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.sep();
        escape_into(&mut self.buf, key);
        self.buf.push(':');
        write_u64(&mut self.buf, value);
        self
    }

    /// Appends a boolean field.
    // hot-path
    pub fn field_bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.sep();
        escape_into(&mut self.buf, key);
        self.buf.push(':');
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Appends an already-typed [`JsonValue`] field.
    // hot-path
    pub fn field_value(&mut self, key: &str, value: &JsonValue) -> &mut Self {
        match value {
            JsonValue::Str(s) => self.field_str(key, s),
            JsonValue::Num(n) => self.field_num(key, *n),
            JsonValue::Bool(b) => self.field_bool(key, *b),
        }
    }

    /// Closes the line and returns it (no trailing newline). The buffer
    /// stays valid until the next [`LineBuf::begin`].
    // hot-path
    pub fn end(&mut self) -> &str {
        self.buf.push('}');
        &self.buf
    }
}

/// Why a line is not a protocol record. The fast path returns this as a
/// small `Copy` enum — no `String` is built unless an error is actually
/// rendered (see [`RecordError::reason`]), which keeps rejected lines
/// cheap in the ingest hot loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordError {
    /// The line is not one syntactically valid flat JSON object.
    Syntax,
    /// No `"tenant"` field with a string value.
    MissingTenant,
    /// The `"tenant"` string is empty.
    EmptyTenant,
    /// A `"ctl"` field is present but not a string.
    CtlNotString,
    /// The `"ctl"` verb is not one the protocol knows.
    UnknownCtl,
    /// No numeric `"access"` field on a sample record.
    MissingAccess,
    /// No numeric `"miss"` field on a sample record.
    MissingMiss,
    /// `"access"`/`"miss"` parsed to a non-finite number.
    NonFinite,
}

impl RecordError {
    /// The human-readable reason, rendered lazily (static, no
    /// allocation).
    pub fn reason(self) -> &'static str {
        match self {
            RecordError::Syntax => "malformed record syntax",
            RecordError::MissingTenant => "missing string field \"tenant\"",
            RecordError::EmptyTenant => "field \"tenant\" must be non-empty",
            RecordError::CtlNotString => "field \"ctl\" must be a string",
            RecordError::UnknownCtl => "unknown control verb",
            RecordError::MissingAccess => "missing numeric field \"access\"",
            RecordError::MissingMiss => "missing numeric field \"miss\"",
            RecordError::NonFinite => "counter fields must be finite",
        }
    }
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.reason())
    }
}

/// A protocol record borrowed straight from the line that carried it:
/// the tenant name is a span of the input, not a copy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RawRecord<'a> {
    /// Tenant name (borrowed from the line; guaranteed escape-free, so
    /// the span *is* the decoded value).
    pub tenant: &'a str,
    /// Sample payload or control verb.
    pub kind: RawKind,
}

/// The payload of a [`RawRecord`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RawKind {
    /// A PCM sample: one `(AccessNum, MissNum)` pair.
    Sample {
        /// Bus accesses in the sampling period.
        access: f64,
        /// LLC misses in the sampling period.
        miss: f64,
    },
    /// The `{"ctl":"close"}` control record.
    Close,
}

/// Outcome of [`parse_record_borrowed`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RawParse<'a> {
    /// A record, decoded with zero heap allocation.
    Record(RawRecord<'a>),
    /// The line is *definitely* not a record, for this reason — the
    /// exact error the [`JsonObject`]-based slow path would report.
    Reject(RecordError),
    /// The fast path cannot decide without allocating (escape sequences
    /// in a key or in a protocol string value); run the slow path.
    Fallback,
}

/// Parses one protocol record directly from the line's bytes with zero
/// heap allocation — the engine's ingest fast path.
///
/// The grammar and field semantics mirror [`JsonObject::parse`] +
/// record validation exactly: flat objects only, duplicate keys
/// first-wins, the same escape/number syntax. Three-way contract:
///
/// * [`RawParse::Record`] — the slow path would accept with the same
///   field values;
/// * [`RawParse::Reject`] — the slow path would reject with the same
///   [`RecordError`];
/// * [`RawParse::Fallback`] — escapes touched a key or a protocol
///   string value, so decoding needs an allocation; the caller must
///   re-parse through the slow path. Clean machine-generated streams
///   never hit this.
// hot-path
pub fn parse_record_borrowed(line: &str) -> RawParse<'_> {
    let mut p = RawParser { bytes: line.as_bytes(), text: line, pos: 0 };
    // First occurrence per protocol key, matching `JsonObject::get`.
    let mut tenant: Option<RawValue<'_>> = None;
    let mut ctl: Option<RawValue<'_>> = None;
    let mut access: Option<RawValue<'_>> = None;
    let mut miss: Option<RawValue<'_>> = None;
    let mut escaped_key = false;

    p.skip_ws();
    if p.bump() != Some(b'{') {
        return RawParse::Reject(RecordError::Syntax);
    }
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let Ok(key) = p.parse_string_raw() else {
                return RawParse::Reject(RecordError::Syntax);
            };
            p.skip_ws();
            if p.bump() != Some(b':') {
                return RawParse::Reject(RecordError::Syntax);
            }
            p.skip_ws();
            let Ok(value) = p.parse_value_raw() else {
                return RawParse::Reject(RecordError::Syntax);
            };
            match key {
                // An escaped key may decode to a protocol field name
                // (and first-wins ordering would depend on it), so the
                // whole line needs the decoding path.
                RawStr::Escaped => escaped_key = true,
                RawStr::Plain("tenant") => {
                    if tenant.is_none() {
                        tenant = Some(value);
                    }
                }
                RawStr::Plain("ctl") => {
                    if ctl.is_none() {
                        ctl = Some(value);
                    }
                }
                RawStr::Plain("access") => {
                    if access.is_none() {
                        access = Some(value);
                    }
                }
                RawStr::Plain("miss") => {
                    if miss.is_none() {
                        miss = Some(value);
                    }
                }
                RawStr::Plain(_) => {}
            }
            p.skip_ws();
            match p.bump() {
                Some(b',') => continue,
                Some(b'}') => break,
                _ => return RawParse::Reject(RecordError::Syntax),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return RawParse::Reject(RecordError::Syntax);
    }
    if escaped_key {
        return RawParse::Fallback;
    }
    // Record validation, in the exact order of the slow path.
    let tenant = match tenant {
        Some(RawValue::Str(RawStr::Plain(s))) => s,
        Some(RawValue::Str(RawStr::Escaped)) => return RawParse::Fallback,
        _ => return RawParse::Reject(RecordError::MissingTenant),
    };
    if tenant.is_empty() {
        return RawParse::Reject(RecordError::EmptyTenant);
    }
    if let Some(ctl) = ctl {
        return match ctl {
            RawValue::Str(RawStr::Plain("close")) => {
                RawParse::Record(RawRecord { tenant, kind: RawKind::Close })
            }
            RawValue::Str(RawStr::Plain(_)) => RawParse::Reject(RecordError::UnknownCtl),
            RawValue::Str(RawStr::Escaped) => RawParse::Fallback,
            _ => RawParse::Reject(RecordError::CtlNotString),
        };
    }
    let access = match access {
        Some(RawValue::Num(n)) => n,
        _ => return RawParse::Reject(RecordError::MissingAccess),
    };
    let miss = match miss {
        Some(RawValue::Num(n)) => n,
        _ => return RawParse::Reject(RecordError::MissingMiss),
    };
    if !access.is_finite() || !miss.is_finite() {
        return RawParse::Reject(RecordError::NonFinite);
    }
    RawParse::Record(RawRecord { tenant, kind: RawKind::Sample { access, miss } })
}

/// A string scanned in place by [`RawParser`]: either a clean span (the
/// raw bytes are the decoded value) or one that contains escapes.
#[derive(Debug, Clone, Copy)]
enum RawStr<'a> {
    Plain(&'a str),
    Escaped,
}

/// A value scanned in place by [`RawParser`].
#[derive(Debug, Clone, Copy)]
enum RawValue<'a> {
    Str(RawStr<'a>),
    Num(f64),
    Bool,
}

/// The zero-allocation twin of [`Parser`]: identical control flow and
/// validation, but strings come back as spans of the input instead of
/// freshly decoded `String`s. Any divergence between the two is a bug —
/// the engine's parser-equivalence suite drives both over the same
/// corpus.
struct RawParser<'a> {
    bytes: &'a [u8],
    text: &'a str,
    pos: usize,
}

impl<'a> RawParser<'a> {
    // hot-path
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    // hot-path
    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    // hot-path
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Scans a quoted string, validating the same escape grammar as
    /// [`Parser::parse_string`] without decoding it.
    // hot-path
    fn parse_string_raw(&mut self) -> Result<RawStr<'a>, ()> {
        if self.bump() != Some(b'"') {
            return Err(());
        }
        let start = self.pos;
        let mut escaped = false;
        loop {
            match self.bump() {
                Some(b'"') => {
                    let end = self.pos - 1;
                    return if escaped {
                        Ok(RawStr::Escaped)
                    } else {
                        // Both span boundaries sit on ASCII quotes, so
                        // the slice is valid UTF-8 whenever the input
                        // is (it is: we were handed a `&str`).
                        self.text.get(start..end).map(RawStr::Plain).ok_or(())
                    };
                }
                Some(b'\\') => {
                    escaped = true;
                    match self.bump() {
                        Some(b'"' | b'\\' | b'/' | b'n' | b'r' | b't' | b'b' | b'f') => {}
                        Some(b'u') => {
                            let end = self.pos + 4;
                            let hex = self
                                .bytes
                                .get(self.pos..end)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or(())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|_| ())?;
                            // Same scalar-value check as the slow path.
                            char::from_u32(code).ok_or(())?;
                            self.pos = end;
                        }
                        _ => return Err(()),
                    }
                }
                Some(b) if b < 0x20 => return Err(()),
                Some(_) => {}
                None => return Err(()),
            }
        }
    }

    // hot-path
    fn parse_number_raw(&mut self) -> Result<f64, ()> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| ())?
            .parse::<f64>()
            .map_err(|_| ())
    }

    // hot-path
    fn parse_value_raw(&mut self) -> Result<RawValue<'a>, ()> {
        match self.peek() {
            Some(b'"') => self.parse_string_raw().map(RawValue::Str),
            Some(b't') => self.parse_keyword_raw("true"),
            Some(b'f') => self.parse_keyword_raw("false"),
            Some(b'{' | b'[') => Err(()),
            Some(_) => self.parse_number_raw().map(RawValue::Num),
            None => Err(()),
        }
    }

    // hot-path
    fn parse_keyword_raw(&mut self, word: &str) -> Result<RawValue<'a>, ()> {
        let end = self.pos + word.len();
        if self.bytes.get(self.pos..end) == Some(word.as_bytes()) {
            self.pos = end;
            Ok(RawValue::Bool)
        } else {
            Err(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_typical_sample_line() {
        let mut obj = JsonObject::new();
        obj.push_str("tenant", "vm-0").push_num("access", 1234.0).push_num("miss", 56.0);
        let line = obj.to_line();
        assert_eq!(line, r#"{"tenant":"vm-0","access":1234,"miss":56}"#);
        let back = JsonObject::parse(&line).unwrap();
        assert_eq!(back, obj);
    }

    #[test]
    fn roundtrips_floats_and_bools() {
        let mut obj = JsonObject::new();
        obj.push_num("period", 17.25).push_bool("periodic", true).push_num("neg", -0.5);
        let back = JsonObject::parse(&obj.to_line()).unwrap();
        assert_eq!(back.get_f64("period"), Some(17.25));
        assert_eq!(back.get("periodic").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(back.get_f64("neg"), Some(-0.5));
    }

    #[test]
    fn escapes_are_symmetric() {
        let mut obj = JsonObject::new();
        obj.push_str("name", "a\"b\\c\nd\te\u{1}");
        let line = obj.to_line();
        let back = JsonObject::parse(&line).unwrap();
        assert_eq!(back.get_str("name"), Some("a\"b\\c\nd\te\u{1}"));
    }

    #[test]
    fn parses_whitespace_and_scientific_notation() {
        let obj = JsonObject::parse(r#" { "a" : 1e3 , "b" : "x" } "#).unwrap();
        assert_eq!(obj.get_f64("a"), Some(1000.0));
        assert_eq!(obj.get_str("b"), Some("x"));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(JsonObject::parse("").is_err());
        assert!(JsonObject::parse("[1,2]").is_err());
        assert!(JsonObject::parse(r#"{"a":}"#).is_err());
        assert!(JsonObject::parse(r#"{"a":1"#).is_err());
        assert!(JsonObject::parse(r#"{"a":{"b":1}}"#).is_err());
        assert!(JsonObject::parse(r#"{"a":1} trailing"#).is_err());
        assert!(JsonObject::parse(r#"{"a":"unterminated}"#).is_err());
        assert!(JsonObject::parse(r#"{"a":nope}"#).is_err());
    }

    #[test]
    fn empty_object_roundtrips() {
        let obj = JsonObject::parse("{}").unwrap();
        assert!(obj.is_empty());
        assert_eq!(obj.to_line(), "{}");
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        let mut obj = JsonObject::new();
        obj.push_num("bad", f64::NAN);
        assert_eq!(obj.to_line(), r#"{"bad":null}"#);
    }

    #[test]
    fn unicode_content_roundtrips() {
        let mut obj = JsonObject::new();
        obj.push_str("name", "tenant-α-β");
        let back = JsonObject::parse(&obj.to_line()).unwrap();
        assert_eq!(back.get_str("name"), Some("tenant-α-β"));
    }

    #[test]
    fn parse_prefix_reports_consumed_bytes() {
        let text = r#"{"a":1} {"b":2}"#;
        let (obj, consumed) = JsonObject::parse_prefix(text).unwrap();
        assert_eq!(obj.get_f64("a"), Some(1.0));
        assert_eq!(consumed, 7);
        let (obj2, _) = JsonObject::parse_prefix(&text[consumed..]).unwrap();
        assert_eq!(obj2.get_f64("b"), Some(2.0));
    }

    #[test]
    fn resync_recovers_record_after_truncated_prefix() {
        // A record truncated mid-field, fused with a healthy one — the
        // exact shape a lost newline produces.
        let line = r#"{"tenant":"vm-0","acc{"tenant":"vm-1","access":1,"miss":2}"#;
        let segments = resync_line(line);
        assert_eq!(segments.len(), 2, "{segments:?}");
        assert!(matches!(&segments[0], Segment::Skipped { bytes: 21, .. }));
        match &segments[1] {
            Segment::Object(obj) => assert_eq!(obj.get_str("tenant"), Some("vm-1")),
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn resync_recovers_multiple_fused_records() {
        let line = r#"{"a":1}{"b":2}garbage{"c":3}"#;
        let segments = resync_line(line);
        let objects: Vec<&JsonObject> = segments
            .iter()
            .filter_map(|s| match s {
                Segment::Object(o) => Some(o),
                Segment::Skipped { .. } => None,
            })
            .collect();
        assert_eq!(objects.len(), 3);
        let skipped = segments.len() - objects.len();
        assert_eq!(skipped, 1);
    }

    #[test]
    fn resync_on_hopeless_garbage_is_one_skip() {
        let segments = resync_line("%%% not json at all %%%");
        assert_eq!(segments.len(), 1);
        assert!(matches!(&segments[0], Segment::Skipped { .. }));
        assert!(resync_line("   ").is_empty());
    }

    /// Frames `chunks` as one stream; spans come back owned, with the
    /// physical-line count.
    fn frame(chunks: &[&[u8]]) -> (Vec<Result<String, (usize, &'static str)>>, u64) {
        let mut framer = LineFramer::new();
        let mut spans = Vec::new();
        let mut keep = |span: Span<'_>| {
            spans.push(match span {
                Span::Line(line) => Ok(line.to_string()),
                Span::Skipped { bytes, reason } => Err((bytes, reason)),
            });
        };
        for chunk in chunks {
            framer.push(chunk, &mut keep);
        }
        framer.finish(&mut keep);
        (spans, framer.lines())
    }

    #[test]
    fn find_newline_matches_position_at_every_offset_and_alignment() {
        // Bytes one off `\n` (0x0A) in value, or equal to it but for the
        // high bit, are where a word-at-a-time search can misfire.
        const FILL: [u8; 6] = [0x00, 0x09, 0x0B, 0x8A, b'a', 0xFF];
        let patterns: Vec<Vec<u8>> = FILL
            .iter()
            .map(|&b| vec![b; 48])
            .chain(
                (0..FILL.len()).map(|k| (0..48).map(|i| FILL[(i * 5 + k) % FILL.len()]).collect()),
            )
            .collect();
        for pattern in &patterns {
            for start in 0..8 {
                for len in 0..=pattern.len() - start {
                    // No newline, then a newline at every position, with
                    // a second one after it where there is room.
                    for nl in std::iter::once(None).chain((0..len).map(Some)) {
                        let mut buf = pattern.clone();
                        if let Some(i) = nl {
                            buf[start + i] = b'\n';
                            if i + 3 < len {
                                buf[start + i + 3] = b'\n';
                            }
                        }
                        let hay = &buf[start..start + len];
                        assert_eq!(
                            find_newline(hay),
                            hay.iter().position(|&b| b == b'\n'),
                            "start {start} len {len} newline {nl:?} in {hay:02x?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn framer_reassembles_split_chunks() {
        let (spans, lines) = frame(&[b"{\"a\":1}\n{\"b\"", b":2}\n"]);
        assert_eq!(spans, [Ok(r#"{"a":1}"#.to_string()), Ok(r#"{"b":2}"#.to_string())]);
        assert_eq!(lines, 2);
    }

    #[test]
    fn framer_finish_flushes_unterminated_line() {
        let (spans, lines) = frame(&[b"{\"a\":1}\n \t\n{\"b\":2}"]);
        // The blank line is counted, not handed out.
        assert_eq!(spans, [Ok(r#"{"a":1}"#.to_string()), Ok(r#"{"b":2}"#.to_string())]);
        assert_eq!(lines, 3);
    }

    #[test]
    fn framer_caps_the_full_line_however_it_arrives() {
        let long = vec![b'x'; DEFAULT_MAX_LINE + 100];
        let mut stream = long.clone();
        stream.extend_from_slice(b"\n{\"a\":1}\n");
        let want = [
            Err((DEFAULT_MAX_LINE + 100, OVERSIZED_LINE)),
            Ok(r#"{"a":1}"#.to_string()),
        ];
        // One slice, a split inside the long line, and a byte at a time.
        assert_eq!(frame(&[&stream]).0, want);
        assert_eq!(frame(&[&stream[..10], &stream[10..]]).0, want);
        let bytes: Vec<&[u8]> = stream.chunks(1).collect();
        assert_eq!(frame(&bytes).0, want);
        // A line of exactly the cap is kept.
        let fit = vec![b'y'; DEFAULT_MAX_LINE];
        let (spans, _) = frame(&[&fit[..1], &fit[1..], b"\n"]);
        assert!(matches!(&spans[..], [Ok(line)] if line.len() == DEFAULT_MAX_LINE));
        assert_eq!(OVERSIZED_LINE, format!("line exceeds the {DEFAULT_MAX_LINE}-byte cap"));
    }

    #[test]
    fn integer_writers_match_display() {
        let mut out = String::new();
        for n in [0u64, 1, 9, 10, 99, 100, 12_345, u64::MAX, 10_u64.pow(19)] {
            out.clear();
            write_u64(&mut out, n);
            assert_eq!(out, format!("{n}"));
        }
        for n in [0i64, -1, 1, -42, i64::MIN, i64::MAX, 9_007_199_254_740_992] {
            out.clear();
            write_i64(&mut out, n);
            assert_eq!(out, format!("{n}"));
        }
    }

    #[test]
    fn write_f64_matches_to_line_rendering() {
        for v in [
            0.0,
            -0.0,
            1.0,
            -17.0,
            1234.5,
            17.25,
            -0.5,
            1.0e-12,
            9.0e15,
            8.999e15,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
        ] {
            let mut fast = String::new();
            write_f64(&mut fast, v);
            let mut obj = JsonObject::new();
            obj.push_num("v", v);
            assert_eq!(format!("{{\"v\":{fast}}}"), obj.to_line(), "value {v}");
        }
    }

    #[test]
    fn linebuf_matches_jsonobject_to_line() {
        let mut obj = JsonObject::new();
        obj.push_str("event", "verdict")
            .push_str("tenant", "vm-α \"quoted\"\n")
            .push_num("seq", 12_345.0)
            .push_num("score", -0.125)
            .push_bool("alarm", true);
        let mut buf = LineBuf::new();
        buf.begin();
        for (k, v) in obj.entries() {
            buf.field_value(k, v);
        }
        assert_eq!(buf.end(), obj.to_line());
        // The buffer is reusable and begin() resets the separator state.
        buf.begin().field_u64("seq", 7);
        assert_eq!(buf.end(), r#"{"seq":7}"#);
    }

    #[test]
    fn borrowed_parser_accepts_clean_records() {
        match parse_record_borrowed(r#"{"tenant":"vm-0","access":1234,"miss":56}"#) {
            RawParse::Record(RawRecord { tenant, kind: RawKind::Sample { access, miss } }) => {
                assert_eq!(tenant, "vm-0");
                assert_eq!(access, 1234.0);
                assert_eq!(miss, 56.0);
            }
            other => panic!("expected sample, got {other:?}"),
        }
        match parse_record_borrowed(r#" { "tenant" : "vm-1" , "ctl" : "close" } "#) {
            RawParse::Record(RawRecord { tenant, kind: RawKind::Close }) => {
                assert_eq!(tenant, "vm-1");
            }
            other => panic!("expected close, got {other:?}"),
        }
        // Extra fields are ignored; duplicate keys are first-wins.
        match parse_record_borrowed(r#"{"tenant":"a","access":1,"miss":2,"access":9,"x":true}"#) {
            RawParse::Record(RawRecord { kind: RawKind::Sample { access, .. }, .. }) => {
                assert_eq!(access, 1.0);
            }
            other => panic!("expected sample, got {other:?}"),
        }
    }

    #[test]
    fn borrowed_parser_rejects_with_the_slow_path_reason() {
        for (line, want) in [
            ("", RecordError::Syntax),
            ("nope", RecordError::Syntax),
            (r#"{"tenant":"a","access":1,"miss":2} x"#, RecordError::Syntax),
            (r#"{"tenant":{"a":1}}"#, RecordError::Syntax),
            ("{}", RecordError::MissingTenant),
            (r#"{"tenant":7,"access":1,"miss":2}"#, RecordError::MissingTenant),
            (r#"{"tenant":"","access":1,"miss":2}"#, RecordError::EmptyTenant),
            (r#"{"tenant":"a","ctl":7}"#, RecordError::CtlNotString),
            (r#"{"tenant":"a","ctl":"open"}"#, RecordError::UnknownCtl),
            (r#"{"tenant":"a"}"#, RecordError::MissingAccess),
            (r#"{"tenant":"a","access":1}"#, RecordError::MissingMiss),
            (r#"{"tenant":"a","access":1e999,"miss":2}"#, RecordError::NonFinite),
        ] {
            assert_eq!(
                parse_record_borrowed(line),
                RawParse::Reject(want),
                "line {line:?}"
            );
        }
    }

    #[test]
    fn borrowed_parser_falls_back_on_escapes_in_protocol_strings() {
        // Escaped key: could decode to a protocol field name.
        let escaped_key = "{\"\\u0074enant\":\"a\",\"access\":1,\"miss\":2}";
        assert_eq!(parse_record_borrowed(escaped_key), RawParse::Fallback);
        // Escaped tenant value: the span is not the decoded value.
        assert_eq!(
            parse_record_borrowed(r#"{"tenant":"a\nb","access":1,"miss":2}"#),
            RawParse::Fallback
        );
        // Escaped ctl verb.
        let escaped_ctl = "{\"tenant\":\"a\",\"ctl\":\"clos\\u0065\"}";
        assert_eq!(parse_record_borrowed(escaped_ctl), RawParse::Fallback);
        // Escapes in an *ignored* string value decide nothing — still a
        // clean record.
        assert!(matches!(
            parse_record_borrowed(r#"{"tenant":"a","note":"x\ty","access":1,"miss":2}"#),
            RawParse::Record(_)
        ));
        // A malformed escape is a syntax error, not a fallback.
        assert_eq!(
            parse_record_borrowed(r#"{"tenant":"a\qb","access":1,"miss":2}"#),
            RawParse::Reject(RecordError::Syntax)
        );
    }

    #[test]
    fn framer_skips_invalid_utf8_and_keeps_both_sides() {
        let mut stream = br#"{"a":1}"#.to_vec();
        stream.push(0xFF);
        stream.extend_from_slice(br#"{"b":2}"#);
        stream.push(b'\n');
        let (spans, lines) = frame(&[&stream]);
        assert_eq!(
            spans,
            [
                Ok(r#"{"a":1}"#.to_string()),
                Err((1, INVALID_UTF8)),
                Ok(r#"{"b":2}"#.to_string()),
            ]
        );
        assert_eq!(lines, 1);
    }
}
