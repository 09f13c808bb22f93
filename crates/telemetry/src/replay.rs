//! Replay reader: parse a JSONL event log back into [`TimedEvent`]s.
//!
//! The inverse of [`crate::export::jsonl`], so recorded runs can be
//! analyzed offline (the `diagnostics` crate consumes either a live
//! [`crate::BufferRecorder`] or a replayed file). The parser handles the
//! flat one-object-per-line shape the exporter emits — string, integer,
//! float, and flat integer-array values with standard JSON string escapes —
//! and round-trips every event kind bit-exactly.
//!
//! Malformed input (truncated lines, bad escapes, nested values, seq
//! regressions) never panics: every failure surfaces as a [`ReplayError`]
//! carrying a typed [`ReplayErrorKind`] and the 1-based line number, so
//! tooling can distinguish a corrupt file from an unknown event
//! vocabulary.
//!
//! One parser, no fallback: a byte scanner over the input `&str` that both
//! [`parse_jsonl`] and [`parse_flat_object`] sink. Keys and escape-free
//! strings are borrowed from the input, only strings with escapes
//! allocate, and numbers parse straight from their slice. [`parse_jsonl`]
//! reuses one field buffer across lines (duplicate keys and field lookups
//! are linear scans over it), so replaying a log allocates per event only
//! for the values an event owns: a `scenario` name and a `job_path`'s
//! links. Error positions are counted in chars of the trimmed line, and
//! only when an error is built; whitespace between tokens is anything
//! `char::is_whitespace` accepts.

use crate::event::{CcState, Event, Phase, SpanKind, TimedEvent};
use simtime::Time;
use std::borrow::Cow;
use std::collections::BTreeMap;

/// The category of a replay failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ReplayErrorKind {
    /// Structurally broken JSON: missing braces, colons, commas, trailing
    /// garbage, or an unsupported scalar (`true`, `null`, …).
    Syntax,
    /// A string literal ran off the end of the line.
    UnterminatedString,
    /// A malformed `\` escape inside a string literal.
    BadEscape,
    /// A value position that did not parse as a JSON number.
    BadNumber,
    /// A nested object — the exporters only ever emit flat objects.
    NonFlatValue,
    /// An array containing anything but unsigned integers.
    BadArray,
    /// A required event field is absent.
    MissingField,
    /// A field is present but has the wrong type, range, or vocabulary.
    BadField,
    /// An event `type` outside the known vocabulary.
    UnknownEventType,
    /// A `seq` field that is not a non-negative integer or does not
    /// increase monotonically over the stream.
    BadSeq,
    /// A span event that breaks per-job nesting: an end with no matching
    /// open span, an interleaved end, or a begin in an illegal position
    /// (a phase span outside its iteration, or a nested iteration).
    BadSpan,
}

impl ReplayErrorKind {
    pub fn label(self) -> &'static str {
        match self {
            ReplayErrorKind::Syntax => "syntax",
            ReplayErrorKind::UnterminatedString => "unterminated_string",
            ReplayErrorKind::BadEscape => "bad_escape",
            ReplayErrorKind::BadNumber => "bad_number",
            ReplayErrorKind::NonFlatValue => "non_flat_value",
            ReplayErrorKind::BadArray => "bad_array",
            ReplayErrorKind::MissingField => "missing_field",
            ReplayErrorKind::BadField => "bad_field",
            ReplayErrorKind::UnknownEventType => "unknown_event_type",
            ReplayErrorKind::BadSeq => "bad_seq",
            ReplayErrorKind::BadSpan => "bad_span",
        }
    }
}

/// Why a JSONL line could not be replayed.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// The failure category.
    pub kind: ReplayErrorKind,
    /// What went wrong.
    pub reason: String,
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "replay: line {} [{}]: {}",
            self.line,
            self.kind.label(),
            self.reason
        )
    }
}

impl std::error::Error for ReplayError {}

/// A line-local parse failure, before it is attributed to a line number.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub kind: ReplayErrorKind,
    pub reason: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.reason)
    }
}

impl std::error::Error for ParseError {}

fn perr(kind: ReplayErrorKind, reason: impl Into<String>) -> ParseError {
    ParseError {
        kind,
        reason: reason.into(),
    }
}

/// One parsed JSON scalar (or flat integer array) value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A JSON string, unescaped.
    Str(String),
    /// Any JSON number.
    Num(f64),
    /// A flat array of unsigned integers (the only array the exporter
    /// emits, for `job_path.links`).
    UInts(Vec<u32>),
}

impl JsonValue {
    /// The value as a non-negative integer fitting u64, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) => num_as_u64(*n),
            _ => None,
        }
    }
}

fn num_as_u64(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64).then_some(n as u64)
}

/// A scanned value borrowing from its line: the zero-copy twin of
/// [`JsonValue`]. Strings allocate only when they contain escapes.
enum Value<'a> {
    Str(Cow<'a, str>),
    Num(f64),
    UInts(Vec<u32>),
}

impl Value<'_> {
    fn into_owned(self) -> JsonValue {
        match self {
            Value::Str(s) => JsonValue::Str(s.into_owned()),
            Value::Num(n) => JsonValue::Num(n),
            Value::UInts(v) => JsonValue::UInts(v),
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) => num_as_u64(*n),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// One object's fields in line order. Keys are unique (the scanner
/// rejects duplicates), so a linear lookup finds the only match.
type Fields<'a> = Vec<(Cow<'a, str>, Value<'a>)>;

/// Moves a field's value out of the line's fields.
fn take<'a>(fields: &mut Fields<'a>, name: &str) -> Option<Value<'a>> {
    let i = fields.iter().position(|(k, _)| k == name)?;
    Some(fields.swap_remove(i).1)
}

fn lookup<'f, 'a>(fields: &'f [(Cow<'a, str>, Value<'a>)], name: &str) -> Option<&'f Value<'a>> {
    fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

/// Parses one flat JSON object (`{"k":v,...}`) into a key→value map.
///
/// Supports the subset this workspace's exporters emit: string values with
/// escapes, numbers, and flat arrays of unsigned integers. Exposed because
/// the summary/diff/history tooling reads the same shape. Rejects nested
/// objects, duplicate keys, and trailing garbage with a typed error.
pub fn parse_flat_object(line: &str) -> Result<BTreeMap<String, JsonValue>, ParseError> {
    let mut fields = Vec::new();
    scan_object(line.trim(), &mut fields)?;
    Ok(fields
        .into_iter()
        .map(|(k, v)| (k.into_owned(), v.into_owned()))
        .collect())
}

/// Scans one trimmed flat object into `fields` (cleared first). The one
/// JSON parser of the crate: [`parse_flat_object`] and [`parse_jsonl`]
/// both sink its output.
fn scan_object<'a>(line: &'a str, fields: &mut Fields<'a>) -> Result<(), ParseError> {
    fields.clear();
    let mut s = Scanner { line, pos: 0 };
    if s.peek() != Some(b'{') {
        return Err(s.syntax("expected '{'"));
    }
    s.pos += 1;
    loop {
        s.skip_ws();
        if s.peek() == Some(b'}') {
            return s.finish();
        }
        let key = s.string()?;
        s.skip_ws();
        if s.peek() != Some(b':') {
            return Err(s.syntax("expected ':'"));
        }
        s.pos += 1;
        s.skip_ws();
        let val = s.value()?;
        if lookup(fields, &key).is_some() {
            return Err(perr(
                ReplayErrorKind::Syntax,
                format!("duplicate key {key:?}"),
            ));
        }
        fields.push((key, val));
        s.skip_ws();
        match s.peek() {
            Some(b',') => s.pos += 1,
            Some(b'}') => return s.finish(),
            _ => return Err(s.syntax("expected ',' or '}'")),
        }
    }
}

/// A byte cursor over one trimmed line. `pos` is a byte offset that
/// always sits on a char boundary; error messages report positions in
/// chars, counted only when an error is built.
struct Scanner<'a> {
    line: &'a str,
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn peek(&self) -> Option<u8> {
        self.line.as_bytes().get(self.pos).copied()
    }

    fn peek_char(&self) -> Option<char> {
        self.line[self.pos..].chars().next()
    }

    /// The char index of byte offset `at`.
    fn char_at(&self, at: usize) -> usize {
        self.line[..at].chars().count()
    }

    /// A syntax error at the cursor.
    fn syntax(&self, msg: &str) -> ParseError {
        perr(
            ReplayErrorKind::Syntax,
            format!("{msg} at char {}", self.char_at(self.pos)),
        )
    }

    /// Skips Unicode whitespace (`char::is_whitespace`). The exporter
    /// writes none, so the common case is one inlined byte test; chars are
    /// decoded only at whitespace or a non-ASCII byte.
    #[inline]
    fn skip_ws(&mut self) {
        if self.peek().is_some_and(|b| b > b' ' && b.is_ascii()) {
            return;
        }
        self.skip_ws_slow()
    }

    fn skip_ws_slow(&mut self) {
        while let Some(c) = self.peek_char().filter(|c| c.is_whitespace()) {
            self.pos += c.len_utf8();
        }
    }

    fn finish(&mut self) -> Result<(), ParseError> {
        self.pos += 1;
        self.skip_ws();
        if self.pos < self.line.len() {
            return Err(self.syntax("trailing characters after object"));
        }
        Ok(())
    }

    /// A string literal, borrowed from the line unless it has escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        if self.peek() != Some(b'"') {
            return Err(self.syntax("expected '\"'"));
        }
        self.pos += 1;
        let start = self.pos;
        // '"' and '\' never occur inside a multi-byte UTF-8 sequence, so a
        // byte search stops on char boundaries only.
        let run = |from: usize| {
            self.line.as_bytes()[from..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .map_or(self.line.len(), |n| from + n)
        };
        self.pos = run(start);
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.line[start..self.pos - 1]));
        }
        let mut out = String::from(&self.line[start..self.pos]);
        while let Some(b) = self.peek() {
            self.pos += 1;
            match b {
                b'"' => return Ok(Cow::Owned(out)),
                b'\\' => self.escape(&mut out)?,
                _ => {
                    let from = self.pos - 1;
                    self.pos = run(from);
                    out.push_str(&self.line[from..self.pos]);
                }
            }
        }
        Err(perr(
            ReplayErrorKind::UnterminatedString,
            "unterminated string",
        ))
    }

    /// One escape sequence, the `\` already consumed.
    fn escape(&mut self, out: &mut String) -> Result<(), ParseError> {
        let esc = self
            .peek_char()
            .ok_or_else(|| perr(ReplayErrorKind::BadEscape, "dangling escape"))?;
        self.pos += esc.len_utf8();
        match esc {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            '/' => out.push('/'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'u' => {
                // Four chars, not four bytes: a multi-byte char among them
                // is a bad digit, not a short escape.
                let rest = &self.line[self.pos..];
                let len = rest
                    .char_indices()
                    .map(|(i, _)| i)
                    .chain([rest.len()])
                    .nth(4)
                    .ok_or_else(|| perr(ReplayErrorKind::BadEscape, "short \\u escape"))?;
                let hex = &rest[..len];
                self.pos += len;
                let cp = u32::from_str_radix(hex, 16).map_err(|_| {
                    perr(
                        ReplayErrorKind::BadEscape,
                        format!("bad \\u digits {hex:?}"),
                    )
                })?;
                out.push(char::from_u32(cp).ok_or_else(|| {
                    perr(
                        ReplayErrorKind::BadEscape,
                        format!("bad \\u codepoint {cp:#x}"),
                    )
                })?);
            }
            other => {
                return Err(perr(
                    ReplayErrorKind::BadEscape,
                    format!("unknown escape \\{other}"),
                ))
            }
        }
        Ok(())
    }

    fn value(&mut self) -> Result<Value<'a>, ParseError> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'{') => Err(perr(
                ReplayErrorKind::NonFlatValue,
                "nested object where a flat value was expected",
            )),
            Some(b'[') => {
                self.pos += 1;
                let mut out = Vec::new();
                loop {
                    self.skip_ws();
                    match self.peek() {
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::UInts(out));
                        }
                        Some(b',') => self.pos += 1,
                        Some(_) => {
                            let n = self.number()?;
                            if n < 0.0 || n.fract() != 0.0 || n > f64::from(u32::MAX) {
                                return Err(perr(
                                    ReplayErrorKind::BadArray,
                                    "array element is not an unsigned integer",
                                ));
                            }
                            out.push(n as u32);
                        }
                        None => {
                            return Err(perr(ReplayErrorKind::BadArray, "unterminated array"));
                        }
                    }
                }
            }
            Some(b) if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.') => {
                self.number().map(Value::Num)
            }
            Some(_) => Err(perr(
                ReplayErrorKind::Syntax,
                format!(
                    "unsupported value starting with {:?}",
                    self.peek_char()
                        .expect("a char starts at every peeked byte")
                ),
            )),
            None => Err(perr(ReplayErrorKind::Syntax, "missing value")),
        }
    }

    /// The longest run of number characters, parsed in place. Up to 15
    /// plain digits are summed as an integer: below 2^53, so the f64 is
    /// exactly what `str::parse` would return.
    fn number(&mut self) -> Result<f64, ParseError> {
        let start = self.pos;
        let bytes = &self.line.as_bytes()[start..];
        let len = bytes
            .iter()
            .position(|&b| !(b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')))
            .unwrap_or(bytes.len());
        self.pos += len;
        let s = &self.line[start..self.pos];
        if (1..=15).contains(&len) && s.bytes().all(|b| b.is_ascii_digit()) {
            return Ok(s.bytes().fold(0u64, |n, b| n * 10 + u64::from(b - b'0')) as f64);
        }
        match s.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(n),
            _ => Err(perr(
                ReplayErrorKind::BadNumber,
                format!("bad number {s:?} at char {}", self.char_at(start)),
            )),
        }
    }
}

fn phase_from(label: &str) -> Option<Phase> {
    match label {
        "compute" => Some(Phase::Compute),
        "communicate" => Some(Phase::Communicate),
        _ => None,
    }
}

fn span_kind_from(label: &str) -> Option<SpanKind> {
    match label {
        "iteration" => Some(SpanKind::Iteration),
        "compute" => Some(SpanKind::Compute),
        "communicate" => Some(SpanKind::Communicate),
        _ => None,
    }
}

fn cc_state_from(label: &str) -> Option<CcState> {
    Some(match label {
        "restart" => CcState::Restart,
        "cut" => CcState::Cut,
        "fast_recovery" => CcState::FastRecovery,
        "additive_increase" => CcState::AdditiveIncrease,
        "hyper_increase" => CcState::HyperIncrease,
        "alloc" => CcState::Alloc,
        "delay" => CcState::Delay,
        _ => return None,
    })
}

/// Builds the event one scanned line describes. The line's owned values
/// (a `job_path`'s links, an escaped scenario name) move into the event.
fn event_from(
    fields: &mut Fields<'_>,
    components: &mut Components,
) -> Result<TimedEvent, ParseError> {
    let missing = |name: &str| {
        perr(
            ReplayErrorKind::MissingField,
            format!("missing field {name:?}"),
        )
    };
    let field = |name: &str| -> Result<&Value, ParseError> {
        lookup(fields, name).ok_or_else(|| missing(name))
    };
    let bad = |name: &str| perr(ReplayErrorKind::BadField, format!("invalid field {name:?}"));
    let u32_field = |name: &str| -> Result<u32, ParseError> {
        let v = field(name)?.as_u64().ok_or_else(|| bad(name))?;
        u32::try_from(v).map_err(|_| bad(name))
    };
    let u64_field =
        |name: &str| -> Result<u64, ParseError> { field(name)?.as_u64().ok_or_else(|| bad(name)) };
    let f64_field =
        |name: &str| -> Result<f64, ParseError> { field(name)?.as_f64().ok_or_else(|| bad(name)) };
    let str_field =
        |name: &str| -> Result<&str, ParseError> { field(name)?.as_str().ok_or_else(|| bad(name)) };
    let t_ns = u64_field("t_ns")?;
    let kind = str_field("type")?;
    let event = match kind {
        "queue_depth" => Event::QueueDepth {
            link: u32_field("link")?,
            bytes: f64_field("bytes")?,
        },
        "ecn_mark" => Event::EcnMark {
            flow: u32_field("flow")?,
        },
        "cnp_sent" => Event::CnpSent {
            flow: u32_field("flow")?,
        },
        "cnp_received" => Event::CnpReceived {
            flow: u32_field("flow")?,
        },
        "rate_change" => Event::RateChange {
            flow: u32_field("flow")?,
            bps: f64_field("bps")?,
            state: cc_state_from(str_field("state")?).ok_or_else(|| {
                perr(
                    ReplayErrorKind::BadField,
                    format!("unknown cc state {:?}", str_field("state")),
                )
            })?,
        },
        "phase_enter" | "phase_exit" => {
            let job = u32_field("job")?;
            let phase = phase_from(str_field("phase")?).ok_or_else(|| {
                perr(
                    ReplayErrorKind::BadField,
                    format!("unknown phase {:?}", str_field("phase")),
                )
            })?;
            let iteration = u64_field("iteration")?;
            if kind == "phase_enter" {
                Event::PhaseEnter {
                    job,
                    phase,
                    iteration,
                }
            } else {
                Event::PhaseExit {
                    job,
                    phase,
                    iteration,
                }
            }
        }
        "solver_iteration" => Event::SolverIteration {
            component: components.intern(str_field("component")?),
            index: u64_field("index")?,
        },
        "gate_release" => Event::GateRelease {
            job: u32_field("job")?,
        },
        "scenario" => Event::Scenario {
            name: match take(fields, "name") {
                Some(Value::Str(name)) => name.into_owned(),
                Some(_) => return Err(bad("name")),
                None => return Err(missing("name")),
            },
        },
        "job_path" => Event::JobPath {
            job: u32_field("job")?,
            links: match take(fields, "links") {
                Some(Value::UInts(v)) => v,
                Some(_) => return Err(bad("links")),
                None => return Err(missing("links")),
            },
        },
        "link_capacity" => Event::LinkCapacity {
            link: u32_field("link")?,
            fraction: f64_field("fraction")?,
        },
        "job_depart" => Event::JobDepart {
            job: u32_field("job")?,
        },
        // `id`/`parent` on span lines are derived fields the exporter adds
        // for viewers; identity is (job, kind, iteration), so they are
        // ignored here and round-trips stay exact.
        "span_begin" | "span_end" => {
            let job = u32_field("job")?;
            let skind = span_kind_from(str_field("kind")?).ok_or_else(|| {
                perr(
                    ReplayErrorKind::BadField,
                    format!("unknown span kind {:?}", str_field("kind")),
                )
            })?;
            let iteration = u64_field("iteration")?;
            if kind == "span_begin" {
                Event::SpanBegin {
                    job,
                    kind: skind,
                    iteration,
                }
            } else {
                Event::SpanEnd {
                    job,
                    kind: skind,
                    iteration,
                }
            }
        }
        other => {
            return Err(perr(
                ReplayErrorKind::UnknownEventType,
                format!("unknown event type {other:?}"),
            ))
        }
    };
    Ok(TimedEvent {
        at: Time::from_nanos(t_ns),
        event,
    })
}

/// Maps replayed component names back to `&'static str`.
///
/// Known engine/component names return their static interning; an
/// unknown name is leaked once and reused for every later line that
/// carries it, so the leak is bounded by the distinct names in a file.
#[derive(Default)]
struct Components {
    leaked: Vec<&'static str>,
}

impl Components {
    fn intern(&mut self, name: &str) -> &'static str {
        const KNOWN: &[&str] = &[
            "netsim.rate",
            "netsim.fluid",
            "netsim.packet",
            "fluid.alloc",
            "scheduler.solve",
            "scheduler.place",
        ];
        if let Some(k) = KNOWN.iter().chain(&self.leaked).find(|k| **k == name) {
            return k;
        }
        let k: &'static str = Box::leak(name.into());
        self.leaked.push(k);
        k
    }
}

/// Parses a JSONL event log (the output of [`crate::export::jsonl`]).
///
/// Empty lines are skipped; any malformed line aborts with a
/// [`ReplayError`] naming the line and the failure kind. Lines may carry a
/// `seq` field (the exporter has emitted one per event since it grew
/// sequence numbers); when present it must increase strictly
/// monotonically, which catches truncated-and-reglued logs.
pub fn parse_jsonl(text: &str) -> Result<Vec<TimedEvent>, ReplayError> {
    // Counted in u8 lanes, 255 bytes at a time: a plain `filter().count()`
    // costs as much as a tenth of the whole replay.
    let lines = text
        .as_bytes()
        .chunks(255)
        .map(|c| usize::from(c.iter().map(|&b| u8::from(b == b'\n')).sum::<u8>()))
        .sum::<usize>()
        + 1;
    let mut out = Vec::with_capacity(lines);
    let mut fields = Fields::with_capacity(16);
    let mut last_seq: Option<u64> = None;
    let mut spans = SpanNesting::default();
    let mut components = Components::default();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let attribute = |e: ParseError| ReplayError {
            line: idx + 1,
            kind: e.kind,
            reason: e.reason,
        };
        scan_object(line, &mut fields).map_err(attribute)?;
        if let Some(v) = lookup(&fields, "seq") {
            let seq = v.as_u64().ok_or_else(|| ReplayError {
                line: idx + 1,
                kind: ReplayErrorKind::BadSeq,
                reason: "seq must be a non-negative integer".to_string(),
            })?;
            if let Some(prev) = last_seq {
                if seq <= prev {
                    return Err(ReplayError {
                        line: idx + 1,
                        kind: ReplayErrorKind::BadSeq,
                        reason: format!("seq {seq} does not increase past {prev}"),
                    });
                }
            }
            last_seq = Some(seq);
        }
        let te = event_from(&mut fields, &mut components).map_err(attribute)?;
        spans.check(&te.event).map_err(attribute)?;
        out.push(te);
    }
    Ok(out)
}

/// Streaming validator for span well-formedness: per-job LIFO stacks of
/// open spans, reset at every `Scenario` marker (scenarios are recorded
/// independently, so spans never cross them). Rejects orphan or
/// interleaved `span_end`s and begins in illegal positions; spans still
/// open when the stream ends are fine (truncated recordings are normal).
#[derive(Default)]
struct SpanNesting {
    open: BTreeMap<u32, Vec<(SpanKind, u64)>>,
}

impl SpanNesting {
    fn check(&mut self, event: &Event) -> Result<(), ParseError> {
        let bad = |reason: String| perr(ReplayErrorKind::BadSpan, reason);
        match event {
            // Emptying the stacks rather than the map keeps their
            // allocations for the next scenario.
            Event::Scenario { .. } => self.open.values_mut().for_each(Vec::clear),
            Event::SpanBegin {
                job,
                kind,
                iteration,
            } => {
                let stack = self.open.entry(*job).or_default();
                match (kind, stack.last()) {
                    (SpanKind::Iteration, None) => {}
                    (SpanKind::Iteration, Some(&(k, i))) => {
                        return Err(bad(format!(
                            "iteration span for job {job} opens inside open {} span \
                             of iteration {i}",
                            k.label()
                        )))
                    }
                    (_, Some(&(SpanKind::Iteration, i))) if i == *iteration => {}
                    (k, top) => {
                        return Err(bad(format!(
                            "{} span begin for job {job} iteration {iteration} \
                             outside its iteration span (innermost open: {})",
                            k.label(),
                            top.map_or("none".to_string(), |&(k, i)| format!(
                                "{} span of iteration {i}",
                                k.label()
                            ))
                        )))
                    }
                }
                stack.push((*kind, *iteration));
            }
            Event::SpanEnd {
                job,
                kind,
                iteration,
            } => {
                let stack = self.open.entry(*job).or_default();
                match stack.last() {
                    Some(&(k, i)) if k == *kind && i == *iteration => {
                        stack.pop();
                    }
                    Some(&(k, i)) => {
                        return Err(bad(format!(
                            "span end ({} of iteration {iteration}) for job {job} does \
                             not match innermost open span ({} of iteration {i})",
                            kind.label(),
                            k.label()
                        )))
                    }
                    None => {
                        return Err(bad(format!(
                            "orphan span end ({} of iteration {iteration}) for job {job} \
                             with no open span",
                            kind.label()
                        )))
                    }
                }
            }
            _ => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::jsonl;
    use simtime::Time;

    fn sample() -> Vec<TimedEvent> {
        let t = Time::from_nanos;
        vec![
            TimedEvent {
                at: t(0),
                event: Event::Scenario {
                    name: "fig1/\"fair\"\n".into(),
                },
            },
            TimedEvent {
                at: t(0),
                event: Event::JobPath {
                    job: 0,
                    links: vec![0, 3, 7],
                },
            },
            TimedEvent {
                at: t(5),
                event: Event::PhaseEnter {
                    job: 0,
                    phase: Phase::Compute,
                    iteration: 0,
                },
            },
            TimedEvent {
                at: t(1_500),
                event: Event::QueueDepth {
                    link: 0,
                    bytes: 1234.5,
                },
            },
            TimedEvent {
                at: t(2_000),
                event: Event::EcnMark { flow: 1 },
            },
            TimedEvent {
                at: t(2_000),
                event: Event::CnpSent { flow: 1 },
            },
            TimedEvent {
                at: t(2_001),
                event: Event::CnpReceived { flow: 1 },
            },
            TimedEvent {
                at: t(2_001),
                event: Event::RateChange {
                    flow: 1,
                    bps: 12.5e9,
                    state: CcState::Cut,
                },
            },
            TimedEvent {
                at: t(3_000),
                event: Event::SolverIteration {
                    component: "netsim.fluid",
                    index: 4,
                },
            },
            TimedEvent {
                at: t(3_500),
                event: Event::GateRelease { job: 1 },
            },
            TimedEvent {
                at: t(4_000),
                event: Event::PhaseExit {
                    job: 0,
                    phase: Phase::Compute,
                    iteration: 0,
                },
            },
            TimedEvent {
                at: t(4_200),
                event: Event::LinkCapacity {
                    link: 0,
                    fraction: 0.25,
                },
            },
            TimedEvent {
                at: t(4_500),
                event: Event::JobDepart { job: 1 },
            },
        ]
    }

    #[test]
    fn jsonl_round_trips_every_event_kind() {
        let events = sample();
        let text = jsonl(&events);
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(events, back);
    }

    #[test]
    fn round_trip_is_a_fixed_point() {
        let text = jsonl(&sample());
        let text2 = jsonl(&parse_jsonl(&text).unwrap());
        assert_eq!(text, text2);
    }

    #[test]
    fn malformed_lines_report_position_and_kind() {
        let err = parse_jsonl("{\"t_ns\":0,\"type\":\"scenario\",\"name\":\"x\"}\nnot json\n")
            .unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.kind, ReplayErrorKind::Syntax);
        let err = parse_jsonl("{\"t_ns\":0,\"type\":\"warp_drive\"}\n").unwrap_err();
        assert_eq!(err.kind, ReplayErrorKind::UnknownEventType);
        assert!(err.reason.contains("warp_drive"), "{err}");
    }

    #[test]
    fn typed_kinds_for_each_malformation() {
        let cases: &[(&str, ReplayErrorKind)] = &[
            // Truncated mid-string.
            (
                "{\"t_ns\":0,\"type\":\"scena",
                ReplayErrorKind::UnterminatedString,
            ),
            // Bad escape.
            (
                "{\"t_ns\":0,\"type\":\"scenario\",\"name\":\"\\q\"}",
                ReplayErrorKind::BadEscape,
            ),
            // Short \u escape at end of line.
            (
                "{\"t_ns\":0,\"type\":\"scenario\",\"name\":\"\\u00",
                ReplayErrorKind::BadEscape,
            ),
            // Nested object value.
            (
                "{\"t_ns\":0,\"type\":\"scenario\",\"name\":{\"x\":1}}",
                ReplayErrorKind::NonFlatValue,
            ),
            // Unsupported scalar.
            ("{\"t_ns\":0,\"flag\":true}", ReplayErrorKind::Syntax),
            // Bad number.
            (
                "{\"t_ns\":0,\"type\":\"ecn_mark\",\"flow\":1e}",
                ReplayErrorKind::BadNumber,
            ),
            // Array with a float element.
            (
                "{\"t_ns\":0,\"type\":\"job_path\",\"job\":0,\"links\":[1.5]}",
                ReplayErrorKind::BadArray,
            ),
            // Unterminated array.
            (
                "{\"t_ns\":0,\"type\":\"job_path\",\"job\":0,\"links\":[1,",
                ReplayErrorKind::BadArray,
            ),
            // Missing required field.
            (
                "{\"t_ns\":0,\"type\":\"ecn_mark\"}",
                ReplayErrorKind::MissingField,
            ),
            // Field with the wrong type.
            (
                "{\"t_ns\":0,\"type\":\"ecn_mark\",\"flow\":\"zero\"}",
                ReplayErrorKind::BadField,
            ),
            // Flow index beyond u32.
            (
                "{\"t_ns\":0,\"type\":\"ecn_mark\",\"flow\":4294967296}",
                ReplayErrorKind::BadField,
            ),
            // Duplicate key.
            (
                "{\"t_ns\":0,\"t_ns\":1,\"type\":\"ecn_mark\",\"flow\":0}",
                ReplayErrorKind::Syntax,
            ),
            // Trailing garbage.
            (
                "{\"t_ns\":0,\"type\":\"ecn_mark\",\"flow\":0} extra",
                ReplayErrorKind::Syntax,
            ),
            // Non-integer seq.
            (
                "{\"seq\":1.5,\"t_ns\":0,\"type\":\"ecn_mark\",\"flow\":0}",
                ReplayErrorKind::BadSeq,
            ),
        ];
        for (text, want) in cases {
            let err = parse_jsonl(text).unwrap_err();
            assert_eq!(err.kind, *want, "input {text:?} gave {err}");
        }
    }

    #[test]
    fn span_events_round_trip_with_derived_ids_ignored() {
        let t = Time::from_nanos;
        let span = |at, kind, iteration, begin| TimedEvent {
            at: t(at),
            event: if begin {
                Event::SpanBegin {
                    job: 0,
                    kind,
                    iteration,
                }
            } else {
                Event::SpanEnd {
                    job: 0,
                    kind,
                    iteration,
                }
            },
        };
        let events = vec![
            span(0, SpanKind::Iteration, 0, true),
            span(0, SpanKind::Compute, 0, true),
            span(9, SpanKind::Compute, 0, false),
            span(9, SpanKind::Communicate, 0, true),
            span(20, SpanKind::Communicate, 0, false),
            span(20, SpanKind::Iteration, 0, false),
            // A dangling open at stream end is fine.
            span(20, SpanKind::Iteration, 1, true),
        ];
        let text = jsonl(&events);
        assert!(text.contains("\"id\":"), "exporter adds derived ids");
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(events, back);
        assert_eq!(text, jsonl(&back), "fixed point despite derived fields");
    }

    #[test]
    fn mangled_span_streams_are_rejected() {
        let line = |t_ns: u64, ty: &str, kind: &str, job: u32, iter: u64| {
            format!("{{\"t_ns\":{t_ns},\"type\":\"{ty}\",\"job\":{job},\"kind\":\"{kind}\",\"iteration\":{iter}}}\n")
        };
        // Orphan end.
        let err = parse_jsonl(&line(0, "span_end", "compute", 0, 0)).unwrap_err();
        assert_eq!(err.kind, ReplayErrorKind::BadSpan);
        assert!(err.reason.contains("orphan"), "{err}");
        // Interleaved: compute span closed by the iteration's end.
        let text = line(0, "span_begin", "iteration", 0, 0)
            + &line(0, "span_begin", "compute", 0, 0)
            + &line(5, "span_end", "iteration", 0, 0);
        let err = parse_jsonl(&text).unwrap_err();
        assert_eq!(err.kind, ReplayErrorKind::BadSpan);
        assert_eq!(err.line, 3);
        // Phase span outside any iteration span.
        let err = parse_jsonl(&line(0, "span_begin", "communicate", 0, 0)).unwrap_err();
        assert_eq!(err.kind, ReplayErrorKind::BadSpan);
        // Phase span under the wrong iteration.
        let text =
            line(0, "span_begin", "iteration", 0, 0) + &line(1, "span_begin", "compute", 0, 3);
        let err = parse_jsonl(&text).unwrap_err();
        assert_eq!(err.kind, ReplayErrorKind::BadSpan);
        // Nested iteration span.
        let text =
            line(0, "span_begin", "iteration", 0, 0) + &line(1, "span_begin", "iteration", 0, 1);
        let err = parse_jsonl(&text).unwrap_err();
        assert_eq!(err.kind, ReplayErrorKind::BadSpan);
        // Unknown span kind is a field error, not a nesting error.
        let err = parse_jsonl(&line(0, "span_begin", "warp", 0, 0)).unwrap_err();
        assert_eq!(err.kind, ReplayErrorKind::BadField);
        // Jobs nest independently, and a scenario marker resets the stacks.
        let ok = line(0, "span_begin", "iteration", 0, 0)
            + &line(0, "span_begin", "iteration", 1, 0)
            + &line(1, "span_begin", "compute", 1, 0)
            + "{\"t_ns\":2,\"type\":\"scenario\",\"name\":\"next\"}\n"
            + &line(3, "span_begin", "iteration", 1, 0);
        assert_eq!(parse_jsonl(&ok).unwrap().len(), 5);
    }

    #[test]
    fn seq_must_increase_monotonically() {
        let ok = "{\"seq\":0,\"t_ns\":0,\"type\":\"ecn_mark\",\"flow\":0}\n\
                  {\"seq\":4,\"t_ns\":1,\"type\":\"ecn_mark\",\"flow\":1}\n";
        assert_eq!(parse_jsonl(ok).unwrap().len(), 2);
        let dup = "{\"seq\":3,\"t_ns\":0,\"type\":\"ecn_mark\",\"flow\":0}\n\
                   {\"seq\":3,\"t_ns\":1,\"type\":\"ecn_mark\",\"flow\":1}\n";
        let err = parse_jsonl(dup).unwrap_err();
        assert_eq!(err.kind, ReplayErrorKind::BadSeq);
        assert_eq!(err.line, 2);
    }

    #[test]
    fn empty_lines_are_skipped() {
        let parsed = parse_jsonl("\n\n{\"t_ns\":7,\"type\":\"ecn_mark\",\"flow\":2}\n\n").unwrap();
        assert_eq!(
            parsed,
            vec![TimedEvent {
                at: Time::from_nanos(7),
                event: Event::EcnMark { flow: 2 }
            }]
        );
    }

    #[test]
    fn flat_object_parser_handles_escapes_and_arrays() {
        let m = parse_flat_object(r#"{"a":"x\"y","b":2.5,"c":[1,2,3]}"#).unwrap();
        assert_eq!(m["a"], JsonValue::Str("x\"y".into()));
        assert_eq!(m["b"], JsonValue::Num(2.5));
        assert_eq!(m["c"], JsonValue::UInts(vec![1, 2, 3]));
    }

    #[test]
    fn unknown_components_are_interned_once_per_replay() {
        let text: String = (0..1_000)
            .map(|i| {
                format!(
                    "{{\"t_ns\":{i},\"type\":\"solver_iteration\",\
                     \"component\":\"custom.solver\",\"index\":{i}}}\n"
                )
            })
            .collect();
        let names: Vec<&'static str> = parse_jsonl(&text)
            .unwrap()
            .into_iter()
            .map(|te| match te.event {
                Event::SolverIteration { component, .. } => component,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(names.len(), 1_000);
        assert_eq!(names[0], "custom.solver");
        assert!(names.iter().all(|n| std::ptr::eq(*n, names[0])));
    }

    #[test]
    fn event_accessors_cover_indices() {
        assert_eq!(Event::EcnMark { flow: 3 }.flow(), Some(3));
        assert_eq!(Event::GateRelease { job: 2 }.job(), Some(2));
        assert_eq!(Event::EcnMark { flow: 3 }.job(), Some(3));
        assert_eq!(
            Event::Scenario { name: "x".into() }.job(),
            None,
            "scenario markers are not job-scoped"
        );
        assert_eq!(
            Event::JobPath {
                job: 1,
                links: vec![0]
            }
            .job(),
            Some(1)
        );
    }
}
