//! Property tests hardening `telemetry::parse_jsonl` (satellite of the
//! observability PR): arbitrary event streams round-trip exactly, and
//! arbitrarily mangled exports — truncated mid-line, flipped characters,
//! injected junk, duplicated lines — always produce a typed
//! `ReplayError`, never a panic. The flight-recorder dump and `--alerts`
//! context share this exporter/parser pair, so its totality is what lets
//! `mlcc-repro report` ingest any file a crashed run left behind.
//!
//! The library's byte scanner is also checked differentially against the
//! char-based parser it replaced (`oracle` below): on every mangled
//! stream, both must return the same events or the same error.

use proptest::prelude::*;
use telemetry::export::jsonl;
use telemetry::replay::{parse_flat_object, ReplayErrorKind};
use telemetry::{parse_jsonl, CcState, Event, Phase, TimedEvent};

/// Deterministically decodes three random words into one event, covering
/// every `Event` variant including string-carrying and array-carrying
/// ones (scenario names get quotes/backslashes to exercise escaping).
fn event_from(tag: u64, a: u64, b: u64) -> Event {
    let flow = (a % 17) as u32;
    let job = (a % 5) as u32;
    match tag % 13 {
        0 => Event::QueueDepth {
            link: flow,
            bytes: (b % 1_000_000) as f64 + 0.5,
        },
        1 => Event::EcnMark { flow },
        2 => Event::CnpSent { flow },
        3 => Event::CnpReceived { flow },
        4 => Event::RateChange {
            flow,
            bps: (b % 100) as f64 * 1e9 + 1.0,
            state: match b % 7 {
                0 => CcState::Restart,
                1 => CcState::Cut,
                2 => CcState::FastRecovery,
                3 => CcState::AdditiveIncrease,
                4 => CcState::HyperIncrease,
                5 => CcState::Alloc,
                _ => CcState::Delay,
            },
        },
        5 => Event::PhaseEnter {
            job,
            phase: if b.is_multiple_of(2) {
                Phase::Compute
            } else {
                Phase::Communicate
            },
            iteration: b % 1000,
        },
        6 => Event::PhaseExit {
            job,
            phase: if b.is_multiple_of(2) {
                Phase::Compute
            } else {
                Phase::Communicate
            },
            iteration: b % 1000,
        },
        7 => Event::SolverIteration {
            component: "fluid",
            index: b,
        },
        8 => Event::GateRelease { job },
        // Escapes, multi-byte chars and a control char (exported as a
        // `\u` escape).
        9 => Event::Scenario {
            name: format!(
                "{}-{}",
                ["sc\\en\"ario", "fig1/é✓ñ", "t\tab\u{1}"][(b % 3) as usize],
                b % 4
            ),
        },
        10 => Event::JobPath {
            job,
            links: (0..(b % 4)).map(|l| l as u32).collect(),
        },
        11 => Event::LinkCapacity {
            link: flow,
            fraction: (b % 100) as f64 / 100.0,
        },
        _ => Event::JobDepart { job },
    }
}

fn stream_from(words: &[u64]) -> Vec<TimedEvent> {
    words
        .chunks_exact(3)
        .enumerate()
        .map(|(i, w)| TimedEvent {
            at: simtime::Time::from_nanos(i as u64 * 1000 + w[0] % 1000),
            event: event_from(w[0], w[1], w[2]),
        })
        .collect()
}

fn words() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..1_000_000, 0..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any exported stream parses back to exactly the same events.
    #[test]
    fn export_round_trips_exactly(words in words()) {
        let events = stream_from(&words);
        let text = jsonl(&events);
        let back = parse_jsonl(&text).expect("well-formed export must parse");
        prop_assert_eq!(back, events);
    }

    /// Truncating an export anywhere — even mid-line, mid-string — never
    /// panics: it either still parses (cut on a line boundary) or yields
    /// a typed error.
    #[test]
    fn truncated_exports_never_panic(words in words(), cut in 0usize..4000) {
        let events = stream_from(&words);
        let text = jsonl(&events);
        let cut = text
            .char_indices()
            .map(|(i, _)| i)
            .chain([text.len()])
            .nth(cut.min(text.chars().count()))
            .unwrap_or(text.len());
        let _ = parse_jsonl(&text[..cut]);
    }

    /// Flipping one character never panics, and when it breaks the
    /// stream the error names the mangled line.
    #[test]
    fn flipped_characters_never_panic(
        words in words(),
        pos in 0usize..4000,
        replacement in 0u64..5,
    ) {
        let events = stream_from(&words);
        let text = jsonl(&events);
        prop_assume!(!text.is_empty());
        let chars: Vec<char> = text.chars().collect();
        let pos = pos % chars.len();
        let mut mangled: String = chars[..pos].iter().collect();
        mangled.push(['X', '{', '"', '9', '\\'][replacement as usize]);
        mangled.extend(&chars[pos + 1..]);
        if let Err(e) = parse_jsonl(&mangled) {
            let line_of_pos = chars[..pos].iter().filter(|&&c| c == '\n').count() + 1;
            prop_assert!(
                e.line >= 1 && e.line <= line_of_pos.max(1),
                "error line {} past mangled line {line_of_pos}",
                e.line
            );
        }
    }

    /// Injecting a junk line always yields an error (junk is never a
    /// valid event object), with the error pointing at or before it.
    #[test]
    fn injected_junk_lines_are_rejected(words in words(), junk_at in 0usize..130) {
        let events = stream_from(&words);
        let text = jsonl(&events);
        let mut lines: Vec<&str> = text.lines().collect();
        let junk_at = junk_at.min(lines.len());
        lines.insert(junk_at, "{\"seq\":0,\"garbage\":true}");
        let err = parse_jsonl(&lines.join("\n")).expect_err("junk must not parse");
        prop_assert!(err.line <= junk_at + 1, "line {} after junk at {}", err.line, junk_at + 1);
    }

    /// Duplicating any line breaks strict seq monotonicity and is
    /// reported as `BadSeq` at the duplicate.
    #[test]
    fn duplicated_lines_break_seq_monotonicity(words in words(), dup in 0usize..120) {
        let events = stream_from(&words);
        prop_assume!(!events.is_empty());
        let text = jsonl(&events);
        let mut lines: Vec<&str> = text.lines().collect();
        let dup = dup % lines.len();
        lines.insert(dup + 1, lines[dup]);
        let err = parse_jsonl(&lines.join("\n")).expect_err("duplicate seq must not parse");
        prop_assert_eq!(err.kind, ReplayErrorKind::BadSeq);
        prop_assert_eq!(err.line, dup + 2);
    }
}

#[test]
fn empty_and_whitespace_inputs_parse_to_nothing() {
    assert_eq!(parse_jsonl("").unwrap(), vec![]);
    assert_eq!(parse_jsonl("\n\n  \n").unwrap(), vec![]);
}
/// The char-based parser the library shipped before its byte scanner,
/// kept verbatim as a differential oracle: the library must return
/// exactly what this returns — the same events, or the same line, kind
/// and reason — on any input. Only the imports and the two `JsonValue`
/// accessors the library keeps private are new.
mod oracle {
    use simtime::Time;
    use std::collections::BTreeMap;
    use telemetry::replay::{JsonValue, ParseError, ReplayError, ReplayErrorKind};
    use telemetry::{CcState, Event, Phase, SpanKind, TimedEvent};

    trait Accessors {
        fn as_f64(&self) -> Option<f64>;
        fn as_str(&self) -> Option<&str>;
    }

    impl Accessors for JsonValue {
        fn as_f64(&self) -> Option<f64> {
            match self {
                JsonValue::Num(n) => Some(*n),
                _ => None,
            }
        }

        fn as_str(&self) -> Option<&str> {
            match self {
                JsonValue::Str(s) => Some(s),
                _ => None,
            }
        }
    }

    fn perr(kind: ReplayErrorKind, reason: impl Into<String>) -> ParseError {
        ParseError {
            kind,
            reason: reason.into(),
        }
    }

    /// Parses one flat JSON object (`{"k":v,...}`) into a key→value map.
    ///
    /// Supports the subset this workspace's exporters emit: string values with
    /// escapes, numbers, and flat arrays of unsigned integers. Exposed because
    /// the summary/diff/history tooling reads the same shape. Rejects nested
    /// objects, duplicate keys, and trailing garbage with a typed error.
    pub fn parse_flat_object(line: &str) -> Result<BTreeMap<String, JsonValue>, ParseError> {
        let mut map = BTreeMap::new();
        let bytes: Vec<char> = line.trim().chars().collect();
        let mut i = 0usize;
        let err =
            |msg: &str, at: usize| perr(ReplayErrorKind::Syntax, format!("{msg} at char {at}"));

        let skip_ws = |i: &mut usize| {
            while *i < bytes.len() && bytes[*i].is_whitespace() {
                *i += 1;
            }
        };
        let finish = |map: BTreeMap<String, JsonValue>, i: &mut usize| {
            *i += 1;
            skip_ws(i);
            if *i < bytes.len() {
                return Err(err("trailing characters after object", *i));
            }
            Ok(map)
        };
        skip_ws(&mut i);
        if i >= bytes.len() || bytes[i] != '{' {
            return Err(err("expected '{'", i));
        }
        i += 1;
        loop {
            skip_ws(&mut i);
            if i < bytes.len() && bytes[i] == '}' {
                return finish(map, &mut i);
            }
            let key = parse_string(&bytes, &mut i)?;
            skip_ws(&mut i);
            if i >= bytes.len() || bytes[i] != ':' {
                return Err(err("expected ':'", i));
            }
            i += 1;
            skip_ws(&mut i);
            let val = parse_value(&bytes, &mut i)?;
            if map.insert(key.clone(), val).is_some() {
                return Err(perr(
                    ReplayErrorKind::Syntax,
                    format!("duplicate key {key:?}"),
                ));
            }
            skip_ws(&mut i);
            match bytes.get(i) {
                Some(',') => i += 1,
                Some('}') => return finish(map, &mut i),
                _ => return Err(err("expected ',' or '}'", i)),
            }
        }
    }

    fn parse_string(chars: &[char], i: &mut usize) -> Result<String, ParseError> {
        if chars.get(*i) != Some(&'"') {
            return Err(perr(
                ReplayErrorKind::Syntax,
                format!("expected '\"' at char {}", *i),
            ));
        }
        *i += 1;
        let mut out = String::new();
        while let Some(&c) = chars.get(*i) {
            *i += 1;
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let esc = chars
                        .get(*i)
                        .copied()
                        .ok_or_else(|| perr(ReplayErrorKind::BadEscape, "dangling escape"))?;
                    *i += 1;
                    match esc {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'u' => {
                            let hex: String = chars
                                .get(*i..*i + 4)
                                .ok_or_else(|| {
                                    perr(ReplayErrorKind::BadEscape, "short \\u escape")
                                })?
                                .iter()
                                .collect();
                            *i += 4;
                            let cp = u32::from_str_radix(&hex, 16).map_err(|_| {
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
                }
                c => out.push(c),
            }
        }
        Err(perr(
            ReplayErrorKind::UnterminatedString,
            "unterminated string",
        ))
    }

    fn parse_value(chars: &[char], i: &mut usize) -> Result<JsonValue, ParseError> {
        match chars.get(*i) {
            Some('"') => Ok(JsonValue::Str(parse_string(chars, i)?)),
            Some('{') => Err(perr(
                ReplayErrorKind::NonFlatValue,
                "nested object where a flat value was expected",
            )),
            Some('[') => {
                *i += 1;
                let mut out = Vec::new();
                loop {
                    while chars.get(*i).is_some_and(|c| c.is_whitespace()) {
                        *i += 1;
                    }
                    match chars.get(*i) {
                        Some(']') => {
                            *i += 1;
                            return Ok(JsonValue::UInts(out));
                        }
                        Some(',') => {
                            *i += 1;
                        }
                        Some(_) => {
                            let JsonValue::Num(n) = parse_number(chars, i)? else {
                                unreachable!("parse_number only returns Num")
                            };
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
            Some(c) if c.is_ascii_digit() || matches!(c, '-' | '+' | '.') => parse_number(chars, i),
            Some(c) => Err(perr(
                ReplayErrorKind::Syntax,
                format!("unsupported value starting with {c:?}"),
            )),
            None => Err(perr(ReplayErrorKind::Syntax, "missing value")),
        }
    }

    fn parse_number(chars: &[char], i: &mut usize) -> Result<JsonValue, ParseError> {
        let start = *i;
        while chars
            .get(*i)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
        {
            *i += 1;
        }
        let s: String = chars[start..*i].iter().collect();
        match s.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(JsonValue::Num(n)),
            _ => Err(perr(
                ReplayErrorKind::BadNumber,
                format!("bad number {s:?} at char {start}"),
            )),
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

    fn event_from(map: &BTreeMap<String, JsonValue>) -> Result<TimedEvent, ParseError> {
        let field = |name: &str| -> Result<&JsonValue, ParseError> {
            map.get(name).ok_or_else(|| {
                perr(
                    ReplayErrorKind::MissingField,
                    format!("missing field {name:?}"),
                )
            })
        };
        let bad = |name: &str| perr(ReplayErrorKind::BadField, format!("invalid field {name:?}"));
        let u32_field = |name: &str| -> Result<u32, ParseError> {
            let v = field(name)?.as_u64().ok_or_else(|| bad(name))?;
            u32::try_from(v).map_err(|_| bad(name))
        };
        let u64_field = |name: &str| -> Result<u64, ParseError> {
            field(name)?.as_u64().ok_or_else(|| bad(name))
        };
        let f64_field = |name: &str| -> Result<f64, ParseError> {
            field(name)?.as_f64().ok_or_else(|| bad(name))
        };
        let str_field = |name: &str| -> Result<&str, ParseError> {
            field(name)?.as_str().ok_or_else(|| bad(name))
        };
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
                // &'static str in the live event: map known components back,
                // otherwise leak (replay is a one-shot offline path and the
                // set of component names is tiny and bounded).
                component: intern_component(str_field("component")?),
                index: u64_field("index")?,
            },
            "gate_release" => Event::GateRelease {
                job: u32_field("job")?,
            },
            "scenario" => Event::Scenario {
                name: str_field("name")?.to_string(),
            },
            "job_path" => Event::JobPath {
                job: u32_field("job")?,
                links: match map.get("links") {
                    Some(JsonValue::UInts(v)) => v.clone(),
                    Some(_) => return Err(bad("links")),
                    None => {
                        return Err(perr(
                            ReplayErrorKind::MissingField,
                            "missing field \"links\"",
                        ))
                    }
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

    /// Maps a replayed component name back to a `&'static str`.
    ///
    /// Known engine/component names return their static interning; unknown
    /// names are leaked — acceptable for an offline, once-per-file path with a
    /// bounded vocabulary.
    fn intern_component(name: &str) -> &'static str {
        const KNOWN: &[&str] = &[
            "netsim.rate",
            "netsim.fluid",
            "netsim.packet",
            "fluid.alloc",
            "scheduler.solve",
            "scheduler.place",
        ];
        for k in KNOWN {
            if *k == name {
                return k;
            }
        }
        Box::leak(name.to_string().into_boxed_str())
    }

    /// Parses a JSONL event log (the output of [`crate::export::jsonl`]).
    ///
    /// Empty lines are skipped; any malformed line aborts with a
    /// [`ReplayError`] naming the line and the failure kind. Lines may carry a
    /// `seq` field (the exporter has emitted one per event since it grew
    /// sequence numbers); when present it must increase strictly
    /// monotonically, which catches truncated-and-reglued logs.
    pub fn parse_jsonl(text: &str) -> Result<Vec<TimedEvent>, ReplayError> {
        let mut out = Vec::new();
        let mut last_seq: Option<u64> = None;
        let mut spans = SpanNesting::default();
        for (idx, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let attribute = |e: ParseError| ReplayError {
                line: idx + 1,
                kind: e.kind,
                reason: e.reason,
            };
            let map = parse_flat_object(line).map_err(attribute)?;
            if let Some(v) = map.get("seq") {
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
            let te = event_from(&map).map_err(attribute)?;
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
                Event::Scenario { .. } => self.open.clear(),
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
}

/// Chars a mangle may write into an export: JSON punctuation, escape and
/// number characters, ASCII and Unicode whitespace (VT, NBSP, U+2028) and
/// multi-byte letters.
const MANGLE_CHARS: &[char] = &[
    'X', '{', '}', '"', '\\', ':', ',', '[', ']', '9', '+', '-', '.', 'e', 'u', 'n', ' ', '\t',
    '\u{b}', '\u{a0}', '\u{2028}', 'é', '✓',
];

/// One mangled export: truncated, a char flipped, a char inserted, a junk
/// line injected, or a line duplicated — the mangles the properties above
/// apply one at a time — or a multi-byte char inserted with the end of its
/// line flipped, so the error lands after it (char and byte offsets part).
fn mangle(text: &str, how: u64, pos: usize, pick: usize) -> String {
    let chars: Vec<char> = text.chars().collect();
    let pos = pos % (chars.len() + 1);
    let c = MANGLE_CHARS[pick % MANGLE_CHARS.len()];
    let mut lines: Vec<&str> = text.lines().collect();
    match how % 6 {
        5 => {
            let mut out: Vec<char> = chars.clone();
            out.insert(pos, ['é', '✓', '\u{a0}'][pick % 3]);
            let end = out[pos..]
                .iter()
                .position(|&c| c == '\n')
                .map_or(out.len(), |n| pos + n);
            out[end - 1] = c;
            out.into_iter().collect()
        }
        0 => chars[..pos].iter().collect(),
        1 if pos < chars.len() => chars[..pos]
            .iter()
            .chain([&c])
            .chain(&chars[pos + 1..])
            .collect(),
        2 => chars[..pos]
            .iter()
            .chain([&c])
            .chain(&chars[pos..])
            .collect(),
        3 => {
            let junk = ["{\"seq\":0,\"garbage\":true}", "{}", "{\"t_ns\":+1}", "[1]"];
            lines.insert(pos % (lines.len() + 1), junk[pick % junk.len()]);
            lines.join("\n")
        }
        _ if !lines.is_empty() => {
            let dup = pos % lines.len();
            lines.insert(dup + 1, lines[dup]);
            lines.join("\n")
        }
        _ => text.to_string(),
    }
}

/// The scanner and the oracle agree on `text`, as a stream and line by
/// line as flat objects.
fn assert_matches_oracle(text: &str) {
    assert_eq!(
        parse_jsonl(text),
        oracle::parse_jsonl(text),
        "parse_jsonl diverged from the oracle on {text:?}"
    );
    for line in text.lines() {
        assert_eq!(
            parse_flat_object(line),
            oracle::parse_flat_object(line),
            "parse_flat_object diverged from the oracle on {line:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// On any mangled export the scanner returns exactly what the oracle
    /// returns: equal events, or an equal (line, kind, reason).
    #[test]
    fn scanner_matches_char_oracle(
        words in words(),
        how in 0u64..6,
        pos in 0usize..6000,
        pick in 0usize..64,
    ) {
        let text = jsonl(&stream_from(&words));
        assert_matches_oracle(&text);
        assert_matches_oracle(&mangle(&text, how, pos, pick));
    }
}

#[test]
fn error_positions_count_chars_not_bytes() {
    // 'é' and '✓' take 2 and 3 bytes: a byte offset would say 51.
    let line = "{\"seq\":0,\"t_ns\":0,\"type\":\"scenario\",\"name\":\"é✓\" x}";
    let err = parse_jsonl(line).unwrap_err();
    assert_eq!(err.kind, ReplayErrorKind::Syntax);
    assert_eq!(err.reason, "expected ',' or '}' at char 48");
    assert_matches_oracle(line);
    let line = "{\"name\":\"é✓\",\"n\":1e999}";
    assert_eq!(
        parse_flat_object(line).unwrap_err().reason,
        "bad number \"1e999\" at char 17"
    );
    assert_matches_oracle(line);
}

#[test]
fn unicode_whitespace_between_tokens_is_skipped() {
    let line = "\u{a0}{\u{b}\"t_ns\"\u{a0}:\u{2003}0 ,\u{2028}\"type\":\"ecn_mark\",\t\"flow\":1\u{c}}\u{3000}";
    assert_eq!(
        parse_jsonl(line).unwrap(),
        vec![TimedEvent {
            at: simtime::Time::ZERO,
            event: Event::EcnMark { flow: 1 },
        }]
    );
    assert_matches_oracle(line);
    // U+001C..U+001F are separators, not whitespace.
    assert_matches_oracle("{\u{1c}\"t_ns\":0}");
}

#[test]
fn escapes_match_the_oracle() {
    let cases = [
        // A multi-byte char inside a string, escaped and not.
        "{\"t_ns\":0,\"type\":\"scenario\",\"name\":\"é\\u00e9\\\"é\"}",
        // A multi-byte char among the four \u digits.
        "{\"t_ns\":0,\"type\":\"scenario\",\"name\":\"\\u00é1\"}",
        // Bad hex, short, lone surrogate, and the sign `from_str_radix` takes.
        "{\"t_ns\":0,\"type\":\"scenario\",\"name\":\"\\u00g1\"}",
        "{\"t_ns\":0,\"type\":\"scenario\",\"name\":\"\\u12\"}",
        "{\"t_ns\":0,\"type\":\"scenario\",\"name\":\"\\ud800\"}",
        "{\"t_ns\":0,\"type\":\"scenario\",\"name\":\"\\u+041\"}",
        // Unknown and dangling escapes.
        "{\"t_ns\":0,\"type\":\"scenario\",\"name\":\"\\é\"}",
        "{\"t_ns\":0,\"type\":\"scenario\",\"name\":\"\\",
        // An escaped key.
        "{\"t_\\u006es\":0,\"type\":\"ecn_mark\",\"flow\":1}",
    ];
    for line in cases {
        assert_matches_oracle(line);
    }
    let err = parse_jsonl(cases[1]).unwrap_err();
    assert_eq!(err.kind, ReplayErrorKind::BadEscape);
    assert_eq!(err.reason, "bad \\u digits \"00é1\"");
    let Event::Scenario { name } = &parse_jsonl(cases[5]).unwrap()[0].event else {
        panic!("not a scenario");
    };
    assert_eq!(name, "A");
}

#[test]
fn duplicate_keys_and_signed_numbers_match_the_oracle() {
    let cases = [
        "{\"t_ns\":0,\"type\":\"ecn_mark\",\"flow\":1,\"flow\":2}",
        // The value is parsed before the duplicate is noticed.
        "{\"t_ns\":0,\"type\":\"ecn_mark\",\"flow\":1,\"flow\":x}",
        // An escaped spelling of an earlier key is the same key.
        "{\"t_ns\":0,\"t_\\u006es\":0,\"type\":\"ecn_mark\",\"flow\":1}",
        "{\"t_ns\":+7,\"type\":\"ecn_mark\",\"flow\":+1}",
        "{\"t_ns\":0,\"type\":\"job_path\",\"job\":+0,\"links\":[+1, 2 3,,]}",
        "{\"t_ns\":0,\"type\":\"queue_depth\",\"link\":0,\"bytes\":-0.5e+3}",
        "{\"t_ns\":-0,\"type\":\"ecn_mark\",\"flow\":1}",
        "{\"t_ns\":0000000000000001,\"type\":\"ecn_mark\",\"flow\":1}",
        "{\"t_ns\":9007199254740993,\"type\":\"ecn_mark\",\"flow\":1}",
    ];
    for line in cases {
        assert_matches_oracle(line);
    }
    let err = parse_jsonl(cases[0]).unwrap_err();
    assert_eq!(
        (err.kind, err.reason.as_str()),
        (ReplayErrorKind::Syntax, "duplicate key \"flow\"")
    );
    assert_eq!(
        parse_jsonl(cases[3]).unwrap()[0],
        TimedEvent {
            at: simtime::Time::from_nanos(7),
            event: Event::EcnMark { flow: 1 },
        }
    );
}
