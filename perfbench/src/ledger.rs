//! The benchmark's own tracing.
//!
//! * [`CountingRecorder`] is the `telemetry::Recorder` the traced run
//!   passes into the library. It tallies event kinds and the engines'
//!   `span`/`count` callbacks and stores no events, so tracing costs a
//!   counter bump per event instead of a buffered copy.
//! * [`Tee`] feeds one recorded stream to two recorders (the
//!   `chaos-observed` workload records into a buffer either way; the
//!   traced run also counts).
//! * [`Spans`] is the layer ledger: the benchmark wraps each call into a
//!   layer in a span (name, start, end, parent), kept in memory and
//!   written out once at the end of the run.

use simtime::Time;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use telemetry::recorder::SpanStats;
use telemetry::{Event, ForkableRecorder, NoopRecorder, Phase, Recorder};

/// Folds one engine section's totals into another.
fn add(dst: &mut SpanStats, src: SpanStats) {
    dst.wall += src.wall;
    dst.events += src.events;
    dst.calls += src.calls;
}

/// Tallies what the library reports and keeps nothing else.
#[derive(Debug, Clone, Default)]
pub struct CountingRecorder {
    kinds: BTreeMap<&'static str, u64>,
    /// Completed communication phases by iteration index: entry `i`
    /// counts jobs that finished iteration `i`.
    comm_exits: Vec<u64>,
    counts: BTreeMap<&'static str, u64>,
    sections: BTreeMap<&'static str, SpanStats>,
    merge: SpanStats,
}

impl CountingRecorder {
    /// Events seen of the given [`Event::kind`] tag.
    pub fn kind(&self, tag: &str) -> u64 {
        self.kinds.get(tag).copied().unwrap_or(0)
    }

    /// Per-kind tallies, keyed by [`Event::kind`].
    pub fn kinds(&self) -> &BTreeMap<&'static str, u64> {
        &self.kinds
    }

    /// Every event seen.
    pub fn events(&self) -> u64 {
        self.kinds.values().sum()
    }

    /// The free-form counters (`Recorder::count`).
    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    /// One counter, 0 when never bumped.
    pub fn count_of(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// One engine section (`Recorder::span`), zero when never reported.
    pub fn section(&self, component: &str) -> SpanStats {
        self.sections.get(component).copied().unwrap_or_default()
    }

    /// Time and events inside [`ForkableRecorder::join_merged`].
    pub fn merge(&self) -> SpanStats {
        self.merge
    }

    /// Job-iterations completed with an iteration index below `n`: equal
    /// to `jobs × n` for every run whose jobs all finished `n` iterations,
    /// whatever the faster jobs did past the target.
    pub fn iterations_below(&self, n: usize) -> u64 {
        self.comm_exits.iter().take(n).sum()
    }

    fn absorb(&mut self, other: CountingRecorder) {
        for (kind, n) in other.kinds {
            *self.kinds.entry(kind).or_insert(0) += n;
        }
        if self.comm_exits.len() < other.comm_exits.len() {
            self.comm_exits.resize(other.comm_exits.len(), 0);
        }
        for (a, b) in self.comm_exits.iter_mut().zip(other.comm_exits) {
            *a += b;
        }
        for (name, n) in other.counts {
            *self.counts.entry(name).or_insert(0) += n;
        }
        for (name, s) in other.sections {
            add(self.sections.entry(name).or_default(), s);
        }
        add(&mut self.merge, other.merge);
    }
}

impl Recorder for CountingRecorder {
    fn record(&mut self, _at: Time, event: Event) {
        if let Event::PhaseExit {
            phase: Phase::Communicate,
            iteration,
            ..
        } = event
        {
            let i = iteration as usize;
            if self.comm_exits.len() <= i {
                self.comm_exits.resize(i + 1, 0);
            }
            self.comm_exits[i] += 1;
        }
        *self.kinds.entry(event.kind()).or_insert(0) += 1;
    }

    fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    fn span(&mut self, component: &'static str, wall: Duration, events: u64) {
        add(
            self.sections.entry(component).or_default(),
            SpanStats {
                wall,
                events,
                calls: 1,
            },
        );
    }
}

impl ForkableRecorder for CountingRecorder {
    type Fork = CountingRecorder;

    fn fork() -> CountingRecorder {
        CountingRecorder::default()
    }

    fn join(&mut self, fork: CountingRecorder) {
        self.absorb(fork);
    }

    fn join_merged(&mut self, forks: Vec<CountingRecorder>) {
        let t0 = Instant::now();
        let events: u64 = forks.iter().map(CountingRecorder::events).sum();
        for fork in forks {
            self.absorb(fork);
        }
        add(
            &mut self.merge,
            SpanStats {
                wall: t0.elapsed(),
                events,
                calls: 1,
            },
        );
    }
}

/// The recorder a workload runs under: [`NoopRecorder`] for the untraced
/// run, [`CountingRecorder`] for the traced one. Each layer call gets a
/// fresh one, so per-call tallies (iterations below that call's target)
/// can be read before they are folded into the run's total.
pub trait Tally: ForkableRecorder + Default {
    /// Folds a per-call tally into this one.
    fn absorb_tally(&mut self, other: Self);
    /// See [`CountingRecorder::iterations_below`]; `None` when untraced.
    fn iterations_below(&self, n: usize) -> Option<u64>;
}

impl Tally for NoopRecorder {
    fn absorb_tally(&mut self, _other: NoopRecorder) {}

    fn iterations_below(&self, _n: usize) -> Option<u64> {
        None
    }
}

impl Tally for CountingRecorder {
    fn absorb_tally(&mut self, other: CountingRecorder) {
        self.absorb(other);
    }

    fn iterations_below(&self, n: usize) -> Option<u64> {
        Some(CountingRecorder::iterations_below(self, n))
    }
}

/// Sends every event to both recorders. The second one only sees a copy
/// when it is enabled, so `Tee(buffer, NoopRecorder)` costs what the
/// buffer alone costs.
pub struct Tee<A, B>(pub A, pub B);

impl<A: Recorder, B: Recorder> Recorder for Tee<A, B> {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    fn record(&mut self, at: Time, event: Event) {
        if B::ENABLED {
            self.1.record(at, event.clone());
        }
        if A::ENABLED {
            self.0.record(at, event);
        }
    }

    fn count(&mut self, name: &'static str, n: u64) {
        self.0.count(name, n);
        self.1.count(name, n);
    }

    fn span(&mut self, component: &'static str, wall: Duration, events: u64) {
        self.0.span(component, wall, events);
        self.1.span(component, wall, events);
    }
}

impl<A: ForkableRecorder, B: ForkableRecorder> ForkableRecorder for Tee<A, B> {
    type Fork = Tee<A::Fork, B::Fork>;

    fn fork() -> Self::Fork {
        Tee(A::fork(), B::fork())
    }

    fn join(&mut self, fork: Self::Fork) {
        self.0.join(fork.0);
        self.1.join(fork.1);
    }

    fn join_merged(&mut self, forks: Vec<Self::Fork>) {
        let (a, b): (Vec<_>, Vec<_>) = forks.into_iter().map(|t| (t.0, t.1)).unzip();
        self.0.join_merged(a);
        self.1.join_merged(b);
    }
}

/// One closed span of the layer ledger, relative to the ledger's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    /// Index of the enclosing span in [`Spans::records`].
    pub parent: Option<usize>,
}

impl SpanRecord {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// The layer ledger of one repetition. An inactive ledger (the untraced
/// run) records nothing and never reads the clock.
#[derive(Debug)]
pub struct Spans {
    origin: Option<Instant>,
    records: Vec<SpanRecord>,
    open: Vec<usize>,
}

impl Spans {
    /// A ledger that records.
    pub fn on() -> Spans {
        Spans {
            origin: Some(Instant::now()),
            records: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A ledger that records nothing.
    pub fn off() -> Spans {
        Spans {
            origin: None,
            records: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        let Some(origin) = self.origin else { return };
        self.records.push(SpanRecord {
            name,
            start: origin.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
        });
        self.open.push(self.records.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let Some(origin) = self.origin else { return };
        let i = self.open.pop().expect("Spans::end without an open span");
        self.records[i].end = origin.elapsed();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    pub fn records(&self) -> &[SpanRecord] {
        &self.records
    }

    /// Inclusive seconds per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for r in &self.records {
            *out.entry(r.name).or_insert(0.0) += r.duration().as_secs_f64();
        }
        out
    }

    /// Seconds covered by the ledger: the sum of every span's self time
    /// (its duration minus its children's), which is the total duration
    /// of the top-level spans.
    pub fn covered_secs(&self) -> f64 {
        self.records
            .iter()
            .filter(|r| r.parent.is_none())
            .map(|r| r.duration().as_secs_f64())
            .sum()
    }
}
