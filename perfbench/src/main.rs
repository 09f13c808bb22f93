//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Sets up and runs the workload repeatedly for `S` seconds on one thread
//! and prints, as the last line of standard output, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics of untraced repetitions; `--trace 1` alternates
//! untraced and traced repetitions and reports the per-layer metrics,
//! writing the traced repetitions' spans to `.perfbench-out/`.

use perfbench::ledger::{CountingRecorder, SpanRecord, Spans};
use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::workloads::{self, Inputs, Outcome, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use telemetry::NoopRecorder;

const USAGE: &str = "usage: perfbench --workload paper-rate|fabric|chaos-observed \
                     --seed N --seconds S --trace 0|1";

/// Set-ups per `setup_s` sample: one set-up of `paper-rate` takes well
/// under a microsecond, too short to time alone. One sample is taken
/// before every timed repetition, so the samples span the whole run.
const SETUP_BATCH: u32 = 32;
/// Repetitions (pairs, when traced) timed even past the deadline.
const MIN_REPS: usize = 3;
/// Largest share of a traced repetition's wall time the ledger may leave
/// outside every span.
const MAX_UNATTRIBUTED_SHARE: f64 = 0.05;
/// Failure messages echoed to standard error.
const MAX_ECHOED_FAILURES: usize = 10;
/// Where the traced run writes its spans.
const SPANS_DIR: &str = ".perfbench-out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => match value.parse::<u64>() {
                Ok(s) if (1..=3600).contains(&s) => seconds = Some(s),
                _ => return Err(format!("--seconds {value}: want 1 to 3600")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace {value}: want 0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One traced repetition.
struct TracedRep {
    wall: f64,
    outcome: Outcome,
    tally: CountingRecorder,
    setup_spans: Spans,
    spans: Spans,
}

/// Everything a run measured.
struct Run {
    workload: Workload,
    seed: u64,
    next_rep: u64,
    attempted: usize,
    failures: Vec<String>,
    failed: usize,
    setup: Vec<f64>,
    untraced: Vec<(f64, u64)>,
    traced: Vec<TracedRep>,
    unrecorded: Vec<f64>,
    peak_rss_mb: f64,
}

impl Run {
    fn new(workload: Workload, seed: u64) -> Run {
        Run {
            workload,
            seed,
            next_rep: 1,
            attempted: 0,
            failures: Vec::new(),
            failed: 0,
            setup: Vec::new(),
            untraced: Vec::new(),
            traced: Vec::new(),
            unrecorded: Vec::new(),
            peak_rss_mb: 0.0,
        }
    }

    fn inputs(&mut self, spans: &mut Spans) -> Inputs {
        self.next_rep += 1;
        workloads::setup(self.workload, self.seed, self.next_rep, spans)
    }

    fn setup_sample(&mut self) {
        let t0 = Instant::now();
        for _ in 0..SETUP_BATCH {
            std::hint::black_box(self.inputs(&mut Spans::off()));
        }
        self.setup
            .push(t0.elapsed().as_secs_f64() / f64::from(SETUP_BATCH));
    }

    fn tally(&mut self, out: &Outcome) {
        self.attempted += out.cells.len();
        self.failed += out.failed();
        for c in out.cells.iter().filter(|c| !c.passed()) {
            if self.failures.len() < MAX_ECHOED_FAILURES {
                self.failures
                    .push(format!("{}: {}", c.name, c.failures.join("; ")));
            }
        }
    }

    /// An untraced repetition: returns its wall seconds and the
    /// job-iterations of the cells that passed.
    fn untraced_rep(&mut self) -> (f64, u64) {
        let inputs = self.inputs(&mut Spans::off());
        let t0 = Instant::now();
        let (out, _) = workloads::run::<NoopRecorder>(&inputs, &mut Spans::off());
        let wall = t0.elapsed().as_secs_f64();
        drop(inputs);
        self.tally(&out);
        (wall, out.passed_job_iterations())
    }

    fn traced_rep(&mut self) {
        let mut setup_spans = Spans::on();
        let inputs = self.inputs(&mut setup_spans);
        let mut spans = Spans::on();
        let t0 = Instant::now();
        let (outcome, tally) = workloads::run::<CountingRecorder>(&inputs, &mut spans);
        let wall = t0.elapsed().as_secs_f64();
        drop(inputs);
        self.tally(&outcome);
        self.traced.push(TracedRep {
            wall,
            outcome,
            tally,
            setup_spans,
            spans,
        });
    }

    /// The chaos sweep without recording, on cold inputs of its own.
    fn unrecorded_sweep(&mut self) {
        if let Inputs::Chaos(c) = self.inputs(&mut Spans::off()) {
            let t0 = Instant::now();
            std::hint::black_box(workloads::chaos_unrecorded(&c));
            self.unrecorded.push(t0.elapsed().as_secs_f64());
        }
    }

    fn measure(&mut self, seconds: u64, trace: bool) {
        // Warm-up: caches, allocator and lazy set-up, untimed. The peak
        // resident set is read right after it: the footprint of one
        // set-up and run, before later repetitions add allocator slack
        // and forkcache entries that depend on how many fit the deadline.
        self.untraced_rep();
        self.peak_rss_mb = peak_rss_mb();
        let deadline = Instant::now() + Duration::from_secs(seconds);
        let mut reps = 0;
        while reps < MIN_REPS || Instant::now() < deadline {
            self.setup_sample();
            let rep = self.untraced_rep();
            self.untraced.push(rep);
            if trace {
                self.traced_rep();
                if self.workload == Workload::ChaosObserved {
                    self.unrecorded_sweep();
                }
            }
            reps += 1;
        }
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set (`VmHWM`) in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total seconds and total passed job-iterations of the untraced
/// repetitions.
fn untraced_totals(run: &Run) -> (f64, f64) {
    run.untraced
        .iter()
        .fold((0.0, 0.0), |(w, n), &(wall, iters)| {
            (w + wall, n + iters as f64)
        })
}

fn end_to_end(run: &Run) -> BTreeMap<&'static str, f64> {
    let (wall, iters) = untraced_totals(run);
    BTreeMap::from([
        ("wall_s", wall / run.untraced.len() as f64),
        ("job_iters_per_s", ratio(iters, wall)),
        ("setup_s", median(run.setup.clone())),
        ("peak_rss_mb", run.peak_rss_mb),
    ])
}

/// The per-layer values of one traced repetition that do not need the
/// untraced ones.
fn layer_values(rep: &TracedRep) -> BTreeMap<&'static str, f64> {
    let t = &rep.tally;
    let spans = rep.spans.totals();
    let setup = rep.setup_spans.totals();
    let span = |name: &str| spans.get(name).or(setup.get(name)).copied().unwrap_or(0.0);
    let rate = t.section("netsim.rate");
    let steps = t.count_of("rate_steps_total") as f64;
    let fluid = t.section("netsim.fluid");
    let packet = t.section("netsim.packet");
    let alloc_calls = t.count_of("fluid_allocations_total") as f64;
    let solver = t.kind("solver_iteration") as f64;
    let rate_changes = t.kind("rate_change") as f64;
    let replay = span("telemetry.replay");
    let events = t.events() as f64;
    let mut v = BTreeMap::from([
        ("netsim.rate.secs", rate.wall.as_secs_f64()),
        ("netsim.rate.steps", steps),
        (
            "netsim.rate.ns_per_step",
            1e9 * ratio(rate.wall.as_secs_f64(), steps),
        ),
        ("dcqcn.rate_changes", rate_changes),
        ("dcqcn.cnps", t.kind("cnp_received") as f64),
        ("dcqcn.ecn_marks", t.kind("ecn_mark") as f64),
        ("dcqcn.rate_changes_per_step", ratio(rate_changes, steps)),
        (
            "workload.iterations",
            rep.outcome.traced_iterations.unwrap_or(0) as f64,
        ),
        (
            "workload.phase_changes",
            (t.kind("phase_enter") + t.kind("phase_exit")) as f64,
        ),
        (
            "topology.partition.components",
            rep.outcome.components as f64,
        ),
        ("netsim.fluid.secs", fluid.wall.as_secs_f64()),
        ("netsim.fluid.events", fluid.events as f64),
        (
            "netsim.fluid.ns_per_event",
            1e9 * ratio(fluid.wall.as_secs_f64(), fluid.events as f64),
        ),
        ("netsim.alloc.calls", alloc_calls),
        ("netsim.alloc.iterations", solver),
        ("netsim.alloc.iters_per_call", ratio(solver, alloc_calls)),
        ("netsim.packet.secs", packet.wall.as_secs_f64()),
        ("netsim.packet.events", packet.events as f64),
        (
            "netsim.packet.ns_per_event",
            1e9 * ratio(packet.wall.as_secs_f64(), packet.events as f64),
        ),
        ("telemetry.merge.secs", t.merge().wall.as_secs_f64()),
        ("telemetry.merge.events", t.merge().events as f64),
        ("telemetry.events", events),
        ("telemetry.replay.ns_per_event", 1e9 * ratio(replay, events)),
        ("diagnostics.watchdog.alerts", rep.outcome.alerts as f64),
        ("unattributed.secs", rep.wall - rep.spans.covered_secs()),
        ("paper_err_pct", rep.outcome.paper_err_pct.unwrap_or(0.0)),
        (
            "trace_mb",
            rep.outcome.trace_bytes as f64 / (1024.0 * 1024.0),
        ),
    ]);
    for (name, _) in PER_LAYER {
        if let Some(layer) = name.strip_suffix(".secs") {
            v.entry(name).or_insert_with(|| span(layer));
        }
    }
    v
}

/// Per-layer metrics: medians over the traced repetitions, plus the
/// checks that counts repeat and that the ledger covers the wall time.
fn per_layer(run: &Run, problems: &mut Vec<String>) -> BTreeMap<&'static str, f64> {
    let reps: Vec<BTreeMap<&'static str, f64>> = run.traced.iter().map(layer_values).collect();
    let mut out = BTreeMap::new();
    for (name, unit) in PER_LAYER {
        let values: Vec<f64> = reps.iter().filter_map(|r| r.get(name).copied()).collect();
        if unit == "count" && values.windows(2).any(|w| w[0] != w[1]) {
            problems.push(format!("{name} differs between repetitions: {values:?}"));
        }
        out.insert(name, median(values));
    }
    let traced_wall = run.traced.iter().map(|r| r.wall).sum::<f64>() / run.traced.len() as f64;
    let untraced_wall = untraced_totals(run).0 / run.untraced.len() as f64;
    out.insert(
        "telemetry.overhead_pct",
        100.0 * (ratio(traced_wall, untraced_wall) - 1.0),
    );
    if !run.unrecorded.is_empty() {
        out.insert(
            "telemetry.record.secs",
            out["mlcc.chaos.secs"] - median(run.unrecorded.clone()),
        );
    }
    let unattributed = out["unattributed.secs"];
    if unattributed > MAX_UNATTRIBUTED_SHARE * traced_wall {
        problems.push(format!(
            "unattributed {unattributed:.4} s exceeds {:.0}% of the traced wall {traced_wall:.4} s",
            100.0 * MAX_UNATTRIBUTED_SHARE
        ));
    }
    out
}

/// Writes every traced repetition's spans as JSONL, once, at the end.
fn write_spans(run: &Run) -> std::io::Result<String> {
    let mut text = String::new();
    let line = |text: &mut String, rep: usize, phase: &str, i: usize, r: &SpanRecord| {
        let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            text,
            "{{\"rep\":{rep},\"phase\":\"{phase}\",\"id\":{i},\"name\":\"{}\",\
             \"start_s\":{},\"end_s\":{},\"parent\":{parent}}}",
            r.name,
            r.start.as_secs_f64(),
            r.end.as_secs_f64(),
        );
    };
    for (k, rep) in run.traced.iter().enumerate() {
        for (i, r) in rep.setup_spans.records().iter().enumerate() {
            line(&mut text, k, "setup", i, r);
        }
        for (i, r) in rep.spans.records().iter().enumerate() {
            line(&mut text, k, "run", i, r);
        }
    }
    std::fs::create_dir_all(SPANS_DIR)?;
    let path = format!(
        "{SPANS_DIR}/spans-{}-seed{}.jsonl",
        run.workload.name(),
        run.seed
    );
    std::fs::write(&path, text)?;
    Ok(path)
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    mlcc::parallel::set_jobs(1);
    mlcc::parallel::set_shards(1);

    let mut run = Run::new(args.workload, args.seed);
    run.measure(args.seconds, args.trace);

    let mut problems = Vec::new();
    let (values, units): (BTreeMap<&str, f64>, &[(&str, &str)]) = if args.trace {
        match write_spans(&run) {
            Ok(path) => eprintln!("perfbench: spans written to {path}"),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
        (per_layer(&run, &mut problems), &PER_LAYER)
    } else {
        (end_to_end(&run), &END_TO_END)
    };

    eprintln!(
        "perfbench: {} seed {} trace {}: {} untraced and {} traced repetitions",
        args.workload.name(),
        args.seed,
        args.trace as u8,
        run.untraced.len(),
        run.traced.len()
    );
    let walls: Vec<String> = run.untraced.iter().map(|r| format!("{:.3}", r.0)).collect();
    eprintln!("  untraced wall per repetition (s): {}", walls.join(" "));
    if !run.traced.is_empty() {
        let walls: Vec<String> = run
            .traced
            .iter()
            .map(|r| format!("{:.3}", r.wall))
            .collect();
        eprintln!("  traced wall per repetition (s): {}", walls.join(" "));
    }
    let mut metrics = Vec::new();
    for (name, unit) in units {
        let v = values.get(name).copied().unwrap_or(0.0);
        eprintln!("  {name:<32} {v:>16.6} {unit}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(v)
        ));
    }
    for f in &run.failures {
        eprintln!("  FAILED {f}");
    }
    for p in &problems {
        eprintln!("  PROBLEM {p}");
    }
    let correct = run.failed == 0 && problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted,
        run.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
