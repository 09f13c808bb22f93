//! The three workloads: their inputs, made from the seed; the calls into
//! the library, each wrapped in a ledger span; and the output checks.
//!
//! A workload's output is a list of [`Cell`]s, the units the checks pass
//! or fail. A failed check never aborts the run: a panic inside a library
//! call fails every cell of that call, and the benchmark goes on.

use crate::ledger::{Spans, Tally, Tee};
use crate::paper;
use diagnostics::watchdog::{slo_from_toml_str, SloRules, WatchdogBank};
use diagnostics::{
    analyze, attribution, extract_tracks, fairness, health, interleave, recovery, split_scenarios,
    AnalysisConfig, HealthConfig, RecoveryConfig, ScenarioTracks,
};
use faults::ChaosConfig;
use mlcc::experiments::chaos::{self, ChaosSweepConfig};
use mlcc::experiments::fig1::{self, Fig1Config, MatrixCell};
use mlcc::experiments::shard::{self, FluidScenario, PacketScenario, ShardConfig, ShardRunResult};
use mlcc::experiments::table1::{self, Table1Config};
use mlcc::experiments::variants::{self, VariantsConfig};
use mlcc::JobStats;
use simtime::Dur;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use telemetry::{BufferRecorder, NoopRecorder};

/// The seed whose outputs the checks compare against pinned values. Any
/// other seed is checked for the invariants only.
pub const DEFAULT_SEED: u64 = 0;

/// Relative tolerance of every pinned-value check.
pub const PIN_TOL: f64 = 1e-3;

/// Fig. 1 iterations per cell (the medians lock within a handful).
const FIG1_ITERATIONS: usize = 30;
/// Table 1 iterations per group and scheme, and the warmup cut.
const TABLE1_ITERATIONS: usize = 10;
const TABLE1_WARMUP: usize = 3;
/// Zoo-sweep iterations per cell.
const VARIANTS_ITERATIONS: usize = 20;
/// Simulated budget that lets every job of the 4×128-job fabric finish
/// (`ShardConfig::paper_scale`'s 30 s does not).
pub const FABRIC_BUDGET: Dur = Dur::from_secs(120);
/// The chaos sweep forks from a clean prefix this many nominal
/// iterations long.
const CHAOS_FORK_ITERATIONS: u64 = 20;

/// SLO rules of the chaos watchdog, compiled in so that no timed region
/// reads a file.
const SLO_CHAOS: &str = include_str!("../../scripts/slo_chaos.toml");

/// Pinned default-seed outputs. Fig. 1 and chaos: per-job median
/// iteration time (ms). Table 1: fair→unfair speedup per row. Zoo: mean
/// iteration time per cell (ms). Fabric: mean of the jobs' median
/// iteration times per cell (ms).
const PIN_FIG1: [(&str, [f64; 2]); 2] = [
    ("fig1/fair", [380.315, 380.315]),
    ("fig1/unfair", [261.28, 261.28]),
];
const PIN_TABLE1: [f64; 12] = [
    1.04420, 0.93743, 1.29764, 1.28673, 1.04531, 0.95269, 0.93452, 1.0, 1.0, 1.04011, 1.04312,
    0.98381,
];
const PIN_VARIANTS: [(&str, f64); 7] = [
    ("variants/fair", 380.315),
    ("variants/static-unfair", 261.28),
    ("variants/adaptive", 261.28),
    ("variants/mltcp", 261.28),
    ("variants/policy-prop", 262.7342),
    ("variants/policy-decay", 261.28),
    ("variants/swift", 380.525),
];
const PIN_FABRIC: [(&str, f64); 8] = [
    ("fabric/fluid0", 9692.4496),
    ("fabric/fluid1", 9692.0586),
    ("fabric/fluid2", 9693.0623),
    ("fabric/fluid3", 9692.5573),
    ("fabric/packet0", 285.2628),
    ("fabric/packet1", 285.2628),
    ("fabric/packet2", 285.2628),
    ("fabric/packet3", 285.2628),
];
const PIN_CHAOS: [(&str, [f64; 2]); 6] = [
    ("chaos/stragglers/s6", [261.28, 261.28]),
    ("chaos/stragglers/s16", [261.28, 261.28]),
    ("chaos/stragglers/s25", [261.28, 261.28]),
    ("chaos/links/s6", [261.28, 261.28]),
    ("chaos/links/s16", [261.28, 261.28]),
    ("chaos/links/s25", [261.28, 261.28]),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 1, Table 1 and the controller zoo on the rate engine.
    PaperRate,
    /// The sharded fluid cluster and packet mix, one worker.
    Fabric,
    /// The forked chaos sweep, recorded, analysed and round-tripped.
    ChaosObserved,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperRate,
        Workload::Fabric,
        Workload::ChaosObserved,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperRate => "paper-rate",
            Workload::Fabric => "fabric",
            Workload::ChaosObserved => "chaos-observed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One checked unit of work: a scenario cell, a Table 1 group, a shard.
#[derive(Debug, Clone)]
pub struct Cell {
    pub name: String,
    /// Simulated job-iterations the cell asked for.
    pub job_iterations: u64,
    /// Why the cell failed; empty when it passed every check.
    pub failures: Vec<String>,
}

impl Cell {
    fn new(name: impl Into<String>, job_iterations: u64) -> Cell {
        Cell {
            name: name.into(),
            job_iterations,
            failures: Vec::new(),
        }
    }

    fn fail(&mut self, why: impl Into<String>) {
        self.failures.push(why.into());
    }

    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Fails the cell when `measured` is off `pinned` by more than
    /// [`PIN_TOL`].
    fn pin(&mut self, what: &str, measured: f64, pinned: f64) {
        if (measured - pinned).abs() > PIN_TOL * pinned.abs() {
            self.fail(format!("{what} = {measured} (pinned {pinned})"));
        }
    }
}

/// What one repetition of a workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub cells: Vec<Cell>,
    /// Job-iterations below each call's target seen by the traced run's
    /// recorder; `None` when untraced.
    pub traced_iterations: Option<u64>,
    /// Fidelity error against the paper (`paper-rate`).
    pub paper_err_pct: Option<f64>,
    /// Shard components of the fluid cluster (`fabric`).
    pub components: u64,
    /// Size of the JSONL export (`chaos-observed`).
    pub trace_bytes: u64,
    /// Alerts the SLO watchdogs raised (`chaos-observed`).
    pub alerts: u64,
}

impl Outcome {
    /// Job-iterations of the cells that passed every check.
    pub fn passed_job_iterations(&self) -> u64 {
        self.cells
            .iter()
            .filter(|c| c.passed())
            .map(|c| c.job_iterations)
            .sum()
    }

    pub fn failed(&self) -> usize {
        self.cells.iter().filter(|c| !c.passed()).count()
    }
}

/// A workload's inputs, built before the first engine call.
pub enum Inputs {
    Paper(Box<PaperInputs>),
    Fabric(FabricInputs),
    Chaos(ChaosInputs),
}

pub struct PaperInputs {
    pinned: bool,
    fig1: Fig1Config,
    fig1_cells: Vec<MatrixCell>,
    table1: Table1Config,
    variants: VariantsConfig,
}

pub struct FabricInputs {
    pinned: bool,
    cfg: ShardConfig,
    fluid: FluidScenario,
    packet: PacketScenario,
    /// Whether re-deriving the plan from the jobs' routes reproduced the
    /// scenario's plan.
    plan_agrees: bool,
}

pub struct ChaosInputs {
    pinned: bool,
    cfg: ChaosSweepConfig,
    fork_at: Dur,
    rules: SloRules,
    /// Per `links` cell, in seed order: whether its compiled plan
    /// perturbs the bottleneck.
    links_perturbed: Vec<bool>,
}

/// splitmix64 of `seed` on an independent stream per input.
fn draw(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds the inputs of one repetition. `rep` must differ between
/// repetitions of a process (see [`chaos_inputs`]).
pub fn setup(workload: Workload, seed: u64, rep: u64, spans: &mut Spans) -> Inputs {
    match workload {
        Workload::PaperRate => Inputs::Paper(Box::new(paper_inputs(seed))),
        Workload::Fabric => Inputs::Fabric(fabric_inputs(seed, FABRIC_BUDGET, spans)),
        Workload::ChaosObserved => Inputs::Chaos(chaos_inputs(seed, rep, spans)),
    }
}

/// Runs one repetition under a fresh recorder of type `R`, returning the
/// checked outcome and the recorder's tallies.
pub fn run<R: Tally>(inputs: &Inputs, spans: &mut Spans) -> (Outcome, R) {
    match inputs {
        Inputs::Paper(p) => run_paper(p, spans),
        Inputs::Fabric(f) => run_fabric(f, spans),
        Inputs::Chaos(c) => run_chaos(c, spans),
    }
}

/// Runs a library call, turning a panic into an error message.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panicked".to_string())
    })
}

/// Runs one call into a layer inside a ledger span, under a fresh
/// recorder whose tallies are then folded into `total`. Returns the call's
/// result and the job-iterations below `n` the recorder saw.
fn layer_call<R: Tally, T>(
    spans: &mut Spans,
    name: &'static str,
    total: &mut R,
    n: usize,
    f: impl FnOnce(&mut R) -> T,
) -> (Result<T, String>, Option<u64>) {
    let mut rec = R::default();
    let out = spans.time(name, || guarded(|| f(&mut rec)));
    let seen = rec.iterations_below(n);
    total.absorb_tally(rec);
    (out, seen)
}

/// Fails every cell with `why`.
fn fail_all(cells: &mut [Cell], why: &str) {
    for c in cells {
        c.fail(why.to_string());
    }
}

/// Checks a traced call's iteration count against what its cells asked
/// for; a mismatch fails every cell of the call.
fn check_iterations(cells: &mut [Cell], seen: Option<u64>) {
    let want: u64 = cells.iter().map(|c| c.job_iterations).sum();
    if let Some(n) = seen.filter(|&n| n != want) {
        fail_all(
            cells,
            &format!("trace saw {n} job-iterations, the cells asked for {want}"),
        );
    }
}

/// The value `table` pins for `cell`; fails the cell when there is none.
fn pinned<'a, T>(cell: &mut Cell, table: &'a [(&str, T)]) -> Option<&'a T> {
    let found = table
        .iter()
        .find(|(name, _)| *name == cell.name)
        .map(|(_, v)| v);
    if found.is_none() {
        cell.fail("nothing pinned for this cell");
    }
    found
}

/// Fails the cell unless every job completed `iterations`.
fn check_completed(cell: &mut Cell, stats: &[&JobStats], iterations: usize, warmup: usize) {
    for s in stats {
        let done = s.cdf.len() + warmup;
        if done < iterations {
            cell.fail(format!(
                "{} completed {done} of {iterations} iterations",
                s.label
            ));
        }
    }
}

fn mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = xs
        .into_iter()
        .fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    sum / n.max(1) as f64
}

// ---------------------------------------------------------------- paper-rate

fn paper_inputs(seed: u64) -> PaperInputs {
    // The seed draws J1's aggressive DCQCN timer from 90–110 µs; the
    // default seed keeps the paper's 100 µs.
    let timer = if seed == DEFAULT_SEED {
        Dur::from_micros(100)
    } else {
        Dur::from_nanos(90_000 + draw(seed, 1) % 20_001)
    };
    let fig1 = Fig1Config {
        iterations: FIG1_ITERATIONS,
        aggressive_timer: timer,
        ..Fig1Config::default()
    };
    let fig1_cells = fig1::default_cells(&fig1);
    let table1 = Table1Config {
        iterations: TABLE1_ITERATIONS,
        warmup: TABLE1_WARMUP,
        timer_range: (timer, Dur::from_micros(125)),
        ..Table1Config::default()
    };
    let zoo = Fig1Config {
        iterations: VARIANTS_ITERATIONS,
        ..fig1.clone()
    };
    let variants = VariantsConfig {
        cells: fig1::zoo_cells(&zoo),
        fig1: zoo,
    };
    PaperInputs {
        pinned: seed == DEFAULT_SEED,
        fig1,
        fig1_cells,
        table1,
        variants,
    }
}

fn run_paper<R: Tally>(inp: &PaperInputs, spans: &mut Spans) -> (Outcome, R) {
    let mut total = R::default();
    let mut out = Outcome::default();
    let (fig1, seen) = layer_call(spans, "mlcc.fig1", &mut total, inp.fig1.iterations, |rec| {
        fig1::run_matrix_traced(&inp.fig1, &inp.fig1_cells, rec)
    });
    let (t1, seen_t1) = layer_call(
        spans,
        "mlcc.table1",
        &mut total,
        inp.table1.iterations,
        |rec| table1::run_traced(&inp.table1, rec),
    );
    let (zoo, seen_zoo) = layer_call(
        spans,
        "mlcc.variants",
        &mut total,
        inp.variants.fig1.iterations,
        |rec| variants::run_traced(&inp.variants, rec),
    );

    spans.begin("bench.check");
    // Fig. 1: completion, pinned medians, and unfair ≤ fair per job.
    let n = inp.fig1.iterations;
    let mut cells: Vec<Cell> = inp
        .fig1_cells
        .iter()
        .map(|c| Cell::new(&c.name, 2 * n as u64))
        .collect();
    let mut fig1d = None;
    match &fig1 {
        Err(e) => fail_all(&mut cells, e),
        Ok(m) => {
            for (cell, (_, s)) in cells.iter_mut().zip(&m.cells) {
                check_completed(
                    cell,
                    &s.stats.iter().collect::<Vec<_>>(),
                    n,
                    inp.fig1.warmup,
                );
                if inp.pinned {
                    if let Some(medians) = pinned(cell, &PIN_FIG1) {
                        for (j, (s, p)) in s.stats.iter().zip(medians).enumerate() {
                            cell.pin(&format!("job {j} median ms"), s.median_ms(), *p);
                        }
                    }
                }
            }
            if let (Some((_, fair)), Some((_, unfair))) = (m.cells.first(), m.cells.get(1)) {
                for (j, (f, u)) in fair.stats.iter().zip(&unfair.stats).enumerate() {
                    if u.median_ms() > f.median_ms() * (1.0 + 1e-9) {
                        cells[1].fail(format!(
                            "job {j}: unfair median {} ms above fair {} ms",
                            u.median_ms(),
                            f.median_ms()
                        ));
                    }
                }
                fig1d = Some(mean(
                    fair.stats
                        .iter()
                        .zip(&unfair.stats)
                        .map(|(f, u)| u.speedup_vs(f).0),
                ));
            }
        }
    }
    check_iterations(&mut cells, seen);
    out.cells.extend(cells);

    // Table 1: one cell per group; pinned speedups per row.
    let groups = table1::paper_groups();
    let n = inp.table1.iterations;
    let mut cells: Vec<Cell> = groups
        .iter()
        .enumerate()
        .map(|(g, jobs)| {
            Cell::new(
                format!("table1/group{}", g + 1),
                2 * (jobs.len() * n) as u64,
            )
        })
        .collect();
    let mut speedups = Vec::new();
    match &t1 {
        Err(e) => fail_all(&mut cells, e),
        Ok(r) => {
            for ((cell, g), jobs) in cells.iter_mut().zip(&r.groups).zip(&groups) {
                if g.rows.len() != jobs.len() {
                    cell.fail(format!("{} rows for {} jobs", g.rows.len(), jobs.len()));
                }
                for row in &g.rows {
                    if inp.pinned {
                        match PIN_TABLE1.get(speedups.len()) {
                            Some(p) => {
                                cell.pin(&format!("{} speedup", row.label), row.speedup.0, *p)
                            }
                            None => cell.fail("more rows than pinned speedups"),
                        }
                    }
                    speedups.push(row.speedup.0);
                }
            }
        }
    }
    check_iterations(&mut cells, seen_t1);
    out.cells.extend(cells);
    out.paper_err_pct = fig1d.and_then(|f| paper::err_pct(f, &speedups));

    // The zoo: one cell per controller; pinned mean iteration times.
    let n = inp.variants.fig1.iterations;
    let mut cells: Vec<Cell> = inp
        .variants
        .cells
        .iter()
        .map(|c| Cell::new(&c.name, 2 * n as u64))
        .collect();
    match &zoo {
        Err(e) => fail_all(&mut cells, e),
        Ok(r) => {
            for (cell, o) in cells.iter_mut().zip(&r.outcomes) {
                if !(o.mean_iter_ms.is_finite() && o.mean_iter_ms > 0.0) {
                    cell.fail(format!("mean iteration {} ms", o.mean_iter_ms));
                }
                if inp.pinned {
                    if let Some(p) = pinned(cell, &PIN_VARIANTS) {
                        cell.pin("mean iteration ms", o.mean_iter_ms, *p);
                    }
                }
            }
        }
    }
    check_iterations(&mut cells, seen_zoo);
    out.cells.extend(cells);
    spans.end();

    black_box((&fig1, &t1, &zoo));
    out.traced_iterations = [seen, seen_t1, seen_zoo].into_iter().sum();
    (out, total)
}

// -------------------------------------------------------------------- fabric

/// The fabric inputs under a given simulated budget (the tests starve
/// it on purpose).
pub fn fabric_inputs(seed: u64, budget: Dur, spans: &mut Spans) -> FabricInputs {
    let cfg = ShardConfig {
        budget,
        ..ShardConfig::paper_scale()
    };
    let mut fluid = shard::build_fluid(&cfg);
    if seed != DEFAULT_SEED {
        // The seed rotates which job gets which start offset of
        // `build_fluid`'s sequence; the default seed keeps its assignment.
        let shift = draw(seed, 2) % 100_000;
        for (i, job) in fluid.jobs.iter_mut().enumerate() {
            job.start_offset = Dur::from_micros(((i as u64 + shift) * 7919) % 50_000);
        }
    }
    let packet = shard::build_packet(&cfg);
    let plan = spans.time("topology.partition", || {
        topology::partition(&shard::job_link_sets(&fluid.jobs))
    });
    FabricInputs {
        pinned: seed == DEFAULT_SEED,
        plan_agrees: plan == fluid.plan,
        cfg,
        fluid,
        packet,
    }
}

/// One cell per shard: completion and per-job iteration counts, plus the
/// pinned mean median.
fn shard_cells(
    prefix: &str,
    components: &[Vec<usize>],
    result: &Result<ShardRunResult, String>,
    cfg: &ShardConfig,
    check_pins: bool,
) -> Vec<Cell> {
    let n = cfg.iterations;
    let mut cells: Vec<Cell> = components
        .iter()
        .enumerate()
        .map(|(c, jobs)| Cell::new(format!("fabric/{prefix}{c}"), (jobs.len() * n) as u64))
        .collect();
    match result {
        Err(e) => fail_all(&mut cells, e),
        Ok(r) => {
            for (cell, jobs) in cells.iter_mut().zip(components) {
                if !r.completed {
                    cell.fail("the run ended before every job finished");
                }
                let stats: Vec<&JobStats> = jobs.iter().filter_map(|&j| r.stats.get(j)).collect();
                if stats.len() != jobs.len() {
                    cell.fail("missing job statistics");
                }
                check_completed(cell, &stats, n, cfg.warmup);
                if check_pins {
                    if let Some(p) = pinned(cell, &PIN_FABRIC) {
                        let measured = mean(stats.iter().map(|s| s.median_ms()));
                        cell.pin("mean job median ms", measured, *p);
                    }
                }
            }
        }
    }
    cells
}

fn run_fabric<R: Tally>(inp: &FabricInputs, spans: &mut Spans) -> (Outcome, R) {
    let mut total = R::default();
    let mut out = Outcome::default();

    let n = inp.cfg.iterations;
    let (fluid, seen_fluid) = layer_call(spans, "mlcc.shard.fluid", &mut total, n, |rec| {
        shard::run_fluid_sharded(&inp.fluid, &inp.cfg, rec, 1)
    });
    let (packet, seen_packet) = layer_call(spans, "mlcc.shard.packet", &mut total, n, |rec| {
        shard::run_packet_sharded(&inp.packet, &inp.cfg, rec, 1)
    });

    spans.begin("bench.check");
    let mut fluid_cells = shard_cells(
        "fluid",
        inp.fluid.plan.components(),
        &fluid,
        &inp.cfg,
        inp.pinned,
    );
    if !inp.plan_agrees {
        fail_all(&mut fluid_cells, "re-derived shard plan differs");
    }
    check_iterations(&mut fluid_cells, seen_fluid);
    let mut packet_cells = shard_cells(
        "packet",
        inp.packet.plan.components(),
        &packet,
        &inp.cfg,
        inp.pinned,
    );
    check_iterations(&mut packet_cells, seen_packet);
    out.traced_iterations = [seen_fluid, seen_packet].into_iter().sum();
    out.cells.extend(fluid_cells);
    out.cells.extend(packet_cells);
    out.components = inp.fluid.plan.num_components() as u64;
    spans.end();

    black_box((&fluid, &packet));
    (out, total)
}

// ------------------------------------------------------------ chaos-observed

/// The chaos-observed inputs of repetition `rep`.
///
/// The sweep's prefix snapshot goes to the process-wide
/// `mlcc::forkcache`, keyed on the sweep config, and the cache has no
/// reset. Each repetition therefore sets the engine's marking-jitter seed
/// to `rep`: with `mark_noise` at 0 that seed is never read, so the
/// simulation is bit-identical, but the cache key is new and every
/// repetition builds its prefix cold, as a CLI run does.
pub fn chaos_inputs(seed: u64, rep: u64, spans: &mut Spans) -> ChaosInputs {
    let mut cfg = ChaosSweepConfig::default();
    assert!(
        cfg.sim.mark_noise == 0.0,
        "the per-repetition cache key relies on unread marking jitter"
    );
    cfg.sim.seed = rep;
    // The seed moves the fork barrier within 1 ms; the fault plans keep
    // the CLI sweep's seeds (see README.md for why).
    let per_iter = cfg.jobs[0]
        .iteration_time_at(cfg.sim.capacity)
        .max(cfg.jobs[1].iteration_time_at(cfg.sim.capacity));
    let shift = if seed == DEFAULT_SEED {
        Dur::ZERO
    } else {
        Dur::from_nanos(draw(seed, 3) % 1_000_000)
    };
    let fork_at = per_iter * CHAOS_FORK_ITERATIONS + shift;
    let remaining = per_iter * (cfg.iterations as u64 * 2) - fork_at;
    let links_perturbed = spans.time("faults.compile", || {
        let mut perturbed = Vec::new();
        for profile in &cfg.profiles {
            let base = ChaosConfig::profile(profile).expect("builtin chaos profile");
            for &s in &cfg.seeds {
                let plan = ChaosConfig { seed: s, ..base }.compile(2, 1, remaining);
                if profile == "links" {
                    perturbed.push(plan.link_schedules.iter().any(|l| !l.is_identity()));
                }
                black_box(plan);
            }
        }
        perturbed
    });
    ChaosInputs {
        pinned: seed == DEFAULT_SEED,
        rules: slo_from_toml_str(SLO_CHAOS).expect("scripts/slo_chaos.toml parses"),
        cfg,
        fork_at,
        links_perturbed,
    }
}

/// The chaos sweep with nothing recorded: the baseline of
/// `telemetry.record.secs`. Give it inputs of a repetition that is not
/// otherwise run, so its prefix is built cold.
pub fn chaos_unrecorded(inp: &ChaosInputs) -> bool {
    chaos::run_forked(&inp.cfg, NoopRecorder, inp.fork_at, false).all_recovered()
}

fn run_chaos<R: Tally>(inp: &ChaosInputs, spans: &mut Spans) -> (Outcome, R) {
    let mut out = Outcome::default();
    let mut total = R::default();
    let mut buf = BufferRecorder::new();
    let (sweep, seen) = layer_call(spans, "mlcc.chaos", &mut total, inp.cfg.iterations, |rec| {
        chaos::run_forked(&inp.cfg, Tee(&mut buf, rec), inp.fork_at, false)
    });
    let events = buf.events();

    let analysis = spans.time("diagnostics.analyze", || {
        analyze("chaos", events, &AnalysisConfig::default())
    });
    black_box(&analysis);
    drop(analysis);
    let slices = split_scenarios(events);
    let tracks: Vec<ScenarioTracks> = spans.time("diagnostics.tracks", || {
        slices.iter().map(|s| extract_tracks(s.events)).collect()
    });
    let health = spans.time("diagnostics.health", || {
        let cfg = HealthConfig::default();
        tracks
            .iter()
            .map(|t| health::analyze(t, &cfg))
            .collect::<Vec<_>>()
    });
    let fairness = spans.time("diagnostics.fairness", || {
        let window = AnalysisConfig::default().fairness_window;
        tracks
            .iter()
            .map(|t| fairness::analyze(t, window))
            .collect::<Vec<_>>()
    });
    let interleave = spans.time("diagnostics.interleave", || {
        tracks
            .iter()
            .map(|t| interleave::audit(t, None))
            .collect::<Vec<_>>()
    });
    let ledgers = spans.time("diagnostics.attribution", || {
        tracks
            .iter()
            .map(|t| attribution::ledger(t, None))
            .collect::<Vec<_>>()
    });
    let recoveries = spans.time("diagnostics.recovery", || {
        let cfg = RecoveryConfig::default();
        slices
            .iter()
            .map(|s| recovery(s.events, &cfg))
            .collect::<Vec<_>>()
    });
    let alerts = spans.time("diagnostics.watchdog", || {
        let mut bank = WatchdogBank::new(inp.rules.clone());
        bank.observe_stream(events);
        bank.into_alerts()
    });
    black_box((&health, &fairness, &interleave, &ledgers, &alerts));
    drop((health, fairness, interleave, ledgers, tracks));
    let text = spans.time("telemetry.export", || telemetry::export::jsonl(events));
    let replayed = spans.time("telemetry.replay", || telemetry::parse_jsonl(&text));
    out.trace_bytes = text.len() as u64;
    out.alerts = alerts.len() as u64;
    drop(text);

    spans.begin("bench.check");
    let grid: Vec<(String, u64)> = inp
        .cfg
        .profiles
        .iter()
        .flat_map(|p| inp.cfg.seeds.iter().map(move |&s| (p.clone(), s)))
        .collect();
    let n = inp.cfg.iterations;
    let mut cells: Vec<Cell> = grid
        .iter()
        .map(|(p, s)| Cell::new(format!("chaos/{p}/s{s}"), 2 * n as u64))
        .collect();
    match &sweep {
        Err(e) => fail_all(&mut cells, e),
        Ok(r) => {
            let back = match &replayed {
                Ok(back) => split_scenarios(back),
                Err(e) => {
                    fail_all(&mut cells, &format!("JSONL replay failed: {e}"));
                    Vec::new()
                }
            };
            let mut links = inp.links_perturbed.iter();
            for (i, cell) in cells.iter_mut().enumerate() {
                let (Some(live), Some(slice)) = (r.cells.get(i), slices.get(i)) else {
                    cell.fail("missing from the sweep or its stream");
                    continue;
                };
                if slice.name != cell.name {
                    cell.fail(format!("stream slice {i} is {}", slice.name));
                }
                if replayed.is_ok() && back.get(i).map(|b| b.events) != Some(slice.events) {
                    cell.fail("JSONL round trip changed the cell's events");
                }
                let offline = recoveries.get(i).map(|rep| rep.all_recovered());
                if offline != Some(live.recovery.all_recovered()) {
                    cell.fail("offline recovery verdict differs from the sweep's");
                }
                if inp.pinned {
                    if !live.recovery.all_recovered() {
                        cell.fail("an incident never recovered");
                    }
                    if live.profile == "links" && links.next() != Some(&true) {
                        cell.fail("the links plan leaves the bottleneck untouched");
                    }
                    if let Some(medians) = pinned(cell, &PIN_CHAOS) {
                        for (j, (m, p)) in live.medians_ms.iter().zip(medians).enumerate() {
                            cell.pin(&format!("job {j} median ms"), *m, *p);
                        }
                    }
                }
            }
        }
    }
    check_iterations(&mut cells, seen);
    out.traced_iterations = seen;
    out.cells = cells;
    spans.end();

    black_box((&sweep, &replayed, &recoveries));
    (out, total)
}
