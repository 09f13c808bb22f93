//! Fault injection for the experiments, plus the `chaos_sweep` grid.
//!
//! Chaos reaches an engine two ways, both written once for all three
//! engines. At construction, [`apply_to_jobs`] expands a
//! [`faults::ChaosConfig`] and lands per-job phase noise, late-arrival
//! start offsets and departure deadlines on any engine's job list; the
//! caller lands the compiled link schedules and signal loss on its engine
//! config ([`apply_rate`] does both for the rate engine). At a fork
//! barrier, [`apply_at_barrier`] perturbs an already-running [`Engine`].
//! With [`ChaosConfig::none`] both return without touching anything, so
//! unperturbed runs stay bit-identical to a build without chaos plumbing.
//!
//! [`run`] sweeps a seeds × profiles grid over the Fig. 1 pair (aggressive
//! VGG19 vs fair VGG19 on the 50 Gbps bottleneck): each cell runs under
//! one seeded chaos profile, records telemetry, and feeds it through
//! [`diagnostics::recovery`] to measure how long the pair takes to
//! re-interleave after each perturbation. The per-cell medians, fault
//! windows, and recovery times are the `BENCH_chaos.json` payload.

use crate::forkcache::{self, Prefix};
use crate::metrics::{text_table, JobStats};
use crate::parallel;
use dcqcn::CcVariant;
use diagnostics::{recovery, RecoveryConfig, RecoveryReport};
use faults::{ChaosConfig, CompiledChaos};
use netsim::fluid::FluidJob;
use netsim::packet::PacketJob;
use netsim::rate::{RateJob, RateSimConfig, RateSimulator, RateSnapshot};
use netsim::Engine;
use simtime::{Bandwidth, Dur, Time};
use telemetry::{BufferRecorder, Event, ForkableRecorder, NoopRecorder, Recorder};
use topology::LinkSchedule;
use workload::{JobSpec, Model, PhaseNoise};

/// A job description construction-time chaos can perturb: the start
/// offset, phase noise and departure deadline every engine's job type
/// carries.
pub trait ChaosJob {
    /// `(start_offset, noise, depart_at)`.
    fn chaos_fields(&mut self) -> (&mut Dur, &mut Option<PhaseNoise>, &mut Option<Time>);
}

macro_rules! chaos_job {
    ($($job:ty),*) => {$(
        impl ChaosJob for $job {
            fn chaos_fields(&mut self) -> (&mut Dur, &mut Option<PhaseNoise>, &mut Option<Time>) {
                (&mut self.start_offset, &mut self.noise, &mut self.depart_at)
            }
        }
    )*};
}
chaos_job!(RateJob, FluidJob, PacketJob);

/// Compiles `chaos` for a run of `jobs` over `links` links lasting roughly
/// `horizon`, and lands its job-side part on `jobs`: phase noise, arrival
/// delays (added to the existing start offsets) and departure deadlines.
/// Chaos is keyed by job index, so a shard built from a slice of a global
/// job list inherits exactly the perturbations its jobs see unsharded.
/// Returns the plan, whose link schedules and signal loss the caller lands
/// on its engine config; `None`, with nothing read or written, when chaos
/// is off.
pub fn apply_to_jobs<J: ChaosJob>(
    chaos: &ChaosConfig,
    jobs: &mut [J],
    links: usize,
    horizon: Dur,
) -> Option<CompiledChaos> {
    if chaos.is_none() {
        return None;
    }
    let plan = chaos.compile(jobs.len(), links, horizon);
    for (i, job) in jobs.iter_mut().enumerate() {
        let (start, noise, depart) = job.chaos_fields();
        *noise = plan.noise[i];
        *start += plan.arrivals[i];
        *depart = plan.departures[i];
    }
    Some(plan)
}

/// Applies `chaos` to a rate-engine run lasting roughly `horizon`: the
/// job-side part of [`apply_to_jobs`] lands on `jobs`, and the bottleneck
/// link's capacity schedule and the DCQCN signal loss land on `sim`.
pub fn apply_rate(
    chaos: &ChaosConfig,
    jobs: &mut [RateJob],
    sim: &mut RateSimConfig,
    horizon: Dur,
) {
    // The rate engine models a single shared bottleneck: one link.
    if let Some(plan) = apply_to_jobs(chaos, jobs, 1, horizon) {
        if let Some(s) = plan.link_schedules.into_iter().next() {
            if !s.is_identity() {
                sim.capacity_schedule = Some(s);
            }
        }
        sim.signal_loss = plan.signal_loss;
    }
}

/// Shifts a compiled link schedule's change points forward by `by`, so a
/// plan compiled over a post-fork remainder lands in absolute time.
fn shift_schedule(s: &LinkSchedule, by: Dur) -> LinkSchedule {
    LinkSchedule::new(s.changes().iter().map(|&(t, m)| (t + by, m)).collect())
}

/// Applies `chaos` to an already-running engine at a fork barrier: the
/// plan is compiled over the post-fork `remaining` horizon and its
/// absolute times shifted by `fork_at`. Phase noise takes effect at each
/// job's next iteration rollover; schedules and signal loss apply from the
/// barrier on.
///
/// Late arrivals are **not representable** after a fork — every job
/// already started inside the shared prefix. The builtin sweep profiles
/// (`stragglers`, `links`) have churn arrivals off; a profile that draws
/// one panics rather than silently diverging from its from-`t=0` meaning.
pub fn apply_at_barrier<E: Engine>(chaos: &ChaosConfig, sim: &mut E, fork_at: Dur, remaining: Dur) {
    if chaos.is_none() {
        return;
    }
    let plan = chaos.compile(sim.num_jobs(), sim.num_links(), remaining);
    assert!(
        plan.arrivals.iter().all(|d| d.is_zero()),
        "forked sweep: late arrivals cannot be applied after the shared \
         prefix (use an arrival-free profile or run without --fork-at)"
    );
    for i in 0..sim.num_jobs() {
        sim.set_noise(i, plan.noise[i]);
        sim.set_depart_at(i, plan.departures[i].map(|t| t + fork_at));
    }
    sim.set_link_schedules(
        plan.link_schedules
            .iter()
            .map(|s| shift_schedule(s, fork_at))
            .collect(),
    );
    sim.set_signal_loss(plan.signal_loss);
}

/// Simulation-budget multiplier for a perturbed run: degraded links and
/// stragglers legitimately stretch iterations well past the clean-run
/// budget. `1` (no change) when chaos is off.
pub fn budget_slack(chaos: &ChaosConfig) -> u64 {
    if chaos.is_none() {
        1
    } else {
        4
    }
}

/// The simulated-time plan of a run of a pair of jobs: the nominal
/// horizon chaos is compiled over, and the budget the run must finish in.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunSpan {
    /// The slower job's nominal iteration time.
    pub(crate) per_iter: Dur,
    /// Iterations the run must complete.
    pub(crate) iterations: usize,
}

impl RunSpan {
    /// The span of `iterations` iterations of `jobs` on a `capacity` link.
    pub(crate) fn pair(jobs: &[JobSpec; 2], capacity: Bandwidth, iterations: usize) -> RunSpan {
        RunSpan {
            per_iter: jobs[0]
                .iteration_time_at(capacity)
                .max(jobs[1].iteration_time_at(capacity)),
            iterations,
        }
    }

    /// The nominal run length chaos is compiled over: two iterations'
    /// worth per iteration.
    pub(crate) fn horizon(&self) -> Dur {
        self.per_iter * (self.iterations as u64 * 2)
    }

    /// What is left of [`RunSpan::horizon`] after a fork at `at`: one
    /// iteration when the fork lies beyond it.
    pub(crate) fn remaining(&self, at: Dur) -> Dur {
        let horizon = self.horizon();
        if at < horizon {
            horizon - at
        } else {
            self.per_iter
        }
    }

    /// Simulated time the run may take under `chaos`.
    pub(crate) fn budget(&self, chaos: &ChaosConfig) -> Dur {
        self.per_iter * ((self.iterations as u64 * 4 + 40) * budget_slack(chaos))
    }
}

/// Every job's statistics, with a degraded-run fallback: a perturbed job
/// that departed before clearing the warmup cut still gets statistics
/// over whatever iterations it did finish. Identical to
/// [`JobStats::from_progress`] whenever the job ran long enough.
pub fn job_stats<E: Engine>(sim: &E, warmup: usize) -> Vec<JobStats> {
    (0..sim.num_jobs())
        .map(|i| {
            let progress = sim.progress(i);
            JobStats::try_from_progress(progress, warmup)
                .or_else(|_| JobStats::try_from_progress(progress, 0))
                .unwrap_or_else(|e| panic!("{e}"))
        })
        .collect()
}

/// Parameters of the chaos sweep.
#[derive(Debug, Clone)]
pub struct ChaosSweepConfig {
    /// The competing pair (default: the Fig. 1 VGG19 duo; job 0 runs the
    /// aggressive timer, job 1 stays fair, so the baseline interleaves).
    pub jobs: [JobSpec; 2],
    /// Aggressive DCQCN timer for job 0.
    pub aggressive_timer: Dur,
    /// Iterations per cell.
    pub iterations: usize,
    /// Warmup iterations excluded from statistics.
    pub warmup: usize,
    /// Seeds of the grid's rows.
    pub seeds: Vec<u64>,
    /// Builtin profile names of the grid's columns (see
    /// [`ChaosConfig::profile`]).
    pub profiles: Vec<String>,
    /// Engine configuration each cell starts from.
    pub sim: RateSimConfig,
}

impl Default for ChaosSweepConfig {
    fn default() -> ChaosSweepConfig {
        ChaosSweepConfig {
            jobs: [
                JobSpec::reference(Model::Vgg19, 1200),
                JobSpec::reference(Model::Vgg19, 1200),
            ],
            aggressive_timer: Dur::from_micros(100),
            iterations: 40,
            warmup: 5,
            // Chosen so every cell perturbs *and* recovers: under "links"
            // each seed hits the single bottleneck (degrade_prob is per
            // link and there is one link) early enough to watch the
            // recovery — 6 compiles to a flap train, 16 and 25 to
            // degradation windows — and under "stragglers" none of them
            // lands a straggler so late that no clean iteration follows.
            seeds: vec![6, 16, 25],
            profiles: vec!["stragglers".to_string(), "links".to_string()],
            sim: RateSimConfig::default(),
        }
    }
}

/// One (profile, seed) cell's outcome.
#[derive(Debug, Clone)]
pub struct ChaosCell {
    /// Chaos profile name.
    pub profile: String,
    /// Chaos seed.
    pub seed: u64,
    /// Median iteration time per job, in milliseconds.
    pub medians_ms: Vec<f64>,
    /// The recovery analyzer's verdict on the cell's telemetry.
    pub recovery: RecoveryReport,
}

impl ChaosCell {
    /// The cell's slowest recovery in milliseconds: `0` when no job saw
    /// an incident, `-1` when some incident never recovered before the
    /// run ended.
    pub fn worst_recovery_ms(&self) -> f64 {
        let mut worst = 0.0f64;
        for j in &self.recovery.jobs {
            if j.incidents.is_empty() {
                continue;
            }
            match j.worst_recovery() {
                Some(d) => worst = worst.max(d.as_millis_f64()),
                None => return -1.0,
            }
        }
        worst
    }

    /// Total incidents across the cell's jobs.
    pub fn incidents(&self) -> usize {
        self.recovery.jobs.iter().map(|j| j.incidents.len()).sum()
    }
}

/// The full grid.
#[derive(Debug, Clone)]
pub struct ChaosSweepResult {
    /// Cells in (profile-major, seed-minor) order.
    pub cells: Vec<ChaosCell>,
}

impl ChaosSweepResult {
    /// `true` when every incident in every cell recovered.
    pub fn all_recovered(&self) -> bool {
        self.cells.iter().all(|c| c.recovery.all_recovered())
    }

    /// Renders the grid as text.
    pub fn render(&self) -> String {
        let mut rows = vec![vec![
            "profile".to_string(),
            "seed".to_string(),
            "j1 median".to_string(),
            "j2 median".to_string(),
            "faults".to_string(),
            "incidents".to_string(),
            "worst recovery".to_string(),
            "interleaving".to_string(),
        ]];
        for c in &self.cells {
            rows.push(vec![
                c.profile.clone(),
                c.seed.to_string(),
                format!("{:.1} ms", c.medians_ms[0]),
                format!("{:.1} ms", c.medians_ms[1]),
                c.recovery.fault_windows.len().to_string(),
                c.incidents().to_string(),
                match c.worst_recovery_ms() {
                    w if w < 0.0 => "not recovered".to_string(),
                    0.0 => "-".to_string(),
                    w => format!("{w:.0} ms"),
                },
                if c.recovery.compatibility_break {
                    "broken".to_string()
                } else {
                    "held".to_string()
                },
            ]);
        }
        text_table(&rows)
    }
}

/// The sweep's competing pair: job 0 on the aggressive timer, job 1 fair.
fn base_jobs(cfg: &ChaosSweepConfig) -> [RateJob; 2] {
    [
        RateJob::new(
            cfg.jobs[0],
            CcVariant::StaticUnfair {
                timer: cfg.aggressive_timer,
            },
        ),
        RateJob::new(cfg.jobs[1], CcVariant::Fair),
    ]
}

impl Prefix for ChaosSweepConfig {
    type Snapshot = RateSnapshot;
    type Sim<Q: Recorder> = RateSimulator<Q>;

    /// The sweep's clean pair, before any chaos.
    fn start<Q: Recorder>(&self, rec: Q) -> RateSimulator<Q> {
        RateSimulator::with_recorder(self.sim.clone(), &base_jobs(self), rec)
    }

    fn key(&self) -> String {
        format!(
            "chaos-prefix|{:?}|{:?}|{:?}",
            self.jobs, self.aggressive_timer, self.sim
        )
    }
}

/// The grid's (profile, seed) cells, profile-major.
fn grid(cfg: &ChaosSweepConfig) -> Vec<(String, u64)> {
    cfg.profiles
        .iter()
        .flat_map(|p| cfg.seeds.iter().map(move |&s| (p.clone(), s)))
        .collect()
}

/// The cell's seeded chaos profile.
fn cell_chaos(profile: &str, seed: u64) -> ChaosConfig {
    ChaosConfig {
        seed,
        ..ChaosConfig::profile(profile)
            .unwrap_or_else(|| panic!("chaos_sweep: unknown profile {profile:?}"))
    }
}

/// Runs one grid cell from `t = 0`, returning its per-job medians and raw
/// telemetry.
fn run_cell(cfg: &ChaosSweepConfig, (profile, seed): &(String, u64)) -> (Vec<f64>, BufferRecorder) {
    let chaos = &cell_chaos(profile, *seed);
    let mut jobs = base_jobs(cfg);
    let span = RunSpan::pair(&cfg.jobs, cfg.sim.capacity, cfg.iterations);
    let mut sim_cfg = cfg.sim.clone();
    apply_rate(chaos, &mut jobs, &mut sim_cfg, span.horizon());
    // Each cell records into its own buffer regardless of the caller's
    // recorder: the recovery analyzer needs the event stream.
    let mut rec = BufferRecorder::new();
    let mut sim = RateSimulator::with_recorder(sim_cfg, &jobs, &mut rec);
    let done = sim.run_until_iterations(cfg.iterations, span.budget(chaos));
    assert!(done, "chaos_sweep: cell {profile}/s{seed} did not finish");
    let medians = medians_ms(&sim, cfg.warmup);
    drop(sim);
    (medians, rec)
}

/// Every job's median iteration time, in milliseconds.
fn medians_ms<E: Engine>(sim: &E, warmup: usize) -> Vec<f64> {
    job_stats(sim, warmup)
        .iter()
        .map(JobStats::median_ms)
        .collect()
}

/// Runs the recovery analyzer over a finished cell's telemetry and streams
/// that telemetry into the sweep fork behind the cell's [`Event::Scenario`]
/// marker (`chaos/<profile>/s<seed>`).
fn finish_cell<F: Recorder>(
    fork: &mut F,
    (profile, seed): &(String, u64),
    medians_ms: Vec<f64>,
    cell_rec: &BufferRecorder,
) -> ChaosCell {
    if F::ENABLED {
        fork.record(
            Time::ZERO,
            Event::Scenario {
                name: format!("chaos/{profile}/s{seed}"),
            },
        );
        for te in cell_rec.events() {
            fork.record(te.at, te.event.clone());
        }
    }
    ChaosCell {
        profile: profile.clone(),
        seed: *seed,
        medians_ms,
        recovery: recovery(cell_rec.events(), &RecoveryConfig::default()),
    }
}

/// Runs the full grid.
pub fn run(cfg: &ChaosSweepConfig) -> ChaosSweepResult {
    run_traced(cfg, NoopRecorder)
}

/// Runs the full grid, streaming each cell's telemetry into `rec` behind
/// an [`Event::Scenario`] marker (`chaos/<profile>/s<seed>`). Cells are
/// independent and run in parallel under [`parallel::jobs`] workers;
/// results and telemetry are identical to a serial run.
pub fn run_traced<R: ForkableRecorder>(cfg: &ChaosSweepConfig, mut rec: R) -> ChaosSweepResult {
    let cells = parallel::map_traced(&mut rec, &grid(cfg), |_, cell, fork| {
        let (medians, cell_rec) = run_cell(cfg, cell);
        finish_cell(fork, cell, medians, &cell_rec)
    });
    ChaosSweepResult { cells }
}

/// Runs the grid forked from a shared clean prefix: the unperturbed pair
/// runs once to `fork_at`, is snapshotted, and every cell restores the
/// snapshot on a worker thread and applies its chaos at the barrier (see
/// [`apply_at_barrier`]). With `replay`, every cell instead re-simulates
/// the prefix itself — same semantics, so a replay run is the
/// byte-identity baseline gating the fork path's snapshot fidelity.
///
/// Forked semantics differ from [`run_traced`]'s: a cell's chaos plan
/// covers only the post-fork remainder of the horizon, so forked and
/// replay runs are comparable with each other but not with an unforked
/// sweep. The prefix snapshot is cached process-wide keyed on the
/// canonical config hash (see [`crate::forkcache`]).
pub fn run_forked<R: ForkableRecorder>(
    cfg: &ChaosSweepConfig,
    mut rec: R,
    fork_at: Dur,
    replay: bool,
) -> ChaosSweepResult {
    let span = RunSpan::pair(&cfg.jobs, cfg.sim.capacity, cfg.iterations);
    let cells = forkcache::map_from_prefix(
        &mut rec,
        &grid(cfg),
        cfg,
        fork_at,
        replay,
        |cell, barrier, fork| {
            let mut cell_rec = BufferRecorder::new();
            let sim = barrier.run(&mut cell_rec, &span, &cell_chaos(&cell.0, cell.1), |_| {});
            let medians = medians_ms(&sim, cfg.warmup);
            drop(sim);
            finish_cell(fork, cell, medians, &cell_rec)
        },
    );
    ChaosSweepResult { cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ChaosSweepConfig {
        ChaosSweepConfig {
            iterations: 12,
            warmup: 3,
            seeds: vec![13],
            profiles: vec!["stragglers".to_string(), "links".to_string()],
            ..ChaosSweepConfig::default()
        }
    }

    #[test]
    fn apply_none_is_a_no_op() {
        let jobs_before = [
            RateJob::new(JobSpec::reference(Model::Vgg19, 1200), CcVariant::Fair),
            RateJob::new(JobSpec::reference(Model::Vgg19, 1200), CcVariant::Fair),
        ];
        let sim_before = RateSimConfig::default();
        let mut jobs = jobs_before.clone();
        let mut sim = sim_before.clone();
        apply_rate(&ChaosConfig::none(), &mut jobs, &mut sim, Dur::ZERO);
        assert!(sim.capacity_schedule.is_none());
        assert!(sim.signal_loss.is_none());
        for (a, b) in jobs.iter().zip(&jobs_before) {
            assert_eq!(a.start_offset, b.start_offset);
            assert_eq!(a.noise, b.noise);
            assert_eq!(a.depart_at, b.depart_at);
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let cfg = quick();
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.cells.len(), 2);
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.medians_ms, y.medians_ms);
            assert_eq!(x.incidents(), y.incidents());
            assert_eq!(x.worst_recovery_ms(), y.worst_recovery_ms());
        }
    }

    #[test]
    fn forked_sweep_matches_replay_byte_for_byte() {
        let cfg = quick();
        let fork_at = Dur::from_millis(120);
        let mut forked_rec = BufferRecorder::new();
        let forked = run_forked(&cfg, &mut forked_rec, fork_at, false);
        let mut replay_rec = BufferRecorder::new();
        let replayed = run_forked(&cfg, &mut replay_rec, fork_at, true);
        assert_eq!(
            forked_rec.events(),
            replay_rec.events(),
            "forked telemetry diverged from the replayed prefix"
        );
        assert_eq!(forked.cells.len(), replayed.cells.len());
        for (f, r) in forked.cells.iter().zip(&replayed.cells) {
            assert_eq!(f.medians_ms, r.medians_ms, "{}/s{}", f.profile, f.seed);
            assert_eq!(f.incidents(), r.incidents());
            assert_eq!(f.worst_recovery_ms(), r.worst_recovery_ms());
        }
    }

    #[test]
    fn link_profile_produces_fault_windows_and_recovers() {
        let cfg = ChaosSweepConfig {
            profiles: vec!["links".to_string()],
            iterations: 12,
            warmup: 3,
            ..ChaosSweepConfig::default()
        };
        let r = run(&cfg);
        // The default seeds are chosen to perturb the bottleneck: every
        // cell must surface at least one fault window.
        for c in &r.cells {
            assert!(
                !c.recovery.fault_windows.is_empty(),
                "seed {} left the link untouched: {}",
                c.seed,
                r.render()
            );
        }
        assert!(r.all_recovered(), "unrecovered incident: {}", r.render());
    }
}
