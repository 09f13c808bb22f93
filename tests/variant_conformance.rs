//! Congestion-control zoo conformance: every [`CcVariant`] runs on every
//! engine that supports it, and the engines agree on what happened.
//!
//! Two contracts, mirroring `cross_engine_consistency`:
//!
//! * **Decisive completion ordering** — for each zoo cell, the emergent
//!   rate engine, the per-packet engine (DCQCN-family variants only; the
//!   delay-based `Swift` has no mark-driven packet model), and the
//!   idealized fluid engine under [`SharingPolicy::Cc`] must agree on
//!   every ordering of iteration completions that is decisive (wider than
//!   half a median iteration) once the interleaving transient has
//!   settled.
//! * **Quiet-run byte identity** — the `variants` sweep's merged
//!   telemetry stream is byte-identical across `--jobs 1/4` and
//!   `--shards 1/4`; worker counts only change wall clock.

use dcqcn::{CcVariant, FairnessPolicy};
use eventsim::Cdf;
use mlcc::experiments::variants::{self, VariantsConfig};
use mlcc_repro::*;
use netsim::fluid::{FluidConfig, FluidJob, FluidSimulator, SharingPolicy};
use netsim::packet::{PacketJob, PacketSimConfig, PacketSimulator};
use netsim::rate::{RateJob, RateSimConfig, RateSimulator};
use netsim::Engine;
use proptest::prelude::*;
use simtime::{Bandwidth, Dur, Time};
use telemetry::BufferRecorder;
use topology::builders::dumbbell;
use workload::{JobSpec, Model};

const LINE: Bandwidth = Bandwidth::from_gbps(50);
const ITERS: usize = 24;
/// First iteration considered settled: the self-organizing variants'
/// interleaving slide takes ~13 iterations in the rate engine at this
/// scale, and orderings during the slide are engine-specific.
const SETTLE: usize = 14;

/// What the engines must agree on for a given cell.
#[derive(Clone, Copy, PartialEq)]
enum Check {
    /// The cell's dynamics are pinned (locked contention, or a slide so
    /// decisive every engine realizes it in the same rounds): engines
    /// must agree on every decisive completion ordering.
    Order,
    /// The cell slides into interleaving through a long transient whose
    /// cost and tie-break are engine micro-timing: engines must agree on
    /// the settled steady state — solo pace, strictly alternating
    /// completions.
    Interleave,
    /// Interleaving is *emergent-only*: the timer dynamics separate the
    /// phases in the rate and packet engines, but the cell's idealized
    /// fluid weighting is a synchronizing force (a decaying early-phase
    /// bonus hands bandwidth to the job *behind* in its phase), so the
    /// fluid engine settles into a stable partial overlap instead. There
    /// the envelope bound is the contract.
    InterleaveEmergent,
}

/// The zoo: every controller family, in its natural pair configuration
/// (mirrors `fig1::zoo_cells` — self-organizing variants run symmetric
/// with a seeded stagger, static knobs are the asymmetric aggressor).
fn zoo() -> Vec<(&'static str, [CcVariant; 2], Dur, Check)> {
    let stagger = Dur::from_millis(15);
    vec![
        (
            "fair",
            [CcVariant::Fair, CcVariant::Fair],
            Dur::ZERO,
            Check::Order,
        ),
        (
            "static-unfair",
            [
                CcVariant::StaticUnfair {
                    timer: Dur::from_micros(100),
                },
                CcVariant::Fair,
            ],
            Dur::ZERO,
            Check::Order,
        ),
        (
            "adaptive",
            [CcVariant::AdaptiveUnfair, CcVariant::AdaptiveUnfair],
            stagger,
            Check::Interleave,
        ),
        (
            "mltcp",
            [
                CcVariant::Mltcp { bonus: 1.0 },
                CcVariant::Mltcp { bonus: 1.0 },
            ],
            stagger,
            Check::Interleave,
        ),
        (
            "policy-prop",
            [
                CcVariant::Policy {
                    policy: FairnessPolicy::Proportional { weight: 1.25 },
                },
                CcVariant::Fair,
            ],
            Dur::ZERO,
            Check::Interleave,
        ),
        (
            "policy-decay",
            [
                CcVariant::Policy {
                    policy: FairnessPolicy::BonusDecay {
                        bonus: 1.0,
                        decay: 2.0,
                    },
                },
                CcVariant::Policy {
                    policy: FairnessPolicy::BonusDecay {
                        bonus: 1.0,
                        decay: 2.0,
                    },
                },
            ],
            stagger,
            Check::InterleaveEmergent,
        ),
        (
            "swift",
            [
                CcVariant::Swift {
                    target_delay: Dur::from_micros(30),
                },
                CcVariant::Swift {
                    target_delay: Dur::from_micros(30),
                },
            ],
            Dur::ZERO,
            Check::Order,
        ),
    ]
}

/// One engine's view of a run: per-job iteration times and completion
/// instants.
struct Run {
    times: Vec<Vec<Dur>>,
    completions: Vec<Vec<Time>>,
}

impl Run {
    fn events(&self) -> Vec<((usize, usize), Time)> {
        self.completions
            .iter()
            .enumerate()
            .flat_map(|(j, ts)| ts.iter().enumerate().map(move |(i, &t)| ((j, i), t)))
            .collect()
    }

    fn median_ms(&self, job: usize, skip: usize) -> f64 {
        Cdf::from_samples(self.times[job].iter().skip(skip).copied().collect())
            .median()
            .as_millis_f64()
    }
}

fn capture(progress: impl Fn(usize) -> Vec<workload::IterationRecord>) -> Run {
    // Engines overshoot the iteration target by different amounts (the
    // stop condition is "every job reached ITERS"); truncate to the
    // common grid so runs are comparable key-for-key.
    let spans: Vec<Vec<workload::IterationRecord>> = (0..2)
        .map(|i| {
            let mut s = progress(i);
            s.truncate(ITERS);
            s
        })
        .collect();
    Run {
        times: spans
            .iter()
            .map(|s| s.iter().map(|t| t.completed - t.started).collect())
            .collect(),
        completions: spans
            .iter()
            .map(|s| s.iter().map(|t| t.completed).collect())
            .collect(),
    }
}

fn run_rate(spec: JobSpec, variants: [CcVariant; 2], stagger: Dur) -> Run {
    let mut jobs = [
        RateJob::new(spec, variants[0]),
        RateJob::new(spec, variants[1]),
    ];
    jobs[1].start_offset = stagger;
    let mut sim = RateSimulator::new(RateSimConfig::default(), &jobs);
    assert!(sim.run_until_iterations(ITERS, Dur::from_secs(30)));
    capture(|i| sim.progress(i).iterations().to_vec())
}

fn run_packet(spec: JobSpec, variants: [CcVariant; 2], stagger: Dur) -> Run {
    let mut jobs = [
        PacketJob::new(spec, variants[0]),
        PacketJob::new(spec, variants[1]),
    ];
    jobs[1].start_offset = stagger;
    let mut sim = PacketSimulator::new(PacketSimConfig::default(), &jobs);
    assert!(sim.run_until_iterations(ITERS, Dur::from_secs(30)));
    capture(|i| sim.progress(i).iterations().to_vec())
}

fn run_fluid(spec: JobSpec, variants: [CcVariant; 2], stagger: Dur) -> Run {
    let d = dumbbell(2, LINE, LINE, Dur::ZERO);
    let t = &d.topology;
    let jobs: Vec<FluidJob> = (0..2)
        .map(|i| {
            let path = t
                .route(topology::FlowKey {
                    src: d.left_hosts[i],
                    dst: d.right_hosts[i],
                    tag: 0,
                })
                .unwrap();
            FluidJob::single_path_at(
                spec,
                path.links().to_vec(),
                if i == 1 { stagger } else { Dur::ZERO },
            )
        })
        .collect();
    let cfg = FluidConfig {
        policy: SharingPolicy::Cc(variants.to_vec()),
        ..FluidConfig::fair()
    };
    let mut sim = FluidSimulator::new(t, cfg, &jobs);
    assert!(sim.run_until_iterations(ITERS, Dur::from_secs(30)));
    capture(|i| sim.progress(i).iterations().to_vec())
}

/// Engines must agree on every *decisive* completion ordering once the
/// interleaving transient has settled (first iterations exempt — the
/// slide evolves at engine-specific speeds) and up to within-round ties
/// (events closer than half a median iteration are engine micro-timing).
fn assert_order_conforms(a: &Run, b: &Run, label: &str) {
    let settled = |ev: Vec<((usize, usize), Time)>| -> Vec<((usize, usize), Time)> {
        ev.into_iter().filter(|((_, i), _)| *i >= SETTLE).collect()
    };
    let (ea, eb) = (settled(a.events()), settled(b.events()));
    let eps_of = |run: &Run| Dur::from_micros((run.median_ms(0, SETTLE) * 500.0) as u64);
    let (eps_a, eps_b) = (eps_of(a), eps_of(b));
    let time_in = |ev: &[((usize, usize), Time)], key| {
        ev.iter().find(|(k, _)| *k == key).expect("same grid").1
    };
    for &(k1, t1) in &ea {
        for &(k2, t2) in &ea {
            if t1 + eps_a < t2 {
                let (u1, u2) = (time_in(&eb, k1), time_in(&eb, k2));
                assert!(
                    u2 + eps_b > u1,
                    "{label}: {k1:?} decisively precedes {k2:?} in one engine \
                     ({t1:?} vs {t2:?}) but follows it in the other ({u1:?} vs {u2:?})"
                );
            }
        }
    }
}

/// A symmetric self-organizing pair breaks its tie *through* the
/// transient: engine micro-timing legitimately decides which job slides
/// ahead and how many iterations the slide costs, so absolute completion
/// instants are not comparable across engines. The decisive invariant is
/// the settled steady state itself, identical in every engine up to
/// relabeling the two jobs: both run at solo pace and their completions
/// strictly alternate (the interleaved round-robin ordering).
fn assert_interleaved(run: &Run, solo: f64, label: &str) {
    for j in 0..2 {
        let med = run.median_ms(j, SETTLE);
        assert!(
            (med - solo).abs() < solo * 0.10,
            "{label} job {j}: settled median {med:.1} ms is not solo pace {solo:.1} ms"
        );
    }
    // Cut by *time*, not index: the transient can leave one job a whole
    // iteration ahead, so index SETTLE of the two jobs falls in
    // different rounds. Settled means both jobs are past theirs.
    let cut = run
        .completions
        .iter()
        .map(|c| c[SETTLE])
        .max()
        .expect("two jobs");
    // Same at the tail: one job's grid ends a round before the other's.
    let end = run
        .completions
        .iter()
        .map(|c| *c.last().expect("nonempty"))
        .min()
        .expect("two jobs");
    let mut ev: Vec<((usize, usize), Time)> = run
        .events()
        .into_iter()
        .filter(|&(_, t)| t > cut && t <= end)
        .collect();
    ev.sort_by_key(|&(_, t)| t);
    assert!(ev.len() >= 4, "{label}: too few settled completions");
    for w in ev.windows(2) {
        assert_ne!(
            w[0].0 .0, w[1].0 .0,
            "{label}: settled completions do not alternate ({:?} then {:?})",
            w[0], w[1]
        );
    }
}

/// Every zoo cell on every supporting engine. Cells with a pinned
/// asymmetry (or none at all) must agree on decisive completion
/// orderings across engines; staggered symmetric cells must all reach
/// the same interleaved steady state. Every engine's settled median sits
/// inside the physical envelope (no faster than solo, no slower than the
/// fully-contended locked state plus delay-control overhead).
#[test]
fn every_variant_conforms_across_engines() {
    let spec = JobSpec::reference(Model::ResNet50, 400);
    let solo = spec.iteration_time_at(LINE).as_millis_f64();
    let locked = (spec.compute_time() + spec.comm_time_at(LINE) * 2).as_millis_f64();
    for (name, variants, stagger, check) in zoo() {
        let rate = run_rate(spec, variants, stagger);
        let fluid = run_fluid(spec, variants, stagger);
        let mut engines = vec![("rate", rate), ("fluid", fluid)];
        if !variants[0].is_delay_based() {
            engines.push(("packet", run_packet(spec, variants, stagger)));
        }
        match check {
            Check::Interleave => {
                for (engine, run) in &engines {
                    assert_interleaved(run, solo, &format!("{name}/{engine}"));
                }
            }
            Check::InterleaveEmergent => {
                for (engine, run) in &engines {
                    if *engine != "fluid" {
                        assert_interleaved(run, solo, &format!("{name}/{engine}"));
                    }
                }
            }
            Check::Order => {
                for pair in engines.windows(2) {
                    let ((na, a), (nb, b)) = (&pair[0], &pair[1]);
                    assert_order_conforms(a, b, &format!("{name}: {na} vs {nb}"));
                }
            }
        }
        for (engine, run) in &engines {
            for j in 0..2 {
                let med = run.median_ms(j, SETTLE);
                assert!(
                    med > solo * 0.95 && med < locked * 1.20,
                    "{name}/{engine} job {j}: median {med:.1} ms outside \
                     [solo {solo:.1}, locked {locked:.1}] envelope"
                );
            }
        }
    }
}

/// The `variants` sweep's merged telemetry is byte-identical across
/// worker and shard counts — `--jobs`/`--shards` change wall clock only.
#[test]
fn sweep_is_byte_identical_across_jobs_and_shards() {
    let mut cfg = VariantsConfig::default();
    cfg.fig1.iterations = 8;
    cfg.fig1.warmup = 2;
    let stream = |jobs: usize, shards: usize| {
        mlcc::parallel::set_jobs(jobs);
        mlcc::parallel::set_shards(shards);
        let mut rec = BufferRecorder::new();
        let r = variants::run_traced(&cfg, &mut rec);
        mlcc::parallel::set_jobs(0);
        mlcc::parallel::set_shards(0);
        assert_eq!(r.outcomes.len(), cfg.cells.len());
        rec
    };
    let base = stream(1, 1);
    assert!(!base.events().is_empty());
    for (jobs, shards) in [(4, 1), (1, 4), (4, 4)] {
        let other = stream(jobs, shards);
        assert_eq!(
            base.events(),
            other.events(),
            "--jobs {jobs} --shards {shards} leaked into the stream"
        );
        assert_eq!(base.counts(), other.counts());
    }
}

/// Contended milliseconds in `[from, to)` at 1 ms resolution: samples
/// where both jobs' sender rates are past the busy threshold.
fn overlap_ms(sim: &RateSimulator<&mut BufferRecorder>, from: Time, to: Time) -> f64 {
    let mut contended = 0.0;
    let mut t = from;
    while t < to {
        if (0..2).all(|i| sim.rate_trace(i).value_at(t).unwrap_or(0.0) >= 1.0) {
            contended += 1.0;
        }
        t += Dur::from_millis(1);
    }
    contended
}

/// One seeded rate-engine run of a symmetric pair: merged telemetry,
/// per-job completion instants, cumulative contention over the whole
/// run, and the peak sender rate.
struct PairRun {
    events: Vec<telemetry::TimedEvent>,
    completions: Vec<Vec<Time>>,
    cum_overlap_ms: f64,
    peak_rate_gbps: f64,
}

fn run_pair(variant: CcVariant, stagger: Dur, mark_noise: f64, seed: u64) -> PairRun {
    let spec = JobSpec::reference(Model::ResNet50, 400);
    let cfg = RateSimConfig {
        trace_interval: Some(Dur::from_millis(1)),
        mark_noise,
        seed,
        ..Default::default()
    };
    let mut jobs = [RateJob::new(spec, variant), RateJob::new(spec, variant)];
    jobs[1].start_offset = stagger;
    let mut rec = BufferRecorder::new();
    let mut sim = RateSimulator::with_recorder(cfg, &jobs, &mut rec);
    assert!(sim.run_until_iterations(20, Dur::from_secs(30)));
    let end = sim.now();
    let cum_overlap_ms = overlap_ms(&sim, Time::ZERO, end);
    let peak_rate_gbps = (0..2)
        .flat_map(|i| sim.rate_trace(i).iter().map(|(_, v)| v))
        .fold(0.0f64, f64::max);
    let completions = (0..2)
        .map(|i| {
            sim.progress(i)
                .iterations()
                .iter()
                .map(|t| t.completed)
                .collect()
        })
        .collect();
    drop(sim);
    PairRun {
        events: rec.events().to_vec(),
        completions,
        cum_overlap_ms,
        peak_rate_gbps,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `Mltcp { bonus: 0 }` *is* fair DCQCN: across seeds, marking noise
    /// and start staggers, the wrapped controller's runs are
    /// byte-identical to `Fair`'s — same telemetry stream, same
    /// completion instants to the nanosecond.
    #[test]
    fn mltcp_zero_bonus_is_bit_exact_fair(
        seed in 1u64..1024,
        noise_idx in 0usize..3,
        stagger_ms in 0u64..20,
    ) {
        let noise = [0.0, 0.05, 0.2][noise_idx];
        let stagger = Dur::from_millis(stagger_ms);
        let fair = run_pair(CcVariant::Fair, stagger, noise, seed);
        let mltcp = run_pair(CcVariant::Mltcp { bonus: 0.0 }, stagger, noise, seed);
        prop_assert!(!fair.events.is_empty());
        prop_assert_eq!(fair.events, mltcp.events);
        prop_assert_eq!(fair.completions, mltcp.completions);
    }

    /// A positive bonus makes the phases drift apart faster: in the one
    /// regime where plain fair DCQCN provably stays contended under
    /// deterministic marking (a 2 ms stagger at this scale — elsewhere
    /// even the fair pair eventually slides on its own), every bonus
    /// strictly reduces the run's cumulative contended time — and the
    /// sender rates never exceed the line rate while doing so.
    #[test]
    fn mltcp_positive_bonus_separates_phases(bonus in 0.25f64..4.0) {
        let stagger = Dur::from_millis(2);
        let fair = run_pair(CcVariant::Fair, stagger, 0.0, 0);
        let mltcp = run_pair(CcVariant::Mltcp { bonus }, stagger, 0.0, 0);
        prop_assert!(
            mltcp.cum_overlap_ms < fair.cum_overlap_ms,
            "bonus {} did not separate phases: mltcp contended {} ms vs fair {} ms",
            bonus, mltcp.cum_overlap_ms, fair.cum_overlap_ms
        );
        let line = RateSimConfig::default().capacity.as_gbps_f64();
        prop_assert!(
            mltcp.peak_rate_gbps <= line + 1e-9,
            "sender rate {} Gbps exceeded line rate {} Gbps",
            mltcp.peak_rate_gbps, line
        );
    }
}
