//! Cross-engine consistency: the idealized fluid engine and the emergent
//! rate-based DCQCN engine must agree on the physics they share — including
//! under seeded fault injection, where all three engines (fluid, rate,
//! packet) must realize the *same* chaos schedule.

use dcqcn::CcVariant;
use diagnostics::{recovery, RecoveryConfig, RecoveryReport};
use eventsim::Cdf;
use faults::{ChaosConfig, PhaseChaos};
use mlcc_repro::*;
use netsim::fluid::{FluidConfig, FluidJob, FluidSimulator, SharingPolicy};
use netsim::packet::{PacketJob, PacketSimConfig, PacketSimulator};
use netsim::rate::{RateJob, RateSimConfig, RateSimulator};
use netsim::Engine;
use simtime::{Bandwidth, Dur, Time};
use telemetry::BufferRecorder;
use topology::builders::dumbbell;
use workload::{JobProgress, JobSpec, Model};

const LINE: Bandwidth = Bandwidth::from_gbps(50);

fn median_ms(progress: &JobProgress, skip: usize) -> f64 {
    let t: Vec<_> = progress.iteration_times().into_iter().skip(skip).collect();
    Cdf::from_samples(t).median().as_millis_f64()
}

fn fluid_pair(spec: JobSpec, policy: SharingPolicy, iters: usize) -> Vec<f64> {
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
            FluidJob::single_path(spec, path.links().to_vec())
        })
        .collect();
    let cfg = FluidConfig {
        policy,
        ..FluidConfig::fair()
    };
    let mut sim = FluidSimulator::new(t, cfg, &jobs);
    assert!(sim.run_until_iterations(iters, Dur::from_secs(30)));
    (0..2)
        .map(|i| median_ms(sim.progress(i), iters / 3))
        .collect()
}

fn rate_pair(spec: JobSpec, variants: [CcVariant; 2], iters: usize) -> Vec<f64> {
    let jobs = [
        RateJob::new(spec, variants[0]),
        RateJob::new(spec, variants[1]),
    ];
    let mut sim = RateSimulator::new(RateSimConfig::default(), &jobs);
    assert!(sim.run_until_iterations(iters, Dur::from_secs(30)));
    (0..2)
        .map(|i| median_ms(sim.progress(i), iters / 3))
        .collect()
}

/// Two identical synchronized jobs under fair sharing: both engines lock
/// them at K + 2C.
#[test]
fn fair_locked_state_agrees_across_engines() {
    let spec = JobSpec::reference(Model::Vgg19, 1200);
    let expected = (spec.compute_time() + spec.comm_time_at(LINE) * 2).as_millis_f64();
    let fluid = fluid_pair(spec, SharingPolicy::MaxMin, 8);
    let rate = rate_pair(spec, [CcVariant::Fair, CcVariant::Fair], 8);
    for k in 0..2 {
        assert!(
            (fluid[k] - expected).abs() < 1.0,
            "fluid job {k}: {:.1} vs {expected:.1}",
            fluid[k]
        );
        assert!(
            (rate[k] - expected).abs() < expected * 0.01,
            "rate job {k}: {:.1} vs {expected:.1}",
            rate[k]
        );
    }
}

/// Unfairness realized two ways — DCQCN timer asymmetry (emergent) and
/// weighted max-min (imposed) — both converge compatible jobs to solo pace.
#[test]
fn unfair_interleave_agrees_across_engines() {
    let spec = JobSpec::reference(Model::Vgg19, 1200);
    let solo = spec.iteration_time_at(LINE).as_millis_f64();
    let fluid = fluid_pair(spec, SharingPolicy::Weighted(vec![2.0, 1.0]), 12);
    let rate = rate_pair(
        spec,
        [
            CcVariant::StaticUnfair {
                timer: Dur::from_micros(100),
            },
            CcVariant::Fair,
        ],
        12,
    );
    for k in 0..2 {
        assert!(
            (fluid[k] - solo).abs() < 2.0,
            "fluid job {k}: {:.1} vs solo {solo:.1}",
            fluid[k]
        );
        assert!(
            (rate[k] - solo).abs() < solo * 0.02,
            "rate job {k}: {:.1} vs solo {solo:.1}",
            rate[k]
        );
    }
}

/// One engine's observation of a chaos run: per-job iteration times and
/// completion instants, plus the recovery analyzer's verdict on its
/// telemetry.
struct ChaosRun {
    times: Vec<Vec<Dur>>,
    completions: Vec<Vec<Time>>,
    report: RecoveryReport,
}

impl ChaosRun {
    /// All iteration completions as `((job, iteration), instant)`.
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

/// The engines must agree on every *decisive* ordering of completion
/// events once the interleaving slide has settled (the slide's transient
/// evolves at engine-specific speeds, so the first iterations are
/// exempt). Interleaved jobs finish each round within hairs of each
/// other and the within-round order is engine micro-timing, so ties
/// (events closer than half a median iteration) are also exempt — but a
/// straggler shifts completions by whole iterations, and those
/// reorderings must look the same everywhere.
fn assert_order_conforms(a: &ChaosRun, b: &ChaosRun, label: &str) {
    let settled = |ev: Vec<((usize, usize), Time)>| -> Vec<((usize, usize), Time)> {
        ev.into_iter().filter(|((_, i), _)| *i >= 3).collect()
    };
    let (ea, eb) = (settled(a.events()), settled(b.events()));
    let eps_of = |run: &ChaosRun| Dur::from_micros((run.median_ms(0, 3) * 500.0) as u64);
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

/// The seeded straggler schedule used by the three-engine conformance
/// test: each job straggles exactly once, mid-run (job 0 at iteration 5,
/// job 1 at iteration 4), so every engine must show one finite-recovery
/// incident per job.
fn straggler_chaos() -> ChaosConfig {
    ChaosConfig {
        seed: 6,
        phase: PhaseChaos {
            compute_jitter: 0.05,
            comm_jitter: 0.0,
            straggler_prob: 0.15,
            straggler_factor: 3.0,
        },
        ..ChaosConfig::none()
    }
}

const CHAOS_ITERS: usize = 16;

/// Tentpole conformance: one seeded fault schedule, three engines.
///
/// Phase noise is keyed and stateless — the scale factors for iteration
/// `i` of job `j` are a pure function of `(seed, j, i)` — so the fluid,
/// rate, and packet engines must realize the *same* stragglers no matter
/// how their internal event loops interleave. They must agree on the
/// global iteration-completion order, on per-job iteration-time medians,
/// and on the physics of the perturbation: exactly the scheduled
/// iterations run slow. And the recovery analyzer must report every
/// incident recovering in finite time in all three engines (the paper's
/// interleaved steady state re-establishes itself after a straggler).
#[test]
fn seeded_stragglers_conform_across_three_engines() {
    let spec = JobSpec::reference(Model::ResNet50, 400);
    let chaos = straggler_chaos();
    let plan = chaos.compile(2, 1, Dur::from_secs(1));
    let stragglers: Vec<(usize, u32)> = (0..2)
        .flat_map(|j| {
            let n = plan.noise[j].expect("phase layer is on");
            (0..CHAOS_ITERS as u32).filter_map(move |i| n.is_straggler(i).then_some((j, i)))
        })
        .collect();
    assert_eq!(
        stragglers,
        vec![(0, 5), (1, 4)],
        "the pinned seed's schedule moved — fix the doc comment too"
    );

    // Rate engine: the aggressive/fair pair slides into interleaving.
    let rate = {
        let mut rec = BufferRecorder::new();
        let mut jobs = [
            RateJob::new(
                spec,
                CcVariant::StaticUnfair {
                    timer: Dur::from_micros(100),
                },
            ),
            RateJob::new(spec, CcVariant::Fair),
        ];
        for (j, job) in jobs.iter_mut().enumerate() {
            job.noise = plan.noise[j];
        }
        let mut sim = RateSimulator::with_recorder(RateSimConfig::default(), &jobs, &mut rec);
        assert!(sim.run_until_iterations(CHAOS_ITERS, Dur::from_secs(10)));
        let times: Vec<Vec<Dur>> = (0..2).map(|i| sim.progress(i).iteration_times()).collect();
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
        ChaosRun {
            times,
            completions,
            report: recovery(rec.events(), &RecoveryConfig::default()),
        }
    };

    // Packet engine: same pair, per-packet granularity.
    let pkt = {
        let mut rec = BufferRecorder::new();
        let mut jobs = [
            PacketJob::new(
                spec,
                CcVariant::StaticUnfair {
                    timer: Dur::from_micros(100),
                },
            ),
            PacketJob::new(spec, CcVariant::Fair),
        ];
        for (j, job) in jobs.iter_mut().enumerate() {
            job.noise = plan.noise[j];
        }
        let mut sim = PacketSimulator::with_recorder(PacketSimConfig::default(), &jobs, &mut rec);
        assert!(sim.run_until_iterations(CHAOS_ITERS, Dur::from_secs(10)));
        let times: Vec<Vec<Dur>> = (0..2).map(|i| sim.progress(i).iteration_times()).collect();
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
        ChaosRun {
            times,
            completions,
            report: recovery(rec.events(), &RecoveryConfig::default()),
        }
    };

    // Fluid engine: weighted max-min imposes the same interleaving the
    // DCQCN timer asymmetry produces emergently.
    let fluid = {
        let mut rec = BufferRecorder::new();
        let d = dumbbell(2, LINE, LINE, Dur::ZERO);
        let t = &d.topology;
        let mut jobs: Vec<FluidJob> = (0..2)
            .map(|i| {
                let path = t
                    .route(topology::FlowKey {
                        src: d.left_hosts[i],
                        dst: d.right_hosts[i],
                        tag: 0,
                    })
                    .unwrap();
                FluidJob::single_path(spec, path.links().to_vec())
            })
            .collect();
        for (j, job) in jobs.iter_mut().enumerate() {
            job.noise = plan.noise[j];
        }
        let cfg = FluidConfig {
            policy: SharingPolicy::Weighted(vec![2.0, 1.0]),
            ..FluidConfig::fair()
        };
        let mut sim = FluidSimulator::with_recorder(t, cfg, &jobs, &mut rec);
        assert!(sim.run_until_iterations(CHAOS_ITERS, Dur::from_secs(10)));
        let times: Vec<Vec<Dur>> = (0..2).map(|i| sim.progress(i).iteration_times()).collect();
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
        ChaosRun {
            times,
            completions,
            report: recovery(rec.events(), &RecoveryConfig::default()),
        }
    };

    let engines = [("rate", &rate), ("packet", &pkt), ("fluid", &fluid)];

    // 1. Every engine realizes exactly the scheduled stragglers: the
    // straggler iterations are materially slower than the job's median,
    // and once the disruption has passed the tail of the run is back to
    // normal. (Early iterations are exempt — the interleaving slide and
    // the collateral damage right after a straggler are legitimately
    // slow without being stragglers themselves.)
    let extra = spec.compute_time().as_millis_f64() * 1.5; // 2×compute stretch, conservatively
    for (name, run) in &engines {
        for j in 0..2 {
            let med = run.median_ms(j, 0);
            for i in 0..CHAOS_ITERS {
                let t = run.times[j][i].as_millis_f64();
                if stragglers.contains(&(j, i as u32)) {
                    assert!(
                        t > med + extra,
                        "{name} job {j}: scheduled straggler {i} not slow ({t:.1} vs median {med:.1})"
                    );
                } else if i >= CHAOS_ITERS - 3 {
                    assert!(
                        t < med + extra,
                        "{name} job {j}: tail iteration {i} still slow ({t:.1} vs median {med:.1})"
                    );
                }
            }
        }
    }

    // 2. The engines agree on the global completion order (up to
    // within-round ties).
    assert_order_conforms(&rate, &pkt, "rate vs packet");
    assert_order_conforms(&rate, &fluid, "rate vs fluid");
    assert_order_conforms(&fluid, &pkt, "fluid vs packet");

    // 3. Per-job medians agree across engines (existing cross-engine
    // tolerances: rate and fluid are both idealized, packet is noisier).
    for j in 0..2 {
        let f = fluid.median_ms(j, 3);
        let r = rate.median_ms(j, 3);
        let p = pkt.median_ms(j, 3);
        assert!(
            (r - f).abs() < f * 0.04,
            "job {j} median: rate {r:.1} vs fluid {f:.1}"
        );
        assert!(
            (p - f).abs() < f * 0.08,
            "job {j} median: packet {p:.1} vs fluid {f:.1}"
        );
    }

    // 4. The recovery analyzer sees the incidents and a finite
    // time-to-reinterleave in every engine.
    for (name, run) in &engines {
        let incidents: usize = run.report.jobs.iter().map(|j| j.incidents.len()).sum();
        assert!(
            incidents >= 2,
            "{name}: expected both stragglers as incidents"
        );
        assert!(
            run.report.all_recovered(),
            "{name}: an incident never recovered"
        );
        for j in &run.report.jobs {
            if j.incidents.is_empty() {
                continue;
            }
            let worst = j
                .worst_recovery()
                .unwrap_or_else(|| panic!("{name} job {}: recovery not finite", j.job));
            assert!(
                !worst.is_zero(),
                "{name} job {}: zero-width recovery is implausible",
                j.job
            );
        }
    }
}

/// A lone job runs at its analytic solo pace in both engines.
#[test]
fn solo_pace_agrees_across_engines() {
    for model in [Model::Vgg16, Model::Dlrm, Model::ResNet50] {
        let spec = JobSpec::reference(model, 1400);
        let solo = spec.iteration_time_at(LINE).as_millis_f64();

        let d = dumbbell(1, LINE, LINE, Dur::ZERO);
        let path = d
            .topology
            .route(topology::FlowKey {
                src: d.left_hosts[0],
                dst: d.right_hosts[0],
                tag: 0,
            })
            .unwrap();
        let mut fluid = FluidSimulator::new(
            &d.topology,
            FluidConfig::fair(),
            &[FluidJob::single_path(spec, path.links().to_vec())],
        );
        assert!(fluid.run_until_iterations(4, Dur::from_secs(30)));
        let f = median_ms(fluid.progress(0), 0);

        let mut rate = RateSimulator::new(
            RateSimConfig::default(),
            &[RateJob::new(spec, CcVariant::Fair)],
        );
        assert!(rate.run_until_iterations(4, Dur::from_secs(30)));
        let r = median_ms(rate.progress(0), 1);

        assert!(
            (f - solo).abs() < 0.5,
            "{model:?} fluid {f:.2} vs {solo:.2}"
        );
        assert!(
            (r - solo).abs() < solo * 0.02,
            "{model:?} rate {r:.2} vs {solo:.2}"
        );
    }
}
