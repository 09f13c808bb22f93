//! Snapshot round-trip fidelity: for every engine, across seeds and chaos
//! profiles,
//!
//! ```text
//! run(0 → T)  ≡  run(0 → t) + snapshot + restore + run(t → T)
//! ```
//!
//! must hold **at the telemetry byte level** — the interrupted run's
//! recorder stream, iteration times, and final clock are exactly those of
//! the uninterrupted run. This is the property the forked-sweep
//! optimisation (`--fork-at`) rests on: if a restore perturbed even one
//! event, a forked sweep would silently diverge from the run it claims to
//! reproduce.

use dcqcn::CcVariant;
use faults::ChaosConfig;
use mlcc_repro::*;
use netsim::fluid::{FluidConfig, FluidJob, FluidSimulator};
use netsim::packet::{PacketJob, PacketSimConfig, PacketSimulator};
use netsim::rate::{RateJob, RateSimConfig, RateSimulator};
use netsim::snapshot::Snapshottable;
use netsim::Engine;
use simtime::{Bandwidth, Dur, Time};
use telemetry::BufferRecorder;
use topology::builders::dumbbell;
use workload::{JobSpec, Model};

const LINE: Bandwidth = Bandwidth::from_gbps(50);
/// Fork the interrupted run here…
const BARRIER: Time = Time::from_nanos(100_000_000);
/// …and compare both runs here.
const END: Time = Time::from_nanos(350_000_000);

/// The grid every engine round-trips over. Profile `none` checks the
/// quiet path; `stragglers` layers seeded phase noise on top so the
/// snapshot has to carry chaos stream state too.
const GRID: [(&str, u64); 4] = [
    ("none", 1),
    ("none", 7),
    ("stragglers", 1),
    ("stragglers", 7),
];

fn noise_plan(profile: &str, seed: u64) -> faults::CompiledChaos {
    let chaos = if profile == "none" {
        ChaosConfig::none()
    } else {
        let base = ChaosConfig::profile(profile).expect("builtin profile");
        ChaosConfig { seed, ..base }
    };
    chaos.compile(2, 1, Dur::from_secs(1))
}

/// Asserts uninterrupted ≡ interrupted for one engine. `$build` is a
/// constructor expression evaluated with `$rec` bound to the recorder the
/// run records into; both runs construct the engine identically, the
/// second one stops at the barrier, snapshots, restores, and resumes.
macro_rules! round_trip {
    ($sim:ty, $label:expr, $rec:ident, $build:expr) => {
        round_trip!($sim, $label, $rec, $build, BARRIER, END)
    };
    ($sim:ty, $label:expr, $rec:ident, $build:expr, $barrier:expr, $end:expr) => {{
        // Uninterrupted reference run.
        let mut base_rec = BufferRecorder::new();
        let base_times = {
            let $rec = &mut base_rec;
            let mut sim: $sim = $build;
            sim.run_until($end);
            let t: Vec<Vec<Dur>> = (0..2).map(|i| sim.progress(i).iteration_times()).collect();
            t
        };
        // Interrupted run: stop at the barrier, capture, rebuild, resume.
        let mut rt_rec = BufferRecorder::new();
        let rt_times = {
            let snap = {
                let $rec = &mut rt_rec;
                let mut sim: $sim = $build;
                sim.run_until($barrier);
                sim.snapshot().expect("run_until leaves a clean barrier")
            };
            let mut sim = <$sim>::restore(snap, &mut rt_rec).expect("snapshot restores cleanly");
            sim.run_until($end);
            let t: Vec<Vec<Dur>> = (0..2).map(|i| sim.progress(i).iteration_times()).collect();
            t
        };
        assert_eq!(base_times, rt_times, "{}: iteration times diverged", $label);
        assert_eq!(
            base_rec.events(),
            rt_rec.events(),
            "{}: telemetry stream diverged after restore",
            $label
        );
    }};
}

#[test]
fn rate_round_trips_byte_identical_across_seeds_and_profiles() {
    for (profile, seed) in GRID {
        let plan = noise_plan(profile, seed);
        let spec = JobSpec::reference(Model::ResNet50, 400);
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
        round_trip!(
            RateSimulator<&mut BufferRecorder>,
            format!("rate/{profile}/s{seed}"),
            rec,
            RateSimulator::with_recorder(RateSimConfig::default(), &jobs, rec)
        );
    }
}

#[test]
fn packet_round_trips_byte_identical_across_seeds_and_profiles() {
    for (profile, seed) in GRID {
        let plan = noise_plan(profile, seed);
        let spec = JobSpec::reference(Model::ResNet50, 400);
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
        round_trip!(
            PacketSimulator<&mut BufferRecorder>,
            format!("packet/{profile}/s{seed}"),
            rec,
            PacketSimulator::with_recorder(PacketSimConfig::default(), &jobs, rec)
        );
    }
}

#[test]
fn fluid_round_trips_byte_identical_across_seeds_and_profiles() {
    for (profile, seed) in GRID {
        let plan = noise_plan(profile, seed);
        let d = dumbbell(2, LINE, LINE, Dur::ZERO);
        let t = &d.topology;
        let spec = JobSpec::reference(Model::ResNet50, 400);
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
        round_trip!(
            FluidSimulator<&mut BufferRecorder>,
            format!("fluid/{profile}/s{seed}"),
            rec,
            FluidSimulator::with_recorder(t, FluidConfig::fair(), &jobs, rec)
        );
    }
}

// The fixed grid above is the deterministic cross-engine core; on top of
// it, randomized seeds and barrier placements probe the same property on
// the two cheap engines — any barrier `run_until` can reach must be a
// valid fork point.
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn rate_round_trips_for_arbitrary_seeds_and_barriers(
        seed in 0u64..1000,
        straggle in proptest::bool::ANY,
        barrier_ms in 20u64..200,
    ) {
        let plan = noise_plan(if straggle { "stragglers" } else { "none" }, seed);
        let spec = JobSpec::reference(Model::ResNet50, 400);
        let mut jobs = [
            RateJob::new(spec, CcVariant::Fair),
            RateJob::new(spec, CcVariant::Fair),
        ];
        for (j, job) in jobs.iter_mut().enumerate() {
            job.noise = plan.noise[j];
        }
        round_trip!(
            RateSimulator<&mut BufferRecorder>,
            format!("rate/prop/s{seed}/b{barrier_ms}ms"),
            rec,
            RateSimulator::with_recorder(RateSimConfig::default(), &jobs, rec),
            Time::ZERO + Dur::from_millis(barrier_ms),
            END
        );
    }

    #[test]
    fn fluid_round_trips_for_arbitrary_seeds_and_barriers(
        seed in 0u64..1000,
        straggle in proptest::bool::ANY,
        barrier_ms in 20u64..200,
    ) {
        let plan = noise_plan(if straggle { "stragglers" } else { "none" }, seed);
        let d = dumbbell(2, LINE, LINE, Dur::ZERO);
        let t = &d.topology;
        let spec = JobSpec::reference(Model::ResNet50, 400);
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
        round_trip!(
            FluidSimulator<&mut BufferRecorder>,
            format!("fluid/prop/s{seed}/b{barrier_ms}ms"),
            rec,
            FluidSimulator::with_recorder(t, FluidConfig::fair(), &jobs, rec),
            Time::ZERO + Dur::from_millis(barrier_ms),
            END
        );
    }
}

/// The congestion-control zoo's wrapped controllers (`Mltcp`'s progress
/// bonus slot, `Policy`'s fairness boost) carry state of their own; a
/// snapshot taken mid-slide — staggered pair, barrier inside the
/// interleaving transient — must round-trip it byte-identically on both
/// emergent engines.
#[test]
fn zoo_variant_controllers_round_trip_byte_identical() {
    let spec = JobSpec::reference(Model::ResNet50, 400);
    let pairs: [[CcVariant; 2]; 3] = [
        [
            CcVariant::Mltcp { bonus: 1.0 },
            CcVariant::Mltcp { bonus: 1.0 },
        ],
        [
            CcVariant::Policy {
                policy: dcqcn::FairnessPolicy::BonusDecay {
                    bonus: 1.0,
                    decay: 2.0,
                },
            },
            CcVariant::Policy {
                policy: dcqcn::FairnessPolicy::Proportional { weight: 1.25 },
            },
        ],
        [CcVariant::AdaptiveUnfair, CcVariant::Mltcp { bonus: 2.0 }],
    ];
    for (p, variants) in pairs.iter().enumerate() {
        let mut jobs = [
            RateJob::new(spec, variants[0]),
            RateJob::new(spec, variants[1]),
        ];
        jobs[1].start_offset = Dur::from_millis(15);
        round_trip!(
            RateSimulator<&mut BufferRecorder>,
            format!("rate/zoo-pair{p}"),
            rec,
            RateSimulator::with_recorder(RateSimConfig::default(), &jobs, rec)
        );
        let mut jobs = [
            PacketJob::new(spec, variants[0]),
            PacketJob::new(spec, variants[1]),
        ];
        jobs[1].start_offset = Dur::from_millis(15);
        round_trip!(
            PacketSimulator<&mut BufferRecorder>,
            format!("packet/zoo-pair{p}"),
            rec,
            PacketSimulator::with_recorder(PacketSimConfig::default(), &jobs, rec)
        );
    }
    // Swift is rate-engine only (delay-based; no packet marking model).
    let swift = CcVariant::Swift {
        target_delay: Dur::from_micros(30),
    };
    let jobs = [RateJob::new(spec, swift), RateJob::new(spec, swift)];
    round_trip!(
        RateSimulator<&mut BufferRecorder>,
        "rate/zoo-swift",
        rec,
        RateSimulator::with_recorder(RateSimConfig::default(), &jobs, rec)
    );
}

/// A snapshot carrying wrapped-controller state is still guarded by the
/// layout version: bumping it yields the typed mismatch, not a mangled
/// restore.
#[test]
fn zoo_variant_snapshot_rejects_version_bump() {
    use netsim::snapshot::{SnapshotError, SNAPSHOT_VERSION};
    let spec = JobSpec::reference(Model::ResNet50, 400);
    let jobs = [
        RateJob::new(spec, CcVariant::Mltcp { bonus: 1.0 }),
        RateJob::new(
            spec,
            CcVariant::Policy {
                policy: dcqcn::FairnessPolicy::BonusDecay {
                    bonus: 1.0,
                    decay: 2.0,
                },
            },
        ),
    ];
    let mut sim = RateSimulator::new(RateSimConfig::default(), &jobs);
    sim.run_until(BARRIER);
    let snap = sim
        .snapshot()
        .expect("clean barrier")
        .with_version(SNAPSHOT_VERSION + 1);
    let err = match RateSimulator::restore(snap, telemetry::NoopRecorder) {
        Ok(_) => panic!("bumped version restored"),
        Err(e) => e,
    };
    assert_eq!(
        err,
        SnapshotError::VersionMismatch {
            expected: SNAPSHOT_VERSION,
            found: SNAPSHOT_VERSION + 1,
        }
    );
}
