//! Snapshot/restore cost per engine: how expensive is capturing a
//! simulator at a barrier, and how expensive is rehydrating one — the
//! two operations a forked sweep pays once per shared prefix and once
//! per cell respectively. Cheap restore is what makes fork-from-prefix
//! a win: a cell's restore must cost far less than re-simulating the
//! prefix it skips.

use bench::{banner, configure};
use criterion::{criterion_group, criterion_main, Criterion};
use dcqcn::CcVariant;
use diagnostics::RunSummary;
use netsim::fluid::{FluidConfig, FluidJob, FluidSimulator};
use netsim::packet::{PacketJob, PacketSimConfig, PacketSimulator};
use netsim::rate::{RateJob, RateSimConfig, RateSimulator};
use netsim::snapshot::Snapshottable;
use netsim::Engine;
use simtime::{Bandwidth, Dur, Time};
use std::time::Instant;
use telemetry::NoopRecorder;
use topology::builders::dumbbell;
use workload::{JobSpec, Model};

fn pair() -> [JobSpec; 2] {
    [
        JobSpec::reference(Model::ResNet50, 400),
        JobSpec::reference(Model::ResNet50, 400),
    ]
}

/// How far each prefix runs before the snapshot is taken. Long enough
/// that queues, spans, and telemetry state are all non-trivial.
const PREFIX: Dur = Dur::from_millis(50);

fn fluid_at_barrier() -> FluidSimulator {
    let d = dumbbell(
        2,
        Bandwidth::from_gbps(50),
        Bandwidth::from_gbps(50),
        Dur::ZERO,
    );
    let t = &d.topology;
    let specs = pair();
    let jobs: Vec<FluidJob> = (0..2)
        .map(|i| {
            let path = t
                .route(topology::FlowKey {
                    src: d.left_hosts[i],
                    dst: d.right_hosts[i],
                    tag: 0,
                })
                .unwrap();
            FluidJob::single_path(specs[i], path.links().to_vec())
        })
        .collect();
    let mut sim = FluidSimulator::new(t, FluidConfig::fair(), &jobs);
    sim.run_until(Time::ZERO + PREFIX);
    sim
}

fn rate_at_barrier() -> RateSimulator {
    let specs = pair();
    let jobs = [
        RateJob::new(specs[0], CcVariant::Fair),
        RateJob::new(specs[1], CcVariant::Fair),
    ];
    let mut sim = RateSimulator::new(RateSimConfig::default(), &jobs);
    sim.run_until(Time::ZERO + PREFIX);
    sim
}

fn packet_at_barrier() -> PacketSimulator {
    let specs = pair();
    let jobs = [
        PacketJob::new(specs[0], CcVariant::Fair),
        PacketJob::new(specs[1], CcVariant::Fair),
    ];
    let mut sim = PacketSimulator::new(PacketSimConfig::default(), &jobs);
    sim.run_until(Time::ZERO + PREFIX);
    sim
}

/// Table-1-style 4-job mix at paper scale (the configuration the
/// packet-train batching PR made affordable): snapshot cost must stay
/// flat as state grows from the fig1 pair to a realistic mix.
fn paper_mix() -> [JobSpec; 4] {
    [
        JobSpec::reference(Model::Vgg19, 1400),
        JobSpec::reference(Model::WideResNet50, 919),
        JobSpec::reference(Model::ResNet50, 3480),
        JobSpec::reference(Model::ResNet50, 3480),
    ]
}

fn packet_paper_at_barrier() -> PacketSimulator {
    let jobs: Vec<PacketJob> = paper_mix()
        .into_iter()
        .map(|spec| PacketJob::new(spec, CcVariant::Fair))
        .collect();
    let mut sim = PacketSimulator::new(
        PacketSimConfig {
            train_packets: 64,
            ..PacketSimConfig::default()
        },
        &jobs,
    );
    sim.run_until(Time::ZERO + PREFIX);
    sim
}

fn rate_paper_at_barrier() -> RateSimulator {
    let jobs: Vec<RateJob> = paper_mix()
        .into_iter()
        .map(|spec| RateJob::new(spec, CcVariant::Fair))
        .collect();
    let mut sim = RateSimulator::new(RateSimConfig::default(), &jobs);
    sim.run_until(Time::ZERO + PREFIX);
    sim
}

/// One timed snapshot + restore per engine, written to
/// `BENCH_snapshot.json` (directory from `BENCH_SUMMARY_DIR`, default
/// `target/bench-summaries`) so the cost trajectory is machine-diffable.
/// The CLI `snapshot` command writes the end-to-end sweep speedup under
/// the same name into its own `--summary-dir`; this file records the
/// per-operation costs that speedup is built from.
fn write_summaries() {
    let dir =
        std::env::var("BENCH_SUMMARY_DIR").unwrap_or_else(|_| "target/bench-summaries".to_string());
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let mut s = RunSummary::new("snapshot");
    let reps = 100u32;

    macro_rules! measure {
        ($label:literal, $sim:ty, $build:expr) => {{
            let sim = $build;
            let t0 = Instant::now();
            let mut snap = None;
            for _ in 0..reps {
                snap = Some(sim.snapshot().expect("prefix stopped at a barrier"));
            }
            let snap_cost = t0.elapsed().as_secs_f64() / reps as f64;
            let snap = snap.unwrap();
            let t0 = Instant::now();
            for _ in 0..reps {
                let restored = <$sim>::restore(snap.clone(), NoopRecorder);
                assert!(restored.is_ok());
            }
            let restore_cost = t0.elapsed().as_secs_f64() / reps as f64;
            s.put(concat!($label, ".snapshot_usecs"), snap_cost * 1e6);
            s.put(concat!($label, ".restore_usecs"), restore_cost * 1e6);
            println!(
                "{}: snapshot {:.1} us, restore {:.1} us (50 ms prefix)",
                $label,
                snap_cost * 1e6,
                restore_cost * 1e6
            );
        }};
    }

    measure!("fluid", FluidSimulator, fluid_at_barrier());
    measure!("rate", RateSimulator, rate_at_barrier());
    measure!("packet", PacketSimulator, packet_at_barrier());
    measure!("rate_paper", RateSimulator, rate_paper_at_barrier());
    measure!("packet_paper", PacketSimulator, packet_paper_at_barrier());

    let _ = std::fs::write(format!("{dir}/BENCH_snapshot.json"), s.to_json());
}

fn reproduce() {
    banner("Snapshot/restore cost — what a forked sweep pays per prefix and per cell");
    write_summaries();
}

fn bench(c: &mut Criterion) {
    reproduce();

    let fluid = fluid_at_barrier();
    c.bench_function("snapshot/fluid_snapshot", |b| {
        b.iter(|| fluid.snapshot().expect("barrier"))
    });
    let snap = fluid.snapshot().expect("barrier");
    c.bench_function("snapshot/fluid_restore", |b| {
        // Clone included: a forked cell clones the shared snapshot too.
        b.iter(|| FluidSimulator::restore(snap.clone(), NoopRecorder).expect("round-trips"))
    });

    let rate = rate_at_barrier();
    c.bench_function("snapshot/rate_snapshot", |b| {
        b.iter(|| rate.snapshot().expect("barrier"))
    });
    let snap = rate.snapshot().expect("barrier");
    c.bench_function("snapshot/rate_restore", |b| {
        b.iter(|| RateSimulator::restore(snap.clone(), NoopRecorder).expect("round-trips"))
    });

    let packet = packet_at_barrier();
    c.bench_function("snapshot/packet_snapshot", |b| {
        b.iter(|| packet.snapshot().expect("barrier"))
    });
    let snap = packet.snapshot().expect("barrier");
    c.bench_function("snapshot/packet_restore", |b| {
        b.iter(|| PacketSimulator::restore(snap.clone(), NoopRecorder).expect("round-trips"))
    });

    let packet = packet_paper_at_barrier();
    c.bench_function("snapshot/packet_paper_snapshot", |b| {
        b.iter(|| packet.snapshot().expect("barrier"))
    });
    let snap = packet.snapshot().expect("barrier");
    c.bench_function("snapshot/packet_paper_restore", |b| {
        b.iter(|| PacketSimulator::restore(snap.clone(), NoopRecorder).expect("round-trips"))
    });
}

criterion_group! {
    name = benches;
    config = configure(Criterion::default());
    targets = bench
}
criterion_main!(benches);
