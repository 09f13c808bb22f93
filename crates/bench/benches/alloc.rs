//! Allocation-kernel performance: the incremental progressive-filling
//! solver against the from-scratch reference oracle on a dense 64-flow ×
//! 16-link instance, plus an end-to-end fluid run (the fig1 pair) that
//! exercises the solver the way the simulator does — persistent scratch,
//! active-set reuse, cached completions.

use bench::{banner, configure};
use criterion::{criterion_group, criterion_main, Criterion};
use netsim::alloc::{
    reference, strict_priority_into, weighted_max_min_into, AllocScratch, FlowDemand,
};
use netsim::fluid::{FluidConfig, FluidJob, FluidSimulator};
use netsim::Engine;
use simtime::{Bandwidth, Dur};
use topology::builders::dumbbell;
use workload::{JobSpec, Model};

const LINKS: usize = 16;
const FLOWS: usize = 64;

/// A dense deterministic instance: every flow crosses three links spread
/// over the fabric, weights and priorities cycle, half the flows carry
/// distinct rate caps so progressive filling freezes them one level at a
/// time — the many-round regime where the per-round rescan of the
/// reference solver is quadratic.
fn instance() -> (Vec<Vec<usize>>, Vec<f64>) {
    let links: Vec<Vec<usize>> = (0..FLOWS)
        .map(|i| {
            let mut v = vec![i % LINKS, (i * 7 + 3) % LINKS, (i * 5 + 11) % LINKS];
            v.sort_unstable();
            v.dedup();
            v
        })
        .collect();
    let caps: Vec<f64> = (0..LINKS)
        .map(|l| (40 + 5 * (l % 4)) as f64 * 1e9)
        .collect();
    (links, caps)
}

fn demands(links: &[Vec<usize>]) -> Vec<FlowDemand<'_>> {
    links
        .iter()
        .enumerate()
        .map(|(i, l)| FlowDemand {
            links: l,
            weight: 1.0 + (i % 4) as f64,
            priority: (i % 3) as u8,
            rate_cap: if i % 2 == 0 {
                (i + 1) as f64 * 0.2e9
            } else {
                f64::INFINITY
            },
        })
        .collect()
}

fn reproduce() {
    banner("Allocation kernel — incremental vs from-scratch reference");
    let (links, caps) = instance();
    let flows = demands(&links);
    let mut scratch = AllocScratch::default();
    let mut rates = Vec::new();
    weighted_max_min_into(&flows, &caps, &mut scratch, &mut rates);
    let oracle = reference::weighted_max_min(&flows, &caps);
    let div = rates
        .iter()
        .zip(&oracle)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!(
        "{FLOWS} flows x {LINKS} links: total allocated {:.1} Gbps, max divergence from reference {div:.2e} bps",
        rates.iter().sum::<f64>() / 1e9
    );
}

fn bench(c: &mut Criterion) {
    reproduce();
    let (links, caps) = instance();
    let flows = demands(&links);

    let mut scratch = AllocScratch::default();
    let mut rates = Vec::new();
    c.bench_function("alloc/weighted_max_min_64x16", |b| {
        b.iter(|| {
            weighted_max_min_into(&flows, &caps, &mut scratch, &mut rates);
            rates[0]
        })
    });
    c.bench_function("alloc/weighted_max_min_64x16_reference", |b| {
        b.iter(|| reference::weighted_max_min(&flows, &caps)[0])
    });
    c.bench_function("alloc/strict_priority_64x16", |b| {
        b.iter(|| {
            strict_priority_into(&flows, &caps, &mut scratch, &mut rates);
            rates[0]
        })
    });
    c.bench_function("alloc/strict_priority_64x16_reference", |b| {
        b.iter(|| reference::strict_priority(&flows, &caps)[0])
    });

    // End-to-end: the fig1 pair in the fluid engine — dominated by the
    // allocator plus the completion scheduler.
    let specs = [
        JobSpec::reference(Model::Vgg19, 1200),
        JobSpec::reference(Model::Vgg19, 1200),
    ];
    c.bench_function("alloc/fluid_fig1_pair_10iters", |b| {
        b.iter(|| {
            let d = dumbbell(
                2,
                Bandwidth::from_gbps(50),
                Bandwidth::from_gbps(50),
                Dur::ZERO,
            );
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
                    FluidJob::single_path(specs[i], path.links().to_vec())
                })
                .collect();
            let mut sim = FluidSimulator::new(t, FluidConfig::fair(), &jobs);
            let per = specs[0].iteration_time_at(Bandwidth::from_gbps(50));
            assert!(sim.run_until_iterations(10, per * 60));
            sim.progress(0).completed()
        })
    });
}

criterion_group! {
    name = benches;
    config = configure(Criterion::default());
    targets = bench
}
criterion_main!(benches);
