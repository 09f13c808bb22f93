//! The reproduction's central scientific claim, tested end-to-end: the
//! geometric abstraction's compatibility verdict (pure math on circles)
//! predicts what the DCQCN network simulator actually does when jobs
//! contend under unfairness.

use dcqcn::CcVariant;
use eventsim::Cdf;
use geometry::{solve, SolverConfig};
use mlcc_repro::*;
use netsim::rate::{RateJob, RateSimConfig, RateSimulator};
use netsim::Engine;
use scheduler::analytic_profile;
use simtime::{Bandwidth, Dur};
use workload::{JobSpec, Model};

const LINE: Bandwidth = Bandwidth::from_gbps(50);

fn simulate_pair(a: JobSpec, b: JobSpec, unfair: bool, iters: usize) -> Vec<f64> {
    let variants = if unfair {
        [
            CcVariant::StaticUnfair {
                timer: Dur::from_micros(100),
            },
            CcVariant::Fair,
        ]
    } else {
        [CcVariant::Fair, CcVariant::Fair]
    };
    let jobs = [RateJob::new(a, variants[0]), RateJob::new(b, variants[1])];
    let mut sim = RateSimulator::new(RateSimConfig::default(), &jobs);
    let per_iter = a.iteration_time_at(LINE).max(b.iteration_time_at(LINE));
    assert!(
        sim.run_until_iterations(iters, per_iter * (iters as u64 * 4 + 40)),
        "pair {a} + {b} did not finish"
    );
    (0..2)
        .map(|i| {
            let t: Vec<_> = sim
                .progress(i)
                .iteration_times()
                .into_iter()
                .skip(iters / 3)
                .collect();
            Cdf::from_samples(t).mean().as_secs_f64()
        })
        .collect()
}

/// For every 2-combination of distinct Table 1 job specs, the solver's
/// verdict on analytic profiles must match the simulated outcome: if
/// compatible, unfairness leaves no job slower than fair; if incompatible,
/// contention survives (some job stays well above its solo time).
#[test]
fn verdicts_match_simulation_for_all_pairs() {
    let specs = [
        JobSpec::reference(Model::BertLarge, 8),
        JobSpec::reference(Model::Vgg19, 1200),
        JobSpec::reference(Model::Dlrm, 2000),
        JobSpec::reference(Model::WideResNet50, 800),
        JobSpec::reference(Model::Vgg16, 1400),
        JobSpec::reference(Model::ResNet50, 1600),
    ];
    let grid = Dur::from_micros(2_500);
    let cfg = SolverConfig::default();
    let mut checked = 0;
    for i in 0..specs.len() {
        for j in (i + 1)..specs.len() {
            let (a, b) = (specs[i], specs[j]);
            let profiles = [
                analytic_profile(&a, LINE, grid),
                analytic_profile(&b, LINE, grid),
            ];
            let verdict = solve(&profiles, &cfg).unwrap();
            let fair = simulate_pair(a, b, false, 12);
            let unfair = simulate_pair(a, b, true, 12);
            // "Contention tax": how far above dedicated-network pace a job
            // remains under unfairness.
            let solo = [a, b].map(|s| s.iteration_time_at(LINE).as_secs_f64());
            let max_tax = (0..2)
                .map(|k| unfair[k] / solo[k] - 1.0)
                .fold(0.0f64, f64::max);
            if verdict.is_compatible() {
                // Compatible ⇒ unfairness brings every job to solo pace
                // and nobody ends up slower than fair sharing.
                assert!(
                    max_tax < 0.01,
                    "{a}+{b}: predicted compatible but residual tax {:.1}% \
                     (unfair {unfair:?}, solo {solo:?})",
                    max_tax * 100.0
                );
                for k in 0..2 {
                    assert!(
                        unfair[k] <= fair[k] * 1.03,
                        "{a}+{b}: predicted compatible but job {k} got slower \
                         (fair {:.3}s → unfair {:.3}s)",
                        fair[k],
                        unfair[k]
                    );
                }
            } else {
                // Incompatible ⇒ a measurable tax survives. The rigid
                // geometric model is conservative (simulated jobs adapt
                // their phases elastically, so near-miss pairs pay only a
                // small residual — see EXPERIMENTS.md), but across the
                // calibrated zoo every predicted-incompatible pair retains
                // at least ≈2% on some job; assert half that for margin.
                assert!(
                    max_tax > 0.015,
                    "{a}+{b}: predicted incompatible (overlap {:.1}%) but \
                     simulated tax only {:.2}% (unfair {unfair:?}, solo {solo:?})",
                    verdict.overlap_fraction() * 100.0,
                    max_tax * 100.0
                );
            }
            checked += 1;
        }
    }
    assert_eq!(checked, 15, "all 15 pairs checked");
}
