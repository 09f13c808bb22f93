//! The rate engine's quiet-step fast path is exact.
//!
//! `run_until_iterations` and `run_until` take quiet grid steps on a fast
//! path (a closed-form clock jump while every job computes, a lean
//! lockstep loop while flows drain without queueing). Each scenario here
//! runs one simulator through that path and an identical one through a
//! plain `step()` loop, and requires the same iteration records, the same
//! recorder event stream, and equal snapshots (rendered with `Debug`, so
//! every float is compared to the last bit). Each scenario also checks
//! that the fast path actually engaged.

use dcqcn::{CcVariant, FairnessPolicy, SignalLoss};
use mlcc::experiments::table1::{self, Table1Config};
use mlcc_repro::*;
use netsim::rate::{RateJob, RateSimConfig, RateSimulator};
use netsim::snapshot::Snapshottable;
use netsim::Engine;
use simtime::{Dur, Time};
use telemetry::{BufferRecorder, NoopRecorder, Recorder};
use topology::LinkSchedule;
use workload::{JobSpec, Model, PhaseNoise};

/// Simulated-time budget for every run; all scenarios finish well inside.
const BUDGET: Dur = Dur::from_secs(20);

/// `run_until_iterations` spelled as one `step()` per grid step, with the
/// same stopping rule.
fn step_until_iterations<R: Recorder>(sim: &mut RateSimulator<R>, n: usize, max_span: Dur) -> bool {
    let end = sim.now() + max_span;
    let reached = |sim: &RateSimulator<R>| {
        (0..sim.num_jobs()).all(|i| sim.departed(i) || sim.progress(i).completed() >= n)
    };
    while sim.now() < end {
        if reached(sim) {
            return true;
        }
        sim.step();
    }
    reached(sim)
}

/// `run_until` spelled as one `step()` per grid step.
fn step_until<R: Recorder>(sim: &mut RateSimulator<R>, t: Time) {
    while sim.now() < t {
        sim.step();
    }
}

fn snapshot_text<R: Recorder>(sim: &RateSimulator<R>) -> String {
    format!(
        "{:?}",
        sim.snapshot().expect("rate snapshots are always clean")
    )
}

fn assert_same<A: Recorder, B: Recorder>(
    label: &str,
    fast: &RateSimulator<A>,
    slow: &RateSimulator<B>,
) {
    assert_eq!(fast.now(), slow.now(), "{label}: clocks differ");
    assert_eq!(
        fast.steps(),
        slow.steps(),
        "{label}: grid step counts differ"
    );
    for i in 0..fast.num_jobs() {
        assert_eq!(
            fast.progress(i).iterations(),
            slow.progress(i).iterations(),
            "{label}: job {i} iteration records differ"
        );
    }
    assert_eq!(
        snapshot_text(fast),
        snapshot_text(slow),
        "{label}: snapshots differ"
    );
}

/// Runs `jobs` to `n` iterations through the fast path and through the
/// plain step loop, unobserved and observed, and asserts they match.
fn assert_exact(label: &str, cfg: &RateSimConfig, jobs: &[RateJob], n: usize) {
    // Unobserved: no telemetry samples bound the quiet stretches, so the
    // fast path takes its longest jumps.
    let mut fast = RateSimulator::new(cfg.clone(), jobs);
    let mut slow = RateSimulator::new(cfg.clone(), jobs);
    let done = fast.run_until_iterations(n, BUDGET);
    assert!(done, "{label}: run did not reach {n} iterations");
    assert_eq!(done, step_until_iterations(&mut slow, n, BUDGET));
    assert_same(label, &fast, &slow);

    // Observed: every event the full step would record must still appear.
    let mut fast_rec = BufferRecorder::new();
    let mut slow_rec = BufferRecorder::new();
    {
        let mut fast = RateSimulator::with_recorder(cfg.clone(), jobs, &mut fast_rec);
        let mut slow = RateSimulator::with_recorder(cfg.clone(), jobs, &mut slow_rec);
        fast.run_until_iterations(n, BUDGET);
        step_until_iterations(&mut slow, n, BUDGET);
        assert_same(label, &fast, &slow);
    }
    assert_eq!(
        fast_rec.events(),
        slow_rec.events(),
        "{label}: event streams differ"
    );
    let counts = fast_rec.counts();
    let quiet = counts["rate_quiet_steps_total"];
    assert!(quiet > 0, "{label}: the fast path never engaged");
    assert!(quiet < counts["rate_steps_total"]);
}

fn vgg19() -> JobSpec {
    JobSpec::reference(Model::Vgg19, 1200)
}

fn pair(variants: [CcVariant; 2], stagger: Dur) -> Vec<RateJob> {
    let mut jobs: Vec<RateJob> = variants.iter().map(|&v| RateJob::new(vgg19(), v)).collect();
    jobs[1].start_offset = stagger;
    jobs
}

const AGGRESSIVE: CcVariant = CcVariant::StaticUnfair {
    timer: Dur::from_micros(100),
};

#[test]
fn fig1_fair_and_unfair_pairs_are_exact() {
    let cfg = RateSimConfig::default();
    assert_exact(
        "fig1/fair",
        &cfg,
        &pair([CcVariant::Fair, CcVariant::Fair], Dur::ZERO),
        8,
    );
    assert_exact(
        "fig1/unfair",
        &cfg,
        &pair([AGGRESSIVE, CcVariant::Fair], Dur::ZERO),
        10,
    );
}

#[test]
fn table1_group5_is_exact() {
    let group = &table1::paper_groups()[4];
    assert_eq!(group.len(), 3);
    let timers = table1::ordered_timers(3, Table1Config::default().timer_range);
    let jobs: Vec<RateJob> = group
        .iter()
        .zip(&timers)
        .map(|(&spec, &timer)| RateJob::new(spec, CcVariant::StaticUnfair { timer }))
        .collect();
    assert_exact("table1/group5", &RateSimConfig::default(), &jobs, 6);
}

/// Swift reads the queueing delay; MLTCP and the bonus-decay policy read
/// phase progress through `on_phase_progress` on every step.
#[test]
fn progress_and_delay_controllers_are_exact() {
    let cfg = RateSimConfig::default();
    let stagger = Dur::from_millis(5);
    let swift = |us| CcVariant::Swift {
        target_delay: Dur::from_micros(us),
    };
    assert_exact("swift", &cfg, &pair([swift(60), swift(30)], Dur::ZERO), 8);
    let mltcp = CcVariant::Mltcp { bonus: 1.0 };
    assert_exact("mltcp", &cfg, &pair([mltcp, mltcp], stagger), 8);
    let decay = CcVariant::Policy {
        policy: FairnessPolicy::BonusDecay {
            bonus: 1.0,
            decay: 2.0,
        },
    };
    assert_exact("policy", &cfg, &pair([decay, decay], stagger), 8);
}

#[test]
fn chaos_plan_is_exact() {
    let at = |ms| Time::ZERO + Dur::from_millis(ms);
    let cfg = RateSimConfig {
        // A degradation window, then a down/up flap.
        capacity_schedule: Some(LinkSchedule::new(vec![
            (at(300), 0.4),
            (at(700), 1.0),
            (at(1500), 0.0),
            (at(1520), 1.0),
        ])),
        signal_loss: Some(SignalLoss {
            mark_loss: 0.05,
            cnp_loss: 0.05,
            seed: 9,
        }),
        ..RateSimConfig::default()
    };
    let mut jobs = pair([AGGRESSIVE, CcVariant::Fair], Dur::from_millis(3));
    for (j, job) in jobs.iter_mut().enumerate() {
        job.noise = Some(PhaseNoise {
            seed: 4,
            job: j as u32,
            compute_jitter: 0.1,
            comm_jitter: 0.1,
            straggler_prob: 0.1,
            straggler_factor: 3.0,
        });
    }
    let mut stayer = RateJob::new(JobSpec::reference(Model::ResNet50, 1600), CcVariant::Fair);
    stayer.start_offset = Dur::from_millis(40);
    jobs.push(stayer);
    jobs[1].depart_at = Some(at(1900));
    assert_exact("chaos", &cfg, &jobs, 8);
}

/// Trace samples (and marking jitter drawn from the RNG) bound the quiet
/// stretches; the fast path must stop one grid step short of each.
#[test]
fn traced_runs_are_exact() {
    let cfg = RateSimConfig {
        trace_interval: Some(Dur::from_millis(1)),
        mark_noise: 0.3,
        ..RateSimConfig::default()
    };
    assert_exact(
        "traced",
        &cfg,
        &pair([AGGRESSIVE, CcVariant::Fair], Dur::ZERO),
        8,
    );
}

/// A snapshot taken where `run_until` cut a quiet stretch short restores
/// into a run that is still bit-identical to plain stepping.
#[test]
fn snapshot_mid_quiet_stretch_is_exact() {
    let cfg = RateSimConfig {
        trace_interval: Some(Dur::from_millis(1)),
        ..RateSimConfig::default()
    };
    let jobs = pair([AGGRESSIVE, CcVariant::Fair], Dur::ZERO);
    // 100 ms: both jobs in their first compute phase. 1601.2345 ms: an
    // interleaved stretch, off the 1 ms trace grid.
    for barrier_ns in [100_000_000u64, 1_601_234_500] {
        let barrier = Time::from_nanos(barrier_ns);
        let label = format!("snapshot@{barrier_ns}ns");

        let mut fast_rec = BufferRecorder::new();
        let snap = {
            let mut prefix = RateSimulator::with_recorder(cfg.clone(), &jobs, &mut fast_rec);
            prefix.run_until(barrier);
            prefix.snapshot().expect("clean barrier")
        };
        let mut fast: RateSimulator<&mut BufferRecorder> =
            Snapshottable::restore(snap, &mut fast_rec).expect("restores");

        let mut slow_rec = BufferRecorder::new();
        let mut slow = RateSimulator::with_recorder(cfg.clone(), &jobs, &mut slow_rec);
        step_until(&mut slow, barrier);
        assert_eq!(
            snapshot_text(&fast),
            snapshot_text(&slow),
            "{label}: snapshots at the barrier differ"
        );

        assert!(fast.run_until_iterations(10, BUDGET));
        step_until_iterations(&mut slow, 10, BUDGET);
        assert_same(&label, &fast, &slow);
        drop((fast, slow));
        assert_eq!(
            fast_rec.events(),
            slow_rec.events(),
            "{label}: event streams differ"
        );

        // Unobserved, the barrier also lands inside a long closed-form
        // jump or lockstep stretch.
        let mut prefix = RateSimulator::new(cfg.clone(), &jobs);
        prefix.run_until(barrier);
        let mut fast: RateSimulator =
            Snapshottable::restore(prefix.snapshot().unwrap(), NoopRecorder).unwrap();
        let mut slow = RateSimulator::new(cfg.clone(), &jobs);
        step_until(&mut slow, barrier);
        assert!(fast.run_until_iterations(10, BUDGET));
        step_until_iterations(&mut slow, 10, BUDGET);
        assert_same(&label, &fast, &slow);
    }
}
