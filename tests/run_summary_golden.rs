//! Golden-summary regression gate: the fig1 reproduction (fair + unfair,
//! pinned seed) must keep producing the metrics committed under
//! `tests/goldens/`, within the diff tolerance. Catches silent behavioural
//! drift in the simulators, the analyzers, and the summary serialization
//! in one shot.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! cargo run -- fig1 --iterations 20 --summary tests/goldens/fig1.json
//! ```

use diagnostics::{analyze, diff, AnalysisConfig, DiffConfig, RunSummary};
use faults::ChaosConfig;
use mlcc::experiments::fig1::{self, Fig1Config};
use mlcc_repro::*;
use telemetry::BufferRecorder;

#[test]
fn fig1_summary_matches_committed_golden() {
    let golden = RunSummary::from_json(include_str!("goldens/fig1.json")).expect("golden parses");
    // Exactly what `mlcc-repro fig1 --iterations 20 --summary …` runs.
    let cfg = Fig1Config {
        iterations: 20,
        ..Fig1Config::default()
    };
    let mut rec = BufferRecorder::new();
    fig1::run_traced(&cfg, &mut rec);
    let current = analyze("fig1", rec.events(), &AnalysisConfig::default()).summary();

    assert_eq!(current.name, golden.name);
    let report = diff(&golden, &current, &DiffConfig::default());
    assert!(
        report.is_clean(),
        "fig1 drifted from the golden summary ({} compared):\n{}\
         \nIf the change is intentional, regenerate with:\n  \
         cargo run -- fig1 --iterations 20 --summary tests/goldens/fig1.json",
        report.compared,
        report.render()
    );
    // The golden itself must keep exercising both scenarios.
    assert!(golden.metrics.keys().any(|k| k.starts_with("fig1_fair.")));
    assert!(golden.metrics.keys().any(|k| k.starts_with("fig1_unfair.")));
}

/// Same gate for a *perturbed* run: fig1 under the `stragglers` chaos
/// profile at a pinned seed must keep producing the committed summary.
/// Chaos is seeded and deterministic, so a perturbed run regresses just
/// like a quiet one — this pins the fault-injection plumbing itself
/// (keyed noise draws, schedule compilation, engine realization) in
/// addition to the simulators.
#[test]
fn fig1_chaos_summary_matches_committed_golden() {
    let golden =
        RunSummary::from_json(include_str!("goldens/fig1_chaos.json")).expect("golden parses");
    // Exactly what `mlcc-repro fig1 --iterations 20 --chaos stragglers
    // --chaos-seed 7 --summary …` runs.
    let cfg = Fig1Config {
        iterations: 20,
        chaos: ChaosConfig {
            seed: 7,
            ..ChaosConfig::profile("stragglers").expect("builtin profile")
        },
        ..Fig1Config::default()
    };
    let mut rec = BufferRecorder::new();
    fig1::run_traced(&cfg, &mut rec);
    let current = analyze("fig1", rec.events(), &AnalysisConfig::default()).summary();

    assert_eq!(current.name, golden.name);
    let report = diff(&golden, &current, &DiffConfig::default());
    assert!(
        report.is_clean(),
        "chaotic fig1 drifted from the golden summary ({} compared):\n{}\
         \nIf the change is intentional, regenerate with:\n  \
         cargo run -- fig1 --iterations 20 --chaos stragglers --chaos-seed 7 \
         --summary tests/goldens/fig1_chaos.json",
        report.compared,
        report.render()
    );
    // The perturbed golden must differ from the quiet one somewhere —
    // otherwise the chaos plumbing silently stopped perturbing.
    let quiet = RunSummary::from_json(include_str!("goldens/fig1.json")).expect("golden parses");
    let drift = diff(&quiet, &golden, &DiffConfig::default());
    assert!(
        !drift.is_clean(),
        "stragglers golden is identical to the quiet golden — chaos had no effect"
    );
}

/// Same gate for the congestion-control zoo: the seven-cell variant
/// matrix at a pinned iteration count must keep producing the committed
/// summary. This pins the `CcAlgorithm` dispatch path for every variant
/// family (wrapped MLTCP/policy controllers included) in one diff.
#[test]
fn variants_summary_matches_committed_golden() {
    let golden =
        RunSummary::from_json(include_str!("goldens/variants.json")).expect("golden parses");
    // Exactly what `mlcc-repro variants --iterations 12 --summary …` runs
    // (minus the CLI-only `config.hash` metric).
    let mut cfg = mlcc::experiments::variants::VariantsConfig::default();
    cfg.fig1.iterations = 12;
    let mut rec = BufferRecorder::new();
    mlcc::experiments::variants::run_traced(&cfg, &mut rec);
    let current = analyze("variants", rec.events(), &AnalysisConfig::default()).summary();

    assert_eq!(current.name, golden.name);
    let report = diff(&golden, &current, &DiffConfig::default());
    assert!(
        report.is_clean(),
        "variants drifted from the golden summary ({} compared):\n{}\
         \nIf the change is intentional, regenerate with:\n  \
         cargo run -- variants --iterations 12 --summary tests/goldens/variants.json\n  \
         (then delete the \"config.hash\" line)",
        report.compared,
        report.render()
    );
    // The golden must keep exercising every zoo cell.
    for cell in [
        "variants_fair.",
        "variants_static-unfair.",
        "variants_adaptive.",
        "variants_mltcp.",
        "variants_policy-prop.",
        "variants_policy-decay.",
        "variants_swift.",
    ] {
        assert!(
            golden.metrics.keys().any(|k| k.starts_with(cell)),
            "golden lost cell {cell}"
        );
    }
}

/// Path of a committed golden, for the `UPDATE_GOLDENS=1` rewrite below.
fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(name)
}

/// Same gate for chaos on the fluid and packet engines: the small sharded
/// scenario pair under a seeded profile with every chaos family on (phase
/// noise, link schedules, churn, signal loss), run through
/// `run_fluid_sharded` + `run_packet_sharded`. Pins the construction-time
/// chaos expansion for both engines, which the sharded differential tests
/// cannot see (both of their sides share it). The summary carries the
/// merged stream's analysis plus every job's median iteration time.
#[test]
fn shard_chaos_summary_matches_committed_golden() {
    use mlcc::experiments::shard::{self, ShardConfig};
    let cfg = ShardConfig {
        chaos: ChaosConfig {
            seed: 3,
            ..ChaosConfig::profile("mixed").expect("builtin profile")
        },
        ..ShardConfig::small()
    };
    let fluid = shard::build_fluid(&cfg);
    let packet = shard::build_packet(&cfg);
    // The golden must keep exercising all four chaos families.
    assert!(
        fluid.jobs.iter().any(|j| j.noise.is_some()),
        "no phase noise"
    );
    assert!(
        fluid.jobs.iter().any(|j| j.depart_at.is_some()),
        "no departures"
    );
    assert!(
        packet
            .groups
            .iter()
            .flatten()
            .any(|j| j.depart_at.is_some()),
        "no packet departures"
    );
    assert!(
        !fluid.fluid_cfg.link_schedules.is_empty(),
        "no link schedules"
    );
    assert!(
        packet.configs.iter().any(|c| c.capacity_schedule.is_some()),
        "no packet link schedules"
    );
    assert!(
        packet.configs.iter().all(|c| c.signal_loss.is_some()),
        "no signal loss"
    );
    let quiet = shard::build_fluid(&ShardConfig::small());
    assert!(
        fluid
            .jobs
            .iter()
            .zip(&quiet.jobs)
            .any(|(a, b)| a.start_offset != b.start_offset),
        "no late arrivals"
    );

    let mut rec = BufferRecorder::new();
    let f = shard::run_fluid_sharded(&fluid, &cfg, &mut rec, 2);
    let p = shard::run_packet_sharded(&packet, &cfg, &mut rec, 2);
    let mut current = analyze("shard", rec.events(), &AnalysisConfig::default()).summary();
    for (engine, r) in [("fluid", &f), ("packet", &p)] {
        current.put_under(engine, "completed", r.completed as u8 as f64);
        for (i, s) in r.stats.iter().enumerate() {
            current.put_under(engine, &format!("job{i}.median_ms"), s.median_ms());
        }
    }
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(golden_path("shard_chaos.json"), current.to_json()).unwrap();
    }

    let golden =
        RunSummary::from_json(include_str!("goldens/shard_chaos.json")).expect("golden parses");
    assert_eq!(current.name, golden.name);
    let report = diff(&golden, &current, &DiffConfig::default());
    assert!(
        report.is_clean(),
        "chaotic sharded fluid/packet run drifted from the golden summary \
         ({} compared):\n{}\nIf the change is intentional, regenerate with:\n  \
         UPDATE_GOLDENS=1 cargo test --test run_summary_golden",
        report.compared,
        report.render()
    );
}

/// Same gate for the forked chaos sweep: `chaos::run_forked` at 20
/// iterations, forked from the shared clean prefix at 200 ms. Pins
/// barrier chaos and the fork-from-prefix path, which the forked-vs-replay
/// differential test cannot see (both of its sides share them).
#[test]
fn chaos_forked_summary_matches_committed_golden() {
    use mlcc::experiments::chaos::{self, ChaosSweepConfig};
    // Exactly the sweep `mlcc-repro chaos --iterations 20 --fork-at 200ms`
    // runs; the cell outcomes are added to the trace analysis.
    let cfg = ChaosSweepConfig {
        iterations: 20,
        ..ChaosSweepConfig::default()
    };
    let mut rec = BufferRecorder::new();
    let r = chaos::run_forked(&cfg, &mut rec, simtime::Dur::from_millis(200), false);
    let mut current = analyze("chaos", rec.events(), &AnalysisConfig::default()).summary();
    for c in &r.cells {
        let key = format!("cell.{}.s{}", c.profile, c.seed);
        for (i, med) in c.medians_ms.iter().enumerate() {
            current.put_under(&key, &format!("job{i}.median_ms"), *med);
        }
        current.put_under(&key, "incidents", c.incidents() as f64);
        current.put_under(&key, "worst_recovery_ms", c.worst_recovery_ms());
    }
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(golden_path("chaos_forked.json"), current.to_json()).unwrap();
    }

    let golden =
        RunSummary::from_json(include_str!("goldens/chaos_forked.json")).expect("golden parses");
    assert_eq!(current.name, golden.name);
    let report = diff(&golden, &current, &DiffConfig::default());
    assert!(
        report.is_clean(),
        "forked chaos sweep drifted from the golden summary ({} compared):\n{}\
         \nIf the change is intentional, regenerate with:\n  \
         UPDATE_GOLDENS=1 cargo test --test run_summary_golden",
        report.compared,
        report.render()
    );
    // The golden must keep exercising every cell.
    assert_eq!(r.cells.len(), 6);
}
