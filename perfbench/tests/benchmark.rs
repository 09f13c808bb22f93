//! The benchmark's own tests: the counting recorder agrees with the
//! library's buffer, a starved run fails cells instead of crashing, and
//! every metric name is valid and listed in `BENCHMARK.json`.

use mlcc::experiments::fig1::{self, Fig1Config};
use mlcc::experiments::shard::{self, ShardConfig};
use perfbench::ledger::{CountingRecorder, Spans};
use perfbench::metrics::{valid_name, END_TO_END, PER_LAYER};
use perfbench::paper;
use perfbench::workloads::{self, Inputs, DEFAULT_SEED};
use simtime::Dur;
use std::collections::{BTreeMap, BTreeSet};
use telemetry::{BufferRecorder, NoopRecorder};

fn kinds_of(buf: &BufferRecorder) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for te in buf.events() {
        *out.entry(te.event.kind()).or_insert(0) += 1;
    }
    out
}

/// The counting recorder's tallies equal what a `BufferRecorder` keeps.
fn assert_same_tallies(count: &CountingRecorder, buf: &BufferRecorder) {
    assert_eq!(count.counts(), buf.counts());
    assert_eq!(count.kinds(), &kinds_of(buf));
    assert_eq!(count.events(), buf.len() as u64);
    for (name, s) in buf.spans() {
        let c = count.section(name);
        assert_eq!((c.events, c.calls), (s.events, s.calls), "section {name}");
    }
}

#[test]
fn counting_recorder_matches_buffer_on_small_shard() {
    let cfg = ShardConfig::small();
    let fluid = shard::build_fluid(&cfg);
    let packet = shard::build_packet(&cfg);
    let mut buf = BufferRecorder::new();
    let mut count = CountingRecorder::default();
    for threads in [1, 2] {
        shard::run_fluid_sharded(&fluid, &cfg, &mut buf, threads);
        shard::run_packet_sharded(&packet, &cfg, &mut buf, threads);
        shard::run_fluid_sharded(&fluid, &cfg, &mut count, threads);
        shard::run_packet_sharded(&packet, &cfg, &mut count, threads);
    }
    assert!(!buf.is_empty());
    assert_same_tallies(&count, &buf);
    assert_eq!(count.merge().calls, 4);
    let jobs = (cfg.groups * cfg.jobs_per_group + cfg.groups * 4) as u64;
    assert_eq!(
        count.iterations_below(cfg.iterations),
        2 * jobs * cfg.iterations as u64
    );
}

#[test]
fn counting_recorder_matches_buffer_on_short_fig1() {
    let cfg = Fig1Config {
        iterations: 8,
        warmup: 3,
        ..Fig1Config::default()
    };
    let cells = fig1::default_cells(&cfg);
    let mut buf = BufferRecorder::new();
    fig1::run_matrix_traced(&cfg, &cells, &mut buf);
    let mut count = CountingRecorder::default();
    fig1::run_matrix_traced(&cfg, &cells, &mut count);
    assert_same_tallies(&count, &buf);
    assert!(count.count_of("rate_steps_total") > 0);
    // Two cells of two jobs, each job finishing iterations 0..8.
    assert_eq!(count.iterations_below(cfg.iterations), 2 * 2 * 8);
}

#[test]
fn starved_budget_fails_cells_instead_of_crashing() {
    let inputs = Inputs::Fabric(workloads::fabric_inputs(
        DEFAULT_SEED,
        Dur::from_millis(50),
        &mut Spans::off(),
    ));
    let (out, _) = workloads::run::<NoopRecorder>(&inputs, &mut Spans::off());
    assert_eq!(out.cells.len(), 8);
    assert_eq!(out.failed(), out.cells.len());
    assert_eq!(out.passed_job_iterations(), 0);
    assert!(out.cells[0]
        .failures
        .iter()
        .any(|f| f.contains("completed")));
}

#[test]
fn metric_names_are_valid_unique_and_listed() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let mut seen = BTreeSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(valid_name(name), "{name}");
        assert!(seen.insert(*name), "{name} listed twice");
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} ({unit}) missing from BENCHMARK.json"
        );
    }
    for w in workloads::Workload::ALL {
        assert!(valid_name(w.name()));
        assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
    }
    assert_eq!(
        json.matches("\"name\":").count(),
        seen.len() + workloads::Workload::ALL.len()
    );
    assert!(!valid_name("bad name"));
    assert!(!valid_name(".leading-dot"));
}

#[test]
fn paper_error_is_zero_on_the_paper_numbers() {
    assert_eq!(
        paper::err_pct(paper::FIG1D_SPEEDUP, &paper::TABLE1_SPEEDUPS),
        Some(0.0)
    );
    assert!(paper::err_pct(1.0, &[1.0]).is_none());
}
