//! The paper's reported speedups, as data, and the fidelity error of a
//! run against them.
//!
//! Source: Rajasekaran et al., *Congestion Control in Machine Learning
//! Clusters*, HotNets '22 — Fig. 1d and Table 1, as transcribed in the
//! "paper" columns of this repository's `EXPERIMENTS.md`.

/// Fig. 1d: median iteration-time speedup of both VGG19(1200) jobs when
/// `J1` runs the aggressive DCQCN timer.
pub const FIG1D_SPEEDUP: f64 = 1.23;

/// Table 1: fair→unfair speedup per job, groups in paper order and jobs
/// in group order (the order of `table1::paper_groups`).
pub const TABLE1_SPEEDUPS: [f64; 12] = [
    1.17, // group 1: BERT(8)
    0.94, // group 1: VGG19(1200)
    1.30, // group 2: DLRM(2000)
    1.28, // group 2: DLRM(2000)
    1.48, // group 3: BERT(8)
    1.06, // group 3: VGG19(1400)
    0.92, // group 3: WideResNet(800)
    1.08, // group 4: WideResNet(800)
    1.07, // group 4: VGG16(1400)
    1.18, // group 5: VGG19(1400)
    1.18, // group 5: VGG16(1700)
    1.01, // group 5: ResNet50(1600)
];

/// Mean of `|measured / paper − 1|` over Fig. 1d and the 12 Table 1 rows,
/// in percent. `fig1d` is the run's Fig. 1d speedup; `table1` its Table 1
/// speedups in [`TABLE1_SPEEDUPS`] order. `None` when `table1` has the
/// wrong length.
pub fn err_pct(fig1d: f64, table1: &[f64]) -> Option<f64> {
    if table1.len() != TABLE1_SPEEDUPS.len() {
        return None;
    }
    let pairs = std::iter::once((fig1d, FIG1D_SPEEDUP))
        .chain(table1.iter().copied().zip(TABLE1_SPEEDUPS.iter().copied()));
    let (sum, n) = pairs.fold((0.0, 0usize), |(s, n), (measured, paper)| {
        (s + (measured / paper - 1.0).abs(), n + 1)
    });
    Some(100.0 * sum / n as f64)
}
