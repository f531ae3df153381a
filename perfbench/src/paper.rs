//! The paper's reference values, kept in this one table, and
//! `paper_err`: the mean |ln(simulated / paper)| over the values a
//! workload's figures print.
//!
//! Each value is copied from the `paper ...` line its figure binary
//! prints (`crates/bench/src/bin/fig*.rs`). SharedOA's 1.00 in Figs. 6
//! and 8 is the normalisation baseline, identical by construction, and
//! is left out.

use gvf_bench::report::geomean;
use gvf_sim::Stats;

/// A figure whose printed paper values `paper_err` compares against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Figure {
    /// Fig. 1b: share of dispatch latency from the vTable* load under
    /// CUDA, averaged over the apps.
    Fig1b,
    /// Fig. 6: geomean speedup over SharedOA.
    Fig6,
    /// Fig. 7: mean total warp instructions relative to SharedOA.
    Fig7,
    /// Fig. 8: geomean global load transactions relative to SharedOA.
    Fig8,
    /// Fig. 9: mean L1 hit rate.
    Fig9,
    /// Fig. 12a: cycles at the largest object count relative to BRANCH
    /// at the same count.
    Fig12a,
}

/// One printed paper value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PaperValue {
    /// The figure that prints it.
    pub figure: Figure,
    /// The strategy label it belongs to (`Strategy::label`).
    pub strategy: &'static str,
    /// The value as printed.
    pub value: f64,
}

const fn pv(figure: Figure, strategy: &'static str, value: f64) -> PaperValue {
    PaperValue {
        figure,
        strategy,
        value,
    }
}

/// Every paper value the benchmark compares against.
pub const PAPER: [PaperValue; 20] = [
    // fig1b: "paper AVG: A (load vTable*) ~87%"
    pv(Figure::Fig1b, "CUDA", 0.87),
    // fig6: "paper GM: CUDA 0.59, Concord 0.72, SharedOA 1.00, COAL 1.06, TypePointer 1.12"
    pv(Figure::Fig6, "CUDA", 0.59),
    pv(Figure::Fig6, "Concord", 0.72),
    pv(Figure::Fig6, "COAL", 1.06),
    pv(Figure::Fig6, "TypePointer", 1.12),
    // fig7: "paper AVG totals: Concord 1.28, COAL 1.83, TypePointer 1.19"
    pv(Figure::Fig7, "Concord", 1.28),
    pv(Figure::Fig7, "COAL", 1.83),
    pv(Figure::Fig7, "TypePointer", 1.19),
    // fig8: "paper GM: CUDA 1.00, Concord 0.82, SharedOA 1.00, COAL 0.86, TypePointer 0.81"
    pv(Figure::Fig8, "CUDA", 1.00),
    pv(Figure::Fig8, "Concord", 0.82),
    pv(Figure::Fig8, "COAL", 0.86),
    pv(Figure::Fig8, "TypePointer", 0.81),
    // fig9: "paper AVG: CUDA 31%, Concord 31%, SharedOA 44%, COAL 47%, TypePointer 45%"
    pv(Figure::Fig9, "CUDA", 0.31),
    pv(Figure::Fig9, "Concord", 0.31),
    pv(Figure::Fig9, "SharedOA", 0.44),
    pv(Figure::Fig9, "COAL", 0.47),
    pv(Figure::Fig9, "TypePointer", 0.45),
    // fig12: "paper @32x: CUDA 5.6x, COAL 3.3x, TypePointer 2.0x of BRANCH"
    pv(Figure::Fig12a, "CUDA", 5.6),
    pv(Figure::Fig12a, "COAL", 3.3),
    pv(Figure::Fig12a, "TypePointer", 2.0),
];

/// The SharedOA baseline of Figs. 6–8.
const BASELINE: &str = "SharedOA";

/// The per-cell quantities the figures are computed from.
#[derive(Clone, Debug, PartialEq)]
pub struct CellResult {
    /// Application label (`WorkloadKind::label`), or `micro`.
    pub workload: String,
    /// Strategy label (`Strategy::label`).
    pub strategy: String,
    /// Objects, for the microbenchmark (0 otherwise).
    pub n_objects: u64,
    /// Types, for the microbenchmark (0 otherwise).
    pub n_types: u64,
    /// Simulated cycles.
    pub cycles: f64,
    /// Warp instructions.
    pub winstrs: f64,
    /// Global load transactions.
    pub gld: f64,
    /// L1 hit rate.
    pub l1_hit_rate: f64,
    /// Fig. 1b's vTable*-load share of dispatch latency.
    pub vtable_share: f64,
}

impl CellResult {
    /// The figure quantities of one simulated cell.
    pub fn of(workload: &str, strategy: &str, s: &Stats) -> Self {
        CellResult {
            workload: workload.to_string(),
            strategy: strategy.to_string(),
            n_objects: 0,
            n_types: 0,
            cycles: s.cycles as f64,
            winstrs: s.total_instrs() as f64,
            gld: s.global_load_transactions as f64,
            l1_hit_rate: s.l1_hit_rate(),
            vtable_share: s.dispatch_latency_breakdown().0,
        }
    }
}

/// `(cell of strategy, SharedOA cell)` per application, for the apps
/// that have both.
fn vs_baseline<'a>(
    strategy: &str,
    cells: &'a [CellResult],
) -> Vec<(&'a CellResult, &'a CellResult)> {
    cells
        .iter()
        .filter(|c| c.strategy == strategy)
        .filter_map(|c| {
            cells
                .iter()
                .find(|b| b.workload == c.workload && b.strategy == BASELINE)
                .map(|b| (c, b))
        })
        .collect()
}

fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

/// The simulated counterpart of a paper value, computed the way the
/// figure binary computes what it prints; `None` when `cells` lack it.
pub fn simulated(figure: Figure, strategy: &str, cells: &[CellResult]) -> Option<f64> {
    let of_strategy = || cells.iter().filter(move |c| c.strategy == strategy);
    match figure {
        Figure::Fig1b => mean(&of_strategy().map(|c| c.vtable_share).collect::<Vec<_>>()),
        Figure::Fig6 => {
            let v: Vec<f64> = vs_baseline(strategy, cells)
                .iter()
                .map(|(c, b)| {
                    if c.cycles == 0.0 {
                        0.0
                    } else {
                        b.cycles / c.cycles
                    }
                })
                .collect();
            (!v.is_empty()).then(|| geomean(&v))
        }
        Figure::Fig7 => mean(
            &vs_baseline(strategy, cells)
                .iter()
                .map(|(c, b)| c.winstrs / b.winstrs)
                .collect::<Vec<_>>(),
        ),
        Figure::Fig8 => {
            let v: Vec<f64> = vs_baseline(strategy, cells)
                .iter()
                .map(|(c, b)| c.gld / b.gld.max(1.0))
                .collect();
            (!v.is_empty()).then(|| geomean(&v))
        }
        Figure::Fig9 => mean(&of_strategy().map(|c| c.l1_hit_rate).collect::<Vec<_>>()),
        Figure::Fig12a => {
            let n = cells
                .iter()
                .filter(|c| c.n_types == 4)
                .map(|c| c.n_objects)
                .max()?;
            let at = |s: &str| {
                cells
                    .iter()
                    .find(|c| c.n_types == 4 && c.n_objects == n && c.strategy == s)
                    .map(|c| c.cycles)
            };
            Some(at(strategy)? / at("BRANCH")?)
        }
    }
}

/// Mean |ln(simulated / paper)| over the paper values of every
/// `(figure, cells)` pair; a value the cells cannot produce is skipped
/// (its cell failed, which the failure count already reports). 0 when
/// nothing could be compared.
pub fn paper_err(tables: &[(Figure, &[CellResult])]) -> f64 {
    let errs: Vec<f64> = tables
        .iter()
        .flat_map(|&(figure, cells)| {
            PAPER
                .iter()
                .filter(move |p| p.figure == figure)
                .filter_map(move |p| {
                    simulated(figure, p.strategy, cells).map(|s| (s / p.value).ln().abs())
                })
        })
        .collect();
    mean(&errs).unwrap_or(0.0)
}
