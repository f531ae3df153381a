//! `fig6-grid`: Fig. 6's 55 cells (11 apps × 5 evaluated strategies)
//! as in-process `run_workload` calls on a two-worker `SimPool`, with
//! no cell cache, no artifacts and no probes.

use crate::digest::{matches_record, stats_digest};
use crate::host::{peak_rss_mb, ratio};
use crate::metrics::{app_metric, Metrics};
use crate::paper::{paper_err, CellResult, Figure};
use crate::trace::Tracer;
use crate::{fold_rounds, measure, run_pool, Round, JOBS};
use gvf_core::Strategy;
use gvf_sim::{CellFailure, Stats};
use gvf_workloads::{run_workload, RunResult, WorkloadConfig, WorkloadKind};

/// The workload's name on the command line.
pub const NAME: &str = "fig6-grid";

/// The cell configuration: the evaluation GPU at scale 1 with one
/// compute iteration, the same cells `repro-suite` simulates.
pub fn config(seed: u64) -> WorkloadConfig {
    let mut cfg = WorkloadConfig::eval();
    cfg.scale = 1;
    cfg.iterations = 1;
    cfg.seed = seed;
    cfg
}

/// The 55 cells, application-major.
pub fn cells() -> Vec<(WorkloadKind, Strategy)> {
    WorkloadKind::EVALUATED
        .into_iter()
        .flat_map(|k| Strategy::EVALUATED.into_iter().map(move |s| (k, s)))
        .collect()
}

/// The figures computed from the grid's cells: every figure of
/// `repro-suite` that prints paper values, so both workloads report the
/// same `paper_err` for the same seed. Fig. 6's four geomeans alone
/// move by up to 10% between seeds; the seventeen values together move
/// by about 2%.
pub const FIGURES: [Figure; 5] = [
    Figure::Fig1b,
    Figure::Fig6,
    Figure::Fig7,
    Figure::Fig8,
    Figure::Fig9,
];

/// The output checks of one grid: `(failed cells, stats digest,
/// paper_err, warp instructions)`. A cell fails when it panicked or its
/// functional checksum differs from its application's SharedOA cell.
pub fn check(
    cells: &[(WorkloadKind, Strategy)],
    results: &[Result<RunResult, CellFailure>],
) -> (u64, u64, f64, u64) {
    let checksum = |k: WorkloadKind, s: Strategy| {
        cells
            .iter()
            .position(|&c| c == (k, s))
            .and_then(|i| results[i].as_ref().ok())
            .map(|r| r.checksum)
    };
    let failed = cells
        .iter()
        .zip(results)
        .filter(|(&(k, _), r)| match r {
            Err(_) => true,
            Ok(r) => checksum(k, Strategy::SharedOa) != Some(r.checksum),
        })
        .count() as u64;
    let digest = stats_digest(results.iter().map(|r| r.as_ref().ok().map(|r| &r.stats)));
    let table: Vec<CellResult> = cells
        .iter()
        .zip(results)
        .filter_map(|(&(k, s), r)| {
            r.as_ref()
                .ok()
                .map(|r| CellResult::of(k.label(), s.label(), &r.stats))
        })
        .collect();
    let winstrs = results
        .iter()
        .flatten()
        .map(|r| r.stats.total_instrs())
        .sum();
    let tables = FIGURES.map(|f| (f, table.as_slice()));
    (failed, digest, paper_err(&tables), winstrs)
}

/// One pass over the grid: its round record and the raw results.
fn round(
    seed: u64,
    cells: &[(WorkloadKind, Strategy)],
    tracer: Option<(&Tracer, u64)>,
) -> (Round, Vec<Result<RunResult, CellFailure>>, crate::PoolWatch) {
    let cfg = config(seed);
    let (results, watch, wall_s, cpu_s) = run_pool(cells, JOBS, |i, &(k, s)| match tracer {
        Some((t, base)) => t.span(base + i as u64, None, "workloads.run_workload", |_| {
            run_workload(k, s, &cfg)
        }),
        None => run_workload(k, s, &cfg),
    });
    let (mut failed, digest, paper_err, winstrs) = check(cells, &results);
    if !matches_record(NAME, seed, digest) {
        failed = cells.len() as u64;
    }
    let r = Round {
        wall_s,
        cpu_s,
        setup_s: watch.setup_s(),
        winstrs,
        attempted: cells.len() as u64,
        failed,
        digest,
        paper_err,
    };
    (r, results, watch)
}

/// The untraced run: rounds for `seconds`, end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> (u64, u64, Metrics) {
    let cells = cells();
    let rounds = measure(seconds, || round(seed, &cells, None).0);
    let (attempted, failed) = fold_rounds(&rounds);
    (
        attempted,
        failed,
        Metrics::end_to_end(&rounds, peak_rss_mb()),
    )
}

/// The traced run: an untraced round, a round with a span around every
/// `run_workload` call, and a round under the simulator's own span
/// profiler for the functional/timing split; per-layer metrics.
pub fn run_traced(seed: u64, tracer: &Tracer) -> (u64, u64, Metrics) {
    let cells = cells();
    let n = cells.len() as u64;
    let (plain, _, _) = round(seed, &cells, None);
    let phases0 = gvf_sim::hostperf::snapshot();
    let (traced, results, watch) = round(seed, &cells, Some((tracer, 0)));
    let phases1 = gvf_sim::hostperf::snapshot();
    // The span profiler cannot be switched off again, so its round
    // comes last.
    gvf_sim::spans::enable();
    let (profiled, _, _) = round(seed, &cells, Some((tracer, n)));
    let functional_ns: u64 = gvf_sim::spans::snapshot()
        .iter()
        .filter(|s| s.path.ends_with("kernel.functional"))
        .map(|s| s.total_ns)
        .sum();
    let rounds = [plain, traced, profiled];
    let (attempted, failed) = fold_rounds(&rounds);

    let mut m = Metrics::per_layer();
    let ok: Vec<&RunResult> = results.iter().flatten().collect();
    let stats = Stats::merged(ok.iter().map(|r| &r.stats));
    for kind in WorkloadKind::EVALUATED {
        let of_kind = |i: u64| i < n && cells[i as usize].0 == kind;
        let ns = tracer.total_ns("workloads.run_workload", of_kind);
        let winstrs: u64 = cells
            .iter()
            .zip(&results)
            .filter(|(c, _)| c.0 == kind)
            .filter_map(|(_, r)| r.as_ref().ok())
            .map(|r| r.stats.total_instrs())
            .sum();
        m.set(&app_metric(kind), ratio(ns as f64, winstrs as f64));
    }
    m.set_pool(&watch, rounds[1].wall_s);
    let busy_ns = watch.busy_s() * 1e9;
    let simulate_ns = phases1.simulate_ns.saturating_sub(phases0.simulate_ns) as f64;
    let exec_ns = functional_ns as f64;
    let engine_ns = (simulate_ns - exec_ns).max(0.0);
    let winstrs = stats.total_instrs() as f64;
    m.set("exec.ns_per_winstr", ratio(exec_ns, winstrs));
    m.set("exec.share", ratio(exec_ns, busy_ns));
    m.set("engine.ns_per_cycle", ratio(engine_ns, stats.cycles as f64));
    m.set("engine.ns_per_winstr", ratio(engine_ns, winstrs));
    m.set("engine.share", ratio(engine_ns, busy_ns));
    m.set_counts(&stats);
    let frag: Vec<f64> = ok
        .iter()
        .map(|r| r.alloc_stats.external_fragmentation())
        .collect();
    m.set(
        "alloc.ext_frag",
        ratio(frag.iter().sum(), frag.len() as f64),
    );
    m.set(
        "trace.overhead_share",
        rounds[1].wall_s / rounds[0].wall_s - 1.0,
    );
    (attempted, failed, m)
}
