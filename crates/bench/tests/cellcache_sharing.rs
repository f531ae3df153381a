//! Cross-binary cell sharing, end-to-end: a Fig. 6-shaped sweep warms
//! the cache, and a Fig. 7-shaped sweep over the same (workload ×
//! strategy) grid — another generator, no `resume` — is then served
//! entirely from it, with results identical down to the attribution and
//! cycle-audit reports. A cell that records a timeline still simulates.
//!
//! This lives in its own integration-test file on purpose: the cache
//! counters are process-global statics, so the test needs a process
//! where no other sweep has ever run. Keep it the only `#[test]` here.

use gvf_bench::cellcache::{counters_json, CellSpec};
use gvf_bench::cli::HarnessOpts;
use gvf_bench::json::Json;
use gvf_bench::sweep::run_cells;
use gvf_core::Strategy;
use gvf_workloads::{RunResult, WorkloadConfig, WorkloadKind};

fn opts(cache_dir: &std::path::Path, trace: bool) -> HarnessOpts {
    HarnessOpts {
        cfg: WorkloadConfig::tiny(),
        jobs: 2,
        smoke: true,
        quiet: true,
        json_out: None,
        trace_out: trace.then(|| "unused.trace.json".into()),
        metrics_out: None,
        // Attribution and the cycle audit on every cell, so both
        // reports must travel through the cache intact.
        attrib_out: Some("unused.attrib.json".into()),
        profile_out: None,
        audit_out: Some("unused.audit.json".into()),
        resume: false,
        no_cache: false,
        cache_dir: Some(cache_dir.to_string_lossy().into_owned()),
        events_out: None,
        stall_factor: gvf_bench::events::DEFAULT_STALL_FACTOR,
        fail_cell: None,
        slow_cell: None,
    }
}

fn counter(key: &str) -> u64 {
    counters_json()
        .get(key)
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("cellCache.{key} missing")) as u64
}

/// One figure binary's sweep over Fig. 6's grid, as `generator`.
fn sweep(generator: &str, opts: &HarnessOpts, cells: &[CellSpec]) -> Vec<RunResult> {
    let cache = opts.cell_cache(generator);
    run_cells(generator, opts, cells, |i, spec| {
        cache.run(i, spec, &opts.cfg_for_cell(i))
    })
    .expect_all()
}

fn assert_same(i: usize, a: &RunResult, b: &RunResult) {
    assert_eq!(a.stats, b.stats, "cell {i} stats");
    assert_eq!(a.checksum, b.checksum, "cell {i} checksum");
    assert_eq!(a.alloc_stats, b.alloc_stats, "cell {i} alloc stats");
    assert_eq!(a.init_cycles, b.init_cycles, "cell {i} init cycles");
    assert_eq!(a.table2.objects, b.table2.objects, "cell {i} objects");
    assert_eq!(a.table2.vfunc_pki, b.table2.vfunc_pki, "cell {i} vfunc_pki");
    assert_eq!(a.metrics, b.metrics, "cell {i} metrics");
    assert!(a.attrib.is_some() && a.audit.is_some(), "cell {i} probes");
    assert_eq!(a.attrib, b.attrib, "cell {i} attribution");
    assert_eq!(a.audit, b.audit, "cell {i} audit");
}

#[test]
fn a_second_figure_over_the_same_grid_simulates_nothing() {
    let dir = std::env::temp_dir().join(format!("gvf_cellcache_share_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cells: Vec<CellSpec> = WorkloadKind::EVALUATED
        .into_iter()
        .flat_map(|k| Strategy::EVALUATED.map(|s| CellSpec::Workload(k, s)))
        .collect();
    let n = cells.len() as u64;
    assert_eq!(n, 55);

    let fig6 = sweep("fig6", &opts(&dir, false), &cells);
    assert_eq!(counter("simulatedCells"), n);
    assert_eq!(counter("cachedCells"), 0);
    assert_eq!(counter("entriesWritten"), n);

    let fig7 = sweep("fig7", &opts(&dir, false), &cells);
    assert_eq!(counter("cachedCells"), n, "every fig7 cell came from fig6");
    assert_eq!(counter("simulatedCells"), n, "fig7 simulated nothing");
    for (i, (a, b)) in fig6.iter().zip(&fig7).enumerate() {
        assert_same(i, a, b);
    }

    // Cell 0 records a timeline here: it bypasses the cache and
    // simulates although its entry exists; every other cell is served.
    let traced = sweep("fig6", &opts(&dir, true), &cells);
    assert!(traced[0].obs.is_some(), "observed cell 0 simulated");
    assert!(traced[1..].iter().all(|r| r.obs.is_none()));
    assert_eq!(counter("cachedCells"), 2 * n - 1);
    assert_eq!(counter("entriesWritten"), n);
    for (i, (a, b)) in fig6.iter().zip(&traced).enumerate() {
        assert_same(i, a, b);
    }

    let _ = std::fs::remove_dir_all(&dir);
}
