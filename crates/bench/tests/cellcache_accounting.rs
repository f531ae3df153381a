//! `hostPerf.cellCache` accounting on resumed runs, end-to-end: a
//! fresh sweep followed by a `--resume` sweep over the same grid must
//! leave the process-global cache counters, the per-worker pool
//! telemetry, and the simulation results all reconciling with each
//! other — even though the resumed sweep's cells take near-zero busy
//! time.
//!
//! This lives in its own integration-test file on purpose: the cache
//! counters and the host-perf collector are process-global statics, so
//! the test needs a process where no other sweep has ever run. Keep it
//! the only `#[test]` here.

use gvf_bench::cellcache::CellSpec;
use gvf_bench::cli::HarnessOpts;
use gvf_bench::hostperf::host_perf_json;
use gvf_bench::json::Json;
use gvf_bench::sweep::run_cells;
use gvf_core::Strategy;
use gvf_workloads::{RunResult, WorkloadConfig, WorkloadKind};

fn opts(cache_dir: &std::path::Path, resume: bool) -> HarnessOpts {
    HarnessOpts {
        cfg: WorkloadConfig::tiny(),
        jobs: 1,
        smoke: true,
        quiet: true,
        json_out: None,
        trace_out: None,
        metrics_out: None,
        attrib_out: None,
        profile_out: None,
        // Enables the cycle-audit probe on every cell, so the test also
        // exercises the audit report travelling through the cache.
        audit_out: Some("unused.audit.json".into()),
        resume,
        no_cache: false,
        cache_dir: Some(cache_dir.to_string_lossy().into_owned()),
        events_out: None,
        stall_factor: gvf_bench::events::DEFAULT_STALL_FACTOR,
        fail_cell: None,
        slow_cell: None,
    }
}

fn num(j: &Json, key: &str) -> u64 {
    j.get(key)
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("cellCache.{key} missing")) as u64
}

fn sweep(label: &str, opts: &HarnessOpts, cells: &[WorkloadKind]) -> Vec<RunResult> {
    let cache = opts.cell_cache("cacheacct");
    run_cells(label, opts, cells, |i, &k| {
        let cfg = opts.cfg_for_cell(i);
        cache.run(i, &CellSpec::Workload(k, Strategy::Cuda), &cfg)
    })
    .expect_all()
}

#[test]
fn cache_counters_and_pool_timers_reconcile_on_resume() {
    let dir = std::env::temp_dir().join(format!("gvf_cellcache_acct_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let cells: Vec<WorkloadKind> = WorkloadKind::EVALUATED.to_vec();
    let n = cells.len() as u64;

    // Fresh sweep into an empty cache: every cell simulates and every
    // cell is persisted.
    let fresh = sweep("fresh", &opts(&dir, false), &cells);
    // Resumed sweep: every cell is served from the cache.
    let resumed = sweep("resumed", &opts(&dir, true), &cells);

    // The resumed run reproduces the fresh run exactly — including the
    // cycle-audit report, which travels *through* the cache.
    assert_eq!(fresh.len(), resumed.len());
    for (i, (a, b)) in fresh.iter().zip(&resumed).enumerate() {
        assert_eq!(a.stats.cycles, b.stats.cycles, "cell {i} cycles");
        assert!(a.audit.is_some(), "cell {i} lost its audit report");
        assert_eq!(a.audit, b.audit, "cell {i} audit");
    }

    // Counter accounting: n simulated (fresh), n cached (resumed), n
    // entries written; cached + simulated covers every cell ever run.
    let total_cycles: u64 = fresh.iter().map(|r| r.stats.cycles).sum();
    let perf = host_perf_json(total_cycles * 2);
    let cc = perf.get("cellCache").expect("hostPerf.cellCache");
    assert_eq!(num(cc, "simulatedCells"), n);
    assert_eq!(num(cc, "cachedCells"), n);
    assert_eq!(num(cc, "entriesWritten"), n);

    // Pool-telemetry accounting: both sweeps recorded, each crediting
    // every cell to exactly one worker, with non-negative idle time
    // (busy + queue-wait never exceeds the pool's wall clock) — the
    // resumed sweep included, where busy time is near zero.
    let snap = gvf_sim::hostperf::snapshot();
    assert_eq!(snap.sweeps.len(), 2, "one telemetry record per sweep");
    for s in &snap.sweeps {
        assert_eq!(s.cells, n, "sweep {} cell count", s.label);
        let credited: u64 = s.pool.workers.iter().map(|w| w.cells).sum();
        assert_eq!(credited, n, "sweep {} worker cell credit", s.label);
        for w in &s.pool.workers {
            assert!(
                w.busy_ns + w.queue_wait_ns <= s.pool.wall_ns,
                "sweep {}: worker busy {} + wait {} exceeds wall {}",
                s.label,
                w.busy_ns,
                w.queue_wait_ns,
                s.pool.wall_ns
            );
        }
    }
    // cachedCells + simulatedCells must equal the telemetry's total.
    let telemetry_cells: u64 = snap.sweeps.iter().map(|s| s.cells).sum();
    assert_eq!(
        num(cc, "cachedCells") + num(cc, "simulatedCells"),
        telemetry_cells
    );

    let _ = std::fs::remove_dir_all(&dir);
}
