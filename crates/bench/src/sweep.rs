//! Pooled execution of a figure's simulation grid.
//!
//! Every figure binary boils down to a grid of independent cells
//! (workload × strategy × knob). [`run_cells`] pushes the grid through a
//! [`SimPool`] and returns a [`SweepRun`] holding the results in grid
//! order, so the reporting code stays a plain in-order loop and stdout
//! is byte-identical for any `--jobs` value. All operator feedback —
//! progress heartbeats and the wall-clock summary — goes to **stderr
//! only** (the CI determinism diff compares stdout between serial and
//! parallel runs), and `--quiet` suppresses even that for scripted runs.
//!
//! **Fault isolation:** a panicking cell no longer aborts the sweep.
//! The pool catches each cell's panic ([`gvf_sim::CellFailure`]); the
//! remaining cells complete, and [`SweepRun::into_results`] turns any
//! failures into first-class `"failed"` manifest entries plus a
//! non-zero exit that lists exactly which cells died — per-cell
//! granularity instead of losing the whole binary's work.
//!
//! **Telemetry:** the sweep's lifecycle flows through
//! [`crate::events`] via the pool's [`gvf_sim::CellHooks`] — per-cell
//! scheduled/started/terminal events with worker id, queue wait and
//! duration, the stderr heartbeat (now an events consumer, with the
//! resumed-run ETA fix), the flight recorder, and the `--events-out`
//! JSONL stream. Each sweep also self-reports to
//! [`gvf_sim::hostperf`]: the pool's [`gvf_sim::PoolTelemetry`]
//! (per-worker busy/queue-wait/idle time) and the cell count land in
//! the manifest's `hostPerf` section, which the determinism diff strips
//! (wall-clock numbers differ run to run by design — see `DESIGN.md`
//! "Host performance").

use crate::cli::HarnessOpts;
use gvf_sim::hostperf::{self, SweepTelemetry};
use gvf_sim::{CellFailure, CellHooks, CellObservation, SimPool};
use gvf_workloads::RunResult;
use std::sync::Mutex;
use std::time::Instant;

/// One dead cell of a sweep: where it died, what the panic said, which
/// worker it was on, how long it queued, and the fingerprint of the
/// configuration that killed it (reproducible via `--seed`/knob flags;
/// the fingerprint is the config half of the cell's cache key — see
/// [`crate::cellcache`]).
#[derive(Clone, Debug)]
pub struct SweepFailure {
    /// Grid index of the dead cell.
    pub cell: usize,
    /// The panic payload.
    pub payload: String,
    /// Hex fingerprint of the cell's simulation config.
    pub fingerprint: String,
    /// Pool worker the cell died on.
    pub worker: usize,
    /// Nanoseconds the cell waited in the pool queue before starting.
    pub queue_wait_ns: u64,
}

/// The outcome of a sweep: per-cell results in grid order, each either
/// a value or the failure that killed it.
pub struct SweepRun<T> {
    label: String,
    cells: Vec<Result<T, SweepFailure>>,
}

impl<T> SweepRun<T> {
    /// The dead cells, in grid order.
    pub fn failures(&self) -> Vec<&SweepFailure> {
        self.cells.iter().filter_map(|c| c.as_ref().err()).collect()
    }

    /// Every cell outcome in grid order — for callers (tests, the
    /// failure-manifest builder) that need the raw per-cell results
    /// without the exit-on-failure policy of [`SweepRun::into_results`].
    pub fn cells(&self) -> &[Result<T, SweepFailure>] {
        &self.cells
    }

    /// Unwraps every cell, panicking on the first failure — for callers
    /// (tests, benches) that treat any dead cell as fatal.
    pub fn expect_all(self) -> Vec<T> {
        self.cells
            .into_iter()
            .map(|c| c.unwrap_or_else(|f| panic!("cell {} panicked: {}", f.cell, f.payload)))
            .collect()
    }
}

impl SweepRun<RunResult> {
    /// The figure-binary unwrap: on an all-green sweep, the results in
    /// grid order. Any dead cell instead writes the failure manifest
    /// (`--json-out`, schema v2 with `"status": "failed"` entries — see
    /// [`crate::manifest::emit_failures`]), lists the dead cells on
    /// stderr, closes the events stream with `runEnd: failed`, and
    /// exits non-zero; surviving cells' counters are preserved in the
    /// manifest, so a long sweep's work is not lost.
    pub fn into_results(self, opts: &HarnessOpts) -> Vec<RunResult> {
        if self.failures().is_empty() {
            return self
                .cells
                .into_iter()
                .map(|c| c.unwrap_or_else(|_| unreachable!("no failures")))
                .collect();
        }
        let label = self.label.clone();
        let failed: Vec<usize> = self.failures().iter().map(|f| f.cell).collect();
        crate::manifest::emit_failures(opts, &label, &self.cells);
        for f in self.failures() {
            eprintln!(
                "[{label}] cell {} FAILED: {} (config {})",
                f.cell, f.payload, f.fingerprint
            );
        }
        eprintln!(
            "[{label}] {} of {} cells failed: {failed:?}",
            failed.len(),
            self.cells.len(),
        );
        crate::events::run_end("failed");
        std::process::exit(1);
    }
}

/// Bridges the pool's per-cell lifecycle to [`crate::events`] and
/// records each cell's worker id and queue wait for failure reporting.
struct SweepHooks {
    /// Per-cell (worker, queue-wait ns), filled as cells terminate.
    runtime: Mutex<Vec<(usize, u64)>>,
}

impl CellHooks for SweepHooks {
    fn started(&self, index: usize, worker: usize) {
        crate::events::cell_started(index, worker);
    }

    fn finished(&self, obs: &CellObservation, done: usize, total: usize) {
        {
            let mut runtime = self.runtime.lock().expect("sweep runtime mutex");
            runtime[obs.index] = (obs.worker, obs.queue_wait_ns);
        }
        crate::events::cell_done(obs, done, total);
    }
}

/// Runs `f` over `cells` on `opts.jobs` threads (`0` = all cores),
/// returning a [`SweepRun`] in input order; `f` also receives the
/// cell's grid index (feeding [`crate::cli::HarnessOpts::cfg_for_cell`]).
/// Long sweeps get throttled `k/N cells, ETA` heartbeats on stderr (an
/// events consumer — see [`crate::events`]; the ETA extrapolates from
/// non-cached completions only, and the completion heartbeat always
/// prints); a final wall-clock line also goes to stderr so stdout stays
/// a clean report. `--quiet` silences all of it. The sweep's pool
/// telemetry is recorded for the manifest's `hostPerf` section.
/// `--fail-cell N` makes grid cell `N` panic instead of running `f` —
/// the injected failure takes the real isolation path (pool
/// `catch_unwind`, failure manifest, flight recorder), which CI uses to
/// test the telemetry end to end. `--slow-cell N` runs cell `N`
/// normally, then busy-waits ~9× the cell's own wall time (min 250 ms)
/// inside the `sweep.slow_cell_injection` host span: a pure wall-clock
/// regression with untouched simulated results, which CI's rundiff gate
/// uses to check that the span-profile attribution names the right
/// path.
pub fn run_cells<I, T, F>(label: &str, opts: &HarnessOpts, cells: &[I], f: F) -> SweepRun<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    let pool = SimPool::new(opts.jobs);
    let quiet = opts.quiet;
    let start = Instant::now();
    crate::events::sweep_start(label, cells.len(), pool.jobs(), quiet);
    let hooks = SweepHooks {
        runtime: Mutex::new(vec![(0, 0); cells.len()]),
    };
    let fail_cell = opts.fail_cell;
    let slow_cell = opts.slow_cell;
    let (out, telemetry) = pool.run_observed(
        cells,
        |i, cell| {
            if fail_cell == Some(i) {
                panic!("injected failure (--fail-cell {i})");
            }
            if slow_cell == Some(i) {
                let t0 = Instant::now();
                let out = f(i, cell);
                let budget = (t0.elapsed() * 9).max(std::time::Duration::from_millis(250));
                let _g = gvf_sim::spans::span("sweep.slow_cell_injection");
                let spin = Instant::now();
                while spin.elapsed() < budget {
                    std::hint::spin_loop();
                }
                return out;
            }
            f(i, cell)
        },
        &hooks,
    );
    crate::events::sweep_end(label);
    if !quiet {
        eprintln!(
            "[{label}] {} simulations in {:.2}s ({} job{})",
            cells.len(),
            start.elapsed().as_secs_f64(),
            pool.jobs(),
            if pool.jobs() == 1 { "" } else { "s" },
        );
    }
    hostperf::record_sweep(
        SweepTelemetry {
            label: label.to_string(),
            cells: cells.len() as u64,
            pool: telemetry,
        },
        start.elapsed().as_nanos() as u64,
    );
    let runtime = hooks.runtime.into_inner().expect("sweep runtime mutex");
    let cells = out
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            r.map_err(|CellFailure { index, payload }| SweepFailure {
                cell: index,
                payload,
                fingerprint: crate::cellcache::config_fingerprint(&opts.cfg_for_cell(i)),
                worker: runtime[i].0,
                queue_wait_ns: runtime[i].1,
            })
        })
        .collect();
    SweepRun {
        label: label.to_string(),
        cells,
    }
}
