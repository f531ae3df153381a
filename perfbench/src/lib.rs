//! The gvf performance benchmark: three workloads driven from outside
//! the program through its public API, six end-to-end metrics and a
//! failure count per run, and a traced run that splits host time by
//! layer.
//!
//! See `README.md` next to this crate for the workloads, the metrics,
//! the layer → end-to-end predictions and the public API surface this
//! benchmark depends on.

pub mod digest;
pub mod dispatch;
pub mod grid;
pub mod host;
pub mod metrics;
pub mod paper;
pub mod suite;
pub mod trace;

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// The default workload seed (`--seed` when none is given).
pub const DEFAULT_SEED: u64 = 0x5eed;

/// Pool workers per driving process: the host has two cores, and one
/// process runs at most two simulations at once.
pub const JOBS: usize = 2;

/// What one measured round of a workload produced.
#[derive(Clone, Debug, Default)]
pub struct Round {
    /// Wall seconds of the measured phase.
    pub wall_s: f64,
    /// CPU seconds (user + system) of the measured phase.
    pub cpu_s: f64,
    /// Seconds before the first cell started.
    pub setup_s: f64,
    /// Simulated warp instructions over every reported cell.
    pub winstrs: u64,
    /// Cells attempted.
    pub attempted: u64,
    /// Cells that failed an output check.
    pub failed: u64,
    /// Digest of every simulated statistic of the round.
    pub digest: u64,
    /// Mean |ln(simulated / paper)| over the workload's paper values.
    pub paper_err: f64,
}

/// Runs `round` back to back until `seconds` have passed, always at
/// least once, and never starting a round that the previous one says
/// would end past the budget.
pub fn measure(seconds: f64, mut round: impl FnMut() -> Round) -> Vec<Round> {
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        let t = Instant::now();
        let r = round();
        eprintln!(
            "[perfbench] round {}: wall {:.3} s, cpu {:.2} s, {} of {} cells failed",
            rounds.len(),
            r.wall_s,
            r.cpu_s,
            r.failed,
            r.attempted
        );
        rounds.push(r);
        let last = t.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + last > seconds {
            return rounds;
        }
    }
}

/// Counts rounds whose digest differs from the first round's as failed
/// throughout: simulated results must not depend on the run.
pub fn fold_rounds(rounds: &[Round]) -> (u64, u64) {
    let first = rounds.first().map(|r| r.digest);
    let attempted = rounds.iter().map(|r| r.attempted).sum();
    let failed = rounds
        .iter()
        .map(|r| {
            if Some(r.digest) == first {
                r.failed
            } else {
                r.attempted
            }
        })
        .sum();
    (attempted, failed)
}

/// The benchmark's own [`gvf_sim::CellHooks`]: when the first cell
/// started, and the pool's summed busy and queue-wait time.
#[derive(Debug)]
pub struct PoolWatch {
    t0: Instant,
    first_start_ns: AtomicU64,
    busy_ns: AtomicU64,
    wait_ns: AtomicU64,
}

impl PoolWatch {
    /// A watch whose clock starts now.
    pub fn start() -> Self {
        PoolWatch {
            t0: Instant::now(),
            first_start_ns: AtomicU64::new(u64::MAX),
            busy_ns: Default::default(),
            wait_ns: Default::default(),
        }
    }

    /// Seconds from the watch's start to the first cell's start.
    pub fn setup_s(&self) -> f64 {
        let ns = self.first_start_ns.load(Relaxed);
        if ns == u64::MAX {
            0.0
        } else {
            ns as f64 * 1e-9
        }
    }

    /// Summed busy seconds over all cells.
    pub fn busy_s(&self) -> f64 {
        self.busy_ns.load(Relaxed) as f64 * 1e-9
    }

    /// Summed queue-wait seconds over all cells.
    pub fn wait_s(&self) -> f64 {
        self.wait_ns.load(Relaxed) as f64 * 1e-9
    }
}

impl gvf_sim::CellHooks for PoolWatch {
    fn started(&self, _index: usize, _worker: usize) {
        let ns = self.t0.elapsed().as_nanos() as u64;
        self.first_start_ns.fetch_min(ns, Relaxed);
    }

    fn finished(&self, obs: &gvf_sim::CellObservation, _done: usize, _total: usize) {
        self.busy_ns.fetch_add(obs.busy_ns, Relaxed);
        self.wait_ns.fetch_add(obs.queue_wait_ns, Relaxed);
    }
}

/// Runs `f` over `cells` on a [`JOBS`]-worker [`gvf_sim::SimPool`]
/// watched by a fresh [`PoolWatch`]; returns the per-cell results, the
/// watch, the pool's wall seconds and the process CPU seconds used.
pub fn run_pool<I, T, F>(
    cells: &[I],
    jobs: usize,
    f: F,
) -> (Vec<Result<T, gvf_sim::CellFailure>>, PoolWatch, f64, f64)
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    let cpu0 = host::cpu_self_s();
    let watch = PoolWatch::start();
    let (out, _) = gvf_sim::SimPool::new(jobs).run_observed(cells, f, &watch);
    let wall = watch.t0.elapsed().as_secs_f64();
    (out, watch, wall, host::cpu_self_s() - cpu0)
}
