//! The metric registry (every name, its unit and direction) and the
//! result line the benchmark prints last.

use crate::host::median;
use crate::Round;
use gvf_workloads::WorkloadKind;

/// End-to-end metrics: `(name, unit, better)`. Every workload reports
/// all of them from its untraced run.
pub const END_TO_END: [(&str, &str, &str); 6] = [
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("sim_winstr_per_cpu_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
    ("paper_err", "ratio", "lower"),
];

/// Per-layer metrics other than the per-application ones:
/// `(name, unit, better)`. The traced run of every workload prints all
/// of them; a layer the workload never calls into reads 0.
pub const PER_LAYER: [(&str, &str, &str); 30] = [
    ("pool.busy_s", "s", "lower"),
    ("pool.idle_s", "s", "lower"),
    ("pool.queue_wait_s", "s", "lower"),
    ("exec.ns_per_winstr", "ns", "lower"),
    ("exec.share", "ratio", "lower"),
    ("engine.ns_per_cycle", "ns", "lower"),
    ("engine.ns_per_winstr", "ns", "lower"),
    ("engine.share", "ratio", "lower"),
    ("engine.probe_share", "ratio", "lower"),
    ("engine.sim_cycles", "count", "lower"),
    ("engine.winstrs", "count", "lower"),
    ("engine.gld_transactions", "count", "lower"),
    ("engine.l1_hit_rate", "ratio", "higher"),
    ("engine.l2_hit_rate", "ratio", "higher"),
    ("engine.dram_accesses", "count", "lower"),
    ("core.finalize_ms", "ms", "lower"),
    ("core.walks_per_vcall", "ratio", "lower"),
    ("core.lookup_ns", "ns", "lower"),
    ("alloc.ns_per_object", "ns", "lower"),
    ("alloc.share", "ratio", "lower"),
    ("alloc.ext_frag", "ratio", "lower"),
    ("mem.translations_per_winstr", "ratio", "lower"),
    ("bench.unique_share", "ratio", "higher"),
    ("bench.cache_hit_share", "ratio", "higher"),
    ("bench.resume_ms_per_cell", "ms", "lower"),
    ("bench.setup_ms_per_bin", "ms", "lower"),
    ("bench.tail_ms_per_bin", "ms", "lower"),
    ("bench.artifact_mb", "MB", "lower"),
    ("bench.profiler_share", "ratio", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
];

/// The per-application metric name for `kind`.
pub fn app_metric(kind: WorkloadKind) -> String {
    format!("workloads.ns_per_winstr.{}", kind.label())
}

/// Every per-layer metric, in print order: the per-application host
/// cost first, then [`PER_LAYER`].
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    WorkloadKind::EVALUATED
        .into_iter()
        .map(|k| (app_metric(k), "ns", "lower"))
        .chain(PER_LAYER.iter().map(|&(n, u, b)| (n.to_string(), u, b)))
        .collect()
}

/// A named set of metric values whose names are fixed up front.
#[derive(Clone, Debug)]
pub struct Metrics {
    entries: Vec<(String, &'static str, f64)>,
}

impl Metrics {
    /// The per-layer set, every value 0 until a workload sets it.
    pub fn per_layer() -> Self {
        Metrics {
            entries: per_layer()
                .into_iter()
                .map(|(n, u, _)| (n, u, 0.0))
                .collect(),
        }
    }

    /// The end-to-end set computed from measured rounds: medians over
    /// the rounds, plus the run's peak memory.
    ///
    /// # Panics
    /// Panics on an empty `rounds`.
    pub fn end_to_end(rounds: &[Round], peak_rss_mb: f64) -> Self {
        let med = |f: fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
        let values = [
            med(|r| r.wall_s),
            med(|r| r.cpu_s),
            med(|r| crate::host::ratio(r.winstrs as f64, r.cpu_s)),
            peak_rss_mb,
            med(|r| r.setup_s),
            med(|r| r.paper_err),
        ];
        Metrics {
            entries: END_TO_END
                .iter()
                .zip(values)
                .map(|(&(n, u, _), v)| (n.to_string(), u, v))
                .collect(),
        }
    }

    /// Sets a registered metric.
    ///
    /// # Panics
    /// Panics if `name` is not in the set: every printed name must be
    /// registered, with its unit.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .entries
            .iter_mut()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("unregistered metric {name}"));
        slot.2 = value;
    }

    /// Sets the `pool.*` metrics from a watched pool run of `wall_s`.
    pub fn set_pool(&mut self, watch: &crate::PoolWatch, wall_s: f64) {
        let (busy, wait) = (watch.busy_s(), watch.wait_s());
        self.set("pool.busy_s", busy);
        self.set("pool.queue_wait_s", wait);
        self.set(
            "pool.idle_s",
            (crate::JOBS as f64 * wall_s - busy - wait).max(0.0),
        );
    }

    /// Sets the modelled-count metrics from summed statistics.
    pub fn set_counts(&mut self, s: &gvf_sim::Stats) {
        self.set("engine.sim_cycles", s.cycles as f64);
        self.set("engine.winstrs", s.total_instrs() as f64);
        self.set("engine.gld_transactions", s.global_load_transactions as f64);
        self.set("engine.l1_hit_rate", s.l1_hit_rate());
        self.set("engine.l2_hit_rate", s.l2_hit_rate());
        self.set("engine.dram_accesses", s.dram_accesses as f64);
    }

    /// `(name, unit, value)` in print order.
    pub fn entries(&self) -> &[(String, &'static str, f64)] {
        &self.entries
    }
}

/// Renders the final result line:
/// `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
/// Non-finite values (a ratio over nothing) print as 0 so the line
/// always parses as JSON.
pub fn result_line(attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .entries()
        .iter()
        .map(|(n, u, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        body.join(", ")
    )
}
