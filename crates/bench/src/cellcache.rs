//! Content-addressed cell cache: one simulation per distinct cell.
//!
//! Every grid cell of a figure binary is a pure function of *what* it
//! simulates — a [`CellSpec`] (workload and strategy, or microbenchmark
//! point and strategy) — under *which* configuration, run by *which*
//! code. That is the determinism contract the CI diffs enforce. This
//! module exploits it: a completed cell's [`RunResult`] is persisted
//! under a **cell key**, the FNV-1a hash of (schema versions, build
//! hash, spec, full simulation config), and any later cell with the same
//! key — in the same binary, in another figure binary sharing the cache
//! directory, or in a later run — is served from disk instead of
//! simulated. Fig. 1b, Table 2 and Figs. 6–9 all read off the same
//! 11 × 5 grid, so a reproduction simulates each of its 55 cells once.
//!
//! The key deliberately excludes everything the determinism view
//! excludes — host-perf, wall-clock, `--jobs`, `--engine-threads`,
//! fast-forward — and the binary and grid index that asked for the
//! cell, so a served cell emits **byte-identical** manifests and
//! attribution artifacts; only the `hostPerf` section (already stripped
//! by `validate_json --det-diff`) records how many cells came from the
//! cache.
//!
//! Entries live under `<dir>/.cellcache/<key>.json` (schema
//! `gvf.cellcache` v3) next to the `--json-out` artifact by default.
//! Each entry records its spec and build hash and carries a
//! `contentHash` over its own rendering, so a corrupted or hand-edited
//! entry is detected and re-simulated rather than trusted
//! (`validate_json` enforces the same check in CI — the cache-poisoning
//! gate). The `generator` and `cell` members say which binary and grid
//! cell first wrote the entry; they are provenance, not identity.
//!
//! The build hash (`GVF_BUILD_HASH`, computed by `build.rs` over the
//! sources of every crate a result depends on) keys entries to the
//! code: after an edit to the simulator, old entries simply stop
//! matching. Reads are therefore on whenever the cache is enabled, and
//! the cache directory is safe to delete at any time.
//!
//! Cells that record observability artifacts (`--trace-out` /
//! `--metrics-out` probe the first cell) bypass the cache entirely:
//! event streams are large and wall-clock-adjacent, and every run must
//! still produce them fresh. The mechanism-attribution and cycle-audit
//! reports are different: both are bounded, deterministic counters, so
//! they travel *through* the cache (and are keyed, since they change
//! what a [`RunResult`] carries).

use crate::json::Json;
use gvf_alloc::AllocatorKind;
use gvf_alloc::{AllocStats, TypeKey, TypeRegionStats};
use gvf_core::Strategy;
use gvf_core::{LookupAttrib, LookupKind, TagAttrib, TagMode};
use gvf_sim::{
    AttribReport, CallSiteStats, CycleAuditReport, LogHist, PcLoadStats, LOG_HIST_BUCKETS,
};
use gvf_workloads::{
    micro, run_workload, AllocAttribSnapshot, AttribBundle, MicroParams, RunResult, Table2Row,
    WorkloadConfig, WorkloadKind,
};
use std::sync::atomic::{AtomicU64, Ordering};

/// Cell-cache schema identifier.
pub const CELLCACHE_SCHEMA: &str = crate::schemas::CELLCACHE.id;
/// Cell-cache schema version; bump on breaking changes.
/// v2: entries carry the cycle-audit report and key on `cycle_audit`.
/// v3: the key is (build, spec, config) — no generator or grid index —
/// and entries record `spec` and `build`.
pub const CELLCACHE_SCHEMA_VERSION: u32 = crate::schemas::CELLCACHE.version;

/// Identity of the code that computes a cell: `build.rs`'s hash of the
/// model and harness sources.
pub(crate) const BUILD_HASH: &str = env!("GVF_BUILD_HASH");

/// Directory name holding cache entries, under the artifact directory.
pub const CELLCACHE_DIR: &str = ".cellcache";

// Process-wide counters surfaced in the manifest's `hostPerf` section
// (which the determinism diff strips, so they never affect a byte diff).
static CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static CACHE_MISSES: AtomicU64 = AtomicU64::new(0);
static CACHE_WRITES: AtomicU64 = AtomicU64::new(0);

/// 64-bit FNV-1a. The standard library's `DefaultHasher` is not stable
/// across releases; cache keys must be, so the hash is pinned here.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn opt_u64(v: Option<u64>) -> Json {
    match v {
        Some(n) => Json::num_u64(n),
        None => Json::Null,
    }
}

/// The deterministic config rendering hashed into a cell key (and
/// recorded verbatim in failure entries as the *config fingerprint*).
/// Every simulation-relevant knob appears; host-side knobs
/// (`engine_threads`, `--jobs`, `fast_forward`) and the observability
/// probes that bypass the cache (timeline, metrics) deliberately do
/// not.
/// Attribution and the cycle audit *are* keyed: they change what a
/// [`RunResult`] carries.
pub fn config_fingerprint_json(cfg: &WorkloadConfig) -> Json {
    let g = &cfg.gpu;
    let gpu = Json::obj()
        .with("num_sms", Json::num_u64(g.num_sms as u64))
        .with("max_warps_per_sm", Json::num_u64(g.max_warps_per_sm as u64))
        .with(
            "schedulers_per_sm",
            Json::num_u64(g.schedulers_per_sm as u64),
        )
        .with("warp_size", Json::num_u64(g.warp_size as u64))
        .with("alu_latency", Json::num_u64(g.alu_latency))
        .with("alu_chain_latency", Json::num_u64(g.alu_chain_latency))
        .with("branch_latency", Json::num_u64(g.branch_latency))
        .with(
            "indirect_call_latency",
            Json::num_u64(g.indirect_call_latency),
        )
        .with("ret_latency", Json::num_u64(g.ret_latency))
        .with("l1_latency", Json::num_u64(g.l1_latency))
        .with("l1_bytes", Json::num_u64(g.l1_bytes))
        .with("l1_ways", Json::num_u64(g.l1_ways as u64))
        .with("l2_latency", Json::num_u64(g.l2_latency))
        .with("l2_bytes", Json::num_u64(g.l2_bytes))
        .with("l2_ways", Json::num_u64(g.l2_ways as u64))
        .with("l2_slices", Json::num_u64(g.l2_slices as u64))
        .with("line_bytes", Json::num_u64(g.line_bytes))
        .with("sector_bytes", Json::num_u64(g.sector_bytes))
        .with("dram_latency", Json::num_u64(g.dram_latency))
        .with("dram_channels", Json::num_u64(g.dram_channels as u64))
        .with("dram_sector_cycles", Json::num_u64(g.dram_sector_cycles))
        .with(
            "max_pending_loads",
            Json::num_u64(g.max_pending_loads as u64),
        )
        .with("mshr_per_sm", Json::num_u64(g.mshr_per_sm as u64))
        .with("l1_queue_cap", Json::num_u64(g.l1_queue_cap))
        .with("const_latency", Json::num_u64(g.const_latency))
        .with("const_miss_latency", Json::num_u64(g.const_miss_latency))
        .with("const_bytes", Json::num_u64(g.const_bytes));
    Json::obj()
        .with("scale", Json::num_u64(cfg.scale as u64))
        .with("iterations", Json::num_u64(cfg.iterations as u64))
        .with("seed", Json::num_u64(cfg.seed))
        .with("initial_chunk_objs", Json::num_u64(cfg.initial_chunk_objs))
        .with(
            "allocator_override",
            match cfg.allocator_override {
                Some(AllocatorKind::Cuda) => Json::str("cuda"),
                Some(AllocatorKind::SharedOa) => Json::str("sharedoa"),
                None => Json::Null,
            },
        )
        .with("tag_mode", Json::str(cfg.tag_mode.label()))
        .with("coal_lookup", Json::str(cfg.coal_lookup.label()))
        .with("tag_budget", opt_u64(cfg.tag_budget))
        .with(
            "device_memory_bytes",
            Json::num_u64(cfg.device_memory_bytes),
        )
        .with("attribution", Json::Bool(cfg.probe.attribution))
        .with("cycle_audit", Json::Bool(cfg.probe.cycle_audit))
        .with("gpu", gpu)
}

/// The short hex fingerprint of a cell's configuration, as recorded in
/// manifest failure entries.
pub fn config_fingerprint(cfg: &WorkloadConfig) -> String {
    format!(
        "{:016x}",
        fnv1a64(config_fingerprint_json(cfg).render().as_bytes())
    )
}

/// What one grid cell simulates. Together with its [`WorkloadConfig`]
/// this is the whole input of the cell, and the only material of its
/// cache key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellSpec {
    /// An application of Table 2 under a dispatch strategy.
    Workload(WorkloadKind, Strategy),
    /// A §8.3 microbenchmark point under a dispatch strategy.
    Micro(Strategy, MicroParams),
}

impl CellSpec {
    /// Simulates the cell.
    pub fn run(&self, cfg: &WorkloadConfig) -> RunResult {
        match *self {
            CellSpec::Workload(kind, strategy) => run_workload(kind, strategy, cfg),
            CellSpec::Micro(strategy, params) => micro::run(strategy, params, cfg),
        }
    }

    /// The spec as recorded in cache entries and hashed into the key.
    pub(crate) fn to_json(self) -> Json {
        match self {
            CellSpec::Workload(kind, strategy) => Json::obj()
                .with("workload", Json::str(kind.label()))
                .with("strategy", Json::str(strategy.label())),
            CellSpec::Micro(strategy, p) => Json::obj()
                .with(
                    "micro",
                    Json::obj()
                        .with("n_objects", Json::num_u64(p.n_objects as u64))
                        .with("n_types", Json::num_u64(p.n_types as u64)),
                )
                .with("strategy", Json::str(strategy.label())),
        }
    }
}

fn key_under(build: &str, spec: &CellSpec, cfg: &WorkloadConfig) -> String {
    let material = format!(
        "cellcache-v{}\nmanifest-v{}\nbuild={build}\nspec={}\n{}",
        CELLCACHE_SCHEMA_VERSION,
        crate::manifest::MANIFEST_SCHEMA_VERSION,
        spec.to_json().render_compact(),
        config_fingerprint_json(cfg).render(),
    );
    format!("{:016x}", fnv1a64(material.as_bytes()))
}

/// The content-addressed key of `spec` under `cfg` and this build, as a
/// 16-digit hex string (the cache file's basename).
pub fn cell_key(spec: &CellSpec, cfg: &WorkloadConfig) -> String {
    key_under(BUILD_HASH, spec, cfg)
}

fn u64_arr(v: &[u64]) -> Json {
    Json::Arr(v.iter().map(|&x| Json::num_u64(x)).collect())
}

fn parse_u64_arr(j: &Json) -> Option<Vec<u64>> {
    j.as_arr()?
        .iter()
        .map(|x| x.as_num().map(|n| n as u64))
        .collect()
}

fn log_hist_counts(h: &LogHist) -> Json {
    u64_arr(h.counts())
}

fn parse_log_hist(j: &Json) -> Option<LogHist> {
    let v = parse_u64_arr(j)?;
    let counts: [u64; LOG_HIST_BUCKETS] = v.try_into().ok()?;
    Some(LogHist::from_counts(counts))
}

fn attrib_json(b: &AttribBundle) -> Json {
    let p = &b.probe;
    let per_pc: Vec<Json> = p
        .per_pc
        .iter()
        .map(|(&(pc, tag), s)| {
            u64_arr(&[
                pc as u64,
                tag as u64,
                s.instructions,
                s.lanes,
                s.transactions,
                s.l1_hits,
            ])
        })
        .collect();
    let probe = Json::obj()
        .with("per_pc", Json::Arr(per_pc))
        .with("set_accesses", u64_arr(&p.set_accesses))
        .with("set_hits", u64_arr(&p.set_hits))
        .with("final_set_sectors", u64_arr(&p.final_set_sectors))
        .with(
            "reuse",
            Json::Arr(p.reuse.iter().map(log_hist_counts).collect()),
        )
        .with("cold_lines", u64_arr(&p.cold_lines))
        .with("sms", Json::num_u64(p.sms));
    let alloc = match &b.alloc {
        Some(a) => Json::obj()
            .with("merges", Json::num_u64(a.merges))
            .with("initial_chunk_objs", Json::num_u64(a.initial_chunk_objs))
            .with(
                "types",
                Json::Arr(
                    a.types
                        .iter()
                        .map(|t| {
                            u64_arr(&[
                                t.ty.0 as u64,
                                t.obj_size,
                                t.regions,
                                t.capacity_objs,
                                t.used_objs,
                                t.largest_region_objs,
                                t.next_region_objs,
                            ])
                        })
                        .collect(),
                ),
            ),
        None => Json::Null,
    };
    let lookup = match &b.lookup {
        Some(l) => Json::obj()
            .with("kind", Json::str(l.kind.label()))
            .with("num_ranges", Json::num_u64(l.num_ranges))
            .with("tree_depth", Json::num_u64(l.tree_depth as u64))
            .with("dispatches", Json::num_u64(l.dispatches))
            .with("lanes", Json::num_u64(l.lanes))
            .with("walk_depth", log_hist_counts(&l.walk_depth))
            .with("comparisons", log_hist_counts(&l.comparisons)),
        None => Json::Null,
    };
    let tags = match &b.tags {
        Some(t) => Json::obj()
            .with("tag_mode", Json::str(t.tag_mode.label()))
            .with("hardware_mask", Json::Bool(t.hardware_mask))
            .with("decode_dispatches", Json::num_u64(t.decode_dispatches))
            .with("decode_lanes", Json::num_u64(t.decode_lanes))
            .with("fallback_dispatches", Json::num_u64(t.fallback_dispatches))
            .with("fallback_lanes", Json::num_u64(t.fallback_lanes))
            .with("mask_ops", Json::num_u64(t.mask_ops)),
        None => Json::Null,
    };
    Json::obj()
        .with("probe", probe)
        .with("alloc", alloc)
        .with("lookup", lookup)
        .with("tags", tags)
}

fn parse_attrib(j: &Json) -> Option<AttribBundle> {
    let get_u64 = |o: &Json, k: &str| o.get(k).and_then(Json::as_num).map(|n| n as u64);
    let p = j.get("probe")?;
    let mut probe = AttribReport {
        set_accesses: parse_u64_arr(p.get("set_accesses")?)?,
        set_hits: parse_u64_arr(p.get("set_hits")?)?,
        final_set_sectors: parse_u64_arr(p.get("final_set_sectors")?)?,
        sms: get_u64(p, "sms")?,
        ..AttribReport::default()
    };
    for row in p.get("per_pc")?.as_arr()? {
        let v = parse_u64_arr(row)?;
        let [pc, tag, instructions, lanes, transactions, l1_hits] = v.try_into().ok()?;
        probe.per_pc.insert(
            (pc as usize, tag as usize),
            PcLoadStats {
                instructions,
                lanes,
                transactions,
                l1_hits,
            },
        );
    }
    let reuse = p.get("reuse")?.as_arr()?;
    if reuse.len() != probe.reuse.len() {
        return None;
    }
    for (slot, j) in probe.reuse.iter_mut().zip(reuse) {
        *slot = parse_log_hist(j)?;
    }
    probe.cold_lines = parse_u64_arr(p.get("cold_lines")?)?.try_into().ok()?;

    let alloc = match j.get("alloc")? {
        Json::Null => None,
        a => Some(AllocAttribSnapshot {
            merges: get_u64(a, "merges")?,
            initial_chunk_objs: get_u64(a, "initial_chunk_objs")?,
            types: a
                .get("types")?
                .as_arr()?
                .iter()
                .map(|row| {
                    let v = parse_u64_arr(row)?;
                    let [ty, obj_size, regions, capacity_objs, used_objs, largest, next] =
                        v.try_into().ok()?;
                    Some(TypeRegionStats {
                        ty: TypeKey(ty as u32),
                        obj_size,
                        regions,
                        capacity_objs,
                        used_objs,
                        largest_region_objs: largest,
                        next_region_objs: next,
                    })
                })
                .collect::<Option<Vec<_>>>()?,
        }),
    };
    let lookup = match j.get("lookup")? {
        Json::Null => None,
        l => Some(LookupAttrib {
            kind: match l.get("kind")?.as_str()? {
                "segment-tree" => LookupKind::SegmentTree,
                "linear-scan" => LookupKind::LinearScan,
                _ => return None,
            },
            num_ranges: get_u64(l, "num_ranges")?,
            tree_depth: get_u64(l, "tree_depth")? as u32,
            dispatches: get_u64(l, "dispatches")?,
            lanes: get_u64(l, "lanes")?,
            walk_depth: parse_log_hist(l.get("walk_depth")?)?,
            comparisons: parse_log_hist(l.get("comparisons")?)?,
        }),
    };
    let tags = match j.get("tags")? {
        Json::Null => None,
        t => Some(TagAttrib {
            tag_mode: match t.get("tag_mode")?.as_str()? {
                "offset" => TagMode::Offset,
                "index" => TagMode::Index,
                _ => return None,
            },
            hardware_mask: t.get("hardware_mask")?.as_bool()?,
            decode_dispatches: get_u64(t, "decode_dispatches")?,
            decode_lanes: get_u64(t, "decode_lanes")?,
            fallback_dispatches: get_u64(t, "fallback_dispatches")?,
            fallback_lanes: get_u64(t, "fallback_lanes")?,
            mask_ops: get_u64(t, "mask_ops")?,
        }),
    };
    Some(AttribBundle {
        probe,
        alloc,
        lookup,
        tags,
    })
}

fn audit_json(a: &CycleAuditReport) -> Json {
    // One row per indirect-call site: [pc, calls, unknown_calls,
    // overflowed, target, target, ...]. Targets are FuncIds (u32-sized),
    // so the f64 JSON number range is never a concern.
    let sites: Vec<Json> = a
        .call_sites
        .iter()
        .map(|(&pc, s)| {
            let mut row = vec![pc as u64, s.calls, s.unknown_calls, s.overflowed as u64];
            row.extend(s.targets.iter().copied());
            u64_arr(&row)
        })
        .collect();
    Json::obj()
        .with(
            "counters",
            u64_arr(&[
                a.sms,
                a.audited_cycles,
                a.active,
                a.stalled_known,
                a.stalled_other,
                a.drained,
                a.skipped,
                a.tail,
            ]),
        )
        .with("gap_hist", log_hist_counts(&a.gap_hist))
        .with("call_sites", Json::Arr(sites))
}

fn parse_audit(j: &Json) -> Option<CycleAuditReport> {
    let c = parse_u64_arr(j.get("counters")?)?;
    let [sms, audited_cycles, active, stalled_known, stalled_other, drained, skipped, tail] =
        c.try_into().ok()?;
    let mut a = CycleAuditReport {
        sms,
        audited_cycles,
        active,
        stalled_known,
        stalled_other,
        drained,
        skipped,
        tail,
        gap_hist: parse_log_hist(j.get("gap_hist")?)?,
        ..CycleAuditReport::default()
    };
    for row in j.get("call_sites")?.as_arr()? {
        let v = parse_u64_arr(row)?;
        if v.len() < 4 {
            return None;
        }
        a.call_sites.insert(
            v[0] as usize,
            CallSiteStats {
                calls: v[1],
                unknown_calls: v[2],
                overflowed: v[3] != 0,
                targets: v[4..].iter().copied().collect(),
            },
        );
    }
    Some(a)
}

fn result_json(r: &RunResult) -> Json {
    let s = &r.stats;
    let stats = Json::obj()
        .with(
            "scalars",
            u64_arr(&[
                s.cycles,
                s.instrs_mem,
                s.instrs_compute,
                s.instrs_ctrl,
                s.global_load_transactions,
                s.global_store_transactions,
                s.l1_accesses,
                s.l1_hits,
                s.l2_accesses,
                s.l2_hits,
                s.dram_accesses,
                s.const_accesses,
                s.const_hits,
                s.warps,
                s.vfunc_calls,
            ]),
        )
        .with("stall_by_tag", u64_arr(&s.stall_by_tag))
        .with(
            "load_transactions_by_tag",
            u64_arr(&s.load_transactions_by_tag),
        );
    Json::obj()
        // A 64-bit digest routinely exceeds 2^53 — unrepresentable in an
        // f64 JSON number, so it travels as a hex string.
        .with("checksum", Json::str(format!("{:016x}", r.checksum)))
        .with("stats", stats)
        .with("init_cycles", Json::num_u64(r.init_cycles))
        .with(
            "alloc_stats",
            u64_arr(&[
                r.alloc_stats.objects,
                r.alloc_stats.used_bytes,
                r.alloc_stats.reserved_bytes,
                r.alloc_stats.regions,
            ]),
        )
        .with(
            "table2",
            Json::obj()
                .with("objects", Json::num_u64(r.table2.objects))
                .with("types", Json::num_u64(r.table2.types as u64))
                .with(
                    "vfunc_entries",
                    Json::num_u64(r.table2.vfunc_entries as u64),
                )
                .with("vfunc_pki", Json::Num(r.table2.vfunc_pki)),
        )
        .with(
            "metrics",
            Json::Arr(
                r.metrics
                    .iter()
                    .map(|&(k, v)| Json::Arr(vec![Json::str(k), Json::Num(v)]))
                    .collect(),
            ),
        )
        .with(
            "attrib",
            match &r.attrib {
                Some(b) => attrib_json(b),
                None => Json::Null,
            },
        )
        .with(
            "audit",
            match &r.audit {
                Some(a) => audit_json(a),
                None => Json::Null,
            },
        )
}

fn parse_result(j: &Json) -> Option<RunResult> {
    let scalars = parse_u64_arr(j.get("stats")?.get("scalars")?)?;
    let [cycles, instrs_mem, instrs_compute, instrs_ctrl, global_load_transactions, global_store_transactions, l1_accesses, l1_hits, l2_accesses, l2_hits, dram_accesses, const_accesses, const_hits, warps, vfunc_calls] =
        scalars.try_into().ok()?;
    let mut stats = gvf_sim::Stats::new();
    stats.cycles = cycles;
    stats.instrs_mem = instrs_mem;
    stats.instrs_compute = instrs_compute;
    stats.instrs_ctrl = instrs_ctrl;
    stats.global_load_transactions = global_load_transactions;
    stats.global_store_transactions = global_store_transactions;
    stats.l1_accesses = l1_accesses;
    stats.l1_hits = l1_hits;
    stats.l2_accesses = l2_accesses;
    stats.l2_hits = l2_hits;
    stats.dram_accesses = dram_accesses;
    stats.const_accesses = const_accesses;
    stats.const_hits = const_hits;
    stats.warps = warps;
    stats.vfunc_calls = vfunc_calls;
    stats.stall_by_tag = parse_u64_arr(j.get("stats")?.get("stall_by_tag")?)?
        .try_into()
        .ok()?;
    stats.load_transactions_by_tag =
        parse_u64_arr(j.get("stats")?.get("load_transactions_by_tag")?)?
            .try_into()
            .ok()?;

    let a = parse_u64_arr(j.get("alloc_stats")?)?;
    let [objects, used_bytes, reserved_bytes, regions] = a.try_into().ok()?;
    let t2 = j.get("table2")?;
    let num = |o: &Json, k: &str| o.get(k).and_then(Json::as_num);
    let metrics = j
        .get("metrics")?
        .as_arr()?
        .iter()
        .map(|pair| {
            let pair = pair.as_arr()?;
            let key = pair.first()?.as_str()?;
            let value = pair.get(1)?.as_num()?;
            // Metric keys are a small closed set per workload; leaking
            // the decoded string restores the `&'static str` the struct
            // carries. Bounded: one leak per distinct key per process.
            Some((&*Box::leak(key.to_string().into_boxed_str()), value))
        })
        .collect::<Option<Vec<_>>>()?;
    Some(RunResult {
        stats,
        checksum: u64::from_str_radix(j.get("checksum")?.as_str()?, 16).ok()?,
        alloc_stats: AllocStats {
            objects,
            used_bytes,
            reserved_bytes,
            regions,
        },
        init_cycles: num(j, "init_cycles")? as u64,
        table2: Table2Row {
            objects: num(t2, "objects")? as u64,
            types: num(t2, "types")? as u32,
            vfunc_entries: num(t2, "vfunc_entries")? as u32,
            vfunc_pki: num(t2, "vfunc_pki")?,
        },
        metrics,
        obs: None,
        attrib: match j.get("attrib")? {
            Json::Null => None,
            b => Some(parse_attrib(b)?),
        },
        audit: match j.get("audit")? {
            Json::Null => None,
            a => Some(parse_audit(a)?),
        },
    })
}

/// Builds the `gvf.cellcache` entry document for one cell completed by
/// `build`; `generator` and `index` record which binary and grid cell
/// wrote it.
fn entry_doc(
    build: &str,
    generator: &str,
    index: usize,
    spec: &CellSpec,
    key: &str,
    r: &RunResult,
) -> Json {
    let doc = Json::obj()
        .with("schema", Json::str(CELLCACHE_SCHEMA))
        .with("version", Json::num_u64(CELLCACHE_SCHEMA_VERSION as u64))
        .with("key", Json::str(key))
        .with("build", Json::str(build))
        .with("spec", spec.to_json())
        .with("generator", Json::str(generator))
        .with("cell", Json::num_u64(index as u64))
        .with("contentHash", Json::str(""))
        .with("result", result_json(r));
    sealed(doc)
}

/// `doc` with its `contentHash` member set to the hash of the rest.
fn sealed(doc: Json) -> Json {
    let hash = content_hash(&doc);
    match doc {
        Json::Obj(members) => Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| match k.as_str() {
                    "contentHash" => (k, Json::str(&hash)),
                    _ => (k, v),
                })
                .collect(),
        ),
        other => other,
    }
}

/// The integrity hash of an entry: FNV-1a over the document's rendering
/// with `contentHash` blanked. Re-derivable by any consumer, so a
/// poisoned entry (edited counters, stale hash) is detectable without
/// re-simulating.
pub fn content_hash(doc: &Json) -> String {
    let blanked = match doc {
        Json::Obj(members) => Json::Obj(
            members
                .iter()
                .map(|(k, v)| {
                    if k == "contentHash" {
                        (k.clone(), Json::str(""))
                    } else {
                        (k.clone(), v.clone())
                    }
                })
                .collect(),
        ),
        other => other.clone(),
    };
    format!("{:016x}", fnv1a64(blanked.render().as_bytes()))
}

/// Structural + integrity validation of a parsed cache entry. Returns a
/// human-readable reason on rejection (shared by the resume path and
/// `validate_json`).
pub fn verify_entry(doc: &Json) -> Result<(), String> {
    if doc.get("schema").and_then(Json::as_str) != Some(CELLCACHE_SCHEMA) {
        return Err("schema is not gvf.cellcache".to_string());
    }
    if doc.get("version").and_then(Json::as_num) != Some(CELLCACHE_SCHEMA_VERSION as f64) {
        return Err(format!(
            "unsupported version (want {CELLCACHE_SCHEMA_VERSION})"
        ));
    }
    for field in ["key", "build", "generator", "contentHash"] {
        if doc.get(field).and_then(Json::as_str).is_none() {
            return Err(format!("missing string field {field}"));
        }
    }
    if !matches!(doc.get("spec"), Some(Json::Obj(_))) {
        return Err("missing spec".to_string());
    }
    if doc.get("cell").and_then(Json::as_num).is_none() {
        return Err("missing cell index".to_string());
    }
    let recorded = doc.get("contentHash").and_then(Json::as_str).unwrap_or("");
    let actual = content_hash(doc);
    if recorded != actual {
        return Err(format!(
            "content hash mismatch (recorded {recorded}, actual {actual}) — entry is corrupt or poisoned"
        ));
    }
    let result = doc.get("result").ok_or("missing result")?;
    if parse_result(result).is_none() {
        return Err("result section does not decode".to_string());
    }
    Ok(())
}

/// A per-binary handle on the cache directory. A `None` directory
/// disables it: [`CellCache::run`] then simulates every cell.
pub struct CellCache {
    dir: Option<String>,
    quiet: bool,
    generator: String,
}

/// Distinguishes the temp files of one process's concurrent writers.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl CellCache {
    /// A cache rooted at `dir` (`None` = disabled); `generator` names
    /// the binary in diagnostics and entry provenance.
    pub fn new(dir: Option<String>, quiet: bool, generator: &str) -> Self {
        CellCache {
            dir,
            quiet,
            generator: generator.to_string(),
        }
    }

    /// A disabled cache: every cell simulates.
    pub fn disabled(generator: &str) -> Self {
        CellCache::new(None, true, generator)
    }

    fn path_for(&self, key: &str) -> Option<std::path::PathBuf> {
        self.dir
            .as_ref()
            .map(|d| std::path::Path::new(d).join(format!("{key}.json")))
    }

    fn try_read(&self, spec: &CellSpec, key: &str) -> Option<RunResult> {
        let path = self.path_for(key)?;
        let text = std::fs::read_to_string(&path).ok()?;
        let doc = Json::parse(&text).ok()?;
        if let Err(reason) = verify_entry(&doc) {
            if !self.quiet {
                eprintln!(
                    "[{}] ignoring cache entry {}: {reason}",
                    self.generator,
                    path.display()
                );
            }
            return None;
        }
        if doc.get("key").and_then(Json::as_str) != Some(key)
            || doc.get("build").and_then(Json::as_str) != Some(BUILD_HASH)
            || doc.get("spec") != Some(&spec.to_json())
        {
            return None;
        }
        parse_result(doc.get("result")?)
    }

    /// Persists one cell's entry; `true` when it was published.
    fn write(&self, index: usize, spec: &CellSpec, key: &str, r: &RunResult) -> bool {
        let Some(path) = self.path_for(key) else {
            return false;
        };
        let doc = entry_doc(BUILD_HASH, &self.generator, index, spec, key, r);
        // Atomic publish: a concurrent or killed writer never leaves a
        // torn entry under the final name. Each writer gets its own temp
        // file — two processes sharing a cache directory, or two cells
        // of one grid with equal specs, may write the same key at once.
        // I/O errors only cost the cache, never the run.
        let tmp = path.with_extension(format!(
            "json.{}.{}.tmp",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let ok = (|| -> std::io::Result<()> {
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent)?;
            }
            std::fs::write(&tmp, doc.render())?;
            std::fs::rename(&tmp, &path)
        })();
        match ok {
            Ok(()) => {
                CACHE_WRITES.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                if !self.quiet {
                    eprintln!(
                        "[{}] could not write cache entry {}: {e}",
                        self.generator,
                        path.display()
                    );
                }
                false
            }
        }
    }

    /// Produces the result of grid cell `index`, which simulates `spec`
    /// under `cfg`: from the cache when a valid entry exists, otherwise
    /// by simulating it (and persisting the result). Cells whose probe
    /// spec records timeline or metrics streams bypass the cache
    /// entirely (see the module docs).
    pub fn run(&self, index: usize, spec: &CellSpec, cfg: &WorkloadConfig) -> RunResult {
        let observed = cfg.probe.timeline_events_per_sm > 0 || cfg.probe.metrics_bucket_cycles > 0;
        if self.dir.is_none() || observed {
            return spec.run(cfg);
        }
        let key = cell_key(spec, cfg);
        if let Some(r) = self.try_read(spec, &key) {
            CACHE_HITS.fetch_add(1, Ordering::Relaxed);
            // The pool will report this cell finished; the events
            // stream turns that into a cellCacheHit terminal.
            crate::events::note_cache_hit(index, &key);
            return r;
        }
        CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
        let r = spec.run(cfg);
        self.write(index, spec, &key, &r);
        r
    }
}

/// This process's cache counters for the manifest's `hostPerf` section:
/// `cachedCells` came from the cache, `simulatedCells` ran, and
/// `entriesWritten` were persisted.
pub fn counters_json() -> Json {
    Json::obj()
        .with(
            "cachedCells",
            Json::num_u64(CACHE_HITS.load(Ordering::Relaxed)),
        )
        .with(
            "simulatedCells",
            Json::num_u64(CACHE_MISSES.load(Ordering::Relaxed)),
        )
        .with(
            "entriesWritten",
            Json::num_u64(CACHE_WRITES.load(Ordering::Relaxed)),
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvf_workloads::WorkloadConfig;

    fn sample_result() -> RunResult {
        let mut stats = gvf_sim::Stats::new();
        stats.cycles = 12345;
        stats.instrs_mem = 100;
        stats.l1_accesses = 64;
        stats.l1_hits = 32;
        stats.stall_by_tag[0] = 7;
        stats.load_transactions_by_tag[1] = 9;
        let mut walk = LogHist::new();
        walk.record(3);
        walk.record(900);
        let mut probe = AttribReport {
            sms: 2,
            set_accesses: vec![1, 2, 3],
            set_hits: vec![1, 0, 2],
            final_set_sectors: vec![4, 4, 0],
            ..AttribReport::default()
        };
        probe.per_pc.insert(
            (7, 1),
            PcLoadStats {
                instructions: 2,
                lanes: 64,
                transactions: 9,
                l1_hits: 5,
            },
        );
        RunResult {
            stats,
            checksum: u64::MAX - 17, // exercises the > 2^53 hex path
            alloc_stats: AllocStats {
                objects: 10,
                used_bytes: 640,
                reserved_bytes: 1024,
                regions: 2,
            },
            init_cycles: 999,
            table2: Table2Row {
                objects: 10,
                types: 3,
                vfunc_entries: 12,
                vfunc_pki: 1.625,
            },
            metrics: vec![("alive", 42.0), ("level_sum", 7.5)],
            obs: None,
            attrib: Some(AttribBundle {
                probe,
                alloc: Some(AllocAttribSnapshot {
                    merges: 1,
                    initial_chunk_objs: 64,
                    types: vec![TypeRegionStats {
                        ty: TypeKey(3),
                        obj_size: 64,
                        regions: 2,
                        capacity_objs: 128,
                        used_objs: 100,
                        largest_region_objs: 64,
                        next_region_objs: 128,
                    }],
                }),
                lookup: Some(LookupAttrib {
                    kind: LookupKind::SegmentTree,
                    num_ranges: 5,
                    tree_depth: 3,
                    dispatches: 11,
                    lanes: 300,
                    walk_depth: walk,
                    comparisons: walk,
                }),
                tags: Some(TagAttrib {
                    tag_mode: TagMode::Offset,
                    hardware_mask: true,
                    decode_dispatches: 11,
                    decode_lanes: 300,
                    fallback_dispatches: 1,
                    fallback_lanes: 2,
                    mask_ops: 0,
                }),
            }),
            audit: Some({
                let mut a = CycleAuditReport {
                    sms: 2,
                    audited_cycles: 12345,
                    active: 400,
                    stalled_known: 100,
                    stalled_other: 50,
                    drained: 20,
                    skipped: 24000,
                    tail: 120,
                    ..CycleAuditReport::default()
                };
                a.gap_hist.record(7);
                a.gap_hist.record_n(1000, 3);
                a.call_sites.insert(
                    9,
                    CallSiteStats {
                        calls: 12,
                        unknown_calls: 1,
                        targets: [2u64, 5, 6].into_iter().collect(),
                        overflowed: false,
                    },
                );
                a
            }),
        }
    }

    fn results_equal(a: &RunResult, b: &RunResult) {
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.alloc_stats, b.alloc_stats);
        assert_eq!(a.init_cycles, b.init_cycles);
        assert_eq!(a.table2.objects, b.table2.objects);
        assert_eq!(a.table2.types, b.table2.types);
        assert_eq!(a.table2.vfunc_entries, b.table2.vfunc_entries);
        assert_eq!(a.table2.vfunc_pki, b.table2.vfunc_pki);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.attrib, b.attrib);
        assert_eq!(a.audit, b.audit);
        assert!(b.obs.is_none());
    }

    const SPEC: CellSpec = CellSpec::Workload(WorkloadKind::GameOfLife, Strategy::Coal);

    #[test]
    fn entry_round_trips_losslessly() {
        let r = sample_result();
        let cfg = WorkloadConfig::tiny();
        let key = cell_key(&SPEC, &cfg);
        let doc = entry_doc(BUILD_HASH, "fig6", 3, &SPEC, &key, &r);
        let parsed = Json::parse(&doc.render()).expect("parse");
        verify_entry(&parsed).expect("verifies");
        assert_eq!(parsed.get("spec"), Some(&SPEC.to_json()));
        assert_eq!(parsed.get("build").and_then(Json::as_str), Some(BUILD_HASH));
        let decoded = parse_result(parsed.get("result").expect("result")).expect("decode");
        results_equal(&r, &decoded);
    }

    #[test]
    fn tampering_breaks_the_content_hash() {
        let r = sample_result();
        let cfg = WorkloadConfig::tiny();
        let key = cell_key(&SPEC, &cfg);
        let doc = entry_doc(BUILD_HASH, "fig6", 0, &SPEC, &key, &r);
        verify_entry(&doc).expect("fresh entry verifies");
        // Poison a counter without updating the hash.
        let poisoned = Json::parse(&doc.render().replace("12345", "1")).expect("parse");
        let err = verify_entry(&poisoned).expect_err("poisoned entry rejected");
        assert!(err.contains("content hash mismatch"), "{err}");
    }

    #[test]
    fn entries_of_other_versions_or_without_identity_are_rejected() {
        let cfg = WorkloadConfig::tiny();
        let key = cell_key(&SPEC, &cfg);
        let doc = entry_doc(BUILD_HASH, "fig6", 0, &SPEC, &key, &sample_result());
        let Json::Obj(members) = doc else {
            unreachable!()
        };
        // Each variant is resealed with a matching content hash, so only
        // the structural checks can reject it.
        let v2 = sealed(Json::Obj(
            members
                .iter()
                .filter(|(k, _)| k != "spec" && k != "build")
                .map(|(k, v)| match k.as_str() {
                    "version" => (k.clone(), Json::num_u64(2)),
                    _ => (k.clone(), v.clone()),
                })
                .collect(),
        ));
        let err = verify_entry(&v2).expect_err("v2 entry rejected");
        assert!(err.contains("unsupported version"), "{err}");
        for field in ["spec", "build"] {
            let missing = sealed(Json::Obj(
                members
                    .iter()
                    .filter(|(k, _)| k != field)
                    .cloned()
                    .collect(),
            ));
            let err = verify_entry(&missing).expect_err("entry without identity rejected");
            assert!(err.contains(field), "{field}: {err}");
        }
    }

    #[test]
    fn key_is_spec_config_and_build_only() {
        let cfg = WorkloadConfig::tiny();
        let base = cell_key(&SPEC, &cfg);
        assert_eq!(base, cell_key(&SPEC, &cfg), "stable");
        // Neither the generator nor the grid index is key material: any
        // binary asking for this cell at any position gets this key.
        let doc = entry_doc(BUILD_HASH, "fig7", 41, &SPEC, &base, &sample_result());
        assert_eq!(doc.get("key").and_then(Json::as_str), Some(base.as_str()));

        // Each part of the spec is keyed.
        for other in [
            CellSpec::Workload(WorkloadKind::Traffic, Strategy::Coal),
            CellSpec::Workload(WorkloadKind::GameOfLife, Strategy::SharedOa),
        ] {
            assert_ne!(base, cell_key(&other, &cfg), "{other:?} keyed");
        }
        let p = MicroParams {
            n_objects: 4096,
            n_types: 4,
        };
        let micro = cell_key(&CellSpec::Micro(Strategy::Coal, p), &cfg);
        assert_ne!(base, micro, "workload vs micro keyed");
        for q in [
            MicroParams {
                n_objects: 8192,
                ..p
            },
            MicroParams { n_types: 8, ..p },
        ] {
            assert_ne!(
                micro,
                cell_key(&CellSpec::Micro(Strategy::Coal, q), &cfg),
                "{q:?} keyed"
            );
        }
        assert_ne!(
            micro,
            cell_key(&CellSpec::Micro(Strategy::Branch, p), &cfg),
            "micro strategy keyed"
        );

        // The config is keyed.
        let mut other = cfg.clone();
        other.seed ^= 1;
        assert_ne!(base, cell_key(&SPEC, &other), "config keyed");
        // Host-side knobs are excluded, like the determinism view.
        let mut threads = cfg.clone();
        threads.engine_threads = 8;
        assert_eq!(base, cell_key(&SPEC, &threads), "engine_threads excluded");
        let mut no_ff = cfg.clone();
        no_ff.fast_forward = false;
        assert_eq!(base, cell_key(&SPEC, &no_ff), "fast_forward excluded");
        // `--jobs` is not part of a WorkloadConfig at all, so it cannot
        // reach the key; the fingerprint has no member for it either.
        let fp = config_fingerprint_json(&cfg).render();
        assert!(!fp.contains("jobs") && !fp.contains("threads"), "{fp}");
        // The audit changes what a RunResult carries, so it is keyed.
        let mut audited = cfg.clone();
        audited.probe.cycle_audit = true;
        assert_ne!(base, cell_key(&SPEC, &audited), "cycle_audit keyed");

        // Other code, other key.
        assert_eq!(base, key_under(BUILD_HASH, &SPEC, &cfg));
        assert_ne!(
            base,
            key_under("0000000000000000", &SPEC, &cfg),
            "build keyed"
        );
    }

    #[test]
    fn cache_round_trips_through_disk_and_rejects_other_builds() {
        let dir = std::env::temp_dir().join(format!("gvf-cellcache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = WorkloadConfig::tiny();
        let spec = CellSpec::Micro(
            Strategy::Cuda,
            MicroParams {
                n_objects: 256,
                n_types: 2,
            },
        );
        let cache = CellCache::new(Some(dir.to_string_lossy().into_owned()), true, "t");
        let key = cell_key(&spec, &cfg);
        assert!(cache.try_read(&spec, &key).is_none(), "cold cache");
        let r1 = cache.run(0, &spec, &cfg);
        let r2 = cache
            .try_read(&spec, &key)
            .expect("first run persisted its cell");
        results_equal(&r1, &r2);
        results_equal(&r2, &cache.run(5, &spec, &cfg));

        // An entry some other build wrote under this key is not trusted.
        let foreign = entry_doc("0000000000000000", "t", 0, &spec, &key, &sample_result());
        std::fs::write(cache.path_for(&key).expect("path"), foreign.render()).expect("write");
        assert!(
            cache.try_read(&spec, &key).is_none(),
            "foreign build ignored"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_of_one_key_all_publish_whole_entries() {
        let dir = std::env::temp_dir().join(format!("gvf-cellcache-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = WorkloadConfig::tiny();
        let cache = CellCache::new(Some(dir.to_string_lossy().into_owned()), true, "t");
        let key = cell_key(&SPEC, &cfg);
        let r = sample_result();
        // With a shared temp name, one writer's rename moves another's
        // file away (or publishes it half-written), so some writes fail.
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for w in 0..4 {
                let (cache, key, r, start) = (&cache, &key, &r, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..25 {
                        assert!(cache.write(w * 100 + i, &SPEC, key, r), "writer {w}");
                        let text = std::fs::read_to_string(cache.path_for(key).expect("path"))
                            .expect("entry readable");
                        verify_entry(&Json::parse(&text).expect("whole entry")).expect("valid");
                    }
                });
            }
        });
        let names: Vec<_> = std::fs::read_dir(&dir)
            .expect("cache dir")
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, [format!("{key}.json")], "no temp files left");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
