//! `fig12-dispatch`: Fig. 12's 48 microbenchmark cells (BRANCH, CUDA,
//! COAL, TypePointer × 1–32× objects at 4 types and 1–32 types per warp
//! at 16× objects) as in-process `micro::run` calls on a two-worker
//! `SimPool`.
//!
//! The traced run rebuilds every cell from the public calls
//! `micro::run` is made of (`Rig::new`, `Rig::construct`,
//! `Rig::finalize`, `Rig::run_kernel`) and replays each kernel trace
//! through `Gpu::execute`, so the functional pass and the timing engine
//! can be timed apart from outside: exec = run_kernel − replay, engine =
//! replay. A composed cell must equal `micro::run` exactly.

use crate::digest::{matches_record, stats_digest};
use crate::host::{peak_rss_mb, ratio};
use crate::metrics::Metrics;
use crate::paper::{paper_err, CellResult, Figure};
use crate::trace::Tracer;
use crate::{fold_rounds, measure, run_pool, Round, JOBS};
use gvf_core::{CallSite, FuncId, Strategy, TypeRegistry};
use gvf_mem::VirtAddr;
use gvf_sim::{lanes_from_fn, AccessTag, CellFailure, Gpu, Stats};
use gvf_workloads::util::{collect_with_metrics, lanes_ptrs};
use gvf_workloads::{micro, Checksum, MicroParams, Rig, RunResult, WorkloadConfig};

/// The workload's name on the command line.
pub const NAME: &str = "fig12-dispatch";

/// Objects at the sweep's 1× point. The evaluation GPU's ~614 KB L2
/// holds the 1× working set (4096 objects) but not the 32× one (131072
/// objects), so the object sweep crosses the modelled cache.
pub const UNIT: usize = 4096;

/// The four dispatch strategies of Fig. 12.
pub const STRATEGIES: [Strategy; 4] = [
    Strategy::Branch,
    Strategy::Cuda,
    Strategy::Coal,
    Strategy::TypePointerProto,
];

const STEPS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// The cell configuration: the evaluation GPU with one iteration. The
/// microbenchmark's inputs are indexed by thread, so the seed does not
/// change them.
pub fn config(seed: u64) -> WorkloadConfig {
    let mut cfg = WorkloadConfig::eval();
    cfg.scale = 1;
    cfg.iterations = 1;
    cfg.seed = seed;
    cfg
}

/// The 48 cells: the object sweep, then the types-per-warp sweep.
pub fn cells(unit: usize) -> Vec<(MicroParams, Strategy)> {
    let objects = STEPS.map(|x| MicroParams {
        n_objects: unit * x,
        n_types: 4,
    });
    let types = STEPS.map(|t| MicroParams {
        n_objects: unit * 16,
        n_types: t,
    });
    objects
        .into_iter()
        .chain(types)
        .flat_map(|p| STRATEGIES.map(|s| (p, s)))
        .collect()
}

/// `(failed cells, stats digest, paper_err, warp instructions)` of one
/// sweep. A cell fails when it panicked or its checksum differs from
/// BRANCH's at the same point: every strategy computes the same output.
pub fn check(
    cells: &[(MicroParams, Strategy)],
    results: &[Result<RunResult, CellFailure>],
) -> (u64, u64, f64, u64) {
    let branch = |p: MicroParams| {
        cells
            .iter()
            .position(|&c| c == (p, Strategy::Branch))
            .and_then(|i| results[i].as_ref().ok())
            .map(|r| r.checksum)
    };
    let failed = cells
        .iter()
        .zip(results)
        .filter(|(&(p, _), r)| match r {
            Err(_) => true,
            Ok(r) => branch(p) != Some(r.checksum),
        })
        .count() as u64;
    let digest = stats_digest(results.iter().map(|r| r.as_ref().ok().map(|r| &r.stats)));
    let table: Vec<CellResult> = cells
        .iter()
        .zip(results)
        .filter_map(|(&(p, s), r)| {
            r.as_ref().ok().map(|r| CellResult {
                n_objects: p.n_objects as u64,
                n_types: p.n_types as u64,
                ..CellResult::of("micro", s.label(), &r.stats)
            })
        })
        .collect();
    let winstrs = results
        .iter()
        .flatten()
        .map(|r| r.stats.total_instrs())
        .sum();
    (
        failed,
        digest,
        paper_err(&[(Figure::Fig12a, &table)]),
        winstrs,
    )
}

fn round(
    seed: u64,
    cells: &[(MicroParams, Strategy)],
) -> (Round, Vec<Result<RunResult, CellFailure>>) {
    let cfg = config(seed);
    let (results, watch, wall_s, cpu_s) =
        run_pool(cells, JOBS, |_, &(p, s)| micro::run(s, p, &cfg));
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
    (r, results)
}

/// The untraced run: rounds for `seconds`, end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> (u64, u64, Metrics) {
    let cells = cells(UNIT);
    let rounds = measure(seconds, || round(seed, &cells).0);
    let (attempted, failed) = fold_rounds(&rounds);
    (
        attempted,
        failed,
        Metrics::end_to_end(&rounds, peak_rss_mb()),
    )
}

/// What a composed cell measured besides its [`RunResult`].
#[derive(Clone, Debug, Default)]
pub struct Composed {
    /// Objects constructed.
    pub objects: u64,
    /// `Mmu::translations` at the end of the cell.
    pub translations: u64,
    /// `SegmentTree::walks` (COAL only).
    pub walks: u64,
    /// Host `SegmentTree::lookup` calls made (COAL only).
    pub lookups: u64,
    /// The allocator's external fragmentation.
    pub ext_frag: f64,
    /// Whether replaying every kernel trace through a fresh `Gpu`
    /// reproduced the rig's own statistics.
    pub replay_matches: bool,
}

// The microbenchmark's object layout: one u32 input field at offset 0.
const F_VAL: u64 = 0;

/// `micro::run(strategy, params, cfg)` rebuilt from public calls, each
/// timed as a span of `cell` on `tracer`.
pub fn compose(
    strategy: Strategy,
    params: MicroParams,
    cfg: &WorkloadConfig,
    tracer: &Tracer,
    cell: u64,
) -> (RunResult, Composed) {
    tracer.span(cell, None, "cell", |root| {
        let sp = Some(root);
        let mut reg = TypeRegistry::new();
        let tys: Vec<_> = (0..params.n_types)
            .map(|t| reg.add_type(&format!("MicroType{t}"), 8, &[FuncId(t as u32)]))
            .collect();
        let mut rig = tracer.span(cell, sp, "rig.new", |_| Rig::new(&reg, strategy, cfg));
        let n = params.n_objects;
        let mut objs: Vec<VirtAddr> = Vec::new();
        let input_array = if strategy == Strategy::Branch {
            let a = rig.reserve(n as u64 * 4, 256);
            for i in 0..n {
                rig.mem
                    .write_u32(a.offset(i as u64 * 4), i as u32)
                    .expect("input write");
            }
            Some(a)
        } else {
            objs = tracer.span(cell, sp, "rig.construct", |_| {
                (0..n)
                    .map(|i| rig.construct(tys[i % params.n_types]))
                    .collect()
            });
            let hdr = rig.prog.header_bytes();
            for (i, o) in objs.iter().enumerate() {
                rig.mem
                    .write_u32(o.strip_tag().offset(hdr + F_VAL), i as u32)
                    .expect("field write");
            }
            None
        };
        tracer.span(cell, sp, "rig.finalize", |_| rig.finalize());
        let out = rig.reserve(n as u64 * 4, 256);

        let gpu = Gpu::new(cfg.gpu.clone())
            .with_threads(cfg.engine_threads)
            .with_fast_forward(cfg.fast_forward);
        let mut replayed = Stats::new();
        for iter in 0..cfg.iterations {
            let trace = tracer.span(cell, sp, "rig.run_kernel", |_| {
                rig.run_kernel(n, |prog, w| {
                    let body = |w: &mut gvf_sim::WarpCtx<'_>,
                                inputs: &gvf_sim::Lanes<u64>,
                                fid: FuncId| {
                        w.alu(1);
                        let addrs = lanes_from_fn(|l| {
                            (w.is_active(l) && w.thread_id(l) < n)
                                .then(|| out.offset(w.thread_id(l) as u64 * 4))
                        });
                        let vals = lanes_from_fn(|l| {
                            inputs[l].map(|v| (v + fid.0 as u64 + iter as u64) & 0xffff_ffff)
                        });
                        w.st(AccessTag::Other, 4, &addrs, &vals);
                    };
                    if let Some(input) = input_array {
                        let types = lanes_from_fn(|l| Some(tys[w.thread_id(l) % params.n_types]));
                        prog.branch_call(w, 0, &types, |w, fid| {
                            let in_addrs = lanes_from_fn(|l| {
                                (w.is_active(l) && w.thread_id(l) < n)
                                    .then(|| input.offset(w.thread_id(l) as u64 * 4))
                            });
                            let inputs = w.ld(AccessTag::Other, 4, &in_addrs);
                            body(w, &inputs, fid);
                        });
                    } else {
                        let ptrs = lanes_ptrs(w, &objs);
                        prog.vcall(w, &CallSite::new(0), &ptrs, |w, fid| {
                            let inputs = prog.ld_field(w, &ptrs, F_VAL, 4);
                            body(w, &inputs, fid);
                        });
                    }
                })
            });
            replayed += &tracer.span(cell, sp, "engine.replay", |_| gpu.execute(&trace));
        }

        let mut ck = Checksum::new();
        let mut out_sum = 0u64;
        for i in 0..n {
            let v = rig
                .mem
                .read_u32(out.offset(i as u64 * 4))
                .expect("output read");
            ck.push(v as u64);
            out_sum += v as u64;
        }
        let (walks, lookups) = match rig.prog.segment_tree() {
            Some(tree) => {
                let walks = tree.walks();
                let found = tracer.span(cell, sp, "core.lookup", |_| {
                    objs.iter()
                        .filter(|o| std::hint::black_box(tree.lookup(**o)).is_some())
                        .count()
                });
                assert_eq!(found, objs.len(), "segment tree misses an object");
                (walks, objs.len() as u64)
            }
            None => (0, 0),
        };
        let composed = Composed {
            objects: objs.len() as u64,
            translations: rig.mem.mmu().translations(),
            walks,
            lookups,
            ext_frag: rig.alloc.stats().external_fragmentation(),
            replay_matches: &replayed == rig.stats(),
        };
        let result = collect_with_metrics(rig, &reg, ck, vec![("out_sum", out_sum as f64)]);
        (result, composed)
    })
}

/// The traced run: an untraced round of `micro::run`, then every cell
/// composed from public calls with spans around each; per-layer
/// metrics. A composed cell fails unless its statistics and checksum
/// equal the untraced cell's and its kernel replays reproduce them.
pub fn run_traced(seed: u64, tracer: &Tracer) -> (u64, u64, Metrics) {
    let cells = cells(UNIT);
    let cfg = config(seed);
    let (plain, plain_results) = round(seed, &cells);
    let (composed, watch, wall_s, cpu_s) = run_pool(&cells, JOBS, |i, &(p, s)| {
        compose(s, p, &cfg, tracer, i as u64)
    });
    let results: Vec<Result<RunResult, CellFailure>> = composed
        .iter()
        .map(|r| r.as_ref().map(|(r, _)| r.clone()).map_err(Clone::clone))
        .collect();
    let (mut failed, digest, paper_err, winstrs) = check(&cells, &results);
    failed += composed
        .iter()
        .zip(&plain_results)
        .filter(|(c, p)| match (c, p) {
            (Ok((c, x)), Ok(p)) => {
                c.stats != p.stats || c.checksum != p.checksum || !x.replay_matches
            }
            _ => false,
        })
        .count() as u64;
    let traced = Round {
        wall_s,
        cpu_s,
        setup_s: watch.setup_s(),
        winstrs,
        attempted: cells.len() as u64,
        failed,
        digest,
        paper_err,
    };
    let rounds = [plain, traced];
    let (attempted, failed) = fold_rounds(&rounds);

    let ok: Vec<(usize, &RunResult, &Composed)> = composed
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.as_ref().ok().map(|(r, c)| (i, r, c)))
        .collect();
    let stats = Stats::merged(ok.iter().map(|(_, r, _)| &r.stats));
    let ns = |name: &str| tracer.total_ns(name, |_| true) as f64;
    let replay = ns("engine.replay");
    let lookup = ns("core.lookup");
    // Cell time as micro::run spends it: the replay and the host
    // lookups exist only in the traced composition.
    let cell_ns = ns("cell") - replay - lookup;
    let exec = ns("rig.run_kernel") - replay;
    let winstrs = stats.total_instrs() as f64;
    let mut m = Metrics::per_layer();
    m.set_pool(&watch, wall_s);
    m.set("exec.ns_per_winstr", ratio(exec, winstrs));
    m.set("exec.share", ratio(exec, cell_ns));
    m.set("engine.ns_per_cycle", ratio(replay, stats.cycles as f64));
    m.set("engine.ns_per_winstr", ratio(replay, winstrs));
    m.set("engine.share", ratio(replay, cell_ns));
    m.set_counts(&stats);

    let is_coal = |i: u64| cells.get(i as usize).map(|c| c.1) == Some(Strategy::Coal);
    let coal: Vec<&(usize, &RunResult, &Composed)> =
        ok.iter().filter(|(i, _, _)| is_coal(*i as u64)).collect();
    let finalize_ns = tracer.total_ns("rig.finalize", is_coal) as f64;
    m.set(
        "core.finalize_ms",
        ratio(finalize_ns * 1e-6, coal.len() as f64),
    );
    m.set(
        "core.walks_per_vcall",
        ratio(
            coal.iter().map(|(_, _, c)| c.walks).sum::<u64>() as f64,
            coal.iter()
                .map(|(_, r, _)| r.stats.vfunc_calls)
                .sum::<u64>() as f64,
        ),
    );
    m.set(
        "core.lookup_ns",
        ratio(
            lookup,
            coal.iter().map(|(_, _, c)| c.lookups).sum::<u64>() as f64,
        ),
    );
    let objects: u64 = ok.iter().map(|(_, _, c)| c.objects).sum();
    let construct = ns("rig.construct");
    m.set("alloc.ns_per_object", ratio(construct, objects as f64));
    m.set("alloc.share", ratio(construct, cell_ns));
    let with_objects: Vec<f64> = ok
        .iter()
        .filter(|(_, _, c)| c.objects > 0)
        .map(|(_, _, c)| c.ext_frag)
        .collect();
    m.set(
        "alloc.ext_frag",
        ratio(with_objects.iter().sum(), with_objects.len() as f64),
    );
    m.set(
        "mem.translations_per_winstr",
        ratio(
            ok.iter().map(|(_, _, c)| c.translations).sum::<u64>() as f64,
            winstrs,
        ),
    );
    // Composition adds the replay and the lookups; the rest is what
    // tracing itself costs.
    m.set(
        "trace.overhead_share",
        (wall_s - (replay + lookup) * 1e-9 / JOBS as f64) / rounds[0].wall_s - 1.0,
    );
    (attempted, failed, m)
}
