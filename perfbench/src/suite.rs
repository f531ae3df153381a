//! `repro-suite`: the six figures that share Fig. 6's cells (fig1b,
//! table2, fig6, fig7, fig8, fig9) run as their own binaries with the
//! artifact flags `run_all.sh` passes, sharing one `--cache-dir`; once
//! cold, then once more with `--resume`.

use crate::digest::{matches_record, Fnv};
use crate::host::{cpu_children_s, median, ratio};
use crate::metrics::{app_metric, Metrics};
use crate::paper::{paper_err, CellResult, Figure};
use crate::trace::Tracer;
use crate::{fold_rounds, measure, Round, JOBS};
use gvf_bench::json::Json;
use gvf_workloads::WorkloadKind;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// The workload's name on the command line.
pub const NAME: &str = "repro-suite";

/// The figure binaries, in `run_all.sh` order.
pub const BINS: [&str; 6] = ["fig1b", "table2", "fig6", "fig7", "fig8", "fig9"];

/// The figure each binary's `paper_err` values come from.
const FIGURES: [(&str, Figure); 5] = [
    ("fig1b", Figure::Fig1b),
    ("fig6", Figure::Fig6),
    ("fig7", Figure::Fig7),
    ("fig8", Figure::Fig8),
    ("fig9", Figure::Fig9),
];

/// Where the benchmark keeps this workload's outputs, under the
/// checkout.
pub const WORK_DIR: &str = ".perfbench/repro-suite";

/// Which optional outputs a pass asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Flags {
    /// `--resume` from the shared cache.
    pub resume: bool,
    /// `--attrib-out` and `--audit-out`.
    pub probes: bool,
    /// `--profile-out`.
    pub profile: bool,
}

/// The flags `run_all.sh` passes.
pub const FULL: Flags = Flags {
    resume: false,
    probes: true,
    profile: true,
};

/// One binary's run within a pass.
#[derive(Clone, Debug)]
pub struct BinRun {
    /// Binary name.
    pub bin: &'static str,
    /// Exit status was success.
    pub ok: bool,
    /// Wall seconds from spawn to exit.
    pub wall_s: f64,
    /// The parsed `--json-out` manifest.
    pub manifest: Option<Json>,
}

/// One pass over [`BINS`].
#[derive(Clone, Debug)]
pub struct Pass {
    /// Output directory.
    pub dir: PathBuf,
    /// Wall seconds of the pass.
    pub wall_s: f64,
    /// CPU seconds of the binaries.
    pub cpu_s: f64,
    /// Per-binary runs.
    pub bins: Vec<BinRun>,
}

/// The directory holding the figure binaries: the benchmark is built
/// into the same target directory.
fn bin_dir() -> PathBuf {
    std::env::current_exe()
        .expect("current executable")
        .parent()
        .expect("executable directory")
        .to_path_buf()
}

/// Fails early, before any measurement, when a binary is missing.
pub fn check_binaries() -> Result<(), String> {
    for b in BINS.iter().chain(&["validate_json"]) {
        let p = bin_dir().join(b);
        if !p.is_file() {
            return Err(format!("missing figure binary {}", p.display()));
        }
    }
    Ok(())
}

/// The artifact path `<dir>/<bin><suffix>` as a string argument.
fn art(dir: &Path, bin: &str, suffix: &str) -> String {
    dir.join(format!("{bin}{suffix}"))
        .to_string_lossy()
        .into_owned()
}

/// Runs every binary once into `dir`, sharing `cache`.
pub fn pass(seed: u64, dir: &Path, cache: &Path, flags: Flags, tracer: Option<&Tracer>) -> Pass {
    std::fs::create_dir_all(dir).expect("create pass directory");
    let cpu0 = cpu_children_s();
    let start = Instant::now();
    let mut bins = Vec::new();
    for (i, bin) in BINS.into_iter().enumerate() {
        let mut args: Vec<String> = [
            "--scale",
            "1",
            "--iters",
            "1",
            "--seed",
            &seed.to_string(),
            "--jobs",
            &JOBS.to_string(),
            "--quiet",
            "--cache-dir",
            &cache.to_string_lossy(),
            "--json-out",
            &art(dir, bin, ".json"),
            "--events-out",
            &art(dir, bin, ".events.jsonl"),
        ]
        .map(String::from)
        .to_vec();
        if flags.probes {
            args.extend(["--attrib-out".into(), art(dir, bin, ".attrib.json")]);
            args.extend(["--audit-out".into(), art(dir, bin, ".audit.json")]);
        }
        if flags.profile {
            args.extend(["--profile-out".into(), art(dir, bin, ".profile.json")]);
        }
        if bin == "fig6" {
            args.extend(["--trace-out".into(), art(dir, bin, ".trace.json")]);
            args.extend(["--metrics-out".into(), art(dir, bin, ".metrics.json")]);
        }
        if flags.resume {
            args.push("--resume".into());
        }
        let stdout = std::fs::File::create(art(dir, bin, ".txt")).expect("create stdout file");
        let stderr =
            std::fs::File::create(art(dir, bin, ".stderr.txt")).expect("create stderr file");
        let run = || {
            let t = Instant::now();
            let status = Command::new(bin_dir().join(bin))
                .args(&args)
                .stdin(Stdio::null())
                .stdout(stdout)
                .stderr(stderr)
                .status();
            (
                status.map(|s| s.success()).unwrap_or(false),
                t.elapsed().as_secs_f64(),
            )
        };
        let (ok, wall_s) = match tracer {
            Some(t) => t.span(i as u64, None, "suite.bin", |_| run()),
            None => run(),
        };
        let manifest = std::fs::read_to_string(art(dir, bin, ".json"))
            .ok()
            .and_then(|s| Json::parse(&s).ok());
        bins.push(BinRun {
            bin,
            ok,
            wall_s,
            manifest,
        });
    }
    Pass {
        dir: dir.to_path_buf(),
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: cpu_children_s() - cpu0,
        bins,
    }
}

/// The cells of a manifest (empty when it is missing).
fn manifest_cells(m: Option<&Json>) -> &[Json] {
    m.and_then(|m| m.get("cells"))
        .and_then(Json::as_arr)
        .unwrap_or(&[])
}

fn num(j: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(j, |j, k| j.get(k))
        .and_then(Json::as_num)
        .unwrap_or(0.0)
}

/// Warp instructions of one manifest cell.
fn cell_winstrs(c: &Json) -> f64 {
    ["instrs_mem", "instrs_compute", "instrs_ctrl"]
        .iter()
        .map(|k| num(c, &["stats", k]))
        .sum()
}

/// A manifest cell as the figures see it.
pub fn cell_result(c: &Json) -> CellResult {
    let s = |k: &str| c.get(k).and_then(Json::as_str).unwrap_or("").to_string();
    CellResult {
        workload: s("workload"),
        strategy: s("strategy"),
        n_objects: 0,
        n_types: 0,
        cycles: num(c, &["stats", "cycles"]),
        winstrs: cell_winstrs(c),
        gld: num(c, &["stats", "global_load_transactions"]),
        l1_hit_rate: num(c, &["derived", "l1_hit_rate"]),
        vtable_share: num(c, &["derived", "dispatch_latency_breakdown", "vtable_load"]),
    }
}

/// Distinct (workload, strategy, config) cells ÷ cells simulated,
/// over a pass's manifests.
pub fn unique_share(manifests: &[&Json]) -> f64 {
    let mut distinct = BTreeSet::new();
    let mut total = 0u64;
    for m in manifests {
        let fp = m
            .get("config")
            .and_then(|c| c.get("configFingerprint"))
            .and_then(Json::as_str)
            .unwrap_or("");
        for c in manifest_cells(Some(m)) {
            let s = |k: &str| c.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            distinct.insert((s("workload"), s("strategy"), fp.to_string()));
            total += 1;
        }
    }
    ratio(distinct.len() as f64, total as f64)
}

/// Runs `validate_json` with `args`; true when it accepts them.
fn validate(args: &[String]) -> bool {
    Command::new(bin_dir().join("validate_json"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map(|s| s.success())
        .unwrap_or(false)
}

/// Files in `dir` whose names end with `suffix`, sorted.
fn files(dir: &Path, suffix: &str) -> Vec<String> {
    let mut v: Vec<String> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .map(|e| e.path())
                .filter(|p| p.to_string_lossy().ends_with(suffix))
                .map(|p| p.to_string_lossy().into_owned())
                .collect()
        })
        .unwrap_or_default();
    v.sort();
    v
}

/// The binaries of `pass` whose outputs fail the checks `run_all.sh`
/// makes: a non-zero exit, an artifact `validate_json` rejects, or an
/// events stream that does not reconcile with its manifest. With
/// `cold`, the manifest must also equal the cold pass's outside
/// `hostPerf` (a resumed run is byte-identical).
fn bad_bins(pass: &Pass, cold: Option<&Pass>) -> BTreeSet<&'static str> {
    let mut bad = BTreeSet::new();
    for b in &pass.bins {
        let mut artifacts = files(&pass.dir, ".json")
            .into_iter()
            .filter(|f| {
                Path::new(f)
                    .file_name()
                    .is_some_and(|n| n.to_string_lossy().starts_with(&format!("{}.", b.bin)))
            })
            .collect::<Vec<_>>();
        artifacts.push(art(&pass.dir, b.bin, ".events.jsonl"));
        let reconcile = [
            "--events-reconcile".to_string(),
            art(&pass.dir, b.bin, ".events.jsonl"),
            art(&pass.dir, b.bin, ".json"),
        ];
        let same_as_cold = cold.is_none_or(|c| {
            validate(&[
                "--det-diff".to_string(),
                art(&c.dir, b.bin, ".json"),
                art(&pass.dir, b.bin, ".json"),
            ])
        });
        if !b.ok
            || b.manifest.is_none()
            || !validate(&artifacts)
            || !validate(&reconcile)
            || !same_as_cold
        {
            bad.insert(b.bin);
        }
    }
    bad
}

/// Cells per binary, from the manifest or, when that is missing, from
/// the grid sizes.
fn bin_cells(b: &BinRun) -> u64 {
    match manifest_cells(b.manifest.as_ref()).len() {
        0 if matches!(b.bin, "fig1b" | "table2") => WorkloadKind::EVALUATED.len() as u64,
        0 => (WorkloadKind::EVALUATED.len() * gvf_core::Strategy::EVALUATED.len()) as u64,
        n => n as u64,
    }
}

/// A measured round: a cold pass and a resumed pass under `root`.
pub struct SuiteRound {
    /// The round record.
    pub round: Round,
    /// The cold pass.
    pub cold: Pass,
    /// The resumed pass.
    pub resume: Pass,
    /// Largest peak RSS any binary reported, in MB.
    pub peak_rss_mb: f64,
}

/// Runs and checks one round under `root`.
pub fn round(seed: u64, root: &Path, tracer: Option<&Tracer>) -> SuiteRound {
    let _ = std::fs::remove_dir_all(root);
    let cache = root.join("cache");
    let cold = pass(seed, &root.join("cold"), &cache, FULL, tracer);
    let resume = pass(
        seed,
        &root.join("resume"),
        &cache,
        Flags {
            resume: true,
            ..FULL
        },
        tracer,
    );

    // Checks run after the measured passes, so their processes count
    // towards neither time.
    let mut bad = bad_bins(&cold, None);
    bad.extend(bad_bins(&resume, Some(&cold)));
    if !validate(&files(&cache, ".json")) {
        bad.extend(BINS);
    }
    let both = || cold.bins.iter().chain(&resume.bins);
    let attempted: u64 = both().map(bin_cells).sum();
    let mut failed: u64 = both()
        .map(|b| {
            if bad.contains(b.bin) {
                bin_cells(b)
            } else {
                manifest_cells(b.manifest.as_ref())
                    .iter()
                    .filter(|c| c.get("status").and_then(Json::as_str) == Some("failed"))
                    .count() as u64
            }
        })
        .sum();
    let mut h = Fnv::default();
    for b in &cold.bins {
        h.push(b.bin.as_bytes());
        for c in manifest_cells(b.manifest.as_ref()) {
            for key in ["workload", "strategy", "stats"] {
                h.push(
                    c.get(key)
                        .map(Json::render_compact)
                        .unwrap_or_default()
                        .as_bytes(),
                );
            }
        }
    }
    let digest = h.value();
    if !matches_record(NAME, seed, digest) {
        failed = attempted;
    }
    let tables: Vec<(Figure, Vec<CellResult>)> = FIGURES
        .iter()
        .map(|&(bin, fig)| {
            let m = cold
                .bins
                .iter()
                .find(|b| b.bin == bin)
                .and_then(|b| b.manifest.as_ref());
            (fig, manifest_cells(m).iter().map(cell_result).collect())
        })
        .collect();
    let tables: Vec<(Figure, &[CellResult])> =
        tables.iter().map(|(f, c)| (*f, c.as_slice())).collect();
    let manifests = || both().filter_map(|b| b.manifest.as_ref());
    let round = Round {
        wall_s: cold.wall_s + resume.wall_s,
        cpu_s: cold.cpu_s + resume.cpu_s,
        // The sum over the binary runs, taken as their count times
        // their median: each setup is a fraction of a millisecond, and
        // one run stalled by the host would otherwise dominate the sum.
        setup_s: {
            let setups: Vec<f64> = manifests()
                .map(|m| num(m, &["hostPerf", "phases", "setup_s"]))
                .collect();
            if setups.is_empty() {
                0.0
            } else {
                setups.len() as f64 * median(&setups)
            }
        },
        winstrs: manifests()
            .flat_map(|m| manifest_cells(Some(m)))
            .map(cell_winstrs)
            .sum::<f64>() as u64,
        attempted,
        failed,
        digest,
        paper_err: paper_err(&tables),
    };
    let peak_rss_mb = manifests()
        .map(|m| num(m, &["hostPerf", "peak_rss_bytes"]) / (1u64 << 20) as f64)
        .fold(0.0, f64::max);
    SuiteRound {
        round,
        cold,
        resume,
        peak_rss_mb,
    }
}

/// The untraced run: rounds for `seconds`, end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> (u64, u64, Metrics) {
    let mut peak = 0.0f64;
    let rounds = measure(seconds, || {
        let r = round(seed, Path::new(WORK_DIR), None);
        peak = peak.max(r.peak_rss_mb);
        r.round
    });
    let (attempted, failed) = fold_rounds(&rounds);
    (attempted, failed, Metrics::end_to_end(&rounds, peak))
}

/// Total bytes of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

/// The events of a JSONL stream.
fn events(path: &str) -> Vec<Json> {
    std::fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| Json::parse(l).ok())
        .collect()
}

/// The traced run: one measured round timed per child process, then a
/// cold pass without `--attrib-out --audit-out` and one without
/// `--profile-out`, whose CPU time against the full cold pass gives
/// the probes' and the profiler's shares; per-layer metrics.
pub fn run_traced(seed: u64, tracer: &Tracer) -> (u64, u64, Metrics) {
    let root = Path::new(WORK_DIR);
    let r = round(seed, root, Some(tracer));
    let no_probes = pass(
        seed,
        &root.join("no-probes"),
        &root.join("cache-no-probes"),
        Flags {
            probes: false,
            ..FULL
        },
        None,
    );
    let no_profile = pass(
        seed,
        &root.join("no-profile"),
        &root.join("cache-no-profile"),
        Flags {
            profile: false,
            ..FULL
        },
        None,
    );
    let mut failed = r.round.failed;
    for p in [&no_probes, &no_profile] {
        failed += p.bins.iter().filter(|b| !b.ok).map(bin_cells).sum::<u64>();
    }
    let cold = &r.cold;
    let cold_manifests: Vec<&Json> = cold
        .bins
        .iter()
        .filter_map(|b| b.manifest.as_ref())
        .collect();
    let cells: Vec<&Json> = cold_manifests
        .iter()
        .flat_map(|m| manifest_cells(Some(m)))
        .collect();
    let sum_cells = |path: &[&str]| cells.iter().map(|c| num(c, path)).sum::<f64>();

    let mut m = Metrics::per_layer();
    let mut pool = [0.0f64; 3];
    for mf in &cold_manifests {
        let sweeps = mf
            .get("hostPerf")
            .and_then(|h| h.get("sweeps"))
            .and_then(Json::as_arr)
            .unwrap_or(&[]);
        for w in sweeps
            .iter()
            .flat_map(|s| s.get("workers").and_then(Json::as_arr).unwrap_or(&[]))
        {
            pool[0] += num(w, &["busy_s"]);
            pool[1] += num(w, &["queue_wait_s"]);
            pool[2] += num(w, &["idle_s"]);
        }
    }
    m.set("pool.busy_s", pool[0]);
    m.set("pool.queue_wait_s", pool[1]);
    m.set("pool.idle_s", pool[2]);

    // The program's own span profile (--profile-out) splits cell time
    // into the functional pass and the timing engine.
    let span_ns = |suffix: &str| {
        BINS.iter()
            .filter_map(|b| std::fs::read_to_string(art(&cold.dir, b, ".profile.json")).ok())
            .filter_map(|s| Json::parse(&s).ok())
            .flat_map(|p| {
                p.get("spans")
                    .and_then(Json::as_arr)
                    .map(<[Json]>::to_vec)
                    .unwrap_or_default()
            })
            .filter(|s| {
                s.get("path")
                    .and_then(Json::as_str)
                    .is_some_and(|p| p.ends_with(suffix))
            })
            .map(|s| num(&s, &["totalNs"]))
            .sum::<f64>()
    };
    let exec = span_ns("kernel.functional");
    let engine = span_ns("kernel.timing");
    let cell_ns = span_ns("pool.cell");
    let winstrs = cells.iter().map(|c| cell_winstrs(c)).sum::<f64>();
    m.set("exec.ns_per_winstr", ratio(exec, winstrs));
    m.set("exec.share", ratio(exec, cell_ns));
    m.set(
        "engine.ns_per_cycle",
        ratio(engine, sum_cells(&["stats", "cycles"])),
    );
    m.set("engine.ns_per_winstr", ratio(engine, winstrs));
    m.set("engine.share", ratio(engine, cell_ns));
    m.set(
        "engine.probe_share",
        ratio(cold.cpu_s - no_probes.cpu_s, cold.cpu_s),
    );
    m.set("engine.sim_cycles", sum_cells(&["stats", "cycles"]));
    m.set("engine.winstrs", winstrs);
    m.set(
        "engine.gld_transactions",
        sum_cells(&["stats", "global_load_transactions"]),
    );
    m.set(
        "engine.l1_hit_rate",
        ratio(
            sum_cells(&["stats", "l1_hits"]),
            sum_cells(&["stats", "l1_accesses"]),
        ),
    );
    m.set(
        "engine.l2_hit_rate",
        ratio(
            sum_cells(&["stats", "l2_hits"]),
            sum_cells(&["stats", "l2_accesses"]),
        ),
    );
    m.set(
        "engine.dram_accesses",
        sum_cells(&["stats", "dram_accesses"]),
    );

    // Per-application host cost from fig6's own per-cell durations.
    let fig6 = cold
        .bins
        .iter()
        .find(|b| b.bin == "fig6")
        .and_then(|b| b.manifest.as_ref());
    let fig6_cells = manifest_cells(fig6);
    for kind in WorkloadKind::EVALUATED {
        let (mut ms, mut wi) = (0.0, 0.0);
        for e in events(&art(&cold.dir, "fig6", ".events.jsonl")) {
            if e.get("ev").and_then(Json::as_str) != Some("cellFinished") {
                continue;
            }
            let Some(c) = fig6_cells.get(num(&e, &["cell"]) as usize) else {
                continue;
            };
            if c.get("workload").and_then(Json::as_str) == Some(kind.label()) {
                ms += num(&e, &["durationMs"]);
                wi += cell_winstrs(c);
            }
        }
        m.set(&app_metric(kind), ratio(ms * 1e6, wi));
    }

    let resume_manifests: Vec<&Json> = r
        .resume
        .bins
        .iter()
        .filter_map(|b| b.manifest.as_ref())
        .collect();
    let resume_cells: f64 = resume_manifests
        .iter()
        .map(|m| manifest_cells(Some(m)).len() as f64)
        .sum();
    let cached: f64 = resume_manifests
        .iter()
        .map(|m| num(m, &["hostPerf", "cellCache", "cachedCells"]))
        .sum();
    m.set("bench.unique_share", unique_share(&cold_manifests));
    m.set("bench.cache_hit_share", ratio(cached, resume_cells));
    m.set(
        "bench.resume_ms_per_cell",
        ratio(r.resume.wall_s * 1e3, resume_cells),
    );
    let nbins = cold.bins.len() as f64;
    m.set(
        "bench.setup_ms_per_bin",
        ratio(
            cold_manifests
                .iter()
                .map(|mf| num(mf, &["hostPerf", "phases", "setup_s"]))
                .sum::<f64>()
                * 1e3,
            nbins,
        ),
    );
    let tail_ms: f64 = cold
        .bins
        .iter()
        .map(|b| {
            let end = events(&art(&cold.dir, b.bin, ".events.jsonl"))
                .iter()
                .filter(|e| e.get("ev").and_then(Json::as_str) == Some("sweepEnd"))
                .map(|e| num(e, &["tMs"]))
                .fold(0.0, f64::max);
            (b.wall_s * 1e3 - end).max(0.0)
        })
        .sum();
    m.set("bench.tail_ms_per_bin", ratio(tail_ms, nbins));
    m.set(
        "bench.artifact_mb",
        (dir_bytes(&cold.dir) + dir_bytes(&root.join("cache"))) as f64 / (1u64 << 20) as f64,
    );
    m.set(
        "bench.profiler_share",
        ratio(cold.cpu_s - no_profile.cpu_s, cold.cpu_s),
    );
    // Spans are taken around whole child processes, outside them: the
    // traced round is the untraced one.
    m.set("trace.overhead_share", 0.0);
    let attempted = r.round.attempted
        + [&no_probes, &no_profile]
            .iter()
            .flat_map(|p| &p.bins)
            .map(bin_cells)
            .sum::<u64>();
    (attempted, failed, m)
}
