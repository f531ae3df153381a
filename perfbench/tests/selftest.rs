//! The benchmark's self-tests: the traced composition equals the
//! program, digests do not depend on the worker count, printed names
//! are well formed, and the derived ratios come out right on inputs
//! made by hand.

use gvf_bench::json::Json;
use gvf_core::Strategy;
use gvf_perfbench::metrics::{self, Metrics, END_TO_END};
use gvf_perfbench::paper::{paper_err, simulated, CellResult, Figure, PAPER};
use gvf_perfbench::trace::Tracer;
use gvf_perfbench::{dispatch, grid, run_pool, Round};
use gvf_workloads::{micro, MicroParams, WorkloadConfig};

#[test]
fn composed_dispatch_equals_micro_run() {
    let cfg = WorkloadConfig::tiny();
    let tracer = Tracer::default();
    for n_types in [1, 32] {
        let p = MicroParams {
            n_objects: 2048,
            n_types,
        };
        for s in dispatch::STRATEGIES {
            let want = micro::run(s, p, &cfg);
            let (got, c) = dispatch::compose(s, p, &cfg, &tracer, 0);
            assert_eq!(got.stats, want.stats, "{s} at {n_types} types");
            assert_eq!(got.checksum, want.checksum, "{s} at {n_types} types");
            assert!(c.replay_matches, "{s} at {n_types} types: replay differs");
            assert_eq!(c.objects > 0, s != Strategy::Branch);
            assert_eq!(c.lookups > 0, s == Strategy::Coal);
        }
    }
    let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
    for n in [
        "cell",
        "rig.new",
        "rig.construct",
        "rig.finalize",
        "rig.run_kernel",
        "engine.replay",
        "core.lookup",
    ] {
        assert!(names.contains(&n), "no {n} span");
    }
    for s in tracer.spans() {
        assert!(s.start_ns <= s.end_ns);
        assert_eq!(s.parent.is_none(), s.name == "cell");
    }
}

#[test]
fn digest_is_the_same_with_one_and_two_workers() {
    let cfg = WorkloadConfig::tiny();
    let cells = dispatch::cells(256);
    let digest = |jobs| {
        let (results, _, _, _) = run_pool(&cells, jobs, |_, &(p, s)| micro::run(s, p, &cfg));
        dispatch::check(&cells, &results)
    };
    let (failed1, d1, err1, w1) = digest(1);
    let (failed2, d2, err2, w2) = digest(2);
    assert_eq!((failed1, failed2), (0, 0));
    assert_eq!(d1, d2);
    assert_eq!(err1, err2);
    assert_eq!(w1, w2);
}

#[test]
fn grid_checks_catch_a_checksum_mismatch() {
    let mut cfg = WorkloadConfig::tiny();
    cfg.iterations = 1;
    let cells: Vec<_> = grid::cells().into_iter().take(5).collect();
    let run = || {
        run_pool(&cells, 2, |_, &(k, s)| {
            gvf_workloads::run_workload(k, s, &cfg)
        })
        .0
    };
    let mut results = run();
    assert_eq!(grid::check(&cells, &results).0, 0);
    let d = grid::check(&cells, &results).1;
    assert_eq!(
        grid::check(&cells, &run()).1,
        d,
        "digest depends on the run"
    );
    results[0].as_mut().unwrap().checksum ^= 1;
    assert!(grid::check(&cells, &results).0 > 0);
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

#[test]
fn every_metric_name_is_well_formed_and_has_a_unit() {
    let rounds = [Round {
        wall_s: 1.0,
        cpu_s: 2.0,
        setup_s: 0.1,
        winstrs: 10,
        attempted: 1,
        ..Round::default()
    }];
    let sets = [Metrics::end_to_end(&rounds, 3.0), Metrics::per_layer()];
    let mut seen = std::collections::BTreeSet::new();
    for set in &sets {
        for (name, unit, _) in set.entries() {
            assert!(well_formed(name), "bad metric name {name:?}");
            assert!(
                !unit.is_empty() && unit.len() <= 16,
                "{name}: bad unit {unit:?}"
            );
            assert!(seen.insert(name.clone()), "{name} printed twice");
        }
    }
    assert_eq!(sets[0].entries().len(), END_TO_END.len());
    assert_eq!(sets[1].entries().len(), metrics::per_layer().len());
    let line = metrics::result_line(1, 0, &sets[0]);
    let doc = Json::parse(&line).expect("result line is JSON");
    assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(
        doc.get("metrics")
            .and_then(|m| m.get("cpu_s"))
            .and_then(|m| m.get("unit"))
            .and_then(Json::as_str),
        Some("s")
    );
}

fn manifest(fingerprint: &str, cells: &[(&str, &str)]) -> Json {
    let cells = cells
        .iter()
        .map(|(w, s)| {
            Json::obj()
                .with("workload", Json::str(*w))
                .with("strategy", Json::str(*s))
        })
        .collect();
    Json::obj()
        .with(
            "config",
            Json::obj().with("configFingerprint", Json::str(fingerprint)),
        )
        .with("cells", Json::Arr(cells))
}

#[test]
fn unique_share_on_synthetic_manifests() {
    use gvf_perfbench::suite::unique_share;
    // fig6-like grid, a fig1b-like subset of it, and the same cell under
    // another configuration.
    let a = manifest(
        "f1",
        &[
            ("GOL", "CUDA"),
            ("GOL", "COAL"),
            ("RAY", "CUDA"),
            ("RAY", "COAL"),
        ],
    );
    let b = manifest("f1", &[("GOL", "CUDA"), ("RAY", "CUDA")]);
    let c = manifest("f2", &[("GOL", "CUDA")]);
    assert_eq!(unique_share(&[&a]), 1.0);
    assert_eq!(unique_share(&[&a, &b]), 4.0 / 6.0);
    assert_eq!(unique_share(&[&a, &b, &c]), 5.0 / 7.0);
    assert_eq!(unique_share(&[]), 0.0);
}

/// A hand-made Fig. 6–9 table over two apps whose simulated values
/// equal the paper's exactly.
fn exact_table() -> Vec<CellResult> {
    let paper = |fig: Figure, s: &str| {
        PAPER
            .iter()
            .find(|p| p.figure == fig && p.strategy == s)
            .map(|p| p.value)
    };
    let mut cells = Vec::new();
    for app in ["A", "B"] {
        for s in ["CUDA", "Concord", "SharedOA", "COAL", "TypePointer"] {
            cells.push(CellResult {
                workload: app.into(),
                strategy: s.into(),
                n_objects: 0,
                n_types: 0,
                cycles: 1000.0 / paper(Figure::Fig6, s).unwrap_or(1.0),
                winstrs: 100.0 * paper(Figure::Fig7, s).unwrap_or(1.0),
                gld: 100.0 * paper(Figure::Fig8, s).unwrap_or(1.0),
                l1_hit_rate: paper(Figure::Fig9, s).unwrap_or(0.0),
                vtable_share: 0.87,
            });
        }
    }
    cells
}

#[test]
fn paper_err_on_a_hand_made_table() {
    let exact = exact_table();
    let all = [
        Figure::Fig1b,
        Figure::Fig6,
        Figure::Fig7,
        Figure::Fig8,
        Figure::Fig9,
    ];
    let tables: Vec<(Figure, &[CellResult])> = all.iter().map(|&f| (f, exact.as_slice())).collect();
    assert!(paper_err(&tables) < 1e-12);
    // Every app 10% faster under COAL than the paper: one Fig. 6 value
    // of four is off by ln(1.1).
    let mut off = exact.clone();
    for c in off.iter_mut().filter(|c| c.strategy == "COAL") {
        c.cycles /= 1.1;
    }
    let fig6 = paper_err(&[(Figure::Fig6, &off)]);
    assert!((fig6 - 1.1f64.ln() / 4.0).abs() < 1e-12, "{fig6}");
    assert!((simulated(Figure::Fig6, "COAL", &off).unwrap() - 1.06 * 1.1).abs() < 1e-9);
    // Fig. 12a: ratios to BRANCH at the largest object count only.
    let micro = |s: &str, n: u64, cycles: f64| CellResult {
        workload: "micro".into(),
        strategy: s.into(),
        n_objects: n,
        n_types: 4,
        cycles,
        winstrs: 1.0,
        gld: 1.0,
        l1_hit_rate: 0.0,
        vtable_share: 0.0,
    };
    let f12 = vec![
        micro("BRANCH", 1, 1.0),
        micro("CUDA", 1, 99.0),
        micro("BRANCH", 32, 10.0),
        micro("CUDA", 32, 56.0),
        micro("COAL", 32, 33.0),
        micro("TypePointer", 32, 20.0 * std::f64::consts::E),
    ];
    let e = paper_err(&[(Figure::Fig12a, &f12)]);
    assert!((e - 1.0 / 3.0).abs() < 1e-12, "{e}");
    assert_eq!(paper_err(&[]), 0.0);
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
        .expect("parse BENCHMARK.json");
    let listed = |key: &str| -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("metric field")
                        .to_string()
                };
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    };
    let own = |v: Vec<(String, &str, &str)>| -> Vec<(String, String, String)> {
        v.into_iter()
            .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
            .collect()
    };
    assert_eq!(
        listed("end_to_end"),
        own(END_TO_END
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u, b))
            .collect())
    );
    assert_eq!(listed("per_layer"), own(metrics::per_layer()));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(
        workloads,
        [grid::NAME, dispatch::NAME, gvf_perfbench::suite::NAME]
    );
}
