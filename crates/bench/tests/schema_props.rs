//! Property test for the telemetry schema added with the
//! host-performance subsystem (`gvf.hostperf` v1): any generated
//! document must survive the render → parse round trip of the in-repo
//! JSON layer — the same guarantee the older schemas already enjoy (see
//! `json_roundtrip.rs`), run on the in-repo `gvf-prop` harness.

use gvf_bench::hostperf::host_perf_json_from;
use gvf_bench::json::Json;
use gvf_prop::{props, Rng};
use gvf_sim::{HostPerfSnapshot, PoolTelemetry, SweepTelemetry, WorkerTelemetry};

fn arb_snapshot(rng: &mut Rng) -> HostPerfSnapshot {
    let n_sweeps = rng.range_usize(0, 4);
    HostPerfSnapshot {
        wall_ns: rng.range_u64(0, 1 << 40),
        setup_ns: rng.range_u64(0, 1 << 30),
        report_ns: rng.range_u64(0, 1 << 30),
        alloc_ns: rng.range_u64(0, 1 << 40),
        simulate_ns: rng.range_u64(0, 1 << 40),
        sweeps: (0..n_sweeps)
            .map(|i| {
                let jobs = rng.range_usize(1, 9);
                SweepTelemetry {
                    label: format!("sweep{i}"),
                    cells: rng.range_u64(0, 1 << 16),
                    pool: PoolTelemetry {
                        wall_ns: rng.range_u64(0, 1 << 40),
                        jobs,
                        workers: (0..jobs)
                            .map(|_| WorkerTelemetry {
                                busy_ns: rng.range_u64(0, 1 << 40),
                                queue_wait_ns: rng.range_u64(0, 1 << 30),
                                cells: rng.range_u64(0, 1 << 16),
                            })
                            .collect(),
                    },
                }
            })
            .collect(),
        peak_rss_bytes: if rng.bool(0.8) {
            Some(rng.range_u64(0, 1 << 44))
        } else {
            None
        },
    }
}

/// `gvf.hostperf` v1: the emitted section always parses back to an
/// equal JSON tree and keeps its schema header and throughput block,
/// whatever the snapshot — including zero-duration and worker-less
/// degenerate shapes.
#[test]
fn hostperf_sections_round_trip() {
    props!(96, |rng| {
        let snap = arb_snapshot(rng);
        let cycles = rng.range_u64(0, 1 << 50);
        let doc = host_perf_json_from(&snap, cycles);
        let text = doc.render();
        let back = Json::parse(&text).expect("hostPerf section must parse");
        assert_eq!(back, doc, "round-trip mismatch for: {text}");
        assert_eq!(
            back.get("schema").and_then(Json::as_str),
            Some("gvf.hostperf")
        );
        let rate = back
            .get("throughput")
            .and_then(|t| t.get("sim_cycles_per_sec"))
            .and_then(Json::as_num)
            .expect("throughput rate");
        assert!(rate.is_finite(), "rate must stay finite: {rate}");
    });
}
