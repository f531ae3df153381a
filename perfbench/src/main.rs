//! `perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one benchmark workload from the root of a checkout. The
//! untraced run prints every end-to-end metric; the traced run prints
//! every per-layer metric and writes its spans to
//! `.perfbench/<workload>.spans.json`. The last line of standard output
//! is the JSON result.

use gvf_perfbench::trace::Tracer;
use gvf_perfbench::{dispatch, grid, metrics, suite, DEFAULT_SEED};
use std::path::Path;

const USAGE: &str = "usage: perfbench --workload fig6-grid|fig12-dispatch|repro-suite \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .unwrap_or_else(|| fail(&format!("{} needs a value", args[i])));
        match args[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = value
                    .parse()
                    .unwrap_or_else(|_| fail("--seed takes an integer"))
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| fail("--seconds takes a positive number"))
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => fail("--trace takes 0 or 1"),
                }
            }
            other => fail(&format!("unknown flag {other}")),
        }
        i += 2;
    }
    let workload = workload.unwrap_or_else(|| fail("--workload is required"));
    let tracer = Tracer::default();
    let (attempted, failed, metrics) = match (workload.as_str(), trace) {
        (grid::NAME, false) => grid::run(seed, seconds),
        (grid::NAME, true) => grid::run_traced(seed, &tracer),
        (dispatch::NAME, false) => dispatch::run(seed, seconds),
        (dispatch::NAME, true) => dispatch::run_traced(seed, &tracer),
        (suite::NAME, _) => {
            if let Err(e) = suite::check_binaries() {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
            if trace {
                suite::run_traced(seed, &tracer)
            } else {
                suite::run(seed, seconds)
            }
        }
        (other, _) => fail(&format!("unknown workload {other}")),
    };
    if trace {
        let path = Path::new(".perfbench").join(format!("{workload}.spans.json"));
        if let Err(e) = tracer.write(&path) {
            eprintln!("error: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    for (name, unit, value) in metrics.entries() {
        println!("{name} {value} {unit}");
    }
    println!("{}", metrics::result_line(attempted, failed, &metrics));
}
