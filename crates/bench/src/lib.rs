//! # gvf-bench — the figure/table regeneration harness
//!
//! One binary per table and figure of the paper's evaluation; see
//! `DESIGN.md` §3 for the experiment index and `EXPERIMENTS.md` for
//! paper-vs-measured results. The library part hosts what the binaries
//! share: flag parsing, the sweep driver, the cell cache, run manifests,
//! telemetry and report formatting. How fast the binaries reproduce the
//! paper is measured from outside, by `perfbench/`.

pub mod cellcache;
pub mod cli;
pub mod events;
pub mod hostperf;
pub mod json;
pub mod manifest;
pub mod report;
pub mod rundiff;
pub mod schemas;
pub mod sweep;
