//! Table 2: workload characteristics — object instances, concrete types,
//! vTable entries, and dynamic virtual calls per thousand instructions.
//!
//! Paper values (full-scale CUDA inputs): 0.5–5.6 M objects, 3–6 types,
//! 3–74 vFuncs, vFuncPKI 15–54. Ours are the same ports at the harness
//! scale; object counts shrink with `--scale`, the rest should land in
//! the same ballpark.

use gvf_bench::cellcache::CellSpec;
use gvf_bench::cli::HarnessOpts;
use gvf_bench::json::Json;
use gvf_bench::manifest::{self, CellRecord};
use gvf_bench::report::print_table;
use gvf_bench::sweep::run_cells;
use gvf_core::Strategy;
use gvf_workloads::WorkloadKind;

fn main() {
    let opts = HarnessOpts::from_args();
    let cells: Vec<WorkloadKind> = WorkloadKind::EVALUATED.to_vec();
    let cache = opts.cell_cache("table2");
    let mut results = run_cells("table2", &opts, &cells, |i, &k| {
        let cfg = opts.cfg_for_cell(i);
        cache.run(i, &CellSpec::Workload(k, Strategy::SharedOa), &cfg)
    })
    .into_results(&opts);

    let mut rows = Vec::new();
    let mut records = Vec::new();
    for (kind, r) in cells.iter().zip(&results) {
        rows.push(vec![
            format!("{} {}", kind.suite(), kind.label()),
            format!("{}", r.table2.objects),
            format!("{}", r.table2.types),
            format!("{}", r.table2.vfunc_entries),
            format!("{:.1}", r.table2.vfunc_pki),
        ]);
        records.push(
            CellRecord::of(kind.label(), Strategy::SharedOa.label(), r)
                .with("objects", Json::num_u64(r.table2.objects))
                .with("types", Json::num_u64(r.table2.types as u64))
                .with(
                    "vfunc_entries",
                    Json::num_u64(r.table2.vfunc_entries as u64),
                )
                .with("vfunc_pki", Json::Num(r.table2.vfunc_pki)),
        );
    }
    println!(
        "\nTable 2 — workload characteristics (at --scale {})",
        opts.cfg.scale
    );
    println!("paper: 0.5-5.6M objects, 3-6 types, 3-74 vFuncs, vFuncPKI 15-54\n");
    print_table(
        &["Workload", "# Objects", "# Types", "# vFuncs", "vFuncPKI"],
        &rows,
    );

    manifest::emit_grid(&opts, "table2", &records, &mut results);
}
