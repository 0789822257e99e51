//! Figure 1 — the headline: for a high-TLB-miss benchmark (gups) and a
//! low one (dc), show (left) memory requests per page walk with and
//! without flattening, (center) page-walk latency with and without
//! prioritization, and (right) dynamic cache/DRAM energy of the
//! combination.

use flatwalk_bench::{grids, pct, print_table, run_cells};

pub fn run(args: &crate::Args) {
    let mode = args.mode;
    let opts = mode.server_options();

    let per_spec = grids::fig01_configs().len();
    let all = run_cells("fig01", grids::fig01(mode, &opts).cells);

    let mut rows = Vec::new();
    for reports in all.chunks(per_spec) {
        let base = &reports[0];
        for r in reports {
            rows.push(vec![
                r.workload.clone(),
                r.config.to_string(),
                format!("{:.2}", r.walk.accesses_per_walk()),
                format!("{:.1}", r.walk.latency_per_walk()),
                pct(r.cache_energy_vs(base)),
                pct(r.dram_energy_vs(base)),
                pct(r.speedup_vs(base)),
            ]);
        }
    }
    print_table(
        &[
            "bench",
            "config",
            "acc/walk",
            "walk-lat",
            "Δcache-E",
            "ΔDRAM-acc",
            "speedup",
        ],
        &rows,
    );
    println!();
    println!("Paper reference: flattening → 1.0 accesses/walk; prioritization cuts");
    println!("gups walk latency dramatically; combination saves cache+DRAM energy.");
}
