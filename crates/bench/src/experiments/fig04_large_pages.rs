//! Figure 4 — large data pages vs flattened L2+L1 nodes: plain
//! flattening (FPT-NF) replicates 512 L1 entries per 2 MB page and
//! loses performance; the §3.4 no-flatten regions (FPT) recover it.
//! Evaluated at 50 % and 100 % large pages, normalized to the 0 % LP
//! baseline (THP = conventional table with large pages).

use flatwalk_bench::{grids, pct, print_table, run_cells};

pub fn run(args: &crate::Args) {
    let mode = args.mode;
    let opts = mode.server_options();

    let suite = grids::fig04_suite();
    let configs = grids::fig04_configs();
    let scenarios = ["50% LP", "100% LP"];

    // Per workload: its 0 % LP baseline followed by the scenario grid.
    let per_spec = 1 + scenarios.len() * configs.len();
    let all = run_cells("fig04", grids::fig04(mode, &opts).cells);

    let mut rows = Vec::new();
    for (spec, group) in suite.iter().zip(all.chunks(per_spec)) {
        let base0 = &group[0];
        let mut rest = group[1..].iter();
        for slabel in scenarios {
            for (label, _) in &configs {
                let r = rest.next().unwrap();
                rows.push(vec![
                    spec.name.to_string(),
                    slabel.to_string(),
                    label.to_string(),
                    pct(r.speedup_vs(base0)),
                    format!("{}", r.census.replicated_entries),
                    format!("{:.2}", r.walk.accesses_per_walk()),
                ]);
            }
        }
    }
    print_table(
        &[
            "bench",
            "scenario",
            "config",
            "vs 0%LP base",
            "replicated",
            "acc/walk",
        ],
        &rows,
    );
    println!();
    println!("Paper reference: FPT without NF loses performance against THP for");
    println!("2 MB-heavy mappings; FPT+NF surpasses the baseline (Fig. 4).");
}
