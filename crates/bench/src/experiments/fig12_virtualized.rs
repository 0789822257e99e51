//! Figure 12 — virtualized execution: flattening the host table (HF),
//! the guest table (GF), or both, with and without prioritization,
//! against the 2-D baseline. Pass `--accesses` to also print the §4.1
//! memory-accesses-per-walk table (naive 24 → baseline ≈4.4 → GF+HF
//! ≈2.8).

use flatwalk_bench::{pct, print_table, run_jobs, Mode};
use flatwalk_sim::{SimReport, VirtConfig, VirtualizedSimulation};
use flatwalk_types::stats::geometric_mean;
use flatwalk_workloads::WorkloadSpec;

pub fn run(args: &crate::Args) {
    let mode = args.mode;
    let opts = mode.server_options();

    let suite = if mode == Mode::Quick {
        vec![
            WorkloadSpec::bfs(),
            WorkloadSpec::dc(),
            WorkloadSpec::mcf(),
            WorkloadSpec::xsbench(),
            WorkloadSpec::gups(),
        ]
    } else {
        WorkloadSpec::suite()
    };
    let configs = VirtConfig::fig12_set();

    // One batch over the whole (config × workload) grid; the first
    // config is the 2-D baseline.
    let jobs: Vec<(VirtConfig, WorkloadSpec)> = configs
        .iter()
        .flat_map(|cfg| suite.iter().map(|w| (*cfg, w.clone())))
        .collect();
    let all: Vec<SimReport> = run_jobs(
        "fig12",
        jobs,
        opts.warmup_ops + opts.measure_ops,
        |(cfg, w)| VirtualizedSimulation::build(w, cfg, &opts).run(),
    );
    for r in &all {
        flatwalk_bench::emit::record_report("fig12", r);
    }
    let base = &all[..suite.len()];

    let mut rows = Vec::new();
    let mut acc_rows = Vec::new();
    for (cfg, reports) in configs.iter().zip(all.chunks(suite.len())) {
        let speedups: Vec<f64> = reports
            .iter()
            .zip(base)
            .map(|(r, b)| r.speedup_vs(b))
            .collect();
        let g = geometric_mean(&speedups).unwrap();
        let mut row = vec![cfg.label.to_string()];
        row.extend(speedups.iter().map(|s| pct(*s)));
        row.push(pct(g));
        rows.push(row);

        let accs: Vec<f64> = reports.iter().map(|r| r.walk.accesses_per_walk()).collect();
        let mean_acc = accs.iter().sum::<f64>() / accs.len() as f64;
        let mut arow = vec![cfg.label.to_string()];
        arow.extend(accs.iter().map(|a| format!("{a:.2}")));
        arow.push(format!("{mean_acc:.2}"));
        acc_rows.push(arow);
    }

    let mut headers: Vec<&str> = vec!["config"];
    let names: Vec<String> = suite.iter().map(|w| w.name.to_string()).collect();
    headers.extend(names.iter().map(|s| s.as_str()));
    headers.push("GEOMEAN");
    print_table(&headers, &rows);

    if args.accesses {
        println!();
        println!("--- memory accesses per 2-D walk (§4.1) ---");
        let mut h2 = headers.clone();
        *h2.last_mut().unwrap() = "MEAN";
        print_table(&h2, &acc_rows);
    }

    println!();
    println!("Paper reference: HF +1.1%, GF +4.9%, GF+HF +7.1%; with PTP:");
    println!("+7.5% / +11.6% / +14.0%. Accesses/walk: 4.4 baseline → 2.8 GF+HF");
    println!("(gups/random ≈9.6/9.4 baseline).");
}
