//! Figure 10 — per-benchmark anatomy of page walks at 0 % large pages:
//! memory accesses per walk (top) and walk latency in cycles (bottom),
//! for the baseline, FPT, PTP and FPT+PTP.

use flatwalk_bench::{grids, print_table, run_cells};
use flatwalk_sim::TranslationConfig;
use flatwalk_types::stats::mean;
use flatwalk_workloads::WorkloadSpec;

pub fn run(args: &crate::Args) {
    let mode = args.mode;
    let opts = mode.server_options();

    let suite = WorkloadSpec::suite();
    let configs = TranslationConfig::fig9_set();

    let all = run_cells("fig10", grids::fig10(mode, &opts).cells);

    let mut acc_rows = Vec::new();
    let mut lat_rows = Vec::new();
    let mut acc_means: Vec<(String, f64)> = Vec::new();
    let mut lat_means: Vec<(String, f64)> = Vec::new();
    let mut histograms: Vec<(String, flatwalk_types::stats::LatencyHistogram)> = Vec::new();

    for (cfg, reports) in configs.iter().zip(all.chunks(suite.len())) {
        let mut merged = flatwalk_types::stats::LatencyHistogram::default();
        for r in reports {
            merged.merge(&r.walk.latency_histogram);
        }
        histograms.push((cfg.label.to_string(), merged));
        let accs: Vec<f64> = reports.iter().map(|r| r.walk.accesses_per_walk()).collect();
        let lats: Vec<f64> = reports.iter().map(|r| r.walk.latency_per_walk()).collect();

        let mut arow = vec![cfg.label.to_string()];
        arow.extend(accs.iter().map(|v| format!("{v:.2}")));
        arow.push(format!("{:.2}", mean(&accs).unwrap()));
        acc_rows.push(arow);
        acc_means.push((cfg.label.to_string(), mean(&accs).unwrap()));

        let mut lrow = vec![cfg.label.to_string()];
        lrow.extend(lats.iter().map(|v| format!("{v:.0}")));
        lrow.push(format!("{:.1}", mean(&lats).unwrap()));
        lat_rows.push(lrow);
        lat_means.push((cfg.label.to_string(), mean(&lats).unwrap()));
    }

    let mut headers: Vec<&str> = vec!["config"];
    let names: Vec<String> = suite.iter().map(|w| w.name.to_string()).collect();
    headers.extend(names.iter().map(|s| s.as_str()));
    headers.push("MEAN");

    println!();
    println!("--- memory accesses per page walk ---");
    print_table(&headers, &acc_rows);
    println!();
    println!("--- walk latency (cycles) ---");
    print_table(&headers, &lat_rows);

    println!();
    println!("--- walk latency distribution (p50 / p99, bucket upper bounds) ---");
    for (label, merged) in &histograms {
        println!(
            "  {:<9} p50 = {:>4} cycles   p99 = {:>5} cycles",
            label,
            merged.percentile(0.50),
            merged.percentile(0.99),
        );
    }

    println!();
    for (l, m) in &acc_means {
        println!("  {l:<9} mean accesses/walk {m:.2}");
    }
    for (l, m) in &lat_means {
        println!("  {l:<9} mean walk latency  {m:.1}");
    }
    println!();
    println!("Paper reference: baseline ≈1.5 accesses/walk on average (gups/random");
    println!("2.5 max); FPT = 1.0 for every workload. Latency: 50.9 → 33.0 (PTP)");
    println!("→ 29.1 (FPT+PTP) cycles on average.");
}
