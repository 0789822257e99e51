//! Ablation of the two empirical constants behind cache prioritization
//! (§5/§6.1): the 99 %/1 % eviction bias ("we empirically found that
//! this ratio works well") and the high-TLB-miss phase threshold that
//! gates prioritization.

use flatwalk_bench::{geomean_speedup, grids, pct, print_table, run_cells};

pub fn run(args: &crate::Args) {
    let mode = args.mode;
    let opts = mode.server_options();

    let suite = grids::ablation_ptp_suite(mode);
    let biases = grids::ABLATION_PTP_BIASES;
    let thresholds = grids::ABLATION_PTP_THRESHOLDS;

    // One batch: the shared baseline suite, then both sweeps.
    let all = run_cells("ablation_ptp", grids::ablation_ptp(mode, &opts).cells);
    let base = &all[..suite.len()];
    let mut sweep_chunks = all[suite.len()..].chunks(suite.len());

    let mut rows = Vec::new();
    println!("\n--- eviction bias sweep (phase threshold fixed at 0.02) ---");
    for bias in biases {
        let ptp = sweep_chunks.next().unwrap();
        rows.push(vec![
            format!("bias {bias:.2}"),
            pct(geomean_speedup(ptp, base)),
        ]);
    }
    print_table(&["config", "PTP geomean speedup"], &rows);

    let mut rows = Vec::new();
    println!("\n--- phase-threshold sweep (bias fixed at 0.99) ---");
    for threshold in thresholds {
        let ptp = sweep_chunks.next().unwrap();
        rows.push(vec![
            format!("threshold {threshold:.3}"),
            pct(geomean_speedup(ptp, base)),
        ]);
    }
    print_table(&["config", "PTP geomean speedup"], &rows);

    println!();
    println!("Expectations: bias 0 = plain LRU (no gain); gains grow with the bias");
    println!("and saturate near the paper's 0.99; bias 1.0 is close to 0.99 (the");
    println!("set-has-only-PT-lines fallback keeps it safe). Thresholds past the");
    println!("suite's miss rates disable PTP for more benchmarks and shrink gains.");
}
