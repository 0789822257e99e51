//! The paper's two headline comparisons at full paper scale
//! (footprint divisor 1): native Fig. 9 geomeans for Base/FPT/PTP/
//! FPT+PTP at 0 % LP, and virtualized Fig. 12 geomeans for
//! Base-2D/GF+HF/GF+HF+PTP.

use flatwalk_bench::{pct, print_table, run_cells, run_jobs, GridCell};
use flatwalk_os::FragmentationScenario;
use flatwalk_sim::{SimOptions, SimReport, TranslationConfig, VirtConfig, VirtualizedSimulation};
use flatwalk_types::stats::{geometric_mean, mean};
use flatwalk_workloads::WorkloadSpec;

pub fn run(_: &crate::Args) {
    let mut opts = SimOptions::server();
    opts.warmup_ops = 200_000;
    opts.measure_ops = 600_000;

    let suite = WorkloadSpec::suite();

    // --- native: one batch over the Fig. 9 configs (Base first) ---
    let configs = TranslationConfig::fig9_set();
    let cells: Vec<GridCell> = configs
        .iter()
        .flat_map(|cfg| {
            suite.iter().map(|w| {
                GridCell::new(
                    w.clone(),
                    cfg.clone(),
                    FragmentationScenario::NONE,
                    opts.clone(),
                )
            })
        })
        .collect();
    let native = run_cells("headline:native", cells);
    let base = &native[..suite.len()];

    let mut rows = Vec::new();
    for (cfg, reports) in configs.iter().zip(native.chunks(suite.len())) {
        let speedups: Vec<f64> = reports
            .iter()
            .zip(base)
            .map(|(r, b)| r.speedup_vs(b))
            .collect();
        let accs: Vec<f64> = reports.iter().map(|r| r.walk.accesses_per_walk()).collect();
        let lats: Vec<f64> = reports.iter().map(|r| r.walk.latency_per_walk()).collect();
        rows.push(vec![
            cfg.label.to_string(),
            pct(geometric_mean(&speedups).unwrap()),
            format!("{:.2}", mean(&accs).unwrap()),
            format!("{:.1}", mean(&lats).unwrap()),
        ]);
        eprintln!("native {} done", cfg.label);
    }
    println!("--- native (paper: FPT +2.3%, PTP +6.8%, FPT+PTP +9.2%;");
    println!("    accesses 1.5→1.0; latency 50.9→33.0→29.1) ---");
    print_table(
        &[
            "config",
            "geomean speedup",
            "mean acc/walk",
            "mean walk-lat",
        ],
        &rows,
    );

    // --- virtualized ---
    let vconfigs: Vec<VirtConfig> = VirtConfig::fig12_set()
        .into_iter()
        .filter(|c| matches!(c.label, "Base-2D" | "GF+HF" | "GF+HF+PTP"))
        .collect();
    let vjobs: Vec<(VirtConfig, WorkloadSpec)> = vconfigs
        .iter()
        .flat_map(|cfg| suite.iter().map(|w| (*cfg, w.clone())))
        .collect();
    let virt: Vec<SimReport> = run_jobs(
        "headline:virt",
        vjobs,
        opts.warmup_ops + opts.measure_ops,
        |(cfg, w)| VirtualizedSimulation::build(w, cfg, &opts).run(),
    );
    for r in &virt {
        flatwalk_bench::emit::record_report("headline:virt", r);
    }
    let vbase = &virt[..suite.len()];
    let mut rows = Vec::new();
    for (cfg, reports) in vconfigs.iter().zip(virt.chunks(suite.len())) {
        let speedups: Vec<f64> = reports
            .iter()
            .zip(vbase)
            .map(|(r, b)| r.speedup_vs(b))
            .collect();
        let accs: Vec<f64> = reports.iter().map(|r| r.walk.accesses_per_walk()).collect();
        rows.push(vec![
            cfg.label.to_string(),
            pct(geometric_mean(&speedups).unwrap()),
            format!("{:.2}", mean(&accs).unwrap()),
        ]);
        eprintln!("virt {} done", cfg.label);
    }
    println!();
    println!("--- virtualized (paper: GF+HF +7.1%, GF+HF+PTP +14.0%;");
    println!("    accesses 4.4→2.8) ---");
    print_table(&["config", "geomean speedup", "mean acc/walk"], &rows);
}
