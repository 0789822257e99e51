//! Figure 11 / Table 2 — multiprogrammed multicore evaluation: four
//! cores, 32 MB shared LLC, normalized weighted speedup for the Table 2
//! mixes and the geometric mean over all 20 mixes.

use std::collections::HashMap;

use flatwalk_bench::{pct, print_table, run_cells, run_jobs, GridCell, Mode};
use flatwalk_sim::{
    all_mixes, mean_weighted_speedup, multicore_options, table2_mixes, MulticoreReport,
    MulticoreSimulation, TranslationConfig,
};
use flatwalk_workloads::WorkloadSpec;

pub fn run(args: &crate::Args) {
    let mode = args.mode;
    let mut opts = multicore_options();
    // Multicore runs are 4x the work; scale with the mode.
    match mode {
        Mode::Quick => {
            opts.footprint_divisor = 16;
            opts.phys_mem_bytes = 8 << 30;
            opts.warmup_ops = 40_000;
            opts.measure_ops = 100_000;
        }
        Mode::Std => {
            opts.footprint_divisor = 4;
            opts.phys_mem_bytes = 16 << 30;
            opts.warmup_ops = 80_000;
            opts.measure_ops = 200_000;
        }
        Mode::Paper => {
            opts.footprint_divisor = 1;
            opts.phys_mem_bytes = 64 << 30;
            opts.warmup_ops = 200_000;
            opts.measure_ops = 500_000;
        }
    }
    println!("Table 2 mixes:");
    for m in table2_mixes() {
        println!("  mix {}: {}", m.id, m.describe());
    }

    let mixes = if mode == Mode::Quick {
        table2_mixes()
    } else {
        all_mixes()
    };
    let configs = TranslationConfig::fig9_set();

    // Alone-IPC denominators use the baseline system: one native run
    // per distinct benchmark, fanned across the pool.
    let mut names: Vec<&'static str> = Vec::new();
    for mix in &mixes {
        for name in mix.parts {
            if !names.contains(&name) {
                names.push(name);
            }
        }
    }
    let alone_cells: Vec<GridCell> = names
        .iter()
        .map(|name| {
            let spec =
                WorkloadSpec::by_name(name).unwrap_or_else(|| panic!("unknown benchmark {name:?}"));
            GridCell::new(
                spec,
                TranslationConfig::baseline(),
                opts.scenario,
                opts.clone(),
            )
        })
        .collect();
    let alone: HashMap<&'static str, f64> = names
        .iter()
        .zip(run_cells("fig11:alone", alone_cells))
        .map(|(name, r)| (*name, r.ipc()))
        .collect();

    // The (config × mix) grid of four-core simulations.
    let jobs: Vec<(TranslationConfig, usize)> = configs
        .iter()
        .flat_map(|cfg| (0..mixes.len()).map(|i| (cfg.clone(), i)))
        .collect();
    let grid: Vec<MulticoreReport> = run_jobs(
        "fig11:mixes",
        jobs,
        4 * (opts.warmup_ops + opts.measure_ops),
        |(cfg, i)| MulticoreSimulation::build(&mixes[i], cfg, &opts).run(),
    );
    for m in &grid {
        for core in &m.cores {
            flatwalk_bench::emit::record_report("fig11:mixes", core);
        }
    }

    let mut rows = Vec::new();
    for (cfg, reports) in configs.iter().zip(grid.chunks(mixes.len())) {
        let mut row = vec![cfg.label.to_string()];
        for r in reports.iter().filter(|r| r.mix.id <= 8) {
            let alone_vec: Vec<f64> = r.mix.parts.iter().map(|n| alone[n]).collect();
            row.push(format!("{:.3}", r.weighted_speedup(&alone_vec).unwrap()));
        }
        let g = mean_weighted_speedup(reports, &alone).unwrap();
        row.push(format!("{:.3}", g));
        rows.push((cfg.label, row, g));
    }

    let mut headers: Vec<String> = vec!["config".into()];
    headers.extend(
        mixes
            .iter()
            .filter(|m| m.id <= 8)
            .map(|m| format!("mix{}", m.id)),
    );
    headers.push(format!("GEOMEAN({})", mixes.len()));
    let hrefs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    print_table(
        &hrefs,
        &rows.iter().map(|(_, r, _)| r.clone()).collect::<Vec<_>>(),
    );

    println!();
    let base_g = rows[0].2;
    for (label, _, g) in &rows {
        println!("  {label:<9} vs baseline: {}", pct(g / base_g));
    }
    println!();
    println!("Paper reference (0% LP): FPT +2.2%, PTP +9.2%, FPT+PTP +11.5% mean");
    println!("weighted speedup over 20 mixes.");
}
