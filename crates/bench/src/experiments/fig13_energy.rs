//! Figure 13 — dynamic energy of the cache hierarchy and DRAM for data
//! plus page walks, native (left/center) and virtualized (right),
//! normalized to the respective baselines. 0 % LP scenario.

use flatwalk_baselines::{AsapScheme, EchScheme, PomTlbScheme, SchemeSimulation};
use flatwalk_bench::{pct, print_table, run_cells, run_jobs, GridCell, Mode};
use flatwalk_os::FragmentationScenario;
use flatwalk_sim::{SimReport, TranslationConfig, VirtConfig, VirtualizedSimulation};
use flatwalk_types::stats::geometric_mean;
use flatwalk_workloads::WorkloadSpec;

fn geo_energy(reports: &[SimReport], base: &[SimReport]) -> (f64, f64) {
    let cache: Vec<f64> = reports
        .iter()
        .zip(base)
        .map(|(r, b)| r.cache_energy_vs(b))
        .collect();
    let dram: Vec<f64> = reports
        .iter()
        .zip(base)
        .map(|(r, b)| r.dram_energy_vs(b))
        .collect();
    (
        geometric_mean(&cache).unwrap(),
        geometric_mean(&dram).unwrap(),
    )
}

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
    let scenario = FragmentationScenario::NONE;

    // --- native: baseline plus our three configs, one batch ---
    let native_configs = [
        TranslationConfig::baseline(),
        TranslationConfig::flattened(),
        TranslationConfig::prioritized(),
        TranslationConfig::flattened_prioritized(),
    ];
    let native_cells: Vec<GridCell> = native_configs
        .iter()
        .flat_map(|cfg| {
            suite
                .iter()
                .map(|w| GridCell::new(w.clone(), cfg.clone(), scenario, opts.clone()))
        })
        .collect();
    let native = run_cells("fig13:native", native_cells);
    let base = &native[..suite.len()];

    let mut rows = Vec::new();
    for (cfg, reports) in native_configs[1..]
        .iter()
        .zip(native[suite.len()..].chunks(suite.len()))
    {
        let (c, d) = geo_energy(reports, base);
        rows.push(vec!["native".into(), cfg.label.to_string(), pct(c), pct(d)]);
    }

    // --- prior schemes ---
    let scheme_jobs: Vec<(&str, WorkloadSpec)> = ["ASAP", "ECH", "CSALT"]
        .iter()
        .flat_map(|s| suite.iter().map(|w| (*s, w.clone())))
        .collect();
    let scheme_reports = run_jobs(
        "fig13:schemes",
        scheme_jobs,
        opts.warmup_ops + opts.measure_ops,
        |(scheme, w)| {
            let o = opts.clone().with_scenario(scenario);
            let scaled = w.clone().scaled_down(o.footprint_divisor);
            match scheme {
                "ASAP" => {
                    SchemeSimulation::build(w.clone(), AsapScheme::new(o.pwc.clone()), &o).run()
                }
                "ECH" => {
                    SchemeSimulation::build(w.clone(), EchScheme::new(scaled.footprint, false), &o)
                        .run()
                }
                _ => SchemeSimulation::build(
                    w.clone(),
                    PomTlbScheme::new(16 << 20, o.pwc.clone()).csalt(),
                    &o,
                )
                .run(),
            }
        },
    );
    for r in &scheme_reports {
        flatwalk_bench::emit::record_report("fig13:schemes", r);
    }
    for (scheme, reports) in ["ASAP", "ECH", "CSALT"]
        .iter()
        .zip(scheme_reports.chunks(suite.len()))
    {
        let (c, d) = geo_energy(reports, base);
        rows.push(vec!["native".into(), scheme.to_string(), pct(c), pct(d)]);
    }

    // --- virtualized: baseline plus the two GF+HF variants ---
    let vconfigs: Vec<VirtConfig> = [0usize, 3, 7]
        .iter()
        .map(|&i| VirtConfig::fig12_set()[i])
        .collect();
    let vjobs: Vec<(VirtConfig, WorkloadSpec)> = vconfigs
        .iter()
        .flat_map(|cfg| suite.iter().map(|w| (*cfg, w.clone())))
        .collect();
    let virt = run_jobs(
        "fig13:virt",
        vjobs,
        opts.warmup_ops + opts.measure_ops,
        |(cfg, w)| VirtualizedSimulation::build(w, cfg, &opts).run(),
    );
    for r in &virt {
        flatwalk_bench::emit::record_report("fig13:virt", r);
    }
    let vbase = &virt[..suite.len()];
    for (cfg, reports) in vconfigs[1..]
        .iter()
        .zip(virt[suite.len()..].chunks(suite.len()))
    {
        let (c, d) = geo_energy(reports, vbase);
        rows.push(vec![
            "virtualized".into(),
            cfg.label.to_string(),
            pct(c),
            pct(d),
        ]);
    }

    print_table(
        &["system", "config", "Δcache energy", "ΔDRAM accesses"],
        &rows,
    );
    println!();
    println!("Paper reference (native): FPT -2.8% cache; PTP -2.5% cache / -4.6% DRAM;");
    println!("FPT+PTP -5.1% / -4.7%. ASAP raises L1D traffic; ECH +32% cache / +14% DRAM.");
    println!("Virtualized: GF+HF -6.7% cache; GF+HF+PTP -8.7% cache / -4.7% DRAM.");
}
