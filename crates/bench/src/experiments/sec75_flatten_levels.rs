//! §7.5 — flattening other levels: L3+L2 flattening (the kernel
//! prototype's target) versus L4+L3 & L2+L1, native and virtualized,
//! across the large-page scenarios. L3+L2 is designed to win when 2 MB
//! data pages dominate (single-access large-page walks, Fig. 3 right).

use flatwalk_bench::{geomean_speedup, grids, pct, print_table, run_cells, run_jobs, scenarios};
use flatwalk_os::FragmentationScenario;
use flatwalk_pt::Layout;
use flatwalk_sim::{SimReport, VirtConfig, VirtualizedSimulation};
use flatwalk_types::stats::geometric_mean;
use flatwalk_workloads::WorkloadSpec;

pub fn run(args: &crate::Args) {
    let mode = args.mode;
    let opts = mode.server_options();

    let suite = grids::sec75_suite(mode);
    let native_configs = grids::sec75_native_configs();

    // Native: per scenario, the baseline suite then each flattening.
    let native = run_cells("sec75:native", grids::sec75_native(mode, &opts).cells);

    // Virtualized: per scenario, the 2-D baseline then both-dimension
    // flattening with each layout choice.
    let vchoices: [(&'static str, Option<Layout>); 3] = [
        ("Base-2D", None),
        ("GF+HF (L3+L2)", Some(Layout::flat_l3l2())),
        ("GF+HF (L4+L3,L2+L1)", Some(Layout::flat_l4l3_l2l1())),
    ];
    let vjobs: Vec<(
        FragmentationScenario,
        &'static str,
        Option<Layout>,
        WorkloadSpec,
    )> = scenarios()
        .iter()
        .flat_map(|(scenario, _)| {
            vchoices.iter().flat_map(|(vlabel, layout)| {
                suite
                    .iter()
                    .map(|w| (*scenario, *vlabel, layout.clone(), w.clone()))
            })
        })
        .collect();
    let virt: Vec<SimReport> = run_jobs(
        "sec75:virt",
        vjobs,
        opts.warmup_ops + opts.measure_ops,
        |(scenario, vlabel, layout, w)| {
            let o = opts.clone().with_scenario(scenario);
            match layout {
                None => VirtualizedSimulation::build(w, VirtConfig::fig12_set()[0], &o).run(),
                Some(layout) => {
                    let cfg = VirtConfig {
                        label: vlabel,
                        guest_flat: true,
                        host_flat: true,
                        ptp: false,
                    };
                    VirtualizedSimulation::build_custom(w, cfg, layout.clone(), layout, &o).run()
                }
            }
        },
    );

    for r in &virt {
        flatwalk_bench::emit::record_report("sec75:virt", r);
    }

    let mut rows = Vec::new();
    let mut native_chunks = native.chunks(suite.len());
    for (_, label) in scenarios() {
        let base = native_chunks.next().unwrap();
        for cfg in &native_configs[1..] {
            let reports = native_chunks.next().unwrap();
            rows.push(vec![
                "native".to_string(),
                label.to_string(),
                cfg.label.to_string(),
                pct(geomean_speedup(reports, base)),
            ]);
        }
    }
    let mut virt_chunks = virt.chunks(suite.len());
    for (_, label) in scenarios() {
        let base = virt_chunks.next().unwrap();
        for (vlabel, _) in &vchoices[1..] {
            let reports = virt_chunks.next().unwrap();
            let speedups: Vec<f64> = reports
                .iter()
                .zip(base)
                .map(|(r, b)| r.speedup_vs(b))
                .collect();
            rows.push(vec![
                "virtualized".to_string(),
                label.to_string(),
                vlabel.to_string(),
                pct(geometric_mean(&speedups).unwrap()),
            ]);
        }
    }
    print_table(
        &["system", "scenario", "flattening", "geomean speedup"],
        &rows,
    );
    println!();
    println!("Paper reference: L3+L2 gives +0.2/+0.3/+0.1 pp native and +0.7/+1.0/");
    println!("+1.2 pp virtualized at 0/50/100% LP; at 100% LP it beats L4+L3,L2+L1");
    println!("by 0.3 pp (native) / 0.8 pp (virtualized).");
}
