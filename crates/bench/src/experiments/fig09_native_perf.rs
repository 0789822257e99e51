//! Figure 9 — native performance of FPT, PTP and FPT+PTP against the
//! state of the art (ASAP, ECH, CSALT), across the three large-page
//! fragmentation scenarios, normalized to the 0 % LP baseline.

use flatwalk_baselines::{AsapScheme, EchScheme, PomTlbScheme, SchemeSimulation};
use flatwalk_bench::{grids, pct, print_table, run_cells, run_jobs, scenarios};
use flatwalk_os::FragmentationScenario;
use flatwalk_sim::{SimOptions, SimReport, TranslationConfig};
use flatwalk_types::stats::geometric_mean;
use flatwalk_workloads::WorkloadSpec;

fn run_scheme(
    name: &str,
    spec: &WorkloadSpec,
    opts: &SimOptions,
    scenario: FragmentationScenario,
) -> SimReport {
    let opts = opts.clone().with_scenario(scenario);
    let scaled = spec.clone().scaled_down(opts.footprint_divisor);
    let mixed = scenario.large_page_fraction > 0.0;
    match name {
        "ASAP" => {
            SchemeSimulation::build(spec.clone(), AsapScheme::new(opts.pwc.clone()), &opts).run()
        }
        "ECH" => {
            SchemeSimulation::build(spec.clone(), EchScheme::new(scaled.footprint, mixed), &opts)
                .run()
        }
        "CSALT" => SchemeSimulation::build(
            spec.clone(),
            PomTlbScheme::new(16 << 20, opts.pwc.clone()).csalt(),
            &opts,
        )
        .run(),
        other => panic!("unknown scheme {other}"),
    }
}

pub fn run(args: &crate::Args) {
    let mode = args.mode;
    let opts = mode.server_options();

    let suite = grids::fig09_suite(mode);
    let ours = TranslationConfig::fig9_set();
    let schemes = ["ASAP", "ECH", "CSALT"];

    // Normalization: every scenario's results are shown relative to the
    // *0 % LP* baseline, as in the stacked bars of Fig. 9 — computed
    // once and shared across scenarios (cells are deterministic).
    let base0 = run_cells("fig09:base", grids::fig09_base(mode, &opts).cells);

    // The full (scenario × config × workload) grid for our configs, and
    // the (scenario × scheme × workload) grid for the prior schemes.
    let native_reports = run_cells("fig09:native", grids::fig09_native(mode, &opts).cells);

    let scheme_jobs: Vec<(&str, WorkloadSpec, FragmentationScenario)> = scenarios()
        .iter()
        .flat_map(|(scenario, _)| {
            schemes
                .iter()
                .flat_map(|s| suite.iter().map(|w| (*s, w.clone(), *scenario)))
        })
        .collect();
    let scheme_reports = run_jobs(
        "fig09:schemes",
        scheme_jobs,
        opts.warmup_ops + opts.measure_ops,
        |(scheme, spec, scenario)| run_scheme(scheme, &spec, &opts, scenario),
    );
    for r in &scheme_reports {
        flatwalk_bench::emit::record_report("fig09:schemes", r);
    }

    let mut native_chunks = native_reports.chunks(suite.len());
    let mut scheme_chunks = scheme_reports.chunks(suite.len());

    for (_, label) in scenarios() {
        let mut rows = Vec::new();
        let mut geo: Vec<(String, f64)> = Vec::new();

        let mut eval = |label: String, reports: &[SimReport]| {
            let speedups: Vec<f64> = reports
                .iter()
                .map(|r| {
                    let b = base0.iter().find(|b| b.workload == r.workload).unwrap();
                    r.speedup_vs(b)
                })
                .collect();
            let g = geometric_mean(&speedups).unwrap();
            let mut row = vec![label.clone()];
            row.extend(speedups.iter().map(|s| pct(*s)));
            row.push(pct(g));
            rows.push(row);
            geo.push((label, g));
        };

        for cfg in &ours {
            eval(cfg.label.to_string(), native_chunks.next().unwrap());
        }
        for scheme in schemes {
            eval(scheme.to_string(), scheme_chunks.next().unwrap());
        }

        println!();
        println!("=== {label} (normalized to 0% LP baseline) ===");
        let mut headers: Vec<&str> = vec!["config"];
        let names: Vec<String> = suite.iter().map(|w| w.name.to_string()).collect();
        headers.extend(names.iter().map(|s| s.as_str()));
        headers.push("GEOMEAN");
        print_table(&headers, &rows);
        println!();
        for (l, g) in geo {
            println!("  {l:<9} geomean {}", pct(g));
        }
    }
    println!();
    println!("Paper reference (0% LP geomeans): FPT +2.3%, PTP +6.8%, FPT+PTP +9.2%,");
    println!("ASAP +1.7%, ECH -5.9%, CSALT +0.3%; improvements shrink as LP% grows.");
}
