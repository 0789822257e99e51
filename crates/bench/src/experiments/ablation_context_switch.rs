//! Ablation — context-switch frequency (§7.1's CSALT discussion).
//!
//! The paper attributes CSALT's weak showing to its design point:
//! "their assumption of very frequent (every 10 ms) context switches,
//! which would make a PWC less effective." This experiment recreates
//! that design point: a context switch flushes the on-chip TLBs and
//! PSCs but leaves the caches (and POM_TLB's in-DRAM array) warm, so as
//! switches become frequent the in-DRAM TLB's persistence should start
//! paying off — while PTP keeps paying regardless, because the *page
//! table itself* also survives switches in the caches.

use flatwalk_baselines::{PomTlbScheme, SchemeSimulation};
use flatwalk_bench::{pct, print_table, run_cells, run_jobs, GridCell, Mode};
use flatwalk_os::FragmentationScenario;
use flatwalk_sim::{SimReport, TranslationConfig};
use flatwalk_types::stats::geometric_mean;
use flatwalk_workloads::WorkloadSpec;

pub fn run(args: &crate::Args) {
    let mode = args.mode;
    let opts = mode.server_options();

    let suite = if mode == Mode::Quick {
        vec![WorkloadSpec::mcf(), WorkloadSpec::omnetpp()]
    } else {
        vec![
            WorkloadSpec::mcf(),
            WorkloadSpec::omnetpp(),
            WorkloadSpec::dc(),
            WorkloadSpec::tiger(),
            WorkloadSpec::liblinear(),
        ]
    };
    let scenario = FragmentationScenario::NONE;
    let intervals = [
        None,
        Some(100_000u64),
        Some(20_000),
        Some(5_000),
        Some(1_000),
    ];

    // Native cells: per interval, the baseline suite then the PTP suite.
    let mut native_cells: Vec<GridCell> = Vec::new();
    for &interval in &intervals {
        let mut o = opts.clone();
        o.context_switch_interval = interval;
        for cfg in [
            TranslationConfig::baseline(),
            TranslationConfig::prioritized(),
        ] {
            native_cells.extend(
                suite
                    .iter()
                    .map(|w| GridCell::new(w.clone(), cfg.clone(), scenario, o.clone())),
            );
        }
    }
    let native = run_cells("ablation_cs:native", native_cells);

    // CSALT jobs: per interval, the suite under the POM_TLB scheme.
    let csalt_jobs: Vec<(Option<u64>, WorkloadSpec)> = intervals
        .iter()
        .flat_map(|&interval| suite.iter().map(move |w| (interval, w.clone())))
        .collect();
    let csalt_all: Vec<SimReport> = run_jobs(
        "ablation_cs:csalt",
        csalt_jobs,
        opts.warmup_ops + opts.measure_ops,
        |(interval, w)| {
            let mut oo = opts.clone().with_scenario(scenario);
            oo.context_switch_interval = interval;
            SchemeSimulation::build(w, PomTlbScheme::new(16 << 20, oo.pwc.clone()).csalt(), &oo)
                .run()
        },
    );
    for r in &csalt_all {
        flatwalk_bench::emit::record_report("ablation_cs:csalt", r);
    }

    let mut rows = Vec::new();
    for ((interval, group), csalt) in intervals
        .iter()
        .zip(native.chunks(2 * suite.len()))
        .zip(csalt_all.chunks(suite.len()))
    {
        let (base, ptp) = group.split_at(suite.len());
        let geo = |r: &[SimReport]| {
            geometric_mean(
                &r.iter()
                    .zip(base)
                    .map(|(x, b)| x.speedup_vs(b))
                    .collect::<Vec<_>>(),
            )
            .unwrap()
        };
        let label = interval
            .map(|n| format!("every {n} ops"))
            .unwrap_or_else(|| "never".into());
        rows.push(vec![
            label,
            format!(
                "{:.4}",
                base.iter().map(|r| r.ipc()).sum::<f64>() / base.len() as f64
            ),
            pct(geo(ptp)),
            pct(geo(csalt)),
        ]);
    }
    print_table(
        &[
            "context switch",
            "base mean ipc",
            "PTP vs base",
            "CSALT vs base",
        ],
        &rows,
    );
    println!();
    println!("Finding: PTP keeps paying at every switch rate, and CSALT never");
    println!("recoups — because the radix page table's lines survive context");
    println!("switches in the (warm) caches just as well as CSALT's DRAM-TLB");
    println!("lines do. This is the paper's §7.1 point from the other side:");
    println!("CSALT's design needs many cold-cache processes, which the");
    println!("single-address-space methodology (theirs and ours) does not have.");
}
