//! §6.2 — kernel prototype stress test: rate of 2 MB allocation
//! failures (fallbacks to conventional 4 KB table nodes) for a
//! 100-process kernel build under 6 % and 50 % memory oversubscription.

use flatwalk_bench::{print_table, run_jobs, Mode};
use flatwalk_os::{kernel_build_stress, StressConfig};

pub fn run(args: &crate::Args) {
    let mode = args.mode;

    let invocations = match mode {
        Mode::Quick => 600,
        Mode::Std => 3464,
        Mode::Paper => 3464,
    };
    let paper = [(0.06, 0.005), (0.50, 0.12)];

    let outs = run_jobs("sec62", paper.to_vec(), invocations, |(ovs, _)| {
        kernel_build_stress(&StressConfig {
            oversubscription: ovs,
            invocations,
            ..StressConfig::default()
        })
    });

    let mut rows = Vec::new();
    for ((ovs, paper_rate), out) in paper.iter().zip(&outs) {
        rows.push(vec![
            format!("{:.0}%", ovs * 100.0),
            format!("{}", out.invocations),
            format!("{}", out.invocations_with_failure),
            format!("{:.2}%", out.invocation_failure_rate() * 100.0),
            format!("{:.1}%", paper_rate * 100.0),
            format!("{}", out.reclaimed_pages),
            format!("{}", out.compactions),
        ]);
    }
    print_table(
        &[
            "oversub",
            "invocations",
            "failed",
            "measured rate",
            "paper rate",
            "pages swapped",
            "compactions",
        ],
        &rows,
    );
    println!();
    println!("Every failure took the graceful fallback path (two 4 KB nodes).");
}
