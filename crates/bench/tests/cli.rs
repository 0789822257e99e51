//! The experiment command line: stdout of a no-simulation experiment
//! and of one cheap `--scheme`-filtered cell, byte for byte against
//! committed goldens, and misuse rejected with exit status 2 before
//! anything runs.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_flatwalk-bench"))
        .args(args)
        .env("FLATWALK_PROGRESS", "0")
        .env_remove("FLATWALK_TRACE")
        .env_remove("FLATWALK_SPANS_FOLDED")
        .output()
        .expect("run flatwalk-bench")
}

fn assert_golden(out: Output, golden: &str) {
    assert!(out.status.success(), "run failed: {out:?}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), golden);
}

/// Exit status 2, nothing on stdout, and the usage text on stderr.
fn assert_usage_error(args: &[&str]) -> String {
    let out = run(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout: {out:?}");
    assert!(
        stderr.contains("usage: flatwalk-bench"),
        "{args:?}: {stderr}"
    );
    stderr
}

#[test]
fn table01_config_matches_golden() {
    assert_golden(
        run(&["table01_config"]),
        include_str!("golden/table01_config.txt"),
    );
}

#[test]
fn fig01_scheme_filtered_cell_matches_golden() {
    assert_golden(
        run(&[
            "fig01_headline",
            "--quick",
            "--threads",
            "1",
            "--scheme",
            "dc/FPT+PTP",
        ]),
        include_str!("golden/fig01_headline_dc_fpt_ptp.txt"),
    );
}

#[test]
fn misuse_exits_2_before_running() {
    for args in [
        &["table01_config", "--bogus"][..],
        &["fig01_headline", "--quik"],
        &["sec62_kernel_stress", "--scheme", "x"],
        &["headline_paper", "--quick"],
        &["fig01_headline", "--quick", "--threads", "abc"],
        &["fig01_headline", "--quick", "--faults", "x:nosuch"],
        &["fig01_headline", "--quick", "--accesses"],
        &[
            "fig01_headline",
            "--quick",
            "--scheme",
            "dc",
            "--faults",
            "7",
        ],
        &["fig01_headline", "--quick", "--paper"],
        &["fig01_headline", "--json"],
    ] {
        assert_usage_error(args);
    }
}

#[test]
fn unknown_experiment_lists_every_experiment() {
    let stderr = assert_usage_error(&["fig99_nosuch", "--quick"]);
    let names = [
        "ablation_context_switch",
        "ablation_ptp",
        "fig01_headline",
        "fig04_large_pages",
        "fig09_native_perf",
        "fig10_walk_anatomy",
        "fig11_multicore",
        "fig12_virtualized",
        "fig13_energy",
        "fig14_mobile",
        "headline_paper",
        "numa_rivals",
        "sec62_kernel_stress",
        "sec71_pwc_sweep",
        "sec71_ratio_sweep",
        "sec75_flatten_levels",
        "table01_config",
    ];
    for name in names {
        assert!(
            stderr.contains(&format!("  {name} ")),
            "{name} missing from usage:\n{stderr}"
        );
    }
    assert_usage_error(&[]);
}
