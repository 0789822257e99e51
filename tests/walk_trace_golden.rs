//! Byte-exact pin of the `walks` trace channel: native FPT+PTP and Base
//! cells and one GF+HF virtualized cell are run with a [`JsonlTracer`]
//! capturing every walk record, and the JSONL must equal the golden
//! capture (`tests/golden/walk_trace/`) byte for byte.
//!
//! The aggregate tests (`tests/obs_trace.rs`, `tests/trace_analysis.rs`)
//! only check that the records sum to the walker's counters; this one
//! also pins each record's `psc_skipped`, its step order (for a nested
//! walk: the host steps of each guest entry before that guest step,
//! then the final data translation's host steps) and its latency.
//!
//! Regenerate (only when intentionally changing modelled behaviour):
//!
//! ```text
//! FLATWALK_REGEN_GOLDEN=1 cargo test --release --test walk_trace_golden
//! ```

use std::path::PathBuf;
use std::sync::Arc;

use flatwalk::sim::{
    NativeSimulation, SimOptions, TranslationConfig, VirtConfig, VirtualizedSimulation,
};
use flatwalk::workloads::WorkloadSpec;
use flatwalk_obs::trace::{self, Channels, JsonlTracer};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("walk_trace")
        .join(format!("{name}.jsonl"))
}

fn opts() -> SimOptions {
    let mut o = SimOptions::small_test();
    o.warmup_ops = 200;
    o.measure_ops = 800;
    o
}

/// Runs `cell` with only the `walks` channel captured to a file and
/// returns the file's contents.
fn capture(name: &str, cell: impl FnOnce()) -> String {
    let path = std::env::temp_dir().join(format!(
        "flatwalk-walk-trace-{name}-{}.jsonl",
        std::process::id()
    ));
    let path_str = path.to_str().expect("utf-8 temp path");
    trace::install(
        Arc::new(JsonlTracer::create(path_str).expect("create trace sink")),
        Channels {
            walks: true,
            ..Channels::default()
        },
    );
    cell();
    trace::uninstall();
    let text = std::fs::read_to_string(&path).expect("read trace capture");
    let _ = std::fs::remove_file(&path);
    text
}

fn check(name: &str, text: &str, failures: &mut Vec<String>) {
    let path = golden_path(name);
    if std::env::var("FLATWALK_REGEN_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, text).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{name}: missing golden {}: {e}", path.display()));
    if want != text {
        let line = want
            .lines()
            .zip(text.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| want.lines().count().min(text.lines().count()));
        failures.push(format!(
            "{name}: walk trace diverged from the golden at line {} ({} vs {} lines)",
            line + 1,
            text.lines().count(),
            want.lines().count()
        ));
    }
}

/// One test body: the tracer is process-global.
#[test]
fn walk_trace_records_match_golden_bytes() {
    trace::uninstall();
    let spec = WorkloadSpec::gups().scaled_mib(16);
    let mut failures = Vec::new();

    // Base walks a conventional table, so its PSC hits skip one to
    // three steps; FPT+PTP's flattened walks skip at most one.
    for (name, cfg) in [
        ("native_FPT_PTP", TranslationConfig::flattened_prioritized()),
        ("native_Base", TranslationConfig::baseline()),
    ] {
        let native = capture(name, || {
            NativeSimulation::build(spec.clone(), cfg, &opts()).run();
        });
        assert!(native.lines().count() > 0, "{name}: traced no walks");
        check(name, &native, &mut failures);
    }

    let gf_hf = VirtConfig::fig12_set()
        .into_iter()
        .find(|c| c.label == "GF+HF")
        .expect("fig12 set has GF+HF");
    let virt = capture("virt", || {
        VirtualizedSimulation::build(spec.clone(), gf_hf, &opts()).run();
    });
    assert!(virt.lines().count() > 0, "virtualized cell traced no walks");
    check("virt_GF_HF", &virt, &mut failures);

    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
