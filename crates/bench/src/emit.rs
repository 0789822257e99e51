//! Machine-readable experiment reports (`--json <path>`).
//!
//! Every experiment calls [`record_cells`] (grid batches) or
//! [`record_report`] (ad-hoc jobs) as results arrive, and `flatwalk-bench`
//! calls [`finish`] once before exiting. Without `--json` all of it is
//! a no-op — stdout stays byte-identical to a build without JSON
//! reporting.
//!
//! Output schema (`flatwalk-report-v1`), stable key order:
//!
//! ```text
//! {"schema":"flatwalk-report-v1",
//!  "experiment":"sec71_pwc_sweep",
//!  "manifest":{"threads":…,"setup_cache_hits":…,"setup_cache_misses":…,
//!              "setup_nanos":…,"run_nanos":…,"cells_recorded":…,
//!              "cell_wall_count":…,"cell_wall_p50":…,"cell_wall_p90":…,
//!              "cell_wall_p99":…,"cell_wall_p999":…},
//!  "cells":[{"label":…,"index":…,"status":"ok"|"retried"|"failed",
//!            "setup_nanos":…,"run_nanos":…,
//!            "report":{…SimReport::to_json…}},…],
//!  "metrics":{…merged registry, name-sorted…}}
//! ```
//!
//! Cells recorded via [`record_report`] carry no `status` /
//! `setup_nanos` / `run_nanos` keys (their phase split is not
//! attributable — the process-wide totals in the manifest still
//! include them). Failed cells carry `error` and `retries` instead of
//! timings and a report; retried-but-successful cells carry `retries`
//! alongside the usual keys. When a fault plan is installed the
//! manifest additionally records `faults_seed` and `faults_profile`.

use std::sync::{Mutex, OnceLock};

use flatwalk_obs::{metrics, Json};
use flatwalk_sim::runner::CellOutcome;
use flatwalk_sim::SimReport;
use flatwalk_types::stats::LatencyHistogram;

/// The sink path: `--json <path>`, as passed to
/// [`configure`](crate::configure).
fn path() -> Option<&'static str> {
    crate::SETTINGS.get().and_then(|s| s.json.as_deref())
}

/// Whether JSON reporting is enabled for this invocation.
pub fn enabled() -> bool {
    path().is_some()
}

fn cells() -> &'static Mutex<Vec<Json>> {
    static CELLS: OnceLock<Mutex<Vec<Json>>> = OnceLock::new();
    CELLS.get_or_init(|| Mutex::new(Vec::new()))
}

/// End-to-end wall time (setup + run) of every completed grid cell
/// this process ran, in the HDR histogram the manifest's
/// `cell_wall_*` percentiles come from. Recorded whether or not JSON
/// reporting is on — the percentiles also land in the global metrics
/// registry as `bench.cell_wall.*` gauges at [`publish_run_telemetry`].
fn cell_wall() -> &'static Mutex<LatencyHistogram> {
    static WALL: OnceLock<Mutex<LatencyHistogram>> = OnceLock::new();
    WALL.get_or_init(|| Mutex::new(LatencyHistogram::default()))
}

fn cell_wall_snapshot() -> LatencyHistogram {
    *cell_wall().lock().unwrap_or_else(|e| e.into_inner())
}

/// Records a finished grid batch (one JSON cell per [`CellOutcome`],
/// including its setup/run wall-time split). The runner has already
/// merged these reports' metrics into the global registry.
pub fn record_cells(label: &str, outcomes: &[CellOutcome]) {
    {
        let mut wall = cell_wall().lock().unwrap_or_else(|e| e.into_inner());
        for outcome in outcomes {
            if let CellOutcome::Ok {
                setup_nanos,
                run_nanos,
                ..
            } = outcome
            {
                wall.record(setup_nanos + run_nanos);
            }
        }
    }
    if !enabled() {
        return;
    }
    let mut sink = cells().lock().unwrap_or_else(|e| e.into_inner());
    for (index, outcome) in outcomes.iter().enumerate() {
        let mut o = Json::obj();
        o.push("label", label).push("index", index);
        match outcome {
            CellOutcome::Ok {
                report,
                setup_nanos,
                run_nanos,
                retries,
            } => {
                o.push("status", if *retries > 0 { "retried" } else { "ok" });
                if *retries > 0 {
                    o.push("retries", *retries as u64);
                }
                o.push("setup_nanos", *setup_nanos)
                    .push("run_nanos", *run_nanos)
                    .push("report", report.to_json());
            }
            CellOutcome::Failed { error, retries } => {
                o.push("status", "failed")
                    .push("error", error.as_str())
                    .push("retries", *retries as u64);
            }
        }
        sink.push(o);
    }
}

/// Records one report produced outside [`record_cells`] (multicore
/// cores, scheme comparisons, virtualized jobs) and merges its metrics
/// into the global registry.
pub fn record_report(label: &str, report: &SimReport) {
    metrics::merge_global(&report.metrics());
    if !enabled() {
        return;
    }
    let mut sink = cells().lock().unwrap_or_else(|e| e.into_inner());
    let index = sink.len();
    let mut o = Json::obj();
    o.push("label", label)
        .push("index", index)
        .push("report", report.to_json());
    sink.push(o);
}

/// End-of-run telemetry publication, JSON sink or not: pushes the
/// cell-wall latency percentiles into the global metrics registry as
/// `bench.cell_wall.*` gauges, and — when `FLATWALK_SPANS_FOLDED=<path>`
/// is set — writes the process's folded span aggregation as
/// flamegraph-collapsed text to that path. Called by
/// `flatwalk_bench::finish` before the JSON dump so the gauges land in
/// the report's metrics object.
pub fn publish_run_telemetry() {
    let wall = cell_wall_snapshot();
    if wall.count() > 0 {
        metrics::gauge_global("bench.cell_wall.count", wall.count() as f64);
        metrics::gauge_global("bench.cell_wall.p50_nanos", wall.p50() as f64);
        metrics::gauge_global("bench.cell_wall.p90_nanos", wall.p90() as f64);
        metrics::gauge_global("bench.cell_wall.p99_nanos", wall.p99() as f64);
        metrics::gauge_global("bench.cell_wall.p999_nanos", wall.p999() as f64);
    }
    if let Ok(path) = std::env::var("FLATWALK_SPANS_FOLDED") {
        if !path.is_empty() {
            if let Err(e) = std::fs::write(&path, flatwalk_obs::span::render_folded()) {
                eprintln!("FLATWALK_SPANS_FOLDED: cannot write {path:?}: {e}");
            }
        }
    }
}

/// Writes the collected cells, run manifest, and merged metrics to the
/// sink path (no-op when JSON reporting is off). Call once, after all
/// results are recorded; I/O errors are reported on stderr, never
/// panicked — a failed report must not kill a finished experiment.
pub fn finish(experiment: &str) {
    let Some(path) = path() else {
        return;
    };
    let recorded = std::mem::take(&mut *cells().lock().unwrap_or_else(|e| e.into_inner()));
    let stats = flatwalk_sim::setup::setup_stats();
    let mut manifest = Json::obj();
    manifest
        .push("threads", crate::threads())
        .push("setup_cache_hits", stats.hits)
        .push("setup_cache_misses", stats.misses)
        .push("setup_nanos", stats.setup_nanos)
        .push("run_nanos", stats.run_nanos)
        .push("cells_recorded", recorded.len());
    let wall = cell_wall_snapshot();
    if wall.count() > 0 {
        manifest
            .push("cell_wall_count", wall.count())
            .push("cell_wall_p50", wall.p50())
            .push("cell_wall_p90", wall.p90())
            .push("cell_wall_p99", wall.p99())
            .push("cell_wall_p999", wall.p999());
    }
    if let Some(plan) = flatwalk_faults::active() {
        manifest
            .push("faults_seed", plan.seed)
            .push("faults_profile", plan.profile.name());
    }
    let mut o = Json::obj();
    o.push("schema", "flatwalk-report-v1")
        .push("experiment", experiment)
        .push("manifest", manifest)
        .push("cells", Json::Array(recorded))
        .push("metrics", metrics::global_snapshot().to_json());
    let mut text = o.to_string();
    text.push('\n');
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("--json: cannot write {path:?}: {e}");
    }
}
