//! Shared harness for the `flatwalk-bench` experiment command line,
//! which regenerates the paper's tables and figures.
//!
//! Each experiment reproduces one table or figure; run one as
//! `cargo run --release -p flatwalk-bench -- fig09_native_perf
//! [--quick|--std|--paper]`. The per-figure renderers live in the
//! binary (`src/experiments/`); this library holds what they share
//! with `flatwalk-serve`: [`Mode`], the [`grids`] registry, the
//! parallel cell runners and the [`emit`] JSON sink. See `DESIGN.md`
//! §3 for the experiment index and `EXPERIMENTS.md` for recorded
//! paper-vs-measured results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::OnceLock;

use flatwalk_os::FragmentationScenario;
use flatwalk_sim::runner::{self, Cell, Progress};
use flatwalk_sim::{SimOptions, SimReport};
use flatwalk_types::stats::geometric_mean;

pub mod emit;
pub mod grids;

pub use flatwalk_sim::runner::Cell as GridCell;

/// The run-wide settings [`configure`] installs.
#[derive(Debug)]
struct Settings {
    threads: Option<usize>,
    json: Option<String>,
}

static SETTINGS: OnceLock<Settings> = OnceLock::new();

/// Configures this process for one experiment run: the worker-thread
/// count (`--threads`; `None` falls back to `FLATWALK_THREADS`, then
/// the machine's available parallelism), the JSON report path
/// (`--json`, see [`emit`]), the env-configured trace sink
/// (`FLATWALK_TRACE`) and span collection for `FLATWALK_SPANS_FOLDED`.
/// Call once, before the first grid runs.
pub fn configure(threads: Option<usize>, json: Option<String>) {
    flatwalk_obs::trace::init_from_env();
    // The folded span dump needs spans collected whether or not
    // `FLATWALK_TRACE` names the `spans` channel.
    if std::env::var("FLATWALK_SPANS_FOLDED").is_ok_and(|p| !p.is_empty()) {
        flatwalk_obs::trace::fold_spans();
    }
    SETTINGS
        .set(Settings { threads, json })
        .expect("configure runs once per process");
}

/// Grid cells that ended in [`CellOutcome::Failed`] so far. Read by
/// [`finish`] to decide the process exit status.
static FAILED_CELLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Number of grid cells that failed (after retries) in this process.
pub fn failed_cells() -> usize {
    FAILED_CELLS.load(std::sync::atomic::Ordering::Relaxed)
}

/// Publishes end-of-run telemetry (cell-wall latency gauges, the
/// optional `FLATWALK_SPANS_FOLDED` flamegraph dump), emits the JSON
/// report (like [`emit::finish`]), and then exits with status 1 if any
/// grid cell failed. `flatwalk-bench` calls this last, so a
/// faulted grid still renders every healthy cell and the full report
/// before the failure is surfaced to CI.
///
/// The `FLATWALK_TRACE` sink is torn down first: the tracer lives in a
/// process-wide static whose destructor never runs at exit, so without
/// an explicit [`flatwalk_obs::trace::uninstall`] the tail of its
/// `BufWriter` — up to 8 KiB of trailing records, which for low-volume
/// channels like `numa` can be the whole file — would be lost.
pub fn finish(experiment: &str) {
    flatwalk_obs::trace::uninstall();
    emit::publish_run_telemetry();
    emit::finish(experiment);
    let failed = failed_cells();
    if failed > 0 {
        eprintln!("{experiment}: {failed} cell(s) failed");
        std::process::exit(1);
    }
}

/// How much of the paper-scale work an experiment run performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Footprints ÷ 8, short streams — seconds per figure; shapes hold
    /// but absolute statistics are noisier.
    Quick,
    /// Footprints ÷ 2, medium streams — the default; minutes per
    /// figure.
    Std,
    /// Paper-scale footprints, long streams — tens of minutes for the
    /// big figures.
    Paper,
}

impl Mode {
    /// Parses a mode name as it appears on the wire (`"quick"`,
    /// `"std"`, `"paper"`; case-insensitive). It touches no
    /// process-global state, so the server can resolve per-request
    /// modes with it.
    pub fn parse(name: &str) -> Option<Mode> {
        match name.trim().to_ascii_lowercase().as_str() {
            "quick" => Some(Mode::Quick),
            "std" => Some(Mode::Std),
            "paper" => Some(Mode::Paper),
            _ => None,
        }
    }

    /// Simulation options for this mode on the server system.
    pub fn server_options(self) -> SimOptions {
        let mut opts = SimOptions::server();
        match self {
            Mode::Quick => {
                opts.footprint_divisor = 8;
                opts.phys_mem_bytes = 4 << 30;
                opts.warmup_ops = 60_000;
                opts.measure_ops = 150_000;
            }
            Mode::Std => {
                opts.footprint_divisor = 2;
                opts.phys_mem_bytes = 8 << 30;
                opts.warmup_ops = 120_000;
                opts.measure_ops = 300_000;
            }
            Mode::Paper => {
                opts.footprint_divisor = 1;
                opts.phys_mem_bytes = 16 << 30;
                opts.warmup_ops = 300_000;
                opts.measure_ops = 1_000_000;
            }
        }
        opts
    }

    /// Mobile options (Table 3) for this mode.
    pub fn mobile_options(self) -> SimOptions {
        let mut opts = SimOptions::mobile();
        if self == Mode::Quick {
            opts.warmup_ops = 40_000;
            opts.measure_ops = 120_000;
        }
        opts
    }

    /// Short banner line describing the mode.
    pub fn banner(self) -> String {
        format!("mode: {:?} (use --quick / --std / --paper to change)", self)
    }
}

/// Worker-thread count for this run (see [`configure`]). Grid
/// results are byte-identical at any value.
pub(crate) fn threads() -> usize {
    runner::resolve_threads(SETTINGS.get().and_then(|s| s.threads))
}

/// Runs a batch of native-simulation cells across the worker pool
/// (see [`configure`]), returning reports in cell order. Each cell's
/// report and setup/run time split are forwarded to the JSON sink
/// ([`emit`]) when one is configured.
///
/// A failed cell (panic or [`SimError`](flatwalk_sim::SimError) after
/// retries) does not abort the batch: it is announced on stdout, its
/// slot is filled with a zeroed placeholder report (`config:
/// "failed"`), and [`finish`] will exit non-zero once the whole grid
/// has been rendered.
pub fn run_cells(label: &'static str, cells: Vec<Cell>) -> Vec<SimReport> {
    let workloads: Vec<String> = cells.iter().map(|c| c.workload.name.to_string()).collect();
    let outcomes = runner::run_cells_timed(label, cells, threads());
    emit::record_cells(label, &outcomes);
    outcomes
        .into_iter()
        .zip(workloads)
        .enumerate()
        .map(|(index, (outcome, workload))| match outcome {
            runner::CellOutcome::Ok { report, .. } => report,
            runner::CellOutcome::Failed { error, retries } => {
                FAILED_CELLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                println!(
                    "cell failed: grid={label} index={index} workload={workload} retries={retries} error={error}"
                );
                SimReport {
                    workload,
                    config: "failed",
                    instructions: 0,
                    cycles: 0,
                    walk: Default::default(),
                    tlb: Default::default(),
                    hier: Default::default(),
                    energy: Default::default(),
                    census: Default::default(),
                    phase_flips: 0,
                    pwc: Vec::new(),
                    faults: Default::default(),
                }
            }
        })
        .collect()
}

/// Fans arbitrary simulation jobs across the worker pool, returning
/// results in job order. `sim_ops` is the per-job operation count shown
/// by the progress meter.
pub fn run_jobs<J, R, F>(label: &'static str, jobs: Vec<J>, sim_ops: u64, f: F) -> Vec<R>
where
    J: Send,
    R: Send,
    F: Fn(J) -> R + Sync,
{
    let progress = Progress::new(label, jobs.len());
    runner::run_ordered(jobs, threads(), &progress, |_| sim_ops, f)
}

/// Geometric-mean speedup of `reports` against `baselines`, matched by
/// workload name. Baselines are indexed by name once, so the cost is
/// O(reports + baselines) rather than a quadratic scan.
///
/// Zero speedups — the placeholder reports a failed cell leaves behind
/// have zero IPC — are excluded from the mean, so a faulted grid still
/// summarizes its healthy cells.
///
/// # Panics
///
/// Panics if a report's workload has no baseline; the message lists
/// the baseline names that are available.
pub fn geomean_speedup(reports: &[SimReport], baselines: &[SimReport]) -> f64 {
    let by_name: HashMap<&str, &SimReport> =
        baselines.iter().map(|b| (b.workload.as_str(), b)).collect();
    let speedups: Vec<f64> = reports
        .iter()
        .map(|r| {
            let b = by_name.get(r.workload.as_str()).unwrap_or_else(|| {
                let mut available: Vec<&str> = by_name.keys().copied().collect();
                available.sort_unstable();
                panic!(
                    "no baseline for {} (available baselines: {})",
                    r.workload,
                    available.join(", ")
                )
            });
            r.speedup_vs(b)
        })
        .filter(|s| *s > 0.0)
        .collect();
    geometric_mean(&speedups).expect("positive speedups")
}

/// Prints an aligned table: header row then data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(8) + 2))
            .collect::<String>()
    };
    println!("{}", line(headers.iter().map(|s| s.to_string()).collect()));
    println!("{}", "-".repeat(widths.iter().map(|w| w + 2).sum()));
    for row in rows {
        println!("{}", line(row.clone()));
    }
}

/// Formats a ratio as a signed percentage ("+9.2%").
pub fn pct(ratio: f64) -> String {
    format!("{:+.1}%", (ratio - 1.0) * 100.0)
}

/// The three scenarios with their paper labels.
pub fn scenarios() -> [(FragmentationScenario, &'static str); 3] {
    [
        (FragmentationScenario::NONE, "0% LP"),
        (FragmentationScenario::HALF, "50% LP"),
        (FragmentationScenario::FULL, "100% LP"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(1.092), "+9.2%");
        assert_eq!(pct(0.941), "-5.9%");
    }

    #[test]
    fn geomean_speedup_matches_by_name() {
        let mk = |name: &str, cycles: u64| SimReport {
            workload: name.into(),
            config: "x",
            instructions: 1000,
            cycles,
            walk: Default::default(),
            tlb: Default::default(),
            hier: Default::default(),
            energy: Default::default(),
            census: Default::default(),
            phase_flips: 0,
            pwc: Default::default(),
            faults: Default::default(),
        };
        let base = vec![mk("a", 2000), mk("b", 1000)];
        let test = vec![mk("b", 500), mk("a", 1000)];
        // a: 2x, b: 2x → geomean 2x.
        assert!((geomean_speedup(&test, &base) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "available baselines: a, b")]
    fn geomean_speedup_names_available_baselines() {
        let mk = |name: &str| SimReport {
            workload: name.into(),
            config: "x",
            instructions: 1000,
            cycles: 1000,
            walk: Default::default(),
            tlb: Default::default(),
            hier: Default::default(),
            energy: Default::default(),
            census: Default::default(),
            phase_flips: 0,
            pwc: Default::default(),
            faults: Default::default(),
        };
        geomean_speedup(&[mk("missing")], &[mk("a"), mk("b")]);
    }

    #[test]
    fn mode_options_scale() {
        assert!(
            Mode::Quick.server_options().footprint_divisor
                > Mode::Std.server_options().footprint_divisor
        );
        assert_eq!(Mode::Paper.server_options().footprint_divisor, 1);
    }
}
