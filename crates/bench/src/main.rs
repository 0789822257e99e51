//! `flatwalk-bench <experiment> [flags]`: regenerates one of the
//! paper's tables or figures. Run without arguments for the list of
//! experiments and flags.
//!
//! The command line is parsed once, up front: an unknown experiment or
//! flag, a malformed value, or a flag the experiment cannot honour
//! exits with status 2 and a usage message before anything runs.

#![forbid(unsafe_code)]

use flatwalk_bench::grids::{self, Grid};
use flatwalk_bench::{print_table, run_cells, Mode};
use flatwalk_faults::FaultPlan;
use flatwalk_sim::SimOptions;

/// How an experiment answers `--scheme <name>`.
#[derive(Clone, Copy)]
enum Scheme {
    /// Rejected: the experiment has no filterable grid.
    Unsupported,
    /// `main` runs the matching cells of this grid (label, builder)
    /// and prints raw per-cell numbers: the experiment's own tables
    /// normalize against sibling cells, which the filter drops.
    Cells(&'static str, fn(Mode, &SimOptions) -> Grid),
    /// The experiment filters its own grid with [`retain_scheme`].
    Own,
}

/// One row of [`EXPERIMENTS`].
struct Experiment {
    name: &'static str,
    /// First line of stdout, followed by the mode banner.
    title: &'static str,
    /// Whether `--quick` / `--std` / `--paper` apply; experiments that
    /// take none run at one fixed scale.
    takes_mode: bool,
    scheme: Scheme,
    run: fn(&Args),
}

/// One renderer module per experiment, named after it.
mod experiments {
    pub mod ablation_context_switch;
    pub mod ablation_ptp;
    pub mod fig01_headline;
    pub mod fig04_large_pages;
    pub mod fig09_native_perf;
    pub mod fig10_walk_anatomy;
    pub mod fig11_multicore;
    pub mod fig12_virtualized;
    pub mod fig13_energy;
    pub mod fig14_mobile;
    pub mod headline_paper;
    pub mod numa_rivals;
    pub mod sec62_kernel_stress;
    pub mod sec71_pwc_sweep;
    pub mod sec71_ratio_sweep;
    pub mod sec75_flatten_levels;
    pub mod table01_config;
}

/// Builds [`EXPERIMENTS`], one row per `name: title, takes_mode,
/// scheme;` line; `name` is also the module holding its `run`.
macro_rules! experiments {
    ($($name:ident: $title:literal, $takes_mode:literal, $scheme:expr;)*) => {
        const EXPERIMENTS: &[Experiment] = &[$(Experiment {
            name: stringify!($name),
            title: $title,
            takes_mode: $takes_mode,
            scheme: $scheme,
            run: experiments::$name::run,
        },)*];
    };
}

use Scheme::{Cells, Own, Unsupported};

experiments! {
    ablation_context_switch: "Ablation — context-switch frequency", true, Unsupported;
    ablation_ptp: "Ablation — PTP eviction bias and phase threshold", true, Cells("ablation_ptp", grids::ablation_ptp);
    fig01_headline: "Figure 1 — headline effects", true, Cells("fig01", grids::fig01);
    fig04_large_pages: "Figure 4 — replicated entries vs NF regions", true, Cells("fig04", grids::fig04);
    fig09_native_perf: "Figure 9 — native performance vs state of the art", true, Cells("fig09:native", grids::fig09_native);
    fig10_walk_anatomy: "Figure 10 — accesses per walk and walk latency", true, Cells("fig10", grids::fig10);
    fig11_multicore: "Figure 11 — multicore weighted speedup", true, Unsupported;
    fig12_virtualized: "Figure 12 — virtualized IPC", true, Unsupported;
    fig13_energy: "Figure 13 — dynamic energy, 0% LP", true, Unsupported;
    fig14_mobile: "Figure 14 — mobile (Table 3) virtualized flattening", true, Unsupported;
    headline_paper: "Headline comparisons at paper scale (divisor 1, 0% LP)", false, Unsupported;
    numa_rivals: "NUMA rivals — Victima / Mitosis vs native FPT+PTP", true, Own;
    sec62_kernel_stress: "§6.2 — flattened-table allocation failures under load", true, Unsupported;
    sec71_pwc_sweep: "§7.1 — PWC sweep on GUPS", true, Cells("sec71_pwc", grids::sec71_pwc);
    sec71_ratio_sweep: "§7.1 — PT:LLC ratio sweep", true, Cells("sec71_ratio", grids::sec71_ratio);
    sec75_flatten_levels: "§7.5 — flattening other levels", true, Cells("sec75:native", grids::sec75_native);
    table01_config: "Simulated system configurations (paper Tables 1 and 3)", false, Unsupported;
}

/// One parsed command line: the experiment and the value of each flag
/// (`mode` is [`Mode::Std`] when no mode flag is given).
struct Args {
    experiment: &'static Experiment,
    mode: Mode,
    scheme: Option<String>,
    accesses: bool,
    threads: Option<usize>,
    json: Option<String>,
    faults: Option<FaultPlan>,
}

impl Args {
    /// Parses `<experiment> [flags]`; every flag also accepts the
    /// `--flag=value` form.
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let name = argv.next().ok_or("no experiment given")?;
        let experiment = EXPERIMENTS
            .iter()
            .find(|e| e.name == name)
            .ok_or_else(|| format!("unknown experiment {name:?}"))?;
        let mut args = Args {
            experiment,
            mode: Mode::Std,
            scheme: None,
            accesses: false,
            threads: None,
            json: None,
            faults: None,
        };
        let mut mode = None;
        while let Some(arg) = argv.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((flag, value)) => (flag, Some(value.to_string())),
                None => (arg.as_str(), None),
            };
            let mut value = || {
                inline
                    .clone()
                    .or_else(|| argv.next())
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag {
                "--quick" | "--std" | "--paper" if inline.is_none() => {
                    let given = Mode::parse(&flag[2..]);
                    if mode.is_some_and(|m| Some(m) != given) {
                        return Err("give only one of --quick / --std / --paper".into());
                    }
                    mode = given;
                }
                "--accesses" if inline.is_none() => args.accesses = true,
                "--scheme" => args.scheme = Some(value()?),
                "--json" => args.json = Some(value()?),
                "--threads" => {
                    let v = value()?;
                    let n = v
                        .parse()
                        .map_err(|_| format!("--threads: {v:?} is not a count"))?;
                    args.threads = Some(n);
                }
                "--faults" => {
                    let plan = FaultPlan::parse(&value()?).map_err(|e| format!("--faults: {e}"))?;
                    args.faults = Some(plan);
                }
                _ => return Err(format!("unknown argument {arg:?}")),
            }
        }
        if mode.is_some() && !experiment.takes_mode {
            return Err(format!(
                "{name} runs at one fixed scale and takes no mode flag"
            ));
        }
        args.mode = mode.unwrap_or(Mode::Std);
        if args.scheme.is_some() && matches!(experiment.scheme, Unsupported) {
            return Err(format!("{name} has no grid for --scheme to filter"));
        }
        if args.scheme.is_some() && args.faults.is_some() {
            return Err("--scheme cannot be combined with --faults: fault plans key on grid positions, which filtering shifts".into());
        }
        if args.accesses && name != "fig12_virtualized" {
            return Err("--accesses applies only to fig12_virtualized".into());
        }
        Ok(args)
    }
}

fn usage() -> String {
    let mut text = String::from(
        "usage: flatwalk-bench <experiment> [--quick | --std | --paper] [--threads N]\n\
         \x20      [--json PATH] [--faults SEED[:PROFILE]] [--scheme NAME] [--accesses]\n\nexperiments:\n",
    );
    for e in EXPERIMENTS {
        text += &format!("  {:<25} {}\n", e.name, e.title);
    }
    text
}

/// Keeps the cells of `grid` whose label matches `--scheme` (if given),
/// announcing the filter on stdout. No match is a usage error (exit 2):
/// a typoed scheme name should not masquerade as a clean zero-cell run.
fn retain_scheme(args: &Args, label: &str, grid: &mut Grid) {
    let Some(filter) = &args.scheme else {
        return;
    };
    let before = grid.len();
    grid.retain_matching(filter);
    if grid.is_empty() {
        eprintln!("--scheme {filter}: no matching cells in {label} ({before} total)");
        std::process::exit(2);
    }
    println!("scheme filter: {filter} ({} of {before} cells)", grid.len());
}

/// Runs the `--scheme`-matching cells of a [`Scheme::Cells`] grid and
/// prints one row of raw numbers per cell.
fn run_filtered(args: &Args, label: &'static str, build: fn(Mode, &SimOptions) -> Grid) {
    let mut grid = build(args.mode, &args.mode.server_options());
    retain_scheme(args, label, &mut grid);
    let reports = run_cells(label, grid.cells);
    let rows: Vec<Vec<String>> = grid
        .labels
        .iter()
        .zip(&reports)
        .map(|(l, r)| {
            vec![
                l.clone(),
                format!("{:.4}", r.ipc()),
                format!("{:.2}", r.walk.accesses_per_walk()),
                format!("{:.1}", r.walk.latency_per_walk()),
            ]
        })
        .collect();
    print_table(&["cell", "IPC", "acc/walk", "walk-lat"], &rows);
}

fn main() {
    let args = Args::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("flatwalk-bench: {e}\n\n{}", usage());
        std::process::exit(2);
    });
    if let Some(plan) = args.faults {
        flatwalk_faults::install(plan);
    }
    flatwalk_bench::configure(args.threads, args.json.clone());
    let experiment = args.experiment;
    if experiment.takes_mode {
        println!("{} ({})", experiment.title, args.mode.banner());
    } else {
        println!("{}\n", experiment.title);
    }
    match experiment.scheme {
        Cells(label, build) if args.scheme.is_some() => run_filtered(&args, label, build),
        _ => (experiment.run)(&args),
    }
    flatwalk_bench::finish(experiment.name);
}
