//! The batch workloads (`native_grid`, `rival_engines`): repeated
//! cold-setup passes over one grid at two worker threads.
//!
//! An untraced pass clears the setup cache, builds every cell's frozen
//! space and stream prefix through the public setup functions
//! (`setup_s`), then runs the grid through production code; `wall_s`
//! is the two together. A run starts with one untraced check pass in
//! this process, whose reports the checks read. The timed passes of
//! `--trace 0` each run in a fresh child process (`--pass-child`), so
//! every pass starts from the same clean process, as a user's grid run
//! does: in one long-lived process the allocator keeps a different
//! share of each pass's freed memory, and the peak drifts from pass to
//! pass. A traced pass (`--trace 1`, alternating with untraced passes
//! in this process) re-assembles every cell from its layers with each
//! call timed (see [`crate::traced`]) and must reproduce the untraced
//! reports byte for byte.

use std::collections::{BTreeMap, HashMap};
use std::process::{Command, ExitCode, Stdio};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

use flatwalk_obs::{json, Json};
use flatwalk_sim::runner::{self, Progress};
use flatwalk_sim::{setup, RivalKind, SimReport};

use crate::checks::{self, Row, Violation};
use crate::jobs::{self, Job, Kind, Outcome, Scale, THREADS};
use crate::stats::{self, mean, median, percentile, ratio, Digest, Metrics};
use crate::traced::{self, LayerTotals};
use crate::Settings;

/// Timed passes every run makes at least, so every run pools the same
/// number of latency samples at minimum.
const MIN_PASSES: usize = 3;

/// Traced (and, under `--trace 1`, untraced) passes at least.
const MIN_TRACED_PASSES: usize = 2;

/// A traced cell's layer times must add up to its stamped run time
/// within this share of it (plus [`LAYER_SUM_SLACK_NS`]).
pub const LAYER_SUM_TOLERANCE: f64 = 0.05;

/// Absolute slack for the glue around a cell's layers.
const LAYER_SUM_SLACK_NS: u64 = 100_000;

/// The outcome of a batch workload run.
pub struct BatchResult {
    /// Metrics of the selected kind (end to end, or per layer).
    pub metrics: Metrics,
    /// Cells attempted (a failed cell ends the run with an error).
    pub attempted: u64,
    /// Lines printed before the result.
    pub info: Vec<String>,
}

/// What one untraced pass measured.
struct Pass {
    setup_s: f64,
    wall_s: f64,
    /// Process CPU time of the grid run (steal time excluded).
    run_cpu_s: f64,
    /// Peak resident memory during the pass.
    peak_rss_mb: f64,
    digest: String,
    /// Per cell: build-phase and run-phase nanoseconds.
    cells: Vec<(u64, u64)>,
}

impl Pass {
    fn to_json(&self) -> Json {
        let cells: Vec<Json> = self
            .cells
            .iter()
            .map(|&(setup, run)| Json::Array(vec![setup.into(), run.into()]))
            .collect();
        let mut o = Json::obj();
        o.push("setup_s", self.setup_s)
            .push("wall_s", self.wall_s)
            .push("run_cpu_s", self.run_cpu_s)
            .push("peak_rss_mb", self.peak_rss_mb)
            .push("digest", self.digest.as_str())
            .push("cells", cells);
        o
    }

    fn from_json(v: &Json) -> Option<Pass> {
        let num = |key: &str| match v.get(key)? {
            Json::Float(x) => Some(*x),
            other => other.as_u64().map(|x| x as f64),
        };
        let cells = v
            .get("cells")?
            .as_array()?
            .iter()
            .map(|c| match c.as_array()? {
                [setup, run] => Some((setup.as_u64()?, run.as_u64()?)),
                _ => None,
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Pass {
            setup_s: num("setup_s")?,
            wall_s: num("wall_s")?,
            run_cpu_s: num("run_cpu_s")?,
            peak_rss_mb: num("peak_rss_mb")?,
            digest: match v.get("digest")? {
                Json::Str(d) => d.clone(),
                _ => return None,
            },
            cells,
        })
    }
}

fn report_digest<'a>(reports: impl Iterator<Item = &'a SimReport>) -> String {
    let rendered: Vec<String> = reports.map(|r| r.to_json().to_string()).collect();
    Digest::of(rendered.iter().map(|s| s.as_bytes()))
}

fn failures(outcomes: &[Outcome]) -> Vec<Result<(), String>> {
    outcomes
        .iter()
        .map(|o| o.reports.as_ref().map(|_| ()).map_err(Clone::clone))
        .collect()
}

fn outcome_digest(outcomes: &[Outcome]) -> String {
    report_digest(outcomes.iter().flat_map(|o| o.reports.iter().flatten()))
}

/// One untraced pass in this process: cold setup build, then the
/// production grid run.
fn untraced_pass(grid: &[Job]) -> (Pass, Vec<Outcome>) {
    setup::clear_setup_cache();
    crate::reset_peak_rss();
    let t = Instant::now();
    jobs::prebuild(grid);
    let setup_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let cpu = crate::process_cpu_s(None);
    let outcomes = jobs::run_production(grid);
    let run_cpu_s = crate::process_cpu_s(None) - cpu;
    let run_s = t.elapsed().as_secs_f64();
    let peak_rss_mb = crate::peak_rss_mb(None);
    let pass = Pass {
        setup_s,
        wall_s: setup_s + run_s,
        run_cpu_s,
        peak_rss_mb,
        digest: outcome_digest(&outcomes),
        cells: outcomes.iter().map(|o| (o.setup_ns, o.run_ns)).collect(),
    };
    (pass, outcomes)
}

/// The `--pass-child` side: one untraced pass of `grid` in this fresh
/// process, printed as one JSON line; a failed cell exits non-zero.
pub fn pass_child(grid: &[Job]) -> ExitCode {
    let labels: Vec<String> = grid.iter().map(Job::label).collect();
    let (pass, outcomes) = untraced_pass(grid);
    if let Err(v) = checks::no_failures(&labels, &failures(&outcomes)) {
        eprintln!("perfbench pass child: {v}");
        return ExitCode::FAILURE;
    }
    println!("{}", pass.to_json());
    ExitCode::SUCCESS
}

/// One untraced pass of workload `name` in a fresh child process.
fn child_pass(name: &str, settings: &Settings) -> Result<Pass, Violation> {
    let exe = std::env::current_exe().map_err(|e| Violation(format!("current_exe: {e}")))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--pass-child", name, &settings.seed.to_string()]);
    if settings.scale == Scale::Tiny {
        cmd.arg("--tiny");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| Violation(format!("running a {name} pass: {e}")))?;
    if !out.status.success() {
        return Err(Violation(format!(
            "a {name} pass exited with {}",
            out.status
        )));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    json::parse(stdout.trim())
        .ok()
        .as_ref()
        .and_then(Pass::from_json)
        .ok_or_else(|| Violation(format!("a {name} pass printed no result")))
}

/// What one traced pass measured.
struct TracedPass {
    wall_s: f64,
    digest: String,
    layers: LayerTotals,
    setup_misses: u64,
    busy_frac: f64,
    tail_idle_s: f64,
    worst_layer_gap: f64,
}

/// One traced pass on a cold setup cache.
fn traced_pass(grid: &[Job], timer_ns: f64) -> Result<TracedPass, Violation> {
    setup::clear_setup_cache();
    let misses_before = setup::setup_stats().misses;
    type Stamp = (ThreadId, Instant, Instant);
    let stamps: Mutex<Vec<Stamp>> = Mutex::new(Vec::new());
    let start = Instant::now();
    let results = runner::run_ordered(
        grid.iter().collect(),
        THREADS,
        &Progress::quiet(grid.len()),
        |job| job.sim_ops(),
        |job| {
            let begin = Instant::now();
            let result =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| traced::run(job)))
                    .unwrap_or_else(|p| Err(jobs::panic_message(&p)));
            let end = Instant::now();
            stamps
                .lock()
                .expect("stamp list lock is never held across a panic")
                .push((std::thread::current().id(), begin, end));
            (result, (end - begin).as_nanos() as u64)
        },
    );
    let wall_s = start.elapsed().as_secs_f64();
    let labels: Vec<String> = grid.iter().map(Job::label).collect();
    let (results, cell_ns): (Vec<traced::Traced>, Vec<u64>) = results.into_iter().unzip();
    checks::no_failures(&labels, &results)?;
    let mut layers = LayerTotals::default();
    let mut worst_layer_gap = 0.0f64;
    for ((job, result), &cell) in grid.iter().zip(&results).zip(&cell_ns) {
        let (_, trace) = result.as_ref().expect("failures returned above");
        let sum = trace.layer_sum_ns();
        let gap = cell.abs_diff(sum);
        worst_layer_gap = worst_layer_gap.max(ratio(gap as f64, cell as f64));
        if gap as f64 > LAYER_SUM_TOLERANCE * cell as f64 + LAYER_SUM_SLACK_NS as f64 {
            return Err(Violation(format!(
                "traced cell {}: layer times sum to {sum} ns, its run took {cell} ns",
                job.label()
            )));
        }
        layers.add(job, trace, timer_ns);
    }
    let digest = report_digest(
        results
            .iter()
            .flat_map(|r| r.as_ref().map(|(reports, _)| reports).into_iter().flatten()),
    );

    let stamps = stamps.into_inner().expect("workers joined");
    let busy: f64 = stamps.iter().map(|(_, b, e)| (*e - *b).as_secs_f64()).sum();
    let end = stamps.iter().map(|s| s.2).max().unwrap_or(start);
    let mut last_end: HashMap<ThreadId, Instant> = HashMap::new();
    for &(thread, _, e) in &stamps {
        let slot = last_end.entry(thread).or_insert(e);
        *slot = (*slot).max(e);
    }
    let first_idle = if last_end.len() < THREADS.min(grid.len()) {
        start
    } else {
        last_end.values().copied().min().unwrap_or(start)
    };
    Ok(TracedPass {
        wall_s,
        digest,
        layers,
        setup_misses: setup::setup_stats().misses - misses_before,
        busy_frac: busy / (THREADS as f64 * wall_s),
        tail_idle_s: end.saturating_duration_since(first_idle).as_secs_f64(),
        worst_layer_gap,
    })
}

/// Cost of one `Instant::now()`, the timer overhead charged to every
/// timed interval.
fn timer_cost_ns() -> f64 {
    let samples: Vec<f64> = (0..64)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..64 {
                std::hint::black_box(Instant::now());
            }
            t.elapsed().as_nanos() as f64 / 64.0
        })
        .collect();
    median(&samples)
}

/// Runs a batch workload for `settings`.
pub fn run(name: &str, grid: Vec<Job>, settings: &Settings) -> Result<BatchResult, Violation> {
    let labels: Vec<String> = grid.iter().map(Job::label).collect();
    let deadline = Instant::now() + settings.seconds;
    let timer_ns = timer_cost_ns();

    // The check pass: its reports are checked, and every later pass
    // must reproduce their digest.
    let (first, mut outcomes) = untraced_pass(&grid);
    checks::no_failures(&labels, &failures(&outcomes))?;
    if settings.corrupt {
        corrupt(&mut outcomes);
    }
    let rows: Vec<Row<'_>> = grid
        .iter()
        .zip(&outcomes)
        .flat_map(|(job, o)| {
            o.reports
                .iter()
                .flatten()
                .map(move |report| Row { job, report })
        })
        .collect();
    checks::invariants(&rows)?;
    numa_walk_steps(&grid, &outcomes)?;
    let digest = outcome_digest(&outcomes);

    // Timed passes: fresh processes for `--trace 0`; for `--trace 1`,
    // untraced passes in this process (the check pass first) alternate
    // with traced ones, so the trace overhead compares like with like.
    let mut passes: Vec<Pass> = Vec::new();
    let mut traced: Vec<TracedPass> = Vec::new();
    let mut attempted = grid.len();
    if settings.trace {
        passes.push(first);
    }
    loop {
        let enough = if settings.trace {
            passes.len() >= MIN_TRACED_PASSES && traced.len() >= MIN_TRACED_PASSES
        } else {
            passes.len() >= MIN_PASSES
        };
        if enough && Instant::now() >= deadline {
            break;
        }
        let pass_digest = if !settings.trace {
            let pass = child_pass(name, settings)?;
            let d = pass.digest.clone();
            passes.push(pass);
            d
        } else if traced.len() < passes.len() {
            let pass = traced_pass(&grid, timer_ns)?;
            let d = pass.digest.clone();
            traced.push(pass);
            d
        } else {
            let (pass, outcomes) = untraced_pass(&grid);
            checks::no_failures(&labels, &failures(&outcomes))?;
            let d = pass.digest.clone();
            passes.push(pass);
            d
        };
        attempted += grid.len();
        checks::same_digest(name, &digest, &pass_digest)?;
    }

    let mut info = vec![format!(
        "# model digest {name}: {digest} (identical across the check pass, {} untraced passes {} and {} traced passes)",
        passes.len(),
        if settings.trace { "in this process" } else { "in fresh processes" },
        traced.len()
    )];
    let mut metrics = Metrics::default();
    let per_pass =
        |f: &dyn Fn(&Pass) -> f64| -> f64 { median(&passes.iter().map(f).collect::<Vec<_>>()) };
    let ops_of = |kind: Option<Kind>| -> u64 {
        grid.iter()
            .filter(|j| kind.is_none_or(|k| j.kind() == k))
            .map(Job::sim_ops)
            .sum()
    };
    let run_ns_of = |p: &Pass, kind: Option<Kind>| -> u64 {
        grid.iter()
            .zip(&p.cells)
            .filter(|(j, _)| kind.is_none_or(|k| j.kind() == k))
            .map(|(_, &(_, run_ns))| run_ns)
            .sum()
    };
    for kind in Kind::ALL.into_iter().filter(|&k| ops_of(Some(k)) > 0) {
        let ops = ops_of(Some(kind)) as f64;
        let value = per_pass(&|p| run_ns_of(p, Some(kind)) as f64 / ops);
        metrics.set(&format!("engine.ns_per_op.{}", kind.name()), value, "ns");
        let per_cell: Vec<f64> = passes
            .iter()
            .flat_map(|p| {
                grid.iter()
                    .zip(&p.cells)
                    .filter(|(j, _)| j.kind() == kind)
                    .map(|(j, &(_, run_ns))| run_ns as f64 / j.sim_ops() as f64)
            })
            .collect();
        let tail = stats::tail_percentile_for(per_cell.len());
        info.push(format!(
            "# ns_per_op.{}: {value:.1} ns/op overall; per cell p50 {:.1}, p{tail} {:.1} over {} cells",
            kind.name(),
            percentile(&per_cell, 50.0),
            percentile(&per_cell, tail),
            per_cell.len()
        ));
    }

    if settings.trace {
        per_layer(
            &mut metrics,
            &grid,
            &outcomes,
            &passes,
            &traced,
            timer_ns,
            &mut info,
        );
    } else {
        let all_ops = ops_of(None) as f64;
        metrics.set("setup_s", per_pass(&|p| p.setup_s), "s");
        metrics.set("wall_s", per_pass(&|p| p.wall_s), "s");
        // CPU time, not wall time: the host steals a varying share of
        // the guest's cycles, which would otherwise read as simulator
        // speed.
        metrics.set(
            "ns_per_op",
            per_pass(&|p| p.run_cpu_s * 1e9 / all_ops),
            "ns",
        );
        let latencies: Vec<f64> = passes
            .iter()
            .flat_map(|p| {
                p.cells
                    .iter()
                    .map(|&(setup_ns, run_ns)| (setup_ns + run_ns) as f64 / 1e6)
            })
            .collect();
        let tail = stats::tail_percentile_for(grid.len() * MIN_PASSES);
        metrics.set("req_p50_ms", percentile(&latencies, 50.0), "ms");
        metrics.set("req_tail_ms", percentile(&latencies, tail), "ms");
        info.push(format!(
            "# req_tail_ms is the p{tail} of {} cell latencies (one request = one cell)",
            latencies.len()
        ));
        metrics.set(
            "req_per_s",
            per_pass(&|p| grid.len() as f64 / p.wall_s),
            "1/s",
        );
        // The mean: which cells the two workers happen to hold at once
        // sets a pass's peak, so the per-pass figures fall in groups a
        // median jumps between.
        metrics.set(
            "peak_rss_mb",
            mean(&passes.iter().map(|p| p.peak_rss_mb).collect::<Vec<_>>()),
            "MiB",
        );
    }
    Ok(BatchResult {
        metrics,
        attempted: attempted as u64,
        info,
    })
}

/// Re-runs the 2-node Mitosis and NUMA-Base cells (untimed) through the
/// scheme wrapper, whose step counters the walk-step check needs; their
/// reports must equal the production run's.
fn numa_walk_steps(grid: &[Job], outcomes: &[Outcome]) -> Result<(), Violation> {
    let mut steps = BTreeMap::new();
    for (job, outcome) in grid.iter().zip(outcomes) {
        let Job::Cell(cell) = job else { continue };
        if !matches!(cell.rival, Some((RivalKind::Mitosis { .. }, _))) {
            continue;
        }
        let (reports, trace) = traced::run(job).map_err(Violation)?;
        let want = outcome.reports.as_ref().map_err(|e| Violation(e.clone()))?;
        checks::same_bytes(
            &job.label(),
            &want[0].to_json().to_string(),
            &reports[0].to_json().to_string(),
        )?;
        if let Some((label, p)) = trace.scheme {
            steps.insert((label, reports[0].workload.clone()), p.remote_steps);
        }
    }
    checks::remote_steps(&steps)
}

/// Flips modelled statistics of the first report (`--corrupt`, for the
/// self-test): the next pass's digest no longer matches, so the checks
/// must refuse the run.
fn corrupt(outcomes: &mut [Outcome]) {
    if let Some(Ok(reports)) = outcomes.first_mut().map(|o| &mut o.reports) {
        let r = &mut reports[0];
        r.walk.accesses += r.walk.walks.max(1);
        r.cycles += 1;
    }
}

/// The per-layer metrics of a traced run.
fn per_layer(
    m: &mut Metrics,
    grid: &[Job],
    outcomes: &[Outcome],
    passes: &[Pass],
    traced: &[TracedPass],
    timer_ns: f64,
    info: &mut Vec<String>,
) {
    let med = |f: &dyn Fn(&TracedPass) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    m.set(
        "setup.space_ms",
        med(&|t| t.layers.space_ns as f64 / 1e6),
        "ms",
    );
    m.set(
        "setup.stream_ms",
        med(&|t| t.layers.stream_ns as f64 / 1e6),
        "ms",
    );
    m.set(
        "setup.cache_misses",
        med(&|t| t.setup_misses as f64),
        "count",
    );
    m.set(
        "os.table_mb",
        med(&|t| t.layers.tables.values().sum::<u64>() as f64 / (1 << 20) as f64),
        "MiB",
    );
    m.set(
        "engine.self_ns_per_op",
        med(&|t| ratio(t.layers.engine_self_ns, t.layers.engine_ops as f64)),
        "ns",
    );
    let single = |t: &TracedPass| {
        let mut p = t.layers.native;
        p.tlb_hit.ns += t.layers.multicore.tlb_hit.ns + t.layers.nested.tlb_hit.ns;
        p.tlb_hit.n += t.layers.multicore.tlb_hit.n + t.layers.nested.tlb_hit.n;
        p.walked.ns += t.layers.multicore.walked.ns;
        p.walked.n += t.layers.multicore.walked.n;
        p.data.ns += t.layers.multicore.data.ns + t.layers.nested.data.ns;
        p.data.n += t.layers.multicore.data.n + t.layers.nested.data.n;
        p
    };
    let hit = med(&|t| single(t).tlb_hit.mean_less(timer_ns));
    m.set("tlb.hit_ns", hit, "ns");
    m.set(
        "mmu.walk_ns",
        med(&|t| {
            let w = single(t).walked;
            if w.n == 0 {
                0.0
            } else {
                (w.mean_less(timer_ns) - hit).max(0.0)
            }
        }),
        "ns",
    );
    m.set(
        "mmu.nested_walk_ns",
        med(&|t| {
            let w = t.layers.nested.walked;
            if w.n == 0 {
                0.0
            } else {
                (w.mean_less(timer_ns) - hit).max(0.0)
            }
        }),
        "ns",
    );
    m.set(
        "mem.data_ns",
        med(&|t| single(t).data.mean_less(timer_ns)),
        "ns",
    );
    m.set(
        "multicore.span_ns",
        med(&|t| t.layers.multicore.spans.mean_less(timer_ns)),
        "ns",
    );
    for label in [
        "ASAP",
        "ECH",
        "POM_TLB",
        "CSALT",
        "NUMA-Base",
        "Mitosis",
        "Victima",
    ] {
        m.set(
            &format!("baselines.walk_ns.{label}"),
            med(&|t| {
                t.layers
                    .schemes
                    .get(label)
                    .map_or(0.0, |a| a.mean_less(timer_ns))
            }),
            "ns",
        );
    }
    m.set("runner.busy_frac", med(&|t| t.busy_frac), "ratio");
    m.set("runner.tail_idle_s", med(&|t| t.tail_idle_s), "s");
    let untraced = median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    m.set(
        "obs.trace_overhead_frac",
        med(&|t| t.wall_s) / untraced - 1.0,
        "ratio",
    );

    // Exact modelled counts, from the reports (identical in every pass).
    let reports: Vec<(&Job, &SimReport)> = grid
        .iter()
        .zip(outcomes)
        .flat_map(|(job, o)| o.reports.iter().flatten().map(move |r| (job, r)))
        .collect();
    let sum = |f: &dyn Fn(&Job, &SimReport) -> u64| -> f64 {
        reports.iter().map(|(j, r)| f(j, r)).sum::<u64>() as f64
    };
    let measured = sum(&|j, _| j.opts().measure_ops);
    m.set(
        "tlb.walks_per_kop",
        1e3 * ratio(sum(&|_, r| r.walk.walks), measured),
        "count",
    );
    m.set(
        "tlb.psc_hit_ratio",
        ratio(
            sum(&|_, r| r.pwc.iter().map(|(_, h)| h.hits).sum()),
            sum(&|_, r| r.pwc.iter().map(|(_, h)| h.hits + h.misses).sum()),
        ),
        "ratio",
    );
    m.set(
        "mmu.acc_per_walk",
        ratio(sum(&|_, r| r.walk.accesses), sum(&|_, r| r.walk.walks)),
        "count",
    );
    m.set(
        "mem.dram_per_kop",
        1e3 * ratio(sum(&|_, r| r.hier.dram.total()), measured),
        "count",
    );
    m.set(
        "mem.numa_remote_frac",
        ratio(
            sum(&|_, r| r.hier.numa.remote()),
            sum(&|_, r| r.hier.numa.remote() + r.hier.numa.local()),
        ),
        "ratio",
    );
    info.push(format!(
        "# traced layer times cover each cell's run time to within {:.2}% (bound {:.0}% + {} us); timer cost {timer_ns:.1} ns per stamp",
        100.0 * traced.iter().map(|t| t.worst_layer_gap).fold(0.0, f64::max),
        100.0 * LAYER_SUM_TOLERANCE,
        LAYER_SUM_SLACK_NS / 1000
    ));
}
