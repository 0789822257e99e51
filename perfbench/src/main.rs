//! `perfbench` — host-speed benchmark of the flatwalk simulator.
//!
//! ```text
//! perfbench --workload <native_grid|rival_engines|serve_mix> --seed N
//!           --seconds S --trace <0|1> [--tiny] [--corrupt]
//! ```
//!
//! Measures what it costs a researcher to regenerate a grid or get an
//! answer from `flatwalk-serve` — host time, not modelled time. With
//! `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` the per-layer metrics of a separate traced run.
//! Every run checks the simulator's outputs (see `checks`) and exits
//! non-zero, printing no result, on any violation. `--tiny` shrinks
//! every grid for the self-test; `--corrupt` flips one modelled value
//! so the self-test can watch the checks fire. See `README.md`.

mod batch;
mod checks;
mod jobs;
mod serve_mix;
mod stats;
mod traced;

use std::process::ExitCode;
use std::time::Duration;

use flatwalk_obs::Json;

use crate::jobs::Scale;
use crate::stats::Metrics;

/// The end-to-end metrics every workload prints with `--trace 0`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ns_per_op", "ns"),
    ("req_p50_ms", "ms"),
    ("req_tail_ms", "ms"),
    ("req_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every workload prints with `--trace 1`; a
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("setup.space_ms", "ms"),
    ("setup.stream_ms", "ms"),
    ("setup.cache_misses", "count"),
    ("os.table_mb", "MiB"),
    ("engine.self_ns_per_op", "ns"),
    ("engine.ns_per_op.native", "ns"),
    ("engine.ns_per_op.virt", "ns"),
    ("engine.ns_per_op.multicore", "ns"),
    ("engine.ns_per_op.rival", "ns"),
    ("tlb.hit_ns", "ns"),
    ("tlb.walks_per_kop", "count"),
    ("tlb.psc_hit_ratio", "ratio"),
    ("mmu.walk_ns", "ns"),
    ("mmu.nested_walk_ns", "ns"),
    ("mmu.acc_per_walk", "count"),
    ("mem.data_ns", "ns"),
    ("mem.dram_per_kop", "count"),
    ("mem.numa_remote_frac", "ratio"),
    ("baselines.walk_ns.ASAP", "ns"),
    ("baselines.walk_ns.ECH", "ns"),
    ("baselines.walk_ns.POM_TLB", "ns"),
    ("baselines.walk_ns.CSALT", "ns"),
    ("baselines.walk_ns.NUMA-Base", "ns"),
    ("baselines.walk_ns.Mitosis", "ns"),
    ("baselines.walk_ns.Victima", "ns"),
    ("multicore.span_ns", "ns"),
    ("runner.busy_frac", "ratio"),
    ("runner.tail_idle_s", "s"),
    ("serve.hit_ms_p50", "ms"),
    ("serve.miss_ms_p50", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cells_executed", "count"),
    ("serve.cells_coalesced", "count"),
    ("store.entries", "count"),
    ("obs.trace_overhead_frac", "ratio"),
];

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["native_grid", "rival_engines", "serve_mix"];

/// Parsed command line.
pub struct Settings {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement time.
    pub seconds: Duration,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Grid scale.
    pub scale: Scale,
    /// Corrupt one report so the checks must fail (self-test).
    pub corrupt: bool,
}

fn parse_args(args: &[String]) -> Result<Settings, String> {
    let mut s = Settings {
        workload: String::new(),
        seed: 0,
        seconds: Duration::from_secs(10),
        trace: false,
        scale: Scale::Full,
        corrupt: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => s.workload = value()?.clone(),
            "--seed" => s.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let secs: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                s.seconds = Duration::from_secs_f64(secs.max(0.0));
            }
            "--trace" => {
                s.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--tiny" => s.scale = Scale::Tiny,
            "--corrupt" => s.corrupt = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&s.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not {:?}",
            WORKLOADS.join(", "),
            s.workload
        ));
    }
    Ok(s)
}

/// Peak resident memory (`VmHWM`) of `pid`, or of this process, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Starts a fresh peak-memory window for this process: hands freed
/// heap pages back to the system, so memory the allocator kept from an
/// earlier pass does not count, and resets `VmHWM` to the current
/// resident size.
pub fn reset_peak_rss() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` (glibc) takes no pointers and only returns
    // free heap pages to the system; it is thread-safe.
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// User + system CPU time of process `pid` (default: this one) so far,
/// in seconds; time the host steals from the guest is not included.
/// This process's own is read from its CPU-time clock (nanoseconds);
/// another's from `/proc/<pid>/stat`, in clock ticks of 10 ms.
pub fn process_cpu_s(pid: Option<u32>) -> f64 {
    let Some(pid) = pid else {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
        }
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut t = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `t` is a valid, writable `struct timespec` (64-bit
        // Linux layout) for the duration of the call.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
        return if rc == 0 {
            t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9
        } else {
            0.0
        };
    };
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 12th and 13th of those.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|v| v.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// `nproc`, `rustc -V`, the commit (when run from a git checkout) and
/// the seed, for the output's header line.
fn host_line(s: &Settings) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    let commit = std::fs::read_to_string(".git/HEAD")
        .ok()
        .and_then(|head| match head.trim().strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(format!(".git/{r}")).ok(),
            None => Some(head),
        })
        .map(|c| c.trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    format!(
        "# host nproc={nproc} rustc=\"{rustc}\" commit={commit} seed={} workload={} trace={} scale={:?}",
        s.seed,
        s.workload,
        u8::from(s.trace),
        s.scale
    )
}

/// Runs the selected workload: its metrics, attempted cells or
/// requests, and the reading-only lines.
fn run(s: &Settings) -> Result<(Metrics, u64, Vec<String>), checks::Violation> {
    match s.workload.as_str() {
        "serve_mix" => serve_mix::run(s),
        name => {
            let r = batch::run(name, batch_grid(name, s.seed, s.scale), s)?;
            Ok((r.metrics, r.attempted, r.info))
        }
    }
}

/// The grid of batch workload `name`.
fn batch_grid(name: &str, seed: u64, scale: Scale) -> Vec<jobs::Job> {
    if name == "native_grid" {
        jobs::native_grid(seed, scale)
    } else {
        jobs::rival_engines(seed, scale)
    }
}

/// `--pass-child WORKLOAD SEED [--tiny]`: one timed pass of a batch
/// workload, run by [`batch::run`] in a fresh process.
fn pass_child(args: &[String]) -> ExitCode {
    match args {
        [name, seed, rest @ ..] if name != "serve_mix" && WORKLOADS.contains(&name.as_str()) => {
            let Ok(seed) = seed.parse() else {
                return ExitCode::FAILURE;
            };
            let scale = if rest.iter().any(|a| a == "--tiny") {
                Scale::Tiny
            } else {
                Scale::Full
            };
            batch::pass_child(&batch_grid(name, seed, scale))
        }
        _ => ExitCode::FAILURE,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--serve-child") {
        return match (args.get(1), args.get(2)) {
            (Some(store), Some(socket)) => serve_mix::serve_child(store.into(), socket.into()),
            _ => ExitCode::FAILURE,
        };
    }
    if args.first().map(String::as_str) == Some("--pass-child") {
        return pass_child(&args[1..]);
    }
    let settings = match parse_args(&args) {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host_line(&settings));
    // Any failed cell or request ends the run as a violation, so a
    // printed result has no failures.
    let (metrics, attempted, info) = match run(&settings) {
        Ok(r) => r,
        Err(v) => {
            eprintln!("perfbench: correctness check failed: {v}");
            return ExitCode::FAILURE;
        }
    };
    for line in &info {
        println!("{line}");
    }
    let names: &[(&str, &str)] = if settings.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let mut selected = Metrics::default();
    for &(name, unit) in names {
        selected.set(name, metrics.get(name).unwrap_or(0.0), unit);
    }
    let mut out = Json::obj();
    out.push("correct", true)
        .push("attempted", attempted)
        .push("failed", 0u64)
        .push("metrics", selected.to_json());
    println!("{out}");
    ExitCode::SUCCESS
}
