//! `flatwalk-serve` — the resident experiment daemon.
//!
//! ```text
//! flatwalk-serve [--port N] [--uds PATH] [--no-tcp] [--workers N]
//!                [--job-threads N] [--queue-depth N] [--store DIR]
//!                [--slo-ms N] [--job-retries N] [--stall-secs N]
//!                [--chaos]
//! ```
//!
//! Binds `127.0.0.1:<port>` (default: an ephemeral port, announced on
//! stdout as `listening on 127.0.0.1:PORT`) and/or a Unix socket, then
//! serves `flatwalk-serve-v1` requests until told to stop. Graceful
//! shutdown: a client `shutdown` op or the first SIGTERM/SIGINT drains
//! — queued and in-flight jobs finish, new submissions are rejected
//! with `draining`, and the process exits 0 once idle. A second
//! SIGTERM/SIGINT also cancels cells that have not started yet (they
//! complete as failed `cancelled` records), for a fast but still
//! orderly exit.
//!
//! Results stay resident in memory (up to 64 MiB, least recently used
//! first out). `--store DIR` also makes them durable: computed cells
//! are written to a content-addressed store under `DIR` (tmp + fsync +
//! atomic rename), recovered on the next start, and re-served
//! byte-identical — a `kill -9` loses at most the cells in flight.
//! Entries computed by a different build of the model are deleted on
//! start, never served. `--slo-ms`, `--job-retries`, and
//! `--stall-secs` tune admission control and the worker supervisor;
//! `--chaos` allows chaos test hooks in submissions. Each flag
//! overrides its environment knob
//! (`FLATWALK_STORE_DIR`, `FLATWALK_SLO_MS`, `FLATWALK_JOB_RETRIES`,
//! `FLATWALK_JOB_STALL_SECS`, `FLATWALK_CHAOS`).

use std::process::ExitCode;
use std::time::Duration;

use flatwalk_serve::server::{self, ServerConfig};

/// Minimal signal plumbing: handlers only bump an atomic the main loop
/// polls. Raw `signal(2)` FFI keeps the workspace dependency-free.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicUsize, Ordering};

    pub static RECEIVED: AtomicUsize = AtomicUsize::new(0);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn bump(_signum: i32) {
        // Atomic increment is async-signal-safe.
        RECEIVED.fetch_add(1, Ordering::Relaxed);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub fn install() {
        unsafe {
            signal(SIGTERM, bump as *const () as usize);
            signal(SIGINT, bump as *const () as usize);
        }
    }

    pub fn received() -> usize {
        RECEIVED.load(Ordering::Relaxed)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}

    pub fn received() -> usize {
        0
    }
}

const USAGE: &str = "usage: flatwalk-serve [--port N] [--uds PATH] [--no-tcp] \
[--workers N] [--job-threads N] [--queue-depth N] [--store DIR] \
[--slo-ms N] [--job-retries N] [--stall-secs N] [--chaos]";

fn parse_config(args: &[String]) -> Result<ServerConfig, String> {
    let mut config = ServerConfig::from_env();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--port" => {
                config.port = value("--port")?
                    .parse()
                    .map_err(|e| format!("--port: {e}"))?;
            }
            "--uds" => config.uds = Some(value("--uds")?.into()),
            "--no-tcp" => config.tcp = false,
            "--workers" => {
                config.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--job-threads" => {
                config.job_threads = value("--job-threads")?
                    .parse()
                    .map_err(|e| format!("--job-threads: {e}"))?;
            }
            "--queue-depth" => {
                config.queue_depth = value("--queue-depth")?
                    .parse()
                    .map_err(|e| format!("--queue-depth: {e}"))?;
            }
            "--store" => config.store_dir = Some(value("--store")?.into()),
            "--slo-ms" => {
                config.slo_ms = value("--slo-ms")?
                    .parse()
                    .map_err(|e| format!("--slo-ms: {e}"))?;
            }
            "--job-retries" => {
                config.job_retries = value("--job-retries")?
                    .parse()
                    .map_err(|e| format!("--job-retries: {e}"))?;
            }
            "--stall-secs" => {
                config.stall_secs = value("--stall-secs")?
                    .parse()
                    .map_err(|e| format!("--stall-secs: {e}"))?;
            }
            "--chaos" => config.chaos = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(config)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_config(&args) {
        Ok(config) => config,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    flatwalk_obs::trace::init_from_env();
    sig::install();
    let handle = match server::spawn(config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("flatwalk-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(addr) = handle.addr() {
        println!("listening on {addr}");
    }
    if let Some(path) = handle.uds() {
        println!("listening on uds {}", path.display());
    }
    if let Some(disk) = handle.inner().store().disk() {
        println!(
            "store at {} ({} entries recovered, {} quarantined, {} stale removed)",
            disk.root().display(),
            disk.recovered(),
            disk.quarantined(),
            disk.stale(),
        );
    }
    println!(
        "flatwalk-serve ready ({} workers, queue depth {}); send {{\"op\":\"shutdown\"}} or SIGTERM to drain",
        handle.inner().config().workers.max(1),
        handle.inner().config().queue_depth,
    );
    let mut signalled = 0;
    while !handle.inner().drained() {
        let seen = sig::received();
        if seen > signalled {
            signalled = seen;
            if signalled == 1 {
                eprintln!("flatwalk-serve: draining (signal); repeat to cancel queued cells");
                handle.begin_drain();
            } else {
                eprintln!("flatwalk-serve: cancelling remaining cells");
                handle.cancel_remaining();
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    handle.wait();
    // The trace sink lives in a static that is never dropped at exit;
    // flush it explicitly or the BufWriter's tail is lost.
    flatwalk_obs::trace::uninstall();
    println!("flatwalk-serve: drained, exiting");
    ExitCode::SUCCESS
}
