//! The `serve_mix` workload: one `flatwalk-serve` server process (the
//! serve library's `server::spawn`, run by this binary's
//! `--serve-child` mode), driven by this process in a closed loop over
//! two connections.
//!
//! A round starts a server on a fresh store directory, warms its setup
//! cache with one small untimed submit per grid, opens both connections
//! and has each answer a `ping` (so the server's accept poll is behind
//! them), then runs the seeded request lists of both connections
//! (timed: `wall_s`, request latencies). About a fifth of the requests
//! are fresh (a unique `measure_ops`, so their cells execute and are
//! written to the store); the rest repeat an earlier request of the
//! same connection and are served from the result tier. The server is
//! then shut down and restarted on the store the round filled, several
//! times, each timed until it has recovered the store and listens
//! (`setup_s`), then checked to answer `ping`.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use flatwalk_bench::Mode;
use flatwalk_obs::{json, Json};
use flatwalk_serve::client::Connection;
use flatwalk_serve::proto::JobSpec;
use flatwalk_serve::server::{self, ServerConfig};
use flatwalk_types::rng::splitmix_mix;

use crate::checks::{self, Violation};
use crate::jobs::Scale;
use crate::stats::{self, mean, median, percentile, ratio, Digest, Metrics};
use crate::Settings;

/// Client connections (closed loop, one outstanding request each).
const CONNECTIONS: usize = 2;

/// Server worker threads; each job runs its cells on one thread.
const WORKERS: usize = 2;

/// Rounds every run makes at least (enough latency samples that the
/// tail percentile lands inside the slowest request class).
const MIN_ROUNDS: usize = 5;

/// Restarts timed per round.
const RESTARTS: usize = 5;

/// The registered grids the mix submits, with the repeats per fresh
/// request of each. `numa_rivals` (24 cells) repeats most, so the
/// median request is a hit of that grid and not the edge between two
/// request classes: sorted by latency the classes are small-grid hits,
/// `numa_rivals` hits, then fresh requests.
const GRIDS: [(&str, usize); 3] = [("fig01", 3), ("sec71_pwc", 3), ("numa_rivals", 5)];

/// Per-scale request shape.
struct Shape {
    /// Fresh requests per grid and connection: the blocks of each
    /// connection's list, a block holding one fresh request per grid
    /// and that grid's repeats (see [`GRIDS`]).
    fresh_per_grid: usize,
    warmup_ops: u64,
    /// Measured ops of a fresh cell: large enough that simulating, not
    /// the store's two `fsync`s per executed cell, is most of its cost.
    measure_ops: u64,
    /// Measured ops of the untimed warm-up submits, which only need to
    /// build the grids' frozen spaces (their keys carry no op count).
    prewarm_ops: u64,
    footprint_divisor: u64,
}

fn shape(scale: Scale) -> Shape {
    match scale {
        Scale::Full => Shape {
            fresh_per_grid: 2,
            warmup_ops: 5_000,
            measure_ops: 40_000,
            prewarm_ops: 1_000,
            footprint_divisor: 64,
        },
        Scale::Tiny => Shape {
            fresh_per_grid: 1,
            warmup_ops: 200,
            measure_ops: 600,
            prewarm_ops: 100,
            footprint_divisor: 512,
        },
    }
}

/// Runs the server in this process until it drains (`--serve-child
/// STORE SOCKET`). It drains when told `shutdown`, or when its parent
/// closes stdin.
pub fn serve_child(store: PathBuf, socket: PathBuf) -> ExitCode {
    let mut config = ServerConfig::from_env();
    config.tcp = false;
    config.uds = Some(socket);
    config.workers = WORKERS;
    config.job_threads = 1;
    config.store_dir = Some(store);
    config.slo_ms = 0;
    config.chaos = false;
    let handle = match server::spawn(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("perfbench serve child: {e}");
            return ExitCode::FAILURE;
        }
    };
    let inner = Arc::clone(handle.inner());
    std::thread::spawn(move || {
        let _ = std::io::stdin().read_to_end(&mut Vec::new());
        inner.begin_drain();
    });
    println!("listening");
    let _ = std::io::stdout().flush();
    while !handle.inner().drained() {
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.wait();
    ExitCode::SUCCESS
}

/// A running server child, listening on a Unix socket beside its store.
struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    socket: PathBuf,
}

impl Server {
    fn start(dir: &Path) -> Result<Server, Violation> {
        let exe = std::env::current_exe().map_err(|e| Violation(format!("current_exe: {e}")))?;
        let socket = dir.join("sock");
        let mut child = Command::new(exe)
            .arg("--serve-child")
            .arg(dir.join("store"))
            .arg(&socket)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| Violation(format!("spawning the server: {e}")))?;
        let stdin = child.stdin.take();
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| Violation(format!("reading the server's address: {e}")))?;
        if line.trim() != "listening" {
            let _ = child.kill();
            let _ = child.wait();
            return Err(Violation(format!("server did not start: {line:?}")));
        }
        Ok(Server {
            child,
            stdin,
            socket,
        })
    }

    fn connect(&self) -> Result<Connection, Violation> {
        Connection::connect_uds(&self.socket).map_err(|e| Violation(format!("connect: {e}")))
    }

    /// Peak resident memory of the server process.
    fn peak_rss_mb(&self) -> f64 {
        crate::peak_rss_mb(Some(self.child.id()))
    }

    /// Asks the server to drain and waits for it to exit.
    fn stop(mut self) -> Result<(), Violation> {
        if let Ok(mut c) = self.connect() {
            let _ = c.request(r#"{"op":"shutdown"}"#);
        }
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(Violation(format!("server exited with {status}"))),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err(Violation("server did not drain within 20 s".into()));
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One submit the mix sends.
#[derive(Debug, Clone)]
struct Request {
    grid: &'static str,
    measure_ops: u64,
}

impl Request {
    fn spec(&self, shape: &Shape) -> JobSpec {
        let mut spec = JobSpec::new(self.grid, Mode::Quick);
        spec.warmup_ops = Some(shape.warmup_ops);
        spec.measure_ops = Some(self.measure_ops);
        spec.footprint_divisor = Some(shape.footprint_divisor);
        spec
    }

    fn key(&self) -> String {
        format!("{}|{}", self.grid, self.measure_ops)
    }

    fn sim_ops(&self, shape: &Shape) -> u64 {
        shape.warmup_ops + self.measure_ops
    }
}

/// The seeded request list of each connection. Every list is
/// `fresh_per_grid` blocks of the same mix — per grid one fresh request
/// and the grid's repeats — so every seed does the same work, and the
/// fresh requests of the two connections fall in the same stretches of
/// the loop for every seed; the seed only orders each block and picks
/// which earlier request each repeat names.
fn request_lists(seed: u64, shape: &Shape) -> Vec<Vec<Request>> {
    let mut fresh = 0u64;
    (0..CONNECTIONS)
        .map(|c| {
            let mut state = seed ^ splitmix_mix(c as u64 + 1);
            let mut next = move || {
                state = splitmix_mix(state.wrapping_add(0x9e37_79b9_7f4a_7c15));
                state
            };
            // (grid, is_fresh) slots, shuffled block by block.
            let mut slots: Vec<(&'static str, bool)> = Vec::new();
            for _ in 0..shape.fresh_per_grid {
                let mut block: Vec<(&'static str, bool)> = GRIDS
                    .iter()
                    .flat_map(|&(g, repeats)| {
                        std::iter::once((g, true)).chain(std::iter::repeat_n((g, false), repeats))
                    })
                    .collect();
                for i in (1..block.len()).rev() {
                    block.swap(i, (next() % (i as u64 + 1)) as usize);
                }
                slots.extend(block);
            }
            // A grid's first slot must be fresh: swap in its next fresh.
            for i in 0..slots.len() {
                let (g, is_fresh) = slots[i];
                if !is_fresh && !slots[..i].iter().any(|&(h, f)| h == g && f) {
                    let j = (i + 1..slots.len())
                        .find(|&j| slots[j] == (g, true))
                        .expect("every grid has a fresh slot");
                    slots.swap(i, j);
                }
            }
            let mut list: Vec<Request> = Vec::new();
            for (grid, is_fresh) in slots {
                if is_fresh {
                    fresh += 1;
                    list.push(Request {
                        grid,
                        measure_ops: shape.measure_ops + fresh,
                    });
                } else {
                    let earlier: Vec<&Request> = list.iter().filter(|r| r.grid == grid).collect();
                    let pick = earlier[(next() % earlier.len() as u64) as usize].clone();
                    list.push(pick);
                }
            }
            list
        })
        .collect()
}

/// One served cell of a reply.
struct CellRec {
    index: u64,
    cached: bool,
    report: String,
}

/// One completed submit.
struct Reply {
    request: Request,
    latency_ms: f64,
    cells: Vec<CellRec>,
}

/// Sends one streamed submit and reads its events through `done`.
fn submit(conn: &mut Connection, request: &Request, shape: &Shape) -> Result<Reply, Violation> {
    let what = request.key();
    let io = |e: std::io::Error| Violation(format!("submit {what}: {e}"));
    let start = Instant::now();
    conn.send(&request.spec(shape).to_request_line(true))
        .map_err(io)?;
    let mut cells = Vec::new();
    loop {
        let line = conn
            .recv_line()
            .map_err(io)?
            .ok_or_else(|| Violation(format!("submit {what}: server closed the stream")))?;
        if line.starts_with(r#"{"ok":true,"event":"cell""#) {
            cells.push(parse_cell(&line).ok_or_else(|| {
                Violation(format!(
                    "submit {what}: failed or malformed cell: {}",
                    clip(&line)
                ))
            })?);
            continue;
        }
        let v = json::parse(&line).map_err(|e| Violation(format!("submit {what}: {e}")))?;
        if v.get("ok") != Some(&Json::Bool(true)) {
            return Err(Violation(format!("submit {what} refused: {}", clip(&line))));
        }
        if v.get("event") == Some(&Json::Str("done".into())) {
            let failed = v.get("failed").and_then(Json::as_u64).unwrap_or(1);
            if failed > 0 {
                return Err(Violation(format!("submit {what}: {failed} cells failed")));
            }
            break;
        }
    }
    Ok(Reply {
        request: request.clone(),
        latency_ms: start.elapsed().as_secs_f64() * 1e3,
        cells,
    })
}

fn clip(s: &str) -> &str {
    &s[..s.len().min(200)]
}

/// Splits a `cell` event into its service fields and the verbatim
/// report bytes; `None` for a failed or malformed cell.
fn parse_cell(line: &str) -> Option<CellRec> {
    const MARK: &str = ",\"report\":";
    let at = line.find(MARK)?;
    let head = json::parse(&format!("{}}}}}", &line[..at])).ok()?;
    let record = head.get("record")?;
    if record.get("status") != Some(&Json::Str("ok".into())) {
        return None;
    }
    Some(CellRec {
        index: record.get("index")?.as_u64()?,
        cached: record.get("cached") == Some(&Json::Bool(true)),
        report: line
            .get(at + MARK.len()..line.len().checked_sub(2)?)?
            .to_string(),
    })
}

/// What one round measured.
struct Round {
    wall_s: f64,
    replies: Vec<Reply>,
    digest: String,
    /// Server CPU time in the timed loop per simulated op it executed.
    ns_per_op: f64,
    peak_rss_mb: f64,
    restarts_s: Vec<f64>,
    server: Option<Json>,
    store_entries: u64,
}

/// A scratch directory inside the working directory, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Result<ScratchDir, Violation> {
        let dir = PathBuf::from(".perfbench_tmp").join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| Violation(format!("creating {}: {e}", dir.display())))?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn ping(conn: &mut Connection) -> Result<(), Violation> {
    let pong = conn
        .request(r#"{"op":"ping"}"#)
        .map_err(|e| Violation(format!("ping: {e}")))?;
    if pong.contains(r#""ok":true"#) {
        Ok(())
    } else {
        Err(Violation(format!("ping: {}", clip(&pong))))
    }
}

fn metrics_reply(server: &Server) -> Result<Json, Violation> {
    let line = server
        .connect()?
        .request(r#"{"op":"metrics"}"#)
        .map_err(|e| Violation(format!("metrics: {e}")))?;
    json::parse(&line).map_err(|e| Violation(format!("metrics reply: {e}")))
}

fn server_counter(m: &Json, key: &str) -> u64 {
    m.get("server")
        .and_then(|s| s.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// One round on a fresh store. `executed` maps request key and cell
/// index to the report bytes of the reply that executed the cell.
fn round(
    index: usize,
    lists: &[Vec<Request>],
    shape: &Shape,
    settings: &Settings,
    executed: &mut BTreeMap<(String, u64), String>,
) -> Result<Round, Violation> {
    let store = ScratchDir::new(&format!("round{index}"))?;
    let server = Server::start(&store.0)?;
    // Untimed warm-up: one small submit per grid builds the grids'
    // frozen spaces.
    {
        let mut conn = server.connect()?;
        for (grid, _) in GRIDS {
            let warm = Request {
                grid,
                measure_ops: shape.prewarm_ops,
            };
            submit(&mut conn, &warm, shape)?;
        }
    }
    let mut conns = Vec::new();
    for _ in lists {
        let mut conn = server.connect()?;
        ping(&mut conn)?;
        conns.push(conn);
    }
    let before = settings.trace.then(|| metrics_reply(&server)).transpose()?;
    let start = Instant::now();
    let cpu_before = crate::process_cpu_s(Some(server.child.id()));
    let results: Vec<Result<Vec<Reply>, Violation>> = std::thread::scope(|scope| {
        let handles: Vec<_> = lists
            .iter()
            .zip(conns)
            .map(|(list, mut conn)| {
                scope.spawn(move || {
                    list.iter()
                        .map(|r| submit(&mut conn, r, shape))
                        .collect::<Result<Vec<Reply>, Violation>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(Violation("client thread panicked".into())))
            })
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let server_cpu_s = crate::process_cpu_s(Some(server.child.id())) - cpu_before;
    let mut replies = Vec::new();
    for r in results {
        replies.extend(r?);
    }
    let server_metrics = match before {
        Some(before) => {
            let after = metrics_reply(&server)?;
            let mut o = Json::obj();
            for key in [
                "cells_executed",
                "cells_coalesced",
                "cache_hits",
                "cache_misses",
            ] {
                o.push(
                    key,
                    server_counter(&after, key).saturating_sub(server_counter(&before, key)),
                );
            }
            let queue_wait = after
                .get("latency")
                .and_then(|l| l.get("queue_wait"))
                .and_then(|q| q.get("p50"))
                .and_then(Json::as_u64)
                .unwrap_or(0);
            o.push("queue_wait_p50_ns", queue_wait);
            let misses = after
                .get("metrics")
                .and_then(|m| m.get("setup.cache.miss"))
                .and_then(Json::as_u64)
                .unwrap_or(0);
            o.push("setup_cache_misses", misses);
            Some(o)
        }
        None => None,
    };
    let peak_rss_mb = server.peak_rss_mb();
    server.stop()?;

    // Byte identity: every cached cell equals the reply that executed it.
    let mut ops = 0u64;
    for reply in &replies {
        let key = reply.request.key();
        for cell in &reply.cells {
            let slot = (key.clone(), cell.index);
            if cell.cached {
                if let Some(bytes) = executed.get(&slot) {
                    checks::same_bytes(&format!("{key} cell {}", cell.index), bytes, &cell.report)?;
                }
            } else {
                ops += reply.request.sim_ops(shape);
                let bytes = executed.entry(slot).or_insert_with(|| cell.report.clone());
                if settings.corrupt {
                    bytes.push(' ');
                }
                checks::same_bytes(&format!("{key} cell {}", cell.index), bytes, &cell.report)?;
            }
        }
    }
    // Replies in request-list order (connection by connection), cells
    // in index order: the round's model digest.
    let mut ordered: Vec<&CellRec> = Vec::new();
    for reply in &replies {
        let mut cells: Vec<&CellRec> = reply.cells.iter().collect();
        cells.sort_by_key(|c| c.index);
        ordered.extend(cells);
    }
    let digest = Digest::of(ordered.iter().map(|c| c.report.as_bytes()));

    // Restarts are timed until the server has recovered the store and
    // listens. The `ping` after is untimed: the server polls for new
    // connections every 25 ms, so a first reply lands at a random phase
    // of that poll. All but the last restarted server are killed (the
    // store is built to survive that) rather than drained, because a
    // drain waits out the server's 25–50 ms polls; the last drains, so
    // a restarted server's clean exit is still checked.
    let mut restarts_s = Vec::new();
    let mut store_entries = 0;
    for restart in 0..RESTARTS {
        let t = Instant::now();
        let server = Server::start(&store.0)?;
        restarts_s.push(t.elapsed().as_secs_f64());
        ping(&mut server.connect()?)?;
        if settings.trace {
            store_entries = metrics_reply(&server)?
                .get("server")
                .and_then(|s| s.get("store"))
                .and_then(|s| s.get("entries"))
                .and_then(Json::as_u64)
                .unwrap_or(0);
        }
        if restart + 1 == RESTARTS {
            server.stop()?;
        }
    }
    Ok(Round {
        wall_s,
        ns_per_op: ratio(server_cpu_s * 1e9, ops as f64),
        replies,
        digest,
        peak_rss_mb,
        restarts_s,
        server: server_metrics,
        store_entries,
    })
}

/// Re-runs one served cell in process and compares its report bytes.
fn in_process_matches(
    seed: u64,
    executed: &BTreeMap<(String, u64), String>,
    lists: &[Vec<Request>],
    shape: &Shape,
) -> Result<(), Violation> {
    let keys: Vec<&(String, u64)> = executed.keys().collect();
    let (key, index) = keys[splitmix_mix(seed) as usize % keys.len()];
    let request = lists
        .iter()
        .flatten()
        .find(|r| &r.key() == key)
        .expect("executed keys come from the request lists");
    let grid = request
        .spec(shape)
        .resolve()
        .map_err(|e| Violation(format!("resolving {key}: {e}")))?;
    let report = grid.cells[*index as usize]
        .try_run()
        .map_err(|e| Violation(format!("in-process run of {key} cell {index}: {e}")))?;
    checks::same_bytes(
        &format!("in-process {key} cell {index}"),
        &report.to_json().to_string(),
        &executed[&(key.clone(), *index)],
    )
}

/// Runs `serve_mix` for `settings`.
pub fn run(settings: &Settings) -> Result<(Metrics, u64, Vec<String>), Violation> {
    let shape = shape(settings.scale);
    let lists = request_lists(settings.seed, &shape);
    let deadline = Instant::now() + settings.seconds;
    let mut rounds: Vec<Round> = Vec::new();
    let mut executed = BTreeMap::new();
    while rounds.len() < MIN_ROUNDS || Instant::now() < deadline {
        let r = round(rounds.len(), &lists, &shape, settings, &mut executed)?;
        if let Some(first) = rounds.first() {
            checks::same_digest("serve_mix", &first.digest, &r.digest)?;
        } else {
            in_process_matches(settings.seed, &executed, &lists, &shape)?;
        }
        rounds.push(r);
    }
    let attempted: u64 = rounds.iter().map(|r| r.replies.len() as u64).sum();
    let mut info = vec![format!(
        "# model digest serve_mix: {} (identical across {} rounds of {} requests, {} fresh cells executed per round)",
        rounds[0].digest,
        rounds.len(),
        rounds[0].replies.len(),
        rounds[0].replies.iter().flat_map(|r| &r.cells).filter(|c| !c.cached).count(),
    )];
    let med = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let mut m = Metrics::default();
    if settings.trace {
        let hit_or_miss = |hit: bool| -> Vec<f64> {
            rounds
                .iter()
                .flat_map(|r| &r.replies)
                .filter(|r| r.cells.iter().all(|c| c.cached) == hit)
                .map(|r| r.latency_ms)
                .collect()
        };
        m.set("serve.hit_ms_p50", median(&hit_or_miss(true)), "ms");
        m.set("serve.miss_ms_p50", median(&hit_or_miss(false)), "ms");
        let counter = |r: &Round, key: &str| {
            r.server
                .as_ref()
                .and_then(|s| s.get(key))
                .and_then(Json::as_u64)
                .unwrap_or(0) as f64
        };
        m.set(
            "serve.queue_wait_ms_p50",
            med(&|r| counter(r, "queue_wait_p50_ns") / 1e6),
            "ms",
        );
        m.set(
            "serve.cache_hit_ratio",
            med(&|r| {
                ratio(
                    counter(r, "cache_hits"),
                    counter(r, "cache_hits") + counter(r, "cache_misses"),
                )
            }),
            "ratio",
        );
        m.set(
            "serve.cells_executed",
            med(&|r| counter(r, "cells_executed")),
            "count",
        );
        m.set(
            "serve.cells_coalesced",
            med(&|r| counter(r, "cells_coalesced")),
            "count",
        );
        m.set("store.entries", med(&|r| r.store_entries as f64), "count");
        m.set(
            "setup.cache_misses",
            med(&|r| counter(r, "setup_cache_misses")),
            "count",
        );
        m.set("obs.trace_overhead_frac", 0.0, "ratio");
        info.push(
            "# serve_mix is timed from outside the server only; its traced rounds add nothing to the timed window"
                .to_string(),
        );
    } else {
        let restarts: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.restarts_s.iter().copied())
            .collect();
        m.set("setup_s", median(&restarts), "s");
        m.set("wall_s", med(&|r| r.wall_s), "s");
        m.set("ns_per_op", med(&|r| r.ns_per_op), "ns");
        let latencies: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.replies.iter().map(|x| x.latency_ms))
            .collect();
        let per_round: usize = CONNECTIONS
            * GRIDS
                .iter()
                .map(|(_, repeats)| (1 + repeats) * shape.fresh_per_grid)
                .sum::<usize>();
        let tail = stats::tail_percentile_for(per_round * MIN_ROUNDS);
        m.set("req_p50_ms", percentile(&latencies, 50.0), "ms");
        m.set("req_tail_ms", percentile(&latencies, tail), "ms");
        info.push(format!(
            "# req_tail_ms is the p{tail} of {} submit latencies; closed loop over {CONNECTIONS} connections",
            latencies.len()
        ));
        m.set(
            "req_per_s",
            med(&|r| r.replies.len() as f64 / r.wall_s),
            "1/s",
        );
        // The mean: a round's peak depends on whether the two
        // connections' largest fresh jobs happened to overlap, so the
        // per-round figures fall in two groups a median jumps between.
        m.set(
            "peak_rss_mb",
            mean(&rounds.iter().map(|r| r.peak_rss_mb).collect::<Vec<_>>()),
            "MiB",
        );
    }
    Ok((m, attempted, info))
}
