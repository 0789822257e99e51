//! Chaos harness for the serve stack: inject worker panics, slow
//! cells, and deadline pressure into a real in-process server and
//! assert graceful degradation — every job ends `done` (ok or cleanly
//! failed), the service never hangs, and the recovery counters are
//! visible over the wire.
//!
//! Complements `crates/serve/tests/restart_recovery.rs` (whole-process
//! SIGKILL + store recovery) and the store's own corruption unit
//! tests; here the process stays up and the faults are internal.

use flatwalk_bench::Mode;
use flatwalk_obs::{json, Json};
use flatwalk_serve::client::Connection;
use flatwalk_serve::proto::JobSpec;
use flatwalk_serve::server::{self, ServerConfig};

fn chaos_server(workers: usize) -> server::ServerHandle {
    let config = ServerConfig {
        tcp: true,
        port: 0,
        uds: None,
        workers,
        job_threads: 0,
        queue_depth: 8,
        store_dir: None,
        slo_ms: 0,
        job_retries: 1,
        stall_secs: 0,
        chaos: true,
    };
    server::spawn(config).expect("bind an ephemeral loopback port")
}

fn connect(handle: &server::ServerHandle) -> Connection {
    let addr = handle.addr().expect("tcp listener");
    Connection::connect_tcp(&addr.to_string()).expect("connect to test server")
}

fn small_spec() -> JobSpec {
    let mut spec = JobSpec::new("sec71_pwc", Mode::Quick);
    spec.warmup_ops = Some(500);
    spec.measure_ops = Some(2500);
    spec.footprint_divisor = Some(512);
    spec
}

/// Drains a streamed submit to its `done` event; returns
/// `(accepted, records, done)`.
fn stream_to_done(conn: &mut Connection, spec: &JobSpec) -> (Json, Vec<Json>, Json) {
    conn.send(&spec.to_request_line(true)).expect("send submit");
    let accepted = conn.recv_line().expect("read").expect("accepted line");
    let accepted = json::parse(&accepted).expect("accepted parses");
    assert_eq!(
        accepted.get("event"),
        Some(&Json::Str("accepted".into())),
        "expected accepted, got {accepted}"
    );
    let mut records = Vec::new();
    loop {
        let line = conn.recv_line().expect("read").expect("stream open");
        let v = json::parse(&line).expect("event parses");
        match v.get("event") {
            Some(Json::Str(e)) if e == "cell" => {
                records.push(v.get("record").expect("cell record").clone());
            }
            Some(Json::Str(e)) if e == "done" => return (accepted, records, v),
            other => panic!("unexpected event {other:?} in {line}"),
        }
    }
}

/// The `server` object from a `metrics` reply.
fn server_metrics(conn: &mut Connection) -> Json {
    let reply = conn.request(r#"{"op":"metrics"}"#).expect("metrics");
    let v = json::parse(&reply).expect("metrics parses");
    v.get("server").expect("server object").clone()
}

fn counter(server: &Json, name: &str) -> u64 {
    server.get(name).and_then(Json::as_u64).unwrap_or(0)
}

#[test]
fn killed_worker_is_respawned_and_the_job_requeued_to_completion() {
    let handle = chaos_server(2);
    let mut conn = connect(&handle);

    // The chaos hook panics the worker on the job's first attempt
    // only; the supervisor must requeue the job and respawn the
    // worker, and the second attempt completes every cell.
    let mut spec = small_spec();
    spec.measure_ops = Some(2900); // distinct cache keys for this test
    spec.chaos = Some("panic_worker".to_string());
    let (_, records, done) = stream_to_done(&mut conn, &spec);
    assert_eq!(done.get("failed"), Some(&Json::UInt(0)), "done: {done}");
    assert_eq!(
        done.get("requeues").and_then(Json::as_u64),
        Some(1),
        "exactly one worker loss: {done}"
    );
    assert_eq!(records.len(), spec.resolve().expect("grid").len());
    for record in &records {
        let status = record.get("status").cloned();
        assert!(
            status == Some(Json::Str("ok".into())) || status == Some(Json::Str("retried".into())),
            "record after recovery: {record}"
        );
    }

    // Recovery is visible over the wire.
    let server = server_metrics(&mut conn);
    assert!(counter(&server, "worker_panics") >= 1, "{server}");
    assert!(counter(&server, "workers_respawned") >= 1, "{server}");
    assert!(counter(&server, "jobs_requeued") >= 1, "{server}");
    assert_eq!(counter(&server, "jobs_lost"), 0, "{server}");

    // The pool still works: a clean job on the respawned worker.
    let mut clean = small_spec();
    clean.measure_ops = Some(2950);
    let (_, _, done) = stream_to_done(&mut conn, &clean);
    assert_eq!(done.get("failed"), Some(&Json::UInt(0)));

    handle.begin_drain();
    handle.wait();
}

#[test]
fn exhausted_requeue_budget_fails_the_job_cleanly() {
    // Budget 0: the first worker loss finalizes the job as failed —
    // every cell gets a `worker lost` record, the stream still ends
    // with `done`, and nothing hangs.
    let config = ServerConfig {
        tcp: true,
        port: 0,
        uds: None,
        workers: 1,
        job_threads: 0,
        queue_depth: 8,
        store_dir: None,
        slo_ms: 0,
        job_retries: 0,
        stall_secs: 0,
        chaos: true,
    };
    let handle = server::spawn(config).expect("bind");
    let mut conn = connect(&handle);
    let mut spec = small_spec();
    spec.measure_ops = Some(3300);
    spec.chaos = Some("panic_worker".to_string());
    let (_, records, done) = stream_to_done(&mut conn, &spec);
    let total = spec.resolve().expect("grid").len() as u64;
    assert_eq!(done.get("failed").and_then(Json::as_u64), Some(total));
    assert_eq!(records.len(), total as usize, "every cell got a record");
    for record in &records {
        assert_eq!(record.get("status"), Some(&Json::Str("failed".into())));
        let error = match record.get("error") {
            Some(Json::Str(e)) => e.clone(),
            other => panic!("failed record without error: {other:?}"),
        };
        assert!(error.contains("worker lost"), "{error}");
    }
    let server = server_metrics(&mut conn);
    assert!(counter(&server, "jobs_lost") >= 1, "{server}");

    handle.begin_drain();
    handle.wait();
}

#[test]
fn slow_cells_against_a_deadline_cancel_at_batch_boundaries_not_hang() {
    let handle = chaos_server(2);
    let mut conn = connect(&handle);

    // The slow fault profile drags exactly one cell by a deterministic
    // wall delay per engine span; a tight job deadline means the
    // supervisor cancels mid-run. The stream must still end with a
    // `done` event — cancelled cells fail cleanly, nothing hangs.
    let mut spec = small_spec();
    spec.measure_ops = Some(3400);
    spec.faults = Some(flatwalk_faults::FaultPlan::parse("3:slow").expect("plan"));
    spec.deadline_ms = Some(250);
    let (_, records, done) = stream_to_done(&mut conn, &spec);
    let total = spec.resolve().expect("grid").len();
    assert_eq!(records.len(), total, "every cell reports, pass or fail");
    let failed = done.get("failed").and_then(Json::as_u64).expect("failed");
    assert!(
        failed >= 1,
        "the slow cell cannot beat the deadline: {done}"
    );
    for record in &records {
        if record.get("status") == Some(&Json::Str("failed".into())) {
            let error = match record.get("error") {
                Some(Json::Str(e)) => e.clone(),
                other => panic!("failed record without error: {other:?}"),
            };
            assert!(
                error.contains("cancelled"),
                "deadline failures are cancellations: {error}"
            );
        }
    }
    let server = server_metrics(&mut conn);
    assert!(counter(&server, "shed_late") >= 1, "{server}");

    // The server shrugged it off: next job is clean.
    let mut clean = small_spec();
    clean.measure_ops = Some(3450);
    let (_, _, done) = stream_to_done(&mut conn, &clean);
    assert_eq!(done.get("failed"), Some(&Json::UInt(0)));

    handle.begin_drain();
    handle.wait();
}

#[test]
fn resubmit_by_key_attaches_and_replays_identical_records() {
    let handle = chaos_server(2);
    let mut conn = connect(&handle);
    let mut spec = small_spec();
    spec.measure_ops = Some(3500);
    spec.submit_key = Some(spec.content_key());

    let (accepted, records, _) = stream_to_done(&mut conn, &spec);
    assert_eq!(accepted.get("resumed"), None, "first submit is fresh");
    let job = accepted.get("job").and_then(Json::as_u64).expect("job id");

    // Same key from a brand-new connection (the "client lost its
    // stream and retried" path): attaches to the finished job and
    // replays every record byte-identically — no re-execution.
    let executed_before = handle.inner().cells_executed();
    let mut retry = connect(&handle);
    let (accepted2, replayed, done2) = stream_to_done(&mut retry, &spec);
    assert_eq!(accepted2.get("resumed"), Some(&Json::Bool(true)));
    assert_eq!(accepted2.get("job").and_then(Json::as_u64), Some(job));
    assert_eq!(done2.get("event"), Some(&Json::Str("done".into())));
    assert_eq!(
        replayed
            .iter()
            .map(std::string::ToString::to_string)
            .collect::<Vec<_>>(),
        records
            .iter()
            .map(std::string::ToString::to_string)
            .collect::<Vec<_>>(),
        "replayed records match the originals"
    );
    assert_eq!(
        handle.inner().cells_executed(),
        executed_before,
        "resubmit executes nothing"
    );
    let server = server_metrics(&mut retry);
    assert!(counter(&server, "jobs_deduped") >= 1, "{server}");

    handle.begin_drain();
    handle.wait();
}
