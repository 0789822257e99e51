//! flatwalk-serve: a persistent experiment service for the flatwalk
//! simulator.
//!
//! Batch runs (`flatwalk-bench sec71_pwc_sweep` & friends) pay full
//! setup and simulation cost on every invocation. This crate keeps a
//! simulator process resident instead: a daemon (`flatwalk-serve`) accepts
//! experiment-grid jobs over a newline-delimited JSON protocol
//! ([`proto`], `flatwalk-serve-v1`), executes them on a worker pool
//! through the same fault-domain runner the batch path uses, and
//! answers repeats from one result tier ([`store`]) — a re-submitted
//! grid costs zero simulation and returns byte-identical reports.
//!
//! The service is crash-safe and self-healing: given a directory, the
//! result tier writes every result through to a content-addressed store
//! that survives `kill -9` and re-serves byte-identical replies after a
//! restart, and forgets results of any other model build; a
//! supervisor respawns panicked workers and re-queues their in-flight
//! jobs under a retry budget; and admission control sheds jobs (fast
//! `overloaded` reply) whose predicted queue wait exceeds the client's
//! deadline or the configured SLO.
//!
//! Modules:
//!
//! - [`proto`] — wire protocol: request parsing, [`proto::JobSpec`],
//!   error replies.
//! - [`store`] — the result tier: content- and model-keyed, resident
//!   in a byte-bounded LRU map, optionally written through to disk
//!   (tmp + fsync + rename writes, recovery scan, checksum verification
//!   with quarantine, stale-model removal).
//! - [`server`] — listeners, bounded job queue with backpressure,
//!   workers, worker supervision, in-flight coalescing, admission
//!   control, drain/shutdown.
//! - [`client`] — blocking client used by the `flatwalk-client`
//!   binary and the end-to-end tests, with jittered-backoff reconnect
//!   helpers.
//!
//! Environment knobs: `FLATWALK_QUEUE_DEPTH` (queued-job bound,
//! default 32), `FLATWALK_STORE_DIR` (persistent store root; unset =
//! memory only), `FLATWALK_SLO_MS` (admission-control SLO; 0 = off),
//! `FLATWALK_JOB_RETRIES` (requeue budget after a worker loss, default
//! 1), `FLATWALK_JOB_STALL_SECS` (stall watchdog, default 600, 0 =
//! off), `FLATWALK_CHAOS` (enable chaos test hooks), plus the
//! simulator-wide `FLATWALK_THREADS`, `FLATWALK_CELL_RETRIES`,
//! `FLATWALK_CELL_DEADLINE_SECS`, and `FLATWALK_TRACE`. Fault plans
//! arrive per job (`JobSpec.faults`), never from the environment. The
//! resident result budget is the fixed
//! [`store::RESIDENT_BYTES`] (64 MiB).

pub mod client;
mod fnv;
pub mod proto;
pub mod server;
pub mod store;
