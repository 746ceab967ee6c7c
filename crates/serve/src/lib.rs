//! Simulation as a service: the `clockless serve` daemon.
//!
//! One-shot CLI invocations pay the full pipeline on every call — spawn,
//! parse, elaborate, lower — before a single delta cycle runs. For
//! clock-free models the *execution* is the cheap part (the `1 + 6·CS_MAX`
//! quiescence bound keeps runs short), so the fixed costs dominate
//! exactly the workloads that issue many small jobs: allocator search
//! loops, fault drills, regression sweeps. This crate keeps a process
//! resident and amortizes those costs:
//!
//! * **Plan cache** ([`cache`]): models are parsed and lowered to
//!   [`ExecPlan`](clockless_core::plan::ExecPlan)s once, keyed by a
//!   content hash of the source text, with LRU eviction and
//!   hit/miss/eviction counters surfaced through the `stats` job.
//! * **NDJSON protocol** ([`protocol`]): one JSON request per line in,
//!   one response envelope per line out, over a Unix socket or
//!   stdin/stdout. `docs/PROTOCOL.md` is the wire reference.
//! * **Job execution** ([`daemon`]): every job runs on the same
//!   job-queue executor ([`clockless_fleet::ThreadPool`]) the batch
//!   engine uses, inheriting its panic fence — a malformed or hostile
//!   job produces an error envelope, never a dead daemon.
//!
//! The payload of every successful `run`/`faults`/`fleet` response is
//! **byte-identical** to what the corresponding one-shot CLI command
//! prints. That is the crate's contract: a client can switch between
//! `clockless run --json` and a daemon `run` job and diff clean.
//!
//! # Examples
//!
//! A complete in-memory session:
//!
//! ```
//! use clockless_serve::{decode_payload, Daemon, ServeConfig};
//!
//! let daemon = Daemon::new(ServeConfig::default());
//! let requests = concat!(
//!     "{\"id\":1,\"op\":\"run\",\"model\":\"model t steps 1\\nregister R init 3\\n\"}\n",
//!     "{\"id\":2,\"op\":\"stats\"}\n",
//! );
//! let mut replies = Vec::new();
//! daemon.serve_connection(requests.as_bytes(), &mut replies);
//! let text = String::from_utf8(replies).unwrap();
//! let lines: Vec<&str> = text.lines().collect();
//! let run_doc = decode_payload(lines[0]).unwrap();
//! assert!(run_doc.contains("\"model\": \"t\""));
//! let stats_doc = decode_payload(lines[1]).unwrap();
//! assert!(stats_doc.contains("\"misses\": 1"));
//! ```

pub mod cache;
pub mod client;
pub mod daemon;
mod jobs;
pub mod protocol;

pub use cache::{content_hash, CacheStats, CachedPlan, PlanCache};
pub use client::{run_client, ClientError};
pub use daemon::{ConnectionOutcome, Daemon, ServeConfig, ServeStats};
pub use protocol::{
    decode_payload, render_error, render_ok, ErrorCode, JobError, Json, Request, PROTOCOL_VERSION,
};
