//! The daemon: connection handling over the shared job-queue executor.
//!
//! A [`Daemon`] owns the long-lived state — the plan cache and the
//! counter block — and serves any number of connections against it. Each
//! connection gets its own [`ThreadPool`] (the same executor the fleet
//! batch engine runs on), a reader loop that parses NDJSON request
//! lines and submits one unit of work per job, and a writer thread that
//! streams each response line the moment its job completes. Jobs are
//! panic-fenced at the executor's worker fence: a hostile job becomes an
//! error envelope for its `id`, never a dead daemon.
//!
//! Transports are just `BufRead`/`Write` pairs: [`Daemon::serve_stdio`]
//! wires up the process pipes, [`Daemon::serve_unix`] accepts Unix
//! socket connections (iteratively — one client at a time keeps the
//! daemon dependency-free; the executor parallelism is *inside* a
//! connection), and tests drive [`Daemon::serve_connection`] with
//! in-memory buffers.
//!
//! # Examples
//!
//! ```
//! use clockless_serve::{ConnectionOutcome, Daemon, ServeConfig};
//!
//! let daemon = Daemon::new(ServeConfig::default());
//! let requests = "{\"id\":1,\"op\":\"ping\"}\n{\"id\":2,\"op\":\"shutdown\"}\n";
//! let mut replies = Vec::new();
//! let outcome = daemon.serve_connection(requests.as_bytes(), &mut replies);
//! assert_eq!(outcome, ConnectionOutcome::Shutdown);
//! let text = String::from_utf8(replies).unwrap();
//! assert!(text.lines().any(|l| l.contains("\"payload\":\"pong\\n\"")));
//! ```

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixListener;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

use clockless_fleet::{Emission, ThreadPool};

use crate::cache::{CacheStats, PlanCache};
use crate::jobs::{dispatch, JobCtx};
use crate::protocol::{render_error, render_ok, ErrorCode, Request, PROTOCOL_VERSION};

/// Daemon tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads per connection. The default of 1 keeps response
    /// lines in request order (FIFO); more workers stream responses in
    /// completion order.
    pub workers: usize,
    /// Plans resident in the cache before LRU eviction.
    pub cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 1,
            cache_capacity: 64,
        }
    }
}

/// Monotonic daemon counters, shared across connections.
///
/// `submitted` counts accepted requests (including control ops);
/// `completed` counts jobs answered with a success envelope; `errors`
/// counts error envelopes (parse rejections, job failures, fenced
/// panics). Per-op tallies count accepted requests by kind.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Requests accepted (parsed far enough to have an `op`).
    pub submitted: AtomicU64,
    /// Jobs answered `ok:true`.
    pub completed: AtomicU64,
    /// Error envelopes emitted.
    pub errors: AtomicU64,
    op_run: AtomicU64,
    op_faults: AtomicU64,
    op_fleet: AtomicU64,
    op_sweep: AtomicU64,
    op_stats: AtomicU64,
    op_ping: AtomicU64,
    op_shutdown: AtomicU64,
}

impl ServeStats {
    fn count_op(&self, op: &str) {
        let counter = match op {
            "run" => &self.op_run,
            "faults" => &self.op_faults,
            "fleet" => &self.op_fleet,
            "sweep" => &self.op_sweep,
            "stats" => &self.op_stats,
            "ping" => &self.op_ping,
            "shutdown" => &self.op_shutdown,
            _ => return, // unknown ops are counted only in `errors`
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Renders the `stats` job payload: a deterministic multi-line JSON
    /// document (deterministic given the counter values — there are no
    /// wall-clock fields).
    pub fn document(&self, cache: CacheStats, queue_depth: usize, workers: usize) -> String {
        let by_level: Vec<String> = cache
            .by_level
            .iter()
            .enumerate()
            .map(|(level, (hits, misses))| {
                format!("\"{level}\": {{\"hits\": {hits}, \"misses\": {misses}}}")
            })
            .collect();
        format!(
            "{{\n  \"serve\": {{\"protocol\": {PROTOCOL_VERSION}, \"workers\": {workers}, \
             \"opt\": {}}},\n  \
             \"cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \"entries\": {}, \
             \"capacity\": {}, \"by_level\": {{{}}}}},\n  \
             \"jobs\": {{\"submitted\": {}, \"completed\": {}, \"errors\": {}, \
             \"queue_depth\": {queue_depth}}},\n  \
             \"ops\": {{\"run\": {}, \"faults\": {}, \"fleet\": {}, \"sweep\": {}, \
             \"stats\": {}, \"ping\": {}, \"shutdown\": {}}}\n}}\n",
            clockless_core::OptLevel::default(),
            cache.hits,
            cache.misses,
            cache.evictions,
            cache.entries,
            cache.capacity,
            by_level.join(", "),
            self.submitted.load(Ordering::Relaxed),
            self.completed.load(Ordering::Relaxed),
            self.errors.load(Ordering::Relaxed),
            self.op_run.load(Ordering::Relaxed),
            self.op_faults.load(Ordering::Relaxed),
            self.op_fleet.load(Ordering::Relaxed),
            self.op_sweep.load(Ordering::Relaxed),
            self.op_stats.load(Ordering::Relaxed),
            self.op_ping.load(Ordering::Relaxed),
            self.op_shutdown.load(Ordering::Relaxed),
        )
    }
}

/// Why a connection ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnectionOutcome {
    /// The client closed its input; all submitted jobs were answered.
    Eof,
    /// The client sent `{"op":"shutdown"}`; the daemon should stop
    /// accepting connections.
    Shutdown,
    /// The client disconnected while responses were pending; the
    /// remaining lines were dropped, the daemon is unharmed.
    ClientLost,
}

/// The long-lived simulation server.
pub struct Daemon {
    config: ServeConfig,
    cache: Arc<Mutex<PlanCache>>,
    stats: Arc<ServeStats>,
}

impl Daemon {
    /// Creates a daemon with an empty plan cache and zeroed counters.
    pub fn new(config: ServeConfig) -> Daemon {
        Daemon {
            config,
            cache: Arc::new(Mutex::new(PlanCache::new(config.cache_capacity))),
            stats: Arc::new(ServeStats::default()),
        }
    }

    /// The daemon's counter block (shared across connections).
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Current plan-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.lock().unwrap_or_else(|e| e.into_inner()).stats()
    }

    /// Serves one NDJSON session: reads request lines from `reader`,
    /// streams response lines to `writer` as jobs complete. Returns when
    /// the input ends or a `shutdown` request arrives; every job
    /// submitted before that point is answered (or dropped cleanly if
    /// the writer fails mid-session — see
    /// [`ConnectionOutcome::ClientLost`]).
    pub fn serve_connection(
        &self,
        reader: impl BufRead,
        mut writer: impl Write + Send,
    ) -> ConnectionOutcome {
        let (sink, emissions) = mpsc::channel::<Emission<String>>();
        let panic_stats = Arc::clone(&self.stats);
        let pool: ThreadPool<String> =
            ThreadPool::new(self.config.workers, sink, move |id, msg| {
                panic_stats.errors.fetch_add(1, Ordering::Relaxed);
                render_error(
                    Some(id),
                    None,
                    ErrorCode::RunFailed,
                    &format!("job panicked: {msg}"),
                )
            });

        let (shutdown, lost) = std::thread::scope(|s| {
            let writer_thread = s.spawn(move || {
                let mut lost = false;
                for e in emissions.iter() {
                    if !lost
                        && (writer.write_all(e.payload.as_bytes()).is_err()
                            || writer.flush().is_err())
                    {
                        // Mid-job disconnect: keep draining so the pool
                        // never blocks, but stop writing.
                        lost = true;
                    }
                }
                lost
            });

            let mut shutdown = false;
            for line in reader.lines() {
                let Ok(line) = line else { break };
                if line.trim().is_empty() {
                    continue;
                }
                let req = match Request::parse(&line) {
                    Ok(req) => req,
                    Err((id, err)) => {
                        // Rejections flow through the pool like any job,
                        // so response order stays FIFO at one worker.
                        self.stats.errors.fetch_add(1, Ordering::Relaxed);
                        let payload = render_error(id, None, err.code, &err.message);
                        pool.submit(id.unwrap_or(0), Box::new(move || payload));
                        continue;
                    }
                };
                self.stats.submitted.fetch_add(1, Ordering::Relaxed);
                self.stats.count_op(&req.op);
                if req.op == "shutdown" {
                    self.stats.completed.fetch_add(1, Ordering::Relaxed);
                    let id = req.id;
                    pool.submit(id, Box::new(move || render_ok(id, "shutdown", "bye\n")));
                    shutdown = true;
                    break;
                }
                let ctx = JobCtx {
                    cache: Arc::clone(&self.cache),
                    stats: Arc::clone(&self.stats),
                    queue_depth: pool.queue_depth(),
                    workers: self.config.workers,
                };
                let ticket = req.id;
                pool.submit(ticket, Box::new(move || dispatch(&req, &ctx)));
            }
            pool.shutdown(); // drain: every submitted job emits
            let lost = writer_thread.join().unwrap_or(true);
            (shutdown, lost)
        });

        if shutdown {
            ConnectionOutcome::Shutdown
        } else if lost {
            ConnectionOutcome::ClientLost
        } else {
            ConnectionOutcome::Eof
        }
    }

    /// Serves one session over the process's stdin/stdout.
    pub fn serve_stdio(&self) -> ConnectionOutcome {
        let stdin = std::io::stdin();
        self.serve_connection(stdin.lock(), std::io::stdout())
    }

    /// Binds `path` (replacing any stale socket file) and serves
    /// connections one at a time until a client requests `shutdown`.
    /// A client that disconnects mid-session does not stop the daemon.
    ///
    /// # Errors
    ///
    /// Socket bind/accept errors; per-connection I/O trouble is handled
    /// by the session loop instead of being returned.
    pub fn serve_unix(&self, path: &Path) -> std::io::Result<()> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        for stream in listener.incoming() {
            let stream = stream?;
            let outcome = self.serve_connection(BufReader::new(&stream), &stream);
            if outcome == ConnectionOutcome::Shutdown {
                break;
            }
        }
        let _ = std::fs::remove_file(path);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{decode_payload, Json};

    fn serve(daemon: &Daemon, input: &str) -> (Vec<String>, ConnectionOutcome) {
        let mut out = Vec::new();
        let outcome = daemon.serve_connection(input.as_bytes(), &mut out);
        let text = String::from_utf8(out).expect("utf-8 responses");
        (text.lines().map(str::to_string).collect(), outcome)
    }

    #[test]
    fn ping_round_trip() {
        let daemon = Daemon::new(ServeConfig::default());
        let (lines, outcome) = serve(&daemon, "{\"id\":1,\"op\":\"ping\"}\n");
        assert_eq!(outcome, ConnectionOutcome::Eof);
        assert_eq!(lines.len(), 1);
        assert_eq!(decode_payload(&lines[0]).as_deref(), Some("pong\n"));
    }

    #[test]
    fn malformed_lines_get_error_envelopes_and_do_not_wedge() {
        let daemon = Daemon::new(ServeConfig::default());
        let input =
            "this is not json\n{\"id\":2,\"op\":\"nonsense\"}\n{\"id\":3,\"op\":\"ping\"}\n";
        let (lines, outcome) = serve(&daemon, input);
        assert_eq!(outcome, ConnectionOutcome::Eof);
        assert_eq!(lines.len(), 3, "{lines:?}");
        let first = Json::parse(&lines[0]).expect("valid envelope");
        assert_eq!(
            first
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("bad-json")
        );
        let second = Json::parse(&lines[1]).expect("valid envelope");
        assert_eq!(second.get("id").and_then(Json::as_u64), Some(2));
        assert_eq!(
            second
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("unknown-op")
        );
        assert_eq!(decode_payload(&lines[2]).as_deref(), Some("pong\n"));
    }

    #[test]
    fn shutdown_is_acknowledged_and_stops_the_session() {
        let daemon = Daemon::new(ServeConfig::default());
        let input = "{\"id\":1,\"op\":\"shutdown\"}\n{\"id\":2,\"op\":\"ping\"}\n";
        let (lines, outcome) = serve(&daemon, input);
        assert_eq!(outcome, ConnectionOutcome::Shutdown);
        // The ping after shutdown is never read.
        assert_eq!(lines.len(), 1);
        assert_eq!(decode_payload(&lines[0]).as_deref(), Some("bye\n"));
    }

    /// A writer that fails after `good` writes — a client that went away
    /// mid-session.
    struct Flaky {
        good: usize,
    }
    impl Write for Flaky {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.good == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "client gone",
                ));
            }
            self.good -= 1;
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn mid_session_disconnect_is_survived() {
        let daemon = Daemon::new(ServeConfig::default());
        let input =
            "{\"id\":1,\"op\":\"ping\"}\n{\"id\":2,\"op\":\"ping\"}\n{\"id\":3,\"op\":\"ping\"}\n";
        let outcome = daemon.serve_connection(input.as_bytes(), Flaky { good: 1 });
        assert_eq!(outcome, ConnectionOutcome::ClientLost);
        // The daemon is unharmed: the next session works normally.
        let (lines, outcome) = serve(&daemon, "{\"id\":9,\"op\":\"ping\"}\n");
        assert_eq!(outcome, ConnectionOutcome::Eof);
        assert_eq!(decode_payload(&lines[0]).as_deref(), Some("pong\n"));
    }

    #[test]
    fn panicking_job_becomes_an_error_envelope() {
        // `sweep` with a path pointing at a directory read fails cleanly;
        // to exercise the *panic* fence we go through a fleet chaos spec.
        let daemon = Daemon::new(ServeConfig::default());
        let spec = "job boom chaos panic";
        let input = format!(
            "{{\"id\":4,\"op\":\"fleet\",\"spec\":\"{spec}\"}}\n{{\"id\":5,\"op\":\"ping\"}}\n"
        );
        let (lines, _) = serve(&daemon, &input);
        assert_eq!(lines.len(), 2, "{lines:?}");
        // The chaos job is quarantined INSIDE the fleet report (executor
        // fence), so the envelope is ok:true with a failed row — and the
        // daemon answers the next request either way.
        let by_id = |id: u64| {
            lines
                .iter()
                .find(|l| {
                    Json::parse(l)
                        .ok()
                        .and_then(|v| v.get("id").and_then(Json::as_u64))
                        == Some(id)
                })
                .cloned()
                .expect("response for id")
        };
        let fleet_line = by_id(4);
        let doc = decode_payload(&fleet_line).expect("fleet payload");
        assert!(doc.contains("panicked"), "{doc}");
        assert_eq!(decode_payload(&by_id(5)).as_deref(), Some("pong\n"));
    }

    #[test]
    fn stats_document_reports_counters() {
        let daemon = Daemon::new(ServeConfig::default());
        let model = "model tiny steps 1\\nregister R init 3\\n";
        // Two default-level (-O2) runs plus one pinned at -O0: the
        // levels key separate cache entries and separate counters.
        let input = format!(
            "{{\"id\":1,\"op\":\"run\",\"model\":\"{model}\"}}\n\
             {{\"id\":2,\"op\":\"run\",\"model\":\"{model}\"}}\n\
             {{\"id\":3,\"op\":\"run\",\"model\":\"{model}\",\"opt\":0}}\n\
             {{\"id\":4,\"op\":\"stats\"}}\n"
        );
        let (lines, _) = serve(&daemon, &input);
        assert_eq!(lines.len(), 4, "{lines:?}");
        let stats_doc = decode_payload(&lines[3]).expect("stats payload");
        let v = Json::parse(&stats_doc).expect("stats is JSON");
        let serve_block = v.get("serve").expect("serve block");
        assert_eq!(serve_block.get("opt").and_then(Json::as_u64), Some(2));
        let cache = v.get("cache").expect("cache block");
        assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(1));
        assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(2));
        let by_level = cache.get("by_level").expect("by_level block");
        let level = |l: &str, k: &str| {
            by_level
                .get(l)
                .and_then(|b| b.get(k))
                .and_then(Json::as_u64)
        };
        assert_eq!(
            (level("2", "hits"), level("2", "misses")),
            (Some(1), Some(1))
        );
        assert_eq!(
            (level("0", "hits"), level("0", "misses")),
            (Some(0), Some(1))
        );
        assert_eq!(
            (level("1", "hits"), level("1", "misses")),
            (Some(0), Some(0))
        );
        let ops = v.get("ops").expect("ops block");
        assert_eq!(ops.get("run").and_then(Json::as_u64), Some(3));
        assert_eq!(ops.get("stats").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn run_payload_is_byte_identical_across_opt_levels() {
        let daemon = Daemon::new(ServeConfig::default());
        let model = "model tiny steps 2\\nregister R init 3\\nregister S init 4\\n";
        let input = format!(
            "{{\"id\":1,\"op\":\"run\",\"model\":\"{model}\",\"opt\":0}}\n\
             {{\"id\":2,\"op\":\"run\",\"model\":\"{model}\",\"opt\":1}}\n\
             {{\"id\":3,\"op\":\"run\",\"model\":\"{model}\",\"opt\":2}}\n\
             {{\"id\":4,\"op\":\"run\",\"model\":\"{model}\"}}\n"
        );
        let (lines, _) = serve(&daemon, &input);
        assert_eq!(lines.len(), 4, "{lines:?}");
        let payloads: Vec<String> = (0..4)
            .map(|i| decode_payload(&lines[i]).expect("run payload"))
            .collect();
        assert!(payloads[0].contains("\"registers\""), "{}", payloads[0]);
        for p in &payloads[1..] {
            assert_eq!(&payloads[0], p, "opt levels must not change the payload");
        }
    }

    #[test]
    fn faults_checkers_field_matches_the_cli_document() {
        use clockless_verify::{run_campaign, CampaignConfig, CheckerMode};

        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../models/fig1.rtl");
        let daemon = Daemon::new(ServeConfig::default());
        let input = format!(
            "{{\"id\":1,\"op\":\"faults\",\"path\":\"{path}\",\"checkers\":\"all\"}}\n\
             {{\"id\":2,\"op\":\"faults\",\"path\":\"{path}\"}}\n\
             {{\"id\":3,\"op\":\"faults\",\"path\":\"{path}\",\"checkers\":\"bogus\"}}\n"
        );
        let (lines, _) = serve(&daemon, &input);
        assert_eq!(lines.len(), 3, "{lines:?}");

        // `checkers:"all"` payload is byte-identical to the CLI document.
        let model =
            clockless_core::text::parse_model(&std::fs::read_to_string(path).expect("fig1 source"))
                .expect("fig1 parses");
        let expected = run_campaign(
            &model,
            &CampaignConfig {
                checkers: CheckerMode::All,
                ..Default::default()
            },
        )
        .expect("campaign runs")
        .to_json();
        assert_eq!(
            decode_payload(&lines[0]).as_deref(),
            Some(expected.as_str())
        );
        assert!(expected.contains("\"checkers\": \"all\""), "{expected}");

        // Omitting the field keeps the baseline-only document.
        let off = decode_payload(&lines[1]).expect("off payload");
        assert!(off.contains("\"checkers\": \"off\""), "{off}");
        assert_ne!(off, expected, "checkers must change the verdicts");

        // A bad mode is a typed request error, not a crash.
        let err = Json::parse(&lines[2]).expect("error envelope");
        assert_eq!(
            err.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("bad-request")
        );
    }
}
