//! The four closed-loop workloads.
//!
//! Every workload has one client that waits for each reply before it
//! sends the next call, because that is how CLI users and daemon clients
//! use the system (and the daemon serves one connection at a time). A
//! workload owns a fixed set of distinct inputs; the runner draws them in
//! seeded epochs. Each call has two forms: the composite public call a
//! user makes ([`Workload::call`], timed with tracing off) and the same
//! call split into its layers' public functions, each in a span
//! ([`Workload::call_traced`]). Both outputs are checked against an
//! independent reference ([`Workload::reference`], computed before any
//! timing) after the call's timer stops.

use std::hash::{DefaultHasher, Hasher};
use std::hint::black_box;
use std::io::{self, BufRead, BufReader, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;

use clockless_core::json::{escape, run_report};
use clockless_core::text::parse_model;
use clockless_core::{Backend, ExecOptions, ExecPlan, OptLevel, OptPlan, RtModel};
use clockless_fleet::{run_batch_with, BatchSpec, FleetConfig};
use clockless_serve::cache::cache_key;
use clockless_serve::{
    decode_payload, CachedPlan, ConnectionOutcome, Daemon, PlanCache, ServeConfig,
};
use clockless_verify::{
    build_checkers, generate_faults, run_campaign, run_campaign_with_faults, CampaignConfig,
    CampaignEngine, CheckerMode,
};

use crate::inputs::{
    fleet_batches, fleet_members, model_file, up_to, Family, Model, BATCH_GROUPS, GROUP_JOBS,
};
use crate::spans::Spans;

/// Name of the span covering one whole traced workload call.
pub const CALL: &str = "call";

/// Worker threads of every fleet batch: one per core of the benchmark
/// host.
pub const FLEET_WORKERS: usize = 2;

/// One workload: its distinct inputs and the calls made on them.
pub trait Workload {
    /// Number of distinct inputs; one epoch draws each exactly once.
    fn inputs(&self) -> usize;

    /// Work units one call on input `i` completes (runs, requests,
    /// mutants or jobs) — the numerator of `throughput`.
    fn units(&self, i: usize) -> u64;

    /// Returns to the state of a freshly started process. Only the
    /// daemon workload keeps state between calls.
    fn reset(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// One untraced call on input `i`, returning its output document.
    fn call(&mut self, i: usize) -> Result<String, String>;

    /// The same call split into its layers, each part in a span of
    /// `spans`, followed by any bench-side replica spans. The output must
    /// equal [`Workload::call`]'s byte for byte.
    fn call_traced(&mut self, i: usize, spans: &mut Spans) -> Result<String, String>;

    /// The independent reference for input `i`. The runner computes every
    /// reference before the first set-up pass and keeps only its
    /// [`digest`], so neither their time nor their memory falls in a
    /// measured phase.
    fn reference(&mut self, i: usize) -> Result<String, String>;

    /// Digest of the part of a call's output that must equal the
    /// reference: all of it, unless a workload says otherwise; `None` when
    /// the output is malformed.
    fn digest(&self, output: &str) -> Option<u64> {
        Some(digest(output))
    }

    /// Per-layer numbers the workload measures outside spans.
    fn extras(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// The workload names `--workload` accepts.
pub const NAMES: [&str; 4] = ["oneshot", "serve_warm", "faults", "fleet_stimulus"];

/// Builds the workload `name` over the population `models`; `dir` is a
/// private scratch directory for files the workload's inputs need.
pub fn build(
    name: &str,
    models: &[Model],
    seed: u64,
    dir: &Path,
) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "oneshot" => Box::new(Oneshot::new(models)),
        "serve_warm" => Box::new(ServeWarm::new(models)),
        "faults" => Box::new(Faults::new(models)?),
        "fleet_stimulus" => Box::new(FleetStimulus::new(models, seed, dir)?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// A 64-bit digest of `text`, by which outputs are compared with their
/// references.
pub fn digest(text: &str) -> u64 {
    let mut hasher = DefaultHasher::new();
    hasher.write(text.as_bytes());
    hasher.finish()
}

fn parse(text: &str, spans: &mut Spans) -> Result<RtModel, String> {
    spans.count("text.parse.bytes", text.len() as u64);
    spans.span("text.parse", |_| {
        parse_model(text).map_err(|e| e.to_string())
    })
}

/// `clockless run <text> --json --backend <backend>`: parse, traced
/// run, render.
fn run_json(text: &str, backend: Backend) -> Result<String, String> {
    let model = parse_model(text).map_err(|e| e.to_string())?;
    let out = backend
        .execute(&model, &ExecOptions::traced())
        .map_err(|e| e.to_string())?;
    Ok(run_report(&model, &out.summary))
}

/// Runs `model` on `backend` inside the span of the engine that does the
/// work, counting its delta cycles.
fn execute_on(
    backend: Backend,
    model: &RtModel,
    spans: &mut Spans,
) -> Result<clockless_core::ExecOutcome, String> {
    let name = match backend {
        Backend::Interpreted => "kernel.execute",
        Backend::Compiled => "opt.execute",
    };
    let out = spans.span(name, |_| {
        backend
            .execute(model, &ExecOptions::traced())
            .map_err(|e| e.to_string())
    })?;
    if backend == Backend::Interpreted {
        spans.count("kernel.delta_cycles", out.summary.stats.delta_cycles);
    }
    Ok(out)
}

// ------------------------------------------------------------- oneshot

/// `oneshot`: an in-process replica of `clockless run <m> --json
/// --backend compiled` on every population member.
///
/// Chosen because every call pays parse, lowering and opt-compile before
/// a short traced walk — the path where front-end and lowering work
/// shows. The compiled backend is explicit: the CLI default is the
/// interpreter, and lowering costs would otherwise never be measured.
pub struct Oneshot {
    texts: Vec<String>,
}

impl Oneshot {
    fn new(models: &[Model]) -> Oneshot {
        Oneshot {
            texts: models.iter().map(|m| m.text.clone()).collect(),
        }
    }
}

impl Workload for Oneshot {
    fn inputs(&self) -> usize {
        self.texts.len()
    }

    fn units(&self, _: usize) -> u64 {
        1
    }

    fn call(&mut self, i: usize) -> Result<String, String> {
        run_json(&self.texts[i], Backend::Compiled)
    }

    fn call_traced(&mut self, i: usize, spans: &mut Spans) -> Result<String, String> {
        let text = &self.texts[i];
        spans.span(CALL, |s| {
            let model = parse(text, s)?;
            let options = ExecOptions::traced();
            let plan = s.span("plan.lower", |_| ExecPlan::lower(&model));
            // Mirrors `CompiledBackend::execute` at the default level.
            let out = match options.opt {
                OptLevel::O0 => s.span("opt.execute", |_| plan.execute(&options)),
                level => {
                    let opt = s.span("opt.compile", |_| OptPlan::from_plan(plan, level.config()));
                    s.count("opt.micro_ops", opt.op_count() as u64);
                    s.span("opt.execute", |_| opt.execute(&options))
                }
            }
            .map_err(|e| e.to_string())?;
            let doc = s.span("json.render", |_| run_report(&model, &out.summary));
            s.count("json.render.bytes", doc.len() as u64);
            Ok(doc)
        })
    }

    fn reference(&mut self, i: usize) -> Result<String, String> {
        // The interpreter: the delta-cycle kernel, independent of lowering.
        run_json(&self.texts[i], Backend::Interpreted)
    }
}

// ---------------------------------------------------------- serve_warm

/// One client connection to a new in-process daemon (default
/// configuration) over a socket pair.
struct Session {
    daemon: Arc<Daemon>,
    client: UnixStream,
    replies: BufReader<UnixStream>,
    server: Option<JoinHandle<ConnectionOutcome>>,
}

impl Session {
    fn open() -> io::Result<Session> {
        let daemon = Arc::new(Daemon::new(ServeConfig::default()));
        let (client, server) = UnixStream::pair()?;
        let replies = BufReader::new(client.try_clone()?);
        let d = Arc::clone(&daemon);
        let server =
            std::thread::spawn(move || d.serve_connection(BufReader::new(&server), &server));
        Ok(Session {
            daemon,
            client,
            replies,
            server: Some(server),
        })
    }

    fn round_trip(&mut self, request: &str) -> Result<String, String> {
        self.client
            .write_all(request.as_bytes())
            .map_err(|e| e.to_string())?;
        let mut reply = String::new();
        match self.replies.read_line(&mut reply) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => Ok(reply),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Ends the session and waits until the daemon's threads have exited.
    fn close(&mut self) {
        // End of input ends the session; the daemon threads then exit.
        let _ = self.client.shutdown(Shutdown::Write);
        if let Some(server) = self.server.take() {
            let _ = server.join();
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.close();
    }
}

/// `serve_warm`: `run` requests to a resident `serve::Daemon` with the
/// default configuration (1 worker, cache of 64 plans).
///
/// Chosen because the 48-model working set fits the plan cache, so after
/// the cold pass every request is a hit: parse and lowering are bypassed
/// and the time goes to protocol decode, hashing, the traced walk, render
/// and the envelope. It is the workload on which the cache is used, where
/// `oneshot` is the one on which it is bypassed.
pub struct ServeWarm {
    texts: Vec<String>,
    requests: Vec<String>,
    /// The daemon and its client; opened by [`Workload::reset`].
    session: Option<Session>,
    /// Requests sent since the last reset.
    sent: usize,
    /// Cache counters once every input has been requested once.
    warm: Option<clockless_serve::CacheStats>,
    /// The bench-side replica of the warm path, built on first use.
    replica: Option<PlanCache>,
}

impl ServeWarm {
    fn new(models: &[Model]) -> ServeWarm {
        let texts: Vec<String> = models.iter().map(|m| m.text.clone()).collect();
        let requests = texts
            .iter()
            .enumerate()
            .map(|(i, t)| {
                format!(
                    "{{\"id\":{i},\"op\":\"run\",\"model\":\"{}\"}}\n",
                    escape(t)
                )
            })
            .collect();
        ServeWarm {
            texts,
            requests,
            session: None,
            sent: 0,
            warm: None,
            replica: None,
        }
    }
}

/// The replica's cached plan for `text`, keyed as the daemon keys it.
fn cached_plan(cache: &mut PlanCache, text: &str) -> Result<Arc<CachedPlan>, String> {
    let key = cache_key(text.as_bytes(), false, OptLevel::default());
    cache.get_or_insert(key, OptLevel::default(), || {
        parse_model(text).map_err(|e| e.to_string())
    })
}

impl Workload for ServeWarm {
    fn inputs(&self) -> usize {
        self.texts.len()
    }

    fn units(&self, _: usize) -> u64 {
        1
    }

    fn reset(&mut self) -> Result<(), String> {
        // The old daemon ends (its threads exit, its plans are freed) and
        // the freed memory goes back to the kernel before the new daemon
        // starts, as a restarted daemon process would start without it.
        // Otherwise the new threads may draw on other allocator arenas
        // than the old ones, and the peak resident set would count both
        // daemons' plans in some runs only.
        self.session = None;
        crate::host::trim_heap();
        self.session = Some(Session::open().map_err(|e| e.to_string())?);
        self.sent = 0;
        self.warm = None;
        Ok(())
    }

    fn call(&mut self, i: usize) -> Result<String, String> {
        let session = self
            .session
            .as_mut()
            .ok_or_else(|| "no daemon: the workload was never reset".to_string())?;
        let reply = session.round_trip(&self.requests[i]);
        self.sent += 1;
        if self.sent == self.texts.len() {
            self.warm = Some(session.daemon.cache_stats());
        }
        reply
    }

    fn call_traced(&mut self, i: usize, spans: &mut Spans) -> Result<String, String> {
        let reply = spans.span(CALL, |s| s.span("serve.request", |_| self.call(i)));
        let texts = &self.texts;
        let cache = self.replica.get_or_insert_with(|| {
            let mut cache = PlanCache::new(ServeConfig::default().cache_capacity);
            for t in texts {
                let _ = cached_plan(&mut cache, t);
            }
            cache
        });
        // What the daemon does for a warm `run`, minus protocol and
        // transport: cache lookup, traced walk, render.
        spans.span("serve.replica", |s| -> Result<(), String> {
            let cached = s.span("serve.cache", |_| cached_plan(cache, &texts[i]))?;
            let out = s
                .span("opt.execute", |_| cached.execute(&ExecOptions::traced()))
                .map_err(|e| e.to_string())?;
            let doc = s.span("json.render", |_| run_report(&cached.model, &out.summary));
            s.count("json.render.bytes", doc.len() as u64);
            Ok(())
        })?;
        reply
    }

    fn reference(&mut self, i: usize) -> Result<String, String> {
        run_json(&self.texts[i], Backend::Interpreted)
    }

    /// The reply's payload must equal the one-shot run's report.
    fn digest(&self, output: &str) -> Option<u64> {
        decode_payload(output).map(|payload| digest(&payload))
    }

    fn extras(&self) -> Vec<(&'static str, f64)> {
        let now = self
            .session
            .as_ref()
            .map(|s| s.daemon.cache_stats())
            .unwrap_or_default();
        let base = self.warm.unwrap_or_default();
        let hits = now.hits - base.hits;
        let lookups = hits + now.misses - base.misses;
        vec![
            (
                "serve.cache.hit_ratio",
                crate::ratio(hits as f64, lookups as f64),
            ),
            ("serve.cache.misses", now.misses as f64),
        ]
    }
}

// -------------------------------------------------------------- faults

/// `faults`: `verify::run_campaign` + `to_json` with product defaults
/// (batched engine, default backend), half the calls with checkers off
/// and half with every checker family armed.
///
/// Chosen because the walker runs here as untraced batched lanes over
/// dozens to hundreds of mutants, unlike the solo traced walk of
/// `oneshot` and `serve_warm`, and the checked half adds recording and
/// invariant mining. Models are limited to at most 128 DAG nodes so a
/// run holds many campaigns.
pub struct Faults {
    texts: Vec<String>,
    /// Whether a member is checked against the legacy kernel-per-mutant
    /// engine (corpus and fuzz models); DAGs are checked for determinism
    /// against a report made before timing instead, as a legacy sweep of
    /// them would take longer than a run.
    legacy: Vec<bool>,
    mutants: Vec<u64>,
}

impl Faults {
    fn new(models: &[Model]) -> Result<Faults, String> {
        let members = up_to(models, 128);
        let mut f = Faults {
            texts: Vec::new(),
            legacy: Vec::new(),
            mutants: Vec::new(),
        };
        for m in members.iter().map(|&i| &models[i]) {
            let model = parse_model(&m.text).map_err(|e| e.to_string())?;
            for mode in [CheckerMode::Off, CheckerMode::All] {
                f.mutants
                    .push(generate_faults(&model, &config(mode)).len() as u64);
            }
            f.texts.push(m.text.clone());
            f.legacy.push(m.family != Family::Dag);
        }
        Ok(f)
    }

    /// Input `i` is member `i / 2` with checkers off (even) or all (odd).
    fn input(&self, i: usize) -> (&str, CampaignConfig) {
        let mode = [CheckerMode::Off, CheckerMode::All][i % 2];
        (&self.texts[i / 2], config(mode))
    }
}

fn config(checkers: CheckerMode) -> CampaignConfig {
    CampaignConfig {
        checkers,
        ..CampaignConfig::default()
    }
}

impl Workload for Faults {
    fn inputs(&self) -> usize {
        2 * self.texts.len()
    }

    fn units(&self, i: usize) -> u64 {
        self.mutants[i]
    }

    fn call(&mut self, i: usize) -> Result<String, String> {
        let (text, config) = self.input(i);
        let model = parse_model(text).map_err(|e| e.to_string())?;
        let report = run_campaign(&model, &config).map_err(|e| e.to_string())?;
        Ok(report.to_json())
    }

    fn call_traced(&mut self, i: usize, spans: &mut Spans) -> Result<String, String> {
        let (text, config) = self.input(i);
        let (model, doc) = spans.span(CALL, |s| -> Result<_, String> {
            let model = parse(text, s)?;
            let faults = s.span("faults.generate", |_| generate_faults(&model, &config));
            let report = s
                .span("faults.campaign", |_| {
                    run_campaign_with_faults(&model, faults, &config)
                })
                .map_err(|e| e.to_string())?;
            s.count("faults.mutants", report.rows.len() as u64);
            s.count("faults.detected", report.detected() as u64);
            s.count("faults.applicable", report.applicable() as u64);
            let doc = s.span("faults.report", |_| report.to_json());
            Ok((model, doc))
        })?;
        // The campaign's internal parts, replayed through their public
        // functions so their share of `faults.campaign` can be split off.
        spans.span("faults.replica", |s| -> Result<(), String> {
            s.span("faults.golden", |s| execute_on(config.backend, &model, s))?;
            let checkers = s.span("faults.checkers", |_| {
                build_checkers(&model, config.checkers)
            });
            black_box(checkers.map_err(|e| e.to_string())?);
            black_box(s.span("faults.lower", |_| ExecPlan::lower(&model)));
            Ok(())
        })?;
        Ok(doc)
    }

    fn reference(&mut self, i: usize) -> Result<String, String> {
        if !self.legacy[i / 2] {
            return self.call(i);
        }
        let (text, config) = self.input(i);
        let model = parse_model(text).map_err(|e| e.to_string())?;
        let oracle = CampaignConfig {
            engine: CampaignEngine::Legacy,
            ..config
        };
        let report = run_campaign(&model, &oracle).map_err(|e| e.to_string())?;
        Ok(report.to_json())
    }
}

// ------------------------------------------------------ fleet_stimulus

/// Removes the directory it names when dropped.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `fleet_stimulus`: `BatchSpec::parse` + `fleet::run_batch_with(spec,
/// FLEET_WORKERS, default)` + `to_json` over a pool of 32-job batches — 4
/// models × 8 jobs, jobs 1–7 of each group overriding one register's
/// initial value.
///
/// Chosen because fleet jobs default to the interpreter, so this is the
/// workload where the delta-cycle kernel does most of the work (the other
/// three bypass it or use it once per call), and its sharing factor of 8
/// jobs per model is the "same chip, many inputs" shape stimulus lanes
/// would target. Models are limited to at most 64 DAG nodes
/// ([`fleet_members`]).
pub struct FleetStimulus {
    dir: ScratchDir,
    specs: Vec<String>,
}

impl FleetStimulus {
    fn new(models: &[Model], seed: u64, dir: &Path) -> Result<FleetStimulus, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let dir = ScratchDir(dir.to_path_buf());
        let members = fleet_members(models);
        for &i in &members {
            let path = dir.0.join(model_file(i));
            std::fs::write(&path, &models[i].text)
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        Ok(FleetStimulus {
            specs: fleet_batches(seed, models, &members),
            dir,
        })
    }

    fn batch(&self, i: usize, workers: usize, config: &FleetConfig) -> Result<String, String> {
        let spec = BatchSpec::parse(&self.specs[i], &self.dir.0).map_err(|e| e.to_string())?;
        let report = run_batch_with(&spec, workers, config).map_err(|e| e.to_string())?;
        match report.failed_jobs() {
            0 => Ok(report.to_json(false)),
            n => Err(format!("{n} job(s) quarantined")),
        }
    }
}

impl Workload for FleetStimulus {
    fn inputs(&self) -> usize {
        self.specs.len()
    }

    fn units(&self, _: usize) -> u64 {
        (BATCH_GROUPS * GROUP_JOBS) as u64
    }

    fn call(&mut self, i: usize) -> Result<String, String> {
        self.batch(i, FLEET_WORKERS, &FleetConfig::default())
    }

    fn call_traced(&mut self, i: usize, spans: &mut Spans) -> Result<String, String> {
        let (text, dir) = (&self.specs[i], &self.dir.0);
        let config = FleetConfig::default();
        let (spec, doc) = spans.span(CALL, |s| -> Result<_, String> {
            let spec = s
                .span("fleet.spec", |_| BatchSpec::parse(text, dir))
                .map_err(|e| e.to_string())?;
            let report = s
                .span("fleet.batch", |_| {
                    run_batch_with(&spec, FLEET_WORKERS, &config)
                })
                .map_err(|e| e.to_string())?;
            if report.failed_jobs() > 0 {
                return Err(format!("{} job(s) quarantined", report.failed_jobs()));
            }
            let doc = s.span("fleet.report", |_| report.to_json(false));
            Ok((spec, doc))
        })?;
        // A serial replica of the workers' jobs: resolve, then the traced
        // run on the engine the batch defaults to.
        spans.span("fleet.jobs_serial", |s| -> Result<(), String> {
            for job in &spec.jobs {
                let model = s
                    .span("fleet.resolve", |_| job.resolve())
                    .map_err(|e| e.to_string())?;
                let backend = config.backend.or(job.backend).unwrap_or_default();
                execute_on(backend, &model, s)?;
            }
            Ok(())
        })?;
        Ok(doc)
    }

    fn reference(&mut self, i: usize) -> Result<String, String> {
        // The same batch on the other engine, serially on one worker.
        let oracle = FleetConfig {
            backend: Some(Backend::Compiled),
            ..FleetConfig::default()
        };
        self.batch(i, 1, &oracle)
    }
}
