//! The generic job-queue executor: submit → incremental emission → drain.
//!
//! This is the engine room the batch API ([`run_batch_with`](crate::run_batch_with)) and the
//! serve daemon (`clockless-serve`) share. The shape is deliberately the
//! sync one the ROADMAP's sync-vs-async analysis recommends — a
//! [`std::thread`] worker pool over one shared queue — but the *surface*
//! is transport-agnostic:
//!
//! * work is submitted under a caller-chosen **ticket** (an opaque `u64`
//!   correlation id),
//! * every finished unit is **emitted incrementally** on an
//!   [`mpsc`](std::sync::mpsc) channel as an [`Emission`] the moment it
//!   completes (no batch barrier), and
//! * [`ThreadPool::drain`] blocks until everything submitted so far has
//!   been emitted.
//!
//! Because results are keyed by ticket rather than by arrival order, a
//! caller that wants deterministic output (the fleet report) reorders
//! them, while a caller that wants latency (the daemon streaming NDJSON
//! response lines) forwards them as they arrive. The emission channel is
//! the only coupling between execution and transport.
//!
//! Panic fencing lives at the executor layer: a unit of work that panics
//! is caught at the worker fence and converted to an emission by the
//! pool's `on_panic` handler, so one hostile job can neither kill a
//! worker thread nor starve its ticket of a response.
//!
//! # Examples
//!
//! ```
//! use std::sync::mpsc;
//! use clockless_fleet::executor::{Emission, ThreadPool};
//!
//! let (tx, rx) = mpsc::channel();
//! let pool = ThreadPool::new(2, tx, |_ticket, msg| format!("panicked: {msg}"));
//! for t in 0..4u64 {
//!     pool.submit(t, Box::new(move || format!("job {t} done")));
//! }
//! pool.drain();
//! let mut got: Vec<(u64, String)> = rx.try_iter().map(|e| (e.ticket, e.payload)).collect();
//! got.sort(); // emissions arrive in completion order; tickets restore any order you need
//! assert_eq!(got[0], (0, "job 0 done".to_string()));
//! assert_eq!(got.len(), 4);
//! pool.shutdown();
//! ```

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

use clockless_core::{
    execute_checked, Backend, CheckProgram, CheckedError, Elaboration, ExecOptions, OptLevel,
    RtModel,
};
use clockless_kernel::KernelError;

use crate::engine::FleetConfig;
use crate::report::{FailureKind, JobFailure, JobOutcome, JobResult};
use crate::spec::{ChaosProbe, FleetError, JobSource, JobSpec};

/// A unit of work: runs on a worker thread, produces one emission
/// payload.
pub type WorkFn<T> = Box<dyn FnOnce() -> T + Send + 'static>;

/// One finished unit of work, tagged with the ticket it was submitted
/// under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Emission<T> {
    /// The caller-chosen correlation id from [`ThreadPool::submit`].
    pub ticket: u64,
    /// What the work produced.
    pub payload: T,
}

/// What the worker threads share.
struct Shared<T> {
    state: Mutex<QueueState<T>>,
    /// Signals workers (new work / shutdown) and drainers (work done).
    signal: Condvar,
}

struct QueueState<T> {
    queue: VecDeque<(u64, WorkFn<T>)>,
    /// Units popped from the queue and currently executing.
    running: usize,
    shutdown: bool,
}

/// Poison-tolerant lock: a panic on a sibling thread (outside the worker
/// fence) must not wedge the queue.
fn lock<T>(shared: &Shared<T>) -> MutexGuard<'_, QueueState<T>> {
    lock_ignoring_poison(&shared.state)
}

/// Locks `mutex` even if a panicking holder poisoned it: the queue must
/// stay usable, and a shared elaboration is only ever read.
fn lock_ignoring_poison<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// The sync job-queue executor: `workers` detached `std::thread`s pulling
/// from one shared queue, emitting each finished unit on the `sink`
/// channel passed at construction.
///
/// See the [module docs](self) for the design rationale and an example.
pub struct ThreadPool<T> {
    shared: Arc<Shared<T>>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
}

impl<T: Send + 'static> ThreadPool<T> {
    /// Spawns `workers` threads (at least one) feeding `sink`. A unit of
    /// work that panics past its own fences is converted to an emission
    /// by `on_panic(ticket, panic_message)` — every submitted ticket is
    /// answered, panic or not.
    pub fn new(
        workers: usize,
        sink: Sender<Emission<T>>,
        on_panic: impl Fn(u64, String) -> T + Send + Sync + 'static,
    ) -> ThreadPool<T> {
        install_quiet_panic_hook();
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                running: 0,
                shutdown: false,
            }),
            signal: Condvar::new(),
        });
        let on_panic = Arc::new(on_panic);
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let sink = sink.clone();
                let on_panic = Arc::clone(&on_panic);
                std::thread::spawn(move || worker_loop(&shared, &sink, &*on_panic))
            })
            .collect();
        ThreadPool {
            shared,
            handles,
            workers,
        }
    }

    /// How many worker threads the pool runs.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Enqueues a unit of work under `ticket`. Returns immediately; the
    /// result arrives on the pool's emission channel.
    pub fn submit(&self, ticket: u64, work: WorkFn<T>) {
        {
            let mut st = lock(&self.shared);
            st.queue.push_back((ticket, work));
        }
        self.shared.signal.notify_all();
    }

    /// Units submitted but not yet emitted (queued + running).
    pub fn queue_depth(&self) -> usize {
        let st = lock(&self.shared);
        st.queue.len() + st.running
    }

    /// Blocks until every unit submitted so far has been emitted. New
    /// submissions during the wait extend it.
    pub fn drain(&self) {
        let mut st = lock(&self.shared);
        while !st.queue.is_empty() || st.running > 0 {
            st = self
                .shared
                .signal
                .wait(st)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Drains outstanding work, then stops and joins the worker threads.
    pub fn shutdown(mut self) {
        self.drain();
        {
            let mut st = lock(&self.shared);
            st.shutdown = true;
        }
        self.shared.signal.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl<T> Drop for ThreadPool<T> {
    fn drop(&mut self) {
        // Dropping without `shutdown()` still stops the workers (they
        // finish in-flight units first); we just don't block to join.
        let mut st = lock(&self.shared);
        st.shutdown = true;
        drop(st);
        self.shared.signal.notify_all();
    }
}

fn worker_loop<T>(
    shared: &Shared<T>,
    sink: &Sender<Emission<T>>,
    on_panic: &(dyn Fn(u64, String) -> T + Send + Sync),
) {
    loop {
        let item = {
            let mut st = lock(shared);
            loop {
                if let Some(item) = st.queue.pop_front() {
                    st.running += 1;
                    break Some(item);
                }
                if st.shutdown {
                    break None;
                }
                st = shared.signal.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some((ticket, work)) = item else { return };
        // The worker fence: a panicking unit is converted to a payload,
        // never a dead thread or a missing emission.
        FENCED.with(|f| f.set(true));
        let payload = catch_unwind(AssertUnwindSafe(work))
            .unwrap_or_else(|p| on_panic(ticket, panic_message(p.as_ref())));
        FENCED.with(|f| f.set(false));
        let _ = sink.send(Emission { ticket, payload });
        let mut st = lock(shared);
        st.running -= 1;
        drop(st);
        shared.signal.notify_all();
    }
}

std::thread_local! {
    /// `true` while this thread is inside a worker's `catch_unwind`
    /// fence — panics there are caught, classified and reported in the
    /// emission, so the default print-a-backtrace hook only adds noise.
    static FENCED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Installs (once per process) a panic hook that stays silent for panics
/// the executor is about to catch and defers to the previous hook for
/// everything else.
pub(crate) fn install_quiet_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !FENCED.with(|f| f.get()) {
                previous(info);
            }
        }));
    });
}

/// Marks the current thread as fenced for the duration of `f`, keeping
/// the quiet panic hook in effect for fences outside the worker loop
/// (the retry loop runs its own `catch_unwind`).
fn fenced<R>(f: impl FnOnce() -> R) -> R {
    FENCED.with(|c| c.set(true));
    let r = f();
    FENCED.with(|c| c.set(false));
    r
}

/// Best-effort rendering of a panic payload (`&str` and `String` cover
/// every panic the workspace raises).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One fully resolved unit of fleet work: what a worker needs to run the
/// job, independent of where the spec came from.
pub struct ResolvedJob {
    /// The job's report name.
    pub name: String,
    /// The materialized model, or the build error that quarantines the
    /// job without running anything.
    pub model: Result<RtModel, FleetError>,
    /// Effective delta-cycle budget (batch and per-job budgets already
    /// reconciled — the smaller wins).
    pub delta_budget: Option<u64>,
    /// The engine this job executes on.
    pub backend: Backend,
    /// Optimization level for the compiled engine (ignored by the
    /// interpreter; reports stay byte-identical across levels).
    pub opt: OptLevel,
    /// Value-checking program evaluated alongside the run, if any.
    pub check: Option<Arc<CheckProgram>>,
    /// Deliberate misbehaviour to trip inside the worker fence, if any.
    pub chaos: Option<ChaosProbe>,
    /// The elaboration of the job's group, shared read-only by its kernel
    /// jobs: the job runs a private copy of it instead of elaborating its
    /// own model.
    pub(crate) template: Option<Arc<Mutex<Elaboration>>>,
}

impl ResolvedJob {
    /// Resolves a [`JobSpec`] under `config` (reading files, running
    /// HLS, reconciling budgets and backend overrides). Resolution
    /// errors are captured in [`ResolvedJob::model`], not returned — the
    /// executor quarantines them per-job.
    pub fn from_spec(spec: &JobSpec, config: &FleetConfig) -> ResolvedJob {
        ResolvedJob::with_model(spec, config, spec.resolve())
    }

    /// [`from_spec`](Self::from_spec) with the job's model resolved
    /// already.
    pub(crate) fn with_model(
        spec: &JobSpec,
        config: &FleetConfig,
        model: Result<RtModel, FleetError>,
    ) -> ResolvedJob {
        ResolvedJob {
            name: spec.name.clone(),
            model,
            delta_budget: min_budget(config.delta_budget, spec.delta_budget),
            backend: config.backend.or(spec.backend).unwrap_or_default(),
            opt: config.opt,
            check: config.check.clone(),
            chaos: match spec.source {
                JobSource::Chaos(p) => Some(p),
                _ => None,
            },
            template: None,
        }
    }
}

/// The smaller of two optional budgets (absent means unbounded).
pub(crate) fn min_budget(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// Classifies a kernel error under the configured budgets — the one
/// mapping every executor caller must agree on.
///
/// The delta limit only classifies as a budget failure when a budget was
/// actually configured; at the kernel's default runaway limit it is an
/// ordinary run failure (oscillation).
pub fn classify_kernel_error(e: &KernelError, delta_budget: Option<u64>) -> FailureKind {
    match e {
        KernelError::DeltaOverflow { .. } if delta_budget.is_some() => FailureKind::DeltaBudget,
        KernelError::WallBudgetExceeded { .. } => FailureKind::WallBudget,
        _ => FailureKind::Run,
    }
}

/// Runs one resolved job to a classified outcome: panic-fenced, retried
/// up to `config.max_retries`, failures quarantined as
/// [`JobOutcome::Failed`]. This is the quarantine/retry/budget machinery
/// both the batch engine and the serve daemon execute jobs through.
pub fn execute_job(job: &ResolvedJob, config: &FleetConfig) -> JobOutcome {
    let model = match &job.model {
        Ok(m) => m,
        Err(e) => {
            // Build failures are deterministic; retrying would re-parse
            // the same bytes.
            return JobOutcome::Failed(JobFailure {
                name: job.name.clone(),
                kind: FailureKind::Build,
                error: build_error_text(e),
                retries: 0,
                stats: clockless_kernel::SimStats::default(),
            });
        }
    };
    let mut attempt: u64 = 0;
    loop {
        let run = fenced(|| catch_unwind(AssertUnwindSafe(|| run_job(job, model, config))));
        let failure = match run {
            Ok(Ok(mut result)) => {
                result.stats.retries = attempt;
                return JobOutcome::Ok(Box::new(result));
            }
            Ok(Err((kind, error))) => (kind, error),
            Err(payload) => (FailureKind::Panicked, panic_message(payload.as_ref())),
        };
        if attempt >= u64::from(config.max_retries) {
            // The partial work is deterministic only for a delta-budget
            // exhaustion (the run burned exactly the budget); other
            // failure kinds carry no reproducible counters.
            let stats = clockless_kernel::SimStats {
                delta_cycles: match failure.0 {
                    FailureKind::DeltaBudget => job.delta_budget.unwrap_or(0),
                    _ => 0,
                },
                retries: attempt,
                ..Default::default()
            };
            return JobOutcome::Failed(JobFailure {
                name: job.name.clone(),
                kind: failure.0,
                error: failure.1,
                retries: attempt,
                stats,
            });
        }
        attempt += 1;
    }
}

/// Extracts the message a job's resolution error carries, without the
/// job-name prefix the report row already provides.
fn build_error_text(e: &FleetError) -> String {
    match e {
        FleetError::Build { msg, .. } | FleetError::Io { msg, .. } => msg.clone(),
        other => other.to_string(),
    }
}

/// Runs `job`, whose model is `model`, on a fresh, private engine
/// instance of the selected backend (always traced, so conflict
/// diagnoses are available in the report), enforcing the configured
/// budgets and evaluating the value checkers when a program is armed.
fn run_job(
    job: &ResolvedJob,
    model: &RtModel,
    config: &FleetConfig,
) -> Result<JobResult, (FailureKind, String)> {
    if let Some(probe) = job.chaos {
        probe.trip();
    }
    let (backend, delta_budget) = (job.backend, job.delta_budget);
    let t0 = Instant::now();
    let options = ExecOptions {
        trace: true,
        delta_limit: delta_budget,
        deadline: config.wall_budget.map(|d| t0 + d),
        opt: job.opt,
    };
    let (summary, check) = match job.check.as_deref() {
        Some(program) => {
            let (outcome, verdict) =
                execute_checked(model, backend, &options, program).map_err(|e| match e {
                    CheckedError::Kernel(k) => {
                        (classify_kernel_error(&k, delta_budget), k.to_string())
                    }
                    other => (FailureKind::Run, other.to_string()),
                })?;
            (outcome.summary, Some(verdict))
        }
        None => {
            let outcome = match &job.template {
                Some(template) => {
                    // The lock covers the copy and its initialization,
                    // never the run.
                    let sim = lock_ignoring_poison(template).instantiate(model);
                    sim.and_then(|sim| sim.execute(&options))
                }
                None => backend.execute(model, &options),
            };
            let summary = outcome
                .map(|outcome| outcome.summary)
                .map_err(|e| (classify_kernel_error(&e, delta_budget), e.to_string()))?;
            (summary, None)
        }
    };
    let wall_ns = t0.elapsed().as_nanos() as u64;
    Ok(JobResult {
        name: job.name.clone(),
        model: model.name().to_string(),
        cs_max: model.cs_max(),
        tuples: model.tuples().len(),
        stats: summary.stats,
        registers: summary.registers,
        conflicts: summary.conflicts.expect("traced run records conflicts"),
        wall_ns,
        check,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn pool(workers: usize, sink: Sender<Emission<String>>) -> ThreadPool<String> {
        ThreadPool::new(workers, sink, |_, msg| format!("panic:{msg}"))
    }

    #[test]
    fn emissions_cover_every_ticket() {
        let (tx, rx) = mpsc::channel();
        let p = pool(3, tx);
        for t in 0..16u64 {
            p.submit(t, Box::new(move || format!("r{t}")));
        }
        p.drain();
        let mut got: Vec<u64> = rx.try_iter().map(|e| e.ticket).collect();
        got.sort_unstable();
        assert_eq!(got, (0..16).collect::<Vec<_>>());
        p.shutdown();
    }

    #[test]
    fn panicking_work_is_fenced_and_answered() {
        let (tx, rx) = mpsc::channel();
        let p = pool(2, tx);
        p.submit(7, Box::new(|| panic!("deliberate")));
        p.submit(8, Box::new(|| "fine".to_string()));
        p.drain();
        let mut got: Vec<(u64, String)> = rx.try_iter().map(|e| (e.ticket, e.payload)).collect();
        got.sort();
        assert_eq!(got[0], (7, "panic:deliberate".to_string()));
        assert_eq!(got[1], (8, "fine".to_string()));
        p.shutdown();
    }

    #[test]
    fn queue_depth_counts_queued_and_running() {
        let (tx, rx) = mpsc::channel();
        let p = pool(1, tx);
        let (hold_tx, hold_rx) = mpsc::channel::<()>();
        let hold_rx = std::sync::Mutex::new(hold_rx);
        p.submit(
            0,
            Box::new(move || {
                let _ = hold_rx.lock().unwrap().recv();
                "held".to_string()
            }),
        );
        p.submit(1, Box::new(|| "queued".to_string()));
        // One unit is blocked running, one is queued behind it.
        while p.queue_depth() < 2 {
            std::thread::yield_now();
        }
        assert_eq!(p.queue_depth(), 2);
        hold_tx.send(()).unwrap();
        p.drain();
        assert_eq!(p.queue_depth(), 0);
        assert_eq!(rx.try_iter().count(), 2);
        p.shutdown();
    }

    #[test]
    fn drain_returns_immediately_when_idle() {
        let (tx, _rx) = mpsc::channel();
        let p = pool(2, tx);
        p.drain();
        p.shutdown();
    }

    #[test]
    fn classify_maps_budget_errors_only_under_a_budget() {
        let overflow = KernelError::DeltaOverflow {
            at: Default::default(),
            limit: 10,
        };
        assert_eq!(
            classify_kernel_error(&overflow, Some(10)),
            FailureKind::DeltaBudget
        );
        assert_eq!(classify_kernel_error(&overflow, None), FailureKind::Run);
    }

    #[test]
    fn min_budget_prefers_the_tighter_cap() {
        assert_eq!(min_budget(None, None), None);
        assert_eq!(min_budget(Some(5), None), Some(5));
        assert_eq!(min_budget(None, Some(9)), Some(9));
        assert_eq!(min_budget(Some(5), Some(9)), Some(5));
        assert_eq!(min_budget(Some(9), Some(5)), Some(5));
    }
}
