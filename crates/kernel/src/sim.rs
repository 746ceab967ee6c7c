//! The simulator: elaboration plus the delta-cycle event loop.
//!
//! The loop follows VHDL simulation semantics:
//!
//! 1. At the start of a delta cycle, all driver assignments scheduled for
//!    the current instant take effect; signals whose *effective* (resolved)
//!    value changes have an **event**.
//! 2. Processes waiting on those signals (and processes whose `wait for`
//!    expired) become runnable and execute, scheduling new assignments for
//!    the *next* delta cycle.
//! 3. When an instant produces no further activity, physical time advances
//!    to the next scheduled transaction; when none exists the simulation is
//!    quiescent and stops.
//!
//! Delta cycles are first-class and counted in [`SimStats`] because the
//! paper's central timing claim is stated in them: one control step of the
//! clock-free RT model costs exactly six delta cycles.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::Arc;

use crate::error::KernelError;
use crate::process::{Process, ProcessCtx, ProcessId, Wait};
use crate::signal::{Resolver, SignalId, SignalSlot};
use crate::time::{Femtos, SimTime};
use crate::trace::Trace;

/// Values a simulator can carry: cloneable, comparable, debuggable.
///
/// Implemented automatically for every eligible type.
pub trait SimValue: Clone + Eq + fmt::Debug + Send + 'static {}
impl<T: Clone + Eq + fmt::Debug + Send + 'static> SimValue for T {}

/// The per-instant delta-cycle budget of a new [`Simulator`], and of
/// every run that sets none: exceeding it is
/// [`KernelError::DeltaOverflow`].
pub const DEFAULT_DELTA_LIMIT: u64 = 100_000_000;

/// Counters describing one simulation run.
///
/// All counters are cumulative over the simulator's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Delta cycles executed (update/run rounds, including time-zero ones).
    pub delta_cycles: u64,
    /// Total process resumptions.
    pub process_activations: u64,
    /// Signal events (effective-value changes).
    pub events: u64,
    /// Driver transactions applied (including ones producing no event).
    pub driver_updates: u64,
    /// Physical-time advances.
    pub time_advances: u64,
    /// `Wait::UntilEq` filter firings that woke a process (the watched
    /// signal changed to the awaited value). Waiters are bucketed per
    /// awaited value, so the filter only ever fires on a match.
    pub wake_filter_hits: u64,
    /// `Wait::UntilEq` filter evaluations that suppressed a wake-up.
    /// Since waiters are bucketed per awaited value, non-matching
    /// waiters are never scanned and this counter is structurally zero;
    /// it is kept for report-layout stability.
    pub wake_filter_misses: u64,
    /// Highest number of processes made runnable in any single delta.
    pub peak_runnable: u64,
    /// Highest number of driver updates pending at the start of any
    /// single delta.
    pub peak_pending_updates: u64,
    /// Faults deliberately injected into the model(s) behind these
    /// counters. The kernel never sets this itself; fault-injection
    /// harnesses (`clockless-verify` campaigns) stamp it so merged totals
    /// carry the campaign size.
    pub injected_faults: u64,
    /// Job re-executions performed by a batch engine on top of this run.
    /// Like `injected_faults`, this is stamped by the harness (the fleet
    /// retry loop), not by the kernel.
    pub retries: u64,
}

impl SimStats {
    /// Folds another run's counters into this one: cumulative counters
    /// add, high-water marks (`peak_*`) take the maximum.
    ///
    /// This is the aggregation used by batch engines combining many
    /// independent kernel instances into one total (each instance is a
    /// separate simulation, so peaks across instances do not stack).
    ///
    /// # Examples
    ///
    /// ```
    /// use clockless_kernel::SimStats;
    ///
    /// let mut total = SimStats { delta_cycles: 10, peak_runnable: 4, ..Default::default() };
    /// let other = SimStats { delta_cycles: 5, peak_runnable: 9, ..Default::default() };
    /// total.merge(&other);
    /// assert_eq!(total.delta_cycles, 15);
    /// assert_eq!(total.peak_runnable, 9);
    /// ```
    pub fn merge(&mut self, other: &SimStats) {
        self.delta_cycles += other.delta_cycles;
        self.process_activations += other.process_activations;
        self.events += other.events;
        self.driver_updates += other.driver_updates;
        self.time_advances += other.time_advances;
        self.wake_filter_hits += other.wake_filter_hits;
        self.wake_filter_misses += other.wake_filter_misses;
        self.peak_runnable = self.peak_runnable.max(other.peak_runnable);
        self.peak_pending_updates = self.peak_pending_updates.max(other.peak_pending_updates);
        self.injected_faults += other.injected_faults;
        self.retries += other.retries;
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} deltas, {} activations, {} events, {} transactions, {} time advances",
            self.delta_cycles,
            self.process_activations,
            self.events,
            self.driver_updates,
            self.time_advances
        )
    }
}

/// A termination budget for [`Simulator::run_with_budget`].
///
/// All of the kernel's run loops are the same delta-stepping driver with
/// a different stopping rule; this enum names the rule. Execution
/// backends layered above the kernel wrap exactly one entry point
/// ([`run_with_budget`](Simulator::run_with_budget)) instead of three.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunBudget {
    /// Run until the model is quiescent, with no budget at all (pays no
    /// clock reads in the loop).
    Unbounded,
    /// Run until quiescent, aborting with
    /// [`KernelError::WallBudgetExceeded`] once the wall clock passes
    /// the deadline. Checked after every delta cycle.
    Wall(std::time::Instant),
    /// Run until quiescent or until physical time would pass the given
    /// instant (in femtoseconds); stopping at the budget is not an
    /// error.
    SimTime(Femtos),
}

/// Outcome of [`Simulator::step_delta`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// A delta cycle ran at the same physical time.
    Delta,
    /// Physical time advanced to the contained instant and a delta ran there.
    AdvancedTo(Femtos),
    /// Nothing left to do: the model is quiescent.
    Quiescent,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LifeCycle {
    Building,
    Running,
    Finished,
}

struct ProcSlot<V> {
    /// Shared with copies of the simulator, like `owned`.
    name: Arc<str>,
    body: Option<Box<dyn Process<V>>>,
    /// `(signal, driver index within that signal)` pairs this process owns.
    owned: Arc<[(SignalId, u32)]>,
    /// Current sensitivity list (empty while in a timed wait or done).
    sens: Vec<SignalId>,
    /// In-kernel wake filter: only wake when the (single) watched signal
    /// equals this value (`Wait::UntilEq`).
    pred: Option<V>,
    /// Wait token; registrations with older tokens are stale.
    token: u64,
    runnable: bool,
    done: bool,
}

/// Sentinel driver index used by [`Simulator::force`].
const EXTERNAL: u32 = u32::MAX;

struct TimedUpdate<V> {
    fs: Femtos,
    seq: u64,
    signal: SignalId,
    driver: u32,
    value: V,
}

impl<V> PartialEq for TimedUpdate<V> {
    fn eq(&self, other: &Self) -> bool {
        self.fs == other.fs && self.seq == other.seq
    }
}
impl<V> Eq for TimedUpdate<V> {}
impl<V> PartialOrd for TimedUpdate<V> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<V> Ord for TimedUpdate<V> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.fs, self.seq).cmp(&(other.fs, other.seq))
    }
}

/// A discrete-event simulator with VHDL delta-cycle semantics.
///
/// Generic over the value type `V` carried by its signals, so the same
/// kernel runs the clock-free RT models (integer-with-sentinels values),
/// clocked netlists (bits) and anything in between.
///
/// # Examples
///
/// ```
/// use clockless_kernel::prelude::*;
///
/// let mut sim: Simulator<i64> = Simulator::new();
/// let a = sim.signal("a", 1);
/// let b = sim.signal("b", 0);
/// // A process that copies `a` to `b` once, then terminates.
/// sim.process("copy", &[b], move |ctx: &mut ProcessCtx<'_, i64>| {
///     let v = *ctx.value(a);
///     ctx.assign(b, v);
///     Wait::Done
/// });
/// sim.initialize()?;
/// sim.run()?;
/// assert_eq!(*sim.value(b), 1);
/// # Ok::<(), clockless_kernel::KernelError>(())
/// ```
pub struct Simulator<V: SimValue> {
    signals: Vec<SignalSlot<V>>,
    inits: Vec<V>,
    procs: Vec<ProcSlot<V>>,
    /// Driver updates taking effect at the next delta cycle.
    next_delta: Vec<(SignalId, u32, V)>,
    timed_updates: BinaryHeap<Reverse<TimedUpdate<V>>>,
    /// `(fs, seq, pid)` timed process wake-ups.
    timed_wakes: BinaryHeap<Reverse<(Femtos, u64, u32)>>,
    /// Processes to wake at the next delta (zero-duration `wait for`).
    zero_wakes: Vec<u32>,
    runnable: Vec<u32>,
    now: SimTime,
    seq: u64,
    /// Monotonic per-delta tick used for `'event` queries and the
    /// changed-set dedup (a signal is in the changed set iff its
    /// `last_event_tick` equals the current tick).
    tick: u64,
    stats: SimStats,
    /// Per-process resumption counts, indexed by `ProcessId`.
    activations: Vec<u64>,
    trace: Option<Trace<V>>,
    /// Per-signal commit-observation flags (empty = observation off).
    observe: Vec<bool>,
    /// `(delta, signal, effective value)` commits of observed signals, in
    /// chronological order. Independent of tracing.
    commit_log: Vec<(u64, SignalId, V)>,
    delta_limit: u64,
    life: LifeCycle,
    /// Scratch buffers reused across delta cycles. The `_back` buffers
    /// double-buffer their live counterparts: each delta swaps the full
    /// queue out and hands its (empty, capacity-preserving) twin back in,
    /// so the hot loop never reallocates once the model reaches steady
    /// state.
    scratch_out: Vec<(SignalId, u32, V, Femtos)>,
    scratch_changed: Vec<u32>,
    next_delta_back: Vec<(SignalId, u32, V)>,
    zero_wakes_back: Vec<u32>,
    runnable_back: Vec<u32>,
}

impl<V: SimValue> Default for Simulator<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: SimValue> fmt::Debug for Simulator<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("signals", &self.signals.len())
            .field("processes", &self.procs.len())
            .field("now", &self.now)
            .field("stats", &self.stats)
            .finish()
    }
}

impl<V: SimValue> Simulator<V> {
    /// Creates an empty simulator.
    pub fn new() -> Self {
        Simulator {
            signals: Vec::new(),
            inits: Vec::new(),
            procs: Vec::new(),
            next_delta: Vec::new(),
            timed_updates: BinaryHeap::new(),
            timed_wakes: BinaryHeap::new(),
            zero_wakes: Vec::new(),
            runnable: Vec::new(),
            now: SimTime::ZERO,
            seq: 0,
            tick: 0,
            stats: SimStats::default(),
            activations: Vec::new(),
            trace: None,
            observe: Vec::new(),
            commit_log: Vec::new(),
            delta_limit: DEFAULT_DELTA_LIMIT,
            life: LifeCycle::Building,
            scratch_out: Vec::new(),
            scratch_changed: Vec::new(),
            next_delta_back: Vec::new(),
            zero_wakes_back: Vec::new(),
            runnable_back: Vec::new(),
        }
    }

    /// Declares an unresolved signal with the given initial value.
    ///
    /// Unresolved signals accept at most one driver; violations are
    /// reported by [`initialize`](Self::initialize).
    pub fn signal(&mut self, name: impl Into<Arc<str>>, init: V) -> SignalId {
        let id = SignalId(self.signals.len() as u32);
        self.signals
            .push(SignalSlot::new(name.into(), init.clone(), None));
        self.inits.push(init);
        id
    }

    /// Declares a resolved signal: its effective value is the resolution
    /// function applied to all driver values, exactly as for a VHDL
    /// resolved signal. This is how the paper's buses and functional-unit
    /// input ports are modeled.
    pub fn resolved_signal(
        &mut self,
        name: impl Into<Arc<str>>,
        init: V,
        resolver: Resolver<V>,
    ) -> SignalId {
        let id = SignalId(self.signals.len() as u32);
        self.signals
            .push(SignalSlot::new(name.into(), init.clone(), Some(resolver)));
        self.inits.push(init);
        id
    }

    /// Adds a process, declaring which signals it drives.
    ///
    /// A driver is created on each listed signal, initialized to the
    /// signal's declared initial value (the paper's port defaults and
    /// signal defaults coincide — everything starts at `DISC`). The process
    /// body runs for the first time during [`initialize`](Self::initialize).
    ///
    /// # Panics
    ///
    /// Panics if any driven signal id is unknown.
    pub fn process(
        &mut self,
        name: impl Into<Arc<str>>,
        drives: &[SignalId],
        body: impl Process<V> + 'static,
    ) -> ProcessId {
        let pid = ProcessId(self.procs.len() as u32);
        let mut owned = Vec::with_capacity(drives.len());
        for &sid in drives {
            let slot = &mut self.signals[sid.index()];
            let driver = slot.drivers.len() as u32;
            let init = self.inits[sid.index()].clone();
            slot.drivers.push(init);
            owned.push((sid, driver));
        }
        self.procs.push(ProcSlot {
            name: name.into(),
            body: Some(Box::new(body)),
            owned: owned.into(),
            sens: Vec::new(),
            pred: None,
            token: 0,
            runnable: false,
            done: false,
        });
        self.activations.push(0);
        pid
    }

    /// Enables waveform tracing of every signal event.
    ///
    /// Must be called before [`initialize`](Self::initialize) to capture
    /// initial values.
    pub fn enable_trace(&mut self) {
        self.trace = Some(Trace::new());
    }

    /// Sets the per-instant delta-cycle budget (default:
    /// [`DEFAULT_DELTA_LIMIT`], 10^8).
    ///
    /// Exceeding it aborts the run with [`KernelError::DeltaOverflow`],
    /// the usual symptom of a zero-delay oscillation.
    pub fn set_delta_limit(&mut self, limit: u64) {
        self.delta_limit = limit;
    }

    /// The per-instant delta-cycle budget runs are held to.
    pub fn delta_limit(&self) -> u64 {
        self.delta_limit
    }

    /// Changes the initial value of a signal that is still being built:
    /// the signal and every driver already attached to it start at
    /// `init`, exactly as if the signal had been declared with it.
    ///
    /// # Errors
    ///
    /// [`KernelError::BadPhase`] once [`initialize`](Self::initialize)
    /// has run, [`KernelError::UnknownSignal`] for an invalid id.
    pub fn set_initial_value(&mut self, signal: SignalId, init: V) -> Result<(), KernelError> {
        if self.life != LifeCycle::Building {
            return Err(KernelError::BadPhase("set_initial_value after initialize"));
        }
        let slot = self
            .signals
            .get_mut(signal.index())
            .ok_or(KernelError::UnknownSignal(signal))?;
        for driver in &mut slot.drivers {
            *driver = init.clone();
        }
        slot.value = init.clone();
        self.inits[signal.index()] = init;
        Ok(())
    }

    /// A copy of a simulator that is still being built: the same
    /// signals, drivers, processes and settings, with its own state, so
    /// it runs exactly as the original would and neither run affects the
    /// other. Names and resolvers are shared, not copied.
    ///
    /// Returns `None` once [`initialize`](Self::initialize) has run, or
    /// when a process cannot copy itself ([`Process::try_clone`]).
    pub fn try_clone(&self) -> Option<Simulator<V>> {
        if self.life != LifeCycle::Building {
            return None;
        }
        let procs = self
            .procs
            .iter()
            .map(|p| {
                Some(ProcSlot {
                    name: Arc::clone(&p.name),
                    body: Some(p.body.as_ref()?.try_clone()?),
                    owned: Arc::clone(&p.owned),
                    sens: Vec::new(),
                    pred: None,
                    token: 0,
                    runnable: false,
                    done: false,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Simulator {
            signals: self
                .signals
                .iter()
                .map(SignalSlot::unstarted_copy)
                .collect(),
            inits: self.inits.clone(),
            procs,
            next_delta: self.next_delta.clone(),
            activations: vec![0; self.activations.len()],
            trace: self.trace.as_ref().map(|_| Trace::new()),
            observe: self.observe.clone(),
            delta_limit: self.delta_limit,
            ..Simulator::new()
        })
    }

    /// Runs every process once (VHDL initialization) and prepares the
    /// event loop.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnresolvedMultipleDrivers`] if an unresolved
    /// signal ended up with more than one driver, or
    /// [`KernelError::BadPhase`] if called more than once.
    pub fn initialize(&mut self) -> Result<(), KernelError> {
        if self.life != LifeCycle::Building {
            return Err(KernelError::BadPhase("initialize called twice"));
        }
        for (i, s) in self.signals.iter().enumerate() {
            if s.resolver.is_none() && s.drivers.len() > 1 {
                return Err(KernelError::UnresolvedMultipleDrivers {
                    signal: SignalId(i as u32),
                    name: s.name.to_string(),
                    drivers: s.drivers.len(),
                });
            }
        }
        if let Some(trace) = &mut self.trace {
            for (i, s) in self.signals.iter().enumerate() {
                trace.record(SimTime::ZERO, SignalId(i as u32), s.value.clone());
            }
        }
        self.life = LifeCycle::Running;
        for pid in 0..self.procs.len() as u32 {
            self.procs[pid as usize].runnable = true;
            self.runnable.push(pid);
        }
        Ok(())
    }

    /// Executes one delta cycle (or advances time to the next scheduled
    /// instant and executes the first delta cycle there).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::BadPhase`] before `initialize`, or
    /// [`KernelError::DeltaOverflow`] when the instant's delta budget is
    /// exhausted.
    pub fn step_delta(&mut self) -> Result<StepOutcome, KernelError> {
        match self.life {
            LifeCycle::Building => {
                return Err(KernelError::BadPhase("step_delta before initialize"))
            }
            LifeCycle::Finished => return Ok(StepOutcome::Quiescent),
            LifeCycle::Running => {}
        }

        // If the current instant is exhausted, advance physical time.
        let mut advanced = None;
        if self.instant_exhausted() {
            match self.next_instant() {
                Some(fs) => {
                    self.now = self.now.advanced_to(fs);
                    self.stats.time_advances += 1;
                    advanced = Some(fs);
                }
                None => {
                    self.life = LifeCycle::Finished;
                    return Ok(StepOutcome::Quiescent);
                }
            }
        }

        if self.now.delta >= self.delta_limit {
            return Err(KernelError::DeltaOverflow {
                at: self.now,
                limit: self.delta_limit,
            });
        }

        self.tick += 1;

        // Phase 1: apply driver transactions due at this instant. The
        // pending queue is swapped against its (empty) double buffer so
        // the drained allocation is reused next delta instead of freed.
        let mut changed = std::mem::take(&mut self.scratch_changed);
        changed.clear();
        let mut updates = std::mem::replace(
            &mut self.next_delta,
            std::mem::take(&mut self.next_delta_back),
        );
        self.stats.peak_pending_updates = self.stats.peak_pending_updates.max(updates.len() as u64);
        for (sid, driver, value) in updates.drain(..) {
            self.apply_update(sid, driver, value, &mut changed);
        }
        self.next_delta_back = updates;
        if self.now.delta == 0 {
            while let Some(Reverse(u)) = self.timed_updates.peek() {
                if u.fs != self.now.fs {
                    break;
                }
                let Reverse(u) = self.timed_updates.pop().expect("peeked");
                self.apply_update(u.signal, u.driver, u.value, &mut changed);
            }
            while let Some(&Reverse((fs, _, pid))) = self.timed_wakes.peek() {
                if fs != self.now.fs {
                    break;
                }
                self.timed_wakes.pop();
                self.make_runnable(pid);
            }
        }

        // Phase 2: signal events wake sensitive processes.
        for sid in changed.drain(..) {
            self.wake_waiters(sid);
        }
        self.scratch_changed = changed;
        let mut zero = std::mem::replace(
            &mut self.zero_wakes,
            std::mem::take(&mut self.zero_wakes_back),
        );
        for pid in zero.drain(..) {
            self.make_runnable(pid);
        }
        self.zero_wakes_back = zero;

        // Phase 3: run all runnable processes.
        self.stats.peak_runnable = self.stats.peak_runnable.max(self.runnable.len() as u64);
        let mut run_list =
            std::mem::replace(&mut self.runnable, std::mem::take(&mut self.runnable_back));
        for &pid in &run_list {
            self.run_process(pid);
        }
        run_list.clear();
        self.runnable_back = run_list;

        self.stats.delta_cycles += 1;
        self.now = self.now.next_delta();
        Ok(match advanced {
            Some(fs) => StepOutcome::AdvancedTo(fs),
            None => StepOutcome::Delta,
        })
    }

    /// Runs delta cycles until quiescence or until the budget stops the
    /// loop. This is the single run driver; [`run`](Self::run),
    /// [`run_deadlined`](Self::run_deadlined) and
    /// [`run_until`](Self::run_until) are thin wrappers selecting a
    /// [`RunBudget`], and alternative execution backends should wrap this
    /// entry point rather than the convenience methods.
    ///
    /// # Errors
    ///
    /// Propagates any error from [`step_delta`](Self::step_delta), plus
    /// [`KernelError::WallBudgetExceeded`] when a
    /// [`RunBudget::Wall`] deadline passes. A [`RunBudget::SimTime`]
    /// budget is not an error: the loop returns normally with the
    /// simulator standing at the first scheduled instant past the
    /// deadline.
    pub fn run_with_budget(&mut self, budget: RunBudget) -> Result<SimStats, KernelError> {
        loop {
            if let RunBudget::SimTime(deadline_fs) = budget {
                // Peek ahead before stepping: if the next activity lies
                // beyond the physical deadline, stop without executing it.
                if self.instant_exhausted() {
                    match self.next_instant() {
                        None => {
                            self.life = LifeCycle::Finished;
                            return Ok(self.stats);
                        }
                        Some(fs) if fs > deadline_fs => return Ok(self.stats),
                        Some(_) => {}
                    }
                }
            }
            if self.step_delta()? == StepOutcome::Quiescent {
                return Ok(self.stats);
            }
            if let RunBudget::Wall(deadline) = budget {
                if std::time::Instant::now() >= deadline {
                    return Err(KernelError::WallBudgetExceeded { at: self.now });
                }
            }
        }
    }

    /// Runs until the model is quiescent.
    ///
    /// # Errors
    ///
    /// Propagates any error from [`step_delta`](Self::step_delta).
    pub fn run(&mut self) -> Result<SimStats, KernelError> {
        self.run_with_budget(RunBudget::Unbounded)
    }

    /// Runs until quiescent, aborting with
    /// [`KernelError::WallBudgetExceeded`] once the wall clock passes
    /// `deadline`.
    ///
    /// The deadline is checked after every delta cycle, so the overrun is
    /// bounded by one delta's work. This is the enforcement point for the
    /// batch engine's wall budgets; use [`run`](Self::run) when no budget
    /// applies (it pays no clock reads).
    ///
    /// # Errors
    ///
    /// Propagates any error from [`step_delta`](Self::step_delta), plus
    /// [`KernelError::WallBudgetExceeded`] on timeout.
    pub fn run_deadlined(&mut self, deadline: std::time::Instant) -> Result<SimStats, KernelError> {
        self.run_with_budget(RunBudget::Wall(deadline))
    }

    /// Runs until quiescent or until physical time would pass `deadline_fs`.
    ///
    /// On return the simulator either is quiescent or stands at the first
    /// scheduled instant after the deadline.
    ///
    /// # Errors
    ///
    /// Propagates any error from [`step_delta`](Self::step_delta).
    pub fn run_until(&mut self, deadline_fs: Femtos) -> Result<SimStats, KernelError> {
        self.run_with_budget(RunBudget::SimTime(deadline_fs))
    }

    /// Externally overrides the value of a driverless signal, taking effect
    /// in the next delta cycle (testbench stimulus).
    ///
    /// On a *resolved* signal the forced value passes through the
    /// resolution function (as a single-element driver set) before
    /// becoming effective, so sentinel normalization a resolver performs
    /// applies to external stimulus too. Unresolved signals take the raw
    /// value.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NotADriver`] if the signal has process
    /// drivers (stimulus would fight them), or
    /// [`KernelError::UnknownSignal`] for an invalid id.
    pub fn force(&mut self, signal: SignalId, value: V) -> Result<(), KernelError> {
        let slot = self
            .signals
            .get(signal.index())
            .ok_or(KernelError::UnknownSignal(signal))?;
        if !slot.drivers.is_empty() {
            return Err(KernelError::NotADriver {
                signal,
                process: "<external>".into(),
            });
        }
        self.next_delta.push((signal, EXTERNAL, value));
        if self.life == LifeCycle::Finished {
            // New stimulus revives a quiescent simulation.
            self.life = LifeCycle::Running;
        }
        Ok(())
    }

    /// The current effective value of a signal.
    ///
    /// # Panics
    ///
    /// Panics if `signal` does not belong to this simulator.
    pub fn value(&self, signal: SignalId) -> &V {
        &self.signals[signal.index()].value
    }

    /// The declared name of a signal.
    ///
    /// # Panics
    ///
    /// Panics if `signal` does not belong to this simulator.
    pub fn signal_name(&self, signal: SignalId) -> &str {
        &self.signals[signal.index()].name
    }

    /// The declared name of a process.
    ///
    /// # Panics
    ///
    /// Panics if `process` does not belong to this simulator.
    pub fn process_name(&self, process: ProcessId) -> &str {
        &self.procs[process.index()].name
    }

    /// Number of declared signals.
    pub fn signal_count(&self) -> usize {
        self.signals.len()
    }

    /// The names of all signals, in declaration (id) order.
    pub fn signal_names(&self) -> impl Iterator<Item = &str> {
        self.signals.iter().map(|s| &*s.name)
    }

    /// Number of declared processes.
    pub fn process_count(&self) -> usize {
        self.procs.len()
    }

    /// The names of all processes, in declaration (id) order.
    pub fn process_names(&self) -> impl Iterator<Item = &str> {
        self.procs.iter().map(|p| &*p.name)
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Per-process resumption counts, indexed by [`ProcessId`].
    ///
    /// `activation_counts()[pid.index()]` is how often that process has
    /// run, including the initialization resumption. The sum over all
    /// processes equals [`SimStats::process_activations`].
    pub fn activation_counts(&self) -> &[u64] {
        &self.activations
    }

    /// `true` once the simulation has quiesced.
    pub fn is_quiescent(&self) -> bool {
        self.life == LifeCycle::Finished
    }

    /// The recorded waveform, if tracing was enabled.
    pub fn trace(&self) -> Option<&Trace<V>> {
        self.trace.as_ref()
    }

    /// Moves the recorded waveform out, leaving tracing disabled — for
    /// callers that keep the recording after the simulator is gone.
    pub fn take_trace(&mut self) -> Option<Trace<V>> {
        self.trace.take()
    }

    /// Enables commit observation for `signals`: every subsequent change
    /// of an observed signal's effective value is appended to the
    /// [commit log](Self::commit_log) as `(delta, signal, value)`.
    ///
    /// Observation is independent of tracing and costs one boolean test
    /// per committed event. Initial values are not logged — they are
    /// state, not commits; read them with [`value`](Self::value) before
    /// stepping. Calling this again replaces the observed set but keeps
    /// the log.
    pub fn observe_commits(&mut self, signals: &[SignalId]) {
        self.observe.clear();
        self.observe.resize(self.signals.len(), false);
        for sid in signals {
            if let Some(flag) = self.observe.get_mut(sid.index()) {
                *flag = true;
            }
        }
    }

    /// The commits of observed signals so far, in chronological order.
    /// Empty unless [`observe_commits`](Self::observe_commits) enabled
    /// observation.
    pub fn commit_log(&self) -> &[(u64, SignalId, V)] {
        &self.commit_log
    }

    fn instant_exhausted(&self) -> bool {
        self.runnable.is_empty() && self.next_delta.is_empty() && self.zero_wakes.is_empty()
    }

    /// Earliest future physical instant with scheduled activity.
    fn next_instant(&self) -> Option<Femtos> {
        let u = self.timed_updates.peek().map(|Reverse(u)| u.fs);
        let w = self.timed_wakes.peek().map(|Reverse((fs, _, _))| *fs);
        match (u, w) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        }
    }

    fn apply_update(&mut self, sid: SignalId, driver: u32, value: V, changed: &mut Vec<u32>) {
        self.stats.driver_updates += 1;
        let slot = &mut self.signals[sid.index()];
        let effective = if driver == EXTERNAL {
            // External stimulus goes through the resolution function like
            // any driver would (a forced signal has no process drivers, so
            // the resolver sees exactly one value). Unresolved signals
            // take the raw value.
            match &slot.resolver {
                Some(resolve) => resolve(std::slice::from_ref(&value)),
                None => value,
            }
        } else {
            slot.drivers[driver as usize] = value;
            slot.effective()
        };
        if effective != slot.value {
            slot.value = effective.clone();
            // Dedup without scanning: the signal is already in `changed`
            // iff an earlier update this delta stamped it with the
            // current tick.
            if slot.last_event_tick != self.tick {
                changed.push(sid.0);
            }
            slot.last_event_tick = self.tick;
            self.stats.events += 1;
            if self.observe.get(sid.index()).copied().unwrap_or(false) {
                self.commit_log
                    .push((self.now.delta, sid, effective.clone()));
            }
            if let Some(trace) = &mut self.trace {
                trace.record(self.now, sid, effective);
            }
        }
    }

    fn wake_waiters(&mut self, sid: u32) {
        // One in-place pass per list: stale registrations (token mismatch
        // — the process re-armed or terminated since registering) are
        // compacted away, live ones are order-preserved and woken. No
        // allocation, no second sweep.
        let Simulator {
            signals,
            procs,
            runnable,
            stats,
            ..
        } = self;
        let slot = &mut signals[sid as usize];
        let mut kept = 0;
        for i in 0..slot.waiters.len() {
            let (pid, tok) = slot.waiters[i];
            let p = &mut procs[pid as usize];
            if p.done || p.token != tok {
                continue; // stale registration: dropped by compaction
            }
            slot.waiters[kept] = (pid, tok);
            kept += 1;
            if !p.runnable {
                p.runnable = true;
                runnable.push(pid);
            }
        }
        slot.waiters.truncate(kept);
        // Wake filters (Wait::UntilEq) are bucketed per awaited value, so
        // an event only ever visits the waiters whose predicate just
        // became true: every live entry in the matching bucket is a
        // filter hit, and non-matching waiters are never scanned — the
        // miss counter is structurally zero.
        let current = slot.value.clone();
        if let Some((_, bucket)) = slot.pred_buckets.iter_mut().find(|(v, _)| *v == current) {
            let mut kept = 0;
            for i in 0..bucket.len() {
                let (pid, tok) = bucket[i];
                let p = &mut procs[pid as usize];
                if p.done || p.token != tok {
                    continue; // stale registration: dropped by compaction
                }
                bucket[kept] = (pid, tok);
                kept += 1;
                stats.wake_filter_hits += 1;
                if !p.runnable {
                    p.runnable = true;
                    runnable.push(pid);
                }
            }
            bucket.truncate(kept);
        }
    }

    fn make_runnable(&mut self, pid: u32) {
        let p = &mut self.procs[pid as usize];
        if !p.done && !p.runnable {
            p.runnable = true;
            self.runnable.push(pid);
        }
    }

    fn run_process(&mut self, pid: u32) {
        let mut body = match self.procs[pid as usize].body.take() {
            Some(b) => b,
            None => return,
        };
        self.procs[pid as usize].runnable = false;
        self.stats.process_activations += 1;
        self.activations[pid as usize] += 1;

        let mut out = std::mem::take(&mut self.scratch_out);
        out.clear();
        let wait = {
            let p = &self.procs[pid as usize];
            let mut ctx = ProcessCtx {
                pid: ProcessId(pid),
                now: self.now,
                tick: self.tick,
                signals: &self.signals,
                owned: &p.owned,
                out: &mut out,
            };
            body.resume(&mut ctx)
        };

        for (sid, driver, value, delay) in out.drain(..) {
            if delay == 0 {
                self.next_delta.push((sid, driver, value));
            } else {
                self.seq += 1;
                self.timed_updates.push(Reverse(TimedUpdate {
                    fs: self.now.fs + delay,
                    seq: self.seq,
                    signal: sid,
                    driver,
                    value,
                }));
            }
        }
        self.scratch_out = out;

        match wait {
            Wait::Same => {
                self.procs[pid as usize].body = Some(body);
            }
            Wait::Event(sigs) => {
                let same = {
                    let p = &self.procs[pid as usize];
                    p.token != 0 && p.pred.is_none() && p.sens == sigs
                };
                if !same {
                    let token = {
                        let p = &mut self.procs[pid as usize];
                        p.token += 1;
                        p.pred = None;
                        p.token
                    };
                    for sid in &sigs {
                        self.signals[sid.index()].waiters.push((pid, token));
                    }
                    // The list is moved into the slot, not cloned; the
                    // registrations above only needed to borrow it.
                    self.procs[pid as usize].sens = sigs;
                }
                self.procs[pid as usize].body = Some(body);
            }
            Wait::UntilEq(sig, value) => {
                let same = {
                    let p = &self.procs[pid as usize];
                    p.token != 0
                        && p.sens.len() == 1
                        && p.sens[0] == sig
                        && p.pred.as_ref() == Some(&value)
                };
                if !same {
                    let token = {
                        let p = &mut self.procs[pid as usize];
                        p.token += 1;
                        p.sens.clear();
                        p.sens.push(sig);
                        p.pred = Some(value.clone());
                        p.token
                    };
                    // Filtered waits register in the bucket for their
                    // awaited value, not the plain waiter list: events
                    // whose new value differs never see this process.
                    let slot = &mut self.signals[sig.index()];
                    match slot.pred_buckets.iter_mut().find(|(v, _)| *v == value) {
                        Some((_, bucket)) => bucket.push((pid, token)),
                        None => slot.pred_buckets.push((value, vec![(pid, token)])),
                    }
                }
                self.procs[pid as usize].body = Some(body);
            }
            Wait::For(delay) => {
                {
                    let p = &mut self.procs[pid as usize];
                    p.token += 1; // invalidate event registrations
                    p.sens.clear();
                    p.pred = None;
                }
                if delay == 0 {
                    self.zero_wakes.push(pid);
                } else {
                    self.seq += 1;
                    self.timed_wakes
                        .push(Reverse((self.now.fs + delay, self.seq, pid)));
                }
                self.procs[pid as usize].body = Some(body);
            }
            Wait::Done => {
                let p = &mut self.procs[pid as usize];
                p.done = true;
                p.token += 1;
                // body dropped
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::ProcessCtx;
    use crate::time::NS;
    use std::sync::Arc;

    #[test]
    fn copy_process_runs_once() {
        let mut sim: Simulator<i64> = Simulator::new();
        let a = sim.signal("a", 5);
        let b = sim.signal("b", 0);
        sim.process("copy", &[b], move |ctx: &mut ProcessCtx<'_, i64>| {
            let v = *ctx.value(a);
            ctx.assign(b, v);
            Wait::Done
        });
        sim.initialize().unwrap();
        let stats = sim.run().unwrap();
        assert_eq!(*sim.value(b), 5);
        assert_eq!(stats.process_activations, 1);
    }

    #[test]
    fn commit_log_records_only_observed_signals_in_order() {
        // Same chain as `delta_chain_counts_deltas`, observing s1 and s3
        // but not s2: the log must hold exactly the observed commits,
        // tagged with the delta cycle they landed in.
        let mut sim: Simulator<i64> = Simulator::new();
        let s1 = sim.signal("s1", 0);
        let s2 = sim.signal("s2", 0);
        let s3 = sim.signal("s3", 0);
        sim.process("p1", &[s1], move |ctx: &mut ProcessCtx<'_, i64>| {
            ctx.assign(s1, 1);
            Wait::Done
        });
        sim.process("p2", &[s2], move |ctx: &mut ProcessCtx<'_, i64>| {
            if *ctx.value(s1) == 1 {
                ctx.assign(s2, 2);
            }
            Wait::on(s1)
        });
        sim.process("p3", &[s3], move |ctx: &mut ProcessCtx<'_, i64>| {
            if *ctx.value(s2) == 2 {
                ctx.assign(s3, 3);
            }
            Wait::on(s2)
        });
        sim.observe_commits(&[s1, s3]);
        sim.initialize().unwrap();
        assert!(
            sim.commit_log().is_empty(),
            "initial values are not commits"
        );
        sim.run().unwrap();
        // s1 commits at delta 1, s3 at delta 3; s2's commit is unobserved.
        assert_eq!(sim.commit_log(), [(1, s1, 1), (3, s3, 3)]);
    }

    #[test]
    fn delta_chain_counts_deltas() {
        // p1 bumps s1; p2 sensitive to s1 bumps s2; p3 sensitive to s2.
        let mut sim: Simulator<i64> = Simulator::new();
        let s1 = sim.signal("s1", 0);
        let s2 = sim.signal("s2", 0);
        let s3 = sim.signal("s3", 0);
        sim.process("p1", &[s1], move |ctx: &mut ProcessCtx<'_, i64>| {
            ctx.assign(s1, 1);
            Wait::Done
        });
        sim.process("p2", &[s2], move |ctx: &mut ProcessCtx<'_, i64>| {
            if *ctx.value(s1) == 1 {
                ctx.assign(s2, 2);
            }
            Wait::on(s1)
        });
        sim.process("p3", &[s3], move |ctx: &mut ProcessCtx<'_, i64>| {
            if *ctx.value(s2) == 2 {
                ctx.assign(s3, 3);
            }
            Wait::on(s2)
        });
        sim.initialize().unwrap();
        sim.run().unwrap();
        assert_eq!(*sim.value(s3), 3);
        // delta 0: all run; delta 1: s1 event -> p2; delta 2: s2 -> p3;
        // delta 3: s3 event, no waiters; quiescent.
        assert_eq!(sim.now().fs, 0);
    }

    #[test]
    fn resolved_signal_uses_resolver() {
        let mut sim: Simulator<i64> = Simulator::new();
        let bus = sim.resolved_signal("bus", 0, Arc::new(|vs: &[i64]| vs.iter().sum()));
        sim.process("d1", &[bus], move |ctx: &mut ProcessCtx<'_, i64>| {
            ctx.assign(bus, 10);
            Wait::Done
        });
        sim.process("d2", &[bus], move |ctx: &mut ProcessCtx<'_, i64>| {
            ctx.assign(bus, 32);
            Wait::Done
        });
        sim.initialize().unwrap();
        sim.run().unwrap();
        assert_eq!(*sim.value(bus), 42);
    }

    #[test]
    fn initial_values_reach_every_driver() {
        // `quiet` and `late` never assign, so their drivers keep the
        // initial value the signal declares; the resolver sums them with
        // `d`'s write. `late` attaches after the edit.
        let late = |sim: &mut Simulator<i64>, bus| {
            sim.process("late", &[bus], |_: &mut ProcessCtx<'_, i64>| Wait::Done);
        };
        let build = |init: i64| {
            let mut sim: Simulator<i64> = Simulator::new();
            let bus = sim.resolved_signal("bus", init, Arc::new(|vs: &[i64]| vs.iter().sum()));
            sim.process("quiet", &[bus], |_: &mut ProcessCtx<'_, i64>| Wait::Done);
            sim.process("d", &[bus], move |ctx: &mut ProcessCtx<'_, i64>| {
                ctx.assign(bus, 10);
                Wait::Done
            });
            (sim, bus)
        };
        let (mut edited, bus) = build(0);
        edited.set_initial_value(bus, 7).unwrap();
        assert_eq!(*edited.value(bus), 7);
        let (mut declared, _) = build(7);
        for sim in [&mut edited, &mut declared] {
            late(sim, bus);
            sim.initialize().unwrap();
            sim.run().unwrap();
        }
        assert_eq!(*edited.value(bus), 24);
        assert_eq!(edited.stats(), declared.stats());
        let unknown = SignalId::from_index(9);
        let (mut sim, _) = build(0);
        assert!(matches!(
            sim.set_initial_value(unknown, 1),
            Err(KernelError::UnknownSignal(_))
        ));
    }

    #[test]
    fn unresolved_two_drivers_rejected() {
        let mut sim: Simulator<i64> = Simulator::new();
        let s = sim.signal("s", 0);
        sim.process("d1", &[s], |_: &mut ProcessCtx<'_, i64>| Wait::Done);
        sim.process("d2", &[s], |_: &mut ProcessCtx<'_, i64>| Wait::Done);
        let err = sim.initialize().unwrap_err();
        assert!(matches!(
            err,
            KernelError::UnresolvedMultipleDrivers { drivers: 2, .. }
        ));
    }

    #[test]
    fn timed_wait_advances_physical_time() {
        let mut sim: Simulator<i64> = Simulator::new();
        let s = sim.signal("s", 0);
        let mut fired = 0;
        sim.process("timer", &[s], move |ctx: &mut ProcessCtx<'_, i64>| {
            fired += 1;
            ctx.assign(s, fired);
            if fired < 3 {
                Wait::For(10 * NS)
            } else {
                Wait::Done
            }
        });
        sim.initialize().unwrap();
        let stats = sim.run().unwrap();
        assert_eq!(*sim.value(s), 3);
        assert_eq!(sim.now().fs, 20 * NS);
        assert_eq!(stats.time_advances, 2);
    }

    #[test]
    fn timed_assignment_applies_later() {
        let mut sim: Simulator<i64> = Simulator::new();
        let s = sim.signal("s", 0);
        sim.process("d", &[s], move |ctx: &mut ProcessCtx<'_, i64>| {
            ctx.assign_after(s, 7, 5 * NS);
            Wait::Done
        });
        sim.initialize().unwrap();
        sim.run().unwrap();
        assert_eq!(*sim.value(s), 7);
        assert_eq!(sim.now().fs, 5 * NS);
    }

    #[test]
    fn force_drives_input_signals() {
        let mut sim: Simulator<i64> = Simulator::new();
        let input = sim.signal("in", 0);
        let out = sim.signal("out", 0);
        sim.process("follow", &[out], move |ctx: &mut ProcessCtx<'_, i64>| {
            let v = *ctx.value(input);
            ctx.assign(out, v * 2);
            Wait::on(input)
        });
        sim.initialize().unwrap();
        sim.run().unwrap();
        sim.force(input, 21).unwrap();
        sim.run().unwrap();
        assert_eq!(*sim.value(out), 42);
    }

    #[test]
    fn force_rejected_on_driven_signal() {
        let mut sim: Simulator<i64> = Simulator::new();
        let s = sim.signal("s", 0);
        sim.process("d", &[s], |_: &mut ProcessCtx<'_, i64>| Wait::Done);
        sim.initialize().unwrap();
        assert!(sim.force(s, 1).is_err());
    }

    #[test]
    fn oscillation_hits_delta_limit() {
        let mut sim: Simulator<i64> = Simulator::new();
        let s = sim.signal("s", 0);
        sim.process("osc", &[s], move |ctx: &mut ProcessCtx<'_, i64>| {
            let v = *ctx.value(s);
            ctx.assign(s, 1 - v);
            Wait::on(s)
        });
        sim.set_delta_limit(100);
        sim.initialize().unwrap();
        let err = sim.run().unwrap_err();
        assert!(matches!(err, KernelError::DeltaOverflow { limit: 100, .. }));
    }

    #[test]
    fn until_eq_filters_wakeups_in_kernel() {
        let mut sim: Simulator<i64> = Simulator::new();
        let counter = sim.signal("counter", 0);
        let hits = sim.signal("hits", 0);
        // A driver counts 0..10 through delta cycles.
        let mut n = 0i64;
        sim.process("count", &[counter], move |ctx: &mut ProcessCtx<'_, i64>| {
            n += 1;
            if n <= 10 {
                ctx.assign(counter, n);
                Wait::on(counter)
            } else {
                Wait::Done
            }
        });
        // A watcher that only wants counter == 7.
        let mut wakes = 0i64;
        sim.process("watch", &[hits], move |ctx: &mut ProcessCtx<'_, i64>| {
            wakes += 1;
            ctx.assign(hits, wakes);
            if wakes == 1 {
                // Initialization resume; arm the filter.
                return Wait::UntilEq(counter, 7);
            }
            assert_eq!(*ctx.value(counter), 7, "woken only at the target value");
            Wait::Done
        });
        sim.initialize().unwrap();
        sim.run().unwrap();
        // Exactly two resumptions: initialization + the filtered hit.
        assert_eq!(*sim.value(hits), 2);
    }

    #[test]
    fn until_eq_reregisters_for_new_targets() {
        let mut sim: Simulator<i64> = Simulator::new();
        let counter = sim.signal("counter", 0);
        let log = sim.signal("log", 0);
        let mut n = 0i64;
        sim.process("count", &[counter], move |ctx: &mut ProcessCtx<'_, i64>| {
            n += 1;
            if n <= 10 {
                ctx.assign(counter, n);
                Wait::on(counter)
            } else {
                Wait::Done
            }
        });
        // Wait for 3, then for 8.
        let mut state = 0;
        sim.process(
            "stages",
            &[log],
            move |ctx: &mut ProcessCtx<'_, i64>| match state {
                0 => {
                    state = 1;
                    Wait::UntilEq(counter, 3)
                }
                1 => {
                    assert_eq!(*ctx.value(counter), 3);
                    ctx.assign(log, 3);
                    state = 2;
                    Wait::UntilEq(counter, 8)
                }
                _ => {
                    assert_eq!(*ctx.value(counter), 8);
                    ctx.assign(log, 8);
                    Wait::Done
                }
            },
        );
        sim.initialize().unwrap();
        sim.run().unwrap();
        assert_eq!(*sim.value(log), 8);
    }

    #[test]
    fn wait_forever_never_resumes() {
        let mut sim: Simulator<i64> = Simulator::new();
        let s = sim.signal("s", 0);
        let mut count = 0u32;
        sim.process("once", &[s], move |ctx: &mut ProcessCtx<'_, i64>| {
            count += 1;
            assert_eq!(count, 1);
            ctx.assign(s, 1);
            Wait::Event(vec![])
        });
        sim.initialize().unwrap();
        let stats = sim.run().unwrap();
        assert_eq!(stats.process_activations, 1);
    }

    #[test]
    fn had_event_reports_trigger() {
        let mut sim: Simulator<i64> = Simulator::new();
        let a = sim.signal("a", 0);
        let b = sim.signal("b", 0);
        let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        sim.process("kick", &[a], move |ctx: &mut ProcessCtx<'_, i64>| {
            ctx.assign(a, 1);
            Wait::Done
        });
        sim.process("watch", &[b], move |ctx: &mut ProcessCtx<'_, i64>| {
            seen2
                .lock()
                .unwrap()
                .push((ctx.had_event(a), ctx.had_event(b)));
            Wait::on(a)
        });
        sim.initialize().unwrap();
        sim.run().unwrap();
        let log = seen.lock().unwrap();
        // First activation: initialization, no events. Second: a fired.
        assert_eq!(log.as_slice(), &[(false, false), (true, false)]);
    }

    #[test]
    fn same_wait_keeps_sensitivity() {
        let mut sim: Simulator<i64> = Simulator::new();
        let a = sim.signal("a", 0);
        let out = sim.signal("out", 0);
        let mut first = true;
        sim.process("echo", &[out], move |ctx: &mut ProcessCtx<'_, i64>| {
            if first {
                first = false;
                return Wait::on(a);
            }
            let v = *ctx.value(a);
            ctx.assign(out, v);
            Wait::Same
        });
        sim.initialize().unwrap();
        sim.run().unwrap();
        sim.force(a, 9).unwrap();
        sim.run().unwrap();
        assert_eq!(*sim.value(out), 9);
        sim.force(a, 11).unwrap();
        sim.run().unwrap();
        assert_eq!(*sim.value(out), 11);
    }

    #[test]
    fn until_eq_rearms_after_same_wait() {
        // `Wait::Same` keeps an armed `UntilEq` filter (same token, same
        // predicate); a later `UntilEq` with a new target must bump the
        // token and re-register, leaving the old entry stale.
        let mut sim: Simulator<i64> = Simulator::new();
        let counter = sim.signal("counter", 0);
        let log = sim.signal("log", 0);
        let seq = [1i64, 3, 5, 3, 8, 9];
        let mut i = 0;
        sim.process("drive", &[counter], move |ctx: &mut ProcessCtx<'_, i64>| {
            if i < seq.len() {
                ctx.assign(counter, seq[i]);
                i += 1;
                Wait::on(counter)
            } else {
                Wait::Done
            }
        });
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        let mut state = 0;
        sim.process("watch", &[log], move |ctx: &mut ProcessCtx<'_, i64>| {
            if state > 0 {
                seen2.lock().unwrap().push(*ctx.value(counter));
            }
            state += 1;
            match state {
                1 => Wait::UntilEq(counter, 3),
                2 => Wait::Same, // keep waiting for counter == 3
                3 => Wait::UntilEq(counter, 8),
                _ => Wait::Done,
            }
        });
        sim.initialize().unwrap();
        sim.run().unwrap();
        // Woken at both 3s and at 8; the 1, 5 and 9 events are filtered,
        // and the stale ==3 registration never fires after the re-arm.
        assert_eq!(seen.lock().unwrap().as_slice(), &[3, 3, 8]);
    }

    #[test]
    fn stale_token_never_wakes_rearmed_process() {
        // Re-arming onto a different signal leaves the old waiter entry
        // behind; its stale token must keep it from waking the process.
        let mut sim: Simulator<i64> = Simulator::new();
        let a = sim.signal("a", 0);
        let b = sim.signal("b", 0);
        let out = sim.signal("out", 0);
        let mut step = 0;
        sim.process("drive", &[a, b], move |ctx: &mut ProcessCtx<'_, i64>| {
            step += 1;
            match step {
                1 => ctx.assign(a, 1),
                2 => ctx.assign(a, 2), // event on `a` after flip re-armed to `b`
                3 => ctx.assign(b, 1),
                _ => return Wait::Done,
            }
            Wait::For(0)
        });
        let wakes = Arc::new(std::sync::Mutex::new(0i64));
        let wakes2 = wakes.clone();
        let mut armed_b = false;
        sim.process("flip", &[out], move |ctx: &mut ProcessCtx<'_, i64>| {
            *wakes2.lock().unwrap() += 1;
            if !armed_b {
                if *ctx.value(a) == 0 {
                    return Wait::Event(vec![a]); // initialization
                }
                armed_b = true;
                return Wait::Event(vec![b]);
            }
            // Woken by `b`; the second `a` event happened while re-armed.
            assert_eq!(*ctx.value(a), 2);
            ctx.assign(out, 1);
            Wait::Done
        });
        sim.initialize().unwrap();
        sim.run().unwrap();
        assert_eq!(*sim.value(out), 1);
        // init + a-event + b-event; the a=2 event must not wake `flip`.
        assert_eq!(*wakes.lock().unwrap(), 3);
    }

    #[test]
    fn force_on_resolved_signal_routes_through_resolver() {
        // A resolved signal with no process drivers is still forceable,
        // and the forced value passes through the resolution function
        // rather than bypassing it.
        let mut sim: Simulator<i64> = Simulator::new();
        let bus = sim.resolved_signal(
            "bus",
            0,
            Arc::new(|vs: &[i64]| vs.iter().sum::<i64>() + 100),
        );
        let out = sim.signal("out", 0);
        sim.process("follow", &[out], move |ctx: &mut ProcessCtx<'_, i64>| {
            let v = *ctx.value(bus);
            ctx.assign(out, v);
            Wait::on(bus)
        });
        sim.initialize().unwrap();
        sim.run().unwrap();
        sim.force(bus, 5).unwrap();
        sim.run().unwrap();
        assert_eq!(*sim.value(bus), 105);
        assert_eq!(*sim.value(out), 105);
        sim.force(bus, 7).unwrap();
        sim.run().unwrap();
        assert_eq!(*sim.value(bus), 107);
    }

    #[test]
    fn two_events_one_delta_single_wake() {
        let mut sim: Simulator<i64> = Simulator::new();
        let a = sim.signal("a", 0);
        let b = sim.signal("b", 0);
        let c = sim.signal("c", 0);
        sim.process("drive", &[a, b], move |ctx: &mut ProcessCtx<'_, i64>| {
            ctx.assign(a, 1);
            ctx.assign(b, 1);
            Wait::Done
        });
        let mut wakes = 0;
        sim.process("count", &[c], move |ctx: &mut ProcessCtx<'_, i64>| {
            wakes += 1;
            ctx.assign(c, wakes);
            Wait::Event(vec![a, b])
        });
        sim.initialize().unwrap();
        sim.run().unwrap();
        // init wake (1) + one wake for the simultaneous a/b events (2).
        assert_eq!(*sim.value(c), 2);
    }
}
