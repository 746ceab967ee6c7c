//! Running elaborated models and harvesting results.
//!
//! [`Elaboration`] is a model elaborated onto the kernel and not yet
//! started: every interpreted run initializes one, in place or as a
//! private copy. [`RtSimulation`] owns an initialized model plus its
//! kernel simulator and provides RT-level observation: current
//! step/phase, register and bus values, per-commit logs and the conflict
//! report promised by §2.7. [`Waveform`] is a traced run's recording, the
//! one form in which both engines hand their events over; the conflict
//! and commit extractors below are shared by both.

use std::sync::Arc;

use clockless_kernel::{
    KernelError, RunBudget, SimStats, SimTime, Simulator, StepOutcome, Trace, TraceEvent,
};

use crate::backend::{ExecOptions, ExecOutcome};
use crate::diag::{Conflict, ConflictReport};
use crate::elaborate::{elaborate, ElaborateOptions, SignalLayout, SignalRole};
use crate::model::RtModel;
use crate::phase::{PhaseTime, Step, PHASES_PER_STEP};
use crate::value::Value;

/// A value committed into a register, located in control-step time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterCommit {
    /// The register's name.
    pub register: String,
    /// The control step whose `cr` phase stored the value.
    pub step: Step,
    /// The stored value.
    pub value: Value,
}

/// The recording of one traced run: every signal event, once, in
/// chronological order, plus the roles that name and classify the
/// signals.
///
/// Both engines return one in [`ExecOutcome`]. The
/// roles are shared (a cached compiled plan hands out the same table to
/// every run), and nothing is rendered until asked for: the commit log
/// and the VCD document are derived from the events on each call.
#[derive(Debug, Clone)]
pub struct Waveform {
    trace: Trace<Value>,
    roles: Arc<[SignalRole]>,
}

impl Waveform {
    /// Wraps a recording whose signal ids index `roles`.
    pub(crate) fn new(trace: Trace<Value>, roles: Arc<[SignalRole]>) -> Waveform {
        Waveform { trace, roles }
    }

    /// The conflict report: every `ILLEGAL` event located to the step and
    /// phase at which it became visible (§2.7).
    pub fn conflicts(&self) -> ConflictReport {
        conflict_report(self.trace.events(), &self.roles)
    }

    /// The register-commit log (see [`RtSimulation::register_commits`]).
    pub fn commits(&self) -> Vec<RegisterCommit> {
        commit_log(self.trace.events(), &self.roles)
    }

    /// Renders the waveform as a VCD document, signals named after their
    /// roles.
    pub fn vcd(&self) -> String {
        let names: Vec<String> = self.roles.iter().map(SignalRole::signal_name).collect();
        self.trace.to_vcd(&names)
    }
}

/// `ILLEGAL`-valued events localized to step and phase — the conflict
/// extractor of both engines.
fn conflict_report(events: &[TraceEvent<Value>], roles: &[SignalRole]) -> ConflictReport {
    let conflicts = events
        .iter()
        .filter(|e| e.value == Value::Illegal)
        .filter_map(|e| {
            let visible_at = PhaseTime::from_active_delta(e.at.delta)?;
            let (site, name) = roles[e.signal.index()].conflict_site()?;
            Some(Conflict {
                site,
                name,
                visible_at,
            })
        })
        .collect();
    ConflictReport { conflicts }
}

/// Register-output and memory-word events attributed to the storing
/// step — the commit extractor of both engines.
fn commit_log(events: &[TraceEvent<Value>], roles: &[SignalRole]) -> Vec<RegisterCommit> {
    events
        .iter()
        .filter_map(|e| {
            let register = match &roles[e.signal.index()] {
                SignalRole::RegOut(name) => name.clone(),
                SignalRole::MemWord { mem, index } => SignalRole::mem_word_name(mem, *index),
                _ => return None,
            };
            // Initial values are not commits. The output changes in the
            // delta after cr, i.e. at ra of the following step; attribute
            // the commit to the storing step.
            let pt = PhaseTime::from_active_delta(e.at.delta)?;
            Some(RegisterCommit {
                register,
                step: pt.step - 1,
                value: e.value,
            })
        })
        .collect()
}

/// Summary of a completed run.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Kernel statistics (delta cycles, activations, events…).
    pub stats: SimStats,
    /// Final value of every register, in declaration order.
    pub registers: Vec<(String, Value)>,
    /// Conflict report (`None` when the run was not traced).
    pub conflicts: Option<ConflictReport>,
}

impl RunSummary {
    /// Final value of a register by name.
    pub fn register(&self, name: &str) -> Option<Value> {
        self.registers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// A model elaborated onto the kernel, not yet initialized: the signals,
/// drivers and processes of §2.7, ready to run.
///
/// [`into_simulation`](Self::into_simulation) starts it in place.
/// [`instantiate`](Self::instantiate) starts a private copy instead, for
/// any model that differs from the elaborated one only in register
/// initial values — so a batch elaborates a source once and runs each of
/// its stimuli on a copy. The elaboration itself is never changed by
/// either: it can be shared read-only.
///
/// # Examples
///
/// ```
/// use clockless_core::model::fig1_model;
/// use clockless_core::run::Elaboration;
/// use clockless_core::{ElaborateOptions, Value};
///
/// let template = Elaboration::new(&fig1_model(3, 4), ElaborateOptions::default());
/// // The same chip with R2 preloaded to 39: a copy, not a new elaboration.
/// let mut sim = template.instantiate(&fig1_model(3, 39))?;
/// assert_eq!(sim.run_to_completion()?.register("R1"), Some(Value::Num(42)));
/// // The template still runs its own stimulus.
/// let mut sim = template.into_simulation()?;
/// assert_eq!(sim.run_to_completion()?.register("R1"), Some(Value::Num(7)));
/// # Ok::<(), clockless_kernel::KernelError>(())
/// ```
#[derive(Debug)]
pub struct Elaboration {
    model: RtModel,
    sim: Simulator<Value>,
    layout: Arc<SignalLayout>,
}

impl Elaboration {
    /// Elaborates `model` under `options`.
    pub fn new(model: &RtModel, options: ElaborateOptions) -> Elaboration {
        let (sim, layout) = elaborate(model, options);
        Elaboration {
            model: model.clone(),
            sim,
            layout: Arc::new(layout),
        }
    }

    /// Initializes the elaboration itself; nothing is copied.
    ///
    /// # Errors
    ///
    /// Propagates kernel initialization errors.
    pub fn into_simulation(self) -> Result<RtSimulation, KernelError> {
        RtSimulation::start(self.model, self.sim, self.layout)
    }

    /// Initializes a private copy for `model`, whose register initial
    /// values are written into the copy's register outputs and their
    /// drivers — what elaborating `model` itself would declare. The
    /// copy runs exactly as that elaboration would; this one is left
    /// untouched.
    ///
    /// # Errors
    ///
    /// Propagates kernel initialization errors.
    ///
    /// # Panics
    ///
    /// Panics if `model` differs from the elaborated model in more than
    /// register initial values
    /// ([`RtModel::same_except_inits`]).
    pub fn instantiate(&self, model: &RtModel) -> Result<RtSimulation, KernelError> {
        assert!(
            self.model.same_except_inits(model),
            "model `{}` is not the elaborated `{}` up to register inits",
            model.name(),
            self.model.name()
        );
        let mut sim = self
            .sim
            .try_clone()
            .expect("an unstarted RT elaboration copies itself");
        let regs = model.registers().iter().zip(self.model.registers());
        for ((reg, elaborated), &out) in regs.zip(&self.layout.reg_out) {
            if reg.init != elaborated.init {
                sim.set_initial_value(out, reg.init)?;
            }
        }
        RtSimulation::start(model.clone(), sim, Arc::clone(&self.layout))
    }
}

/// An elaborated, initialized clock-free RT simulation.
///
/// # Examples
///
/// Running the paper's Fig. 1 example end to end:
///
/// ```
/// use clockless_core::model::fig1_model;
/// use clockless_core::run::RtSimulation;
/// use clockless_core::value::Value;
///
/// let model = fig1_model(3, 4);
/// let mut sim = RtSimulation::new(&model)?;
/// let summary = sim.run_to_completion()?;
/// // R1 := R1 + R2 executed at steps 5/6.
/// assert_eq!(summary.register("R1"), Some(Value::Num(7)));
/// // One control step costs exactly 6 delta cycles (+1 initialization).
/// assert_eq!(summary.stats.delta_cycles, 1 + 6 * 7);
/// # Ok::<(), clockless_kernel::KernelError>(())
/// ```
#[derive(Debug)]
pub struct RtSimulation {
    model: RtModel,
    sim: Simulator<Value>,
    layout: Arc<SignalLayout>,
}

impl RtSimulation {
    /// Elaborates and initializes `model` with default options
    /// (no tracing).
    ///
    /// # Errors
    ///
    /// Propagates kernel elaboration errors.
    pub fn new(model: &RtModel) -> Result<RtSimulation, KernelError> {
        Self::with_options(model, ElaborateOptions::default())
    }

    /// Elaborates and initializes `model` with tracing enabled, making
    /// [`conflicts`](Self::conflicts) and
    /// [`register_commits`](Self::register_commits) available.
    ///
    /// # Errors
    ///
    /// Propagates kernel elaboration errors.
    pub fn traced(model: &RtModel) -> Result<RtSimulation, KernelError> {
        Self::with_options(model, ElaborateOptions::traced())
    }

    /// Elaborates and initializes `model` with explicit options.
    ///
    /// # Errors
    ///
    /// Propagates kernel elaboration errors.
    pub fn with_options(
        model: &RtModel,
        options: ElaborateOptions,
    ) -> Result<RtSimulation, KernelError> {
        Elaboration::new(model, options).into_simulation()
    }

    /// Initializes an elaborated `sim` of `model`: the one start of every
    /// interpreted run, in place or on a copy.
    fn start(
        model: RtModel,
        mut sim: Simulator<Value>,
        layout: Arc<SignalLayout>,
    ) -> Result<RtSimulation, KernelError> {
        sim.initialize()?;
        Ok(RtSimulation { model, sim, layout })
    }

    /// The model this simulation was elaborated from.
    pub fn model(&self) -> &RtModel {
        &self.model
    }

    /// The signal layout (for low-level observation).
    pub fn layout(&self) -> &SignalLayout {
        &self.layout
    }

    /// Direct access to the kernel simulator.
    pub fn kernel(&self) -> &Simulator<Value> {
        &self.sim
    }

    /// Mutable kernel access for in-crate machinery (the check module's
    /// commit observation hook).
    pub(crate) fn kernel_mut(&mut self) -> &mut Simulator<Value> {
        &mut self.sim
    }

    /// Executes one delta cycle.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors (notably delta overflow).
    pub fn step_delta(&mut self) -> Result<StepOutcome, KernelError> {
        self.sim.step_delta()
    }

    /// Executes one full control step (six delta cycles), or less if the
    /// simulation quiesces first. Returns `true` while activity remains.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn step_control_step(&mut self) -> Result<bool, KernelError> {
        for _ in 0..PHASES_PER_STEP {
            if self.sim.step_delta()? == StepOutcome::Quiescent {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Sets the kernel's per-instant delta-cycle budget (default
    /// [`DEFAULT_DELTA_LIMIT`](clockless_kernel::DEFAULT_DELTA_LIMIT)).
    ///
    /// A well-formed RT model quiesces after exactly
    /// `1 + 6 × CS_MAX` delta cycles, so batch engines and fault
    /// campaigns set a tight budget here to turn runaway mutants into
    /// [`KernelError::DeltaOverflow`] instead of hung workers.
    pub fn set_delta_limit(&mut self, limit: u64) {
        self.sim.set_delta_limit(limit);
    }

    /// Runs to quiescence and summarizes.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors. A run that needs more than the delta
    /// limit — at least `1 + 6 × CS_MAX` deltas (§2.2) — fails before its
    /// first delta, with the [`KernelError::DeltaOverflow`] the kernel
    /// would reach at delta `limit`.
    pub fn run_to_completion(&mut self) -> Result<RunSummary, KernelError> {
        self.run_budgeted(RunBudget::Unbounded)
    }

    /// Runs to quiescence like
    /// [`run_to_completion`](Self::run_to_completion), but aborts with
    /// [`KernelError::WallBudgetExceeded`] once the wall clock passes
    /// `deadline` — the enforcement point for the fleet engine's
    /// `--wall-budget-ms` option.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors, including the budget timeout.
    pub fn run_to_completion_deadlined(
        &mut self,
        deadline: std::time::Instant,
    ) -> Result<RunSummary, KernelError> {
        self.run_budgeted(RunBudget::Wall(deadline))
    }

    /// The run of [`execute`](Self::execute), leaving the simulation in
    /// place for the caller to observe.
    pub(crate) fn run_with(&mut self, options: &ExecOptions) -> Result<RunSummary, KernelError> {
        if let Some(limit) = options.delta_limit {
            self.sim.set_delta_limit(limit);
        }
        self.run_budgeted(
            options
                .deadline
                .map_or(RunBudget::Unbounded, RunBudget::Wall),
        )
    }

    /// Runs to quiescence under the budgets of `options`, then returns the
    /// observable output: the summary and, when traced, the recording.
    /// The delta limit of `options`, when set, replaces the kernel's; its
    /// deadline bounds the wall clock. Its trace and opt-level fields are
    /// not read: the elaboration fixed whether this run traces.
    ///
    /// # Errors
    ///
    /// As [`run_to_completion`](Self::run_to_completion), plus
    /// [`KernelError::WallBudgetExceeded`] once the deadline passes.
    pub fn execute(mut self, options: &ExecOptions) -> Result<ExecOutcome, KernelError> {
        let summary = self.run_with(options)?;
        Ok(ExecOutcome {
            summary,
            waveform: self.into_waveform(),
        })
    }

    fn run_budgeted(&mut self, budget: RunBudget) -> Result<RunSummary, KernelError> {
        self.check_delta_limit()?;
        let stats = self.sim.run_with_budget(budget)?;
        Ok(RunSummary {
            stats,
            registers: self.registers(),
            conflicts: self.conflicts(),
        })
    }

    /// Refuses a run the delta limit certainly cannot finish, before its
    /// first delta. A model runs at least `1 + 6 × CS_MAX` deltas (§2.2),
    /// all at time zero, so when that exceeds the limit the kernel would
    /// fail at delta `limit` — after recording every delta before it.
    /// This returns that same error at once. It is a lower bound: a run
    /// that passes may still overflow in the kernel, as one whose last
    /// write needs a flush delta does.
    fn check_delta_limit(&self) -> Result<(), KernelError> {
        let limit = self.sim.delta_limit();
        let least = 1 + PHASES_PER_STEP * u64::from(self.model.cs_max());
        if least > limit && self.sim.now() == SimTime::ZERO {
            let at = SimTime {
                fs: 0,
                delta: limit,
            };
            return Err(KernelError::DeltaOverflow { at, limit });
        }
        Ok(())
    }

    /// The current control step and phase, or `None` during
    /// initialization (before step 1 begins).
    pub fn phase_time(&self) -> Option<PhaseTime> {
        let step = self.sim.value(self.layout.cs).num()? as Step;
        if step == 0 {
            return None;
        }
        let ph = self.sim.value(self.layout.ph).num()? as u8;
        Some(PhaseTime::new(step, crate::phase::Phase::from_index(ph)))
    }

    /// Current value on a register's output port.
    pub fn register_value(&self, name: &str) -> Option<Value> {
        let id = self.model.register_by_name(name)?;
        Some(*self.sim.value(self.layout.reg_out[id.0 as usize]))
    }

    /// Current value on a bus.
    pub fn bus_value(&self, name: &str) -> Option<Value> {
        let id = self.model.bus_by_name(name)?;
        Some(*self.sim.value(self.layout.bus[id.0 as usize]))
    }

    /// Current value on a module's output port.
    pub fn module_out(&self, name: &str) -> Option<Value> {
        let id = self.model.module_by_name(name)?;
        Some(*self.sim.value(self.layout.mod_out[id.0 as usize]))
    }

    /// All register values, in declaration order, followed by every
    /// memory word (`M[0]`, `M[1]`, …) in declaration then address order.
    pub fn registers(&self) -> Vec<(String, Value)> {
        let mut out: Vec<(String, Value)> = self
            .model
            .registers()
            .iter()
            .enumerate()
            .map(|(i, r)| (r.name.clone(), *self.sim.value(self.layout.reg_out[i])))
            .collect();
        for (mi, m) in self.model.memories().iter().enumerate() {
            for i in 0..m.len {
                out.push((
                    m.word_name(i),
                    *self.sim.value(self.layout.mem_word[mi][i as usize]),
                ));
            }
        }
        out
    }

    /// Registers currently holding `ILLEGAL` — works without tracing.
    pub fn poisoned_registers(&self) -> Vec<String> {
        self.registers()
            .into_iter()
            .filter(|(_, v)| v.is_illegal())
            .map(|(n, _)| n)
            .collect()
    }

    /// Kernel statistics so far.
    pub fn stats(&self) -> SimStats {
        self.sim.stats()
    }

    /// A combined schedule-plus-kernel statistics report (the payload of
    /// `clockless stats --json`). Most useful after the run has finished;
    /// call it mid-run for a snapshot of the counters so far.
    pub fn stats_report(&self) -> crate::stats::RunStatsReport {
        crate::stats::RunStatsReport {
            model: self.model.name().to_string(),
            schedule: crate::stats::model_stats(&self.model),
            kernel: self.sim.stats(),
            activations: self.activation_counts(),
        }
    }

    /// Per-process activation tallies `(process name, resumptions)`, in
    /// elaboration order. The heaviest entries show where simulation time
    /// goes — for the paper's models that is the `TRANS` processes of the
    /// busiest control steps.
    pub fn activation_counts(&self) -> Vec<(String, u64)> {
        self.sim
            .process_names()
            .map(str::to_string)
            .zip(self.sim.activation_counts().iter().copied())
            .collect()
    }

    /// The conflict report: every `ILLEGAL` occurrence, located to the
    /// step and phase at which it became visible (§2.7). `None` when the
    /// simulation was not traced.
    pub fn conflicts(&self) -> Option<ConflictReport> {
        let trace = self.sim.trace()?;
        Some(conflict_report(trace.events(), &self.layout.roles))
    }

    /// The observable register commits: each change of a register's
    /// output port or memory word, attributed to the control step whose
    /// `cr` phase stored it. `None` when the simulation was not traced.
    ///
    /// A commit that stores the value already held is invisible (no signal
    /// event) and therefore not listed; functional comparisons should
    /// compare final values as well.
    pub fn register_commits(&self) -> Option<Vec<RegisterCommit>> {
        let trace = self.sim.trace()?;
        Some(commit_log(trace.events(), &self.layout.roles))
    }

    /// Renders the recorded waveform as a VCD document, or `None` when
    /// the simulation was not traced.
    pub fn to_vcd(&self) -> Option<String> {
        let names: Vec<&str> = self.sim.signal_names().collect();
        Some(self.sim.trace()?.to_vcd(&names))
    }

    /// Consumes the simulation, keeping only its recording (`None` when
    /// the simulation was not traced).
    pub fn into_waveform(mut self) -> Option<Waveform> {
        let trace = self.sim.take_trace()?;
        Some(Waveform::new(trace, Arc::clone(&self.layout.roles)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::ConflictSite;
    use crate::model::fig1_model;
    use crate::op::Op;
    use crate::phase::Phase;
    use crate::resource::{ModuleDecl, ModuleTiming};
    use crate::tuples::TransferTuple;

    #[test]
    fn fig1_computes_r1_plus_r2() {
        let model = fig1_model(3, 4);
        let mut sim = RtSimulation::new(&model).unwrap();
        let summary = sim.run_to_completion().unwrap();
        assert_eq!(summary.register("R1"), Some(Value::Num(7)));
        assert_eq!(summary.register("R2"), Some(Value::Num(4)));
    }

    #[test]
    fn fig1_costs_six_deltas_per_step() {
        let model = fig1_model(1, 1);
        let mut sim = RtSimulation::new(&model).unwrap();
        let summary = sim.run_to_completion().unwrap();
        // §2.2: "The complete simulation takes CS_MAX × 6 delta simulation
        // cycles" — plus the initialization cycle our kernel counts.
        assert_eq!(
            summary.stats.delta_cycles,
            1 + PHASES_PER_STEP * model.cs_max() as u64
        );
    }

    #[test]
    fn phase_time_tracks_controller() {
        let model = fig1_model(0, 0);
        let mut sim = RtSimulation::new(&model).unwrap();
        assert_eq!(sim.phase_time(), None);
        sim.step_delta().unwrap(); // initial execution applied
        sim.step_delta().unwrap(); // CS=1, PH=ra visible
        assert_eq!(sim.phase_time(), Some(PhaseTime::new(1, Phase::Ra)));
    }

    #[test]
    fn step_control_step_advances_one_step() {
        let model = fig1_model(0, 0);
        let mut sim = RtSimulation::new(&model).unwrap();
        sim.step_delta().unwrap(); // init execution, CS/PH still (0, cr)
        assert!(sim.step_control_step().unwrap());
        // Six deltas make ra..cr of step 1 visible in turn.
        assert_eq!(sim.phase_time(), Some(PhaseTime::new(1, Phase::Cr)));
        assert!(sim.step_control_step().unwrap());
        assert_eq!(sim.phase_time(), Some(PhaseTime::new(2, Phase::Cr)));
    }

    #[test]
    fn traced_run_reports_commits() {
        let model = fig1_model(10, 20);
        let mut sim = RtSimulation::traced(&model).unwrap();
        sim.run_to_completion().unwrap();
        let commits = sim.register_commits().unwrap();
        assert_eq!(
            commits,
            vec![RegisterCommit {
                register: "R1".into(),
                step: 6,
                value: Value::Num(30)
            }]
        );
    }

    #[test]
    fn clean_run_has_clean_conflict_report() {
        let model = fig1_model(1, 2);
        let mut sim = RtSimulation::traced(&model).unwrap();
        let summary = sim.run_to_completion().unwrap();
        assert!(summary.conflicts.unwrap().is_clean());
        assert!(sim.poisoned_registers().is_empty());
    }

    /// Two transfers drive B1 in the same ra phase: the bus conflict must
    /// surface as ILLEGAL at rb of that step and poison the destination.
    #[test]
    fn bus_conflict_is_localized() {
        let mut m = RtModel::new("conflict", 6);
        m.add_register_init("R1", Value::Num(1)).unwrap();
        m.add_register_init("R2", Value::Num(2)).unwrap();
        m.add_register("R3").unwrap();
        m.add_bus("B1").unwrap();
        m.add_bus("B2").unwrap();
        m.add_module(ModuleDecl::single(
            "ADD",
            Op::Add,
            ModuleTiming::Pipelined { latency: 1 },
        ))
        .unwrap();
        m.add_module(ModuleDecl::single(
            "CP",
            Op::PassA,
            ModuleTiming::Combinational,
        ))
        .unwrap();
        // Transfer 1 routes R1 over B1 at step 3 (read) for ADD.
        m.add_transfer(
            TransferTuple::new(3, "ADD")
                .src_a("R1", "B1")
                .src_b("R2", "B2")
                .write(4, "B2", "R3"),
        )
        .unwrap();
        // Transfer 2 also routes R2 over B1 at step 3 — the conflict.
        m.add_transfer(
            TransferTuple::new(3, "CP")
                .src_a("R2", "B1")
                .write(3, "B2", "R3"),
        )
        .unwrap();

        let mut sim = RtSimulation::traced(&m).unwrap();
        sim.run_to_completion().unwrap();
        let report = sim.conflicts().unwrap();
        assert!(!report.is_clean());
        let first = report.first().unwrap();
        assert_eq!(first.site, ConflictSite::Bus);
        assert_eq!(first.name, "B1");
        assert_eq!(first.visible_at, PhaseTime::new(3, Phase::Rb));
    }

    /// Write-back collisions localize to the *write* phases: a bus driven
    /// twice at `wa` turns ILLEGAL at `wb`, the double-driven register
    /// input port turns ILLEGAL at `cr`, and the poisoned value is stored
    /// — covering the paper's claim that diagnosis names the exact step
    /// and phase for every phase class, not just the read side.
    #[test]
    fn write_conflict_is_localized_to_write_phases() {
        let mut m = RtModel::new("wclash", 4);
        m.add_register_init("R1", Value::Num(1)).unwrap();
        m.add_register_init("R2", Value::Num(2)).unwrap();
        m.add_register("RT").unwrap();
        m.add_bus("BA").unwrap();
        m.add_bus("BB").unwrap();
        m.add_bus("BW").unwrap();
        for name in ["CP1", "CP2"] {
            m.add_module(ModuleDecl::single(
                name,
                Op::PassA,
                ModuleTiming::Combinational,
            ))
            .unwrap();
        }
        // Both transfers write bus BW into RT in step 2 — colliding at wa
        // (bus) and wb (register port), not at the read phases.
        m.add_transfer(
            TransferTuple::new(2, "CP1")
                .src_a("R1", "BA")
                .write(2, "BW", "RT"),
        )
        .unwrap();
        m.add_transfer(
            TransferTuple::new(2, "CP2")
                .src_a("R2", "BB")
                .write(2, "BW", "RT"),
        )
        .unwrap();

        let mut sim = RtSimulation::traced(&m).unwrap();
        sim.run_to_completion().unwrap();
        let report = sim.conflicts().unwrap();
        // Root cause: the bus collision driven at wa, visible at wb.
        let first = report.first().unwrap();
        assert_eq!(first.site, ConflictSite::Bus);
        assert_eq!(first.name, "BW");
        assert_eq!(first.visible_at, PhaseTime::new(2, Phase::Wb));
        // Propagation: the register input port turns ILLEGAL at cr…
        assert!(report.on("RT").any(|c| c.site == ConflictSite::RegisterPort
            && c.visible_at == PhaseTime::new(2, Phase::Cr)));
        // …and the stored conflict poisons the register itself.
        assert_eq!(sim.register_value("RT"), Some(Value::Illegal));
        assert_eq!(sim.poisoned_registers(), vec!["RT".to_string()]);
        // The read side stayed clean: no conflict before wb.
        assert!(report
            .conflicts
            .iter()
            .all(|c| c.visible_at >= PhaseTime::new(2, Phase::Wb)));
    }

    #[test]
    fn delta_limit_plumbs_through_to_the_kernel() {
        let model = fig1_model(3, 4);
        // A fig. 1 run needs 1 + 6×7 deltas; a budget of 10 must abort.
        let mut sim = RtSimulation::new(&model).unwrap();
        sim.set_delta_limit(10);
        let err = sim.run_to_completion().expect_err("budget exceeded");
        assert!(matches!(err, KernelError::DeltaOverflow { limit: 10, .. }));
        // A budget of exactly 1 + 6×CS_MAX suffices.
        let mut sim = RtSimulation::new(&model).unwrap();
        sim.set_delta_limit(1 + PHASES_PER_STEP * model.cs_max() as u64);
        let summary = sim.run_to_completion().expect("exact budget suffices");
        assert_eq!(summary.register("R1"), Some(Value::Num(7)));
    }

    /// A model far longer than the delta limit fails at once, with the
    /// error the kernel would reach at delta `limit` — nothing runs and
    /// nothing is recorded past the initial values.
    #[test]
    fn certain_overruns_are_refused_before_the_run() {
        let big = crate::text::parse_model("model big steps 4000000000\nregister A init 1\n")
            .expect("parses");
        let mut sim = RtSimulation::traced(&big).unwrap();
        let err = sim.run_to_completion().expect_err("cannot finish");
        let limit = clockless_kernel::DEFAULT_DELTA_LIMIT;
        let at = SimTime {
            fs: 0,
            delta: limit,
        };
        assert_eq!(err, KernelError::DeltaOverflow { at, limit });
        assert_eq!(
            err.to_string(),
            "delta-cycle limit 100000000 exhausted at 0ns+100000000d; model is oscillating"
        );
        assert_eq!(sim.stats(), SimStats::default());
        let trace = sim.kernel().trace().expect("traced");
        assert_eq!(
            trace.len(),
            sim.kernel().signal_count(),
            "initial values only"
        );
        // The same under a tight budget, and with a deadline.
        let model = fig1_model(3, 4);
        let options = ExecOptions {
            delta_limit: Some(10),
            deadline: Some(std::time::Instant::now()),
            ..ExecOptions::traced()
        };
        let sim = RtSimulation::traced(&model).unwrap();
        let err = sim.execute(&options).expect_err("cannot finish");
        let at = SimTime { fs: 0, delta: 10 };
        assert_eq!(err, KernelError::DeltaOverflow { at, limit: 10 });
    }

    /// The static check only refuses what the kernel would certainly
    /// refuse: the write-back of the last step needs one more delta than
    /// `1 + 6 × CS_MAX`, so that budget passes the check and the kernel
    /// itself overflows on the flush delta — with the error the compiled
    /// engine diagnoses from its schedule, byte for byte.
    #[test]
    fn a_flush_delta_overflows_in_the_kernel() {
        let model = crate::text::parse_model(
            "model flush steps 2\nregister A init 1\nregister B\nbus X\nbus Y\n\
             module CP ops passa comb\ntransfer (A,X,-,-,2,CP,2,Y,B)\n",
        )
        .expect("parses");
        let least = 1 + PHASES_PER_STEP * model.cs_max() as u64;
        let options = ExecOptions {
            delta_limit: Some(least),
            ..ExecOptions::traced()
        };
        let mut sim = RtSimulation::traced(&model).unwrap();
        sim.set_delta_limit(least);
        sim.check_delta_limit()
            .expect("the lower bound fits the budget");
        let err = sim
            .execute(&options)
            .expect_err("the flush delta overflows");
        let at = SimTime {
            fs: 0,
            delta: least,
        };
        assert_eq!(err, KernelError::DeltaOverflow { at, limit: least });
        let compiled = crate::Backend::Compiled
            .execute(&model, &options)
            .expect_err("the schedule is longer than the budget");
        assert_eq!(err.to_string(), compiled.to_string());
        // One more delta and both engines finish.
        let options = ExecOptions {
            delta_limit: Some(least + 1),
            ..options
        };
        for backend in [crate::Backend::Interpreted, crate::Backend::Compiled] {
            let out = backend.execute(&model, &options).expect("fits");
            assert_eq!(out.summary.register("B"), Some(Value::Num(1)), "{backend}");
        }
    }

    #[test]
    fn instantiated_copies_run_as_their_own_elaborations() {
        for options in [ElaborateOptions::default(), ElaborateOptions::traced()] {
            let template = Elaboration::new(&fig1_model(3, 4), options);
            for (a, b) in [(3, 4), (10, 20), (-5, 5), (3, 4)] {
                let model = fig1_model(a, b);
                let mut copy = template.instantiate(&model).unwrap();
                let mut own = RtSimulation::with_options(&model, options).unwrap();
                let (x, y) = (copy.run_to_completion(), own.run_to_completion());
                let (x, y) = (x.unwrap(), y.unwrap());
                assert_eq!(x.stats, y.stats);
                assert_eq!(x.registers, y.registers);
                assert_eq!(x.conflicts, y.conflicts);
                assert_eq!(copy.activation_counts(), own.activation_counts());
                assert_eq!(copy.to_vcd(), own.to_vcd());
                assert_eq!(copy.model().registers(), model.registers());
            }
        }
    }

    #[test]
    #[should_panic(expected = "up to register inits")]
    fn instantiate_refuses_another_model() {
        let template = Elaboration::new(&fig1_model(3, 4), ElaborateOptions::default());
        let mut longer = fig1_model(3, 4);
        longer.set_cs_max(9).unwrap();
        let _ = template.instantiate(&longer);
    }

    #[test]
    fn vcd_export_available_when_traced() {
        let model = fig1_model(1, 2);
        let mut sim = RtSimulation::traced(&model).unwrap();
        sim.run_to_completion().unwrap();
        let vcd = sim.to_vcd().unwrap();
        assert!(vcd.contains("$enddefinitions"));
        assert!(vcd.contains("R1_out"));

        let mut untraced = RtSimulation::new(&model).unwrap();
        untraced.run_to_completion().unwrap();
        assert!(untraced.to_vcd().is_none());
    }
}
