//! Value-checking programs: golden-run monitors and mined functional
//! invariants, evaluated identically by every execution engine.
//!
//! The resolution function only detects faults that collide on a
//! resolved signal — value corruption that never double-drives anything
//! stays silent. A [`CheckProgram`] closes that gap with two detector
//! families layered *outside* the model's semantics:
//!
//! * a **golden monitor** ([`MonitorTable`]): the per-delta value table
//!   of the clean run; any divergence in a mutant is flagged at its
//!   first `(step, phase, signal)`;
//! * **functional invariants** ([`Invariant`]): range, reachable-set and
//!   pairwise relation constraints mined from clean runs and re-asserted
//!   every delta cycle.
//!
//! The evaluation state machine ([`CheckEval`]) is the single source of
//! verdict truth: the interpreted kernel feeds it from the commit
//! observation hook, the compiled plan feeds it from its SoA value
//! columns, and both therefore agree byte-for-byte by construction.
//!
//! # Examples
//!
//! ```
//! use clockless_core::check::{check_signals, record_table, CheckProgram};
//! use clockless_core::model::fig1_model;
//!
//! let model = fig1_model(3, 4);
//! let signals = check_signals(&model);
//! let table = record_table(&model, &signals)?;
//! // A fig. 1 run quiesces after 1 + 6×7 deltas; each has one row.
//! assert_eq!(table.deltas, 43);
//! let program = CheckProgram {
//!     signals,
//!     monitor: Some(table),
//!     invariants: Vec::new(),
//! };
//! assert!(!program.is_empty());
//! # Ok::<(), clockless_core::check::CheckedError>(())
//! ```

use std::fmt;

use clockless_kernel::{KernelError, SignalId};

use crate::backend::{Backend, ExecOptions, ExecOutcome};
use crate::elaborate::ElaborateOptions;
use crate::model::RtModel;
use crate::phase::PhaseTime;
use crate::plan::{ExecPlan, PlanDelta};
use crate::run::RtSimulation;
use crate::value::Value;

/// What kind of resource a monitored signal is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignalKind {
    /// A register's output port.
    Register,
    /// One word of a memory (named `M[i]`).
    MemoryWord,
    /// A bus.
    Bus,
}

impl SignalKind {
    /// Lowercase label (`"register"` / `"memory word"` / `"bus"`).
    pub fn as_str(self) -> &'static str {
        match self {
            SignalKind::Register => "register",
            SignalKind::MemoryWord => "memory word",
            SignalKind::Bus => "bus",
        }
    }
}

impl fmt::Display for SignalKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One monitored signal, identified by resource name and kind.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CheckSignal {
    /// The resource name (`"R1"`, `"B2"`).
    pub name: String,
    /// Register output or bus.
    pub kind: SignalKind,
}

/// The monitorable signals of a model: every register output, then every
/// memory word, then every bus, all in declaration order. This ordering
/// is the canonical one — monitor tables and invariant indices refer to
/// it. Memory-free models keep the historical registers-then-buses list.
pub fn check_signals(model: &RtModel) -> Vec<CheckSignal> {
    let mut signals = Vec::with_capacity(model.registers().len() + model.buses().len());
    for r in model.registers() {
        signals.push(CheckSignal {
            name: r.name.clone(),
            kind: SignalKind::Register,
        });
    }
    for m in model.memories() {
        for i in 0..m.len {
            signals.push(CheckSignal {
                name: m.word_name(i),
                kind: SignalKind::MemoryWord,
            });
        }
    }
    for b in model.buses() {
        signals.push(CheckSignal {
            name: b.name.clone(),
            kind: SignalKind::Bus,
        });
    }
    signals
}

/// The golden run's per-delta value table, row-major:
/// `values[delta * width + i]` is signal `i` at the end of delta `delta`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorTable {
    /// How many delta cycles the golden run took.
    pub deltas: u64,
    /// `deltas × width` values (width = the program's signal count).
    pub values: Vec<Value>,
}

impl MonitorTable {
    /// Row for `delta`, clamped to the last recorded row (a quiesced run
    /// holds its final values forever).
    fn row(&self, width: usize, delta: u64) -> &[Value] {
        let d = delta.min(self.deltas.saturating_sub(1)) as usize;
        &self.values[d * width..(d + 1) * width]
    }
}

/// One functional invariant over the program's signals (indices into
/// [`CheckProgram::signals`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Invariant {
    /// The signal always holds a number in `[min, max]`.
    Range {
        /// Constrained signal.
        sig: usize,
        /// Inclusive lower bound.
        min: i64,
        /// Inclusive upper bound.
        max: i64,
    },
    /// The signal only ever holds one of these numbers (sorted).
    Reachable {
        /// Constrained signal.
        sig: usize,
        /// The reachable value set, ascending.
        values: Vec<i64>,
    },
    /// The two signals always hold the same value.
    Eq {
        /// Left-hand signal.
        a: usize,
        /// Right-hand signal.
        b: usize,
    },
    /// Both signals are numbers with `a <= b`.
    Le {
        /// Left-hand signal.
        a: usize,
        /// Right-hand signal.
        b: usize,
    },
    /// Both signals are numbers with `a - b == delta`.
    Offset {
        /// Left-hand signal.
        a: usize,
        /// Right-hand signal.
        b: usize,
        /// The constant difference.
        delta: i64,
    },
}

impl Invariant {
    /// The index of the signal a violation is attributed to.
    pub fn site(&self) -> usize {
        match *self {
            Invariant::Range { sig, .. } | Invariant::Reachable { sig, .. } => sig,
            Invariant::Eq { a, .. } | Invariant::Le { a, .. } | Invariant::Offset { a, .. } => a,
        }
    }

    /// Human-readable rule text, e.g. `` `R1 in [3, 7]` ``.
    pub fn render(&self, signals: &[CheckSignal]) -> String {
        let name = |i: usize| signals[i].name.as_str();
        match self {
            Invariant::Range { sig, min, max } => {
                format!("{} in [{}, {}]", name(*sig), min, max)
            }
            Invariant::Reachable { sig, values } => {
                let mut set = String::new();
                for (k, v) in values.iter().enumerate() {
                    if k > 0 {
                        set.push_str(", ");
                    }
                    let _ = fmt::Write::write_fmt(&mut set, format_args!("{v}"));
                }
                format!("{} in {{{}}}", name(*sig), set)
            }
            Invariant::Eq { a, b } => format!("{} == {}", name(*a), name(*b)),
            Invariant::Le { a, b } => format!("{} <= {}", name(*a), name(*b)),
            Invariant::Offset { a, b, delta } => {
                format!("{} - {} == {}", name(*a), name(*b), delta)
            }
        }
    }

    /// Evaluates the invariant against one value row; on violation
    /// returns the attributed signal index and its offending value.
    fn violated(&self, row: &[Value]) -> Option<(usize, Value)> {
        match self {
            Invariant::Range { sig, min, max } => match row[*sig] {
                Value::Num(v) if *min <= v && v <= *max => None,
                other => Some((*sig, other)),
            },
            Invariant::Reachable { sig, values } => match row[*sig] {
                Value::Num(v) if values.binary_search(&v).is_ok() => None,
                other => Some((*sig, other)),
            },
            Invariant::Eq { a, b } => {
                if row[*a] == row[*b] {
                    None
                } else {
                    Some((*a, row[*a]))
                }
            }
            Invariant::Le { a, b } => match (row[*a], row[*b]) {
                (Value::Num(x), Value::Num(y)) if x <= y => None,
                _ => Some((*a, row[*a])),
            },
            Invariant::Offset { a, b, delta } => match (row[*a], row[*b]) {
                (Value::Num(x), Value::Num(y)) if x.wrapping_sub(y) == *delta => None,
                _ => Some((*a, row[*a])),
            },
        }
    }
}

/// A complete checking program: the monitored signal list plus the
/// enabled detector families.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckProgram {
    /// Monitored signals; monitor rows and invariant indices refer to
    /// this list.
    pub signals: Vec<CheckSignal>,
    /// Golden-run monitor table, when golden checking is enabled.
    pub monitor: Option<MonitorTable>,
    /// Mined invariants, evaluated in order every delta cycle.
    pub invariants: Vec<Invariant>,
}

impl CheckProgram {
    /// The monitored signal count (the monitor table's row width).
    pub fn width(&self) -> usize {
        self.signals.len()
    }

    /// `true` when the program checks nothing.
    pub fn is_empty(&self) -> bool {
        self.monitor.is_none() && self.invariants.is_empty()
    }
}

/// Where in control-step time a delta cycle falls, as display text:
/// `"at initialization"` for delta 0, `"in step S phase P"` otherwise.
pub fn site_text(delta: u64) -> String {
    match PhaseTime::from_active_delta(delta) {
        None => "at initialization".to_string(),
        Some(pt) => format!("in step {} phase {}", pt.step, pt.phase),
    }
}

/// First divergence from the golden monitor table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorViolation {
    /// The diverging signal's name.
    pub signal: String,
    /// Register output or bus.
    pub kind: SignalKind,
    /// The delta cycle at which the divergence became visible.
    pub delta: u64,
    /// The golden run's value at that delta.
    pub expected: Value,
    /// The observed value.
    pub got: Value,
}

impl MonitorViolation {
    /// The violation's control-step site, `None` for initialization.
    pub fn site(&self) -> Option<PhaseTime> {
        PhaseTime::from_active_delta(self.delta)
    }
}

impl fmt::Display for MonitorViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "value monitor: {} `{}` read {} {}, golden run says {}",
            self.kind,
            self.signal,
            self.got,
            site_text(self.delta),
            self.expected
        )
    }
}

/// First violated invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// The violated rule, rendered (`"R1 in [3, 7]"`).
    pub rule: String,
    /// The signal the violation is attributed to.
    pub signal: String,
    /// The delta cycle of the first violation.
    pub delta: u64,
    /// The offending value of `signal`.
    pub got: Value,
}

impl InvariantViolation {
    /// The violation's control-step site, `None` for initialization.
    pub fn site(&self) -> Option<PhaseTime> {
        PhaseTime::from_active_delta(self.delta)
    }
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invariant `{}` violated: `{}` = {} {}",
            self.rule,
            self.signal,
            self.got,
            site_text(self.delta)
        )
    }
}

/// The verdict of one checked run: the first violation of each detector
/// family, or none.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// First divergence from the golden monitor, if any.
    pub monitor: Option<MonitorViolation>,
    /// First invariant violation, if any.
    pub invariant: Option<InvariantViolation>,
}

impl CheckReport {
    /// `true` when no detector fired.
    pub fn is_clean(&self) -> bool {
        self.monitor.is_none() && self.invariant.is_none()
    }
}

/// The checking state machine. Feed it the end-of-delta values of every
/// executed delta cycle in order via [`observe`](Self::observe), then
/// call [`finish`](Self::finish); it latches the *first* violation of
/// each detector family.
///
/// Runs shorter than the golden table are extended with their frozen
/// final values (a quiesced run holds them forever); runs longer than
/// the table are compared against the table's final row. Both engines
/// drive this same machine, so verdicts agree byte-for-byte.
#[derive(Debug)]
pub struct CheckEval<'p> {
    program: &'p CheckProgram,
    /// Deltas observed so far (== the next expected delta index).
    observed: u64,
    /// The most recent observed row.
    last: Vec<Value>,
    monitor: Option<MonitorViolation>,
    invariant: Option<InvariantViolation>,
}

impl<'p> CheckEval<'p> {
    /// A fresh evaluator for `program`.
    pub fn new(program: &'p CheckProgram) -> CheckEval<'p> {
        CheckEval {
            program,
            observed: 0,
            last: vec![Value::Disc; program.width()],
            monitor: None,
            invariant: None,
        }
    }

    /// Observes the end-of-delta values of delta cycle `delta` (must be
    /// called with consecutive deltas starting at 0). `get(i)` is the
    /// value of `program.signals[i]`.
    pub fn observe(&mut self, delta: u64, mut get: impl FnMut(usize) -> Value) {
        for i in 0..self.program.width() {
            self.last[i] = get(i);
        }
        self.check_monitor(delta);
        self.check_invariants(delta);
        self.observed = delta + 1;
    }

    fn check_monitor(&mut self, delta: u64) {
        if self.monitor.is_some() {
            return;
        }
        let Some(table) = &self.program.monitor else {
            return;
        };
        let row = table.row(self.program.width(), delta);
        for (i, (got, expected)) in self.last.iter().zip(row).enumerate() {
            if got != expected {
                self.monitor = Some(MonitorViolation {
                    signal: self.program.signals[i].name.clone(),
                    kind: self.program.signals[i].kind,
                    delta,
                    expected: *expected,
                    got: *got,
                });
                return;
            }
        }
    }

    fn check_invariants(&mut self, delta: u64) {
        if self.invariant.is_some() {
            return;
        }
        for inv in &self.program.invariants {
            if let Some((sig, got)) = inv.violated(&self.last) {
                self.invariant = Some(InvariantViolation {
                    rule: inv.render(&self.program.signals),
                    signal: self.program.signals[sig].name.clone(),
                    delta,
                    got,
                });
                return;
            }
        }
    }

    /// Finalizes the verdict. If the run was shorter than the golden
    /// table, the frozen final values are compared against the remaining
    /// golden rows (invariants need no extension — the frozen row was
    /// already checked at its last delta).
    pub fn finish(&mut self) -> CheckReport {
        if let Some(table) = &self.program.monitor {
            let mut d = self.observed;
            while self.monitor.is_none() && d < table.deltas {
                self.check_monitor(d);
                d += 1;
            }
        }
        CheckReport {
            monitor: self.monitor.clone(),
            invariant: self.invariant.clone(),
        }
    }
}

/// Error of a checked execution.
#[derive(Debug)]
pub enum CheckedError {
    /// The program references a signal the model does not have.
    Signals(String),
    /// The run itself failed.
    Kernel(KernelError),
}

impl fmt::Display for CheckedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckedError::Signals(msg) => write!(f, "check program: {msg}"),
            CheckedError::Kernel(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CheckedError {}

impl From<KernelError> for CheckedError {
    fn from(e: KernelError) -> CheckedError {
        CheckedError::Kernel(e)
    }
}

/// Maps each [`CheckSignal`] to its kernel [`SignalId`] in `sim`.
fn resolve_kernel_ids(
    sim: &RtSimulation,
    signals: &[CheckSignal],
) -> Result<Vec<SignalId>, String> {
    let model = sim.model();
    let layout = sim.layout();
    signals
        .iter()
        .map(|s| match s.kind {
            SignalKind::Register => model
                .register_by_name(&s.name)
                .map(|id| layout.reg_out[id.0 as usize])
                .ok_or_else(|| format!("unknown register `{}`", s.name)),
            SignalKind::MemoryWord => model
                .memories()
                .iter()
                .enumerate()
                .find_map(|(mi, m)| {
                    (0..m.len)
                        .find(|&i| m.word_name(i) == s.name)
                        .map(|i| layout.mem_word[mi][i as usize])
                })
                .ok_or_else(|| format!("unknown memory word `{}`", s.name)),
            SignalKind::Bus => model
                .bus_by_name(&s.name)
                .map(|id| layout.bus[id.0 as usize])
                .ok_or_else(|| format!("unknown bus `{}`", s.name)),
        })
        .collect()
}

/// An interpreter run with commit observation on the check signals.
struct ObservedRun {
    outcome: ExecOutcome,
    /// Executed delta cycles.
    deltas: u64,
    /// Initial values of the observed signals.
    inits: Vec<Value>,
    /// `(delta, signal index, value)` commits, chronological.
    log: Vec<(u64, usize, Value)>,
}

fn run_observed(
    model: &RtModel,
    signals: &[CheckSignal],
    options: &ExecOptions,
) -> Result<ObservedRun, CheckedError> {
    let elaborate = ElaborateOptions {
        trace: options.trace,
        ..Default::default()
    };
    let mut sim = RtSimulation::with_options(model, elaborate)?;
    let ids = resolve_kernel_ids(&sim, signals).map_err(CheckedError::Signals)?;
    let inits: Vec<Value> = ids.iter().map(|id| *sim.kernel().value(*id)).collect();
    sim.kernel_mut().observe_commits(&ids);
    if let Some(limit) = options.delta_limit {
        sim.set_delta_limit(limit);
    }
    let summary = match options.deadline {
        Some(deadline) => sim.run_to_completion_deadlined(deadline)?,
        None => sim.run_to_completion()?,
    };
    let log = sim
        .kernel()
        .commit_log()
        .iter()
        .map(|(delta, sid, value)| {
            let i = ids.iter().position(|id| id == sid).expect("observed id");
            (*delta, i, *value)
        })
        .collect();
    let deltas = summary.stats.delta_cycles;
    Ok(ObservedRun {
        outcome: ExecOutcome {
            summary,
            waveform: sim.into_waveform(),
        },
        deltas,
        inits,
        log,
    })
}

/// Records the per-delta value table of a clean interpreter run of
/// `model` over `signals` — the golden monitor table, and the data the
/// invariant miner learns from. Both backends produce byte-identical
/// per-delta values, so one canonical recording serves either engine.
///
/// # Errors
///
/// [`CheckedError::Signals`] for unknown signals, or the run's own
/// kernel error.
pub fn record_table(
    model: &RtModel,
    signals: &[CheckSignal],
) -> Result<MonitorTable, CheckedError> {
    let run = run_observed(model, signals, &ExecOptions::default())?;
    let width = signals.len();
    let mut values = Vec::with_capacity(run.deltas as usize * width);
    let mut cur = run.inits.clone();
    let mut k = 0;
    for d in 0..run.deltas {
        while k < run.log.len() && run.log[k].0 == d {
            cur[run.log[k].1] = run.log[k].2;
            k += 1;
        }
        values.extend_from_slice(&cur);
    }
    Ok(MonitorTable {
        deltas: run.deltas,
        values,
    })
}

/// Runs `model` on `backend` with `program`'s checkers active, returning
/// the normal observable outcome plus the check verdict.
///
/// The interpreted engine feeds the evaluator from the kernel's commit
/// observation hook; the compiled engine evaluates its SoA value columns
/// through the identity batch path. Verdicts are byte-identical.
///
/// # Errors
///
/// [`CheckedError::Signals`] for unknown signals, or the run's own
/// kernel error (budget overflow aborts the run before any verdict).
pub fn execute_checked(
    model: &RtModel,
    backend: Backend,
    options: &ExecOptions,
    program: &CheckProgram,
) -> Result<(ExecOutcome, CheckReport), CheckedError> {
    match backend {
        Backend::Interpreted => {
            let run = run_observed(model, &program.signals, options)?;
            let mut eval = CheckEval::new(program);
            let mut cur = run.inits.clone();
            let mut k = 0;
            for d in 0..run.deltas {
                while k < run.log.len() && run.log[k].0 == d {
                    cur[run.log[k].1] = run.log[k].2;
                    k += 1;
                }
                eval.observe(d, |i| cur[i]);
            }
            Ok((run.outcome, eval.finish()))
        }
        Backend::Compiled => {
            let plan = ExecPlan::lower(model);
            let checks = plan
                .resolve_checks(program)
                .map_err(CheckedError::Signals)?;
            let outcome = plan.execute(options)?;
            let report = plan
                .execute_batch_checked(&[PlanDelta::default()], options, &checks)?
                .into_iter()
                .next()
                .and_then(|col| col.check)
                .unwrap_or_default();
            Ok((outcome, report))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::fig1_model;

    fn fig1_program(monitor: bool) -> (RtModel, CheckProgram) {
        let model = fig1_model(3, 4);
        let signals = check_signals(&model);
        let table = record_table(&model, &signals).expect("records");
        let program = CheckProgram {
            signals,
            monitor: monitor.then_some(table),
            invariants: Vec::new(),
        };
        (model, program)
    }

    #[test]
    fn check_signals_lists_registers_then_buses() {
        let model = fig1_model(3, 4);
        let signals = check_signals(&model);
        let names: Vec<&str> = signals.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["R1", "R2", "B1", "B2"]);
        assert_eq!(signals[0].kind, SignalKind::Register);
        assert_eq!(signals[2].kind, SignalKind::Bus);
    }

    #[test]
    fn recorded_table_tracks_the_commit() {
        let (_, program) = fig1_program(true);
        let table = program.monitor.as_ref().unwrap();
        let w = program.width();
        assert_eq!(table.deltas, 43);
        // Delta 0: initial values.
        assert_eq!(table.row(w, 0)[0], Value::Num(3));
        assert_eq!(table.row(w, 0)[1], Value::Num(4));
        // Final row: R1 committed 7.
        assert_eq!(table.row(w, 42)[0], Value::Num(7));
        // Past-the-end rows clamp to the final one.
        assert_eq!(table.row(w, 99)[0], Value::Num(7));
    }

    #[test]
    fn clean_run_is_clean_on_both_backends() {
        let (model, program) = fig1_program(true);
        for backend in [Backend::Interpreted, Backend::Compiled] {
            let (outcome, report) =
                execute_checked(&model, backend, &ExecOptions::traced(), &program).expect("runs");
            assert_eq!(outcome.summary.register("R1"), Some(Value::Num(7)));
            assert!(report.is_clean(), "{backend}: {report:?}");
        }
    }

    #[test]
    fn corrupted_init_diverges_at_initialization_identically() {
        let (_, program) = fig1_program(true);
        let mutant = fig1_model(5, 4);
        let mut reports = Vec::new();
        for backend in [Backend::Interpreted, Backend::Compiled] {
            let (_, report) =
                execute_checked(&mutant, backend, &ExecOptions::default(), &program).expect("runs");
            let v = report.monitor.clone().expect("diverges");
            assert_eq!(v.signal, "R1");
            assert_eq!(v.delta, 0);
            assert_eq!(v.expected, Value::Num(3));
            assert_eq!(v.got, Value::Num(5));
            assert!(v.to_string().contains("at initialization"), "{v}");
            reports.push(report);
        }
        assert_eq!(reports[0], reports[1]);
    }

    #[test]
    fn invariants_latch_the_first_violation_site() {
        let (model, _) = fig1_program(false);
        let signals = check_signals(&model);
        let program = CheckProgram {
            signals,
            monitor: None,
            invariants: vec![
                Invariant::Range {
                    sig: 0,
                    min: 3,
                    max: 6, // the commit of 7 violates this
                },
                Invariant::Reachable {
                    sig: 1,
                    values: vec![4],
                },
            ],
        };
        for backend in [Backend::Interpreted, Backend::Compiled] {
            let (_, report) =
                execute_checked(&model, backend, &ExecOptions::default(), &program).expect("runs");
            let v = report.invariant.clone().expect("fires");
            assert_eq!(v.signal, "R1");
            assert_eq!(v.rule, "R1 in [3, 6]");
            assert_eq!(v.got, Value::Num(7));
            // R1's output changes in the delta after cr of step 6.
            assert_eq!(site_text(v.delta), "in step 7 phase ra");
        }
    }

    #[test]
    fn eval_extends_short_runs_with_frozen_values() {
        // Golden table: two deltas, signal goes 1 -> 2. A "run" observing
        // only delta 0 with value 1 must still diverge at delta 1.
        let program = CheckProgram {
            signals: vec![CheckSignal {
                name: "X".into(),
                kind: SignalKind::Register,
            }],
            monitor: Some(MonitorTable {
                deltas: 2,
                values: vec![Value::Num(1), Value::Num(2)],
            }),
            invariants: Vec::new(),
        };
        let mut eval = CheckEval::new(&program);
        eval.observe(0, |_| Value::Num(1));
        let report = eval.finish();
        let v = report.monitor.expect("frozen value diverges at delta 1");
        assert_eq!(v.delta, 1);
        assert_eq!(v.expected, Value::Num(2));
        assert_eq!(v.got, Value::Num(1));
    }

    #[test]
    fn unknown_signals_are_a_typed_error() {
        let model = fig1_model(1, 2);
        let program = CheckProgram {
            signals: vec![CheckSignal {
                name: "NOPE".into(),
                kind: SignalKind::Register,
            }],
            monitor: None,
            invariants: vec![Invariant::Range {
                sig: 0,
                min: 0,
                max: 1,
            }],
        };
        for backend in [Backend::Interpreted, Backend::Compiled] {
            let err = execute_checked(&model, backend, &ExecOptions::default(), &program)
                .expect_err("unknown signal");
            assert!(matches!(err, CheckedError::Signals(_)), "{err}");
            assert!(err.to_string().contains("NOPE"), "{err}");
        }
    }
}
