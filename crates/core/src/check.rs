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
//! One rule set defines the verdicts, evaluated a lane word at a time
//! (`LaneChecks`: one compare per changed signal for all of a fault
//! chunk's lanes). The compiled walk feeds it from its own updates; the
//! interpreted kernel feeds a one-lane copy, the evaluation state machine
//! [`CheckEval`], from the commit observation hook. Tests pin it against
//! a full scan of every row.
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
use crate::opt::Stream;
use crate::phase::PhaseTime;
use crate::plan::ExecPlan;
use crate::run::RtSimulation;
use crate::value::Value;
use crate::word::{bits, Word};

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

    /// The signals the invariant reads: `(sig, sig)` for the single-signal
    /// kinds, `(a, b)` for the relations.
    fn operands(&self) -> (usize, usize) {
        match *self {
            Invariant::Range { sig, .. } | Invariant::Reachable { sig, .. } => (sig, sig),
            Invariant::Eq { a, b } | Invariant::Le { a, b } | Invariant::Offset { a, b, .. } => {
                (a, b)
            }
        }
    }

    /// Evaluates the invariant against the value row that `row(i)`
    /// reads; on violation returns the attributed signal index and its
    /// offending value.
    fn violated(&self, row: impl Fn(usize) -> Value) -> Option<(usize, Value)> {
        match self {
            Invariant::Range { sig, min, max } => match row(*sig) {
                Value::Num(v) if *min <= v && v <= *max => None,
                other => Some((*sig, other)),
            },
            Invariant::Reachable { sig, values } => match row(*sig) {
                Value::Num(v) if values.binary_search(&v).is_ok() => None,
                other => Some((*sig, other)),
            },
            Invariant::Eq { a, b } => {
                if row(*a) == row(*b) {
                    None
                } else {
                    Some((*a, row(*a)))
                }
            }
            Invariant::Le { a, b } => match (row(*a), row(*b)) {
                (Value::Num(x), Value::Num(y)) if x <= y => None,
                _ => Some((*a, row(*a))),
            },
            Invariant::Offset { a, b, delta } => match (row(*a), row(*b)) {
                (Value::Num(x), Value::Num(y)) if x.wrapping_sub(y) == *delta => None,
                _ => Some((*a, row(*a))),
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

/// The lookups that let [`CheckEval`] re-check only what a delta changed,
/// built once per program (once per campaign) by [`CheckIndex::new`].
///
/// A monitor entry can first mismatch only at a delta where the run's
/// value or the golden row changed, and an invariant can first fail only
/// where one of its operands changed; these tables name both.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckIndex {
    /// The invariants reading each signal, ascending.
    invariants: Vec<Vec<usize>>,
    /// Per delta of the golden table, the signals whose value differs
    /// from the previous delta's, ascending (none at delta 0; past the
    /// table's end the row holds).
    golden: Vec<Vec<usize>>,
}

impl CheckIndex {
    /// Indexes `program`: signal → invariants and delta → golden-row
    /// changes.
    pub fn new(program: &CheckProgram) -> CheckIndex {
        let width = program.width();
        let mut invariants = vec![Vec::new(); width];
        for (k, inv) in program.invariants.iter().enumerate() {
            let (a, b) = inv.operands();
            invariants[a].push(k);
            if b != a {
                invariants[b].push(k);
            }
        }
        let golden = match &program.monitor {
            Some(table) => {
                let deltas = usize::try_from(table.deltas).unwrap_or(usize::MAX);
                let rows: Vec<&[Value]> = table.values.chunks(width.max(1)).take(deltas).collect();
                (0..rows.len())
                    .map(|d| match d {
                        0 => Vec::new(),
                        d => (0..width)
                            .filter(|&i| rows[d - 1][i] != rows[d][i])
                            .collect(),
                    })
                    .collect()
            }
            None => Vec::new(),
        };
        CheckIndex { invariants, golden }
    }

    /// The signals whose golden value changes at delta `d`.
    fn golden_changes(&self, d: u64) -> &[usize] {
        usize::try_from(d)
            .ok()
            .and_then(|d| self.golden.get(d))
            .map_or(&[], Vec::as_slice)
    }
}

/// The checking state machine. Feed it every executed delta cycle in
/// order via [`observe`](Self::observe), then call
/// [`finish`](Self::finish); it latches the *first* violation of each
/// detector family, exactly as a full scan of every row would.
///
/// Observation is event-driven: the first observation reads the whole
/// row, and each later one reads only the signals the delta changed,
/// re-checking just the monitor entries whose run or golden value moved
/// and the invariants over a changed operand ([`CheckIndex`]). Runs
/// shorter than the golden table are extended with their frozen final
/// values (a quiesced run holds them forever); runs longer than the table
/// are compared against the table's final row. It is one lane of the
/// compiled walk's lane checkers, so both engines' verdicts come from one
/// rule set.
#[derive(Debug)]
pub struct CheckEval<'p> {
    lane: LaneChecks<'p>,
    /// Deltas observed so far (== the next expected delta index).
    observed: u64,
    /// The current value of every signal.
    last: Vec<Value>,
}

impl<'p> CheckEval<'p> {
    /// A fresh evaluator for `program`, whose lookups `index` holds (see
    /// [`CheckIndex::new`]).
    pub fn new(program: &'p CheckProgram, index: &'p CheckIndex) -> CheckEval<'p> {
        CheckEval {
            lane: LaneChecks::new(program, index, 1),
            observed: 0,
            last: vec![Value::Disc; program.width()],
        }
    }

    /// Observes the end-of-delta values of delta cycle `delta` (must be
    /// called with consecutive deltas starting at 0). `get(i)` is the
    /// value of `program.signals[i]`. The first observation reads every
    /// signal; later ones read only `changed`, the signals whose value
    /// may differ from the previous delta — duplicates and unchanged
    /// entries are harmless, omissions are not.
    pub fn observe(&mut self, delta: u64, changed: &[usize], mut get: impl FnMut(usize) -> Value) {
        if self.observed == 0 {
            for (i, v) in self.last.iter_mut().enumerate() {
                *v = get(i);
            }
        } else {
            for &i in changed {
                self.last[i] = get(i);
                self.lane.changed(i, 1);
            }
        }
        self.lane.observe(delta, 1, |i| &self.last[i]);
        self.observed = delta + 1;
    }

    /// Finalizes the verdict. If the run was shorter than the golden
    /// table, the frozen final values are compared against the remaining
    /// golden rows (invariants need no extension — the frozen row was
    /// already checked at its last delta); a run that observed nothing
    /// meets them with the all-`DISC` row.
    pub fn finish(&mut self) -> CheckReport {
        let mut reports = self.lane.finish(&[self.observed], |i| &self.last[i]);
        reports.swap_remove(0)
    }
}

/// The checking rules, for every lane of a walk at once: the compiled
/// walk's checkers, and (one lane over a value row) [`CheckEval`]. The
/// walk notes each delta's changed program signals as lane masks; the
/// golden monitor then compares one [`Word`] per changed signal against
/// the golden row, and an invariant is evaluated only in the lanes where
/// one of its operands changed. Every lane's current values are the
/// walk's own, so nothing is copied per lane.
#[derive(Debug)]
pub(crate) struct LaneChecks<'p> {
    program: &'p CheckProgram,
    index: &'p CheckIndex,
    /// Per program signal, the lanes it changed in since the last
    /// observation.
    changed: Vec<u64>,
    /// The program signals with a nonzero `changed` mask.
    touched: Vec<usize>,
    /// The candidate invariants of one observation.
    candidates: Vec<usize>,
    monitor: Vec<Option<MonitorViolation>>,
    invariant: Vec<Option<InvariantViolation>>,
    /// The lanes whose monitor, resp. invariant, family has latched.
    monitor_hit: u64,
    invariant_hit: u64,
}

impl<'p> LaneChecks<'p> {
    /// Fresh checkers for `lanes` lanes of `program`.
    pub(crate) fn new(program: &'p CheckProgram, index: &'p CheckIndex, lanes: usize) -> Self {
        LaneChecks {
            program,
            index,
            changed: vec![0; program.width()],
            touched: Vec::new(),
            candidates: Vec::new(),
            monitor: vec![None; lanes],
            invariant: vec![None; lanes],
            monitor_hit: 0,
            invariant_hit: 0,
        }
    }

    /// Notes that program signal `i` changed in the lanes of `lanes`.
    #[inline]
    pub(crate) fn changed(&mut self, i: usize, lanes: u64) {
        if lanes != 0 {
            if self.changed[i] == 0 {
                self.touched.push(i);
            }
            self.changed[i] |= lanes;
        }
    }

    /// The lanes in which every armed detector family has latched: a
    /// latched family is never re-checked, so they need no more
    /// observations.
    pub(crate) fn settled(&self) -> u64 {
        let monitor = if self.program.monitor.is_some() {
            self.monitor_hit
        } else {
            !0
        };
        let invariant = match self.program.invariants.is_empty() {
            true => !0,
            false => self.invariant_hit,
        };
        monitor & invariant
    }

    /// Observes the end-of-delta values of delta `delta` (consecutive
    /// from 0) in the lanes of `lanes`; `word(i)` holds program signal
    /// `i`. The first observation reads every signal, later ones the
    /// signals noted as changed.
    pub(crate) fn observe<'v, W: Word + 'v>(
        &mut self,
        delta: u64,
        lanes: u64,
        word: impl Fn(usize) -> &'v W,
    ) {
        self.check(delta, lanes, &word, true);
    }

    /// Checks delta `delta` in the lanes of `lanes` (the invariants only
    /// when `invariants` is set), then forgets the noted changes.
    fn check<'v, W: Word + 'v>(
        &mut self,
        delta: u64,
        lanes: u64,
        word: &impl Fn(usize) -> &'v W,
        invariants: bool,
    ) {
        if delta == 0 {
            for i in 0..self.program.width() {
                self.changed(i, lanes);
            }
        }
        self.touched.sort_unstable();
        self.check_monitor(delta, lanes, word);
        if invariants {
            self.check_invariants(delta, lanes, word);
        }
        for &i in &self.touched {
            self.changed[i] = 0;
        }
        self.touched.clear();
    }

    /// Latches, in each open lane of `lanes`, the lowest-indexed signal
    /// diverging from the golden row at `delta` among those it changed
    /// and those the golden table changed — every other signal matched
    /// at the previous delta and still does.
    fn check_monitor<'v, W: Word + 'v>(
        &mut self,
        delta: u64,
        lanes: u64,
        word: &impl Fn(usize) -> &'v W,
    ) {
        let Some(table) = &self.program.monitor else {
            return;
        };
        let mut open = lanes & !self.monitor_hit;
        let row = table.row(self.program.width(), delta);
        let golden = self.index.golden_changes(delta);
        // Both lists ascend: merge them, a golden change in every lane.
        let (mut t, mut g) = (0, 0);
        while open != 0 && (t < self.touched.len() || g < golden.len()) {
            let (i, lanes) = match (self.touched.get(t), golden.get(g)) {
                (Some(&a), Some(&b)) if a == b => {
                    (t, g) = (t + 1, g + 1);
                    (a, !0)
                }
                (Some(&a), Some(&b)) if a < b => {
                    t += 1;
                    (a, self.changed[a])
                }
                (Some(&a), None) => {
                    t += 1;
                    (a, self.changed[a])
                }
                (_, Some(&b)) => {
                    g += 1;
                    (b, !0)
                }
                (None, None) => unreachable!("loop condition"),
            };
            let w = word(i);
            let diverged = open & lanes & w.diff(&W::splat(row[i]));
            for c in bits(diverged) {
                self.monitor[c] = Some(MonitorViolation {
                    signal: self.program.signals[i].name.clone(),
                    kind: self.program.signals[i].kind,
                    delta,
                    expected: row[i],
                    got: w.get(c),
                });
            }
            open &= !diverged;
            self.monitor_hit |= diverged;
        }
    }

    /// Latches, in each open lane of `lanes`, the lowest-indexed
    /// invariant violated over a signal the lane changed — every other
    /// invariant holds as it did at the previous delta.
    fn check_invariants<'v, W: Word + 'v>(
        &mut self,
        delta: u64,
        lanes: u64,
        word: &impl Fn(usize) -> &'v W,
    ) {
        let mut open = lanes & !self.invariant_hit;
        if open == 0 || self.program.invariants.is_empty() {
            return;
        }
        self.candidates.clear();
        for &i in &self.touched {
            self.candidates.extend_from_slice(&self.index.invariants[i]);
        }
        self.candidates.sort_unstable();
        self.candidates.dedup();
        for &k in &self.candidates {
            let inv = &self.program.invariants[k];
            let (a, b) = inv.operands();
            for c in bits(open & (self.changed[a] | self.changed[b])) {
                if let Some((sig, got)) = inv.violated(|j| word(j).get(c)) {
                    self.invariant[c] = Some(InvariantViolation {
                        rule: inv.render(&self.program.signals),
                        signal: self.program.signals[sig].name.clone(),
                        delta,
                        got,
                    });
                    open &= !(1 << c);
                    self.invariant_hit |= 1 << c;
                }
            }
            if open == 0 {
                break;
            }
        }
    }

    /// The verdict of every lane, lane `c` having observed `observed[c]`
    /// deltas: a lane shorter than the golden table is compared, with its
    /// frozen final values, against the rows it did not reach (one that
    /// observed nothing from delta 0, with every signal). Invariants need
    /// no extension: the frozen row was checked at its last delta.
    pub(crate) fn finish<'v, W: Word + 'v>(
        &mut self,
        observed: &[u64],
        word: impl Fn(usize) -> &'v W,
    ) -> Vec<CheckReport> {
        if let Some(deltas) = self.program.monitor.as_ref().map(|t| t.deltas) {
            let from = observed.iter().copied().min();
            for d in from.unwrap_or(deltas)..deltas {
                let frozen = (observed.iter().enumerate())
                    .filter(|&(_, &o)| o <= d)
                    .fold(0, |m, (c, _)| m | 1 << c);
                self.check(d, frozen, &word, false);
            }
        }
        let reports = self.monitor.iter().zip(&self.invariant);
        reports
            .map(|(monitor, invariant)| CheckReport {
                monitor: monitor.clone(),
                invariant: invariant.clone(),
            })
            .collect()
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

impl ObservedRun {
    /// Replays the commit log: `visit(delta, changed, values)` once per
    /// executed delta, with the indices the delta changed and every
    /// observed signal's end-of-delta value.
    fn replay(&self, mut visit: impl FnMut(u64, &[usize], &[Value])) {
        let mut cur = self.inits.clone();
        let mut changed = Vec::new();
        let mut log = self.log.iter().peekable();
        for d in 0..self.deltas {
            changed.clear();
            while let Some(&(_, i, v)) = log.next_if(|&&(delta, ..)| delta == d) {
                cur[i] = v;
                changed.push(i);
            }
            visit(d, &changed, &cur);
        }
    }
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
    let mut values = Vec::with_capacity(run.deltas as usize * signals.len());
    run.replay(|_, _, cur| values.extend_from_slice(cur));
    Ok(MonitorTable {
        deltas: run.deltas,
        values,
    })
}

/// Runs `model` on `backend` with `program`'s checkers active, returning
/// the normal observable outcome plus the check verdict.
///
/// The interpreted engine feeds the evaluator from the kernel's commit
/// observation hook; the compiled engine feeds it from the same walk
/// that produces the outcome, at `options.opt`. Verdicts are
/// byte-identical.
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
            let index = CheckIndex::new(program);
            let mut eval = CheckEval::new(program, &index);
            // The commit log lists exactly each delta's changes.
            run.replay(|d, changed, cur| eval.observe(d, changed, |i| cur[i]));
            Ok((run.outcome, eval.finish()))
        }
        Backend::Compiled => {
            let plan = ExecPlan::lower(model);
            let checks = plan
                .resolve_checks(program)
                .map_err(CheckedError::Signals)?;
            let (outcome, report) =
                Stream::solo(&plan, options.opt.config()).execute(&plan, options, Some(&checks))?;
            Ok((outcome, report.unwrap_or_default()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::OptLevel;
    use crate::model::fig1_model;

    /// Every engine configuration a checked run can take: the kernel, and
    /// the compiled walk at every level, each traced and untraced.
    fn configurations() -> Vec<(Backend, ExecOptions)> {
        let mut runs = Vec::new();
        for options in [ExecOptions::default(), ExecOptions::traced()] {
            runs.push((Backend::Interpreted, options));
            for level in OptLevel::ALL {
                runs.push((Backend::Compiled, options.at_opt(level)));
            }
        }
        runs
    }

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
        let kernel = Backend::Interpreted
            .execute(&model, &ExecOptions::traced())
            .expect("runs");
        for (backend, options) in configurations() {
            let (outcome, report) =
                execute_checked(&model, backend, &options, &program).expect("runs");
            assert_eq!(outcome.summary.register("R1"), Some(Value::Num(7)));
            assert_eq!(outcome.summary.stats, kernel.summary.stats, "{options:?}");
            if options.trace {
                assert_eq!(outcome.vcd(), kernel.vcd(), "{backend} {options:?}");
            }
            assert!(report.is_clean(), "{backend} {options:?}: {report:?}");
        }
    }

    #[test]
    fn corrupted_init_diverges_at_initialization_identically() {
        let (_, program) = fig1_program(true);
        let mutant = fig1_model(5, 4);
        let mut reports = Vec::new();
        for (backend, options) in configurations() {
            let (_, report) = execute_checked(&mutant, backend, &options, &program).expect("runs");
            let v = report.monitor.clone().expect("diverges");
            assert_eq!(v.signal, "R1");
            assert_eq!(v.delta, 0);
            assert_eq!(v.expected, Value::Num(3));
            assert_eq!(v.got, Value::Num(5));
            assert!(v.to_string().contains("at initialization"), "{v}");
            reports.push(report);
        }
        assert!(reports.iter().all(|r| *r == reports[0]), "{reports:?}");
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
        for (backend, options) in configurations() {
            let (_, report) = execute_checked(&model, backend, &options, &program).expect("runs");
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
        let index = CheckIndex::new(&program);
        let mut eval = CheckEval::new(&program, &index);
        eval.observe(0, &[], |_| Value::Num(1));
        let report = eval.finish();
        let v = report.monitor.expect("frozen value diverges at delta 1");
        assert_eq!(v.delta, 1);
        assert_eq!(v.expected, Value::Num(2));
        assert_eq!(v.got, Value::Num(1));
        // A run that observed nothing meets the table with `DISC`.
        let v = CheckEval::new(&program, &index).finish().monitor;
        let v = v.expect("DISC diverges at delta 0");
        assert_eq!((v.delta, v.got), (0, Value::Disc));
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

    /// The full-row scan reference: every delta compares the whole row
    /// against the golden table and evaluates every invariant in order,
    /// then a short run's frozen row meets the remaining golden rows.
    fn full_scan(program: &CheckProgram, rows: &[Vec<Value>]) -> CheckReport {
        let w = program.width();
        let mut monitor: Option<MonitorViolation> = None;
        let mut invariant: Option<InvariantViolation> = None;
        let mut last = vec![Value::Disc; w];
        let scan = |d: u64, last: &[Value], monitor: &mut Option<MonitorViolation>| {
            let Some(table) = &program.monitor else {
                return;
            };
            let row = table.row(w, d);
            if monitor.is_none() {
                *monitor = (0..w)
                    .find(|&i| last[i] != row[i])
                    .map(|i| MonitorViolation {
                        signal: program.signals[i].name.clone(),
                        kind: program.signals[i].kind,
                        delta: d,
                        expected: row[i],
                        got: last[i],
                    });
            }
        };
        for (d, row) in rows.iter().enumerate() {
            last.clone_from(row);
            scan(d as u64, &last, &mut monitor);
            if invariant.is_none() {
                invariant = program.invariants.iter().find_map(|inv| {
                    inv.violated(|i| last[i])
                        .map(|(sig, got)| InvariantViolation {
                            rule: inv.render(&program.signals),
                            signal: program.signals[sig].name.clone(),
                            delta: d as u64,
                            got,
                        })
                });
            }
        }
        if let Some(table) = &program.monitor {
            for d in rows.len() as u64..table.deltas {
                scan(d, &last, &mut monitor);
            }
        }
        CheckReport { monitor, invariant }
    }

    /// Random programs — a golden table plus every invariant kind — and
    /// random runs shorter than, as long as and longer than the table,
    /// fed with changed lists padded by duplicates and unchanged extras:
    /// the event-driven evaluator reports exactly what the full scan
    /// does.
    #[test]
    fn event_driven_checks_equal_the_full_scan() {
        use Value::*;
        let palette = [
            Disc,
            Illegal,
            Num(0),
            Num(1),
            Num(2),
            Num(3),
            Num(-2),
            Num(i64::MAX),
        ];
        let mut rng = 0xc4ec_u64;
        let mut next = move |n: u64| crate::splitmix64(&mut rng) % n.max(1);
        let (mut shorter, mut equal, mut longer, mut fired) = (0, 0, 0, 0);
        for trial in 0..3000 {
            let width = 1 + next(6) as usize;
            let signals: Vec<CheckSignal> = (0..width)
                .map(|i| CheckSignal {
                    name: format!("S{i}"),
                    kind: [
                        SignalKind::Register,
                        SignalKind::MemoryWord,
                        SignalKind::Bus,
                    ][next(3) as usize],
                })
                .collect();
            // Golden rows: a random walk over a small palette.
            let deltas = 1 + next(10);
            let mut golden: Vec<Vec<Value>> = Vec::new();
            let mut row: Vec<Value> = (0..width).map(|_| palette[next(8) as usize]).collect();
            for _ in 0..deltas {
                for v in row.iter_mut() {
                    if next(4) == 0 {
                        *v = palette[next(8) as usize];
                    }
                }
                golden.push(row.clone());
            }
            let mut invariants = Vec::new();
            for _ in 0..next(7) {
                let (a, b) = (next(width as u64) as usize, next(width as u64) as usize);
                let lo = next(4) as i64 - 1;
                invariants.push(match next(5) {
                    0 => Invariant::Range {
                        sig: a,
                        min: lo,
                        max: lo + next(4) as i64,
                    },
                    1 => {
                        let mut values: Vec<i64> =
                            (0..1 + next(3)).map(|_| next(4) as i64).collect();
                        values.sort_unstable();
                        values.dedup();
                        Invariant::Reachable { sig: a, values }
                    }
                    2 => Invariant::Eq { a, b },
                    3 => Invariant::Le { a, b },
                    _ => Invariant::Offset {
                        a,
                        b,
                        delta: next(3) as i64 - 1,
                    },
                });
            }
            let program = CheckProgram {
                signals,
                monitor: (next(4) != 0).then(|| MonitorTable {
                    deltas,
                    values: golden.concat(),
                }),
                invariants,
            };
            // The run: the golden rows (clamped past the end) with rare
            // random divergences.
            let len = match next(3) {
                0 if deltas > 1 => {
                    shorter += 1;
                    1 + next(deltas - 1)
                }
                2 => {
                    longer += 1;
                    deltas + 1 + next(4)
                }
                _ => {
                    equal += 1;
                    deltas
                }
            };
            let mut rows: Vec<Vec<Value>> = Vec::new();
            let mut cur = golden[0].clone();
            for d in 0..len {
                let g = &golden[(d.min(deltas - 1)) as usize];
                for i in 0..width {
                    if next(3) == 0 {
                        cur[i] = g[i];
                    }
                    if next(12) == 0 {
                        cur[i] = palette[next(8) as usize];
                    }
                }
                rows.push(cur.clone());
            }

            let index = CheckIndex::new(&program);
            let mut eval = CheckEval::new(&program, &index);
            // The compiled walk's checkers, fed the same changes as one
            // lane and, as the walk does, only until they settle.
            let mut lane = LaneChecks::new(&program, &index, 1);
            for (d, row) in rows.iter().enumerate() {
                let mut changed: Vec<usize> = (0..width)
                    .filter(|&i| d == 0 || rows[d - 1][i] != row[i])
                    .collect();
                for _ in 0..next(3) {
                    changed.push(changed.get(next(4) as usize).copied().unwrap_or(0));
                    changed.push(next(width as u64) as usize);
                }
                for i in (1..changed.len()).rev() {
                    changed.swap(i, next(i as u64 + 1) as usize);
                }
                eval.observe(d as u64, &changed, |i| row[i]);
                if lane.settled() & 1 == 0 {
                    for &i in &changed {
                        lane.changed(i, 1);
                    }
                    lane.observe(d as u64, 1, |i| &row[i]);
                }
            }
            let report = eval.finish();
            assert_eq!(
                report,
                full_scan(&program, &rows),
                "trial {trial}: {program:?} {rows:?}"
            );
            let last = rows.last().expect("a run observes at least one delta");
            let lane = lane.finish(&[rows.len() as u64], |i| &last[i]);
            assert_eq!(
                lane,
                std::slice::from_ref(&report),
                "trial {trial}: lane checkers"
            );
            fired += usize::from(!report.is_clean());
        }
        assert!(
            shorter > 500 && equal > 500 && longer > 500,
            "{shorter}/{equal}/{longer}"
        );
        assert!(fired > 1000, "only {fired} runs tripped a checker");
    }
}
