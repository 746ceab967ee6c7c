//! Value-checking programs: golden-run monitors and mined functional
//! invariants, evaluated identically by every execution engine.
//!
//! The resolution function only detects faults that collide on a
//! resolved signal — value corruption that never double-drives anything
//! stays silent. A [`CheckProgram`] closes that gap with two detector
//! families layered *outside* the model's semantics:
//!
//! * a **golden monitor** ([`MonitorTable`]): the clean run's
//!   trajectory, its first row plus a log of what changed; any
//!   divergence in a mutant is flagged at its first `(step, phase,
//!   signal)`;
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
//! // A fig. 1 run quiesces after 1 + 6×7 deltas.
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
use crate::tuples::CmpOp;
use crate::value::Value;
use crate::word::{bits, Operand, Word};

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

/// The golden run's trajectory over the program's signals: the row at the
/// end of delta 0, then a log of the changes after it, ordered by
/// `(delta, signal)`. Each entry is a value its signal did not hold at the
/// end of the delta before, so a delta that changes nothing takes no
/// space. A quiesced run holds its final values forever.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorTable {
    /// How many delta cycles the golden run took.
    pub deltas: u64,
    /// Every signal's value at the end of delta 0.
    initial: Vec<Value>,
    /// `(delta, signal, value)` changes after delta 0.
    changes: Vec<(u64, usize, Value)>,
}

impl MonitorTable {
    /// The table of a `deltas`-delta run whose signals start at `initial`
    /// and move by `events`, raw `(delta, signal, value)` commits in run
    /// order within each delta. Delta-0 events fold into the initial row,
    /// a signal's last value in a delta stands for the delta, and a value
    /// the signal already held at the end of the delta before is dropped.
    pub fn from_events(
        deltas: u64,
        mut initial: Vec<Value>,
        events: impl IntoIterator<Item = (u64, usize, Value)>,
    ) -> MonitorTable {
        let mut changes: Vec<_> = events.into_iter().collect();
        // Stable: a signal's events in one delta keep their run order.
        changes.sort_by_key(|&(d, i, _)| (d, i));
        changes.dedup_by(|later, kept| {
            let same = (later.0, later.1) == (kept.0, kept.1);
            kept.2 = if same { later.2 } else { kept.2 };
            same
        });
        let split = changes.partition_point(|c| c.0 == 0);
        changes.drain(..split).for_each(|(_, i, v)| initial[i] = v);
        let mut row = initial.clone();
        changes.retain(|&(_, i, v)| std::mem::replace(&mut row[i], v) != v);
        MonitorTable {
            deltas,
            initial,
            changes,
        }
    }

    /// Visits the trajectory at its change points: delta 0 with every
    /// signal, then each delta that changes one, with the signals it
    /// changed (ascending) and the row at the end of that delta. The
    /// deltas between two visits hold the earlier visit's row.
    pub fn replay(&self, mut visit: impl FnMut(u64, &[usize], &[Value])) {
        if self.deltas == 0 {
            return;
        }
        let mut row = self.initial.clone();
        let mut changed: Vec<usize> = (0..row.len()).collect();
        visit(0, &changed, &row);
        for delta in self.changes.chunk_by(|a, b| a.0 == b.0) {
            delta.iter().for_each(|&(_, i, v)| row[i] = v);
            changed.clear();
            changed.extend(delta.iter().map(|c| c.1));
            visit(delta[0].0, &changed, &row);
        }
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
                let set: Vec<String> = values.iter().map(i64::to_string).collect();
                format!("{} in {{{}}}", name(*sig), set.join(", "))
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

    /// The lanes of `mask` in which the invariant is violated, signal `i`
    /// holding `word(i)`: one evaluation for every lane of the word. A
    /// violation is attributed to [`site`](Self::site), with the value
    /// it holds in the lane.
    fn violated<'v, W: Word + 'v>(&self, mask: u64, word: impl Fn(usize) -> &'v W) -> u64 {
        let (a, b) = self.operands();
        let (x, y) = (Operand::Word(word(a)), Operand::Word(word(b)));
        let holds = match self {
            Invariant::Range { min, max, .. } => W::holds(x, x, |v, _| *min <= v && v <= *max),
            Invariant::Reachable { values, .. } => {
                W::holds(x, x, |v, _| values.binary_search(&v).is_ok())
            }
            Invariant::Eq { .. } => !word(a).diff(word(b)),
            Invariant::Le { .. } => W::compare(CmpOp::Le, x, y),
            Invariant::Offset { delta, .. } => W::holds(x, y, |x, y| x.wrapping_sub(y) == *delta),
        };
        mask & !holds
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

/// The lookup that lets [`CheckEval`] re-check only the invariants over
/// what a delta changed, where alone they can first fail; built once per
/// program (once per campaign) by [`CheckIndex::new`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckIndex {
    /// The invariants reading each signal, ascending.
    invariants: Vec<Vec<usize>>,
}

impl CheckIndex {
    /// Indexes `program`: signal → invariants.
    pub fn new(program: &CheckProgram) -> CheckIndex {
        let mut invariants = vec![Vec::new(); program.width()];
        for (k, inv) in program.invariants.iter().enumerate() {
            let (a, b) = inv.operands();
            invariants[a].push(k);
            if b != a {
                invariants[b].push(k);
            }
        }
        CheckIndex { invariants }
    }
}

/// The checking state machine. Feed it the executed delta cycles in
/// order via [`observe`](Self::observe) — delta 0 and every delta that
/// changed a signal; a delta left out changed nothing — then call
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
    /// One past the last observed delta.
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

    /// Observes the end-of-delta values of delta cycle `delta` (deltas
    /// ascending, starting at 0). `get(i)` is the value of
    /// `program.signals[i]`. The first observation reads every signal;
    /// later ones read only `changed`, the signals whose value may differ
    /// from the previously observed delta — duplicates and unchanged
    /// entries are harmless, omissions are not.
    pub fn observe(&mut self, delta: u64, changed: &[usize], mut get: impl FnMut(usize) -> Value) {
        if self.observed == 0 {
            for (i, v) in self.last.iter_mut().enumerate() {
                *v = get(i);
            }
        } else {
            // The run held its row through the deltas left out: only
            // where the golden row moved is there anything to check.
            while let Some(d) = self.lane.next_golden_change().filter(|&d| d < delta) {
                self.lane.observe(d, 1, |i| &self.last[i]);
            }
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
    /// golden changes (invariants need no extension — the frozen row was
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
    /// The golden row at the end of the delta last checked, the first
    /// change of the monitor table's log not yet applied to it, and the
    /// signals its last move changed (ascending).
    golden: Vec<Value>,
    next: usize,
    moved: Vec<usize>,
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
            golden: program
                .monitor
                .as_ref()
                .map_or(Vec::new(), |t| t.initial.clone()),
            next: 0,
            moved: Vec::new(),
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

    /// The delta of the golden row's next change.
    fn next_golden_change(&self) -> Option<u64> {
        Some(self.program.monitor.as_ref()?.changes.get(self.next)?.0)
    }

    /// Moves the golden row to the end of the delta before `end`.
    fn golden_before(&mut self, end: u64) {
        self.moved.clear();
        let changes = self
            .program
            .monitor
            .as_ref()
            .map_or(&[][..], |t| &t.changes);
        while let Some(&(_, i, v)) = changes.get(self.next).filter(|c| c.0 < end) {
            (self.golden[i], self.next) = (v, self.next + 1);
            self.moved.push(i);
        }
    }

    /// Observes the end-of-delta values of delta `delta` (ascending from
    /// 0, leaving out only deltas where neither a lane nor the golden row
    /// changes) in the lanes of `lanes`; `word(i)` holds program signal
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
        if self.program.monitor.is_none() {
            return;
        }
        self.golden_before(delta + 1);
        let (row, golden) = (&self.golden, &self.moved);
        let mut open = lanes & !self.monitor_hit;
        // Both lists ascend: merge them, a golden change in every lane.
        let (mut t, mut g) = (0, 0);
        while open != 0 && (t < self.touched.len() || g < golden.len()) {
            let (i, lanes) = match (self.touched.get(t), golden.get(g)) {
                (Some(&a), Some(&b)) if a == b => {
                    (t, g) = (t + 1, g + 1);
                    (a, !0)
                }
                (Some(&a), b) if b.is_none_or(|&b| a < b) => {
                    t += 1;
                    (a, self.changed[a])
                }
                (_, Some(&b)) => {
                    g += 1;
                    (b, !0)
                }
                (Some(_), None) | (None, None) => unreachable!("guards and loop condition"),
            };
            let w = word(i);
            let diverged = open & lanes & w.differs(row[i]);
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
    /// invariant holds as it did at the previous delta. Each candidate is
    /// evaluated once for the whole word; only the lanes it violates are
    /// visited, to write their verdicts.
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
            let lanes = open & (self.changed[a] | self.changed[b]);
            if lanes == 0 {
                continue;
            }
            let violated = inv.violated(lanes, word);
            if violated == 0 {
                continue;
            }
            let (sig, signals) = (inv.site(), &self.program.signals);
            for c in bits(violated) {
                self.invariant[c] = Some(InvariantViolation {
                    rule: inv.render(signals),
                    signal: signals[sig].name.clone(),
                    delta,
                    got: word(sig).get(c),
                });
            }
            open &= !violated;
            self.invariant_hit |= violated;
            if open == 0 {
                break;
            }
        }
    }

    /// The verdict of every lane, lane `c` having observed `observed[c]`
    /// deltas: a lane shorter than the golden table is compared, with its
    /// frozen final values, against the golden changes it did not reach
    /// (one that observed nothing from delta 0, with every signal).
    /// Invariants need no extension: the frozen row was checked at its
    /// last delta.
    pub(crate) fn finish<'v, W: Word + 'v>(
        &mut self,
        observed: &[u64],
        word: impl Fn(usize) -> &'v W,
    ) -> Vec<CheckReport> {
        if let Some(table) = &self.program.monitor {
            let deltas = table.deltas;
            let mut d = observed.iter().copied().min().unwrap_or(deltas);
            // Restart the golden row, and move it to delta `d`.
            (self.golden, self.next) = (table.initial.clone(), 0);
            self.golden_before(d);
            while d < deltas {
                let frozen = (observed.iter().enumerate())
                    .filter(|&(_, &o)| o <= d)
                    .fold(0, |m, (c, _)| m | 1 << c);
                self.check(d, frozen, &word, false);
                // A frozen lane can next diverge where the golden row moves.
                d = self.next_golden_change().unwrap_or(deltas);
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

/// An interpreter run of `model` that records, from the kernel's commit
/// log, the trajectory of `signals`.
fn run_observed(
    model: &RtModel,
    signals: &[CheckSignal],
    options: &ExecOptions,
) -> Result<(ExecOutcome, MonitorTable), CheckedError> {
    let elaborate = ElaborateOptions {
        trace: options.trace,
        ..Default::default()
    };
    let mut sim = RtSimulation::with_options(model, elaborate)?;
    let ids = resolve_kernel_ids(&sim, signals).map_err(CheckedError::Signals)?;
    let inits: Vec<Value> = ids.iter().map(|id| *sim.kernel().value(*id)).collect();
    sim.kernel_mut().observe_commits(&ids);
    let summary = sim.run_with(options)?;
    // Kernel signal → program index (the first, when a signal is listed
    // twice).
    let mut program_index =
        vec![usize::MAX; ids.iter().map(|id| id.index() + 1).max().unwrap_or(0)];
    for (i, id) in ids.iter().enumerate().rev() {
        program_index[id.index()] = i;
    }
    let log = (sim.kernel().commit_log().iter())
        .map(|(delta, sid, value)| (*delta, program_index[sid.index()], *value));
    let table = MonitorTable::from_events(summary.stats.delta_cycles, inits, log);
    let waveform = sim.into_waveform();
    Ok((ExecOutcome { summary, waveform }, table))
}

/// Records the trajectory of a clean interpreter run of `model` over
/// `signals` — the golden monitor table, and the data the invariant miner
/// learns from. Both backends produce byte-identical per-delta values, so
/// one canonical recording serves either engine.
///
/// # Errors
///
/// [`CheckedError::Signals`] for unknown signals, or the run's own
/// kernel error.
pub fn record_table(
    model: &RtModel,
    signals: &[CheckSignal],
) -> Result<MonitorTable, CheckedError> {
    run_observed(model, signals, &ExecOptions::default()).map(|(_, table)| table)
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
            let (outcome, run) = run_observed(model, &program.signals, options)?;
            let index = CheckIndex::new(program);
            let mut eval = CheckEval::new(program, &index);
            run.replay(|d, changed, row| eval.observe(d, changed, |i| row[i]));
            Ok((outcome, eval.finish()))
        }
        Backend::Compiled => {
            let plan = ExecPlan::lower(model);
            let checks = plan
                .resolve_checks(program)
                .map_err(CheckedError::Signals)?;
            plan.check_delta_limit(options)?;
            let (outcome, report) =
                Stream::solo(&plan, options.opt.config()).execute(&plan, options, Some(&checks))?;
            Ok((outcome, report.unwrap_or_default()))
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::backend::OptLevel;
    use crate::model::fig1_model;

    /// The table's row at every delta, expanded from its change points.
    pub(crate) fn dense_rows(table: &MonitorTable) -> Vec<Vec<Value>> {
        let mut rows: Vec<Vec<Value>> = Vec::new();
        let hold = |rows: &mut Vec<Vec<Value>>, upto: u64| {
            while (rows.len() as u64) < upto {
                rows.push(rows.last().expect("delta 0 comes first").clone());
            }
        };
        table.replay(|d, _, row| {
            hold(&mut rows, d);
            rows.push(row.to_vec());
        });
        hold(&mut rows, table.deltas);
        rows
    }

    /// The table whose row at delta `d` is `rows[d]`.
    fn table_of(rows: &[Vec<Value>]) -> MonitorTable {
        let width = rows.first().map_or(0, Vec::len);
        let events = (rows.iter().enumerate())
            .flat_map(|(d, row)| row.iter().enumerate().map(move |(i, &v)| (d as u64, i, v)));
        MonitorTable::from_events(rows.len() as u64, vec![Value::Disc; width], events)
    }

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
        assert_eq!(table.deltas, 43);
        // Delta 0: initial values.
        assert_eq!(table.initial[..2], [Value::Num(3), Value::Num(4)]);
        // Seven changes: the buses' drives and releases, R1's commit of 7.
        assert_eq!(table.changes.len(), 7);
        assert_eq!(dense_rows(table)[42][0], Value::Num(7));
        // The golden row holds the final values past the table's end.
        let index = CheckIndex::new(&program);
        let mut lane = LaneChecks::new(&program, &index, 1);
        lane.golden_before(99);
        assert_eq!(lane.golden[0], Value::Num(7));
        assert_eq!(lane.next_golden_change(), None);
    }

    /// The constructor's normal form: delta-0 events fold into the
    /// initial row, a signal's last value in a delta stands, a value its
    /// signal already held is dropped, and the log ascends by
    /// `(delta, signal)` whatever order the deltas came in.
    #[test]
    fn events_normalize_into_a_sorted_change_log() {
        use Value::Num;
        let events = [
            (2, 2, Num(9)),
            (0, 0, Num(6)),
            (1, 1, Num(5)),
            (0, 0, Num(7)),
            (2, 0, Num(4)),
            (1, 1, Num(2)),
            (2, 0, Num(5)),
            (3, 1, Num(8)),
            (4, 2, Num(9)),
            (3, 1, Num(6)),
        ];
        let table = MonitorTable::from_events(5, vec![Num(1), Num(2), Num(3)], events);
        assert_eq!(table.initial, [Num(7), Num(2), Num(3)]);
        let log = [(2, 0, Num(5)), (2, 2, Num(9)), (3, 1, Num(6))];
        assert_eq!(table.changes, log);
        let mut visits = Vec::new();
        table.replay(|d, changed, row| visits.push((d, changed.to_vec(), row.to_vec())));
        assert_eq!(
            visits,
            [
                (0, vec![0, 1, 2], vec![Num(7), Num(2), Num(3)]),
                (2, vec![0, 2], vec![Num(5), Num(2), Num(9)]),
                (3, vec![1], vec![Num(5), Num(6), Num(9)]),
            ]
        );
        assert_eq!(dense_rows(&table).len(), 5);
    }

    /// A model that transfers nothing changes nothing, however many steps
    /// it runs: both recorders log no change, so its table is its
    /// initial row.
    #[test]
    fn an_idle_run_records_no_change_on_either_recorder() {
        let mut text = String::from("model idle steps 200000\n");
        for i in 0..20 {
            text.push_str(&format!("register R{i} init {i}\n"));
        }
        let model = crate::text::parse_model(&text).expect("parses");
        let signals = check_signals(&model);
        let kernel = record_table(&model, &signals).expect("records");
        assert_eq!((kernel.deltas, kernel.changes.len()), (1 + 6 * 200_000, 0));
        let plan = ExecPlan::lower(&model);
        for level in OptLevel::ALL {
            let options = ExecOptions::default().at_opt(level);
            let (_, walk) = plan.execute_recorded(&signals, &options).expect("walks");
            assert_eq!(walk, kernel, "-O{level}");
        }
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
            monitor: Some(table_of(&[vec![Value::Num(1)], vec![Value::Num(2)]])),
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

    /// The scalar rule, the reference the word-level evaluation is held
    /// to: the invariant over the value row that `row(i)` reads, and on
    /// violation the attributed signal and its value.
    fn scalar_violated(inv: &Invariant, row: impl Fn(usize) -> Value) -> Option<(usize, Value)> {
        let broken = match inv {
            Invariant::Range { sig, min, max } => {
                !matches!(row(*sig), Value::Num(v) if *min <= v && v <= *max)
            }
            Invariant::Reachable { sig, values } => {
                !matches!(row(*sig), Value::Num(v) if values.binary_search(&v).is_ok())
            }
            Invariant::Eq { a, b } => row(*a) != row(*b),
            Invariant::Le { a, b } => {
                !matches!((row(*a), row(*b)), (Value::Num(x), Value::Num(y)) if x <= y)
            }
            Invariant::Offset { a, b, delta } => !matches!(
                (row(*a), row(*b)),
                (Value::Num(x), Value::Num(y)) if x.wrapping_sub(y) == *delta
            ),
        };
        broken.then(|| (inv.site(), row(inv.site())))
    }

    /// Random lane columns — numbers near zero and at the `i64` extremes,
    /// `DISC` and `ILLEGAL` lanes — under every invariant kind: the word
    /// evaluation flags, in the lanes of its mask, exactly the lanes the
    /// scalar rule finds violated, for columns and for a solo value.
    #[test]
    fn word_invariants_equal_the_scalar_rule_lane_by_lane() {
        use crate::plan::LANES;
        use crate::word::Col;
        let palette = [
            Value::Disc,
            Value::Illegal,
            Value::Num(0),
            Value::Num(1),
            Value::Num(2),
            Value::Num(-1),
            Value::Num(i64::MIN),
            Value::Num(i64::MAX),
            Value::Num(i64::MIN + 1),
        ];
        let mut rng = 0x1a_2e5_u64;
        let mut next = move |n: u64| crate::splitmix64(&mut rng) % n.max(1);
        let pick = |next: &mut dyn FnMut(u64) -> u64| match next(4) {
            0 => Value::Num(next(7) as i64 - 3),
            _ => palette[next(palette.len() as u64) as usize],
        };
        let (mut kinds, mut violated, mut held) = ([0; 5], 0, 0);
        for trial in 0..4000 {
            let width = 1 + next(4) as usize;
            let mut cols = vec![Col::splat(Value::Disc); width];
            for col in &mut cols {
                // Mostly one shared value per column, as in a fault chunk.
                let base = pick(&mut next);
                for c in 0..LANES {
                    col.set(c, if next(3) == 0 { pick(&mut next) } else { base });
                }
            }
            let (a, b) = (next(width as u64) as usize, next(width as u64) as usize);
            let anchor = |next: &mut dyn FnMut(u64) -> u64| match cols[a].get(next(64) as usize) {
                Value::Num(v) => v,
                _ => next(5) as i64 - 2,
            };
            let kind = next(5) as usize;
            let inv = match kind {
                0 => {
                    let lo = anchor(&mut next).saturating_sub(next(2) as i64);
                    let hi = lo.saturating_add(next(3) as i64);
                    Invariant::Range {
                        sig: a,
                        min: lo,
                        max: hi,
                    }
                }
                1 => {
                    let mut values: Vec<i64> =
                        (0..1 + next(4)).map(|_| anchor(&mut next)).collect();
                    values.sort_unstable();
                    values.dedup();
                    Invariant::Reachable { sig: a, values }
                }
                2 => Invariant::Eq { a, b },
                3 => Invariant::Le { a, b },
                _ => {
                    let c = next(64) as usize;
                    let delta = match (cols[a].get(c), cols[b].get(c)) {
                        (Value::Num(x), Value::Num(y)) => x.wrapping_sub(y),
                        _ => next(3) as i64 - 1,
                    };
                    Invariant::Offset { a, b, delta }
                }
            };
            kinds[kind] += 1;
            let mask = match next(3) {
                0 => !0,
                _ => crate::splitmix64(&mut (trial as u64)),
            };
            let word = inv.violated(mask, |i| &cols[i]);
            for c in 0..LANES {
                let scalar = scalar_violated(&inv, |i| cols[i].get(c));
                let want = mask >> c & 1 == 1 && scalar.is_some();
                assert_eq!(word >> c & 1 == 1, want, "trial {trial} lane {c}: {inv:?}");
                if let Some((sig, got)) = scalar {
                    assert_eq!((sig, got), (inv.site(), cols[inv.site()].get(c)));
                }
                let row: Vec<Value> = cols.iter().map(|col| col.get(c)).collect();
                let solo = inv.violated(1, |i| &row[i]);
                assert_eq!(solo == 1, scalar.is_some(), "trial {trial} solo lane {c}");
                *if want { &mut violated } else { &mut held } += 1;
            }
        }
        assert!(kinds.iter().all(|&k| k > 500), "{kinds:?}");
        assert!(violated > 20_000 && held > 20_000, "{violated}/{held}");
    }

    /// The full-row scan reference: every delta compares the whole row
    /// against the golden rows (the last one past their end) and
    /// evaluates every invariant in order, then a short run's frozen row
    /// meets the remaining golden rows.
    fn full_scan(
        program: &CheckProgram,
        golden: &[Vec<Value>],
        rows: &[Vec<Value>],
    ) -> CheckReport {
        let w = program.width();
        let mut monitor: Option<MonitorViolation> = None;
        let mut invariant: Option<InvariantViolation> = None;
        let mut last = vec![Value::Disc; w];
        let scan = |d: u64, last: &[Value], monitor: &mut Option<MonitorViolation>| {
            if program.monitor.is_none() {
                return;
            }
            let row = &golden[(d as usize).min(golden.len() - 1)];
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
                    scalar_violated(inv, |i| last[i]).map(|(sig, got)| InvariantViolation {
                        rule: inv.render(&program.signals),
                        signal: program.signals[sig].name.clone(),
                        delta: d as u64,
                        got,
                    })
                });
            }
        }
        for d in rows.len()..golden.len() {
            scan(d as u64, &last, &mut monitor);
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
                monitor: (next(4) != 0).then(|| table_of(&golden)),
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
            // A table replay's evaluator: delta 0, then only the deltas
            // that change a signal.
            let mut sparse = CheckEval::new(&program, &index);
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
                if d == 0 || rows[d - 1] != *row {
                    sparse.observe(d as u64, &changed, |i| row[i]);
                }
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
                full_scan(&program, &golden, &rows),
                "trial {trial}: {program:?} {rows:?}"
            );
            assert_eq!(sparse.finish(), report, "trial {trial}: change points");
            let last = rows.last().expect("a run observes at least one delta");
            // As in a chunk whose other lanes run on, the walk goes on
            // observing past this lane's end, in no lane.
            for d in rows.len()..rows.len() + next(4) as usize {
                lane.observe(d as u64, 0, |i| &last[i]);
            }
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
