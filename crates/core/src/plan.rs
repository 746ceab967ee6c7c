//! Lowering elaborated models to a compiled execution plan.
//!
//! The paper's six-phase discipline makes clock-free RT models *statically
//! schedulable*: every transfer process is active at exactly one
//! `(step, phase)` slot, the controller's trajectory is fixed, and a run
//! costs exactly `1 + CS_MAX × 6` delta cycles (plus one trailing flush
//! delta when the last step commits a register). The interpreted kernel
//! discovers that schedule dynamically through sensitivity lists and wake
//! filters; [`ExecPlan::lower`] instead resolves the model to dense
//! tables — signals, registers, modules, memories, guards — plus one
//! lowered spec per transfer process, pinned to its slot. [`crate::opt`]
//! places those specs in the kernel's order and emits the micro-op
//! stream that [`ExecPlan::execute`] walks in a fixed number of
//! iterations with no event machinery at all.
//!
//! The walk is *observationally identical* to the interpreted kernel:
//! same final registers, same trace events in the same order (hence the
//! same VCD, commit log and conflict diagnoses — step and phase included)
//! and the same [`SimStats`]. Counters the compiled engine has no dynamic
//! equivalent for (process activations, wake-filter hits and misses, peak
//! runnable) are derived from the specs in closed form; the rest
//! (events, driver updates, pending-update peaks) are counted during a
//! solo walk. `clockless-verify`'s `backend_equiv` asserts the byte-level
//! agreement over the whole corpus.
//!
//! Lowering costs time linear in the transfer specs, and placing them
//! costs time linear in the specs plus the ops emitted. Specs are
//! bucketed by step once, and the **live-commit rule** keeps dead
//! commits out of the stream: a register or memory commit is emitted at
//! `cr(s)` only when some spec of step `s` drives its input port. Any
//! other commit would read a `DISC` port and push nothing, so leaving it
//! out changes no observable at any optimization level.
//!
//! **Plan deltas** ([`PlanDelta`]) turn the golden plan into fault
//! mutants without re-lowering. [`ExecPlan::execute_batch`] applies up to
//! 64 of them at once as per-lane masks over the golden specs — a
//! spurious driver becomes two appended specs plus one shadow module —
//! and places the result by the same kernel-order rules (one placement
//! function, the stream compiler's), so the lanes go through the same
//! passes and the same loop as a solo run, over packed lane columns. A
//! lane counts nothing but its first `ILLEGAL`: its delta count and
//! process activations are closed forms of its schedule.
//!
//! Conflicts are found *dynamically*, as the paper describes: the
//! `ILLEGAL` events of a traced walk. The static prediction over a
//! model's tuples is `clockless-verify`'s `static_conflicts`, which
//! `clockless check` cross-checks against them.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use clockless_kernel::{KernelError, SignalId, SimStats, SimTime, Trace, DEFAULT_DELTA_LIMIT};

use crate::backend::{BatchOutcome, ExecOptions, ExecOutcome, OptConfig};
use crate::check::{
    CheckIndex, CheckProgram, CheckReport, CheckSignal, CheckedError, MonitorTable, SignalKind,
};
use crate::diag::{Conflict, ConflictSite};
use crate::elaborate::SignalRole;
use crate::model::RtModel;
use crate::op::Op;
use crate::opt::{Src, Stream, WalkState};
use crate::phase::{Phase, PhaseTime, Step};
use crate::resource::ModuleTiming;
use crate::run::{RunSummary, Waveform};
use crate::tuples::{CmpOp, Endpoint, Guard, GuardOperand, MemAddr};
use crate::value::Value;
use crate::word::{Col, Operand, Word};

/// A [`CheckProgram`] resolved against one plan's dense signal table —
/// the precomputed handle [`ExecPlan::execute_batch_checked`] consumes,
/// built once per campaign by [`ExecPlan::resolve_checks`]. It borrows
/// the program.
#[derive(Debug, Clone)]
pub struct PlanChecks<'p> {
    /// Dense signal index of each program signal, in program order.
    pub(crate) sigs: Vec<usize>,
    /// The program indices of each dense signal (usually none or one).
    pub(crate) watch: Vec<Vec<usize>>,
    /// The program itself.
    pub(crate) program: &'p CheckProgram,
    /// The program's event-driven lookups.
    pub(crate) index: CheckIndex,
}

/// One signal of the plan, mirroring the kernel's elaboration order. Its
/// role (and with it its name) lives in [`ExecPlan::roles`].
#[derive(Debug, Clone)]
pub(crate) struct PlanSignal {
    pub(crate) init: Value,
    /// Number of driver slots (process-attachment order, exactly as the
    /// kernel would attach them).
    pub(crate) drivers: usize,
    /// Whether the signal resolves colliding drivers (buses and ports).
    pub(crate) resolved: bool,
}

/// The process that reads a signal when it evaluates or commits: the
/// module whose operand port it is, or the register or memory whose
/// input port it is. The live-commit rule and dead-spur elimination key
/// on it. Registers order before memories, matching the `cr` phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Sink {
    /// A register input port.
    Reg(u32),
    /// A memory write-value port.
    Mem(u32),
    /// A module operand or operation-select port.
    Module(u32),
    /// Anything else (buses, outputs, words, control, write addresses).
    None,
}

/// One register: dense indices of its port signals.
#[derive(Debug, Clone)]
pub(crate) struct PlanReg {
    pub(crate) name: String,
    pub(crate) input: usize,
    pub(crate) output: usize,
}

/// One functional module: port indices plus operation/timing data.
#[derive(Debug, Clone)]
pub(crate) struct PlanModule {
    pub(crate) in1: usize,
    pub(crate) in2: usize,
    /// Operation-select port (multi-operation modules only).
    pub(crate) op: Option<usize>,
    pub(crate) out: usize,
    pub(crate) ops: Vec<Op>,
    pub(crate) timing: ModuleTiming,
}

/// One memory: dense indices of its port and word signals.
#[derive(Debug, Clone)]
pub(crate) struct PlanMem {
    /// Write-value port (resolved).
    pub(crate) win: usize,
    /// Write-address port (resolved).
    pub(crate) waddr: usize,
    /// Word signals, contiguous and in ascending address order.
    pub(crate) words: Vec<usize>,
}

/// One side of a lowered guard comparison.
#[derive(Debug, Clone, Copy)]
pub(crate) enum GuardSig {
    /// A register-output signal, read at evaluation time.
    Sig(usize),
    /// An integer literal.
    Const(i64),
}

/// A transfer guard lowered to dense signal indices. Mirrors
/// [`Guard::eval`]: the conjunction of clauses (a clause holds only over
/// two regular numbers), XOR-ed with the `not (…)` wrapper.
#[derive(Debug, Clone)]
pub(crate) struct PlanGuard {
    pub(crate) negated: bool,
    pub(crate) clauses: Vec<(GuardSig, CmpOp, GuardSig)>,
}

impl PlanGuard {
    /// The lanes of `mask` in which the guard holds, signal `i` holding
    /// `values[i]` (a guard over literals only reads no signal). Inlined:
    /// the walk evaluates it for every guarded push.
    #[inline(always)]
    pub(crate) fn eval<W: Word>(&self, values: &[W], mask: u64) -> u64 {
        let side = |s: GuardSig| match s {
            GuardSig::Sig(i) => Operand::Word(&values[i]),
            GuardSig::Const(v) => Operand::Const(v),
        };
        let mut conj = mask;
        for &(lhs, cmp, rhs) in &self.clauses {
            conj &= W::compare(cmp, side(lhs), side(rhs));
            if conj == 0 {
                break;
            }
        }
        match self.negated {
            true => mask & !conj,
            false => conj,
        }
    }
}

/// A transfer spec resolved to dense indices. Retained by the plan so
/// [`PlanDelta`]s can be expressed as spec-level edits (drop, re-step)
/// without re-lowering.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LoweredSpec {
    pub(crate) step: Step,
    pub(crate) phase: Phase,
    pub(crate) src: Src,
    pub(crate) dst: usize,
    pub(crate) slot: usize,
    pub(crate) guard: Option<u32>,
}

/// A spurious extra bus driver expressed at plan level: a lane chunk
/// appends it as a shadow combinational module (the same
/// `SPUR_<bus>_<step>` PassA module the legacy mutation adds) plus the
/// two specs its transfer tuple would lower to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PlanSpur {
    /// The shadow module's name (used in conflict diagnoses).
    name: String,
    /// The step in which the spurious driver asserts.
    step: Step,
    /// Dense index of the register-output signal the spur reads.
    src: usize,
    /// Dense index of the double-driven bus.
    bus: usize,
}

/// A small edit set turning the golden plan into one mutant: init-vector
/// overrides, suppressed specs, re-stepped specs, and at most one
/// spurious driver. Built by the `ExecPlan::delta_*` constructors and
/// consumed by [`ExecPlan::execute_batch`] — no model clone, no
/// re-elaboration.
///
/// Deltas compose observationally: the batched executor keeps the golden
/// driver-slot layout and merely masks edited specs per column, which is
/// sound because extra never-driven slots hold `DISC` and the resolution
/// function ignores them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanDelta {
    /// `(signal, value)` init overrides (stuck / corrupted-init faults).
    init_edits: Vec<(usize, Value)>,
    /// Spec indices removed from the schedule (dropped transfers).
    disabled_specs: Vec<usize>,
    /// `(spec, new_step)` re-schedules (skewed write-backs).
    moved_specs: Vec<(usize, Step)>,
    /// Spec indices whose guard is logically negated (guard-flip faults).
    flipped_specs: Vec<usize>,
    /// Spec indices whose guard is removed entirely (guard-force faults).
    forced_specs: Vec<usize>,
    /// Spurious extra bus driver (driver faults).
    spur: Option<PlanSpur>,
}

/// The compiled execution plan of one [`RtModel`].
///
/// Built by [`lower`](ExecPlan::lower); executed by
/// [`execute`](ExecPlan::execute), which places its specs in the exact
/// order in which the kernel's runnable set would perform them — so
/// driver updates (and therefore events, traces and conflict diagnoses)
/// come out byte-identical.
#[derive(Debug, Clone)]
pub struct ExecPlan {
    pub(crate) cs_max: Step,
    pub(crate) signals: Vec<PlanSignal>,
    /// Role of every signal, shared with the [`Waveform`] of every traced
    /// run of this plan.
    pub(crate) roles: Arc<[SignalRole]>,
    /// The reading process of every signal (see [`Sink`]).
    pub(crate) sinks: Vec<Sink>,
    pub(crate) regs: Vec<PlanReg>,
    pub(crate) modules: Vec<PlanModule>,
    pub(crate) mems: Vec<PlanMem>,
    /// Lowered transfer guards, indexed by [`LoweredSpec::guard`].
    pub(crate) guards: Vec<PlanGuard>,
    /// How many specs assert at `wb(CS_MAX)`. A trailing flush delta
    /// follows `cr(CS_MAX)` exactly when there is one: its commit and
    /// release are still pending after the last scheduled phase.
    pub(crate) last_writes: u64,
    /// Lowered transfer specs in attachment order, kept so plan deltas
    /// can edit them.
    pub(crate) specs: Vec<LoweredSpec>,
    /// `spec_tuple[i]` maps spec `i` back to its source tuple index.
    pub(crate) spec_tuple: Vec<usize>,
    /// Number of transfer tuples in the source model.
    pub(crate) tuple_count: usize,
    /// Analytic stats derived from the specs (see module docs).
    pub(crate) process_count: u64,
    pub(crate) activations: u64,
    pub(crate) wake_hits: u64,
    pub(crate) wake_misses: u64,
}

impl ExecPlan {
    /// Lowers a validated model into its compiled plan.
    ///
    /// Costs time linear in the transfer specs; nothing is placed until
    /// the plan is compiled (see the module docs).
    ///
    /// Panics if the model references undeclared resources — impossible
    /// for models built through [`RtModel`]'s validating API.
    pub fn lower(model: &RtModel) -> ExecPlan {
        let cs_max = model.cs_max();
        let mut signals: Vec<PlanSignal> = Vec::new();
        let mut roles: Vec<SignalRole> = Vec::new();
        let mut sinks: Vec<Sink> = Vec::new();
        let mut declare = |role: SignalRole, init: Value, resolved: bool, sink: Sink| -> usize {
            signals.push(PlanSignal {
                init,
                drivers: 0,
                resolved,
            });
            roles.push(role);
            sinks.push(sink);
            signals.len() - 1
        };

        // Signal order mirrors `elaborate` exactly: CS, PH, register
        // ports, buses, module ports.
        let cs = declare(SignalRole::ControlStep, Value::Num(0), false, Sink::None);
        let ph = declare(
            SignalRole::PhaseSignal,
            Value::Num(Phase::LAST.index() as i64),
            false,
            Sink::None,
        );

        let mut regs = Vec::new();
        for (i, r) in model.registers().iter().enumerate() {
            let input = declare(
                SignalRole::RegIn(r.name.clone()),
                Value::Disc,
                true,
                Sink::Reg(i as u32),
            );
            let output = declare(
                SignalRole::RegOut(r.name.clone()),
                r.init,
                false,
                Sink::None,
            );
            regs.push(PlanReg {
                name: r.name.clone(),
                input,
                output,
            });
        }

        let bus_sig: Vec<usize> = model
            .buses()
            .iter()
            .map(|b| {
                declare(
                    SignalRole::Bus(b.name.clone()),
                    Value::Disc,
                    true,
                    Sink::None,
                )
            })
            .collect();

        let mut modules = Vec::new();
        for (i, m) in model.modules().iter().enumerate() {
            let port = Sink::Module(i as u32);
            let in1 = declare(SignalRole::ModIn1(m.name.clone()), Value::Disc, true, port);
            let in2 = declare(SignalRole::ModIn2(m.name.clone()), Value::Disc, true, port);
            let op = m
                .needs_op_port()
                .then(|| declare(SignalRole::ModOp(m.name.clone()), Value::Disc, true, port));
            let out = declare(
                SignalRole::ModOut(m.name.clone()),
                Value::Disc,
                false,
                Sink::None,
            );
            modules.push(PlanModule {
                in1,
                in2,
                op,
                out,
                ops: m.ops.clone(),
                timing: m.timing,
            });
        }

        // Memory signals come last, exactly as in `elaborate`, so
        // memory-free models keep byte-identical signal indices.
        let mut mems = Vec::new();
        for (i, m) in model.memories().iter().enumerate() {
            let win = declare(
                SignalRole::MemWin(m.name.clone()),
                Value::Disc,
                true,
                Sink::Mem(i as u32),
            );
            let waddr = declare(
                SignalRole::MemWaddr(m.name.clone()),
                Value::Disc,
                true,
                Sink::None,
            );
            let words = (0..m.len)
                .map(|index| {
                    let role = SignalRole::MemWord {
                        mem: m.name.clone(),
                        index,
                    };
                    declare(role, m.init, false, Sink::None)
                })
                .collect();
            mems.push(PlanMem { win, waddr, words });
        }

        // Driver attachment in process-creation order, mirroring the
        // kernel: controller, register procs, module procs, memory-commit
        // procs, transfers.
        signals[cs].drivers = 1;
        signals[ph].drivers = 1;
        for r in &regs {
            signals[r.output].drivers += 1;
        }
        for m in &modules {
            signals[m.out].drivers += 1;
        }
        for m in &mems {
            for &w in &m.words {
                signals[w].drivers += 1;
            }
        }

        let index_of = |endpoint: &Endpoint| -> Option<usize> {
            match endpoint {
                Endpoint::RegOut(r) => model
                    .register_by_name(r)
                    .map(|id| regs[id.0 as usize].output),
                Endpoint::RegIn(r) => model
                    .register_by_name(r)
                    .map(|id| regs[id.0 as usize].input),
                Endpoint::Bus(b) => model.bus_by_name(b).map(|id| bus_sig[id.0 as usize]),
                Endpoint::ModIn1(m) => model.module_by_name(m).map(|id| modules[id.0 as usize].in1),
                Endpoint::ModIn2(m) => model.module_by_name(m).map(|id| modules[id.0 as usize].in2),
                Endpoint::ModOut(m) => model.module_by_name(m).map(|id| modules[id.0 as usize].out),
                Endpoint::ModOp(m) => model
                    .module_by_name(m)
                    .and_then(|id| modules[id.0 as usize].op),
                Endpoint::MemWin(m) => model.memory_by_name(m).map(|id| mems[id.0 as usize].win),
                Endpoint::MemWaddr(m) => {
                    model.memory_by_name(m).map(|id| mems[id.0 as usize].waddr)
                }
                Endpoint::MemWord {
                    mem,
                    addr: MemAddr::Const(i),
                } => model
                    .memory_by_name(mem)
                    .map(|id| mems[id.0 as usize].words[*i as usize]),
                Endpoint::MemWord {
                    addr: MemAddr::Reg(_),
                    ..
                }
                | Endpoint::ConstVal(_)
                | Endpoint::ConstOp(_) => None,
            }
        };

        let lower_guard = |g: &Guard| -> PlanGuard {
            let side = |op: &GuardOperand| match op {
                GuardOperand::Reg(r) => {
                    let id = model
                        .register_by_name(r)
                        .expect("validated guard references known register");
                    GuardSig::Sig(regs[id.0 as usize].output)
                }
                GuardOperand::Const(v) => GuardSig::Const(*v),
            };
            PlanGuard {
                negated: g.negated,
                clauses: g
                    .clauses
                    .iter()
                    .map(|c| (side(&c.lhs), c.cmp, side(&c.rhs)))
                    .collect(),
            }
        };

        let mut specs: Vec<LoweredSpec> = Vec::new();
        let mut spec_tuple: Vec<usize> = Vec::new();
        let mut guards: Vec<PlanGuard> = Vec::new();
        for (tuple_index, tuple) in model.tuples().iter().enumerate() {
            let guard = tuple.guard.as_ref().map(|g| {
                let gi = guards.len() as u32;
                guards.push(lower_guard(g));
                gi
            });
            for spec in tuple.expand_in(model) {
                let src = match &spec.src {
                    Endpoint::ConstOp(op) => {
                        let mid = model
                            .module_by_name(&tuple.module)
                            .expect("validated tuple references known module");
                        let idx = model.modules()[mid.0 as usize]
                            .op_index(*op)
                            .expect("validated tuple selects supported op");
                        Src::Const(Value::Num(idx as i64))
                    }
                    Endpoint::ConstVal(v) => Src::Const(Value::Num(*v)),
                    Endpoint::MemWord {
                        mem,
                        addr: MemAddr::Reg(r),
                    } => {
                        let mid = model
                            .memory_by_name(mem)
                            .expect("validated tuple references known memory");
                        let rid = model
                            .register_by_name(r)
                            .expect("validated tuple indexes with known register");
                        Src::MemRead {
                            addr: regs[rid.0 as usize].output as u32,
                            mem: mid.0,
                        }
                    }
                    other => Src::Signal(
                        index_of(other).expect("validated tuple references known resources") as u32,
                    ),
                };
                let dst = index_of(&spec.dst).expect("validated tuple references known resources");
                let slot = signals[dst].drivers;
                signals[dst].drivers += 1;
                specs.push(LoweredSpec {
                    step: spec.step,
                    phase: spec.phase,
                    src,
                    dst,
                    slot,
                    guard,
                });
                spec_tuple.push(tuple_index);
            }
        }

        // A commit at cr(CS_MAX) (and its paired release) leaves pending
        // updates after the last scheduled phase if and only if some
        // transfer asserts a register input at wb(CS_MAX).
        let last_writes = specs
            .iter()
            .filter(|sp| is_last_write(cs_max, sp.step, sp.phase))
            .count() as u64;

        // Analytic kernel statistics (derived in closed form; the
        // differential suite pins them against the interpreted run).
        // Memory-commit processes wake exactly like register processes,
        // so they count as fixed processes.
        let fixed_procs = (regs.len() + modules.len() + mems.len()) as u64;
        let (activations, wake_hits, wake_misses) = analytic_stats(
            cs_max,
            fixed_procs,
            specs.iter().map(|sp| (sp.step, sp.phase)),
        );
        let process_count = 1 + fixed_procs + specs.len() as u64;

        ExecPlan {
            cs_max,
            signals,
            roles: roles.into(),
            sinks,
            regs,
            modules,
            mems,
            guards,
            last_writes,
            specs,
            spec_tuple,
            tuple_count: model.tuples().len(),
            process_count,
            activations,
            wake_hits,
            wake_misses,
        }
    }

    /// Maximum control step of the lowered model.
    pub fn cs_max(&self) -> Step {
        self.cs_max
    }

    /// Exact number of delta cycles a run of this plan executes — fixed
    /// by the schedule, known before anything runs.
    pub fn total_deltas(&self) -> u64 {
        schedule_deltas(self.cs_max, self.last_writes)
    }

    /// Checks a run of [`total_deltas`](Self::total_deltas) against the
    /// delta budget of `options` (the kernel default when it sets none)
    /// before anything that grows with the step count is allocated.
    ///
    /// # Errors
    ///
    /// The kernel's [`KernelError::DeltaOverflow`] when the run exceeds
    /// the budget.
    pub fn check_delta_limit(&self, options: &ExecOptions) -> Result<(), KernelError> {
        let limit = options.delta_limit.unwrap_or(DEFAULT_DELTA_LIMIT);
        if self.total_deltas() > limit {
            let at = SimTime {
                fs: 0,
                delta: limit,
            };
            return Err(KernelError::DeltaOverflow { at, limit });
        }
        Ok(())
    }

    /// A fresh trace holding every signal's initial value at time zero —
    /// what the kernel records on initialization.
    pub(crate) fn initial_trace(&self) -> Trace<Value> {
        let mut trace = Trace::new();
        for (i, s) in self.signals.iter().enumerate() {
            trace.push(SimTime::ZERO, SignalId::from_index(i), s.init);
        }
        trace
    }

    /// The run summary and waveform of a finished walk whose final value
    /// of signal `sig` is `read(sig)`: final register and memory-word
    /// values, and on traced runs the conflict report (extracted now,
    /// since every report prints it) plus the recording.
    pub(crate) fn outcome(
        &self,
        read: impl Fn(usize) -> Value,
        stats: SimStats,
        trace: Option<Trace<Value>>,
    ) -> ExecOutcome {
        let registers = self
            .register_names()
            .zip(self.register_signals().map(read))
            .collect();
        let waveform = trace.map(|t| Waveform::new(t, Arc::clone(&self.roles)));
        ExecOutcome {
            summary: RunSummary {
                stats,
                registers,
                conflicts: waveform.as_ref().map(Waveform::conflicts),
            },
            waveform,
        }
    }

    /// Dense signal index of every register output and memory word, in
    /// declaration order (registers first) — the order of
    /// [`register_names`](Self::register_names) and of
    /// [`BatchOutcome::registers`].
    pub(crate) fn register_signals(&self) -> impl Iterator<Item = usize> + '_ {
        let words = self.mems.iter().flat_map(|m| m.words.iter().copied());
        self.regs.iter().map(|r| r.output).chain(words)
    }

    /// Names of the registers and memory words, in declaration order.
    pub(crate) fn register_names(&self) -> impl Iterator<Item = String> + '_ {
        let words = (self.mems.iter().flat_map(|m| &m.words)).map(|&w| self.roles[w].signal_name());
        self.regs.iter().map(|r| r.name.clone()).chain(words)
    }

    /// Walks the plan at `options.opt` and harvests the observable output:
    /// the specs are placed into their micro-op stream ([`crate::opt`]),
    /// which is walked as one lane.
    ///
    /// # Errors
    ///
    /// [`KernelError::DeltaOverflow`] when [`total_deltas`](Self::total_deltas)
    /// exceeds the delta budget (diagnosed up front — the schedule length
    /// is static), [`KernelError::WallBudgetExceeded`] when the deadline
    /// passes mid-walk.
    pub fn execute(&self, options: &ExecOptions) -> Result<ExecOutcome, KernelError> {
        self.check_delta_limit(options)?;
        Stream::solo(self, options.opt.config())
            .execute(self, options, None)
            .map(|(outcome, _)| outcome)
    }

    /// [`execute`](Self::execute), untraced, recording on the way the
    /// golden monitor table of `signals` — the table
    /// [`record_table`](crate::check::record_table) records from the
    /// kernel, at every level. `options.trace` is ignored.
    ///
    /// # Errors
    ///
    /// [`CheckedError::Signals`] naming the first signal the plan does
    /// not have, or the walk's own error, as for
    /// [`execute`](Self::execute).
    pub fn execute_recorded(
        &self,
        signals: &[CheckSignal],
        options: &ExecOptions,
    ) -> Result<(ExecOutcome, MonitorTable), CheckedError> {
        let sigs = self.check_sigs(signals).map_err(CheckedError::Signals)?;
        self.check_delta_limit(options)?;
        Ok(Stream::solo(self, options.opt.config()).record(self, options, &sigs)?)
    }

    // ------------------------------------------------------------------
    // Plan deltas: mutants as schedule edits
    // ------------------------------------------------------------------

    fn reg_by_name(&self, register: &str) -> Result<&PlanReg, String> {
        self.regs
            .iter()
            .find(|r| r.name == register)
            .ok_or_else(|| format!("unknown register `{register}`"))
    }

    /// Delta overriding a register's initial value (`DISC` for stuck-at
    /// faults, a number for corrupted inits).
    ///
    /// # Errors
    ///
    /// A message when `register` is not declared.
    pub fn delta_set_init(&self, register: &str, value: Value) -> Result<PlanDelta, String> {
        let reg = self.reg_by_name(register)?;
        Ok(PlanDelta {
            init_edits: vec![(reg.output, value)],
            ..PlanDelta::default()
        })
    }

    /// Delta removing the transfer tuple at `index` from the schedule.
    ///
    /// # Errors
    ///
    /// A message when `index` is out of range.
    pub fn delta_drop_tuple(&self, index: usize) -> Result<PlanDelta, String> {
        if index >= self.tuple_count {
            return Err(format!("no transfer at index {index}"));
        }
        Ok(PlanDelta {
            disabled_specs: (0..self.specs.len())
                .filter(|&i| self.spec_tuple[i] == index)
                .collect(),
            ..PlanDelta::default()
        })
    }

    /// Delta shifting the write-back (`wa` + `wb` specs) of the tuple at
    /// `index` by `delta` steps.
    ///
    /// # Errors
    ///
    /// A message when `index` is out of range, the tuple has no
    /// write-back, or the target step leaves `1..=CS_MAX`.
    pub fn delta_skew_write(&self, index: usize, delta: i32) -> Result<PlanDelta, String> {
        if index >= self.tuple_count {
            return Err(format!("no transfer at index {index}"));
        }
        let writes: Vec<usize> = (0..self.specs.len())
            .filter(|&i| {
                self.spec_tuple[i] == index && matches!(self.specs[i].phase, Phase::Wa | Phase::Wb)
            })
            .collect();
        let Some(&first) = writes.first() else {
            return Err(format!("transfer {index} has no write-back"));
        };
        let step = self.specs[first].step as i64 + i64::from(delta);
        if step < 1 || step > self.cs_max as i64 {
            return Err(format!("skewed write step {step} is out of range"));
        }
        Ok(PlanDelta {
            moved_specs: writes.into_iter().map(|i| (i, step as Step)).collect(),
            ..PlanDelta::default()
        })
    }

    /// Delta adding a spurious driver: `register` is read onto `bus` in
    /// `step` through a shadow `SPUR_<bus>_<step>` PassA module, exactly
    /// like the model-level driver mutation.
    ///
    /// # Errors
    ///
    /// A message when `bus` or `register` is not declared or `step` is
    /// outside the schedule.
    pub fn delta_extra_driver(
        &self,
        bus: &str,
        step: Step,
        register: &str,
    ) -> Result<PlanDelta, String> {
        let bus_sig = self
            .roles
            .iter()
            .position(|r| matches!(r, SignalRole::Bus(n) if n == bus))
            .ok_or_else(|| format!("unknown bus `{bus}`"))?;
        let src = self.reg_by_name(register)?.output;
        if step < 1 || step > self.cs_max {
            return Err(format!("spurious driver step {step} is out of range"));
        }
        Ok(PlanDelta {
            spur: Some(PlanSpur {
                name: format!("SPUR_{bus}_{step}"),
                step,
                src,
                bus: bus_sig,
            }),
            ..PlanDelta::default()
        })
    }

    /// Spec indices of the guarded tuple at `index`, or an error when the
    /// index is out of range or the tuple is unguarded.
    fn guarded_specs(&self, index: usize) -> Result<Vec<usize>, String> {
        if index >= self.tuple_count {
            return Err(format!("no transfer at index {index}"));
        }
        let specs: Vec<usize> = (0..self.specs.len())
            .filter(|&i| self.spec_tuple[i] == index && self.specs[i].guard.is_some())
            .collect();
        if specs.is_empty() {
            return Err(format!("transfer {index} has no guard"));
        }
        Ok(specs)
    }

    /// Delta logically negating the guard of the tuple at `index`
    /// (guard-flip faults): the transfer fires exactly when it should
    /// not, and vice versa.
    ///
    /// # Errors
    ///
    /// A message when `index` is out of range or the tuple is unguarded.
    pub fn delta_flip_guard(&self, index: usize) -> Result<PlanDelta, String> {
        Ok(PlanDelta {
            flipped_specs: self.guarded_specs(index)?,
            ..PlanDelta::default()
        })
    }

    /// Delta removing the guard of the tuple at `index` (guard-force
    /// faults): the transfer fires unconditionally.
    ///
    /// # Errors
    ///
    /// A message when `index` is out of range or the tuple is unguarded.
    pub fn delta_force_guard(&self, index: usize) -> Result<PlanDelta, String> {
        Ok(PlanDelta {
            forced_specs: self.guarded_specs(index)?,
            ..PlanDelta::default()
        })
    }

    /// Executes many [`PlanDelta`] mutants of this plan in lockstep.
    ///
    /// Mutants run in chunks of up to 64 lanes over packed lane columns:
    /// each signal holds 64 payloads plus `DISC` and `ILLEGAL`
    /// bit-planes, one bit per mutant. Each chunk applies its deltas to
    /// the golden specs as lane masks, places them into one micro-op
    /// stream at `options.opt` by the placement rules of a solo run and
    /// walks it with the loop [`execute`](Self::execute) uses, each op
    /// on whole columns. Each lane reports what a fault campaign prints —
    /// final registers (in declaration order, see
    /// [`BatchOutcome::registers`]), first conflict, delta count and
    /// process activations — identical to lowering and executing that
    /// mutant's model on its own (`clockless-verify` pins this
    /// differentially against the kernel's per-mutant runs). The walk
    /// counts nothing per lane but its first `ILLEGAL`; the two counters
    /// are closed forms of the lane's schedule.
    ///
    /// A lane whose schedule exceeds `options.delta_limit` is latched as
    /// [`BatchOutcome::overflowed`] up front (the schedule length is
    /// static, exactly as in [`execute`](Self::execute)) and drops out
    /// without disturbing the other lanes. Tracing is not supported;
    /// `options.trace` is ignored.
    ///
    /// # Errors
    ///
    /// [`KernelError::WallBudgetExceeded`] when `options.deadline` passes
    /// mid-walk.
    pub fn execute_batch(
        &self,
        deltas: &[PlanDelta],
        options: &ExecOptions,
    ) -> Result<Vec<BatchOutcome>, KernelError> {
        self.execute_lanes(deltas, options, options.opt.config(), None)
    }

    /// Resolves a [`CheckProgram`]'s signal references against this
    /// plan's dense signal table, producing the handle
    /// [`execute_batch_checked`](Self::execute_batch_checked) consumes.
    ///
    /// # Errors
    ///
    /// A message naming the first signal the plan does not have.
    pub fn resolve_checks<'p>(&self, program: &'p CheckProgram) -> Result<PlanChecks<'p>, String> {
        let sigs = self.check_sigs(&program.signals)?;
        let mut watch = vec![Vec::new(); self.signals.len()];
        for (i, &s) in sigs.iter().enumerate() {
            watch[s].push(i);
        }
        Ok(PlanChecks {
            sigs,
            watch,
            program,
            index: CheckIndex::new(program),
        })
    }

    /// The dense index of each of `signals`, looked up through one index
    /// of the plan's monitorable signals by kind and name.
    fn check_sigs(&self, signals: &[CheckSignal]) -> Result<Vec<usize>, String> {
        let mut index: HashMap<(SignalKind, Cow<'_, str>), usize> = HashMap::new();
        for (i, role) in self.roles.iter().enumerate() {
            let key = match role {
                SignalRole::RegOut(n) => (SignalKind::Register, Cow::Borrowed(n.as_str())),
                SignalRole::MemWord { mem, index } => (
                    SignalKind::MemoryWord,
                    Cow::Owned(SignalRole::mem_word_name(mem, *index)),
                ),
                SignalRole::Bus(n) => (SignalKind::Bus, Cow::Borrowed(n.as_str())),
                _ => continue,
            };
            index.entry(key).or_insert(i);
        }
        (signals.iter())
            .map(|s| {
                let key = (s.kind, Cow::Borrowed(s.name.as_str()));
                index
                    .get(&key)
                    .copied()
                    .ok_or_else(|| format!("unknown {} `{}`", s.kind, s.name))
            })
            .collect()
    }

    /// [`execute_batch`](Self::execute_batch) with value checkers: after
    /// every update phase the monitored signals that changed are checked
    /// a lane word at a time, each lane by the rules of a
    /// [`CheckEval`](crate::CheckEval), until every armed detector family
    /// of the lane has latched. Each [`BatchOutcome`] additionally
    /// carries the first monitor/invariant violation. Overflowed lanes
    /// never run and report no verdict (`check: None`).
    ///
    /// # Errors
    ///
    /// [`KernelError::WallBudgetExceeded`] when `options.deadline` passes
    /// mid-walk.
    pub fn execute_batch_checked(
        &self,
        deltas: &[PlanDelta],
        options: &ExecOptions,
        checks: &PlanChecks<'_>,
    ) -> Result<Vec<BatchOutcome>, KernelError> {
        self.execute_lanes(deltas, options, options.opt.config(), Some(checks))
    }

    /// The lane walk behind [`execute_batch`](Self::execute_batch), under
    /// explicit pass toggles.
    pub(crate) fn execute_lanes(
        &self,
        deltas: &[PlanDelta],
        options: &ExecOptions,
        config: OptConfig,
        checks: Option<&PlanChecks<'_>>,
    ) -> Result<Vec<BatchOutcome>, KernelError> {
        let delta_limit = options.delta_limit.unwrap_or(DEFAULT_DELTA_LIMIT);
        let mut out = Vec::with_capacity(deltas.len());
        // One walk state serves every chunk: each resets it in place.
        let mut state = WalkState::default();
        for chunk in deltas.chunks(LANES) {
            let (lanes, stream) = self.lanes(chunk, delta_limit, config);
            stream.execute_lanes(self, &lanes, options, checks, &mut state, &mut out)?;
        }
        Ok(out)
    }

    /// One mutant's delta count and process activations, derived from
    /// the golden plan's in O(edits): a dropped spec takes its
    /// [`spec_counts`] activations away, a re-stepped one moves them, and
    /// a spur adds one fixed process (the shadow module) plus its two
    /// specs. Guard edits leave the schedule shape, and so both, alone.
    fn lane_schedule(&self, d: &PlanDelta) -> (u64, u64) {
        let cs_max = self.cs_max;
        let last = |step: Step, phase: Phase| u64::from(is_last_write(cs_max, step, phase));
        let share = |step: Step, phase: Phase| spec_counts(cs_max, step, phase).0;
        let mut activations = self.activations;
        let mut last_writes = self.last_writes;
        for &i in &d.disabled_specs {
            let sp = &self.specs[i];
            activations -= share(sp.step, sp.phase);
            last_writes -= last(sp.step, sp.phase);
        }
        for &(i, step) in &d.moved_specs {
            let sp = &self.specs[i];
            activations = activations + share(step, sp.phase) - share(sp.step, sp.phase);
            last_writes = last_writes + last(step, sp.phase) - last(sp.step, sp.phase);
        }
        if let Some(spur) = &d.spur {
            let specs = share(spur.step, Phase::Ra) + share(spur.step, Phase::Rb);
            activations += 1 + cs_max as u64 + specs;
        }
        (schedule_deltas(cs_max, last_writes), activations)
    }

    /// Applies one chunk of up to [`LANES`] deltas to the golden specs as
    /// lane masks and places the result into a stream under `config`. Per
    /// lane that is the golden placement minus its drops and moves plus
    /// its moved-in specs; its guard edits become flipped or forced
    /// variants of a spec, whose lanes are disjoint from the spec's own;
    /// its spur becomes two appended specs plus the shadow module. Every
    /// edit keeps spec order (drops remove, skews re-step, spurs append
    /// last), so each lane's masked view of the stream is exactly its own
    /// mutant's stream.
    fn lanes<'d>(
        &self,
        deltas: &'d [PlanDelta],
        delta_limit: u64,
        config: OptConfig,
    ) -> (Lanes<'d>, Stream) {
        let bit = |c: usize| 1u64 << c;
        // Per-lane schedule summaries in O(edits): an over-budget lane
        // never runs.
        let schedules: Vec<(u64, u64)> = deltas
            .iter()
            .map(|d| match self.lane_schedule(d) {
                (needed, _) if needed > delta_limit => (0, 0),
                summary => summary,
            })
            .collect();
        let full = (0..deltas.len())
            .filter(|&c| schedules[c].0 > 0)
            .fold(0, |m, c| m | bit(c));
        let live = || (deltas.iter().enumerate()).filter(move |&(c, _)| full & bit(c) != 0);

        // Per spec: the lanes that drop or move it and those that flip or
        // force its guard; moves as `(spec, step, lanes)`.
        let specs = self.specs.len();
        let (mut clear, mut flip, mut force) =
            (vec![0u64; specs], vec![0u64; specs], vec![0u64; specs]);
        let mut moved = Vec::new();
        for (c, d) in live() {
            for &i in &d.disabled_specs {
                clear[i] |= bit(c);
            }
            for &(i, step) in &d.moved_specs {
                clear[i] |= bit(c);
                moved.push((i, step, bit(c)));
            }
            for &i in &d.flipped_specs {
                flip[i] |= bit(c);
            }
            for &i in &d.forced_specs {
                force[i] |= bit(c);
            }
        }
        moved.sort_unstable_by_key(|&(i, ..)| i);

        // Every placement in spec order, split by guard edits into
        // variants with disjoint lanes (forcing wins over flipping); then
        // the spurs' specs. Placement keeps this order within each step.
        let mut ext = Extension::default();
        let (mut placed, mut masks) = (Vec::new(), Vec::new());
        let mut variants = |i: usize, spec: LoweredSpec, lanes: u64| {
            let forced = lanes & force[i];
            let flipped = lanes & flip[i] & !forced;
            let mut push = |guard: Option<u32>, lanes: u64| {
                if lanes != 0 {
                    placed.push(LoweredSpec { guard, ..spec });
                    masks.push(lanes);
                }
            };
            push(spec.guard, lanes & !(forced | flipped));
            if flipped != 0 {
                let g = spec.guard.expect("flipped spec has a guard");
                let k = ext.flips.iter().position(|&f| f == g).unwrap_or_else(|| {
                    ext.flips.push(g);
                    ext.flips.len() - 1
                });
                push(Some((self.guards.len() + k) as u32), flipped);
            }
            push(None, forced);
        };
        let mut moved = moved.into_iter().peekable();
        for (i, &spec) in self.specs.iter().enumerate() {
            variants(i, spec, full & !clear[i]);
            while let Some((_, step, lanes)) = moved.next_if(|&(j, ..)| j == i) {
                variants(i, LoweredSpec { step, ..spec }, lanes);
            }
        }
        // A spur reads its register onto the bus through the bus's extra
        // slot at ra, and the bus into the shadow module at rb.
        let s0 = self.signals.len();
        for (c, spur) in live().filter_map(|(c, d)| Some((c, d.spur.as_ref()?))) {
            let ra = LoweredSpec {
                step: spur.step,
                phase: Phase::Ra,
                src: Src::Signal(spur.src as u32),
                dst: spur.bus,
                slot: self.signals[spur.bus].drivers,
                guard: None,
            };
            let rb = LoweredSpec {
                phase: Phase::Rb,
                src: Src::Signal(spur.bus as u32),
                dst: s0,
                slot: 0,
                ..ra
            };
            placed.extend([ra, rb]);
            masks.extend([bit(c); 2]);
            ext.spur_buses.push(spur.bus);
            ext.shadow_lanes |= bit(c);
        }
        if ext.shadow_lanes != 0 {
            ext.shadow = Some(PlanModule {
                in1: s0,
                in2: s0 + 1,
                op: None,
                out: s0 + 2,
                ops: vec![Op::PassA],
                timing: ModuleTiming::Combinational,
            });
            ext.spur_buses.sort_unstable();
            ext.spur_buses.dedup();
        }
        let walked = schedules.iter().map(|&(d, _)| d).max().unwrap_or(0);
        let stream = Stream::compile(self, &placed, Some(&masks), full, ext, walked, config);
        let lanes = Lanes {
            deltas,
            schedules,
            delta_limit,
        };
        (lanes, stream)
    }
}

/// Lanes per chunk of [`ExecPlan::execute_batch`] — one bit of the
/// per-op lane masks and of every column's bit-planes each.
pub(crate) const LANES: usize = 64;

/// What a lane chunk appends to its golden plan's tables (empty for a
/// solo run): the shadow spur module, the extra bus slots spurs drive,
/// and the flipped guard variants.
#[derive(Debug, Clone, Default)]
pub(crate) struct Extension {
    /// The shadow module, appended as module `modules.len()`; its in1,
    /// in2 and out ports are the appended signals `signals.len()..+3`.
    pub(crate) shadow: Option<PlanModule>,
    /// The lanes with a spur: those the shadow module evaluates in.
    pub(crate) shadow_lanes: u64,
    /// The buses with one extra driver slot (the spurs'), ascending.
    pub(crate) spur_buses: Vec<usize>,
    /// The golden guard each flipped variant negates: variant `k` is
    /// guard index `guards.len() + k`.
    pub(crate) flips: Vec<u32>,
}

impl Extension {
    /// `(resolved, driver slots)` of every signal, appended ones last.
    pub(crate) fn signals<'a>(
        &'a self,
        plan: &'a ExecPlan,
    ) -> impl Iterator<Item = (bool, usize)> + 'a {
        let golden = plan.signals.iter().enumerate().map(|(i, s)| {
            let spur = self.spur_buses.binary_search(&i).is_ok();
            (s.resolved, s.drivers + usize::from(spur))
        });
        // The shadow in1 is driven by the spur's rb spec, in2 never, and
        // out by the module alone.
        let shadow = self
            .shadow
            .iter()
            .flat_map(|_| [(true, 1), (true, 0), (false, 1)]);
        golden.chain(shadow)
    }

    /// Module `m`: a golden one, or the shadow module.
    #[inline]
    pub(crate) fn module<'a>(&'a self, plan: &'a ExecPlan, m: usize) -> &'a PlanModule {
        (plan.modules.get(m).or(self.shadow.as_ref())).expect("module index within the chunk")
    }

    /// Guard `g` and whether it is negated: a golden guard, or a flipped
    /// variant of one.
    #[inline]
    pub(crate) fn guard<'a>(&self, plan: &'a ExecPlan, g: u32) -> (&'a PlanGuard, bool) {
        match plan.guards.get(g as usize) {
            Some(guard) => (guard, false),
            None => {
                let golden = self.flips[g as usize - plan.guards.len()];
                (&plan.guards[golden as usize], true)
            }
        }
    }
}

/// One chunk of plan deltas applied as lane masks (built by
/// [`ExecPlan::execute_lanes`]).
pub(crate) struct Lanes<'d> {
    deltas: &'d [PlanDelta],
    /// Per lane: delta count and process activations, both none when it
    /// is over budget: it never runs.
    schedules: Vec<(u64, u64)>,
    /// The delta budget an over-budget lane exhausts.
    delta_limit: u64,
}

impl Lanes<'_> {
    /// The deltas each lane runs (none when it overflowed).
    pub(crate) fn needed(&self) -> Vec<u64> {
        self.schedules.iter().map(|&(d, _)| d).collect()
    }

    /// Writes the lanes' initial columns to `values`, in place: the
    /// golden inits with each lane's overrides, the signals `ext`
    /// appends `DISC`.
    pub(crate) fn initialize(&self, plan: &ExecPlan, ext: &Extension, values: &mut Vec<Col>) {
        refill(values, ext.signals(plan).count(), Value::Disc);
        for (value, s) in values.iter_mut().zip(&plan.signals) {
            value.fill(s.init);
        }
        for (c, d) in self.deltas.iter().enumerate() {
            for &(sig, v) in &d.init_edits {
                values[sig].set(c, v);
            }
        }
    }

    /// Lane `c`'s initial value of signal `sig`: its last override, or
    /// the golden init.
    pub(crate) fn initial(&self, plan: &ExecPlan, c: usize, sig: usize) -> Value {
        let edits = &self.deltas[c].init_edits;
        let edit = edits.iter().rev().find(|&&(s, _)| s == sig);
        edit.map_or(plan.signals[sig].init, |&(_, v)| v)
    }

    /// Lane `c`'s outcome from its final registers (in
    /// [`BatchOutcome::registers`] order) and its first `ILLEGAL`
    /// transition as `(signal, delta)`.
    pub(crate) fn outcome(
        &self,
        plan: &ExecPlan,
        c: usize,
        registers: Vec<Value>,
        first_illegal: Option<(usize, u64)>,
        check: Option<CheckReport>,
    ) -> BatchOutcome {
        let first_conflict = first_illegal.and_then(|(sig, delta)| {
            let (site, name) = match plan.roles.get(sig) {
                Some(role) => role.conflict_site()?,
                // A shadow signal: the spur module's ports or output.
                None => {
                    let out = sig == plan.signals.len() + 2;
                    let site =
                        [ConflictSite::ModulePort, ConflictSite::ModuleOut][usize::from(out)];
                    (site, self.deltas[c].spur.as_ref()?.name.clone())
                }
            };
            let visible_at = PhaseTime::from_active_delta(delta)?;
            Some(Conflict {
                site,
                name,
                visible_at,
            })
        });
        let (needed, process_activations) = self.schedules[c];
        let overflowed = needed == 0;
        BatchOutcome {
            registers,
            first_conflict,
            delta_cycles: if overflowed { self.delta_limit } else { needed },
            process_activations,
            overflowed,
            check,
        }
    }
}

/// Closed-form kernel statistics — `(activations, wake_hits,
/// wake_misses)` — of a schedule with `fixed_procs` register/module
/// processes and the given transfer-spec `(step, phase)` summaries over
/// `cs_max` steps: the golden plan's, derived once by
/// [`ExecPlan::lower`]. The batched executor adjusts them per mutant by
/// the same [`spec_counts`], so the two derivations cannot drift.
fn analytic_stats(
    cs_max: Step,
    fixed_procs: u64,
    specs: impl Iterator<Item = (Step, Phase)>,
) -> (u64, u64, u64) {
    let steps = cs_max as u64;
    let mut activations = 1 + 6 * steps + fixed_procs * (1 + steps);
    // The kernel buckets `UntilEq` waiters per awaited value, so a filter
    // only ever fires when its predicate just became true: every
    // evaluation is a hit and the miss count is structurally zero.
    let mut wake_hits = fixed_procs * steps;
    let wake_misses = 0;
    for (step, phase) in specs {
        let (a, h) = spec_counts(cs_max, step, phase);
        activations += a;
        wake_hits += h;
    }
    (activations, wake_hits, wake_misses)
}

/// One transfer spec's share of [`analytic_stats`]: `(activations,
/// wake_hits)`.
fn spec_counts(cs_max: Step, step: Step, phase: Phase) -> (u64, u64) {
    if (1..=cs_max).contains(&step) {
        // The CS filter hits once, when CS arrives at the spec's step.
        if phase == Phase::Ra {
            // init + assert + release; PH filter hits once (the release
            // phase).
            (3, 2)
        } else {
            // init + arm + assert + release; PH filter hits twice (the
            // assert phase and the release phase).
            (4, 3)
        }
    } else {
        // Defensive: a spec outside the schedule only ever runs its init
        // resume; its CS bucket never fires.
        (1, 0)
    }
}

/// Whether a spec placed at `(step, phase)` asserts at `wb(CS_MAX)` —
/// the placement that adds the trailing flush delta.
fn is_last_write(cs_max: Step, step: Step, phase: Phase) -> bool {
    phase == Phase::Wb && step == cs_max
}

/// The delta count of a schedule over `cs_max` steps with `last_writes`
/// asserts at `wb(CS_MAX)`: initialization, six phases per step, and the
/// trailing flush delta when a last-step write is still pending.
fn schedule_deltas(cs_max: Step, last_writes: u64) -> u64 {
    let flush = cs_max >= 1 && last_writes > 0;
    1 + cs_max as u64 * Phase::ALL.len() as u64 + u64::from(flush)
}

/// [`DriverLayout`]'s marker of a signal that keeps no driver state.
const DIRECT: u32 = u32::MAX;

/// Where a compiled walk keeps driver state. Each *tallied* signal owns
/// a run of slot words — an update must know the value it replaces — and
/// one tally word ([`DriverTally`](crate::value::DriverTally) in each
/// lane), so resolving an update costs O(1) however many drivers the
/// signal has. A push on any other signal *is* its effective value:
/// unresolved signals have exactly one driver, and `resolve` is the
/// identity on a singleton. Only resolved signals are tallied, and they
/// start `DISC`, so every slot starts `DISC` and every tally empty.
#[derive(Debug, Clone, Default)]
pub(crate) struct DriverLayout {
    /// Per signal: `(first slot row, tally row)`, `DIRECT` for untallied
    /// signals.
    at: Vec<(u32, u32)>,
    slot_rows: usize,
    tally_rows: usize,
}

impl DriverLayout {
    /// Lays out signals given as `(resolved, driver slots)`: every
    /// resolved signal is tallied, except — when `specialize` is set —
    /// those with a single slot.
    pub(crate) fn new(signals: impl Iterator<Item = (bool, usize)>, specialize: bool) -> Self {
        let mut layout = DriverLayout::default();
        for (resolved, slots) in signals {
            layout.at.push(if resolved && (slots > 1 || !specialize) {
                let at = (layout.slot_rows as u32, layout.tally_rows as u32);
                layout.slot_rows += slots;
                layout.tally_rows += 1;
                at
            } else {
                (DIRECT, DIRECT)
            });
        }
        layout
    }

    /// Whether updates of `sig` resolve through its tally.
    #[inline]
    pub(crate) fn tallied(&self, sig: usize) -> bool {
        self.at[sig].0 != DIRECT
    }
}

/// The driver state of one walk over a [`DriverLayout`]: a word per slot
/// row and a tally per tally row. A campaign's chunks share one,
/// [`reset`](Self::reset) for each.
#[derive(Debug, Clone)]
pub(crate) struct Drivers<W: Word> {
    slots: Vec<W>,
    tallies: Vec<W::Tally>,
    /// The last update's resolved word.
    resolved: W,
}

impl<W: Word> Default for Drivers<W> {
    fn default() -> Self {
        Drivers {
            slots: Vec::new(),
            tallies: Vec::new(),
            resolved: W::splat(Value::Disc),
        }
    }
}

impl<W: Word> Drivers<W> {
    /// Every slot of `layout` `DISC` and every tally empty, in place.
    pub(crate) fn reset(&mut self, layout: &DriverLayout) {
        refill(&mut self.slots, layout.slot_rows, Value::Disc);
        self.tallies.truncate(layout.tally_rows);
        self.tallies.iter_mut().for_each(W::clear);
        self.tallies
            .reserve_exact(layout.tally_rows - self.tallies.len());
        self.tallies.resize_with(layout.tally_rows, W::tally);
    }

    /// Applies one driver update — `new` on slot `slot` of the tallied
    /// signal `sig` of `layout`, in the lanes of `mask`, the walk's
    /// running lanes being `care` — and returns the signal's resolved
    /// word (meaningful in the lanes of `mask`).
    #[inline]
    pub(crate) fn drive<'a>(
        &'a mut self,
        layout: &DriverLayout,
        sig: usize,
        slot: usize,
        mask: u64,
        care: u64,
        new: &'a W,
    ) -> &'a W {
        let (first, tally) = layout.at[sig];
        let slot = &mut self.slots[first as usize + slot];
        let tally = &mut self.tallies[tally as usize];
        match W::drive(tally, slot, new, mask, care, &mut self.resolved) {
            true => new,
            false => &self.resolved,
        }
    }
}

/// Makes `words` `n` words of `v`, in place: existing words take a
/// uniform header, so a campaign's chunks reuse one allocation, grown
/// only to the largest chunk's need.
pub(crate) fn refill<W: Word>(words: &mut Vec<W>, n: usize, v: Value) {
    words.truncate(n);
    words.iter_mut().for_each(|w| w.fill(v));
    words.reserve_exact(n - words.len());
    words.resize(n, W::splat(v));
}

/// Combines module operand ports into a result, mirroring the module
/// process: the op port (when present) selects the operation by index;
/// `DISC` selection with live operands and out-of-range selections are
/// `ILLEGAL`.
pub(crate) fn combine(a: Value, b: Value, op_sel: Option<Value>, ops: &[Op]) -> Value {
    let op = match op_sel {
        None => ops[0],
        Some(Value::Disc) => {
            return if a == Value::Disc && b == Value::Disc {
                Value::Disc
            } else {
                Value::Illegal
            };
        }
        Some(Value::Illegal) => return Value::Illegal,
        Some(Value::Num(i)) => match usize::try_from(i).ok().and_then(|i| ops.get(i)) {
            Some(&op) => op,
            None => return Value::Illegal,
        },
    };
    op.apply(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, ExecOptions, OptLevel};
    use crate::check::{check_signals, execute_checked, record_table, Invariant};
    use crate::model::{fig1_model, RtModel};
    use crate::op::Op;
    use crate::resource::{ModuleDecl, ModuleTiming};
    use crate::run::RtSimulation;
    use crate::tuples::TransferTuple;

    fn interpreted_traced(model: &RtModel) -> ExecOutcome {
        Backend::Interpreted
            .execute(model, &ExecOptions::traced())
            .unwrap()
    }

    fn compiled_traced(model: &RtModel) -> ExecOutcome {
        Backend::Compiled
            .execute(model, &ExecOptions::traced())
            .unwrap()
    }

    fn assert_equivalent(model: &RtModel) {
        let i = interpreted_traced(model);
        let c = compiled_traced(model);
        assert_eq!(i.summary.registers, c.summary.registers, "registers");
        assert_eq!(i.summary.stats, c.summary.stats, "stats");
        assert_eq!(
            i.summary.conflicts.as_ref().map(|r| &r.conflicts),
            c.summary.conflicts.as_ref().map(|r| &r.conflicts),
            "conflicts"
        );
        assert_eq!(i.commits(), c.commits(), "commits");
        assert_eq!(i.vcd(), c.vcd(), "vcd");
    }

    #[test]
    fn fig1_is_byte_equivalent() {
        assert_equivalent(&fig1_model(3, 4));
    }

    #[test]
    fn fig1_plan_shape() {
        let model = fig1_model(3, 4);
        let plan = ExecPlan::lower(&model);
        assert_eq!(plan.cs_max(), 7);
        assert_eq!(plan.total_deltas(), 43); // 1 + 7*6, no flush
    }

    #[test]
    fn fig1_analytic_stats_match_interpreted() {
        let model = fig1_model(3, 4);
        let out = compiled_traced(&model);
        let s = out.summary.stats;
        assert_eq!(s.delta_cycles, 43);
        assert_eq!(s.process_activations, 89);
        assert_eq!(s.wake_filter_hits, 37);
        assert_eq!(s.wake_filter_misses, 0);
        assert_eq!(s.time_advances, 0);
    }

    /// A model whose only write lands at `wb(CS_MAX)`, forcing the
    /// trailing flush delta.
    fn flush_model() -> RtModel {
        let mut model = RtModel::new("flush", 2);
        model.add_register_init("R1", Value::Num(3)).unwrap();
        model.add_register_init("R2", Value::Num(4)).unwrap();
        model.add_bus("B1").unwrap();
        model.add_bus("B2").unwrap();
        model
            .add_module(ModuleDecl::single(
                "ADD",
                Op::Add,
                ModuleTiming::Pipelined { latency: 1 },
            ))
            .unwrap();
        model
            .add_transfer(
                TransferTuple::new(1, "ADD")
                    .src_a("R1", "B1")
                    .src_b("R2", "B2")
                    .write(2, "B1", "R1"),
            )
            .unwrap();
        model
    }

    #[test]
    fn write_at_last_step_takes_the_flush_delta() {
        let model = flush_model();
        let plan = ExecPlan::lower(&model);
        assert_eq!(plan.last_writes, 1);
        assert_eq!(plan.total_deltas(), 14); // 1 + 2*6 + flush
        assert_equivalent(&model);
        let out = compiled_traced(&model);
        assert_eq!(out.summary.register("R1"), Some(Value::Num(7)));
        assert_eq!(out.summary.stats.delta_cycles, 14);
    }

    #[test]
    fn model_without_transfers_is_byte_equivalent() {
        let mut model = RtModel::new("idle", 3);
        model.add_register_init("R1", Value::Num(9)).unwrap();
        model.add_bus("B1").unwrap();
        let plan = ExecPlan::lower(&model);
        assert_eq!(plan.last_writes, 0);
        assert_eq!(plan.total_deltas(), 19);
        assert_equivalent(&model);
    }

    #[test]
    fn disc_init_registers_are_byte_equivalent() {
        // fig1 structure but with uninitialized (DISC) registers: the
        // ADD sees DISC operands and the commit never fires.
        let model = fig1_model_disc();
        assert_equivalent(&model);
        let out = compiled_traced(&model);
        assert_eq!(out.summary.register("R1"), Some(Value::Disc));
    }

    fn fig1_model_disc() -> RtModel {
        let mut model = RtModel::new("fig1_disc", 7);
        model.add_register("R1").unwrap();
        model.add_register("R2").unwrap();
        model.add_bus("B1").unwrap();
        model.add_bus("B2").unwrap();
        model
            .add_module(ModuleDecl::single(
                "ADD",
                Op::Add,
                ModuleTiming::Pipelined { latency: 1 },
            ))
            .unwrap();
        model
            .add_transfer(
                TransferTuple::new(5, "ADD")
                    .src_a("R1", "B1")
                    .src_b("R2", "B2")
                    .write(6, "B1", "R1"),
            )
            .unwrap();
        model
    }

    #[test]
    fn bus_conflict_is_found_dynamically() {
        // Two transfers read different registers onto the same bus at the
        // same step: B1 is driven twice at ra(1).
        let mut model = RtModel::new("clash", 3);
        model.add_register_init("R1", Value::Num(1)).unwrap();
        model.add_register_init("R2", Value::Num(2)).unwrap();
        model.add_register_init("R3", Value::Num(3)).unwrap();
        model.add_bus("B1").unwrap();
        model.add_bus("B2").unwrap();
        model
            .add_module(ModuleDecl::single(
                "ADD",
                Op::Add,
                ModuleTiming::Pipelined { latency: 1 },
            ))
            .unwrap();
        model
            .add_module(ModuleDecl::single(
                "CPY",
                Op::PassA,
                ModuleTiming::Pipelined { latency: 1 },
            ))
            .unwrap();
        model
            .add_transfer(
                TransferTuple::new(1, "ADD")
                    .src_a("R1", "B1")
                    .src_b("R3", "B2")
                    .write(2, "B2", "R3"),
            )
            .unwrap();
        model
            .add_transfer(TransferTuple::new(1, "CPY").src_a("R2", "B1"))
            .unwrap();

        assert_equivalent(&model);
        let out = compiled_traced(&model);
        let report = out.summary.conflicts.unwrap();
        assert!(
            report.on("B1").any(
                |c| c.site == ConflictSite::Bus && c.visible_at == PhaseTime::new(1, Phase::Rb)
            ),
            "{report:?}"
        );
    }

    #[test]
    fn delta_overflow_is_diagnosed_up_front() {
        let model = fig1_model(3, 4);
        let plan = ExecPlan::lower(&model);
        let opts = ExecOptions {
            delta_limit: Some(10),
            ..Default::default()
        };
        let err = plan.execute(&opts).unwrap_err();
        assert!(
            matches!(err, KernelError::DeltaOverflow { limit: 10, .. }),
            "{err}"
        );
        // The interpreted kernel fails the same way with the same budget.
        let mut sim = RtSimulation::new(&model).unwrap();
        sim.set_delta_limit(10);
        let ierr = sim.run_to_completion().unwrap_err();
        assert_eq!(err, ierr);
        // And the exact budget passes both.
        let opts = ExecOptions {
            delta_limit: Some(43),
            ..Default::default()
        };
        assert!(plan.execute(&opts).is_ok());
    }

    #[test]
    fn zero_step_model_runs_one_delta() {
        let mut model = RtModel::new("empty", 0);
        model.add_register_init("R1", Value::Num(5)).unwrap();
        let plan = ExecPlan::lower(&model);
        assert_eq!(plan.total_deltas(), 1);
        assert_equivalent(&model);
    }

    #[test]
    fn sequential_module_models_are_byte_equivalent() {
        for violate in [false, true] {
            assert_equivalent(&seq_model(violate));
        }
    }

    /// A sequential multiplier with latency 2, plus (with `violate`) a
    /// second transfer violating its initiation interval (poisoned
    /// pipeline).
    fn seq_model(violate: bool) -> RtModel {
        let mut model = RtModel::new("seq", 6);
        model.add_register_init("R1", Value::Num(3)).unwrap();
        model.add_register_init("R2", Value::Num(4)).unwrap();
        model.add_register_init("R3", Value::Num(5)).unwrap();
        model.add_bus("B1").unwrap();
        model.add_bus("B2").unwrap();
        model
            .add_module(ModuleDecl::single(
                "MUL",
                Op::Mul,
                ModuleTiming::Sequential { latency: 2 },
            ))
            .unwrap();
        model
            .add_transfer(
                TransferTuple::new(1, "MUL")
                    .src_a("R1", "B1")
                    .src_b("R2", "B2")
                    .write(3, "B1", "R1"),
            )
            .unwrap();
        if violate {
            model
                .add_transfer(
                    TransferTuple::new(2, "MUL")
                        .src_a("R3", "B1")
                        .src_b("R2", "B2")
                        .write(4, "B2", "R3"),
                )
                .unwrap();
        }
        model
    }

    /// The golden checkers of `golden`: its monitor table, a range for
    /// every signal that only ever holds numbers, and an equality for
    /// every pair of signals that always agree.
    fn golden_program(golden: &RtModel) -> CheckProgram {
        let signals = check_signals(golden);
        let table = record_table(golden, &signals).unwrap();
        let w = signals.len();
        let rows = crate::check::tests::dense_rows(&table);
        let column = |i: usize| rows.iter().map(move |row| row[i]);
        let mut invariants = Vec::new();
        for a in 0..w {
            if let Some(nums) = column(a).map(|v| v.num()).collect::<Option<Vec<i64>>>() {
                let (min, max) = (nums.iter().min().unwrap(), nums.iter().max().unwrap());
                invariants.push(Invariant::Range {
                    sig: a,
                    min: *min,
                    max: *max,
                });
            }
            for b in a + 1..w {
                if column(a).eq(column(b)) {
                    invariants.push(Invariant::Eq { a, b });
                }
            }
        }
        CheckProgram {
            signals,
            monitor: Some(table),
            invariants,
        }
    }

    /// Lane `i` must show exactly what the kernel shows for `mutants[i]`,
    /// under every pass configuration of the lane walk: its registers,
    /// first conflict, delta count and activations; checked against the
    /// golden checkers, the kernel's verdict; and checked against a
    /// monitor table of its own kernel run, walked alone and in the
    /// chunk, a clean verdict — every register, memory word and bus equal
    /// to the kernel's at every delta.
    fn assert_lanes_match_kernel(golden: &RtModel, deltas: &[PlanDelta], mutants: &[RtModel]) {
        assert_eq!(deltas.len(), mutants.len());
        let plan = ExecPlan::lower(golden);
        let kernel: Vec<ExecOutcome> = mutants.iter().map(interpreted_traced).collect();
        let program = golden_program(golden);
        let checks = plan.resolve_checks(&program).unwrap();
        let options = ExecOptions::default();
        let verdict = |m: &RtModel, program: &CheckProgram| {
            execute_checked(m, Backend::Interpreted, &options, program)
                .unwrap()
                .1
        };
        let verdicts: Vec<CheckReport> = mutants.iter().map(|m| verdict(m, &program)).collect();
        assert!(
            verdicts.iter().any(|v| !v.is_clean()),
            "no mutant trips a checker"
        );
        let own: Vec<CheckProgram> = (mutants.iter())
            .map(|m| CheckProgram {
                signals: program.signals.clone(),
                monitor: Some(record_table(m, &program.signals).unwrap()),
                invariants: Vec::new(),
            })
            .collect();
        let own: Vec<PlanChecks> = (own.iter())
            .map(|program| plan.resolve_checks(program).unwrap())
            .collect();
        for config in crate::opt::tests::pass_configs() {
            let run = |deltas: &[PlanDelta], checks| {
                plan.execute_lanes(deltas, &options, config, checks)
                    .unwrap()
            };
            let (outs, checked) = (run(deltas, None), run(deltas, Some(&checks)));
            for (i, (out, solo)) in outs.iter().zip(&kernel).enumerate() {
                assert!(!out.overflowed, "lane {i} at {config:?}");
                let registers: Vec<(String, Value)> = plan
                    .register_names()
                    .zip(out.registers.iter().copied())
                    .collect();
                assert_eq!(
                    registers, solo.summary.registers,
                    "lane {i} registers at {config:?}"
                );
                assert_eq!(
                    out.first_conflict.as_ref(),
                    solo.summary.conflicts.as_ref().unwrap().first(),
                    "lane {i} conflict at {config:?}"
                );
                let stats = &solo.summary.stats;
                assert_eq!(
                    (out.delta_cycles, out.process_activations),
                    (stats.delta_cycles, stats.process_activations),
                    "lane {i} counters at {config:?}"
                );
                assert_eq!(
                    checked[i].check.as_ref(),
                    Some(&verdicts[i]),
                    "lane {i} golden verdict at {config:?}"
                );
                // Alone, and beside the other lanes, its whole run meets a
                // monitor of its own kernel run.
                let alone = run(&deltas[i..=i], Some(&own[i])).swap_remove(0);
                let beside = run(deltas, Some(&own[i])).swap_remove(i);
                for (how, out) in [("alone", alone), ("beside the others", beside)] {
                    assert_eq!(
                        out.check,
                        Some(CheckReport::default()),
                        "lane {i} trajectory {how} at {config:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_deltas_match_solo_mutant_runs() {
        let golden = fig1_model(3, 4);
        let plan = ExecPlan::lower(&golden);

        let mut deltas = vec![PlanDelta::default()];
        let mut mutants = vec![golden.clone()];

        // Stuck-at-DISC and corrupted init.
        for (reg, value) in [("R1", Value::Disc), ("R2", Value::Num(9))] {
            deltas.push(plan.delta_set_init(reg, value).unwrap());
            let mut m = golden.clone();
            m.set_register_init(reg, value).unwrap();
            mutants.push(m);
        }

        // Dropped transfer.
        deltas.push(plan.delta_drop_tuple(0).unwrap());
        let mut m = golden.clone();
        m.remove_transfer(0).unwrap();
        mutants.push(m);

        // Skewed write-back, both directions; +1 lands the write on
        // `wb(CS_MAX)` so only that column takes the flush delta.
        for skew in [1i32, -1] {
            deltas.push(plan.delta_skew_write(0, skew).unwrap());
            let mut m = golden.clone();
            let mut tuple = m.tuples()[0].clone();
            let write = tuple.write.as_mut().unwrap();
            write.step = (write.step as i64 + i64::from(skew)) as Step;
            m.replace_transfer_unchecked(0, tuple).unwrap();
            mutants.push(m);
        }

        // Spurious drivers: one colliding with the scheduled read of B2
        // at step 5, one alone on an idle step, and two columns sharing
        // the same extra bus slot.
        for (bus, step, reg) in [("B2", 5, "R1"), ("B1", 2, "R2"), ("B1", 3, "R1")] {
            deltas.push(plan.delta_extra_driver(bus, step, reg).unwrap());
            let mut m = golden.clone();
            let spur = format!("SPUR_{bus}_{step}");
            m.add_module(ModuleDecl::single(
                &spur,
                Op::PassA,
                ModuleTiming::Combinational,
            ))
            .unwrap();
            m.add_transfer(TransferTuple::new(step, spur).src_a(reg, bus))
                .unwrap();
            mutants.push(m);
        }

        assert_lanes_match_kernel(&golden, &deltas, &mutants);
    }

    #[test]
    fn batched_flush_model_deltas_match_solo() {
        // Golden takes the flush delta; dropping the tuple removes it,
        // and a -1 skew pulls the write off `wb(CS_MAX)`.
        let golden = flush_model();
        let plan = ExecPlan::lower(&golden);

        let mut deltas = vec![PlanDelta::default(), plan.delta_drop_tuple(0).unwrap()];
        let mut mutants = vec![golden.clone()];
        let mut m = golden.clone();
        m.remove_transfer(0).unwrap();
        mutants.push(m);

        deltas.push(plan.delta_skew_write(0, -1).unwrap());
        let mut m = golden.clone();
        let mut tuple = m.tuples()[0].clone();
        tuple.write.as_mut().unwrap().step = 1;
        m.replace_transfer_unchecked(0, tuple).unwrap();
        mutants.push(m);

        assert_lanes_match_kernel(&golden, &deltas, &mutants);
    }

    #[test]
    fn batched_sequential_module_deltas_match_solo() {
        // Re-use the initiation-interval model: dropping the second
        // transfer un-poisons the pipeline, per column.
        let golden = seq_model(true);
        let plan = ExecPlan::lower(&golden);

        let deltas = vec![PlanDelta::default(), plan.delta_drop_tuple(1).unwrap()];
        let mut mutants = vec![golden.clone()];
        let mut m = golden.clone();
        m.remove_transfer(1).unwrap();
        mutants.push(m);

        assert_lanes_match_kernel(&golden, &deltas, &mutants);
    }

    #[test]
    fn batch_spans_multiple_chunks() {
        let golden = fig1_model(3, 4);
        let plan = ExecPlan::lower(&golden);
        let deltas: Vec<PlanDelta> = (0..70)
            .map(|i| plan.delta_set_init("R2", Value::Num(i)).unwrap())
            .collect();
        let outs = plan
            .execute_batch(&deltas, &ExecOptions::default())
            .unwrap();
        assert_eq!(outs.len(), 70);
        assert_eq!(plan.register_names().collect::<Vec<_>>(), ["R1", "R2"]);
        for (i, out) in outs.iter().enumerate() {
            let i = i as i64;
            assert_eq!(out.registers, [Value::Num(3 + i), Value::Num(i)]);
        }
    }

    /// One walk state serves every chunk of a campaign: a batch of three
    /// chunks and a partial one, over-budget lanes in each, reports what
    /// each chunk reports as its own batch — at `-O0` and `-O2`,
    /// unchecked and checked.
    #[test]
    fn chunks_sharing_a_walk_state_report_what_each_reports_alone() {
        let fig1 = fig1_model(3, 4);
        // The multiplier is still busy when the walk ends: a chunk that
        // started from the state the one before it left would see its
        // pipeline poisoned.
        let mut seq = seq_model(true);
        let last = TransferTuple::new(6, "MUL")
            .src_a("R1", "B1")
            .src_b("R2", "B2");
        seq.add_transfer(last).unwrap();
        // Per golden: its budget, which a skew onto the last step's
        // write exceeds, and one delta of every edit kind.
        let fig1_plan = ExecPlan::lower(&fig1);
        let seq_plan = ExecPlan::lower(&seq);
        let cases = [
            (
                &fig1,
                &fig1_plan,
                43,
                ("R1", "R2"),
                [(0, 1), (0, -1)],
                ("B2", 5),
            ),
            (
                &seq,
                &seq_plan,
                37,
                ("R1", "R3"),
                [(1, 2), (0, 1)],
                ("B1", 2),
            ),
        ];
        for (golden, plan, budget, (stuck, init), skews, (bus, step)) in cases {
            let mut kinds = vec![
                PlanDelta::default(),
                plan.delta_set_init(stuck, Value::Disc).unwrap(),
                plan.delta_drop_tuple(0).unwrap(),
                plan.delta_extra_driver(bus, step, init).unwrap(),
            ];
            kinds.extend(skews.map(|(i, by)| plan.delta_skew_write(i, by).unwrap()));
            // Lanes differ from chunk to chunk in their inits too.
            let deltas: Vec<PlanDelta> = (0..3 * LANES + 29)
                .map(|i| {
                    let mut d = kinds[i % kinds.len()].clone();
                    let v = Value::Num(i as i64 % 13 - 6);
                    d.init_edits
                        .extend(plan.delta_set_init(init, v).unwrap().init_edits);
                    d
                })
                .collect();
            let program = golden_program(golden);
            let checks = plan.resolve_checks(&program).unwrap();
            let options = ExecOptions {
                delta_limit: Some(budget),
                ..Default::default()
            };
            for level in [OptLevel::O0, OptLevel::O2] {
                for checks in [None, Some(&checks)] {
                    let run = |deltas: &[PlanDelta]| {
                        plan.execute_lanes(deltas, &options, level.config(), checks)
                            .unwrap()
                    };
                    let whole = run(&deltas);
                    let apart: Vec<BatchOutcome> = deltas.chunks(LANES).flat_map(run).collect();
                    let what = format!("{} -O{level}, checked {}", golden.name(), checks.is_some());
                    assert_eq!(whole, apart, "{what}");
                    for chunk in whole.chunks(LANES) {
                        assert!(chunk.iter().any(|o| o.overflowed), "{what}");
                        assert!(chunk.iter().any(|o| o.first_conflict.is_some()), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn over_budget_columns_overflow_without_disturbing_the_rest() {
        let golden = fig1_model(3, 4);
        let plan = ExecPlan::lower(&golden);
        // 43 deltas golden; the +1 skew needs the flush delta (44).
        let mut skew = plan.delta_skew_write(0, 1).unwrap();
        skew.init_edits = plan.delta_set_init("R2", Value::Num(9)).unwrap().init_edits;
        let deltas = vec![PlanDelta::default(), skew];
        let opts = ExecOptions {
            delta_limit: Some(43),
            ..Default::default()
        };
        let outs = plan.execute_batch(&deltas, &opts).unwrap();
        assert!(!outs[0].overflowed);
        assert_eq!(outs[0].registers[0], Value::Num(7));
        assert!(outs[1].overflowed);
        // Nothing ran: the lane reports its initial registers, its own
        // init edits included.
        assert_eq!(plan.register_names().collect::<Vec<_>>(), ["R1", "R2"]);
        assert_eq!(outs[1].registers, [Value::Num(3), Value::Num(9)]);
        assert_eq!((outs[1].delta_cycles, outs[1].process_activations), (43, 0));
    }

    #[test]
    fn delta_constructors_reject_bad_targets() {
        let plan = ExecPlan::lower(&fig1_model(3, 4));
        assert!(plan
            .delta_set_init("R9", Value::Disc)
            .unwrap_err()
            .contains("unknown register"));
        assert!(plan
            .delta_drop_tuple(5)
            .unwrap_err()
            .contains("no transfer at index 5"));
        assert!(plan
            .delta_skew_write(0, 7)
            .unwrap_err()
            .contains("out of range"));
        assert!(plan
            .delta_extra_driver("B9", 1, "R1")
            .unwrap_err()
            .contains("unknown bus"));
        assert!(plan
            .delta_extra_driver("B1", 9, "R1")
            .unwrap_err()
            .contains("out of range"));
    }

    /// A model with two guarded transfers over registers and array
    /// elements: tuple 0 guarded by `g0`, tuple 1 by `g1` (`None` =
    /// unguarded). With the canonical guards, tuple 0 fires (R2 = 4 ≠ 0)
    /// and tuple 1 is suppressed (A[1] = 1 < 3).
    fn guarded_model(g0: Option<Guard>, g1: Option<Guard>) -> RtModel {
        let mut model = RtModel::new("guarded", 4);
        model.add_register_init("R1", Value::Num(3)).unwrap();
        model.add_register_init("R2", Value::Num(4)).unwrap();
        model.add_array("A", 2, Value::Num(1)).unwrap();
        model.add_bus("B1").unwrap();
        model.add_bus("B2").unwrap();
        model
            .add_module(ModuleDecl::single(
                "ADD",
                Op::Add,
                ModuleTiming::Pipelined { latency: 1 },
            ))
            .unwrap();
        let mut t0 = TransferTuple::new(1, "ADD")
            .src_a("R1", "B1")
            .src_b("R2", "B2")
            .write(2, "B1", "R1");
        if let Some(g) = g0 {
            t0 = t0.guard(g);
        }
        model.add_transfer(t0).unwrap();
        let mut t1 = TransferTuple::new(3, "ADD")
            .src_a("A[0]", "B1")
            .src_b("R2", "B2")
            .write(4, "B2", "A[1]");
        if let Some(g) = g1 {
            t1 = t1.guard(g);
        }
        model.add_transfer(t1).unwrap();
        model
    }

    fn canonical_guards() -> (Guard, Guard) {
        (
            Guard::parse("R2 /= 0").unwrap(),
            Guard::parse("A[1] >= 3").unwrap(),
        )
    }

    #[test]
    fn guarded_transfers_are_byte_equivalent() {
        let (g0, g1) = canonical_guards();
        let model = guarded_model(Some(g0), Some(g1));
        assert_equivalent(&model);
        let out = compiled_traced(&model);
        // The true guard fires, the false one drives DISC instead.
        assert_eq!(out.summary.register("R1"), Some(Value::Num(7)));
        assert_eq!(out.summary.register("A[1]"), Some(Value::Num(1)));
        assert!(out.summary.conflicts.as_ref().unwrap().is_clean());
        // A suppressed transfer still wakes its processes and drives its
        // slot (with DISC), so the scheduling counters are
        // guard-independent; only value-event counts may differ.
        let unguarded = guarded_model(None, None);
        assert_equivalent(&unguarded);
        let base = compiled_traced(&unguarded).summary.stats;
        let s = out.summary.stats;
        assert_eq!(base.delta_cycles, s.delta_cycles);
        assert_eq!(base.process_activations, s.process_activations);
        assert_eq!(base.wake_filter_hits, s.wake_filter_hits);
        assert_eq!(base.wake_filter_misses, s.wake_filter_misses);
        assert_eq!(
            compiled_traced(&unguarded).summary.register("A[1]"),
            Some(Value::Num(5))
        );
    }

    #[test]
    fn flipped_and_forced_guard_models_are_byte_equivalent() {
        let (g0, g1) = canonical_guards();
        let model = guarded_model(Some(g0.flipped()), Some(g1.flipped()));
        assert_equivalent(&model);
        let out = compiled_traced(&model);
        assert_eq!(out.summary.register("R1"), Some(Value::Num(3)));
        assert_eq!(out.summary.register("A[1]"), Some(Value::Num(5)));
    }

    #[test]
    fn guard_deltas_match_solo_mutant_runs() {
        let (g0, g1) = canonical_guards();
        let golden = guarded_model(Some(g0.clone()), Some(g1.clone()));
        let plan = ExecPlan::lower(&golden);
        let deltas = vec![
            PlanDelta::default(),
            plan.delta_flip_guard(0).unwrap(),
            plan.delta_flip_guard(1).unwrap(),
            plan.delta_force_guard(0).unwrap(),
            plan.delta_force_guard(1).unwrap(),
        ];
        let mutants = vec![
            golden.clone(),
            guarded_model(Some(g0.flipped()), Some(g1.clone())),
            guarded_model(Some(g0.clone()), Some(g1.flipped())),
            guarded_model(None, Some(g1.clone())),
            guarded_model(Some(g0), None),
        ];
        assert_lanes_match_kernel(&golden, &deltas, &mutants);
    }

    #[test]
    fn guard_delta_constructors_reject_bad_targets() {
        let (g0, _) = canonical_guards();
        let plan = ExecPlan::lower(&guarded_model(Some(g0), None));
        assert!(plan
            .delta_flip_guard(1)
            .unwrap_err()
            .contains("has no guard"));
        assert!(plan
            .delta_force_guard(1)
            .unwrap_err()
            .contains("has no guard"));
        assert!(plan
            .delta_flip_guard(9)
            .unwrap_err()
            .contains("no transfer at index 9"));
    }

    /// Memory exerciser: a constant-address read, a register-indirect
    /// read through `RI`, and a write (constant `M[0]` or indirect
    /// `M[RI]`). Words start at 5, `RA` = 7.
    fn memory_model(ri_init: i64, indirect_write: bool) -> RtModel {
        let mut model = RtModel::new("mem", 3);
        model.add_register_init("RA", Value::Num(7)).unwrap();
        model.add_register_init("RI", Value::Num(ri_init)).unwrap();
        model.add_register("RD").unwrap();
        model.add_register("RE").unwrap();
        model.add_memory("M", 3, Value::Num(5)).unwrap();
        model.add_bus("B1").unwrap();
        model.add_bus("B2").unwrap();
        model
            .add_module(ModuleDecl::single(
                "CP",
                Op::PassA,
                ModuleTiming::Combinational,
            ))
            .unwrap();
        model
            .add_transfer(
                TransferTuple::new(1, "CP")
                    .src_a("M[1]", "B1")
                    .write(1, "B2", "RD"),
            )
            .unwrap();
        model
            .add_transfer(
                TransferTuple::new(2, "CP")
                    .src_a("M[RI]", "B1")
                    .write(2, "B2", "RE"),
            )
            .unwrap();
        let dst = if indirect_write { "M[RI]" } else { "M[0]" };
        model
            .add_transfer(
                TransferTuple::new(3, "CP")
                    .src_a("RA", "B1")
                    .write(3, "B2", dst),
            )
            .unwrap();
        model
    }

    #[test]
    fn memory_models_are_byte_equivalent() {
        let model = memory_model(1, false);
        assert_equivalent(&model);
        let out = compiled_traced(&model);
        assert_eq!(out.summary.register("RD"), Some(Value::Num(5)));
        assert_eq!(out.summary.register("RE"), Some(Value::Num(5)));
        assert_eq!(out.summary.register("M[0]"), Some(Value::Num(7)));
        assert_eq!(out.summary.register("M[1]"), Some(Value::Num(5)));
        assert_eq!(out.summary.register("M[2]"), Some(Value::Num(5)));
        assert!(out.summary.conflicts.as_ref().unwrap().is_clean());
    }

    #[test]
    fn indirect_memory_write_is_byte_equivalent() {
        let model = memory_model(2, true);
        assert_equivalent(&model);
        let out = compiled_traced(&model);
        // The step-2 read sees the pre-write word value.
        assert_eq!(out.summary.register("RE"), Some(Value::Num(5)));
        assert_eq!(out.summary.register("M[2]"), Some(Value::Num(7)));
        assert_eq!(out.summary.register("M[0]"), Some(Value::Num(5)));
    }

    #[test]
    fn bad_memory_address_poisons_all_words_identically() {
        let model = memory_model(9, true);
        assert_equivalent(&model);
        let out = compiled_traced(&model);
        // Out-of-range read: ILLEGAL lands in RE.
        assert_eq!(out.summary.register("RE"), Some(Value::Illegal));
        // Out-of-range write: every word is poisoned.
        for w in ["M[0]", "M[1]", "M[2]"] {
            assert_eq!(out.summary.register(w), Some(Value::Illegal), "{w}");
        }
        let report = out.summary.conflicts.unwrap();
        assert!(
            report
                .conflicts
                .iter()
                .any(|c| c.site == ConflictSite::MemoryWord),
            "{report}"
        );
    }

    #[test]
    fn indirect_reads_address_their_own_memory() {
        // With two memories, an indirect read of the second must read its
        // words (init 8), not the first's (init 5).
        let mut model = RtModel::new("mems", 2);
        model.add_register_init("RI", Value::Num(1)).unwrap();
        model.add_register("RD").unwrap();
        model.add_memory("M", 2, Value::Num(5)).unwrap();
        model.add_memory("N", 2, Value::Num(8)).unwrap();
        model.add_bus("B1").unwrap();
        model.add_bus("B2").unwrap();
        model
            .add_module(ModuleDecl::single(
                "CP",
                Op::PassA,
                ModuleTiming::Combinational,
            ))
            .unwrap();
        model
            .add_transfer(
                TransferTuple::new(1, "CP")
                    .src_a("N[RI]", "B1")
                    .write(1, "B2", "RD"),
            )
            .unwrap();
        assert_equivalent(&model);
        let out = compiled_traced(&model);
        assert_eq!(out.summary.register("RD"), Some(Value::Num(8)));
    }

    #[test]
    fn memory_batch_columns_match_solo_runs() {
        // Diverging address columns exercise the chunked commit's
        // per-word store masks and the poison path side by side.
        let golden = memory_model(1, true);
        let plan = ExecPlan::lower(&golden);
        let deltas = vec![
            PlanDelta::default(),
            plan.delta_set_init("RI", Value::Num(9)).unwrap(),
            plan.delta_set_init("RI", Value::Num(0)).unwrap(),
            plan.delta_set_init("RI", Value::Disc).unwrap(),
        ];
        let mutants = vec![
            golden.clone(),
            memory_model(9, true),
            memory_model(0, true),
            {
                let mut m = memory_model(0, true);
                m.set_register_init("RI", Value::Disc).unwrap();
                m
            },
        ];
        assert_lanes_match_kernel(&golden, &deltas, &mutants);
    }

    /// The model of a spurious driver: a shadow PassA module reading
    /// `reg` onto `bus` in `step`, exactly as the model-level mutation
    /// adds it.
    fn with_spur(golden: &RtModel, bus: &str, step: Step, reg: &str) -> RtModel {
        let mut m = golden.clone();
        let spur = format!("SPUR_{bus}_{step}");
        m.add_module(ModuleDecl::single(
            &spur,
            Op::PassA,
            ModuleTiming::Combinational,
        ))
        .unwrap();
        m.add_transfer(TransferTuple::new(step, spur).src_a(reg, bus))
            .unwrap();
        m
    }

    /// The model with tuple `index`'s write-back moved by `skew` steps.
    fn with_skew(golden: &RtModel, index: usize, skew: i32) -> RtModel {
        let mut m = golden.clone();
        let mut tuple = m.tuples()[index].clone();
        let write = tuple.write.as_mut().unwrap();
        write.step = (write.step as i64 + i64::from(skew)) as Step;
        m.replace_transfer_unchecked(index, tuple).unwrap();
        m
    }

    #[test]
    fn one_lane_chunk_of_every_edit_kind_matches_the_kernel_per_pass() {
        // One chunk mixing a drop, a ±1 skew, two spurs sharing bus B1,
        // a guard flip and a guard force, walked under each single-pass
        // configuration against the kernel's mutant runs.
        let (g0, g1) = canonical_guards();
        let golden = guarded_model(Some(g0.clone()), Some(g1.clone()));
        let plan = ExecPlan::lower(&golden);
        let mut dropped = golden.clone();
        dropped.remove_transfer(1).unwrap();
        let deltas = vec![
            PlanDelta::default(),
            plan.delta_drop_tuple(1).unwrap(),
            plan.delta_skew_write(0, 1).unwrap(),
            plan.delta_skew_write(1, -1).unwrap(),
            plan.delta_extra_driver("B1", 1, "R2").unwrap(),
            plan.delta_extra_driver("B1", 3, "R1").unwrap(),
            plan.delta_flip_guard(0).unwrap(),
            plan.delta_force_guard(1).unwrap(),
        ];
        let mutants = vec![
            golden.clone(),
            dropped,
            with_skew(&golden, 0, 1),
            with_skew(&golden, 1, -1),
            with_spur(&golden, "B1", 1, "R2"),
            with_spur(&golden, "B1", 3, "R1"),
            guarded_model(Some(g0.flipped()), Some(g1.clone())),
            guarded_model(Some(g0), None),
        ];
        assert_lanes_match_kernel(&golden, &deltas, &mutants);
    }

    #[test]
    fn guard_indices_do_not_wrap_past_u16() {
        // 65,537 guarded tuples: every one but the last is disabled (R is
        // 0, not 1), the last one holds and writes K = 9 into R. A 16-bit
        // guard index would make the last tuple evaluate guard 0.
        let mut model = RtModel::new("wide", 1);
        model.add_register_init("R", Value::Num(0)).unwrap();
        model.add_register_init("K", Value::Num(9)).unwrap();
        model.add_bus("B1").unwrap();
        model.add_bus("B2").unwrap();
        model
            .add_module(ModuleDecl::single(
                "CP",
                Op::PassA,
                ModuleTiming::Combinational,
            ))
            .unwrap();
        let tuples = u16::MAX as usize + 2;
        for i in 0..tuples {
            let holds = if i + 1 == tuples { 0 } else { 1 };
            let guard = Guard::new(
                GuardOperand::Reg("R".into()),
                CmpOp::Eq,
                GuardOperand::Const(holds),
            );
            model
                .add_transfer(
                    TransferTuple::new(1, "CP")
                        .src_a("K", "B1")
                        .write(1, "B2", "R")
                        .guard(guard),
                )
                .unwrap();
        }
        let plan = ExecPlan::lower(&model);
        for level in crate::OptLevel::ALL {
            let options = ExecOptions::default().at_opt(level);
            let out = plan.execute(&options).unwrap();
            assert_eq!(out.summary.register("R"), Some(Value::Num(9)), "-O{level}");
            let lanes = plan
                .execute_batch(&[PlanDelta::default()], &options)
                .unwrap();
            assert_eq!(plan.register_names().next().as_deref(), Some("R"));
            assert_eq!(lanes[0].registers[0], Value::Num(9), "-O{level}");
        }
    }
}
