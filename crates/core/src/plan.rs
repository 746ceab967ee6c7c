//! Lowering elaborated models to a compiled phase-schedule plan.
//!
//! The paper's six-phase discipline makes clock-free RT models *statically
//! schedulable*: every transfer process is active at exactly one
//! `(step, phase)` slot, the controller's trajectory is fixed, and a run
//! costs exactly `1 + CS_MAX × 6` delta cycles (plus one trailing flush
//! delta when the last step commits a register). The interpreted kernel
//! discovers that schedule dynamically through sensitivity lists and wake
//! filters; [`ExecPlan::lower`] instead precomputes it as one flat array
//! of straight-line [`Action`]s with per-`(step, phase)` offsets, and
//! [`ExecPlan::execute`] walks it in a fixed number of iterations with no
//! event machinery at all.
//!
//! The walk is *observationally identical* to the interpreted kernel:
//! same final registers, same trace events in the same order (hence the
//! same VCD, commit log and conflict diagnoses — step and phase included)
//! and the same [`SimStats`]. Counters the compiled engine has no dynamic
//! equivalent for (process activations, wake-filter hits and misses, peak
//! runnable) are derived from the schedule in closed form; the rest
//! (events, driver updates, pending-update peaks) are counted during the
//! walk. `clockless-verify`'s `backend_equiv` asserts the byte-level
//! agreement over the whole corpus.
//!
//! Lowering costs time linear in the transfer specs plus the actions it
//! emits. Specs are bucketed by step once, and the **live-commit rule**
//! keeps dead actions out of the schedule: a register or memory commit is
//! emitted at `cr(s)` only when some spec of step `s` drives its input
//! port. Any other commit would read a `DISC` port and push nothing, so
//! leaving it out changes no observable at any optimization level.
//!
//! [`ExecPlan::static_conflicts`] is a **static conflict pre-pass**, run
//! on request: two [`Action::Assert`]s landing in the same slot of the
//! same resolved signal are reported as a [`StaticConflict`] *before*
//! anything runs. This is a conservative *potential*-conflict diagnostic —
//! at run time one of the colliding transfers may read `DISC` and resolve
//! cleanly — so the dynamic `ILLEGAL` events remain the ground truth the
//! paper describes.

use std::collections::VecDeque;
use std::sync::Arc;

use clockless_kernel::{KernelError, SignalId, SimStats, SimTime, Trace};

use crate::backend::{BatchOutcome, ExecOptions, ExecOutcome};
use crate::check::{CheckEval, CheckIndex, CheckProgram, SignalKind};
use crate::diag::{Conflict, ConflictSite};
use crate::elaborate::SignalRole;
use crate::model::RtModel;
use crate::op::Op;
use crate::phase::{Phase, PhaseTime, Step};
use crate::resource::ModuleTiming;
use crate::run::{RunSummary, Waveform};
use crate::tuples::{CmpOp, Endpoint, Guard, GuardOperand, MemAddr};
use crate::value::{DriverTally, Value};

/// Where an [`Action::Assert`] takes its value from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Read the signal with this dense index at execution time.
    Signal(usize),
    /// Drive a constant (operation-select transfers carry the operation
    /// code as a literal; memory-write address transfers carry constant
    /// addresses the same way).
    Const(Value),
    /// Register-indirect memory-word read: take the address from signal
    /// `addr` at execution time and read word `base + addr`. A `DISC`,
    /// `ILLEGAL` or out-of-range address reads `ILLEGAL`.
    MemRead {
        /// Dense index of the addressing register's output signal.
        addr: usize,
        /// Dense index of the memory's word 0 (words are contiguous).
        base: usize,
        /// Number of words.
        len: u32,
    },
}

/// One straight-line step of the compiled schedule.
///
/// Actions never block and never wait: each one reads current signal
/// values and schedules driver updates for the *next* delta cycle,
/// exactly as the corresponding kernel process resumption would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Controller assignment: schedule `value` on the single driver of a
    /// control signal (`CS` or `PH`).
    Control {
        /// Dense index of the control signal.
        sig: usize,
        /// The value to schedule.
        value: Value,
    },
    /// Transfer assert: read `src` now and schedule it on driver `slot`
    /// of `dst`. A guarded assert first evaluates its guard over current
    /// register values and drives `DISC` when disabled — the driver
    /// update still happens, so statistics stay guard-independent.
    Assert {
        /// The value source.
        src: Source,
        /// Dense index of the driven signal.
        dst: usize,
        /// The transfer's driver slot on `dst`.
        slot: usize,
        /// Index into the plan's guard table, when the transfer is
        /// conditional.
        guard: Option<u16>,
    },
    /// Transfer release: schedule `DISC` on driver `slot` of `dst`.
    Release {
        /// Dense index of the driven signal.
        dst: usize,
        /// The transfer's driver slot on `dst`.
        slot: usize,
    },
    /// Module evaluation (the `cm` body): combine the operand ports,
    /// advance the latency pipeline and schedule the output port.
    Eval {
        /// Dense index into the plan's module table.
        module: usize,
    },
    /// Register commit (the `cr` body): schedule the input port's value
    /// on the output unless it is `DISC`.
    Commit {
        /// Dense index into the plan's register table.
        reg: usize,
    },
    /// Memory commit (the `cr` body): when the write-value port is
    /// non-`DISC`, store it at the write-address port's word — or poison
    /// every word `ILLEGAL` when the address is not a regular number in
    /// range.
    CommitMem {
        /// Dense index into the plan's memory table.
        mem: usize,
    },
}

/// A [`CheckProgram`] resolved against one plan's dense signal table —
/// the precomputed handle [`ExecPlan::execute_batch_checked`] consumes,
/// built once per campaign by [`ExecPlan::resolve_checks`].
#[derive(Debug, Clone)]
pub struct PlanChecks {
    /// Dense signal index of each program signal, in program order.
    sigs: Vec<usize>,
    /// The program indices of each dense signal (usually none or one).
    watch: Vec<Vec<usize>>,
    /// The program itself (owned so the handle is self-contained).
    program: CheckProgram,
    /// The program's event-driven lookups.
    index: CheckIndex,
}

/// A multiply driven slot found by the static conflict pre-pass.
///
/// Two or more transfers assert the same resolved signal in the same
/// `(step, phase)` slot. This is a *potential* conflict: it becomes the
/// paper's observable `ILLEGAL` only if at least two of the colliding
/// sources carry non-`DISC` values at run time, in which case the
/// `ILLEGAL` value is visible from the phase *after* `at`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticConflict {
    /// Name of the multiply driven resource.
    pub name: String,
    /// Kind of resource.
    pub site: ConflictSite,
    /// The slot whose schedule drives the resource more than once.
    pub at: PhaseTime,
    /// How many drives the slot schedules.
    pub drivers: usize,
}

impl std::fmt::Display for StaticConflict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} `{}` driven {} times at {}",
            self.site, self.name, self.drivers, self.at
        )
    }
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
    pub(crate) fn eval(&self, mut read: impl FnMut(usize) -> Value) -> bool {
        let conj = self.clauses.iter().all(|&(lhs, cmp, rhs)| {
            let mut side = |s: GuardSig| match s {
                GuardSig::Sig(i) => read(i).num(),
                GuardSig::Const(v) => Some(v),
            };
            match (side(lhs), side(rhs)) {
                (Some(a), Some(b)) => cmp.holds(a, b),
                _ => false,
            }
        });
        conj != self.negated
    }

    fn flipped(&self) -> PlanGuard {
        PlanGuard {
            negated: !self.negated,
            clauses: self.clauses.clone(),
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
    pub(crate) src: Source,
    pub(crate) dst: usize,
    pub(crate) slot: usize,
    pub(crate) guard: Option<u16>,
}

/// A spurious extra bus driver expressed at plan level: the batched
/// executor materializes it as a shadow combinational module (the same
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
/// [`execute`](ExecPlan::execute). Slot `(s, p)` holds the straight-line
/// actions the kernel's runnable set would perform in the delta cycle of
/// step `s`, phase `p` — in the kernel's exact execution order, so driver
/// updates (and therefore events, traces and conflict diagnoses) come out
/// byte-identical.
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
    /// The schedule, flat: delta `d` runs `actions[bounds[d]..bounds[d +
    /// 1]]`. Delta 0 is initialization; delta `(s-1)*6 + p.index() + 1`
    /// is step `s`, phase `p`. The trailing flush delta has no actions.
    pub(crate) actions: Vec<Action>,
    pub(crate) bounds: Vec<u32>,
    /// How many specs assert at `wb(CS_MAX)`. A trailing flush delta
    /// follows `cr(CS_MAX)` exactly when there is one: its commit and
    /// release are still pending after the last scheduled phase.
    pub(crate) last_writes: u64,
    /// Lowered transfer specs in attachment order (the source of the
    /// schedule), kept so plan deltas can edit it.
    pub(crate) specs: Vec<LoweredSpec>,
    /// `spec_tuple[i]` maps spec `i` back to its source tuple index.
    pub(crate) spec_tuple: Vec<usize>,
    /// Number of transfer tuples in the source model.
    pub(crate) tuple_count: usize,
    /// Analytic stats derived from the schedule (see module docs).
    pub(crate) process_count: u64,
    pub(crate) activations: u64,
    pub(crate) wake_hits: u64,
    pub(crate) wake_misses: u64,
}

impl ExecPlan {
    /// Lowers a validated model into its compiled plan.
    ///
    /// Costs time linear in the transfer specs plus the emitted actions:
    /// specs are bucketed by step once, and commits follow the
    /// live-commit rule (see the module docs).
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
                let gi = guards.len() as u16;
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
                        Source::Const(Value::Num(idx as i64))
                    }
                    Endpoint::ConstVal(v) => Source::Const(Value::Num(*v)),
                    Endpoint::MemWord {
                        mem,
                        addr: MemAddr::Reg(r),
                    } => {
                        let mid = model
                            .memory_by_name(mem)
                            .expect("validated tuple references known memory");
                        let pm = &mems[mid.0 as usize];
                        let rid = model
                            .register_by_name(r)
                            .expect("validated tuple indexes with known register");
                        Source::MemRead {
                            addr: regs[rid.0 as usize].output,
                            base: pm.words[0],
                            len: pm.words.len() as u32,
                        }
                    }
                    other => Source::Signal(
                        index_of(other).expect("validated tuple references known resources"),
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

        // Bucket the specs by step once (a counting sort, declaration
        // order kept within each step): `bucket[first[s]..first[s + 1]]`
        // are the spec indices of step `s`. Specs outside `1..=CS_MAX`
        // never run and are left out.
        let steps = cs_max as usize;
        let in_schedule = |sp: &LoweredSpec| (1..=cs_max).contains(&sp.step);
        let mut first = vec![0usize; steps + 2];
        for sp in specs.iter().filter(|sp| in_schedule(sp)) {
            first[sp.step as usize + 1] += 1;
        }
        for s in 1..first.len() {
            first[s] += first[s - 1];
        }
        let mut bucket = vec![0usize; first[steps + 1]];
        let mut fill = first.clone();
        for (i, sp) in specs.iter().enumerate().filter(|(_, sp)| in_schedule(sp)) {
            bucket[fill[sp.step as usize]] = i;
            fill[sp.step as usize] += 1;
        }

        // The schedule: for each delta of each step, the actions in the
        // kernel's runnable-set order (derived from waiter-list and wake
        // positions; see ARCHITECTURE.md "Two engines, one semantics").
        let mut actions: Vec<Action> =
            Vec::with_capacity(steps * (Phase::ALL.len() + 2 + modules.len()) + 2 * specs.len());
        let mut bounds: Vec<u32> = Vec::with_capacity(steps * Phase::ALL.len() + 2);
        bounds.push(0);
        let ph_to = |p: Phase| Action::Control {
            sig: ph,
            value: Value::Num(p.index() as i64),
        };
        let assert_of = |sp: &LoweredSpec| Action::Assert {
            src: sp.src,
            dst: sp.dst,
            slot: sp.slot,
            guard: sp.guard,
        };
        let release_of = |sp: &LoweredSpec| Action::Release {
            dst: sp.dst,
            slot: sp.slot,
        };
        if cs_max >= 1 {
            actions.push(Action::Control {
                sig: cs,
                value: Value::Num(1),
            });
            actions.push(ph_to(Phase::Ra));
        }
        bounds.push(actions.len() as u32);
        let mut live = Vec::new();
        for s in 1..=cs_max {
            let here = &bucket[first[s as usize]..first[s as usize + 1]];
            let step_specs = || here.iter().map(|&i| &specs[i]);
            let phase = |p: Phase| step_specs().filter(move |sp| sp.phase == p);

            // ra: step specs wake before the controller (CS is processed
            // before PH in the wake queue). Only Ra specs assert here.
            actions.extend(phase(Phase::Ra).map(assert_of));
            actions.push(ph_to(Phase::Rb));
            bounds.push(actions.len() as u32);

            // rb: controller first, then Ra releases / Rb asserts
            // interleaved in declaration order (both re-registered at the
            // end of PH's waiter list during ra).
            actions.push(ph_to(Phase::Cm));
            for sp in step_specs() {
                match sp.phase {
                    Phase::Ra => actions.push(release_of(sp)),
                    Phase::Rb => actions.push(assert_of(sp)),
                    _ => {}
                }
            }
            bounds.push(actions.len() as u32);

            // cm: controller, all modules (original waiter positions),
            // then Rb releases.
            actions.push(ph_to(Phase::Wa));
            actions.extend((0..modules.len()).map(|module| Action::Eval { module }));
            actions.extend(phase(Phase::Rb).map(release_of));
            bounds.push(actions.len() as u32);

            // wa: controller, then Wa asserts.
            actions.push(ph_to(Phase::Wb));
            actions.extend(phase(Phase::Wa).map(assert_of));
            bounds.push(actions.len() as u32);

            // wb: controller, Wb asserts (original positions), then Wa
            // releases (re-registered at the end during wa).
            actions.push(ph_to(Phase::Cr));
            actions.extend(phase(Phase::Wb).map(assert_of));
            actions.extend(phase(Phase::Wa).map(release_of));
            bounds.push(actions.len() as u32);

            // cr: controller advances (CS before PH, matching its push
            // order; nothing on the last step), live registers and
            // memories commit, then Wb releases.
            if s < cs_max {
                actions.push(Action::Control {
                    sig: cs,
                    value: Value::Num(s as i64 + 1),
                });
                actions.push(ph_to(Phase::Ra));
            }
            live_commits(&sinks, step_specs().map(|sp| sp.dst), &mut live, |a| {
                actions.push(a)
            });
            actions.extend(phase(Phase::Wb).map(release_of));
            bounds.push(actions.len() as u32);
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
            actions,
            bounds,
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

    /// The statically detected multiply driven slots (see
    /// [`StaticConflict`]), in slot order then first-drive order. Computed
    /// from the schedule on each call.
    pub fn static_conflicts(&self) -> Vec<StaticConflict> {
        let mut found = Vec::new();
        for d in 1..self.bounds.len() - 1 {
            let mut counts: Vec<(usize, usize)> = Vec::new();
            for action in self.delta_actions(d) {
                if let Action::Assert { dst, .. } = action {
                    match counts.iter_mut().find(|(d, _)| d == dst) {
                        Some((_, n)) => *n += 1,
                        None => counts.push((*dst, 1)),
                    }
                }
            }
            for (dst, n) in counts.into_iter().filter(|&(_, n)| n > 1) {
                let Some((site, name)) = self.roles[dst].conflict_site() else {
                    continue;
                };
                found.push(StaticConflict {
                    name,
                    site,
                    at: PhaseTime::from_active_delta(d as u64)
                        .expect("slot deltas are active by construction"),
                    drivers: n,
                });
            }
        }
        found
    }

    /// The scheduled actions of one `(step, phase)` slot, or `None` when
    /// `step` is outside `1..=CS_MAX`.
    pub fn actions(&self, step: Step, phase: Phase) -> Option<&[Action]> {
        if step < 1 || step > self.cs_max {
            return None;
        }
        let d = (step as usize - 1) * Phase::ALL.len() + phase.index() as usize + 1;
        Some(self.delta_actions(d))
    }

    /// The actions of delta `d`: initialization at 0, then one slot per
    /// `(step, phase)`; empty for the trailing flush delta.
    pub(crate) fn delta_actions(&self, d: usize) -> &[Action] {
        match (self.bounds.get(d), self.bounds.get(d + 1)) {
            (Some(&lo), Some(&hi)) => &self.actions[lo as usize..hi as usize],
            _ => &[],
        }
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

    /// The run summary and waveform of a finished walk: final register
    /// and memory-word values, and on traced runs the conflict report
    /// (extracted now, since every report prints it) plus the recording.
    pub(crate) fn outcome(
        &self,
        values: &[Value],
        stats: SimStats,
        trace: Option<Trace<Value>>,
    ) -> ExecOutcome {
        let mut registers: Vec<(String, Value)> = self
            .regs
            .iter()
            .map(|r| (r.name.clone(), values[r.output]))
            .collect();
        for m in &self.mems {
            for &w in &m.words {
                registers.push((self.roles[w].signal_name(), values[w]));
            }
        }
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

    /// Walks the plan and harvests the observable output.
    ///
    /// # Errors
    ///
    /// [`KernelError::DeltaOverflow`] when [`total_deltas`](Self::total_deltas)
    /// exceeds the delta budget (diagnosed up front — the schedule length
    /// is static), [`KernelError::WallBudgetExceeded`] when the deadline
    /// passes mid-walk.
    pub fn execute(&self, options: &ExecOptions) -> Result<ExecOutcome, KernelError> {
        let delta_limit = options.delta_limit.unwrap_or(100_000_000);
        let needed = self.total_deltas();
        if needed > delta_limit {
            return Err(KernelError::DeltaOverflow {
                at: SimTime {
                    fs: 0,
                    delta: delta_limit,
                },
                limit: delta_limit,
            });
        }

        let mut values: Vec<Value> = self.signals.iter().map(|s| s.init).collect();
        // The generic walk resolves every resolved signal, through its
        // tally.
        let layout = DriverLayout::new(self.signals.iter().map(|s| (s.resolved, s.drivers)), false);
        let mut drivers = layout.state(1);
        let mut pipes: Vec<VecDeque<Value>> = self
            .modules
            .iter()
            .map(|m| VecDeque::from(vec![Value::Disc; m.timing.latency() as usize]))
            .collect();
        let mut busy: Vec<u32> = vec![0; self.modules.len()];

        let mut trace: Option<Trace<Value>> = options.trace.then(|| self.initial_trace());

        let mut stats = SimStats {
            process_activations: self.activations,
            wake_filter_hits: self.wake_hits,
            wake_filter_misses: self.wake_misses,
            // The initialization delta runs every process at once — the
            // high-water mark of the whole run.
            peak_runnable: self.process_count,
            ..SimStats::default()
        };

        let mut pending: Vec<(usize, usize, Value)> = Vec::new();
        for d in 0..needed {
            stats.peak_pending_updates = stats.peak_pending_updates.max(pending.len() as u64);

            // Update phase: apply scheduled driver transactions in push
            // order, recomputing effective values one transaction at a
            // time (two drives of one signal in one delta each produce
            // their own event, exactly like the kernel).
            let updates = std::mem::take(&mut pending);
            for (sig, slot, value) in updates {
                stats.driver_updates += 1;
                let effective = if layout.tallied(sig) {
                    drivers.drive(sig, slot, 0, value)
                } else {
                    value
                };
                if effective != values[sig] {
                    values[sig] = effective;
                    stats.events += 1;
                    if let Some(t) = &mut trace {
                        t.push(
                            SimTime { fs: 0, delta: d },
                            SignalId::from_index(sig),
                            effective,
                        );
                    }
                }
            }

            // Run phase: the slot's straight-line actions (none in the
            // trailing flush delta: updates only).
            for &action in self.delta_actions(d as usize) {
                match action {
                    Action::Control { sig, value } => pending.push((sig, 0, value)),
                    Action::Assert {
                        src,
                        dst,
                        slot,
                        guard,
                    } => {
                        let enabled =
                            guard.is_none_or(|gi| self.guards[gi as usize].eval(|s| values[s]));
                        let v = if !enabled {
                            Value::Disc
                        } else {
                            match src {
                                Source::Signal(s) => values[s],
                                Source::Const(v) => v,
                                Source::MemRead { addr, base, len } => match values[addr].num() {
                                    Some(a) if (0..i64::from(len)).contains(&a) => {
                                        values[base + a as usize]
                                    }
                                    _ => Value::Illegal,
                                },
                            }
                        };
                        pending.push((dst, slot, v));
                    }
                    Action::Release { dst, slot } => pending.push((dst, slot, Value::Disc)),
                    Action::Eval { module } => {
                        let m = &self.modules[module];
                        let mut result = combine(
                            values[m.in1],
                            values[m.in2],
                            m.op.map(|p| values[p]),
                            &m.ops,
                        );
                        if let ModuleTiming::Sequential { latency } = m.timing {
                            if busy[module] > 0 {
                                busy[module] -= 1;
                                if result != Value::Disc {
                                    // Initiation-interval violation:
                                    // poison the whole pipeline.
                                    result = Value::Illegal;
                                    for v in pipes[module].iter_mut() {
                                        *v = Value::Illegal;
                                    }
                                }
                            } else if result != Value::Disc {
                                busy[module] = latency.saturating_sub(1);
                            }
                        }
                        let pipe = &mut pipes[module];
                        match pipe.pop_front() {
                            None => pending.push((m.out, 0, result)),
                            Some(due) => {
                                pending.push((m.out, 0, due));
                                pipe.push_back(result);
                            }
                        }
                    }
                    Action::Commit { reg } => {
                        let r = &self.regs[reg];
                        let v = values[r.input];
                        if v != Value::Disc {
                            pending.push((r.output, 0, v));
                        }
                    }
                    Action::CommitMem { mem } => {
                        let m = &self.mems[mem];
                        let v = values[m.win];
                        if v != Value::Disc {
                            match values[m.waddr].num() {
                                Some(a) if (0..m.words.len() as i64).contains(&a) => {
                                    pending.push((m.words[a as usize], 0, v));
                                }
                                _ => {
                                    for &w in &m.words {
                                        pending.push((w, 0, Value::Illegal));
                                    }
                                }
                            }
                        }
                    }
                }
            }

            if let Some(deadline) = options.deadline {
                if std::time::Instant::now() >= deadline {
                    return Err(KernelError::WallBudgetExceeded {
                        at: SimTime {
                            fs: 0,
                            delta: d + 1,
                        },
                    });
                }
            }
        }
        stats.delta_cycles = needed;
        Ok(self.outcome(&values, stats, trace))
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
    /// Mutants run in chunks of up to 64 columns over
    /// structure-of-arrays state: one merged schedule whose actions carry
    /// per-column bit masks, one value/driver column per mutant. Each
    /// column's observables — final registers, first conflict, kernel
    /// counters — are identical to lowering and executing that mutant's
    /// model on its own (`clockless-verify` pins this differentially
    /// against the legacy per-mutant path).
    ///
    /// A column whose schedule exceeds `options.delta_limit` is latched
    /// as [`BatchOutcome::overflowed`] up front (the schedule length is
    /// static, exactly as in [`execute`](Self::execute)) and drops out
    /// without disturbing the other columns. Tracing is not supported;
    /// `options.trace` is ignored.
    ///
    /// `options.opt` gates the same stream specializations the solo
    /// compiled backend gets from [`crate::OptPlan`] — single-driver
    /// resolution bypass, folded control pushes, dead-spur elimination —
    /// re-derived on each chunk's merged mutant schedule. Elided work is
    /// re-credited to the per-column counters, so outcomes stay
    /// byte-identical at every level.
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
        let mut out = Vec::with_capacity(deltas.len());
        for chunk in deltas.chunks(BATCH_WIDTH) {
            self.execute_chunk(chunk, options, None, &mut out)?;
        }
        Ok(out)
    }

    /// Resolves a [`CheckProgram`]'s signal references against this
    /// plan's dense signal table, producing the handle
    /// [`execute_batch_checked`](Self::execute_batch_checked) consumes.
    ///
    /// # Errors
    ///
    /// A message naming the first signal the plan does not have.
    pub fn resolve_checks(&self, program: &CheckProgram) -> Result<PlanChecks, String> {
        let sigs = program
            .signals
            .iter()
            .map(|s| {
                self.roles
                    .iter()
                    .position(|role| match (&s.kind, role) {
                        (SignalKind::Register, SignalRole::RegOut(n)) => *n == s.name,
                        (SignalKind::MemoryWord, SignalRole::MemWord { mem, index }) => {
                            SignalRole::mem_word_name(mem, *index) == s.name
                        }
                        (SignalKind::Bus, SignalRole::Bus(n)) => *n == s.name,
                        _ => false,
                    })
                    .ok_or_else(|| format!("unknown {} `{}`", s.kind, s.name))
            })
            .collect::<Result<Vec<usize>, String>>()?;
        let mut watch = vec![Vec::new(); self.signals.len()];
        for (i, &s) in sigs.iter().enumerate() {
            watch[s].push(i);
        }
        Ok(PlanChecks {
            sigs,
            watch,
            program: program.clone(),
            index: CheckIndex::new(program),
        })
    }

    /// [`execute_batch`](Self::execute_batch) with value checkers: after
    /// every column's update phase the monitored signals that changed
    /// are fed to a per-column [`CheckEval`], so each [`BatchOutcome`]
    /// additionally carries the first monitor/invariant violation.
    /// Overflowed columns never run and report no verdict (`check:
    /// None`).
    ///
    /// # Errors
    ///
    /// [`KernelError::WallBudgetExceeded`] when `options.deadline` passes
    /// mid-walk.
    pub fn execute_batch_checked(
        &self,
        deltas: &[PlanDelta],
        options: &ExecOptions,
        checks: &PlanChecks,
    ) -> Result<Vec<BatchOutcome>, KernelError> {
        let mut out = Vec::with_capacity(deltas.len());
        for chunk in deltas.chunks(BATCH_WIDTH) {
            self.execute_chunk(chunk, options, Some(checks), &mut out)?;
        }
        Ok(out)
    }

    /// One mutant's delta count and closed-form kernel counters, derived
    /// from the golden plan's in O(edits): a dropped spec takes its
    /// [`spec_counts`] share away, a re-stepped one moves it, and a spur
    /// adds one fixed process (the shadow module) plus its two specs.
    /// Guard edits leave the schedule shape, and so the counters, alone.
    fn lane_schedule(&self, d: &PlanDelta) -> (u64, SimStats) {
        let cs_max = self.cs_max;
        let steps = cs_max as u64;
        let last = |step: Step, phase: Phase| u64::from(is_last_write(cs_max, step, phase));
        let mut activations = self.activations;
        let mut hits = self.wake_hits;
        let mut procs = self.process_count;
        let mut last_writes = self.last_writes;
        for &i in &d.disabled_specs {
            let sp = &self.specs[i];
            let (a, h) = spec_counts(cs_max, sp.step, sp.phase);
            activations -= a;
            hits -= h;
            procs -= 1;
            last_writes -= last(sp.step, sp.phase);
        }
        for &(i, step) in &d.moved_specs {
            let sp = &self.specs[i];
            let (a, h) = spec_counts(cs_max, sp.step, sp.phase);
            let (a2, h2) = spec_counts(cs_max, step, sp.phase);
            activations = activations + a2 - a;
            hits = hits + h2 - h;
            last_writes = last_writes + last(step, sp.phase) - last(sp.step, sp.phase);
        }
        if let Some(spur) = &d.spur {
            let (ra, rh) = spec_counts(cs_max, spur.step, Phase::Ra);
            let (ba, bh) = spec_counts(cs_max, spur.step, Phase::Rb);
            activations += 1 + steps + ra + ba;
            hits += steps + rh + bh;
            procs += 3;
        }
        let stats = SimStats {
            process_activations: activations,
            wake_filter_hits: hits,
            wake_filter_misses: self.wake_misses,
            peak_runnable: procs,
            ..SimStats::default()
        };
        (schedule_deltas(cs_max, last_writes), stats)
    }

    /// Runs one chunk of up to [`BATCH_WIDTH`] columns to completion.
    fn execute_chunk(
        &self,
        chunk: &[PlanDelta],
        options: &ExecOptions,
        checks: Option<&PlanChecks>,
        out: &mut Vec<BatchOutcome>,
    ) -> Result<(), KernelError> {
        let n = chunk.len();
        let bit = |c: usize| 1u64 << c;
        let cfg = options.opt.config();
        let delta_limit = options.delta_limit.unwrap_or(100_000_000);

        // Per-column schedule summary, derived from the golden plan's in
        // O(edits). The budget precheck mirrors `execute`: an over-budget
        // column never runs at all.
        let mut needed = vec![0u64; n];
        let mut col_stats = vec![SimStats::default(); n];
        let mut overflow = vec![false; n];
        let mut full: u64 = 0;
        for (c, d) in chunk.iter().enumerate() {
            let (deltas, stats) = self.lane_schedule(d);
            needed[c] = deltas;
            if deltas > delta_limit {
                overflow[c] = true;
                col_stats[c] = SimStats {
                    delta_cycles: delta_limit,
                    ..SimStats::default()
                };
                continue;
            }
            col_stats[c] = stats;
            full |= bit(c);
        }

        // Shadow spur signals: three per chunk (in1, in2, out), shared by
        // every spur column; per-column conflict names live in the delta.
        let spur_cols: Vec<(usize, &PlanSpur)> = chunk
            .iter()
            .enumerate()
            .filter(|&(c, _)| full & bit(c) != 0)
            .filter_map(|(c, d)| d.spur.as_ref().map(|s| (c, s)))
            .collect();
        let any_spur = !spur_cols.is_empty();
        let spur_mask = spur_cols.iter().fold(0u64, |m, &(c, _)| m | bit(c));
        let s0 = self.signals.len();
        let (spur_in1, spur_out) = (s0, s0 + 2);
        let sig_count = s0 + if any_spur { 3 } else { 0 };

        // Driver-slot layout: golden counts plus one shared extra slot
        // per spur-driven bus. Columns that never drive a slot leave it
        // `DISC`, which resolution ignores — the reason the golden layout
        // can serve every mutant. Slots and tallies exist per (tallied
        // signal, column) only; under `specialize` a single-slot resolved
        // signal stores directly (a spur-driven bus grows an extra
        // chunk-local slot, which keeps it tallied).
        let mut slot_count: Vec<usize> = self.signals.iter().map(|s| s.drivers).collect();
        let mut spur_bus_slot: Vec<(usize, usize)> = Vec::new();
        for &(_, spur) in &spur_cols {
            if !spur_bus_slot.iter().any(|&(b, _)| b == spur.bus) {
                spur_bus_slot.push((spur.bus, slot_count[spur.bus]));
                slot_count[spur.bus] += 1;
            }
        }
        let bus_slot = |bus: usize| -> usize {
            spur_bus_slot
                .iter()
                .find(|&&(b, _)| b == bus)
                .map(|&(_, s)| s)
                .expect("spur bus has an allocated slot")
        };
        if any_spur {
            slot_count.push(1); // spur in1: driven by the Rb spec
            slot_count.push(0); // spur in2: never driven (stays DISC)
            slot_count.push(1); // spur out: driven by the module proc
        }
        let resolved = |sig: usize| {
            if sig < s0 {
                self.signals[sig].resolved
            } else {
                sig != spur_out
            }
        };
        let layout = DriverLayout::new(
            (0..sig_count).map(|sig| (resolved(sig), slot_count[sig])),
            cfg.specialize,
        );
        let mut drivers = layout.state(n);

        // SoA values, `values[sig * n + col]`, starting at each column's
        // initial signal values.
        let mut values: Vec<Value> = self
            .signals
            .iter()
            .flat_map(|s| std::iter::repeat_n(s.init, n))
            .collect();
        values.resize(sig_count * n, Value::Disc);
        for (c, d) in chunk.iter().enumerate() {
            for &(sig, v) in &d.init_edits {
                values[sig * n + c] = v;
            }
        }

        // Per-column module state (golden modules plus the shadow spur,
        // a combinational PassA with an empty pipeline).
        let spur_ops = [Op::PassA];
        let mod_count = self.modules.len() + usize::from(any_spur);
        let module_view = |m: usize| -> (usize, usize, Option<usize>, usize, &[Op], ModuleTiming) {
            if let Some(pm) = self.modules.get(m) {
                (pm.in1, pm.in2, pm.op, pm.out, pm.ops.as_slice(), pm.timing)
            } else {
                (
                    spur_in1,
                    spur_in1 + 1,
                    None,
                    spur_out,
                    &spur_ops,
                    ModuleTiming::Combinational,
                )
            }
        };
        let mut pipes: Vec<VecDeque<Value>> = Vec::with_capacity(mod_count * n);
        for m in &self.modules {
            for _ in 0..n {
                pipes.push(VecDeque::from(vec![
                    Value::Disc;
                    m.timing.latency() as usize
                ]));
            }
        }
        if any_spur {
            pipes.resize_with(mod_count * n, VecDeque::new);
        }
        let mut busy: Vec<u32> = vec![0; mod_count * n];

        // Merged schedule: per-step spec activity as `(spec index,
        // column mask)` — golden placement minus per-column drops and
        // moves, plus moved-in specs — sorted by spec index. Spec order
        // is preserved by every mutation (drops remove, skews re-step,
        // spurs append last), so each column's mask-filtered view is
        // exactly its own mutant's action order.
        let mut clear: Vec<u64> = vec![0; self.specs.len()];
        let mut moved_in: Vec<(usize, Step, u64)> = Vec::new();
        for (c, d) in chunk.iter().enumerate() {
            if full & bit(c) == 0 {
                continue;
            }
            for &i in &d.disabled_specs {
                clear[i] |= bit(c);
            }
            for &(i, step) in &d.moved_specs {
                clear[i] |= bit(c);
                moved_in.push((i, step, bit(c)));
            }
        }
        let mut by_step: Vec<Vec<(usize, u64)>> = vec![Vec::new(); self.cs_max as usize + 1];
        for (i, sp) in self.specs.iter().enumerate() {
            if !(1..=self.cs_max).contains(&sp.step) {
                continue;
            }
            let m = full & !clear[i];
            if m != 0 {
                by_step[sp.step as usize].push((i, m));
            }
        }
        for (i, step, m) in moved_in {
            by_step[step as usize].push((i, m));
        }
        for v in &mut by_step {
            v.sort_by_key(|&(i, _)| i);
        }

        // Guard-fault overrides: per-spec column masks for flipped and
        // forced guards, plus a chunk-local guard table extended with the
        // flipped variants. Guard edits leave the schedule shape (and
        // therefore the analytic stats) untouched — a disabled transfer
        // still asserts, it just drives `DISC`.
        let mut flip_mask = vec![0u64; self.specs.len()];
        let mut force_mask = vec![0u64; self.specs.len()];
        for (c, d) in chunk.iter().enumerate() {
            if full & bit(c) == 0 {
                continue;
            }
            for &i in &d.forced_specs {
                force_mask[i] |= bit(c);
            }
            for &i in &d.flipped_specs {
                flip_mask[i] |= bit(c);
            }
        }
        for (fm, om) in flip_mask.iter_mut().zip(&force_mask) {
            *fm &= !om; // force wins when combined
        }
        let mut chunk_guards: Vec<PlanGuard> = self.guards.clone();
        let mut flip_of: Vec<Option<u16>> = vec![None; self.guards.len()];
        for (sp, &mask) in self.specs.iter().zip(&flip_mask) {
            if mask != 0 {
                let gi = sp.guard.expect("flipped spec has a guard") as usize;
                if flip_of[gi].is_none() {
                    flip_of[gi] = Some(chunk_guards.len() as u16);
                    let flipped = chunk_guards[gi].flipped();
                    chunk_guards.push(flipped);
                }
            }
        }
        // Pushes a spec's assert, split into base / flipped / forced
        // entries by the per-column override masks. Within any single
        // column exactly one variant is active, so per-column action
        // order is preserved.
        let push_assert = |vec: &mut Vec<(Action, u64)>, i: usize, m: u64| {
            let sp = self.specs[i];
            let assert = |guard: Option<u16>| Action::Assert {
                src: sp.src,
                dst: sp.dst,
                slot: sp.slot,
                guard,
            };
            let fm = m & flip_mask[i];
            let om = m & force_mask[i];
            let bm = m & !(fm | om);
            if bm != 0 {
                vec.push((assert(sp.guard), bm));
            }
            if fm != 0 {
                let gi = sp.guard.expect("flipped spec has a guard") as usize;
                vec.push((assert(flip_of[gi]), fm));
            }
            if om != 0 {
                vec.push((assert(None), om));
            }
        };

        let cs_sig = self
            .roles
            .iter()
            .position(|r| matches!(r, SignalRole::ControlStep))
            .expect("plan has a CS signal");
        let ph_sig = self
            .roles
            .iter()
            .position(|r| matches!(r, SignalRole::PhaseSignal))
            .expect("plan has a PH signal");
        let ph_to = |p: Phase| Action::Control {
            sig: ph_sig,
            value: Value::Num(p.index() as i64),
        };

        let num_slots = self.cs_max as usize * Phase::ALL.len();
        let mut sched: Vec<Vec<(Action, u64)>> = vec![Vec::new(); num_slots];
        let mut live = Vec::new();
        for s in 1..=self.cs_max {
            let base = (s as usize - 1) * Phase::ALL.len();
            let entries = &by_step[s as usize];
            let spur_here: Vec<(usize, &PlanSpur)> = spur_cols
                .iter()
                .filter(|&&(_, spur)| spur.step == s)
                .copied()
                .collect();
            let spec = |i: usize| self.specs[i];

            let ra = &mut sched[base + Phase::Ra.index() as usize];
            for &(i, m) in entries.iter().filter(|&&(i, _)| spec(i).phase == Phase::Ra) {
                push_assert(ra, i, m);
            }
            for &(c, spur) in &spur_here {
                ra.push((
                    Action::Assert {
                        src: Source::Signal(spur.src),
                        dst: spur.bus,
                        slot: bus_slot(spur.bus),
                        guard: None,
                    },
                    bit(c),
                ));
            }
            ra.push((ph_to(Phase::Rb), full));

            let rb = &mut sched[base + Phase::Rb.index() as usize];
            rb.push((ph_to(Phase::Cm), full));
            for &(i, m) in entries {
                let sp = spec(i);
                match sp.phase {
                    Phase::Ra => rb.push((
                        Action::Release {
                            dst: sp.dst,
                            slot: sp.slot,
                        },
                        m,
                    )),
                    Phase::Rb => push_assert(rb, i, m),
                    _ => {}
                }
            }
            for &(c, spur) in &spur_here {
                rb.push((
                    Action::Release {
                        dst: spur.bus,
                        slot: bus_slot(spur.bus),
                    },
                    bit(c),
                ));
                rb.push((
                    Action::Assert {
                        src: Source::Signal(spur.bus),
                        dst: spur_in1,
                        slot: 0,
                        guard: None,
                    },
                    bit(c),
                ));
            }

            let cm = &mut sched[base + Phase::Cm.index() as usize];
            cm.push((ph_to(Phase::Wa), full));
            for i in 0..self.modules.len() {
                cm.push((Action::Eval { module: i }, full));
            }
            if any_spur {
                cm.push((
                    Action::Eval {
                        module: self.modules.len(),
                    },
                    spur_mask,
                ));
            }
            for &(i, m) in entries.iter().filter(|&&(i, _)| spec(i).phase == Phase::Rb) {
                let sp = spec(i);
                cm.push((
                    Action::Release {
                        dst: sp.dst,
                        slot: sp.slot,
                    },
                    m,
                ));
            }
            for &(c, _) in &spur_here {
                cm.push((
                    Action::Release {
                        dst: spur_in1,
                        slot: 0,
                    },
                    bit(c),
                ));
            }

            let wa = &mut sched[base + Phase::Wa.index() as usize];
            wa.push((ph_to(Phase::Wb), full));
            for &(i, m) in entries.iter().filter(|&&(i, _)| spec(i).phase == Phase::Wa) {
                push_assert(wa, i, m);
            }

            let wb = &mut sched[base + Phase::Wb.index() as usize];
            wb.push((ph_to(Phase::Cr), full));
            for &(i, m) in entries.iter().filter(|&&(i, _)| spec(i).phase == Phase::Wb) {
                push_assert(wb, i, m);
            }
            for &(i, m) in entries.iter().filter(|&&(i, _)| spec(i).phase == Phase::Wa) {
                let sp = spec(i);
                wb.push((
                    Action::Release {
                        dst: sp.dst,
                        slot: sp.slot,
                    },
                    m,
                ));
            }

            let cr = &mut sched[base + Phase::Cr.index() as usize];
            if s < self.cs_max {
                cr.push((
                    Action::Control {
                        sig: cs_sig,
                        value: Value::Num(s as i64 + 1),
                    },
                    full,
                ));
                cr.push((ph_to(Phase::Ra), full));
            }
            // The live-commit rule over the union of the columns: a
            // column whose own schedule leaves the port undriven reads
            // `DISC` there and pushes nothing.
            live_commits(
                &self.sinks,
                entries.iter().map(|&(i, _)| spec(i).dst),
                &mut live,
                |a| cr.push((a, full)),
            );
            for &(i, m) in entries.iter().filter(|&&(i, _)| spec(i).phase == Phase::Wb) {
                let sp = spec(i);
                cr.push((
                    Action::Release {
                        dst: sp.dst,
                        slot: sp.slot,
                    },
                    m,
                ));
            }
        }
        let mut init_sched: Vec<(Action, u64)> =
            self.delta_actions(0).iter().map(|&a| (a, full)).collect();

        // `-O` gated stream tweaks, mirroring [`OptPlan`] on the merged
        // masked schedule. Because the schedule is rebuilt per chunk the
        // passes see every mutation (drops, skews, spurs, guard edits)
        // before deciding what to elide — the "re-optimize per chunk"
        // obligation. Elided actions credit their exact pending/update/
        // event contributions back per delta, so every column's counters
        // stay byte-identical to the unoptimized walk.
        //
        // `elided_du[d]` rows would have sat pending at the top of delta
        // `d` and been applied there (one driver update per `full`
        // column); `elided_ev[d]` of those were guaranteed events
        // (control pushes: CS strictly increments, PH always changes).
        let mut elided_du = vec![0u64; num_slots + 2];
        let mut elided_ev = vec![0u64; num_slots + 2];
        if cfg.fold {
            // Constant folding: CS/PH pushes carry no information the
            // batch observes — columns are untraced, guards and checkers
            // read only register/memory/bus values, and the conflict
            // latch skips control roles — so the rows fold into per-delta
            // counter credits. The control signals' value cells simply go
            // stale.
            let mut fold = |actions: &mut Vec<(Action, u64)>, apply_at: usize| {
                actions.retain(|&(a, m)| {
                    if matches!(a, Action::Control { .. }) {
                        debug_assert_eq!(m, full, "control pushes are unmasked");
                        elided_du[apply_at] += 1;
                        elided_ev[apply_at] += 1;
                        false
                    } else {
                        true
                    }
                });
            };
            fold(&mut init_sched, 1);
            for (slot, actions) in sched.iter_mut().enumerate() {
                fold(actions, slot + 2);
            }
        }
        if cfg.dse {
            // Dead-spur elimination on the union schedule: an assert's
            // presence in `by_step` for *any* column (base, moved-in,
            // flipped or forced — guard edits only gate the driven
            // value, never the dst) marks its dst active, so an eval is
            // elided only when it is dead in every column. Spur asserts
            // target the shadow module and a bus, never a golden
            // module's operand ports.
            let activity = PortActivity::new(
                self,
                by_step
                    .iter()
                    .enumerate()
                    .flat_map(|(s, v)| v.iter().map(move |&(i, _)| (s as Step, i)))
                    .map(|(s, i)| (s, self.specs[i].dst)),
            );
            for (slot, actions) in sched.iter_mut().enumerate() {
                let s = slot / Phase::ALL.len();
                // A dead eval's row is a perfect no-op (all inputs `DISC`
                // across the window, pipeline drained), but it still
                // counted one pending row and one driver update per
                // column — credit those, no event.
                actions.retain(|&(a, _)| match a {
                    Action::Eval { module }
                        if module < self.modules.len() && activity.eval_dead(self, module, s) =>
                    {
                        elided_du[slot + 2] += 1;
                        false
                    }
                    _ => true,
                });
            }
        }

        /// Appends one pending transaction row (`n` wide, `DISC`-filled).
        fn push_row(
            meta: &mut Vec<(usize, usize, u64)>,
            vals: &mut Vec<Value>,
            n: usize,
            sig: usize,
            slot: usize,
            mask: u64,
        ) -> usize {
            meta.push((sig, slot, mask));
            let row = vals.len();
            vals.resize(row + n, Value::Disc);
            row
        }

        // The lockstep walk. Per-column dynamic counters and the
        // first-`ILLEGAL` latch replace the solo engines' trace-based
        // extraction.
        let mut ev_count = vec![0u64; n];
        let mut du_count = vec![0u64; n];
        let mut peak_pending = vec![0u64; n];
        let mut pend_cnt = vec![0u64; n];
        let mut first_ill: Vec<Option<(usize, u64)>> = vec![None; n];
        let mut meta: Vec<(usize, usize, u64)> = Vec::new();
        let mut vals: Vec<Value> = Vec::new();

        let mut evals: Vec<CheckEval<'_>> = match checks {
            Some(ck) => (0..n)
                .map(|_| CheckEval::new(&ck.program, &ck.index))
                .collect(),
            None => Vec::new(),
        };
        // Per column, the program indices of the monitored signals this
        // delta changed, recorded where events are counted.
        let mut changed: Vec<Vec<usize>> = vec![Vec::new(); n];
        let watched = |sig: usize| -> &[usize] {
            match checks {
                Some(ck) if sig < s0 => &ck.watch[sig],
                _ => &[],
            }
        };

        let max_needed = (0..n)
            .filter(|&c| full & bit(c) != 0)
            .map(|c| needed[c])
            .max()
            .unwrap_or(0);
        for d in 0..max_needed {
            pend_cnt.iter_mut().for_each(|x| *x = 0);
            for &(_, _, m) in &meta {
                let mut mm = m;
                while mm != 0 {
                    pend_cnt[mm.trailing_zeros() as usize] += 1;
                    mm &= mm - 1;
                }
            }
            // Credit elided rows exactly where they would have been
            // counted: pending at the top of this delta, applied (one
            // driver update, and for controls one event) right here.
            let (carry_du, carry_ev) = (elided_du[d as usize], elided_ev[d as usize]);
            if carry_du != 0 {
                let mut mm = full;
                while mm != 0 {
                    let c = mm.trailing_zeros() as usize;
                    mm &= mm - 1;
                    pend_cnt[c] += carry_du;
                    du_count[c] += carry_du;
                    ev_count[c] += carry_ev;
                }
            }
            for c in 0..n {
                peak_pending[c] = peak_pending[c].max(pend_cnt[c]);
            }

            // Update phase: apply transactions in push order, recomputing
            // each column's effective value one transaction at a time.
            for (e, &(sig, slot, m)) in meta.iter().enumerate() {
                let row = e * n;
                let tallied = layout.tallied(sig);
                let eligible = sig >= s0
                    || !matches!(
                        self.roles[sig],
                        SignalRole::ControlStep | SignalRole::PhaseSignal
                    );
                let watch = watched(sig);
                let mut mm = m;
                while mm != 0 {
                    let c = mm.trailing_zeros() as usize;
                    mm &= mm - 1;
                    du_count[c] += 1;
                    let pushed = vals[row + c];
                    let effective = if tallied {
                        drivers.drive(sig, slot, c, pushed)
                    } else {
                        pushed
                    };
                    let vi = sig * n + c;
                    if effective != values[vi] {
                        values[vi] = effective;
                        ev_count[c] += 1;
                        if effective == Value::Illegal && eligible && first_ill[c].is_none() {
                            first_ill[c] = Some((sig, d));
                        }
                        changed[c].extend_from_slice(watch);
                    }
                }
            }
            meta.clear();
            vals.clear();

            // Check phase: each live column's evaluator sees the monitored
            // signals this delta changed — the same observation the
            // interpreter's commit log reconstructs, so verdicts agree
            // byte-for-byte.
            if let Some(ck) = checks {
                for c in 0..n {
                    if full & bit(c) != 0 && d < needed[c] {
                        evals[c].observe(d, &changed[c], |i| values[ck.sigs[i] * n + c]);
                    }
                    changed[c].clear();
                }
            }

            // Run phase: the merged slot's masked straight-line actions.
            let actions: &[(Action, u64)] = if d == 0 {
                &init_sched
            } else {
                sched.get(d as usize - 1).map(Vec::as_slice).unwrap_or(&[])
            };
            for &(action, mask) in actions {
                match action {
                    Action::Control { sig, value } => {
                        let row = push_row(&mut meta, &mut vals, n, sig, 0, mask);
                        let mut mm = mask;
                        while mm != 0 {
                            let c = mm.trailing_zeros() as usize;
                            mm &= mm - 1;
                            vals[row + c] = value;
                        }
                    }
                    Action::Assert {
                        src,
                        dst,
                        slot,
                        guard,
                    } => {
                        let row = push_row(&mut meta, &mut vals, n, dst, slot, mask);
                        let mut mm = mask;
                        while mm != 0 {
                            let c = mm.trailing_zeros() as usize;
                            mm &= mm - 1;
                            let enabled = guard.is_none_or(|gi| {
                                chunk_guards[gi as usize].eval(|s| values[s * n + c])
                            });
                            vals[row + c] = if !enabled {
                                Value::Disc
                            } else {
                                match src {
                                    Source::Signal(sig) => values[sig * n + c],
                                    Source::Const(v) => v,
                                    Source::MemRead { addr, base, len } => {
                                        match values[addr * n + c].num() {
                                            Some(a) if (0..i64::from(len)).contains(&a) => {
                                                values[(base + a as usize) * n + c]
                                            }
                                            _ => Value::Illegal,
                                        }
                                    }
                                }
                            };
                        }
                    }
                    Action::Release { dst, slot } => {
                        push_row(&mut meta, &mut vals, n, dst, slot, mask);
                    }
                    Action::Eval { module } => {
                        let (in1, in2, op, out_sig, ops, timing) = module_view(module);
                        let row = push_row(&mut meta, &mut vals, n, out_sig, 0, mask);
                        let mut mm = mask;
                        while mm != 0 {
                            let c = mm.trailing_zeros() as usize;
                            mm &= mm - 1;
                            let mut result = combine(
                                values[in1 * n + c],
                                values[in2 * n + c],
                                op.map(|p| values[p * n + c]),
                                ops,
                            );
                            let mslot = module * n + c;
                            if let ModuleTiming::Sequential { latency } = timing {
                                if busy[mslot] > 0 {
                                    busy[mslot] -= 1;
                                    if result != Value::Disc {
                                        result = Value::Illegal;
                                        for v in pipes[mslot].iter_mut() {
                                            *v = Value::Illegal;
                                        }
                                    }
                                } else if result != Value::Disc {
                                    busy[mslot] = latency.saturating_sub(1);
                                }
                            }
                            let pipe = &mut pipes[mslot];
                            vals[row + c] = match pipe.pop_front() {
                                None => result,
                                Some(due) => {
                                    pipe.push_back(result);
                                    due
                                }
                            };
                        }
                    }
                    Action::Commit { reg } => {
                        let r = &self.regs[reg];
                        let mut buf = [Value::Disc; BATCH_WIDTH];
                        let mut live = 0u64;
                        let mut mm = mask;
                        while mm != 0 {
                            let c = mm.trailing_zeros() as usize;
                            mm &= mm - 1;
                            let v = values[r.input * n + c];
                            if v != Value::Disc {
                                live |= 1u64 << c;
                                buf[c] = v;
                            }
                        }
                        if live != 0 {
                            let row = push_row(&mut meta, &mut vals, n, r.output, 0, live);
                            let mut mm = live;
                            while mm != 0 {
                                let c = mm.trailing_zeros() as usize;
                                mm &= mm - 1;
                                vals[row + c] = buf[c];
                            }
                        }
                    }
                    Action::CommitMem { mem } => {
                        // Classify columns (store-at-word vs poison-all),
                        // then push one row per word in ascending order —
                        // each column's masked view matches its solo
                        // pending order (a single store, or the full
                        // 0..len poison sweep).
                        let pm = &self.mems[mem];
                        let len = pm.words.len();
                        let mut word_mask = vec![0u64; len];
                        let mut poison = 0u64;
                        let mut buf = [Value::Disc; BATCH_WIDTH];
                        let mut mm = mask;
                        while mm != 0 {
                            let c = mm.trailing_zeros() as usize;
                            mm &= mm - 1;
                            let v = values[pm.win * n + c];
                            if v == Value::Disc {
                                continue;
                            }
                            match values[pm.waddr * n + c].num() {
                                Some(a) if (0..len as i64).contains(&a) => {
                                    word_mask[a as usize] |= bit(c);
                                    buf[c] = v;
                                }
                                _ => poison |= bit(c),
                            }
                        }
                        for (w, &word) in pm.words.iter().enumerate() {
                            let m2 = word_mask[w] | poison;
                            if m2 == 0 {
                                continue;
                            }
                            let row = push_row(&mut meta, &mut vals, n, word, 0, m2);
                            let mut mm = m2;
                            while mm != 0 {
                                let c = mm.trailing_zeros() as usize;
                                mm &= mm - 1;
                                vals[row + c] = if poison & bit(c) != 0 {
                                    Value::Illegal
                                } else {
                                    buf[c]
                                };
                            }
                        }
                    }
                }
            }

            if let Some(deadline) = options.deadline {
                if std::time::Instant::now() >= deadline {
                    return Err(KernelError::WallBudgetExceeded {
                        at: SimTime {
                            fs: 0,
                            delta: d + 1,
                        },
                    });
                }
            }
        }

        for (c, d) in chunk.iter().enumerate() {
            let mut registers: Vec<(String, Value)> = self
                .regs
                .iter()
                .map(|r| (r.name.clone(), values[r.output * n + c]))
                .collect();
            for m in &self.mems {
                for &w in &m.words {
                    registers.push((self.roles[w].signal_name(), values[w * n + c]));
                }
            }
            let first_conflict = first_ill[c].and_then(|(sig, delta)| {
                let visible_at = PhaseTime::from_active_delta(delta)?;
                let (site, name) = if sig < s0 {
                    self.roles[sig].conflict_site()?
                } else {
                    let name = d
                        .spur
                        .as_ref()
                        .expect("spur conflict implies a spur delta")
                        .name
                        .clone();
                    if sig == spur_out {
                        (ConflictSite::ModuleOut, name)
                    } else {
                        (ConflictSite::ModulePort, name)
                    }
                };
                Some(Conflict {
                    site,
                    name,
                    visible_at,
                })
            });
            let mut stats = col_stats[c];
            if !overflow[c] {
                stats.delta_cycles = needed[c];
                stats.events = ev_count[c];
                stats.driver_updates = du_count[c];
                stats.peak_pending_updates = peak_pending[c];
            }
            let check = if checks.is_some() && !overflow[c] {
                Some(evals[c].finish())
            } else {
                None
            };
            out.push(BatchOutcome {
                registers,
                first_conflict,
                stats,
                overflowed: overflow[c],
                check,
            });
        }
        Ok(())
    }
}

/// Columns per lockstep chunk of [`ExecPlan::execute_batch`] — one bit
/// of the per-action column masks each.
const BATCH_WIDTH: usize = 64;

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

/// Emits one step's `cr` commits under the live-commit rule: one per
/// register or memory whose input port some spec of the step drives
/// (`dsts` are the step's spec destinations), registers before memories,
/// each in declaration order. A commit whose port no spec of its step
/// drives reads `DISC` at `cr` — every transfer releases its drive one
/// phase after asserting it — and would push nothing, so it is never
/// emitted. `live` is scratch space.
fn live_commits(
    sinks: &[Sink],
    dsts: impl Iterator<Item = usize>,
    live: &mut Vec<Sink>,
    mut emit: impl FnMut(Action),
) {
    live.clear();
    live.extend(
        dsts.map(|d| sinks[d])
            .filter(|k| matches!(k, Sink::Reg(_) | Sink::Mem(_))),
    );
    live.sort_unstable();
    live.dedup();
    for &k in live.iter() {
        match k {
            Sink::Reg(reg) => emit(Action::Commit { reg: reg as usize }),
            Sink::Mem(mem) => emit(Action::CommitMem { mem: mem as usize }),
            Sink::Module(_) | Sink::None => unreachable!("filtered above"),
        }
    }
}

/// Per-step operand-port activity of every module: the table dead-spur
/// elimination decides on, built in one pass over assert placements. The
/// solo optimizer ([`crate::OptPlan`]) and the batched walk (over the
/// union of its columns) share it.
#[derive(Debug, Clone)]
pub(crate) struct PortActivity {
    steps: usize,
    /// `active[m * steps + s]`: some assert drives an operand port of
    /// module `m` in 0-based step `s` (guards ignored — a disabled assert
    /// still drives `DISC`, and presence is all the window needs).
    active: Vec<bool>,
}

impl PortActivity {
    /// Builds the table from `(step, destination signal)` placements of
    /// every assert; placements outside `1..=CS_MAX` never run and are
    /// ignored.
    pub(crate) fn new(
        plan: &ExecPlan,
        asserts: impl Iterator<Item = (Step, usize)>,
    ) -> PortActivity {
        let steps = plan.cs_max as usize;
        let mut active = vec![false; plan.modules.len() * steps];
        for (step, dst) in asserts.filter(|(step, _)| (1..=plan.cs_max).contains(step)) {
            if let Sink::Module(m) = plan.sinks[dst] {
                active[m as usize * steps + step as usize - 1] = true;
            }
        }
        PortActivity { steps, active }
    }

    /// Whether module `m`'s evaluation in 0-based step `s` is dead: no
    /// operand-port assert lands within the last `2·latency + 2` steps,
    /// so the operands are `DISC`, the pipeline has drained, the
    /// initiation counter is zero and the output already reads `DISC` —
    /// the push would be a perfect no-op.
    pub(crate) fn eval_dead(&self, plan: &ExecPlan, m: usize, s: usize) -> bool {
        let window = 2 * plan.modules[m].timing.latency() as usize + 2;
        let row = &self.active[m * self.steps..(m + 1) * self.steps];
        row[s.saturating_sub(window)..=s].iter().all(|&a| !a)
    }
}

/// [`DriverLayout`]'s marker of a signal that keeps no driver state.
const DIRECT: u32 = u32::MAX;

/// Where a compiled walk keeps driver state. Each *tallied* signal owns
/// a run of slot rows — an update must know the value it replaces — and
/// one [`DriverTally`] row, so resolving an update costs O(1) however
/// many drivers the signal has. A push on any other signal *is* its
/// effective value: unresolved signals have exactly one driver, and
/// `resolve` is the identity on a singleton. Only resolved signals are
/// tallied, and they start `DISC`, so every slot starts `DISC` and every
/// tally empty.
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

    /// Fresh driver state, `lanes` columns wide.
    pub(crate) fn state(&self, lanes: usize) -> Drivers<'_> {
        Drivers {
            layout: self,
            lanes,
            slots: vec![Value::Disc; self.slot_rows * lanes],
            tallies: vec![DriverTally::default(); self.tally_rows * lanes],
        }
    }
}

/// The driver state of one walk: `slots[row * lanes + lane]` and
/// `tallies[tally * lanes + lane]` over a [`DriverLayout`].
#[derive(Debug, Clone)]
pub(crate) struct Drivers<'a> {
    layout: &'a DriverLayout,
    lanes: usize,
    slots: Vec<Value>,
    tallies: Vec<DriverTally>,
}

impl Drivers<'_> {
    /// Applies one driver update — `v` on slot `slot` of the tallied
    /// signal `sig`, in `lane` — and returns the signal's resolved value.
    #[inline]
    pub(crate) fn drive(&mut self, sig: usize, slot: usize, lane: usize, v: Value) -> Value {
        let (first, tally) = self.layout.at[sig];
        let s = (first as usize + slot) * self.lanes + lane;
        let t = tally as usize * self.lanes + lane;
        let old = std::mem::replace(&mut self.slots[s], v);
        self.tallies[t].update(old, v);
        self.tallies[t].value()
    }
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
    use crate::backend::{Backend, ExecOptions};
    use crate::model::{fig1_model, RtModel};
    use crate::op::Op;
    use crate::resource::{ModuleDecl, ModuleTiming};
    use crate::run::RtSimulation;
    use crate::tuples::TransferTuple;

    fn interpreted_traced(model: &RtModel) -> crate::backend::ExecOutcome {
        Backend::Interpreted
            .execute(model, &ExecOptions::traced())
            .unwrap()
    }

    fn compiled_traced(model: &RtModel) -> crate::backend::ExecOutcome {
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
        assert!(plan.static_conflicts().is_empty());
        // Step 5 ra: two register reads plus the controller advance.
        assert_eq!(plan.actions(5, Phase::Ra).unwrap().len(), 3);
        // An unscheduled step still carries the controller skeleton.
        assert_eq!(plan.actions(1, Phase::Ra).unwrap().len(), 1);
        assert!(plan.actions(8, Phase::Ra).is_none());
        assert!(plan.actions(0, Phase::Ra).is_none());
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
    fn bus_conflict_is_found_statically_and_dynamically() {
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

        let plan = ExecPlan::lower(&model);
        let stat = plan
            .static_conflicts()
            .into_iter()
            .find(|c| c.name == "B1")
            .expect("static pre-pass flags the shared bus");
        assert_eq!(stat.site, ConflictSite::Bus);
        assert_eq!(stat.at, PhaseTime::new(1, Phase::Ra));
        assert_eq!(stat.drivers, 2);

        assert_equivalent(&model);
        let out = compiled_traced(&model);
        let report = out.summary.conflicts.unwrap();
        assert!(
            report.on("B1").any(|c| c.site == ConflictSite::Bus),
            "{report:?}"
        );
    }

    #[test]
    fn clean_model_has_no_static_conflicts() {
        assert!(ExecPlan::lower(&fig1_model(3, 4))
            .static_conflicts()
            .is_empty());
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
        // A sequential multiplier with latency 2, plus a second transfer
        // violating its initiation interval (poisoned pipeline).
        for violate in [false, true] {
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
            assert_equivalent(&model);
        }
    }

    /// Batched column `i` must show exactly the observables a solo run of
    /// `mutants[i]` shows — registers, first conflict, kernel counters —
    /// at every optimization level of the lockstep walk.
    fn assert_batch_matches_solo(golden: &RtModel, deltas: &[PlanDelta], mutants: &[RtModel]) {
        assert_eq!(deltas.len(), mutants.len());
        let plan = ExecPlan::lower(golden);
        for level in crate::OptLevel::ALL {
            let options = ExecOptions::default().at_opt(level);
            let outs = plan.execute_batch(deltas, &options).unwrap();
            for (i, (out, mutant)) in outs.iter().zip(mutants).enumerate() {
                let solo = compiled_traced(mutant);
                assert!(!out.overflowed, "column {i} at -O{level}");
                assert_eq!(
                    out.registers, solo.summary.registers,
                    "column {i} registers at -O{level}"
                );
                assert_eq!(
                    out.first_conflict.as_ref(),
                    solo.summary.conflicts.as_ref().unwrap().first(),
                    "column {i} conflict at -O{level}"
                );
                assert_eq!(
                    out.stats, solo.summary.stats,
                    "column {i} stats at -O{level}"
                );
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

        assert_batch_matches_solo(&golden, &deltas, &mutants);
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

        assert_batch_matches_solo(&golden, &deltas, &mutants);
    }

    #[test]
    fn batched_sequential_module_deltas_match_solo() {
        // Re-use the initiation-interval model: dropping the second
        // transfer un-poisons the pipeline, per column.
        let mut golden = RtModel::new("seq", 6);
        golden.add_register_init("R1", Value::Num(3)).unwrap();
        golden.add_register_init("R2", Value::Num(4)).unwrap();
        golden.add_register_init("R3", Value::Num(5)).unwrap();
        golden.add_bus("B1").unwrap();
        golden.add_bus("B2").unwrap();
        golden
            .add_module(ModuleDecl::single(
                "MUL",
                Op::Mul,
                ModuleTiming::Sequential { latency: 2 },
            ))
            .unwrap();
        golden
            .add_transfer(
                TransferTuple::new(1, "MUL")
                    .src_a("R1", "B1")
                    .src_b("R2", "B2")
                    .write(3, "B1", "R1"),
            )
            .unwrap();
        golden
            .add_transfer(
                TransferTuple::new(2, "MUL")
                    .src_a("R3", "B1")
                    .src_b("R2", "B2")
                    .write(4, "B2", "R3"),
            )
            .unwrap();
        let plan = ExecPlan::lower(&golden);

        let deltas = vec![PlanDelta::default(), plan.delta_drop_tuple(1).unwrap()];
        let mut mutants = vec![golden.clone()];
        let mut m = golden.clone();
        m.remove_transfer(1).unwrap();
        mutants.push(m);

        assert_batch_matches_solo(&golden, &deltas, &mutants);
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
        for (i, out) in outs.iter().enumerate() {
            let i = i as i64;
            assert_eq!(out.registers[0], ("R1".to_string(), Value::Num(3 + i)));
            assert_eq!(out.registers[1], ("R2".to_string(), Value::Num(i)));
        }
    }

    #[test]
    fn over_budget_columns_overflow_without_disturbing_the_rest() {
        let golden = fig1_model(3, 4);
        let plan = ExecPlan::lower(&golden);
        // 43 deltas golden; the +1 skew needs the flush delta (44).
        let deltas = vec![PlanDelta::default(), plan.delta_skew_write(0, 1).unwrap()];
        let opts = ExecOptions {
            delta_limit: Some(43),
            ..Default::default()
        };
        let outs = plan.execute_batch(&deltas, &opts).unwrap();
        assert!(!outs[0].overflowed);
        assert_eq!(outs[0].registers[0].1, Value::Num(7));
        assert!(outs[1].overflowed);
        assert_eq!(
            outs[1].stats,
            SimStats {
                delta_cycles: 43,
                ..SimStats::default()
            }
        );
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
        assert_batch_matches_solo(&golden, &deltas, &mutants);
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
        assert_batch_matches_solo(&golden, &deltas, &mutants);
    }
}
