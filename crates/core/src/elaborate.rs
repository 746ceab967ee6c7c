//! Elaboration: instantiating an [`RtModel`] onto the simulation kernel.
//!
//! Elaboration mirrors the paper's "concrete register transfer model"
//! (§2.7): signal declarations for `CS`/`PH`, the ports of the functional
//! units and the buses, then one controller process, one register process
//! per register, one module process per module and the transfer processes
//! derived from the tuples.

use std::sync::Arc;

use clockless_kernel::{SignalId, Simulator};

use crate::diag::ConflictSite;
use crate::model::RtModel;
use crate::phase::Phase;
use crate::processes::{
    Controller, GuardSrc, MemCommit, ModuleProc, Reg, Trans, TransGuard, TransSource,
};
use crate::tuples::{Endpoint, Guard, GuardOperand, MemAddr};
use crate::value::{kernel_resolver, Value};

/// Options controlling elaboration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ElaborateOptions {
    /// Record a full waveform (required for conflict localization and
    /// register-commit logs; costs memory and time).
    pub trace: bool,
    /// Keep transfer processes waking on every `CS`/`PH` event even after
    /// they have completed, exactly as a literal VHDL `wait until` would.
    /// Off by default: a completed transfer can never trigger again, so
    /// the kernel retires it. The style-comparison bench measures the
    /// difference.
    pub faithful_trans_wakeups: bool,
}

impl ElaborateOptions {
    /// Options with tracing enabled.
    pub fn traced() -> ElaborateOptions {
        ElaborateOptions {
            trace: true,
            ..Default::default()
        }
    }
}

/// Which model object a kernel signal implements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SignalRole {
    /// The control-step counter `CS`.
    ControlStep,
    /// The phase signal `PH`.
    PhaseSignal,
    /// A register's input port (resolved).
    RegIn(String),
    /// A register's output port.
    RegOut(String),
    /// A bus (resolved).
    Bus(String),
    /// A module's first operand port (resolved).
    ModIn1(String),
    /// A module's second operand port (resolved).
    ModIn2(String),
    /// A module's operation-select port (resolved).
    ModOp(String),
    /// A module's output port.
    ModOut(String),
    /// A memory's write-value port (resolved).
    MemWin(String),
    /// A memory's write-address port (resolved).
    MemWaddr(String),
    /// One word of a memory.
    MemWord {
        /// Memory name.
        mem: String,
        /// Word index.
        index: u32,
    },
}

impl SignalRole {
    /// The canonical signal name of a memory-word role (`M[3]`).
    pub fn mem_word_name(mem: &str, index: u32) -> String {
        format!("{mem}[{index}]")
    }

    /// The name the signal is declared under — `CS`, `R1_in`, `B1`,
    /// `ADD_op`, `M[3]`, … — in both engines and in the VCD.
    pub fn signal_name(&self) -> String {
        match self {
            SignalRole::ControlStep => "CS".into(),
            SignalRole::PhaseSignal => "PH".into(),
            SignalRole::RegIn(n) => format!("{n}_in"),
            SignalRole::RegOut(n) => format!("{n}_out"),
            SignalRole::Bus(n) => n.clone(),
            SignalRole::ModIn1(n) => format!("{n}_in1"),
            SignalRole::ModIn2(n) => format!("{n}_in2"),
            SignalRole::ModOp(n) => format!("{n}_op"),
            SignalRole::ModOut(n) => format!("{n}_out"),
            SignalRole::MemWin(n) => format!("{n}_win"),
            SignalRole::MemWaddr(n) => format!("{n}_waddr"),
            SignalRole::MemWord { mem, index } => Self::mem_word_name(mem, *index),
        }
    }

    /// Where an `ILLEGAL` value on this signal is reported: the conflict
    /// site and the object's name. `None` for the controller signals,
    /// which never carry a conflict.
    pub fn conflict_site(&self) -> Option<(ConflictSite, String)> {
        Some(match self {
            SignalRole::Bus(n) => (ConflictSite::Bus, n.clone()),
            SignalRole::ModIn1(n) | SignalRole::ModIn2(n) => (ConflictSite::ModulePort, n.clone()),
            SignalRole::ModOp(n) => (ConflictSite::ModuleOpPort, n.clone()),
            SignalRole::ModOut(n) => (ConflictSite::ModuleOut, n.clone()),
            SignalRole::RegIn(n) => (ConflictSite::RegisterPort, n.clone()),
            SignalRole::RegOut(n) => (ConflictSite::RegisterValue, n.clone()),
            SignalRole::MemWin(n) | SignalRole::MemWaddr(n) => {
                (ConflictSite::MemoryPort, n.clone())
            }
            SignalRole::MemWord { mem, index } => (
                ConflictSite::MemoryWord,
                SignalRole::mem_word_name(mem, *index),
            ),
            SignalRole::ControlStep | SignalRole::PhaseSignal => return None,
        })
    }
}

/// The signal map produced by elaboration.
#[derive(Debug, Clone)]
pub struct SignalLayout {
    /// The control-step signal.
    pub cs: SignalId,
    /// The phase signal.
    pub ph: SignalId,
    /// Register input ports, indexed like `RtModel::registers`.
    pub reg_in: Vec<SignalId>,
    /// Register output ports, indexed like `RtModel::registers`.
    pub reg_out: Vec<SignalId>,
    /// Buses, indexed like `RtModel::buses`.
    pub bus: Vec<SignalId>,
    /// Module first-operand ports, indexed like `RtModel::modules`.
    pub mod_in1: Vec<SignalId>,
    /// Module second-operand ports.
    pub mod_in2: Vec<SignalId>,
    /// Module operation-select ports (`None` for single-operation modules).
    pub mod_op: Vec<Option<SignalId>>,
    /// Module output ports.
    pub mod_out: Vec<SignalId>,
    /// Memory write-value ports, indexed like `RtModel::memories`.
    pub mem_win: Vec<SignalId>,
    /// Memory write-address ports, indexed like `RtModel::memories`.
    pub mem_waddr: Vec<SignalId>,
    /// Memory word signals, outer index like `RtModel::memories`.
    pub mem_word: Vec<Vec<SignalId>>,
    /// Role of every kernel signal, indexed by `SignalId::index()` —
    /// shared with the waveforms of the runs.
    pub roles: Arc<[SignalRole]>,
}

impl SignalLayout {
    /// The role of a kernel signal.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a signal of this layout's simulator.
    pub fn role(&self, id: SignalId) -> &SignalRole {
        &self.roles[id.index()]
    }

    /// Resolves a tuple-level endpoint to its kernel signal.
    ///
    /// Returns `None` for unknown names or for [`Endpoint::ConstOp`],
    /// which has no signal.
    pub fn signal_of(&self, model: &RtModel, endpoint: &Endpoint) -> Option<SignalId> {
        match endpoint {
            Endpoint::RegOut(r) => model
                .register_by_name(r)
                .map(|id| self.reg_out[id.0 as usize]),
            Endpoint::RegIn(r) => model
                .register_by_name(r)
                .map(|id| self.reg_in[id.0 as usize]),
            Endpoint::Bus(b) => model.bus_by_name(b).map(|id| self.bus[id.0 as usize]),
            Endpoint::ModIn1(m) => model
                .module_by_name(m)
                .map(|id| self.mod_in1[id.0 as usize]),
            Endpoint::ModIn2(m) => model
                .module_by_name(m)
                .map(|id| self.mod_in2[id.0 as usize]),
            Endpoint::ModOut(m) => model
                .module_by_name(m)
                .map(|id| self.mod_out[id.0 as usize]),
            Endpoint::ModOp(m) => model
                .module_by_name(m)
                .and_then(|id| self.mod_op[id.0 as usize]),
            Endpoint::MemWin(m) => model
                .memory_by_name(m)
                .map(|id| self.mem_win[id.0 as usize]),
            Endpoint::MemWaddr(m) => model
                .memory_by_name(m)
                .map(|id| self.mem_waddr[id.0 as usize]),
            Endpoint::MemWord {
                mem,
                addr: MemAddr::Const(i),
            } => model
                .memory_by_name(mem)
                .and_then(|id| self.mem_word[id.0 as usize].get(*i as usize).copied()),
            // Register-indirect reads have no single signal; the transfer
            // process selects the word at activation time.
            Endpoint::MemWord {
                addr: MemAddr::Reg(_),
                ..
            } => None,
            Endpoint::ConstOp(_) | Endpoint::ConstVal(_) => None,
        }
    }
}

/// Resolves a model-level guard onto kernel signals.
fn resolve_guard(model: &RtModel, layout: &SignalLayout, guard: &Guard) -> TransGuard {
    let side = |op: &GuardOperand| match op {
        GuardOperand::Reg(r) => {
            let id = model
                .register_by_name(r)
                .expect("validated guard references known register");
            GuardSrc::Sig(layout.reg_out[id.0 as usize])
        }
        GuardOperand::Const(v) => GuardSrc::Const(*v),
    };
    TransGuard {
        negated: guard.negated,
        clauses: guard
            .clauses
            .iter()
            .map(|c| (side(&c.lhs), c.cmp, side(&c.rhs)))
            .collect(),
    }
}

/// Elaborates a model into a ready-to-initialize simulator plus its
/// signal layout.
///
/// The returned simulator has **not** been initialized; callers normally
/// use [`RtSimulation::new`](crate::run::RtSimulation::new) instead, which
/// wraps this and drives the run.
pub fn elaborate(model: &RtModel, options: ElaborateOptions) -> (Simulator<Value>, SignalLayout) {
    let mut sim: Simulator<Value> = Simulator::new();
    if options.trace {
        sim.enable_trace();
    }
    let mut roles = Vec::new();
    // Every signal is named after its role, so names and roles cannot
    // drift apart (the VCD renders names from roles).
    let mut declare = |role: SignalRole, init: Value, resolved: bool| -> SignalId {
        let name = role.signal_name();
        roles.push(role);
        if resolved {
            sim.resolved_signal(name, init, kernel_resolver())
        } else {
            sim.signal(name, init)
        }
    };

    let cs = declare(SignalRole::ControlStep, Value::Num(0), false);
    let ph = declare(
        SignalRole::PhaseSignal,
        Value::Num(Phase::LAST.index() as i64),
        false,
    );

    let mut reg_in = Vec::new();
    let mut reg_out = Vec::new();
    for r in model.registers() {
        reg_in.push(declare(
            SignalRole::RegIn(r.name.clone()),
            Value::Disc,
            true,
        ));
        reg_out.push(declare(SignalRole::RegOut(r.name.clone()), r.init, false));
    }

    let bus: Vec<SignalId> = model
        .buses()
        .iter()
        .map(|b| declare(SignalRole::Bus(b.name.clone()), Value::Disc, true))
        .collect();

    let mut mod_in1 = Vec::new();
    let mut mod_in2 = Vec::new();
    let mut mod_op = Vec::new();
    let mut mod_out = Vec::new();
    for m in model.modules() {
        mod_in1.push(declare(
            SignalRole::ModIn1(m.name.clone()),
            Value::Disc,
            true,
        ));
        mod_in2.push(declare(
            SignalRole::ModIn2(m.name.clone()),
            Value::Disc,
            true,
        ));
        mod_op.push(
            m.needs_op_port()
                .then(|| declare(SignalRole::ModOp(m.name.clone()), Value::Disc, true)),
        );
        mod_out.push(declare(
            SignalRole::ModOut(m.name.clone()),
            Value::Disc,
            false,
        ));
    }

    let mut mem_win = Vec::new();
    let mut mem_waddr = Vec::new();
    let mut mem_word = Vec::new();
    for m in model.memories() {
        mem_win.push(declare(
            SignalRole::MemWin(m.name.clone()),
            Value::Disc,
            true,
        ));
        mem_waddr.push(declare(
            SignalRole::MemWaddr(m.name.clone()),
            Value::Disc,
            true,
        ));
        let words: Vec<SignalId> = (0..m.len)
            .map(|index| {
                let role = SignalRole::MemWord {
                    mem: m.name.clone(),
                    index,
                };
                declare(role, m.init, false)
            })
            .collect();
        mem_word.push(words);
    }

    // Processes: controller, registers, modules, memories, transfers.
    sim.process(
        "CONTROL",
        &[cs, ph],
        Controller::new(model.cs_max(), cs, ph),
    );
    for (idx, r) in model.registers().iter().enumerate() {
        sim.process(
            format!("{}_proc", r.name),
            &[reg_out[idx]],
            Reg::new(ph, reg_in[idx], reg_out[idx]),
        );
    }
    for (idx, m) in model.modules().iter().enumerate() {
        sim.process(
            format!("{}_proc", m.name),
            &[mod_out[idx]],
            ModuleProc::new(
                ph,
                mod_in1[idx],
                mod_in2[idx],
                mod_op[idx],
                mod_out[idx],
                m.ops.clone(),
                m.timing,
            ),
        );
    }

    for (idx, m) in model.memories().iter().enumerate() {
        sim.process(
            format!("{}_proc", m.name),
            &mem_word[idx],
            MemCommit::new(ph, mem_win[idx], mem_waddr[idx], mem_word[idx].clone()),
        );
    }

    let layout = SignalLayout {
        cs,
        ph,
        reg_in,
        reg_out,
        bus,
        mod_in1,
        mod_in2,
        mod_op,
        mod_out,
        mem_win,
        mem_waddr,
        mem_word,
        roles: roles.into(),
    };

    for tuple in model.tuples() {
        for spec in tuple.expand_in(model) {
            let src = match &spec.src {
                Endpoint::ConstOp(op) => {
                    let mid = model
                        .module_by_name(&tuple.module)
                        .expect("validated tuple references known module");
                    let idx = model.modules()[mid.0 as usize]
                        .op_index(*op)
                        .expect("validated tuple selects supported op");
                    TransSource::Const(Value::Num(idx as i64))
                }
                Endpoint::ConstVal(v) => TransSource::Const(Value::Num(*v)),
                Endpoint::MemWord {
                    mem,
                    addr: MemAddr::Reg(r),
                } => {
                    let mid = model
                        .memory_by_name(mem)
                        .expect("validated tuple references known memory");
                    let addr = model
                        .register_by_name(r)
                        .expect("validated tuple addresses via known register");
                    TransSource::MemRead {
                        words: layout.mem_word[mid.0 as usize].clone(),
                        addr: layout.reg_out[addr.0 as usize],
                    }
                }
                other => TransSource::Signal(
                    layout
                        .signal_of(model, other)
                        .expect("validated tuple references known resources"),
                ),
            };
            let dst = layout
                .signal_of(model, &spec.dst)
                .expect("validated tuple references known resources");
            let guard = spec
                .guard
                .as_ref()
                .map(|g| resolve_guard(model, &layout, g));
            sim.process(
                spec.instance_name(),
                &[dst],
                Trans::new(
                    spec.step,
                    spec.phase,
                    cs,
                    ph,
                    src,
                    dst,
                    options.faithful_trans_wakeups,
                )
                .with_guard(guard),
            );
        }
    }

    (sim, layout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::fig1_model;

    #[test]
    fn fig1_elaborates_with_expected_inventory() {
        let model = fig1_model(3, 4);
        let (sim, layout) = elaborate(&model, ElaborateOptions::default());
        // Signals: CS, PH, 2 regs x 2 ports, 2 buses, module 3 ports
        // (single-op: no op port).
        assert_eq!(sim.signal_count(), 2 + 4 + 2 + 3);
        assert_eq!(layout.roles.len(), sim.signal_count());
        // Processes: controller + 2 regs + 1 module + 6 transfers.
        assert_eq!(sim.process_count(), 1 + 2 + 1 + 6);
        assert!(layout.mod_op[0].is_none());
    }

    #[test]
    fn roles_track_signals() {
        let model = fig1_model(1, 2);
        let (_sim, layout) = elaborate(&model, ElaborateOptions::default());
        assert_eq!(layout.role(layout.cs), &SignalRole::ControlStep);
        assert_eq!(
            layout.role(layout.reg_out[0]),
            &SignalRole::RegOut("R1".into())
        );
        assert_eq!(layout.role(layout.bus[1]), &SignalRole::Bus("B2".into()));
    }
}
