//! # clockless-core — register transfer level models without clocks
//!
//! This crate implements the contribution of *"Register Transfer Level
//! VHDL Models without Clocks"* (Matthias Mutz, DATE 1998): an executable
//! register-transfer modeling style whose timing is expressed in **control
//! steps** and **phases** advanced purely in delta time — no clock
//! signals, no physical delays.
//!
//! ## The model
//!
//! A model ([`RtModel`]) consists of registers, buses and functional
//! modules plus **register transfers**: 9-tuples like
//! `(R1,B1,R2,B2,5,ADD,6,B1,R1)` stating *which values move over which
//! buses at which control step*. Each control step runs through six
//! phases (`ra rb cm wa wb cr`, one delta cycle each — paper Fig. 2);
//! buses and ports are resolved signals whose resolution function turns
//! simultaneous drives into an observable `ILLEGAL` value, pinpointing
//! resource conflicts to an exact step and phase.
//!
//! ## Quick start
//!
//! The paper's Fig. 1 example — `R1 := R1 + R2` scheduled at steps 5/6:
//!
//! ```
//! use clockless_core::prelude::*;
//!
//! let mut model = RtModel::new("example", 7);
//! model.add_register_init("R1", Value::Num(3))?;
//! model.add_register_init("R2", Value::Num(4))?;
//! model.add_bus("B1")?;
//! model.add_bus("B2")?;
//! model.add_module(ModuleDecl::single(
//!     "ADD",
//!     Op::Add,
//!     ModuleTiming::Pipelined { latency: 1 },
//! ))?;
//! model.add_transfer(
//!     TransferTuple::new(5, "ADD")
//!         .src_a("R1", "B1")
//!         .src_b("R2", "B2")
//!         .write(6, "B1", "R1"),
//! )?;
//!
//! let mut sim = RtSimulation::new(&model)?;
//! let summary = sim.run_to_completion()?;
//! assert_eq!(summary.register("R1"), Some(Value::Num(7)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Module map
//!
//! * [`value`] — the `DISC`/`ILLEGAL`/number value domain and the
//!   resolution function (§2.3).
//! * [`phase`] — control steps and the six-phase scheme (§2.2, Fig. 2).
//! * [`op`] — module operations and their operand semantics (§2.6, §3).
//! * [`resource`] — register/bus/module declarations (§2.1).
//! * [`tuples`] — 9-tuple transfers and their process expansion (§2.4, §2.7).
//! * [`model`] — the validated model builder (§2.7).
//! * [`processes`] — controller/transfer/register/module processes on the
//!   simulation kernel (§2.2–2.6).
//! * [`mod@elaborate`], [`mod@run`] — instantiation and execution.
//! * [`plan`] — lowering to a compiled plan: dense tables plus one spec
//!   per transfer process, pinned to its `(step, phase)` slot (the
//!   six-phase scheme makes the schedule static), and plan deltas.
//! * [`opt`] — the optimizing plan compiler: places the lowered specs
//!   straight into one specialized micro-op stream (`-O` pipeline) with
//!   byte-identical observables at every level, and its one walker.
//! * [`backend`] — the execution-engine selector: the interpreted delta
//!   kernel or the compiled plan walker behind one `Backend` value, with a
//!   byte-identical observable-output contract.
//! * [`check`] — value-checking programs (golden-run monitors and mined
//!   functional invariants) evaluated identically by both engines.
//! * [`diag`] — conflict localization (§2.7).
//! * [`json`] — shared hand-rolled JSON helpers (escaping, `SimStats`
//!   counters, the deterministic single-run report).
//! * [`text`] — a declarative text format standing in for the VHDL source.
//! * [`mod@transcript`] — phase-by-phase value tables (terminal waveforms).
//! * [`vhdl`] — emission of the model as VHDL source in the paper's own
//!   subset (package, component entities, §2.7 architecture).
//! * [`vhdl_parse`] — the inverse: parsing §2.7-style architectures back
//!   into resources and transfer processes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod check;
pub mod diag;
pub mod elaborate;
pub mod json;
pub mod model;
pub mod op;
pub mod opt;
pub mod phase;
pub mod plan;
pub mod processes;
pub mod resource;
pub mod run;
pub mod stats;
pub mod text;
pub mod transcript;
pub mod tuples;
pub mod value;
pub mod vhdl;
pub mod vhdl_parse;
mod word;

pub use backend::{
    Backend, BatchOutcome, ExecOptions, ExecOutcome, OptConfig, OptLevel, ParseBackendError,
    ParseOptLevelError,
};
pub use check::{
    check_signals, execute_checked, record_table, CheckEval, CheckIndex, CheckProgram, CheckReport,
    CheckSignal, CheckedError, Invariant, InvariantViolation, MonitorTable, MonitorViolation,
    SignalKind,
};
pub use diag::{Conflict, ConflictReport, ConflictSite};
pub use elaborate::{elaborate, ElaborateOptions, SignalLayout, SignalRole};
pub use model::{fig1_model, ModelError, RtModel};
pub use op::{Arity, Op};
pub use opt::OptPlan;
pub use phase::{Phase, PhaseTime, Step, PHASES_PER_STEP};
pub use plan::{ExecPlan, PlanChecks, PlanDelta};
pub use resource::{
    ArrayDecl, BusDecl, BusId, MemoryDecl, MemoryId, ModuleDecl, ModuleId, ModuleTiming,
    RegisterDecl, RegisterId,
};
pub use run::{Elaboration, RegisterCommit, RtSimulation, RunSummary, Waveform};
pub use stats::{model_stats, ModelStats, RunStatsReport};
pub use transcript::{transcript, TranscriptError};
pub use tuples::{
    CmpOp, Endpoint, Guard, GuardClause, GuardOperand, MemAddr, OperandRoute, ParseGuardError,
    TransferSpec, TransferTuple, WriteRoute,
};
pub use value::{resolve, DriverTally, Value};
pub use vhdl::{emit_vhdl, EmitVhdlError};
pub use vhdl_parse::{parse_vhdl, ParseVhdlError, ParsedDesign};

/// Convenient glob import for model builders.
pub mod prelude {
    pub use crate::backend::{Backend, ExecOptions, ExecOutcome};
    pub use crate::diag::{Conflict, ConflictReport, ConflictSite};
    pub use crate::elaborate::ElaborateOptions;
    pub use crate::model::{fig1_model, ModelError, RtModel};
    pub use crate::op::Op;
    pub use crate::phase::{Phase, PhaseTime, Step, PHASES_PER_STEP};
    pub use crate::plan::ExecPlan;
    pub use crate::resource::{ModuleDecl, ModuleTiming};
    pub use crate::run::{RegisterCommit, RtSimulation, RunSummary, Waveform};
    pub use crate::tuples::TransferTuple;
    pub use crate::value::Value;
}

/// splitmix64, the deterministic generator of the crate's seeded property
/// tests (the same one the fault campaign samples with).
#[cfg(test)]
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
