//! The register-transfer model: resources plus scheduled transfers.
//!
//! An [`RtModel`] is the Rust rendering of the paper's "concrete register
//! transfer model" (§2.7): registers, buses, modules and the transfer
//! tuples embedded into the control-step scheme, together with the
//! controller's `CS_MAX`. Construction is incremental and validated — the
//! scheduling invariants the paper leaves to the designer (existence of
//! resources, operand arity, module latency vs. write-back step) are
//! checked when each transfer is added.
//!
//! The model is pure data; [`elaborate`](crate::elaborate::elaborate)
//! instantiates it onto the simulation kernel.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::op::{Arity, Op};
use crate::phase::Step;
use crate::resource::{
    ArrayDecl, BusDecl, BusId, MemoryDecl, MemoryId, ModuleDecl, ModuleId, RegisterDecl, RegisterId,
};
use crate::tuples::{indexed_parts, TransferTuple};
use crate::value::Value;

/// Errors from building an [`RtModel`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ModelError {
    /// Two resources of the same kind share a name.
    DuplicateName(String),
    /// A transfer referenced an unknown register.
    UnknownRegister(String),
    /// A transfer referenced an unknown bus.
    UnknownBus(String),
    /// A transfer referenced an unknown module.
    UnknownModule(String),
    /// A transfer's step lies outside `1..=cs_max`.
    StepOutOfRange {
        /// The offending step.
        step: Step,
        /// The model's maximum control step.
        cs_max: Step,
    },
    /// The write-back step does not equal read step + module latency.
    WrongWriteStep {
        /// The step the tuple asked for.
        got: Step,
        /// The step the module's timing requires.
        expected: Step,
    },
    /// The selected operation is not in the module's operation set.
    OpNotSupported {
        /// Module name.
        module: String,
        /// The unsupported operation.
        op: Op,
    },
    /// A multi-operation module was used without selecting an operation.
    MissingOp {
        /// Module name.
        module: String,
    },
    /// Operand routes do not match the operation's arity.
    ArityMismatch {
        /// Module name.
        module: String,
        /// The operation whose arity was violated.
        op: Op,
        /// Human-readable description of the violation.
        detail: &'static str,
    },
    /// The tuple has neither operands nor a write-back: it does nothing.
    EmptyTransfer,
    /// A constant memory index lies outside the memory's word range.
    MemoryIndexOutOfRange {
        /// Memory name.
        memory: String,
        /// The offending index.
        index: u32,
        /// The memory's length.
        len: u32,
    },
    /// An array or memory was declared with zero elements.
    EmptyStorage(String),
    /// A guard referenced a name that is not a register (memory words
    /// cannot appear in guards — their value would need an address port).
    GuardRegisterUnknown(String),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::DuplicateName(n) => write!(f, "duplicate resource name `{n}`"),
            ModelError::UnknownRegister(n) => write!(f, "unknown register `{n}`"),
            ModelError::UnknownBus(n) => write!(f, "unknown bus `{n}`"),
            ModelError::UnknownModule(n) => write!(f, "unknown module `{n}`"),
            ModelError::StepOutOfRange { step, cs_max } => {
                write!(f, "step {step} outside 1..={cs_max}")
            }
            ModelError::WrongWriteStep { got, expected } => write!(
                f,
                "write-back scheduled at step {got} but module latency requires step {expected}"
            ),
            ModelError::OpNotSupported { module, op } => {
                write!(f, "module `{module}` does not support operation `{op}`")
            }
            ModelError::MissingOp { module } => write!(
                f,
                "module `{module}` offers several operations; the transfer must select one"
            ),
            ModelError::ArityMismatch { module, op, detail } => {
                write!(f, "operands for `{op}` on module `{module}`: {detail}")
            }
            ModelError::EmptyTransfer => write!(f, "transfer has neither operands nor write-back"),
            ModelError::MemoryIndexOutOfRange { memory, index, len } => {
                write!(f, "index {index} outside memory `{memory}` (length {len})")
            }
            ModelError::EmptyStorage(n) => {
                write!(f, "array/memory `{n}` must have at least one element")
            }
            ModelError::GuardRegisterUnknown(n) => {
                write!(f, "guard operand `{n}` is not a register")
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// A complete clock-free register-transfer model.
///
/// # Examples
///
/// The model of paper Fig. 1 / §2.7:
///
/// ```
/// use clockless_core::prelude::*;
///
/// let mut m = RtModel::new("example", 7);
/// m.add_register_init("R1", Value::Num(3))?;
/// m.add_register_init("R2", Value::Num(4))?;
/// m.add_bus("B1")?;
/// m.add_bus("B2")?;
/// m.add_module(ModuleDecl::single("ADD", Op::Add, ModuleTiming::Pipelined { latency: 1 }))?;
/// m.add_transfer("(R1,B1,R2,B2,5,ADD,6,B1,R1)".parse::<TransferTuple>().unwrap())?;
/// assert_eq!(m.tuples().len(), 1);
/// # Ok::<(), clockless_core::model::ModelError>(())
/// ```
///
/// Cloning is cheap: a clone copies only the register table, the one part
/// a stimulus or fault edits, and shares the declarations and transfers
/// with its original until one of them edits those (copy on write).
#[derive(Debug, Clone)]
pub struct RtModel {
    cs_max: Step,
    registers: Vec<RegisterDecl>,
    decls: Arc<Decls>,
    tuples: Arc<Vec<TransferTuple>>,
}

/// The declarations besides the register table, with the name indices of
/// all four resource kinds.
#[derive(Debug, Clone, Default, PartialEq)]
struct Decls {
    name: String,
    buses: Vec<BusDecl>,
    modules: Vec<ModuleDecl>,
    arrays: Vec<ArrayDecl>,
    memories: Vec<MemoryDecl>,
    reg_index: HashMap<String, RegisterId>,
    bus_index: HashMap<String, BusId>,
    mod_index: HashMap<String, ModuleId>,
    mem_index: HashMap<String, MemoryId>,
}

/// What a storage name in a transfer's register position resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageRead {
    /// An ordinary register (including array elements).
    Register(RegisterId),
    /// A memory word at a constant address.
    MemWord {
        /// The memory.
        mem: MemoryId,
        /// The fixed word index (validated in range).
        index: u32,
    },
    /// A memory word addressed indirectly through a register.
    MemIndirect {
        /// The memory.
        mem: MemoryId,
        /// The register whose value selects the word.
        addr: RegisterId,
    },
}

impl RtModel {
    /// Creates an empty model simulating control steps `1..=cs_max`
    /// (the controller's `CS_MAX` generic).
    pub fn new(name: impl Into<String>, cs_max: Step) -> RtModel {
        RtModel {
            cs_max,
            registers: Vec::new(),
            decls: Arc::new(Decls {
                name: name.into(),
                ..Decls::default()
            }),
            tuples: Arc::default(),
        }
    }

    /// The model's name.
    pub fn name(&self) -> &str {
        &self.decls.name
    }

    /// Maximum control step (`CS_MAX`).
    pub fn cs_max(&self) -> Step {
        self.cs_max
    }

    /// Adds a register whose output starts at `DISC`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::DuplicateName`] if a register of this name
    /// exists.
    pub fn add_register(&mut self, name: impl Into<String>) -> Result<RegisterId, ModelError> {
        self.add_register_init(name, Value::Disc)
    }

    /// Adds a register preloaded with `init` (visible on its output port
    /// from step 1).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::DuplicateName`] if a register of this name
    /// exists, or if the name reads as a word `M[i]` of a declared memory
    /// `M` or an element `A[i]` of a declared array `A` (the elements
    /// exist already; any other index would pose as one).
    pub fn add_register_init(
        &mut self,
        name: impl Into<String>,
        init: Value,
    ) -> Result<RegisterId, ModelError> {
        let name = name.into();
        let decls = Arc::make_mut(&mut self.decls);
        let storage = |base: &str| {
            decls.mem_index.contains_key(base) || decls.arrays.iter().any(|a| a.name == base)
        };
        if decls.reg_index.contains_key(&name)
            || indexed_parts(&name).is_some_and(|(b, _)| storage(b))
        {
            return Err(ModelError::DuplicateName(name));
        }
        let id = RegisterId(self.registers.len() as u32);
        decls.reg_index.insert(name.clone(), id);
        self.registers.push(RegisterDecl { name, init });
        Ok(id)
    }

    /// Adds a bus.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::DuplicateName`] if a bus of this name exists.
    pub fn add_bus(&mut self, name: impl Into<String>) -> Result<BusId, ModelError> {
        let name = name.into();
        let decls = Arc::make_mut(&mut self.decls);
        if decls.bus_index.contains_key(&name) {
            return Err(ModelError::DuplicateName(name));
        }
        let id = BusId(decls.buses.len() as u32);
        decls.bus_index.insert(name.clone(), id);
        decls.buses.push(BusDecl { name });
        Ok(id)
    }

    /// Adds a functional module.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::DuplicateName`] if a module of this name
    /// exists.
    pub fn add_module(&mut self, decl: ModuleDecl) -> Result<ModuleId, ModelError> {
        let decls = Arc::make_mut(&mut self.decls);
        if decls.mod_index.contains_key(&decl.name) {
            return Err(ModelError::DuplicateName(decl.name));
        }
        let id = ModuleId(decls.modules.len() as u32);
        decls.mod_index.insert(decl.name.clone(), id);
        decls.modules.push(decl);
        Ok(id)
    }

    /// Adds a register array: `len` ordinary registers named
    /// `name[0]` … `name[len-1]`, each initialized to `init`, plus the
    /// array declaration itself (kept for textual/VHDL round trips).
    ///
    /// # Errors
    ///
    /// [`ModelError::EmptyStorage`] for `len == 0`, or
    /// [`ModelError::DuplicateName`] if the base name is taken by another
    /// array or a memory, or is the base `A` of a register named `A[i]`
    /// (which would collide with an element or pose as one).
    pub fn add_array(
        &mut self,
        name: impl Into<String>,
        len: u32,
        init: Value,
    ) -> Result<(), ModelError> {
        let name = name.into();
        if len == 0 {
            return Err(ModelError::EmptyStorage(name));
        }
        let aliased = |r: &RegisterDecl| indexed_parts(&r.name).is_some_and(|(b, _)| b == name);
        if self.decls.mem_index.contains_key(&name)
            || self.array_by_name(&name).is_some()
            || self.registers.iter().any(aliased)
        {
            return Err(ModelError::DuplicateName(name));
        }
        for i in 0..len {
            self.add_register_init(format!("{name}[{i}]"), init)?;
        }
        Arc::make_mut(&mut self.decls)
            .arrays
            .push(ArrayDecl { name, len, init });
        Ok(())
    }

    /// Adds a memory of `len` words, each initialized to `init`.
    ///
    /// # Errors
    ///
    /// [`ModelError::EmptyStorage`] for `len == 0`, or
    /// [`ModelError::DuplicateName`] if the name is taken by a memory or
    /// a register, or is the base `M` of a register named `M[i]` (an
    /// array element, or a plain register its words would alias).
    pub fn add_memory(
        &mut self,
        name: impl Into<String>,
        len: u32,
        init: Value,
    ) -> Result<MemoryId, ModelError> {
        let name = name.into();
        if len == 0 {
            return Err(ModelError::EmptyStorage(name));
        }
        let aliased = |r: &RegisterDecl| indexed_parts(&r.name).is_some_and(|(b, _)| b == name);
        let decls = Arc::make_mut(&mut self.decls);
        if decls.mem_index.contains_key(&name)
            || decls.reg_index.contains_key(&name)
            || self.registers.iter().any(aliased)
        {
            return Err(ModelError::DuplicateName(name));
        }
        let id = MemoryId(decls.memories.len() as u32);
        decls.mem_index.insert(name.clone(), id);
        decls.memories.push(MemoryDecl { name, len, init });
        Ok(id)
    }

    /// Resolves a storage name from a transfer's register position:
    /// a register match wins (array elements are registers), otherwise an
    /// indexed reference `M[idx]` into a declared memory (constant index
    /// validated in range; otherwise `idx` must name a register used as
    /// the address).
    ///
    /// # Errors
    ///
    /// [`ModelError::UnknownRegister`] when nothing matches, or
    /// [`ModelError::MemoryIndexOutOfRange`] for a bad constant index.
    pub fn resolve_storage(&self, name: &str) -> Result<StorageRead, ModelError> {
        if let Some(id) = self.register_by_name(name) {
            return Ok(StorageRead::Register(id));
        }
        if let Some((base, idx)) = indexed_parts(name) {
            if let Some(mem) = self.memory_by_name(base) {
                let decl = &self.decls.memories[mem.0 as usize];
                return match idx.parse::<u32>() {
                    Ok(i) if i < decl.len => Ok(StorageRead::MemWord { mem, index: i }),
                    Ok(i) => Err(ModelError::MemoryIndexOutOfRange {
                        memory: base.to_string(),
                        index: i,
                        len: decl.len,
                    }),
                    Err(_) => match self.register_by_name(idx) {
                        Some(addr) => Ok(StorageRead::MemIndirect { mem, addr }),
                        None => Err(ModelError::UnknownRegister(idx.to_string())),
                    },
                };
            }
        }
        Err(ModelError::UnknownRegister(name.to_string()))
    }

    /// Validates a tuple's guard: every named operand must be a register
    /// (array elements included; memory words are not allowed).
    fn validate_guard(&self, tuple: &TransferTuple) -> Result<(), ModelError> {
        if let Some(g) = &tuple.guard {
            for r in g.registers() {
                if self.register_by_name(r).is_none() {
                    return Err(ModelError::GuardRegisterUnknown(r.to_string()));
                }
            }
        }
        Ok(())
    }

    /// Adds a register transfer after validating it against the declared
    /// resources and the module's timing.
    ///
    /// # Errors
    ///
    /// Any [`ModelError`] variant describing the violated invariant.
    pub fn add_transfer(&mut self, tuple: TransferTuple) -> Result<(), ModelError> {
        self.validate_tuple(&tuple)?;
        Arc::make_mut(&mut self.tuples).push(tuple);
        Ok(())
    }

    /// Validates a tuple without adding it.
    ///
    /// # Errors
    ///
    /// Same as [`add_transfer`](Self::add_transfer).
    pub fn validate_tuple(&self, tuple: &TransferTuple) -> Result<(), ModelError> {
        if tuple.src_a.is_none() && tuple.src_b.is_none() && tuple.write.is_none() {
            return Err(ModelError::EmptyTransfer);
        }
        self.check_step(tuple.read_step)?;
        let module = self
            .module_by_name(&tuple.module)
            .ok_or_else(|| ModelError::UnknownModule(tuple.module.clone()))?;
        let decl = &self.decls.modules[module.0 as usize];

        // Resolve the effective operation.
        let op = match (tuple.op, decl.ops.len()) {
            (Some(op), _) => {
                if decl.op_index(op).is_none() {
                    return Err(ModelError::OpNotSupported {
                        module: decl.name.clone(),
                        op,
                    });
                }
                op
            }
            (None, 1) => decl.ops[0],
            (None, _) => {
                return Err(ModelError::MissingOp {
                    module: decl.name.clone(),
                })
            }
        };

        // Operand routes must exist and match the operation's arity.
        for route in [&tuple.src_a, &tuple.src_b].into_iter().flatten() {
            self.resolve_storage(&route.register)?;
            if self.bus_by_name(&route.bus).is_none() {
                return Err(ModelError::UnknownBus(route.bus.clone()));
            }
        }
        self.validate_guard(tuple)?;
        let arity_err = |detail| ModelError::ArityMismatch {
            module: decl.name.clone(),
            op,
            detail,
        };
        match op.arity() {
            Arity::Binary => {
                if tuple.src_a.is_none() || tuple.src_b.is_none() {
                    return Err(arity_err("binary operation needs both operand routes"));
                }
            }
            Arity::UnaryA => {
                if tuple.src_a.is_none() {
                    return Err(arity_err("unary operation needs the first operand route"));
                }
                if tuple.src_b.is_some() {
                    return Err(arity_err(
                        "unary operation must leave the second port quiet",
                    ));
                }
            }
            Arity::UnaryB => {
                if tuple.src_b.is_none() {
                    return Err(arity_err("operation needs the second operand route"));
                }
                if tuple.src_a.is_some() {
                    return Err(arity_err("operation must leave the first port quiet"));
                }
            }
        }

        if let Some(w) = &tuple.write {
            self.check_step(w.step)?;
            if self.bus_by_name(&w.bus).is_none() {
                return Err(ModelError::UnknownBus(w.bus.clone()));
            }
            self.resolve_storage(&w.register)?;
            let expected = tuple.read_step + decl.timing.latency();
            if w.step != expected {
                return Err(ModelError::WrongWriteStep {
                    got: w.step,
                    expected,
                });
            }
        }
        Ok(())
    }

    fn check_step(&self, step: Step) -> Result<(), ModelError> {
        if step < 1 || step > self.cs_max {
            Err(ModelError::StepOutOfRange {
                step,
                cs_max: self.cs_max,
            })
        } else {
            Ok(())
        }
    }

    /// The declared registers, indexable by [`RegisterId`].
    pub fn registers(&self) -> &[RegisterDecl] {
        &self.registers
    }

    /// The declared buses, indexable by [`BusId`].
    pub fn buses(&self) -> &[BusDecl] {
        &self.decls.buses
    }

    /// The declared modules, indexable by [`ModuleId`].
    pub fn modules(&self) -> &[ModuleDecl] {
        &self.decls.modules
    }

    /// The scheduled transfers.
    pub fn tuples(&self) -> &[TransferTuple] {
        &self.tuples
    }

    /// The declared register arrays (their elements also appear in
    /// [`registers`](Self::registers)).
    pub fn arrays(&self) -> &[ArrayDecl] {
        &self.decls.arrays
    }

    /// The declared memories, indexable by [`MemoryId`].
    pub fn memories(&self) -> &[MemoryDecl] {
        &self.decls.memories
    }

    /// Looks up a memory by name.
    pub fn memory_by_name(&self, name: &str) -> Option<MemoryId> {
        self.decls.mem_index.get(name).copied()
    }

    /// Looks up an array declaration by base name.
    pub fn array_by_name(&self, name: &str) -> Option<&ArrayDecl> {
        self.decls.arrays.iter().find(|a| a.name == name)
    }

    /// `true` when `name` names a register that belongs to a declared
    /// array (i.e. was created by [`add_array`](Self::add_array)).
    pub fn is_array_element(&self, name: &str) -> bool {
        indexed_parts(name).is_some_and(|(base, _)| self.array_by_name(base).is_some())
    }

    /// Looks up a register by name.
    pub fn register_by_name(&self, name: &str) -> Option<RegisterId> {
        self.decls.reg_index.get(name).copied()
    }

    /// Looks up a bus by name.
    pub fn bus_by_name(&self, name: &str) -> Option<BusId> {
        self.decls.bus_index.get(name).copied()
    }

    /// Looks up a module by name.
    pub fn module_by_name(&self, name: &str) -> Option<ModuleId> {
        self.decls.mod_index.get(name).copied()
    }

    /// The effective operation of a (validated) tuple: its selector, or
    /// the module's single operation.
    ///
    /// # Panics
    ///
    /// Panics if the tuple's module is unknown or ambiguous; tuples taken
    /// from [`tuples`](Self::tuples) never are.
    pub fn effective_op(&self, tuple: &TransferTuple) -> Op {
        match tuple.op {
            Some(op) => op,
            None => {
                let m = self
                    .module_by_name(&tuple.module)
                    .expect("validated tuple references known module");
                self.decls.modules[m.0 as usize].ops[0]
            }
        }
    }

    /// Overwrites a register's initial value in place.
    ///
    /// This is a **mutation helper** for stimuli (fleet `init` overrides)
    /// and fault-injection campaigns (stuck-at-`DISC` and corrupted-init
    /// faults in `clockless-verify::faults`); regular model construction
    /// should pass the init to
    /// [`add_register_init`](Self::add_register_init).
    ///
    /// # Errors
    ///
    /// [`ModelError::UnknownRegister`] if no register of this name exists.
    pub fn set_register_init(&mut self, name: &str, init: Value) -> Result<(), ModelError> {
        let id = self
            .register_by_name(name)
            .ok_or_else(|| ModelError::UnknownRegister(name.to_string()))?;
        self.registers[id.0 as usize].init = init;
        Ok(())
    }

    /// `true` when `other` is this model up to register initial values:
    /// the same step count, declarations and transfers, and the same
    /// registers in the same order. Models that share their declarations
    /// and transfers (copies, and copies with init edits) compare in
    /// O(registers).
    pub fn same_except_inits(&self, other: &RtModel) -> bool {
        self.cs_max == other.cs_max
            && (Arc::ptr_eq(&self.decls, &other.decls) || self.decls == other.decls)
            && (Arc::ptr_eq(&self.tuples, &other.tuples) || self.tuples == other.tuples)
            && self.registers.len() == other.registers.len()
            && (self.registers.iter())
                .zip(&other.registers)
                .all(|(a, b)| a.name == b.name)
    }

    /// Sets `CS_MAX` to `cs_max` and re-validates every transfer against
    /// it, as [`add_transfer`](Self::add_transfer) would on a model built
    /// with that step count.
    ///
    /// # Errors
    ///
    /// The first transfer's [`ModelError`] under the new step count (for
    /// instance [`ModelError::StepOutOfRange`] when the schedule no
    /// longer fits); the model is left unchanged.
    pub fn set_cs_max(&mut self, cs_max: Step) -> Result<(), ModelError> {
        let old = std::mem::replace(&mut self.cs_max, cs_max);
        if let Some(e) = self
            .tuples
            .iter()
            .find_map(|t| self.validate_tuple(t).err())
        {
            self.cs_max = old;
            return Err(e);
        }
        Ok(())
    }

    /// Removes and returns the transfer at `index`, or `None` when the
    /// index is out of range.
    ///
    /// A mutation helper for dropped-tuple fault campaigns; the remaining
    /// tuples keep their relative order (and stay valid — removing a
    /// transfer cannot violate any scheduling invariant).
    pub fn remove_transfer(&mut self, index: usize) -> Option<TransferTuple> {
        if index < self.tuples.len() {
            Some(Arc::make_mut(&mut self.tuples).remove(index))
        } else {
            None
        }
    }

    /// Replaces the transfer at `index` with `tuple`, checking only that
    /// the referenced resources exist and every step lies in
    /// `1..=cs_max` — **not** the timing/arity invariants of
    /// [`validate_tuple`](Self::validate_tuple).
    ///
    /// This is the escape hatch fault-injection campaigns use to build
    /// step-skewed mutants (write-back at `stepW ± 1`), which the regular
    /// validation rightly rejects with [`ModelError::WrongWriteStep`].
    /// Elaboration handles any resource-valid tuple, so such mutants still
    /// simulate — they just misbehave, which is the point.
    ///
    /// Returns the replaced tuple.
    ///
    /// # Errors
    ///
    /// [`ModelError`] if a referenced resource is unknown, a step is out
    /// of range, or the tuple is empty.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn replace_transfer_unchecked(
        &mut self,
        index: usize,
        tuple: TransferTuple,
    ) -> Result<TransferTuple, ModelError> {
        assert!(
            index < self.tuples.len(),
            "transfer index {index} out of range ({} tuples)",
            self.tuples.len()
        );
        self.validate_tuple_resources(&tuple)?;
        Ok(std::mem::replace(
            &mut Arc::make_mut(&mut self.tuples)[index],
            tuple,
        ))
    }

    /// The resource-existence subset of
    /// [`validate_tuple`](Self::validate_tuple): everything the elaborator
    /// needs to instantiate processes, nothing about timing.
    fn validate_tuple_resources(&self, tuple: &TransferTuple) -> Result<(), ModelError> {
        if tuple.src_a.is_none() && tuple.src_b.is_none() && tuple.write.is_none() {
            return Err(ModelError::EmptyTransfer);
        }
        self.check_step(tuple.read_step)?;
        if self.module_by_name(&tuple.module).is_none() {
            return Err(ModelError::UnknownModule(tuple.module.clone()));
        }
        for route in [&tuple.src_a, &tuple.src_b].into_iter().flatten() {
            self.resolve_storage(&route.register)?;
            if self.bus_by_name(&route.bus).is_none() {
                return Err(ModelError::UnknownBus(route.bus.clone()));
            }
        }
        self.validate_guard(tuple)?;
        if let Some(w) = &tuple.write {
            self.check_step(w.step)?;
            if self.bus_by_name(&w.bus).is_none() {
                return Err(ModelError::UnknownBus(w.bus.clone()));
            }
            self.resolve_storage(&w.register)?;
        }
        Ok(())
    }

    /// Rebuilds the name indices; required after deserialization (they are
    /// not serialized).
    pub fn rebuild_indices(&mut self) {
        let decls = Arc::make_mut(&mut self.decls);
        decls.reg_index = self
            .registers
            .iter()
            .enumerate()
            .map(|(i, r)| (r.name.clone(), RegisterId(i as u32)))
            .collect();
        decls.bus_index = decls
            .buses
            .iter()
            .enumerate()
            .map(|(i, b)| (b.name.clone(), BusId(i as u32)))
            .collect();
        decls.mod_index = decls
            .modules
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name.clone(), ModuleId(i as u32)))
            .collect();
        decls.mem_index = decls
            .memories
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name.clone(), MemoryId(i as u32)))
            .collect();
    }
}

/// Builds the model of paper Fig. 1 / §2.7: registers `R1`, `R2`, buses
/// `B1`, `B2`, a pipelined adder, and the transfer
/// `(R1,B1,R2,B2,5,ADD,6,B1,R1)`, with `CS_MAX = 7`.
///
/// `R1` and `R2` are preloaded with the given values so the transfer has
/// data to move (the paper feeds them through entity ports).
pub fn fig1_model(r1: i64, r2: i64) -> RtModel {
    use crate::resource::ModuleTiming;

    let mut m = RtModel::new("fig1_example", 7);
    m.add_register_init("R1", Value::Num(r1))
        .expect("fresh name");
    m.add_register_init("R2", Value::Num(r2))
        .expect("fresh name");
    m.add_bus("B1").expect("fresh name");
    m.add_bus("B2").expect("fresh name");
    m.add_module(ModuleDecl::single(
        "ADD",
        Op::Add,
        ModuleTiming::Pipelined { latency: 1 },
    ))
    .expect("fresh name");
    m.add_transfer(
        TransferTuple::new(5, "ADD")
            .src_a("R1", "B1")
            .src_b("R2", "B2")
            .write(6, "B1", "R1"),
    )
    .expect("fig1 tuple is valid");
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::ModuleTiming;

    fn base() -> RtModel {
        let mut m = RtModel::new("t", 10);
        m.add_register("R1").unwrap();
        m.add_register("R2").unwrap();
        m.add_bus("B1").unwrap();
        m.add_bus("B2").unwrap();
        m.add_module(ModuleDecl::single(
            "ADD",
            Op::Add,
            ModuleTiming::Pipelined { latency: 1 },
        ))
        .unwrap();
        m
    }

    #[test]
    fn duplicate_names_rejected_per_kind() {
        let mut m = base();
        assert!(matches!(
            m.add_register("R1"),
            Err(ModelError::DuplicateName(_))
        ));
        assert!(matches!(m.add_bus("B1"), Err(ModelError::DuplicateName(_))));
        // Same name across kinds is fine (namespaces are separate).
        assert!(m.add_bus("R1").is_ok());
    }

    #[test]
    fn valid_transfer_accepted() {
        let mut m = base();
        let t = TransferTuple::new(5, "ADD")
            .src_a("R1", "B1")
            .src_b("R2", "B2")
            .write(6, "B1", "R1");
        assert!(m.add_transfer(t).is_ok());
        assert_eq!(m.tuples().len(), 1);
    }

    #[test]
    fn unknown_resources_rejected() {
        let mut m = base();
        let t = TransferTuple::new(5, "ADD")
            .src_a("Rx", "B1")
            .src_b("R2", "B2")
            .write(6, "B1", "R1");
        assert_eq!(
            m.add_transfer(t),
            Err(ModelError::UnknownRegister("Rx".into()))
        );

        let t = TransferTuple::new(5, "ADD")
            .src_a("R1", "Bx")
            .src_b("R2", "B2")
            .write(6, "B1", "R1");
        assert_eq!(m.add_transfer(t), Err(ModelError::UnknownBus("Bx".into())));

        let t = TransferTuple::new(5, "MUL")
            .src_a("R1", "B1")
            .src_b("R2", "B2")
            .write(6, "B1", "R1");
        assert_eq!(
            m.add_transfer(t),
            Err(ModelError::UnknownModule("MUL".into()))
        );
    }

    #[test]
    fn write_step_must_match_latency() {
        let mut m = base();
        let t = TransferTuple::new(5, "ADD")
            .src_a("R1", "B1")
            .src_b("R2", "B2")
            .write(7, "B1", "R1");
        assert_eq!(
            m.add_transfer(t),
            Err(ModelError::WrongWriteStep {
                got: 7,
                expected: 6
            })
        );
    }

    #[test]
    fn steps_must_fit_cs_max() {
        let mut m = base();
        let t = TransferTuple::new(10, "ADD")
            .src_a("R1", "B1")
            .src_b("R2", "B2")
            .write(11, "B1", "R1");
        assert_eq!(
            m.add_transfer(t),
            Err(ModelError::StepOutOfRange {
                step: 11,
                cs_max: 10
            })
        );
    }

    #[test]
    fn set_register_init_mutates_in_place() {
        let mut m = fig1_model(3, 4);
        m.set_register_init("R1", Value::Disc).unwrap();
        assert_eq!(m.registers()[0].init, Value::Disc);
        assert_eq!(
            m.set_register_init("NOPE", Value::Num(1)),
            Err(ModelError::UnknownRegister("NOPE".into()))
        );
    }

    #[test]
    fn remove_transfer_pops_by_index() {
        let mut m = fig1_model(3, 4);
        assert!(m.remove_transfer(7).is_none());
        let t = m.remove_transfer(0).expect("in range");
        assert_eq!(t.module, "ADD");
        assert!(m.tuples().is_empty());
        assert!(m.remove_transfer(0).is_none());
    }

    #[test]
    fn replace_transfer_unchecked_allows_skewed_writes() {
        let mut m = fig1_model(3, 4);
        let mut skew = m.tuples()[0].clone();
        skew.write.as_mut().unwrap().step = 7; // latency requires 6
                                               // The validated path rejects the skew…
        assert!(matches!(
            m.validate_tuple(&skew),
            Err(ModelError::WrongWriteStep {
                got: 7,
                expected: 6
            })
        ));
        // …the fault-injection escape hatch accepts it (resources exist,
        // steps are in range) and returns the original.
        let old = m.replace_transfer_unchecked(0, skew.clone()).unwrap();
        assert_eq!(old.write.as_ref().unwrap().step, 6);
        assert_eq!(m.tuples()[0], skew);
        // Resource checks still bite: an unknown bus is refused.
        let mut bad = skew.clone();
        bad.write.as_mut().unwrap().bus = "BX".into();
        assert_eq!(
            m.replace_transfer_unchecked(0, bad),
            Err(ModelError::UnknownBus("BX".into()))
        );
        // As is a step outside 1..=cs_max.
        let mut oor = skew;
        oor.write.as_mut().unwrap().step = 8;
        assert!(matches!(
            m.replace_transfer_unchecked(0, oor),
            Err(ModelError::StepOutOfRange { step: 8, cs_max: 7 })
        ));
    }

    #[test]
    fn binary_op_needs_both_operands() {
        let mut m = base();
        let t = TransferTuple::new(5, "ADD")
            .src_a("R1", "B1")
            .write(6, "B1", "R1");
        assert!(matches!(
            m.add_transfer(t),
            Err(ModelError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn unary_op_rejects_second_operand() {
        let mut m = base();
        m.add_module(ModuleDecl::single(
            "CP",
            Op::PassA,
            ModuleTiming::Combinational,
        ))
        .unwrap();
        let ok = TransferTuple::new(2, "CP")
            .src_a("R1", "B1")
            .write(2, "B2", "R2");
        assert!(m.add_transfer(ok).is_ok());
        let bad = TransferTuple::new(3, "CP")
            .src_a("R1", "B1")
            .src_b("R2", "B2")
            .write(3, "B2", "R2");
        assert!(matches!(
            m.add_transfer(bad),
            Err(ModelError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn multi_op_module_requires_selector() {
        let mut m = base();
        m.add_module(ModuleDecl::multi(
            "ALU",
            [Op::Add, Op::Sub],
            ModuleTiming::Combinational,
        ))
        .unwrap();
        let t = TransferTuple::new(2, "ALU")
            .src_a("R1", "B1")
            .src_b("R2", "B2")
            .write(2, "B1", "R1");
        assert!(matches!(
            m.add_transfer(t.clone()),
            Err(ModelError::MissingOp { .. })
        ));
        assert!(m.add_transfer(t.clone().op(Op::Sub)).is_ok());
        assert!(matches!(
            m.add_transfer(t.op(Op::Mul)),
            Err(ModelError::OpNotSupported { .. })
        ));
    }

    #[test]
    fn empty_transfer_rejected() {
        let mut m = base();
        assert_eq!(
            m.add_transfer(TransferTuple::new(1, "ADD")),
            Err(ModelError::EmptyTransfer)
        );
    }

    #[test]
    fn fig1_model_builds() {
        let m = fig1_model(3, 4);
        assert_eq!(m.cs_max(), 7);
        assert_eq!(m.registers().len(), 2);
        assert_eq!(m.tuples().len(), 1);
        assert_eq!(m.effective_op(&m.tuples()[0]), Op::Add);
    }

    #[test]
    fn arrays_expand_to_element_registers() {
        let mut m = base();
        m.add_array("A", 3, Value::Num(7)).unwrap();
        assert_eq!(m.arrays().len(), 1);
        assert!(m.register_by_name("A[0]").is_some());
        assert!(m.register_by_name("A[2]").is_some());
        assert!(m.register_by_name("A[3]").is_none());
        assert!(m.is_array_element("A[1]"));
        assert!(!m.is_array_element("R1"));
        // Elements work wherever registers do.
        let t = TransferTuple::new(5, "ADD")
            .src_a("A[0]", "B1")
            .src_b("A[1]", "B2")
            .write(6, "B1", "A[2]");
        assert!(m.add_transfer(t).is_ok());
        // Zero-length and duplicate declarations are rejected.
        assert!(matches!(
            m.add_array("Z", 0, Value::Disc),
            Err(ModelError::EmptyStorage(_))
        ));
        assert!(matches!(
            m.add_array("A", 2, Value::Disc),
            Err(ModelError::DuplicateName(_))
        ));
    }

    #[test]
    fn memory_references_resolve_and_validate() {
        let mut m = base();
        m.add_register("IDX").unwrap();
        let mem = m.add_memory("M", 4, Value::Num(0)).unwrap();
        assert_eq!(m.memories()[mem.0 as usize].len, 4);
        assert_eq!(
            m.resolve_storage("M[2]"),
            Ok(StorageRead::MemWord { mem, index: 2 })
        );
        assert!(matches!(
            m.resolve_storage("M[IDX]"),
            Ok(StorageRead::MemIndirect { .. })
        ));
        assert_eq!(
            m.resolve_storage("M[9]"),
            Err(ModelError::MemoryIndexOutOfRange {
                memory: "M".into(),
                index: 9,
                len: 4
            })
        );
        assert_eq!(
            m.resolve_storage("M[NOPE]"),
            Err(ModelError::UnknownRegister("NOPE".into()))
        );
        // Memory reads and writes pass tuple validation.
        let t = TransferTuple::new(5, "ADD")
            .src_a("M[0]", "B1")
            .src_b("M[IDX]", "B2")
            .write(6, "B1", "M[1]");
        assert!(m.add_transfer(t).is_ok());
        // Bad constant index inside a tuple is caught.
        let t = TransferTuple::new(5, "ADD")
            .src_a("M[4]", "B1")
            .src_b("R2", "B2")
            .write(6, "B1", "R1");
        assert!(matches!(
            m.add_transfer(t),
            Err(ModelError::MemoryIndexOutOfRange { .. })
        ));
        // Name collisions across storage kinds are rejected.
        assert!(matches!(
            m.add_memory("R1", 2, Value::Disc),
            Err(ModelError::DuplicateName(_))
        ));
        assert!(matches!(
            m.add_array("M", 2, Value::Disc),
            Err(ModelError::DuplicateName(_))
        ));
    }

    #[test]
    fn guard_operands_must_be_registers() {
        use crate::tuples::Guard;
        let mut m = base();
        m.add_array("A", 2, Value::Num(0)).unwrap();
        m.add_memory("M", 2, Value::Num(0)).unwrap();
        let t = |g: &str| {
            TransferTuple::new(5, "ADD")
                .src_a("R1", "B1")
                .src_b("R2", "B2")
                .write(6, "B1", "R1")
                .guard(Guard::parse(g).unwrap())
        };
        assert!(m.validate_tuple(&t("R1 = 0 and A[1] < 5")).is_ok());
        assert_eq!(
            m.validate_tuple(&t("NOPE = 0")),
            Err(ModelError::GuardRegisterUnknown("NOPE".into()))
        );
        // Memory words cannot be guard operands.
        assert_eq!(
            m.validate_tuple(&t("M[0] = 0")),
            Err(ModelError::GuardRegisterUnknown("M[0]".into()))
        );
    }

    #[test]
    fn register_names_may_not_alias_memory_words() {
        // Memory first: `M[9]` and `M[1]` would read as words of `M`.
        let mut m = base();
        m.add_memory("M", 4, Value::Num(0)).unwrap();
        for name in ["M[9]", "M[1]", "M[R1]"] {
            assert_eq!(
                m.add_register_init(name, Value::Num(1)),
                Err(ModelError::DuplicateName(name.into()))
            );
        }
        assert!(matches!(
            m.add_array("M", 2, Value::Disc),
            Err(ModelError::DuplicateName(_))
        ));
        // Registers first: the memory is the one refused.
        let mut m = base();
        m.add_register_init("M[9]", Value::Num(1)).unwrap();
        assert_eq!(
            m.add_memory("M", 4, Value::Num(0)),
            Err(ModelError::DuplicateName("M".into()))
        );
        // Other names stay apart: `MM[1]` does not alias `M`.
        m.add_register("MM[1]").unwrap();
        assert!(m.add_memory("MEM", 4, Value::Num(0)).is_ok());
    }

    #[test]
    fn register_names_may_not_pose_as_array_elements() {
        // Array first: every `V[i]` is an element already, or poses as one.
        let mut m = base();
        m.add_array("V", 2, Value::Num(0)).unwrap();
        for name in ["V[7]", "V[1]", "V[01]", "V[R1]"] {
            assert_eq!(
                m.add_register_init(name, Value::Num(1)),
                Err(ModelError::DuplicateName(name.into()))
            );
        }
        assert!(!m.registers().iter().any(|r| r.name == "V[7]"));
        // The declared elements still take their own inits.
        m.set_register_init("V[1]", Value::Num(9)).unwrap();
        // Registers first: the array is the one refused, in range or not.
        for name in ["V[7]", "V[0]"] {
            let mut m = base();
            m.add_register_init(name, Value::Num(1)).unwrap();
            assert_eq!(
                m.add_array("V", 2, Value::Num(0)),
                Err(ModelError::DuplicateName("V".into()))
            );
            assert!(m.arrays().is_empty() && m.register_by_name("V[1]").is_none());
        }
        // Other names stay apart: `VV[7]` does not pose as an element of `V`.
        let mut m = base();
        m.add_register("VV[7]").unwrap();
        m.add_array("V", 2, Value::Num(0)).unwrap();
        m.add_register("VV[8]").unwrap();
    }

    #[test]
    fn set_cs_max_revalidates_every_transfer() {
        let mut m = fig1_model(3, 4);
        m.set_cs_max(9).unwrap();
        assert_eq!(m.cs_max(), 9);
        // The write-back at step 6 no longer fits: the first transfer's
        // error, with the model unchanged.
        assert_eq!(
            m.set_cs_max(5),
            Err(ModelError::StepOutOfRange { step: 6, cs_max: 5 })
        );
        assert_eq!(m.cs_max(), 9);
        // A skewed transfer fails validation at any step count.
        let mut skew = m.tuples()[0].clone();
        skew.write.as_mut().unwrap().step = 7;
        m.replace_transfer_unchecked(0, skew).unwrap();
        assert_eq!(
            m.set_cs_max(9),
            Err(ModelError::WrongWriteStep {
                got: 7,
                expected: 6
            })
        );
    }

    /// A clone shares the original's declarations and transfers; editing
    /// the clone through any mutator must leave the original as it was.
    #[test]
    fn clones_copy_on_write() {
        use crate::resource::ModuleTiming;
        use crate::text::{parse_model, to_text};
        let original = parse_model(
            "model cow steps 8\nregister A init 1\nregister B\narray V[2] init 0\n\
             memory M[4] init 5\nbus X\nbus Y\nmodule CP ops passa comb\n\
             transfer (A,X,-,-,2,CP,2,Y,B)\ntransfer (M[1],X,-,-,3,CP,3,Y,V[0])\n",
        )
        .unwrap();
        let (text, table) = (to_text(&original), original.registers().to_vec());
        let edit = |what: &str, edit: &dyn Fn(&mut RtModel)| {
            let mut clone = original.clone();
            edit(&mut clone);
            assert_eq!(to_text(&original), text, "{what} leaves the text");
            // `to_text` prints an array's shared init, so compare the
            // register table too; and every name must still resolve.
            assert_eq!(original.registers(), table, "{what} leaves the inits");
            assert!(table
                .iter()
                .all(|r| original.register_by_name(&r.name).is_some()));
            assert!(original.bus_by_name("X").is_some() && original.memory_by_name("M").is_some());
        };
        edit("add_register", &|m| {
            m.add_register("C").unwrap();
        });
        edit("add_register_init", &|m| {
            m.add_register_init("D", Value::Num(2)).unwrap();
        });
        edit("add_bus", &|m| {
            m.add_bus("Z").unwrap();
        });
        edit("add_module", &|m| {
            let decl = ModuleDecl::single("CQ", Op::PassA, ModuleTiming::Combinational);
            m.add_module(decl).unwrap();
        });
        edit("add_array", &|m| {
            m.add_array("W", 2, Value::Num(1)).unwrap()
        });
        edit("add_memory", &|m| {
            m.add_memory("N", 2, Value::Num(0)).unwrap();
        });
        edit("add_transfer", &|m| {
            let t = TransferTuple::new(6, "CP")
                .src_a("B", "X")
                .write(6, "Y", "A");
            m.add_transfer(t).unwrap();
        });
        edit("remove_transfer", &|m| {
            m.remove_transfer(0).unwrap();
        });
        edit("replace_transfer_unchecked", &|m| {
            let skew = TransferTuple::new(4, "CP")
                .src_a("A", "X")
                .write(5, "Y", "B");
            m.replace_transfer_unchecked(0, skew).unwrap();
        });
        edit("set_register_init", &|m| {
            m.set_register_init("V[1]", Value::Num(9)).unwrap();
            m.set_register_init("A", Value::Disc).unwrap();
        });
        edit("rebuild_indices", &|m| {
            Arc::make_mut(&mut m.decls).reg_index.clear();
            m.rebuild_indices();
        });
        edit("set_cs_max", &|m| m.set_cs_max(12).unwrap());
    }

    #[test]
    fn indices_rebuild_after_being_cleared() {
        // Emulates the post-deserialization state, where the skipped
        // index maps come back empty.
        let mut m2 = fig1_model(1, 2);
        let decls = Arc::make_mut(&mut m2.decls);
        decls.reg_index.clear();
        decls.bus_index.clear();
        decls.mod_index.clear();
        m2.rebuild_indices();
        assert!(m2.register_by_name("R1").is_some());
        assert!(m2.bus_by_name("B2").is_some());
        assert!(m2.module_by_name("ADD").is_some());
    }
}
