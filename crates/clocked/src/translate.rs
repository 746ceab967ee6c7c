//! Automatic translation of control-step timing into a clocked design.
//!
//! §4 of the paper: "There are several ways to translate a control step
//! scheme into a clock scheme based on clock signals. The transformation
//! into a usual synthesizable RT description based on clock signals can be
//! performed automatically." This module performs that transformation:
//! the transfer tuples are compiled into **per-step routing tables**
//! (which bus carries what, which register loads from which bus, which
//! operation each module performs), and a [`ClockScheme`] decides how many
//! clock cycles implement one control step.
//!
//! Translation is *static*: any resource conflict (two sources on one bus
//! in one step, two loads into one register, overlapping use of a
//! sequential module) is rejected here — the same conflicts the abstract
//! model exposes dynamically as `ILLEGAL` values. The `clockless-verify`
//! crate cross-checks the two detectors against each other.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use clockless_core::{BusId, Guard, ModuleId, ModuleTiming, Op, RegisterId, RtModel, Step};

/// How control steps map to clock cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockScheme {
    /// One clock cycle per control step: operands are read, routed and
    /// combined combinationally within the cycle; registers latch at the
    /// next rising edge.
    OneCyclePerStep {
        /// Clock period in femtoseconds.
        period_fs: u64,
    },
    /// Two clock cycles per control step: a conservative implementation
    /// giving the datapath a full cycle to settle before the write cycle.
    /// Functionally identical, twice the cycles and physical time.
    TwoCyclesPerStep {
        /// Clock period in femtoseconds.
        period_fs: u64,
    },
}

impl ClockScheme {
    /// Clock cycles implementing one control step.
    pub fn cycles_per_step(self) -> u64 {
        match self {
            ClockScheme::OneCyclePerStep { .. } => 1,
            ClockScheme::TwoCyclesPerStep { .. } => 2,
        }
    }

    /// The clock period in femtoseconds.
    pub fn period_fs(self) -> u64 {
        match self {
            ClockScheme::OneCyclePerStep { period_fs }
            | ClockScheme::TwoCyclesPerStep { period_fs } => period_fs,
        }
    }
}

impl Default for ClockScheme {
    /// One cycle per step with a 10 ns clock.
    fn default() -> Self {
        ClockScheme::OneCyclePerStep {
            period_fs: 10 * clockless_kernel::NS,
        }
    }
}

/// What drives a bus during a given control step (kept for reporting; the
/// routing tables separate the read side and the write side, because the
/// abstract model time-multiplexes a bus between the `ra`/`rb` and
/// `wa`/`wb` phases of one step and the clocked architecture therefore
/// synthesizes one mux net per side).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BusSource {
    /// A register's output port.
    Reg(RegisterId),
    /// A module's output port.
    Module(ModuleId),
}

/// Static resource conflicts found during translation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TranslateError {
    /// Two sources routed onto one bus in the same step.
    BusConflict {
        /// The bus's name.
        bus: String,
        /// The step of the collision.
        step: Step,
    },
    /// Two buses routed into one module operand port in the same step.
    PortConflict {
        /// The module's name.
        module: String,
        /// Which operand port (1 or 2).
        port: u8,
        /// The step of the collision.
        step: Step,
    },
    /// Two different operations selected on one module in the same step.
    OpConflict {
        /// The module's name.
        module: String,
        /// The step of the collision.
        step: Step,
    },
    /// Two buses routed into one register in the same step.
    RegisterLoadConflict {
        /// The register's name.
        register: String,
        /// The step of the collision.
        step: Step,
    },
    /// A sequential (non-pipelined) module was re-initiated while busy.
    SequentialOverlap {
        /// The module's name.
        module: String,
        /// Step of the offending second initiation.
        step: Step,
    },
    /// The model declares a memory. Memories are indexed resources with
    /// run-time addressing and whole-memory poisoning on a bad address;
    /// the §4 routing-table architecture has no clocked counterpart for
    /// them, so such models are rejected rather than mistranslated.
    UnsupportedMemory {
        /// The memory's name.
        memory: String,
    },
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::BusConflict { bus, step } => {
                write!(f, "bus `{bus}` has two sources in step {step}")
            }
            TranslateError::PortConflict { module, port, step } => {
                write!(
                    f,
                    "module `{module}` port {port} has two sources in step {step}"
                )
            }
            TranslateError::OpConflict { module, step } => {
                write!(f, "module `{module}` selects two operations in step {step}")
            }
            TranslateError::RegisterLoadConflict { register, step } => {
                write!(
                    f,
                    "register `{register}` loads from two buses in step {step}"
                )
            }
            TranslateError::SequentialOverlap { module, step } => {
                write!(
                    f,
                    "sequential module `{module}` re-initiated while busy in step {step}"
                )
            }
            TranslateError::UnsupportedMemory { memory } => {
                write!(
                    f,
                    "memory `{memory}` has no clocked translation (outside the section 4 subset)"
                )
            }
        }
    }
}

impl std::error::Error for TranslateError {}

/// The routes of one control step.
#[derive(Debug, Clone, Default)]
pub struct StepRoutes {
    /// Read-side bus sources (registers feeding buses at `ra`).
    pub bus_read: HashMap<BusId, RegisterId>,
    /// Write-side bus sources (modules feeding buses at `wa`).
    pub bus_write: HashMap<BusId, ModuleId>,
    /// Module first-operand routing.
    pub mod_in1: HashMap<ModuleId, BusId>,
    /// Module second-operand routing.
    pub mod_in2: HashMap<ModuleId, BusId>,
    /// Module operation selection.
    pub mod_op: HashMap<ModuleId, Op>,
    /// Register load selections.
    pub reg_load: HashMap<RegisterId, BusId>,
    /// Guards gating the read-side bus drives: a false guard puts `DISC`
    /// on the bus instead of the register value, exactly as the abstract
    /// guarded transfer process does.
    pub bus_read_guard: HashMap<BusId, Guard>,
    /// Guards gating the register load enables, evaluated over the
    /// register values current at the end-of-step latch edge (the
    /// write-side spec's guard evaluation point in the abstract model).
    pub reg_load_guard: HashMap<RegisterId, Guard>,
}

/// Routing tables compiled from the transfer tuples: the routes of each
/// control step some tuple occupies, keyed by step (from 1). A step no
/// tuple uses has no entry, so the tables grow with the tuples, not with
/// the step count.
#[derive(Debug, Clone, Default)]
pub struct RoutingTables {
    /// The occupied steps' routes, in step order.
    pub steps: BTreeMap<Step, StepRoutes>,
}

impl RoutingTables {
    /// Control-signal count of the generated controller: one select line
    /// per non-empty table entry (a proxy for controller complexity,
    /// reported by the translation bench).
    pub fn control_signal_count(&self) -> usize {
        (self.steps.values())
            .map(|r| {
                r.bus_read.len()
                    + r.bus_write.len()
                    + r.mod_in1.len()
                    + r.mod_in2.len()
                    + r.mod_op.len()
                    + r.reg_load.len()
            })
            .sum()
    }
}

/// A clocked design: the source model, its compiled routing tables and
/// the clock scheme.
#[derive(Debug, Clone)]
pub struct ClockedDesign {
    model: RtModel,
    tables: RoutingTables,
    scheme: ClockScheme,
}

impl ClockedDesign {
    /// Translates a clock-free model into a clocked design.
    ///
    /// # Errors
    ///
    /// Returns the first [`TranslateError`] if the schedule has a static
    /// resource conflict — the clocked architecture's multiplexers cannot
    /// realize two simultaneous sources, so such models are rejected
    /// rather than poisoned.
    pub fn translate(
        model: &RtModel,
        scheme: ClockScheme,
    ) -> Result<ClockedDesign, TranslateError> {
        if let Some(m) = model.memories().first() {
            return Err(TranslateError::UnsupportedMemory {
                memory: m.name.clone(),
            });
        }
        let mut tables = RoutingTables::default();
        let mut seq_busy_until: HashMap<ModuleId, Step> = HashMap::new();

        for tuple in model.tuples() {
            let mid = model
                .module_by_name(&tuple.module)
                .expect("validated tuple references known module");
            let mdecl = &model.modules()[mid.0 as usize];
            let rs = tuple.read_step;

            // Operand routes.
            for (route, port) in [(&tuple.src_a, 1u8), (&tuple.src_b, 2u8)] {
                let Some(route) = route else { continue };
                let rid = model
                    .register_by_name(&route.register)
                    .expect("validated tuple references known register");
                let bid = model
                    .bus_by_name(&route.bus)
                    .expect("validated tuple references known bus");
                // Any second drive is a conflict — the abstract model's
                // resolution function flags even equal values (§2.3).
                let read = tables.steps.entry(rs).or_default();
                if read.bus_read.insert(bid, rid).is_some() {
                    return Err(TranslateError::BusConflict {
                        bus: route.bus.clone(),
                        step: rs,
                    });
                }
                let port_table = if port == 1 {
                    &mut read.mod_in1
                } else {
                    &mut read.mod_in2
                };
                if port_table.insert(mid, bid).is_some() {
                    return Err(TranslateError::PortConflict {
                        module: tuple.module.clone(),
                        port,
                        step: rs,
                    });
                }
                if let Some(g) = &tuple.guard {
                    read.bus_read_guard.insert(bid, g.clone());
                }
            }

            // Operation selection (explicit or the module's single op).
            let op = model.effective_op(tuple);
            if (tables.steps.entry(rs).or_default().mod_op)
                .insert(mid, op)
                .is_some()
            {
                return Err(TranslateError::OpConflict {
                    module: tuple.module.clone(),
                    step: rs,
                });
            }

            // Sequential modules: initiation interval check.
            if let ModuleTiming::Sequential { latency } = mdecl.timing {
                if let Some(&busy_until) = seq_busy_until.get(&mid) {
                    if rs < busy_until {
                        return Err(TranslateError::SequentialOverlap {
                            module: tuple.module.clone(),
                            step: rs,
                        });
                    }
                }
                seq_busy_until.insert(mid, rs + latency.max(1));
            }

            // Write-back route.
            if let Some(w) = &tuple.write {
                let write = tables.steps.entry(w.step).or_default();
                let bid = model
                    .bus_by_name(&w.bus)
                    .expect("validated tuple references known bus");
                let rid = model
                    .register_by_name(&w.register)
                    .expect("validated tuple references known register");
                if write.bus_write.insert(bid, mid).is_some() {
                    return Err(TranslateError::BusConflict {
                        bus: w.bus.clone(),
                        step: w.step,
                    });
                }
                if write.reg_load.insert(rid, bid).is_some() {
                    return Err(TranslateError::RegisterLoadConflict {
                        register: w.register.clone(),
                        step: w.step,
                    });
                }
                if let Some(g) = &tuple.guard {
                    write.reg_load_guard.insert(rid, g.clone());
                }
            }
        }

        Ok(ClockedDesign {
            model: model.clone(),
            tables,
            scheme,
        })
    }

    /// The source model.
    pub fn model(&self) -> &RtModel {
        &self.model
    }

    /// The compiled routing tables.
    pub fn tables(&self) -> &RoutingTables {
        &self.tables
    }

    /// The clock scheme.
    pub fn scheme(&self) -> ClockScheme {
        self.scheme
    }

    /// Total clock cycles a full run takes (including the final latch
    /// edge's cycle).
    pub fn total_cycles(&self) -> u64 {
        self.model.cs_max() as u64 * self.scheme.cycles_per_step() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockless_core::model::fig1_model;
    use clockless_core::prelude::*;

    #[test]
    fn fig1_translates_cleanly() {
        let model = fig1_model(1, 2);
        let d = ClockedDesign::translate(&model, ClockScheme::default()).unwrap();
        let t = d.tables();
        // fig1's one tuple occupies steps 5 and 6 only.
        assert_eq!(t.steps.keys().copied().collect::<Vec<_>>(), [5, 6]);
        // Step 5: B1 from R1, B2 from R2, ADD ports routed.
        let b1 = model.bus_by_name("B1").unwrap();
        let b2 = model.bus_by_name("B2").unwrap();
        let r1 = model.register_by_name("R1").unwrap();
        let add = model.module_by_name("ADD").unwrap();
        assert_eq!(t.steps[&5].bus_read[&b1], r1);
        assert_eq!(t.steps[&5].mod_in1[&add], b1);
        assert_eq!(t.steps[&5].mod_in2[&add], b2);
        assert_eq!(t.steps[&5].mod_op[&add], Op::Add);
        // Step 6: B1's write side fed by ADD, R1 loads from B1.
        assert_eq!(t.steps[&6].bus_write[&b1], add);
        assert_eq!(t.steps[&6].reg_load[&r1], b1);
        assert_eq!(d.total_cycles(), 8);
    }

    #[test]
    fn bus_conflict_rejected_statically() {
        let mut m = RtModel::new("c", 6);
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
        m.add_transfer(
            TransferTuple::new(3, "ADD")
                .src_a("R1", "B1")
                .src_b("R2", "B2")
                .write(4, "B2", "R3"),
        )
        .unwrap();
        m.add_transfer(
            TransferTuple::new(3, "CP")
                .src_a("R2", "B1")
                .write(3, "B2", "R3"),
        )
        .unwrap();
        let err = ClockedDesign::translate(&m, ClockScheme::default()).unwrap_err();
        assert_eq!(
            err,
            TranslateError::BusConflict {
                bus: "B1".into(),
                step: 3
            }
        );
    }

    #[test]
    fn sequential_overlap_rejected() {
        let mut m = RtModel::new("s", 8);
        m.add_register_init("A", Value::Num(1)).unwrap();
        m.add_register_init("B", Value::Num(2)).unwrap();
        m.add_register("C").unwrap();
        m.add_bus("X").unwrap();
        m.add_bus("Y").unwrap();
        m.add_bus("Z").unwrap();
        m.add_module(ModuleDecl::single(
            "MUL",
            Op::Mul,
            ModuleTiming::Sequential { latency: 2 },
        ))
        .unwrap();
        m.add_transfer(
            TransferTuple::new(1, "MUL")
                .src_a("A", "X")
                .src_b("B", "Y")
                .write(3, "Z", "C"),
        )
        .unwrap();
        // Step 2 initiation overlaps the busy window [1, 3).
        let bad = TransferTuple::new(2, "MUL")
            .src_a("A", "X")
            .src_b("B", "Y")
            .write(4, "Z", "C");
        m.add_transfer(bad).unwrap();
        let err = ClockedDesign::translate(&m, ClockScheme::default()).unwrap_err();
        assert!(matches!(
            err,
            TranslateError::SequentialOverlap { step: 2, .. }
        ));
    }

    #[test]
    fn shared_route_is_a_conflict() {
        // Two tuples reading the same register over the same bus in the
        // same step would instantiate two TRANS drivers; the abstract
        // resolution flags even equal values (§2.3), so the translation
        // rejects the schedule for consistency with the dynamic detector.
        let mut m = RtModel::new("share", 4);
        m.add_register_init("A", Value::Num(5)).unwrap();
        m.add_register("C").unwrap();
        m.add_register("D").unwrap();
        m.add_bus("X").unwrap();
        m.add_bus("Y").unwrap();
        m.add_bus("Z").unwrap();
        m.add_module(ModuleDecl::single(
            "CP1",
            Op::PassA,
            ModuleTiming::Combinational,
        ))
        .unwrap();
        m.add_module(ModuleDecl::single(
            "CP2",
            Op::PassA,
            ModuleTiming::Combinational,
        ))
        .unwrap();
        m.add_transfer(
            TransferTuple::new(2, "CP1")
                .src_a("A", "X")
                .write(2, "Y", "C"),
        )
        .unwrap();
        m.add_transfer(
            TransferTuple::new(2, "CP2")
                .src_a("A", "X")
                .write(2, "Z", "D"),
        )
        .unwrap();
        assert_eq!(
            ClockedDesign::translate(&m, ClockScheme::default()).unwrap_err(),
            TranslateError::BusConflict {
                bus: "X".into(),
                step: 2
            }
        );
    }

    #[test]
    fn scheme_properties() {
        let one = ClockScheme::OneCyclePerStep { period_fs: 100 };
        let two = ClockScheme::TwoCyclesPerStep { period_fs: 100 };
        assert_eq!(one.cycles_per_step(), 1);
        assert_eq!(two.cycles_per_step(), 2);
        assert_eq!(one.period_fs(), 100);
    }
}
