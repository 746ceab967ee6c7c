//! Static resource-conflict analysis, cross-checked against the dynamic
//! `ILLEGAL` detector.
//!
//! The paper's models detect conflicts **dynamically**: colliding drives
//! resolve to `ILLEGAL` "in specific simulation cycles associated with a
//! specific phase of a specific control step" (§2.7). A scheduler can also
//! find most of them **statically** by inspecting the tuples. This module
//! provides the static analysis and a cross-check harness proving the two
//! detectors agree: every statically predicted collision shows up as a
//! dynamic `ILLEGAL` at the predicted step, and a clean static report
//! implies a clean traced run (for models without data-dependent operand
//! illegality, which only the dynamic check can see).

use std::collections::HashMap;
use std::fmt;

use clockless_core::{ConflictSite, Phase, PhaseTime, RtModel, RtSimulation, Step};
use clockless_kernel::KernelError;

/// A statically predicted resource conflict.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PredictedConflict {
    /// What kind of object collides.
    pub site: ConflictSite,
    /// The object's name.
    pub name: String,
    /// The step in which the colliding drives happen.
    pub step: Step,
    /// The phase in which the colliding drives happen; the `ILLEGAL`
    /// value becomes *visible* one phase later.
    pub drive_phase: Phase,
}

impl PredictedConflict {
    /// Where the dynamic detector will report this conflict: drives at
    /// phase `p` resolve visibly at `p`'s successor.
    pub fn visible_at(&self) -> PhaseTime {
        PhaseTime::new(self.step, self.drive_phase).next()
    }
}

impl fmt::Display for PredictedConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} `{}` driven twice at step {} phase {}",
            self.site, self.name, self.step, self.drive_phase
        )
    }
}

/// Statically analyses a model's tuples for resource conflicts: two
/// drives of one bus in the same phase of the same step, two drives of a
/// module operand/op port, two write-backs into one register, or two
/// writes into one memory.
pub fn static_conflicts(model: &RtModel) -> Vec<PredictedConflict> {
    use clockless_core::Endpoint;

    // Key: (object name, distinguishing port tag, step, phase).
    let mut drives: HashMap<(String, &'static str, Step, Phase), (ConflictSite, usize)> =
        HashMap::new();

    for t in model.tuples() {
        for spec in t.expand_in(model) {
            let (name, tag, site) = match &spec.dst {
                Endpoint::Bus(b) => (b.clone(), "", ConflictSite::Bus),
                Endpoint::ModIn1(m) => (m.clone(), "in1", ConflictSite::ModulePort),
                Endpoint::ModIn2(m) => (m.clone(), "in2", ConflictSite::ModulePort),
                Endpoint::ModOp(m) => (m.clone(), "op", ConflictSite::ModuleOpPort),
                Endpoint::RegIn(r) => (r.clone(), "", ConflictSite::RegisterPort),
                // Every memory write drives the write-address port beside
                // the write-value port, so keying one predicts both.
                Endpoint::MemWin(m) => (m.clone(), "mem", ConflictSite::MemoryPort),
                _ => continue,
            };
            let e = drives
                .entry((name, tag, spec.step, spec.phase))
                .or_insert((site, 0));
            e.1 += 1;
        }
    }

    let mut out: Vec<PredictedConflict> = drives
        .into_iter()
        .filter(|(_, (_, count))| *count > 1)
        .map(
            |((name, _, step, drive_phase), (site, _))| PredictedConflict {
                site,
                name,
                step,
                drive_phase,
            },
        )
        .collect();
    out.sort_by_key(|c| (c.step, c.drive_phase, c.name.clone()));
    out
}

/// Result of cross-checking the static and dynamic detectors.
#[derive(Debug, Clone, Default)]
pub struct CrossCheck {
    /// Statically predicted conflicts.
    pub predicted: Vec<PredictedConflict>,
    /// Predictions confirmed by a dynamic `ILLEGAL` at the predicted
    /// place.
    pub confirmed: Vec<PredictedConflict>,
    /// Predictions the dynamic run did not confirm (should be empty).
    pub unconfirmed: Vec<PredictedConflict>,
    /// Dynamic conflicts with no static prediction — data-dependent
    /// illegality or downstream propagation of a confirmed conflict.
    pub dynamic_only: Vec<clockless_core::Conflict>,
}

impl CrossCheck {
    /// `true` when every static prediction was dynamically confirmed.
    pub fn all_confirmed(&self) -> bool {
        self.unconfirmed.is_empty()
    }
}

/// Runs the traced simulation and compares observed `ILLEGAL`s with the
/// static predictions.
///
/// # Errors
///
/// Propagates kernel errors from the traced run.
pub fn cross_check(model: &RtModel) -> Result<CrossCheck, KernelError> {
    let predicted = static_conflicts(model);
    let mut sim = RtSimulation::traced(model)?;
    sim.run_to_completion()?;
    let observed = sim.conflicts().expect("traced run records conflicts");

    let mut confirmed = Vec::new();
    let mut unconfirmed = Vec::new();
    for p in &predicted {
        let hit = observed
            .conflicts
            .iter()
            .any(|c| c.name == p.name && c.visible_at == p.visible_at());
        if hit {
            confirmed.push(p.clone());
        } else {
            unconfirmed.push(p.clone());
        }
    }
    let dynamic_only = observed
        .conflicts
        .iter()
        .filter(|c| {
            !predicted
                .iter()
                .any(|p| p.name == c.name && p.visible_at() == c.visible_at)
        })
        .cloned()
        .collect();
    Ok(CrossCheck {
        predicted,
        confirmed,
        unconfirmed,
        dynamic_only,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockless_core::model::fig1_model;
    use clockless_core::prelude::*;

    fn conflicted_model() -> RtModel {
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
        m
    }

    #[test]
    fn clean_model_predicts_nothing() {
        assert!(static_conflicts(&fig1_model(1, 2)).is_empty());
    }

    #[test]
    fn bus_collision_predicted() {
        let cs = static_conflicts(&conflicted_model());
        assert!(cs
            .iter()
            .any(|c| c.site == ConflictSite::Bus && c.name == "B1" && c.step == 3));
        // Prediction agrees with the dynamic localization rule.
        let b1 = cs.iter().find(|c| c.name == "B1").unwrap();
        assert_eq!(b1.visible_at(), PhaseTime::new(3, Phase::Rb));
    }

    #[test]
    fn cross_check_confirms_predictions() {
        let cc = cross_check(&conflicted_model()).unwrap();
        assert!(!cc.predicted.is_empty());
        assert!(cc.all_confirmed(), "unconfirmed: {:?}", cc.unconfirmed);
        // Dynamic sees more: the ILLEGAL propagates into the ADD port,
        // its output and the destination register.
        assert!(!cc.dynamic_only.is_empty());
    }

    #[test]
    fn cross_check_clean_on_clean_model() {
        let cc = cross_check(&fig1_model(5, 6)).unwrap();
        assert!(cc.predicted.is_empty());
        assert!(cc.dynamic_only.is_empty());
    }

    #[test]
    fn register_double_write_predicted() {
        let mut m = RtModel::new("wconflict", 4);
        m.add_register_init("A", Value::Num(1)).unwrap();
        m.add_register_init("B", Value::Num(2)).unwrap();
        m.add_register("C").unwrap();
        m.add_bus("X").unwrap();
        m.add_bus("Y").unwrap();
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
                .write(2, "X", "C"),
        )
        .unwrap();
        m.add_transfer(
            TransferTuple::new(2, "CP2")
                .src_a("B", "Y")
                .write(2, "Y", "C"),
        )
        .unwrap();
        let cs = static_conflicts(&m);
        assert!(cs
            .iter()
            .any(|c| c.site == ConflictSite::RegisterPort && c.name == "C"));
        let cc = cross_check(&m).unwrap();
        assert!(cc.all_confirmed());
    }

    /// Two transfers writing memory `M` at `wb(1)` over separate buses,
    /// into words `w0` and `w1`.
    fn memory_clash(w0: &str, w1: &str) -> RtModel {
        let mut m = RtModel::new("memclash", 3);
        m.add_register_init("A", Value::Num(1)).unwrap();
        m.add_register_init("B", Value::Num(2)).unwrap();
        m.add_memory("M", 4, Value::Num(0)).unwrap();
        for bus in ["X", "Y", "V", "W"] {
            m.add_bus(bus).unwrap();
        }
        for cp in ["CP1", "CP2"] {
            m.add_module(ModuleDecl::single(
                cp,
                Op::PassA,
                ModuleTiming::Combinational,
            ))
            .unwrap();
        }
        m.add_transfer(
            TransferTuple::new(1, "CP1")
                .src_a("A", "X")
                .write(1, "V", w0),
        )
        .unwrap();
        m.add_transfer(
            TransferTuple::new(1, "CP2")
                .src_a("B", "Y")
                .write(1, "W", w1),
        )
        .unwrap();
        m
    }

    /// Both writes drive `M`'s write-value and write-address ports at
    /// `wb(1)`: one memory-port prediction, confirmed by both ports'
    /// `ILLEGAL` at `cr(1)`; the poisoned words are propagation.
    fn assert_memory_port_confirmed(model: &RtModel) {
        let port = PredictedConflict {
            site: ConflictSite::MemoryPort,
            name: "M".into(),
            step: 1,
            drive_phase: Phase::Wb,
        };
        let cc = cross_check(model).unwrap();
        assert_eq!(cc.predicted, vec![port.clone()]);
        assert!(cc.all_confirmed(), "unconfirmed: {:?}", cc.unconfirmed);
        assert_eq!(cc.confirmed, vec![port]);
        assert_eq!(cc.dynamic_only.len(), 4, "{:?}", cc.dynamic_only);
        assert!(cc
            .dynamic_only
            .iter()
            .all(|c| c.site == ConflictSite::MemoryWord));
    }

    #[test]
    fn writes_to_two_words_of_one_memory_are_predicted() {
        assert_memory_port_confirmed(&memory_clash("M[0]", "M[1]"));
    }

    #[test]
    fn two_writes_to_one_memory_word_are_predicted() {
        assert_memory_port_confirmed(&memory_clash("M[0]", "M[0]"));
    }
}
