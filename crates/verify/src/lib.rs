//! # clockless-verify — formal semantics, conflict checking, equivalence
//!
//! §2.7 of the DATE 1998 paper argues that the clock-free subset's "easy
//! mappings lead to simple formal semantics, which form the basis for
//! automatic verification tools". This crate is that verification layer:
//!
//! * [`semantics`] — the bidirectional tuple ↔ transfer-process mapping
//!   of §2.7: expansion is in `clockless-core`; reconstruction (via the
//!   paper's *partial tuples*) and the round-trip consistency check live
//!   here.
//! * [`conflicts`] — a static resource-conflict analysis over the tuples,
//!   cross-checked against the dynamic `ILLEGAL` detector of the
//!   simulation (both must agree, and the dynamic one additionally sees
//!   data-dependent illegality).
//! * [`symbolic`] — symbolic simulation: registers as expression trees,
//!   executed with exact control-step semantics.
//! * [`mod@normalize`] — polynomial normal forms over wrapping `i64` (the
//!   "computer algebra simplification" of the verification flow).
//! * [`equiv`] — the automatic proving procedure for high-level-synthesis
//!   results: RT model vs dataflow graph, proven by normalization with
//!   randomized concrete testing as fallback — plus [`backend_equiv`],
//!   the differential check that the interpreted delta kernel and the
//!   compiled phase-schedule engine are observationally byte-identical.
//! * [`vhdl_import`] — VHDL source in the paper's subset reassembled
//!   into runnable models (parser + tuple reconstruction).
//! * [`lint`] — schedule lints: dead writes, undefined reads, unused
//!   resources.
//! * [`sweep`] — the static/dynamic cross-check at batch scale, farming
//!   traced runs over the `clockless-fleet` worker pool.
//! * [`faults`] — seeded fault-injection campaigns: deterministic model
//!   mutants (stuck registers, double drivers, dropped/skewed transfers,
//!   corrupted inits) run on private kernels and classified against the
//!   golden run, measuring how much of the fault space the `ILLEGAL`
//!   detector actually observes.
//! * [`monitor`] — golden-run value monitors: checker-mode selection and
//!   one-recording construction of the check program campaigns arm to
//!   catch the silent value corruption the resolution function misses.
//! * [`invariants`] — mined functional invariants (ranges, reachable
//!   sets, pair relations) learned from the clean run and carried in a
//!   deterministic JSON artifact (`clockless mine` / `run --check`).
//!
//! ## Example
//!
//! ```
//! use clockless_verify::semantics::roundtrip_check;
//! use clockless_core::model::fig1_model;
//!
//! // Tuples -> processes -> tuples is the identity (§2.7).
//! roundtrip_check(&fig1_model(3, 4))?;
//! # Ok::<(), clockless_verify::semantics::SemanticsError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod conflicts;
pub mod equiv;
pub mod faults;
pub mod fuzz;
pub mod invariants;
pub mod lint;
pub mod monitor;
pub mod normalize;
pub mod semantics;
pub mod sweep;
pub mod symbolic;
pub mod vhdl_import;

pub use conflicts::{cross_check, static_conflicts, CrossCheck, PredictedConflict};
pub use equiv::{
    backend_equiv, concrete_check, dfg_expressions, verify_synthesis, BackendDivergence,
    OutputVerdict, SynthesisVerification, VerifyError,
};
pub use faults::{
    generate_faults, run_campaign, run_campaign_with_faults, CampaignConfig, CampaignEngine,
    CampaignReport, CampaignRow, CampaignTotals, ClassCoverage, FaultClass, FaultKind,
    FaultOutcome, FaultsError, ALL_CLASSES,
};
pub use fuzz::{generate_hls_model, generate_model, run_fuzz, FuzzDivergence, FuzzReport};
pub use invariants::{
    mine_artifact, mine_invariants, mine_program, parse_artifact, render_artifact, REACHABLE_MAX,
};
pub use lint::{lint_model, Lint};
pub use monitor::{build_checkers, golden_walk, CheckerMode, ParseCheckerModeError};
pub use normalize::{equivalent, normalize, Atom, Poly};
pub use semantics::{merge_partials, reconstruct_partials, roundtrip_check, SemanticsError};
pub use sweep::{conflict_sweep, ConflictSweep, SweepRow};
pub use symbolic::{symbolic_run, Expr, SymbolicError};
pub use vhdl_import::{model_from_design, model_from_vhdl, ImportVhdlError};

/// `hls::random_dag(42, 24, 4)` synthesized under 2 units per class: its
/// shared buses make it the widest input of the differential sweeps.
#[cfg(test)]
pub(crate) fn wide_bus_dag() -> clockless_core::RtModel {
    use clockless_hls::{random_dag, synthesize, ResourceSet};
    let dfg = random_dag(42, 24, 4);
    let mut classes = ResourceSet::unconstrained(&dfg).classes().to_vec();
    for class in &mut classes {
        class.count = 2;
    }
    let names = dfg.inputs();
    let inputs: std::collections::HashMap<&str, i64> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i as i64 + 1))
        .collect();
    synthesize(&dfg, &ResourceSet::new(classes), &inputs)
        .expect("a random DAG synthesizes under any non-empty resource set")
        .model
}

/// The driver count of `model`'s widest bus: the transfer specs that
/// drive it, counted from the model's tuples.
#[cfg(test)]
pub(crate) fn widest_bus(model: &clockless_core::RtModel) -> usize {
    use clockless_core::Endpoint;
    let mut drivers: std::collections::HashMap<String, usize> = Default::default();
    for tuple in model.tuples() {
        for spec in tuple.expand_in(model) {
            if let Endpoint::Bus(bus) = spec.dst {
                *drivers.entry(bus).or_default() += 1;
            }
        }
    }
    drivers.into_values().max().unwrap_or(0)
}
