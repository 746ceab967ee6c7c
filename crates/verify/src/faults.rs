//! Deterministic fault-injection campaigns over RT models.
//!
//! The paper's central verification claim is that the clock-free subset
//! makes resource conflicts *observable*: simultaneous drives resolve to
//! `ILLEGAL` at a precise step and phase instead of silently racing. A
//! fault campaign probes how far that detector actually reaches. A
//! seeded, fully deterministic generator derives a set of model mutants
//! — stuck-at-`DISC` registers, spurious second drivers, dropped
//! transfer tuples, step-skewed write-backs, corrupted init values —
//! interleaved round-robin across the classes so a `--max` cap samples
//! every class instead of a prefix of one.
//!
//! Two engines run the mutants, selected by [`CampaignEngine`]:
//!
//! * **Batched** (the default) — the golden model is lowered to one
//!   [`ExecPlan`], each fault becomes a small [`PlanDelta`]
//!   (init-vector or schedule edit; no model clone, no re-elaboration),
//!   and all mutants execute in lockstep over packed lane columns (64
//!   mutants per machine word) via [`ExecPlan::execute_batch`].
//! * **Legacy** — every mutant model runs on a **private kernel
//!   instance** via the fault-tolerant `clockless-fleet` engine. This is
//!   the differential oracle: both engines produce byte-identical
//!   campaign reports, and the equivalence is pinned by tests and CI.
//!
//! Each run is classified against the golden (unmutated) run:
//!
//! * [`FaultOutcome::DetectedConflict`] — the mutant produced an
//!   `ILLEGAL`, localized to a site, step and phase. The detector works.
//! * [`FaultOutcome::DeltaOverflow`] — the mutant blew the delta budget
//!   (oscillation); caught by the budget, not the resolver.
//! * [`FaultOutcome::SilentCorruption`] — the run was clean but the
//!   final registers differ from the golden run: the fault **escaped**
//!   the conflict detector. These are the interesting rows — they mark
//!   the boundary of the paper's observability claim (a dropped transfer
//!   produces no second driver, so nothing conflicts; the state is just
//!   wrong).
//! * [`FaultOutcome::Masked`] — the run was clean *and* state-identical:
//!   the fault had no observable effect at all.
//! * [`FaultOutcome::Inapplicable`] — the fault does not fit the model
//!   (unknown register, out-of-range skew…). The row is quarantined,
//!   like the fleet quarantines failing jobs, instead of aborting the
//!   whole campaign; generation only emits applicable faults, so this
//!   appears only for caller-supplied fault lists
//!   ([`run_campaign_with_faults`]).
//!
//! The campaign report aggregates per-class detection coverage. On the
//! paper's Fig. 1 model, the `stuck` and `drivers` classes are detected
//! 100% (mixed `DISC`/value operands and double drives both resolve to
//! `ILLEGAL`), while `drops`, `skews` and `inits` legitimately escape —
//! the report says so instead of pretending otherwise.
//!
//! [`CampaignConfig::checkers`] closes that gap: golden-run value
//! monitors and mined functional invariants (see [`crate::monitor`] and
//! [`crate::invariants`]) run alongside every mutant, turning the
//! silent escapes into [`FaultOutcome::DetectedValue`] /
//! [`FaultOutcome::DetectedInvariant`] rows with the same exact
//! first-violation `(step, phase, signal)` localization conflicts get.
//! The report keeps both numbers — `detected` and `baseline` — so the
//! before/after coverage of the checkers is visible per class.

use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;

use clockless_core::json::escape;
use clockless_core::{
    Backend, CheckProgram, CheckReport, ExecOptions, ExecPlan, InvariantViolation, ModuleDecl,
    ModuleTiming, MonitorViolation, Op, OptLevel, Phase, PlanDelta, RtModel, Step, TransferTuple,
    Value,
};
use clockless_fleet::{
    run_batch_with, BatchSpec, FailureKind, FleetConfig, FleetError, JobSource, JobSpec,
};
use clockless_kernel::SimStats;

use crate::monitor::{build_checkers, CheckerMode};

/// The five fault classes a campaign can inject, used both to group
/// coverage numbers and to filter generation (`--classes` on the CLI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultClass {
    /// Registers forced to start at `DISC` ([`FaultKind::StuckAtDisc`]).
    Stuck,
    /// Spurious second bus drivers ([`FaultKind::ExtraDriver`]).
    Drivers,
    /// Dropped transfer tuples ([`FaultKind::DropTransfer`]).
    Drops,
    /// Step-skewed write-backs ([`FaultKind::SkewWrite`]).
    Skews,
    /// Corrupted register init values ([`FaultKind::CorruptInit`]).
    Inits,
    /// Flipped or forced transfer guards ([`FaultKind::FlipGuard`],
    /// [`FaultKind::ForceGuard`]) — control-condition faults that never
    /// add a driver, so the resolution function alone rarely sees them.
    Guards,
}

/// Every class, in canonical (reporting) order.
pub const ALL_CLASSES: [FaultClass; 6] = [
    FaultClass::Stuck,
    FaultClass::Drivers,
    FaultClass::Drops,
    FaultClass::Skews,
    FaultClass::Inits,
    FaultClass::Guards,
];

impl FaultClass {
    /// Stable machine-readable name (JSON and `--classes` grammar).
    pub fn as_str(self) -> &'static str {
        match self {
            FaultClass::Stuck => "stuck",
            FaultClass::Drivers => "drivers",
            FaultClass::Drops => "drops",
            FaultClass::Skews => "skews",
            FaultClass::Inits => "inits",
            FaultClass::Guards => "guards",
        }
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for FaultClass {
    type Err = String;
    fn from_str(s: &str) -> Result<FaultClass, String> {
        match s {
            "stuck" => Ok(FaultClass::Stuck),
            "drivers" => Ok(FaultClass::Drivers),
            "drops" => Ok(FaultClass::Drops),
            "skews" => Ok(FaultClass::Skews),
            "inits" => Ok(FaultClass::Inits),
            "guards" => Ok(FaultClass::Guards),
            other => Err(format!(
                "unknown fault class `{other}` (expected stuck|drivers|drops|skews|inits|guards)"
            )),
        }
    }
}

/// One concrete mutation of a model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Force a register's init to `DISC` — the register presents no value
    /// until (if ever) something writes it.
    StuckAtDisc {
        /// The register whose init is cleared.
        register: String,
    },
    /// Add a spurious combinational module plus a transfer that drives
    /// `register` onto `bus` in `step` — a second driver on a bus the
    /// schedule already uses then, which the resolution function must
    /// turn into `ILLEGAL`.
    ExtraDriver {
        /// The double-driven bus.
        bus: String,
        /// The step in which both drivers assert.
        step: Step,
        /// The register the spurious driver reads.
        register: String,
    },
    /// Remove the transfer tuple at `index` entirely.
    DropTransfer {
        /// Index into the model's tuple list.
        index: usize,
    },
    /// Shift the write-back of the tuple at `index` by `delta` steps
    /// (±1), breaking the read-step + latency = write-step invariant.
    SkewWrite {
        /// Index into the model's tuple list.
        index: usize,
        /// The skew, −1 or +1 steps.
        delta: i32,
    },
    /// Replace a register's init with a different (seeded) value.
    CorruptInit {
        /// The register whose init changes.
        register: String,
        /// The corrupted value.
        value: i64,
    },
    /// Logically negate the guard of the transfer at `index`: a transfer
    /// that should fire stays silent and vice versa — a control fault
    /// with no extra driver for the resolution function to flag.
    FlipGuard {
        /// Index into the model's tuple list (must carry a guard).
        index: usize,
    },
    /// Remove the guard of the transfer at `index` entirely, forcing the
    /// transfer to fire unconditionally.
    ForceGuard {
        /// Index into the model's tuple list (must carry a guard).
        index: usize,
    },
}

impl FaultKind {
    /// The class this fault belongs to.
    pub fn class(&self) -> FaultClass {
        match self {
            FaultKind::StuckAtDisc { .. } => FaultClass::Stuck,
            FaultKind::ExtraDriver { .. } => FaultClass::Drivers,
            FaultKind::DropTransfer { .. } => FaultClass::Drops,
            FaultKind::SkewWrite { .. } => FaultClass::Skews,
            FaultKind::CorruptInit { .. } => FaultClass::Inits,
            FaultKind::FlipGuard { .. } | FaultKind::ForceGuard { .. } => FaultClass::Guards,
        }
    }

    /// Checks that the fault can be expressed on `model` — the single
    /// applicability predicate shared by generation, the legacy
    /// per-mutant path ([`FaultKind::apply`]) and the batched plan-delta
    /// path, so the checks cannot drift.
    ///
    /// # Errors
    ///
    /// The reason the fault does not fit (also the text of the
    /// [`FaultOutcome::Inapplicable`] row a campaign would produce).
    pub fn check(&self, model: &RtModel) -> Result<(), String> {
        let check_register = |register: &str| {
            model
                .registers()
                .iter()
                .any(|r| r.name == register)
                .then_some(())
                .ok_or_else(|| format!("unknown register `{register}`"))
        };
        match self {
            FaultKind::StuckAtDisc { register } | FaultKind::CorruptInit { register, .. } => {
                check_register(register)
            }
            FaultKind::ExtraDriver {
                bus,
                step,
                register,
            } => {
                check_register(register)?;
                if !model.buses().iter().any(|b| b.name == *bus) {
                    return Err(format!("unknown bus `{bus}`"));
                }
                if *step < 1 || *step > model.cs_max() {
                    return Err(format!("spurious driver step {step} is out of range"));
                }
                Ok(())
            }
            FaultKind::DropTransfer { index } => {
                if *index >= model.tuples().len() {
                    return Err(format!("no transfer at index {index}"));
                }
                Ok(())
            }
            FaultKind::SkewWrite { index, delta } => {
                let tuple = model
                    .tuples()
                    .get(*index)
                    .ok_or_else(|| format!("no transfer at index {index}"))?;
                let write = tuple
                    .write
                    .as_ref()
                    .ok_or_else(|| format!("transfer {index} has no write-back"))?;
                skew_target_step(write.step, *delta, model.cs_max()).map(|_| ())
            }
            FaultKind::FlipGuard { index } | FaultKind::ForceGuard { index } => {
                let tuple = model
                    .tuples()
                    .get(*index)
                    .ok_or_else(|| format!("no transfer at index {index}"))?;
                if tuple.guard.is_none() {
                    return Err(format!("transfer {index} has no guard"));
                }
                Ok(())
            }
        }
    }

    /// Applies the fault to a copy of `model`, producing the mutant.
    ///
    /// # Errors
    ///
    /// A message when the mutation cannot be expressed on this model
    /// ([`FaultKind::check`]; generation only emits applicable faults,
    /// so hitting this is the caller's doing).
    pub fn apply(&self, model: &RtModel) -> Result<RtModel, String> {
        self.check(model)?;
        let mut m = model.clone();
        match self {
            FaultKind::StuckAtDisc { register } => {
                m.set_register_init(register, Value::Disc)
                    .map_err(|e| e.to_string())?;
            }
            FaultKind::ExtraDriver {
                bus,
                step,
                register,
            } => {
                let spur = format!("SPUR_{bus}_{step}");
                m.add_module(ModuleDecl::single(
                    &spur,
                    Op::PassA,
                    ModuleTiming::Combinational,
                ))
                .map_err(|e| e.to_string())?;
                m.add_transfer(TransferTuple::new(*step, spur).src_a(register, bus))
                    .map_err(|e| e.to_string())?;
            }
            FaultKind::DropTransfer { index } => {
                m.remove_transfer(*index)
                    .ok_or_else(|| format!("no transfer at index {index}"))?;
            }
            FaultKind::SkewWrite { index, delta } => {
                let tuple = m
                    .tuples()
                    .get(*index)
                    .ok_or_else(|| format!("no transfer at index {index}"))?
                    .clone();
                let mut skewed = tuple;
                let write = skewed
                    .write
                    .as_mut()
                    .ok_or_else(|| format!("transfer {index} has no write-back"))?;
                write.step = skew_target_step(write.step, *delta, m.cs_max())?;
                m.replace_transfer_unchecked(*index, skewed)
                    .map_err(|e| e.to_string())?;
            }
            FaultKind::CorruptInit { register, value } => {
                m.set_register_init(register, Value::Num(*value))
                    .map_err(|e| e.to_string())?;
            }
            FaultKind::FlipGuard { index } | FaultKind::ForceGuard { index } => {
                let mut tuple = m
                    .tuples()
                    .get(*index)
                    .ok_or_else(|| format!("no transfer at index {index}"))?
                    .clone();
                tuple.guard = match self {
                    FaultKind::FlipGuard { .. } => tuple.guard.map(|g| g.flipped()),
                    _ => None,
                };
                m.replace_transfer_unchecked(*index, tuple)
                    .map_err(|e| e.to_string())?;
            }
        }
        Ok(m)
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::StuckAtDisc { register } => {
                write!(f, "stuck-at-DISC register `{register}`")
            }
            FaultKind::ExtraDriver {
                bus,
                step,
                register,
            } => write!(
                f,
                "spurious driver `{register}` on bus `{bus}` in step {step}"
            ),
            FaultKind::DropTransfer { index } => write!(f, "dropped transfer #{index}"),
            FaultKind::SkewWrite { index, delta } => {
                write!(f, "write of transfer #{index} skewed {delta:+} step(s)")
            }
            FaultKind::CorruptInit { register, value } => {
                write!(f, "corrupted init `{register}` = {value}")
            }
            FaultKind::FlipGuard { index } => {
                write!(f, "flipped guard of transfer #{index}")
            }
            FaultKind::ForceGuard { index } => {
                write!(f, "forced guard of transfer #{index}")
            }
        }
    }
}

/// How a mutant run was classified against the golden run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultOutcome {
    /// The mutant produced at least one `ILLEGAL`; the first conflict's
    /// localization is recorded.
    DetectedConflict {
        /// The conflict site's kind (bus, module port, register…).
        site: String,
        /// The conflicting signal's name.
        name: String,
        /// The control step the conflict became visible in.
        step: Step,
        /// The phase within the step.
        phase: Phase,
    },
    /// The mutant exhausted the campaign's delta-cycle budget.
    DeltaOverflow,
    /// No conflict, but a golden-run value monitor caught the first
    /// divergent `(step, phase, signal)` — the fault corrupted a value
    /// the resolution function had no reason to flag. Requires
    /// [`CampaignConfig::checkers`] to arm monitors.
    DetectedValue(MonitorViolation),
    /// No conflict and no monitor hit, but a mined functional invariant
    /// (range, reachable set, or pair relation) was violated. Requires
    /// [`CampaignConfig::checkers`] to arm invariants.
    DetectedInvariant(InvariantViolation),
    /// The run was clean but the final registers differ from the golden
    /// run — the fault escaped the conflict detector.
    SilentCorruption {
        /// First differing register (declaration order).
        register: String,
        /// Golden final value.
        expected: Value,
        /// Mutant final value.
        got: Value,
    },
    /// No conflict and no state difference: the fault had no observable
    /// effect.
    Masked,
    /// The fault does not fit the model ([`FaultKind::check`] failed);
    /// the row is quarantined instead of aborting the campaign.
    Inapplicable {
        /// Why the fault could not be applied.
        reason: String,
    },
}

impl FaultOutcome {
    /// Stable machine-readable status string.
    pub fn as_str(&self) -> &'static str {
        match self {
            FaultOutcome::DetectedConflict { .. } => "detected-conflict",
            FaultOutcome::DeltaOverflow => "delta-overflow",
            FaultOutcome::DetectedValue(_) => "detected-value",
            FaultOutcome::DetectedInvariant(_) => "detected-invariant",
            FaultOutcome::SilentCorruption { .. } => "silent-corruption",
            FaultOutcome::Masked => "masked",
            FaultOutcome::Inapplicable { .. } => "inapplicable",
        }
    }

    /// `true` when the fault was *detected* — the run observably failed
    /// (conflict, budget blowout, or a value-checker hit) rather than
    /// finishing with wrong or unchanged state.
    pub fn is_detected(&self) -> bool {
        matches!(
            self,
            FaultOutcome::DetectedConflict { .. }
                | FaultOutcome::DeltaOverflow
                | FaultOutcome::DetectedValue(_)
                | FaultOutcome::DetectedInvariant(_)
        )
    }

    /// `true` when the fault would have been detected even with the
    /// value checkers off — by the resolution function or the delta
    /// budget. This is the paper's baseline detector, so the
    /// checker-on/checker-off coverage gap is computable from one
    /// campaign's rows.
    pub fn is_baseline_detected(&self) -> bool {
        matches!(
            self,
            FaultOutcome::DetectedConflict { .. } | FaultOutcome::DeltaOverflow
        )
    }
}

impl fmt::Display for FaultOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultOutcome::DetectedConflict {
                site,
                name,
                step,
                phase,
            } => write!(
                f,
                "detected: ILLEGAL on {site} `{name}` in step {step} phase {phase}"
            ),
            FaultOutcome::DeltaOverflow => write!(f, "detected: delta budget exhausted"),
            FaultOutcome::DetectedValue(v) => write!(f, "detected: {v}"),
            FaultOutcome::DetectedInvariant(v) => write!(f, "detected: {v}"),
            FaultOutcome::SilentCorruption {
                register,
                expected,
                got,
            } => write!(
                f,
                "SILENT: register `{register}` ended {got}, golden run says {expected}"
            ),
            FaultOutcome::Masked => write!(f, "masked: no observable effect"),
            FaultOutcome::Inapplicable { reason } => write!(f, "inapplicable: {reason}"),
        }
    }
}

/// Which machinery runs the mutants — the campaign report is
/// byte-identical either way (pinned by tests and CI).
///
/// # Examples
///
/// ```
/// use clockless_verify::CampaignEngine;
///
/// let e: CampaignEngine = "legacy".parse()?;
/// assert_eq!(e, CampaignEngine::Legacy);
/// assert_eq!(e.to_string(), "legacy");
/// assert_eq!(CampaignEngine::default(), CampaignEngine::Batched);
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CampaignEngine {
    /// Lower the golden plan once, run every mutant as a [`PlanDelta`]
    /// column of one lockstep [`ExecPlan::execute_batch`] walk.
    #[default]
    Batched,
    /// One fleet job per mutant model, each on a private kernel — the
    /// differential oracle for the batched engine.
    Legacy,
}

impl CampaignEngine {
    /// Stable machine-readable name (JSON and `--engine` grammar).
    pub fn as_str(self) -> &'static str {
        match self {
            CampaignEngine::Batched => "batched",
            CampaignEngine::Legacy => "legacy",
        }
    }
}

impl fmt::Display for CampaignEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for CampaignEngine {
    type Err = String;
    fn from_str(s: &str) -> Result<CampaignEngine, String> {
        match s {
            "batched" => Ok(CampaignEngine::Batched),
            "legacy" => Ok(CampaignEngine::Legacy),
            other => Err(format!(
                "unknown engine `{other}` (expected batched|legacy)"
            )),
        }
    }
}

/// Campaign parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignConfig {
    /// PRNG seed; the same seed over the same model yields a
    /// byte-identical report.
    pub seed: u64,
    /// Classes to inject; empty means all of [`ALL_CLASSES`].
    pub classes: Vec<FaultClass>,
    /// Cap on the number of faults (deterministic prefix of the
    /// enumeration); `None` runs everything.
    pub max_faults: Option<usize>,
    /// Fleet worker threads for the mutant runs.
    pub workers: usize,
    /// Execution backend for the golden run and every mutant. Both
    /// engines are observably byte-identical, so the campaign report does
    /// not depend on this — it only selects the machinery (and lets CI
    /// exercise the compiled engine against the full mutant space).
    pub backend: Backend,
    /// Mutant-execution machinery; see [`CampaignEngine`]. Reports are
    /// byte-identical across engines.
    pub engine: CampaignEngine,
    /// Which value-checker families to arm (`--checkers` on the CLI).
    /// [`CheckerMode::Off`] reproduces the paper's baseline: the
    /// resolution function and the delta budget are the only detectors.
    pub checkers: CheckerMode,
    /// Optimization level for compiled-engine runs (golden and mutants;
    /// the interpreter ignores it). Reports are byte-identical across
    /// levels — like [`CampaignConfig::backend`], this only selects the
    /// machinery.
    pub opt: OptLevel,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 0xC10C_1E55,
            classes: Vec::new(),
            max_faults: None,
            workers: 1,
            backend: Backend::default(),
            engine: CampaignEngine::default(),
            checkers: CheckerMode::default(),
            opt: OptLevel::default(),
        }
    }
}

/// Errors from a fault campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultsError {
    /// The golden (unmutated) run failed; nothing to compare against.
    Golden {
        /// What went wrong.
        msg: String,
    },
    /// A mutation could not be applied to the model.
    Apply {
        /// The fault's description.
        fault: String,
        /// What went wrong.
        msg: String,
    },
    /// A mutant failed in a way the campaign cannot classify (build or
    /// unexpected kernel error, not a budget blowout).
    Mutant {
        /// The fault's description.
        fault: String,
        /// What went wrong.
        msg: String,
    },
    /// The batch engine failed.
    Fleet(FleetError),
    /// Generation produced no faults (empty model, or the class filter
    /// excluded everything).
    NoFaults,
}

impl fmt::Display for FaultsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultsError::Golden { msg } => write!(f, "golden run failed: {msg}"),
            FaultsError::Apply { fault, msg } => write!(f, "cannot apply {fault}: {msg}"),
            FaultsError::Mutant { fault, msg } => {
                write!(f, "unclassifiable mutant failure for {fault}: {msg}")
            }
            FaultsError::Fleet(e) => write!(f, "fleet engine: {e}"),
            FaultsError::NoFaults => write!(f, "no faults to inject"),
        }
    }
}

impl std::error::Error for FaultsError {}

impl From<FleetError> for FaultsError {
    fn from(e: FleetError) -> Self {
        FaultsError::Fleet(e)
    }
}

/// One campaign row: an injected fault and its classified outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignRow {
    /// The injected fault.
    pub fault: FaultKind,
    /// The classified outcome of the mutant run.
    pub outcome: FaultOutcome,
}

/// Per-class coverage numbers: how many of the class's *applicable*
/// faults each detector tier caught.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassCoverage {
    /// The fault class.
    pub class: FaultClass,
    /// Faults detected by anything (conflicts, budget, value checkers).
    pub detected: usize,
    /// Faults the paper's baseline detectors alone caught (conflict or
    /// overflow) — the before-checkers number.
    pub baseline: usize,
    /// Applicable faults in the class (quarantined rows excluded).
    pub total: usize,
}

/// Results of a fault-injection campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignReport {
    /// The target model's name.
    pub model: String,
    /// The seed the campaign ran with.
    pub seed: u64,
    /// Delta-cycle budget each mutant ran under.
    pub delta_budget: u64,
    /// The value-checker families the campaign armed.
    pub checkers: CheckerMode,
    /// Per-fault rows, in generation order.
    pub rows: Vec<CampaignRow>,
    /// Merged kernel counters of every mutant run, with
    /// `injected_faults` stamped to the campaign size.
    pub totals: SimStats,
}

impl CampaignReport {
    /// Faults whose mutants observably failed (conflict, overflow, or a
    /// value-checker hit).
    pub fn detected(&self) -> usize {
        self.rows.iter().filter(|r| r.outcome.is_detected()).count()
    }

    /// Faults the baseline detectors (resolution function + delta
    /// budget) caught, regardless of the checker mode.
    pub fn baseline_detected(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.outcome.is_baseline_detected())
            .count()
    }

    /// Faults that escaped as silent corruption.
    pub fn silent(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| matches!(r.outcome, FaultOutcome::SilentCorruption { .. }))
            .count()
    }

    /// Faults with no observable effect.
    pub fn masked(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| matches!(r.outcome, FaultOutcome::Masked))
            .count()
    }

    /// Quarantined rows: faults that did not fit the model and never
    /// ran ([`FaultOutcome::Inapplicable`]).
    pub fn inapplicable(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| matches!(r.outcome, FaultOutcome::Inapplicable { .. }))
            .count()
    }

    /// Faults that actually ran: injected minus quarantined. This is the
    /// denominator of every coverage number — a campaign must not look
    /// worse because the caller supplied faults that never executed.
    pub fn applicable(&self) -> usize {
        self.rows.len() - self.inapplicable()
    }

    /// Overall detection coverage in `[0, 1]`: detected / applicable.
    pub fn coverage(&self) -> f64 {
        if self.applicable() == 0 {
            return 0.0;
        }
        self.detected() as f64 / self.applicable() as f64
    }

    /// Baseline coverage in `[0, 1]`: what the campaign would have
    /// detected with checkers off (conflicts + overflows over the same
    /// applicable denominator).
    pub fn baseline_coverage(&self) -> f64 {
        if self.applicable() == 0 {
            return 0.0;
        }
        self.baseline_detected() as f64 / self.applicable() as f64
    }

    /// Per-class coverage, canonical class order, classes with no
    /// applicable faults omitted.
    pub fn class_coverage(&self) -> Vec<ClassCoverage> {
        ALL_CLASSES
            .iter()
            .filter_map(|&class| {
                let in_class: Vec<_> = self
                    .rows
                    .iter()
                    .filter(|r| {
                        r.fault.class() == class
                            && !matches!(r.outcome, FaultOutcome::Inapplicable { .. })
                    })
                    .collect();
                if in_class.is_empty() {
                    return None;
                }
                Some(ClassCoverage {
                    class,
                    detected: in_class.iter().filter(|r| r.outcome.is_detected()).count(),
                    baseline: in_class
                        .iter()
                        .filter(|r| r.outcome.is_baseline_detected())
                        .count(),
                    total: in_class.len(),
                })
            })
            .collect()
    }

    /// Renders the report as a deterministic JSON document — the same
    /// model, seed and config produce byte-identical output.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(
            out,
            "  \"campaign\": {{\"model\": \"{}\", \"seed\": {}, \"delta_budget\": {}, \
             \"checkers\": \"{}\", \"faults\": {}, \"applicable\": {}, \"detected\": {}, \
             \"baseline\": {}, \"silent\": {}, \"masked\": {}, \"coverage\": {:.4}, \
             \"baseline_coverage\": {:.4}}},",
            escape(&self.model),
            self.seed,
            self.delta_budget,
            self.checkers,
            self.rows.len(),
            self.applicable(),
            self.detected(),
            self.baseline_detected(),
            self.silent(),
            self.masked(),
            self.coverage(),
            self.baseline_coverage()
        );
        out.push_str("  \"classes\": [");
        let classes = self.class_coverage();
        for (i, c) in classes.iter().enumerate() {
            let comma = if i + 1 == classes.len() { "" } else { ", " };
            let _ = write!(
                out,
                "{{\"class\": \"{}\", \"detected\": {}, \"baseline\": {}, \"total\": {}}}{comma}",
                c.class, c.detected, c.baseline, c.total
            );
        }
        out.push_str("],\n  \"faults\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let comma = if i + 1 == self.rows.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"id\": {}, \"class\": \"{}\", \"fault\": \"{}\", \"outcome\": \"{}\", \
                 \"detail\": \"{}\"}}{}",
                i,
                row.fault.class(),
                escape(&row.fault.to_string()),
                row.outcome.as_str(),
                escape(&row.outcome.to_string()),
                comma
            );
        }
        let t = &self.totals;
        let _ = writeln!(
            out,
            "  ],\n  \"totals\": {{\"delta_cycles\": {}, \"process_activations\": {}, \
             \"injected_faults\": {}, \"retries\": {}}}",
            t.delta_cycles, t.process_activations, t.injected_faults, t.retries
        );
        out.push_str("}\n");
        out
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fault campaign on `{}` (seed {}, checkers {}): {} faults, {} detected ({:.0}%), \
             {} silent, {} masked",
            self.model,
            self.seed,
            self.checkers,
            self.rows.len(),
            self.detected(),
            self.coverage() * 100.0,
            self.silent(),
            self.masked()
        )?;
        for c in self.class_coverage() {
            write!(
                f,
                "  {:<8} {}/{} detected",
                c.class.as_str(),
                c.detected,
                c.total
            )?;
            if self.checkers != CheckerMode::Off {
                write!(f, " (baseline {})", c.baseline)?;
            }
            writeln!(f)?;
        }
        for row in &self.rows {
            writeln!(f, "  {:<50} {}", row.fault.to_string(), row.outcome)?;
        }
        Ok(())
    }
}

/// The step a skewed write-back lands on — the single range check shared
/// by fault generation and both campaign engines ([`FaultKind::check`]).
///
/// # Errors
///
/// A message when the target step leaves `1..=cs_max`.
fn skew_target_step(write_step: Step, delta: i32, cs_max: Step) -> Result<Step, String> {
    let step = write_step as i64 + i64::from(delta);
    if step < 1 || step > cs_max as i64 {
        return Err(format!("skewed write step {step} is out of range"));
    }
    Ok(step as Step)
}

/// splitmix64 — the same tiny deterministic PRNG the property tests use.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Enumerates the faults a campaign would inject, deterministically:
/// per-class enumeration in model-declaration order (seeded values only
/// where a fault needs one — corrupted inits), then a round-robin
/// interleave across the classes in canonical order. The interleave
/// makes any `max_faults` truncation sample every class evenly instead
/// of a prefix of whichever classes enumerate first.
pub fn generate_faults(model: &RtModel, config: &CampaignConfig) -> Vec<FaultKind> {
    let wants = |class: FaultClass| config.classes.is_empty() || config.classes.contains(&class);
    let mut rng = config.seed;
    let mut stuck = Vec::new();
    let mut drivers = Vec::new();
    let mut drops = Vec::new();
    let mut skews = Vec::new();
    let mut inits = Vec::new();
    let mut guards = Vec::new();

    if wants(FaultClass::Stuck) {
        for r in model.registers() {
            if r.init.is_num() {
                stuck.push(FaultKind::StuckAtDisc {
                    register: r.name.clone(),
                });
            }
        }
    }
    if wants(FaultClass::Drivers) {
        let mut seen: Vec<(String, Step)> = Vec::new();
        for tuple in model.tuples() {
            for route in [&tuple.src_a, &tuple.src_b].into_iter().flatten() {
                let key = (route.bus.clone(), tuple.read_step);
                if seen.contains(&key) {
                    continue; // one spurious driver per (bus, step)
                }
                seen.push(key);
                drivers.push(FaultKind::ExtraDriver {
                    bus: route.bus.clone(),
                    step: tuple.read_step,
                    register: route.register.clone(),
                });
            }
        }
    }
    if wants(FaultClass::Drops) {
        for index in 0..model.tuples().len() {
            drops.push(FaultKind::DropTransfer { index });
        }
    }
    if wants(FaultClass::Skews) {
        for (index, tuple) in model.tuples().iter().enumerate() {
            let Some(write) = &tuple.write else { continue };
            for delta in [-1i32, 1] {
                if skew_target_step(write.step, delta, model.cs_max()).is_ok() {
                    skews.push(FaultKind::SkewWrite { index, delta });
                }
            }
        }
    }
    if wants(FaultClass::Inits) {
        for r in model.registers() {
            let base = r.init.num().unwrap_or(0);
            let value = base.wrapping_add(1 + (splitmix64(&mut rng) % 997) as i64);
            inits.push(FaultKind::CorruptInit {
                register: r.name.clone(),
                value,
            });
        }
    }

    if wants(FaultClass::Guards) {
        for (index, tuple) in model.tuples().iter().enumerate() {
            if tuple.guard.is_some() {
                guards.push(FaultKind::FlipGuard { index });
                guards.push(FaultKind::ForceGuard { index });
            }
        }
    }

    // Round-robin across the classes in canonical order: stuck[0],
    // drivers[0], …, guards[0], stuck[1], … — deterministic, and a
    // truncated prefix covers every non-empty class.
    let mut buckets = [stuck, drivers, drops, skews, inits, guards].map(Vec::into_iter);
    let mut faults = Vec::new();
    loop {
        let before = faults.len();
        faults.extend(buckets.iter_mut().filter_map(Iterator::next));
        if faults.len() == before {
            break;
        }
    }

    if let Some(max) = config.max_faults {
        faults.truncate(max);
    }
    faults
}

/// Runs a seeded fault campaign on `model`: golden run, deterministic
/// fault generation, mutant execution on the configured
/// [`CampaignEngine`], outcome classification, coverage report.
///
/// # Errors
///
/// [`FaultsError`] when the golden run fails, a mutant fails
/// unclassifiably, or nothing was generated.
pub fn run_campaign(
    model: &RtModel,
    config: &CampaignConfig,
) -> Result<CampaignReport, FaultsError> {
    run_campaign_with_faults(model, generate_faults(model, config), config)
}

/// Runs a campaign over a caller-supplied fault list (the generation
/// step of [`run_campaign`] factored out). Faults that do not fit the
/// model are quarantined as [`FaultOutcome::Inapplicable`] rows rather
/// than aborting the campaign.
///
/// # Errors
///
/// [`FaultsError`] when the golden run fails, a mutant fails
/// unclassifiably, or `faults` is empty.
pub fn run_campaign_with_faults(
    model: &RtModel,
    faults: Vec<FaultKind>,
    config: &CampaignConfig,
) -> Result<CampaignReport, FaultsError> {
    if faults.is_empty() {
        return Err(FaultsError::NoFaults);
    }
    let golden = config
        .backend
        .execute(model, &ExecOptions::default().at_opt(config.opt))
        .map_err(|e| FaultsError::Golden { msg: e.to_string() })?
        .summary;

    // One clean-run recording arms both checker families for every
    // mutant; a model that cannot run cleanly has no golden reference.
    let check = build_checkers(model, config.checkers)
        .map_err(|e| FaultsError::Golden { msg: e.to_string() })?;

    // Twice the exact quiescence bound (1 + 6·CS_MAX deltas) plus slack:
    // roomy for every legitimate mutant, tight enough that an oscillating
    // one is cut off after a few extra steps, not 10^8 deltas later.
    let delta_budget = 2 * (1 + 6 * model.cs_max() as u64) + 16;

    // Quarantine un-applicable faults up front — one applicability
    // predicate for both engines, so their reports cannot differ here.
    let quarantined: Vec<Option<FaultOutcome>> = faults
        .iter()
        .map(|f| {
            f.check(model)
                .err()
                .map(|reason| FaultOutcome::Inapplicable { reason })
        })
        .collect();

    let (outcomes, totals) = match config.engine {
        CampaignEngine::Batched => run_mutants_batched(
            model,
            &faults,
            &quarantined,
            &golden.registers,
            delta_budget,
            check.as_ref(),
            config.opt,
        )?,
        CampaignEngine::Legacy => run_mutants_legacy(
            model,
            &faults,
            &quarantined,
            &golden.registers,
            delta_budget,
            check.as_ref(),
            config,
        )?,
    };

    let rows: Vec<CampaignRow> = faults
        .into_iter()
        .zip(quarantined)
        .zip(outcomes)
        .map(|((fault, pre), ran)| CampaignRow {
            fault,
            outcome: pre.unwrap_or_else(|| ran.expect("applicable fault ran")),
        })
        .collect();

    let mut totals = totals;
    totals.injected_faults = rows.len() as u64;
    Ok(CampaignReport {
        model: model.name().to_string(),
        seed: config.seed,
        delta_budget,
        checkers: config.checkers,
        rows,
        totals,
    })
}

/// Classifies a clean mutant run from its final register and
/// memory-word values in declaration order: the first one diverging from
/// the golden run's (`golden`, the golden summary's registers, in the
/// same order) or [`FaultOutcome::Masked`]. Registers the mutant added —
/// none today — would not count.
fn classify_clean(
    values: impl IntoIterator<Item = Value>,
    golden: &[(String, Value)],
) -> FaultOutcome {
    match golden
        .iter()
        .zip(values)
        .find(|((_, expected), got)| expected != got)
    {
        Some(((register, expected), got)) => FaultOutcome::SilentCorruption {
            register: register.clone(),
            expected: *expected,
            got,
        },
        None => FaultOutcome::Masked,
    }
}

/// Classifies a conflict-free mutant run under the detector precedence
/// the campaign documents: value monitor > mined invariant > silent
/// corruption > masked. Both engines route through this, so a verdict
/// cannot depend on the machinery that produced it.
fn classify_checked(
    check: Option<&CheckReport>,
    values: impl IntoIterator<Item = Value>,
    golden: &[(String, Value)],
) -> FaultOutcome {
    if let Some(report) = check {
        if let Some(v) = &report.monitor {
            return FaultOutcome::DetectedValue(v.clone());
        }
        if let Some(v) = &report.invariant {
            return FaultOutcome::DetectedInvariant(v.clone());
        }
    }
    classify_clean(values, golden)
}

/// The batched engine: lower the golden plan once, express every
/// applicable fault as a [`PlanDelta`] and run all mutants in lockstep
/// via [`ExecPlan::execute_batch`]. Returns per-fault outcomes (`None`
/// on quarantined slots) and the merged kernel totals.
#[allow(clippy::too_many_arguments)]
fn run_mutants_batched(
    model: &RtModel,
    faults: &[FaultKind],
    quarantined: &[Option<FaultOutcome>],
    golden: &[(String, Value)],
    delta_budget: u64,
    check: Option<&CheckProgram>,
    opt: OptLevel,
) -> Result<(Vec<Option<FaultOutcome>>, SimStats), FaultsError> {
    let plan = ExecPlan::lower(model);
    let mut deltas = Vec::new();
    let mut slots = Vec::new(); // fault index of each delta column
    for (i, fault) in faults.iter().enumerate() {
        if quarantined[i].is_some() {
            continue;
        }
        let delta = fault_to_delta(&plan, fault).map_err(|msg| FaultsError::Apply {
            fault: fault.to_string(),
            msg,
        })?;
        deltas.push(delta);
        slots.push(i);
    }
    let options = ExecOptions {
        delta_limit: Some(delta_budget),
        opt,
        ..Default::default()
    };
    let outs = match check {
        Some(program) => {
            let checks = plan
                .resolve_checks(program)
                .map_err(|msg| FaultsError::Golden { msg })?;
            plan.execute_batch_checked(&deltas, &options, &checks)
        }
        None => plan.execute_batch(&deltas, &options),
    }
    .map_err(|e| FaultsError::Golden { msg: e.to_string() })?;

    let mut outcomes: Vec<Option<FaultOutcome>> = vec![None; faults.len()];
    let mut totals = SimStats::default();
    for (i, out) in slots.into_iter().zip(outs) {
        totals.merge(&out.stats);
        outcomes[i] = Some(if out.overflowed {
            FaultOutcome::DeltaOverflow
        } else if let Some(first) = &out.first_conflict {
            FaultOutcome::DetectedConflict {
                site: first.site.to_string(),
                name: first.name.clone(),
                step: first.visible_at.step,
                phase: first.visible_at.phase,
            }
        } else {
            classify_checked(out.check.as_ref(), out.registers.iter().copied(), golden)
        });
    }
    Ok((outcomes, totals))
}

/// The legacy engine and differential oracle: every applicable fault
/// becomes a mutant model run as its own fleet job on a private kernel.
#[allow(clippy::too_many_arguments)]
fn run_mutants_legacy(
    model: &RtModel,
    faults: &[FaultKind],
    quarantined: &[Option<FaultOutcome>],
    golden: &[(String, Value)],
    delta_budget: u64,
    check: Option<&CheckProgram>,
    config: &CampaignConfig,
) -> Result<(Vec<Option<FaultOutcome>>, SimStats), FaultsError> {
    let mut jobs = Vec::new();
    let mut slots = Vec::new(); // fault index of each job
    for (i, fault) in faults.iter().enumerate() {
        if quarantined[i].is_some() {
            continue;
        }
        let mutant = fault.apply(model).map_err(|msg| FaultsError::Apply {
            fault: fault.to_string(),
            msg,
        })?;
        jobs.push(JobSpec::new(
            format!("fault_{i:03}"),
            JobSource::Model(Box::new(mutant)),
        ));
        slots.push(i);
    }
    let mut outcomes: Vec<Option<FaultOutcome>> = vec![None; faults.len()];
    if jobs.is_empty() {
        return Ok((outcomes, SimStats::default()));
    }
    let fleet_config = FleetConfig {
        delta_budget: Some(delta_budget),
        backend: Some(config.backend),
        check: check.map(|p| Arc::new(p.clone())),
        opt: config.opt,
        ..FleetConfig::default()
    };
    let report = run_batch_with(&BatchSpec { jobs }, config.workers, &fleet_config)?;

    for (i, job) in slots.into_iter().zip(&report.jobs) {
        outcomes[i] = Some(match job {
            clockless_fleet::JobOutcome::Failed(q) => match q.kind {
                FailureKind::DeltaBudget | FailureKind::WallBudget => FaultOutcome::DeltaOverflow,
                _ => {
                    return Err(FaultsError::Mutant {
                        fault: faults[i].to_string(),
                        msg: q.error.clone(),
                    })
                }
            },
            clockless_fleet::JobOutcome::Ok(result) => {
                if let Some(first) = result.conflicts.first() {
                    FaultOutcome::DetectedConflict {
                        site: first.site.to_string(),
                        name: first.name.clone(),
                        step: first.visible_at.step,
                        phase: first.visible_at.phase,
                    }
                } else {
                    let values = result.registers.iter().map(|&(_, v)| v);
                    classify_checked(result.check.as_ref(), values, golden)
                }
            }
        });
    }
    Ok((outcomes, report.totals))
}

/// Translates a model-level [`FaultKind`] into the equivalent
/// [`PlanDelta`] on the golden plan.
fn fault_to_delta(plan: &ExecPlan, fault: &FaultKind) -> Result<PlanDelta, String> {
    match fault {
        FaultKind::StuckAtDisc { register } => plan.delta_set_init(register, Value::Disc),
        FaultKind::CorruptInit { register, value } => {
            plan.delta_set_init(register, Value::Num(*value))
        }
        FaultKind::DropTransfer { index } => plan.delta_drop_tuple(*index),
        FaultKind::SkewWrite { index, delta } => plan.delta_skew_write(*index, *delta),
        FaultKind::ExtraDriver {
            bus,
            step,
            register,
        } => plan.delta_extra_driver(bus, *step, register),
        FaultKind::FlipGuard { index } => plan.delta_flip_guard(*index),
        FaultKind::ForceGuard { index } => plan.delta_force_guard(*index),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockless_core::model::fig1_model;

    fn campaign(classes: &[FaultClass], workers: usize) -> CampaignReport {
        let config = CampaignConfig {
            classes: classes.to_vec(),
            workers,
            ..CampaignConfig::default()
        };
        run_campaign(&fig1_model(3, 4), &config).expect("campaign runs")
    }

    #[test]
    fn generation_is_deterministic_and_covers_all_classes() {
        let model = fig1_model(3, 4);
        let config = CampaignConfig::default();
        let a = generate_faults(&model, &config);
        let b = generate_faults(&model, &config);
        assert_eq!(a, b, "same seed, same faults");
        // fig1: 2 stuck (R1, R2), 2 drivers (B1@5, B2@5), 1 drop,
        // 2 skews (write step 6 → 5 and 7), 2 corrupted inits. No guard
        // faults — fig1 has no guarded transfers.
        assert_eq!(a.len(), 9);
        for class in ALL_CLASSES {
            if class == FaultClass::Guards {
                assert!(
                    !a.iter().any(|f| f.class() == class),
                    "fig1 has no guards to fault"
                );
                continue;
            }
            assert!(
                a.iter().any(|f| f.class() == class),
                "missing class {class}"
            );
        }
        // A different seed changes only the seeded values (inits).
        let other = generate_faults(
            &model,
            &CampaignConfig {
                seed: 1,
                ..CampaignConfig::default()
            },
        );
        assert_eq!(a.len(), other.len());
        assert_ne!(a, other, "corrupted init values depend on the seed");
    }

    #[test]
    fn class_filter_restricts_generation() {
        let model = fig1_model(3, 4);
        let config = CampaignConfig {
            classes: vec![FaultClass::Drivers],
            ..CampaignConfig::default()
        };
        let faults = generate_faults(&model, &config);
        assert_eq!(faults.len(), 2);
        assert!(faults.iter().all(|f| f.class() == FaultClass::Drivers));
        // max_faults takes a deterministic prefix.
        let capped = generate_faults(
            &model,
            &CampaignConfig {
                max_faults: Some(3),
                ..CampaignConfig::default()
            },
        );
        assert_eq!(capped.len(), 3);
    }

    #[test]
    fn same_seed_produces_byte_identical_reports() {
        let a = campaign(&[], 1);
        let b = campaign(&[], 4);
        assert_eq!(a.to_json(), b.to_json(), "seed + model pin the report");
        assert_eq!(a, b);
    }

    #[test]
    fn dual_driver_conflicts_are_fully_detected_on_fig1() {
        let report = campaign(&[FaultClass::Drivers], 2);
        assert_eq!(report.rows.len(), 2);
        for row in &report.rows {
            match &row.outcome {
                FaultOutcome::DetectedConflict {
                    name, step, phase, ..
                } => {
                    // Both spurious drivers assert in step 5; the conflict
                    // becomes visible one delta later (rb at the earliest).
                    assert_eq!(*step, 5, "{name}");
                    assert!(*phase >= Phase::Rb, "{phase}");
                }
                other => panic!("driver fault escaped: {other}"),
            }
        }
        let cov = report.class_coverage();
        assert_eq!(
            cov,
            vec![ClassCoverage {
                class: FaultClass::Drivers,
                detected: 2,
                baseline: 2,
                total: 2
            }]
        );
        assert!((report.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stuck_at_disc_is_detected_via_mixed_operands() {
        // A stuck register feeds the ADD a DISC operand next to a live
        // one — §2.6's operand rules turn that into ILLEGAL.
        let report = campaign(&[FaultClass::Stuck], 1);
        assert_eq!(report.rows.len(), 2);
        assert_eq!(report.detected(), 2);
        assert_eq!(report.silent(), 0);
    }

    #[test]
    fn dropped_transfers_escape_as_silent_corruption() {
        // No second driver, no ILLEGAL — just a register that never gets
        // written. This is the documented boundary of the detector.
        let report = campaign(&[FaultClass::Drops], 1);
        assert_eq!(report.rows.len(), 1);
        match &report.rows[0].outcome {
            FaultOutcome::SilentCorruption {
                register,
                expected,
                got,
            } => {
                assert_eq!(register, "R1");
                assert_eq!(*expected, Value::Num(7), "golden run: R1 := R1 + R2");
                assert_eq!(*got, Value::Num(3), "mutant: R1 keeps its init");
            }
            other => panic!("expected silent corruption, got {other}"),
        }
    }

    #[test]
    fn full_campaign_report_is_honest_about_coverage() {
        let report = campaign(&[], 2);
        assert_eq!(report.rows.len(), 9);
        assert_eq!(report.totals.injected_faults, 9);
        // stuck + drivers detected; drops/skews/inits escape on fig1.
        assert_eq!(report.detected(), 4);
        assert!(report.silent() >= 4, "drops/skews/inits corrupt silently");
        assert!(report.coverage() < 1.0);
        let json = report.to_json();
        assert!(
            json.contains("\"class\": \"stuck\", \"detected\": 2, \"baseline\": 2, \"total\": 2"),
            "{json}"
        );
        assert!(
            json.contains("\"class\": \"drivers\", \"detected\": 2, \"baseline\": 2, \"total\": 2"),
            "{json}"
        );
        assert!(json.contains("\"checkers\": \"off\""), "{json}");
        assert!(json.contains("\"applicable\": 9"), "{json}");
        assert!(json.contains("\"injected_faults\": 9"), "{json}");
        let text = report.to_string();
        assert!(text.contains("9 faults"), "{text}");
        assert!(text.contains("stuck"), "{text}");
    }

    #[test]
    fn campaign_reports_are_backend_independent() {
        // The whole campaign — golden run, mutant fleet, classification —
        // must be byte-identical whichever engine executes it.
        let interp = campaign(&[], 2);
        let config = CampaignConfig {
            workers: 2,
            backend: Backend::Compiled,
            ..CampaignConfig::default()
        };
        let compiled = run_campaign(&fig1_model(3, 4), &config).expect("campaign runs");
        assert_eq!(interp.to_json(), compiled.to_json());
        assert_eq!(interp, compiled);
    }

    #[test]
    fn fault_class_round_trips_through_strings() {
        for class in ALL_CLASSES {
            assert_eq!(class.as_str().parse::<FaultClass>(), Ok(class));
        }
        assert!("meteor".parse::<FaultClass>().is_err());
    }

    #[test]
    fn campaign_engine_round_trips_through_strings() {
        for engine in [CampaignEngine::Batched, CampaignEngine::Legacy] {
            assert_eq!(engine.as_str().parse::<CampaignEngine>(), Ok(engine));
        }
        let err = "turbo".parse::<CampaignEngine>().unwrap_err();
        assert!(err.contains("turbo"), "{err}");
    }

    #[test]
    fn max_faults_takes_a_round_robin_prefix_across_classes() {
        // The cap must sample every class, not the first classes'
        // enumeration order. fig1's first round is one fault per class,
        // in canonical class order.
        let model = fig1_model(3, 4);
        let full = generate_faults(&model, &CampaignConfig::default());
        let capped = generate_faults(
            &model,
            &CampaignConfig {
                max_faults: Some(5),
                ..CampaignConfig::default()
            },
        );
        assert_eq!(capped.as_slice(), &full[..5], "cap is a prefix");
        let classes: Vec<FaultClass> = capped.iter().map(|f| f.class()).collect();
        // One fault per class, in canonical order — minus guards, which
        // fig1 (no guarded transfers) never generates.
        assert_eq!(
            classes,
            &ALL_CLASSES[..5],
            "one fault per non-empty class, in order"
        );
        assert_eq!(
            capped[0],
            FaultKind::StuckAtDisc {
                register: "R1".into()
            }
        );
        assert_eq!(
            capped[1],
            FaultKind::ExtraDriver {
                bus: "B1".into(),
                step: 5,
                register: "R1".into()
            }
        );
        assert_eq!(capped[2], FaultKind::DropTransfer { index: 0 });
        assert_eq!(
            capped[3],
            FaultKind::SkewWrite {
                index: 0,
                delta: -1
            }
        );
        assert!(matches!(
            &capped[4],
            FaultKind::CorruptInit { register, .. } if register == "R1"
        ));
    }

    #[test]
    fn inapplicable_faults_are_quarantined_rows_not_campaign_aborts() {
        let model = fig1_model(3, 4);
        let faults = vec![
            FaultKind::StuckAtDisc {
                register: "R1".into(),
            },
            // Skew lands on step 11 > CS_MAX 7.
            FaultKind::SkewWrite { index: 0, delta: 5 },
            FaultKind::DropTransfer { index: 9 },
            FaultKind::StuckAtDisc {
                register: "R9".into(),
            },
        ];
        let mut reports = Vec::new();
        for engine in [CampaignEngine::Batched, CampaignEngine::Legacy] {
            let config = CampaignConfig {
                engine,
                ..CampaignConfig::default()
            };
            let report = run_campaign_with_faults(&model, faults.clone(), &config)
                .expect("inapplicable faults must not abort the campaign");
            assert_eq!(report.rows.len(), 4, "{engine}");
            assert!(report.rows[0].outcome.is_detected(), "{engine}");
            for (row, needle) in report.rows[1..].iter().zip([
                "skewed write step 11 is out of range",
                "no transfer at index 9",
                "unknown register `R9`",
            ]) {
                match &row.outcome {
                    FaultOutcome::Inapplicable { reason } => {
                        assert_eq!(reason, needle, "{engine}");
                        assert!(!row.outcome.is_detected());
                        assert_eq!(row.outcome.as_str(), "inapplicable");
                    }
                    other => panic!("{engine}: expected quarantine, got {other}"),
                }
            }
            assert_eq!(report.totals.injected_faults, 4, "{engine}");
            reports.push(report);
        }
        assert_eq!(reports[0], reports[1], "engines agree on quarantines");
        assert_eq!(reports[0].to_json(), reports[1].to_json());
        let json = reports[0].to_json();
        assert!(json.contains("\"outcome\": \"inapplicable\""), "{json}");
    }

    #[test]
    fn checkers_close_the_silent_corruption_gap_on_fig1() {
        let model = fig1_model(3, 4);
        let off = run_campaign(&model, &CampaignConfig::default()).expect("baseline runs");
        assert!(off.coverage() < 0.5, "fig1 baseline is ~44%");

        let all = run_campaign(
            &model,
            &CampaignConfig {
                checkers: CheckerMode::All,
                ..CampaignConfig::default()
            },
        )
        .expect("checked campaign runs");
        assert_eq!(all.rows.len(), 9);
        assert!(
            all.coverage() >= 0.85,
            "checkers must close the gap: {:.2}",
            all.coverage()
        );
        // Baseline numbers are recoverable from the checked campaign and
        // match the unchecked one exactly.
        assert_eq!(all.baseline_detected(), off.detected());
        assert!((all.baseline_coverage() - off.coverage()).abs() < 1e-12);
        // Per class: the conflict-detected classes are untouched; the
        // formerly silent classes are now fully caught.
        for c in all.class_coverage() {
            assert_eq!(c.detected, c.total, "{} fully detected", c.class);
            let was = off
                .class_coverage()
                .into_iter()
                .find(|o| o.class == c.class)
                .expect("same classes");
            assert_eq!(c.baseline, was.detected, "{} baseline", c.class);
        }
        // The detector keeps the exact first-violation site, like the
        // conflict localization does.
        let drop_row = all
            .rows
            .iter()
            .find(|r| matches!(r.fault, FaultKind::DropTransfer { .. }))
            .expect("fig1 has a drop fault");
        match &drop_row.outcome {
            FaultOutcome::DetectedValue(v) => {
                assert_eq!(drop_row.outcome.as_str(), "detected-value");
                assert!(drop_row.outcome.is_detected());
                assert!(!drop_row.outcome.is_baseline_detected());
                assert!(v.site().is_some(), "divergence is step/phase-localized");
            }
            other => panic!("drop should hit the value monitor, got {other}"),
        }
        let json = all.to_json();
        assert!(json.contains("\"checkers\": \"all\""), "{json}");
        assert!(json.contains("\"outcome\": \"detected-value\""), "{json}");
        assert!(json.contains("value monitor"), "{json}");
        let text = all.to_string();
        assert!(text.contains("checkers all"), "{text}");
        assert!(text.contains("baseline"), "{text}");
    }

    #[test]
    fn guard_faults_cover_flip_and_force_on_a_guarded_model() {
        // `R1 := R2` guarded by `R1 /= 0`, true in the golden run.
        // Flipping the guard suppresses the transfer without adding a
        // driver — no conflict, so the baseline sees silent corruption
        // and the value monitors close the gap. Forcing the guard away
        // is masked: the guard was already true.
        let model = clockless_core::text::parse_model(
            "model gf steps 2\nregister R1 init 1\nregister R2 init 5\n\
             bus B1\nbus B2\nmodule CP ops passa comb\n\
             transfer if R1 /= 0 then (R2,B1,-,-,1,CP,1,B2,R1)\n",
        )
        .expect("guarded model parses");
        for engine in [CampaignEngine::Batched, CampaignEngine::Legacy] {
            let report = run_campaign(
                &model,
                &CampaignConfig {
                    classes: vec![FaultClass::Guards],
                    engine,
                    ..CampaignConfig::default()
                },
            )
            .expect("guard campaign runs");
            assert_eq!(report.rows.len(), 2, "{engine}");
            let flip = report
                .rows
                .iter()
                .find(|r| matches!(r.fault, FaultKind::FlipGuard { .. }))
                .expect("flip row");
            match &flip.outcome {
                FaultOutcome::SilentCorruption {
                    register,
                    expected,
                    got,
                } => {
                    assert_eq!(register, "R1", "{engine}");
                    assert_eq!(*expected, Value::Num(5), "{engine}");
                    assert_eq!(*got, Value::Num(1), "{engine}");
                }
                other => panic!("{engine}: flipped guard should corrupt silently: {other}"),
            }
            let force = report
                .rows
                .iter()
                .find(|r| matches!(r.fault, FaultKind::ForceGuard { .. }))
                .expect("force row");
            assert!(
                matches!(force.outcome, FaultOutcome::Masked),
                "{engine}: forcing a true guard changes nothing: {}",
                force.outcome
            );

            let checked = run_campaign(
                &model,
                &CampaignConfig {
                    classes: vec![FaultClass::Guards],
                    engine,
                    checkers: CheckerMode::All,
                    ..CampaignConfig::default()
                },
            )
            .expect("checked guard campaign runs");
            let flip = checked
                .rows
                .iter()
                .find(|r| matches!(r.fault, FaultKind::FlipGuard { .. }))
                .expect("flip row");
            assert!(
                matches!(flip.outcome, FaultOutcome::DetectedValue(_)),
                "{engine}: monitors must catch the flipped guard: {}",
                flip.outcome
            );
            let cov = checked.class_coverage();
            assert_eq!(
                cov,
                vec![ClassCoverage {
                    class: FaultClass::Guards,
                    detected: 1,
                    baseline: 0,
                    total: 2
                }],
                "{engine}: flip caught by monitors, force masked, none by conflicts"
            );
        }
    }

    #[test]
    fn invariants_alone_catch_out_of_range_inits() {
        // Mined invariants are weaker than monitors (a dropped transfer
        // leaves every register inside its observed range) but they need
        // no golden trajectory at mutant-run time — and a corrupted init
        // lands outside the mined range at delta 0.
        let model = fig1_model(3, 4);
        let report = run_campaign(
            &model,
            &CampaignConfig {
                classes: vec![FaultClass::Inits],
                checkers: CheckerMode::Invariants,
                ..CampaignConfig::default()
            },
        )
        .expect("campaign runs");
        assert_eq!(report.rows.len(), 2);
        for row in &report.rows {
            match &row.outcome {
                FaultOutcome::DetectedInvariant(v) => {
                    assert_eq!(row.outcome.as_str(), "detected-invariant");
                    assert_eq!(v.delta, 0, "corrupted inits violate at delta 0");
                    assert!(v.to_string().contains("at initialization"), "{v}");
                }
                other => panic!("corrupted init escaped the invariants: {other}"),
            }
        }
        let json = report.to_json();
        assert!(
            json.contains("\"outcome\": \"detected-invariant\""),
            "{json}"
        );
    }

    #[test]
    fn coverage_denominator_excludes_quarantined_rows() {
        // One applicable (detected) fault plus three quarantined ones:
        // the campaign is 100% covered, not 25% — inapplicable rows
        // never ran, so they cannot count as escapes.
        let model = fig1_model(3, 4);
        let faults = vec![
            FaultKind::StuckAtDisc {
                register: "R1".into(),
            },
            FaultKind::SkewWrite { index: 0, delta: 5 },
            FaultKind::DropTransfer { index: 9 },
            FaultKind::StuckAtDisc {
                register: "R9".into(),
            },
        ];
        for engine in [CampaignEngine::Batched, CampaignEngine::Legacy] {
            let config = CampaignConfig {
                engine,
                ..CampaignConfig::default()
            };
            let report =
                run_campaign_with_faults(&model, faults.clone(), &config).expect("campaign runs");
            assert_eq!(report.rows.len(), 4, "{engine}");
            assert_eq!(report.inapplicable(), 3, "{engine}");
            assert_eq!(report.applicable(), 1, "{engine}");
            assert_eq!(report.detected(), 1, "{engine}");
            assert!(
                (report.coverage() - 1.0).abs() < 1e-12,
                "{engine}: quarantined rows must not dilute coverage ({})",
                report.coverage()
            );
            // Class rows count only applicable faults: the stuck class
            // drops its quarantined `R9` row, and the skew/drop classes
            // (quarantined only) vanish entirely.
            assert_eq!(
                report.class_coverage(),
                vec![ClassCoverage {
                    class: FaultClass::Stuck,
                    detected: 1,
                    baseline: 1,
                    total: 1
                }],
                "{engine}"
            );
            let json = report.to_json();
            assert!(json.contains("\"faults\": 4"), "{json}");
            assert!(json.contains("\"applicable\": 1"), "{json}");
            assert!(json.contains("\"coverage\": 1.0000"), "{json}");
        }
    }

    #[test]
    fn skew_checks_cannot_drift_between_generation_and_apply() {
        // Every skew generation emits must apply; every ±1 skew it
        // refuses must be refused by `apply` with the same message.
        let model = fig1_model(3, 4);
        let generated = generate_faults(
            &model,
            &CampaignConfig {
                classes: vec![FaultClass::Skews],
                ..CampaignConfig::default()
            },
        );
        assert!(!generated.is_empty());
        for fault in &generated {
            fault.apply(&model).expect("generated skews apply");
        }
        for index in 0..model.tuples().len() {
            for delta in [-1i32, 1] {
                let fault = FaultKind::SkewWrite { index, delta };
                let generated_it = generated.contains(&fault);
                match fault.apply(&model) {
                    Ok(_) => assert!(generated_it, "applied but not generated: {fault}"),
                    Err(msg) => {
                        assert!(!generated_it, "generated but refused: {fault}");
                        assert!(msg.contains("out of range"), "{msg}");
                    }
                }
            }
        }
    }

    #[test]
    fn boundary_skews_reach_step_one_and_cs_max() {
        // Writes skewed onto the schedule edges: step 1 (earliest legal)
        // and CS_MAX (forcing the mutant — and only the mutant — through
        // the flush delta). Both engines must agree byte-for-byte.
        let mut model = clockless_core::RtModel::new("edges", 3);
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
        let faults = vec![
            FaultKind::SkewWrite {
                index: 0,
                delta: -1,
            }, // write step 2 → 1
            FaultKind::SkewWrite { index: 0, delta: 1 }, // write step 2 → 3 = CS_MAX
        ];
        for fault in &faults {
            fault.check(&model).expect("boundary skews are legal");
        }
        let mut reports = Vec::new();
        for engine in [CampaignEngine::Batched, CampaignEngine::Legacy] {
            let config = CampaignConfig {
                engine,
                ..CampaignConfig::default()
            };
            let report =
                run_campaign_with_faults(&model, faults.clone(), &config).expect("campaign runs");
            assert_eq!(report.rows.len(), 2, "{engine}");
            reports.push(report);
        }
        assert_eq!(reports[0], reports[1]);
        assert_eq!(reports[0].to_json(), reports[1].to_json());
    }

    #[test]
    fn class_filters_with_nothing_to_generate_report_no_faults() {
        // A model with no transfers: drops/skews/drivers filter down to
        // nothing, and the campaign says so on both engines.
        let mut model = clockless_core::RtModel::new("idle", 3);
        model.add_register_init("R1", Value::Num(9)).unwrap();
        model.add_bus("B1").unwrap();
        for classes in [
            vec![FaultClass::Drops],
            vec![FaultClass::Skews],
            vec![FaultClass::Drivers],
            vec![FaultClass::Guards],
        ] {
            for engine in [CampaignEngine::Batched, CampaignEngine::Legacy] {
                let config = CampaignConfig {
                    classes: classes.clone(),
                    engine,
                    ..CampaignConfig::default()
                };
                assert_eq!(
                    run_campaign(&model, &config),
                    Err(FaultsError::NoFaults),
                    "{engine} {classes:?}"
                );
            }
        }
    }

    /// Byte-identity of the batched and legacy engines on one model,
    /// across both execution backends, both checker extremes, and
    /// several worker counts.
    fn assert_engines_agree(model: &RtModel, context: &str) {
        for backend in [Backend::Interpreted, Backend::Compiled] {
            for checkers in [CheckerMode::Off, CheckerMode::All] {
                let mut reports = Vec::new();
                for (engine, workers) in [
                    (CampaignEngine::Batched, 1),
                    (CampaignEngine::Legacy, 1),
                    (CampaignEngine::Legacy, 3),
                ] {
                    let config = CampaignConfig {
                        backend,
                        engine,
                        workers,
                        checkers,
                        ..CampaignConfig::default()
                    };
                    reports.push(run_campaign(model, &config).unwrap_or_else(|e| {
                        panic!("{context} ({backend}/{engine}/{checkers}): {e}")
                    }));
                }
                for other in &reports[1..] {
                    assert_eq!(&reports[0], other, "{context} ({backend}/{checkers})");
                    assert_eq!(
                        reports[0].to_json(),
                        other.to_json(),
                        "{context} ({backend}/{checkers})"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_and_legacy_agree_on_the_rtl_corpus() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../models");
        let mut checked = 0;
        for entry in std::fs::read_dir(dir).expect("models directory") {
            let path = entry.expect("entry").path();
            if path.extension().and_then(|e| e.to_str()) != Some("rtl") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("readable");
            let model = clockless_core::text::parse_model(&text)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert_engines_agree(&model, &path.display().to_string());
            checked += 1;
        }
        assert!(checked >= 5, "corpus shrank to {checked} models");
    }

    #[test]
    fn batched_and_legacy_agree_on_a_wide_bus_dag() {
        let model = crate::wide_bus_dag();
        let width = crate::widest_bus(&model);
        assert!(width >= 24, "widest bus has only {width} drivers");
        assert_engines_agree(&model, "wide-bus dag");
    }

    #[test]
    fn batched_and_legacy_agree_on_the_iks_chips() {
        use clockless_iks::prelude::*;
        let constants = IkConstants::new(ArmGeometry::new(1.0, 1.0));
        let ik = build_ik_chip(to_fx(1.0), to_fx(1.0), constants)
            .expect("ik chip")
            .model;
        assert_engines_agree(&ik, "ik chip");

        let samples = [to_fx(0.5), to_fx(1.5), to_fx(-1.0), to_fx(2.0)];
        let coeffs = [to_fx(2.0), to_fx(-0.5), to_fx(0.25), to_fx(1.0)];
        let fir = clockless_iks::build_fir_chip(samples, coeffs).expect("fir chip");
        assert_engines_agree(&fir, "fir chip");
    }
}
