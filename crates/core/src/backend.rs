//! Execution backends: one semantics, two engines.
//!
//! [`Backend::execute`] turns an [`RtModel`] into its observable run
//! output — final registers, conflict diagnoses, kernel-compatible
//! statistics, and on traced runs the recorded [`Waveform`], from which
//! the commit log and the VCD are rendered on demand. Two engines
//! implement the contract:
//!
//! * [`Backend::Interpreted`] — the delta-cycle event kernel
//!   ([`RtSimulation`]): processes, sensitivity lists, wake filters. This
//!   is the faithful rendering of the paper's VHDL construction.
//! * [`Backend::Compiled`] — the phase-schedule engine
//!   ([`ExecPlan`]): the model is lowered to specs pinned to their
//!   `(step, phase)` slots, placed straight into a micro-op stream
//!   ([`crate::opt`]) and walked in a fixed number of iterations with no
//!   event machinery at all, exploiting the paper's central observation
//!   that six-phase delta timing makes the schedule *static*.
//!
//! Both backends produce **byte-identical observable output** (registers,
//! conflicts with exact step and phase, trace/VCD, `SimStats`); the
//! differential obligation is enforced by `clockless-verify`'s
//! `backend_equiv` over the whole corpus.
//!
//! # Examples
//!
//! ```
//! use clockless_core::backend::{Backend, ExecOptions};
//! use clockless_core::model::fig1_model;
//! use clockless_core::value::Value;
//!
//! let model = fig1_model(3, 4);
//! let interp = Backend::Interpreted.execute(&model, &ExecOptions::traced())?;
//! let compiled = Backend::Compiled.execute(&model, &ExecOptions::traced())?;
//! assert_eq!(interp.summary.register("R1"), Some(Value::Num(7)));
//! assert_eq!(interp.summary.registers, compiled.summary.registers);
//! assert_eq!(interp.summary.stats, compiled.summary.stats);
//! assert_eq!(interp.vcd(), compiled.vcd());
//! # Ok::<(), clockless_kernel::KernelError>(())
//! ```

use std::fmt;
use std::str::FromStr;
use std::time::Instant;

use clockless_kernel::{KernelError, SimStats};

use crate::diag::Conflict;
use crate::elaborate::ElaborateOptions;
use crate::model::RtModel;
use crate::plan::ExecPlan;
use crate::run::{RegisterCommit, RtSimulation, RunSummary, Waveform};
use crate::value::Value;

/// Optimization level of the compiled engine's plan optimizer
/// ([`crate::opt`]).
///
/// The levels are strictly cumulative pass sets over one micro-op
/// stream; every level produces **byte-identical observables** to the
/// interpreter — the optimizer only ever changes how the schedule is
/// walked, never what it computes. The interpreted backend ignores the
/// level entirely.
///
/// # Examples
///
/// ```
/// use clockless_core::backend::OptLevel;
///
/// let o: OptLevel = "2".parse()?;
/// assert_eq!(o, OptLevel::O2);
/// assert_eq!(o.to_string(), "2");
/// assert_eq!(OptLevel::default(), OptLevel::O2);
/// # Ok::<(), clockless_core::backend::ParseOptLevelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum OptLevel {
    /// No optimization passes: the plain micro-op stream, one op per
    /// placed drive, evaluation, commit and control push, every resolved
    /// signal resolved through its driver tally.
    O0,
    /// Resolution specialization: single-driver asserts compile to direct
    /// stores that keep no driver slots or tally.
    O1,
    /// Everything in `O1` plus control-trajectory constant folding and
    /// dead-spur elimination (statically decided guards, elided control
    /// bookkeeping and provably event-free module evaluations, with their
    /// counter contributions credited analytically).
    #[default]
    O2,
}

impl OptLevel {
    /// All levels, lowest first — the sweep order equivalence gates use.
    pub const ALL: [OptLevel; 3] = [OptLevel::O0, OptLevel::O1, OptLevel::O2];

    /// The per-pass toggle set this level enables.
    pub fn config(self) -> OptConfig {
        match self {
            OptLevel::O0 => OptConfig::default(),
            OptLevel::O1 => OptConfig {
                specialize: true,
                ..OptConfig::default()
            },
            OptLevel::O2 => OptConfig {
                specialize: true,
                fold: true,
                dse: true,
            },
        }
    }
}

impl fmt::Display for OptLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OptLevel::O0 => "0",
            OptLevel::O1 => "1",
            OptLevel::O2 => "2",
        })
    }
}

/// Error parsing an [`OptLevel`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseOptLevelError(pub String);

impl fmt::Display for ParseOptLevelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown opt level `{}` (expected 0|1|2)", self.0)
    }
}

impl std::error::Error for ParseOptLevelError {}

impl FromStr for OptLevel {
    type Err = ParseOptLevelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "0" => Ok(OptLevel::O0),
            "1" => Ok(OptLevel::O1),
            "2" => Ok(OptLevel::O2),
            other => Err(ParseOptLevelError(other.to_string())),
        }
    }
}

/// Individual pass toggles of the optimizer pipeline.
///
/// [`OptLevel::config`] maps the user-facing levels onto these; the
/// benchmarks flip passes one at a time for per-pass attribution. Every
/// toggle set compiles the same micro-op stream (all off is `-O0`); each
/// pass only specializes or shrinks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OptConfig {
    /// Resolution specialization: single-driver asserts become direct
    /// compare-and-store, keeping no driver slots or tally.
    pub specialize: bool,
    /// Control-trajectory constant folding: the CS/PH trajectory is
    /// static, so statically decided guards are pre-evaluated and
    /// untraced control bookkeeping is elided (credited analytically).
    pub fold: bool,
    /// Dead-spur elimination: module evaluations that provably observe
    /// only `DISC` are dropped from the stream. (Dead commits never reach
    /// the stream: lowering emits only live ones, at every level.)
    pub dse: bool,
}

/// Options for one backend execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecOptions {
    /// Record the full waveform. Required for conflict localization, the
    /// commit log and VCD export; costs memory and time.
    pub trace: bool,
    /// Per-instant delta-cycle budget; `None` uses the kernel default
    /// (10^8). Exceeding it fails the run with
    /// [`KernelError::DeltaOverflow`].
    pub delta_limit: Option<u64>,
    /// Wall-clock deadline; passing it fails the run with
    /// [`KernelError::WallBudgetExceeded`]. Checked after every delta
    /// cycle by both backends.
    pub deadline: Option<Instant>,
    /// Optimization level of the compiled engine (default `O2`). The
    /// interpreted backend ignores it; every level is observably
    /// byte-identical, so this only trades compile time for run time.
    pub opt: OptLevel,
}

impl ExecOptions {
    /// Options with tracing enabled.
    pub fn traced() -> ExecOptions {
        ExecOptions {
            trace: true,
            ..Default::default()
        }
    }

    /// These options with the given optimization level.
    pub fn at_opt(self, opt: OptLevel) -> ExecOptions {
        ExecOptions { opt, ..self }
    }
}

/// The complete observable output of one model execution.
///
/// A traced outcome computes eagerly what every report prints — final
/// registers, statistics and the conflict report in
/// [`summary`](Self::summary) — and keeps the recording itself in
/// [`waveform`](Self::waveform). The commit log and the VCD document are
/// rendered from it only when [`commits`](Self::commits) or
/// [`vcd`](Self::vcd) is called.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// Run summary: kernel statistics, final registers and (when traced)
    /// the conflict report.
    pub summary: RunSummary,
    /// The recorded waveform (`None` when not traced).
    pub waveform: Option<Waveform>,
}

impl ExecOutcome {
    /// The register-commit log (`None` when not traced), rendered on
    /// each call.
    pub fn commits(&self) -> Option<Vec<RegisterCommit>> {
        self.waveform.as_ref().map(Waveform::commits)
    }

    /// The waveform as a VCD document (`None` when not traced), rendered
    /// on each call.
    pub fn vcd(&self) -> Option<String> {
        self.waveform.as_ref().map(Waveform::vcd)
    }
}

/// Per-column result of [`ExecPlan::execute_batch`]: exactly the
/// observables a fault-campaign classifier needs, without the solo
/// engines' trace/VCD machinery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Final register and memory-word values, in declaration order —
    /// the order of a solo run's `RunSummary::registers`, which carries
    /// the names. An overflowed column reports its initial values.
    pub registers: Vec<Value>,
    /// The run's first `ILLEGAL` transition, localized like the traced
    /// engines' conflict report (`ConflictReport::first`).
    pub first_conflict: Option<Conflict>,
    /// The column's kernel counters — identical to the stats a solo run
    /// of the same mutant reports.
    pub stats: SimStats,
    /// The column's schedule exceeded the delta budget: nothing ran, and
    /// `stats` records only the exhausted budget as `delta_cycles`.
    pub overflowed: bool,
    /// Check verdict when the batch ran with value checkers
    /// ([`ExecPlan::execute_batch_checked`]); `None` on unchecked runs
    /// and on overflowed columns (which never execute).
    pub check: Option<crate::check::CheckReport>,
}

/// A backend selector — the value CLI flags and `.fleet` specs carry.
///
/// # Examples
///
/// ```
/// use clockless_core::backend::Backend;
///
/// let b: Backend = "compiled".parse()?;
/// assert_eq!(b, Backend::Compiled);
/// assert_eq!(b.to_string(), "compiled");
/// assert_eq!(Backend::default(), Backend::Interpreted);
/// # Ok::<(), clockless_core::backend::ParseBackendError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// The delta-cycle event kernel (the paper's VHDL semantics, executed
    /// by `clockless-kernel`).
    #[default]
    Interpreted,
    /// The compiled phase-schedule engine: lowers the model to an
    /// [`ExecPlan`] and walks its micro-op stream at `options.opt`.
    Compiled,
}

impl Backend {
    /// Short lowercase name (`"interpreted"` / `"compiled"`).
    pub fn label(self) -> &'static str {
        match self {
            Backend::Interpreted => "interpreted",
            Backend::Compiled => "compiled",
        }
    }

    /// Runs `model` to quiescence on the selected engine and harvests the
    /// observable output. Both engines agree byte-for-byte on every
    /// observable of [`ExecOutcome`] — summary, commit log and VCD — for
    /// every valid model: the equivalence `clockless-verify` checks
    /// differentially.
    ///
    /// # Errors
    ///
    /// [`KernelError::DeltaOverflow`] when the delta budget is exceeded,
    /// [`KernelError::WallBudgetExceeded`] when the wall deadline passes,
    /// plus any elaboration error.
    pub fn execute(
        self,
        model: &RtModel,
        options: &ExecOptions,
    ) -> Result<ExecOutcome, KernelError> {
        match self {
            Backend::Interpreted => {
                let elaborate = ElaborateOptions {
                    trace: options.trace,
                    ..Default::default()
                };
                let mut sim = RtSimulation::with_options(model, elaborate)?;
                if let Some(limit) = options.delta_limit {
                    sim.set_delta_limit(limit);
                }
                let summary = match options.deadline {
                    Some(deadline) => sim.run_to_completion_deadlined(deadline)?,
                    None => sim.run_to_completion()?,
                };
                Ok(ExecOutcome {
                    summary,
                    waveform: sim.into_waveform(),
                })
            }
            Backend::Compiled => ExecPlan::lower(model).execute(options),
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Error parsing a [`Backend`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBackendError(pub String);

impl fmt::Display for ParseBackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown backend `{}` (expected interpreted|compiled)",
            self.0
        )
    }
}

impl std::error::Error for ParseBackendError {}

impl FromStr for Backend {
    type Err = ParseBackendError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "interpreted" => Ok(Backend::Interpreted),
            "compiled" => Ok(Backend::Compiled),
            other => Err(ParseBackendError(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::fig1_model;
    use crate::value::Value;

    #[test]
    fn parse_and_display_roundtrip() {
        for b in [Backend::Interpreted, Backend::Compiled] {
            assert_eq!(b.to_string().parse::<Backend>().unwrap(), b);
        }
        assert_eq!("COMPILED".parse::<Backend>().unwrap(), Backend::Compiled);
        let err = "jit".parse::<Backend>().unwrap_err();
        assert!(err.to_string().contains("jit"));
    }

    #[test]
    fn labels_match_selectors() {
        assert_eq!(Backend::Interpreted.label(), "interpreted");
        assert_eq!(Backend::Compiled.label(), "compiled");
    }

    #[test]
    fn untraced_outcome_has_no_waveform_artifacts() {
        let model = fig1_model(1, 2);
        for b in [Backend::Interpreted, Backend::Compiled] {
            let out = b.execute(&model, &ExecOptions::default()).unwrap();
            assert_eq!(out.summary.register("R1"), Some(Value::Num(3)), "{b}");
            assert!(out.summary.conflicts.is_none(), "{b}");
            assert!(out.waveform.is_none(), "{b}");
            assert!(out.commits().is_none(), "{b}");
            assert!(out.vcd().is_none(), "{b}");
        }
    }

    /// A traced outcome carries the full conflict report whether or not
    /// its waveform is ever read, and the on-demand renderings agree
    /// across engines, levels and repeated calls.
    #[test]
    fn traced_outcome_reports_conflicts_and_renders_on_demand() {
        let text = include_str!("../../../models/conflict.rtl");
        let model = crate::text::parse_model(text).expect("corpus model parses");
        let interp = Backend::Interpreted
            .execute(&model, &ExecOptions::traced())
            .unwrap();
        let report = interp.summary.conflicts.as_ref().expect("traced report");
        let first = report.first().expect("the bus collision is reported");
        assert_eq!(first.name, "X");
        assert_eq!(first.visible_at, crate::PhaseTime::new(2, crate::Phase::Rb));
        let vcd = interp.vcd().expect("traced run renders a VCD");
        let commits = interp.commits().expect("traced run has a commit log");
        assert!(!commits.is_empty());
        assert_eq!(interp.vcd().as_ref(), Some(&vcd), "rendering is repeatable");
        assert_eq!(interp.commits().as_ref(), Some(&commits));
        for level in OptLevel::ALL {
            let options = ExecOptions::traced().at_opt(level);
            // Never read this outcome's waveform: the report is already
            // complete.
            let unread = Backend::Compiled.execute(&model, &options).unwrap();
            assert_eq!(unread.summary.conflicts.as_ref(), Some(report), "-O{level}");
            let out = Backend::Compiled.execute(&model, &options).unwrap();
            for _ in 0..2 {
                assert_eq!(out.vcd().as_ref(), Some(&vcd), "-O{level}");
                assert_eq!(out.commits().as_ref(), Some(&commits), "-O{level}");
            }
            let waveform = out.waveform.as_ref().expect("traced");
            assert_eq!(&waveform.conflicts(), report, "-O{level}");
        }
    }

    #[test]
    fn both_backends_respect_the_wall_deadline() {
        let model = fig1_model(3, 4);
        let past = Instant::now() - std::time::Duration::from_secs(1);
        for b in [Backend::Interpreted, Backend::Compiled] {
            let opts = ExecOptions {
                deadline: Some(past),
                ..Default::default()
            };
            let err = b.execute(&model, &opts).unwrap_err();
            assert!(
                matches!(err, KernelError::WallBudgetExceeded { .. }),
                "{b}: {err}"
            );
        }
    }
}
