//! Golden-run value monitors: checker-mode selection and check-program
//! construction for fault campaigns.
//!
//! The resolution function detects exactly the faults that double-drive
//! a resolved signal; value corruption (dropped transfers, skewed
//! writes, corrupted inits) completes cleanly and stays silent. The
//! monitors close that gap: one canonical clean run records the
//! per-delta value table of every register output and bus
//! ([`clockless_core::check::record_table`]), and every mutant is
//! compared against it — the first divergent `(step, phase, signal)` is
//! reported exactly like conflict detection reports its first `ILLEGAL`.
//!
//! [`CheckerMode`] selects which detector families a campaign arms;
//! [`build_checkers`] performs the recording on the kernel (and, via
//! [`mine_invariants`], the mining) once per campaign, and
//! [`golden_walk`] does the same from one compiled walk of a campaign's
//! own plan, the batched engine's golden run.
//!
//! # Examples
//!
//! ```
//! use clockless_core::model::fig1_model;
//! use clockless_verify::monitor::{build_checkers, CheckerMode};
//!
//! let mode: CheckerMode = "all".parse()?;
//! let program = build_checkers(&fig1_model(3, 4), mode)?.expect("armed");
//! assert!(program.monitor.is_some());
//! assert!(!program.invariants.is_empty());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt;
use std::str::FromStr;

use clockless_core::check::{
    check_signals, record_table, CheckProgram, CheckSignal, CheckedError, MonitorTable,
};
use clockless_core::model::RtModel;
use clockless_core::plan::ExecPlan;
use clockless_core::run::RunSummary;
use clockless_core::{ExecOptions, OptLevel};

use crate::invariants::mine_invariants;

/// Which value-checker families a campaign (or checked run) arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CheckerMode {
    /// No value checking — the resolution function is the only detector
    /// (the paper's baseline).
    #[default]
    Off,
    /// Golden-run value monitors only.
    Golden,
    /// Mined functional invariants only.
    Invariants,
    /// Both monitors and invariants.
    All,
}

impl CheckerMode {
    /// Stable lowercase spelling (`off|golden|invariants|all`).
    pub fn as_str(self) -> &'static str {
        match self {
            CheckerMode::Off => "off",
            CheckerMode::Golden => "golden",
            CheckerMode::Invariants => "invariants",
            CheckerMode::All => "all",
        }
    }

    /// `true` when golden monitors are armed.
    pub fn monitors(self) -> bool {
        matches!(self, CheckerMode::Golden | CheckerMode::All)
    }

    /// `true` when mined invariants are armed.
    pub fn invariants(self) -> bool {
        matches!(self, CheckerMode::Invariants | CheckerMode::All)
    }
}

impl fmt::Display for CheckerMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error parsing a [`CheckerMode`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCheckerModeError(pub String);

impl fmt::Display for ParseCheckerModeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown checker mode `{}` (expected off|golden|invariants|all)",
            self.0
        )
    }
}

impl std::error::Error for ParseCheckerModeError {}

impl FromStr for CheckerMode {
    type Err = ParseCheckerModeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "off" => Ok(CheckerMode::Off),
            "golden" => Ok(CheckerMode::Golden),
            "invariants" => Ok(CheckerMode::Invariants),
            "all" => Ok(CheckerMode::All),
            other => Err(ParseCheckerModeError(other.to_string())),
        }
    }
}

/// Builds the [`CheckProgram`] for `model` under `mode`, or `None` for
/// [`CheckerMode::Off`].
///
/// One clean interpreter run records the trajectory of every register
/// output, memory word and bus; the table *is* the golden monitor, and
/// the invariant miner learns from its registers. Both backends produce
/// byte-identical per-delta values, so the recording is engine-agnostic.
///
/// # Errors
///
/// The clean run's own failure (a model that cannot run cleanly has no
/// golden reference to check against).
pub fn build_checkers(
    model: &RtModel,
    mode: CheckerMode,
) -> Result<Option<CheckProgram>, CheckedError> {
    if mode == CheckerMode::Off {
        return Ok(None);
    }
    let signals = check_signals(model);
    let table = record_table(model, &signals)?;
    Ok(Some(arm(mode, signals, table)))
}

/// The golden run of a campaign that runs its mutants on `plan`, the
/// lowering of `model`: one untraced compiled walk at `opt` yields the
/// run's summary and, unless `mode` is [`CheckerMode::Off`], the
/// recorded table of `model`'s [`check_signals`], armed by the code
/// [`build_checkers`] uses. The summary's registers are the kernel's
/// and the program is [`build_checkers`]' own, value for value; no
/// kernel runs and nothing is lowered again.
///
/// # Errors
///
/// The walk's own failure, with the kernel's error text.
pub fn golden_walk(
    plan: &ExecPlan,
    model: &RtModel,
    mode: CheckerMode,
    opt: OptLevel,
) -> Result<(RunSummary, Option<CheckProgram>), CheckedError> {
    let options = ExecOptions::default().at_opt(opt);
    if mode == CheckerMode::Off {
        return Ok((plan.execute(&options)?.summary, None));
    }
    let signals = check_signals(model);
    let (outcome, table) = plan.execute_recorded(&signals, &options)?;
    Ok((outcome.summary, Some(arm(mode, signals, table))))
}

/// The program `mode` arms over a clean run's recorded `table` of
/// `signals`: the table as the golden monitor, the invariants mined
/// from it.
fn arm(mode: CheckerMode, signals: Vec<CheckSignal>, table: MonitorTable) -> CheckProgram {
    let invariants = if mode.invariants() {
        mine_invariants(&signals, &table)
    } else {
        Vec::new()
    };
    CheckProgram {
        monitor: mode.monitors().then_some(table),
        signals,
        invariants,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockless_core::model::fig1_model;

    #[test]
    fn mode_parse_and_display_roundtrip() {
        for mode in [
            CheckerMode::Off,
            CheckerMode::Golden,
            CheckerMode::Invariants,
            CheckerMode::All,
        ] {
            assert_eq!(mode.to_string().parse::<CheckerMode>().unwrap(), mode);
        }
        assert_eq!("ALL".parse::<CheckerMode>().unwrap(), CheckerMode::All);
        assert_eq!(CheckerMode::default(), CheckerMode::Off);
        let err = "both".parse::<CheckerMode>().unwrap_err();
        assert!(err.to_string().contains("both"));
    }

    #[test]
    fn build_checkers_arms_the_selected_families() {
        let model = fig1_model(3, 4);
        assert!(build_checkers(&model, CheckerMode::Off).unwrap().is_none());

        let golden = build_checkers(&model, CheckerMode::Golden)
            .unwrap()
            .unwrap();
        assert!(golden.monitor.is_some());
        assert!(golden.invariants.is_empty());

        let inv = build_checkers(&model, CheckerMode::Invariants)
            .unwrap()
            .unwrap();
        assert!(inv.monitor.is_none());
        assert!(!inv.invariants.is_empty());

        let all = build_checkers(&model, CheckerMode::All).unwrap().unwrap();
        assert!(all.monitor.is_some());
        assert_eq!(all.invariants, inv.invariants);
        // R1, R2, B1, B2 — registers first.
        assert_eq!(all.signals.len(), 4);
    }
}
