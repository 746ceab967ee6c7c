//! Fleet run results: per-job outcomes (completed rows or quarantined
//! failures) plus merged totals.
//!
//! The JSON rendering is hand-rolled like every other machine-readable
//! surface in the workspace (no serialization crates; tier-1 resolves
//! offline). Two renderings exist: the default one is fully deterministic
//! — byte-identical for the same batch regardless of worker count or
//! machine — and the `timing` variant adds wall-clock fields for humans
//! and benches.
//!
//! Fault tolerance shows up here as the **quarantine**: a failed job
//! (build error, run error, panic, exhausted budget) does not abort the
//! batch; it becomes a [`JobFailure`] row carrying a [`FailureKind`], the
//! retry count, and the error text, while every other job's results stay
//! intact.

use std::fmt;
use std::fmt::Write as _;

use clockless_core::json::{escape, sim_stats};
use clockless_core::{ConflictReport, Step, Value};
use clockless_kernel::SimStats;

/// The result of one batch job that ran to quiescence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobResult {
    /// The job's name from the spec.
    pub name: String,
    /// The resolved model's name.
    pub model: String,
    /// The model's `CS_MAX`.
    pub cs_max: Step,
    /// Transfer-tuple count.
    pub tuples: usize,
    /// Kernel counters of the completed run. `stats.retries` records how
    /// many times the fleet engine re-ran the job before it succeeded.
    pub stats: SimStats,
    /// Final register values, in declaration order.
    pub registers: Vec<(String, Value)>,
    /// Conflict diagnoses (every job runs traced, so localization to
    /// step + phase is always available).
    pub conflicts: ConflictReport,
    /// Wall-clock nanoseconds this job took on its worker
    /// (machine-local; excluded from the deterministic JSON rendering).
    pub wall_ns: u64,
    /// Value-checker verdict, when the batch ran with a
    /// [`FleetConfig::check`](crate::FleetConfig::check) program armed.
    /// Consumed structurally (fault campaigns classify it); deliberately
    /// **not** part of the fleet JSON, which is byte-identical with and
    /// without checking.
    pub check: Option<clockless_core::CheckReport>,
}

impl JobResult {
    /// Final value of a register by name.
    pub fn register(&self, name: &str) -> Option<Value> {
        self.registers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// Why a quarantined job failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FailureKind {
    /// The job's model could not be materialized (parse/build error).
    Build,
    /// The simulation itself failed (elaboration or kernel error).
    Run,
    /// The job panicked; the panic was caught at the worker fence.
    Panicked,
    /// The configured delta-cycle budget ran out before quiescence.
    DeltaBudget,
    /// The configured wall-clock budget ran out before quiescence.
    WallBudget,
}

impl FailureKind {
    /// Stable machine-readable status string, used in the JSON rendering.
    pub fn as_str(self) -> &'static str {
        match self {
            FailureKind::Build => "build-failed",
            FailureKind::Run => "run-failed",
            FailureKind::Panicked => "panicked",
            FailureKind::DeltaBudget => "delta-budget-exceeded",
            FailureKind::WallBudget => "wall-budget-exceeded",
        }
    }
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A quarantined job: it failed (even after retries), but the batch
/// carried on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// The job's name from the spec.
    pub name: String,
    /// The failure classification.
    pub kind: FailureKind,
    /// The error text of the *last* attempt.
    pub error: String,
    /// How many re-executions were attempted beyond the first run.
    pub retries: u64,
    /// The kernel work the failed job still performed (deterministic:
    /// the exhausted budget for [`FailureKind::DeltaBudget`], zeros
    /// otherwise), with `retries` mirrored in — merged into
    /// [`FleetReport::totals`] so campaigns full of overflowing mutants
    /// don't report near-zero `delta_cycles`.
    pub stats: SimStats,
}

impl fmt::Display for JobFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}", self.name, self.kind)?;
        if self.retries > 0 {
            write!(f, " after {} retries", self.retries)?;
        }
        write!(f, "): {}", self.error)
    }
}

/// One slot of a fleet report: the job either completed or was
/// quarantined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome {
    /// The job ran to quiescence (possibly with resource conflicts —
    /// those are diagnoses, not failures).
    Ok(Box<JobResult>),
    /// The job failed and was quarantined.
    Failed(JobFailure),
}

impl JobOutcome {
    /// The job's name, whichever way it went.
    pub fn name(&self) -> &str {
        match self {
            JobOutcome::Ok(r) => &r.name,
            JobOutcome::Failed(q) => &q.name,
        }
    }

    /// `true` when the job completed.
    pub fn is_ok(&self) -> bool {
        matches!(self, JobOutcome::Ok(_))
    }

    /// The completed result, if any.
    pub fn result(&self) -> Option<&JobResult> {
        match self {
            JobOutcome::Ok(r) => Some(r),
            JobOutcome::Failed(_) => None,
        }
    }

    /// The quarantined failure, if any.
    pub fn failure(&self) -> Option<&JobFailure> {
        match self {
            JobOutcome::Ok(_) => None,
            JobOutcome::Failed(q) => Some(q),
        }
    }
}

/// Aggregated results of a batch run.
///
/// # Examples
///
/// ```
/// use clockless_core::model::fig1_model;
/// use clockless_fleet::{run_batch, BatchSpec, JobSource, JobSpec};
///
/// let spec = BatchSpec {
///     jobs: vec![JobSpec::new("only", JobSource::Model(Box::new(fig1_model(1, 2))))],
/// };
/// let report = run_batch(&spec, 4)?;
/// assert_eq!(report.failed_jobs(), 0);
/// assert_eq!(report.conflicted_jobs(), 0);
/// assert!(report.job("only").is_some());
/// // The deterministic rendering carries no wall-clock noise…
/// assert!(!report.to_json(false).contains("wall_ns"));
/// // …the timing rendering does.
/// assert!(report.to_json(true).contains("wall_ns"));
/// # Ok::<(), clockless_fleet::FleetError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetReport {
    /// Per-job outcomes, in spec order (independent of worker count).
    pub jobs: Vec<JobOutcome>,
    /// Every job's kernel counters merged with
    /// [`SimStats::merge`](clockless_kernel::SimStats::merge): counters
    /// sum, peaks take the maximum. Quarantined jobs contribute their
    /// partial [`JobFailure::stats`] (budget deltas burned, retries).
    pub totals: SimStats,
    /// Worker threads the batch ran on.
    pub workers: usize,
    /// Wall-clock nanoseconds for the whole batch (machine-local).
    pub elapsed_ns: u64,
}

impl FleetReport {
    /// Completed job results, in spec order.
    pub fn results(&self) -> impl Iterator<Item = &JobResult> {
        self.jobs.iter().filter_map(|j| j.result())
    }

    /// Quarantined failures, in spec order.
    pub fn quarantined(&self) -> impl Iterator<Item = &JobFailure> {
        self.jobs.iter().filter_map(|j| j.failure())
    }

    /// How many jobs were quarantined.
    pub fn failed_jobs(&self) -> usize {
        self.quarantined().count()
    }

    /// The completed result of a job, by spec name.
    pub fn job(&self, name: &str) -> Option<&JobResult> {
        self.results().find(|r| r.name == name)
    }

    /// How many completed jobs reported at least one resource conflict.
    pub fn conflicted_jobs(&self) -> usize {
        self.results().filter(|j| !j.conflicts.is_clean()).count()
    }

    /// Renders the report as JSON.
    ///
    /// With `timing == false` the output is deterministic: identical
    /// batches produce byte-identical documents regardless of worker
    /// count (the CLI test asserts `--jobs 1` vs `--jobs 4`) — including
    /// the `quarantine` section, which lists failures in spec order with
    /// their stable [`FailureKind::as_str`] status. With `timing == true`,
    /// machine-local wall-clock fields (`wall_ns`, `elapsed_ns`,
    /// `workers`) are included.
    pub fn to_json(&self, timing: bool) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = write!(
            out,
            "  \"fleet\": {{\"jobs\": {}, \"failed_jobs\": {}, \"conflicted_jobs\": {}",
            self.jobs.len(),
            self.failed_jobs(),
            self.conflicted_jobs()
        );
        if timing {
            let _ = write!(
                out,
                ", \"workers\": {}, \"elapsed_ns\": {}",
                self.workers, self.elapsed_ns
            );
        }
        out.push_str("},\n");
        let _ = writeln!(out, "  \"totals\": {},", sim_stats(&self.totals));
        out.push_str("  \"jobs\": [\n");
        let ok_count = self.jobs.len() - self.failed_jobs();
        for (i, j) in self.results().enumerate() {
            let comma = if i + 1 == ok_count { "" } else { "," };
            let _ = write!(
                out,
                "    {{\"name\": \"{}\", \"model\": \"{}\", \"cs_max\": {}, \"tuples\": {},\n     \
                 \"kernel\": {},\n     \"registers\": [",
                escape(&j.name),
                escape(&j.model),
                j.cs_max,
                j.tuples,
                sim_stats(&j.stats)
            );
            for (k, (name, value)) in j.registers.iter().enumerate() {
                let comma = if k + 1 == j.registers.len() { "" } else { ", " };
                let _ = write!(
                    out,
                    "{{\"name\": \"{}\", \"value\": \"{}\"}}{}",
                    escape(name),
                    value,
                    comma
                );
            }
            out.push_str("],\n     \"conflicts\": [");
            for (k, c) in j.conflicts.conflicts.iter().enumerate() {
                let comma = if k + 1 == j.conflicts.conflicts.len() {
                    ""
                } else {
                    ", "
                };
                let _ = write!(out, "\"{}\"{}", escape(&c.to_string()), comma);
            }
            out.push(']');
            if timing {
                let _ = write!(out, ",\n     \"wall_ns\": {}", j.wall_ns);
            }
            let _ = writeln!(out, "}}{comma}");
        }
        out.push_str("  ],\n  \"quarantine\": [\n");
        let failed = self.failed_jobs();
        for (i, q) in self.quarantined().enumerate() {
            let comma = if i + 1 == failed { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"status\": \"{}\", \"retries\": {}, \"error\": \"{}\"}}{}",
                escape(&q.name),
                q.kind.as_str(),
                q.retries,
                escape(&q.error),
                comma
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

impl fmt::Display for FleetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fleet: {} jobs ({} quarantined) on {} workers in {:.3} ms — totals: {}",
            self.jobs.len(),
            self.failed_jobs(),
            self.workers,
            self.elapsed_ns as f64 / 1e6,
            self.totals
        )?;
        for j in self.results() {
            writeln!(
                f,
                "  {:<20} {:<20} {:>6} steps {:>5} tuples {:>9} deltas  {}",
                j.name,
                j.model,
                j.cs_max,
                j.tuples,
                j.stats.delta_cycles,
                if j.conflicts.is_clean() {
                    "clean".to_string()
                } else {
                    format!("{} conflict site(s)", j.conflicts.conflicts.len())
                }
            )?;
        }
        for q in self.quarantined() {
            writeln!(f, "  quarantined: {q}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_json_is_flat_and_complete() {
        let s = SimStats {
            delta_cycles: 1,
            process_activations: 2,
            events: 3,
            driver_updates: 4,
            time_advances: 5,
            wake_filter_hits: 6,
            wake_filter_misses: 7,
            peak_runnable: 8,
            peak_pending_updates: 9,
            injected_faults: 10,
            retries: 11,
        };
        let j = sim_stats(&s);
        for needle in [
            "\"delta_cycles\": 1",
            "\"process_activations\": 2",
            "\"events\": 3",
            "\"driver_updates\": 4",
            "\"time_advances\": 5",
            "\"wake_filter_hits\": 6",
            "\"wake_filter_misses\": 7",
            "\"peak_runnable\": 8",
            "\"peak_pending_updates\": 9",
            "\"injected_faults\": 10",
            "\"retries\": 11",
        ] {
            assert!(j.contains(needle), "{j} missing {needle}");
        }
    }

    #[test]
    fn zeroed_stats_serialize_every_counter_explicitly() {
        // A quiet job must still emit all eleven counters as literal
        // zeros — downstream diffing depends on a value-independent
        // key set.
        let j = sim_stats(&SimStats::default());
        for key in [
            "delta_cycles",
            "process_activations",
            "events",
            "driver_updates",
            "time_advances",
            "wake_filter_hits",
            "wake_filter_misses",
            "peak_runnable",
            "peak_pending_updates",
            "injected_faults",
            "retries",
        ] {
            assert!(
                j.contains(&format!("\"{key}\": 0")),
                "{j} missing zeroed {key}"
            );
        }
    }

    #[test]
    fn failure_kind_strings_are_stable() {
        let kinds = [
            (FailureKind::Build, "build-failed"),
            (FailureKind::Run, "run-failed"),
            (FailureKind::Panicked, "panicked"),
            (FailureKind::DeltaBudget, "delta-budget-exceeded"),
            (FailureKind::WallBudget, "wall-budget-exceeded"),
        ];
        for (kind, text) in kinds {
            assert_eq!(kind.as_str(), text);
            assert_eq!(kind.to_string(), text);
        }
    }

    #[test]
    fn job_failure_display_mentions_retries_only_when_retried() {
        let mut q = JobFailure {
            name: "boom".into(),
            kind: FailureKind::Panicked,
            error: "deliberate".into(),
            retries: 0,
            stats: SimStats::default(),
        };
        assert_eq!(q.to_string(), "boom (panicked): deliberate");
        q.retries = 2;
        assert_eq!(q.to_string(), "boom (panicked after 2 retries): deliberate");
    }
}
