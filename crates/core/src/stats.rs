//! Model statistics: resource utilization of a schedule.
//!
//! "At this abstract level of timing resource conflicts can be detected"
//! (§2.1) — and, short of conflicts, resource *pressure* can be measured:
//! how many transfers each step carries, how hot each bus and module
//! runs. These are the numbers a designer iterating on a schedule (or an
//! allocator judging its own output) wants to see.

use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;

use clockless_kernel::SimStats;

use crate::json::{escape, sim_stats};
use crate::model::RtModel;
use crate::phase::Step;
use crate::tuples::Endpoint;

/// Utilization statistics for a model's schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelStats {
    /// Total control steps (`CS_MAX`).
    pub steps: Step,
    /// Transfer tuples.
    pub tuples: usize,
    /// Transfer-process instances after expansion.
    pub processes: usize,
    /// Steps with no activity at all.
    pub idle_steps: usize,
    /// The busiest step and its transfer-process count.
    pub peak: (Step, usize),
    /// Per-bus number of carrying steps (a bus "carries" in a step when a
    /// transfer asserts onto it).
    pub bus_busy_steps: Vec<(String, usize)>,
    /// Per-module number of initiations.
    pub module_initiations: Vec<(String, usize)>,
}

impl ModelStats {
    /// Fraction of steps with at least one active transfer process.
    pub fn occupancy(&self) -> f64 {
        if self.steps == 0 {
            return 0.0;
        }
        1.0 - self.idle_steps as f64 / self.steps as f64
    }
}

impl fmt::Display for ModelStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} steps, {} tuples, {} transfer processes, occupancy {:.0}% \
             (peak {} processes in step {})",
            self.steps,
            self.tuples,
            self.processes,
            self.occupancy() * 100.0,
            self.peak.1,
            self.peak.0
        )?;
        writeln!(f, "bus utilization (carrying steps):")?;
        for (name, n) in &self.bus_busy_steps {
            writeln!(f, "  {name:<12} {n}")?;
        }
        writeln!(f, "module initiations:")?;
        for (name, n) in &self.module_initiations {
            writeln!(f, "  {name:<12} {n}")?;
        }
        Ok(())
    }
}

/// Computes utilization statistics for a model.
pub fn model_stats(model: &RtModel) -> ModelStats {
    let mut per_step: HashMap<Step, usize> = HashMap::new();
    let mut bus_steps: HashMap<String, Vec<Step>> = HashMap::new();
    let mut initiations: HashMap<String, usize> = HashMap::new();
    let mut processes = 0usize;

    for tuple in model.tuples() {
        *initiations.entry(tuple.module.clone()).or_insert(0) += 1;
        for spec in tuple.expand() {
            processes += 1;
            *per_step.entry(spec.step).or_insert(0) += 1;
            if let Endpoint::Bus(b) = &spec.dst {
                bus_steps.entry(b.clone()).or_default().push(spec.step);
            }
        }
    }

    let idle_steps = (1..=model.cs_max())
        .filter(|s| !per_step.contains_key(s))
        .count();
    let peak = per_step
        .iter()
        .max_by_key(|(step, n)| (**n, std::cmp::Reverse(**step)))
        .map(|(s, n)| (*s, *n))
        .unwrap_or((0, 0));

    let mut bus_busy_steps: Vec<(String, usize)> = model
        .buses()
        .iter()
        .map(|b| {
            let mut steps = bus_steps.remove(&b.name).unwrap_or_default();
            steps.sort_unstable();
            steps.dedup();
            (b.name.clone(), steps.len())
        })
        .collect();
    bus_busy_steps.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    let mut module_initiations: Vec<(String, usize)> = model
        .modules()
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                initiations.get(&m.name).copied().unwrap_or(0),
            )
        })
        .collect();
    module_initiations.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    ModelStats {
        steps: model.cs_max(),
        tuples: model.tuples().len(),
        processes,
        idle_steps,
        peak,
        bus_busy_steps,
        module_initiations,
    }
}

/// A machine-readable report combining schedule utilization with the
/// kernel counters of a completed run — the payload behind
/// `clockless stats --json`.
///
/// Rendered by hand (the workspace carries no serialization crates so
/// tier-1 builds offline); the format is stable, flat JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStatsReport {
    /// The model's name.
    pub model: String,
    /// Static schedule utilization.
    pub schedule: ModelStats,
    /// Kernel counters after running to quiescence.
    pub kernel: SimStats,
    /// Per-process `(name, resumptions)` tallies, elaboration order.
    pub activations: Vec<(String, u64)>,
}

impl RunStatsReport {
    /// Renders the report as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"model\": \"{}\",", escape(&self.model));
        let s = &self.schedule;
        let _ = writeln!(
            out,
            "  \"schedule\": {{\"steps\": {}, \"tuples\": {}, \"transfer_processes\": {}, \
             \"idle_steps\": {}, \"occupancy\": {:.4}, \"peak_step\": {}, \"peak_processes\": {}}},",
            s.steps,
            s.tuples,
            s.processes,
            s.idle_steps,
            s.occupancy(),
            s.peak.0,
            s.peak.1
        );
        let _ = writeln!(out, "  \"kernel\": {},", sim_stats(&self.kernel));
        out.push_str("  \"process_activations\": [\n");
        for (i, (name, n)) in self.activations.iter().enumerate() {
            let comma = if i + 1 == self.activations.len() {
                ""
            } else {
                ","
            };
            let _ = writeln!(
                out,
                "    {{\"process\": \"{}\", \"activations\": {}}}{}",
                escape(name),
                n,
                comma
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::fig1_model;

    #[test]
    fn fig1_statistics() {
        let s = model_stats(&fig1_model(1, 2));
        assert_eq!(s.steps, 7);
        assert_eq!(s.tuples, 1);
        assert_eq!(s.processes, 6);
        // Activity only in steps 5 and 6.
        assert_eq!(s.idle_steps, 5);
        assert_eq!(s.peak, (5, 4));
        assert!((s.occupancy() - 2.0 / 7.0).abs() < 1e-9);
        // B1 carries in steps 5 and 6; B2 only in step 5.
        assert_eq!(
            s.bus_busy_steps,
            vec![("B1".to_string(), 2), ("B2".to_string(), 1)]
        );
        assert_eq!(s.module_initiations, vec![("ADD".to_string(), 1)]);
    }

    #[test]
    fn empty_model_statistics() {
        let s = model_stats(&RtModel::new("empty", 4));
        assert_eq!(s.processes, 0);
        assert_eq!(s.idle_steps, 4);
        assert_eq!(s.occupancy(), 0.0);
        assert_eq!(s.peak, (0, 0));
    }

    #[test]
    fn display_renders_tables() {
        let text = model_stats(&fig1_model(1, 2)).to_string();
        assert!(text.contains("occupancy 29%"));
        assert!(text.contains("B1"));
        assert!(text.contains("ADD"));
    }

    #[test]
    fn zeroed_kernel_counters_serialize_explicitly() {
        // Every kernel counter must appear with an explicit `0` — a
        // consumer diffing reports across backends or kernel versions
        // relies on the key set being independent of the values.
        let report = RunStatsReport {
            model: "idle".to_string(),
            schedule: model_stats(&RtModel::new("idle", 1)),
            kernel: SimStats::default(),
            activations: Vec::new(),
        };
        let json = report.to_json();
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
                json.contains(&format!("\"{key}\": 0")),
                "missing zeroed counter {key} in {json}"
            );
        }
    }

    #[test]
    fn run_report_renders_json() {
        let mut sim = crate::run::RtSimulation::new(&fig1_model(3, 4)).unwrap();
        sim.run_to_completion().unwrap();
        let json = sim.stats_report().to_json();
        assert!(json.contains("\"model\": \"fig1_example\""));
        assert!(json.contains("\"delta_cycles\": 43"));
        assert!(json.contains("\"wake_filter_hits\""));
        assert!(json.contains("\"peak_runnable\""));
        assert!(json.contains("\"process\": \"CONTROL\""));
        // Every activation is attributed to exactly one process.
        let total: u64 = sim.activation_counts().iter().map(|(_, n)| n).sum();
        assert_eq!(total, sim.stats().process_activations);
    }
}
