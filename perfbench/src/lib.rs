//! The clockless end-to-end benchmark.
//!
//! One run executes one workload ([`workloads`]) on the seeded inputs
//! ([`inputs`]) in one of two modes. Both first compute every input's
//! independent reference and then reset the process's peak-memory mark,
//! so the oracle's time and memory stay out of every measured number.
//!
//! * **Timed** (tracing off): [`SETUP_PASSES`] equal slices of the run,
//!   each a set-up pass — fresh state, one call per distinct input —
//!   followed by whole epochs (every distinct input once, in a seeded
//!   order) until the slice's share of the run is spent. Each call is
//!   costed alone in the process's CPU time ([`cpu_ns`]); reference
//!   checks run after its clock stops. Between calls a [`SpeedProbe`]
//!   samples the host's speed, and every cost is scaled to the nominal
//!   speed by the host's slowdown around the moment it was spent
//!   ([`host`]). Throughput, the median and the 99th percentile come
//!   from every call's own scaled cost, and `setup_s` is the median pass.
//! * **Traced**: one set-up pass, then whole epochs in which every draw
//!   runs twice, split into spans and untraced, in alternating order;
//!   the pairs give the tracing overhead.

pub mod host;
pub mod inputs;
pub mod spans;
pub mod workloads;

use std::path::Path;
use std::time::{Duration, Instant};

use host::{cpu_ns, SpeedProbe};
use inputs::{population, Rng};
use spans::Spans;
use workloads::{Workload, CALL};

/// Set-up passes of a timed run, spread evenly over it; `setup_s` is the
/// median pass.
pub const SETUP_PASSES: usize = 5;

/// One run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Plan<'a> {
    /// One of [`workloads::NAMES`].
    pub workload: &'a str,
    /// Seed of the inputs and of the draw order.
    pub seed: u64,
    /// Length of the measured phase: set-up passes and timed calls, or
    /// the traced calls. It always holds at least one epoch per slice.
    pub seconds: f64,
    /// Run the traced phase (per-layer metrics) instead of the timed one.
    pub trace: bool,
}

/// A named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Calls made, in every phase.
    pub attempted: u64,
    /// Calls that returned an error.
    pub failed: u64,
    /// Outputs that disagreed with the independent reference.
    pub wrong_outputs: u64,
    /// Calls in the timed phase (the cost samples) or traced calls.
    pub samples: usize,
    /// The host's median slowdown over a timed run
    /// ([`SpeedProbe::slowdown`]); each cost was divided by the slowdown
    /// around the moment it was spent.
    pub slowdown: Option<f64>,
    /// End-to-end metrics (timed run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// No wrong outputs and no failed calls.
    pub fn correct(&self) -> bool {
        self.wrong_outputs == 0 && self.failed == 0
    }

    /// The metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// `a / b`, or 0 when nothing was measured.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The per-layer metrics of a traced run. Times and counts are per
/// workload call; a layer the workload does not reach reads 0.
pub const LAYER_METRICS: [(&str, &str); 34] = [
    ("text.parse.calls", "count"),
    ("text.parse.ms", "ms"),
    ("text.parse.bytes", "B"),
    ("plan.lower.ms", "ms"),
    ("opt.compile.ms", "ms"),
    ("opt.micro_ops", "count"),
    ("opt.execute.ms", "ms"),
    ("kernel.execute.calls", "count"),
    ("kernel.execute.ms", "ms"),
    ("kernel.delta_cycles", "count"),
    ("json.render.ms", "ms"),
    ("json.render.bytes", "B"),
    ("serve.request.ms", "ms"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.misses", "count"),
    ("serve.replica.ms", "ms"),
    ("serve.overhead.ms", "ms"),
    ("faults.campaign.ms", "ms"),
    ("faults.golden.ms", "ms"),
    ("faults.checkers.ms", "ms"),
    ("faults.generate.ms", "ms"),
    ("faults.lower.ms", "ms"),
    ("faults.lanes.self_ms", "ms"),
    ("faults.report.ms", "ms"),
    ("faults.mutants", "count"),
    ("faults.detected_ratio", "ratio"),
    ("fleet.spec.ms", "ms"),
    ("fleet.batch.ms", "ms"),
    ("fleet.resolve.ms", "ms"),
    ("fleet.jobs_serial.ms", "ms"),
    ("fleet.parallel_efficiency", "ratio"),
    ("fleet.report.ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.attributed_pct", "%"),
];

/// Calls made so far and how they went, against the digests of the
/// inputs' references.
struct Tally {
    references: Vec<u64>,
    attempted: u64,
    failed: u64,
    wrong: u64,
}

impl Tally {
    /// Records a call's result; returns the units it completed.
    fn record(&mut self, w: &dyn Workload, i: usize, result: Result<String, String>) -> u64 {
        self.attempted += 1;
        match result {
            Ok(output) => {
                if w.digest(&output) != Some(self.references[i]) {
                    self.wrong += 1;
                }
                w.units(i)
            }
            Err(e) => {
                eprintln!("call on input {i} failed: {e}");
                self.failed += 1;
                0
            }
        }
    }
}

/// Runs `plan`; `out_dir` receives scratch files and, when tracing, the
/// spans as `<workload>.spans.jsonl`.
pub fn run(plan: &Plan, out_dir: &Path) -> Result<Outcome, String> {
    let models = population(plan.seed);
    let scratch = out_dir.join(format!("{}-{}", plan.workload, std::process::id()));
    let mut w = workloads::build(plan.workload, &models, plan.seed, &scratch)?;
    let w = w.as_mut();
    let references = (0..w.inputs())
        .map(|i| match w.reference(i) {
            Ok(reference) => Ok(workloads::digest(&reference)),
            Err(e) => Err(format!("reference of input {i}: {e}")),
        })
        .collect::<Result<_, _>>()?;
    host::reset_peak_rss()?;
    let mut tally = Tally {
        references,
        attempted: 0,
        failed: 0,
        wrong: 0,
    };
    let mut draws = Rng::new(plan.seed ^ 0xD7A3_5EED_0000_0001);
    let seconds = Duration::from_secs_f64(plan.seconds);
    let mut outcome = if plan.trace {
        traced(w, &mut draws, seconds, &mut tally, out_dir, plan.workload)?
    } else {
        timed(w, &mut draws, seconds, &mut tally)?
    };
    outcome.attempted = tally.attempted;
    outcome.failed = tally.failed;
    outcome.wrong_outputs = tally.wrong;
    Ok(outcome)
}

/// CPU time spent on one piece of work, and when.
struct Cost {
    /// Midpoint of the work in wall time, on the probe's clock.
    at: u64,
    /// CPU time of the whole process across the work, in ns.
    ns: u64,
}

impl Cost {
    /// The cost at the host's nominal speed, in ns.
    fn nominal(&self, probe: &SpeedProbe) -> f64 {
        self.ns as f64 / probe.slowdown_at(self.at)
    }
}

/// Runs `work` after sampling the host's speed if a sample is due;
/// returns its result and what it cost.
fn measure<T>(probe: &mut SpeedProbe, work: impl FnOnce() -> T) -> (T, Cost) {
    probe.tick();
    let (wall, cpu) = (probe.now(), cpu_ns());
    let out = work();
    let ns = cpu_ns() - cpu;
    let at = (wall + probe.now()) / 2;
    (out, Cost { at, ns })
}

/// One set-up pass: fresh state, then one call per distinct input.
/// Returns the cost of each of its steps.
fn setup_pass(
    w: &mut dyn Workload,
    tally: &mut Tally,
    probe: &mut SpeedProbe,
) -> Result<Vec<Cost>, String> {
    let (reset, cost) = measure(probe, || w.reset());
    reset?;
    let mut costs = vec![cost];
    for i in 0..w.inputs() {
        let (result, cost) = measure(probe, || w.call(i));
        costs.push(cost);
        tally.record(w, i, result);
    }
    Ok(costs)
}

/// Calls `step` on each draw, epoch by epoch, until another epoch as long
/// as the last one would end after `until`; at least one epoch.
fn epochs(
    w: &mut dyn Workload,
    draws: &mut Rng,
    until: Instant,
    mut step: impl FnMut(&mut dyn Workload, usize),
) {
    loop {
        let epoch = Instant::now();
        for i in draws.permutation(w.inputs()) {
            step(w, i);
        }
        if Instant::now() + epoch.elapsed() > until {
            return;
        }
    }
}

fn timed(
    w: &mut dyn Workload,
    draws: &mut Rng,
    seconds: Duration,
    tally: &mut Tally,
) -> Result<Outcome, String> {
    let start = Instant::now();
    let mut probe = SpeedProbe::default();
    let mut passes = Vec::with_capacity(SETUP_PASSES);
    let mut calls: Vec<Cost> = Vec::new();
    let mut units = 0u64;
    for slice in 1..=SETUP_PASSES as u32 {
        passes.push(setup_pass(w, tally, &mut probe)?);
        let until = start + seconds * slice / SETUP_PASSES as u32;
        epochs(w, draws, until, |w, i| {
            let (result, cost) = measure(&mut probe, || w.call(i));
            calls.push(cost);
            units += tally.record(w, i, result);
        });
    }
    // Every cost is quoted at the host's nominal speed.
    let mut costs: Vec<f64> = calls.iter().map(|c| c.nominal(&probe)).collect();
    let mut setup: Vec<f64> = passes
        .iter()
        .map(|pass| pass.iter().map(|c| c.nominal(&probe)).sum())
        .collect();
    let busy_s = costs.iter().sum::<f64>() / 1e9;
    costs.sort_unstable_by(f64::total_cmp);
    setup.sort_unstable_by(f64::total_cmp);
    let us = |q: f64| percentile(&costs, q) / 1e3;
    let metric = |name, value, unit| Metric { name, value, unit };
    Ok(Outcome {
        samples: costs.len(),
        slowdown: Some(probe.slowdown()),
        metrics: vec![
            metric("throughput", ratio(units as f64, busy_s), "1/cpu-s"),
            metric("cpu_p50_us", us(0.50), "us"),
            metric("cpu_p99_us", us(0.99), "us"),
            metric("setup_s", percentile(&setup, 0.5) / 1e9, "s"),
            metric("peak_rss_mb", host::peak_rss_kb()? as f64 / 1024.0, "MB"),
        ],
        ..Outcome::default()
    })
}

fn traced(
    w: &mut dyn Workload,
    draws: &mut Rng,
    seconds: Duration,
    tally: &mut Tally,
    out_dir: &Path,
    workload: &str,
) -> Result<Outcome, String> {
    let start = Instant::now();
    setup_pass(w, tally, &mut SpeedProbe::default())?;
    let mut spans = Spans::default();
    let mut calls = 0u64;
    // Per input, the call span of each traced call and the wall time of
    // each untraced one. The two run back to back on the same draw, in
    // alternating order, so host speed and warm caches favour neither.
    let mut traced_ns: Vec<Vec<u64>> = vec![Vec::new(); w.inputs()];
    let mut untraced_ns: Vec<Vec<u64>> = vec![Vec::new(); w.inputs()];
    epochs(w, draws, start + seconds, |w, i| {
        let even = calls.is_multiple_of(2);
        for traced in [even, !even] {
            if traced {
                spans.set_call(calls);
                let first = spans.recorded().len();
                let result = w.call_traced(i, &mut spans);
                let call = &spans.recorded()[first];
                debug_assert_eq!(call.name, CALL);
                traced_ns[i].push(call.ns());
                tally.record(w, i, result);
            } else {
                let t = Instant::now();
                let result = w.call(i);
                untraced_ns[i].push(t.elapsed().as_nanos() as u64);
                tally.record(w, i, result);
            }
        }
        calls += 1;
    });
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("{workload}.spans.jsonl"));
    spans
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;

    let totals = spans.totals();
    let per_call = calls as f64;
    let ms = |name: &str| totals.get(name).map_or(0, |t| t.ns) as f64 / 1e6 / per_call;
    let count = |name: &str| totals.get(name).map_or(0, |t| t.count) as f64 / per_call;
    let counter = |name: &str| spans.counter(name) as f64 / per_call;
    let call = totals.get(CALL).copied().unwrap_or_default();
    let medians = |per_input: &mut [Vec<u64>]| -> u64 {
        per_input
            .iter_mut()
            .map(|xs| {
                xs.sort_unstable();
                percentile(xs, 0.5)
            })
            .sum()
    };
    let overhead = ratio(
        medians(&mut traced_ns) as f64,
        medians(&mut untraced_ns) as f64,
    );
    let extras = w.extras();

    let value = |name: &str| -> f64 {
        if let Some(&(_, v)) = extras.iter().find(|(n, _)| *n == name) {
            return v;
        }
        match name {
            "text.parse.calls" | "kernel.execute.calls" => count(name.trim_end_matches(".calls")),
            "text.parse.bytes"
            | "json.render.bytes"
            | "opt.micro_ops"
            | "kernel.delta_cycles"
            | "faults.mutants" => counter(name),
            "serve.overhead.ms" => ms("serve.request") - ms("serve.replica"),
            "faults.lanes.self_ms" => {
                ms("faults.campaign")
                    - ms("faults.golden")
                    - ms("faults.checkers")
                    - ms("faults.lower")
            }
            "faults.detected_ratio" => ratio(
                spans.counter("faults.detected") as f64,
                spans.counter("faults.applicable") as f64,
            ),
            "fleet.parallel_efficiency" => ratio(
                ms("fleet.jobs_serial"),
                ms("fleet.batch") * workloads::FLEET_WORKERS as f64,
            ),
            "trace.overhead_pct" => (overhead - 1.0) * 100.0,
            "trace.attributed_pct" => {
                ratio((call.ns - call.self_ns) as f64, call.ns as f64) * 100.0
            }
            timed => ms(timed.trim_end_matches(".ms")),
        }
    };
    Ok(Outcome {
        samples: calls as usize,
        metrics: LAYER_METRICS
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: value(name),
                unit,
            })
            .collect(),
        ..Outcome::default()
    })
}

/// Nearest-rank percentile of sorted `xs` (0 when empty).
fn percentile<T: Copy + Default>(xs: &[T], q: f64) -> T {
    if xs.is_empty() {
        return T::default();
    }
    let rank = (q * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}
