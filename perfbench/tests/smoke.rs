//! Every workload end to end on the production path with the shortest
//! budget, which still runs one whole epoch per slice: outputs agree with
//! their references, nothing fails, every end-to-end metric is measured,
//! and the exact counts of the traced run repeat identically across two
//! same-seed runs.

use std::path::PathBuf;

use clockless_perfbench::inputs::DEFAULT_SEED;
use clockless_perfbench::{run, Outcome, Plan, LAYER_METRICS, SETUP_PASSES};

/// Counts the program makes, which must repeat exactly for one seed.
const EXACT: [&str; 4] = [
    "kernel.delta_cycles",
    "opt.micro_ops",
    "faults.mutants",
    "serve.cache.misses",
];

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out/smoke")
}

fn run_at(workload: &str, trace: bool) -> Outcome {
    let plan = Plan {
        workload,
        seed: DEFAULT_SEED,
        seconds: 0.001,
        trace,
    };
    let outcome = run(&plan, &out_dir()).expect("the run starts");
    assert_eq!(outcome.wrong_outputs, 0, "{workload}: wrong outputs");
    assert_eq!(outcome.failed, 0, "{workload}: failed calls");
    outcome
}

/// Runs `workload` timed and twice traced; it has `inputs` distinct
/// inputs, and `own_count` is the exact count it must produce.
fn smoke(workload: &str, inputs: usize, own_count: &str) -> Outcome {
    let timed = run_at(workload, false);
    assert_eq!(timed.samples, SETUP_PASSES * inputs, "one epoch per slice");
    for name in [
        "throughput",
        "cpu_p50_us",
        "cpu_p99_us",
        "setup_s",
        "peak_rss_mb",
    ] {
        assert!(
            timed.metric(name).is_some_and(|v| v > 0.0),
            "{workload}: {name}"
        );
    }
    assert!(
        timed.slowdown.is_some_and(|s| s > 0.0),
        "{workload}: the host speed is sampled"
    );
    let a = run_at(workload, true);
    let b = run_at(workload, true);
    assert_eq!(a.samples, inputs, "one traced epoch");
    assert_eq!(a.metrics.len(), LAYER_METRICS.len());
    for name in EXACT {
        assert_eq!(a.metric(name), b.metric(name), "{workload}: {name} repeats");
    }
    assert!(
        a.metric(own_count).is_some_and(|v| v > 0.0),
        "{workload}: {own_count}"
    );
    assert!(
        out_dir().join(format!("{workload}.spans.jsonl")).exists(),
        "{workload}: spans written"
    );
    a
}

#[test]
fn oneshot() {
    let traced = smoke("oneshot", 48, "opt.micro_ops");
    let attributed = traced.metric("trace.attributed_pct").unwrap();
    assert!(
        attributed >= 90.0,
        "layer spans cover {attributed}% of a call"
    );
}

#[test]
fn serve_warm() {
    let traced = smoke("serve_warm", 48, "serve.cache.misses");
    assert_eq!(traced.metric("serve.cache.hit_ratio"), Some(1.0));
}

#[test]
fn faults() {
    smoke("faults", 80, "faults.mutants");
}

#[test]
fn fleet_stimulus() {
    smoke("fleet_stimulus", 32, "kernel.delta_cycles");
}
