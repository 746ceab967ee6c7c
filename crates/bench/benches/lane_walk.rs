//! Writes `BENCH_lanes.json` at the repository root: what one packed
//! 64-lane walk costs against 64 solo walks of the same plan.
//!
//! For each of the `fault_campaign` models (Fig. 1, a 12-tap FIR and a
//! 48-node random DAG) the bench times one `ExecPlan::execute_batch` of
//! 64 mixed plan deltas — init edits and dropped transfers, alternating —
//! at `-O2`, against 64 untraced `-O2` `OptPlan::execute` walks of the
//! precompiled golden stream. The batch side includes placing and
//! compiling the chunk's stream, as a campaign pays it; the solo side
//! does not. `speedup` is the solo total over the batch time, and
//! `ns_per_lane` the batch time over 64.
//!
//! Counters (`lanes`, `micro_ops_o2`) are machine-independent; `*_ns`
//! and the ratios are machine-local. The bench asserts a geometric-mean
//! speedup of at least 2× and records each model's ratio against the 5×
//! lane gate of ROADMAP item 3 without asserting it.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use clockless_core::model::fig1_model;
use clockless_core::{ExecOptions, ExecPlan, OptLevel, OptPlan, PlanDelta, RtModel, Value};
use clockless_hls::{fir, random_dag, synthesize, ResourceSet};

/// Lanes per chunk: one batch fills exactly one.
const LANES: usize = 64;
/// The speedup the bench asserts, as a geometric mean over the models.
const GATE: f64 = 2.0;
/// ROADMAP item 3's lane gate, recorded per model but not asserted.
const ROADMAP_GATE: f64 = 5.0;
/// Alternating timing rounds per model.
const ROUNDS: usize = 9;

/// One model's measurement.
struct Row {
    model: &'static str,
    micro_ops_o2: usize,
    batch_ns: u64,
    solo_ns: u64,
}

impl Row {
    fn speedup(&self) -> f64 {
        (LANES as u64 * self.solo_ns) as f64 / self.batch_ns as f64
    }
}

/// Synthesizes an HLS workload with unconstrained resources and
/// deterministic inputs (as the `fault_campaign` bench does).
fn hls_model(dfg: clockless_hls::Dfg) -> RtModel {
    let resources = ResourceSet::unconstrained(&dfg);
    let names = dfg.inputs();
    let inputs: HashMap<&str, i64> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i as i64 + 1))
        .collect();
    synthesize(&dfg, &resources, &inputs)
        .expect("synthesizes")
        .model
}

/// 64 mixed deltas: even lanes override a register's init, odd lanes
/// drop a transfer, both cycling through the model's registers and
/// transfers.
fn mixed_deltas(model: &RtModel, plan: &ExecPlan) -> Vec<PlanDelta> {
    let registers = model.registers();
    let tuples = model.tuples().len();
    (0..LANES)
        .map(|lane| {
            let k = lane / 2;
            match lane % 2 {
                0 => {
                    let reg = &registers[k % registers.len()].name;
                    plan.delta_set_init(reg, Value::Num(k as i64 * 7 - 5))
                }
                _ => plan.delta_drop_tuple(k % tuples),
            }
            .expect("delta fits the model")
        })
        .collect()
}

/// Mean wall time of `f` over `iters` calls.
fn time_ns(iters: u32, mut f: impl FnMut()) -> u64 {
    let t = Instant::now();
    for _ in 0..iters {
        f();
    }
    t.elapsed().as_nanos() as u64 / u64::from(iters)
}

fn geomean(ratios: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = ratios.fold((0.0, 0u32), |(s, n), r| (s + r.ln(), n + 1));
    (sum / f64::from(n.max(1))).exp()
}

fn main() {
    let targets: [(&'static str, RtModel, u32); 3] = [
        ("fig1", fig1_model(3, 4), 400),
        (
            "fir12",
            hls_model(fir(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12])),
            40,
        ),
        ("dag48", hls_model(random_dag(7, 48, 6)), 20),
    ];
    let options = ExecOptions::default().at_opt(OptLevel::O2);

    let mut rows = Vec::new();
    for (name, model, iters) in &targets {
        let plan = ExecPlan::lower(model);
        let deltas = mixed_deltas(model, &plan);
        let solo = OptPlan::from_plan(plan.clone(), OptLevel::O2.config());
        let outs = plan.execute_batch(&deltas, &options).expect("batch runs");
        assert!(outs.iter().all(|o| !o.overflowed), "{name}: a lane overflowed");

        // Best of alternating rounds, so both sides see the same load.
        let (mut batch_ns, mut solo_ns) = (u64::MAX, u64::MAX);
        for _ in 0..ROUNDS {
            batch_ns = batch_ns.min(time_ns(*iters, || {
                std::hint::black_box(plan.execute_batch(&deltas, &options).expect("runs"));
            }));
            solo_ns = solo_ns.min(time_ns(*iters * 8, || {
                std::hint::black_box(solo.execute(&options).expect("runs"));
            }));
        }
        let row = Row {
            model: name,
            micro_ops_o2: solo.op_count(),
            batch_ns,
            solo_ns,
        };
        eprintln!(
            "{name:<6} batch of {LANES} = {batch_ns:>9} ns ({:.0} ns/lane)  \
             solo -O2 = {solo_ns:>7} ns  speedup {:.2}x (roadmap gate {ROADMAP_GATE}x)",
            batch_ns as f64 / LANES as f64,
            row.speedup(),
        );
        rows.push(row);
    }

    let speedup = geomean(rows.iter().map(Row::speedup));
    eprintln!("geomean speedup {speedup:.2}x (gate {GATE}x)");
    assert!(
        speedup >= GATE,
        "lane gate failed: a 64-lane walk is only {speedup:.2}x over 64 solo walks (need {GATE}x)"
    );

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"generated_by\": \"cargo bench --manifest-path crates/bench/Cargo.toml \
         --bench lane_walk\",\n",
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let _ = writeln!(out, "  \"host_cores\": {cores},");
    let _ = writeln!(out, "  \"lanes\": {LANES},");
    let _ = writeln!(
        out,
        "  \"gates\": {{\"speedup_geomean_min\": {GATE:.1}, \"roadmap_speedup\": {ROADMAP_GATE:.1}}},"
    );
    let _ = writeln!(out, "  \"geomean\": {{\"speedup\": {speedup:.2}}},");
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"model\": \"{}\", \"micro_ops_o2\": {}, \"batch_ns\": {}, \
             \"ns_per_lane\": {:.0}, \"solo_o2_ns\": {}, \"speedup\": {:.2}, \
             \"of_roadmap_gate\": {:.2}, \"meets_roadmap_gate\": {}}}{}",
            r.model,
            r.micro_ops_o2,
            r.batch_ns,
            r.batch_ns as f64 / LANES as f64,
            r.solo_ns,
            r.speedup(),
            r.speedup() / ROADMAP_GATE,
            r.speedup() >= ROADMAP_GATE,
            comma
        );
    }
    out.push_str("  ]\n}\n");

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_lanes.json");
    std::fs::write(&path, out).expect("writes BENCH_lanes.json");
    eprintln!(
        "lane walk: {} rows written to {}",
        rows.len(),
        path.canonicalize().unwrap_or(path).display()
    );
}
