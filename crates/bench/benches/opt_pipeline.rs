//! Writes `BENCH_opt.json` at the repository root: end-to-end wall
//! time of the plan optimizer's `-O` pipeline, pass by pass, on the
//! IKS chips and a 48-node HLS dataflow graph.
//!
//! Each model is timed at five stages of the cumulative pipeline —
//! interpreted, `-O0` (the plain micro-op stream, no passes), `-O1`
//! (resolution specialization), `-O1` + constant folding, and `-O2`
//! (everything plus dead-spur elimination) — so the JSON attributes the
//! total win to individual passes. Every compiled stage walks a
//! precompiled stream of the same walker. Counters (`cs_max`, `tuples`,
//! `micro_ops_*`) are machine-independent; `*_ns` and the derived ratios
//! are machine-local.
//!
//! Equivalence comes first: every model passes
//! `clockless_verify::backend_equiv` (which sweeps all three `-O`
//! levels against the interpreter, traced and untraced) before a single
//! timing sample is taken. The acceptance gates — `-O2` strictly faster
//! than `-O0` and at least 3× over the interpreter, as geometric means
//! across the corpus — are asserted, not just recorded.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use clockless_core::{Backend, ExecOptions, ExecPlan, OptConfig, OptLevel, OptPlan, RtModel};
use clockless_hls::{random_dag, synthesize, ResourceSet};
use clockless_iks::prelude::*;
use clockless_iks::{build_fir_chip, build_ik_chip};
use clockless_verify::backend_equiv;

/// One model's stage-by-stage timings, all in nanoseconds per run.
struct Row {
    model: &'static str,
    cs_max: u32,
    tuples: usize,
    micro_ops_o1: usize,
    micro_ops_o2: usize,
    compile_o2_ns: u64,
    interpreted_ns: u64,
    o0_ns: u64,
    o1_ns: u64,
    fold_ns: u64,
    o2_ns: u64,
}

/// Best-of-5 mean wall time of `f`, amortized over `iters` calls.
fn time_ns(iters: u32, mut f: impl FnMut()) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t.elapsed().as_nanos() as u64 / u64::from(iters));
    }
    best
}

/// Times one `OptPlan` stage (compile once, execute many).
fn time_stage(plan: &ExecPlan, config: OptConfig, iters: u32) -> u64 {
    let opt = OptPlan::from_plan(plan.clone(), config);
    let options = ExecOptions::default();
    time_ns(iters, || {
        std::hint::black_box(opt.execute(&options).expect("runs"));
    })
}

fn geomean(ratios: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = ratios.fold((0.0, 0u32), |(s, n), r| (s + r.ln(), n + 1));
    (sum / f64::from(n.max(1))).exp()
}

fn main() {
    let constants = IkConstants::new(ArmGeometry::new(1.0, 1.0));
    let ik = build_ik_chip(to_fx(1.0), to_fx(1.0), constants)
        .expect("builds")
        .model;
    let samples = [to_fx(0.5), to_fx(1.5), to_fx(-1.0), to_fx(2.0)];
    let coeffs = [to_fx(2.0), to_fx(-0.5), to_fx(0.25), to_fx(1.0)];
    let fir = build_fir_chip(samples, coeffs).expect("builds");
    let dag = random_dag(48, 48, 4);
    let resources = ResourceSet::unconstrained(&dag);
    let names = dag.inputs();
    let inputs: HashMap<&str, i64> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i as i64 + 1))
        .collect();
    let dag48 = synthesize(&dag, &resources, &inputs)
        .expect("synthesis")
        .model;

    let targets: [(&'static str, RtModel, u32); 3] = [
        ("iks_ik", ik, 40),
        ("iks_fir", fir, 40),
        ("dag48", dag48, 20),
    ];

    // The cumulative pipeline, one toggle at a time.
    let o0 = OptLevel::O0.config();
    let o1 = OptLevel::O1.config();
    let o1_fold = OptConfig { fold: true, ..o1 };
    let o2 = OptLevel::O2.config();

    let mut rows: Vec<Row> = Vec::new();
    for (name, model, iters) in &targets {
        // Equivalence before timing: a fast wrong answer is worthless.
        backend_equiv(model).unwrap_or_else(|d| panic!("{name}: {d}"));

        let plan = ExecPlan::lower(model);
        let stream_o1 = OptPlan::from_plan(plan.clone(), o1);
        let stream_o2 = OptPlan::from_plan(plan.clone(), o2);
        let compile_o2_ns = time_ns(*iters, || {
            std::hint::black_box(OptPlan::from_plan(plan.clone(), o2));
        });

        let options = ExecOptions::default();
        let interpreted_ns = time_ns(*iters, || {
            std::hint::black_box(Backend::Interpreted.execute(model, &options).expect("runs"));
        });
        let o0_ns = time_stage(&plan, o0, *iters);
        let o1_ns = time_stage(&plan, o1, *iters);
        let fold_ns = time_stage(&plan, o1_fold, *iters);
        let o2_ns = time_stage(&plan, o2, *iters);

        eprintln!(
            "{name:<8} interp={interpreted_ns:>9} ns  O0={o0_ns:>9} ns  \
             O1={o1_ns:>9} ns  +fold={fold_ns:>9} ns  O2={o2_ns:>9} ns  \
             (O2 vs O0 {:.2}x, vs interp {:.2}x)",
            o0_ns as f64 / o2_ns as f64,
            interpreted_ns as f64 / o2_ns as f64,
        );
        rows.push(Row {
            model: name,
            cs_max: model.cs_max().into(),
            tuples: model.tuples().len(),
            micro_ops_o1: stream_o1.op_count(),
            micro_ops_o2: stream_o2.op_count(),
            compile_o2_ns,
            interpreted_ns,
            o0_ns,
            o1_ns,
            fold_ns,
            o2_ns,
        });
    }

    let vs_o0 = geomean(rows.iter().map(|r| r.o0_ns as f64 / r.o2_ns as f64));
    let vs_interp = geomean(
        rows.iter()
            .map(|r| r.interpreted_ns as f64 / r.o2_ns as f64),
    );
    eprintln!("geomean: O2 vs O0 {vs_o0:.2}x, O2 vs interpreted {vs_interp:.2}x");
    assert!(
        vs_o0 > 1.0,
        "optimizer gate failed: O2 is only {vs_o0:.2}x over O0 (need > 1x)"
    );
    assert!(
        vs_interp >= 3.0,
        "optimizer gate failed: O2 is only {vs_interp:.2}x over interpreted (need 3x)"
    );

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"generated_by\": \"cargo bench --manifest-path crates/bench/Cargo.toml \
         --bench opt_pipeline\",\n",
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let _ = writeln!(out, "  \"host_cores\": {cores},");
    let _ = writeln!(
        out,
        "  \"gates\": {{\"o2_vs_o0_geomean_above\": 1.0, \"o2_vs_interpreted_geomean_min\": 3.0}},"
    );
    let _ = writeln!(
        out,
        "  \"geomean\": {{\"o2_vs_o0\": {vs_o0:.2}, \"o2_vs_interpreted\": {vs_interp:.2}}},"
    );
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        // Per-pass attribution: the marginal speedup of enabling each
        // pass on top of the previous stage.
        let _ = writeln!(
            out,
            "    {{\"model\": \"{}\", \"cs_max\": {}, \"tuples\": {}, \
             \"micro_ops_o1\": {}, \"micro_ops_o2\": {}, \"compile_o2_ns\": {}, \
             \"interpreted_ns\": {}, \"o0_ns\": {}, \"o1_ns\": {}, \
             \"fold_ns\": {}, \"o2_ns\": {}, \"pass_attribution\": {{\
             \"specialization\": {:.2}, \"folding\": {:.2}, \
             \"dse\": {:.2}}}, \"o2_vs_o0\": {:.2}, \"o2_vs_interpreted\": {:.2}}}{}",
            r.model,
            r.cs_max,
            r.tuples,
            r.micro_ops_o1,
            r.micro_ops_o2,
            r.compile_o2_ns,
            r.interpreted_ns,
            r.o0_ns,
            r.o1_ns,
            r.fold_ns,
            r.o2_ns,
            r.o0_ns as f64 / r.o1_ns as f64,
            r.o1_ns as f64 / r.fold_ns as f64,
            r.fold_ns as f64 / r.o2_ns as f64,
            r.o0_ns as f64 / r.o2_ns as f64,
            r.interpreted_ns as f64 / r.o2_ns as f64,
            comma
        );
    }
    out.push_str("  ]\n}\n");

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_opt.json");
    std::fs::write(&path, out).expect("writes BENCH_opt.json");
    eprintln!(
        "opt pipeline: {} rows written to {}",
        rows.len(),
        path.canonicalize().unwrap_or(path).display()
    );
}
