//! Writes `BENCH_backend.json` at the repository root: the interpreted
//! delta kernel vs the compiled phase-schedule engine — at `-O0` (the
//! plain micro-op stream) and `-O2` (the specialized one) — head to head on the Fig. 1 model and the IKS chip corpus,
//! single-threaded.
//!
//! Per the workspace convention, counters (`cs_max`, `tuples`,
//! `equivalent`) are machine-independent; `*_ns` and the derived
//! `speedup` are machine-local. Every row first proves observational
//! byte-equality via `clockless_verify::backend_equiv`, so the numbers
//! compare two engines computing the *same* answer.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use clockless_core::model::fig1_model;
use clockless_core::{Backend, ExecOptions, OptLevel, RtModel};
use clockless_iks::prelude::*;
use clockless_iks::{build_fir_chip, build_ik_chip};
use clockless_verify::backend_equiv;

/// One (model, backend-pair) measurement.
struct Row {
    model: &'static str,
    cs_max: u32,
    tuples: usize,
    interpreted_ns: u64,
    compiled_o0_ns: u64,
    compiled_ns: u64,
    speedup: f64,
    opt_speedup: f64,
    equivalent: bool,
}

/// Best-of-5 mean wall time per run for one backend, amortized over an
/// inner loop so sub-microsecond runs still measure cleanly.
fn time_backend(backend: Backend, model: &RtModel, opt: OptLevel, iters: u32) -> u64 {
    let options = ExecOptions::default().at_opt(opt);
    let mut best = u64::MAX;
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..iters {
            let outcome = backend.execute(model, &options).expect("runs");
            std::hint::black_box(outcome);
        }
        let ns = t.elapsed().as_nanos() as u64 / u64::from(iters);
        best = best.min(ns);
    }
    best
}

fn main() {
    let constants = IkConstants::new(ArmGeometry::new(1.0, 1.0));
    let ik = build_ik_chip(to_fx(1.0), to_fx(1.0), constants)
        .expect("builds")
        .model;
    let samples = [to_fx(0.5), to_fx(1.5), to_fx(-1.0), to_fx(2.0)];
    let coeffs = [to_fx(2.0), to_fx(-0.5), to_fx(0.25), to_fx(1.0)];
    let fir = build_fir_chip(samples, coeffs).expect("builds");
    let targets: [(&'static str, RtModel, u32); 3] = [
        ("fig1", fig1_model(3, 4), 400),
        ("iks_ik", ik, 40),
        ("iks_fir", fir, 40),
    ];

    let mut rows: Vec<Row> = Vec::new();
    for (name, model, iters) in &targets {
        let equivalent = backend_equiv(model).is_ok();
        assert!(equivalent, "{name}: backends diverge — bench numbers void");
        let interpreted_ns = time_backend(Backend::Interpreted, model, OptLevel::O0, *iters);
        let compiled_o0_ns = time_backend(Backend::Compiled, model, OptLevel::O0, *iters);
        let compiled_ns = time_backend(Backend::Compiled, model, OptLevel::O2, *iters);
        let speedup = interpreted_ns as f64 / compiled_ns as f64;
        let opt_speedup = compiled_o0_ns as f64 / compiled_ns as f64;
        rows.push(Row {
            model: name,
            cs_max: model.cs_max().into(),
            tuples: model.tuples().len(),
            interpreted_ns,
            compiled_o0_ns,
            compiled_ns,
            speedup,
            opt_speedup,
            equivalent,
        });
        eprintln!(
            "{name:<8} cs_max={:<3} interpreted={:>9} ns  compiled-O0={:>9} ns  \
             compiled-O2={:>9} ns  speedup={speedup:.2}x  opt={opt_speedup:.2}x",
            model.cs_max(),
            interpreted_ns,
            compiled_o0_ns,
            compiled_ns
        );
    }

    // The acceptance bar for the compiled engine: never slower than the
    // interpreter on the single-threaded corpus it was built for.
    assert!(
        rows.iter().all(|r| r.speedup > 1.0),
        "compiled backend lost a head-to-head run"
    );

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"generated_by\": \"cargo bench --manifest-path crates/bench/Cargo.toml \
         --bench backend_faceoff\",\n",
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let _ = writeln!(out, "  \"host_cores\": {cores},");
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let per_step_i = r.interpreted_ns as f64 / f64::from(r.cs_max);
        let per_step_o0 = r.compiled_o0_ns as f64 / f64::from(r.cs_max);
        let per_step_c = r.compiled_ns as f64 / f64::from(r.cs_max);
        let _ = writeln!(
            out,
            "    {{\"model\": \"{}\", \"cs_max\": {}, \"tuples\": {}, \
             \"interpreted_ns\": {}, \"compiled_o0_ns\": {}, \"compiled_o2_ns\": {}, \
             \"interpreted_ns_per_step\": {:.0}, \"compiled_o0_ns_per_step\": {:.0}, \
             \"compiled_o2_ns_per_step\": {:.0}, \"speedup\": {:.2}, \
             \"opt_speedup\": {:.2}, \"equivalent\": {}}}{}",
            r.model,
            r.cs_max,
            r.tuples,
            r.interpreted_ns,
            r.compiled_o0_ns,
            r.compiled_ns,
            per_step_i,
            per_step_o0,
            per_step_c,
            r.speedup,
            r.opt_speedup,
            r.equivalent,
            comma
        );
    }
    out.push_str("  ]\n}\n");

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_backend.json");
    std::fs::write(&path, out).expect("writes BENCH_backend.json");
    eprintln!(
        "backend faceoff: {} rows written to {}",
        rows.len(),
        path.canonicalize().unwrap_or(path).display()
    );
}
