//! Property-based tests over the core data structures and invariants.
//!
//! The generators are hand-rolled on a deterministic splitmix64 stream so
//! the suite runs with zero external crates (tier-1 is offline). Every
//! failure message includes the case seed, which reproduces the case when
//! fed back through the same generator. The `slow-tests` feature raises
//! the iteration counts; the default counts keep `cargo test -q` quick.

use std::collections::HashMap;

use clockless::core::prelude::*;
use clockless::core::{resolve, Endpoint, OptLevel, TransferTuple};
use clockless::fleet::{JobSource, JobSpec};
use clockless::hls::{random_dag, synthesize, ResourceClass, ResourceSet};
use clockless::verify::{concrete_check, roundtrip_check, verify_synthesis};

/// Cases per cheap property.
const CASES: u64 = if cfg!(feature = "slow-tests") {
    512
} else {
    64
};
/// Cases per property that runs synthesis + simulation end to end.
const HEAVY_CASES: u64 = if cfg!(feature = "slow-tests") { 32 } else { 8 };

/// Deterministic splitmix64 generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (half-open, `hi > lo`).
    fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        let span = (hi - lo) as u64;
        lo + (self.next_u64() % span) as i64
    }

    fn range(&mut self, lo: usize, hi: usize) -> usize {
        self.range_i64(lo as i64, hi as i64) as usize
    }

    fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

fn arb_value(rng: &mut Rng) -> Value {
    match rng.next_u64() % 3 {
        0 => Value::Disc,
        1 => Value::Illegal,
        _ => Value::Num(rng.next_u64() as i64),
    }
}

/// Every `Op` variant (with a sampling of `MulFx` shifts).
fn all_ops() -> Vec<Op> {
    let mut ops = vec![
        Op::Add,
        Op::Sub,
        Op::Mul,
        Op::Min,
        Op::Max,
        Op::And,
        Op::Or,
        Op::Xor,
        Op::Shr,
        Op::Shl,
        Op::PassA,
        Op::PassB,
        Op::Neg,
        Op::Abs,
    ];
    ops.extend((0u8..32).map(Op::MulFx));
    ops
}

fn arb_values(rng: &mut Rng, max_len: usize) -> Vec<Value> {
    let n = rng.range(0, max_len + 1);
    (0..n).map(|_| arb_value(rng)).collect()
}

// ---- Resolution ---------------------------------------------------------

/// The resolution function is order-independent (any permutation of
/// drivers resolves identically) — essential, since VHDL leaves the
/// driver order unspecified.
#[test]
fn resolution_is_permutation_invariant() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let mut drivers = arb_values(&mut rng, 5);
        let original = resolve(&drivers);
        // Deterministic shuffle from the stream.
        for i in (1..drivers.len()).rev() {
            let j = rng.range(0, i + 1);
            drivers.swap(i, j);
        }
        assert_eq!(resolve(&drivers), original, "case {case}");
    }
}

/// Resolution yields a number only when exactly one driver is a
/// number and none is ILLEGAL.
#[test]
fn resolution_numeric_iff_unique_driver() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let drivers = arb_values(&mut rng, 5);
        let nums = drivers.iter().filter(|v| v.is_num()).count();
        let illegal = drivers.iter().any(|v| v.is_illegal());
        let r = resolve(&drivers);
        match (illegal, nums) {
            (true, _) => assert_eq!(r, Value::Illegal, "case {case}"),
            (false, 0) => assert_eq!(r, Value::Disc, "case {case}"),
            (false, 1) => assert!(r.is_num(), "case {case}"),
            (false, _) => assert_eq!(r, Value::Illegal, "case {case}"),
        }
    }
}

/// Resolution is associative under nesting: resolving a sublist first
/// and splicing the result in gives the same outcome. (This is what
/// lets buses and ports be resolved independently.)
#[test]
fn resolution_nests() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let a = arb_values(&mut rng, 3);
        let b = arb_values(&mut rng, 3);
        let flat: Vec<Value> = a.iter().chain(b.iter()).copied().collect();
        let nested = {
            let ra = resolve(&a);
            let mut v = vec![ra];
            v.extend(b.iter().copied());
            resolve(&v)
        };
        assert_eq!(resolve(&flat), nested, "case {case}");
    }
}

// ---- Operations ---------------------------------------------------------

/// ILLEGAL is absorbing for every operation.
#[test]
fn illegal_absorbs() {
    for op in all_ops() {
        for case in 0..CASES / 8 {
            let mut rng = Rng::new(case);
            let v = arb_value(&mut rng);
            assert_eq!(op.apply(Value::Illegal, v), Value::Illegal);
            assert_eq!(op.apply(v, Value::Illegal), Value::Illegal);
        }
    }
}

/// All-DISC operands always yield DISC ("no operation this step").
#[test]
fn disc_in_disc_out() {
    for op in all_ops() {
        assert_eq!(op.apply(Value::Disc, Value::Disc), Value::Disc, "{op:?}");
    }
}

/// Op mnemonics round-trip through parsing.
#[test]
fn op_mnemonic_roundtrip() {
    for op in all_ops() {
        assert_eq!(op.mnemonic().parse::<Op>().unwrap(), op);
    }
}

/// Value encoding round-trips for non-negative payloads.
#[test]
fn value_encoding_roundtrip() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let n = rng.range_i64(0, i64::MAX);
        let v = Value::Num(n);
        assert_eq!(Value::from_encoded(v.to_encoded().unwrap()), v, "n = {n}");
    }
}

// ---- Transfer tuples ----------------------------------------------------

/// Transfer tuples round-trip through the paper's textual notation.
#[test]
fn tuple_text_roundtrip() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let read_step = rng.range_i64(1, 50) as u32;
        let latency = rng.range_i64(0, 3) as u32;
        let has_b = rng.bool();
        let has_write = rng.bool();
        let mut t = TransferTuple::new(read_step, "M").src_a("Ra", "Ba");
        if has_b {
            t = t.src_b("Rb", "Bb");
        }
        if has_write {
            t = t.write(read_step + latency, "Bw", "Rw");
        }
        let text = t.to_string();
        assert_eq!(text.parse::<TransferTuple>().unwrap(), t, "case {case}");
    }
}

/// Expansion emits specs in strictly increasing phase order per step,
/// and each sink is driven exactly once by the tuple.
#[test]
fn expansion_shape() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let read_step = rng.range_i64(1, 20) as u32;
        let latency = rng.range_i64(0, 3) as u32;
        let t = TransferTuple::new(read_step, "M")
            .src_a("Ra", "Ba")
            .src_b("Rb", "Bb")
            .write(read_step + latency, "Bw", "Rw");
        let specs = t.expand();
        assert_eq!(specs.len(), 6);
        // Sinks are unique per (endpoint, step, phase).
        let mut sinks: Vec<(String, u32)> = specs
            .iter()
            .map(|s| (format!("{}", s.dst), s.step))
            .collect();
        sinks.sort();
        let before = sinks.len();
        sinks.dedup();
        // Bw and Ba may coincide as strings only if names equal — they
        // don't here.
        assert_eq!(sinks.len(), before);
        // Reads at the read step, writes at the write step.
        for s in &specs {
            match &s.dst {
                Endpoint::Bus(b) if b == "Bw" => assert_eq!(s.step, read_step + latency),
                Endpoint::Bus(_) => assert_eq!(s.step, read_step),
                Endpoint::RegIn(_) => assert_eq!(s.step, read_step + latency),
                _ => assert_eq!(s.step, read_step),
            }
        }
    }
}

// ---- End-to-end synthesis ----------------------------------------------

/// The flagship end-to-end property: any random DAG synthesized under
/// random resource budgets simulates to the dataflow evaluator's
/// values, passes the automatic prover, and its tuples round-trip
/// through the §2.7 process semantics.
#[test]
fn synthesized_random_dags_are_correct() {
    for case in 0..HEAVY_CASES {
        let mut rng = Rng::new(0xE2E_0000 + case);
        let seed = rng.next_u64();
        let nodes = rng.range(4, 28);
        let n_inputs = rng.range(1, 5);
        let muls = rng.range(1, 3);
        let alus = rng.range(1, 3);
        let input_vals: Vec<i64> = (0..5).map(|_| rng.range_i64(-1000, 1000)).collect();

        let g = random_dag(seed, nodes, n_inputs);
        let names: Vec<String> = (0..n_inputs).map(|i| format!("in{i}")).collect();
        let inputs: HashMap<&str, i64> = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), input_vals[i]))
            .collect();
        let resources = ResourceSet::new([
            ResourceClass::new(
                "MUL",
                [Op::Mul],
                ModuleTiming::Pipelined { latency: 2 },
                muls,
            ),
            ResourceClass::new(
                "ALU",
                [Op::Add, Op::Sub, Op::Min, Op::Max, Op::Xor],
                ModuleTiming::Pipelined { latency: 1 },
                alus,
            ),
        ]);
        let syn = synthesize(&g, &resources, &inputs).expect("synthesis succeeds");
        assert!(
            concrete_check(&g, &syn, &inputs).expect("simulates"),
            "case {case}"
        );
        let report = verify_synthesis(&g, &syn, 8).expect("verifier runs");
        assert!(report.passed(), "case {case}: {report}");
        roundtrip_check(&syn.model).expect("roundtrip");
    }
}

/// Symbolic simulation agrees with concrete simulation on random
/// models (soundness of the abstract interpreter).
#[test]
fn symbolic_matches_concrete() {
    for case in 0..HEAVY_CASES {
        let mut rng = Rng::new(0x51D_0000 + case);
        let r1 = rng.range_i64(-1000, 1000);
        let r2 = rng.range_i64(-1000, 1000);
        let model = fig1_model(r1, r2);
        let out = clockless::verify::symbolic_run(&model, &HashMap::new()).unwrap();
        let mut sim = RtSimulation::new(&model).unwrap();
        let summary = sim.run_to_completion().unwrap();
        let expected = summary.register("R1").unwrap().num().unwrap();
        assert_eq!(
            &*out["R1"],
            &clockless::verify::Expr::Const(expected),
            "r1 = {r1}, r2 = {r2}"
        );
    }
}

/// Source-level round trip: any synthesized model emits as the
/// paper's VHDL subset and reads back identically.
#[test]
fn vhdl_roundtrip_on_random_models() {
    for case in 0..HEAVY_CASES {
        let mut rng = Rng::new(0x0D1_0000 + case);
        let seed = rng.next_u64();
        let nodes = rng.range(3, 16);
        let g = random_dag(seed, nodes, 3);
        let names: Vec<String> = (0..3).map(|i| format!("in{i}")).collect();
        let inputs: HashMap<&str, i64> = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), i as i64 + 1))
            .collect();
        let resources = ResourceSet::new([
            ResourceClass::new("MUL", [Op::Mul], ModuleTiming::Pipelined { latency: 2 }, 2),
            ResourceClass::new(
                "ALU",
                [Op::Add, Op::Sub, Op::Min, Op::Max],
                ModuleTiming::Pipelined { latency: 1 },
                2,
            ),
        ]);
        // Random DAGs may contain Xor (no VHDL expression in the subset):
        // skip those seeds.
        if g.nodes().iter().any(|n| n.op == Op::Xor) {
            continue;
        }
        let syn = synthesize(&g, &resources, &inputs).expect("synthesis");
        let text = clockless::core::emit_vhdl(&syn.model).expect("emits");
        let back = clockless::verify::model_from_vhdl(&text).expect("imports");
        assert_eq!(back.registers(), syn.model.registers());
        assert_eq!(back.modules(), syn.model.modules());
        let mut a = back.tuples().to_vec();
        let mut b = syn.model.tuples().to_vec();
        let key = |t: &clockless::core::TransferTuple| (t.module.clone(), t.read_step);
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b, "case {case}");
    }
}

/// The kernel is deterministic: identical models produce identical
/// statistics and results on every run.
#[test]
fn simulation_is_deterministic() {
    for case in 0..HEAVY_CASES {
        let mut rng = Rng::new(0xDE7_0000 + case);
        let seed = rng.next_u64();
        let nodes = rng.range(3, 20);
        let g = random_dag(seed, nodes, 3);
        let names: Vec<String> = (0..3).map(|i| format!("in{i}")).collect();
        let inputs: HashMap<&str, i64> = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), i as i64 * 3 - 1))
            .collect();
        let resources = ResourceSet::new([
            ResourceClass::new("MUL", [Op::Mul], ModuleTiming::Pipelined { latency: 2 }, 1),
            ResourceClass::new(
                "ALU",
                [Op::Add, Op::Sub, Op::Min, Op::Max, Op::Xor],
                ModuleTiming::Pipelined { latency: 1 },
                1,
            ),
        ]);
        let syn = synthesize(&g, &resources, &inputs).expect("synthesis");
        let mut s1 = RtSimulation::new(&syn.model).expect("elaborates");
        let mut s2 = RtSimulation::new(&syn.model).expect("elaborates");
        let r1 = s1.run_to_completion().expect("runs");
        let r2 = s2.run_to_completion().expect("runs");
        assert_eq!(r1.stats, r2.stats, "case {case}");
        assert_eq!(r1.registers, r2.registers, "case {case}");
    }
}

// ---- Normalization soundness -------------------------------------------

/// A small random expression generator over three variables.
fn arb_expr(rng: &mut Rng, depth: usize) -> std::rc::Rc<clockless::verify::Expr> {
    use clockless::verify::Expr;
    if depth == 0 || rng.next_u64().is_multiple_of(3) {
        return if rng.bool() {
            Expr::constant(rng.range_i64(-50, 50))
        } else {
            Expr::var(["x", "y", "z"][rng.range(0, 3)])
        };
    }
    let op = [Op::Add, Op::Sub, Op::Mul, Op::Min, Op::Max][rng.range(0, 5)];
    let a = arb_expr(rng, depth - 1);
    let b = arb_expr(rng, depth - 1);
    Expr::apply(op, vec![a, b]).expect("no illegal constants")
}

/// Recursively commutes every Add/Mul — an equivalence-preserving rewrite.
fn commuted(e: &std::rc::Rc<clockless::verify::Expr>) -> std::rc::Rc<clockless::verify::Expr> {
    use clockless::verify::Expr;
    match &**e {
        Expr::Apply(op, args) if args.len() == 2 => {
            let a = commuted(&args[0]);
            let b = commuted(&args[1]);
            let swapped = matches!(op, Op::Add | Op::Mul);
            let args = if swapped { vec![b, a] } else { vec![a, b] };
            Expr::apply(*op, args).expect("no illegal constants")
        }
        Expr::Apply(op, args) => {
            let args = args.iter().map(commuted).collect();
            Expr::apply(*op, args).expect("no illegal constants")
        }
        _ => e.clone(),
    }
}

/// Commuting Add/Mul everywhere preserves the normal form — except
/// inside opaque operations (Min/Max), where commuted *children*
/// still normalize but a commuted opaque node itself may not compare
/// equal; so the property is checked semantically as well.
#[test]
fn normalization_is_sound() {
    use clockless::verify::equivalent;
    for case in 0..CASES {
        let mut rng = Rng::new(0x40B_0000 + case);
        let e = arb_expr(&mut rng, 4);
        let xs: Vec<i64> = (0..3).map(|_| rng.range_i64(-100, 100)).collect();
        let c = commuted(&e);
        let env: HashMap<String, i64> = ["x", "y", "z"]
            .iter()
            .zip(&xs)
            .map(|(n, v)| (n.to_string(), *v))
            .collect();
        // Semantic agreement always holds for the rewrite.
        let ev_e = e.eval(&env);
        let ev_c = c.eval(&env);
        assert_eq!(ev_e.clone(), ev_c, "case {case}");
        // And if the prover says "equivalent", evaluation must agree —
        // soundness of the normal form.
        if equivalent(&e, &c) {
            assert_eq!(ev_e, c.eval(&env), "case {case}");
        }
    }
}

/// The ring fragment (no opaque ops) normalizes commutations away
/// completely.
#[test]
fn ring_fragment_proves_commutativity() {
    use clockless::verify::{equivalent, Expr};
    for case in 0..CASES {
        let mut rng = Rng::new(0x416_0000 + case);
        let a = rng.range_i64(-20, 20);
        let b = rng.range_i64(-20, 20);
        let c = rng.range_i64(-20, 20);
        let x = Expr::var("x");
        let y = Expr::var("y");
        // (a·x + b·y)·(x + c) vs its fully commuted form.
        let e1 = Expr::apply(
            Op::Mul,
            vec![
                Expr::apply(
                    Op::Add,
                    vec![
                        Expr::apply(Op::Mul, vec![Expr::constant(a), x.clone()]).unwrap(),
                        Expr::apply(Op::Mul, vec![Expr::constant(b), y.clone()]).unwrap(),
                    ],
                )
                .unwrap(),
                Expr::apply(Op::Add, vec![x.clone(), Expr::constant(c)]).unwrap(),
            ],
        )
        .unwrap();
        let e2 = Expr::apply(
            Op::Mul,
            vec![
                Expr::apply(Op::Add, vec![Expr::constant(c), x.clone()]).unwrap(),
                Expr::apply(
                    Op::Add,
                    vec![
                        Expr::apply(Op::Mul, vec![y, Expr::constant(b)]).unwrap(),
                        Expr::apply(Op::Mul, vec![x, Expr::constant(a)]).unwrap(),
                    ],
                )
                .unwrap(),
            ],
        )
        .unwrap();
        assert!(equivalent(&e1, &e2), "a = {a}, b = {b}, c = {c}");
    }
}

/// Transcript rendering and model statistics never fail on random
/// synthesized models, and the statistics satisfy their invariants.
#[test]
fn transcript_and_stats_total_on_random_models() {
    for case in 0..HEAVY_CASES {
        let mut rng = Rng::new(0x57A_0000 + case);
        let seed = rng.next_u64();
        let nodes = rng.range(3, 16);
        let g = random_dag(seed, nodes, 3);
        let names: Vec<String> = (0..3).map(|i| format!("in{i}")).collect();
        let inputs: HashMap<&str, i64> = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), i as i64 + 1))
            .collect();
        let resources = ResourceSet::new([
            ResourceClass::new("MUL", [Op::Mul], ModuleTiming::Pipelined { latency: 2 }, 2),
            ResourceClass::new(
                "ALU",
                [Op::Add, Op::Sub, Op::Min, Op::Max, Op::Xor],
                ModuleTiming::Pipelined { latency: 1 },
                2,
            ),
        ]);
        let syn = synthesize(&g, &resources, &inputs).expect("synthesis");
        let s = clockless::core::model_stats(&syn.model);
        assert_eq!(s.tuples, syn.model.tuples().len());
        assert!(s.occupancy() >= 0.0 && s.occupancy() <= 1.0);
        assert!(s.peak.1 as u64 >= 1);
        let first_reg = syn.model.registers()[0].name.clone();
        let text = clockless::core::transcript(&syn.model, &[&first_reg]).expect("renders");
        assert!(text.contains("step.ph"));
        // Lints: emitted schedules have no dataflow lints.
        let lints = clockless::verify::lint_model(&syn.model);
        assert!(
            !lints.iter().any(|l| matches!(
                l,
                clockless::verify::Lint::DeadWrite { .. }
                    | clockless::verify::Lint::ReadOfUndefined { .. }
            )),
            "case {case}: {lints:?}"
        );
    }
}

// ---- Fault lanes against the per-mutant kernel --------------------------

/// The batched campaign engine — every mutant a lane of a packed walk —
/// against the legacy engine, which runs each mutant model on its own
/// kernel: the campaign JSON agrees byte for byte under every checker
/// mode (or both engines fail alike).
fn assert_lanes_match_kernel(model: &RtModel, what: &str) {
    use clockless::verify::{run_campaign, CampaignConfig, CampaignEngine, CheckerMode};
    for checkers in [
        CheckerMode::Off,
        CheckerMode::Golden,
        CheckerMode::Invariants,
        CheckerMode::All,
    ] {
        let run = |engine| {
            let config = CampaignConfig {
                engine,
                checkers,
                ..CampaignConfig::default()
            };
            run_campaign(model, &config).map(|r| r.to_json())
        };
        match (run(CampaignEngine::Batched), run(CampaignEngine::Legacy)) {
            (Ok(lanes), Ok(kernel)) => assert_eq!(lanes, kernel, "{what}, checkers {checkers}"),
            (Err(lanes), Err(kernel)) => assert_eq!(
                lanes.to_string(),
                kernel.to_string(),
                "{what}, checkers {checkers}"
            ),
            (lanes, kernel) => panic!("{what}, checkers {checkers}: {lanes:?} vs {kernel:?}"),
        }
    }
}

/// Fault lanes on the fuzz zoo's generators: negative payloads, `DISC`
/// and `ILLEGAL` lanes, memories, guards and multi-driver buses.
#[test]
fn fault_lanes_match_the_kernel_on_random_models() {
    use clockless::verify::{generate_hls_model, generate_model};
    for case in 0..HEAVY_CASES {
        let seed = Rng::new(0xFA_0000 + case).next_u64();
        let what = format!("case {case} (seed {seed})");
        assert_lanes_match_kernel(&generate_model(seed), &format!("{what} model"));
        assert_lanes_match_kernel(&generate_hls_model(seed), &format!("{what} HLS model"));
    }
}

/// A synthesized DAG whose campaign spans at least three chunks, the
/// last a partial one: every chunk's walk runs on the state the one
/// before it left.
#[test]
fn fault_lanes_match_the_kernel_across_chunks() {
    let g = random_dag(42, 32, 4);
    let names = g.inputs();
    let inputs: HashMap<&str, i64> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), 3 - 2 * i as i64))
        .collect();
    let model = synthesize(&g, &ResourceSet::unconstrained(&g), &inputs)
        .expect("synthesis")
        .model;
    let config = clockless::verify::CampaignConfig::default();
    let report = clockless::verify::run_campaign(&model, &config).expect("campaign runs");
    assert!(
        report.applicable() > 2 * 64 && !report.applicable().is_multiple_of(64),
        "{} applicable faults fill fewer than three chunks, or no partial one",
        report.applicable()
    );
    assert_lanes_match_kernel(&model, "random_dag(42, 32, 4)");
}

/// The batched campaign's golden run — one compiled walk of the lowered
/// plan at each `-O` level — reports the kernel's final registers and
/// records the checker program the kernel's recording arms (monitor
/// table and mined invariants), or fails with the kernel's error.
fn assert_golden_walk_matches_kernel(model: &RtModel, what: &str) {
    use clockless::verify::{build_checkers, golden_walk, CheckerMode};
    let kernel = Backend::Interpreted
        .execute(model, &ExecOptions::default())
        .map(|out| out.summary.registers)
        .map_err(|e| e.to_string());
    let checkers = build_checkers(model, CheckerMode::All).map_err(|e| e.to_string());
    let plan = ExecPlan::lower(model);
    for level in OptLevel::ALL {
        let walk = golden_walk(&plan, model, CheckerMode::All, level);
        match (walk, &kernel, &checkers) {
            (Ok((summary, program)), Ok(registers), Ok(checkers)) => {
                assert_eq!(&summary.registers, registers, "{what} -O{level}");
                assert_eq!(&program, checkers, "{what} -O{level}");
            }
            (Err(walk), Err(registers), Err(checkers)) => {
                assert_eq!(&walk.to_string(), registers, "{what} -O{level}");
                assert_eq!(&walk.to_string(), checkers, "{what} -O{level}");
            }
            (walk, _, _) => panic!("{what} -O{level}: {walk:?} vs {kernel:?} / {checkers:?}"),
        }
        let plain = golden_walk(&plan, model, CheckerMode::Off, level);
        match (plain, &kernel) {
            (Ok((summary, None)), Ok(registers)) => {
                assert_eq!(&summary.registers, registers, "{what} -O{level} unchecked")
            }
            (Err(walk), Err(registers)) => assert_eq!(&walk.to_string(), registers),
            (plain, _) => panic!("{what} -O{level} unchecked: {plain:?} vs {kernel:?}"),
        }
    }
}

/// The golden walk over every corpus model, both IKS chips and the fuzz
/// zoo's generators.
#[test]
fn golden_walk_records_what_the_kernel_records() {
    use clockless::iks::prelude::*;
    use clockless::verify::{generate_hls_model, generate_model};
    let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/models");
    let mut paths: Vec<_> = std::fs::read_dir(corpus)
        .expect("corpus")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rtl"))
        .collect();
    paths.sort();
    for path in &paths {
        let text = std::fs::read_to_string(path).expect("readable");
        let model = clockless::core::text::parse_model(&text).expect("corpus model parses");
        assert_golden_walk_matches_kernel(&model, &path.display().to_string());
    }
    let constants = IkConstants::new(ArmGeometry::new(1.0, 1.0));
    let ik = build_ik_chip(to_fx(1.0), to_fx(0.5), constants).expect("ik chip");
    assert_golden_walk_matches_kernel(&ik.model, "iks ik chip");
    let samples = [to_fx(0.5), to_fx(1.5), to_fx(-1.0), to_fx(2.0)];
    let coeffs = [to_fx(2.0), to_fx(-0.5), to_fx(0.25), to_fx(1.0)];
    let fir = clockless::iks::build_fir_chip(samples, coeffs).expect("fir chip");
    assert_golden_walk_matches_kernel(&fir, "iks fir chip");
    for case in 0..HEAVY_CASES {
        let seed = Rng::new(0x601D_0000 + case).next_u64();
        let what = format!("case {case} (seed {seed})");
        assert_golden_walk_matches_kernel(&generate_model(seed), &format!("{what} model"));
        let hls = generate_hls_model(seed);
        assert_golden_walk_matches_kernel(&hls, &format!("{what} HLS model"));
    }
}

// ---- Monitor tables: one trajectory, stored as its changes --------------

/// The dense reference recorder: a kernel run that logs the commits of
/// `signals` (`observe_commits`), replayed into one row of end-of-delta
/// values per delta. It is the recording the change log replaced.
fn dense_kernel_rows(
    model: &RtModel,
    signals: &[clockless::core::CheckSignal],
) -> Result<Vec<Vec<Value>>, String> {
    use clockless::core::{elaborate, SignalKind};
    let (mut kernel, layout) = elaborate(model, ElaborateOptions::default());
    kernel.initialize().map_err(|e| e.to_string())?;
    let ids: Vec<_> = (signals.iter())
        .map(|s| match s.kind {
            SignalKind::Register => {
                layout.reg_out[model.register_by_name(&s.name).unwrap().0 as usize]
            }
            SignalKind::Bus => layout.bus[model.bus_by_name(&s.name).unwrap().0 as usize],
            SignalKind::MemoryWord => (model.memories().iter().enumerate())
                .find_map(|(mi, m)| {
                    let i = (0..m.len).find(|&i| m.word_name(i) == s.name)?;
                    Some(layout.mem_word[mi][i as usize])
                })
                .expect("a memory word of the model"),
        })
        .collect();
    let mut row: Vec<Value> = ids.iter().map(|&id| *kernel.value(id)).collect();
    kernel.observe_commits(&ids);
    let deltas = kernel.run().map_err(|e| e.to_string())?.delta_cycles;
    let index: HashMap<_, usize> = ids
        .iter()
        .enumerate()
        .rev()
        .map(|(i, &id)| (id, i))
        .collect();
    let mut log = kernel.commit_log().iter().peekable();
    let mut rows = Vec::new();
    for d in 0..deltas {
        while let Some((_, id, v)) = log.next_if(|(delta, ..)| *delta == d) {
            row[index[id]] = *v;
        }
        rows.push(row.clone());
    }
    Ok(rows)
}

/// The table's row at every delta, from replaying its change log.
fn replayed_rows(table: &clockless::core::MonitorTable) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = Vec::new();
    table.replay(|d, changed, row| {
        let last = rows.last().cloned();
        rows.resize(d as usize, last.unwrap_or_default());
        if d > 0 {
            // A visit lists exactly the signals that moved.
            let moved: Vec<usize> = (0..row.len())
                .filter(|&i| rows[d as usize - 1][i] != row[i])
                .collect();
            assert_eq!(changed, moved, "delta {d}");
        }
        rows.push(row.to_vec());
    });
    let last = rows.last().cloned().unwrap_or_default();
    rows.resize(table.deltas as usize, last);
    rows
}

/// Both recorders' tables — the kernel's and the compiled walk's at every
/// `-O` level — replay, delta by delta, into the rows the dense reference
/// recorder builds from the kernel's raw commit log. Returns how many
/// changes the table logs.
fn assert_tables_replay_the_dense_rows(model: &RtModel, what: &str) -> usize {
    use clockless::core::{check_signals, record_table};
    let signals = check_signals(model);
    let dense = dense_kernel_rows(model, &signals);
    let table = record_table(model, &signals).map_err(|e| e.to_string());
    let (dense, table) = match (dense, table) {
        (Ok(dense), Ok(table)) => (dense, table),
        (Err(dense), Err(table)) => {
            assert_eq!(dense, table, "{what}");
            return 0;
        }
        (dense, table) => panic!("{what}: {dense:?} vs {table:?}"),
    };
    assert_eq!(replayed_rows(&table), dense, "{what}: kernel table");
    let changes: usize = (1..dense.len())
        .map(|d| {
            (0..signals.len())
                .filter(|&i| dense[d - 1][i] != dense[d][i])
                .count()
        })
        .sum();
    let mut logged = 0;
    table.replay(|d, changed, _| logged += if d > 0 { changed.len() } else { 0 });
    assert_eq!(logged, changes, "{what}: only changes are logged");
    let plan = ExecPlan::lower(model);
    for level in OptLevel::ALL {
        let options = ExecOptions::default().at_opt(level);
        let (_, walk) = plan.execute_recorded(&signals, &options).expect("walks");
        assert_eq!(walk, table, "{what}: walk table at -O{level}");
    }
    changes
}

/// The one trajectory over every corpus model, both IKS chips and the
/// fuzz zoo's generators.
#[test]
fn monitor_tables_replay_the_kernels_dense_rows() {
    use clockless::iks::prelude::*;
    use clockless::verify::{generate_hls_model, generate_model};
    let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/models");
    let mut paths: Vec<_> = std::fs::read_dir(corpus)
        .expect("corpus")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rtl"))
        .collect();
    paths.sort();
    let mut changes = 0;
    for path in &paths {
        let text = std::fs::read_to_string(path).expect("readable");
        let model = clockless::core::text::parse_model(&text).expect("corpus model parses");
        changes += assert_tables_replay_the_dense_rows(&model, &path.display().to_string());
    }
    let constants = IkConstants::new(ArmGeometry::new(1.0, 1.0));
    let ik = build_ik_chip(to_fx(1.0), to_fx(0.5), constants).expect("ik chip");
    changes += assert_tables_replay_the_dense_rows(&ik.model, "iks ik chip");
    let samples = [to_fx(0.5), to_fx(1.5), to_fx(-1.0), to_fx(2.0)];
    let coeffs = [to_fx(2.0), to_fx(-0.5), to_fx(0.25), to_fx(1.0)];
    let fir = clockless::iks::build_fir_chip(samples, coeffs).expect("fir chip");
    changes += assert_tables_replay_the_dense_rows(&fir, "iks fir chip");
    for case in 0..HEAVY_CASES {
        let seed = Rng::new(0x7AB1_0000 + case).next_u64();
        let what = format!("case {case} (seed {seed})");
        changes +=
            assert_tables_replay_the_dense_rows(&generate_model(seed), &format!("{what} model"));
        let hls = generate_hls_model(seed);
        changes += assert_tables_replay_the_dense_rows(&hls, &format!("{what} HLS model"));
    }
    assert!(changes > 500, "only {changes} changes logged");
}

// ---- Fleet: one resolution per source -----------------------------------

/// Runs `jobs` as one batch, where jobs sharing a source share its
/// resolution, and each job in a batch of its own: the batch report must
/// equal the solo rows and their merged totals, byte for byte.
fn assert_grouped_matches_alone(jobs: &[JobSpec], what: &str) {
    use clockless::fleet::{run_batch, BatchSpec, FleetReport};
    let grouped = run_batch(
        &BatchSpec {
            jobs: jobs.to_vec(),
        },
        2,
    )
    .expect("batch runs");
    let mut alone = FleetReport {
        jobs: Vec::new(),
        totals: Default::default(),
        workers: grouped.workers,
        elapsed_ns: 0,
    };
    for job in jobs {
        let solo = run_batch(
            &BatchSpec {
                jobs: vec![job.clone()],
            },
            1,
        )
        .expect("batch runs");
        alone.totals.merge(&solo.totals);
        alone.jobs.extend(solo.jobs);
    }
    assert!(grouped.failed_jobs() == 0, "{what}: {grouped}");
    assert_eq!(grouped.to_json(false), alone.to_json(false), "{what}");
}

/// A random register of `names` with a random initial value.
fn arb_override(names: &[String], rng: &mut Rng) -> Vec<(String, i64)> {
    match names.len() {
        0 => Vec::new(),
        n => vec![(names[rng.range(0, n)].clone(), rng.range_i64(-100, 100))],
    }
}

/// One source's stimulus jobs: the model as written, overrides on plain
/// registers and on array elements, one register overridden twice, and
/// a group of two jobs with a `steps` override.
fn stimulus_jobs(source: &JobSource, rng: &mut Rng) -> Vec<JobSpec> {
    let model = JobSpec::new("probe", source.clone())
        .resolve()
        .expect("source resolves");
    let names: Vec<String> = model.registers().iter().map(|r| r.name.clone()).collect();
    let (elements, plain): (Vec<String>, Vec<String>) = names
        .iter()
        .cloned()
        .partition(|n| model.is_array_element(n));
    let mut twice = arb_override(&names, rng);
    if let Some((reg, _)) = twice.first().cloned() {
        twice.extend(arb_override(&names, rng));
        twice.push((reg, rng.range_i64(-100, 100)));
    }
    let steps = Some(model.cs_max() + 2);
    let mut mixed = arb_override(&elements, rng);
    mixed.extend(arb_override(&plain, rng));
    let shapes = [
        ("as_is", None, Vec::new()),
        ("plain", None, arb_override(&plain, rng)),
        ("element", None, arb_override(&elements, rng)),
        ("twice", None, twice),
        ("steps", steps, Vec::new()),
        ("steps_mixed", steps, mixed),
    ];
    shapes
        .into_iter()
        .map(|(name, steps, overrides)| {
            let mut job = JobSpec::new(name, source.clone());
            job.steps = steps;
            job.overrides = overrides;
            job
        })
        .collect()
}

/// A batch resolves each source once and gives each job a copy with its
/// overrides: every corpus file, fuzz-zoo model, HLS and IKS source
/// reports exactly what its jobs report when each runs alone.
#[test]
fn grouped_fleet_jobs_report_what_each_reports_alone() {
    use clockless::core::text::to_text;
    use clockless::fleet::HlsWorkload;
    use clockless::verify::{generate_hls_model, generate_model};
    let mut rng = Rng::new(0xF1EE7);
    let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/models");
    let mut sources: Vec<(String, JobSource)> = std::fs::read_dir(corpus)
        .expect("corpus")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rtl"))
        .map(|p| (p.display().to_string(), JobSource::RtlFile(p)))
        .collect();
    sources.sort_by(|a, b| a.0.cmp(&b.0));
    for case in 0..HEAVY_CASES {
        let seed = Rng::new(0xF1_0000 + case).next_u64();
        for (kind, model) in [
            ("model", generate_model(seed)),
            ("HLS model", generate_hls_model(seed)),
        ] {
            let what = format!("case {case} (seed {seed}) {kind}");
            sources.push((what, JobSource::RtlText(to_text(&model))));
        }
    }
    sources.push((
        "hls fir 3".into(),
        JobSource::Hls(HlsWorkload::Fir { taps: 3 }),
    ));
    sources.push(("iks fir".into(), JobSource::IksFir));
    for (what, source) in &sources {
        assert_grouped_matches_alone(&stimulus_jobs(source, &mut rng), what);
    }
}

// ---- Fleet: one elaboration per group -----------------------------------

/// One source's stimulus batch: a group of 1–9 jobs with random
/// overrides (array elements included), one of them under a random tight
/// budget, one naming an unknown register, and a two-job group with a
/// `steps` override.
fn elaboration_jobs(source: &JobSource, rng: &mut Rng) -> Vec<JobSpec> {
    let model = JobSpec::new("probe", source.clone())
        .resolve()
        .expect("source resolves");
    let names: Vec<String> = model.registers().iter().map(|r| r.name.clone()).collect();
    let elements: Vec<String> = names
        .iter()
        .filter(|n| model.is_array_element(n))
        .cloned()
        .collect();
    let mut jobs = Vec::new();
    for i in 0..rng.range(1, 10) {
        let mut job = JobSpec::new(format!("g{i}"), source.clone());
        for _ in 0..rng.range(0, 3) {
            job.overrides.extend(arb_override(&names, rng));
        }
        if rng.bool() {
            job.overrides.extend(arb_override(&elements, rng));
        }
        jobs.push(job);
    }
    // Around the `1 + 6 × CS_MAX` lower bound: refused before the run,
    // stopped by the kernel's own limit on a flush delta, or finished.
    let least = 1 + 6 * u64::from(model.cs_max());
    let budgeted = rng.range(0, jobs.len());
    jobs[budgeted].delta_budget = Some(least - 1 + rng.range(0, 4) as u64);
    let mut unknown = JobSpec::new("unknown", source.clone());
    unknown.overrides = vec![("NO_SUCH_REGISTER".into(), 1)];
    jobs.push(unknown);
    for i in 0..2 {
        let mut job = JobSpec::new(format!("steps{i}"), source.clone());
        job.steps = Some(model.cs_max() + 2);
        job.overrides = arb_override(&names, rng);
        // The last array element (`guarded.rtl`'s `H[1]`), in a group
        // of two whatever the size of the first.
        if let Some(last) = elements.last() {
            job.overrides.push((last.clone(), rng.range_i64(-100, 100)));
        }
        jobs.push(job);
    }
    jobs
}

/// `jobs` with every job given a source text of its own: no two share a
/// group, so each elaborates its own model.
fn ungroupable(jobs: &[JobSpec]) -> Vec<JobSpec> {
    use clockless::core::text::to_text;
    let mut base: HashMap<String, String> = HashMap::new();
    jobs.iter()
        .enumerate()
        .map(|(i, job)| {
            let probe = JobSpec {
                overrides: Vec::new(),
                steps: None,
                ..job.clone()
            };
            let text = base
                .entry(format!("{:?}", job.source))
                .or_insert_with(|| to_text(&probe.resolve().expect("source resolves")));
            JobSpec {
                source: JobSource::RtlText(format!("{text}# job {i}\n")),
                ..job.clone()
            }
        })
        .collect()
}

/// Kernel jobs run on copies of their group's one elaboration: a batch
/// must report, byte for byte, what the same jobs report when no two
/// share a group, and what the compiled engine reports — budgets,
/// retries and build failures included, at 1 and 3 workers.
#[test]
fn shared_elaborations_report_what_own_elaborations_report() {
    use clockless::core::Backend;
    use clockless::fleet::{run_batch_with, BatchSpec, FleetConfig};
    use clockless::verify::{generate_hls_model, generate_model};
    let mut rng = Rng::new(0xE1AB);
    let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/models");
    let mut sources: Vec<(String, JobSource)> = std::fs::read_dir(corpus)
        .expect("corpus")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rtl"))
        .map(|p| (p.display().to_string(), JobSource::RtlFile(p)))
        .collect();
    sources.sort_by(|a, b| a.0.cmp(&b.0));
    sources.push(("iks ik".into(), JobSource::IksIk { x: 1.0, y: 0.5 }));
    sources.push(("iks fir".into(), JobSource::IksFir));
    for case in 0..HEAVY_CASES {
        let seed = Rng::new(0xE1_0000 + case).next_u64();
        for (kind, model) in [
            ("model", generate_model(seed)),
            ("HLS model", generate_hls_model(seed)),
        ] {
            let text = clockless::core::text::to_text(&model);
            sources.push((
                format!("case {case} (seed {seed}) {kind}"),
                JobSource::RtlText(text),
            ));
        }
    }
    let kernel = FleetConfig {
        max_retries: 1,
        ..FleetConfig::default()
    };
    let compiled = FleetConfig {
        backend: Some(Backend::Compiled),
        ..kernel.clone()
    };
    let mut retried = 0;
    for (what, source) in &sources {
        let jobs = elaboration_jobs(source, &mut rng);
        let grouped = BatchSpec { jobs: jobs.clone() };
        let alone = BatchSpec {
            jobs: ungroupable(&jobs),
        };
        let reference = run_batch_with(&alone, 1, &kernel).expect("batch runs");
        assert!(
            reference.failed_jobs() >= 1,
            "{what}: the unknown name fails"
        );
        retried += reference.totals.retries;
        let expected = reference.to_json(false);
        for workers in [1, 3] {
            for (label, spec, config) in [
                ("grouped", &grouped, &kernel),
                ("own elaborations", &alone, &kernel),
                ("compiled", &grouped, &compiled),
            ] {
                let report = run_batch_with(spec, workers, config).expect("batch runs");
                assert_eq!(
                    report.to_json(false),
                    expected,
                    "{what}: {label}, {workers} workers"
                );
            }
        }
    }
    assert!(retried > 0, "a budgeted job failed and was retried");
}
