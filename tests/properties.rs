//! Property-based tests over the core data structures and invariants.
//!
//! The generators are hand-rolled on a deterministic splitmix64 stream so
//! the suite runs with zero external crates (tier-1 is offline). Every
//! failure message includes the case seed, which reproduces the case when
//! fed back through the same generator. The `slow-tests` feature raises
//! the iteration counts; the default counts keep `cargo test -q` quick.

use std::collections::HashMap;

use clockless::core::prelude::*;
use clockless::core::{resolve, Endpoint, TransferTuple};
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

/// A synthesized DAG with more than one chunk of applicable faults.
#[test]
fn fault_lanes_match_the_kernel_across_chunks() {
    let g = random_dag(42, 24, 4);
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
        report.applicable() > 64,
        "{} applicable faults fill one chunk",
        report.applicable()
    );
    assert_lanes_match_kernel(&model, "random_dag(42, 24, 4)");
}
