//! Automatic verification of synthesis results.
//!
//! §4: "High level synthesis results are translated into our subset …
//! Formal semantics of initial algorithmic description and resulting
//! register transfer level description are defined. An automatic proving
//! procedure has been implemented, that performs the verification task."
//!
//! [`verify_synthesis`] is that procedure: the emitted RT model is run
//! **symbolically** with the design's inputs as variables; each output
//! register's expression is normalized and compared against the
//! normalized dataflow-graph expression. Operations outside the
//! polynomial fragment fall back to structural comparison plus randomized
//! concrete testing ([`concrete_check`]).
//!
//! The module also carries the **backend differential obligation**:
//! [`backend_equiv`] runs a model on both execution engines — the
//! interpreted delta kernel and the compiled phase-schedule walker — and
//! checks every observable (registers, statistics, conflicts, commit
//! log, VCD, and even error text) for byte identity.

use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use clockless_core::{Backend, ExecOptions, OptLevel, RtModel, RtSimulation, Value};
use clockless_hls::{Dfg, Operand, Synthesized, ValueId};

use crate::normalize::equivalent;
use crate::symbolic::{symbolic_run, Expr, SymbolicError};

/// Outcome of verifying one output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutputVerdict {
    /// The normal forms match: proven equivalent (over wrapping `i64`).
    Proven,
    /// The normal forms differ but every concrete test agreed — only
    /// possible when opaque operations are involved.
    TestedOnly,
    /// A concrete disagreement was found: definitely wrong.
    Refuted {
        /// The inputs exhibiting the disagreement.
        inputs: Vec<(String, i64)>,
        /// The value the RT model computed.
        got: i64,
        /// The value the algorithmic description computes.
        expected: i64,
    },
}

/// Report of verifying a synthesized design against its dataflow graph.
#[derive(Debug, Clone)]
pub struct SynthesisVerification {
    /// Per-output verdicts.
    pub outputs: Vec<(String, OutputVerdict)>,
}

impl SynthesisVerification {
    /// `true` when every output is proven or at least never refuted.
    pub fn passed(&self) -> bool {
        self.outputs
            .iter()
            .all(|(_, v)| !matches!(v, OutputVerdict::Refuted { .. }))
    }

    /// `true` when every output's equivalence was proven by
    /// normalization.
    pub fn fully_proven(&self) -> bool {
        self.outputs
            .iter()
            .all(|(_, v)| matches!(v, OutputVerdict::Proven))
    }
}

impl fmt::Display for SynthesisVerification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, v) in &self.outputs {
            match v {
                OutputVerdict::Proven => writeln!(f, "output `{name}`: proven equivalent")?,
                OutputVerdict::TestedOnly => {
                    writeln!(f, "output `{name}`: equivalent on all tests (opaque ops)")?
                }
                OutputVerdict::Refuted {
                    inputs,
                    got,
                    expected,
                } => writeln!(
                    f,
                    "output `{name}`: REFUTED at {inputs:?} (rt {got} vs algorithm {expected})"
                )?,
            }
        }
        Ok(())
    }
}

/// Errors from the verification procedure itself.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VerifyError {
    /// Symbolic simulation failed.
    Symbolic(SymbolicError),
    /// An output register ended the run undefined.
    UndefinedOutput(String),
    /// Concrete simulation failed.
    Simulation(String),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Symbolic(e) => write!(f, "symbolic simulation failed: {e}"),
            VerifyError::UndefinedOutput(o) => {
                write!(f, "output register `{o}` is undefined after the run")
            }
            VerifyError::Simulation(e) => write!(f, "concrete simulation failed: {e}"),
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<SymbolicError> for VerifyError {
    fn from(e: SymbolicError) -> Self {
        VerifyError::Symbolic(e)
    }
}

/// Converts a dataflow graph's outputs into symbolic expressions over
/// its primary inputs.
pub fn dfg_expressions(dfg: &Dfg) -> Result<HashMap<String, Rc<Expr>>, SymbolicError> {
    let mut node_expr: Vec<Rc<Expr>> = Vec::with_capacity(dfg.len());
    for node in dfg.nodes() {
        let fetch = |o: &Operand| -> Rc<Expr> {
            match o {
                Operand::Node(n) => node_expr[n.index()].clone(),
                Operand::Input(name) => Expr::var(name.clone()),
                Operand::Const(c) => Expr::constant(*c),
            }
        };
        let mut args = vec![fetch(&node.a)];
        if let Some(b) = &node.b {
            args.push(fetch(b));
        }
        node_expr.push(Expr::apply(node.op, args)?);
    }
    Ok(dfg
        .outputs()
        .iter()
        .map(|(name, n)| (name.clone(), node_expr[n.index()].clone()))
        .collect())
}

/// Deterministic pseudo-random input vectors for concrete testing.
fn test_vectors(vars: &[String], rounds: usize) -> Vec<HashMap<String, i64>> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
        state
    };
    (0..rounds)
        .map(|_| {
            vars.iter()
                .map(|v| (v.clone(), (next() % 2001) as i64 - 1000))
                .collect()
        })
        .collect()
}

/// Verifies a synthesized design against its dataflow graph.
///
/// The RT model runs symbolically with the input-holding registers bound
/// to variables named after the inputs; each output register's final
/// expression is compared to the graph's expression by normalization,
/// with `test_rounds` rounds of concrete evaluation as a fallback
/// discriminator for opaque operations.
///
/// # Errors
///
/// [`VerifyError`] when simulation itself fails (the *verdicts* for
/// mismatching outputs are reported in the result, not as errors).
pub fn verify_synthesis(
    dfg: &Dfg,
    synthesized: &Synthesized,
    test_rounds: usize,
) -> Result<SynthesisVerification, VerifyError> {
    // Bind every input-hosting register to a variable named after the
    // input (overriding the concrete preload the emitter installed).
    let mut bindings: HashMap<String, Rc<Expr>> = HashMap::new();
    for (v, reg) in &synthesized.allocation.register_of {
        if let ValueId::Input(name) = v {
            bindings.insert(format!("r{reg}"), Expr::var(name.clone()));
        }
    }
    let final_state = symbolic_run(&synthesized.model, &bindings)?;
    let reference = dfg_expressions(dfg)?;

    let mut outputs = Vec::new();
    for (name, reg) in &synthesized.output_registers {
        let got = final_state
            .get(reg)
            .ok_or_else(|| VerifyError::UndefinedOutput(reg.clone()))?;
        let want = &reference[name];
        if equivalent(got, want) {
            outputs.push((name.clone(), OutputVerdict::Proven));
            continue;
        }
        // Opaque-operation fallback: concrete testing.
        let mut vars = got.variables();
        for v in want.variables() {
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        let mut verdict = OutputVerdict::TestedOnly;
        for env in test_vectors(&vars, test_rounds.max(1)) {
            let g = got.eval(&env);
            let w = want.eval(&env);
            match (g, w) {
                (Ok(g), Ok(w)) if g == w => {}
                (Ok(g), Ok(w)) => {
                    verdict = OutputVerdict::Refuted {
                        inputs: env.into_iter().collect(),
                        got: g,
                        expected: w,
                    };
                    break;
                }
                // Illegal on either side for this vector: skip it (e.g.
                // a shift amount out of range for random data).
                _ => {}
            }
        }
        outputs.push((name.clone(), verdict));
    }
    outputs.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(SynthesisVerification { outputs })
}

/// End-to-end concrete check: simulates the synthesized model and
/// compares every output register against the graph's evaluator for the
/// inputs the model was emitted with.
///
/// # Errors
///
/// [`VerifyError::Simulation`] when elaboration/simulation fails.
pub fn concrete_check(
    dfg: &Dfg,
    synthesized: &Synthesized,
    inputs: &HashMap<&str, i64>,
) -> Result<bool, VerifyError> {
    let mut sim = RtSimulation::new(&synthesized.model)
        .map_err(|e| VerifyError::Simulation(e.to_string()))?;
    let summary = sim
        .run_to_completion()
        .map_err(|e| VerifyError::Simulation(e.to_string()))?;
    let reference = dfg
        .evaluate(inputs)
        .map_err(|e| VerifyError::Simulation(e.to_string()))?;
    for (name, reg) in &synthesized.output_registers {
        if summary.register(reg) != Some(Value::Num(reference[name])) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// A divergence between the two execution backends on one model: the
/// differential obligation of the backend layer failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendDivergence {
    /// The model that exposed the divergence.
    pub model: String,
    /// Which observable differed (`"registers"`, `"stats"`,
    /// `"conflicts"`, `"commits"`, `"vcd"`, or `"error"`).
    pub field: &'static str,
    /// The interpreted engine's rendering of that observable.
    pub interpreted: String,
    /// The compiled engine's rendering of that observable.
    pub compiled: String,
}

impl fmt::Display for BackendDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "backends diverge on `{}` in {}: interpreted {} vs compiled {}",
            self.model, self.field, self.interpreted, self.compiled
        )
    }
}

impl std::error::Error for BackendDivergence {}

/// Differentially runs `model` on the interpreted and the compiled
/// backend — once traced, once untraced, the compiled engine swept over
/// **every optimization level** (`-O0`, `-O1`, `-O2`) — and checks every
/// observable for byte identity: final registers, kernel statistics,
/// conflict diagnoses (exact site, step and phase), the register-commit
/// log, the VCD waveform, and, when a run fails, the rendered error
/// itself.
///
/// This is the proof obligation the pluggable-backend layer carries: the
/// compiled phase-schedule engine and its optimizing plan compiler may
/// take any shortcut they like, but every level must be *observationally
/// indistinguishable* from the paper's VHDL delta semantics. CI runs
/// this over the `.rtl` corpus, the HLS workloads, the IKS chips and
/// every fault-campaign mutant.
///
/// # Errors
///
/// The first [`BackendDivergence`] found, naming the differing field and
/// both renderings.
///
/// # Examples
///
/// ```
/// use clockless_core::model::fig1_model;
/// use clockless_verify::backend_equiv;
///
/// backend_equiv(&fig1_model(3, 4))?;
/// # Ok::<(), clockless_verify::equiv::BackendDivergence>(())
/// ```
pub fn backend_equiv(model: &RtModel) -> Result<(), BackendDivergence> {
    for options in [ExecOptions::traced(), ExecOptions::default()] {
        for level in OptLevel::ALL {
            backend_equiv_with(model, &options.at_opt(level))?;
        }
    }
    Ok(())
}

/// The single-configuration core of [`backend_equiv`].
fn backend_equiv_with(model: &RtModel, options: &ExecOptions) -> Result<(), BackendDivergence> {
    let diverge = |field: &'static str, interpreted: String, compiled: String| BackendDivergence {
        model: model.name().to_string(),
        field,
        interpreted,
        compiled,
    };
    let interp = Backend::Interpreted.execute(model, options);
    let compiled = Backend::Compiled.execute(model, options);
    match (interp, compiled) {
        (Err(a), Err(b)) => {
            if a.to_string() != b.to_string() {
                return Err(diverge("error", a.to_string(), b.to_string()));
            }
            Ok(())
        }
        (Ok(_), Err(b)) => Err(diverge("error", "run completed".into(), b.to_string())),
        (Err(a), Ok(_)) => Err(diverge("error", a.to_string(), "run completed".into())),
        (Ok(a), Ok(b)) => {
            if a.summary.registers != b.summary.registers {
                return Err(diverge(
                    "registers",
                    format!("{:?}", a.summary.registers),
                    format!("{:?}", b.summary.registers),
                ));
            }
            if a.summary.stats != b.summary.stats {
                return Err(diverge(
                    "stats",
                    format!("{:?}", a.summary.stats),
                    format!("{:?}", b.summary.stats),
                ));
            }
            if a.summary.conflicts != b.summary.conflicts {
                return Err(diverge(
                    "conflicts",
                    format!("{:?}", a.summary.conflicts),
                    format!("{:?}", b.summary.conflicts),
                ));
            }
            let (ac, bc) = (a.commits(), b.commits());
            if ac != bc {
                return Err(diverge("commits", format!("{ac:?}"), format!("{bc:?}")));
            }
            let (av, bv) = (a.vcd(), b.vcd());
            if av != bv {
                return Err(diverge(
                    "vcd",
                    av.unwrap_or_else(|| "<none>".into()),
                    bv.unwrap_or_else(|| "<none>".into()),
                ));
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockless_core::Op;
    use clockless_hls::{synthesize, ResourceSet};

    fn verify_graph(g: &Dfg, inputs: &[(&str, i64)]) -> SynthesisVerification {
        let resources = ResourceSet::unconstrained(g);
        let map: HashMap<&str, i64> = inputs.iter().copied().collect();
        let syn = synthesize(g, &resources, &map).expect("synthesis");
        assert!(concrete_check(g, &syn, &map).expect("simulates"));
        verify_synthesis(g, &syn, 16).expect("verification runs")
    }

    #[test]
    fn polynomial_design_is_proven() {
        let mut g = Dfg::new("poly");
        let s = g.node(Op::Add, "a", "b").unwrap();
        let d = g.node(Op::Sub, s, "c").unwrap();
        let m = g.node(Op::Mul, s, d).unwrap();
        g.output("out", m).unwrap();
        let report = verify_graph(&g, &[("a", 1), ("b", 2), ("c", 3)]);
        assert!(report.fully_proven(), "{report}");
    }

    #[test]
    fn opaque_design_is_tested() {
        let mut g = Dfg::new("opaque");
        let m = g.node(Op::Min, "a", "b").unwrap();
        let s = g.node(Op::Add, m, "c").unwrap();
        g.output("out", s).unwrap();
        let report = verify_graph(&g, &[("a", 5), ("b", 2), ("c", 1)]);
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn diffeq_benchmark_is_proven() {
        let g = clockless_hls::diffeq();
        let report = verify_graph(&g, &[("x", 1), ("y", 2), ("u", 3), ("dx", 1)]);
        assert!(report.fully_proven(), "{report}");
    }

    #[test]
    fn broken_model_is_refuted() {
        // Synthesize a correct model, then sabotage it: swap the graph
        // against a different one and verify — must be refuted.
        let mut g = Dfg::new("good");
        let s = g.node(Op::Add, "a", "b").unwrap();
        g.output("out", s).unwrap();
        let resources = ResourceSet::unconstrained(&g);
        let map: HashMap<&str, i64> = [("a", 1), ("b", 2)].into_iter().collect();
        let syn = synthesize(&g, &resources, &map).unwrap();

        let mut wrong = Dfg::new("wrong");
        let d = wrong.node(Op::Sub, "a", "b").unwrap();
        wrong.output("out", d).unwrap();
        let report = verify_synthesis(&wrong, &syn, 8).unwrap();
        assert!(!report.passed(), "{report}");
        assert!(matches!(report.outputs[0].1, OutputVerdict::Refuted { .. }));
    }

    #[test]
    fn backends_agree_on_the_rtl_corpus() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../models");
        let mut checked = 0;
        for entry in std::fs::read_dir(dir).expect("models directory") {
            let path = entry.expect("entry").path();
            if path.extension().and_then(|e| e.to_str()) != Some("rtl") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("readable");
            let model = clockless_core::text::parse_model(&text)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            backend_equiv(&model).unwrap_or_else(|d| panic!("{}: {d}", path.display()));
            checked += 1;
        }
        assert!(checked >= 5, "corpus shrank to {checked} models");
    }

    #[test]
    fn backends_agree_on_hls_workloads() {
        let graphs = [
            clockless_hls::fir(&[1, 3, 5, 7]),
            clockless_hls::horner(&[2, -1, 4]),
            clockless_hls::diffeq(),
            clockless_hls::random_dag(42, 24, 4),
        ];
        for g in &graphs {
            let resources = ResourceSet::unconstrained(g);
            let names = g.inputs();
            let inputs: HashMap<&str, i64> = names
                .iter()
                .enumerate()
                .map(|(i, n)| (n.as_str(), i as i64 + 1))
                .collect();
            let syn = synthesize(g, &resources, &inputs).expect("synthesis");
            backend_equiv(&syn.model).unwrap_or_else(|d| panic!("{}: {d}", g.name()));
        }
        // The same 24-node DAG under 2 units per class shares its buses
        // widely: resolution over many drivers at every opt level.
        let wide = crate::wide_bus_dag();
        let width = crate::widest_bus(&wide);
        assert!(width >= 24, "widest bus has only {width} drivers");
        backend_equiv(&wide).unwrap_or_else(|d| panic!("wide-bus dag: {d}"));
    }

    #[test]
    fn backends_agree_on_the_iks_chips() {
        use clockless_iks::prelude::*;
        let constants = IkConstants::new(ArmGeometry::new(1.0, 1.0));
        let ik = build_ik_chip(to_fx(1.0), to_fx(1.0), constants)
            .expect("ik chip")
            .model;
        backend_equiv(&ik).expect("ik chip equivalence");

        let samples = [to_fx(0.5), to_fx(1.5), to_fx(-1.0), to_fx(2.0)];
        let coeffs = [to_fx(2.0), to_fx(-0.5), to_fx(0.25), to_fx(1.0)];
        let fir = clockless_iks::build_fir_chip(samples, coeffs).expect("fir chip");
        backend_equiv(&fir).expect("fir chip equivalence");
    }

    #[test]
    fn backends_agree_on_every_fault_mutant() {
        use crate::faults::{generate_faults, CampaignConfig};
        use clockless_core::model::fig1_model;

        let model = fig1_model(3, 4);
        let faults = generate_faults(&model, &CampaignConfig::default());
        assert!(!faults.is_empty());
        for fault in faults {
            let mutant = fault.apply(&model).expect("applies");
            backend_equiv(&mutant).unwrap_or_else(|d| panic!("{fault}: {d}"));
        }
    }

    #[test]
    fn backend_divergence_display_names_the_field() {
        let d = BackendDivergence {
            model: "m".into(),
            field: "stats",
            interpreted: "a".into(),
            compiled: "b".into(),
        };
        assert_eq!(
            d.to_string(),
            "backends diverge on `m` in stats: interpreted a vs compiled b"
        );
    }

    #[test]
    fn dfg_expressions_match_evaluator() {
        let g = clockless_hls::fir(&[1, 2, 3]);
        let exprs = dfg_expressions(&g).unwrap();
        let env: HashMap<String, i64> = [("x0", 7i64), ("x1", -2), ("x2", 10)]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        let inputs: HashMap<&str, i64> = [("x0", 7), ("x1", -2), ("x2", 10)].into_iter().collect();
        let direct = g.evaluate(&inputs).unwrap();
        assert_eq!(exprs["y"].eval(&env).unwrap(), direct["y"]);
    }
}
