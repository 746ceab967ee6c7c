//! Seeded differential fuzzing over the whole construct surface.
//!
//! Two deterministic generators produce thousands of small models —
//! random tuple soups drawing on every storage kind (plain registers,
//! register arrays, memories with constant and register-indirect
//! addressing) and guarded transfers, plus random dataflow graphs pushed
//! through the HLS pipeline and decorated with random guards. Every model
//! is then held against a battery of oracles:
//!
//! 1. **Backend equivalence** — a three-way differential: the
//!    interpreted delta kernel against the compiled phase-schedule
//!    walker at **every optimization level** (`-O0` with every pass off,
//!    `-O1` specialized, `-O2` folded with dead spurs eliminated), all
//!    byte-identical on every observable
//!    ([`crate::equiv::backend_equiv`]).
//! 2. **Text round trip** — the canonical `.rtl` rendering must re-parse
//!    to the identical canonical rendering.
//! 3. **VHDL round trip** — the §2.7 emission must re-import to the same
//!    declarations and tuples.
//! 4. **Clocked + handshake equivalence** — when the model is inside the
//!    §4 subset (no memories, step-exclusive routing), the clocked
//!    translation and the 4-phase handshake rendering must commit the
//!    same values ([`clockless_clocked::check_clocked_equivalence`]).
//!
//! Any disagreement is a real bug in one of the layers and is reported
//! as a [`FuzzDivergence`] carrying the seed that reproduces it.

use std::collections::HashMap;
use std::fmt;

use clockless_clocked::{
    check_clocked_equivalence, check_handshake_equivalence, ClockScheme, ClockedDesign,
};
use clockless_core::text::{parse_model, to_text};
use clockless_core::vhdl::emit_vhdl;
use clockless_core::{
    CmpOp, ConflictSite, Guard, GuardClause, GuardOperand, ModuleDecl, ModuleTiming, Op, RtModel,
    Step, TransferTuple, Value,
};
use clockless_hls::{synthesize, ResourceSet};

use crate::equiv::backend_equiv;
use crate::vhdl_import::model_from_vhdl;

/// splitmix64 — the same tiny deterministic generator the fault
/// campaign uses for its sampling decisions.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// Uniform draw from `lo..=hi`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    /// True with probability `num`/`den`.
    fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// Builds a random guard over `regs` (plain registers and array
/// elements — anything [`Guard::registers`] may legally name).
fn gen_guard(rng: &mut Rng, regs: &[String]) -> Guard {
    const CMPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    let nclauses = 1 + rng.below(2);
    let clauses = (0..nclauses)
        .map(|_| GuardClause {
            lhs: GuardOperand::Reg(rng.pick(regs).clone()),
            cmp: *rng.pick(&CMPS),
            rhs: if rng.chance(1, 3) {
                GuardOperand::Reg(rng.pick(regs).clone())
            } else {
                GuardOperand::Const(rng.range(-4, 4))
            },
        })
        .collect();
    Guard {
        negated: rng.chance(1, 4),
        clauses,
    }
}

/// Generates a random tuple-soup model from `seed`. The same seed always
/// yields the same model.
///
/// The soup draws from every construct the front end knows: plain
/// registers, a register array, a memory (with both constant-indexed and
/// register-indirect endpoints), multi-op modules of all three timing
/// classes, and guarded transfers. Tuples are placed by rejection
/// sampling against [`RtModel::add_transfer`] validation, so the result
/// is always a well-formed model (possibly with *runtime* bus conflicts,
/// which the engines must diagnose identically).
pub fn generate_model(seed: u64) -> RtModel {
    let mut rng = Rng::new(seed);
    let steps = 3 + rng.below(6) as Step; // 3..=8
    let mut m = RtModel::new(format!("fuzz_{seed}"), steps);

    let nregs = 2 + rng.below(4); // 2..=5
    for i in 0..nregs {
        m.add_register_init(format!("R{i}"), Value::Num(rng.range(-8, 8)))
            .expect("fresh register");
    }
    // `storage` holds read/write endpoints; `guardable` the names a guard
    // may compare (memory words are not registers, so they stay out).
    let mut storage: Vec<String> = (0..nregs).map(|i| format!("R{i}")).collect();
    if rng.chance(1, 2) {
        let len = 2 + rng.below(2) as u32;
        m.add_array("A", len, Value::Num(rng.range(0, 9)))
            .expect("fresh array");
        storage.extend((0..len).map(|i| format!("A[{i}]")));
    }
    let guardable = storage.clone();
    if rng.chance(1, 3) {
        let len = 2 + rng.below(3) as u32;
        m.add_memory("M", len, Value::Num(rng.range(0, 9)))
            .expect("fresh memory");
        storage.extend((0..len).map(|i| format!("M[{i}]")));
        // One register-indirect port; the register's runtime value may
        // stray out of range, exercising the poisoning semantics.
        storage.push(format!("M[R{}]", rng.below(nregs)));
    }

    let nbuses = 3 + rng.below(3);
    for i in 0..nbuses {
        m.add_bus(format!("B{i}")).expect("fresh bus");
    }

    const BINARY: [Op; 4] = [Op::Add, Op::Sub, Op::Mul, Op::Min];
    let nmods = 1 + rng.below(2);
    let mut mod_ops: Vec<Vec<Op>> = Vec::new();
    for i in 0..nmods {
        let timing = match rng.below(4) {
            0 => ModuleTiming::Pipelined {
                latency: 1 + rng.below(2) as u32,
            },
            1 => ModuleTiming::Sequential {
                latency: 1 + rng.below(2) as u32,
            },
            _ => ModuleTiming::Combinational,
        };
        let mut ops = vec![*rng.pick(&BINARY)];
        if rng.chance(1, 2) {
            ops.push(Op::PassA);
        }
        ops.dedup();
        mod_ops.push(ops.clone());
        m.add_module(ModuleDecl::multi(format!("F{i}"), ops, timing))
            .expect("fresh module");
    }

    let want = 2 + rng.below(5);
    let mut placed = 0;
    for _ in 0..60 {
        if placed >= want {
            break;
        }
        let mi = rng.below(nmods) as usize;
        let latency = m.modules()[mi].timing.latency();
        let max_read = steps.saturating_sub(latency);
        if max_read < 1 {
            continue;
        }
        let read_step = 1 + rng.below(max_read as u64) as Step;
        let op = *rng.pick(&mod_ops[mi]);
        let mut t = TransferTuple::new(read_step, format!("F{mi}"));
        if mod_ops[mi].len() > 1 {
            t = t.op(op);
        }
        t = t.src_a(
            rng.pick(&storage).clone(),
            format!("B{}", rng.below(nbuses)),
        );
        if op != Op::PassA {
            t = t.src_b(
                rng.pick(&storage).clone(),
                format!("B{}", rng.below(nbuses)),
            );
        }
        if rng.chance(3, 4) {
            t = t.write(
                read_step + latency,
                format!("B{}", rng.below(nbuses)),
                rng.pick(&storage).clone(),
            );
        }
        if rng.chance(1, 2) {
            t = t.guard(gen_guard(&mut rng, &guardable));
        }
        if m.add_transfer(t).is_ok() {
            placed += 1;
        }
    }
    if placed == 0 {
        // Degenerate draw: fall back to one guaranteed-valid transfer.
        let latency = m.modules()[0].timing.latency();
        let t = TransferTuple::new(1, "F0")
            .op(mod_ops[0][0])
            .src_a("R0", "B0")
            .src_b("R1", "B1")
            .write(1 + latency, "B2", "R0");
        m.add_transfer(t).expect("fallback transfer");
    }
    m
}

/// Generates a random dataflow graph, synthesizes it through the HLS
/// pipeline, and decorates some of the resulting transfers with random
/// guards — the "guarded DFG" half of the fuzz population.
pub fn generate_hls_model(seed: u64) -> RtModel {
    let mut rng = Rng::new(seed ^ 0xD1F7_F00D_5EED_CAFE);
    let nodes = 4 + rng.below(10) as usize;
    let inputs = 2 + rng.below(3) as usize;
    let g = clockless_hls::random_dag(seed | 1, nodes, inputs);
    let names = g.inputs();
    let values: HashMap<&str, i64> = names
        .iter()
        .map(|n| (n.as_str(), rng.range(-50, 50)))
        .collect();
    let resources = ResourceSet::unconstrained(&g);
    let syn = synthesize(&g, &resources, &values).expect("random DAG synthesizes");
    let mut model = syn.model;
    let regs: Vec<String> = model.registers().iter().map(|r| r.name.clone()).collect();
    for i in 0..model.tuples().len() {
        if rng.chance(1, 3) {
            let mut t = model.tuples()[i].clone();
            t.guard = Some(gen_guard(&mut rng, &regs));
            model
                .replace_transfer_unchecked(i, t)
                .expect("guard decoration keeps the tuple valid");
        }
    }
    model
}

/// One disagreement found by the campaign: the seed reproduces it,
/// `oracle` names the check that failed, and `model` carries the full
/// canonical `.rtl` text of the offending model.
#[derive(Debug, Clone)]
pub struct FuzzDivergence {
    /// The per-case seed (`base_seed + index`).
    pub seed: u64,
    /// Which oracle disagreed: `backend`, `text-parse`, `text-roundtrip`,
    /// `vhdl-emit`, `vhdl-parse`, `vhdl-roundtrip`, `clocked` or
    /// `handshake`.
    pub oracle: &'static str,
    /// Canonical text of the model that exposed the divergence.
    pub model: String,
    /// The oracle's own rendering of the disagreement.
    pub detail: String,
}

impl fmt::Display for FuzzDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed {}: oracle `{}` diverged: {}",
            self.seed, self.oracle, self.detail
        )
    }
}

/// Outcome of a fuzz campaign.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Models generated and checked.
    pub checked: usize,
    /// How many came from the HLS pipeline (the rest are tuple soups).
    pub hls_models: usize,
    /// How many carried at least one guarded transfer.
    pub guarded_models: usize,
    /// How many declared a memory.
    pub memory_models: usize,
    /// How many declared a register array.
    pub array_models: usize,
    /// How many also ran the clocked + handshake equivalence legs
    /// (models inside the §4 subset).
    pub clocked_checked: usize,
    /// Divergences found (capped at [`FuzzReport::MAX_KEPT`] kept
    /// instances; `divergence_count` keeps the true total).
    pub divergences: Vec<FuzzDivergence>,
    /// Total number of divergences observed.
    pub divergence_count: usize,
}

impl FuzzReport {
    /// At most this many divergences are kept in full.
    pub const MAX_KEPT: usize = 20;

    /// `true` when every oracle agreed on every model.
    pub fn clean(&self) -> bool {
        self.divergence_count == 0
    }

    fn record(&mut self, d: FuzzDivergence) {
        self.divergence_count += 1;
        if self.divergences.len() < Self::MAX_KEPT {
            self.divergences.push(d);
        }
    }

    /// Renders the report as a JSON object.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let esc = |s: &str| {
            s.chars()
                .flat_map(|c| match c {
                    '"' => "\\\"".chars().collect::<Vec<_>>(),
                    '\\' => "\\\\".chars().collect(),
                    '\n' => "\\n".chars().collect(),
                    c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
                    c => vec![c],
                })
                .collect::<String>()
        };
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"checked\": {},", self.checked);
        let _ = writeln!(out, "  \"hls_models\": {},", self.hls_models);
        let _ = writeln!(out, "  \"guarded_models\": {},", self.guarded_models);
        let _ = writeln!(out, "  \"memory_models\": {},", self.memory_models);
        let _ = writeln!(out, "  \"array_models\": {},", self.array_models);
        let _ = writeln!(out, "  \"clocked_checked\": {},", self.clocked_checked);
        let _ = writeln!(out, "  \"divergence_count\": {},", self.divergence_count);
        let _ = writeln!(out, "  \"divergences\": [");
        for (i, d) in self.divergences.iter().enumerate() {
            let comma = if i + 1 < self.divergences.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "    {{\"seed\": {}, \"oracle\": \"{}\", \"detail\": \"{}\"}}{comma}",
                d.seed,
                d.oracle,
                esc(&d.detail)
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

impl fmt::Display for FuzzReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fuzzed {} models ({} hls, {} guarded, {} with memories, {} with arrays, {} clocked-checked)",
            self.checked,
            self.hls_models,
            self.guarded_models,
            self.memory_models,
            self.array_models,
            self.clocked_checked,
        )?;
        if self.clean() {
            writeln!(f, "no divergences")
        } else {
            writeln!(f, "{} DIVERGENCE(S):", self.divergence_count)?;
            for d in &self.divergences {
                writeln!(f, "  {d}")?;
            }
            Ok(())
        }
    }
}

/// Runs every oracle against one model, reporting the first divergence
/// per oracle family. Returns whether the clocked legs ran.
///
/// `allow_emit_skip` is set for HLS-derived models, whose random DAGs
/// may draw DSP operations outside the documented VHDL subset — the
/// emitter's rejection is then a skip, not a divergence. Tuple soups
/// only use in-subset operations, so for them an emit failure counts.
fn check_model(model: &RtModel, seed: u64, allow_emit_skip: bool, report: &mut FuzzReport) -> bool {
    let text = to_text(model);
    let diverge = |oracle: &'static str, detail: String| FuzzDivergence {
        seed,
        oracle,
        model: text.clone(),
        detail,
    };

    // 1. The execution engines must be byte-identical: interpreter vs
    //    the compiled walker at -O0, -O1 and -O2 (the optimizer's whole
    //    pass pipeline differentially checked on every generated model).
    if let Err(d) = backend_equiv(model) {
        report.record(diverge("backend", d.to_string()));
    }

    // 2. Canonical text must be a parse/print fixed point.
    match parse_model(&text) {
        Err(e) => report.record(diverge("text-parse", e.to_string())),
        Ok(back) => {
            let reprinted = to_text(&back);
            if reprinted != text {
                report.record(diverge(
                    "text-roundtrip",
                    format!("reprinted differently:\n{reprinted}"),
                ));
            }
        }
    }

    // 3. VHDL emission must re-import to the same model. The §2.7
    //    reconstruction the importer runs is only defined for models
    //    whose routing is unambiguous — two drives of one bus or module
    //    port in the same phase have no unique tuple decomposition — so
    //    soups with a predicted bus, module or register port conflict
    //    skip this oracle (they still run through the backend and text
    //    oracles above). Colliding memory writes do not skip it.
    let statically_clean = crate::conflicts::static_conflicts(model)
        .iter()
        .all(|c| c.site == ConflictSite::MemoryPort);
    match emit_vhdl(model) {
        _ if !statically_clean => {}
        Err(_) if allow_emit_skip => {}
        Err(e) => report.record(diverge("vhdl-emit", e.to_string())),
        Ok(vhdl) => match model_from_vhdl(&vhdl) {
            Err(e) => report.record(diverge("vhdl-parse", e.to_string())),
            Ok(back) => {
                let mut a = back.tuples().to_vec();
                let mut b = model.tuples().to_vec();
                let key = |t: &TransferTuple| (t.module.clone(), t.read_step);
                a.sort_by_key(key);
                b.sort_by_key(key);
                if back.registers() != model.registers()
                    || back.arrays() != model.arrays()
                    || back.memories() != model.memories()
                    || a != b
                {
                    report.record(diverge(
                        "vhdl-roundtrip",
                        "imported declarations or tuples differ".into(),
                    ));
                }
            }
        },
    }

    // 4. Clocked + handshake equivalence, for models in the §4 subset.
    //    Routing conflicts at step granularity are a legitimate static
    //    rejection (the abstract model multiplexes within a step), so a
    //    translation error is a skip, not a divergence.
    if ClockedDesign::translate(model, ClockScheme::default()).is_err() {
        return false;
    }
    match check_clocked_equivalence(model, ClockScheme::default()) {
        Err(e) => report.record(diverge("clocked", e.to_string())),
        Ok(r) if !r.equivalent() => report.record(diverge("clocked", r.to_string())),
        Ok(_) => {}
    }
    match check_handshake_equivalence(model) {
        Err(e) => report.record(diverge("handshake", e.to_string())),
        Ok(r) if !r.equivalent() => report.record(diverge("handshake", r.to_string())),
        Ok(_) => {}
    }
    true
}

/// Runs a differential fuzz campaign: `count` models derived from
/// `seed`, one quarter through the HLS pipeline, the rest as tuple
/// soups.
pub fn run_fuzz(seed: u64, count: usize) -> FuzzReport {
    let mut report = FuzzReport::default();
    for i in 0..count {
        let case_seed = seed.wrapping_add(i as u64);
        let is_hls = i % 4 == 3;
        let model = if is_hls {
            report.hls_models += 1;
            generate_hls_model(case_seed)
        } else {
            generate_model(case_seed)
        };
        if model.tuples().iter().any(|t| t.guard.is_some()) {
            report.guarded_models += 1;
        }
        if !model.memories().is_empty() {
            report.memory_models += 1;
        }
        if !model.arrays().is_empty() {
            report.array_models += 1;
        }
        if check_model(&model, case_seed, is_hls, &mut report) {
            report.clocked_checked += 1;
        }
        report.checked += 1;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0, 1, 42, 0xDEAD_BEEF] {
            assert_eq!(
                to_text(&generate_model(seed)),
                to_text(&generate_model(seed))
            );
        }
        assert_eq!(
            to_text(&generate_hls_model(7)),
            to_text(&generate_hls_model(7))
        );
    }

    #[test]
    fn campaign_covers_every_construct_and_stays_clean() {
        let report = run_fuzz(0xC10C_1E55, 120);
        assert_eq!(report.checked, 120);
        assert!(report.guarded_models > 10, "{report}");
        assert!(report.memory_models > 5, "{report}");
        assert!(report.array_models > 10, "{report}");
        assert!(report.hls_models == 30, "{report}");
        assert!(report.clocked_checked > 10, "{report}");
        assert!(report.clean(), "{report}");
    }

    #[test]
    fn report_renders_as_json() {
        let mut report = FuzzReport {
            checked: 1,
            ..FuzzReport::default()
        };
        report.record(FuzzDivergence {
            seed: 9,
            oracle: "backend",
            model: "model x steps 1\n".into(),
            detail: "a \"quoted\" detail".into(),
        });
        let json = report.to_json();
        assert!(json.contains("\"divergence_count\": 1"), "{json}");
        assert!(json.contains("\\\"quoted\\\""), "{json}");
        assert!(!report.clean());
    }

    #[test]
    fn divergence_display_names_seed_and_oracle() {
        let d = FuzzDivergence {
            seed: 3,
            oracle: "clocked",
            model: String::new(),
            detail: "boom".into(),
        };
        assert_eq!(d.to_string(), "seed 3: oracle `clocked` diverged: boom");
    }
}
