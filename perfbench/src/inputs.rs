//! Seeded inputs: the model population `P(seed)`, the fleet batch pool
//! and the draw order of every workload.
//!
//! The system under test only ever sees model *texts* rendered by
//! [`to_text`] (and `.fleet` specs over files holding those texts), so
//! every workload starts where a user starts: from source.

use std::collections::HashMap;

use clockless_core::text::{parse_model, to_text};
use clockless_hls::{random_dag, synthesize, ResourceSet};
use clockless_verify::{generate_hls_model, generate_model};

/// The seed used when `--seed` is not given (also recorded in
/// `BENCHMARK.json`).
pub const DEFAULT_SEED: u64 = 1;

/// HLS DAG sizes of the population, four DAGs per size. Lowering and
/// walking scale with the schedule length, so the spread from 16 to 512
/// nodes is what separates per-call fixed costs from per-node work.
pub const DAG_SIZES: [usize; 6] = [16, 32, 64, 128, 256, 512];
const DAGS_PER_SIZE: usize = 4;

/// The checked-in corpus: hand-written models covering pipelined,
/// multicycle and IP-call modules, conflicts, guards, arrays and
/// memories.
const CORPUS: [(&str, &str); 8] = [
    ("accumulate", include_str!("../../models/accumulate.rtl")),
    ("conflict", include_str!("../../models/conflict.rtl")),
    ("fig1", include_str!("../../models/fig1.rtl")),
    ("guarded", include_str!("../../models/guarded.rtl")),
    ("iks_fir", include_str!("../../models/iks_fir.rtl")),
    ("iks_ik", include_str!("../../models/iks_ik.rtl")),
    ("memory", include_str!("../../models/memory.rtl")),
    ("multiop", include_str!("../../models/multiop.rtl")),
];

/// Where a population member came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// A `models/*.rtl` file.
    Corpus,
    /// A `verify::generate_model` tuple soup (guards, arrays, memories).
    Fuzz,
    /// A `verify::generate_hls_model` guarded DAG.
    HlsFuzz,
    /// An `hls::random_dag` synthesized under 2–4 units per class.
    Dag,
}

/// One population member.
#[derive(Debug, Clone)]
pub struct Model {
    /// Provenance.
    pub family: Family,
    /// DAG node count; 0 for the corpus and the fuzz families, whose
    /// models are all small.
    pub nodes: usize,
    /// The model source, rendered by `to_text`.
    pub text: String,
}

/// splitmix64: small, seedable and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is fixed by `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform draw from `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    /// The indices `0..n` in a uniformly random order.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }
}

/// Seed of the population's *structure*: which tuple soups and guarded
/// DAGs, the shape and unit counts of every synthesized DAG, and which
/// models share a fleet batch. It is fixed so that every run seed asks
/// for the same amount of work and runs compare across seeds; the run
/// seed draws the values (initial register, array and memory contents,
/// stimulus overrides) and the call order.
const STRUCTURE_SEED: u64 = 0xC10C_1E55_5EED_0001;

/// The 48-model population `P(seed)`: 8 corpus models, 8 tuple soups,
/// 8 guarded HLS DAGs and 24 synthesized random DAGs. Every generated
/// model gets initial values drawn from `seed`; the corpus stays as
/// checked in.
pub fn population(seed: u64) -> Vec<Model> {
    let mut shape = Rng::new(STRUCTURE_SEED);
    let mut values = Rng::new(seed);
    let mut models = Vec::with_capacity(48);
    for (name, source) in CORPUS {
        let model = parse_model(source).unwrap_or_else(|e| panic!("models/{name}.rtl: {e}"));
        models.push(Model {
            family: Family::Corpus,
            nodes: 0,
            text: to_text(&model),
        });
    }
    for _ in 0..8 {
        models.push(Model {
            family: Family::Fuzz,
            nodes: 0,
            text: redraw_inits(&to_text(&generate_model(shape.next_u64())), &mut values),
        });
    }
    for _ in 0..8 {
        models.push(Model {
            family: Family::HlsFuzz,
            nodes: 0,
            text: redraw_inits(&to_text(&generate_hls_model(shape.next_u64())), &mut values),
        });
    }
    for nodes in DAG_SIZES {
        for _ in 0..DAGS_PER_SIZE {
            let dag_seed = shape.next_u64();
            let inputs = 2 + shape.below(5);
            let dfg = random_dag(dag_seed, nodes, inputs);
            let mut classes = ResourceSet::unconstrained(&dfg).classes().to_vec();
            for class in &mut classes {
                class.count = 2 + shape.below(3);
            }
            let names = dfg.inputs();
            let zeros: HashMap<&str, i64> = names.iter().map(|n| (n.as_str(), 0)).collect();
            let syn = synthesize(&dfg, &ResourceSet::new(classes), &zeros)
                .expect("a random DAG synthesizes under any non-empty resource set");
            models.push(Model {
                family: Family::Dag,
                nodes,
                text: redraw_inits(&to_text(&syn.model), &mut values),
            });
        }
    }
    models
}

/// Replaces every numeric `init` of a register, array or memory
/// declaration in `text` with a value drawn from `rng`. Values never
/// change a schedule, so the work a model asks for stays the same.
fn redraw_inits(text: &str, rng: &mut Rng) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        match line.split(' ').collect::<Vec<_>>()[..] {
            [kind @ ("register" | "array" | "memory"), name, "init", value]
                if value.parse::<i64>().is_ok() =>
            {
                out.push_str(&format!("{kind} {name} init {}", rng.range(-50, 50)));
            }
            _ => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

/// Indices of the members with at most `max_nodes` DAG nodes.
pub fn up_to(models: &[Model], max_nodes: usize) -> Vec<usize> {
    (0..models.len())
        .filter(|&i| models[i].nodes <= max_nodes)
        .collect()
}

/// Indices of the fleet population: members with at most 64 DAG nodes
/// and no memory. `init` overrides rebuild the model from its registers,
/// buses, modules and transfers only, so on a model with a memory every
/// override job fails to resolve; such models are left out.
pub fn fleet_members(models: &[Model]) -> Vec<usize> {
    up_to(models, 64)
        .into_iter()
        .filter(|&i| {
            parse_model(&models[i].text)
                .expect("population texts parse")
                .memories()
                .is_empty()
        })
        .collect()
}

/// Models per fleet batch; each contributes one group of jobs.
pub const BATCH_GROUPS: usize = 4;
/// Jobs per group: the model as written plus seven stimulus variants.
pub const GROUP_JOBS: usize = 8;
/// Distinct batches in the fleet pool.
pub const BATCH_POOL: usize = 32;

/// The file name a fleet spec uses for population member `i`.
pub fn model_file(i: usize) -> String {
    format!("m{i:02}.rtl")
}

/// `BATCH_POOL` `.fleet` specs over `members` (population indices).
/// Each batch holds [`BATCH_GROUPS`] distinct models, fixed by the
/// structure seed; job 0 of a group runs the model as written, jobs 1–7
/// each override the initial value of one plain (non-array) register,
/// both drawn from `seed` — the "same chip, many inputs" shape.
pub fn fleet_batches(seed: u64, models: &[Model], members: &[usize]) -> Vec<String> {
    let mut shape = Rng::new(STRUCTURE_SEED ^ 0xF1EE_7BA7);
    let mut rng = Rng::new(seed ^ 0xF1EE_7BA7);
    let plain: Vec<Vec<String>> = members
        .iter()
        .map(|&i| {
            let model = parse_model(&models[i].text).expect("population texts parse");
            model
                .registers()
                .iter()
                .filter(|r| !r.name.contains('['))
                .map(|r| r.name.clone())
                .collect()
        })
        .collect();
    (0..BATCH_POOL)
        .map(|b| {
            let mut spec = format!("fleet pool{b}\n");
            for (g, &pick) in shape
                .permutation(members.len())
                .iter()
                .take(BATCH_GROUPS)
                .enumerate()
            {
                let file = model_file(members[pick]);
                for j in 0..GROUP_JOBS {
                    spec.push_str(&format!("job g{g}j{j} rtl {file}"));
                    let registers = &plain[pick];
                    if j > 0 && !registers.is_empty() {
                        let reg = &registers[rng.below(registers.len())];
                        spec.push_str(&format!(" init {reg}={}", rng.range(-100, 100)));
                    }
                    spec.push('\n');
                }
            }
            spec
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_byte_identical_inputs() {
        let a = population(DEFAULT_SEED);
        let b = population(DEFAULT_SEED);
        let texts = |p: &[Model]| p.iter().map(|m| m.text.clone()).collect::<Vec<_>>();
        assert_eq!(texts(&a), texts(&b));
        let members = fleet_members(&a);
        assert_eq!(
            fleet_batches(DEFAULT_SEED, &a, &members),
            fleet_batches(DEFAULT_SEED, &b, &members)
        );
        let other = population(DEFAULT_SEED + 1);
        assert_ne!(texts(&a), texts(&other), "the seed reaches the generators");
    }

    #[test]
    fn population_size_mix_is_pinned() {
        let p = population(DEFAULT_SEED);
        assert_eq!(p.len(), 48);
        let count = |f: Family| p.iter().filter(|m| m.family == f).count();
        assert_eq!(
            [Family::Corpus, Family::Fuzz, Family::HlsFuzz, Family::Dag].map(count),
            [8, 8, 8, 24]
        );
        for n in DAG_SIZES {
            assert_eq!(p.iter().filter(|m| m.nodes == n).count(), 4, "n = {n}");
        }
        assert_eq!(up_to(&p, 128).len(), 40, "the faults population");
        assert_eq!(up_to(&p, 64).len(), 36, "the fleet population");
        for m in &p {
            let model = parse_model(&m.text).expect("rendered texts parse back");
            assert_eq!(to_text(&model), m.text, "texts are canonical");
        }
    }

    #[test]
    fn fleet_batches_have_the_documented_shape() {
        let p = population(DEFAULT_SEED);
        let members = fleet_members(&p);
        assert!(
            members.len() >= 24,
            "corpus, HLS fuzz and DAG models qualify"
        );
        let batches = fleet_batches(DEFAULT_SEED, &p, &members);
        assert_eq!(batches.len(), BATCH_POOL);
        for spec in &batches {
            let jobs: Vec<&str> = spec.lines().filter(|l| l.starts_with("job ")).collect();
            assert_eq!(jobs.len(), BATCH_GROUPS * GROUP_JOBS);
            let overrides = jobs.iter().filter(|l| l.contains(" init ")).count();
            assert_eq!(overrides, BATCH_GROUPS * (GROUP_JOBS - 1));
        }
    }
}
