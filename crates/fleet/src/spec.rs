//! Batch specifications: what a fleet run simulates.
//!
//! A [`BatchSpec`] is a flat list of [`JobSpec`]s. Each job names a model
//! source ([`JobSource`]) plus optional re-parameterization: a `CS_MAX`
//! override (`steps`) and register-init overrides (`init`) acting as the
//! job's stimulus. Specs come from three places:
//!
//! * programmatically (the `verify` conflict sweeps build them from
//!   in-memory models),
//! * directly from `.rtl` paths ([`BatchSpec::from_rtl_paths`] — the CLI
//!   glob form), or
//! * from a `.fleet` text file ([`BatchSpec::parse`]), one job per line:
//!
//! ```text
//! # comment                        (blank lines are fine too)
//! fleet nightly                    # optional header naming the batch
//! job base    rtl fig1.rtl
//! job stim    rtl fig1.rtl steps 9 init R1=40 init R2=2
//! job sched   hls fir 8
//! job probe   hls random 42 24 4
//! job chip    iks ik 1.0 1.0
//! job tight   rtl fig1.rtl budget 10   # per-job delta-cycle budget
//! job fast    rtl fig1.rtl backend compiled   # run on the compiled engine
//! job boom    chaos panic              # deliberate failure (fault drills)
//! ```
//!
//! Relative `.rtl` paths resolve against the spec file's directory.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};

use clockless_core::text::parse_model;
use clockless_core::{Backend, RtModel, Step, Value};

/// Errors from building, parsing or running a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FleetError {
    /// A file could not be read.
    Io {
        /// The offending path.
        path: String,
        /// The OS error message.
        msg: String,
    },
    /// A spec line could not be parsed.
    Spec {
        /// 1-based line number in the spec text.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// A job's model could not be built (parse error, synthesis error,
    /// invalid override…).
    Build {
        /// The job's name.
        job: String,
        /// What went wrong.
        msg: String,
    },
    /// A job's simulation failed (kernel error, e.g. delta overflow).
    Run {
        /// The job's name.
        job: String,
        /// What went wrong.
        msg: String,
    },
    /// A job panicked inside its worker (reported only in `--fail-fast`
    /// mode; the keep-going default quarantines panics instead).
    Panicked {
        /// The job's name.
        job: String,
        /// The panic payload, if it was a string.
        msg: String,
    },
    /// A job exhausted its configured delta-cycle or wall-clock budget
    /// (reported only in `--fail-fast` mode).
    Budget {
        /// The job's name.
        job: String,
        /// Which budget ran out, and where.
        msg: String,
    },
    /// The batch contains no jobs.
    EmptyBatch,
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Io { path, msg } => write!(f, "cannot read {path}: {msg}"),
            FleetError::Spec { line, msg } => write!(f, "spec line {line}: {msg}"),
            FleetError::Build { job, msg } => write!(f, "job `{job}`: {msg}"),
            FleetError::Run { job, msg } => write!(f, "job `{job}` failed: {msg}"),
            FleetError::Panicked { job, msg } => write!(f, "job `{job}` panicked: {msg}"),
            FleetError::Budget { job, msg } => {
                write!(f, "job `{job}` exceeded its budget: {msg}")
            }
            FleetError::EmptyBatch => write!(f, "batch contains no jobs"),
        }
    }
}

impl std::error::Error for FleetError {}

/// A synthetic high-level-synthesis workload, scheduled and emitted on
/// the fly (no input files needed).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum HlsWorkload {
    /// An n-tap FIR filter (`clockless_hls::fir`).
    Fir {
        /// Number of taps (≥ 1).
        taps: usize,
    },
    /// Horner evaluation of a degree-n polynomial (`clockless_hls::horner`).
    Horner {
        /// Polynomial degree (coefficient count − 1).
        degree: usize,
    },
    /// The HAL differential-equation benchmark (`clockless_hls::diffeq`).
    Diffeq,
    /// A reproducible random DAG (`clockless_hls::random_dag`).
    Random {
        /// PRNG seed.
        seed: u64,
        /// Node count.
        nodes: usize,
        /// Input count.
        inputs: usize,
    },
}

/// A deliberate misbehaviour injected into a worker, for exercising the
/// engine's fault tolerance (no well-formed model can make the kernel
/// panic, so chaos probes supply the failure the tests need).
///
/// Spec grammar: `job <name> chaos panic`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosProbe {
    /// Panic inside the worker the moment the job starts running. The
    /// engine's `catch_unwind` quarantines it; with `--fail-fast` it
    /// surfaces as [`FleetError::Panicked`].
    Panic,
}

impl ChaosProbe {
    /// Fires the probe (called by the engine inside its `catch_unwind`
    /// fence).
    pub(crate) fn trip(self) {
        match self {
            ChaosProbe::Panic => panic!("chaos probe tripped: deliberate panic"),
        }
    }
}

/// Where a job's model comes from.
#[derive(Debug, Clone)]
pub enum JobSource {
    /// A `.rtl` file in the declarative text format.
    RtlFile(PathBuf),
    /// Inline `.rtl` text (used by tests and embedded specs).
    RtlText(String),
    /// An already-built model (boxed: an [`RtModel`] is much larger than
    /// the other variants).
    Model(Box<RtModel>),
    /// A synthetic HLS workload, synthesized with unconstrained resources
    /// and deterministic inputs.
    Hls(HlsWorkload),
    /// The IKS inverse-kinematics chip solving for target `(x, y)`
    /// (Q16.16 fixed point, arm geometry 1.0/1.0).
    IksIk {
        /// Target x coordinate.
        x: f64,
        /// Target y coordinate.
        y: f64,
    },
    /// The IKS MACC FIR filter chip with its reference sample/coefficient
    /// set.
    IksFir,
    /// A chaos probe: the job resolves to a trivial placeholder model and
    /// then misbehaves inside the worker. Exists so fault-tolerance tests
    /// (and deliberately broken CI specs) have a deterministic failure to
    /// inject.
    Chaos(ChaosProbe),
}

/// One batch job: a model source plus stimulus.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The job's name (unique within the batch; reports key on it).
    pub name: String,
    /// Where the model comes from.
    pub source: JobSource,
    /// Optional `CS_MAX` override (every transfer is re-validated
    /// against the new step count; they must still fit).
    pub steps: Option<Step>,
    /// Register-init overrides `(register, value)` — the job's stimulus.
    /// A register overridden twice takes the later value.
    pub overrides: Vec<(String, i64)>,
    /// Optional per-job delta-cycle budget (`budget <N>` in the spec
    /// text). When the batch config also sets a budget, the smaller one
    /// wins. Exceeding it quarantines the job as budget-exceeded.
    pub delta_budget: Option<u64>,
    /// Optional execution backend (`backend interpreted|compiled` in the
    /// spec text). A batch-wide backend in the
    /// [`FleetConfig`](crate::FleetConfig) overrides it; with neither set
    /// the job runs on the default (interpreted) engine. Both engines are
    /// observably byte-identical, so this only selects *how* the job
    /// executes, never *what* it reports.
    pub backend: Option<Backend>,
}

impl JobSpec {
    /// Creates a job with no overrides, no budget and the default
    /// backend.
    pub fn new(name: impl Into<String>, source: JobSource) -> JobSpec {
        JobSpec {
            name: name.into(),
            source,
            steps: None,
            overrides: Vec::new(),
            delta_budget: None,
            backend: None,
        }
    }

    /// Resolves the job to a runnable model (reading files, running HLS,
    /// applying overrides).
    ///
    /// # Errors
    ///
    /// [`FleetError::Io`] or [`FleetError::Build`] when the source cannot
    /// be materialized, an override names an unknown register, or the
    /// transfers do not fit the `steps` override.
    pub fn resolve(&self) -> Result<RtModel, FleetError> {
        self.stimulate(&self.build())
    }

    /// Jobs with equal keys, the same source and `steps`, share one
    /// [`build`](Self::build). `Model` and `Chaos` jobs resolve alone.
    pub(crate) fn group_key(&self) -> Option<(SourceKey<'_>, Option<Step>)> {
        let source = match &self.source {
            JobSource::RtlFile(path) => SourceKey::File(path),
            JobSource::RtlText(text) => SourceKey::Text(text),
            JobSource::Hls(workload) => SourceKey::Hls(workload),
            JobSource::IksIk { x, y } => SourceKey::IksIk(x.to_bits(), y.to_bits()),
            JobSource::IksFir => SourceKey::IksFir,
            JobSource::Model(_) | JobSource::Chaos(_) => return None,
        };
        Some((source, self.steps))
    }

    /// The job's source model with its `steps` override made. A failed
    /// `steps` edit leaves the model as the source built it and comes
    /// back beside it: a job reports unknown override names first.
    pub(crate) fn build(&self) -> Base {
        let build_err = |msg: String| FleetError::Build {
            job: self.name.clone(),
            msg,
        };
        let mut model = match &self.source {
            JobSource::RtlFile(path) => {
                let text = std::fs::read_to_string(path).map_err(|e| FleetError::Io {
                    path: path.display().to_string(),
                    msg: e.to_string(),
                })?;
                parse_model(&text).map_err(|e| build_err(format!("{}:{e}", path.display())))?
            }
            JobSource::RtlText(text) => parse_model(text).map_err(|e| build_err(e.to_string()))?,
            JobSource::Model(m) => (**m).clone(),
            JobSource::Hls(workload) => synthesize_workload(workload)
                .map_err(|e| build_err(format!("HLS synthesis: {e}")))?,
            JobSource::IksIk { x, y } => {
                use clockless_iks::prelude::*;
                let constants = IkConstants::new(ArmGeometry::new(1.0, 1.0));
                build_ik_chip(to_fx(*x), to_fx(*y), constants)
                    .map(|chip| chip.model)
                    .map_err(|e| build_err(format!("IKS chip: {e}")))?
            }
            JobSource::IksFir => {
                use clockless_iks::prelude::*;
                let samples = [to_fx(0.5), to_fx(1.5), to_fx(-1.0), to_fx(2.0)];
                let coeffs = [to_fx(2.0), to_fx(-0.5), to_fx(0.25), to_fx(1.0)];
                clockless_iks::build_fir_chip(samples, coeffs)
                    .map_err(|e| build_err(format!("IKS FIR chip: {e}")))?
            }
            JobSource::Chaos(_) => {
                // The probe fires inside the worker; resolution just needs
                // something elaborable.
                let mut m = RtModel::new("chaos_probe", 1);
                m.add_register_init("PROBE", Value::Num(0))
                    .map_err(|e| build_err(e.to_string()))?;
                m
            }
        };
        let steps = self
            .steps
            .and_then(|n| model.set_cs_max(n).err().map(|e| e.to_string()));
        Ok((model, steps))
    }

    /// This job's model: a copy of `base`, the build of its group, with
    /// the `init` overrides applied in order.
    pub(crate) fn stimulate(&self, base: &Base) -> Result<RtModel, FleetError> {
        let build_err = |msg: String| FleetError::Build {
            job: self.name.clone(),
            msg,
        };
        let (model, steps) = match base {
            Ok(base) => base,
            Err(FleetError::Build { msg, .. }) => return Err(build_err(msg.clone())),
            Err(e) => return Err(e.clone()),
        };
        let mut model = model.clone();
        for (reg, v) in &self.overrides {
            model
                .set_register_init(reg, Value::Num(*v))
                .map_err(|_| build_err(format!("init override names unknown register `{reg}`")))?;
        }
        match steps {
            Some(msg) => Err(build_err(msg.clone())),
            None => Ok(model),
        }
    }
}

/// What [`JobSpec::build`] makes for a group of jobs: the model and the
/// error of its `steps` edit, or why the source could not be built.
pub(crate) type Base = Result<(RtModel, Option<String>), FleetError>;

/// A job source as a [`JobSpec::group_key`].
#[derive(PartialEq, Eq, Hash)]
pub(crate) enum SourceKey<'a> {
    File(&'a Path),
    Text(&'a str),
    Hls(&'a HlsWorkload),
    IksIk(u64, u64),
    IksFir,
}

/// Synthesizes an [`HlsWorkload`] with unconstrained resources and
/// deterministic inputs (input `i`, in the graph's input order, is fed
/// `i + 1`).
fn synthesize_workload(workload: &HlsWorkload) -> Result<RtModel, String> {
    use clockless_hls::{diffeq, fir, horner, random_dag, synthesize, ResourceSet};

    let dfg = match workload {
        HlsWorkload::Fir { taps } => {
            if *taps == 0 {
                return Err("FIR needs at least one tap".into());
            }
            let coeffs: Vec<i64> = (0..*taps as i64).map(|i| 2 * i + 1).collect();
            fir(&coeffs)
        }
        HlsWorkload::Horner { degree } => {
            let coeffs: Vec<i64> = (0..=*degree as i64).map(|i| i - 2).collect();
            horner(&coeffs)
        }
        HlsWorkload::Diffeq => diffeq(),
        HlsWorkload::Random {
            seed,
            nodes,
            inputs,
        } => random_dag(*seed, *nodes, *inputs),
    };
    let resources = ResourceSet::unconstrained(&dfg);
    let names = dfg.inputs();
    let inputs: HashMap<&str, i64> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i as i64 + 1))
        .collect();
    synthesize(&dfg, &resources, &inputs)
        .map(|syn| syn.model)
        .map_err(|e| e.to_string())
}

/// A batch of independent simulation jobs.
///
/// # Examples
///
/// Parsing the text form:
///
/// ```
/// use clockless_fleet::BatchSpec;
///
/// let spec = BatchSpec::parse(
///     "fleet demo\n\
///      job sched hls fir 4\n\
///      job probe hls random 7 12 3\n",
///     ".",
/// )?;
/// assert_eq!(spec.jobs.len(), 2);
/// assert_eq!(spec.jobs[0].name, "sched");
/// # Ok::<(), clockless_fleet::FleetError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct BatchSpec {
    /// The jobs, in spec order ([`FleetReport`](crate::FleetReport) rows
    /// keep this order).
    pub jobs: Vec<JobSpec>,
}

impl BatchSpec {
    /// Builds a batch that runs each `.rtl` file as one job (the CLI's
    /// glob form). Job names are the file stems.
    pub fn from_rtl_paths<P: AsRef<Path>>(paths: impl IntoIterator<Item = P>) -> BatchSpec {
        let jobs = paths
            .into_iter()
            .map(|p| {
                let p = p.as_ref();
                let name = p
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_else(|| p.display().to_string());
                JobSpec::new(name, JobSource::RtlFile(p.to_path_buf()))
            })
            .collect();
        BatchSpec { jobs }
    }

    /// Parses the `.fleet` text format (see the module docs for the
    /// grammar). Relative `.rtl` paths resolve against `base_dir`.
    ///
    /// # Errors
    ///
    /// [`FleetError::Spec`] with the offending 1-based line number.
    pub fn parse(text: &str, base_dir: impl AsRef<Path>) -> Result<BatchSpec, FleetError> {
        let base_dir = base_dir.as_ref();
        let mut jobs: Vec<JobSpec> = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let err = |msg: String| FleetError::Spec { line, msg };
            let content = raw.split('#').next().unwrap_or("").trim();
            if content.is_empty() {
                continue;
            }
            let words: Vec<&str> = content.split_whitespace().collect();
            match words[0] {
                "fleet" => {
                    if words.len() != 2 {
                        return Err(err("expected `fleet <name>`".into()));
                    }
                }
                "job" => {
                    let job = parse_job_line(&words, base_dir).map_err(err)?;
                    if jobs.iter().any(|j| j.name == job.name) {
                        return Err(err(format!("duplicate job name `{}`", job.name)));
                    }
                    jobs.push(job);
                }
                other => {
                    return Err(err(format!(
                        "unknown directive `{other}` (expected `fleet` or `job`)"
                    )))
                }
            }
        }
        Ok(BatchSpec { jobs })
    }

    /// Reads and parses a `.fleet` spec file; relative `.rtl` paths
    /// resolve against the spec's directory.
    ///
    /// # Errors
    ///
    /// [`FleetError::Io`] or [`FleetError::Spec`].
    pub fn load(path: impl AsRef<Path>) -> Result<BatchSpec, FleetError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| FleetError::Io {
            path: path.display().to_string(),
            msg: e.to_string(),
        })?;
        let base = path.parent().unwrap_or_else(|| Path::new("."));
        BatchSpec::parse(&text, base)
    }
}

/// Parses one `job …` line (already split into words).
fn parse_job_line(words: &[&str], base_dir: &Path) -> Result<JobSpec, String> {
    if words.len() < 3 {
        return Err("expected `job <name> <source> …`".into());
    }
    let name = words[1].to_string();
    let mut rest = &words[3..];
    let source = match words[2] {
        "rtl" => {
            let Some((path, r)) = rest.split_first() else {
                return Err("`rtl` needs a file path".into());
            };
            rest = r;
            let p = Path::new(path);
            let p = if p.is_absolute() {
                p.to_path_buf()
            } else {
                base_dir.join(p)
            };
            JobSource::RtlFile(p)
        }
        "hls" => {
            let Some((kind, r)) = rest.split_first() else {
                return Err("`hls` needs a workload (fir|horner|diffeq|random)".into());
            };
            let (workload, r) = match *kind {
                "fir" => {
                    let (n, r) = take_num::<usize>(r, "fir tap count")?;
                    (HlsWorkload::Fir { taps: n }, r)
                }
                "horner" => {
                    let (n, r) = take_num::<usize>(r, "horner degree")?;
                    (HlsWorkload::Horner { degree: n }, r)
                }
                "diffeq" => (HlsWorkload::Diffeq, r),
                "random" => {
                    let (seed, r) = take_num::<u64>(r, "random seed")?;
                    let (nodes, r) = take_num::<usize>(r, "random node count")?;
                    let (inputs, r) = take_num::<usize>(r, "random input count")?;
                    (
                        HlsWorkload::Random {
                            seed,
                            nodes,
                            inputs,
                        },
                        r,
                    )
                }
                other => return Err(format!("unknown hls workload `{other}`")),
            };
            rest = r;
            JobSource::Hls(workload)
        }
        "iks" => {
            let Some((kind, r)) = rest.split_first() else {
                return Err("`iks` needs a chip (ik|fir)".into());
            };
            match *kind {
                "ik" => {
                    let (x, r) = take_num::<f64>(r, "ik target x")?;
                    let (y, r) = take_num::<f64>(r, "ik target y")?;
                    rest = r;
                    JobSource::IksIk { x, y }
                }
                "fir" => {
                    rest = r;
                    JobSource::IksFir
                }
                other => return Err(format!("unknown iks chip `{other}`")),
            }
        }
        "chaos" => {
            let Some((kind, r)) = rest.split_first() else {
                return Err("`chaos` needs a probe (panic)".into());
            };
            match *kind {
                "panic" => {
                    rest = r;
                    JobSource::Chaos(ChaosProbe::Panic)
                }
                other => return Err(format!("unknown chaos probe `{other}`")),
            }
        }
        other => {
            return Err(format!(
                "unknown job source `{other}` (expected rtl|hls|iks|chaos)"
            ))
        }
    };

    let mut job = JobSpec::new(name, source);
    while let Some((word, r)) = rest.split_first() {
        match *word {
            "steps" => {
                let (n, r) = take_num::<Step>(r, "steps")?;
                job.steps = Some(n);
                rest = r;
            }
            "budget" => {
                let (n, r) = take_num::<u64>(r, "delta budget")?;
                job.delta_budget = Some(n);
                rest = r;
            }
            "backend" => {
                let Some((b, r)) = r.split_first() else {
                    return Err("`backend` needs an engine (interpreted|compiled)".into());
                };
                job.backend = Some(b.parse::<Backend>().map_err(|e| e.to_string())?);
                rest = r;
            }
            "init" => {
                let Some((assign, r)) = r.split_first() else {
                    return Err("`init` needs `<register>=<value>`".into());
                };
                let Some((reg, val)) = assign.split_once('=') else {
                    return Err(format!("malformed init `{assign}` (expected REG=VALUE)"));
                };
                let val: i64 = val
                    .parse()
                    .map_err(|_| format!("init value `{val}` is not an integer"))?;
                job.overrides.push((reg.to_string(), val));
                rest = r;
            }
            other => return Err(format!("unknown job option `{other}`")),
        }
    }
    Ok(job)
}

/// Pops one parsed number off `words`, with a descriptive error.
fn take_num<'a, T: std::str::FromStr>(
    words: &'a [&'a str],
    what: &str,
) -> Result<(T, &'a [&'a str]), String> {
    let Some((w, rest)) = words.split_first() else {
        return Err(format!("missing {what}"));
    };
    w.parse::<T>()
        .map(|n| (n, rest))
        .map_err(|_| format!("{what} `{w}` is not a valid number"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_all_sources_and_options() {
        let spec = BatchSpec::parse(
            "# a comment\n\
             fleet nightly\n\
             \n\
             job a rtl sub/x.rtl steps 9 init R1=40 init R2=-2\n\
             job b hls fir 8\n\
             job c hls horner 3\n\
             job d hls diffeq\n\
             job e hls random 42 24 4\n\
             job f iks ik 1.0 -0.5\n\
             job g iks fir\n",
            "/base",
        )
        .expect("parses");
        assert_eq!(spec.jobs.len(), 7);
        let a = &spec.jobs[0];
        assert_eq!(a.steps, Some(9));
        assert_eq!(a.overrides, vec![("R1".into(), 40), ("R2".into(), -2)]);
        match &a.source {
            JobSource::RtlFile(p) => assert_eq!(p, Path::new("/base/sub/x.rtl")),
            other => panic!("wrong source {other:?}"),
        }
        assert!(matches!(
            spec.jobs[4].source,
            JobSource::Hls(HlsWorkload::Random {
                seed: 42,
                nodes: 24,
                inputs: 4
            })
        ));
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for (text, needle) in [
            ("job", "expected `job <name> <source>"),
            ("job x nope", "unknown job source"),
            ("job x hls", "`hls` needs a workload"),
            ("job x hls fir", "missing fir tap count"),
            ("job x hls fir many", "not a valid number"),
            ("job x rtl a.rtl frob", "unknown job option"),
            ("job x rtl a.rtl init", "needs `<register>=<value>`"),
            ("job x rtl a.rtl init R1:4", "malformed init"),
            ("job x iks ik 1.0", "missing ik target y"),
            ("frobnicate everything", "unknown directive"),
            ("job x rtl a.rtl\njob x rtl b.rtl", "duplicate job name"),
        ] {
            let err = BatchSpec::parse(text, ".").expect_err(text);
            assert!(
                err.to_string().contains(needle),
                "{text}: {err} should mention {needle}"
            );
        }
    }

    #[test]
    fn overrides_apply_to_the_resolved_model() {
        use clockless_core::model::fig1_model;
        let mut job = JobSpec::new("j", JobSource::Model(Box::new(fig1_model(3, 4))));
        job.steps = Some(6);
        // A register overridden twice takes the later value.
        job.overrides = vec![("R2".into(), 1), ("R2".into(), 100)];
        let m = job.resolve().expect("resolves");
        assert_eq!(m.cs_max(), 6);
        assert_eq!(m.registers()[1].init, Value::Num(100));
        // A steps override that no longer fits the schedule is rejected.
        job.steps = Some(5);
        assert!(matches!(job.resolve(), Err(FleetError::Build { .. })));
        // Unknown registers in overrides are rejected.
        job.steps = None;
        job.overrides = vec![("NOPE".into(), 1)];
        let err = job.resolve().expect_err("unknown register");
        assert!(err.to_string().contains("unknown register"));
    }

    fn corpus_text(model: &str) -> String {
        let path = format!("{}/../../models/{model}.rtl", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(path).expect("corpus model")
    }

    /// Runs `job` in a one-job batch; it must not be quarantined.
    fn run_alone(job: JobSpec) -> crate::JobResult {
        let report = crate::run_batch(&BatchSpec { jobs: vec![job] }, 1).expect("batch runs");
        match report.jobs.into_iter().next() {
            Some(crate::JobOutcome::Ok(result)) => *result,
            other => panic!("job quarantined: {other:?}"),
        }
    }

    /// `init` and `steps` overrides on models with a memory or an array
    /// keep their storage intact: each job resolves to, and reports
    /// exactly what, the model with that edit made in its text does.
    #[test]
    fn overrides_keep_memories_and_arrays() {
        let memory = corpus_text("memory");
        let guarded = corpus_text("guarded");
        let cases = [
            (
                &memory,
                None,
                Some(("IDX", 1)),
                memory.replace("register IDX init 2", "register IDX init 1"),
            ),
            (
                &memory,
                Some(8),
                None,
                memory.replace("model memory steps 6", "model memory steps 8"),
            ),
            (
                &guarded,
                Some(7),
                Some(("B", 4)),
                guarded
                    .replace("model guarded steps 6", "model guarded steps 7")
                    .replace("register B init 17", "register B init 4"),
            ),
        ];
        for (text, steps, init, edited) in cases {
            let mut job = JobSpec::new("job", JobSource::RtlText(text.clone()));
            job.steps = steps;
            job.overrides = init.map(|(r, v)| (r.to_string(), v)).into_iter().collect();
            let reference = JobSpec::new("job", JobSource::RtlText(edited));
            assert_eq!(
                clockless_core::text::to_text(&job.resolve().expect("resolves")),
                clockless_core::text::to_text(&reference.resolve().expect("parses")),
            );
            let (got, want) = (run_alone(job), run_alone(reference));
            assert!(got.conflicts.is_clean(), "{}", got.conflicts);
            assert_eq!(got.registers, want.registers);
            assert_eq!(got.stats, want.stats);
        }
    }

    #[test]
    fn hls_sources_synthesize_deterministically() {
        let job = JobSpec::new("f", JobSource::Hls(HlsWorkload::Fir { taps: 4 }));
        let a = job.resolve().expect("synthesizes");
        let b = job.resolve().expect("synthesizes");
        assert_eq!(
            clockless_core::text::to_text(&a),
            clockless_core::text::to_text(&b)
        );
        assert!(!a.tuples().is_empty());
    }

    #[test]
    fn missing_rtl_file_is_an_io_error() {
        let job = JobSpec::new("j", JobSource::RtlFile("/nonexistent/nope.rtl".into()));
        assert!(matches!(job.resolve(), Err(FleetError::Io { .. })));
    }

    #[test]
    fn parse_accepts_chaos_and_budget() {
        let spec = BatchSpec::parse(
            "job boom chaos panic\n\
             job tight rtl a.rtl budget 10 init R1=4\n",
            "/base",
        )
        .expect("parses");
        assert!(matches!(
            spec.jobs[0].source,
            JobSource::Chaos(ChaosProbe::Panic)
        ));
        assert_eq!(spec.jobs[0].delta_budget, None);
        assert_eq!(spec.jobs[1].delta_budget, Some(10));
        assert_eq!(spec.jobs[1].overrides, vec![("R1".into(), 4)]);
    }

    #[test]
    fn parse_rejects_malformed_chaos_and_budget() {
        for (text, needle) in [
            ("job x chaos", "`chaos` needs a probe"),
            ("job x chaos meteor", "unknown chaos probe"),
            ("job x rtl a.rtl budget", "missing delta budget"),
            ("job x rtl a.rtl budget lots", "not a valid number"),
        ] {
            let err = BatchSpec::parse(text, ".").expect_err(text);
            assert!(
                err.to_string().contains(needle),
                "{text}: {err} should mention {needle}"
            );
        }
    }

    #[test]
    fn parse_accepts_backend_option() {
        let spec = BatchSpec::parse(
            "job slow rtl a.rtl backend interpreted\n\
             job fast rtl a.rtl backend compiled steps 9\n\
             job deft rtl a.rtl\n",
            "/base",
        )
        .expect("parses");
        assert_eq!(spec.jobs[0].backend, Some(Backend::Interpreted));
        assert_eq!(spec.jobs[1].backend, Some(Backend::Compiled));
        assert_eq!(spec.jobs[1].steps, Some(9));
        assert_eq!(spec.jobs[2].backend, None);
    }

    #[test]
    fn parse_rejects_malformed_backend() {
        for (text, needle) in [
            ("job x rtl a.rtl backend", "`backend` needs an engine"),
            ("job x rtl a.rtl backend jit", "unknown backend `jit`"),
        ] {
            let err = BatchSpec::parse(text, ".").expect_err(text);
            assert!(
                err.to_string().contains(needle),
                "{text}: {err} should mention {needle}"
            );
        }
    }

    #[test]
    fn chaos_jobs_resolve_to_a_placeholder_model() {
        let job = JobSpec::new("boom", JobSource::Chaos(ChaosProbe::Panic));
        let m = job.resolve().expect("resolves without tripping");
        assert_eq!(m.name(), "chaos_probe");
        assert_eq!(m.registers().len(), 1);
    }

    #[test]
    fn fleet_error_display_covers_every_variant() {
        // FleetError is #[non_exhaustive]; this round-trip keeps each
        // variant's rendered form (the CLI's stderr surface) stable.
        let cases = [
            (
                FleetError::Io {
                    path: "a.fleet".into(),
                    msg: "denied".into(),
                },
                "cannot read a.fleet: denied",
            ),
            (
                FleetError::Spec {
                    line: 3,
                    msg: "bad".into(),
                },
                "spec line 3: bad",
            ),
            (
                FleetError::Build {
                    job: "j".into(),
                    msg: "parse".into(),
                },
                "job `j`: parse",
            ),
            (
                FleetError::Run {
                    job: "j".into(),
                    msg: "overflow".into(),
                },
                "job `j` failed: overflow",
            ),
            (
                FleetError::Panicked {
                    job: "j".into(),
                    msg: "boom".into(),
                },
                "job `j` panicked: boom",
            ),
            (
                FleetError::Budget {
                    job: "j".into(),
                    msg: "10 deltas".into(),
                },
                "job `j` exceeded its budget: 10 deltas",
            ),
            (FleetError::EmptyBatch, "batch contains no jobs"),
        ];
        for (err, text) in cases {
            assert_eq!(err.to_string(), text);
            // Errors survive a clone/compare round-trip (the engine moves
            // them between worker slots and the final report).
            assert_eq!(err.clone(), err);
        }
    }
}
