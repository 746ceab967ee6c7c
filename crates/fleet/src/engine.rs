//! The parallel batch engine: a thin, deterministic caller of the
//! generic job-queue executor in [`crate::executor`].
//!
//! The design follows the shape Strauch's *Deriving AOC C-Models … for
//! Single- or Multi-Threaded Execution* derives for RT-level simulation:
//! jobs are fully independent simulation units, so the engine needs no
//! synchronization beyond the queue handing out work and the emission
//! channel carrying results back. Each worker runs its jobs on private
//! kernel instances — copies of its group's shared, read-only
//! elaboration, or elaborated for the job alone — and the kernel has no
//! shared mutable state (enforced by `#![forbid(unsafe_code)]` plus the
//! cross-thread isolation test in `clockless-kernel`), so the engine is
//! **deterministic by construction**: emissions arrive in completion
//! order, are reordered by ticket into spec order, and are bit-identical
//! for any worker count.
//!
//! Fault tolerance is layered on top of that determinism rather than
//! against it. Every job runs behind the executor's
//! [`std::panic::catch_unwind`] fence, failures are retried up to a
//! configured bound and then **quarantined** as [`JobOutcome::Failed`]
//! rows instead of aborting the batch, and the shared queue recovers
//! from lock poisoning (a panicking peer cannot take it down). Budgets —
//! a delta-cycle cap and a wall-clock deadline — turn runaway jobs into
//! classified failures. The legacy fail-fast behaviour remains available
//! via [`FleetConfig::fail_fast`].

use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use clockless_core::{Backend, CheckProgram, ElaborateOptions, Elaboration, OptLevel};

use crate::executor::{execute_job, Emission, ResolvedJob, ThreadPool};
use crate::report::{FailureKind, FleetReport, JobFailure, JobOutcome};
use crate::spec::{Base, BatchSpec, FleetError};

/// Execution policy for a batch: failure handling and budgets.
///
/// The default is the fault-tolerant mode: keep going past failures
/// (quarantining them), no retries, no budgets beyond the kernel's own
/// runaway delta limit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetConfig {
    /// Abort the batch on the first failure (lowest spec index wins, so
    /// even the error is deterministic) instead of quarantining it.
    pub fail_fast: bool,
    /// How many times a failing job is re-executed before quarantine.
    /// Build failures are never retried — re-parsing the same text is
    /// deterministic.
    pub max_retries: u32,
    /// Delta-cycle budget per job. When a job also carries its own
    /// `budget` in the spec, the smaller of the two wins. Exhausting it
    /// classifies the job as [`FailureKind::DeltaBudget`].
    pub delta_budget: Option<u64>,
    /// Wall-clock budget per job attempt. Exhausting it classifies the
    /// job as [`FailureKind::WallBudget`].
    pub wall_budget: Option<Duration>,
    /// Execution backend for every job (the CLI's `--backend` flag). When
    /// set it overrides per-job `backend` spec options; `None` lets each
    /// job pick its own, defaulting to [`Backend::Interpreted`]. Both
    /// engines produce byte-identical reports — the deterministic JSON of
    /// a batch does not depend on this choice.
    pub backend: Option<Backend>,
    /// Value-checking program evaluated alongside every job (golden
    /// monitors and/or mined invariants). The verdict lands in
    /// [`JobResult::check`](crate::report::JobResult::check) for callers
    /// such as fault campaigns; it is **not** part of the fleet's
    /// deterministic JSON, which stays byte-identical with or without
    /// checking. Shared by `Arc` — workers read it concurrently.
    pub check: Option<Arc<CheckProgram>>,
    /// Optimization level for compiled-backend jobs (the CLI's `--opt`
    /// flag; ignored by the interpreter). Every level produces
    /// byte-identical reports — like [`FleetConfig::backend`], this
    /// choice never leaks into the deterministic JSON.
    pub opt: OptLevel,
}

/// Runs every job of `spec` with the default fault-tolerant
/// [`FleetConfig`] (keep going, no retries, no budgets).
///
/// Failed jobs are quarantined as [`JobOutcome::Failed`] rows; the batch
/// itself only errors on an empty spec. See [`run_batch_with`] for the
/// configurable variant (including the legacy fail-fast behaviour).
///
/// # Errors
///
/// * [`FleetError::EmptyBatch`] for a spec with no jobs.
///
/// # Examples
///
/// ```
/// use clockless_fleet::{run_batch, BatchSpec, HlsWorkload, JobSource, JobSpec};
///
/// let spec = BatchSpec {
///     jobs: vec![
///         JobSpec::new("fir", JobSource::Hls(HlsWorkload::Fir { taps: 4 })),
///         JobSpec::new("poly", JobSource::Hls(HlsWorkload::Horner { degree: 3 })),
///     ],
/// };
/// let one = run_batch(&spec, 1)?;
/// let four = run_batch(&spec, 4)?;
/// // Bit-identical and identically ordered regardless of worker count.
/// assert_eq!(one.to_json(false), four.to_json(false));
/// # Ok::<(), clockless_fleet::FleetError>(())
/// ```
pub fn run_batch(spec: &BatchSpec, workers: usize) -> Result<FleetReport, FleetError> {
    run_batch_with(spec, workers, &FleetConfig::default())
}

/// Runs every job of `spec` on a pool of `workers` threads under the
/// given [`FleetConfig`] and aggregates the results.
///
/// Jobs are resolved to models up front (sequentially — parse errors
/// carry clean line/job attribution). Jobs sharing a source and `steps`
/// share one resolution: the file is read, parsed or synthesized once,
/// and each job runs a copy with its own `init` overrides. Their
/// delta-cycle kernel jobs share one elaboration too, made here and read
/// by every job, which runs a private copy of it with its own inits.
/// They are then submitted to a
/// [`ThreadPool`] executor under their spec
/// index as the ticket. Emissions arrive in completion order and are
/// reordered by ticket, so the report is identical at any worker count
/// apart from the machine-local wall-clock fields. Passing
/// `workers == 0` or `1` runs the batch on a single worker.
///
/// In the default keep-going mode a failing job — build error, kernel
/// error, panic, or exhausted budget — is retried up to
/// `config.max_retries` times (builds excepted) and then quarantined,
/// while every other job completes normally. `JobResult::stats.retries`
/// records the re-executions a flaky-but-eventually-green job consumed.
///
/// # Errors
///
/// * [`FleetError::EmptyBatch`] for a spec with no jobs.
/// * With `config.fail_fast`: the failure of the failing job with the
///   lowest spec index, translated per kind — [`FleetError::Io`] /
///   [`FleetError::Build`] for materialization failures,
///   [`FleetError::Run`], [`FleetError::Panicked`], or
///   [`FleetError::Budget`] for execution failures.
pub fn run_batch_with(
    spec: &BatchSpec,
    workers: usize,
    config: &FleetConfig,
) -> Result<FleetReport, FleetError> {
    if spec.jobs.is_empty() {
        return Err(FleetError::EmptyBatch);
    }
    let resolved = resolve_jobs(spec, config)?;

    let job_count = resolved.len();
    let worker_count = workers.max(1).min(job_count);
    let t0 = Instant::now();
    let (sink, emissions) = mpsc::channel();
    let pool: ThreadPool<JobOutcome> = ThreadPool::new(worker_count, sink, |_, msg| {
        // Belt and braces: `execute_job` fences panics itself, so this
        // only fires if the retry loop's own bookkeeping panics.
        JobOutcome::Failed(JobFailure {
            name: String::new(),
            kind: FailureKind::Panicked,
            error: msg,
            retries: 0,
            stats: clockless_kernel::SimStats::default(),
        })
    });
    for (i, job) in resolved.into_iter().enumerate() {
        let cfg = config.clone();
        pool.submit(i as u64, Box::new(move || execute_job(&job, &cfg)));
    }

    // Drain incrementally: collect exactly one emission per submitted
    // job, then reorder by ticket into spec order.
    let mut slots: Vec<Option<JobOutcome>> = (0..job_count).map(|_| None).collect();
    for Emission { ticket, payload } in emissions.iter().take(job_count) {
        slots[ticket as usize] = Some(payload);
    }
    pool.shutdown();
    let elapsed_ns = t0.elapsed().as_nanos() as u64;
    let jobs: Vec<JobOutcome> = slots
        .into_iter()
        .map(|s| s.expect("every submitted job emits exactly once"))
        .collect();

    if config.fail_fast {
        // Deterministic even under parallel execution: the *lowest-index*
        // failure is reported, whatever order the workers hit them in.
        if let Some(q) = jobs.iter().find_map(|j| j.failure()) {
            return Err(failure_to_error(q));
        }
    }

    let mut totals = clockless_kernel::SimStats::default();
    for j in &jobs {
        match j {
            JobOutcome::Ok(r) => totals.merge(&r.stats),
            JobOutcome::Failed(q) => totals.merge(&q.stats),
        }
    }
    Ok(FleetReport {
        jobs,
        totals,
        workers: worker_count,
        elapsed_ns,
    })
}

/// Resolves every job of `spec` to the unit a worker runs. Jobs sharing
/// a source and `steps` share one resolution, and their kernel jobs one
/// elaboration ([`share_elaborations`]).
///
/// # Errors
///
/// With `config.fail_fast`, the first job's resolution error.
fn resolve_jobs(spec: &BatchSpec, config: &FleetConfig) -> Result<Vec<ResolvedJob>, FleetError> {
    let mut resolved = Vec::with_capacity(spec.jobs.len());
    let mut groups = HashMap::new();
    let mut bases = Vec::new();
    let mut group_of = Vec::with_capacity(spec.jobs.len());
    for j in &spec.jobs {
        let (model, group) = match j.group_key() {
            Some(key) => {
                let g = *groups.entry(key).or_insert_with(|| {
                    bases.push(j.build());
                    bases.len() - 1
                });
                (j.stimulate(&bases[g]), Some(g))
            }
            None => (j.resolve(), None),
        };
        let job = ResolvedJob::with_model(j, config, model);
        if config.fail_fast {
            // Preserve the legacy contract: resolution errors (Io/Build,
            // with line/job attribution) abort before anything runs.
            if let Err(e) = &job.model {
                return Err(e.clone());
            }
        }
        resolved.push(job);
        group_of.push(group);
    }
    share_elaborations(&mut resolved, &group_of, &bases);
    Ok(resolved)
}

/// Gives every kernel job of a group with two or more of them a shared
/// template: the group's model elaborated once, here on the resolving
/// thread, which each job copies before it runs. A group's jobs differ
/// only in register inits, which the copy takes from the job's model.
/// Checked and compiled jobs never run an elaboration; a job alone in
/// its group elaborates its own model and copies nothing.
fn share_elaborations(jobs: &mut [ResolvedJob], group_of: &[Option<usize>], bases: &[Base]) {
    let kernel_group = |job: &ResolvedJob, group: Option<usize>| {
        group.filter(|_| {
            job.model.is_ok() && job.backend == Backend::Interpreted && job.check.is_none()
        })
    };
    let mut users = vec![0usize; bases.len()];
    for (job, &g) in jobs.iter().zip(group_of) {
        if let Some(g) = kernel_group(job, g) {
            users[g] += 1;
        }
    }
    let templates: Vec<Option<Arc<Mutex<Elaboration>>>> = (bases.iter().zip(&users))
        .map(|(base, &n)| match base {
            Ok((model, None)) if n > 1 => Some(Arc::new(Mutex::new(Elaboration::new(
                model,
                ElaborateOptions::traced(),
            )))),
            _ => None,
        })
        .collect();
    for (job, &g) in jobs.iter_mut().zip(group_of) {
        if let Some(g) = kernel_group(job, g) {
            job.template = templates[g].clone();
        }
    }
}

/// Translates a quarantined failure into the legacy fail-fast error.
fn failure_to_error(q: &JobFailure) -> FleetError {
    let job = q.name.clone();
    let msg = q.error.clone();
    match q.kind {
        FailureKind::Build => FleetError::Build { job, msg },
        FailureKind::Run => FleetError::Run { job, msg },
        FailureKind::Panicked => FleetError::Panicked { job, msg },
        FailureKind::DeltaBudget | FailureKind::WallBudget => FleetError::Budget { job, msg },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ChaosProbe, HlsWorkload, JobSource, JobSpec};
    use clockless_core::model::fig1_model;
    use clockless_core::Value;

    fn mixed_spec() -> BatchSpec {
        let mut jobs = vec![
            JobSpec::new("fig1", JobSource::Model(Box::new(fig1_model(3, 4)))),
            JobSpec::new("fir", JobSource::Hls(HlsWorkload::Fir { taps: 6 })),
            JobSpec::new(
                "dag",
                JobSource::Hls(HlsWorkload::Random {
                    seed: 7,
                    nodes: 18,
                    inputs: 4,
                }),
            ),
        ];
        let mut stim = JobSpec::new("fig1_stim", JobSource::Model(Box::new(fig1_model(3, 4))));
        stim.overrides = vec![("R2".into(), 39)];
        jobs.push(stim);
        BatchSpec { jobs }
    }

    /// A batch mixing clean jobs with every failure mode the engine
    /// quarantines: a panicking chaos probe, a delta-budget blowout, and
    /// a build failure.
    fn hostile_spec() -> BatchSpec {
        let mut tight = JobSpec::new("tight", JobSource::Model(Box::new(fig1_model(3, 4))));
        tight.delta_budget = Some(10);
        BatchSpec {
            jobs: vec![
                JobSpec::new("clean_a", JobSource::Model(Box::new(fig1_model(3, 4)))),
                JobSpec::new("boom", JobSource::Chaos(ChaosProbe::Panic)),
                tight,
                JobSpec::new("broken", JobSource::RtlText("not a model".into())),
                JobSpec::new("clean_b", JobSource::Hls(HlsWorkload::Fir { taps: 4 })),
            ],
        }
    }

    #[test]
    fn empty_batch_is_rejected() {
        assert_eq!(
            run_batch(&BatchSpec::default(), 2),
            Err(FleetError::EmptyBatch)
        );
    }

    #[test]
    fn results_keep_spec_order_and_values() {
        let report = run_batch(&mixed_spec(), 3).expect("runs");
        let names: Vec<&str> = report.jobs.iter().map(|j| j.name()).collect();
        assert_eq!(names, ["fig1", "fir", "dag", "fig1_stim"]);
        assert!(report.jobs.iter().all(|j| j.is_ok()));
        assert_eq!(
            report.job("fig1").unwrap().register("R1"),
            Some(Value::Num(7))
        );
        assert_eq!(
            report.job("fig1_stim").unwrap().register("R1"),
            Some(Value::Num(42))
        );
        assert_eq!(report.conflicted_jobs(), 0);
        // Totals are the sum of per-job counters.
        let deltas: u64 = report.results().map(|j| j.stats.delta_cycles).sum();
        assert_eq!(report.totals.delta_cycles, deltas);
    }

    #[test]
    fn one_worker_and_many_workers_agree_bit_for_bit() {
        let spec = mixed_spec();
        let one = run_batch(&spec, 1).expect("runs");
        for workers in [2, 4, 8, 64] {
            let many = run_batch(&spec, workers).expect("runs");
            assert_eq!(one.to_json(false), many.to_json(false), "{workers} workers");
            // Beyond JSON: the structured rows agree except wall time.
            for (a, b) in one.results().zip(many.results()) {
                let mut b = b.clone();
                b.wall_ns = a.wall_ns;
                assert_eq!(*a, b);
            }
        }
    }

    #[test]
    fn worker_count_caps_at_job_count() {
        let spec = BatchSpec {
            jobs: vec![JobSpec::new(
                "only",
                JobSource::Model(Box::new(fig1_model(1, 1))),
            )],
        };
        let report = run_batch(&spec, 16).expect("runs");
        assert_eq!(report.workers, 1);
    }

    #[test]
    fn conflicted_jobs_are_reported_not_fatal() {
        let text = "model clash steps 4\nregister A init 1\nregister B init 2\nregister T\n\
                    bus X\nbus Y\nbus Z\nmodule CPA ops passa comb\nmodule CPB ops passa comb\n\
                    transfer (A,X,-,-,2,CPA,2,Y,T)\ntransfer (B,X,-,-,2,CPB,2,Z,T)\n";
        let spec = BatchSpec {
            jobs: vec![
                JobSpec::new("clean", JobSource::Model(Box::new(fig1_model(1, 1)))),
                JobSpec::new("clash", JobSource::RtlText(text.into())),
            ],
        };
        let report = run_batch(&spec, 2).expect("runs");
        assert_eq!(report.conflicted_jobs(), 1);
        assert!(report.job("clean").unwrap().conflicts.is_clean());
        let first = report
            .job("clash")
            .unwrap()
            .conflicts
            .first()
            .expect("conflict found");
        assert_eq!(first.name, "X");
        let json = report.to_json(false);
        assert!(json.contains("ILLEGAL on bus `X`"), "{json}");
    }

    #[test]
    fn build_failures_are_quarantined_by_default() {
        let spec = BatchSpec {
            jobs: vec![JobSpec::new(
                "broken",
                JobSource::RtlText("not a model".into()),
            )],
        };
        let report = run_batch(&spec, 2).expect("keep-going survives builds");
        assert_eq!(report.failed_jobs(), 1);
        let q = report.quarantined().next().expect("quarantine row");
        assert_eq!(q.name, "broken");
        assert_eq!(q.kind, FailureKind::Build);
        assert_eq!(q.retries, 0, "builds are never retried");
    }

    #[test]
    fn fail_fast_restores_the_legacy_build_error() {
        let spec = BatchSpec {
            jobs: vec![JobSpec::new(
                "broken",
                JobSource::RtlText("not a model".into()),
            )],
        };
        let config = FleetConfig {
            fail_fast: true,
            ..FleetConfig::default()
        };
        let err = run_batch_with(&spec, 2, &config).expect_err("fails");
        assert!(matches!(err, FleetError::Build { ref job, .. } if job == "broken"));
    }

    #[test]
    fn hostile_batch_quarantines_failures_and_keeps_clean_results() {
        let report = run_batch(&hostile_spec(), 4).expect("keep-going survives");
        assert_eq!(report.jobs.len(), 5);
        assert_eq!(report.failed_jobs(), 3);
        // Clean jobs are intact with their real results.
        assert_eq!(
            report.job("clean_a").unwrap().register("R1"),
            Some(Value::Num(7))
        );
        assert!(report.job("clean_b").is_some());
        // Failures are classified, in spec order.
        let rows: Vec<(&str, FailureKind)> = report
            .quarantined()
            .map(|q| (q.name.as_str(), q.kind))
            .collect();
        assert_eq!(
            rows,
            [
                ("boom", FailureKind::Panicked),
                ("tight", FailureKind::DeltaBudget),
                ("broken", FailureKind::Build),
            ]
        );
        let boom = report.quarantined().next().unwrap();
        assert!(boom.error.contains("chaos probe"), "{}", boom.error);
    }

    #[test]
    fn hostile_batch_json_is_identical_across_worker_counts() {
        let spec = hostile_spec();
        let one = run_batch(&spec, 1).expect("runs");
        for workers in [2, 4, 8] {
            let many = run_batch(&spec, workers).expect("runs");
            assert_eq!(one.to_json(false), many.to_json(false), "{workers} workers");
        }
        let json = one.to_json(false);
        assert!(json.contains("\"quarantine\""), "{json}");
        assert!(json.contains("\"status\": \"panicked\""), "{json}");
        assert!(
            json.contains("\"status\": \"delta-budget-exceeded\""),
            "{json}"
        );
        assert!(json.contains("\"status\": \"build-failed\""), "{json}");
    }

    #[test]
    fn quarantined_budget_blowouts_still_count_in_totals() {
        let report = run_batch(&hostile_spec(), 1).expect("runs");
        let tight = report
            .quarantined()
            .find(|q| q.name == "tight")
            .expect("tight overflows");
        assert_eq!(tight.kind, FailureKind::DeltaBudget);
        // The failed job burned exactly its configured budget…
        assert_eq!(tight.stats.delta_cycles, 10);
        // …and the batch totals include it alongside the clean jobs.
        let ok: u64 = report.results().map(|j| j.stats.delta_cycles).sum();
        assert_eq!(report.totals.delta_cycles, ok + 10);
        // Non-budget failures contribute no phantom counters.
        let boom = report.quarantined().find(|q| q.name == "boom").unwrap();
        assert_eq!(boom.stats, clockless_kernel::SimStats::default());
    }

    #[test]
    fn retries_are_bounded_and_recorded() {
        let spec = BatchSpec {
            jobs: vec![JobSpec::new("boom", JobSource::Chaos(ChaosProbe::Panic))],
        };
        let config = FleetConfig {
            max_retries: 2,
            ..FleetConfig::default()
        };
        let report = run_batch_with(&spec, 1, &config).expect("quarantines");
        let q = report.quarantined().next().expect("quarantine row");
        assert_eq!(q.kind, FailureKind::Panicked);
        assert_eq!(q.retries, 2, "all retries consumed before quarantine");
        // Failed-job retries still show up in the merged totals.
        assert_eq!(report.totals.retries, 2);
    }

    #[test]
    fn successful_jobs_record_zero_retries() {
        let report = run_batch(&mixed_spec(), 2).expect("runs");
        for job in report.results() {
            assert_eq!(job.stats.retries, 0, "{}", job.name);
        }
        assert_eq!(report.totals.retries, 0);
    }

    #[test]
    fn fail_fast_reports_the_lowest_index_failure() {
        // Two failing jobs; whichever worker finishes first, the reported
        // error must be the lowest spec index ("boom", index 1).
        let spec = BatchSpec {
            jobs: vec![
                JobSpec::new("clean", JobSource::Model(Box::new(fig1_model(1, 1)))),
                JobSpec::new("boom", JobSource::Chaos(ChaosProbe::Panic)),
                JobSpec::new("boom_too", JobSource::Chaos(ChaosProbe::Panic)),
            ],
        };
        let config = FleetConfig {
            fail_fast: true,
            ..FleetConfig::default()
        };
        for workers in [1, 3] {
            let err = run_batch_with(&spec, workers, &config).expect_err("fails");
            assert!(
                matches!(err, FleetError::Panicked { ref job, .. } if job == "boom"),
                "{err}"
            );
        }
    }

    #[test]
    fn batch_delta_budget_takes_the_minimum_with_job_budgets() {
        // Batch budget 10 throttles even jobs without their own budget.
        let spec = BatchSpec {
            jobs: vec![JobSpec::new(
                "fig1",
                JobSource::Model(Box::new(fig1_model(3, 4))),
            )],
        };
        let config = FleetConfig {
            delta_budget: Some(10),
            ..FleetConfig::default()
        };
        let report = run_batch_with(&spec, 1, &config).expect("quarantines");
        let q = report.quarantined().next().expect("quarantine row");
        assert_eq!(q.kind, FailureKind::DeltaBudget);
        // A generous batch budget lets fig1 (43 deltas) finish.
        let config = FleetConfig {
            delta_budget: Some(1 + 6 * 7),
            ..FleetConfig::default()
        };
        let report = run_batch_with(&spec, 1, &config).expect("runs");
        assert_eq!(report.failed_jobs(), 0);
    }

    #[test]
    fn wall_budget_zero_classifies_as_wall_budget_exceeded() {
        let spec = BatchSpec {
            jobs: vec![JobSpec::new(
                "fig1",
                JobSource::Model(Box::new(fig1_model(3, 4))),
            )],
        };
        let config = FleetConfig {
            wall_budget: Some(Duration::ZERO),
            ..FleetConfig::default()
        };
        let report = run_batch_with(&spec, 1, &config).expect("quarantines");
        let q = report.quarantined().next().expect("quarantine row");
        assert_eq!(q.kind, FailureKind::WallBudget);
        assert!(q.error.contains("wall-clock budget"), "{}", q.error);
    }

    #[test]
    fn compiled_backend_reports_are_byte_identical_to_interpreted() {
        let spec = mixed_spec();
        let interp = run_batch(&spec, 2).expect("runs");
        let config = FleetConfig {
            backend: Some(Backend::Compiled),
            ..FleetConfig::default()
        };
        let compiled = run_batch_with(&spec, 2, &config).expect("runs");
        assert_eq!(interp.to_json(false), compiled.to_json(false));
    }

    #[test]
    fn quarantine_semantics_survive_the_compiled_backend() {
        // Panics, budget blowouts and build failures classify and render
        // identically whichever engine runs the jobs — including the
        // error text of the delta-budget diagnosis.
        let spec = hostile_spec();
        let interp = run_batch(&spec, 1).expect("runs");
        let config = FleetConfig {
            backend: Some(Backend::Compiled),
            ..FleetConfig::default()
        };
        let compiled = run_batch_with(&spec, 4, &config).expect("runs");
        assert_eq!(interp.to_json(false), compiled.to_json(false));
        assert_eq!(compiled.failed_jobs(), 3);
    }

    /// Jobs that share a source share its resolution and its failure:
    /// every job of a failing group is quarantined with the text a job
    /// resolved alone reports, and its clean siblings still run.
    #[test]
    fn grouped_build_failures_quarantine_every_job_of_the_group() {
        let models = concat!(env!("CARGO_MANIFEST_DIR"), "/../../models");
        let spec = BatchSpec::parse(
            "job ok      rtl fig1.rtl init R1=5\n\
             job unk_a   rtl fig1.rtl init NOPE=1\n\
             job unk_b   rtl fig1.rtl init R1=2 init NOPE=3\n\
             job small_a rtl fig1.rtl steps 5\n\
             job small_b rtl fig1.rtl steps 5 init R2=9\n\
             job both    rtl fig1.rtl steps 5 init NOPE=1\n\
             job gone_a  rtl missing.rtl\n\
             job gone_b  rtl missing.rtl init R1=4\n\
             job wide    rtl fig1.rtl steps 9 init R2=1\n",
            models,
        )
        .expect("parses");
        let unknown = "init override names unknown register `NOPE`";
        let small = "step 6 outside 1..=5";
        let gone = std::fs::read_to_string(format!("{models}/missing.rtl"))
            .expect_err("no such file")
            .to_string();
        let report = run_batch(&spec, 2).expect("keep-going survives builds");
        let rows: Vec<(&str, FailureKind, &str)> = report
            .quarantined()
            .map(|q| (q.name.as_str(), q.kind, q.error.as_str()))
            .collect();
        let build = FailureKind::Build;
        assert_eq!(
            rows,
            [
                ("unk_a", build, unknown),
                ("unk_b", build, unknown),
                ("small_a", build, small),
                ("small_b", build, small),
                ("both", build, unknown),
                ("gone_a", build, gone.as_str()),
                ("gone_b", build, gone.as_str()),
            ]
        );
        // Each failing job alone reports the same text, under its name.
        for job in &spec.jobs[1..8] {
            let alone = job.resolve().expect_err("fails alone");
            let msg = match &alone {
                FleetError::Build { job: name, msg } => {
                    assert_eq!(*name, job.name);
                    msg
                }
                FleetError::Io { msg, .. } => msg,
                other => panic!("{other}"),
            };
            let row = rows.iter().find(|r| r.0 == job.name).expect("quarantined");
            assert_eq!(msg, row.2);
        }
        assert_eq!(
            report.job("ok").unwrap().register("R1"),
            Some(Value::Num(5 + 4))
        );
        assert_eq!(report.job("wide").unwrap().cs_max, 9);
        // Fail-fast names the failing job, not the group's first.
        let config = FleetConfig {
            fail_fast: true,
            ..FleetConfig::default()
        };
        let tail = BatchSpec {
            jobs: vec![spec.jobs[0].clone(), spec.jobs[2].clone()],
        };
        let err = run_batch_with(&tail, 1, &config).expect_err("fails");
        assert_eq!(
            err,
            FleetError::Build {
                job: "unk_b".into(),
                msg: unknown.into()
            }
        );
    }

    /// Which jobs run on a copy of a shared elaboration: the kernel jobs
    /// of a group with two or more of them, all on the group's one copy.
    #[test]
    fn kernel_jobs_of_a_group_share_one_elaboration() {
        let models = concat!(env!("CARGO_MANIFEST_DIR"), "/../../models");
        let spec = BatchSpec::parse(
            "job a      rtl fig1.rtl init R1=5\n\
             job b      rtl fig1.rtl init R2=9\n\
             job fast   rtl fig1.rtl backend compiled\n\
             job unk    rtl fig1.rtl init NOPE=1\n\
             job c      rtl fig1.rtl\n\
             job wide_a rtl fig1.rtl steps 9\n\
             job wide_b rtl fig1.rtl steps 9 backend compiled\n\
             job solo   rtl guarded.rtl init H[1]=3\n\
             job d      hls fir 3\n\
             job e      hls fir 3 init NOPE=2\n",
            models,
        )
        .expect("parses");
        let shared = |config: &FleetConfig| -> Vec<Option<Arc<Mutex<Elaboration>>>> {
            let jobs = resolve_jobs(&spec, config).expect("resolves");
            jobs.into_iter().map(|j| j.template).collect()
        };
        let templates = shared(&FleetConfig::default());
        let fig1 = templates[0].as_ref().expect("a, b and c share one");
        for i in [1, 4] {
            assert!(Arc::ptr_eq(fig1, templates[i].as_ref().expect("shared")));
        }
        // Compiled and unresolved jobs run no elaboration, and a kernel
        // job alone in its group (wide_a, solo, d) elaborates its own.
        for (i, template) in templates.iter().enumerate() {
            if ![0, 1, 4].contains(&i) {
                assert!(template.is_none(), "{}", spec.jobs[i].name);
            }
        }
        // A batch-wide compiled backend or checker runs none at all.
        let compiled = FleetConfig {
            backend: Some(Backend::Compiled),
            ..FleetConfig::default()
        };
        let checked = FleetConfig {
            check: Some(Arc::new(CheckProgram {
                signals: Vec::new(),
                monitor: None,
                invariants: Vec::new(),
            })),
            ..FleetConfig::default()
        };
        for config in [compiled, checked] {
            assert!(shared(&config).iter().all(Option::is_none));
        }
    }

    #[test]
    fn per_job_backend_options_are_honored_and_equivalent() {
        let mut fast = JobSpec::new("fig1", JobSource::Model(Box::new(fig1_model(3, 4))));
        fast.backend = Some(Backend::Compiled);
        let spec = BatchSpec { jobs: vec![fast] };
        let report = run_batch(&spec, 1).expect("runs");
        assert_eq!(
            report.job("fig1").unwrap().register("R1"),
            Some(Value::Num(7))
        );
        // A batch-wide backend overrides the per-job option; the
        // deterministic JSON is identical either way.
        let config = FleetConfig {
            backend: Some(Backend::Interpreted),
            ..FleetConfig::default()
        };
        let forced = run_batch_with(&spec, 1, &config).expect("runs");
        assert_eq!(report.to_json(false), forced.to_json(false));
    }
}
