//! # clockless-fleet — deterministic parallel batch runs
//!
//! The paper's central cost claim — one control step of a clock-free RT
//! model is exactly six delta cycles — makes single runs cheap, and cheap
//! single runs make *sweeps* attractive: many schedule candidates, many
//! stimuli, many microcode variants, all simulated side by side. This
//! crate is the batch engine for such sweeps.
//!
//! A [`BatchSpec`] names N independent jobs (models from `.rtl` files,
//! high-level-synthesis output, or IKS chip builders, each optionally
//! re-parameterized with a `CS_MAX` override and register-init stimulus).
//! [`run_batch`] resolves every job to a model once, then submits the
//! jobs to the generic job-queue executor in [`executor`] — a pool of
//! `std::thread` workers pulling from a shared queue and emitting each
//! result on a channel the moment it completes (the same executor the
//! `clockless-serve` daemon streams NDJSON responses from).
//! Every job runs on its **own, fully isolated kernel instance** — the
//! kernel holds no shared mutable state (see the isolation test in
//! `clockless-kernel`), so results are bit-identical and identically
//! ordered no matter how many workers run, which the test suite asserts
//! by comparing 1-worker and N-worker reports byte for byte.
//!
//! Results aggregate into a [`FleetReport`]: per-job outcomes (kernel
//! counters, final registers, conflict diagnoses, wall time) plus merged
//! totals via [`SimStats::merge`](clockless_kernel::SimStats::merge),
//! JSON-serializable with the same hand-rolled writer style as the rest
//! of the workspace (no external crates; tier-1 stays offline).
//!
//! The engine is **fault-tolerant by default**: a job that fails to
//! build, errors, panics, or blows a configured delta/wall budget is
//! retried up to a bound and then *quarantined* as a
//! [`JobOutcome::Failed`] row while the rest of the batch completes —
//! the deterministic JSON (including the quarantine section) stays
//! byte-identical at any worker count. [`run_batch_with`] takes a
//! [`FleetConfig`] for budgets, retry bounds, and the legacy fail-fast
//! mode.
//!
//! ## Example
//!
//! ```
//! use clockless_core::model::fig1_model;
//! use clockless_core::Value;
//! use clockless_fleet::{run_batch, BatchSpec, JobSource, JobSpec};
//!
//! // Sweep the Fig. 1 adder over three stimuli.
//! let jobs = (0..3)
//!     .map(|i| JobSpec::new(format!("fig1_{i}"), JobSource::Model(Box::new(fig1_model(i, 10)))))
//!     .collect();
//! let report = run_batch(&BatchSpec { jobs }, 2)?;
//!
//! // Jobs come back in spec order regardless of worker count.
//! assert_eq!(report.jobs.len(), 3);
//! assert_eq!(report.failed_jobs(), 0);
//! assert_eq!(report.job("fig1_2").unwrap().register("R1"), Some(Value::Num(12)));
//! // Totals merge every job's kernel counters.
//! assert_eq!(report.totals.delta_cycles, 3 * 43);
//! # Ok::<(), clockless_fleet::FleetError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod executor;
pub mod report;
pub mod spec;

pub use engine::{run_batch, run_batch_with, FleetConfig};
pub use executor::{classify_kernel_error, execute_job, Emission, ResolvedJob, ThreadPool, WorkFn};
pub use report::{FailureKind, FleetReport, JobFailure, JobOutcome, JobResult};
pub use spec::{BatchSpec, ChaosProbe, FleetError, HlsWorkload, JobSource, JobSpec};
