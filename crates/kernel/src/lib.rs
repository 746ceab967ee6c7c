//! # clockless-kernel — a delta-cycle discrete-event simulation kernel
//!
//! This crate is the substrate of the `clockless` workspace: a small,
//! self-contained discrete-event simulator implementing the slice of VHDL
//! simulation semantics that the DATE 1998 paper *"Register Transfer Level
//! VHDL Models without Clocks"* builds on:
//!
//! * **Delta cycles.** Assignments are delta-delayed; successive simulation
//!   cycles at the same physical instant are counted explicitly. Clock-free
//!   RT models run entirely in delta time.
//! * **Resolved signals.** A signal driven by several processes combines
//!   its driver values with a user-defined resolution function — the
//!   mechanism the paper uses to detect resource conflicts on buses and
//!   functional-unit ports.
//! * **Processes.** Resumable state machines with VHDL-style waits:
//!   sensitivity lists, timed waits and termination.
//!
//! Physical time is also supported (femtosecond resolution) so the same
//! kernel runs the *clocked* translations and the asynchronous-handshake
//! baseline used for the paper's performance comparison.
//!
//! ## Example
//!
//! ```
//! use clockless_kernel::prelude::*;
//! use std::sync::Arc;
//!
//! // A wired-OR bus with two drivers.
//! let mut sim: Simulator<i64> = Simulator::new();
//! let bus = sim.resolved_signal("bus", 0, Arc::new(|d: &[i64]| d.iter().copied().max().unwrap_or(0)));
//! sim.process("d1", &[bus], move |ctx: &mut ProcessCtx<'_, i64>| {
//!     ctx.assign(bus, 3);
//!     Wait::Done
//! });
//! sim.process("d2", &[bus], move |ctx: &mut ProcessCtx<'_, i64>| {
//!     ctx.assign(bus, 7);
//!     Wait::Done
//! });
//! sim.initialize()?;
//! let stats = sim.run()?;
//! assert_eq!(*sim.value(bus), 7);
//! assert!(stats.delta_cycles >= 2);
//! # Ok::<(), clockless_kernel::KernelError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod process;
pub mod signal;
pub mod sim;
pub mod time;
pub mod trace;

pub use error::KernelError;
pub use process::{Process, ProcessCtx, ProcessId, Wait};
pub use signal::{Resolver, SignalId};
pub use sim::{RunBudget, SimStats, SimValue, Simulator, StepOutcome, DEFAULT_DELTA_LIMIT};
pub use time::{Femtos, SimTime, NS, PS};
pub use trace::{Trace, TraceEvent};

/// Convenient glob import for kernel users.
pub mod prelude {
    pub use crate::error::KernelError;
    pub use crate::process::{Process, ProcessCtx, ProcessId, Wait};
    pub use crate::signal::{Resolver, SignalId};
    pub use crate::sim::{RunBudget, SimStats, SimValue, Simulator, StepOutcome};
    pub use crate::time::{Femtos, SimTime, NS, PS};
}
