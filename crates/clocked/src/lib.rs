//! # clockless-clocked — from control steps to clock signals, and the
//! handshake baseline
//!
//! The clock-free RT models of `clockless-core` sit *above* conventional
//! clocked RTL: §4 of the DATE 1998 paper notes that "the transformation
//! into a usual synthesizable RT description based on clock signals can be
//! performed automatically". This crate implements that succeeding
//! synthesis step and the comparison styles around it:
//!
//! * [`translate`] — compiles transfer tuples into per-step routing tables
//!   and rejects static resource conflicts; [`ClockScheme`] picks how many
//!   clock cycles implement one control step (two low-level architectures,
//!   demonstrating the paper's "several ways to implement control steps").
//! * [`sim`] — executes the clocked design on the same kernel, now with a
//!   real clock and physical time.
//! * [`handshake`] — the expensive alternative the paper contrasts with:
//!   the same schedule executed by agents synchronizing via 4-phase
//!   request/acknowledge handshakes in delta time.
//! * [`equiv`] — side-by-side equivalence checks between the styles.
//! * [`vhdl`] — emission of the translated design as synthesizable
//!   VHDL-1993 (the §4 hand-off artifact).
//!
//! ## Example
//!
//! ```
//! use clockless_core::model::fig1_model;
//! use clockless_clocked::{check_clocked_equivalence, ClockScheme};
//!
//! let model = fig1_model(3, 4);
//! let report = check_clocked_equivalence(&model, ClockScheme::default())?;
//! assert!(report.equivalent());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod equiv;
pub mod handshake;
pub mod sim;
pub mod translate;
pub mod vhdl;

pub use equiv::{
    check_clocked_equivalence, check_handshake_equivalence, EquivError, EquivalenceReport, Mismatch,
};
pub use handshake::HandshakeSim;
pub use sim::{ClockedCommit, ClockedSimulation};
pub use translate::{
    BusSource, ClockScheme, ClockedDesign, RoutingTables, StepRoutes, TranslateError,
};
pub use vhdl::emit_clocked_vhdl;
