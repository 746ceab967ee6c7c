//! Processes: the active objects of a simulation.
//!
//! A [`Process`] is a resumable state machine, the Rust rendering of a VHDL
//! process. The kernel calls [`Process::resume`] once at initialization and
//! again whenever the process's wait condition is satisfied; the process
//! reads signals and schedules driver assignments through the
//! [`ProcessCtx`] handed to it, then returns the next [`Wait`].
//!
//! VHDL `wait until <cond>` is modeled the canonical way: the process waits
//! on the signals appearing in the condition and re-checks the condition
//! itself on each resumption, going back to sleep if it does not hold. The
//! variant [`Wait::Same`] makes this cheap for static sensitivity lists.

use std::fmt;

use crate::signal::SignalId;
use crate::time::{Femtos, SimTime};

/// Identifies a process within one [`Simulator`](crate::sim::Simulator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub(crate) u32);

impl ProcessId {
    /// The dense index of this process.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "proc#{}", self.0)
    }
}

/// What a process waits for after suspending.
///
/// `Wait` is generic over the simulator's value type only through
/// [`Wait::UntilEq`]; every other variant ignores the parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Wait<V = ()> {
    /// Resume when an event (value change) occurs on any listed signal.
    ///
    /// An empty list means "wait forever" (VHDL `wait;`): the process never
    /// resumes but is not removed, unlike [`Wait::Done`].
    Event(Vec<SignalId>),
    /// Resume when `signal` changes **to exactly this value** — the
    /// kernel evaluates the equality before scheduling the process, so
    /// non-matching events cost one comparison instead of a resumption.
    ///
    /// Semantically identical to waiting on `signal` and re-checking
    /// `value(signal) == v` in the process (VHDL's implicit `wait until`
    /// loop), but evaluated in-kernel.
    UntilEq(SignalId, V),
    /// Keep the previous sensitivity list unchanged.
    ///
    /// Processes with a static sensitivity list (the common case for the
    /// paper's `TRANS`/`REG`/module processes) return this so the kernel
    /// can skip all re-registration work. Semantically identical to
    /// returning the same `Wait::Event` list again.
    Same,
    /// Resume after the given physical delay (VHDL `wait for`).
    For(Femtos),
    /// The process has terminated and will never be resumed.
    Done,
}

impl<V> Wait<V> {
    /// Convenience: wait on a single signal.
    pub fn on(signal: SignalId) -> Wait<V> {
        Wait::Event(vec![signal])
    }
}

/// The interface a process uses while running.
///
/// Exposes signal reads, driver assignment, event queries and the current
/// simulation time. A context is only valid for the duration of one
/// [`Process::resume`] call.
pub struct ProcessCtx<'a, V> {
    pub(crate) pid: ProcessId,
    pub(crate) now: SimTime,
    pub(crate) tick: u64,
    pub(crate) signals: &'a [crate::signal::SignalSlot<V>],
    /// `(signal, driver index within signal)` pairs owned by this process.
    pub(crate) owned: &'a [(SignalId, u32)],
    /// Assignments collected during this resumption:
    /// `(signal, driver index, value, delay)`.
    pub(crate) out: &'a mut Vec<(SignalId, u32, V, Femtos)>,
}

impl<'a, V: Clone> ProcessCtx<'a, V> {
    /// The current simulation time (physical time and delta).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the running process.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Reads the current effective value of a signal.
    ///
    /// # Panics
    ///
    /// Panics if `signal` does not belong to this simulator.
    pub fn value(&self, signal: SignalId) -> &V {
        &self.signals[signal.index()].value
    }

    /// Returns `true` if `signal` had an event in the delta cycle that
    /// caused this resumption (VHDL `'event`).
    pub fn had_event(&self, signal: SignalId) -> bool {
        self.signals[signal.index()].last_event_tick == self.tick
    }

    /// Schedules a delta-delayed assignment of this process's driver of
    /// `signal` (VHDL `signal <= value;`). The new driver value takes
    /// effect in the next delta cycle.
    ///
    /// # Panics
    ///
    /// Panics if this process does not drive `signal` (drivers are declared
    /// when the process is added to the simulator).
    pub fn assign(&mut self, signal: SignalId, value: V) {
        self.assign_after(signal, value, 0);
    }

    /// Schedules an assignment after a physical delay
    /// (VHDL `signal <= value after T;`). A zero delay means delta delay.
    ///
    /// # Panics
    ///
    /// Panics if this process does not drive `signal`.
    pub fn assign_after(&mut self, signal: SignalId, value: V, delay: Femtos) {
        let driver = self
            .owned
            .iter()
            .find(|(s, _)| *s == signal)
            .unwrap_or_else(|| {
                panic!(
                    "process {} assigned to {} without driving it",
                    self.pid, signal
                )
            })
            .1;
        self.out.push((signal, driver, value, delay));
    }
}

/// A resumable process.
///
/// Implementors encode their control state explicitly (an enum field is
/// the usual pattern) because Rust has no coroutines to capture the VHDL
/// process body's implicit program counter.
pub trait Process<V>: Send {
    /// Runs the process until its next suspension point and returns what it
    /// waits for next.
    ///
    /// Called once during initialization and then once per satisfied wait.
    fn resume(&mut self, ctx: &mut ProcessCtx<'_, V>) -> Wait<V>;

    /// A copy of this process in its current state, for
    /// [`Simulator::try_clone`](crate::sim::Simulator::try_clone).
    ///
    /// The default is `None`: a process that cannot copy itself (every
    /// closure) makes its simulator refuse to be copied. Processes whose
    /// state is plain data return `Some(Box::new(self.clone()))`.
    fn try_clone(&self) -> Option<Box<dyn Process<V>>> {
        None
    }
}

/// Blanket impl so closures can serve as simple (often test-only) processes.
///
/// The closure is invoked on every resumption and returns the next wait.
/// Closures cannot copy themselves, so a simulator holding one refuses
/// [`try_clone`](crate::sim::Simulator::try_clone).
impl<V, F> Process<V> for F
where
    F: FnMut(&mut ProcessCtx<'_, V>) -> Wait<V> + Send,
{
    fn resume(&mut self, ctx: &mut ProcessCtx<'_, V>) -> Wait<V> {
        self(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_helpers() {
        let s = SignalId(3);
        assert_eq!(Wait::<()>::on(s), Wait::Event(vec![s]));
        assert_ne!(Wait::<()>::Same, Wait::Event(vec![]));
        assert_ne!(Wait::UntilEq(s, 5i64), Wait::Event(vec![s]));
    }

    #[test]
    fn ids_display() {
        assert_eq!(ProcessId(2).to_string(), "proc#2");
        assert_eq!(SignalId(9).to_string(), "sig#9");
    }
}
