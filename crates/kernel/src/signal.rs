//! Signals, drivers and resolution functions.
//!
//! A signal carries a value of the kernel's value type. Every process that
//! assigns to a signal owns a *driver* for it; the signal's *effective*
//! value is computed from all driver values. Signals with more than one
//! driver must declare a [`Resolver`] — exactly the VHDL rule the paper
//! leans on to detect resource conflicts: the clock-free RT subset resolves
//! colliding bus drivers to an `ILLEGAL` value.

use std::fmt;
use std::sync::Arc;

/// Identifies a signal within one [`Simulator`](crate::sim::Simulator).
///
/// Ids are small dense indices; they are only meaningful for the simulator
/// that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SignalId(pub(crate) u32);

impl SignalId {
    /// The dense index of this signal.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a signal id from a dense index.
    ///
    /// Ids built this way are only meaningful against the simulator (or
    /// trace) whose declaration order produced that index; this is the
    /// inverse of [`index`](Self::index) for alternative execution
    /// engines that reconstruct kernel-compatible traces.
    pub fn from_index(index: usize) -> Self {
        SignalId(index as u32)
    }
}

impl fmt::Display for SignalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sig#{}", self.0)
    }
}

/// A resolution function: combines the values of all drivers of a signal
/// into one effective value.
///
/// The function receives one entry per driver (including the implicit
/// external driver if the signal has been [`force`](crate::sim::Simulator::force)d)
/// in an unspecified but stable order.
pub type Resolver<V> = Arc<dyn Fn(&[V]) -> V + Send + Sync>;

/// Internal storage for one signal.
pub(crate) struct SignalSlot<V> {
    /// Shared, so a copied simulator allocates no names.
    pub(crate) name: Arc<str>,
    /// Current effective value.
    pub(crate) value: V,
    /// One value per attached driver.
    pub(crate) drivers: Vec<V>,
    /// Optional resolution function (required when `drivers.len() > 1`).
    pub(crate) resolver: Option<Resolver<V>>,
    /// Processes waiting for an event on this signal: `(process, token)`.
    /// Entries whose token no longer matches the process's current wait
    /// token are stale and removed lazily.
    pub(crate) waiters: Vec<(u32, u64)>,
    /// Processes waiting until this signal equals a specific value
    /// (`Wait::UntilEq`), bucketed by the awaited value so an event only
    /// ever touches the waiters whose predicate just became true. The
    /// value type carries no `Hash` bound, so the bucket key lookup is a
    /// linear scan — the number of distinct awaited values per signal is
    /// small (control steps, phases). Entries are `(process, token)` like
    /// [`waiters`](Self::waiters) and stale entries are compacted away
    /// whenever their bucket fires.
    pub(crate) pred_buckets: Vec<(V, Vec<(u32, u64)>)>,
    /// Delta/time at which the last event (value change) occurred, as a
    /// monotonically increasing tick; used by `ProcessCtx::had_event`.
    pub(crate) last_event_tick: u64,
}

impl<V: fmt::Debug> fmt::Debug for SignalSlot<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SignalSlot")
            .field("name", &self.name)
            .field("value", &self.value)
            .field("drivers", &self.drivers.len())
            .field("resolved", &self.resolver.is_some())
            .finish()
    }
}

impl<V: Clone> SignalSlot<V> {
    pub(crate) fn new(name: Arc<str>, init: V, resolver: Option<Resolver<V>>) -> Self {
        SignalSlot {
            name,
            value: init,
            drivers: Vec::new(),
            resolver,
            waiters: Vec::new(),
            pred_buckets: Vec::new(),
            last_event_tick: 0,
        }
    }

    /// A copy of a slot no process has waited on yet: the same name,
    /// value, drivers and resolver, with empty wait lists.
    pub(crate) fn unstarted_copy(&self) -> Self {
        SignalSlot {
            name: Arc::clone(&self.name),
            value: self.value.clone(),
            drivers: self.drivers.clone(),
            resolver: self.resolver.clone(),
            waiters: Vec::new(),
            pred_buckets: Vec::new(),
            last_event_tick: 0,
        }
    }

    /// Computes the effective value from the drivers.
    ///
    /// With zero drivers the current value is kept (the signal only changes
    /// via `force`). With one driver and no resolver the driver value is
    /// used directly. Otherwise the resolution function is applied.
    pub(crate) fn effective(&self) -> V {
        match (&self.resolver, self.drivers.len()) {
            (_, 0) => self.value.clone(),
            (None, 1) => self.drivers[0].clone(),
            (Some(r), _) => r(&self.drivers),
            (None, _) => unreachable!("multiple drivers without resolver rejected at elaboration"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_driver_passthrough() {
        let mut s: SignalSlot<i64> = SignalSlot::new("s".into(), 0, None);
        s.drivers.push(42);
        assert_eq!(s.effective(), 42);
    }

    #[test]
    fn zero_drivers_keeps_value() {
        let s: SignalSlot<i64> = SignalSlot::new("s".into(), 7, None);
        assert_eq!(s.effective(), 7);
    }

    #[test]
    fn resolver_combines_all_drivers() {
        let sum: Resolver<i64> = Arc::new(|vs: &[i64]| vs.iter().sum());
        let mut s = SignalSlot::new("bus".into(), 0, Some(sum));
        s.drivers.extend([1, 2, 3]);
        assert_eq!(s.effective(), 6);
    }

    #[test]
    fn resolver_applies_even_with_one_driver() {
        let neg: Resolver<i64> = Arc::new(|vs: &[i64]| -vs[0]);
        let mut s = SignalSlot::new("bus".into(), 0, Some(neg));
        s.drivers.push(5);
        assert_eq!(s.effective(), -5);
    }
}
