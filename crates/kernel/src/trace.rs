//! Waveform recording and VCD export.
//!
//! When tracing is enabled the kernel records every signal event. Because
//! clock-free models live entirely in delta time, the exporter maps each
//! distinct `(physical time, delta)` instant to one VCD timestep, so delta
//! cycles are visible as consecutive ticks — which is exactly how the paper
//! suggests locating resource conflicts: "ILLEGAL values of resolved
//! signals in specific simulation cycles".

use std::fmt::{self, Display, Write as _};

use crate::signal::SignalId;
use crate::time::SimTime;

/// One recorded value change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent<V> {
    /// When the change took effect.
    pub at: SimTime,
    /// The changed signal.
    pub signal: SignalId,
    /// The new effective value.
    pub value: V,
}

/// A recorded waveform: the ordered list of all signal events.
#[derive(Debug, Clone, Default)]
pub struct Trace<V> {
    events: Vec<TraceEvent<V>>,
}

impl<V> Trace<V> {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace { events: Vec::new() }
    }

    pub(crate) fn record(&mut self, at: SimTime, signal: SignalId, value: V) {
        self.events.push(TraceEvent { at, signal, value });
    }

    /// Appends an event. Events must be pushed in chronological order for
    /// [`to_vcd`](Self::to_vcd) to render correct timesteps.
    ///
    /// The kernel records its own events internally; this entry point
    /// exists for alternative execution engines that reconstruct a
    /// kernel-compatible waveform without running the event loop.
    pub fn push(&mut self, at: SimTime, signal: SignalId, value: V) {
        self.record(at, signal, value);
    }

    /// All recorded events in chronological order.
    pub fn events(&self) -> &[TraceEvent<V>] {
        &self.events
    }

    /// Events affecting one signal, in chronological order.
    pub fn events_for(&self, signal: SignalId) -> impl Iterator<Item = &TraceEvent<V>> {
        self.events.iter().filter(move |e| e.signal == signal)
    }

    /// The last recorded value of a signal, if any.
    pub fn last_value(&self, signal: SignalId) -> Option<&V> {
        self.events
            .iter()
            .rev()
            .find(|e| e.signal == signal)
            .map(|e| &e.value)
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl<V: Display> Trace<V> {
    /// Renders the trace as a Value Change Dump (VCD) document.
    ///
    /// `names` supplies one identifier per signal id (index = id). Each
    /// distinct simulation instant — physical time *or* delta cycle — maps
    /// to one VCD timestep, making the delta structure of clock-free
    /// models directly visible in a waveform viewer.
    ///
    /// Values are emitted as VCD `real` changes via their `Display` form
    /// when numeric, or as string changes otherwise.
    pub fn to_vcd<S: AsRef<str>>(&self, names: &[S]) -> String {
        let mut out = String::with_capacity(128 + 24 * names.len() + 12 * self.events.len());
        out.push_str("$date clockless $end\n$version clockless-kernel $end\n");
        out.push_str("$timescale 1fs $end\n$scope module top $end\n");
        let idents: Vec<String> = (0..names.len()).map(vcd_ident).collect();
        for (ident, name) in idents.iter().zip(names) {
            let clean: String = name
                .as_ref()
                .chars()
                .map(|c| if c.is_whitespace() { '_' } else { c })
                .collect();
            let _ = writeln!(out, "$var wire 64 {ident} {clean} $end");
        }
        out.push_str("$upscope $end\n$enddefinitions $end\n");

        let mut step: u64 = 0;
        let mut last_at: Option<SimTime> = None;
        for e in &self.events {
            if last_at != Some(e.at) {
                if last_at.is_some() {
                    step += 1;
                }
                let _ = writeln!(out, "#{step}");
                last_at = Some(e.at);
            }
            let _ = write!(out, "s{} ", e.value);
            match idents.get(e.signal.index()) {
                Some(ident) => out.push_str(ident),
                None => out.push_str(&vcd_ident(e.signal.index())),
            }
            out.push('\n');
        }
        out
    }
}

/// Short printable VCD identifier for a dense index.
fn vcd_ident(mut i: usize) -> String {
    // Identifiers use printable ASCII 33..=126.
    let mut s = String::new();
    loop {
        s.push(char::from(33 + (i % 94) as u8));
        i /= 94;
        if i == 0 {
            break;
        }
    }
    s
}

impl<V: fmt::Debug> Display for TraceEvent<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} = {:?}", self.at, self.signal, self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_filters() {
        let mut t: Trace<i64> = Trace::new();
        t.record(SimTime::ZERO, SignalId(0), 1);
        t.record(SimTime::ZERO.next_delta(), SignalId(1), 2);
        t.record(SimTime::ZERO.next_delta(), SignalId(0), 3);
        assert_eq!(t.len(), 3);
        assert_eq!(t.events_for(SignalId(0)).count(), 2);
        assert_eq!(t.last_value(SignalId(0)), Some(&3));
        assert_eq!(t.last_value(SignalId(9)), None);
    }

    #[test]
    fn vcd_has_headers_and_steps() {
        let mut t: Trace<i64> = Trace::new();
        t.record(SimTime::ZERO, SignalId(0), 1);
        t.record(SimTime::ZERO.next_delta(), SignalId(0), 2);
        let vcd = t.to_vcd(&["sig a".to_string()]);
        assert!(vcd.contains("$enddefinitions"));
        assert!(vcd.contains("sig_a"));
        assert!(vcd.contains("#0"));
        assert!(vcd.contains("#1"));
    }

    #[test]
    fn idents_are_unique_and_printable() {
        let a = vcd_ident(0);
        let b = vcd_ident(93);
        let c = vcd_ident(94);
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert!(c.len() > 1);
    }
}
