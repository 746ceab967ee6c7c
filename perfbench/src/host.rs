//! What the benchmark reads from the host it runs on: CPU clocks, the
//! host's current speed, and the process's peak memory.
//!
//! The benchmark host is a virtual machine on a shared server, and its
//! numbers move for two reasons that have nothing to do with the program:
//!
//! * **Waiting for a CPU.** Wall time counts the stretches in which the
//!   hypervisor runs other tenants on this machine's CPUs (steal time)
//!   and the wake-ups of idle virtual CPUs each time work passes between
//!   threads. The kernel leaves both out of a task's CPU time, so calls
//!   are costed in CPU time ([`cpu_ns`]).
//! * **Running slower.** Co-tenants on the same physical cores and caches
//!   slow every instruction, by up to 2x, and the slowdown changes from
//!   one second to the next. CPU time cannot see that, so the runner
//!   samples a fixed computation ([`SpeedProbe`]) between calls and
//!   scales each call's cost by the host's speed around the moment it
//!   ran.

use std::fmt::Write as _;
use std::hash::{DefaultHasher, Hasher};
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::inputs::Rng;

/// `struct timespec` of the C library on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` of `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// `CLOCK_THREAD_CPUTIME_ID` of `<time.h>` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

fn clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the duration
    // of the call, and `clock` is one of the constants above, which every
    // Linux kernel supports.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(
        rc, 0,
        "the CPU clocks of a live process are always readable"
    );
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time this process has used so far, summed over all its threads,
/// in ns. A call's cost is the difference across it, so a daemon
/// request counts the work of every daemon thread it passes through, and
/// a fleet batch that of both its workers.
pub fn cpu_ns() -> u64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// Returns the allocator's free memory to the kernel, as a restarted
/// process would start without it.
pub fn trim_heap() {
    // SAFETY: `malloc_trim` only releases free memory of the C allocator;
    // it takes no pointers and may be called from any thread at any time.
    unsafe { malloc_trim(0) };
}

/// Resets this process's peak resident set (`VmHWM`) to its current size.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak-memory mark: {e}"))
}

/// Peak resident set (`VmHWM`) of this process in kB.
pub fn peak_rss_kb() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Keys the probe hashes, sorts and prints.
const PROBE_KEYS: usize = 2048;
/// Slots of the probe's open-addressing table (a power of two).
const PROBE_SLOTS: usize = 4096;

/// CPU time of one warm probe pass, in ns, at the host speed the scaled
/// metrics are quoted at. It is a definition, not a measurement: about
/// the probe's median in the quietest benchmark runs on a shared 2-vCPU
/// 2.1 GHz Xeon host, whose samples ranged from 86 to 370 µs.
pub const PROBE_NOMINAL_NS: f64 = 100_000.0;

/// Wall time between two samples. A sample takes under 1 ms, so sampling
/// adds about 1% to a run's wall time and none to any measured cost.
const PROBE_EVERY: Duration = Duration::from_millis(50);

/// The host's speed at one moment is the median of the samples taken
/// within this much wall time of it: about twenty samples, enough to
/// outvote a sample that one interruption slowed, and short enough to
/// follow the host's speed from one second to the next.
const PROBE_WINDOW: Duration = Duration::from_millis(500);

/// A fixed computation whose CPU time tracks the host's speed.
///
/// It does the kind of work the simulator does — SipHash, open-addressing
/// table inserts and lookups, an unstable sort, integer formatting — on
/// buffers it owns, so it never allocates and the program's heap cannot
/// change its cost. Each sample runs the probe twice and times the second
/// pass, so caches the previous call evicted are warm again and the
/// program's memory footprint cannot change it either. It shares no code
/// with the simulator, so no change to the program moves it.
pub struct SpeedProbe {
    keys: Vec<u64>,
    table: Vec<u64>,
    sorted: Vec<u64>,
    text: String,
    /// Zero of the probe's clock ([`SpeedProbe::now`]).
    start: Instant,
    /// Each sample: when it was taken, on the probe's clock, and the CPU
    /// time of its timed pass in ns.
    samples: Vec<(u64, u64)>,
}

impl Default for SpeedProbe {
    fn default() -> SpeedProbe {
        let mut rng = Rng::new(0x05EE_D0F5_BEED);
        // Odd keys, so 0 marks an empty slot.
        let keys: Vec<u64> = (0..PROBE_KEYS).map(|_| rng.next_u64() | 1).collect();
        SpeedProbe {
            sorted: keys.clone(),
            keys,
            table: vec![0; PROBE_SLOTS],
            // Room for every printed key, so formatting never reallocates.
            text: String::with_capacity(PROBE_KEYS * 8),
            start: Instant::now(),
            samples: Vec::new(),
        }
    }
}

impl SpeedProbe {
    /// Wall time since the probe was made, in ns: the clock on which
    /// samples and calls are placed.
    pub fn now(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn slot(key: u64) -> usize {
        let mut h = DefaultHasher::new();
        h.write_u64(key);
        h.finish() as usize & (PROBE_SLOTS - 1)
    }

    fn pass(&mut self) -> u64 {
        self.table.fill(0);
        for &k in &self.keys {
            let mut s = Self::slot(k);
            while self.table[s] != 0 {
                s = (s + 1) & (PROBE_SLOTS - 1);
            }
            self.table[s] = k;
        }
        let mut acc = 0u64;
        for &k in &self.keys {
            let mut s = Self::slot(k);
            while self.table[s] != k {
                s = (s + 1) & (PROBE_SLOTS - 1);
            }
            acc = acc.wrapping_add(s as u64);
        }
        self.sorted.copy_from_slice(&self.keys);
        self.sorted.sort_unstable();
        self.text.clear();
        for x in self.sorted.iter().step_by(2) {
            let _ = write!(self.text, "{},", x % 1_000_000);
        }
        acc.wrapping_add(self.text.len() as u64)
    }

    /// Runs the probe warm and records the CPU time of the timed pass.
    pub fn sample(&mut self) {
        black_box(self.pass());
        let t = clock_ns(CLOCK_THREAD_CPUTIME_ID);
        black_box(self.pass());
        let ns = clock_ns(CLOCK_THREAD_CPUTIME_ID) - t;
        self.samples.push((self.now(), ns));
    }

    /// Samples unless the last sample is more recent than [`PROBE_EVERY`].
    pub fn tick(&mut self) {
        let every = PROBE_EVERY.as_nanos() as u64;
        if self
            .samples
            .last()
            .is_none_or(|&(at, _)| self.now() - at >= every)
        {
            self.sample();
        }
    }

    /// How much slower than nominal the host ran around `at` (ns on the
    /// probe's clock): the median of the samples within [`PROBE_WINDOW`]
    /// of it, or else the last sample before it, over
    /// [`PROBE_NOMINAL_NS`]; 1 before the first sample. The runner ticks
    /// before every call, so only a call much longer than the window has
    /// no sample near its midpoint.
    pub fn slowdown_at(&self, at: u64) -> f64 {
        let window = PROBE_WINDOW.as_nanos() as u64;
        let lo = self.samples.partition_point(|&(t, _)| t + window < at);
        let hi = self.samples.partition_point(|&(t, _)| t <= at + window);
        let near = if lo < hi {
            &self.samples[lo..hi]
        } else {
            &self.samples[lo.saturating_sub(1)..lo]
        };
        median_slowdown(near)
    }

    /// The median slowdown over the whole run.
    pub fn slowdown(&self) -> f64 {
        median_slowdown(&self.samples)
    }
}

fn median_slowdown(samples: &[(u64, u64)]) -> f64 {
    let mut ns: Vec<u64> = samples.iter().map(|&(_, ns)| ns).collect();
    ns.sort_unstable();
    match ns.get(ns.len() / 2) {
        Some(&median) => median as f64 / PROBE_NOMINAL_NS,
        None => 1.0,
    }
}
