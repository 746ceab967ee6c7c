//! Integration tests exercising kernel behaviours across modules:
//! tracing, mixed delta/physical timing, run control and stress shapes.

use std::sync::Arc;

use clockless_kernel::prelude::*;
use clockless_kernel::TraceEvent;

#[test]
fn trace_records_initial_values_and_events() {
    let mut sim: Simulator<i64> = Simulator::new();
    sim.enable_trace();
    let a = sim.signal("a", 5);
    let b = sim.signal("b", 0);
    sim.process("copy", &[b], move |ctx: &mut ProcessCtx<'_, i64>| {
        let v = *ctx.value(a);
        ctx.assign(b, v * 2);
        Wait::Done
    });
    sim.initialize().unwrap();
    sim.run().unwrap();
    let trace = sim.trace().expect("tracing enabled");
    // Initial values for both signals plus b's change.
    assert_eq!(trace.events().len(), 3);
    assert_eq!(trace.last_value(a), Some(&5));
    assert_eq!(trace.last_value(b), Some(&10));
    // a never changed after initialization.
    assert_eq!(trace.events_for(a).count(), 1);
}

#[test]
fn run_until_stops_at_the_deadline() {
    let mut sim: Simulator<i64> = Simulator::new();
    let tick = sim.signal("tick", 0);
    let mut n = 0i64;
    sim.process("clock", &[tick], move |ctx: &mut ProcessCtx<'_, i64>| {
        n += 1;
        ctx.assign(tick, n);
        Wait::For(10 * NS)
    });
    sim.initialize().unwrap();
    sim.run_until(35 * NS).unwrap();
    // Ticks at 0, 10, 20, 30 ns have fired; the 40 ns one has not.
    assert_eq!(*sim.value(tick), 4);
    assert!(!sim.is_quiescent());
    sim.run_until(40 * NS).unwrap();
    assert_eq!(*sim.value(tick), 5);
}

#[test]
fn timed_updates_at_the_same_instant_apply_in_issue_order() {
    let mut sim: Simulator<i64> = Simulator::new();
    let s = sim.signal("s", 0);
    sim.process("d", &[s], move |ctx: &mut ProcessCtx<'_, i64>| {
        // Both land at t = 5ns; the later-issued write wins (it is the
        // driver's final scheduled value for that instant).
        ctx.assign_after(s, 1, 5 * NS);
        ctx.assign_after(s, 2, 5 * NS);
        Wait::Done
    });
    sim.initialize().unwrap();
    sim.run().unwrap();
    assert_eq!(*sim.value(s), 2);
}

#[test]
fn wait_for_zero_resumes_next_delta() {
    let mut sim: Simulator<i64> = Simulator::new();
    let s = sim.signal("s", 0);
    let mut fired = 0i64;
    sim.process("z", &[s], move |ctx: &mut ProcessCtx<'_, i64>| {
        fired += 1;
        ctx.assign(s, fired);
        if fired < 3 {
            Wait::For(0)
        } else {
            Wait::Done
        }
    });
    sim.initialize().unwrap();
    let stats = sim.run().unwrap();
    assert_eq!(*sim.value(s), 3);
    // Everything happened at physical time zero.
    assert_eq!(stats.time_advances, 0);
    assert_eq!(sim.now().fs, 0);
}

#[test]
fn resolved_bus_with_many_drivers_stress() {
    // 64 drivers on one bus, each active in its own delta window.
    let mut sim: Simulator<i64> = Simulator::new();
    let resolver: Resolver<i64> = Arc::new(|d: &[i64]| d.iter().copied().filter(|&v| v != 0).sum());
    let bus = sim.resolved_signal("bus", 0, resolver);
    for i in 0..64i64 {
        sim.process(
            format!("d{i}"),
            &[bus],
            move |ctx: &mut ProcessCtx<'_, i64>| {
                ctx.assign(bus, i + 1);
                Wait::Done
            },
        );
    }
    sim.initialize().unwrap();
    sim.run().unwrap();
    // Sum of 1..=64.
    assert_eq!(*sim.value(bus), 65 * 32);
}

#[test]
fn long_delta_chain_is_linear_and_exact() {
    // A 10_000-stage delta ripple: process i fires when s reaches i.
    let mut sim: Simulator<i64> = Simulator::new();
    let s = sim.signal("s", 0);
    let mut n = 0i64;
    sim.process("ripple", &[s], move |ctx: &mut ProcessCtx<'_, i64>| {
        n += 1;
        if n <= 10_000 {
            ctx.assign(s, n);
            Wait::on(s)
        } else {
            Wait::Done
        }
    });
    sim.initialize().unwrap();
    let stats = sim.run().unwrap();
    assert_eq!(*sim.value(s), 10_000);
    assert!(stats.delta_cycles >= 10_000);
    assert_eq!(stats.time_advances, 0);
}

#[test]
fn signal_and_process_names_are_queryable() {
    let mut sim: Simulator<i64> = Simulator::new();
    let a = sim.signal("alpha", 0);
    let pid = sim.process("worker", &[a], |_: &mut ProcessCtx<'_, i64>| Wait::Done);
    assert_eq!(sim.signal_name(a), "alpha");
    assert_eq!(sim.process_name(pid), "worker");
    assert_eq!(sim.signal_names().collect::<Vec<_>>(), vec!["alpha"]);
}

#[test]
fn mixed_delta_and_physical_activity() {
    // A physical-time producer and a delta-time follower interleave.
    let mut sim: Simulator<i64> = Simulator::new();
    let src = sim.signal("src", 0);
    let dst = sim.signal("dst", 0);
    let mut n = 0i64;
    sim.process("producer", &[src], move |ctx: &mut ProcessCtx<'_, i64>| {
        n += 1;
        ctx.assign(src, n);
        if n < 5 {
            Wait::For(7 * NS)
        } else {
            Wait::Done
        }
    });
    sim.process("follower", &[dst], move |ctx: &mut ProcessCtx<'_, i64>| {
        let v = *ctx.value(src);
        ctx.assign(dst, v * 10);
        Wait::on(src)
    });
    sim.initialize().unwrap();
    let stats = sim.run().unwrap();
    assert_eq!(*sim.value(dst), 50);
    assert_eq!(sim.now().fs, 4 * 7 * NS);
    assert_eq!(stats.time_advances, 4);
}

#[test]
fn force_after_quiescence_revives_the_simulation() {
    let mut sim: Simulator<i64> = Simulator::new();
    let input = sim.signal("in", 0);
    let acc = sim.signal("acc", 0);
    sim.process("sum", &[acc], move |ctx: &mut ProcessCtx<'_, i64>| {
        let v = *ctx.value(input) + *ctx.value(acc);
        if *ctx.value(input) != 0 {
            ctx.assign(acc, v);
        }
        Wait::on(input)
    });
    sim.initialize().unwrap();
    sim.run().unwrap();
    for v in [3, 4, 5] {
        sim.force(input, v).unwrap();
        sim.run().unwrap();
    }
    assert_eq!(*sim.value(acc), 12);
}

#[test]
fn vcd_export_of_a_real_run() {
    let mut sim: Simulator<i64> = Simulator::new();
    sim.enable_trace();
    let s = sim.signal("sig", 0);
    let mut n = 0i64;
    sim.process("count", &[s], move |ctx: &mut ProcessCtx<'_, i64>| {
        n += 1;
        ctx.assign(s, n);
        if n < 4 {
            Wait::on(s)
        } else {
            Wait::Done
        }
    });
    sim.initialize().unwrap();
    sim.run().unwrap();
    let names: Vec<String> = sim.signal_names().map(str::to_string).collect();
    let vcd = sim.trace().unwrap().to_vcd(&names);
    assert!(vcd.contains("$var wire 64 ! sig $end"));
    // Four value changes + initial: five timesteps at most.
    assert!(vcd.matches("\n#").count() <= 5);
    assert!(vcd.contains("s4 !"));
}

/// Per-instance isolation audit: the kernel keeps no hidden shared
/// state, so independent simulators running concurrently on separate
/// threads produce exactly the counters and values a serial run does.
/// This is the property the `clockless-fleet` batch engine builds its
/// determinism guarantee on.
#[test]
fn concurrent_instances_are_fully_isolated() {
    fn build_and_run(n_drivers: i64) -> (SimStats, i64) {
        let mut sim: Simulator<i64> = Simulator::new();
        let bus = sim.resolved_signal(
            "bus",
            0,
            Arc::new(|d: &[i64]| d.iter().copied().max().unwrap_or(0)),
        );
        for i in 1..=n_drivers {
            sim.process(
                format!("d{i}"),
                &[bus],
                move |ctx: &mut ProcessCtx<'_, i64>| {
                    ctx.assign(bus, i);
                    Wait::Done
                },
            );
        }
        sim.initialize().unwrap();
        let stats = sim.run().unwrap();
        (stats, *sim.value(bus))
    }

    // Serial reference runs…
    let reference: Vec<(SimStats, i64)> = (1..=8).map(build_and_run).collect();
    // …must match the same workloads executed concurrently.
    let concurrent: Vec<(SimStats, i64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (1..=8).map(|n| s.spawn(move || build_and_run(n))).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(reference, concurrent);

    // Copies of one shared template, each with its own stimulus, run
    // concurrently exactly as they run one after another: the template
    // is only read, and each copy owns all of its state.
    let (template, sigs) = copyable_model();
    let template = std::sync::Mutex::new(template);
    let copy_and_run = |seed: i64| {
        let mut sim = template.lock().unwrap().try_clone().expect("copyable");
        sim.set_initial_value(sigs.seed, seed).unwrap();
        run_observed(sim, &sigs)
    };
    let serial: Vec<Observed> = (1..=8).map(copy_and_run).collect();
    let concurrent: Vec<Observed> = std::thread::scope(|s| {
        let handles: Vec<_> = (1..=8)
            .map(|seed| s.spawn(move || copy_and_run(seed)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(serial, concurrent);
    assert_ne!(serial[0], serial[1], "the stimulus reaches the run");
}

// ---- Copying a simulator that is still being built ----------------------

/// A counter that writes `1..=limit` onto its driver of a resolved bus,
/// one value per delta, then pauses 5 ns and releases the bus.
#[derive(Clone)]
struct Counter {
    bus: SignalId,
    seed: SignalId,
    n: i64,
    limit: i64,
}

impl Process<i64> for Counter {
    fn resume(&mut self, ctx: &mut ProcessCtx<'_, i64>) -> Wait<i64> {
        self.n += 1;
        if self.n <= self.limit {
            let v = self.n + *ctx.value(self.seed);
            ctx.assign(self.bus, v);
            Wait::For(0)
        } else if self.n == self.limit + 1 {
            Wait::For(5 * NS)
        } else {
            ctx.assign(self.bus, 0);
            Wait::Done
        }
    }

    fn try_clone(&self) -> Option<Box<dyn Process<i64>>> {
        Some(Box::new(self.clone()))
    }
}

/// Copies the bus to `out` whenever the bus reaches `target`, counting
/// its wake-ups in `out` (an in-kernel `UntilEq` filter).
#[derive(Clone)]
struct Watcher {
    bus: SignalId,
    out: SignalId,
    target: i64,
    wakes: i64,
}

impl Process<i64> for Watcher {
    fn resume(&mut self, ctx: &mut ProcessCtx<'_, i64>) -> Wait<i64> {
        self.wakes += 1;
        ctx.assign(self.out, self.wakes * 100 + *ctx.value(self.bus));
        Wait::UntilEq(self.bus, self.target)
    }

    fn try_clone(&self) -> Option<Box<dyn Process<i64>>> {
        Some(Box::new(self.clone()))
    }
}

/// The signals of [`copyable_model`].
struct Sigs {
    seed: SignalId,
    bus: SignalId,
    out: SignalId,
}

/// A traced simulator, not yet initialized, whose every process can copy
/// itself: two counters summed on a resolved bus, a watcher of the bus,
/// and an undriven `seed` input the counters add in.
fn copyable_model() -> (Simulator<i64>, Sigs) {
    let mut sim: Simulator<i64> = Simulator::new();
    sim.enable_trace();
    let seed = sim.signal("seed", 0);
    let sum: Resolver<i64> = Arc::new(|d: &[i64]| d.iter().sum());
    let bus = sim.resolved_signal("bus", 0, sum);
    let out = sim.signal("out", -1);
    for (name, limit) in [("c3", 3), ("c5", 5)] {
        let counter = Counter {
            bus,
            seed,
            n: 0,
            limit,
        };
        sim.process(name, &[bus], counter);
    }
    let watcher = Watcher {
        bus,
        out,
        target: 0,
        wakes: 0,
    };
    sim.process("watch", &[out], watcher);
    (sim, Sigs { seed, bus, out })
}

/// Everything a run shows.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    values: Vec<i64>,
    stats: SimStats,
    activations: Vec<u64>,
    trace: Vec<TraceEvent<i64>>,
    now: SimTime,
}

fn run_observed(mut sim: Simulator<i64>, sigs: &Sigs) -> Observed {
    sim.initialize().unwrap();
    let stats = sim.run().unwrap();
    Observed {
        values: [sigs.seed, sigs.bus, sigs.out]
            .iter()
            .map(|&s| *sim.value(s))
            .collect(),
        stats,
        activations: sim.activation_counts().to_vec(),
        trace: sim.trace().expect("traced").events().to_vec(),
        now: sim.now(),
    }
}

#[test]
fn a_copy_runs_exactly_as_its_original() {
    let (template, sigs) = copyable_model();
    let copy = template.try_clone().expect("every process copies itself");
    assert_eq!(
        copy.signal_names().collect::<Vec<_>>(),
        ["seed", "bus", "out"]
    );
    assert_eq!(
        copy.process_names().collect::<Vec<_>>(),
        ["c3", "c5", "watch"]
    );
    let copied = run_observed(copy, &sigs);
    let original = run_observed(template, &sigs);
    assert_eq!(copied, original);
    // The run did real work: bus events over deltas and a time advance.
    assert_eq!(original.values, [0, 0, 200]);
    assert_eq!(original.stats.time_advances, 1);
    assert!(original.stats.wake_filter_hits > 0);
    assert_eq!(
        original.activations.iter().sum::<u64>(),
        original.stats.process_activations
    );
}

#[test]
fn running_a_copy_leaves_the_template_untouched() {
    let (template, sigs) = copyable_model();
    let first = run_observed(template.try_clone().expect("copyable"), &sigs);
    let second = run_observed(template.try_clone().expect("copyable"), &sigs);
    assert_eq!(first, second, "two copies run in sequence are identical");
    // The template itself still runs as a fresh simulator does.
    assert_eq!(template.stats(), SimStats::default());
    assert!(template.activation_counts().iter().all(|&n| n == 0));
    assert_eq!(template.trace().map(|t| t.len()), Some(0));
    assert_eq!(run_observed(template, &sigs), first);
}

#[test]
fn a_copy_takes_its_own_initial_values() {
    let (template, sigs) = copyable_model();
    let mut copy = template.try_clone().expect("copyable");
    copy.set_initial_value(sigs.seed, 10).unwrap();
    let stimulated = run_observed(copy, &sigs);
    // Declaring the model with seed 10 in the first place runs the same.
    let mut fresh = copyable_model().0;
    fresh.set_initial_value(sigs.seed, 10).unwrap();
    assert_eq!(stimulated, run_observed(fresh, &sigs));
    assert_ne!(stimulated, run_observed(template, &sigs));
}

#[test]
fn a_simulator_with_a_closure_refuses_to_be_copied() {
    let (mut sim, sigs) = copyable_model();
    let bus = sigs.bus;
    sim.process("closure", &[bus], move |ctx: &mut ProcessCtx<'_, i64>| {
        ctx.assign(bus, 1);
        Wait::Done
    });
    assert!(sim.try_clone().is_none());
    // Refusing is not a failure: the original still runs.
    sim.initialize().unwrap();
    sim.run().unwrap();
}

#[test]
fn only_unstarted_simulators_copy_or_take_initial_values() {
    let (mut sim, sigs) = copyable_model();
    sim.initialize().unwrap();
    assert!(sim.try_clone().is_none());
    assert!(matches!(
        sim.set_initial_value(sigs.seed, 1),
        Err(KernelError::BadPhase(_))
    ));
}
