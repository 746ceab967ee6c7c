//! The optimizing plan compiler: `-O` pipeline between [`ExecPlan::lower`]
//! and execution.
//!
//! [`ExecPlan::execute`] interprets a generic [`Action`]
//! enum per slot, re-reads statically known controller values and
//! resolves every assert through a driver tally even when a slot provably
//! has one driver. This module compiles the lowered plan one stage
//! further, into an [`OptPlan`]: one contiguous **micro-op stream** with
//! precomputed delta boundaries, walked by a loop that never touches the
//! generic actions again. Four passes, gated by
//! [`OptConfig`] (the per-level toggle sets of [`OptLevel`](crate::OptLevel)):
//!
//! 1. **Slot fusion** (`fuse`, the carrier pass) — translate the flat
//!    per-`(step, phase)` action schedule into one `Vec<MicroOp>`
//!    plus a `bounds` table mapping each delta cycle to its op range.
//!    Operand addressing is resolved at compile time: every op carries
//!    dense source/destination indices, eliminating the per-action
//!    dispatch and bounds checks of the generic walker.
//! 2. **Resolution specialization** (`specialize`) — each `(signal,
//!    slot)` destination is classified statically. Unresolved signals
//!    and resolved signals with exactly one driver compile to **direct
//!    stores**: the pushed value *is* the effective value (`resolve` is
//!    the identity on singleton driver sets), so they keep no driver
//!    state at all. Only genuinely multi-driven signals keep their
//!    driver slots plus a [`DriverTally`](crate::value::DriverTally),
//!    which resolves each update in O(1) instead of rescanning the
//!    slots (without this pass, every resolved signal is tallied).
//! 3. **Control-trajectory constant folding** (`fold`) — the CS/PH
//!    trajectory is statically fixed (the paper's central observation),
//!    so guards whose operands are all literals are pre-evaluated:
//!    statically true guards compile to unguarded ops, statically false
//!    ones to the `DISC` drive the disabled assert would perform. The
//!    control bookkeeping pushes themselves are elidable: on untraced
//!    runs the walker skips them and credits their (exactly known)
//!    counter contributions analytically — every control push is an
//!    event, since CS strictly increments and PH always moves to a
//!    different phase. No transfer [`Source`] can
//!    name CS or PH (the endpoint grammar has no such endpoint), so
//!    there are no control *reads* to fold — the trajectory is folded
//!    into the schedule shape itself, as it already is in `lower`.
//! 4. **Dead-spur elimination** (`dse`) — module evaluations whose
//!    pushes provably observe and produce only `DISC` are dropped from
//!    the stream. A module evaluation at step `s` is dead when no
//!    transfer asserts any of its operand ports within the preceding
//!    `2·latency + 2` steps: its operands are `DISC`, the latency
//!    pipeline has drained to `DISC`, the initiation counter is zero,
//!    and the output is already `DISC` — so the evaluation would push a
//!    value equal to the current one, producing no event and no
//!    observable difference. Its pending-queue and driver-update counter
//!    contributions are credited per delta. Dead register and memory
//!    commits need no pass: lowering never emits them (the live-commit
//!    rule, see [`crate::plan`]), at every level.
//!
//! # Byte-identity obligations
//!
//! Every pass must leave **all observables byte-identical** to the
//! un-optimized walk and to the interpreted kernel: final registers,
//! trace/VCD, commit log, conflict sites (step **and** phase),
//! [`SimStats`] (every counter, including the pending-queue high-water
//! mark), rendered errors and checker verdicts. The obligations each
//! pass discharges are recorded in DESIGN.md §5i; `clockless-verify`
//! enforces them differentially at every level over the corpus, the IKS
//! chips, the fuzz zoo and every fault mutant.

use std::collections::VecDeque;

use clockless_kernel::{KernelError, SignalId, SimStats, SimTime, Trace};

use crate::backend::{ExecOptions, ExecOutcome, OptConfig};
use crate::phase::Phase;
use crate::plan::{combine, Action, DriverLayout, ExecPlan, GuardSig, PortActivity, Source};
use crate::resource::ModuleTiming;
use crate::value::Value;

/// Sentinel slot marking a direct-store destination (no driver state, no
/// resolution).
const NO_SLOT: u32 = u32::MAX;

/// Sentinel guard index for unconditional ops.
const NO_GUARD: u16 = u16::MAX;

/// A compile-time-resolved destination: the driven signal plus either
/// its driver slot, when the signal resolves through a tally, or
/// [`NO_SLOT`] for direct stores.
#[derive(Debug, Clone, Copy)]
struct Dst {
    sig: u32,
    slot: u32,
}

/// One specialized instruction of the fused stream.
///
/// Each op reads current values and pushes driver updates for the next
/// delta cycle, in exactly the order the generic walker would — push
/// order is what makes events, traces and conflict diagnoses
/// byte-identical.
#[derive(Debug, Clone, Copy)]
enum MicroOp {
    /// Control bookkeeping push (CS/PH). Elidable on untraced runs when
    /// `fold` is enabled (the walk credits its counters analytically);
    /// pushed for real on traced runs.
    Ctl { sig: u32, v: Value },
    /// Push a constant (const asserts, releases, statically false
    /// guards, un-foldable control pushes).
    Const { dst: Dst, guard: u16, v: Value },
    /// Push the current value of another signal.
    Copy { dst: Dst, guard: u16, src: u32 },
    /// Register-indirect memory-word read, then push.
    MemRead {
        dst: Dst,
        guard: u16,
        addr: u32,
        base: u32,
        len: u32,
    },
    /// Module evaluation: combine operand ports, advance the latency
    /// pipeline, push the output port.
    Eval { module: u32 },
    /// Register commit: push the input port on the output unless `DISC`.
    Commit { reg: u32 },
    /// Memory commit: store the write port at the addressed word, or
    /// poison every word on a bad address.
    CommitMem { mem: u32 },
}

/// The optimized execution plan: the fused micro-op stream plus the
/// run-time shapes the walker needs.
///
/// Built by [`OptPlan::compile`] from a lowered [`ExecPlan`]; executed
/// by [`OptPlan::execute`] with observables byte-identical to
/// [`ExecPlan::execute`] (see the module docs for the per-pass
/// obligations). The source plan is retained for observable extraction
/// (register names, conflict/commit attribution, analytic statistics).
#[derive(Debug, Clone)]
pub struct OptPlan {
    plan: ExecPlan,
    config: OptConfig,
    /// Exact delta count of a run (`ExecPlan::total_deltas`).
    needed: u64,
    /// The fused stream; delta `d` runs `ops[bounds[d]..bounds[d + 1]]`.
    ops: Vec<MicroOp>,
    bounds: Vec<u32>,
    /// Per-delta pending/driver-update credits from DSE-eliminated
    /// module evaluations (indexed by the delta the eliminated push
    /// would have been applied in).
    phantom: Vec<u32>,
    /// Driver slots and tallies of the signals that resolve through one.
    layout: DriverLayout,
}

impl OptPlan {
    /// Compiles a lowered plan into its optimized stream under the given
    /// pass toggles.
    ///
    /// `fuse` is the carrier pass and is always performed; the other
    /// toggles specialize or shrink the fused stream. Compilation is a
    /// single linear walk over the lowered schedule.
    pub fn compile(plan: &ExecPlan, config: OptConfig) -> OptPlan {
        Self::from_plan(plan.clone(), config)
    }

    /// [`compile`](Self::compile) taking the plan by value — the
    /// one-shot path ([`crate::backend::CompiledBackend`]) moves its
    /// freshly lowered plan in instead of cloning it.
    pub fn from_plan(plan: ExecPlan, config: OptConfig) -> OptPlan {
        assert!(
            plan.guards.len() < NO_GUARD as usize,
            "guard table exceeds the micro-op index range"
        );
        let needed = plan.total_deltas();
        let phases = Phase::ALL.len();

        // Pass 2 (specialization): a signal keeps driver slots and a
        // tally only when its effective value genuinely depends on more
        // than the pushed value: resolved with more than one driver, or
        // any resolved signal when specialization is off. Unresolved
        // signals read back exactly what was pushed in both engines.
        let layout = DriverLayout::new(
            plan.signals.iter().map(|s| (s.resolved, s.drivers)),
            config.specialize,
        );
        let dst = |sig: usize, slot: usize| -> Dst {
            Dst {
                sig: sig as u32,
                slot: if layout.tallied(sig) {
                    slot as u32
                } else {
                    NO_SLOT
                },
            }
        };

        // Pass 3 (folding): pre-evaluate guards whose operands are all
        // literals. `eval` never invokes the read closure for them.
        let guard_static: Vec<Option<bool>> = plan
            .guards
            .iter()
            .map(|g| {
                let all_const = g.clauses.iter().all(|&(l, _, r)| {
                    matches!(l, GuardSig::Const(_)) && matches!(r, GuardSig::Const(_))
                });
                (config.fold && all_const).then(|| g.eval(|_| unreachable!("const-only guard")))
            })
            .collect();

        // Pass 4 (DSE): per-step operand-port activity, one entry per
        // spec (each scheduled spec is one assert).
        let activity = config
            .dse
            .then(|| PortActivity::new(&plan, plan.specs.iter().map(|sp| (sp.step, sp.dst))));

        // Pass 1 (fusion): one linear walk over the schedule, emitting
        // micro-ops in the generic walker's exact action order.
        let mut ops: Vec<MicroOp> = Vec::with_capacity(plan.actions.len());
        let mut bounds: Vec<u32> = Vec::with_capacity(needed as usize + 1);
        let mut phantom: Vec<u32> = vec![0; needed as usize + 1];
        bounds.push(0);
        for d in 0..needed as usize {
            // 0-based step of this delta (valid for d >= 1).
            let step = d.saturating_sub(1) / phases;
            for &action in plan.delta_actions(d) {
                match action {
                    Action::Control { sig, value } => {
                        if config.fold {
                            ops.push(MicroOp::Ctl {
                                sig: sig as u32,
                                v: value,
                            });
                        } else {
                            ops.push(MicroOp::Const {
                                dst: dst(sig, 0),
                                guard: NO_GUARD,
                                v: value,
                            });
                        }
                    }
                    Action::Assert {
                        src,
                        dst: d_sig,
                        slot,
                        guard,
                    } => {
                        let g = match guard {
                            None => NO_GUARD,
                            Some(gi) => match guard_static[gi as usize] {
                                Some(true) => NO_GUARD,
                                Some(false) => {
                                    // Statically disabled: the assert
                                    // still drives `DISC` every run.
                                    ops.push(MicroOp::Const {
                                        dst: dst(d_sig, slot),
                                        guard: NO_GUARD,
                                        v: Value::Disc,
                                    });
                                    continue;
                                }
                                None => gi,
                            },
                        };
                        let dst = dst(d_sig, slot);
                        ops.push(match src {
                            Source::Signal(s) => MicroOp::Copy {
                                dst,
                                guard: g,
                                src: s as u32,
                            },
                            Source::Const(v) => MicroOp::Const { dst, guard: g, v },
                            Source::MemRead { addr, base, len } => MicroOp::MemRead {
                                dst,
                                guard: g,
                                addr: addr as u32,
                                base: base as u32,
                                len,
                            },
                        });
                    }
                    Action::Release { dst: d_sig, slot } => ops.push(MicroOp::Const {
                        dst: dst(d_sig, slot),
                        guard: NO_GUARD,
                        v: Value::Disc,
                    }),
                    Action::Eval { module } => {
                        if activity
                            .as_ref()
                            .is_some_and(|a| a.eval_dead(&plan, module, step))
                        {
                            // The push lands in the next delta; credit
                            // its pending/driver-update counters there.
                            phantom[d + 1] += 1;
                        } else {
                            ops.push(MicroOp::Eval {
                                module: module as u32,
                            });
                        }
                    }
                    // Lowering emits only live commits (the live-commit
                    // rule), so there is nothing left to eliminate.
                    Action::Commit { reg } => ops.push(MicroOp::Commit { reg: reg as u32 }),
                    Action::CommitMem { mem } => ops.push(MicroOp::CommitMem { mem: mem as u32 }),
                }
            }
            bounds.push(ops.len() as u32);
        }

        OptPlan {
            plan,
            config,
            needed,
            ops,
            bounds,
            phantom,
            layout,
        }
    }

    /// The pass toggles this plan was compiled under.
    pub fn config(&self) -> OptConfig {
        self.config
    }

    /// Number of micro-ops in the fused stream (diagnostics/benchmarks).
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Walks the optimized stream and harvests the observable output —
    /// byte-identical to [`ExecPlan::execute`] on the source plan.
    ///
    /// # Errors
    ///
    /// Exactly [`ExecPlan::execute`]'s: [`KernelError::DeltaOverflow`]
    /// diagnosed up front from the static schedule length, and
    /// [`KernelError::WallBudgetExceeded`] when the deadline passes
    /// mid-walk.
    pub fn execute(&self, options: &ExecOptions) -> Result<ExecOutcome, KernelError> {
        let plan = &self.plan;
        let delta_limit = options.delta_limit.unwrap_or(100_000_000);
        let needed = self.needed;
        if needed > delta_limit {
            return Err(KernelError::DeltaOverflow {
                at: SimTime {
                    fs: 0,
                    delta: delta_limit,
                },
                limit: delta_limit,
            });
        }

        let mut values: Vec<Value> = plan.signals.iter().map(|s| s.init).collect();
        let mut drivers = self.layout.state(1);
        let mut pipes: Vec<VecDeque<Value>> = plan
            .modules
            .iter()
            .map(|m| VecDeque::from(vec![Value::Disc; m.timing.latency() as usize]))
            .collect();
        let mut busy: Vec<u32> = vec![0; plan.modules.len()];

        let mut trace: Option<Trace<Value>> = options.trace.then(|| plan.initial_trace());
        // Control pushes are only elidable when nothing records them.
        let elide_ctl = self.config.fold && trace.is_none();

        let mut stats = SimStats {
            process_activations: plan.activations,
            wake_filter_hits: plan.wake_hits,
            wake_filter_misses: plan.wake_misses,
            peak_runnable: plan.process_count,
            ..SimStats::default()
        };

        // Double-buffered pending queue: the drained allocation is
        // reused every delta instead of freed (the generic walker
        // reallocates per delta).
        let mut cur: Vec<(u32, u32, Value)> = Vec::new();
        let mut nxt: Vec<(u32, u32, Value)> = Vec::new();
        // Counter credits for control pushes elided during the previous
        // delta's run phase: each would have been one pending entry, one
        // driver update and one event in this delta.
        let mut carry: u64 = 0;
        for d in 0..needed {
            let phantom = u64::from(self.phantom[d as usize]);
            stats.peak_pending_updates = stats
                .peak_pending_updates
                .max(cur.len() as u64 + carry + phantom);
            stats.driver_updates += carry + phantom;
            stats.events += carry;
            carry = 0;

            for &(sig, slot, value) in &cur {
                stats.driver_updates += 1;
                let sig = sig as usize;
                let effective = if slot == NO_SLOT {
                    value
                } else {
                    drivers.drive(sig, slot as usize, 0, value)
                };
                if effective != values[sig] {
                    values[sig] = effective;
                    stats.events += 1;
                    if let Some(t) = &mut trace {
                        t.push(
                            SimTime { fs: 0, delta: d },
                            SignalId::from_index(sig),
                            effective,
                        );
                    }
                }
            }
            cur.clear();

            let (lo, hi) = (
                self.bounds[d as usize] as usize,
                self.bounds[d as usize + 1] as usize,
            );
            for op in &self.ops[lo..hi] {
                match *op {
                    MicroOp::Ctl { sig, v } => {
                        if elide_ctl {
                            // Every control push is an event: CS strictly
                            // increments and PH always changes phase.
                            carry += 1;
                        } else {
                            nxt.push((sig, NO_SLOT, v));
                        }
                    }
                    MicroOp::Const { dst, guard, v } => {
                        let v = if guard == NO_GUARD
                            || plan.guards[guard as usize].eval(|s| values[s])
                        {
                            v
                        } else {
                            Value::Disc
                        };
                        nxt.push((dst.sig, dst.slot, v));
                    }
                    MicroOp::Copy { dst, guard, src } => {
                        let v = if guard == NO_GUARD
                            || plan.guards[guard as usize].eval(|s| values[s])
                        {
                            values[src as usize]
                        } else {
                            Value::Disc
                        };
                        nxt.push((dst.sig, dst.slot, v));
                    }
                    MicroOp::MemRead {
                        dst,
                        guard,
                        addr,
                        base,
                        len,
                    } => {
                        let v = if guard == NO_GUARD
                            || plan.guards[guard as usize].eval(|s| values[s])
                        {
                            match values[addr as usize].num() {
                                Some(a) if (0..i64::from(len)).contains(&a) => {
                                    values[base as usize + a as usize]
                                }
                                _ => Value::Illegal,
                            }
                        } else {
                            Value::Disc
                        };
                        nxt.push((dst.sig, dst.slot, v));
                    }
                    MicroOp::Eval { module } => {
                        let module = module as usize;
                        let m = &plan.modules[module];
                        let mut result = combine(
                            values[m.in1],
                            values[m.in2],
                            m.op.map(|p| values[p]),
                            &m.ops,
                        );
                        if let ModuleTiming::Sequential { latency } = m.timing {
                            if busy[module] > 0 {
                                busy[module] -= 1;
                                if result != Value::Disc {
                                    result = Value::Illegal;
                                    for v in pipes[module].iter_mut() {
                                        *v = Value::Illegal;
                                    }
                                }
                            } else if result != Value::Disc {
                                busy[module] = latency.saturating_sub(1);
                            }
                        }
                        let pipe = &mut pipes[module];
                        match pipe.pop_front() {
                            None => nxt.push((m.out as u32, NO_SLOT, result)),
                            Some(due) => {
                                nxt.push((m.out as u32, NO_SLOT, due));
                                pipe.push_back(result);
                            }
                        }
                    }
                    MicroOp::Commit { reg } => {
                        let r = &plan.regs[reg as usize];
                        let v = values[r.input];
                        if v != Value::Disc {
                            nxt.push((r.output as u32, NO_SLOT, v));
                        }
                    }
                    MicroOp::CommitMem { mem } => {
                        let m = &plan.mems[mem as usize];
                        let v = values[m.win];
                        if v != Value::Disc {
                            match values[m.waddr].num() {
                                Some(a) if (0..m.words.len() as i64).contains(&a) => {
                                    nxt.push((m.words[a as usize] as u32, NO_SLOT, v));
                                }
                                _ => {
                                    for &w in &m.words {
                                        nxt.push((w as u32, NO_SLOT, Value::Illegal));
                                    }
                                }
                            }
                        }
                    }
                }
            }
            std::mem::swap(&mut cur, &mut nxt);

            if let Some(deadline) = options.deadline {
                if std::time::Instant::now() >= deadline {
                    return Err(KernelError::WallBudgetExceeded {
                        at: SimTime {
                            fs: 0,
                            delta: d + 1,
                        },
                    });
                }
            }
        }
        stats.delta_cycles = needed;
        Ok(plan.outcome(&values, stats, trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::OptLevel;
    use crate::model::fig1_model;

    fn assert_outcomes_identical(model: &crate::model::RtModel, options: &ExecOptions) {
        let plan = ExecPlan::lower(model);
        let base = plan.execute(options).map_err(|e| e.to_string());
        for level in [OptLevel::O1, OptLevel::O2] {
            let opt = OptPlan::compile(&plan, level.config());
            let out = opt.execute(options).map_err(|e| e.to_string());
            match (&base, &out) {
                (Ok(b), Ok(o)) => {
                    assert_eq!(b.summary.registers, o.summary.registers, "{level}");
                    assert_eq!(b.summary.stats, o.summary.stats, "{level}");
                    assert_eq!(b.summary.conflicts, o.summary.conflicts, "{level}");
                    assert_eq!(b.commits(), o.commits(), "{level}");
                    assert_eq!(b.vcd(), o.vcd(), "{level}");
                }
                (Err(b), Err(o)) => assert_eq!(b, o, "{level}"),
                _ => panic!("outcome kind diverged at O{level}: {base:?} vs {out:?}"),
            }
        }
    }

    #[test]
    fn fig1_byte_identical_at_every_level_traced_and_untraced() {
        let model = fig1_model(3, 4);
        assert_outcomes_identical(&model, &ExecOptions::traced());
        assert_outcomes_identical(&model, &ExecOptions::default());
    }

    #[test]
    fn per_pass_configs_stay_byte_identical() {
        // Each pass toggled alone on top of fusion must already be
        // observable-preserving — the bench relies on this for per-pass
        // attribution.
        let model = fig1_model(3, 4);
        let plan = ExecPlan::lower(&model);
        let base = plan.execute(&ExecOptions::traced()).unwrap();
        for config in [
            OptConfig {
                fuse: true,
                ..Default::default()
            },
            OptConfig {
                fuse: true,
                specialize: true,
                ..Default::default()
            },
            OptConfig {
                fuse: true,
                fold: true,
                ..Default::default()
            },
            OptConfig {
                fuse: true,
                dse: true,
                ..Default::default()
            },
        ] {
            let out = OptPlan::compile(&plan, config)
                .execute(&ExecOptions::traced())
                .unwrap();
            assert_eq!(base.summary.stats, out.summary.stats, "{config:?}");
            assert_eq!(base.vcd(), out.vcd(), "{config:?}");
            assert_eq!(base.commits(), out.commits(), "{config:?}");
        }
    }

    #[test]
    fn delta_overflow_is_diagnosed_identically() {
        let model = fig1_model(3, 4);
        let options = ExecOptions {
            delta_limit: Some(10),
            ..Default::default()
        };
        assert_outcomes_identical(&model, &options);
    }

    #[test]
    fn dse_shrinks_the_stream_on_sparse_schedules() {
        // fig1 schedules one transfer at steps 5/6 of 7: most module
        // evaluations are provably dead.
        let model = fig1_model(3, 4);
        let plan = ExecPlan::lower(&model);
        let o1 = OptPlan::compile(&plan, OptLevel::O1.config());
        let o2 = OptPlan::compile(&plan, OptLevel::O2.config());
        assert!(
            o2.op_count() < o1.op_count(),
            "O2 stream ({} ops) not smaller than O1 ({} ops)",
            o2.op_count(),
            o1.op_count()
        );
    }
}
