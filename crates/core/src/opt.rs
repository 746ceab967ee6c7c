//! The optimizing plan compiler and the compiled engine's one walker.
//!
//! [`ExecPlan::lower`] places every transfer of a model into a flat
//! per-`(step, phase)` [`Action`] schedule. This module compiles such a
//! schedule into a **micro-op stream** — one op array with precomputed
//! delta boundaries and every operand address resolved at compile time —
//! and walks it. That walk is the compiled engine's only executor: a solo
//! run ([`ExecPlan::execute`], [`OptPlan::execute`]) walks the golden
//! schedule as one lane, and a fault chunk ([`ExecPlan::execute_batch`])
//! walks up to 64 plan-delta lanes of one masked schedule, each op
//! running in the lanes of its mask. The loop is generic over the two;
//! its solo instantiation keeps no masks and indexes one value column.
//!
//! Three passes, gated by [`OptConfig`] (the per-level toggle sets of
//! [`OptLevel`](crate::OptLevel)), shape the stream as it is emitted. A
//! chunk's deltas are lane masks *before* compilation, so each pass and
//! its counter credit exists once, for solo runs and lanes alike; `-O0`
//! is the plain stream with all three off.
//!
//! 1. **Resolution specialization** (`specialize`) — unresolved signals
//!    and resolved signals with exactly one driver compile to **direct
//!    stores** (`resolve` is the identity on singleton driver sets); only
//!    multi-driven signals keep driver slots plus an O(1)
//!    [`DriverTally`](crate::value::DriverTally). Without the pass every
//!    resolved signal is tallied.
//! 2. **Control-trajectory constant folding** (`fold`) — the CS/PH
//!    trajectory is static (the paper's central observation), so guards
//!    over literals only are pre-evaluated, and on untraced runs the
//!    control pushes are skipped and their counters credited: every one
//!    is an event, since CS strictly increments and PH always changes
//!    phase. No transfer, guard, checker or conflict site reads CS or PH.
//! 3. **Dead-spur elimination** (`dse`) — a module evaluation at step
//!    `s` is dropped, its pending/driver-update counters credited, when
//!    no transfer asserts its operand ports within the preceding
//!    `2·latency + 2` steps: operands, pipeline and output are all
//!    `DISC`, so its push would be no event. In a lane chunk the asserts
//!    of every lane decide, and only evaluations running in every lane
//!    are dropped. Dead commits need no pass: lowering never emits them
//!    (the live-commit rule, see [`crate::plan`]).
//!
//! # Byte-identity obligations
//!
//! Every pass must leave **all observables byte-identical** to the
//! interpreted kernel, the independent reference: final registers,
//! trace/VCD, commit log, conflict sites (step **and** phase),
//! [`SimStats`] (every counter, including the pending-queue high-water
//! mark), rendered errors and checker verdicts. The obligations each
//! pass discharges are recorded in DESIGN.md §5i; `clockless-verify`
//! enforces them against the kernel at every level over the corpus, the
//! IKS chips, the fuzz zoo and every fault mutant.

use std::time::Instant;

use clockless_kernel::{KernelError, SignalId, SimStats, SimTime, Trace};

use crate::backend::{BatchOutcome, ExecOptions, ExecOutcome, OptConfig};
use crate::check::{CheckEval, CheckReport};
use crate::phase::Phase;
use crate::plan::{
    combine, Action, DriverLayout, ExecPlan, Extension, GuardSig, Lanes, PlanChecks, Schedule,
    Sink, Source,
};
use crate::resource::ModuleTiming;
use crate::value::Value;

/// Sentinel slot marking a direct-store destination (no driver state, no
/// resolution).
const NO_SLOT: u32 = u32::MAX;

/// Sentinel guard index for unconditional ops.
const NO_GUARD: u32 = u32::MAX;

/// A compile-time-resolved destination: the driven signal plus either
/// its driver slot, when the signal resolves through a tally, or
/// [`NO_SLOT`] for direct stores.
#[derive(Debug, Clone, Copy)]
struct Dst {
    sig: u32,
    slot: u32,
}

impl Dst {
    /// A direct store on `sig`.
    fn direct(sig: usize) -> Dst {
        Dst {
            sig: sig as u32,
            slot: NO_SLOT,
        }
    }
}

/// Where a [`MicroOp::Push`] takes its value from: a lowered
/// [`Source`], with a memory read naming its memory (which keeps ops at
/// 32 bytes).
#[derive(Debug, Clone, Copy)]
enum Src {
    Const(Value),
    Signal(u32),
    MemRead { addr: u32, mem: u32 },
}

/// One specialized instruction of the stream.
///
/// Each op reads current values and pushes driver updates for the next
/// delta cycle, in exactly the kernel's order — push order is what makes
/// events, traces and conflict diagnoses byte-identical.
#[derive(Debug, Clone, Copy)]
enum MicroOp {
    /// Control bookkeeping push (CS/PH), skipped and credited on untraced
    /// runs under `fold`.
    Ctl { sig: u32, v: Value },
    /// A transfer drive: the source's value, or `DISC` while the guard is
    /// off (releases push a constant `DISC`).
    Push { dst: Dst, guard: u32, src: Src },
    /// Module evaluation: combine operand ports, advance the latency
    /// pipeline, push the output port.
    Eval { module: u32 },
    /// Register commit: push the input port on the output unless `DISC`.
    Commit { reg: u32 },
    /// Memory commit: store the write port at the addressed word, or
    /// poison every word on a bad address.
    CommitMem { mem: u32 },
}

/// The optimized execution plan: a lowered [`ExecPlan`] plus its
/// compiled micro-op stream.
///
/// Built by [`OptPlan::from_plan`]; executed by [`OptPlan::execute`]
/// with observables byte-identical to the interpreted kernel. The plan
/// is kept for observable extraction (register names, conflict/commit
/// attribution, analytic statistics).
#[derive(Debug, Clone)]
pub struct OptPlan {
    plan: ExecPlan,
    stream: Stream,
}

impl OptPlan {
    /// Compiles a lowered plan under the given pass toggles, keeping the
    /// plan without copying it. Compilation is a single linear walk over
    /// the lowered schedule.
    pub fn from_plan(plan: ExecPlan, config: OptConfig) -> OptPlan {
        let stream = Stream::solo(&plan, config);
        OptPlan { plan, stream }
    }

    /// The pass toggles this plan was compiled under.
    pub fn config(&self) -> OptConfig {
        self.stream.config
    }

    /// Number of micro-ops in the stream (diagnostics/benchmarks).
    pub fn op_count(&self) -> usize {
        self.stream.ops.len()
    }

    /// Walks the stream and harvests the observable output.
    ///
    /// # Errors
    ///
    /// Exactly the kernel's: [`KernelError::DeltaOverflow`] (diagnosed up
    /// front from the static schedule length) and
    /// [`KernelError::WallBudgetExceeded`] when the deadline passes.
    pub fn execute(&self, options: &ExecOptions) -> Result<ExecOutcome, KernelError> {
        let (outcome, _) = self.stream.execute(&self.plan, options, None)?;
        Ok(outcome)
    }
}

/// The micro-op stream of one placed schedule: the golden one of a solo
/// run, or a lane chunk's masked one.
#[derive(Debug, Clone)]
pub(crate) struct Stream {
    config: OptConfig,
    /// Delta `d` runs `ops[bounds[d]..bounds[d + 1]]`; a walk runs every
    /// delta (the plan's, or a chunk's longest lane's).
    ops: Vec<MicroOp>,
    bounds: Vec<u32>,
    /// Per op, the lanes it runs in; empty for a solo stream.
    masks: Vec<u64>,
    /// Per delta, the module pushes DSE dropped that would have been
    /// applied there (one pending entry and one driver update each).
    phantom: Vec<u32>,
    /// Driver slots and tallies of the signals that resolve through one.
    layout: DriverLayout,
    /// First pipeline-ring row of each module; the last entry is the
    /// ring's row count.
    pipe_at: Vec<u32>,
    /// The chunk's appended tables.
    ext: Extension,
}

impl Stream {
    /// The stream of `plan`'s golden schedule.
    pub(crate) fn solo(plan: &ExecPlan, config: OptConfig) -> Stream {
        let ext = Extension::default();
        Stream::compile(plan, &plan.schedule, plan.total_deltas(), ext, config)
    }

    /// Compiles `schedule` — `plan`'s own or a lane chunk's, whose
    /// appended tables `ext` describes — for a walk of `needed` deltas.
    pub(crate) fn compile(
        plan: &ExecPlan,
        schedule: &Schedule,
        needed: u64,
        ext: Extension,
        config: OptConfig,
    ) -> Stream {
        let phases = Phase::ALL.len();
        let steps = plan.cs_max as usize;
        let latency = |m: usize| ext.module(plan, m).timing.latency();
        let modules = plan.modules.len() + usize::from(ext.shadow.is_some());

        // Specialization: only resolved signals with more than one driver
        // (every resolved signal, without the pass) keep driver state.
        let layout = DriverLayout::new(ext.signals(plan), config.specialize);
        let dst = |sig: usize, slot: usize| match layout.tallied(sig) {
            true => Dst {
                sig: sig as u32,
                slot: slot as u32,
            },
            false => Dst::direct(sig),
        };

        // Folding: the verdict of a guard over literals only.
        let verdict = |g: u32| {
            let (guard, negate) = ext.guard(plan, g);
            let literal = |s: GuardSig| matches!(s, GuardSig::Const(_));
            let constant = (guard.clauses.iter()).all(|&(l, _, r)| literal(l) && literal(r));
            (config.fold && constant)
                .then(|| guard.eval(|_| unreachable!("literal guard")) != negate)
        };

        // DSE: per-step operand-port activity of every module over the
        // asserts of every lane (an appended destination is the shadow
        // module's operand), filled in as they are emitted below. Operand
        // ports are driven only at rb (the grammar's operand and
        // operation-select routes), so an evaluation at cm(s) comes after
        // every assert its window looks at.
        let mut active = vec![false; if config.dse { modules * steps } else { 0 }];
        let shadow = Sink::Module(plan.modules.len() as u32);

        // One linear walk over the schedule, in its exact action order.
        let mut ops = Vec::with_capacity(schedule.actions.len());
        let mut masks = Vec::with_capacity(schedule.masks.len());
        let mut bounds = Vec::with_capacity(needed as usize + 1);
        let mut phantom = vec![0; needed as usize + 1];
        bounds.push(0);
        for d in 0..needed as usize {
            // 0-based step of this delta (valid for d >= 1).
            let step = d.saturating_sub(1) / phases;
            let range = schedule.delta(d);
            let lanes = schedule.masks.get(range.clone()).unwrap_or_default();
            for (k, &action) in schedule.actions[range].iter().enumerate() {
                let mask = lanes.get(k).copied().unwrap_or(schedule.full);
                ops.push(match action {
                    Action::Control { sig, value } => MicroOp::Ctl {
                        sig: sig as u32,
                        v: value,
                    },
                    Action::Assert {
                        src,
                        dst: to,
                        slot,
                        guard,
                    } => {
                        if let (true, Sink::Module(m)) =
                            (config.dse, plan.sinks.get(to).copied().unwrap_or(shadow))
                        {
                            debug_assert_eq!(d, step * phases + Phase::Rb.index() as usize + 1);
                            active[m as usize * steps + step] = true;
                        }
                        // A statically off assert still drives `DISC`.
                        let verdict = guard.and_then(&verdict);
                        let src = match (verdict, src) {
                            (Some(false), _) => Src::Const(Value::Disc),
                            (_, Source::Const(v)) => Src::Const(v),
                            (_, Source::Signal(s)) => Src::Signal(s as u32),
                            (_, Source::MemRead { addr, base, .. }) => {
                                let mem = plan.mems.iter().position(|m| m.words[0] == base);
                                let mem = mem.expect("memory read names a memory") as u32;
                                Src::MemRead {
                                    addr: addr as u32,
                                    mem,
                                }
                            }
                        };
                        let guard = guard.filter(|_| verdict.is_none());
                        MicroOp::Push {
                            dst: dst(to, slot),
                            guard: guard.unwrap_or(NO_GUARD),
                            src,
                        }
                    }
                    Action::Release { dst: to, slot } => MicroOp::Push {
                        dst: dst(to, slot),
                        guard: NO_GUARD,
                        src: Src::Const(Value::Disc),
                    },
                    Action::Eval { module } => {
                        let dead = config.dse && mask == schedule.full && {
                            let window = 2 * latency(module) as usize + 2;
                            let row = &active[module * steps..(module + 1) * steps];
                            row[step.saturating_sub(window)..=step].iter().all(|&a| !a)
                        };
                        if dead {
                            // The push lands in the next delta; credit
                            // its pending/driver-update counters there.
                            phantom[d + 1] += 1;
                            continue;
                        }
                        MicroOp::Eval {
                            module: module as u32,
                        }
                    }
                    Action::Commit { reg } => MicroOp::Commit { reg: reg as u32 },
                    Action::CommitMem { mem } => MicroOp::CommitMem { mem: mem as u32 },
                });
                if !lanes.is_empty() {
                    masks.push(mask);
                }
            }
            bounds.push(ops.len() as u32);
        }
        let mut pipe_at = Vec::with_capacity(modules + 1);
        pipe_at.push(0);
        for m in 0..modules {
            pipe_at.push(pipe_at[m] + latency(m));
        }
        Stream {
            config,
            ops,
            bounds,
            masks,
            phantom,
            layout,
            pipe_at,
            ext,
        }
    }

    /// A solo run of `plan`'s stream, feeding the checkers of `checks`
    /// from the same walk.
    ///
    /// # Errors
    ///
    /// As [`OptPlan::execute`].
    pub(crate) fn execute(
        &self,
        plan: &ExecPlan,
        options: &ExecOptions,
        checks: Option<&PlanChecks>,
    ) -> Result<(ExecOutcome, Option<CheckReport>), KernelError> {
        let limit = options.delta_limit.unwrap_or(100_000_000);
        let needed = [self.bounds.len() as u64 - 1];
        if needed[0] > limit {
            let at = SimTime {
                fs: 0,
                delta: limit,
            };
            return Err(KernelError::DeltaOverflow { at, limit });
        }
        let mut values: Vec<Value> = plan.signals.iter().map(|s| s.init).collect();
        let mut trace = options.trace.then(|| plan.initial_trace());
        let (counts, mut evals) = self.walk::<true>(
            plan,
            &mut values,
            &needed,
            trace.as_mut(),
            checks,
            options.deadline,
        )?;
        let stats = SimStats {
            delta_cycles: needed[0],
            process_activations: plan.activations,
            events: counts[0].events,
            driver_updates: counts[0].driver_updates,
            wake_filter_hits: plan.wake_hits,
            wake_filter_misses: plan.wake_misses,
            // The initialization delta runs every process at once — the
            // high-water mark of the whole run.
            peak_runnable: plan.process_count,
            peak_pending_updates: counts[0].peak_pending,
            ..SimStats::default()
        };
        let report = evals.first_mut().map(CheckEval::finish);
        Ok((plan.outcome(&values, stats, trace), report))
    }

    /// Walks a lane chunk's stream, appending one outcome per lane.
    ///
    /// # Errors
    ///
    /// [`KernelError::WallBudgetExceeded`] when the deadline passes.
    pub(crate) fn execute_lanes(
        &self,
        plan: &ExecPlan,
        lanes: &Lanes<'_>,
        options: &ExecOptions,
        checks: Option<&PlanChecks>,
        out: &mut Vec<BatchOutcome>,
    ) -> Result<(), KernelError> {
        let mut values = lanes.initial_values(plan, &self.ext);
        let needed = lanes.needed();
        let (counts, mut evals) =
            self.walk::<false>(plan, &mut values, &needed, None, checks, options.deadline)?;
        for (c, counts) in counts.iter().enumerate() {
            let check = evals
                .get_mut(c)
                .filter(|_| needed[c] > 0)
                .map(CheckEval::finish);
            out.push(lanes.outcome(plan, c, &values, counts, check));
        }
        Ok(())
    }

    /// Whether guard `g` holds over `read`.
    #[inline]
    fn holds(&self, plan: &ExecPlan, g: u32, read: impl FnMut(usize) -> Value) -> bool {
        if g == NO_GUARD {
            return true;
        }
        let (guard, negate) = self.ext.guard(plan, g);
        guard.eval(read) != negate
    }

    /// The walk over `values` (`values[sig * n + lane]`), lane `c`
    /// running `needed[c]` deltas (none: it never runs). Each delta
    /// applies the pending driver updates, feeds the checkers and runs
    /// its ops. A solo walk (`SOLO`) has one lane and reads no masks; a
    /// lane walk runs each op in the lanes of its mask. Returns each
    /// lane's counters and, when checked, its evaluator.
    fn walk<'c, const SOLO: bool>(
        &self,
        plan: &ExecPlan,
        values: &mut [Value],
        needed: &[u64],
        mut trace: Option<&mut Trace<Value>>,
        checks: Option<&'c PlanChecks>,
        deadline: Option<Instant>,
    ) -> Result<(Vec<LaneCounts>, Vec<CheckEval<'c>>), KernelError> {
        let n = if SOLO { 1 } else { needed.len() };
        let full = (0..n).filter(|&c| needed[c] > 0).fold(0, |m, c| m | 1 << c);
        let mut counts = vec![LaneCounts::default(); n];
        let mut before = vec![0; n];
        let mut evals: Vec<CheckEval<'c>> = (checks.iter())
            .flat_map(|ck| (0..n).map(|_| CheckEval::new(&ck.program, &ck.index)))
            .collect();
        let mut changed: Vec<Vec<usize>> = vec![Vec::new(); evals.len()];
        let mut drivers = self.layout.state(n);
        let modules = self.pipe_at.len() - 1;
        let mut ring = vec![Value::Disc; self.pipe_at[modules] as usize * n];
        let mut head = vec![0u32; modules * n];
        let mut busy = vec![0u32; modules * n];
        let (mut cur, mut nxt) = (Pending::default(), Pending::default());
        // Control pushes are only skippable when nothing records them;
        // `carry` counts those skipped in the previous delta.
        let elide_ctl = self.config.fold && trace.is_none();
        let mut carry: u64 = 0;

        for d in 0..self.bounds.len() as u64 - 1 {
            let credit = carry + u64::from(self.phantom[d as usize]);

            // Update phase: apply the pushed transactions in push order,
            // one at a time (two drives of one signal in one delta each
            // produce their own event, exactly like the kernel). A solo
            // walk counts its one lane's updates per delta.
            for c in lanes::<SOLO>(if SOLO { 0 } else { full }) {
                before[c] = counts[c].driver_updates;
                counts[c].driver_updates += credit;
                counts[c].events += carry;
            }
            let mut events = carry;
            for (r, row) in cur.rows.iter().enumerate() {
                let sig = row.dst.sig as usize;
                for c in lanes::<SOLO>(if SOLO { 1 } else { cur.masks[r] }) {
                    let pushed = if SOLO { row.val } else { cur.vals[r * n + c] };
                    let effective = match row.dst.slot {
                        NO_SLOT => pushed,
                        slot => drivers.drive(sig, slot as usize, c, pushed),
                    };
                    let at = sig * n + c;
                    if !SOLO {
                        counts[c].driver_updates += 1;
                    }
                    if effective == values[at] {
                        continue;
                    }
                    values[at] = effective;
                    if SOLO {
                        events += 1;
                    } else {
                        let k = &mut counts[c];
                        k.events += 1;
                        // Control signals never carry `ILLEGAL`, so the
                        // first one is always a conflict site.
                        if effective == Value::Illegal && k.first_illegal.is_none() {
                            k.first_illegal = Some((sig, d));
                        }
                    }
                    if let Some(t) = trace.as_deref_mut() {
                        let time = SimTime { fs: 0, delta: d };
                        t.push(time, SignalId::from_index(sig), effective);
                    }
                    if let Some(watched) = checks.and_then(|ck| ck.watch.get(sig)) {
                        changed[c].extend_from_slice(watched);
                    }
                }
            }
            if SOLO {
                let pending = cur.rows.len() as u64 + credit;
                let k = &mut counts[0];
                k.driver_updates += pending;
                k.events += events;
                k.peak_pending = k.peak_pending.max(pending);
            } else {
                for (k, before) in counts.iter_mut().zip(&before) {
                    k.peak_pending = k.peak_pending.max(k.driver_updates - before);
                }
            }
            cur.clear();
            carry = 0;

            // Check phase: each running lane's evaluator sees the
            // monitored signals this delta changed — the observation the
            // interpreter's commit log reconstructs.
            for (c, eval) in evals.iter_mut().enumerate() {
                if d < needed[c] {
                    let sigs = &checks.expect("checked walk").sigs;
                    eval.observe(d, &changed[c], |i| values[sigs[i] * n + c]);
                }
                changed[c].clear();
            }

            // Run phase: the delta's straight-line ops (none in the
            // trailing flush delta: updates only).
            let lo = self.bounds[d as usize] as usize;
            let hi = self.bounds[d as usize + 1] as usize;
            let values: &[Value] = values;
            for (i, &op) in (lo..).zip(&self.ops[lo..hi]) {
                let mask = if SOLO { 1 } else { self.masks[i] };
                match op {
                    MicroOp::Ctl { .. } if elide_ctl => carry += 1,
                    MicroOp::Ctl { sig, v } => {
                        nxt.push::<SOLO>(n, Dst::direct(sig as usize), mask, |_| v);
                    }
                    MicroOp::Push { dst, guard, src } => {
                        nxt.push::<SOLO>(n, dst, mask, |c| {
                            if !self.holds(plan, guard, |s| values[s * n + c]) {
                                return Value::Disc;
                            }
                            match src {
                                Src::Signal(s) => values[s as usize * n + c],
                                Src::Const(v) => v,
                                Src::MemRead { addr, mem } => {
                                    let words = &plan.mems[mem as usize].words;
                                    match values[addr as usize * n + c].num() {
                                        Some(a) if (0..words.len() as i64).contains(&a) => {
                                            values[words[a as usize] * n + c]
                                        }
                                        _ => Value::Illegal,
                                    }
                                }
                            }
                        });
                    }
                    MicroOp::Eval { module } => {
                        let mi = module as usize;
                        let m = self.ext.module(plan, mi);
                        let latency = m.timing.latency() as usize;
                        let ring_at = |h: usize, c: usize| (self.pipe_at[mi] as usize + h) * n + c;
                        nxt.push::<SOLO>(n, Dst::direct(m.out), mask, |c| {
                            let mut result = combine(
                                values[m.in1 * n + c],
                                values[m.in2 * n + c],
                                m.op.map(|p| values[p * n + c]),
                                &m.ops,
                            );
                            let at = mi * n + c;
                            if let ModuleTiming::Sequential { .. } = m.timing {
                                if busy[at] > 0 {
                                    busy[at] -= 1;
                                    if result != Value::Disc {
                                        // Initiation-interval violation:
                                        // poison the whole pipeline.
                                        result = Value::Illegal;
                                        for h in 0..latency {
                                            ring[ring_at(h, c)] = Value::Illegal;
                                        }
                                    }
                                } else if result != Value::Disc {
                                    busy[at] = latency.saturating_sub(1) as u32;
                                }
                            }
                            if latency == 0 {
                                return result;
                            }
                            // The pipeline is a ring of `latency` stages:
                            // the oldest result leaves as this one enters.
                            let h = head[at] as usize;
                            head[at] = if h + 1 == latency { 0 } else { h as u32 + 1 };
                            std::mem::replace(&mut ring[ring_at(h, c)], result)
                        });
                    }
                    MicroOp::Commit { reg } => {
                        let r = &plan.regs[reg as usize];
                        let live = lanes::<SOLO>(mask)
                            .filter(|&c| values[r.input * n + c] != Value::Disc)
                            .fold(0, |m, c| m | 1 << c);
                        if live != 0 {
                            let dst = Dst::direct(r.output);
                            nxt.push::<SOLO>(n, dst, live, |c| values[r.input * n + c]);
                        }
                    }
                    MicroOp::CommitMem { mem } => {
                        // A lane stores at its word, or poisons every
                        // word in ascending order: its solo push order.
                        let pm = &plan.mems[mem as usize];
                        let mut poison = 0u64;
                        for c in lanes::<SOLO>(mask) {
                            let v = values[pm.win * n + c];
                            match values[pm.waddr * n + c].num() {
                                _ if v == Value::Disc => {}
                                Some(a) if (0..pm.words.len() as i64).contains(&a) => {
                                    let dst = Dst::direct(pm.words[a as usize]);
                                    nxt.push::<SOLO>(n, dst, 1 << c, |_| v);
                                }
                                _ => poison |= 1 << c,
                            }
                        }
                        for &w in pm.words.iter().filter(|_| poison != 0) {
                            nxt.push::<SOLO>(n, Dst::direct(w), poison, |_| Value::Illegal);
                        }
                    }
                }
            }
            std::mem::swap(&mut cur, &mut nxt);

            if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
                let at = SimTime {
                    fs: 0,
                    delta: d + 1,
                };
                return Err(KernelError::WallBudgetExceeded { at });
            }
        }
        Ok((counts, evals))
    }
}

/// The lanes set in `mask`, ascending; on a solo walk a set mask is
/// lane 0 alone, known at compile time.
#[inline(always)]
fn lanes<const SOLO: bool>(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let c = match mask {
            0 => return None,
            _ if SOLO => 0,
            _ => mask.trailing_zeros() as usize,
        };
        mask = if SOLO { 0 } else { mask & (mask - 1) };
        Some(c)
    })
}

/// One pushed driver update: the destination and, on a solo walk, the
/// value.
#[derive(Debug, Clone, Copy)]
struct Row {
    dst: Dst,
    val: Value,
}

/// The driver updates one delta pushes for the next. A lane walk keeps
/// each row's lanes and one value per lane beside the rows.
#[derive(Debug, Default)]
struct Pending {
    rows: Vec<Row>,
    masks: Vec<u64>,
    vals: Vec<Value>,
}

impl Pending {
    /// Pushes `value(lane)` on `dst` in every lane of `mask`.
    #[inline(always)]
    fn push<const SOLO: bool>(
        &mut self,
        n: usize,
        dst: Dst,
        mask: u64,
        mut value: impl FnMut(usize) -> Value,
    ) {
        let val = if SOLO { value(0) } else { Value::Disc };
        self.rows.push(Row { dst, val });
        if !SOLO {
            self.masks.push(mask);
            let row = self.vals.len();
            self.vals.resize(row + n, Value::Disc);
            for c in lanes::<false>(mask) {
                self.vals[row + c] = value(c);
            }
        }
    }

    fn clear(&mut self) {
        self.rows.clear();
        self.masks.clear();
        self.vals.clear();
    }
}

/// One lane's dynamic counters.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LaneCounts {
    pub(crate) driver_updates: u64,
    pub(crate) events: u64,
    pub(crate) peak_pending: u64,
    /// The lane's first `ILLEGAL` transition as `(signal, delta)` (lane
    /// walks only).
    pub(crate) first_illegal: Option<(usize, u64)>,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::backend::{Backend, OptLevel};
    use crate::model::{fig1_model, RtModel};

    /// No pass, each pass alone, and `-O2`.
    pub(crate) fn pass_configs() -> [OptConfig; 5] {
        let off = OptConfig::default();
        [
            off,
            OptConfig {
                specialize: true,
                ..off
            },
            OptConfig { fold: true, ..off },
            OptConfig { dse: true, ..off },
            OptLevel::O2.config(),
        ]
    }

    /// Every pass configuration against the kernel, the independent
    /// reference: same registers, stats, conflicts, commits and VCD — or
    /// the same error.
    fn assert_matches_kernel(model: &RtModel, options: &ExecOptions) {
        let base = Backend::Interpreted
            .execute(model, options)
            .map_err(|e| e.to_string());
        let plan = ExecPlan::lower(model);
        for config in pass_configs() {
            let out = OptPlan::from_plan(plan.clone(), config)
                .execute(options)
                .map_err(|e| e.to_string());
            match (&base, &out) {
                (Ok(b), Ok(o)) => {
                    assert_eq!(b.summary.registers, o.summary.registers, "{config:?}");
                    assert_eq!(b.summary.stats, o.summary.stats, "{config:?}");
                    assert_eq!(b.summary.conflicts, o.summary.conflicts, "{config:?}");
                    assert_eq!(b.commits(), o.commits(), "{config:?}");
                    assert_eq!(b.vcd(), o.vcd(), "{config:?}");
                }
                (Err(b), Err(o)) => assert_eq!(b, o, "{config:?}"),
                _ => panic!("outcome kind diverged at {config:?}: {base:?} vs {out:?}"),
            }
        }
    }

    #[test]
    fn fig1_matches_the_kernel_at_every_level_traced_and_untraced() {
        let model = fig1_model(3, 4);
        assert_matches_kernel(&model, &ExecOptions::traced());
        assert_matches_kernel(&model, &ExecOptions::default());
    }

    #[test]
    fn per_pass_configs_match_the_kernel() {
        // Each pass toggled alone must already be observable-preserving —
        // the bench relies on this for per-pass attribution.
        for text in [
            include_str!("../../../models/conflict.rtl"),
            include_str!("../../../models/guarded.rtl"),
            include_str!("../../../models/memory.rtl"),
        ] {
            let model = crate::text::parse_model(text).expect("corpus model parses");
            assert_matches_kernel(&model, &ExecOptions::traced());
            assert_matches_kernel(&model, &ExecOptions::default());
        }
    }

    #[test]
    fn delta_overflow_is_diagnosed_identically() {
        let model = fig1_model(3, 4);
        let options = ExecOptions {
            delta_limit: Some(10),
            ..Default::default()
        };
        assert_matches_kernel(&model, &options);
    }

    #[test]
    fn plan_execute_walks_the_requested_level() {
        let plan = ExecPlan::lower(&fig1_model(3, 4));
        let options = ExecOptions::traced();
        let o0 = plan.execute(&options.at_opt(OptLevel::O0)).unwrap();
        let o2 = plan.execute(&options).unwrap();
        assert_eq!(o0.summary.stats, o2.summary.stats);
        assert_eq!(o0.vcd(), o2.vcd());
    }

    #[test]
    fn micro_ops_stay_compact() {
        assert!(std::mem::size_of::<MicroOp>() <= 32);
    }

    #[test]
    fn dse_shrinks_the_stream_on_sparse_schedules() {
        // fig1 schedules one transfer at steps 5/6 of 7: most module
        // evaluations are provably dead.
        let model = fig1_model(3, 4);
        let plan = ExecPlan::lower(&model);
        let o1 = OptPlan::from_plan(plan.clone(), OptLevel::O1.config());
        let o2 = OptPlan::from_plan(plan, OptLevel::O2.config());
        assert!(
            o2.op_count() < o1.op_count(),
            "O2 stream ({} ops) not smaller than O1 ({} ops)",
            o2.op_count(),
            o1.op_count()
        );
    }
}
