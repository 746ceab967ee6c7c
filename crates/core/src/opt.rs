//! The optimizing plan compiler and the compiled engine's one walker.
//!
//! [`ExecPlan::lower`] pins every transfer of a model to its
//! `(step, phase)` slot as a lowered spec. This module places those specs
//! in the kernel's order and emits them as a **micro-op stream** — one op
//! array with precomputed delta boundaries and every operand address
//! resolved at compile time — and walks it. One function,
//! `Stream::compile`, holds the placement rules and emits each op as it
//! places it; there is no intermediate schedule. The walk is the compiled
//! engine's only executor: a solo run ([`ExecPlan::execute`],
//! [`OptPlan::execute`]) walks the golden specs' stream as one lane, and a
//! fault chunk ([`ExecPlan::execute_batch`]) walks up to 64 plan-delta
//! lanes of one masked stream. The loop is generic over its lane word
//! (`crate::word`): a solo run's is a plain [`Value`] and keeps no
//! masks; a chunk's is a packed column — 64 payloads plus `DISC` and
//! `ILLEGAL` bit-planes per signal — on which each op runs whole, in the
//! lanes of its mask.
//!
//! Three passes, gated by [`OptConfig`] (the per-level toggle sets of
//! [`OptLevel`](crate::OptLevel)), decide each op as it is emitted. A
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
//!    are dropped. Dead commits need no pass: placement never emits them
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
use crate::check::{CheckReport, LaneChecks};
use crate::phase::Phase;
use crate::plan::{
    DriverLayout, ExecPlan, Extension, GuardSig, Lanes, LoweredSpec, PlanChecks, Sink,
};
use crate::resource::ModuleTiming;
use crate::value::Value;
use crate::word::{bits, Word};

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

/// The dense indices of the controller's signals (lowering declares them
/// first, as `elaborate` does).
const CS: u32 = 0;
const PH: u32 = 1;

/// Where a transfer's drive ([`MicroOp::Push`]) takes its value from —
/// lowering resolves every spec's source to one.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Src {
    /// A constant (operation-select transfers carry the operation code as
    /// a literal; memory-write address transfers carry constant addresses
    /// the same way).
    Const(Value),
    /// The signal with this dense index, read at execution time.
    Signal(u32),
    /// Register-indirect memory-word read: the word of memory `mem` that
    /// signal `addr` addresses. A `DISC`, `ILLEGAL` or out-of-range
    /// address reads `ILLEGAL`.
    MemRead {
        /// Dense index of the addressing register's output signal.
        addr: u32,
        /// Index into the plan's memory table.
        mem: u32,
    },
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
    /// plan without copying it. Compilation places the plan's specs and
    /// emits their ops in one pass, linear in the specs plus the ops.
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

/// The micro-op stream of placed specs: the golden ones of a solo run, or
/// a lane chunk's masked ones.
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
    /// The stream of `plan`'s golden specs.
    pub(crate) fn solo(plan: &ExecPlan, config: OptConfig) -> Stream {
        let ext = Extension::default();
        Stream::compile(plan, &plan.specs, None, 1, ext, plan.total_deltas(), config)
    }

    /// Places `specs` by the kernel's order rules and emits the stream of
    /// a walk of `needed` deltas, each op decided by the passes as it is
    /// emitted. The specs are `plan`'s golden ones, or a lane chunk's:
    /// then `lanes` holds each spec's lane mask, which gates its assert
    /// and its release, and `ext` the chunk's appended tables. Controller
    /// pushes, golden module evaluations and commits run in every lane of
    /// `full`, the shadow module in `ext.shadow_lanes`. Specs outside
    /// `1..=CS_MAX` never run.
    ///
    /// Each phase runs in the order of the kernel's runnable set (derived
    /// from waiter-list and wake positions; see ARCHITECTURE.md "Two
    /// engines, one semantics"). Delta 0 is initialization, delta
    /// `(s-1)*6 + p.index() + 1` is step `s`, phase `p`, and a trailing
    /// flush delta past the last slot only applies updates.
    pub(crate) fn compile(
        plan: &ExecPlan,
        specs: &[LoweredSpec],
        lanes: Option<&[u64]>,
        full: u64,
        ext: Extension,
        needed: u64,
        config: OptConfig,
    ) -> Stream {
        let cs_max = plan.cs_max;
        let steps = cs_max as usize;
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
            (config.fold && constant).then(|| (guard.eval::<Value>(&[], 1) != 0) != negate)
        };

        // Bucket the specs by step with a stable counting sort: step
        // `s`'s spec indices, in spec order, are
        // `order[first[s]..first[s + 1]]`.
        let runs = |sp: &&LoweredSpec| (1..=cs_max).contains(&sp.step);
        let mut first = vec![0usize; steps + 2];
        for sp in specs.iter().filter(runs) {
            first[sp.step as usize + 1] += 1;
        }
        for s in 1..first.len() {
            first[s] += first[s - 1];
        }
        let mut fill = first.clone();
        let mut order = vec![0u32; first[steps + 1]];
        for (i, sp) in specs.iter().enumerate().filter(|(_, sp)| runs(sp)) {
            order[fill[sp.step as usize]] = i as u32;
            fill[sp.step as usize] += 1;
        }

        let mut out = Emit {
            ops: Vec::with_capacity(steps * (Phase::ALL.len() + 2 + modules) + 2 * order.len()),
            masks: Vec::new(),
            bounds: vec![0],
            phantom: vec![0; steps * Phase::ALL.len() + 2],
            // DSE: per-step operand-port activity of every module over
            // the asserts of every lane (an appended destination is the
            // shadow module's operand), filled in as they are emitted.
            // Operand ports are driven only at rb (the grammar's operand
            // and operation-select routes), so an evaluation at cm(s)
            // comes after every assert its window looks at.
            active: vec![false; if config.dse { modules * steps } else { 0 }],
        };
        let push = |out: &mut Emit, op: MicroOp, mask: u64| {
            out.ops.push(op);
            if lanes.is_some() {
                out.masks.push(mask);
            }
        };
        let close = |out: &mut Emit| out.bounds.push(out.ops.len() as u32);
        let control = |out: &mut Emit, sig: u32, v: usize| {
            let v = Value::Num(v as i64);
            push(out, MicroOp::Ctl { sig, v }, full);
        };
        let ph_to = |out: &mut Emit, p: Phase| control(out, PH, p.index() as usize);
        // Spec `i`'s assert (`assert`) or release, in its lanes.
        let shadow = Sink::Module(plan.modules.len() as u32);
        let drive = |out: &mut Emit, i: u32, assert: bool| {
            let sp = &specs[i as usize];
            let (guard, src) = match assert {
                true => {
                    let sink = plan.sinks.get(sp.dst).copied().unwrap_or(shadow);
                    if let (true, Sink::Module(m)) = (config.dse, sink) {
                        debug_assert_eq!(sp.phase, Phase::Rb);
                        out.active[m as usize * steps + sp.step as usize - 1] = true;
                    }
                    // A statically off assert still drives `DISC`.
                    match sp.guard.and_then(&verdict) {
                        Some(false) => (None, Src::Const(Value::Disc)),
                        Some(true) => (None, sp.src),
                        None => (sp.guard, sp.src),
                    }
                }
                false => (None, Src::Const(Value::Disc)),
            };
            let op = MicroOp::Push {
                dst: dst(sp.dst, sp.slot),
                guard: guard.unwrap_or(NO_GUARD),
                src,
            };
            push(out, op, lanes.map_or(full, |l| l[i as usize]));
        };
        // Module `m`'s evaluation at cm of step `s`, in `mask`: dropped
        // by DSE when it runs in every lane and no operand-port assert
        // lies within its window.
        let eval = |out: &mut Emit, m: usize, s: usize, mask: u64| {
            let dead = config.dse && mask == full && {
                let window = 2 * latency(m) as usize + 2;
                let row = &out.active[m * steps..(m + 1) * steps];
                row[(s - 1).saturating_sub(window)..s].iter().all(|&a| !a)
            };
            if dead {
                // The push lands in the next delta; credit its
                // pending/driver-update counters there.
                let d = out.bounds.len() - 1;
                out.phantom[d + 1] += 1;
            } else {
                push(out, MicroOp::Eval { module: m as u32 }, mask);
            }
        };
        let phase = |i: u32| specs[i as usize].phase;

        if cs_max >= 1 {
            control(&mut out, CS, 1);
            ph_to(&mut out, Phase::Ra);
        }
        close(&mut out);
        let mut live = Vec::new();
        for s in 1..=steps {
            let here = &order[first[s]..first[s + 1]];
            let drives = |out: &mut Emit, p: Phase, assert: bool| {
                for &i in here.iter().filter(|&&i| phase(i) == p) {
                    drive(out, i, assert);
                }
            };

            // ra: step specs wake before the controller (CS is processed
            // before PH in the wake queue). Only Ra specs assert here.
            drives(&mut out, Phase::Ra, true);
            ph_to(&mut out, Phase::Rb);
            close(&mut out);

            // rb: controller first, then Ra releases / Rb asserts
            // interleaved in declaration order (both re-registered at the
            // end of PH's waiter list during ra).
            ph_to(&mut out, Phase::Cm);
            for &i in here
                .iter()
                .filter(|&&i| matches!(phase(i), Phase::Ra | Phase::Rb))
            {
                drive(&mut out, i, phase(i) == Phase::Rb);
            }
            close(&mut out);

            // cm: controller, all modules (original waiter positions, the
            // shadow module last), then Rb releases.
            ph_to(&mut out, Phase::Wa);
            for m in 0..plan.modules.len() {
                eval(&mut out, m, s, full);
            }
            if ext.shadow_lanes != 0 {
                eval(&mut out, plan.modules.len(), s, ext.shadow_lanes);
            }
            drives(&mut out, Phase::Rb, false);
            close(&mut out);

            // wa: controller, then Wa asserts.
            ph_to(&mut out, Phase::Wb);
            drives(&mut out, Phase::Wa, true);
            close(&mut out);

            // wb: controller, Wb asserts (original positions), then Wa
            // releases (re-registered at the end during wa).
            ph_to(&mut out, Phase::Cr);
            drives(&mut out, Phase::Wb, true);
            drives(&mut out, Phase::Wa, false);
            close(&mut out);

            // cr: controller advances (CS before PH, matching its push
            // order; nothing on the last step), then the live-commit
            // rule: one commit per register or memory whose input port
            // some spec of the step drives — in any lane, since a lane
            // whose own specs leave the port undriven reads `DISC` there
            // and pushes nothing — registers before memories, each in
            // declaration order (a chunk's appended shadow signals are
            // never commit ports). Any other commit would read `DISC`.
            // Then Wb releases.
            if s < steps {
                control(&mut out, CS, s + 1);
                ph_to(&mut out, Phase::Ra);
            }
            live.clear();
            live.extend(
                (here.iter())
                    .filter_map(|&i| plan.sinks.get(specs[i as usize].dst).copied())
                    .filter(|k| matches!(k, Sink::Reg(_) | Sink::Mem(_))),
            );
            live.sort_unstable();
            live.dedup();
            for &k in &live {
                let op = match k {
                    Sink::Reg(reg) => MicroOp::Commit { reg },
                    Sink::Mem(mem) => MicroOp::CommitMem { mem },
                    Sink::Module(_) | Sink::None => unreachable!("filtered above"),
                };
                push(&mut out, op, full);
            }
            drives(&mut out, Phase::Wb, false);
            close(&mut out);
        }

        // The walk runs `needed` deltas: the slots, plus the trailing
        // flush delta when a write lands at `wb(CS_MAX)` — or none at all
        // when every lane of a chunk overflowed.
        let Emit {
            mut ops,
            mut masks,
            mut bounds,
            mut phantom,
            ..
        } = out;
        bounds.resize(needed as usize + 1, ops.len() as u32);
        ops.truncate(bounds[needed as usize] as usize);
        masks.truncate(ops.len());
        phantom.resize(needed as usize + 1, 0);
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
        let (counts, checker) = self.walk(
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
        let report = checker.zip(checks).map(|(mut checker, ck)| {
            let mut reports = checker.finish(&needed, |i| &values[ck.sigs[i]]);
            reports.swap_remove(0)
        });
        Ok((plan.outcome(|sig| values[sig], stats, trace), report))
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
        // An overflowed lane never runs, but whole-column moves overwrite
        // it: it reports the values it started with.
        let initial = needed.contains(&0).then(|| values.clone());
        let (counts, checker) =
            self.walk(plan, &mut values, &needed, None, checks, options.deadline)?;
        let mut reports = checker.zip(checks).map(|(mut checker, ck)| {
            let reports = checker.finish(&needed, |i| &values[ck.sigs[i]]);
            reports.into_iter()
        });
        for (c, counts) in counts.iter().enumerate() {
            let check = reports.as_mut().and_then(Iterator::next);
            let check = check.filter(|_| needed[c] > 0);
            let finals = match (needed[c], &initial) {
                (0, Some(initial)) => initial,
                _ => &values,
            };
            out.push(lanes.outcome(plan, c, |sig| finals[sig].get(c), counts, check));
        }
        Ok(())
    }

    /// The lanes of `mask` in which guard `g` holds over `values`.
    #[inline]
    fn holds<W: Word>(&self, plan: &ExecPlan, g: u32, values: &[W], mask: u64) -> u64 {
        if g == NO_GUARD {
            return mask;
        }
        let (guard, negate) = self.ext.guard(plan, g);
        let on = guard.eval(values, mask);
        match negate {
            true => mask & !on,
            false => on,
        }
    }

    /// The walk over `values`, one [`Word`] per signal, lane `c` running
    /// `needed[c]` deltas (none: it never runs). Each delta applies the
    /// pending driver updates, feeds the checkers and runs its ops, each
    /// op on whole words in the lanes of its mask. A solo walk is one
    /// scalar lane whose ops all run in it; a chunk walks packed
    /// columns. Returns each lane's counters and, when checked, the
    /// lanes' checkers.
    fn walk<'c, W: Word>(
        &self,
        plan: &ExecPlan,
        values: &mut [W],
        needed: &[u64],
        mut trace: Option<&mut Trace<Value>>,
        checks: Option<&'c PlanChecks>,
        deadline: Option<Instant>,
    ) -> Result<(Vec<LaneCounts>, Option<LaneChecks<'c>>), KernelError> {
        let n = needed.len();
        let full = (0..n).filter(|&c| needed[c] > 0).fold(0, |m, c| m | 1 << c);
        let (mut events, mut pending) = (MaskCount::new(n), MaskCount::new(n));
        let mut counts = vec![LaneCounts::default(); n];
        let mut illegal_seen = 0u64;
        let mut checker = checks.map(|ck| LaneChecks::new(&ck.program, &ck.index, n));
        // The lanes whose checkers still observe: running, and not yet
        // settled (every armed family latched).
        let mut feeding = if checks.is_some() { full } else { 0 };
        let mut drivers = self.layout.state::<W>();
        let modules = self.pipe_at.len() - 1;
        let mut ring = vec![W::splat(Value::Disc); self.pipe_at[modules] as usize];
        // Every evaluation of a module runs in the same lanes (all of
        // them, or the shadow module's), so its ring head is one counter.
        let mut head = vec![0u32; modules];
        let mut busy = vec![0u32; modules * W::LANES];
        let mut stores: Vec<(usize, u64)> = Vec::new();
        // A delta pushes about one row per op: reserve for the widest, so
        // no delta regrows (and copies) a chunk's column-wide rows.
        let widest = self.bounds.windows(2).map(|b| b[1] - b[0]).max();
        let widest = widest.unwrap_or(0) as usize;
        let (mut cur, mut nxt) = (Pending::<W>::new(widest), Pending::<W>::new(widest));
        // Control pushes are only skippable when nothing records them;
        // `carry` counts those skipped in the previous delta.
        let elide_ctl = self.config.fold && trace.is_none();
        let mut carry: u64 = 0;

        for d in 0..self.bounds.len() as u64 - 1 {
            let credit = carry + u64::from(self.phantom[d as usize]);

            // Update phase: apply the pushed transactions in push order,
            // one row at a time (two drives of one signal in one delta
            // each produce their own event, exactly like the kernel). A
            // row moves its word in the lanes of its mask; its events are
            // the lanes it changed. Rows and changes in every running lane
            // are counted once per delta, the others lane by lane.
            let (mut split_rows, mut moves) = (0, carry);
            for (dst, mask, pushed) in cur.rows() {
                if W::LANES > 1 && mask != full {
                    pending.add_split(mask, full);
                    split_rows += 1;
                }
                let sig = dst.sig as usize;
                let effective = match dst.slot {
                    NO_SLOT => pushed,
                    slot => drivers.drive(sig, slot as usize, mask, full, pushed),
                };
                let value = &mut values[sig];
                let moved = mask & value.diff(effective);
                if moved == 0 {
                    continue;
                }
                if W::LANES == 1 || moved == full {
                    *value = *effective;
                    moves += 1;
                } else {
                    value.blend(effective, moved);
                    events.add_split(moved, full);
                }
                // Control signals never carry `ILLEGAL`, so a lane's first
                // one is always a conflict site.
                let fresh = moved & effective.illegal() & !illegal_seen;
                if W::LANES > 1 && fresh != 0 {
                    illegal_seen |= fresh;
                    for c in bits(fresh) {
                        counts[c].first_illegal = Some((sig, d));
                    }
                }
                if let Some(t) = trace.as_deref_mut() {
                    let time = SimTime { fs: 0, delta: d };
                    t.push(time, SignalId::from_index(sig), effective.get(0));
                }
                if let (Some(checker), Some(ck)) = (checker.as_mut(), checks) {
                    for &i in ck.watch.get(sig).into_iter().flatten() {
                        checker.changed(i, moved & feeding);
                    }
                }
            }
            events.all += moves;
            // Each lane applied `credit` updates plus its rows.
            pending.all += credit + (cur.len - split_rows) as u64;
            for (c, k) in counts.iter_mut().enumerate() {
                if full >> c & 1 != 0 {
                    let rows = pending.get(c);
                    k.driver_updates += rows;
                    k.peak_pending = k.peak_pending.max(rows);
                }
            }
            pending.clear();
            cur.clear();
            carry = 0;

            // Check phase: each running lane's checkers see the monitored
            // signals this delta changed — the observation the
            // interpreter's commit log reconstructs — until they settle.
            if let (Some(checker), Some(ck)) = (checker.as_mut(), checks) {
                let ending = (0..n).filter(|&c| d + 1 >= needed[c]);
                let ending = ending.fold(0, |m, c| m | 1 << c);
                let observing = bits(feeding).filter(|&c| d < needed[c]);
                let observing = observing.fold(0, |m, c| m | 1 << c);
                checker.observe(d, observing, |i| &values[ck.sigs[i]]);
                feeding &= !(ending | checker.settled());
            }

            // Run phase: the delta's straight-line ops (none in the
            // trailing flush delta: updates only).
            let lo = self.bounds[d as usize] as usize;
            let hi = self.bounds[d as usize + 1] as usize;
            let values: &[W] = values;
            for (i, &op) in (lo..).zip(&self.ops[lo..hi]) {
                let mask = if W::LANES == 1 { full } else { self.masks[i] };
                match op {
                    MicroOp::Ctl { .. } if elide_ctl => carry += 1,
                    MicroOp::Ctl { sig, v } => {
                        *nxt.push(Dst::direct(sig as usize), mask) = W::splat(v);
                    }
                    MicroOp::Push { dst, guard, src } => {
                        let on = self.holds(plan, guard, values, mask);
                        let word = nxt.push(dst, mask);
                        match src {
                            Src::Const(v) => *word = W::splat(v),
                            Src::Signal(s) => *word = values[s as usize],
                            // Lanes address words of their own: read each.
                            Src::MemRead { addr, mem } => {
                                let words = &plan.mems[mem as usize].words;
                                *word = W::splat(Value::Disc);
                                for c in bits(on) {
                                    let read = match values[addr as usize].get(c).num() {
                                        Some(a) if (0..words.len() as i64).contains(&a) => {
                                            values[words[a as usize]].get(c)
                                        }
                                        _ => Value::Illegal,
                                    };
                                    word.set(c, read);
                                }
                            }
                        }
                        if on != mask {
                            word.release(mask & !on);
                        }
                    }
                    MicroOp::Eval { module } => {
                        let mi = module as usize;
                        let m = self.ext.module(plan, mi);
                        let latency = m.timing.latency() as usize;
                        let out = nxt.push(Dst::direct(m.out), mask);
                        let stages = self.pipe_at[mi] as usize..self.pipe_at[mi + 1] as usize;
                        // The pipeline is a ring of `latency` stages: the
                        // oldest result leaves as this one enters.
                        let result = match latency {
                            0 => &mut *out,
                            _ => {
                                let h = head[mi] as usize;
                                head[mi] = if h + 1 == latency { 0 } else { h as u32 + 1 };
                                let stage = &mut ring[stages.start + h];
                                *out = *stage;
                                stage
                            }
                        };
                        let (a, b) = (&values[m.in1], &values[m.in2]);
                        W::combine(a, b, m.op.map(|p| &values[p]), &m.ops, mask, result);
                        if let ModuleTiming::Sequential { .. } = m.timing {
                            // Busy state diverges per lane.
                            let initiated = mask & !result.disc();
                            for c in bits(mask) {
                                let busy = &mut busy[mi * W::LANES + c];
                                let initiated = initiated >> c & 1 != 0;
                                if *busy > 0 {
                                    *busy -= 1;
                                    if initiated {
                                        // Initiation-interval violation:
                                        // poison the whole pipeline, the
                                        // leaving result included.
                                        out.set(c, Value::Illegal);
                                        for stage in &mut ring[stages.clone()] {
                                            stage.set(c, Value::Illegal);
                                        }
                                    }
                                } else if initiated {
                                    *busy = latency.saturating_sub(1) as u32;
                                }
                            }
                        }
                    }
                    MicroOp::Commit { reg } => {
                        let r = &plan.regs[reg as usize];
                        let input = &values[r.input];
                        let live = mask & !input.disc();
                        if live != 0 {
                            *nxt.push(Dst::direct(r.output), live) = *input;
                        }
                    }
                    MicroOp::CommitMem { mem } => {
                        // A lane stores at its word, or poisons every
                        // word in ascending order: its solo push order.
                        let pm = &plan.mems[mem as usize];
                        let (win, waddr) = (&values[pm.win], &values[pm.waddr]);
                        let mut poison = 0u64;
                        stores.clear();
                        for c in bits(mask & !win.disc()) {
                            match waddr.get(c).num() {
                                Some(a) if (0..pm.words.len() as i64).contains(&a) => {
                                    let a = a as usize;
                                    match stores.iter_mut().find(|(w, _)| *w == a) {
                                        Some((_, lanes)) => *lanes |= 1 << c,
                                        None => stores.push((a, 1 << c)),
                                    }
                                }
                                _ => poison |= 1 << c,
                            }
                        }
                        for &(w, lanes) in &stores {
                            *nxt.push(Dst::direct(pm.words[w]), lanes) = *win;
                        }
                        for &w in pm.words.iter().filter(|_| poison != 0) {
                            *nxt.push(Dst::direct(w), poison) = W::splat(Value::Illegal);
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
        for (c, k) in counts.iter_mut().enumerate() {
            k.events = events.get(c);
        }
        Ok((counts, checker))
    }
}

/// The stream under construction in [`Stream::compile`]: its ops, their
/// lane masks (a lane chunk's only), delta bounds, per-delta DSE credits
/// and DSE's module activity table (`active[module * steps + step - 1]`).
struct Emit {
    ops: Vec<MicroOp>,
    masks: Vec<u64>,
    bounds: Vec<u32>,
    phantom: Vec<u32>,
    active: Vec<bool>,
}

/// The driver updates one delta pushes for the next: per row its
/// destination, its lanes and its word. Rows are kept across deltas, so
/// a push writes its word in place.
#[derive(Debug)]
struct Pending<W> {
    rows: Vec<(Dst, u64, W)>,
    /// The rows pushed this delta: `rows[..len]`.
    len: usize,
}

impl<W: Word> Pending<W> {
    fn new(capacity: usize) -> Self {
        Pending {
            rows: Vec::with_capacity(capacity),
            len: 0,
        }
    }

    /// Pushes a row on `dst` in the lanes of `mask`; the caller writes
    /// its word.
    #[inline(always)]
    fn push(&mut self, dst: Dst, mask: u64) -> &mut W {
        if self.len == self.rows.len() {
            self.rows.push((dst, mask, W::splat(Value::Disc)));
        }
        let row = &mut self.rows[self.len];
        self.len += 1;
        (row.0, row.1) = (dst, mask);
        &mut row.2
    }

    /// The rows pushed, in push order.
    fn rows(&self) -> impl Iterator<Item = (Dst, u64, &W)> {
        self.rows[..self.len].iter().map(|(d, m, w)| (*d, *m, w))
    }

    fn clear(&mut self) {
        self.len = 0;
    }
}

/// Per-lane counts kept from lane masks: lane `c` counts `all +
/// lane[c]` (wrapping). The walk adds masks of every running lane to
/// `all` itself; any other mask costs one increment per lane it holds,
/// or one per running lane it lacks when it holds more than half.
#[derive(Debug, Clone)]
struct MaskCount {
    all: u64,
    lane: Vec<u64>,
    /// Whether some lane's own count moved.
    split: bool,
}

impl MaskCount {
    fn new(lanes: usize) -> MaskCount {
        MaskCount {
            all: 0,
            lane: vec![0; lanes],
            split: false,
        }
    }

    /// Counts one in every lane of `mask`, a strict subset of `full`.
    /// Out of line: most masks hold every running lane.
    #[inline(never)]
    fn add_split(&mut self, mask: u64, full: u64) {
        self.split = true;
        let lacking = full & !mask;
        if lacking.count_ones() < mask.count_ones() {
            self.all += 1;
            for c in bits(lacking) {
                self.lane[c] = self.lane[c].wrapping_sub(1);
            }
        } else {
            for c in bits(mask) {
                self.lane[c] = self.lane[c].wrapping_add(1);
            }
        }
    }

    /// Lane `c`'s count.
    #[inline]
    fn get(&self, c: usize) -> u64 {
        self.all.wrapping_add(self.lane[c])
    }

    fn clear(&mut self) {
        self.all = 0;
        if self.split {
            self.lane.fill(0);
            self.split = false;
        }
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
    fn op_counts_per_level_are_pinned() {
        // At -O0 every placed drive, evaluation, live commit and control
        // push is one op, so emission can neither add nor drop one
        // unnoticed; -O1 only re-addresses ops, and -O2's folding and DSE
        // drop the rest.
        for (text, counts) in [
            (include_str!("../../../models/fig1.rtl"), [69, 69, 65]),
            (include_str!("../../../models/conflict.rtl"), [54, 54, 52]),
            (include_str!("../../../models/guarded.rtl"), [98, 98, 94]),
            (include_str!("../../../models/memory.rtl"), [111, 111, 110]),
            (include_str!("../../../models/iks_ik.rtl"), [689, 689, 567]),
        ] {
            let model = crate::text::parse_model(text).expect("corpus model parses");
            let plan = ExecPlan::lower(&model);
            for (level, want) in OptLevel::ALL.into_iter().zip(counts) {
                let ops = OptPlan::from_plan(plan.clone(), level.config()).op_count();
                assert_eq!(ops, want, "{} at -O{level}", model.name());
            }
        }
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
