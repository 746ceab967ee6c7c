//! Clocked simulation of translated designs.
//!
//! The clocked architecture is a conventional synthesizable RTL structure:
//! a clock generator (physical time!), a step counter FSM, combinational
//! bus/operand multiplexers and module datapaths driven by the routing
//! tables, and edge-triggered registers and pipeline stages. It is the
//! "usual RT model" the paper contrasts with: same function, but timing
//! expressed in clock cycles and nanoseconds instead of control steps and
//! delta cycles.

use std::collections::BTreeMap;

use clockless_core::{Guard, Op, RtModel, Step, Value};
use clockless_kernel::{Femtos, KernelError, ProcessCtx, SignalId, SimStats, Simulator, Wait};

use crate::translate::ClockedDesign;

/// A guard bound to the `_q` nets of the registers it reads, ready to be
/// evaluated inside a process against live simulation values.
type ResolvedGuard = (Guard, Vec<(String, SignalId)>);

fn resolve_guard(model: &RtModel, reg_out: &[SignalId], g: &Guard) -> ResolvedGuard {
    let mut regs: Vec<(String, SignalId)> = Vec::new();
    for r in g.registers() {
        if !regs.iter().any(|(n, _)| n == r) {
            let rid = model
                .register_by_name(r)
                .expect("guard reads known register");
            regs.push((r.to_string(), reg_out[rid.0 as usize]));
        }
    }
    (g.clone(), regs)
}

fn guard_passes(ctx: &ProcessCtx<'_, Value>, rg: &ResolvedGuard) -> bool {
    rg.0.eval(|name| {
        rg.1.iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, s)| ctx.value(*s).num())
    })
}

/// A value latched into a clocked register, attributed to the control
/// step it implements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClockedCommit {
    /// The register's name.
    pub register: String,
    /// The control step whose end-of-step edge latched the value.
    pub step: Step,
    /// The latched value.
    pub value: Value,
}

/// An elaborated, initialized clocked simulation.
///
/// # Examples
///
/// ```
/// use clockless_core::model::fig1_model;
/// use clockless_clocked::{ClockedDesign, ClockScheme, ClockedSimulation};
/// use clockless_core::Value;
///
/// let model = fig1_model(3, 4);
/// let design = ClockedDesign::translate(&model, ClockScheme::default())?;
/// let mut sim = ClockedSimulation::new(&design, true)?;
/// sim.run_to_completion()?;
/// assert_eq!(sim.register_value("R1"), Some(Value::Num(7)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ClockedSimulation {
    design: ClockedDesign,
    sim: Simulator<Value>,
    reg_out: Vec<SignalId>,
}

impl ClockedSimulation {
    /// Elaborates and initializes the clocked design. Pass `trace = true`
    /// to enable [`register_commits`](Self::register_commits).
    ///
    /// # Errors
    ///
    /// Propagates kernel elaboration errors.
    pub fn new(design: &ClockedDesign, trace: bool) -> Result<ClockedSimulation, KernelError> {
        let model = design.model().clone();
        let scheme = design.scheme();
        let period = scheme.period_fs();
        let half = period / 2;
        let cps = scheme.cycles_per_step();
        let total_edges = model.cs_max() as u64 * cps + 1;
        let steps = &design.tables().steps;

        let mut sim: Simulator<Value> = Simulator::new();
        if trace {
            sim.enable_trace();
        }

        let clk = sim.signal("clk", Value::Num(0));
        let step_sig = sim.signal("step", Value::Num(0));

        let reg_out: Vec<SignalId> = model
            .registers()
            .iter()
            .map(|r| sim.signal(format!("{}_q", r.name), r.init))
            .collect();
        // One mux net per bus *side*: the abstract model time-multiplexes
        // a bus between its read phases (register sources) and write
        // phases (module sources) within a step; the one-cycle clocked
        // architecture realizes that as two separate mux nets.
        let bus_rmux: Vec<SignalId> = model
            .buses()
            .iter()
            .map(|b| sim.signal(format!("{}_rmux", b.name), Value::Disc))
            .collect();
        let bus_wmux: Vec<SignalId> = model
            .buses()
            .iter()
            .map(|b| sim.signal(format!("{}_wmux", b.name), Value::Disc))
            .collect();
        let mod_out: Vec<SignalId> = model
            .modules()
            .iter()
            .map(|m| sim.signal(format!("{}_out", m.name), Value::Disc))
            .collect();
        // For pipelined/sequential modules an extra comb node feeds the
        // pipeline; combinational modules drive `out` directly.
        let mod_comb: Vec<Option<SignalId>> = model
            .modules()
            .iter()
            .map(|m| {
                if m.timing.latency() > 0 {
                    Some(sim.signal(format!("{}_comb", m.name), Value::Disc))
                } else {
                    None
                }
            })
            .collect();

        // --- Clock generator -------------------------------------------
        {
            let mut edges_done: u64 = 0;
            let mut level = 0i64;
            sim.process("CLKGEN", &[clk], move |ctx: &mut ProcessCtx<'_, Value>| {
                if ctx.now().fs == 0 && level == 0 && edges_done == 0 && ctx.now().delta == 0 {
                    // Initial execution: schedule the first rising edge.
                    return Wait::For(half);
                }
                if level == 0 {
                    level = 1;
                    edges_done += 1;
                    ctx.assign(clk, Value::Num(1));
                    Wait::For(half)
                } else {
                    level = 0;
                    ctx.assign(clk, Value::Num(0));
                    if edges_done >= total_edges {
                        Wait::Done
                    } else {
                        Wait::For(half)
                    }
                }
            });
        }

        // --- Step counter ----------------------------------------------
        {
            let mut cycles: u64 = 0;
            sim.process(
                "STEP_FSM",
                &[step_sig],
                move |ctx: &mut ProcessCtx<'_, Value>| {
                    if *ctx.value(clk) == Value::Num(1) {
                        cycles += 1;
                        let step = (cycles - 1) / cps + 1;
                        ctx.assign(step_sig, Value::Num(step as i64));
                    }
                    Wait::Event(vec![clk])
                },
            );
        }

        // --- Registers: latch at end-of-step edges ----------------------
        for (ridx, rdecl) in model.registers().iter().enumerate() {
            // Load source (bus signal) per step that loads the register.
            let rid = model.register_by_name(&rdecl.name).expect("own register");
            // Each load carries the owning tuple's guard (if any): a false
            // guard at the latch edge disables the load, mirroring the
            // write-side transfer process driving DISC.
            let loads: BTreeMap<Step, (SignalId, Option<ResolvedGuard>)> = (steps.iter())
                .filter_map(|(&step, routes)| {
                    let b = routes.reg_load.get(&rid)?;
                    let g = (routes.reg_load_guard.get(&rid))
                        .map(|g| resolve_guard(&model, &reg_out, g));
                    Some((step, (bus_wmux[b.0 as usize], g)))
                })
                .collect();
            let q = reg_out[ridx];
            let mut edge: u64 = 0;
            sim.process(
                format!("{}_ff", rdecl.name),
                &[q],
                move |ctx: &mut ProcessCtx<'_, Value>| {
                    if *ctx.value(clk) == Value::Num(1) {
                        edge += 1;
                        // Edge `edge` ends cycle `edge - 1`; a step ends
                        // here when that cycle count is a multiple of cps.
                        if edge > 1 && (edge - 1).is_multiple_of(cps) {
                            let s = (edge - 1) / cps; // the completed step
                            let load = Step::try_from(s).ok().and_then(|s| loads.get(&s));
                            if let Some((src, g)) = load {
                                if g.as_ref().is_none_or(|g| guard_passes(ctx, g)) {
                                    let v = *ctx.value(*src);
                                    if v != Value::Disc {
                                        ctx.assign(q, v);
                                    }
                                }
                            }
                        }
                    }
                    Wait::Event(vec![clk])
                },
            );
        }

        // --- Module pipelines: shift at end-of-step edges ----------------
        for (midx, mdecl) in model.modules().iter().enumerate() {
            let latency = mdecl.timing.latency();
            if latency == 0 {
                continue;
            }
            let comb = mod_comb[midx].expect("latency > 0 has comb node");
            let out = mod_out[midx];
            // The latch edge itself provides one stage of delay, so a
            // latency-L module needs L-1 further FIFO stages: operands of
            // step s settle `comb` during s, the end-of-step edge pushes
            // it, and it surfaces on `out` during step s+L.
            let mut pipe: std::collections::VecDeque<Value> =
                std::iter::repeat_n(Value::Disc, latency as usize - 1).collect();
            let mut edge: u64 = 0;
            sim.process(
                format!("{}_pipe", mdecl.name),
                &[out],
                move |ctx: &mut ProcessCtx<'_, Value>| {
                    if *ctx.value(clk) == Value::Num(1) {
                        edge += 1;
                        if edge > 1 && (edge - 1).is_multiple_of(cps) {
                            pipe.push_back(*ctx.value(comb));
                            let due = pipe.pop_front().expect("nonempty after push");
                            ctx.assign(out, due);
                        }
                    }
                    Wait::Event(vec![clk])
                },
            );
        }

        // --- Bus multiplexers (combinational, one per side) --------------
        for (bidx, bdecl) in model.buses().iter().enumerate() {
            let bid = model.bus_by_name(&bdecl.name).expect("own bus");
            // Read-side drives carry the owning tuple's guard: a false
            // guard puts DISC on the bus in place of the register value,
            // just as TRANSG does in the clock-free model. Write-side
            // drives are never guarded here — a false guard already
            // surfaces as DISC operands and a disabled load.
            type Drive = BTreeMap<Step, (SignalId, Option<ResolvedGuard>)>;
            let sides: [(&str, Drive, SignalId); 2] = [
                (
                    "r",
                    (steps.iter())
                        .filter_map(|(&step, routes)| {
                            let r = routes.bus_read.get(&bid)?;
                            let g = (routes.bus_read_guard.get(&bid))
                                .map(|g| resolve_guard(&model, &reg_out, g));
                            Some((step, (reg_out[r.0 as usize], g)))
                        })
                        .collect(),
                    bus_rmux[bidx],
                ),
                (
                    "w",
                    (steps.iter())
                        .filter_map(|(&step, routes)| {
                            let m = routes.bus_write.get(&bid)?;
                            Some((step, (mod_out[m.0 as usize], None)))
                        })
                        .collect(),
                    bus_wmux[bidx],
                ),
            ];
            for (tag, drive, sig) in sides {
                if drive.is_empty() {
                    continue; // unused side: stays DISC, no process needed
                }
                let mut sens: Vec<SignalId> = vec![step_sig];
                for (s, g) in drive.values() {
                    if !sens.contains(s) {
                        sens.push(*s);
                    }
                    for (_, gs) in g.iter().flat_map(|rg| rg.1.iter()) {
                        if !sens.contains(gs) {
                            sens.push(*gs);
                        }
                    }
                }
                sim.process(
                    format!("{}_{tag}muxp", bdecl.name),
                    &[sig],
                    move |ctx: &mut ProcessCtx<'_, Value>| {
                        let step = ctx.value(step_sig).num().unwrap_or(0);
                        let v = match Step::try_from(step).ok().and_then(|s| drive.get(&s)) {
                            Some((src, g)) if g.as_ref().is_none_or(|g| guard_passes(ctx, g)) => {
                                *ctx.value(*src)
                            }
                            _ => Value::Disc,
                        };
                        ctx.assign(sig, v);
                        Wait::Event(sens.clone())
                    },
                );
            }
        }

        // --- Module datapaths (combinational) -----------------------------
        for (midx, mdecl) in model.modules().iter().enumerate() {
            let mid = model.module_by_name(&mdecl.name).expect("own module");
            // The module's operands and operation per step that selects it.
            let plan: BTreeMap<Step, (Option<SignalId>, Option<SignalId>, Op)> = (steps.iter())
                .filter_map(|(&step, t)| {
                    let op = *t.mod_op.get(&mid)?;
                    let a = t.mod_in1.get(&mid).map(|b| bus_rmux[b.0 as usize]);
                    let b = t.mod_in2.get(&mid).map(|b| bus_rmux[b.0 as usize]);
                    Some((step, (a, b, op)))
                })
                .collect();
            let target = match mod_comb[midx] {
                Some(comb) => comb,
                None => mod_out[midx],
            };
            let mut sens: Vec<SignalId> = vec![step_sig];
            for (a, b, _) in plan.values() {
                for s in [a, b].into_iter().flatten() {
                    if !sens.contains(s) {
                        sens.push(*s);
                    }
                }
            }
            sim.process(
                format!("{}_dp", mdecl.name),
                &[target],
                move |ctx: &mut ProcessCtx<'_, Value>| {
                    let step = ctx.value(step_sig).num().unwrap_or(0);
                    let v = match Step::try_from(step).ok().and_then(|s| plan.get(&s)) {
                        Some((a, b, op)) => {
                            let av = a.map(|s| *ctx.value(s)).unwrap_or(Value::Disc);
                            let bv = b.map(|s| *ctx.value(s)).unwrap_or(Value::Disc);
                            op.apply(av, bv)
                        }
                        None => Value::Disc,
                    };
                    ctx.assign(target, v);
                    Wait::Event(sens.clone())
                },
            );
        }

        sim.initialize()?;
        Ok(ClockedSimulation {
            design: design.clone(),
            sim,
            reg_out,
        })
    }

    /// Runs until quiescence (the clock generator stops after the final
    /// latch edge).
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn run_to_completion(&mut self) -> Result<SimStats, KernelError> {
        self.sim.run()
    }

    /// Final (or current) value of a register.
    pub fn register_value(&self, name: &str) -> Option<Value> {
        let rid = self.design.model().register_by_name(name)?;
        Some(*self.sim.value(self.reg_out[rid.0 as usize]))
    }

    /// All register values, in declaration order.
    pub fn registers(&self) -> Vec<(String, Value)> {
        self.design
            .model()
            .registers()
            .iter()
            .enumerate()
            .map(|(i, r)| (r.name.clone(), *self.sim.value(self.reg_out[i])))
            .collect()
    }

    /// Kernel statistics.
    pub fn stats(&self) -> SimStats {
        self.sim.stats()
    }

    /// Physical time reached, in femtoseconds.
    pub fn elapsed_fs(&self) -> Femtos {
        self.sim.now().fs
    }

    /// The underlying model.
    pub fn model(&self) -> &RtModel {
        self.design.model()
    }

    /// Register commits attributed to control steps, for equivalence
    /// checking against the clock-free model. `None` unless constructed
    /// with `trace = true`.
    pub fn register_commits(&self) -> Option<Vec<ClockedCommit>> {
        let trace = self.sim.trace()?;
        let scheme = self.design.scheme();
        let half = scheme.period_fs() / 2;
        let period = scheme.period_fs();
        let cps = scheme.cycles_per_step();
        let mut commits = Vec::new();
        for e in trace.events() {
            let Some(ridx) = self.reg_out.iter().position(|&s| s == e.signal) else {
                continue;
            };
            if e.at.fs == 0 {
                continue; // initial value
            }
            // Rising edge k happens at fs = (k-1)*period + half.
            let k = (e.at.fs - half) / period + 1;
            let step = ((k - 1) / cps) as Step;
            commits.push(ClockedCommit {
                register: self.design.model().registers()[ridx].name.clone(),
                step,
                value: e.value,
            });
        }
        Some(commits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate::ClockScheme;
    use clockless_core::model::fig1_model;
    use clockless_kernel::NS;

    #[test]
    fn fig1_clocked_matches_abstract_result() {
        let model = fig1_model(3, 4);
        let design = ClockedDesign::translate(&model, ClockScheme::default()).unwrap();
        let mut sim = ClockedSimulation::new(&design, false).unwrap();
        sim.run_to_completion().unwrap();
        assert_eq!(sim.register_value("R1"), Some(Value::Num(7)));
        assert_eq!(sim.register_value("R2"), Some(Value::Num(4)));
    }

    #[test]
    fn physical_time_advances_with_the_clock() {
        let model = fig1_model(1, 1);
        let period = 10 * NS;
        let design =
            ClockedDesign::translate(&model, ClockScheme::OneCyclePerStep { period_fs: period })
                .unwrap();
        let mut sim = ClockedSimulation::new(&design, false).unwrap();
        sim.run_to_completion().unwrap();
        // 7 steps -> 8 rising edges; clock runs 8 cycles.
        assert!(sim.elapsed_fs() >= 7 * period);
    }

    #[test]
    fn commits_attributed_to_steps() {
        let model = fig1_model(10, 20);
        let design = ClockedDesign::translate(&model, ClockScheme::default()).unwrap();
        let mut sim = ClockedSimulation::new(&design, true).unwrap();
        sim.run_to_completion().unwrap();
        let commits = sim.register_commits().unwrap();
        assert_eq!(
            commits,
            vec![ClockedCommit {
                register: "R1".into(),
                step: 6,
                value: Value::Num(30)
            }]
        );
    }

    #[test]
    fn two_cycle_scheme_same_function_twice_the_time() {
        let model = fig1_model(5, 6);
        let p = 10 * NS;
        let one = ClockedDesign::translate(&model, ClockScheme::OneCyclePerStep { period_fs: p })
            .unwrap();
        let two = ClockedDesign::translate(&model, ClockScheme::TwoCyclesPerStep { period_fs: p })
            .unwrap();
        let mut s1 = ClockedSimulation::new(&one, false).unwrap();
        let mut s2 = ClockedSimulation::new(&two, false).unwrap();
        s1.run_to_completion().unwrap();
        s2.run_to_completion().unwrap();
        assert_eq!(s1.register_value("R1"), Some(Value::Num(11)));
        assert_eq!(s2.register_value("R1"), Some(Value::Num(11)));
        assert!(s2.elapsed_fs() > s1.elapsed_fs() * 3 / 2);
    }
}
