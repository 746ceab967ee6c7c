//! Synthesizable VHDL emission for translated designs.
//!
//! §4's end product is "a usual synthesizable RT description based on
//! clock signals … which can be performed by current commercial synthesis
//! tools". This module renders a [`ClockedDesign`] as exactly that: a
//! single clocked entity with a step-counter FSM, per-step case-statement
//! multiplexers compiled from the routing tables, edge-triggered
//! registers and module pipelines. The output is plain VHDL-1993 over
//! `Integer` datapaths (one-cycle-per-step architecture).
//!
//! DSP operations (the CORDIC class) have no inline expression and are
//! rejected, mirroring `clockless_core::vhdl`.

use std::fmt::Write as _;

use clockless_core::{Op, Value};

use crate::translate::ClockedDesign;

/// Errors from VHDL emission.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EmitVhdlError {
    /// The operation has no inline VHDL expression.
    UnsupportedOp(Op),
}

impl std::fmt::Display for EmitVhdlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmitVhdlError::UnsupportedOp(op) => {
                write!(f, "operation `{op}` has no VHDL expression in the subset")
            }
        }
    }
}

impl std::error::Error for EmitVhdlError {}

fn op_expr(op: Op, a: &str, b: &str) -> Option<String> {
    Some(match op {
        Op::Add => format!("{a} + {b}"),
        Op::Sub => format!("{a} - {b}"),
        Op::Mul => format!("{a} * {b}"),
        Op::MulFx(f) => format!("({a} * {b}) / {}", 1i64 << f),
        Op::Shr => format!("to_integer(shift_right(to_signed({a}, 64), {b}))"),
        Op::Shl => format!("to_integer(shift_left(to_signed({a}, 64), {b}))"),
        Op::PassA => a.to_string(),
        Op::PassB => b.to_string(),
        Op::Neg => format!("-{a}"),
        Op::Abs => format!("abs {a}"),
        Op::Min => format!("minimum({a}, {b})"),
        Op::Max => format!("maximum({a}, {b})"),
        Op::And
        | Op::Or
        | Op::Xor
        | Op::Atan2Fx(_)
        | Op::SqrtFx(_)
        | Op::SinFx(_)
        | Op::CosFx(_) => return None,
    })
}

/// Renders the design as one synthesizable entity (one-cycle-per-step
/// architecture; the clock scheme's period is a comment, physical timing
/// being the synthesis tool's concern).
///
/// # Errors
///
/// [`EmitVhdlError::UnsupportedOp`] for DSP operations.
pub fn emit_clocked_vhdl(design: &ClockedDesign) -> Result<String, EmitVhdlError> {
    let model = design.model();
    for m in model.modules() {
        for &op in &m.ops {
            if op_expr(op, "a", "b").is_none() {
                return Err(EmitVhdlError::UnsupportedOp(op));
            }
        }
    }
    let tables = design.tables();
    let cs_max = model.cs_max() as u64;
    let name = model
        .name()
        .chars()
        .map(|c| if c.is_alphanumeric() { c } else { '_' })
        .collect::<String>();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "-- Synthesizable translation of clock-free model `{}` (section 4):",
        model.name()
    );
    let _ = writeln!(
        out,
        "-- one clock cycle per control step, {} steps, {} control signals.",
        model.cs_max(),
        tables.control_signal_count()
    );
    let _ = writeln!(out, "library ieee;");
    let _ = writeln!(out, "use ieee.std_logic_1164.all;");
    let _ = writeln!(out, "use ieee.numeric_std.all;\n");
    let _ = writeln!(out, "entity {name}_clocked is");
    let _ = writeln!(out, "  port (clk : in std_logic;");
    let _ = writeln!(out, "        rst : in std_logic;");
    let mut first = true;
    for r in model.registers() {
        let sep = if first { "" } else { ";" };
        if !first {
            let _ = writeln!(out, "{sep}");
        }
        first = false;
        let _ = write!(out, "        {}_q : out Integer", r.name);
    }
    let _ = writeln!(out, ");");
    let _ = writeln!(out, "end {name}_clocked;\n");
    let _ = writeln!(out, "architecture rtl of {name}_clocked is");
    let _ = writeln!(out, "  constant DISC : Integer := -1;");
    let _ = writeln!(out, "  signal step : Natural range 0 to {};", cs_max + 1);
    for r in model.registers() {
        let init = match r.init {
            Value::Num(v) => v.to_string(),
            _ => "DISC".to_string(),
        };
        let _ = writeln!(out, "  signal {}_r : Integer := {};", r.name, init);
    }
    for b in model.buses() {
        let _ = writeln!(out, "  signal {0}_rmux, {0}_wmux : Integer;", b.name);
    }
    for m in model.modules() {
        let _ = writeln!(out, "  signal {0}_comb, {0}_out : Integer;", m.name);
    }
    let _ = writeln!(out, "begin");

    // Read-side bus muxes.
    for (bidx, b) in model.buses().iter().enumerate() {
        let bid = clockless_core::BusId(bidx as u32);
        let _ = writeln!(out, "\n  -- bus {} (read side)", b.name);
        let _ = writeln!(out, "  {}_rmux <=", b.name);
        for (step, routes) in &tables.steps {
            if let Some(rid) = routes.bus_read.get(&bid) {
                let reg = &model.registers()[rid.0 as usize].name;
                let _ = writeln!(out, "    {reg}_r when step = {step} else");
            }
        }
        let _ = writeln!(out, "    DISC;");
        let _ = writeln!(out, "  -- bus {} (write side)", b.name);
        let _ = writeln!(out, "  {}_wmux <=", b.name);
        for (step, routes) in &tables.steps {
            if let Some(mid) = routes.bus_write.get(&bid) {
                let module = &model.modules()[mid.0 as usize].name;
                let _ = writeln!(out, "    {module}_out when step = {step} else");
            }
        }
        let _ = writeln!(out, "    DISC;");
    }

    // Module datapaths.
    for (midx, m) in model.modules().iter().enumerate() {
        let mid = clockless_core::ModuleId(midx as u32);
        let _ = writeln!(out, "\n  -- module {} datapath", m.name);
        let _ = writeln!(out, "  process (step, {})", {
            let buses: Vec<String> = model
                .buses()
                .iter()
                .map(|b| format!("{}_rmux", b.name))
                .collect();
            buses.join(", ")
        });
        let _ = writeln!(out, "  begin");
        let _ = writeln!(out, "    case step is");
        for (step, routes) in &tables.steps {
            let Some(&op) = routes.mod_op.get(&mid) else {
                continue;
            };
            let a = (routes.mod_in1.get(&mid))
                .map(|b| format!("{}_rmux", model.buses()[b.0 as usize].name))
                .unwrap_or_else(|| "DISC".to_string());
            let b = (routes.mod_in2.get(&mid))
                .map(|b| format!("{}_rmux", model.buses()[b.0 as usize].name))
                .unwrap_or_else(|| "DISC".to_string());
            let expr = op_expr(op, &a, &b).expect("checked above");
            let _ = writeln!(out, "      when {step} => {}_comb <= {expr};", m.name);
        }
        let _ = writeln!(out, "      when others => {}_comb <= DISC;", m.name);
        let _ = writeln!(out, "    end case;");
        let _ = writeln!(out, "  end process;");
        let latency = m.timing.latency();
        if latency == 0 {
            let _ = writeln!(out, "  {0}_out <= {0}_comb;", m.name);
        } else {
            let _ = writeln!(out, "  process (clk)  -- {}-stage pipeline", latency);
            let _ = writeln!(out, "    type pipe_t is array (1 to {latency}) of Integer;");
            let _ = writeln!(out, "    variable pipe : pipe_t := (others => DISC);");
            let _ = writeln!(out, "  begin");
            let _ = writeln!(out, "    if rising_edge(clk) then");
            let _ = writeln!(out, "      {}_out <= pipe({latency});", m.name);
            for stage in (2..=latency).rev() {
                let _ = writeln!(out, "      pipe({stage}) := pipe({});", stage - 1);
            }
            let _ = writeln!(out, "      pipe(1) := {}_comb;", m.name);
            let _ = writeln!(out, "    end if;");
            let _ = writeln!(out, "  end process;");
        }
    }

    // Step counter and registers.
    let _ = writeln!(out, "\n  -- controller: one clock cycle per control step");
    let _ = writeln!(out, "  process (clk)");
    let _ = writeln!(out, "  begin");
    let _ = writeln!(out, "    if rising_edge(clk) then");
    let _ = writeln!(out, "      if rst = '1' then");
    let _ = writeln!(out, "        step <= 1;");
    let _ = writeln!(out, "      elsif step <= {cs_max} then");
    let _ = writeln!(out, "        step <= step + 1;");
    let _ = writeln!(out, "      end if;");
    let _ = writeln!(out, "    end if;");
    let _ = writeln!(out, "  end process;");
    let _ = writeln!(out, "\n  -- registers with per-step load enables");
    let _ = writeln!(out, "  process (clk)");
    let _ = writeln!(out, "  begin");
    let _ = writeln!(out, "    if rising_edge(clk) then");
    let _ = writeln!(out, "      case step is");
    for (step, routes) in &tables.steps {
        let loads = &routes.reg_load;
        if loads.is_empty() {
            continue;
        }
        let _ = writeln!(out, "        when {step} =>");
        let mut entries: Vec<_> = loads.iter().collect();
        entries.sort_by_key(|(r, _)| r.0);
        for (rid, bid) in entries {
            let reg = &model.registers()[rid.0 as usize].name;
            let bus = &model.buses()[bid.0 as usize].name;
            let _ = writeln!(out, "          if {bus}_wmux /= DISC then");
            let _ = writeln!(out, "            {reg}_r <= {bus}_wmux;");
            let _ = writeln!(out, "          end if;");
        }
    }
    let _ = writeln!(out, "        when others => null;");
    let _ = writeln!(out, "      end case;");
    let _ = writeln!(out, "    end if;");
    let _ = writeln!(out, "  end process;");
    for r in model.registers() {
        let _ = writeln!(out, "  {0}_q <= {0}_r;", r.name);
    }
    let _ = writeln!(out, "end rtl;");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate::{ClockScheme, ClockedDesign};
    use clockless_core::model::fig1_model;

    #[test]
    fn fig1_emits_synthesizable_structure() {
        let design = ClockedDesign::translate(&fig1_model(3, 4), ClockScheme::default()).unwrap();
        let vhdl = emit_clocked_vhdl(&design).unwrap();
        assert!(vhdl.contains("entity fig1_example_clocked is"));
        assert!(vhdl.contains("rising_edge(clk)"));
        // Bus B1 read side selects R1 in step 5, write side ADD in step 6.
        assert!(vhdl.contains("R1_r when step = 5 else"));
        assert!(vhdl.contains("ADD_out when step = 6 else"));
        // The adder computes in step 5 through the pipeline register.
        assert!(vhdl.contains("when 5 => ADD_comb <= B1_rmux + B2_rmux;"));
        assert!(vhdl.contains("pipe(1) := ADD_comb;"));
        // R1 loads from B1's write mux in step 6.
        assert!(vhdl.contains("R1_r <= B1_wmux;"));
    }

    #[test]
    fn dsp_design_rejected() {
        use clockless_core::prelude::*;
        let mut m = RtModel::new("dsp", 12);
        m.add_register_init("A", Value::Num(1)).unwrap();
        m.add_register("T").unwrap();
        m.add_bus("X").unwrap();
        m.add_bus("W").unwrap();
        m.add_module(ModuleDecl::single(
            "CORDIC",
            Op::SqrtFx(16),
            ModuleTiming::Sequential { latency: 8 },
        ))
        .unwrap();
        m.add_transfer(
            TransferTuple::new(1, "CORDIC")
                .src_a("A", "X")
                .write(9, "W", "T"),
        )
        .unwrap();
        let design = ClockedDesign::translate(&m, ClockScheme::default()).unwrap();
        assert_eq!(
            emit_clocked_vhdl(&design),
            Err(EmitVhdlError::UnsupportedOp(Op::SqrtFx(16)))
        );
    }

    #[test]
    fn emission_is_deterministic() {
        let design = ClockedDesign::translate(&fig1_model(1, 2), ClockScheme::default()).unwrap();
        assert_eq!(
            emit_clocked_vhdl(&design).unwrap(),
            emit_clocked_vhdl(&design).unwrap()
        );
    }
}
