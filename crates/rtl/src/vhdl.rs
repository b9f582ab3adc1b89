//! VHDL emission.
//!
//! The paper's implementation "generates VHDL code for the controller as
//! well as the datapath corresponding to the power-management-aware
//! schedule", which is then synthesised with Synopsys Design Compiler.  This
//! module reproduces that artifact: a single entity/architecture pair with
//!
//! * one signal per datapath register,
//! * a clocked process implementing the FSM state counter,
//! * a clocked datapath process in which every operation executes in its
//!   control step, guarded by the power-management condition when one
//!   exists (the gated load enables), and
//! * combinational output assignments.
//!
//! The text is meant to be readable and structurally faithful; no VHDL
//! simulator is invoked in this reproduction (the `sim` module plays that
//! role).

use std::fmt::Write as _;

use cdfg::{Cdfg, NodeId, Op};
use pmsched::PowerManagementResult;

use crate::controller::Controller;

/// Emits a VHDL entity/architecture pair for a power-managed design.
pub fn emit(result: &PowerManagementResult, controller: &Controller) -> String {
    let cdfg = result.cdfg();
    let bits = cdfg.default_bitwidth();
    let mut out = String::new();

    let name = sanitize(cdfg.name());
    let _ = writeln!(out, "-- Generated by pmsched: power-management-aware schedule");
    let _ = writeln!(
        out,
        "-- {} control steps, {} managed multiplexors",
        result.latency(),
        result.managed_mux_count()
    );
    let _ = writeln!(out, "library ieee;");
    let _ = writeln!(out, "use ieee.std_logic_1164.all;");
    let _ = writeln!(out, "use ieee.numeric_std.all;");
    let _ = writeln!(out);
    let _ = writeln!(out, "entity {name} is");
    let _ = writeln!(out, "  port (");
    let _ = writeln!(out, "    clk   : in  std_logic;");
    let _ = writeln!(out, "    reset : in  std_logic;");
    for &input in cdfg.inputs() {
        let port = sanitize(&cdfg.node(input).expect("live input").name);
        let _ = writeln!(out, "    {port} : in  signed({} downto 0);", bits - 1);
    }
    for (i, &output) in cdfg.outputs().iter().enumerate() {
        let port = sanitize(&cdfg.node(output).expect("live output").name);
        let sep = if i + 1 == cdfg.outputs().len() { "" } else { ";" };
        let _ = writeln!(out, "    {port} : out signed({} downto 0){sep}", bits - 1);
    }
    let _ = writeln!(out, "  );");
    let _ = writeln!(out, "end entity {name};");
    let _ = writeln!(out);
    let _ = writeln!(out, "architecture rtl of {name} is");
    let _ = writeln!(out, "  signal state : natural range 1 to {};", controller.num_steps());
    for &node in cdfg.slices().functional() {
        let _ =
            writeln!(out, "  signal {} : signed({} downto 0);", value_name(cdfg, node), bits - 1);
    }
    let _ = writeln!(out, "begin");
    let _ = writeln!(out);
    let _ = writeln!(out, "  -- Controller: one state per control step.");
    let _ = writeln!(out, "  fsm : process (clk)");
    let _ = writeln!(out, "  begin");
    let _ = writeln!(out, "    if rising_edge(clk) then");
    let _ = writeln!(out, "      if reset = '1' then");
    let _ = writeln!(out, "        state <= 1;");
    let _ = writeln!(out, "      elsif state = {} then", controller.num_steps());
    let _ = writeln!(out, "        state <= 1;");
    let _ = writeln!(out, "      else");
    let _ = writeln!(out, "        state <= state + 1;");
    let _ = writeln!(out, "      end if;");
    let _ = writeln!(out, "    end if;");
    let _ = writeln!(out, "  end process fsm;");
    let _ = writeln!(out);
    let _ = writeln!(out, "  -- Datapath: operations execute in their control step; gated");
    let _ = writeln!(out, "  -- operations only load their input registers when the recorded");
    let _ = writeln!(out, "  -- condition selects their branch (power management).");
    let _ = writeln!(out, "  datapath : process (clk)");
    let _ = writeln!(out, "  begin");
    let _ = writeln!(out, "    if rising_edge(clk) then");
    for step in 1..=controller.num_steps() {
        let _ = writeln!(out, "      if state = {step} then");
        for enable in controller.enables_in_step(step) {
            let node = enable.node;
            let target = value_name(cdfg, node);
            let expr = expression(cdfg, node);
            if enable.conditions.is_empty() {
                let _ = writeln!(out, "        {target} <= {expr};");
            } else {
                let guard: Vec<String> = enable
                    .conditions
                    .iter()
                    .map(|c| {
                        let cond = value_name(cdfg, c.condition);
                        if c.active_when_one {
                            format!("{cond} /= 0")
                        } else {
                            format!("{cond} = 0")
                        }
                    })
                    .collect();
                let _ = writeln!(out, "        if {} then", guard.join(" and "));
                let _ = writeln!(out, "          {target} <= {expr};  -- power managed");
                let _ = writeln!(out, "        end if;");
            }
        }
        let _ = writeln!(out, "      end if;");
    }
    let _ = writeln!(out, "    end if;");
    let _ = writeln!(out, "  end process datapath;");
    let _ = writeln!(out);
    for &output in cdfg.outputs() {
        let port = sanitize(&cdfg.node(output).expect("live output").name);
        let driver = cdfg.operands(output)[0];
        let _ = writeln!(out, "  {port} <= {};", value_name(cdfg, driver));
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "end architecture rtl;");
    out
}

fn sanitize(name: &str) -> String {
    let mut s: String =
        name.chars().map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' }).collect();
    if s.chars().next().map(|c| c.is_ascii_digit()).unwrap_or(true) {
        s.insert(0, 'v');
    }
    s
}

fn value_name(cdfg: &Cdfg, node: NodeId) -> String {
    let data = cdfg.node(node).expect("live node");
    match data.op {
        Op::Input | Op::Output => sanitize(&data.name),
        Op::Const(c) => format!("to_signed({c}, {})", cdfg.default_bitwidth()),
        _ => format!("{}_{}", sanitize(&data.name), node.index()),
    }
}

fn expression(cdfg: &Cdfg, node: NodeId) -> String {
    let operands = cdfg.operands(node);
    let v = |i: usize| value_name(cdfg, operands[i]);
    let bits = cdfg.default_bitwidth();
    match cdfg.op(node) {
        Op::Add => format!("{} + {}", v(0), v(1)),
        Op::Sub => format!("{} - {}", v(0), v(1)),
        Op::Mul => format!("resize({} * {}, {})", v(0), v(1), bits),
        Op::Div => format!("{} / {}", v(0), v(1)),
        Op::Neg => format!("-{}", v(0)),
        Op::Shl => format!("shift_left({}, to_integer({}))", v(0), v(1)),
        Op::Shr => format!("shift_right({}, to_integer({}))", v(0), v(1)),
        Op::And => format!("{} and {}", v(0), v(1)),
        Op::Or => format!("{} or {}", v(0), v(1)),
        Op::Xor => format!("{} xor {}", v(0), v(1)),
        Op::Not => format!("not {}", v(0)),
        Op::Gt => bool_expr(&v(0), ">", &v(1), bits),
        Op::Lt => bool_expr(&v(0), "<", &v(1), bits),
        Op::Ge => bool_expr(&v(0), ">=", &v(1), bits),
        Op::Le => bool_expr(&v(0), "<=", &v(1), bits),
        Op::Eq => bool_expr(&v(0), "=", &v(1), bits),
        Op::Ne => bool_expr(&v(0), "/=", &v(1), bits),
        Op::Mux => format!("{} when {} /= 0 else {}", v(2), v(0), v(1)),
        // Inputs, constants, outputs and any future operations fall back to
        // their value name (no computation).
        _ => value_name(cdfg, node),
    }
}

fn bool_expr(a: &str, op: &str, b: &str, bits: u32) -> String {
    format!("to_signed(1, {bits}) when {a} {op} {b} else to_signed(0, {bits})")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdfg::Op;
    use pmsched::{power_manage, PowerManagementOptions};

    fn abs_diff_vhdl(latency: u32) -> (String, Controller) {
        let mut g = Cdfg::new("abs_diff");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let gt = g.add_op(Op::Gt, &[a, b]).unwrap();
        let amb = g.add_op(Op::Sub, &[a, b]).unwrap();
        let bma = g.add_op(Op::Sub, &[b, a]).unwrap();
        let m = g.add_mux(gt, bma, amb).unwrap();
        g.add_output("abs", m).unwrap();
        let result = power_manage(&g, &PowerManagementOptions::with_latency(latency)).unwrap();
        let controller = Controller::generate(&result);
        (emit(&result, &controller), controller)
    }

    #[test]
    fn vhdl_has_entity_architecture_and_ports() {
        let (vhdl, _) = abs_diff_vhdl(3);
        assert!(vhdl.contains("entity abs_diff is"));
        assert!(vhdl.contains("architecture rtl of abs_diff is"));
        assert!(vhdl.contains("a : in  signed(7 downto 0);"));
        assert!(vhdl.contains("abs : out signed(7 downto 0)"));
        assert!(vhdl.contains("end architecture rtl;"));
    }

    #[test]
    fn managed_design_emits_guarded_assignments() {
        let (vhdl, ctrl) = abs_diff_vhdl(3);
        assert!(ctrl.gated_enable_count() > 0);
        assert!(vhdl.contains("-- power managed"));
        assert!(vhdl.contains("if state = 1 then"));
        assert!(vhdl.contains("if state = 3 then"));
    }

    #[test]
    fn unmanaged_design_has_no_guards() {
        let (vhdl, ctrl) = abs_diff_vhdl(2);
        assert_eq!(ctrl.gated_enable_count(), 0);
        assert!(!vhdl.contains("-- power managed"));
    }

    #[test]
    fn sanitize_handles_awkward_names() {
        assert_eq!(sanitize("3bad name"), "v3bad_name");
        assert_eq!(sanitize("ok_name"), "ok_name");
        assert_eq!(sanitize(""), "v");
    }

    #[test]
    fn every_functional_node_gets_a_signal_and_assignment() {
        let (vhdl, _) = abs_diff_vhdl(3);
        let signal_count = vhdl.matches("  signal ").count();
        // state + 4 functional nodes
        assert_eq!(signal_count, 5);
        assert!(vhdl.contains("when"), "mux is a conditional assignment");
    }
}
