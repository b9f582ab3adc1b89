//! Graphviz DOT export of CDFGs (handy for debugging schedules and the
//! control edges added by power-management scheduling).

use std::fmt::Write as _;

use crate::cdfg::Cdfg;
use crate::op::Op;

/// Renders the CDFG in Graphviz DOT syntax.
///
/// Data edges are solid and labelled with their destination port; control
/// (precedence) edges are dashed, matching the dashed arrows of Figure 2(b)
/// in the paper.  Data edges come first, by destination node and then by
/// port; the live control edges follow in insertion order.
pub fn to_dot(cdfg: &Cdfg) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", cdfg.name());
    let _ = writeln!(out, "  rankdir=TB;");
    for (id, data) in cdfg.iter_nodes() {
        let (shape, label) = match data.op {
            Op::Input => ("ellipse", format!("{} (in)", data.name)),
            Op::Const(c) => ("ellipse", format!("{c}")),
            Op::Output => ("ellipse", format!("{} (out)", data.name)),
            Op::Mux => ("trapezium", "MUX".to_owned()),
            _ => ("box", data.op.to_string()),
        };
        let _ = writeln!(out, "  {} [shape={shape}, label=\"{label}\"];", id);
    }
    for dst in cdfg.node_ids() {
        for (port, src) in cdfg.operands(dst).iter().enumerate() {
            let _ = writeln!(out, "  {src} -> {dst} [label=\"{port}\"];");
        }
    }
    for (src, dst) in cdfg.control_pairs() {
        let _ = writeln!(out, "  {src} -> {dst} [style=dashed, color=gray];");
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Op;

    #[test]
    fn dot_output_mentions_every_node_and_edge_style() {
        let mut g = Cdfg::new("dot_test");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let cmp = g.add_op(Op::Gt, &[a, b]).unwrap();
        let diff = g.add_op(Op::Sub, &[a, b]).unwrap();
        let k = g.add_const(0);
        let m = g.add_mux(cmp, k, diff).unwrap();
        g.add_output("o", m).unwrap();
        g.add_control_edge(cmp, diff).unwrap();

        let dot = to_dot(&g);
        assert!(dot.starts_with("digraph \"dot_test\""));
        assert!(dot.contains("MUX"));
        assert!(dot.contains("(in)"));
        assert!(dot.contains("(out)"));
        assert!(dot.contains("style=dashed"), "control edges are dashed");
        assert!(dot.trim_end().ends_with('}'));
        // One line per node and edge plus header/footer/rankdir.
        let lines = dot.lines().count();
        assert_eq!(lines, 3 + g.node_count() + g.edge_count());
    }

    #[test]
    fn edges_print_by_node_then_port_then_control_insertion() {
        let mut g = Cdfg::new("order");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let diff = g.add_op(Op::Sub, &[b, a]).unwrap();
        let cmp = g.add_op(Op::Gt, &[a, b]).unwrap();
        let m = g.add_mux(cmp, diff, a).unwrap();
        g.add_output("o", m).unwrap();
        let dropped = g.add_control_edge(a, b).unwrap();
        g.add_control_edge(cmp, diff).unwrap();
        g.add_control_edge(b, cmp).unwrap();
        g.remove_control_edge(dropped);

        let dot = to_dot(&g);
        let edges: Vec<&str> = dot.lines().filter(|l| l.contains("->")).collect();
        assert_eq!(
            edges,
            [
                "  n1 -> n2 [label=\"0\"];",
                "  n0 -> n2 [label=\"1\"];",
                "  n0 -> n3 [label=\"0\"];",
                "  n1 -> n3 [label=\"1\"];",
                "  n3 -> n4 [label=\"0\"];",
                "  n2 -> n4 [label=\"1\"];",
                "  n0 -> n4 [label=\"2\"];",
                "  n4 -> n5 [label=\"0\"];",
                "  n3 -> n2 [style=dashed, color=gray];",
                "  n1 -> n3 [style=dashed, color=gray];",
            ]
        );
    }
}
