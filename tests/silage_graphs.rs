//! The graphs the repository's Silage programs compile to, pinned byte for
//! byte: the DOT text (node ids, labels, edges), every node name and the
//! datapath bitwidth.
//!
//! The expected files under `tests/silage/` are recorded compiler output:
//! any change to node order, labelling or wiring fails here first, before
//! the report digests that also depend on it.  `every_construct.sil` uses
//! each construct of the language at least once.

use cdfg::Cdfg;

/// Every node name in node-id order, space separated.
fn names(cdfg: &Cdfg) -> String {
    cdfg.iter_nodes().map(|(_, data)| data.name.as_str()).collect::<Vec<_>>().join(" ")
}

fn assert_pinned(source: &str, dot: &str, node_names: &str, bitwidth: u32) {
    let cdfg = silage::compile(source).unwrap();
    assert_eq!(cdfg::dot::to_dot(&cdfg), dot);
    assert_eq!(names(&cdfg), node_names);
    assert_eq!(cdfg.default_bitwidth(), bitwidth);
    assert!(cdfg.iter_nodes().all(|(_, data)| data.bitwidth == bitwidth));
}

#[test]
fn abs_diff_compiles_to_the_pinned_graph() {
    assert_pinned(
        circuits::abs_diff_silage_source(),
        include_str!("silage/abs_diff.dot"),
        "a b gt_0 sub_1 sub_2 mux_3 abs",
        8,
    );
}

#[test]
fn filter_compiles_to_the_pinned_graph() {
    assert_pinned(
        include_str!("silage/filter.sil"),
        include_str!("silage/filter.dot"),
        "x k limit mul_0 gt_1 mux_2 c1 c0 mux_3 y flag",
        8,
    );
}

#[test]
fn every_construct_compiles_to_the_pinned_graph() {
    assert_pinned(
        include_str!("silage/every_construct.sil"),
        include_str!("silage/every_construct.dot"),
        "a b c add_0 c3 sub_1 c2 div_2 mul_3 neg_4 neg_5 neg_6 c2 mul_7 neg_8 add_9 c7 sub_10 \
         lt_11 le_12 ge_13 mux_14 mux_15 ne_16 c0 eq_17 mux_18 c4 div_19 mux_20 gt_21 mux_22 \
         add_23 c10 lt_24 c1 c100 lt_25 c2 eq_26 c3 c4 mux_27 mux_28 mux_29 neg_30 c1 add_31 \
         mul_32 lo hi band",
        12,
    );
}
