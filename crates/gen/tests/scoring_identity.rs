//! Scoring-identity property tests: the dense binding (`binding::FuBinding`,
//! `binding::RegisterAllocation`, `binding::Datapath`) and the dense
//! activation analysis (`pmsched::Activation`) must reproduce the
//! `BTreeMap`-walking implementations they replaced on every public field.
//!
//! The oracles below are those implementations, kept here verbatim as
//! test-local code: unit binding by `Schedule::by_step` and per-step
//! `(class, partition)` maps, left-edge register allocation by a scan over
//! every register's occupants, routing through `(unit, port)` maps, and
//! activation through three maps over the functional nodes.  Every
//! (circuit, budget) point is scored the way the Pareto explorer scores
//! it: `power_manage`, then the binding once with the single partition and
//! once with the three-level partition `sched::dvs::distribute_slack`
//! picks.  The paper circuits and the four generator families run at
//! cp..=cp+4.

use std::collections::{BTreeMap, BTreeSet};

use binding::datapath::{OperandSource, PortRouting};
use binding::{
    AreaModel, BindError, Datapath, FuBinding, FunctionalUnit, Lifetime, Register,
    RegisterAllocation, RegisterId, UnitId,
};
use cdfg::{Cdfg, NodeId, OpClass};
use gen::{Family, GenSpec};
use pmsched::{
    power_manage, Activation, ManagedMux, OpWeights, PowerManagementOptions, PowerManagementResult,
    SelectProbabilities,
};
use power::VoltagePreset;
use proptest::prelude::*;
use sched::Schedule;

/// Budgets past the critical path each circuit is scored at.
const SPAN: u32 = 4;

// ---------------------------------------------------------------------------
// Oracles: the B-tree implementations, verbatim but for their return types.
// ---------------------------------------------------------------------------

/// The unit binding: the units in id order and the node → unit map.
type OracleUnits = (Vec<FunctionalUnit>, BTreeMap<NodeId, UnitId>);

fn oracle_bind(
    cdfg: &Cdfg,
    schedule: &Schedule,
    partition: &dyn Fn(NodeId) -> u32,
) -> Result<OracleUnits, BindError> {
    let mut pools: BTreeMap<(OpClass, u32), Vec<UnitId>> = BTreeMap::new();
    let mut units: Vec<FunctionalUnit> = Vec::new();
    let mut assignment: BTreeMap<NodeId, UnitId> = BTreeMap::new();

    for &node in cdfg.slices().functional() {
        if schedule.step_of(node).is_none() {
            return Err(BindError::UnscheduledNode(node));
        }
    }

    for (_, nodes) in schedule.by_step() {
        let mut by_key: BTreeMap<(OpClass, u32), Vec<NodeId>> = BTreeMap::new();
        for node in nodes {
            if let Some(data) = cdfg.node(node) {
                if data.op.is_functional() {
                    by_key.entry((data.op.class(), partition(node))).or_default().push(node);
                }
            }
        }
        for ((class, part), nodes) in by_key {
            let pool = pools.entry((class, part)).or_default();
            for (k, node) in nodes.into_iter().enumerate() {
                if k >= pool.len() {
                    let id = UnitId::new(units.len() as u32);
                    units.push(FunctionalUnit {
                        id,
                        class,
                        name: format!(
                            "{}_{}",
                            class.label().to_lowercase().replace(['+', '-', '*', '/'], "fu"),
                            k
                        ),
                    });
                    pool.push(id);
                }
                assignment.insert(node, pool[k]);
            }
        }
    }

    let mut per_class_counter: BTreeMap<OpClass, u32> = BTreeMap::new();
    for unit in &mut units {
        let counter = per_class_counter.entry(unit.class).or_insert(0);
        unit.name = format!("{}_{}", class_prefix(unit.class), counter);
        *counter += 1;
    }
    Ok((units, assignment))
}

fn class_prefix(class: OpClass) -> &'static str {
    match class {
        OpClass::Mux => "mux",
        OpClass::Comp => "cmp",
        OpClass::Add => "add",
        OpClass::Sub => "sub",
        OpClass::Mul => "mul",
        OpClass::Div => "div",
        OpClass::Logic => "log",
        OpClass::Structural => "io",
    }
}

/// The register allocation: registers in id order, the value → register
/// map and every lifetime.
struct OracleRegisters {
    registers: Vec<Register>,
    assignment: BTreeMap<NodeId, RegisterId>,
    lifetimes: BTreeMap<NodeId, Lifetime>,
}

fn oracle_allocate(cdfg: &Cdfg, schedule: &Schedule) -> Result<OracleRegisters, BindError> {
    let lifetimes = oracle_lifetimes(cdfg, schedule)?;
    let mut sorted: Vec<&Lifetime> = lifetimes.values().filter(|l| l.needs_register()).collect();
    sorted.sort_by_key(|l| (l.birth, l.death, l.value));

    let mut registers: Vec<Register> = Vec::new();
    let mut register_lifetimes: Vec<Vec<Lifetime>> = Vec::new();
    let mut assignment: BTreeMap<NodeId, RegisterId> = BTreeMap::new();
    for lifetime in sorted {
        let slot = register_lifetimes
            .iter()
            .position(|occupants| occupants.iter().all(|o| !o.overlaps(lifetime)));
        let index = match slot {
            Some(i) => i,
            None => {
                let id = RegisterId::new(registers.len() as u32);
                registers.push(Register {
                    id,
                    name: format!("r{}", id.index()),
                    values: Vec::new(),
                });
                register_lifetimes.push(Vec::new());
                registers.len() - 1
            }
        };
        registers[index].values.push(lifetime.value);
        register_lifetimes[index].push(*lifetime);
        assignment.insert(lifetime.value, registers[index].id);
    }
    Ok(OracleRegisters { registers, assignment, lifetimes })
}

fn oracle_lifetimes(
    cdfg: &Cdfg,
    schedule: &Schedule,
) -> Result<BTreeMap<NodeId, Lifetime>, BindError> {
    let step_of = |node: NodeId| -> Result<u32, BindError> {
        let data = cdfg.node(node).ok_or(BindError::UnknownNode(node))?;
        if data.op.is_functional() {
            schedule.step_of(node).ok_or(BindError::UnscheduledNode(node))
        } else {
            Ok(0)
        }
    };
    let last_step = schedule.num_steps().max(schedule.last_used_step());
    let mut lifetimes = BTreeMap::new();
    for (node, data) in cdfg.iter_nodes() {
        if data.op.is_output() {
            continue;
        }
        let birth = step_of(node)?;
        let mut death = birth;
        for consumer in cdfg.data_successors(node) {
            let consumer_data = cdfg.node(consumer).ok_or(BindError::UnknownNode(consumer))?;
            let consumer_step =
                if consumer_data.op.is_output() { last_step } else { step_of(consumer)? };
            death = death.max(consumer_step);
        }
        lifetimes.insert(node, Lifetime { value: node, birth, death });
    }
    Ok(lifetimes)
}

/// The datapath: binding, registers, routing and every operand source.
struct OracleDatapath {
    units: Vec<FunctionalUnit>,
    unit_of: BTreeMap<NodeId, UnitId>,
    registers: OracleRegisters,
    routing: Vec<PortRouting>,
    operand_sources: BTreeMap<(NodeId, u16), OperandSource>,
}

fn oracle_datapath(
    cdfg: &Cdfg,
    schedule: &Schedule,
    partition: &dyn Fn(NodeId) -> u32,
) -> Result<OracleDatapath, BindError> {
    let (units, unit_of) = oracle_bind(cdfg, schedule, partition)?;
    let registers = oracle_allocate(cdfg, schedule)?;
    let mut routing_map: BTreeMap<(UnitId, u16), BTreeSet<OperandSource>> = BTreeMap::new();
    let mut operand_sources: BTreeMap<(NodeId, u16), OperandSource> = BTreeMap::new();
    for &node in cdfg.slices().functional() {
        let unit = *unit_of.get(&node).ok_or(BindError::UnscheduledNode(node))?;
        for (port, &operand) in cdfg.operands(node).iter().enumerate() {
            let source = oracle_source_of(cdfg, &registers, schedule, node, operand);
            routing_map.entry((unit, port as u16)).or_default().insert(source);
            operand_sources.insert((node, port as u16), source);
        }
    }
    let routing = routing_map
        .into_iter()
        .map(|((unit, port), sources)| PortRouting { unit, port, sources })
        .collect();
    Ok(OracleDatapath { units, unit_of, registers, routing, operand_sources })
}

fn oracle_source_of(
    cdfg: &Cdfg,
    registers: &OracleRegisters,
    schedule: &Schedule,
    consumer: NodeId,
    operand: NodeId,
) -> OperandSource {
    let data = cdfg.node(operand).expect("live operand");
    if let cdfg::Op::Const(c) = data.op {
        return OperandSource::Constant(c);
    }
    if let Some(&reg) = registers.assignment.get(&operand) {
        let produced = registers.lifetimes.get(&operand).map(|l| l.birth).unwrap_or(0);
        let consumed = schedule.step_of(consumer).unwrap_or(u32::MAX);
        if produced == consumed && data.op.is_functional() {
            return OperandSource::Forward(operand);
        }
        return OperandSource::Register(reg);
    }
    OperandSource::Forward(operand)
}

impl OracleDatapath {
    fn steering_input_count(&self) -> usize {
        self.routing.iter().map(PortRouting::steering_inputs).sum()
    }

    /// `AreaModel::estimate`'s formula over the oracle's components.
    fn area(&self, model: &AreaModel, bitwidth: u32) -> [f64; 4] {
        let bits = f64::from(bitwidth);
        let units: f64 = self.units.iter().map(|u| model.unit_weights.weight(u.class) * bits).sum();
        let registers = self.registers.registers.len() as f64 * model.register_bit * bits;
        let interconnect = self.steering_input_count() as f64 * model.steering_input_bit * bits;
        [units, registers, interconnect, units + registers + interconnect]
    }
}

/// The activation analysis over three maps.
struct OracleActivation {
    probabilities: BTreeMap<NodeId, f64>,
    gating: BTreeMap<NodeId, Vec<NodeId>>,
    classes: BTreeMap<NodeId, OpClass>,
}

fn oracle_activation(
    cdfg: &Cdfg,
    schedule: &Schedule,
    managed: &[ManagedMux],
    probs: &SelectProbabilities,
) -> OracleActivation {
    let mut probabilities: BTreeMap<NodeId, f64> = BTreeMap::new();
    let mut gating: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
    let mut classes: BTreeMap<NodeId, OpClass> = BTreeMap::new();
    for &node in cdfg.slices().functional() {
        probabilities.insert(node, 1.0);
        gating.insert(node, Vec::new());
        classes.insert(node, cdfg.node(node).expect("live node").op.class());
    }
    for mm in managed {
        let condition_step = if mm.select_functional {
            schedule.step_of(mm.select_driver).unwrap_or(u32::MAX)
        } else {
            0
        };
        let p_one = probs.select_one(mm.mux);
        for (set, p_exec) in [(&mm.shutdown_true, p_one), (&mm.shutdown_false, 1.0 - p_one)] {
            for &node in set {
                let node_step = match schedule.step_of(node) {
                    Some(step) => step,
                    None => continue,
                };
                if condition_step < node_step {
                    if let Some(prob) = probabilities.get_mut(&node) {
                        *prob *= p_exec;
                    }
                    gating.entry(node).or_default().push(mm.mux);
                }
            }
        }
    }
    OracleActivation { probabilities, gating, classes }
}

impl OracleActivation {
    fn probability(&self, node: NodeId) -> f64 {
        self.probabilities.get(&node).copied().unwrap_or(1.0)
    }

    fn gating_muxes(&self, node: NodeId) -> &[NodeId] {
        self.gating.get(&node).map(Vec::as_slice).unwrap_or(&[])
    }

    fn gated_nodes(&self) -> Vec<NodeId> {
        self.probabilities.iter().filter(|(_, &p)| p < 1.0).map(|(&n, _)| n).collect()
    }

    fn effective_muxes(&self) -> Vec<NodeId> {
        let mut muxes: Vec<NodeId> = self.gating.values().flatten().copied().collect();
        muxes.sort();
        muxes.dedup();
        muxes
    }

    fn expected_counts(&self) -> BTreeMap<OpClass, f64> {
        let mut totals: BTreeMap<OpClass, f64> = BTreeMap::new();
        for (&node, &p) in &self.probabilities {
            if let Some(&class) = self.classes.get(&node) {
                *totals.entry(class).or_insert(0.0) += p;
            }
        }
        totals
    }
}

// ---------------------------------------------------------------------------
// Comparisons.
// ---------------------------------------------------------------------------

/// Every node id of `cdfg` plus one past the end.
fn probe_ids(cdfg: &Cdfg) -> impl Iterator<Item = NodeId> {
    (0..=cdfg.node_count() as u32).map(NodeId::new)
}

fn bits(map: &BTreeMap<OpClass, f64>) -> Vec<(OpClass, u64)> {
    map.iter().map(|(&c, &v)| (c, v.to_bits())).collect()
}

fn assert_units_match(
    cdfg: &Cdfg,
    fu: &FuBinding,
    units: &[FunctionalUnit],
    unit_of: &BTreeMap<NodeId, UnitId>,
    at: &str,
) {
    assert_eq!(fu.units(), units, "{at}: unit ids, classes or names");
    for node in probe_ids(cdfg) {
        assert_eq!(fu.unit_of(node), unit_of.get(&node).copied(), "{at}: unit of {node}");
    }
    let pairs: Vec<(NodeId, UnitId)> = unit_of.iter().map(|(&n, &u)| (n, u)).collect();
    assert_eq!(fu.iter().collect::<Vec<_>>(), pairs, "{at}: assignment order");
    for unit in units {
        let on: Vec<NodeId> =
            unit_of.iter().filter(|(_, &u)| u == unit.id).map(|(&n, _)| n).collect();
        assert_eq!(fu.nodes_on_unit(unit.id), on, "{at}: nodes on {}", unit.id);
        assert_eq!(fu.unit(unit.id), Some(unit), "{at}: unit lookup {}", unit.id);
    }
    for class in OpClass::FUNCTIONAL {
        let count = units.iter().filter(|u| u.class == class).count();
        assert_eq!(fu.unit_count(class), count, "{at}: unit count of {class:?}");
    }
}

fn assert_registers_match(
    cdfg: &Cdfg,
    alloc: &RegisterAllocation,
    oracle: &OracleRegisters,
    at: &str,
) {
    assert_eq!(alloc.registers(), &oracle.registers[..], "{at}: register ids, names or values");
    assert_eq!(alloc.register_count(), oracle.registers.len(), "{at}: register count");
    for node in probe_ids(cdfg) {
        assert_eq!(
            alloc.register_of(node),
            oracle.assignment.get(&node).copied(),
            "{at}: register of {node}"
        );
        assert_eq!(
            alloc.lifetime(node),
            oracle.lifetimes.get(&node).copied(),
            "{at}: lifetime of {node}"
        );
    }
    let lifetimes: Vec<Lifetime> = alloc.lifetimes().copied().collect();
    let expected: Vec<Lifetime> = oracle.lifetimes.values().copied().collect();
    assert_eq!(lifetimes, expected, "{at}: every lifetime, in node order");
}

fn assert_datapath_matches(
    cdfg: &Cdfg,
    schedule: &Schedule,
    partition: &dyn Fn(NodeId) -> u32,
    at: &str,
) {
    let oracle = oracle_datapath(cdfg, schedule, partition).expect("oracle binds");
    let fu = FuBinding::bind_partitioned(cdfg, schedule, partition).expect("binds");
    assert_units_match(cdfg, &fu, &oracle.units, &oracle.unit_of, at);
    let alloc = RegisterAllocation::allocate(cdfg, schedule).expect("allocates");
    assert_registers_match(cdfg, &alloc, &oracle.registers, at);

    let dp = Datapath::build_partitioned(cdfg, schedule, partition).expect("builds");
    assert_units_match(cdfg, dp.fu_binding(), &oracle.units, &oracle.unit_of, at);
    assert_eq!(dp.registers(), &oracle.registers.registers[..], "{at}: datapath registers");
    assert_eq!(dp.routing(), &oracle.routing[..], "{at}: port routing");
    for node in probe_ids(cdfg) {
        for port in 0..4u16 {
            assert_eq!(
                dp.operand_source(node, port),
                oracle.operand_sources.get(&(node, port)).copied(),
                "{at}: operand source of {node}:{port}"
            );
        }
    }
    assert_eq!(dp.steering_input_count(), oracle.steering_input_count(), "{at}: steering inputs");
    let model = AreaModel::new();
    let area = model.estimate(&dp);
    let expected = oracle.area(&model, dp.bitwidth());
    let got = [area.units, area.registers, area.interconnect, area.total()];
    assert_eq!(got.map(f64::to_bits), expected.map(f64::to_bits), "{at}: area bits");
}

fn assert_activation_matches(
    result: &PowerManagementResult,
    probs: &SelectProbabilities,
    at: &str,
) {
    let cdfg = result.cdfg();
    let oracle = oracle_activation(cdfg, result.schedule(), result.managed_muxes(), probs);
    let activation: Activation = result.activation(probs);
    for node in probe_ids(cdfg) {
        assert_eq!(
            activation.probability(node).to_bits(),
            oracle.probability(node).to_bits(),
            "{at}: probability of {node}"
        );
        assert_eq!(
            activation.gating_muxes(node),
            oracle.gating_muxes(node),
            "{at}: gating of {node}"
        );
    }
    let pairs: Vec<(NodeId, u64)> =
        oracle.probabilities.iter().map(|(&n, &p)| (n, p.to_bits())).collect();
    let got: Vec<(NodeId, u64)> = activation.iter().map(|(n, p)| (n, p.to_bits())).collect();
    assert_eq!(got, pairs, "{at}: iteration");
    assert_eq!(activation.gated_nodes(), oracle.gated_nodes(), "{at}: gated nodes");
    assert_eq!(activation.effective_muxes(), oracle.effective_muxes(), "{at}: effective muxes");
    assert_eq!(
        bits(&activation.expected_counts()),
        bits(&oracle.expected_counts()),
        "{at}: expected counts"
    );
    assert_eq!(result.managed_mux_count(), oracle.effective_muxes().len(), "{at}: managed muxes");
    let weights = OpWeights::paper_power();
    let savings = result.savings_with(probs, &weights);
    assert_eq!(bits(&savings.expected_counts), bits(&oracle.expected_counts()), "{at}: savings");
}

/// A deterministic skew per multiplexor.  Elevenths are not dyadic, so
/// their products and sums round, and a changed multiplication or
/// summation order changes bits.
fn skewed(cdfg: &Cdfg) -> SelectProbabilities {
    SelectProbabilities::from_pairs(
        cdfg.mux_nodes().into_iter().map(|m| (m, f64::from(m.index() as u32 % 9 + 1) / 11.0)),
    )
}

/// Scores one (circuit, budget) point the way the explorer does and
/// compares every public field with the oracles.
fn assert_point_matches(name: &str, cdfg: &Cdfg, budget: u32) {
    let result =
        power_manage(cdfg, &PowerManagementOptions::with_latency(budget)).expect("feasible budget");
    let pm = result.cdfg();
    let fair = SelectProbabilities::fair();
    assert_activation_matches(&result, &fair, &format!("{name}@{budget} fair"));
    assert_activation_matches(&result, &skewed(pm), &format!("{name}@{budget} skewed"));

    assert_datapath_matches(pm, result.schedule(), &|_| 0, &format!("{name}@{budget} single"));

    let activation = result.activation(&fair);
    let weights = OpWeights::paper_power();
    let weight = |n: NodeId| weights.weight(pm.op(n).class()) * activation.probability(n);
    let picked = sched::dvs::distribute_slack(
        pm,
        result.latency(),
        &VoltagePreset::ThreeLevel.table().slack_levels(),
        &weight,
        &mut sched::dvs::Workspace::new(),
    )
    .expect("feasible budget");
    let partition = |n: NodeId| picked.level_of(n);
    assert_datapath_matches(
        pm,
        result.schedule(),
        &partition,
        &format!("{name}@{budget} three-level"),
    );
}

fn assert_circuit_matches(name: &str, cdfg: &Cdfg) {
    let cp = cdfg.critical_path_length().max(1);
    for budget in cp..=cp + SPAN {
        assert_point_matches(name, cdfg, budget);
    }
}

fn spec_for(family: Family, seed: u64, size: u8) -> GenSpec {
    let mut spec = GenSpec::new(family, seed, 1);
    match family {
        Family::RandomDag => {
            spec.width = 4 + u32::from(size % 3) * 4; // 4, 8 or 12
            spec.depth = 6 + u32::from(size / 3) * 4; // 6, 10 or 14
            spec.mux_permille = 250;
        }
        Family::MuxTree => spec.depth = 3 + u32::from(size % 3), // 3..=5
        Family::DspChain => spec.taps = 4 + u32::from(size % 3) * 4, // 4..=12
        Family::Cordic => spec.iters = 3 + u32::from(size % 4),  // 3..=6
    }
    spec
}

fn family_strategy() -> impl Strategy<Value = Family> {
    prop_oneof![
        Just(Family::RandomDag),
        Just(Family::MuxTree),
        Just(Family::DspChain),
        Just(Family::Cordic),
    ]
}

#[test]
fn paper_circuits_score_identically() {
    for bench in circuits::all_benchmarks() {
        assert_circuit_matches(&bench.name, &bench.cdfg);
    }
}

#[test]
fn one_circuit_per_family_scores_identically() {
    for family in Family::ALL {
        let bench = gen::generate_one(&spec_for(family, 20261020, 8), 0).expect("valid circuit");
        assert_circuit_matches(&bench.name, &bench.cdfg);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random circuits of every family, scored at cp..=cp+4.
    #[test]
    fn generated_circuits_score_identically(
        family in family_strategy(),
        seed in 0u64..1000,
        size in 0u8..9,
    ) {
        let bench = gen::generate_one(&spec_for(family, seed, size), 0).expect("valid circuit");
        assert_circuit_matches(&bench.name, &bench.cdfg);
    }
}

/// A schedule missing some functional nodes is refused with the node the
/// oracles name, by every entry point.
#[test]
fn unscheduled_nodes_are_reported_like_the_oracles() {
    let mut cases: Vec<(String, Cdfg)> =
        circuits::all_benchmarks().into_iter().map(|b| (b.name, b.cdfg)).collect();
    for family in Family::ALL {
        let bench = gen::generate_one(&spec_for(family, 7, 4), 0).expect("valid circuit");
        cases.push((bench.name, bench.cdfg));
    }
    for (name, cdfg) in cases {
        let cp = cdfg.critical_path_length().max(1);
        let full = sched::force::schedule(&cdfg, cp + 1).expect("feasible");
        let functional = cdfg.slices().functional().to_vec();
        // Drop every k-th functional node, from the first, the last and a
        // stride through the middle.
        let drops: [Vec<NodeId>; 4] = [
            vec![functional[0]],
            vec![*functional.last().expect("functional nodes")],
            functional.iter().copied().skip(functional.len() / 2).step_by(3).collect(),
            functional.iter().copied().skip(1).step_by(2).collect(),
        ];
        for dropped in drops {
            let mut partial = Schedule::new(full.num_steps());
            for (node, step) in full.iter() {
                if !dropped.contains(&node) {
                    partial.assign(node, step);
                }
            }
            let at = format!("{name} without {} nodes", dropped.len());
            let partition = |n: NodeId| n.index() as u32 % 3;
            assert_eq!(
                FuBinding::bind_partitioned(&cdfg, &partial, &partition).unwrap_err(),
                oracle_bind(&cdfg, &partial, &partition).unwrap_err(),
                "{at}: FuBinding"
            );
            assert_eq!(
                RegisterAllocation::allocate(&cdfg, &partial).unwrap_err(),
                oracle_allocate(&cdfg, &partial).err().expect("oracle refuses"),
                "{at}: RegisterAllocation"
            );
            assert_eq!(
                Datapath::build_partitioned(&cdfg, &partial, &partition).err(),
                oracle_datapath(&cdfg, &partial, &partition).err(),
                "{at}: Datapath"
            );
        }
    }
}
