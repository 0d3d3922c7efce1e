import itertools
import random
from functools import cached_property

import pytest

from ctrlcirc import CTRL, BOOL, ExecConfig, Outcome, StructureError, ValidationError, circuit_violations, is_sound, run
from ctrlcirc.nanddag import (
    NandDag,
    NodeKind,
    bool_var,
    eval_dag,
    lift_inputs,
    longest_gate_path,
    random_dag,
    read_outputs,
    synth_family,
    to_control,
    validate_dag,
)
from ctrlcirc import nanddag
from ctrlcirc.dynamics import SplitMix64, State, Trace, TraceStep, Value


def single_gate():
    return validate_dag(
        {"a": "input", "b": "input", "g": "gate", "y": "output"},
        [("a", "g"), ("b", "g"), ("g", "y")],
    )


def test_single_gate_valid():
    d = single_gate()
    assert d.inputs() == ["a", "b"]
    assert d.gates() == ["g"]


def test_fan_in_three_rejected():
    with pytest.raises(ValidationError) as exc:
        validate_dag(
            {"a": "input", "b": "input", "c": "input", "g": "gate", "y": "output"},
            [("a", "g"), ("b", "g"), ("c", "g"), ("g", "y")],
        )
    assert any(v.startswith("gate-degree") for v in exc.value.violations)


def test_cycle_rejected():
    with pytest.raises(ValidationError) as exc:
        validate_dag(
            {"a": "input", "b": "input", "g1": "gate", "g2": "gate", "y": "output"},
            [("a", "g1"), ("g2", "g1"), ("b", "g2"), ("g1", "g2"), ("g1", "y")],
        )
    violations = exc.value.violations
    assert "cyclic" in violations or any(v.startswith("gate-degree") for v in violations)


def test_true_two_cycle_rejected():
    with pytest.raises(ValidationError) as exc:
        validate_dag(
            {"a": "input", "b": "input", "g1": "gate", "g2": "gate", "y1": "output", "y2": "output"},
            [("a", "g1"), ("g2", "g1"), ("b", "g2"), ("g1", "g2"), ("g1", "y1"), ("g2", "y2")],
        )
    # both gates have fan-out 2 here; build a strict 2-cycle instead
    d = {
        "a": "input",
        "b": "input",
        "g1": "gate",
        "g2": "gate",
    }
    with pytest.raises(ValidationError) as exc2:
        validate_dag(d, [("a", "g1"), ("g2", "g1"), ("b", "g2"), ("g1", "g2")])
    assert "cyclic" in exc2.value.violations


def test_isolated_and_empty_rejected():
    with pytest.raises(ValidationError) as exc:
        validate_dag({"a": "input"}, [])
    assert "no-edges" in exc.value.violations
    with pytest.raises(ValidationError) as exc:
        validate_dag(
            {"a": "input", "b": "input", "g": "gate", "y": "output", "lonely": "input"},
            [("a", "g"), ("b", "g"), ("g", "y")],
        )
    assert "isolated-node:lonely" in exc.value.violations


def test_input_to_output_edge_rejected():
    with pytest.raises(ValidationError) as exc:
        validate_dag(
            {"a": "input", "b": "input", "g": "gate", "y": "output", "z": "output"},
            [("a", "g"), ("b", "g"), ("g", "y"), ("a", "z")],
        )
    assert any(v.startswith("bad-edge") for v in exc.value.violations)


def test_eval_single_gate_truth_table():
    d = single_gate()
    for a in (0, 1):
        for b in (0, 1):
            assert eval_dag(d, {"a": a, "b": b}) == {"y": 0 if a and b else 1}


def test_eval_or_shape():
    # NAND(NAND(x1,x2), NAND(y1,y2)) with duplicated input nodes == x or y
    d = validate_dag(
        {
            "x1": "input",
            "x2": "input",
            "y1": "input",
            "y2": "input",
            "g1": "gate",
            "g2": "gate",
            "g3": "gate",
            "out": "output",
        },
        [("x1", "g1"), ("x2", "g1"), ("y1", "g2"), ("y2", "g2"), ("g1", "g3"), ("g2", "g3"), ("g3", "out")],
    )
    for x in (0, 1):
        for y in (0, 1):
            bits = {"x1": x, "x2": x, "y1": y, "y2": y}
            assert eval_dag(d, bits) == {"out": x | y}


def test_eval_three_gate_fixture_by_hand():
    # g1 = NAND(a,b); g2 = NAND(c,d); g3 = NAND(g1,g2); all zero inputs
    d = validate_dag(
        {
            "a": "input",
            "b": "input",
            "c": "input",
            "d": "input",
            "g1": "gate",
            "g2": "gate",
            "g3": "gate",
            "y": "output",
        },
        [("a", "g1"), ("b", "g1"), ("c", "g2"), ("d", "g2"), ("g1", "g3"), ("g2", "g3"), ("g3", "y")],
    )
    # by hand: g1 = 1, g2 = 1, g3 = NAND(1,1) = 0
    assert eval_dag(d, {"a": 0, "b": 0, "c": 0, "d": 0}) == {"y": 0}
    assert eval_dag(d, {"a": 1, "b": 1, "c": 0, "d": 0}) == {"y": 1}


def test_eval_missing_bit():
    with pytest.raises(StructureError):
        eval_dag(single_gate(), {"a": 1})


def test_oracle_derives_the_order_once_per_netlist(rnd, monkeypatch):
    # validate_dag, eval_dag, longest_gate_path and topo_order read one cached Kahn order
    derived = []
    kahn = NandDag._oracle_order.func

    def counting(self):
        derived.append(self)
        return kahn(self)

    cached = cached_property(counting)
    cached.__set_name__(NandDag, "_oracle_order")
    monkeypatch.setattr(NandDag, "_oracle_order", cached)
    d = random_dag(rnd, 4, 12)
    derived.clear()
    fresh = validate_dag(dict(d.nodes), d.edges)
    want = [eval_dag(fresh, {n: (k >> i) & 1 for i, n in enumerate(d.inputs())}) for k in range(16)]
    order = nanddag.topo_order(fresh)
    depth = longest_gate_path(fresh)
    assert len(derived) == 1 and derived[0] is fresh
    assert want == [eval_dag(d, {n: (k >> i) & 1 for i, n in enumerate(d.inputs())}) for k in range(16)]
    assert order == nanddag.topo_order(d) and depth == longest_gate_path(d)
    assert sorted(order) == sorted(d.nodes)
    with pytest.raises(StructureError, match=r"missing input bits for \['x0'\]"):
        eval_dag(fresh, {n: 0 for n in d.inputs()[1:]})
    derived.clear()
    with pytest.raises(ValidationError, match="cyclic"):
        validate_dag(
            {"a": "input", "b": "input", "g1": "gate", "g2": "gate"},
            [("a", "g1"), ("g2", "g1"), ("b", "g2"), ("g1", "g2")],
        )
    assert len(derived) == 1


@pytest.mark.parametrize("name", [1, None, ("a",)])
def test_node_names_that_are_not_strings_are_malformed(name):
    with pytest.raises(StructureError, match="must be a string"):
        validate_dag({name: "input", "b": "input", "g": "gate", "y": "output"}, [("b", "g"), ("g", "y")])


def test_to_control_single_gate_counts():
    res = to_control(single_gate())
    c = res.circuit
    assert len(c.vars) == 6  # two per edge
    assert len(c.units) == 1
    assert len(c.in_flows) == 4
    assert len(c.out_flows) == 2
    tags = sorted(t.value for t in c.var_types.values())
    assert tags == ["bool", "bool", "bool", "ctrl", "ctrl", "ctrl"]
    assert not circuit_violations(c)
    assert is_sound(c)


def test_interface_counts_match_fanout_sums(rnd):
    for _ in range(30):
        d = random_dag(rnd)
        c = to_control(d).circuit
        want = sum(len(d.out_edges[n]) for n in d.inputs())
        ctrl_in = sum(1 for v in c.invars if c.var_types[v] is CTRL)
        bool_in = sum(1 for v in c.invars if c.var_types[v] is BOOL)
        assert ctrl_in == bool_in == want
        want_out = sum(len(d.in_edges[n]) for n in d.outputs())
        ctrl_out = sum(1 for v in c.outvars if c.var_types[v] is CTRL)
        bool_out = sum(1 for v in c.outvars if c.var_types[v] is BOOL)
        assert ctrl_out == bool_out == want_out


def test_lift_inputs_replicates_per_fanout():
    d = validate_dag(
        {"x": "input", "x2": "input", "g1": "gate", "g2": "gate", "y1": "output", "y2": "output"},
        [("x", "g1"), ("x", "g2"), ("x2", "g1"), ("x2", "g2"), ("g1", "y1"), ("g2", "y2")],
    )
    st = lift_inputs(d, {"x": 1, "x2": 0})
    bool_values = [st.values[bool_var(e)] for e in d.out_edges["x"]]
    assert [v.bit for v in bool_values] == [1, 1]
    with pytest.raises(StructureError):
        lift_inputs(d, {})


def test_oracle_equivalence_randomised(rnd):
    for _ in range(25):
        d = random_dag(rnd, max_inputs=5, max_gates=10)
        res = to_control(d)
        ins = d.inputs()
        bound = longest_gate_path(d) + 1
        for x in range(2 ** len(ins)):
            bits = {n: (x >> i) & 1 for i, n in enumerate(ins)}
            tr = run(res.circuit, lift_inputs(d, bits), ExecConfig(seed=x))
            assert tr.outcome is Outcome.FINAL
            assert tr.final_state.time <= bound
            assert read_outputs(d, tr) == eval_dag(d, bits)


def test_transformed_circuits_are_seed_independent(rnd):
    from ctrlcirc.serialize import trace_to_jsonl

    for _ in range(5):
        d = random_dag(rnd, max_inputs=4, max_gates=8)
        res = to_control(d)
        bits = {n: 1 for n in d.inputs()}
        t1 = run(res.circuit, lift_inputs(d, bits), ExecConfig(seed=1))
        t2 = run(res.circuit, lift_inputs(d, bits), ExecConfig(seed=2))
        assert trace_to_jsonl(t1) == trace_to_jsonl(t2)


def test_read_outputs_requires_final():
    d = single_gate()
    res = to_control(d)
    tr = run(res.circuit, lift_inputs(d, {"a": 1, "b": 1}), ExecConfig(max_steps=1))
    # one step finishes this tiny circuit; force a non-final trace instead
    from ctrlcirc.dynamics import Trace

    bad = Trace(steps=tr.steps, outcome=Outcome.STEP_LIMIT)
    with pytest.raises(StructureError):
        read_outputs(d, bad)


def reference_read_outputs(d, trace):
    """The decoder that read every outvar's ``Value.bit`` into a set."""
    if trace.outcome is not Outcome.FINAL:
        raise StructureError(f"cannot read outputs from a {trace.outcome.value} trace")
    final = trace.final_state.values
    out = {}
    for n, vs in d._output_vars:
        vals = {final[v].bit for v in vs}
        if len(vals) != 1:
            raise StructureError(f"output node {n!r} receives disagreeing values")
        out[n] = vals.pop()
    return out


def decoded(read, d, trace):
    try:
        return read(d, trace)
    except Exception as e:  # the type and message are what is compared
        return type(e), str(e)


def test_read_outputs_decodes_by_identity_with_the_same_errors():
    # y is fed by two gates, so it has two replicated outvars; z by one
    d = validate_dag(
        {"a": "input", "b": "input", "g1": "gate", "g2": "gate", "g3": "gate", "y": "output", "z": "output"},
        [("a", "g1"), ("b", "g1"), ("a", "g2"), ("b", "g2"), ("a", "g3"), ("b", "g3"),
         ("g1", "y"), ("g2", "y"), ("g3", "z")],
    )
    outvars = sorted(to_control(d).circuit.outvars)
    bools = [v for v in outvars if v.endswith("#2")]
    assert len(bools) == 3
    seen = set()
    for picks in itertools.product(list(Value), repeat=3):
        values = {v: Value.SIGNAL for v in outvars}
        values.update(zip(bools, picks))
        for outcome in (Outcome.FINAL, Outcome.DEADLOCK):
            tr = Trace((TraceStep(0, State(0, values), (), (), {}),), outcome)
            got = decoded(read_outputs, d, tr)
            assert got == decoded(reference_read_outputs, d, tr)
            seen.add(got[0] if isinstance(got, tuple) else dict)
    assert seen == {dict, ValueError, StructureError}


def test_an_output_fed_by_disagreeing_gates_is_refused_by_the_oracle_and_the_decoder():
    # x,y -> g1 and z,w -> g2 both feed out: x = y = 1 gives g1 = 0, z = w = 0 gives g2 = 1
    d = validate_dag(
        {"x": "input", "y": "input", "z": "input", "w": "input", "g1": "gate", "g2": "gate", "out": "output"},
        [("x", "g1"), ("y", "g1"), ("z", "g2"), ("w", "g2"), ("g1", "out"), ("g2", "out")],
    )
    bits = {"x": 1, "y": 1, "z": 0, "w": 0}
    message = "output node 'out' receives disagreeing values"
    with pytest.raises(StructureError) as oracle:
        eval_dag(d, bits)
    assert str(oracle.value) == message
    tr = run(to_control(d).circuit, lift_inputs(d, bits), ExecConfig())
    assert tr.outcome is Outcome.FINAL
    with pytest.raises(StructureError) as decoder:
        read_outputs(d, tr)
    assert str(decoder.value) == message
    # inputs on which the gates agree decode as the oracle reads them
    agree = {"x": 1, "y": 1, "z": 1, "w": 1}
    assert read_outputs(d, run(to_control(d).circuit, lift_inputs(d, agree), ExecConfig())) == eval_dag(d, agree) == {"out": 0}


# -- family synthesis ---------------------------------------------------------


def test_family_identity_k1():
    fam = synth_family({1: [0, 1]})
    assert [fam.evaluate([b]) for b in (0, 1)] == [0, 1]


def test_family_xor_k2():
    fam = synth_family({2: [0, 1, 1, 0]})
    got = [fam.evaluate([(i >> 0) & 1, (i >> 1) & 1]) for i in range(4)]
    assert got == [0, 1, 1, 0]


def test_family_constants():
    fam = synth_family({0: [1]})
    assert fam.evaluate([]) == 1
    fam0 = synth_family({0: [0]})
    assert fam0.evaluate([]) == 0
    # constant tables for k >= 1 go through the netlist path
    fam1 = synth_family({1: [1, 1], 2: [0, 0, 0, 0]})
    assert [fam1.evaluate([b]) for b in (0, 1)] == [1, 1]
    assert [fam1.evaluate([a, b]) for a in (0, 1) for b in (0, 1)] == [0, 0, 0, 0]


def assert_member_matches(member, table, rows, run=True):
    """The truth table is the oracle for the netlist under ``eval_dag`` and, if ``run``, for the circuit's run."""
    k = member.k
    for row in rows:
        x = [(row >> i) & 1 for i in range(k)]
        bits = {node: x[i] for i, group in enumerate(member.input_groups) for node in group}
        assert eval_dag(member.dag, bits) == {member.output_node: table[row]}, (k, row)
        assert not run or member.evaluate(x) == table[row], (k, row)


def test_family_every_k3_function_exhaustive():
    for t in range(256):
        table = [(t >> row) & 1 for row in range(8)]
        fam = synth_family({3: table})
        assert_member_matches(fam.members[3], table, range(8))


@pytest.fixture(scope="module")
def shannon_members():
    """Per k = 1..12, (table, member) pairs: a random table, then parity, a single minterm and all ones but one."""
    rng = random.Random(0x5A7)
    members = {}
    for k in range(1, 13):
        n = 2**k
        parity = [bin(row).count("1") & 1 for row in range(n)]
        tables = [[rng.randint(0, 1) for _ in range(n)], parity, [0] * (n - 1) + [1], [0] + [1] * (n - 1)]
        members[k] = [(t, synth_family({k: t}).members[k]) for t in tables]
    return members


def test_shannon_members_match_their_tables(shannon_members):
    # every row up to k = 8 and 64 sampled rows above; runs are checked on the random tables
    rng = random.Random(0x5A8)
    for k, members in shannon_members.items():
        rows = range(2**k) if k <= 8 else rng.sample(range(2**k), 64)
        for i, (table, member) in enumerate(members):
            assert_member_matches(member, table, rows, run=i == 0)


def test_shannon_members_keep_their_size_and_depth_bounds(shannon_members):
    # the synth_family bounds: at most 3 * 2**k gates and max(2k - 1, 3) on a path
    for k, members in shannon_members.items():
        for table, member in members:
            assert len(member.dag.gates()) <= 3 * 2**k, (k, table)
            assert longest_gate_path(member.dag) <= max(2 * k - 1, 3), (k, table)
    for k in (1, 2, 3):  # every function, constants and single literals included
        for t in range(2 ** 2**k):
            dag = synth_family({k: [(t >> row) & 1 for row in range(2**k)]}).members[k].dag
            assert len(dag.gates()) <= 3 * 2**k and longest_gate_path(dag) <= max(2 * k - 1, 3), (k, t)


@pytest.mark.parametrize("x", [["0"], [2], [None], [0.5], [-1]])
def test_member_evaluate_rejects_entries_other_than_0_or_1(x):
    member = synth_family({1: [1, 0]}).members[1]
    with pytest.raises(StructureError, match="input bits must be 0 or 1"):
        member.evaluate(x)


def test_member_evaluate_reads_booleans_as_bits():
    fam = synth_family({0: [0], 1: [1, 0]})
    assert [fam.evaluate([]), fam.evaluate([False]), fam.evaluate([True])] == [0, 1, 0]


def test_member_runs_make_no_random_draws(monkeypatch):
    # every unit of a synthesised member has an input set of its own, so no
    # run draws and evaluate needs no seed
    draws = []
    below = SplitMix64.below
    monkeypatch.setattr(SplitMix64, "below", lambda rng, n: draws.append(n) or below(rng, n))
    gen = random.Random(0xD1CE)
    for k in range(6):
        table = [gen.randint(0, 1) for _ in range(2**k)]
        member = synth_family({k: table}).members[k]
        c = member.circuit
        assert len({c.pre_set(u) for u in c.units}) == len(c.units)
        for row in gen.sample(range(2**k), min(2**k, 8)):
            assert member.evaluate([(row >> i) & 1 for i in range(k)]) == table[row]
    assert draws == []


def test_family_size_is_k_times_2_to_the_k():
    # all ones but one row: 2**k - 1 minterms, the largest sum of minterms
    # that is not the constant; copying negated subtrees made it doubly
    # exponential
    for k in range(1, 7):
        member = synth_family({k: [0] + [1] * (2**k - 1)}).members[k]
        assert len(member.dag.gates()) <= 8 * k * 2**k


def test_family_rejects_bad_table():
    with pytest.raises(StructureError):
        synth_family({2: [0, 1]})
    # a huge k is refused without building 2**k
    with pytest.raises(StructureError, match=r"2\*\*1000000000 entries, got 1"):
        synth_family({10**9: [1]})
    with pytest.raises(StructureError):
        synth_family({-1: []})


@pytest.mark.parametrize("key", ["1", 1.0, True, False, -2, None, (1,)])
def test_family_rejects_keys_other_than_non_negative_ints(key):
    with pytest.raises(StructureError, match="keys must be non-negative ints"):
        synth_family({key: [0, 1]})
    with pytest.raises(StructureError):
        synth_family({2: [0, 1, 1, 0], key: [0, 1]})


@pytest.mark.parametrize(
    "table", ["10", "", [2, "x"], [1, "1"], [0, 0.5], [None, 1], 5, {0: 1, 1: 0}],
    ids=["string", "empty-string", "two-and-string", "string-entry", "fraction", "none", "int", "dict"],
)
def test_family_rejects_entries_other_than_0_or_1(table):
    with pytest.raises(StructureError):
        synth_family({1: table})


def test_family_reads_boolean_entries_as_bits():
    for k, table in ((0, [True]), (1, [False, True]), (2, [False, True, True, False])):
        assert synth_family({k: table}) == synth_family({k: [int(b) for b in table]})


def test_random_dag_is_always_valid(rnd):
    for _ in range(50):
        d = random_dag(rnd)
        assert isinstance(d, NandDag)
        assert 1 <= len(d.gates()) <= 15
        assert 2 <= len(d.inputs()) <= 6


def test_family_member_for_k10_builds_and_matches_its_table():
    rng = random.Random(5)
    table = [rng.randint(0, 1) for _ in range(2**10)]
    member = synth_family({10: table}).members[10]
    for row in rng.sample(range(2**10), 3):
        assert member.evaluate([(row >> i) & 1 for i in range(10)]) == table[row]


def test_member_and_family_refuse_an_input_of_another_length():
    fam = synth_family({1: [1, 0]})
    with pytest.raises(StructureError, match=r"^expected 1 input bits, got 2$"):
        fam.members[1].evaluate([0, 1])
    with pytest.raises(StructureError, match=r"^family has no member for input length 2$"):
        fam.evaluate([0, 1])
