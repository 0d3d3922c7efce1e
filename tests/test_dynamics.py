import random

import pytest

from ctrlcirc import (
    BOOL,
    CTRL,
    ExecConfig,
    Outcome,
    SplitMix64,
    State,
    StructureError,
    Value,
    enabled_units,
    initial_state,
    mk_primitive,
    ready_units,
    reduce_unit,
    run,
    sequence,
    step,
    unit_circuit,
    validate_circuit,
)
from ctrlcirc.dynamics import WriteConflictError
from ctrlcirc.model import Flow
from ctrlcirc.serialize import trace_to_jsonl
from ctrlcirc.fixtures import build_and, build_eater, build_fork, build_not, build_p53
from conftest import random_circuit


S, B0, B1 = Value.SIGNAL, Value.ZERO, Value.ONE


@pytest.fixture
def and_c():
    return build_and()


def test_initial_state_validates_domain_and_tags(and_c):
    st = initial_state(and_c, {"v1": S, "v2": B1, "v3": B0})
    assert st.time == 0
    with pytest.raises(StructureError):
        initial_state(and_c, {"v1": S, "v2": B1})  # missing v3
    with pytest.raises(StructureError):
        initial_state(and_c, {"v1": B1, "v2": B1, "v3": B0})  # bit on a control var
    with pytest.raises(StructureError):
        initial_state(and_c, {"v1": S, "v2": S, "v3": B0})  # signal on a Boolean var
    for raw in ("*", 1, True, None):  # not a Value at all, on either kind of variable
        for values in ({"v1": raw, "v2": B1, "v3": B0}, {"v1": S, "v2": raw, "v3": B0}):
            with pytest.raises(StructureError):
                initial_state(and_c, values)
            with pytest.raises(StructureError):
                run(and_c, State(0, values), ExecConfig(seed=0))


def test_step_validates_its_state():
    inv = build_not()  # v1 ctrl, v2 bool in; v3 ctrl, v4 bool out
    rng = SplitMix64(0)
    for values in (
        {"v1": "*", "v2": 1},  # raw values, not Values
        {"v1": S, "v2": S},  # bare signal on a Boolean variable
        {"v1": B1, "v2": B1},  # Boolean on a control variable
        {"zz": S},  # not a variable of the circuit
        {"v1": S, "v2": B1, "zz": S},
    ):
        with pytest.raises(StructureError):
            step(inv, State(0, values), rng)
    assert rng.next_u64() == SplitMix64(0).next_u64()  # refused before any draw
    assert step(inv, State(0, {"v1": S, "v2": B1}), rng).values == {"v3": S, "v4": B0}


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_steps": "5"},
        {"max_steps": 1.5},
        {"max_steps": True},
        {"max_steps": None},
        {"seed": "x"},
        {"seed": 2.0},
        {"seed": False},
        {"max_steps": 0},
        {"max_steps": -3},
    ],
    ids=["steps-str", "steps-float", "steps-bool", "steps-none", "seed-str", "seed-float", "seed-bool", "steps-zero",
         "steps-negative"],
)
def test_exec_config_checks_its_fields(kwargs):
    with pytest.raises(StructureError):
        ExecConfig(**kwargs)


def test_exec_config_accepts_ints():
    assert ExecConfig(seed=-1, max_steps=1) == ExecConfig(-1, 1)
    assert ExecConfig(seed=2**70).seed == 2**70  # the generator keeps the low 64 bits


def test_worked_example_states(and_c):
    st0 = initial_state(and_c, {"v1": S, "v2": B1, "v3": B0})
    assert enabled_units(and_c, st0) == {"u1"}
    rng = SplitMix64(0)
    st1 = step(and_c, st0, rng)
    assert st1.values == {"v4": S, "v5": B1}
    st2 = step(and_c, st1, rng)
    assert st2.values == {"v6": S, "v7": B0}
    tr = run(and_c, st0, ExecConfig(seed=0))
    assert tr.outcome is Outcome.FINAL
    assert tr.final_state.time == 2


def test_enabled_empty_in_final_state(and_c):
    tr = run(and_c, initial_state(and_c, {"v1": S, "v2": B1, "v3": B0}), ExecConfig())
    assert enabled_units(and_c, tr.final_state) == frozenset()


def test_reduction_rules():
    const = mk_primitive(1, 0, 1, 1)  # no Boolean inputs: constant 1
    st = initial_state(const, {"v1": S})
    assert reduce_unit(const, "u1", st) is B1

    inv = mk_primitive(1, 1, 1, 1)
    assert reduce_unit(inv, "u1", initial_state(inv, {"v1": S, "v2": B1})) is B0
    assert reduce_unit(inv, "u1", initial_state(inv, {"v1": S, "v2": B0})) is B1

    nand2 = mk_primitive(1, 2, 1, 1)
    table = {(0, 0): B1, (0, 1): B1, (1, 0): B1, (1, 1): B0}
    for (a, b), want in table.items():
        st = initial_state(nand2, {"v1": S, "v2": Value.from_bit(a), "v3": Value.from_bit(b)})
        assert reduce_unit(nand2, "u1", st) is want


def test_reduce_unit_names_an_unknown_unit_or_an_unassigned_boolean_input():
    nand2 = mk_primitive(1, 2, 1, 1)  # u1 reads v1 (ctrl), v2 and v3 (bool)
    st = initial_state(nand2, {"v1": S, "v2": B1, "v3": B1})
    for u in ("zz", "v1", None, ["u1"]):
        with pytest.raises(StructureError, match="not a unit of the circuit"):
            reduce_unit(nand2, u, st)
    with pytest.raises(StructureError, match=r"unit 'u1' has unassigned Boolean inputs \['v2'\]"):
        reduce_unit(nand2, "u1", State(0, {"v1": S, "v3": B1}))
    # the control input is not read, so only Boolean inputs must hold values
    assert reduce_unit(nand2, "u1", State(0, {"v2": B1, "v3": B1})) is B0


def test_execution_patterns():
    # control-only units emit only signals
    fork = build_fork(3)
    tr = run(fork, initial_state(fork, {"v1": S}), ExecConfig())
    assert all(v is S for v in tr.final_state.values.values())
    # Boolean-eating units emit only signals
    eater = build_eater(2)
    tr = run(eater, initial_state(eater, {"v1": S, "v2": B1, "v3": B0}), ExecConfig())
    assert list(tr.final_state.values.values()) == [S]
    # control-only inputs with Boolean outputs emit the constant 1
    const = mk_primitive(1, 0, 1, 2)
    tr = run(const, initial_state(const, {"v1": S}), ExecConfig())
    bools = {v: val for v, val in tr.final_state.values.items() if const.var_types[v] is BOOL}
    assert set(bools.values()) == {B1}


def test_replication_all_bool_outputs_equal(rnd):
    for _ in range(20):
        p = mk_primitive(1, rnd.randint(0, 3), 1, rnd.randint(1, 3))
        inputs = {}
        for v in p.invars:
            inputs[v] = S if p.var_types[v] is CTRL else Value.from_bit(rnd.randint(0, 1))
        tr = run(p, initial_state(p, inputs), ExecConfig())
        bools = {val for v, val in tr.final_state.values.items() if p.var_types[v] is BOOL}
        assert len(bools) <= 1


def test_trivial_circuit_initial_state_is_final():
    lam = unit_circuit()
    tr = run(lam, initial_state(lam, {"v1": S}), ExecConfig())
    assert tr.outcome is Outcome.FINAL
    assert tr.final_state.time == 0


def test_deadlocked_unsound_circuit_with_inoutvar():
    # cyclically dependent units plus a control inoutvar: nothing ever fires
    c = validate_circuit(
        {"a": CTRL, "b": CTRL, "c": CTRL, "d": CTRL, "w": CTRL},
        ["u1", "u2"],
        {"i1": Flow("a", "u1"), "i2": Flow("c", "u1"), "i3": Flow("b", "u2")},
        {"o1": Flow("u1", "b"), "o2": Flow("u2", "c"), "o3": Flow("u2", "d")},
    )
    from ctrlcirc import is_sound

    assert not is_sound(c)
    tr = run(c, initial_state(c, {"a": S, "w": S}), ExecConfig())
    assert tr.outcome is Outcome.DEADLOCK


def conflict_circuit():
    # two units with distinct pre-sets produce Booleans into one var
    return validate_circuit(
        {"c1": CTRL, "c2": CTRL, "b1": BOOL, "b2": BOOL, "t": BOOL, "z1": CTRL, "z2": CTRL},
        ["u1", "u2"],
        {"i1": Flow("c1", "u1"), "i2": Flow("b1", "u1"), "i3": Flow("c2", "u2"), "i4": Flow("b2", "u2")},
        {"o1": Flow("u1", "t"), "o2": Flow("u1", "z1"), "o3": Flow("u2", "t"), "o4": Flow("u2", "z2")},
    )


def test_write_conflict_detected():
    c = conflict_circuit()
    init = initial_state(c, {"c1": S, "c2": S, "b1": B1, "b2": B0})
    tr = run(c, init, ExecConfig())
    assert tr.outcome is Outcome.WRITE_CONFLICT
    with pytest.raises(WriteConflictError):
        step(c, init, SplitMix64(0))
    # agreeing writes are not a conflict
    ok = initial_state(c, {"c1": S, "c2": S, "b1": B1, "b2": B1})
    assert run(c, ok, ExecConfig()).outcome is Outcome.FINAL


def test_produced_value_wins_over_consumption():
    # m is consumed by u1 and refilled by u2 in the same step: it must stay
    # in the domain with the produced value
    c = validate_circuit(
        {"a": CTRL, "x": CTRL, "b": CTRL, "m": CTRL, "y": CTRL, "z1": CTRL, "z2": CTRL},
        ["u0", "up", "u1", "u2"],
        {
            "i1": Flow("a", "u0"),
            "i2": Flow("b", "up"),
            "i3": Flow("m", "u1"),
            "i4": Flow("x", "u1"),
            "i5": Flow("y", "u2"),
        },
        {
            "o1": Flow("u0", "m"),
            "o2": Flow("up", "y"),
            "o3": Flow("u1", "z1"),
            "o4": Flow("u2", "m"),
            "o5": Flow("u2", "z2"),
        },
    )
    rng = SplitMix64(0)
    st = initial_state(c, {"a": S, "x": S, "b": S})
    st1 = step(c, st, rng)  # u0 and up fire
    assert {"m", "y", "x"} <= st1.domain
    ready = ready_units(c, st1, rng)
    assert ready == {"u1", "u2"}
    st2 = step(c, st1, rng)
    assert st2.values.get("m") is S  # refilled by u2, not dropped by u1
    assert {"z1", "z2"} <= st2.domain


def test_firing_in_place_never_leaks_into_a_callers_state(rnd):
    # run and step fire into one assignment updated in place; the caller's
    # states and every recorded snapshot must stay as they were
    c = conflict_circuit()
    st = initial_state(c, {"c1": S, "c2": S, "b1": B1, "b2": B0})
    before = dict(st.values)
    with pytest.raises(WriteConflictError):
        step(c, st, SplitMix64(0))
    assert st.values == before
    circuits = [random_circuit(rnd, 4) for _ in range(10)] + [build_p53().circuit, c]
    for c in circuits:
        inputs = {v: S if c.var_types[v] is CTRL else Value.from_bit(rnd.randint(0, 1)) for v in c.invars}
        init = initial_state(c, inputs)
        tr = run(c, init, ExecConfig(seed=3, max_steps=50))
        assert init.values == inputs
        assert len({id(s.state.values) for s in tr.steps}) == len(tr.steps)
        rng = SplitMix64(3)
        for prev, rec in zip(tr.steps, tr.steps[1:]):
            before = dict(prev.state.values)
            assert step(c, prev.state, rng) == rec.state
            assert prev.state.values == before


def test_step_limit_is_an_ordinary_outcome():
    from ctrlcirc.fixtures import build_flipflop

    ff = build_flipflop()
    init = initial_state(
        ff.circuit, {"ctrl_in": S, "r_in": B0, "q_in": B0, "s_in": B0}
    )
    tr = run(ff.circuit, init, ExecConfig(seed=0, max_steps=3))
    assert tr.outcome is Outcome.STEP_LIMIT


def test_determinism_same_seed_same_trace():
    p = build_p53()
    init = initial_state(p.circuit, {"ctrl_in": S, "p53_in": B1, "mdm2_in": B0})
    t1 = run(p.circuit, init, ExecConfig(seed=99))
    t2 = run(p.circuit, init, ExecConfig(seed=99))
    assert trace_to_jsonl(t1) == trace_to_jsonl(t2)
    t3 = run(p.circuit, init, ExecConfig(seed=100))
    assert trace_to_jsonl(t1) != trace_to_jsonl(t3) or t1.fired_units() == t3.fired_units()


def test_distinct_presets_mean_ready_equals_enabled(rnd):
    for _ in range(20):
        c = random_circuit(rnd)
        presets = [c.pre_set(u) for u in c.units]
        if len(set(presets)) != len(presets):
            continue
        inputs = {
            v: S if c.var_types[v] is CTRL else Value.from_bit(rnd.randint(0, 1)) for v in c.invars
        }
        st = initial_state(c, inputs)
        rng = SplitMix64(1)
        while True:
            e = enabled_units(c, st)
            assert ready_units(c, st, rng) == e
            if not e or st.domain == c.outvars:
                break
            st = step(c, st, rng)


def test_tag_discipline_preserved(rnd):
    for _ in range(20):
        c = random_circuit(rnd)
        inputs = {
            v: S if c.var_types[v] is CTRL else Value.from_bit(rnd.randint(0, 1)) for v in c.invars
        }
        tr = run(c, initial_state(c, inputs), ExecConfig(seed=5, max_steps=100))
        for s in tr.steps:
            for v, val in s.state.values.items():
                assert (c.var_types[v] is CTRL) == (val is S)


def test_chain_depth_matches_final_time(rnd):
    # sound acyclic chains of primitives reach the final state in one step
    # per stage
    from conftest import random_total_pair

    for _ in range(15):
        left, right, pairs = random_total_pair(rnd)
        res = sequence(left, right, pairs)
        c = res.circuit
        inputs = {
            v: S if c.var_types[v] is CTRL else Value.from_bit(rnd.randint(0, 1)) for v in c.invars
        }
        tr = run(c, initial_state(c, inputs), ExecConfig())
        assert tr.outcome is Outcome.FINAL
        assert tr.final_state.time == 2


def unit_depths(c):
    """Longest producer chain ending at each unit (acyclic circuits only)."""
    depth = {}

    def visit(u, stack):
        if u in depth:
            return depth[u]
        assert u not in stack, "cycle"
        feeders = {p for v in c.pre_set(u) for p in c.producers(v)}
        depth[u] = 1 + max((visit(p, stack | {u}) for p in feeders), default=0)
        return depth[u]

    for u in c.sorted_units():
        visit(u, frozenset())
    return depth


def test_final_time_matches_topological_depth_oracle(rnd):
    checked = 0
    while checked < 25:
        c = random_circuit(rnd, 3)
        presets = [c.pre_set(u) for u in c.units]
        if len(set(presets)) != len(presets):
            continue  # the oracle assumes every enabled unit fires
        inputs = {
            v: S if c.var_types[v] is CTRL else Value.from_bit(rnd.randint(0, 1)) for v in c.invars
        }
        tr = run(c, initial_state(c, inputs), ExecConfig(max_steps=200))
        assert tr.outcome is Outcome.FINAL
        assert tr.final_state.time == max(unit_depths(c).values())
        checked += 1


def test_splitmix_reference_values():
    # first outputs for seed 0; pinned so the stream never drifts
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    rng2 = SplitMix64(0x12345678)
    seen = {rng2.below(4) for _ in range(64)}
    assert seen == {0, 1, 2, 3}


def test_below_draws_next_u64_modulo_its_bound():
    # below holds the arithmetic and next_u64 is below(2**64); a twin generator checks that they draw one stream
    for seed in range(1000):
        rng, twin = SplitMix64(seed), SplitMix64(seed)
        for n in (1, 2, 3, 5, 2**16, 2**64 + 1):
            assert rng.below(n) == twin.next_u64() % n, (seed, n)
    rng = SplitMix64(7)
    for n in (0, -1):
        with pytest.raises(ValueError, match=r"^below\(\) needs a positive bound$"):
            rng.below(n)
    assert rng.below(2**64) == SplitMix64(7).next_u64()  # refused before the state moved



@pytest.mark.parametrize("time, drop", [(1, False), (0, True)], ids=["later-time", "not-every-invar"])
def test_run_refuses_a_state_that_is_not_initial(and_c, time, drop):
    values = {v: S if and_c.var_types[v] is CTRL else B1 for v in sorted(and_c.invars)}
    if drop:
        del values[max(values)]
    with pytest.raises(StructureError, match=r"^run\(\) needs an initial state \(time 0, exactly the invars\)$"):
        run(and_c, State(time, values), ExecConfig())


@pytest.mark.parametrize("n", [0, -3])
def test_splitmix_below_refuses_a_bound_below_one(n):
    with pytest.raises(ValueError, match=r"^below\(\) needs a positive bound$"):
        SplitMix64(0).below(n)
