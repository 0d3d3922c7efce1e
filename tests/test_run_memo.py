"""Differential tests: runs that replay a seed-free circuit's known steps against ``reference_run``.

On a seed-free circuit (no two units share an input variable set) ``run``
keeps the value-free step sequence in the circuit's execution tables and
replays it for later runs, deriving steps live only past the known ones.
Every run here is compared with ``reference_run``, which derives every
step afresh, on ``Trace`` equality and on the JSONL bytes, across runs of
one circuit object: over all its inputs, with step bounds that grow and
shrink, on write conflicts that depend on the inputs, on loops and
deadlocks, and interleaved with ``step`` and the set queries. Seeded
circuits keep the schedule off and draw exactly as the reference does.
"""

from __future__ import annotations

import random

import pytest

from ctrlcirc import (
    BOOL,
    CTRL,
    ExecConfig,
    Outcome,
    SplitMix64,
    Value,
    enabled_units,
    initial_state,
    ready_units,
    reduce_unit,
    run,
    step,
    validate_circuit,
)
from ctrlcirc import dynamics
from ctrlcirc.dynamics import WriteConflictError, is_final
from ctrlcirc.fixtures import REGISTRY, fixture
from ctrlcirc.model import Flow
from ctrlcirc.nanddag import lift_inputs, random_dag, to_control
from ctrlcirc.serialize import dumps_circuit, loads_circuit, trace_to_jsonl
from conftest import random_circuit
from test_differential import (
    all_inputs,
    chains_into,
    random_flow_graph,
    random_inputs,
    reference_run,
    reference_trace_to_jsonl,
    spine_netlist,
    toggle_loop,
)

S, B0, B1 = Value.SIGNAL, Value.ZERO, Value.ONE


def known(c):
    """The circuit's known steps, their ending (or None) and the counts to resume from (or None)."""
    return c._exec_tables.schedule[0]


def assert_reference(c, init, cfg):
    got = run(c, init, cfg)
    want = reference_run(c, init, cfg)
    assert got == want, (init, cfg)
    assert trace_to_jsonl(got) == reference_trace_to_jsonl(want)
    assert got.conflict == want.conflict
    return got


def seed_free_fixtures():
    return [name for name in sorted(REGISTRY) if fixture(name)._exec_tables.schedule is not None]


def netlists():
    rnd = random.Random(0x5EED)
    dags = [random_dag(rnd, max_inputs=5, max_gates=12) for _ in range(12)]
    return dags + [spine_netlist(40, 4, rnd)]


def vectors(d):
    ins = d.inputs()
    return [{n: (x >> j) & 1 for j, n in enumerate(ins)} for x in range(2 ** len(ins))]


def test_seeded_circuits_keep_no_schedule():
    assert {"p53", "flipflop"} <= set(REGISTRY) - set(seed_free_fixtures())
    assert toggle_loop()._exec_tables.schedule is None
    assert all(to_control(d).circuit._exec_tables.schedule is not None for d in netlists())


@pytest.mark.parametrize("d", netlists(), ids=lambda d: f"{len(d.gates())}-gates")
def test_one_netlist_circuit_serves_every_vector_cold_and_warm(d):
    c = to_control(d).circuit
    assert known(c) == ((), None, None)
    first = None
    for seed, bits in enumerate(vectors(d) * 2):
        init, cfg = lift_inputs(d, bits), ExecConfig(seed=seed)
        tr = assert_reference(c, init, cfg)
        assert tr.outcome is Outcome.FINAL
        steps, ending, resume = known(c)
        assert ending is Outcome.FINAL and resume is None and len(steps) == tr.final_state.time
        # a cold circuit of the same netlist derives the same trace live
        assert run(to_control(d).circuit, init, cfg) == tr
        if first is None:
            first = steps
        assert steps is first  # later runs replay; they do not add steps


@pytest.mark.parametrize("name", seed_free_fixtures())
def test_every_seed_free_fixture_replays_over_all_inputs(name):
    c = loads_circuit(dumps_circuit(fixture(name)))
    for rnd_pass in range(2):
        for inputs in all_inputs(c):
            assert_reference(c, initial_state(c, inputs), ExecConfig(seed=rnd_pass))


def test_step_bounds_extend_and_truncate_the_known_steps():
    d = spine_netlist(30, 3, random.Random(7))
    c = to_control(d).circuit
    inputs = vectors(d)
    lengths = []
    for k, max_steps in enumerate((3, 7, 2, 7, 9, 10_000, 5, 1)):
        tr = assert_reference(c, lift_inputs(d, inputs[k % len(inputs)]), ExecConfig(seed=k, max_steps=max_steps))
        assert tr.outcome is (Outcome.FINAL if max_steps == 10_000 else Outcome.STEP_LIMIT)
        steps, ending, resume = known(c)
        assert (ending is None) == (resume is not None)
        lengths.append(len(steps))
    depth = lengths[-1]
    assert lengths == [3, 7, 7, 7, 9, depth, depth, depth] and depth > 9


def test_an_interrupted_run_leaves_the_known_steps_as_they_were(monkeypatch):
    d = spine_netlist(30, 3, random.Random(9))
    c = to_control(d).circuit
    init = lift_inputs(d, vectors(d)[5])
    assert_reference(c, init, ExecConfig(max_steps=3))
    before = known(c)
    fire, calls = dynamics._fire, []

    def interrupted(*args):
        calls.append(1)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return fire(*args)

    monkeypatch.setattr(dynamics, "_fire", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run(c, init, ExecConfig())
    monkeypatch.setattr(dynamics, "_fire", fire)
    assert known(c) is before
    for max_steps in (5, 10_000):
        assert_reference(c, init, ExecConfig(max_steps=max_steps))


def race_inputs(c, b):
    return initial_state(c, {"x0": S, "p0": B1, "y0": S, "b": b})


@pytest.mark.parametrize("n", [0, 1, 5])
@pytest.mark.parametrize("order", [(B0, B1), (B1, B0)])
def test_write_conflicts_that_depend_on_the_inputs(n, order):
    # the chain end writes NOT p into t and the side unit writes NOT b: a
    # write conflict exactly when they differ, on a step the circuit knows
    # as one where two ready units write one variable
    c = chains_into(n, "race")
    outcomes = set()
    for _ in range(2):
        for b in order:
            tr = assert_reference(c, race_inputs(c, b), ExecConfig())
            outcomes.add(tr.outcome)
            if tr.outcome is Outcome.WRITE_CONFLICT:
                assert tr.conflict == "units 'u1' and 'u2' write different Booleans into 't'"
    assert outcomes == {Outcome.WRITE_CONFLICT, Outcome.FINAL}
    steps, ending, _ = known(c)
    assert ending is Outcome.FINAL and steps[n][2]  # the racing step is marked


def test_conflict_text_on_two_clashing_outputs_replays():
    c = validate_circuit(
        {"c1": CTRL, "c2": CTRL, "b1": BOOL, "b2": BOOL, "t1": BOOL, "t2": BOOL, "z1": CTRL, "z2": CTRL},
        ["u1", "u2"],
        {"i1": Flow("c1", "u1"), "i2": Flow("b1", "u1"), "i3": Flow("c2", "u2"), "i4": Flow("b2", "u2")},
        {"o1": Flow("u1", "t2"), "o2": Flow("u1", "t1"), "o3": Flow("u1", "z1"),
         "o4": Flow("u2", "t2"), "o5": Flow("u2", "t1"), "o6": Flow("u2", "z2")},
    )
    texts = set()
    for _ in range(2):
        for inputs in all_inputs(c):
            texts.add(assert_reference(c, initial_state(c, inputs), ExecConfig()).conflict)
    assert texts == {None, "units 'u1' and 'u2' write different Booleans into 't1'"}


def toggler():
    """A seed-free loop: ``u1`` negates the Boolean y on every step, so every run hits the step limit."""
    return validate_circuit(
        {"a": CTRL, "b": BOOL, "x": CTRL, "y": BOOL, "o": CTRL},
        ["u0", "u1"],
        {"i1": Flow("a", "u0"), "i2": Flow("b", "u0"), "i3": Flow("x", "u1"), "i4": Flow("y", "u1")},
        {"o1": Flow("u0", "x"), "o2": Flow("u0", "y"), "o3": Flow("u0", "o"), "o4": Flow("u1", "x"),
         "o5": Flow("u1", "y")},
    )


def test_a_seed_free_loop_ends_in_the_step_limit():
    c = toggler()
    for max_steps in (4, 1, 9, 3, 9, 12):
        for inputs in all_inputs(c):
            tr = assert_reference(c, initial_state(c, inputs), ExecConfig(max_steps=max_steps))
            assert tr.outcome is Outcome.STEP_LIMIT and tr.final_state.time == max_steps
    steps, ending, resume = known(c)
    assert len(steps) == 12 and ending is None and resume is not None


def test_deadlocks_replay():
    late = validate_circuit(
        {"a": CTRL, "x": CTRL, "b": CTRL, "z": CTRL, "q": CTRL},
        ["u1", "u2", "u3"],
        {"i1": Flow("a", "u1"), "i2": Flow("b", "u2"), "i3": Flow("x", "u2"), "i4": Flow("z", "u3")},
        {"o1": Flow("u1", "b"), "o2": Flow("u2", "z"), "o3": Flow("u3", "x"), "o4": Flow("u3", "q")},
    )
    stuck = chains_into(6, "stuck")
    for c, at in ((late, 1), (stuck, 6)):
        for max_steps in (10_000, 2, 10_000, 1):
            for inputs in all_inputs(c):
                tr = assert_reference(c, initial_state(c, inputs), ExecConfig(max_steps=max_steps))
                assert tr.outcome is (Outcome.DEADLOCK if at <= max_steps else Outcome.STEP_LIMIT)
        assert known(c)[1] is Outcome.DEADLOCK and len(known(c)[0]) == at


def test_step_and_the_set_queries_interleave_with_replayed_runs():
    d = spine_netlist(16, 3, random.Random(3))
    circuits = [(to_control(d).circuit, lambda c, bits: lift_inputs(d, bits), vectors(d))]
    race = chains_into(3, "race")
    circuits.append((race, lambda c, b: race_inputs(c, b), [B1, B0]))
    for c, init_of, inputs in circuits:
        for k, x in enumerate(inputs * 2):
            init = init_of(c, x)
            tr = assert_reference(c, init, ExecConfig(seed=k))
            rng = SplitMix64(k)
            st = init
            for rec in tr.steps:
                assert st == rec.state
                assert enabled_units(c, st) == frozenset(rec.enabled)
                if rec is tr.steps[-1] and tr.outcome is not Outcome.WRITE_CONFLICT:
                    assert is_final(c, st)
                    break
                assert ready_units(c, st, SplitMix64(k)) == frozenset(rec.ready)
                assert {u: reduce_unit(c, u, st) for u in rec.ready} == rec.results
                if tr.outcome is Outcome.WRITE_CONFLICT and rec is tr.steps[-1]:
                    with pytest.raises(WriteConflictError) as exc:
                        step(c, st, rng)
                    assert str(exc.value) == tr.conflict
                    break
                st = step(c, st, rng)
            # a run between the queries still replays the same steps
            assert run(c, init, ExecConfig(seed=k + 1)) == tr


def test_random_seed_free_circuits_replay_under_changing_bounds():
    rnd = random.Random(0xA11)
    checked = 0
    while checked < 60:
        c = random_circuit(rnd, 4) if rnd.random() < 0.5 else random_flow_graph(rnd)
        if c is None or c._exec_tables.schedule is None:
            continue
        for max_steps in (rnd.randint(1, 6), 40, rnd.randint(1, 6), 40):
            for _ in range(3):
                assert_reference(c, initial_state(c, random_inputs(rnd, c)), ExecConfig(max_steps=max_steps))
        checked += 1


@pytest.fixture
def counted_draws(monkeypatch):
    counts = [0]
    below = SplitMix64.below

    def counted(rng, n):
        counts[0] += 1
        return below(rng, n)

    monkeypatch.setattr(SplitMix64, "below", counted)
    return counts


def test_seeded_fixtures_draw_as_the_reference_does(counted_draws):
    for c in (fixture("p53"), fixture("flipflop"), toggle_loop()):
        assert c._exec_tables.schedule is None
        for inputs in all_inputs(c):
            for seed in range(6):
                init, cfg = initial_state(c, inputs), ExecConfig(seed=seed, max_steps=200)
                counted_draws[0] = 0
                got = run(c, init, cfg)
                draws = counted_draws[0]
                counted_draws[0] = 0
                want = reference_run(c, init, cfg)
                assert got == want and trace_to_jsonl(got) == reference_trace_to_jsonl(want)
                assert draws == counted_draws[0] > 0


def test_replayed_runs_draw_nothing(counted_draws):
    d = spine_netlist(12, 3, random.Random(5))
    c = to_control(d).circuit
    for seed, bits in enumerate(vectors(d)):
        run(c, lift_inputs(d, bits), ExecConfig(seed=seed))
    assert counted_draws[0] == 0
