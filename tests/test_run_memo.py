"""Differential tests: runs that replay a circuit's known steps against ``reference_run``.

``run`` keeps the value-free steps a circuit's runs have taken in a tree
that the first run plants on the circuit, keyed by each step's draws, and
replays them for later runs, deriving steps live only where a run leaves
the tree. A seed-free circuit (no two units share an input variable set)
draws nothing, so its tree is a chain. Every run here is compared with
``reference_run``, which derives every step afresh, on ``Trace`` equality
and on the JSONL bytes, across runs of one circuit object: over all its
inputs and many seeds, with step bounds that grow and shrink, on write
conflicts that depend on the inputs or on the draws, on loops and
deadlocks, after interrupted runs, past the tree's size bound, in threads
racing on cold circuits, and interleaved with ``step`` and the set
queries. Every step a run takes stays in the tree while it has room, one
that ends in a write conflict or is interrupted in its values included.
Seeded circuits draw exactly as the reference does.
``tally_runs``, which walks the tree by draws alone in groups of seeds
that drew alike, is compared with the per-seed aggregation of
``reference_run``: over several blocks of seeds, at negative seeds and
across 2**64, where its per-seed counters wrap. A warm walk is shown to
call neither ``run`` nor the firing code at any step limit, to look up a
child at most once per block, and to make exactly the reference's draws.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left
from itertools import accumulate
import sys
import threading
import tracemalloc
from collections import Counter
from operator import is_

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
    mk_trivial,
    ready_units,
    reduce_unit,
    run,
    step,
    tally_runs,
    validate_circuit,
)
from ctrlcirc import cli, dynamics
from ctrlcirc.dynamics import _TREE_ROOM_PER_ELEMENT, WriteConflictError, _missing_inputs, _StepTree, is_final
from ctrlcirc.fixtures import REGISTRY, fixture
from ctrlcirc.model import Flow
from ctrlcirc.nanddag import lift_inputs, random_dag, to_control
from ctrlcirc.operators import branch, parallel
from ctrlcirc.serialize import dumps_circuit, loads_circuit, trace_to_jsonl
from conftest import random_circuit, tag_zip
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


def step_tree(c):
    """The circuit's step tree, planted at the invars as a first run plants it if no run has."""
    units = c._exec_tables.units
    return vars(c).get("_step_tree") or vars(c).setdefault(
        "_step_tree", _StepTree(c, units, _missing_inputs(units, dict.fromkeys(c.invars)))
    )


def known(c):
    """A seed-free circuit's known steps and the ending after them (or None).

    The steps are the nodes along its tree's chain below the root, each
    ``(ready, left, double, enabled, sizes, ending, ident)``.
    """
    tree = step_tree(c)
    node, steps = tree.root, []
    while node[6] in tree.children:  # a node without draws keys its child by its id alone
        node = tree.children[node[6]]
        steps.append(node)
    return tuple(steps), node[5]


def same(a, b):
    """Whether two step sequences hold the same objects."""
    return len(a) == len(b) and all(map(is_, a, b))


def has_draws(c):
    """Whether two units of ``c`` share a pre-set, so they compete and its runs draw."""
    pre_sets = [c.pre_set(u) for u in c.units]
    return len(set(pre_sets)) < len(pre_sets)


def tree_size(c):
    """The entries of the circuit's step tree, counted as ``run`` counts them against its bound.

    Every child must hang below the root.
    """
    tree = step_tree(c)
    below = {}
    for key, node in tree.children.items():
        below.setdefault(key if type(key) is int else key[0], []).append(node)
    size, reached, todo = 0, 0, [tree.root]
    while todo:
        for node in below.get(todo.pop()[6], ()):
            ready, left, _, enabled, _, _, _ = node
            size += 1 + len(ready) + len(left) + len(enabled)
            reached += 1
            todo.append(node)
    assert reached == len(tree.children)
    return size


def tree_bound(c):
    """The circuit's tree size bound."""
    return _TREE_ROOM_PER_ELEMENT * (len(c.vars) + len(c.units))


def assert_reference(c, init, cfg):
    got = run(c, init, cfg)
    want = reference_run(c, init, cfg)
    assert got == want, (init, cfg)
    assert trace_to_jsonl(got) == reference_trace_to_jsonl(want)
    assert got.conflict == want.conflict
    return got


def seed_free_fixtures():
    return [name for name in sorted(REGISTRY) if not has_draws(fixture(name))]


def netlists():
    rnd = random.Random(0x5EED)
    dags = [random_dag(rnd, max_inputs=5, max_gates=12) for _ in range(12)]
    return dags + [spine_netlist(40, 4, rnd)]


def vectors(d):
    ins = d.inputs()
    return [{n: (x >> j) & 1 for j, n in enumerate(ins)} for x in range(2 ** len(ins))]


def test_seeded_circuits_draw_and_netlists_do_not():
    assert {"p53", "flipflop"} <= set(REGISTRY) - set(seed_free_fixtures())
    assert has_draws(toggle_loop())
    assert not any(has_draws(to_control(d).circuit) for d in netlists())


@pytest.mark.parametrize("d", netlists(), ids=lambda d: f"{len(d.gates())}-gates")
def test_one_netlist_circuit_serves_every_vector_cold_and_warm(d):
    c = to_control(d).circuit
    assert known(c) == ((), None)
    first = None
    for seed, bits in enumerate(vectors(d) * 2):
        init, cfg = lift_inputs(d, bits), ExecConfig(seed=seed)
        tr = assert_reference(c, init, cfg)
        assert tr.outcome is Outcome.FINAL
        steps, ending = known(c)
        assert ending is Outcome.FINAL and len(steps) == tr.final_state.time
        # a cold circuit of the same netlist derives the same trace live
        assert run(to_control(d).circuit, init, cfg) == tr
        if first is None:
            first = steps
        assert same(steps, first)  # later runs replay; they do not add steps


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
    lengths, endings = [], []
    for k, max_steps in enumerate((3, 7, 2, 7, 9, 10_000, 5, 1)):
        tr = assert_reference(c, lift_inputs(d, inputs[k % len(inputs)]), ExecConfig(seed=k, max_steps=max_steps))
        assert tr.outcome is (Outcome.FINAL if max_steps == 10_000 else Outcome.STEP_LIMIT)
        steps, ending = known(c)
        lengths.append(len(steps))
        endings.append(ending)
    depth = lengths[-1]
    assert lengths == [3, 7, 7, 7, 9, depth, depth, depth] and depth > 9
    assert endings == [None] * 5 + [Outcome.FINAL] * 3


def interrupt_on_call(monkeypatch, name, k):
    """Make ``dynamics.<name>`` raise ``KeyboardInterrupt`` on its ``k``-th call; return a restorer."""
    real, calls = getattr(dynamics, name), []

    def interrupted(*args):
        calls.append(1)
        if len(calls) == k:
            raise KeyboardInterrupt
        return real(*args)

    monkeypatch.setattr(dynamics, name, interrupted)
    return lambda: monkeypatch.setattr(dynamics, name, real)


def test_an_interrupted_run_keeps_the_steps_it_attached(monkeypatch):
    d = spine_netlist(30, 3, random.Random(9))
    c = to_control(d).circuit
    init = lift_inputs(d, vectors(d)[5])
    assert_reference(c, init, ExecConfig(max_steps=3))
    before, _ = known(c)
    restore = interrupt_on_call(monkeypatch, "_shape", 3)
    with pytest.raises(KeyboardInterrupt):
        run(c, init, ExecConfig())
    restore()
    # the two steps derived before the interrupt were attached whole; the third was not
    after, ending = known(c)
    assert same(after[:3], before) and len(after) == 5 and ending is None
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
    steps, ending = known(c)
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
    steps, ending = known(c)
    assert len(steps) == 12 and ending is None
    # a long loop fills the tree; later runs replay what fits and derive the rest
    for _ in range(2):
        for inputs in all_inputs(c):
            assert_reference(c, initial_state(c, inputs), ExecConfig(max_steps=2000))
    steps, ending = known(c)
    assert 12 < len(steps) < 2000 and ending is None and tree_size(c) <= tree_bound(c)


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
        if c is None or has_draws(c):
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
        assert has_draws(c)
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


# -- seeded circuits: one tree of steps keyed by their draws ------------------------------


def competing_random_circuit(rnd):
    """Two conftest random circuits of one interface shape, glued by ``branch``: their first units compete.

    Half the time a second such pair runs beside the first, so two groups draw in one step.
    """

    def shape(c):
        return [sum(c.var_types[v] is tag for v in side) for side in (c.invars, c.outvars) for tag in (CTRL, BOOL)]

    def one():
        a = random_circuit(rnd, 4)
        b = next((b for b in (random_circuit(rnd, 4) for _ in range(20)) if shape(b) == shape(a)), a)
        return branch(a, b, tag_zip(a, a.invars, b, b.invars), tag_zip(a, a.outvars, b, b.outvars)).circuit

    c = one()
    return parallel(c, one()) if rnd.random() < 0.5 else c


def random_competing_flow_graphs(n):
    rnd, out = random.Random(0xD4A3), []
    while len(out) < n:
        c = random_flow_graph(rnd)
        if c is not None and has_draws(c):
            out.append(c)
    return out


def seeded_circuits():
    rnd = random.Random(0xB4A7C4)
    cases = [("p53", fixture("p53")), ("flipflop", fixture("flipflop")), ("toggle_loop", toggle_loop())]
    cases += [(f"branched-{k}", competing_random_circuit(rnd)) for k in range(6)]
    cases += [(f"flow-graph-{k}", c) for k, c in enumerate(random_competing_flow_graphs(6))]
    return cases


def cold(c):
    """A copy of ``c`` whose step tree is empty."""
    return loads_circuit(dumps_circuit(c))


@pytest.mark.parametrize("c", [pytest.param(c, id=name) for name, c in seeded_circuits()])
def test_seeded_circuits_replay_over_many_seeds(c):
    c = cold(c)
    assert has_draws(c)
    inputs = all_inputs(c)
    traces = []
    for seed in range(500):
        init = initial_state(c, inputs[seed % len(inputs)])
        traces.append(assert_reference(c, init, ExecConfig(seed=seed, max_steps=600)))
    size = tree_size(c)
    assert size == tree_bound(c) - step_tree(c).room
    # the second pass replays: same traces, and the tree does not grow
    for seed, tr in enumerate(traces):
        assert run(c, initial_state(c, inputs[seed % len(inputs)]), ExecConfig(seed=seed, max_steps=600)) == tr
    assert tree_size(c) == size


def test_step_bounds_grow_and_shrink_on_seeded_circuits():
    rnd = random.Random(0x57E9)
    for c in (cold(fixture("p53")), cold(fixture("flipflop")), toggle_loop()):
        inputs = all_inputs(c)
        outcomes = set()
        for seed in range(300):
            max_steps = rnd.choice((1, 2, 3, 5, 8, 13, 40, 600))
            init = initial_state(c, inputs[seed % len(inputs)])
            outcomes.add(assert_reference(c, init, ExecConfig(seed=seed % 40, max_steps=max_steps)).outcome)
        assert Outcome.STEP_LIMIT in outcomes and len(outcomes) > 1


def draw_race():
    """``a1`` and ``a2`` compete, and ``a1`` and ``b`` both write t.

    So a run conflicts only if it draws ``a1`` and x differs from y.
    """
    tags = {"c": CTRL, "x": BOOL, "d": CTRL, "y": BOOL, "t": BOOL, "z1": CTRL, "z2": CTRL, "zb": CTRL}
    pre = {"a1": ("c", "x"), "a2": ("c", "x"), "b": ("d", "y")}
    post = {"a1": ("t", "z1"), "a2": ("z2",), "b": ("t", "zb")}
    ins = {f"i:{u}:{v}": Flow(v, u) for u, vs in pre.items() for v in vs}
    outs = {f"o:{u}:{v}": Flow(u, v) for u, vs in post.items() for v in vs}
    return validate_circuit(tags, sorted(pre), ins, outs)


def test_a_write_conflict_on_some_draws_only():
    c = draw_race()
    seen = {}
    for _ in range(2):
        for seed in range(40):
            for inputs in all_inputs(c):
                tr = assert_reference(c, initial_state(c, inputs), ExecConfig(seed=seed))
                seen.setdefault(inputs["x"] is inputs["y"], set()).add((tr.steps[0].ready, tr.outcome))
                if tr.outcome is Outcome.WRITE_CONFLICT:
                    assert tr.conflict == "units 'a1' and 'b' write different Booleans into 't'"
    assert seen[True] == {(("a1", "b"), Outcome.DEADLOCK), (("a2", "b"), Outcome.DEADLOCK)}
    assert seen[False] == {(("a1", "b"), Outcome.WRITE_CONFLICT), (("a2", "b"), Outcome.DEADLOCK)}
    children, root = step_tree(c).children, step_tree(c).root[6]
    assert children[root, (0,)][2] and not children[root, (1,)][2]  # only drawing a1 makes two units write t


@pytest.mark.parametrize("name", ["_shape", "_step_node", "_reduce"])
@pytest.mark.parametrize("k", [1, 4, 12])
def test_an_exception_in_a_derived_step_leaves_a_valid_tree(monkeypatch, name, k):
    for c in (cold(fixture("p53")), cold(fixture("flipflop")), toggle_loop()):
        inputs = all_inputs(c)
        # a cold circuit's first run builds its root with ``_step_node`` too: skip that call
        restore = interrupt_on_call(monkeypatch, name, k + (name == "_step_node"))
        with pytest.raises(KeyboardInterrupt):
            for seed in range(200):
                run(c, initial_state(c, inputs[seed % len(inputs)]), ExecConfig(seed=seed, max_steps=300))
        restore()
        assert tree_size(c) == tree_bound(c) - step_tree(c).room
        for seed in range(200):
            assert_reference(c, initial_state(c, inputs[seed % len(inputs)]), ExecConfig(seed=seed, max_steps=300))


@pytest.mark.parametrize("k", [1, 15, 16, 23])
def test_an_exception_in_a_steps_values_leaves_its_node_attached(monkeypatch, k):
    # a cold chain: its first step reduces 15 units, every later one a single unit
    d = spine_netlist(30, 3, random.Random(9))
    c = to_control(d).circuit
    init = lift_inputs(d, vectors(d)[5])
    want = reference_run(c, init, ExecConfig())
    interrupted = bisect_left(list(accumulate(len(s.ready) for s in want.steps)), k)  # the step of the k-th reduction
    restore = interrupt_on_call(monkeypatch, "_reduce", k)
    with pytest.raises(KeyboardInterrupt):
        run(c, init, ExecConfig())
    restore()
    # a derived step is attached before its values, so the interrupted step is in the tree
    steps, ending = known(c)
    assert [node[0] for node in steps] == [s.ready for s in want.steps[: interrupted + 1]] and ending is None
    assert tree_size(c) == tree_bound(c) - step_tree(c).room
    assert_reference(c, init, ExecConfig())


def pairs_loop(k):
    """``k`` independent loops, each a competing pair: ``a{i}`` negates p{i} and goes round again, ``b{i}`` leaves."""
    tags, pre, post = {}, {}, {}
    for i in range(k):
        tags.update({f"s{i}": CTRL, f"q{i}": BOOL, f"c{i}": CTRL, f"p{i}": BOOL, f"o{i}": CTRL, f"r{i}": BOOL})
        pre.update({f"e{i}": (f"s{i}", f"q{i}"), f"a{i}": (f"c{i}", f"p{i}"), f"b{i}": (f"c{i}", f"p{i}")})
        post.update({f"e{i}": (f"c{i}", f"p{i}"), f"a{i}": (f"c{i}", f"p{i}"), f"b{i}": (f"o{i}", f"r{i}")})
    ins = {f"i:{u}:{v}": Flow(v, u) for u, vs in pre.items() for v in vs}
    outs = {f"o:{u}:{v}": Flow(u, v) for u, vs in post.items() for v in vs}
    return validate_circuit(tags, sorted(pre), ins, outs)


def test_a_high_entropy_loop_fills_the_tree_up_to_its_bound():
    c = pairs_loop(8)
    bound, tree = tree_bound(c), step_tree(c)
    inputs = all_inputs(c)
    paths = set()
    for seed in range(500):
        tr = assert_reference(c, initial_state(c, inputs[seed % len(inputs)]), ExecConfig(seed=seed, max_steps=40))
        readies = tuple(s.ready for s in tr.steps[:-1])
        paths.update(readies[:n] for n in range(1, len(readies) + 1))
        assert 0 <= tree.room and tree_size(c) == bound - tree.room
    assert len(tree.children) < len(paths)  # the runs took more steps than the tree could keep


def biggest_node(c):
    """An upper bound on the entries one node of the circuit's step tree holds: its ready, left and enabled ids, plus one."""
    return 1 + 2 * len(c.units) + len(c.vars)


def assert_steps_in_tree(c, tr, seed):
    """Walk the step tree from the root with ``seed``'s draws, finding a node with the trace's ready units for each step.

    A trace's last record fires nothing, except in a write-conflict run,
    where it holds the step whose writes conflicted; that step is found
    too. Returns the node of the last step.
    """
    tree = step_tree(c)
    below, node = SplitMix64(seed).below, tree.root
    for s in tr.steps:
        if not s.ready:
            break
        _, _, _, enabled, sizes, ending, ident = node
        assert ending is None and enabled == s.enabled
        node = tree.children.get((ident, tuple(map(below, sizes))) if sizes else ident)
        assert node is not None and node[0] == s.ready, (tr.outcome, s.time)
    return node


def runs_that_keep_every_step():
    """Circuits, named, with the initial states and configs of their runs and whether some run conflicts; all fit the tree."""
    cases = []
    for name, c, conflicts in (
        ("draw_race", draw_race(), True),
        ("pairs_loop", pairs_loop(3), False),
        ("p53", cold(fixture("p53")), False),
        ("flipflop", cold(fixture("flipflop")), False),
    ):
        inits = [initial_state(c, inputs) for inputs in all_inputs(c)]
        runs = [(inits[seed % len(inits)], ExecConfig(seed=seed, max_steps=30)) for seed in range(60)]
        cases.append(pytest.param(c, runs, conflicts, id=name))
    for n in (0, 1, 5):
        for order in ((B0, B1), (B1, B0)):  # the conflicting run first or second
            c = chains_into(n, "race")
            runs = [(race_inputs(c, b), ExecConfig()) for b in order]
            cases.append(pytest.param(c, runs, True, id=f"race{n}-{order[0].value}{order[1].value}"))
    return cases


@pytest.mark.parametrize("c, runs, conflicts", runs_that_keep_every_step())
def test_every_step_a_run_takes_stays_in_the_tree(c, runs, conflicts):
    outcomes = set()
    for _ in range(2):  # cold, then warm
        for init, cfg in runs:
            tr = assert_reference(c, init, cfg)
            outcomes.add(tr.outcome)
            node = assert_steps_in_tree(c, tr, cfg.seed)
            if tr.outcome is Outcome.WRITE_CONFLICT:
                assert node[2]  # the conflicting step is kept, marked as one where two ready units write one variable
    assert (Outcome.WRITE_CONFLICT in outcomes) is conflicts
    assert step_tree(c).room >= biggest_node(c)  # the tree had room for every step


def test_a_conflicting_step_is_replayed_by_the_next_run(monkeypatch):
    c = chains_into(0, "race")
    calls = counted_runs(monkeypatch)
    assert run(c, race_inputs(c, B0), ExecConfig()).outcome is Outcome.WRITE_CONFLICT
    (racing,), ending = known(c)
    assert racing[0] == ("u1", "u2") and racing[2] and ending is Outcome.FINAL
    calls.clear()
    assert assert_reference(c, race_inputs(c, B1), ExecConfig()).outcome is Outcome.FINAL
    assert calls["_shape"] == 0  # the racing step was replayed, not derived


def test_a_cold_run_counts_missing_inputs_once_at_the_invars(monkeypatch):
    real, counted = dynamics._missing_inputs, []
    monkeypatch.setattr(dynamics, "_missing_inputs", lambda units, values: counted.append(dict(values)) or real(units, values))
    d = spine_netlist(30, 3, random.Random(9))
    for c, init in (
        (cold(fixture("p53")), None),
        (cold(fixture("flipflop")), None),
        (toggle_loop(), None),
        (to_control(d).circuit, lift_inputs(d, vectors(d)[5])),
    ):
        init = init or initial_state(c, all_inputs(c)[0])
        counted.clear()
        assert_reference(c, init, ExecConfig(seed=3, max_steps=300))
        assert counted == [init.values]  # the root and every derived step read these counts
        counted.clear()
        assert_reference(c, init, ExecConfig(seed=3, max_steps=300))
        assert counted == []  # the second run replays every step


def test_threads_racing_on_cold_circuits_run_as_the_reference():
    """Four threads start together on each cold circuit, switching every microsecond, and plant one tree.

    A thread whose first run lost the planting race replays the steps
    another thread attached, so the counts it took at the invars are stale
    once it leaves the tree; it must count again there. Two threads that
    derive one step attach it once: the tree stays whole and its room is
    exact.
    """
    jobs = []
    for c in [cold(fixture(name)) for name in ("p53", "flipflop") for _ in range(15)] + [toggle_loop(), pairs_loop(3)]:
        inputs = all_inputs(c)
        inits = [initial_state(c, inputs[seed % len(inputs)]) for seed in range(20)]
        jobs.append((c, inits, [reference_run(c, init, ExecConfig(seed=seed, max_steps=80)) for seed, init in enumerate(inits)]))
    wrong = []

    def work(c, inits, want, seeds, start):
        start.wait(timeout=60)
        for seed in seeds:
            if run(c, inits[seed], ExecConfig(seed=seed, max_steps=80)) != want[seed]:
                wrong.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for c, inits, want in jobs:
            start = threading.Barrier(4)
            threads = [threading.Thread(target=work, args=(c, inits, want, [*range(k, 20), *range(k)], start)) for k in (0, 5, 10, 15)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert type(vars(c)["_step_tree"]) is _StepTree
            # each step was attached once, below the root, and its room debited once
            assert tree_size(c) == tree_bound(c) - step_tree(c).room
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []


@pytest.mark.parametrize(
    "name, inputs, max_steps, seed",
    [
        ("p53", {"ctrl_in": "*", "p53_in": 1, "mdm2_in": 0}, 10_000, 0),
        ("flipflop", {"ctrl_in": "*", "r_in": 0, "q_in": 1, "s_in": 0}, 600, 0),
        ("p53", {"ctrl_in": "*", "p53_in": 1, "mdm2_in": 0}, 10_000, -1000),
        ("flipflop", {"ctrl_in": "*", "r_in": 0, "q_in": 1, "s_in": 0}, 600, -500),
    ],
)
def test_exec_runs_summary_matches_a_per_run_sorted_aggregation(tmp_path, capsys, name, inputs, max_steps, seed):
    circ, ins = tmp_path / f"{name}.circuit", tmp_path / "in.json"
    assert cli.main(["fixtures", "emit", name, "--out", str(circ)]) == 0
    ins.write_text(json.dumps(inputs))
    c = loads_circuit(circ.read_text())
    init = initial_state(c, {v: S if x == "*" else Value.from_bit(x) for v, x in inputs.items()})
    outcomes, fired = Counter(), Counter()
    for k in range(seed, seed + 1000):
        tr = reference_run(c, init, ExecConfig(seed=k, max_steps=max_steps))
        outcomes[tr.outcome.value] += 1
        fired[tuple(sorted(tr.fired_units()))] += 1
    payload = {
        "runs": 1000,
        "outcomes": dict(sorted(outcomes.items())),
        "fired_unit_sets": [
            {"units": list(units), "count": n} for units, n in sorted(fired.items(), key=lambda kv: (-kv[1], kv[0]))
        ],
    }
    argv = ["exec", str(circ), "--inputs", str(ins), "--max-steps", str(max_steps), "--runs", "1000", "--seed", str(seed)]
    capsys.readouterr()
    assert cli.main(argv + ["--format", "json-lines"]) == 0
    assert capsys.readouterr().out == json.dumps(payload, sort_keys=True) + "\n"
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


# -- tally_runs: outcome counts from walking the step tree -----------------------------------


def reference_tally(c, init, cfg, runs):
    """``tally_runs``'s answer, from ``reference_run`` traces."""
    seeds = range(cfg.seed, cfg.seed + runs)
    traces = (reference_run(c, init, ExecConfig(seed=seed, max_steps=cfg.max_steps)) for seed in seeds)
    return Counter((tr.outcome, tr.fired_units()) for tr in traces)


def assert_tally(c, init, cfg, runs):
    got = tally_runs(c, init, cfg, runs)
    assert got == reference_tally(c, init, cfg, runs), (init, cfg, runs)
    assert sum(got.values()) == runs
    return got


def test_tally_a_write_conflict_on_some_draws_only():
    c = draw_race()
    outcomes = set()
    for _ in range(2):
        for inputs in all_inputs(c):
            got = assert_tally(c, initial_state(c, inputs), ExecConfig(seed=3), 40)
            outcomes.update(outcome for outcome, _ in got)
    assert outcomes == {Outcome.DEADLOCK, Outcome.WRITE_CONFLICT}


def counted_runs(monkeypatch):
    """Count the calls of ``dynamics.run``, ``_shape`` and ``_reduce`` by name."""
    calls = Counter()
    for fn in ("run", "_shape", "_reduce"):
        real = getattr(dynamics, fn)
        monkeypatch.setattr(dynamics, fn, lambda *args, _real=real, _fn=fn: calls.update([_fn]) or _real(*args))
    return calls


def test_tally_past_a_full_tree(monkeypatch):
    c = pairs_loop(8)
    cases = [(initial_state(c, inputs), ExecConfig(seed=60 * k, max_steps=40)) for k, inputs in enumerate(all_inputs(c)[:5])]
    calls = counted_runs(monkeypatch)
    for _ in range(2):
        for init, cfg in cases:
            assert_tally(c, init, cfg, 60)
    assert tree_size(c) == tree_bound(c) - step_tree(c).room
    # the tree is full, so the second tally of the same seeds still runs those whose paths did not fit
    calls.clear()
    for init, cfg in cases:
        tally_runs(c, init, cfg, 60)
    assert 0 < calls["run"] < 5 * 60


@pytest.mark.parametrize("max_steps", [1, 2, 3, 5, 13])
def test_tally_at_the_step_limit(max_steps):
    c = toggle_loop()
    for _ in range(2):
        for inputs in all_inputs(c):
            assert_tally(c, initial_state(c, inputs), ExecConfig(seed=max_steps, max_steps=max_steps), 50)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_tally_every_fixture_cold_and_warm(name):
    for inputs in all_inputs(fixture(name)):
        c = cold(fixture(name))
        for max_steps in (600, 1, 600, 1):  # cold, then warm; at a bound of 1 a one-step circuit still ends final
            for seed in (0, 977):
                assert_tally(c, initial_state(c, inputs), ExecConfig(seed=seed, max_steps=max_steps), 30)


def test_tally_from_a_final_root():
    c = mk_trivial([CTRL, BOOL])
    init = initial_state(c, {"v1": S, "v2": B0})
    for _ in range(2):
        assert assert_tally(c, init, ExecConfig(seed=5), 7) == Counter({(Outcome.FINAL, frozenset()): 7})


def test_tally_refusals():
    c = fixture("p53")
    init = initial_state(c, all_inputs(c)[0])
    for bad in (State(1, init.values), State(0, {}), State(0, {**init.values, "x": S})):
        with pytest.raises(StructureError, match=r"^run\(\) needs an initial state \(time 0, exactly the invars\)$"):
            tally_runs(c, bad, ExecConfig(), 10)
    for runs in (0, -3):
        with pytest.raises(StructureError, match=rf"^runs must be an int of at least 1, got {runs}$"):
            tally_runs(c, init, ExecConfig(), runs)


@pytest.mark.parametrize("name", ["p53", "flipflop"])
def test_a_warm_tally_only_draws(monkeypatch, name):
    calls = counted_runs(monkeypatch)
    c = cold(fixture(name))
    init, cfg = initial_state(c, all_inputs(c)[0]), ExecConfig(max_steps=600)
    first = tally_runs(c, init, cfg, 1000)
    assert 0 < calls["run"] <= len(step_tree(c).children)  # a cold seed runs only where it leaves the tree
    calls.clear()
    assert tally_runs(c, init, cfg, 1000) == first
    assert calls == Counter()  # a warm seed makes its draws and nothing else


# -- tally_runs: the grouped walk ---------------------------------------------------------------


def counting_children(c, monkeypatch):
    """Swap the children of the circuit's step tree for a dict that logs ``(key, found)`` for each lookup outside ``run``."""
    looked, in_run = [], []

    class Counting(dict):
        def get(self, key, default=None):
            found = dict.get(self, key, default)
            if not in_run:
                looked.append((key, found is not None))
            return found

    def counted_run(*args, _real=dynamics.run):
        in_run.append(True)
        try:
            return _real(*args)
        finally:
            in_run.pop()

    monkeypatch.setattr(dynamics, "run", counted_run)
    tree = step_tree(c)
    tree.children = Counting(tree.children)
    return looked


def assert_lookups_per_block(looked, runs):
    """The walk finds each child at most once per block; a missing one it looks up again once, after a seed's run.

    The child stays missing only when the tree is full: a run attaches a step before its values, conflicting or not.
    """
    blocks = -(-runs // dynamics._TALLY_BLOCK)
    for (key, found), n in Counter(looked).items():
        assert n <= (1 if found else 2) * blocks, (key, found, n, blocks)


def assert_found_after_a_miss(c, looked):
    """A child missing at its first lookup is found at the second, after a seed's run attached it, unless the tree is full."""
    full = step_tree(c).room < biggest_node(c)
    for (key, found), again in zip(looked, looked[1:]):
        if not found:
            assert again == (key, True) or full, (key, again)


@pytest.mark.parametrize(
    "build, inputs",
    [
        (lambda: fixture("flipflop"), slice(None)),
        (toggle_loop, slice(None)),
        (lambda: pairs_loop(8), slice(3)),
        (toggler, slice(None)),
        (lambda: chains_into(5, "race"), slice(None)),
        (lambda: chains_into(6, "stuck"), slice(None)),
    ],
    ids=["flipflop", "toggle_loop", "pairs_loop", "toggler", "race", "stuck"],
)
def test_tally_at_every_step_limit_cold_and_warm(monkeypatch, build, inputs):
    """Step limits 1 to 20 on a cold circuit, where a group may stop at a missing child, then after long runs."""
    c = cold(build())
    looked = counting_children(c, monkeypatch)
    inits = [initial_state(c, values) for values in all_inputs(c)[inputs]]
    for warm in (False, True):
        if warm:
            for init in inits:
                tally_runs(c, init, ExecConfig(seed=500, max_steps=600), 30)
        for max_steps in range(1, 21):
            for k, init in enumerate(inits):
                looked.clear()
                assert_tally(c, init, ExecConfig(seed=40 * k + max_steps, max_steps=max_steps), 20)
                assert_lookups_per_block(looked, 20)
                assert_found_after_a_miss(c, looked)
    assert tree_size(c) <= tree_bound(c)


def counted_mixes(monkeypatch):
    """Count the calls of ``dynamics._mix``, which both the walk's draws and ``SplitMix64.below`` make."""
    counts = [0]
    mix = dynamics._mix

    def counted(z):
        counts[0] += 1
        return mix(z)

    monkeypatch.setattr(dynamics, "_mix", counted)
    return counts


def test_a_warm_walk_looks_up_a_child_per_node_and_block_and_makes_the_reference_draws(monkeypatch, counted_draws):
    c = cold(fixture("flipflop"))
    init = initial_state(c, all_inputs(c)[0])
    tally_runs(c, init, ExecConfig(seed=1000, max_steps=600), 1000)
    looked = counting_children(c, monkeypatch)
    mixes = counted_mixes(monkeypatch)
    calls = counted_runs(monkeypatch)
    monkeypatch.setattr(dynamics, "_TALLY_BLOCK", 64)
    steps = lookups = 0
    for seed, runs in [(1000, 200), (1000, 1), (1100, 130), (1999, 1)]:
        cfg = ExecConfig(seed=seed, max_steps=600)
        looked.clear()
        mixes[0] = 0
        got = tally_runs(c, init, cfg, runs)
        walked = mixes[0]
        assert calls == Counter()  # a warm walk runs no seed and derives no step
        assert all(found for _, found in looked)
        assert_lookups_per_block(looked, runs)
        # the walk makes the draws the reference runs make, and no other
        counted_draws[0] = 0
        traces = [reference_run(c, init, ExecConfig(seed=s, max_steps=600)) for s in range(seed, seed + runs)]
        assert walked == counted_draws[0] > 0
        assert got == Counter((tr.outcome, tr.fired_units()) for tr in traces)
        steps += sum(len(tr.steps) - 1 for tr in traces)
        lookups += len(looked)
    assert steps > 4 * lookups  # so a walk of a node per seed and step would look up many more


@pytest.mark.parametrize("build", [lambda: fixture("flipflop"), lambda: fixture("p53"), toggle_loop], ids=["flipflop", "p53", "toggle_loop"])
def test_a_warm_tally_at_every_small_step_limit_runs_no_seed(monkeypatch, build):
    """A step limit ends a group where it falls, so no seed of a warm tree is run in full, whatever the limit."""
    c = cold(build())
    inits = [initial_state(c, values) for values in all_inputs(c)[:4]]
    for init in inits:
        tally_runs(c, init, ExecConfig(seed=300, max_steps=600), 60)
    wants = {
        (k, max_steps): reference_tally(c, init, ExecConfig(seed=300, max_steps=max_steps), 60)
        for k, init in enumerate(inits)
        for max_steps in range(1, 21)
    }
    calls = counted_runs(monkeypatch)
    for (k, max_steps), want in wants.items():
        assert tally_runs(c, inits[k], ExecConfig(seed=300, max_steps=max_steps), 60) == want
    assert calls["run"] == calls["_shape"] == 0


def test_a_tally_of_several_blocks_counts_every_seed_once(monkeypatch):
    monkeypatch.setattr(dynamics, "_TALLY_BLOCK", 7)
    for build in (lambda: fixture("flipflop"), lambda: fixture("p53"), draw_race, lambda: pairs_loop(3)):
        c = cold(build())
        for init in [initial_state(c, values) for values in all_inputs(c)[:4]]:
            for max_steps in (600, 5, 600):  # cold, then at a limit, then warm
                assert_tally(c, init, ExecConfig(seed=11, max_steps=max_steps), 3 * 7 + 2)


EDGE_SEEDS = [-7, 2**64 - 3, 2**70 + 5]  # a negative seed, a range that crosses 2**64, and a seed far past it


@pytest.mark.parametrize("build", [lambda: fixture("p53"), lambda: fixture("flipflop"), draw_race, lambda: pairs_loop(3)], ids=["p53", "flipflop", "draw_race", "pairs_loop"])
def test_tally_at_the_generators_edges(build):
    """The walk's per-seed counter wraps at 2**64, as ``SplitMix64(seed)`` masks the seed."""
    c = cold(build())
    for init in [initial_state(c, values) for values in all_inputs(c)[:4]]:
        for max_steps in (600, 600, 3):  # cold, warm, and at a limit
            for seed in EDGE_SEEDS:
                assert_tally(c, init, ExecConfig(seed=seed, max_steps=max_steps), 12)


@pytest.mark.parametrize("seed", EDGE_SEEDS + [0, 2**64 - 1, 2**64])
def test_the_walks_draws_are_the_generators_draws(seed):
    for k in range(6):
        for n in (1, 2, 3, 2**16):
            rng = SplitMix64(seed)
            for _ in range(k):
                rng.below(7)
            assert list(dynamics._draws([seed], k, (n,))) == [(rng.below(n),)]
    # several seeds and sizes at once, each seed's tuple drawn in order by its own generator
    seeds, sizes = [seed + i for i in range(5)], (3, 2**16, 2)
    want = []
    for s in seeds:
        rng = SplitMix64(s)
        rng.below(5), rng.below(5)
        want.append(tuple(map(rng.below, sizes)))
    assert list(dynamics._draws(seeds, 2, sizes)) == want


def test_a_warm_tallys_memory_does_not_grow_with_its_runs():
    c = cold(fixture("p53"))
    init = initial_state(c, all_inputs(c)[0])
    tally_runs(c, init, ExecConfig(seed=0, max_steps=10_000), 2000)
    peaks = []
    for runs in (10_000, 100_000):
        tracemalloc.start()
        try:
            tally_runs(c, init, ExecConfig(seed=0, max_steps=10_000), runs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_threads_racing_on_a_cold_tally_count_as_the_reference():
    """Four threads tally the same seeds of each cold circuit at once, switching every microsecond."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for build in [lambda: fixture("flipflop"), lambda: fixture("p53"), toggle_loop, lambda: pairs_loop(3)]:
            for max_steps in (600, 7):
                c = build()
                init = initial_state(c, all_inputs(c)[-1])
                cfg = ExecConfig(seed=11, max_steps=max_steps)
                want = reference_tally(c, init, cfg, 200)
                c = cold(c)
                got, start = [], threading.Barrier(4)

                def work():
                    start.wait(timeout=60)
                    got.append(tally_runs(c, init, cfg, 200))

                threads = [threading.Thread(target=work) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert got == [want] * 4
                assert tree_size(c) == tree_bound(c) - step_tree(c).room
    finally:
        sys.setswitchinterval(interval)
