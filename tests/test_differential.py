"""Differential tests: execution and soundness against the original algorithms.

``reference_run``, ``reference_is_sound`` and ``reference_trace_to_jsonl``
are the first, direct implementations: the run rescans every unit for
enabledness and regroups the enabled units by pre-set on every step,
soundness runs one forward search per start variable, and the trace writer
sorts each state by hand before ``json.dumps`` sorts it again. The library
reads per-circuit execution tables built once (static competing groups,
de-duplicated pre- and post-sets), keeps the enabled set incrementally,
decides soundness in one reverse pass, records each step's change rather
than its state, and writes JSONL from those changes; all must agree with
these references exactly (JSONL trace bytes, every replayed state, and the
Boolean verdict). The writer is also checked on hand-built traces, which no
run produces. The references read pre-sets, post-sets and consumers straight
off the flows (``conftest.flow_adjacency``), not through the circuit's
queries, which read the same execution tables as ``run``.
"""

from __future__ import annotations

import itertools
import json
import random
import tracemalloc
from typing import Iterable, Optional

import pytest
from hypothesis import given, settings, strategies as hs

from ctrlcirc import (
    BOOL,
    CTRL,
    ExecConfig,
    Outcome,
    SplitMix64,
    Value,
    ValidationError,
    circuit_violations,
    initial_state,
    is_sound,
    parallel,
    ready_units,
    reduce_unit,
    relabel,
    run,
    step,
    unit_circuit,
    validate_circuit,
)
from ctrlcirc.dynamics import State, Trace, TraceStep, WriteConflictError, is_final
from ctrlcirc.fixtures import (
    REGISTRY,
    build_action,
    build_buffer,
    build_eater,
    build_entry,
    build_next_state,
    build_not,
    fixture,
)
from ctrlcirc.model import Circuit, Flow
from ctrlcirc.nanddag import NandDag, lift_inputs, to_control, validate_dag
from ctrlcirc.operators import IterationWiring, iterate_head
from ctrlcirc.serialize import dumps_circuit, loads_circuit, morphism_to_dict, trace_to_jsonl
from conftest import FlowAdjacency, flow_adjacency, random_circuit

S, B0, B1 = Value.SIGNAL, Value.ZERO, Value.ONE


# -- reference implementations ----------------------------------------------


def _ref_enabled(adj: FlowAdjacency, st: State) -> frozenset[str]:
    dom = st.values
    return frozenset(u for u, pre in adj.pre.items() if all(v in dom for v in pre))


def _ref_ready(adj: FlowAdjacency, st: State, rng: SplitMix64) -> frozenset[str]:
    groups: dict[frozenset[str], list[str]] = {}
    for u in _ref_enabled(adj, st):
        groups.setdefault(adj.pre[u], []).append(u)
    picks = []
    for members in sorted((sorted(g) for g in groups.values()), key=lambda g: g[0]):
        if len(members) == 1:
            picks.append(members[0])
        else:
            picks.append(members[rng.below(len(members))])
    return frozenset(picks)


def _ref_reduce(c: Circuit, adj: FlowAdjacency, u: str, st: State) -> Value:
    bits = [st.values[v].bit for v in adj.pre[u] if c.var_types[v] is BOOL]
    if not bits:
        return Value.ONE
    return Value.ZERO if all(bits) else Value.ONE


def _ref_transition(
    c: Circuit, adj: FlowAdjacency, st: State, ready: Iterable[str]
) -> tuple[dict, Optional[tuple[str, str]]]:
    produced: dict[str, Value] = {}
    producer: dict[str, str] = {}
    touched: set[str] = set()
    for u in sorted(ready):
        result = _ref_reduce(c, adj, u, st)
        touched |= adj.pre[u] | adj.post[u]
        for v in sorted(adj.post[u]):
            val = Value.SIGNAL if c.var_types[v] is CTRL else result
            if v in produced and produced[v] != val:
                return {}, (v, f"units {producer[v]!r} and {u!r} write different Booleans into {v!r}")
            produced[v] = val
            producer[v] = u
    nxt = dict(produced)
    for v, val in st.values.items():
        if v not in touched:
            nxt[v] = val
    return nxt, None


def reference_run(c: Circuit, init: State, cfg: ExecConfig) -> Trace:
    adj = flow_adjacency(c)
    rng = SplitMix64(cfg.seed)
    steps: list[TraceStep] = []
    st = init
    while True:
        if st.domain == c.outvars:
            steps.append(TraceStep(st.time, st, (), (), {}))
            return Trace(tuple(steps), Outcome.FINAL)
        enabled = tuple(sorted(_ref_enabled(adj, st)))
        if not enabled:
            steps.append(TraceStep(st.time, st, (), (), {}))
            return Trace(tuple(steps), Outcome.DEADLOCK)
        if st.time >= cfg.max_steps:
            steps.append(TraceStep(st.time, st, enabled, (), {}))
            return Trace(tuple(steps), Outcome.STEP_LIMIT)
        ready = tuple(sorted(_ref_ready(adj, st, rng)))
        results = {u: _ref_reduce(c, adj, u, st) for u in ready}
        nxt, conflict = _ref_transition(c, adj, st, ready)
        steps.append(TraceStep(st.time, st, enabled, ready, results))
        if conflict:
            return Trace(tuple(steps), Outcome.WRITE_CONFLICT, conflict=conflict[1])
        st = State(st.time + 1, nxt)


def reference_trace_to_jsonl(trace: Trace) -> str:
    lines = []
    for s in trace.steps:
        lines.append(
            json.dumps(
                {
                    "time": s.time,
                    "state": {v: s.state.values[v].value for v in sorted(s.state.values)},
                    "enabled": list(s.enabled),
                    "ready": list(s.ready),
                    "results": {u: s.results[u].value for u in sorted(s.results)},
                },
                sort_keys=True,
            )
        )
    tail: dict = {"outcome": trace.outcome.value}
    if trace.conflict:
        tail["conflict"] = trace.conflict
    lines.append(json.dumps(tail, sort_keys=True))
    return "\n".join(lines) + "\n"


def reference_is_sound(c: Circuit) -> bool:
    adj = flow_adjacency(c)
    for v in c.flow_sources | c.invars:
        seen_units: set[str] = set()
        frontier = list(adj.consumers[v])
        reached_out = False
        while frontier:
            u = frontier.pop()
            if u in seen_units:
                continue
            seen_units.add(u)
            for w in adj.post[u]:
                if w in c.outvars:
                    reached_out = True
                    frontier = []
                    break
                frontier.extend(adj.consumers[w])
        if not reached_out:
            return False
    return True


# -- helpers -----------------------------------------------------------------


def random_inputs(rnd: random.Random, c: Circuit) -> dict[str, Value]:
    return {v: S if c.var_types[v] is CTRL else Value.from_bit(rnd.randint(0, 1)) for v in c.invars}


def all_inputs(c: Circuit) -> list[dict[str, Value]]:
    """Every Boolean assignment of the invars (control invars carry a signal)."""
    bools = sorted(v for v in c.invars if c.var_types[v] is BOOL)
    out = []
    for bits in itertools.product((0, 1), repeat=len(bools)):
        inputs = {v: S for v in c.invars if c.var_types[v] is CTRL}
        inputs.update({v: Value.from_bit(b) for v, b in zip(bools, bits)})
        out.append(inputs)
    return out


def assert_same_run(c: Circuit, inputs, seed: int, max_steps: int = 10_000) -> Trace:
    init = initial_state(c, inputs)
    cfg = ExecConfig(seed=seed, max_steps=max_steps)
    got = run(c, init, cfg)
    want = reference_run(c, init, cfg)
    assert trace_to_jsonl(got) == reference_trace_to_jsonl(want), (seed, inputs)
    assert got.outcome is want.outcome and got.conflict == want.conflict
    return got


def toggle_loop() -> Circuit:
    """Head iteration whose body inverter competes with the exit each pass."""
    w = IterationWiring(
        entry=build_buffer(),
        body=build_not(),
        end=build_buffer(),
        exit=build_eater(1),
        head=(("c_out", "c_out", "v1", "v1"), ("b_out", "b_out", "v2", "v2")),
        tail=(("v3", "c_in"), ("v4", "b_in")),
    )
    return iterate_head(w).circuit


def flipflop_head_loop() -> Circuit:
    """Head iteration of the flip-flop blocks; the exit absorbs the loop head."""
    w = IterationWiring(
        entry=build_entry(),
        body=build_action(),
        end=build_next_state(),
        exit=build_eater(3),
        head=(
            ("ctrl_out", "ctrl_out", "ctrl_in", "v1"),
            ("r_out", "r_out", "r_in", "v2"),
            ("q_out", "q_out", "q_in", "v3"),
            ("s_out", "s_out", "s_in", "v4"),
        ),
        tail=(("ctrl_out", "ctrl_in"), ("q_next_out", "q_in")),
    )
    return iterate_head(w).circuit


def random_flow_graph(rnd: random.Random) -> Optional[Circuit]:
    """A valid circuit with random flows (cycles, dead ends, inoutvars), or None."""
    n_vars = rnd.randint(2, 9)
    tags = {f"v{i}": CTRL if i < 2 or rnd.random() < 0.6 else BOOL for i in range(n_vars)}
    ctrl = sorted(v for v, t in tags.items() if t is CTRL)
    names = sorted(tags)
    ins, outs = {}, {}
    units = [f"u{k}" for k in range(rnd.randint(1, 6))]
    for u in units:
        pre = {rnd.choice(ctrl)} | set(rnd.sample(names, rnd.randint(0, 2)))
        post = {rnd.choice(ctrl)} | set(rnd.sample(names, rnd.randint(0, 2)))
        for v in sorted(pre):
            ins[f"i{len(ins)}"] = Flow(v, u)
        for v in sorted(post):
            outs[f"o{len(outs)}"] = Flow(u, v)
    try:
        return validate_circuit(tags, units, ins, outs)
    except ValidationError:
        return None


# -- execution ---------------------------------------------------------------


def test_run_matches_reference_on_random_circuits(rnd):
    for _ in range(60):
        c = random_circuit(rnd, 4)
        inputs = random_inputs(rnd, c)
        for seed in range(3):
            assert_same_run(c, inputs, seed)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_run_matches_reference_on_every_fixture(name):
    c = fixture(name)
    for inputs in all_inputs(c):
        for seed in range(12):
            assert_same_run(c, inputs, seed, max_steps=300)


def test_run_matches_reference_on_iterate_head_composites():
    lengths = set()
    for c in (toggle_loop(), flipflop_head_loop()):
        for inputs in all_inputs(c):
            for seed in range(30):
                lengths.add(len(assert_same_run(c, inputs, seed, max_steps=400).steps))
    assert len(lengths) > 2  # the toggle loop stops at different passes


def test_run_matches_reference_on_competing_groups():
    # two groups of different sizes compete in the same step; their draw
    # order is fixed by least member, not by size
    units = ["a1", "a2", "a3", "b1", "b2"]
    c = validate_circuit(
        {"x": CTRL, "y": CTRL, "oa": CTRL, "ob": CTRL},
        units,
        {f"i{u}": Flow("x" if u[0] == "a" else "y", u) for u in units},
        {f"o{u}": Flow(u, "oa" if u[0] == "a" else "ob") for u in units},
    )
    picks = set()
    for seed in range(40):
        tr = assert_same_run(c, {"x": S, "y": S}, seed)
        assert tr.outcome is Outcome.FINAL
        picks.add(tr.steps[0].ready)
    assert len(picks) == 6


def test_run_matches_reference_on_deadlock():
    # a and w assigned; u1 waits on c, which only u2 (waiting on b) produces
    c = validate_circuit(
        {"a": CTRL, "b": CTRL, "c": CTRL, "d": CTRL, "w": CTRL},
        ["u1", "u2"],
        {"i1": Flow("a", "u1"), "i2": Flow("c", "u1"), "i3": Flow("b", "u2")},
        {"o1": Flow("u1", "b"), "o2": Flow("u2", "c"), "o3": Flow("u2", "d")},
    )
    for seed in range(5):
        assert assert_same_run(c, {"a": S, "w": S}, seed).outcome is Outcome.DEADLOCK


def test_run_matches_reference_when_an_input_arrives_late_or_never():
    # u2 waits on x: first u3 produces it in the same step as b, then (c2)
    # only u3 can produce it and u3 waits on u2, so the run deadlocks
    c = validate_circuit(
        {"a": CTRL, "x": CTRL, "b": CTRL, "y": CTRL, "z": CTRL},
        ["u1", "u2", "u3"],
        {"i1": Flow("a", "u1"), "i2": Flow("b", "u2"), "i3": Flow("x", "u2"), "i4": Flow("y", "u3")},
        {"o1": Flow("u1", "b"), "o2": Flow("u2", "z"), "o3": Flow("u3", "x")},
    )
    tr = assert_same_run(c, {"a": S, "y": S}, 0)
    assert tr.outcome is Outcome.FINAL
    c2 = validate_circuit(
        {"a": CTRL, "x": CTRL, "b": CTRL, "z": CTRL, "q": CTRL},
        ["u1", "u2", "u3"],
        {"i1": Flow("a", "u1"), "i2": Flow("b", "u2"), "i3": Flow("x", "u2"), "i4": Flow("z", "u3")},
        {"o1": Flow("u1", "b"), "o2": Flow("u2", "z"), "o3": Flow("u3", "x"), "o4": Flow("u3", "q")},
    )
    tr = assert_same_run(c2, {"a": S}, 0)
    assert tr.outcome is Outcome.DEADLOCK
    assert tr.final_state.time == 1


def test_run_matches_reference_when_two_presets_consume_one_variable():
    # u1 and u2 (different pre-sets) both consume x at step 1; x must leave
    # the domain once, so u3 is enabled when u6 produces x again at step 2
    c = validate_circuit(
        {v: CTRL for v in ("a", "b", "s", "x", "f", "e", "p", "q", "r")},
        ["us", "u0", "u1", "u2", "u3", "u6"],
        {
            "i1": Flow("a", "u1"), "i2": Flow("x", "u1"), "i3": Flow("b", "u2"), "i4": Flow("x", "u2"),
            "i5": Flow("s", "us"), "i6": Flow("f", "u0"), "i7": Flow("e", "u6"), "i8": Flow("x", "u3"),
            "i9": Flow("p", "u3"),
        },
        {
            "o1": Flow("us", "x"), "o2": Flow("us", "f"), "o3": Flow("u1", "p"), "o4": Flow("u2", "q"),
            "o5": Flow("u0", "e"), "o6": Flow("u6", "x"), "o7": Flow("u3", "r"),
        },
    )
    tr = assert_same_run(c, {"a": S, "b": S, "s": S}, 0)
    assert tr.steps[1].ready == ("u0", "u1", "u2") and "x" not in tr.steps[2].state.values
    assert tr.steps[3].ready == ("u3",) and tr.outcome is Outcome.FINAL


def test_run_matches_reference_when_a_firing_unit_refills_a_consumed_variable():
    # at step 1 u1 consumes the Boolean m while u2 writes a new m into it;
    # m keeps u2's value and u3 reads it at step 2
    c = validate_circuit(
        {"a": CTRL, "y": CTRL, "g": BOOL, "k": CTRL, "m": BOOL, "y2": CTRL, "h": BOOL,
         "z1": BOOL, "w": CTRL, "z2": CTRL, "out": BOOL, "c": CTRL},
        ["u0", "up", "u1", "u2", "u3"],
        {
            "i1": Flow("a", "u0"), "i2": Flow("y", "up"), "i3": Flow("g", "up"), "i4": Flow("k", "u1"),
            "i5": Flow("m", "u1"), "i6": Flow("y2", "u2"), "i7": Flow("h", "u2"), "i8": Flow("m", "u3"),
            "i9": Flow("z2", "u3"),
        },
        {
            "o1": Flow("u0", "k"), "o2": Flow("u0", "m"), "o3": Flow("up", "y2"), "o4": Flow("up", "h"),
            "o5": Flow("u1", "z1"), "o6": Flow("u2", "m"), "o7": Flow("u2", "z2"), "o8": Flow("u3", "out"),
            "o9": Flow("u3", "c"), "o10": Flow("u1", "w"),
        },
    )
    for inputs in all_inputs(c):
        tr = assert_same_run(c, inputs, 0)
        assert tr.steps[1].ready == ("u1", "u2")
        assert tr.steps[2].state.values["m"] is inputs["g"]
        assert tr.outcome is Outcome.FINAL


@pytest.mark.parametrize("max_steps", [1, 5])
def test_run_matches_reference_on_step_limit(max_steps):
    c = fixture("flipflop")
    limited = 0
    for inputs in all_inputs(c):
        for seed in range(8):
            tr = assert_same_run(c, inputs, seed, max_steps=max_steps)
            if tr.outcome is Outcome.STEP_LIMIT:
                assert tr.final_state.time == max_steps
                assert tr.steps[-1].enabled
                limited += 1
    assert limited


def test_run_matches_reference_on_write_conflict():
    c = validate_circuit(
        {"c1": CTRL, "c2": CTRL, "b1": BOOL, "b2": BOOL, "t": BOOL, "z1": CTRL, "z2": CTRL},
        ["u1", "u2"],
        {"i1": Flow("c1", "u1"), "i2": Flow("b1", "u1"), "i3": Flow("c2", "u2"), "i4": Flow("b2", "u2")},
        {"o1": Flow("u1", "t"), "o2": Flow("u1", "z1"), "o3": Flow("u2", "t"), "o4": Flow("u2", "z2")},
    )
    outcomes = {
        assert_same_run(c, inputs, seed).outcome for inputs in all_inputs(c) for seed in range(4)
    }
    assert outcomes == {Outcome.WRITE_CONFLICT, Outcome.FINAL}


def test_step_replays_run(rnd):
    # step() and run() share one firing function and one draw order
    circuits = [random_circuit(rnd, 4) for _ in range(20)] + [toggle_loop(), fixture("p53"), fixture("flipflop")]
    for c in circuits:
        inputs = random_inputs(rnd, c)
        for seed in range(4):
            tr = run(c, initial_state(c, inputs), ExecConfig(seed=seed, max_steps=60))
            rng = SplitMix64(seed)
            st = tr.steps[0].state
            for rec in tr.steps[1:]:
                st = step(c, st, rng)
                assert st == rec.state
            assert is_final(c, st) == (tr.outcome is Outcome.FINAL)


def with_doubled_flows(c: Circuit, rnd: random.Random) -> Circuit:
    """``c`` with some flows repeated under fresh ids: pre- and post-sets are unchanged."""
    ins, outs = dict(c.in_flows), dict(c.out_flows)
    for flows, prefix in ((ins, "di"), (outs, "do")):
        for k, f in enumerate(list(flows.values())):
            for j in range(rnd.choice((0, 0, 1, 2))):
                flows[f"{prefix}{k}.{j}"] = f
    return validate_circuit(c.var_types, c.units, ins, outs)


def doubled_flow_circuit() -> Circuit:
    """Units reading one variable through two in-flows and writing one through two out-flows.

    ``u1`` and ``u3`` share the pre-set {a, b} through different flow
    counts, so they compete; ``u2`` reads m twice and writes out twice.
    """
    return validate_circuit(
        {"a": CTRL, "b": BOOL, "m": CTRL, "n": BOOL, "z": CTRL, "out": BOOL},
        ["u1", "u2", "u3"],
        {
            "i1": Flow("a", "u1"), "i2": Flow("a", "u1"), "i3": Flow("b", "u1"), "i4": Flow("b", "u1"),
            "i5": Flow("a", "u3"), "i6": Flow("b", "u3"),
            "i7": Flow("m", "u2"), "i8": Flow("m", "u2"), "i9": Flow("n", "u2"),
        },
        {
            "o1": Flow("u1", "m"), "o2": Flow("u1", "m"), "o3": Flow("u1", "n"), "o4": Flow("u1", "n"),
            "o5": Flow("u3", "m"), "o6": Flow("u3", "n"),
            "o7": Flow("u2", "z"), "o8": Flow("u2", "out"), "o9": Flow("u2", "out"),
        },
    )


def test_run_matches_reference_with_repeated_flows():
    c = doubled_flow_circuit()
    picks = set()
    for inputs in all_inputs(c):
        for seed in range(16):
            tr = assert_same_run(c, inputs, seed)
            assert tr.outcome is Outcome.FINAL and tr.final_state.time == 2
            assert tr.final_state.values["out"] is inputs["b"]  # NOT of NOT b
            picks.add(tr.steps[0].ready)
    assert picks == {("u1",), ("u3",)}
    rnd = random.Random(0xD0B)
    for name in sorted(REGISTRY):
        d = with_doubled_flows(fixture(name), rnd)
        for inputs in all_inputs(d):
            for seed in range(3):
                assert_same_run(d, inputs, seed, max_steps=300)
    runs = 0
    while runs < 150:
        c = random_flow_graph(rnd)
        if c is None:
            continue
        d = with_doubled_flows(c, rnd)
        for seed in range(3):
            assert_same_run(d, random_inputs(rnd, d), seed, max_steps=40)
            runs += 1


def ordered_conflict() -> Circuit:
    """Three pre-sets write the Boolean t; ``ub`` competes with ``ub2``, which leaves t alone.

    Each unit negates its one Boolean input. When the writers disagree the
    conflict names the last earlier writer of t in firing order, so the
    text depends on the draw between ``ub`` and ``ub2``.
    """
    units = {"ua": ("c1", "b1"), "ub": ("c2", "b2"), "ub2": ("c2", "b2"), "uc": ("c3", "b3")}
    ins = {f"i{u}{k}": Flow(v, u) for u, vs in units.items() for k, v in enumerate(vs)}
    outs = {f"o{u}": Flow(u, f"z{u}") for u in units}
    outs.update({f"t{u}": Flow(u, "t") for u in ("ua", "ub", "uc")})
    names = sorted({"t", *(f.src for f in ins.values()), *(f.dst for f in outs.values())})
    tags = {v: CTRL if v[0] in "cz" else BOOL for v in names}
    return validate_circuit(tags, units, ins, outs)


def test_run_matches_reference_on_order_dependent_conflict_text():
    c = ordered_conflict()
    texts = set()
    for inputs in all_inputs(c):
        for seed in range(12):
            tr = assert_same_run(c, inputs, seed)
            if tr.outcome is Outcome.WRITE_CONFLICT:
                texts.add(tr.conflict)
    assert texts == {
        f"units {a!r} and {b!r} write different Booleans into 't'"
        for a, b in (("ua", "ub"), ("ua", "uc"), ("ub", "uc"))
    }
    # with ua and ub agreeing and uc disagreeing, the draw decides who uc clashes with
    inputs = {"c1": S, "c2": S, "c3": S, "b1": B0, "b2": B0, "b3": B1}
    by_pick = {}
    for seed in range(12):
        tr = run(c, initial_state(c, inputs), ExecConfig(seed=seed))
        by_pick[tr.steps[0].ready] = tr.conflict
        with pytest.raises(WriteConflictError) as exc:
            step(c, initial_state(c, inputs), SplitMix64(seed))
        assert str(exc.value) == tr.conflict and exc.value.var == "t"
    assert by_pick == {
        ("ua", "ub", "uc"): "units 'ub' and 'uc' write different Booleans into 't'",
        ("ua", "ub2", "uc"): "units 'ua' and 'uc' write different Booleans into 't'",
    }
    # two clashing outputs of one unit: the first in sorted order is named,
    # whatever the order of the flows
    two = validate_circuit(
        {"c1": CTRL, "c2": CTRL, "b1": BOOL, "b2": BOOL, "t1": BOOL, "t2": BOOL, "z1": CTRL, "z2": CTRL},
        ["u1", "u2"],
        {"i1": Flow("c1", "u1"), "i2": Flow("b1", "u1"), "i3": Flow("c2", "u2"), "i4": Flow("b2", "u2")},
        {"o1": Flow("u1", "t2"), "o2": Flow("u1", "t1"), "o3": Flow("u1", "z1"),
         "o4": Flow("u2", "t2"), "o5": Flow("u2", "t1"), "o6": Flow("u2", "z2")},
    )
    tr = assert_same_run(two, {"c1": S, "c2": S, "b1": B0, "b2": B1}, 0)
    assert tr.conflict == "units 'u1' and 'u2' write different Booleans into 't1'"


def test_one_circuit_serves_interleaved_runs_steps_and_queries(rnd):
    # every call reads the circuit's one set of execution tables; the calls
    # are interleaved across seeds and circuits, and the tables stay invisible
    circuits = [fixture("p53"), fixture("flipflop"), toggle_loop(), doubled_flow_circuit(), ordered_conflict()]
    circuits += [random_circuit(rnd, 4) for _ in range(6)]
    fresh = [loads_circuit(dumps_circuit(c)) for c in circuits]
    docs = [dumps_circuit(c) for c in circuits]

    def relabelled(c):
        new, m = relabel(c)
        return dumps_circuit(new), morphism_to_dict(m)

    renamed = [relabelled(c) for c in circuits]
    for seed in range(10):
        for c in circuits:
            adj = flow_adjacency(c)
            inputs = random_inputs(rnd, c)
            tr = assert_same_run(c, inputs, seed, max_steps=60)
            rng_query, rng_step, rng_ref = SplitMix64(seed), SplitMix64(seed), SplitMix64(seed)
            fired = tr.steps if tr.outcome is Outcome.WRITE_CONFLICT else tr.steps[:-1]
            for i, rec in enumerate(fired):
                st = rec.state
                ready = ready_units(c, st, rng_query)
                assert ready == _ref_ready(adj, st, rng_ref) == frozenset(rec.ready)
                assert {u: reduce_unit(c, u, st) for u in ready} == rec.results
                assert all(reduce_unit(c, u, st) is _ref_reduce(c, adj, u, st) for u in ready)
                if rec is tr.steps[-1]:
                    with pytest.raises(WriteConflictError) as exc:
                        step(c, st, rng_step)
                    assert str(exc.value) == tr.conflict
                else:
                    assert step(c, st, rng_step) == tr.steps[i + 1].state
    for c, f, doc, names in zip(circuits, fresh, docs, renamed):
        assert c == f and f == c
        assert dumps_circuit(c) == doc
        assert relabelled(c) == names


# -- the trace writer --------------------------------------------------------


def hand_trace(states, outcome=Outcome.FINAL, conflict=None, enabled=(), ready=(), results=None) -> Trace:
    """One step per state (a ``State`` is used as given, a dict is wrapped)."""
    steps = [
        TraceStep(t, s if isinstance(s, State) else State(t, s), enabled, ready, dict(results or {}))
        for t, s in enumerate(states)
    ]
    return Trace(tuple(steps), outcome, conflict)


REUSED = State(0, {"a": B0, "b": S})
BIG = {f"v{i:02d}": S for i in range(40)}
BIG_SMALL_CHANGES = [
    BIG,
    {**BIG, "v07": B1},
    {v: x for v, x in BIG.items() if v != "v12"} | {"v07": B1},
    {v: x for v, x in BIG.items() if v != "v12"} | {"v07": B0, "v12a": B1, "a": S, "zz": B0},
]
ODD_IDS = {'q"uote': B1, "back\\slash": S, "caf\u00e9": B0, "new\nline": B1, "plain": S}


@pytest.mark.parametrize(
    "trace",
    [
        hand_trace([{"a": B0}, {"a": B1}, {"a": S}, {"a": B0}]),
        hand_trace([{"a": B0, "b": S}, {"b": S}, {"a": B1, "b": S}, {}, {"a": S}]),
        hand_trace([REUSED, REUSED, {"a": B1, "b": S}, REUSED]),
        hand_trace([{}]),
        hand_trace([{}, {"a": B0}, {}]),
        hand_trace([{"x": B0}, {"y": S}], ready=("u1", "u2", "u3"), results={"u3": S, "u1": B1, "u2": B0}),
        hand_trace([{"x": S}, {"y": S, "x": S}], Outcome.STEP_LIMIT, enabled=("u1", "u2")),
        hand_trace([{"t": B0}], Outcome.WRITE_CONFLICT, "units 'u1' and 'u2' write different Booleans into 't'",
                   ("u1", "u2"), ("u1", "u2"), {"u1": B0, "u2": B1}),
        hand_trace([ODD_IDS, {**ODD_IDS, 'q"uote': B0}, {}], Outcome.DEADLOCK, enabled=('e"1', "\u00e9"),
                   ready=("\n",), results={"\n": B1, 'q"': S}),
        hand_trace(BIG_SMALL_CHANGES),
    ],
    ids=[
        "value-changes-in-domain", "leaves-and-reenters", "reused-state-object", "empty-state",
        "empty-between-entries", "multi-unit-results", "step-limit-no-ready", "conflict-tail", "escaped-ids",
        "large-state-small-changes",
    ],
)
def test_trace_writer_matches_reference_on_hand_built_traces(trace):
    assert trace_to_jsonl(trace) == reference_trace_to_jsonl(trace)


WRITER_IDS = hs.sampled_from(["a", "b", "c", "u1", "u2", 'q"', "b\\s", "\u00e9", "n\nl"])
WRITER_VALUES = hs.sampled_from([S, B0, B1])


@hs.composite
def random_traces(draw) -> Trace:
    """Random state sequences: entries change, leave, re-enter, or whole states repeat."""
    states: list[State] = []
    for t in range(draw(hs.integers(1, 8))):
        if states and draw(hs.booleans()):
            states.append(states[-1] if draw(hs.booleans()) else draw(hs.sampled_from(states)))
        else:
            states.append(State(t, draw(hs.dictionaries(WRITER_IDS, WRITER_VALUES, max_size=6))))
    ids = hs.lists(WRITER_IDS, unique=True, max_size=3).map(lambda xs: tuple(sorted(xs)))
    steps = tuple(
        TraceStep(t, s, draw(ids), draw(ids), draw(hs.dictionaries(WRITER_IDS, WRITER_VALUES, max_size=3)))
        for t, s in enumerate(states)
    )
    outcome = draw(hs.sampled_from(list(Outcome)))
    conflict = draw(hs.sampled_from([None, 'units "u1" and "u2" clash on \u00e9']))
    return Trace(steps, outcome, conflict)


@settings(max_examples=300, deadline=None)
@given(random_traces())
def test_trace_writer_matches_reference_on_random_state_sequences(trace):
    assert trace_to_jsonl(trace) == reference_trace_to_jsonl(trace)


# -- delta-backed traces -----------------------------------------------------


def spine_netlist(n_gates: int, n_inputs: int, rnd: random.Random) -> NandDag:
    """A spine of gates, each also fed by a side gate of two inputs; depth about ``n_gates / 2``.

    Every side gate fires at step 0, after which the state holds O(n)
    variables for O(n) steps: the shape where a snapshot per step is
    quadratic.
    """
    inputs = [f"x{i}" for i in range(n_inputs)]
    nodes = {x: "input" for x in inputs}
    edges = [("x0", "g0"), ("x1", "g0")]
    nodes["g0"] = "gate"
    spine, k = "g0", 1
    while k + 2 <= n_gates:
        side, nxt = f"g{k}", f"g{k + 1}"
        a, b = rnd.sample(inputs, 2)
        nodes[side] = nodes[nxt] = "gate"
        edges += [(a, side), (b, side), (spine, nxt), (side, nxt)]
        spine, k = nxt, k + 2
    nodes["y0"] = "output"
    edges.append((spine, "y0"))
    return validate_dag(nodes, edges)


def chains_into(n: int, tail: str) -> Circuit:
    """Two control chains of ``n`` units, then a tail that decides the outcome.

    Chain x carries a Boolean p that each unit negates; chain y is bare. With
    tail ``race`` the chain ends write NOT p and NOT b into t at step n, a
    write conflict exactly when they differ; with tail ``stuck`` the end
    waits on c, which only a unit waiting on its own output produces, so the
    run deadlocks at step n.
    """
    tags = {**{f"x{i}": CTRL for i in range(n + 1)}, **{f"y{i}": CTRL for i in range(n + 1)}}
    tags.update({f"p{i}": BOOL for i in range(n + 1)})
    pre = {f"kx{i}": (f"x{i}", f"p{i}") for i in range(n)}
    post = {f"kx{i}": (f"x{i + 1}", f"p{i + 1}") for i in range(n)}
    pre.update({f"ky{i}": (f"y{i}",) for i in range(n)})
    post.update({f"ky{i}": (f"y{i + 1}",) for i in range(n)})
    end = (f"x{n}", f"p{n}")
    if tail == "race":
        tags.update({"b": BOOL, "t": BOOL, "z1": CTRL, "z2": CTRL})
        pre.update({"u1": end, "u2": (f"y{n}", "b")})
        post.update({"u1": ("t", "z1"), "u2": ("t", "z2")})
    else:
        tags.update({"c": CTRL, "e": CTRL, "d": CTRL})
        pre.update({"u1": (*end, f"y{n}", "c"), "u2": ("e",)})
        post.update({"u1": ("e",), "u2": ("c", "d")})
    ins = {f"i:{u}:{v}": Flow(v, u) for u, vs in pre.items() for v in vs}
    outs = {f"o:{u}:{v}": Flow(u, v) for u, vs in post.items() for v in vs}
    return validate_circuit(tags, sorted(pre), ins, outs)


def long_runs() -> list[tuple[Circuit, State, ExecConfig]]:
    """Runs long enough for a replay to leave several checkpoints, covering every outcome."""
    rnd = random.Random(0xDE17A)
    d = spine_netlist(120, 5, rnd)
    spine = to_control(d).circuit
    race, stuck = chains_into(60, "race"), chains_into(60, "stuck")
    cases = [(spine, lift_inputs(d, {x: rnd.randint(0, 1) for x in d.inputs()}), ExecConfig(seed=0)) for _ in range(2)]
    for b in (B0, B1):
        cases.append((race, initial_state(race, {"x0": S, "p0": B1, "y0": S, "b": b}), ExecConfig(seed=1)))
    cases.append((stuck, initial_state(stuck, {"x0": S, "p0": B0, "y0": S}), ExecConfig(seed=2)))
    cases.append((stuck, initial_state(stuck, {"x0": S, "p0": B0, "y0": S}), ExecConfig(seed=2, max_steps=45)))
    for c in (toggle_loop(), flipflop_head_loop()):
        for inputs in all_inputs(c):
            cases += [(c, initial_state(c, inputs), ExecConfig(seed=seed, max_steps=120)) for seed in range(0, 40, 3)]
    return cases


def reference_assignment_history(trace: Trace, var: str) -> list[tuple[int, Value]]:
    """The snapshot reading: times at which ``var`` (re)entered the domain."""
    events, had = [], False
    for s in trace.steps:
        has = var in s.state.values
        if has and not had:
            events.append((s.time, s.state.values[var]))
        had = has
    return events


def assert_checkpoint_gaps(tr: Trace) -> None:
    """Between two steps holding a state, fewer than max(|earlier state|, 32) changes come before the later step's own."""
    gap = since = None
    for s in tr.steps:
        if s._state is not None:
            if gap is not None:
                assert since < gap, (s.time, since, gap)
            gap, since = max(len(s._state.values), 32), 0
        else:
            since += len(s._change[1]) + len(s._change[2])


def test_a_run_holds_only_the_initial_and_the_final_state():
    for c, init, cfg in long_runs():
        tr, want = run(c, init, cfg), reference_run(c, init, cfg)
        assert tr.steps[0]._state is init and tr.steps[0].state is init
        assert tr.steps[-1]._state is not None and tr.steps[-1]._state == want.final_state
        assert all(s._state is None for s in tr.steps[1:-1])


@pytest.mark.parametrize("order", ["forward", "reverse", "random"])
def test_replayed_states_match_reference_snapshots(order):
    rnd = random.Random(0x0DE7)
    outcomes, crossed = set(), 0
    for c, init, cfg in long_runs():
        tr, want = run(c, init, cfg), reference_run(c, init, cfg)
        held = [s._state is not None for s in tr.steps]
        assert held[0] and held[-1]  # the initial and the last state are kept
        if len(tr.steps) >= 3:
            # a replay of one state leaves checkpoints spaced as the docstrings say
            once = run(c, init, cfg)
            once.steps[-2].state
            assert_checkpoint_gaps(once)
            crossed += any(s._state is not None for s in once.steps[1:-2])
        positions = list(range(len(tr.steps)))
        if order == "reverse":
            positions.reverse()
        elif order == "random":
            rnd.shuffle(positions)
        for i in positions:
            assert tr.steps[i].state == want.steps[i].state, (i, tr.outcome)
            assert tr.steps[i].state is tr.steps[i].state  # a replayed state is kept
        assert tr == want and tr.conflict == want.conflict
        outcomes.add(tr.outcome)
    assert outcomes == set(Outcome)
    assert crossed >= 6


def test_counts_reads_and_the_writer_replay_no_state():
    for c, init, cfg in long_runs()[:6]:
        tr = run(c, init, cfg)
        held = [s._state for s in tr.steps]
        assert len(tr.steps) > 40 and None in held
        sum(len(s.ready) for s in tr.steps)
        tr.fired_units()
        tr.final_state
        trace_to_jsonl(tr)
        for v in c.var_types:
            tr.assignment_history(v)
        assert all(s._state is h for s, h in zip(tr.steps, held))


def test_assignment_history_matches_the_snapshot_reading():
    for c, init, cfg in long_runs()[:8]:
        tr, want = run(c, init, cfg), reference_run(c, init, cfg)
        for v in sorted(c.var_types):
            assert tr.assignment_history(v) == reference_assignment_history(want, v), v
    hand = hand_trace([{"a": B0}, {"a": B1}, {}, {"a": S, "b": B0}, {"b": B0}])
    assert hand.assignment_history("a") == [(0, B0), (3, S)]
    assert hand.assignment_history("b") == [(3, B0)]


def test_rewrapped_sliced_and_mixed_run_steps_write_the_reference_bytes():
    rnd = random.Random(0x5EED)
    for c, init, cfg in long_runs()[:10]:
        tr, want = run(c, init, cfg), reference_run(c, init, cfg)

        def same(steps, ref_steps):
            got = trace_to_jsonl(Trace(steps=tuple(steps), outcome=tr.outcome, conflict=tr.conflict))
            assert got == reference_trace_to_jsonl(Trace(tuple(ref_steps), want.outcome, want.conflict))

        same(tr.steps, want.steps)
        k = rnd.randrange(1, len(tr.steps))
        same(tr.steps[k:], want.steps[k:])
        same(tr.steps[::-1], want.steps[::-1])
        # a hand-built step in place of a recorded one: its neighbours are diffed
        mixed = list(tr.steps)
        ref = want.steps[k]
        mixed[k] = TraceStep(ref.time, ref.state, ref.enabled, ref.ready, ref.results)
        same(mixed, want.steps)
        # states already read, in any order, change nothing
        for i in rnd.sample(range(len(tr.steps)), min(5, len(tr.steps))):
            tr.steps[i].state
        same(tr.steps, want.steps)


def test_trace_steps_keep_dataclass_equality_and_repr():
    st = State(0, {"a": B0})
    a = TraceStep(0, st, ("u",), ("u",), {"u": B1})
    assert a == TraceStep(0, State(0, {"a": B0}), ("u",), ("u",), {"u": B1})
    assert a != TraceStep(1, st, ("u",), ("u",), {"u": B1})
    assert a != (0, st, ("u",), ("u",), {"u": B1})
    assert repr(a) == f"TraceStep(time=0, state={st!r}, enabled=('u',), ready=('u',), results={{'u': {B1!r}}})"
    with pytest.raises(TypeError):
        hash(a)


def retained_trace_bytes(n_gates: int) -> int:
    d = spine_netlist(n_gates, 8, random.Random(0))
    c = to_control(d).circuit
    init = lift_inputs(d, {x: i % 2 for i, x in enumerate(d.inputs())})
    run(c, init, ExecConfig())  # builds the circuit's execution tables outside the measurement
    tracemalloc.start()
    try:
        tr = run(c, init, ExecConfig())
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert tr.outcome is Outcome.FINAL
    return size


def test_trace_memory_grows_with_the_changes_not_with_steps_x_state():
    # a snapshot per step kept about 4.7 MB at 800 gates and 69 MB at 3,200
    # (15x for 4x the gates); the changes grow linearly
    small, large = retained_trace_bytes(800), retained_trace_bytes(3200)
    assert large * 5 <= 69e6, large
    assert large <= 8 * small, (small, large)


# -- soundness ---------------------------------------------------------------


def sound_through_cycle() -> Circuit:
    # a reaches the outvar only around the loop b -> u2 -> c -> u3 -> b
    return validate_circuit(
        {"a": CTRL, "b": CTRL, "c": CTRL, "out": CTRL},
        ["u1", "u2", "u3"],
        {"i1": Flow("a", "u1"), "i2": Flow("b", "u2"), "i3": Flow("c", "u3")},
        {"o1": Flow("u1", "b"), "o2": Flow("u2", "c"), "o3": Flow("u3", "b"), "o4": Flow("u3", "out")},
    )


def feeds_closed_cycle() -> Circuit:
    # p feeds only the loop q -> u3 -> r -> u4 -> q, which has no exit
    return validate_circuit(
        {"a": CTRL, "out": CTRL, "p": CTRL, "q": CTRL, "r": CTRL},
        ["u1", "u2", "u3", "u4"],
        {"i1": Flow("a", "u1"), "i2": Flow("p", "u2"), "i3": Flow("q", "u3"), "i4": Flow("r", "u4")},
        {"o1": Flow("u1", "out"), "o2": Flow("u1", "p"), "o3": Flow("u2", "q"), "o4": Flow("u3", "r"), "o5": Flow("u4", "q")},
    )


def dead_end_branch() -> Circuit:
    # u1 forks: one branch ends in the outvar, the other loops on itself
    return validate_circuit(
        {"a": CTRL, "out": CTRL, "x": BOOL, "loop": CTRL},
        ["u1", "u2"],
        {"i1": Flow("a", "u1"), "i2": Flow("x", "u2"), "i3": Flow("loop", "u2")},
        {"o1": Flow("u1", "out"), "o2": Flow("u1", "x"), "o3": Flow("u1", "loop"), "o4": Flow("u2", "loop")},
    )


def with_inoutvar() -> Circuit:
    return parallel(fixture("and"), unit_circuit())


@pytest.mark.parametrize(
    "build, want",
    [
        (sound_through_cycle, True),
        (feeds_closed_cycle, False),
        (dead_end_branch, False),
        (with_inoutvar, False),
        (unit_circuit, False),
    ],
)
def test_is_sound_hand_built_cases(build, want):
    c = build()
    assert not circuit_violations(c)
    assert reference_is_sound(c) is want
    assert is_sound(c) is want


def test_is_sound_matches_reference_on_fixtures_and_loops():
    circuits = [fixture(name) for name in sorted(REGISTRY)] + [toggle_loop(), flipflop_head_loop()]
    for c in circuits:
        assert is_sound(c) == reference_is_sound(c)


def test_is_sound_matches_reference_on_random_circuits(rnd):
    for _ in range(60):
        c = random_circuit(rnd, 4)
        assert is_sound(c) == reference_is_sound(c)
        d = parallel(c, unit_circuit())
        assert not is_sound(d) and not reference_is_sound(d)


def test_is_sound_matches_reference_on_random_flow_graphs():
    rnd = random.Random(0x50D)
    verdicts = []
    while len(verdicts) < 400:
        c = random_flow_graph(rnd)
        if c is None:
            continue
        want = reference_is_sound(c)
        assert is_sound(c) is want, c
        verdicts.append(want)
    assert True in verdicts and False in verdicts
