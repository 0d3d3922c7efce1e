"""Differential test: a step's shape and values against the one-pass firing code they replace.

A step splits into its shape, which depends only on which variables hold
values (``dynamics._shape``: the variables that leave the domain, those
that enter it, and whether two ready units write one variable), and its
values (each ready unit's Boolean and the entries ``dynamics._write``
produces). ``frozen_fire`` and ``frozen_step`` are frozen copies of the
earlier firing code, which reduced, wrote, deleted and diffed the
assignment in one function. They are compared with ``step`` and ``_shape``
on states ``run`` never reaches: random subsets and supersets of the
domains runs reach, with random Booleans, on random composites, loops,
races and every fixture. The states must include a variable one ready unit
produces and another consumes, two units writing an equal Boolean into one
variable, and a write conflict.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Mapping, Optional, Sequence

from ctrlcirc import CTRL, ExecConfig, SplitMix64, State, Value, initial_state, ready_units, run, step
from ctrlcirc.dynamics import WriteConflictError, _check_tags, _reduce, _shape, _write
from ctrlcirc.fixtures import REGISTRY, fixture
from conftest import random_circuit, random_primitive
from test_differential import chains_into, random_inputs, toggle_loop
from test_run_memo import draw_race, pairs_loop, toggler

S = Value.SIGNAL


def frozen_fire(
    units: Mapping[str, tuple], ready: Sequence[str], values: dict[str, Value]
) -> tuple[dict[str, Value], dict[str, Value], list[str], list[str], Optional[tuple[str, str]]]:
    """Fire the sorted ``ready`` units into the assignment ``values``, in place.

    ``values`` becomes the next assignment. Each ready unit is reduced once;
    a produced variable takes its value even if another firing unit
    consumes it, and consumed-only variables leave the domain. Returns the
    results, the produced entries, the variables that left and that entered
    the domain, and an optional ``(variable, detail)`` conflict, which is
    found before ``values`` changes.
    """
    results = {}
    for u in ready:
        results[u] = _reduce(units[u][1], values)
    produced, conflict = _write(units, ready, results)
    if conflict:
        return results, produced, [], [], conflict
    left = []
    for u in ready:
        for v in units[u][0]:
            if v in values and v not in produced:
                del values[v]
                left.append(v)
    entered = [v for v in produced if v not in values]
    values.update(produced)
    return results, produced, left, entered, None


def frozen_step(c, st: State, rng: SplitMix64) -> State:
    _check_tags(c, st.values)
    values = dict(st.values)
    conflict = frozen_fire(c._exec_tables.units, sorted(ready_units(c, st, rng)), values)[4]
    if conflict:
        raise WriteConflictError(*conflict)
    return State(st.time + 1, values)


def circuits():
    rnd = random.Random(0x5A4E)
    cases = [(f"random-{k}", random_circuit(rnd, extra_ops=4)) for k in range(40)]
    cases += [(f"primitive-{k}", random_primitive(rnd)) for k in range(10)]
    cases += [(f"{tail}-{n}", chains_into(n, tail)) for tail in ("race", "stuck") for n in (0, 2)]
    cases += [("draw_race", draw_race()), ("pairs_loop", pairs_loop(3)), ("toggle_loop", toggle_loop())]
    cases += [("toggler", toggler())]
    return cases + [(name, fixture(name)) for name in sorted(REGISTRY)]


def unreached_states(c, rnd: random.Random, k: int) -> list[State]:
    """Random subsets and supersets of the domains ``k`` runs of ``c`` reach, and random subsets of all its variables.

    An id a state keeps holds its reached value or, at random, a fresh one.
    """
    tags = c.var_types

    def pick(v, values):
        if v in values and rnd.random() < 0.7:
            return values[v]
        return S if tags[v] is CTRL else Value.from_bit(rnd.randint(0, 1))

    states = []
    for seed in range(k):
        tr = run(c, initial_state(c, random_inputs(rnd, c)), ExecConfig(seed=seed, max_steps=20))
        for s in tr.steps:
            values = s.state.values
            domain, rest = sorted(values), sorted(tags.keys() - values.keys())
            for ids in (
                rnd.sample(domain, rnd.randint(0, len(domain))),
                domain + rnd.sample(rest, rnd.randint(1, len(rest))) if rest else domain,
                rnd.sample(sorted(tags), rnd.randint(1, len(tags))),
            ):
                states.append(State(s.time, {v: pick(v, values) for v in ids}))
    return states


def observed(units, ready, st: State, conflict) -> set[str]:
    """Which of the required cases this step shows."""
    seen = set()
    produced_by = {v: u for u in ready for v, _ in units[u][2]}
    if any(produced_by.get(v, u) != u for u in ready for v in units[u][0]):
        seen.add("produced by one unit, consumed by another")
    if conflict:
        seen.add("conflict")
    else:
        writers = Counter(v for u in ready for v, is_ctrl in units[u][2] if not is_ctrl)
        if any(n > 1 for n in writers.values()):
            seen.add("an equal Boolean written twice")
    return seen


def test_step_and_shape_match_the_frozen_firing_code_off_the_reachable_states():
    rnd = random.Random(29)
    seen = set()
    for name, c in circuits():
        units = c._exec_tables.units
        for st in unreached_states(c, rnd, 4):
            seed = rnd.randrange(1 << 64)
            try:
                want = frozen_step(c, st, SplitMix64(seed))
            except WriteConflictError as e:
                want = e
            try:
                got = step(c, st, SplitMix64(seed))
            except WriteConflictError as e:
                got = e
            if isinstance(want, WriteConflictError):
                assert isinstance(got, WriteConflictError), (name, st)
                assert (got.var, str(got)) == (want.var, str(want)), (name, st)
            else:
                assert got == want, (name, st)
            ready = sorted(ready_units(c, st, SplitMix64(seed)))
            _, produced, left, entered, conflict = frozen_fire(units, ready, dict(st.values))
            got_left, got_entered, double = _shape(units, ready, st.values)
            if conflict:
                assert double, (name, st)
            else:
                assert (got_left, got_entered) == (tuple(left), entered), (name, st)
                assert double == (len(produced) < sum(len(units[u][2]) for u in ready)), (name, st)
            seen |= observed(units, ready, st, conflict)
    assert seen == {
        "produced by one unit, consumed by another",
        "an equal Boolean written twice",
        "conflict",
    }, seen
