"""Differential tests: a circuit's execution rows against the seven-table build they replaced.

``Circuit._exec_tables`` keeps one row per unit, ``(pre, bool_in, post,
group, draw)``, beside the consumers table. ``run`` counts each unit's
missing inputs from the domain, at the invars on a circuit's first run,
where the counts give the root of the step tree it plants, and wherever a
later run leaves the tree. ``reference_tables`` is a frozen copy of the earlier build, which kept
seven tables keyed by unit or variable and each unit's missing-input count
at the invars. Every sampled circuit must give the same rows, consumers and
tree root, and the recount at the invars must equal the old counts.
"""

from __future__ import annotations

import random

import pytest

from ctrlcirc import BOOL, CTRL, Outcome
from ctrlcirc.dynamics import _missing_inputs
from ctrlcirc.fixtures import REGISTRY, fixture
from ctrlcirc.nanddag import random_dag, to_control
from ctrlcirc.serialize import dumps_circuit, loads_circuit
from conftest import random_circuit
from test_differential import doubled_flow_circuit, random_flow_graph, toggle_loop, with_doubled_flows
from test_run_memo import competing_random_circuit, step_tree


def reference_tables(c):
    """The execution tables as seven dicts, built as the earlier ``Circuit._exec_tables`` built them."""
    vt = c.var_types
    pre = {u: [] for u in c.units}
    post = {u: [] for u in c.units}
    cons = {v: [] for v in vt}
    for f in c.in_flows.values():
        pre[f.dst].append(f.src)
        cons[f.src].append(f.dst)
    for f in c.out_flows.values():
        post[f.src].append(f.dst)
    pre_sets = {u: tuple(sorted(set(vs))) for u, vs in pre.items()}
    groups = {}
    for u in sorted(c.units):
        groups.setdefault(pre_sets[u], []).append(u)
    invars = c.invars
    return {
        "pre": pre_sets,
        "bool_in": {u: tuple(v for v in vs if vt[v] is BOOL) for u, vs in pre_sets.items()},
        "post": {u: tuple((v, vt[v] is CTRL) for v in sorted(set(vs))) for u, vs in post.items()},
        "group": {u: g for g in map(tuple, groups.values()) for u in g},
        "draw": {g[0]: len(g) for g in groups.values() if len(g) > 1},
        "consumers": {v: tuple(dict.fromkeys(us)) for v, us in cons.items()},
        "missing": {u: sum(v not in invars for v in vs) for u, vs in pre_sets.items()},
    }


def reference_root(c, ref):
    """The root node the earlier build gave the step tree: the invars' enabled units and their draw sizes."""
    if c.invars == c.outvars:
        return (), (), False, (), (), Outcome.FINAL, None
    enabled = tuple(sorted(u for u, n in ref["missing"].items() if not n))
    if not enabled:
        return (), (), False, (), (), Outcome.DEADLOCK, None
    return (), (), False, enabled, tuple(filter(None, map(ref["draw"].get, enabled))), None, 0


def sample():
    rnd = random.Random(0x7AB1E5)
    cases = [(f"random-{k}", random_circuit(rnd, 4)) for k in range(40)]
    cases += [(f"doubled-{k}", with_doubled_flows(random_circuit(rnd, 3), rnd)) for k in range(10)]
    cases += [(f"branched-{k}", competing_random_circuit(rnd)) for k in range(12)]
    flow_graphs = (random_flow_graph(rnd) for _ in range(200))
    cases += [(f"flow-graph-{k}", c) for k, c in enumerate(c for c in flow_graphs if c is not None)]
    cases += [(f"fixture-{name}", fixture(name)) for name in sorted(REGISTRY)]
    cases += [("doubled-flows", doubled_flow_circuit()), ("toggle-loop", toggle_loop())]
    for k in range(12):
        c = to_control(random_dag(rnd, max_inputs=5, max_gates=14)).circuit
        cases += [(f"netlist-{k}", c), (f"netlist-{k}-read-back", loads_circuit(dumps_circuit(c)))]
    return cases


CASES = sample()


def test_the_sample_has_competing_groups_and_netlists():
    competing = [name for name, c in CASES if any(len(row[3]) > 1 for row in c._exec_tables.units.values())]
    assert any(name.startswith("branched-") for name in competing)
    assert {"fixture-p53", "fixture-flipflop", "toggle-loop", "doubled-flows"} <= set(competing)
    assert not any(name.startswith("netlist-") for name in competing)


@pytest.mark.parametrize("c", [pytest.param(c, id=name) for name, c in CASES])
def test_rows_consumers_root_and_counts_match_the_seven_table_build(c):
    ref = reference_tables(c)
    t = c._exec_tables
    assert t._fields == ("units", "consumers")
    assert t.units.keys() == c.units
    for u, row in t.units.items():
        want = (ref["pre"][u], ref["bool_in"][u], ref["post"][u], ref["group"][u], ref["draw"].get(u, 0))
        assert row == want, u
    assert t.consumers == ref["consumers"]
    assert step_tree(c).root == reference_root(c, ref)
    assert _missing_inputs(t.units, dict.fromkeys(c.invars)) == ref["missing"]
