"""Differential tests: netlist validation, topological order and import against graphlib references.

A netlist derives its edge tables and one Kahn order once; ``dag_violations``,
the ``eval_dag`` oracle and ``to_control`` read them. The references below
derive every fact afresh: degrees in their own loop, cycles with
``graphlib.TopologicalSorter``, and the transformation from edge-set
comprehensions sorted apiece. Violation lists must agree name for name and in
order, and transformation results must compare equal, on random netlists,
synthesised family members, the benchmark's deep netlists and deliberately
broken graphs.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

from ctrlcirc import BOOL, CTRL, ValidationError
from ctrlcirc.model import Circuit, Flow
from ctrlcirc.nanddag import (
    NandDag,
    NodeKind,
    TransformResult,
    bool_var,
    ctrl_var,
    dag_violations,
    random_dag,
    synth_family,
    to_control,
    topo_order,
    validate_dag,
)
from ctrlcirc.serialize import loads_dag

# the benchmark's deep-netlist generator, read from ``bench/workloads.py``
_BENCH_WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("bench_workloads", _BENCH_WORKLOADS)
_workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_workloads)
deep_netlist_doc = _workloads.deep_netlist_doc


def reference_dag_violations(nodes, edges) -> list[str]:
    bad: list[str] = []
    if not edges:
        bad.append("no-edges")
    indeg = {n: 0 for n in nodes}
    outdeg = {n: 0 for n in nodes}
    for a, b in edges:
        outdeg[a] += 1
        indeg[b] += 1
    for n, k in sorted(nodes.items()):
        if indeg[n] + outdeg[n] == 0:
            bad.append(f"isolated-node:{n}")
        elif k is NodeKind.INPUT and indeg[n] != 0:
            bad.append(f"input-degree:{n}")
        elif k is NodeKind.OUTPUT and outdeg[n] != 0:
            bad.append(f"output-degree:{n}")
        elif k is NodeKind.GATE and (indeg[n] != 2 or outdeg[n] != 1):
            bad.append(f"gate-degree:{n}")
    for a, b in sorted(edges):
        ka, kb = nodes[a], nodes[b]
        if ka is NodeKind.OUTPUT or kb is NodeKind.INPUT or (ka is NodeKind.INPUT and kb is NodeKind.OUTPUT):
            bad.append(f"bad-edge:{a}->{b}")
    ts = TopologicalSorter()
    for n in nodes:
        ts.add(n)
    for a, b in edges:
        ts.add(b, a)
    try:
        list(ts.static_order())
    except CycleError:
        bad.append("cyclic")
    return bad


def reference_to_control(d: NandDag) -> TransformResult:
    gates = set(d.gates())
    produced = {e for e in d.edges if e[0] in gates}
    consumed = {e for e in d.edges if e[1] in gates}
    var_types, var_origin = {}, {}
    for e in sorted(d.edges):
        var_types[ctrl_var(e)] = CTRL
        var_types[bool_var(e)] = BOOL
        var_origin[ctrl_var(e)] = (e, 1)
        var_origin[bool_var(e)] = (e, 2)
    in_flows = {}
    for e in sorted(consumed):
        in_flows[f"i:{e[0]}>{e[1]}#1"] = Flow(ctrl_var(e), e[1])
        in_flows[f"i:{e[0]}>{e[1]}#2"] = Flow(bool_var(e), e[1])
    out_flows = {}
    for e in sorted(produced):
        out_flows[f"o:{e[0]}>{e[1]}#1"] = Flow(e[0], ctrl_var(e))
        out_flows[f"o:{e[0]}>{e[1]}#2"] = Flow(e[0], bool_var(e))
    return TransformResult(
        circuit=Circuit(var_types, frozenset(gates), in_flows, out_flows, frozenset({CTRL, BOOL})),
        var_origin=var_origin,
        unit_origin={g: g for g in sorted(gates)},
        input_bindings={n: tuple((ctrl_var(e), bool_var(e)) for e in sorted(d.out_edges[n])) for n in d.inputs()},
        output_bindings={n: tuple(bool_var(e) for e in sorted(d.in_edges[n])) for n in d.outputs()},
    )


def sample_netlists() -> list[NandDag]:
    rnd = random.Random(0xDA6)
    dags = [random_dag(rnd, rnd.randint(2, 8), rnd.randint(1, 40)) for _ in range(150)]
    gen = random.Random(20250628)
    dags += [loads_dag(deep_netlist_doc(gates, n_in, gen)) for gates, n_in in ((200, 2), (400, 3), (801, 5))]
    for k in range(1, 5):
        tables = [[rnd.randint(0, 1) for _ in range(2**k)] for _ in range(4)] + [[0] * 2**k, [1] * 2**k]
        dags += [synth_family({k: t}).members[k].dag for t in tables]
    return dags


def broken(d: NandDag, rnd: random.Random) -> tuple[dict[str, NodeKind], set[tuple[str, str]]]:
    """``d`` with one to three faults: a self-loop, a back edge, a re-pointed out-edge, a lost or extra edge, a lone node, no edges."""
    nodes, edges = dict(d.nodes), set(d.edges)
    order = topo_order(d)
    gates = [n for n in order if nodes[n] is NodeKind.GATE]
    faults = ["self-loop", "back-edge", "cycle-swap", "drop", "extra", "lonely", "empty"]
    for fault in rnd.sample(faults, rnd.randint(1, 3)):
        if fault == "self-loop":
            g = rnd.choice(gates)
            edges.add((g, g))
        elif fault == "back-edge" and len(gates) > 1:
            i, j = sorted(rnd.sample(range(len(gates)), 2))
            edges.add((gates[j], gates[i]))
        elif fault == "cycle-swap" and len(gates) > 1:
            # re-point a gate's only out-edge at an earlier gate, closing a cycle
            i, j = sorted(rnd.sample(range(len(gates)), 2))
            outs = [e for e in edges if e[0] == gates[j]]
            if len(outs) == 1:
                edges.discard(outs[0])
                edges.add((gates[j], gates[i]))
        elif fault == "drop" and edges:
            edges.discard(rnd.choice(sorted(edges)))
        elif fault == "extra":
            edges.add((rnd.choice(sorted(nodes)), rnd.choice(sorted(nodes))))
        elif fault == "lonely":
            nodes[f"z{len(nodes)}"] = rnd.choice(list(NodeKind))
        elif fault == "empty":
            edges.clear()
    return nodes, edges


def test_violation_lists_match_the_graphlib_reference():
    rnd = random.Random(0xBAD)
    seen: set[str] = set()
    for d in sample_netlists():
        assert dag_violations(d) == reference_dag_violations(d.nodes, d.edges) == []
        for _ in range(4):
            nodes, edges = broken(d, rnd)
            want = reference_dag_violations(nodes, edges)
            assert dag_violations(NandDag(nodes, frozenset(edges))) == want
            try:
                validate_dag(nodes, edges)
            except ValidationError as e:
                assert e.violations == want
            else:
                assert want == []
            seen.update(v.split(":", 1)[0] for v in want)
    kinds = {"no-edges", "isolated-node", "input-degree", "output-degree", "gate-degree", "bad-edge", "cyclic"}
    assert seen == kinds


def test_a_cycle_with_every_degree_right_is_reported_alone():
    # g1 = NAND(a, g3), g2 = NAND(b, g1), g3 = NAND(c, g2): fan-in 2 and fan-out 1 throughout
    nodes = {"a": "input", "b": "input", "c": "input", "g1": "gate", "g2": "gate", "g3": "gate"}
    edges = [("a", "g1"), ("g3", "g1"), ("b", "g2"), ("g1", "g2"), ("c", "g3"), ("g2", "g3")]
    with pytest.raises(ValidationError) as exc:
        validate_dag(nodes, edges)
    assert exc.value.violations == ["cyclic"]
    assert reference_dag_violations({n: NodeKind(k) for n, k in nodes.items()}, frozenset(edges)) == ["cyclic"]


def test_transformation_matches_the_reference():
    for d in sample_netlists():
        got, want = to_control(d), reference_to_control(d)
        assert got == want
        # tables are filled in sorted edge order, as the reference fills them
        for field in ("var_types", "in_flows", "out_flows"):
            assert list(getattr(got.circuit, field)) == list(getattr(want.circuit, field))


def test_topo_order_is_a_topological_order():
    for d in sample_netlists():
        order = topo_order(d)
        assert sorted(order) == sorted(d.nodes)
        at = {n: i for i, n in enumerate(order)}
        assert all(at[a] < at[b] for a, b in d.edges)
        sources = [n for n in order if not d.in_edges[n]]
        assert order[: len(sources)] == sorted(sources)


def test_kahn_order_leaves_out_exactly_the_nodes_on_or_after_a_cycle():
    rnd = random.Random(0xC1C)
    for d in sample_netlists()[:60]:
        nodes, edges = broken(d, rnd)
        g = NandDag(nodes, frozenset(edges))
        succ = {n: {b for _, b in g.out_edges[n]} for n in nodes}

        def reach(n):
            seen, stack = set(), list(succ[n])
            while stack:
                m = stack.pop()
                if m not in seen:
                    seen.add(m)
                    stack += succ[m]
            return seen

        reached = {n: reach(n) for n in nodes}
        on_cycle = {n for n in nodes if n in reached[n]}
        after = on_cycle | {m for n in on_cycle for m in reached[n]}
        assert set(topo_order(g)) == set(nodes) - after
