"""Differential tests: the isomorphism search against the original one.

``reference_is_isomorphic`` is the first implementation: complete recursive
backtracking in a fixed rarest-signature order, where every candidate is
checked against every element already mapped. The library refines colours
first and then searches neighbour-first on an explicit stack; both must
give the same verdict, and the library's witness must be a valid, bijective
morphism. The reference is exponential on chains and netlists of a few
dozen elements, so it only sees small inputs.
"""

from __future__ import annotations

import itertools
import random
from typing import Mapping, Optional

from ctrlcirc import BOOL, CTRL, invert_iso, is_isomorphic, is_mono, relabel, validate_morphism
from ctrlcirc import colimits
from ctrlcirc.colimits import _refine, _var_unit_graph
from ctrlcirc.fixtures import REGISTRY
from ctrlcirc.model import Circuit, Flow
from ctrlcirc.morphisms import CircuitMorphism
from ctrlcirc.nanddag import random_dag, to_control, validate_dag
from conftest import flow_multiplicities, random_circuit, random_primitive


# -- reference implementation ------------------------------------------------


def _ref_var_signature(c: Circuit, v: str):
    return (
        c.var_types[v].value,
        len([1 for f in c.out_flows.values() if f.dst == v]),
        len([1 for f in c.in_flows.values() if f.src == v]),
    )


def _ref_unit_signature(c: Circuit, u: str, var_sig):
    ins = sorted(var_sig[f.src] for f in c.in_flows.values() if f.dst == u)
    outs = sorted(var_sig[f.dst] for f in c.out_flows.values() if f.src == u)
    return (tuple(ins), tuple(outs))


def reference_is_isomorphic(a: Circuit, b: Circuit) -> Optional[CircuitMorphism]:
    if a.sigma != b.sigma:
        return None
    if (len(a.vars), len(a.units), len(a.in_flows), len(a.out_flows)) != (
        len(b.vars),
        len(b.units),
        len(b.in_flows),
        len(b.out_flows),
    ):
        return None

    sig_a = {v: _ref_var_signature(a, v) for v in a.vars}
    sig_b = {v: _ref_var_signature(b, v) for v in b.vars}
    if sorted(sig_a.values()) != sorted(sig_b.values()):
        return None
    usig_a = {u: _ref_unit_signature(a, u, sig_a) for u in a.units}
    usig_b = {u: _ref_unit_signature(b, u, sig_b) for u in b.units}
    if sorted(usig_a.values()) != sorted(usig_b.values()):
        return None

    in_mult_a, out_mult_a = flow_multiplicities(a)
    in_mult_b, out_mult_b = flow_multiplicities(b)

    nodes: list[tuple[str, str]] = [("v", v) for v in a.sorted_vars()] + [("u", u) for u in a.sorted_units()]
    freq: dict = {}
    for kind, x in nodes:
        s = sig_a[x] if kind == "v" else usig_a[x]
        freq[(kind, s)] = freq.get((kind, s), 0) + 1
    nodes.sort(key=lambda n: (freq[(n[0], sig_a[n[1]] if n[0] == "v" else usig_a[n[1]])], n[1]))

    v_map: dict[str, str] = {}
    u_map: dict[str, str] = {}
    used_v: set[str] = set()
    used_u: set[str] = set()

    def consistent_var(v: str, w: str) -> bool:
        if sig_a[v] != sig_b[w]:
            return False
        for u, uu in u_map.items():
            if in_mult_a.get((v, u), 0) != in_mult_b.get((w, uu), 0):
                return False
            if out_mult_a.get((u, v), 0) != out_mult_b.get((uu, w), 0):
                return False
        return True

    def consistent_unit(u: str, uu: str) -> bool:
        if usig_a[u] != usig_b[uu]:
            return False
        for v, w in v_map.items():
            if in_mult_a.get((v, u), 0) != in_mult_b.get((w, uu), 0):
                return False
            if out_mult_a.get((u, v), 0) != out_mult_b.get((uu, w), 0):
                return False
        return True

    def extend(k: int) -> bool:
        if k == len(nodes):
            return True
        kind, x = nodes[k]
        if kind == "v":
            for w in sorted(b.vars - used_v):
                if consistent_var(x, w):
                    v_map[x] = w
                    used_v.add(w)
                    if extend(k + 1):
                        return True
                    del v_map[x]
                    used_v.remove(w)
        else:
            for uu in sorted(b.units - used_u):
                if consistent_unit(x, uu):
                    u_map[x] = uu
                    used_u.add(uu)
                    if extend(k + 1):
                        return True
                    del u_map[x]
                    used_u.remove(uu)
        return False

    if not extend(0):
        return None

    def flow_bijection(flows_a: Mapping[str, Flow], flows_b: Mapping[str, Flow], ends) -> Optional[dict[str, str]]:
        groups_a: dict[tuple[str, str], list[str]] = {}
        for fid in sorted(flows_a):
            f = flows_a[fid]
            groups_a.setdefault(ends(f), []).append(fid)
        groups_b: dict[tuple[str, str], list[str]] = {}
        for fid in sorted(flows_b):
            f = flows_b[fid]
            groups_b.setdefault((f.src, f.dst), []).append(fid)
        out: dict[str, str] = {}
        for key, ids in groups_a.items():
            target = groups_b.get(key)
            if target is None or len(target) != len(ids):
                return None
            out.update(zip(ids, target))
        return out

    f_i = flow_bijection(a.in_flows, b.in_flows, lambda f: (v_map[f.src], u_map[f.dst]))
    f_o = flow_bijection(a.out_flows, b.out_flows, lambda f: (u_map[f.src], v_map[f.dst]))
    if f_i is None or f_o is None:
        return None
    m = validate_morphism(a, b, v_map, u_map, f_i, f_o)
    if not is_mono(m):
        raise AssertionError("isomorphism witness must be mono")
    return m


# -- helpers -----------------------------------------------------------------


def assert_witness(w: Optional[CircuitMorphism], a: Circuit, b: Circuit) -> None:
    assert w is not None
    validate_morphism(a, b, w.f_v, w.f_u, w.f_i, w.f_o)
    assert is_mono(w)
    assert len(w.f_v) == len(b.vars) and len(w.f_u) == len(b.units)
    assert len(w.f_i) == len(b.in_flows) and len(w.f_o) == len(b.out_flows)


def assert_same_verdict(a: Circuit, b: Circuit) -> bool:
    got = is_isomorphic(a, b)
    want = reference_is_isomorphic(a, b) is not None
    assert (got is not None) == want
    if want:
        assert_witness(got, a, b)
    return want


def counts(c: Circuit) -> tuple[int, int, int, int]:
    return len(c.vars), len(c.units), len(c.in_flows), len(c.out_flows)


def same_count_pairs(circuits: list[Circuit]):
    """Every pair of distinct circuits with equal element counts."""
    groups: dict = {}
    for c in circuits:
        groups.setdefault(counts(c), []).append(c)
    for group in groups.values():
        yield from itertools.combinations(group, 2)


def deep_netlist(n_gates: int, rnd: random.Random):
    """A spine of gates, each also fed by a side gate of two of three inputs."""
    inputs = ["x0", "x1", "x2"]
    nodes = {x: "input" for x in inputs}
    nodes["g0"] = "gate"
    edges = [("x0", "g0"), ("x1", "g0")]
    spine, k = "g0", 1
    while k + 2 <= n_gates:
        side, nxt = f"g{k}", f"g{k + 1}"
        a, b = rnd.sample(inputs, 2)
        nodes[side] = nodes[nxt] = "gate"
        edges += [(a, side), (b, side), (spine, nxt), (side, nxt)]
        spine, k = nxt, k + 2
    nodes["y"] = "output"
    edges.append((spine, "y"))
    return validate_dag(nodes, edges)


def inverter_chain(n: int) -> Circuit:
    """``n`` inverters in a row: unit k reads c_k, b_k and writes c_k+1, b_k+1."""
    var_types = {f"{t}{k}": (CTRL if t == "c" else BOOL) for k in range(n + 1) for t in "cb"}
    in_flows, out_flows = {}, {}
    for k in range(n):
        for t in "cb":
            in_flows[f"i{t}{k}"] = Flow(f"{t}{k}", f"u{k}")
            out_flows[f"o{t}{k}"] = Flow(f"u{k}", f"{t}{k + 1}")
    return Circuit(var_types, frozenset(f"u{k}" for k in range(n)), in_flows, out_flows, frozenset({CTRL, BOOL}))


def buffer_cycles(*lengths: int, prefix: str = "c") -> Circuit:
    """Disjoint cycles of control buffers, one per length (not a valid circuit)."""
    var_types, units, in_flows, out_flows = {}, set(), {}, {}
    for c, n in enumerate(lengths):
        for k in range(n):
            v, u, nxt = f"{prefix}{c}v{k}", f"{prefix}{c}u{k}", f"{prefix}{c}v{(k + 1) % n}"
            var_types[v] = CTRL
            units.add(u)
            in_flows[f"i{v}"] = Flow(v, u)
            out_flows[f"o{v}"] = Flow(u, nxt)
    return Circuit(var_types, frozenset(units), in_flows, out_flows, frozenset({CTRL}))


# -- verdicts against the reference --------------------------------------------


def test_iso_matches_reference_on_random_circuits_and_primitives(rnd):
    pool = [random_circuit(rnd, 3) for _ in range(60)] + [random_primitive(rnd) for _ in range(30)]
    pairs = list(same_count_pairs(pool))
    verdicts = [assert_same_verdict(a, b) for a, b in pairs]
    assert len(pairs) >= 100 and any(verdicts) and not all(verdicts)


def test_iso_matches_reference_on_relabelled_copies(rnd):
    for _ in range(40):
        c = random_circuit(rnd, 3)
        copy, _ = relabel(c)
        assert assert_same_verdict(c, copy)
        assert_witness(is_isomorphic(copy, c), copy, c)


def test_iso_matches_reference_on_random_netlist_pairs(rnd):
    pool = [to_control(random_dag(rnd, 4, 8)).circuit for _ in range(80)]
    pairs = list(same_count_pairs(pool))
    for a, b in pairs:
        assert_same_verdict(a, b)
    assert len(pairs) >= 30


def test_iso_matches_reference_on_every_fixture():
    circuits = {name: build() for name, build in sorted(REGISTRY.items())}
    for name, c in circuits.items():
        assert assert_same_verdict(c, relabel(c)[0]), name
    for (na, a), (nb, b) in itertools.combinations(circuits.items(), 2):
        assert (is_isomorphic(a, b) is not None) == (reference_is_isomorphic(a, b) is not None), (na, nb)


# -- what refinement cannot decide -------------------------------------------


def test_search_refutes_a_pair_that_refinement_cannot_separate():
    two_triangles, hexagon = buffer_cycles(3, 3), buffer_cycles(6)
    names_a, init_a, adj_a = _var_unit_graph(two_triangles)
    names_b, init_b, adj_b = _var_unit_graph(hexagon)
    assert _refine(init_a, init_b, adj_a, adj_b) is not None
    assert is_isomorphic(two_triangles, hexagon) is None
    assert reference_is_isomorphic(two_triangles, hexagon) is None
    renamed = buffer_cycles(3, 3, prefix="z")
    assert_witness(is_isomorphic(two_triangles, renamed), two_triangles, renamed)


# -- scale -------------------------------------------------------------------


def test_iso_scales_to_deep_netlists_and_long_chains():
    # The netlist has about 4,000 elements, more than the default limit of
    # 1,000 frames that a recursion one element deep per frame would need.
    netlist = to_control(deep_netlist(800, random.Random(5))).circuit
    chain = inverter_chain(200)
    assert len(netlist.vars) + len(netlist.units) > 3900
    for c in (netlist, chain):
        copy, _ = relabel(c)
        w = is_isomorphic(c, copy)
        assert_witness(w, c, copy)
        assert_witness(invert_iso(w), copy, c)


def test_search_alone_matches_reference_without_refinement(rnd, monkeypatch):
    # With no refinement rounds only the type-tag histograms are compared,
    # so the search itself must refute every non-isomorphic pair.
    monkeypatch.setattr(colimits, "_REFINE_ROUNDS", 0)
    pool = [to_control(random_dag(rnd, 4, 8)).circuit for _ in range(80)]
    pool += [random_circuit(rnd, 3) for _ in range(60)]
    verdicts = [assert_same_verdict(a, b) for a, b in same_count_pairs(pool)]
    assert verdicts.count(False) >= 50
