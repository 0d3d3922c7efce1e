"""Differential tests: the adjacency queries, soundness and boundary sets against flow walks.

A circuit caches one adjacency, its execution tables. ``pre_set``,
``post_set`` and ``consumers`` read them, ``producers`` scans the out-flows,
and ``is_sound`` and ``boundary_sets`` each walk the flows once and keep
nothing. Here every answer is compared with the adjacency read straight off
the flows (``conftest.flow_adjacency``), on every fixture, random circuits,
random flow graphs, circuits with repeated flows and random morphisms.
"""

from __future__ import annotations

import random

import pytest

from ctrlcirc import coproduct, identity_morphism, in_adjoint, is_sound, out_adjoint
from ctrlcirc.fixtures import REGISTRY, fixture
from ctrlcirc.model import Circuit
from ctrlcirc.morphisms import _boundary_gains, boundary_sets
from conftest import flow_adjacency, random_circuit, random_morphism
from test_differential import (
    doubled_flow_circuit,
    flipflop_head_loop,
    random_flow_graph,
    reference_is_sound,
    toggle_loop,
    with_doubled_flows,
)


def reference_boundary_sets(src: Circuit, dst: Circuit, f_v, f_u):
    """Variables whose image gains producers (resp. consumers) not in the image, from flow walks."""
    a, b = flow_adjacency(src), flow_adjacency(dst)
    gain_in = frozenset(v for v in src.var_types if b.producers[f_v[v]] - {f_u[u] for u in a.producers[v]})
    gain_out = frozenset(v for v in src.var_types if b.consumers[f_v[v]] - {f_u[u] for u in a.consumers[v]})
    return gain_in, gain_out


def sample_circuits() -> list[Circuit]:
    rnd = random.Random(0xAD1)
    circuits = [fixture(name) for name in sorted(REGISTRY)] + [toggle_loop(), flipflop_head_loop()]
    circuits += [random_circuit(rnd, 4) for _ in range(40)]
    while len(circuits) < 200:
        c = random_flow_graph(rnd)
        if c is not None:
            circuits.append(c)
    doubled = [doubled_flow_circuit()] + [with_doubled_flows(c, rnd) for c in circuits]
    return circuits + doubled


def test_queries_and_soundness_match_flow_walks():
    verdicts = set()
    for c in sample_circuits():
        want = flow_adjacency(c)
        assert {u: c.pre_set(u) for u in c.units} == want.pre
        assert {u: c.post_set(u) for u in c.units} == want.post
        assert {v: c.consumers(v) for v in c.var_types} == want.consumers
        assert {v: c.producers(v) for v in c.var_types} == want.producers
        assert is_sound(c) is reference_is_sound(c)
        verdicts.add(is_sound(c))
    assert verdicts == {True, False}


def test_ids_outside_the_circuit_raise_key_error():
    c = fixture("flipflop")
    unit, var = min(c.units), min(c.var_types)
    for query, arg in (
        (c.pre_set, "nope"),
        (c.post_set, "nope"),
        (c.consumers, "nope"),
        (c.producers, "nope"),
        (c.pre_set, var),
        (c.post_set, var),
        (c.consumers, unit),
        (c.producers, unit),
    ):
        with pytest.raises(KeyError):
            query(arg)


def sample_morphisms():
    """Random morphisms, maps into circuits with repeated flows, and arbitrary type-keeping maps."""
    rnd = random.Random(0xB0B)
    for _ in range(150):
        yield random_morphism(rnd)
    for _ in range(30):
        c = with_doubled_flows(random_circuit(rnd, 3), rnd)
        yield identity_morphism(c)
        yield in_adjoint(c).morphism
        yield out_adjoint(c).morphism
        cp = coproduct(c, with_doubled_flows(random_circuit(rnd, 2), rnd))
        yield cp.left
        yield cp.right


def shuffled_maps(rnd: random.Random, src: Circuit, dst: Circuit):
    """Type-keeping variable and unit maps that need not be a morphism's."""
    by_tag: dict = {}
    for v, t in dst.var_types.items():
        by_tag.setdefault(t, []).append(v)
    f_v = {v: rnd.choice(sorted(by_tag[t])) for v, t in src.var_types.items()}
    f_u = {u: rnd.choice(sorted(dst.units)) for u in src.units}
    return f_v, f_u


def test_boundary_sets_match_flow_walks_on_random_morphisms():
    rnd = random.Random(0xB5)
    gained = 0
    for m in sample_morphisms():
        assert boundary_sets(m.src, m.dst, m.f_v, m.f_u) == reference_boundary_sets(m.src, m.dst, m.f_v, m.f_u)
        if m.dst.units and all(t in m.dst.var_types.values() for t in m.src.var_types.values()):
            f_v, f_u = shuffled_maps(rnd, m.src, m.dst)
            got = boundary_sets(m.src, m.dst, f_v, f_u)
            assert got == reference_boundary_sets(m.src, m.dst, f_v, f_u)
            gained += bool(got[0] or got[1])
            vs = rnd.sample(sorted(m.src.var_types), rnd.randint(0, len(m.src.var_types)))
            assert _boundary_gains(m.src, m.dst, f_v, f_u, vs) == (got[0] & set(vs), got[1] & set(vs))
    assert gained > 50


def test_boundary_gains_raise_on_an_image_outside_the_target():
    m = coproduct(fixture("and"), fixture("not")).left
    v = min(m.src.var_types)
    f_v = {**m.f_v, v: "not-in-dst"}
    with pytest.raises(KeyError):
        boundary_sets(m.src, m.dst, f_v, m.f_u)
    with pytest.raises(KeyError):
        _boundary_gains(m.src, m.dst, f_v, m.f_u, [v])


def test_soundness_and_boundary_checks_keep_nothing_on_the_circuit():
    assert not any(hasattr(Circuit, n) for n in ("_unit_pre", "_unit_post", "_var_consumers", "_var_producers"))
    m = coproduct(fixture("p53"), fixture("flipflop")).left
    src, dst = (Circuit(c.var_types, c.units, c.in_flows, c.out_flows, c.sigma) for c in (m.src, m.dst))
    is_sound(src)
    boundary_sets(src, dst, m.f_v, m.f_u)
    dst.producers(min(dst.var_types))
    assert "_exec_tables" not in vars(src) and "_exec_tables" not in vars(dst)
