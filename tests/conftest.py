"""Shared randomised generators for the test suite.

Plain ``random.Random``-driven builders are used both by hypothesis
strategies (wrapped via ``st.integers`` seeds) and by the bulk fuzz loops in
the acceptance suite, so everything stays reproducible from one seed.
"""

from __future__ import annotations

import random
from typing import NamedTuple

import pytest

from ctrlcirc import (
    BOOL,
    CTRL,
    Circuit,
    CircuitMorphism,
    compose_morphisms,
    coproduct,
    identity_morphism,
    in_adjoint,
    mk_primitive,
    out_adjoint,
    parallel,
    sequence,
)


def flow_multiplicities(c: Circuit):
    """Count the in- and out-flows per (src, dst) pair, for isomorphism oracles."""
    in_mult: dict[tuple[str, str], int] = {}
    for f in c.in_flows.values():
        in_mult[(f.src, f.dst)] = in_mult.get((f.src, f.dst), 0) + 1
    out_mult: dict[tuple[str, str], int] = {}
    for f in c.out_flows.values():
        out_mult[(f.src, f.dst)] = out_mult.get((f.src, f.dst), 0) + 1
    return in_mult, out_mult


class FlowAdjacency(NamedTuple):
    """Each unit's pre- and post-set and each variable's consumers and producers."""

    pre: dict[str, frozenset[str]]
    post: dict[str, frozenset[str]]
    consumers: dict[str, frozenset[str]]
    producers: dict[str, frozenset[str]]


def flow_adjacency(c: Circuit) -> FlowAdjacency:
    """The adjacency read straight off the flows, for reference implementations.

    The circuit's own queries read the execution tables that ``run`` reads
    too, so a reference built on them would share a table bug with the
    code it checks.
    """
    pre: dict[str, set[str]] = {u: set() for u in c.units}
    post: dict[str, set[str]] = {u: set() for u in c.units}
    cons: dict[str, set[str]] = {v: set() for v in c.var_types}
    prod: dict[str, set[str]] = {v: set() for v in c.var_types}
    for f in c.in_flows.values():
        pre[f.dst].add(f.src)
        cons[f.src].add(f.dst)
    for f in c.out_flows.values():
        post[f.src].add(f.dst)
        prod[f.dst].add(f.src)
    return FlowAdjacency(*({k: frozenset(x) for k, x in m.items()} for m in (pre, post, cons, prod)))


def random_primitive(rnd: random.Random) -> Circuit:
    return mk_primitive(rnd.randint(1, 2), rnd.randint(0, 2), rnd.randint(1, 2), rnd.randint(0, 2))


def tag_zip(a: Circuit, avars, b: Circuit, bvars) -> list[tuple[str, str]]:
    """Pair same-type variables of two sets in sorted order."""
    pairs: list[tuple[str, str]] = []
    for tag in (CTRL, BOOL):
        pairs.extend(
            zip(
                sorted(v for v in avars if a.var_types[v] is tag),
                sorted(v for v in bvars if b.var_types[v] is tag),
            )
        )
    return pairs


def random_pairing(rnd: random.Random, left: Circuit, right: Circuit):
    """A random valid sequencing pairing, or None if none exists."""
    ctrl_outs = sorted(v for v in left.outvars if left.var_types[v] is CTRL)
    ctrl_ins = sorted(v for v in right.invars if right.var_types[v] is CTRL)
    bool_outs = sorted(v for v in left.outvars if left.var_types[v] is BOOL)
    bool_ins = sorted(v for v in right.invars if right.var_types[v] is BOOL)
    if not ctrl_outs or not ctrl_ins:
        return None
    n_c = rnd.randint(1, min(len(ctrl_outs), len(ctrl_ins)))
    n_b = rnd.randint(0, min(len(bool_outs), len(bool_ins)))
    pairs = list(zip(rnd.sample(ctrl_outs, n_c), rnd.sample(ctrl_ins, n_c)))
    pairs.extend(zip(rnd.sample(bool_outs, n_b), rnd.sample(bool_ins, n_b)))
    return pairs


def random_circuit(rnd: random.Random, extra_ops: int = 2) -> Circuit:
    """A valid circuit built from primitives by sequencing/parallelising."""
    c = random_primitive(rnd)
    for _ in range(rnd.randint(0, extra_ops)):
        nxt = random_primitive(rnd)
        if rnd.random() < 0.4:
            c = parallel(c, nxt)
        else:
            pairs = random_pairing(rnd, c, nxt)
            if pairs is None:
                continue
            c = sequence(c, nxt, pairs).circuit
    return c


def random_total_pair(rnd: random.Random):
    """Two primitives whose interfaces admit a total pairing, plus the pairing."""
    c_mid, b_mid = rnd.randint(1, 2), rnd.randint(0, 2)
    left = mk_primitive(rnd.randint(1, 2), rnd.randint(0, 2), c_mid, b_mid)
    right = mk_primitive(c_mid, b_mid, rnd.randint(1, 2), rnd.randint(0, 2))
    return left, right, tag_zip(left, left.outvars, right, right.invars)


def random_total_triple(rnd: random.Random):
    """Three primitives chained by total pairings."""
    counts = [(rnd.randint(1, 2), rnd.randint(0, 2)) for _ in range(4)]
    circuits = [
        mk_primitive(counts[i][0], counts[i][1], counts[i + 1][0], counts[i + 1][1]) for i in range(3)
    ]
    return circuits


def random_morphism(rnd: random.Random) -> CircuitMorphism:
    """A valid morphism of a randomly chosen kind."""
    kind = rnd.randrange(5)
    if kind == 0:
        return identity_morphism(random_circuit(rnd))
    if kind == 1:
        cp = coproduct(random_circuit(rnd, 1), random_circuit(rnd, 1))
        return cp.left if rnd.random() < 0.5 else cp.right
    if kind == 2:
        while True:
            left, right = random_circuit(rnd, 1), random_primitive(rnd)
            pairs = random_pairing(rnd, left, right)
            if pairs:
                res = sequence(left, right, pairs)
                return res.left_leg if rnd.random() < 0.5 else res.right_leg
    if kind == 3:
        c = random_circuit(rnd, 1)
        adj = in_adjoint(c) if rnd.random() < 0.5 else out_adjoint(c)
        return adj.morphism
    cp = coproduct(random_primitive(rnd), random_primitive(rnd))
    inner = cp.left if rnd.random() < 0.5 else cp.right
    outer = coproduct(cp.circuit, random_primitive(rnd))
    return compose_morphisms(outer.left, inner)


@pytest.fixture
def rnd() -> random.Random:
    return random.Random(0xC1AC)
