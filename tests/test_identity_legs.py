"""A gluing's left leg is a read-only view over its left operand's ids.

The gluing kernel keeps the left operand's ids, so each map of its left leg
is the identity, except where a leg that is not mono glues two left
elements together. Each map is a view over the left operand's own id
container, not a copy. These tests route every gluing of a corpus through
a check that compares each left-leg map with a plain dict reference:
``dict(zip(ids, ids))``, updated so that each merged left id goes to the
least left id of its seeded class. Here a plain union-find over the seed
pairs works out those classes. The check covers equality both ways, order
of keys and items, ``get``, ``in``, ``len``, a ``KeyError`` on foreign ids,
and no item assignment.

The corpus is that of ``test_glue_differential.py``: random spans, spans
with non-mono legs that merge, chains, rows, ``branch``, both iterations
and every fixture builder. A 500-inverter chain pins the cost: each map of
an unmerged left leg holds the left operand's own containers and an empty
merge map, and nothing per element. The circuit's cached views, which the
kernel also fills in on its results, must equal a fresh recomputation.
"""

from __future__ import annotations

import gc
import sys
from collections.abc import Mapping, MutableMapping
from functools import cached_property

import pytest

from ctrlcirc import CompositionError, branch, colimits, fixtures, identity_morphism, parallel, pushout, sequence
from ctrlcirc.colimits import Span
from ctrlcirc.model import Circuit
from ctrlcirc.operators import iterate_head, iterate_tail, span_from_pairing
from conftest import random_circuit, random_pairing
from test_glue_differential import (
    FIXTURE_BUILDERS,
    UnionFind,
    any_pairing,
    codiagonal,
    doubled_flow_circuit,
    inverter_chain,
)
from test_operators import _flipflop_wiring, _toggle_wiring


def _id_containers(c: Circuit):
    return c.var_types, c.units, c.in_flows, c.out_flows


def reference_left_maps(left: Circuit, seeds) -> list[dict[str, str]]:
    """The four maps of a left leg as plain dicts: each left id to itself, or to its class's least left id."""
    maps = []
    for ids, pairs in zip(_id_containers(left), seeds):
        uf = UnionFind([("L", x) for x in ids] + [("R", y) for _, y in pairs])
        for x, y in pairs:
            uf.union(("L", x), ("R", y))
        ref = dict(zip(ids, ids))
        for members in uf.classes():
            lefts = [x for side, x in members if side == "L"]
            ref.update((x, lefts[0]) for x in lefts[1:])  # members are sorted, so lefts[0] is the least
        maps.append(ref)
    return maps


def assert_same_map(m, ref: dict[str, str], foreign) -> None:
    """``m`` behaves as the dict ``ref`` under every read, in the same order, and takes no writes."""
    assert isinstance(m, Mapping) and not isinstance(m, MutableMapping)
    assert m == ref and ref == m
    assert list(m) == list(ref) and list(m.keys()) == list(ref)
    assert list(m.items()) == list(ref.items()) and list(m.values()) == list(ref.values())
    assert len(m) == len(ref) and m.keys() == ref.keys()
    for x, y in ref.items():
        assert x in m and m[x] == y and m.get(x) == y
    for x in foreign:
        assert x not in m and m.get(x) is None and m.get(x, "default") == "default"
        with pytest.raises(KeyError):
            m[x]
    with pytest.raises(TypeError):
        m["no/such/id"] = "no/such/id"


@pytest.fixture
def left_legs(monkeypatch):
    """Check the left leg of every gluing; returns, per gluing, whether it merged left elements."""
    merged: list[bool] = []
    glue = colimits._glue

    def checked(left, right, seeds, tag):
        result, left_leg, right_leg = glue(left, right, seeds, tag)
        refs = reference_left_maps(left, seeds)
        legs = (left_leg.f_v, left_leg.f_u, left_leg.f_i, left_leg.f_o)
        for m, ref, ids, r_ids, images in zip(legs, refs, *map(_id_containers, (left, right, result))):
            assert_same_map(m, ref, {*r_ids, *images}.difference(ids) | {"no/such/id"})
        merged.append(any(x != y for ref in refs for x, y in ref.items()))
        return result, left_leg, right_leg

    monkeypatch.setattr(colimits, "_glue", checked)
    return merged


def test_random_span_left_legs(left_legs, rnd):
    for k in range(80):
        left, right = random_circuit(rnd), random_circuit(rnd)
        pairs = random_pairing(rnd, left, right) if k % 2 else any_pairing(rnd, left, right)
        if pairs:
            try:
                pushout(span_from_pairing(left, right, pairs))
            except CompositionError:
                pass
    assert len(left_legs) > 150  # random_circuit glues too


def test_merging_span_left_legs(left_legs, rnd):
    """A right span leg that is not mono glues left elements together; a left one does not."""
    doubled, _, merge = doubled_flow_circuit()
    ident = identity_morphism(doubled)
    for span in (Span(doubled, merge, ident), Span(doubled, merge, merge), Span(doubled, ident, merge)):
        pushout(span)
    assert left_legs == [False, False, True]
    for _ in range(20):
        cp, fold = codiagonal(random_circuit(rnd))
        ident = identity_morphism(cp.circuit)
        for span in (Span(cp.circuit, fold, fold), Span(cp.circuit, fold, ident), Span(cp.circuit, ident, fold)):
            pushout(span)
    assert sum(left_legs) == 1 + 20


def test_chain_and_row_left_legs(left_legs):
    assert len(inverter_chain(40).units) == 40
    row = fixtures.build_not()
    for _ in range(39):
        row = parallel(row, fixtures.build_not())
    assert len(row.units) == 40
    assert len(left_legs) == 2 * 39 and not any(left_legs)


def test_branch_and_iteration_left_legs(left_legs):
    buf, toggle, flipflop = fixtures.build_buffer(), _toggle_wiring(), _flipflop_wiring()
    left_legs.clear()  # the operands' own gluings
    branch(buf, buf, [("c_in", "c_in"), ("b_in", "b_in")], [("c_out", "c_out"), ("b_out", "b_out")])
    iterate_head(toggle)
    iterate_tail(flipflop)
    assert len(left_legs) == 1 + 3 + 4


@pytest.mark.parametrize("name", sorted(FIXTURE_BUILDERS))
def test_fixture_left_legs(name, left_legs):
    FIXTURE_BUILDERS[name]()
    assert left_legs


def test_an_unmerged_left_leg_holds_no_copy_of_its_operand():
    """Along a 500-inverter chain, each left-leg map holds its operand's own container and an empty merge map."""
    inv = fixtures.build_not()
    acc, c_out, b_out = inv, "v3", "v4"
    for _ in range(499):
        r = sequence(acc, inv, [(c_out, "v1"), (b_out, "v2")])
        legs = (r.left_leg.f_v, r.left_leg.f_u, r.left_leg.f_i, r.left_leg.f_o)
        for m, ids in zip(legs, _id_containers(acc)):
            view = m.keys()
            assert view is ids if isinstance(ids, frozenset) else gc.get_referents(view) == [ids]
            assert [x for x in gc.get_referents(m) if x is not type(m)] == [view, {}]
            assert sys.getsizeof(m) < sys.getsizeof({})
        acc, c_out, b_out = r.circuit, r.right_leg.f_v["v3"], r.right_leg.f_v["v4"]
    assert len(acc.units) == 500 and len(r.left_leg.f_v) == len(acc.var_types) - 2


# -- the circuit's cached views ----------------------------------------------

VIEWS = ("vars", "flow_sources", "flow_targets", "invars", "outvars", "inoutvars", "_greatest_ids", "_exec_tables")


def recomputed_views(c: Circuit) -> dict:
    """Each cached view but the execution tables, worked out from the four fields alone."""
    vs = frozenset(c.var_types)
    sources = frozenset(f.src for f in c.in_flows.values())
    targets = frozenset(f.dst for f in c.out_flows.values())
    return {
        "vars": vs,
        "flow_sources": sources,
        "flow_targets": targets,
        "invars": vs - targets,
        "outvars": vs - sources,
        "inoutvars": vs - targets - sources,
        "_greatest_ids": tuple(max(ids, default=None) for ids in _id_containers(c)),
    }


def view_corpus(rnd) -> list[Circuit]:
    doubled, _, merge = doubled_flow_circuit()
    cp, fold = codiagonal(random_circuit(rnd))
    return [
        *(fixtures.fixture(name) for name in sorted(fixtures.REGISTRY)),
        *(random_circuit(rnd) for _ in range(30)),
        inverter_chain(30),
        parallel(inverter_chain(3), fixtures.build_not()),
        iterate_head(_toggle_wiring()).circuit,
        iterate_tail(_flipflop_wiring()).circuit,
        pushout(Span(doubled, identity_morphism(doubled), merge)).result,  # merges: greatest ids left unset
        pushout(Span(cp.circuit, identity_morphism(cp.circuit), fold)).result,
    ]


def test_cached_views_are_lock_free_descriptors():
    view = type(Circuit.invars)  # read on the class, a view gives back its descriptor
    assert {n for n, a in vars(Circuit).items() if isinstance(a, view)} == set(VIEWS)
    assert not any(isinstance(a, cached_property) for a in vars(Circuit).values())
    assert Circuit.invars.__doc__ == "Variables with no incoming flows."


def test_cached_views_equal_a_fresh_recomputation(rnd):
    for c in view_corpus(rnd):
        fresh = Circuit(c.var_types, c.units, c.in_flows, c.out_flows, c.sigma)
        assert not set(VIEWS) & fresh.__dict__.keys()
        for name, want in recomputed_views(c).items():
            got = getattr(c, name)
            assert got == want == getattr(fresh, name), name
            assert c.__dict__[name] is got and getattr(c, name) is got
        tables, fresh_tables = c._exec_tables, fresh._exec_tables
        assert c._exec_tables is tables and fresh_tables is not tables
        assert (tables.units, tables.consumers) == (fresh_tables.units, fresh_tables.consumers)
