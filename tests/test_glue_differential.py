"""Differential tests: the gluing kernel against the original pushout and coproduct.

``reference_pushout`` and ``reference_coproduct`` are the first
implementations: the pushout puts every element of both operands into a
general union-find and quotients each component set separately, and the
coproduct renames both operands by hand, to ``<tag>/<L|R>/<id>``. The
library glues both through one kernel that only unions seeded elements and
lets the left operand keep its ids. The two pairs of legs determine a
renaming of each id kind from the reference composite to the library's; it
must be well defined, bijective and order-preserving, and it must carry the
reference composite and legs onto the library's. Refusals must agree in
type, code and message, and the execution traces of every registered
fixture must keep the digests recorded with the original kernel.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from typing import Callable, Iterable

import pytest

from ctrlcirc import (
    BOOL,
    CTRL,
    CompositionError,
    ExecConfig,
    Value,
    branch,
    coproduct,
    copair,
    identity_morphism,
    in_adjoint,
    initial_state,
    out_adjoint,
    pushout,
    run,
    sequence,
    validate_circuit,
    validate_morphism,
)
from ctrlcirc import colimits, fixtures, operators
from ctrlcirc.colimits import CoproductResult, Cospan, Span
from ctrlcirc.model import Circuit, Flow, TypeTag, circuit_violations
from ctrlcirc.morphisms import CircuitMorphism, boundary_sets
from ctrlcirc.operators import IterationWiring, iterate_head, iterate_tail, span_from_pairing
from ctrlcirc.serialize import trace_to_jsonl
from conftest import random_circuit, random_morphism, random_pairing, random_primitive

# -- reference implementations ----------------------------------------------


class UnionFind:
    """Plain union-find over hashable items; classes are reported sorted."""

    def __init__(self, items: Iterable):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def classes(self) -> list[list]:
        by_root: dict = {}
        for x in self.parent:
            by_root.setdefault(self.find(x), []).append(x)
        return [sorted(members) for members in by_root.values()]


def _quotient(
    left_items: Iterable[str],
    right_items: Iterable[str],
    seeds: Iterable[tuple[str, str]],
    name: Callable[[tuple[str, str]], str],
) -> tuple[dict[tuple[str, str], str], list[list[tuple[str, str]]]]:
    tagged = [("L", x) for x in left_items] + [("R", x) for x in right_items]
    uf = UnionFind(tagged)
    for lx, rx in seeds:
        uf.union(("L", lx), ("R", rx))
    classes = uf.classes()
    rep: dict[tuple[str, str], str] = {}
    for members in classes:
        rep_name = min(name(m) for m in members)
        for m in members:
            rep[m] = rep_name
    return rep, classes


def reference_pushout(span: Span, tag: str = "po") -> Cospan:
    alpha, beta = span.left, span.right
    left, right = alpha.dst, beta.dst

    gi_b, go_b = boundary_sets(span.apex, right, beta.f_v, beta.f_u)
    gi_a, go_a = boundary_sets(span.apex, left, alpha.f_v, alpha.f_u)
    img_in_left = {alpha.f_v[v] for v in gi_b | go_b}
    img_in_right = {beta.f_v[v] for v in gi_a | go_a}
    if not img_in_left <= (left.invars | left.outvars):
        raise CompositionError(
            "pushout-does-not-exist",
            f"left operand would gain flows at non-interface variables {sorted(img_in_left - (left.invars | left.outvars))}",
        )
    if not img_in_right <= (right.invars | right.outvars):
        raise CompositionError(
            "pushout-does-not-exist",
            f"right operand would gain flows at non-interface variables {sorted(img_in_right - (right.invars | right.outvars))}",
        )

    def name(member: tuple[str, str]) -> str:
        side, orig = member
        return f"{tag}/{side}/{orig}"

    v_rep, v_classes = _quotient(
        left.vars, right.vars, ((alpha.f_v[v], beta.f_v[v]) for v in span.apex.vars), name
    )
    u_rep, _ = _quotient(
        left.units, right.units, ((alpha.f_u[u], beta.f_u[u]) for u in span.apex.units), name
    )
    i_rep, i_classes = _quotient(
        left.in_flows, right.in_flows, ((alpha.f_i[i], beta.f_i[i]) for i in span.apex.in_flows), name
    )
    o_rep, o_classes = _quotient(
        left.out_flows, right.out_flows, ((alpha.f_o[o], beta.f_o[o]) for o in span.apex.out_flows), name
    )

    sides = {"L": left, "R": right}
    var_types: dict[str, TypeTag] = {}
    for members in v_classes:
        tags = {sides[s].var_types[x] for s, x in members}
        if len(tags) != 1:
            raise AssertionError(f"pushout identified variables of different types: {members}")
        var_types[v_rep[members[0]]] = tags.pop()

    in_flows: dict[str, Flow] = {}
    for members in i_classes:
        images = {
            (v_rep[(s, sides[s].in_flows[x].src)], u_rep[(s, sides[s].in_flows[x].dst)]) for s, x in members
        }
        if len(images) != 1:
            raise AssertionError(f"pushout produced an ill-defined input-flow map on {members}")
        src, dst = images.pop()
        in_flows[i_rep[members[0]]] = Flow(src, dst)
    out_flows: dict[str, Flow] = {}
    for members in o_classes:
        images = {
            (u_rep[(s, sides[s].out_flows[x].src)], v_rep[(s, sides[s].out_flows[x].dst)]) for s, x in members
        }
        if len(images) != 1:
            raise AssertionError(f"pushout produced an ill-defined output-flow map on {members}")
        src, dst = images.pop()
        out_flows[o_rep[members[0]]] = Flow(src, dst)

    result = Circuit(
        var_types=var_types,
        units=frozenset(u_rep[m] for m in u_rep),
        in_flows=in_flows,
        out_flows=out_flows,
        sigma=left.sigma | right.sigma,
    )
    bad = circuit_violations(result)
    if bad:
        raise AssertionError(f"pushout produced an invalid circuit: {bad}")

    def leg(side: str, base: Circuit) -> CircuitMorphism:
        return validate_morphism(
            base,
            result,
            {v: v_rep[(side, v)] for v in base.vars},
            {u: u_rep[(side, u)] for u in base.units},
            {i: i_rep[(side, i)] for i in base.in_flows},
            {o: o_rep[(side, o)] for o in base.out_flows},
        )

    left_leg = leg("L", left)
    right_leg = leg("R", right)
    for v in span.apex.vars:
        if left_leg.f_v[alpha.f_v[v]] != right_leg.f_v[beta.f_v[v]]:
            raise AssertionError("pushout square does not commute")
    return Cospan(result, left_leg, right_leg)


def reference_coproduct(a: Circuit, b: Circuit, tag: str = "cp") -> CoproductResult:
    def ren(side: str, x: str) -> str:
        return f"{tag}/{side}/{x}"

    var_types = {ren("L", v): t for v, t in a.var_types.items()}
    var_types.update({ren("R", v): t for v, t in b.var_types.items()})
    units = frozenset([ren("L", u) for u in a.units] + [ren("R", u) for u in b.units])
    in_flows = {ren("L", i): Flow(ren("L", f.src), ren("L", f.dst)) for i, f in a.in_flows.items()}
    in_flows.update({ren("R", i): Flow(ren("R", f.src), ren("R", f.dst)) for i, f in b.in_flows.items()})
    out_flows = {ren("L", o): Flow(ren("L", f.src), ren("L", f.dst)) for o, f in a.out_flows.items()}
    out_flows.update({ren("R", o): Flow(ren("R", f.src), ren("R", f.dst)) for o, f in b.out_flows.items()})
    result = Circuit(var_types, units, in_flows, out_flows, a.sigma | b.sigma)
    bad = circuit_violations(result)
    if bad:
        raise AssertionError(f"coproduct produced an invalid circuit: {bad}")

    def inj(side: str, base: Circuit) -> CircuitMorphism:
        return validate_morphism(
            base,
            result,
            {v: ren(side, v) for v in base.vars},
            {u: ren(side, u) for u in base.units},
            {i: ren(side, i) for i in base.in_flows},
            {o: ren(side, o) for o in base.out_flows},
        )

    return CoproductResult(result, inj("L", a), inj("R", b))


# -- comparison helpers -----------------------------------------------------


def _triple(glued) -> tuple[Circuit, CircuitMorphism, CircuitMorphism]:
    if isinstance(glued, Cospan):
        return glued.result, glued.left_leg, glued.right_leg
    return glued.circuit, glued.left, glued.right


def _ids(c: Circuit):
    return c.var_types.keys(), c.units, c.in_flows.keys(), c.out_flows.keys()


def assert_same_up_to_renaming(got, want) -> None:
    """``got`` is ``want`` under the id renaming their legs determine.

    Each reference id is renamed to the library's image of any operand
    element the reference leg sends there. Per id kind, that renaming must
    be well defined, cover the reference composite, and be a bijection that
    keeps the sorted order of ids. Renaming the reference composite must
    give the library's, and each library leg must be the renaming after the
    reference leg (the well-definedness check asserts exactly that).
    """
    g_res, *g_legs = _triple(got)
    w_res, *w_legs = _triple(want)
    assert g_res.sigma == w_res.sigma
    for g_leg, w_leg in zip(g_legs, w_legs):
        assert g_leg.src == w_leg.src and g_leg.dst is g_res and w_leg.dst is w_res
    renamings = []
    for comp, g_ids, w_ids in zip(("f_v", "f_u", "f_i", "f_o"), _ids(g_res), _ids(w_res)):
        ren: dict[str, str] = {}
        for g_leg, w_leg in zip(g_legs, w_legs):
            g_map, w_map = getattr(g_leg, comp), getattr(w_leg, comp)
            assert g_map.keys() == w_map.keys()
            for x, w_id in w_map.items():
                assert ren.setdefault(w_id, g_map[x]) == g_map[x], f"{comp}: renaming ill-defined at {w_id!r}"
        assert ren.keys() == w_ids
        # equal to the sorted library ids: a bijection onto them that keeps order
        assert [ren[x] for x in sorted(w_ids)] == sorted(g_ids), f"{comp}: renaming not an order isomorphism"
        renamings.append(ren)
    rv, ru, ri, ro = renamings
    assert {rv[v]: t for v, t in w_res.var_types.items()} == g_res.var_types
    assert {ru[u] for u in w_res.units} == g_res.units
    assert {ri[i]: Flow(rv[f.src], ru[f.dst]) for i, f in w_res.in_flows.items()} == g_res.in_flows
    assert {ro[o]: Flow(ru[f.src], rv[f.dst]) for o, f in w_res.out_flows.items()} == g_res.out_flows


def assert_same_pushout(span: Span, tag: str = "po") -> bool:
    """Both kernels agree on ``span``; returns whether the pushout exists.

    A glued result that is not a valid circuit (say, its only control invar
    was identified with a produced variable) fails the reference's internal
    check with ``AssertionError``; the library refuses the same span with
    ``CompositionError("pushout-does-not-exist")``.
    """
    try:
        want = reference_pushout(span, tag)
    except CompositionError as e:
        with pytest.raises(CompositionError) as got:
            pushout(span, tag)
        assert (got.value.code, str(got.value)) == (e.code, str(e))
        return False
    except AssertionError as e:
        assert "invalid circuit" in str(e)
        with pytest.raises(CompositionError, match="not a valid circuit") as got:
            pushout(span, tag)
        assert got.value.code == "pushout-does-not-exist"
        return False
    assert_same_up_to_renaming(pushout(span, tag), want)
    return True


def assert_same_coproduct(a: Circuit, b: Circuit, tag: str = "cp") -> None:
    assert_same_up_to_renaming(coproduct(a, b, tag), reference_coproduct(a, b, tag))


def reference_span(left: Circuit, right: Circuit, pairs) -> Span:
    """The trivial apex a pair list describes, with its two legs, both validated."""
    apex = validate_circuit({f"a{i + 1}": left.var_types[l] for i, (l, _) in enumerate(pairs)})
    to_left, to_right = (
        validate_morphism(apex, c, dict(zip(apex.var_types, col)), {}, {}, {})
        for c, col in zip((left, right), zip(*pairs))
    )
    return Span(apex, to_left, to_right)


@pytest.fixture
def checked_kernel(monkeypatch):
    """Route every operator and fixture gluing through both kernels.

    Each call returns the library's result after asserting that the
    reference gives the same one up to renaming. A gluing along variable
    pairs is compared with the reference pushout of the span those pairs
    describe, and counts as a pushout. The returned counter records the
    calls.
    """
    calls = {"pushout": 0, "coproduct": 0}

    def checked_pushout(span, tag="po"):
        calls["pushout"] += 1
        want = reference_pushout(span, tag)
        got = colimits.pushout(span, tag)
        assert_same_up_to_renaming(got, want)
        return got

    def checked_glue_pairs(left, right, pairs, tag):
        calls["pushout"] += 1
        want = reference_pushout(reference_span(left, right, pairs), tag)
        got = colimits.glue_pairs(left, right, pairs, tag)
        assert_same_up_to_renaming(got, want)
        return got

    def checked_coproduct(a, b, tag="cp"):
        calls["coproduct"] += 1
        got = colimits.coproduct(a, b, tag)
        assert_same_up_to_renaming(got, reference_coproduct(a, b, tag))
        return got

    monkeypatch.setattr(operators, "pushout", checked_pushout)
    monkeypatch.setattr(operators, "glue_pairs", checked_glue_pairs)
    monkeypatch.setattr(operators, "coproduct", checked_coproduct)
    monkeypatch.setattr(fixtures, "coproduct", checked_coproduct)
    return calls


def any_pairing(rnd: random.Random, left: Circuit, right: Circuit):
    """A random injective same-type pairing with a control pair, or None.

    Unlike a sequencing pairing it may pick any variables, so the pushout
    of its span often does not exist.
    """
    free = {t: [v for v in right.sorted_vars() if right.var_types[v] is t] for t in (CTRL, BOOL)}
    for t in free.values():
        rnd.shuffle(t)
    pairs = []
    for l in rnd.sample(left.sorted_vars(), rnd.randint(1, len(left.vars))):
        if free[left.var_types[l]]:
            pairs.append((l, free[left.var_types[l]].pop()))
    if not any(left.var_types[l] is CTRL for l, _ in pairs):
        return None
    return pairs


def doubled_flow_circuit() -> tuple[Circuit, Circuit, CircuitMorphism]:
    """A circuit with two parallel input flows, its one-flow quotient, and the map."""
    doubled = validate_circuit(
        {"c1": "ctrl", "b": "bool", "c2": "ctrl"},
        ["u"],
        {"i1": ("c1", "u"), "i2": ("b", "u"), "i3": ("b", "u")},
        {"o1": ("u", "c2")},
    )
    single = validate_circuit(
        {"c1": "ctrl", "b": "bool", "c2": "ctrl"},
        ["u"],
        {"i1": ("c1", "u"), "i2": ("b", "u")},
        {"o1": ("u", "c2")},
    )
    ident = {x: x for x in ("c1", "b", "c2")}
    merge = validate_morphism(doubled, single, ident, {"u": "u"}, {"i1": "i1", "i2": "i2", "i3": "i2"}, {"o1": "o1"})
    return doubled, single, merge


def codiagonal(c: Circuit) -> tuple[CoproductResult, CircuitMorphism]:
    """``c + c`` and its non-mono fold onto ``c``."""
    cp = coproduct(c, c)
    ident = identity_morphism(c)
    return cp, copair(ident, ident, cp)


# -- random spans -----------------------------------------------------------


def test_trivial_apex_spans_match_reference(rnd):
    exists = refused = 0
    for k in range(150):
        left, right = random_circuit(rnd), random_circuit(rnd)
        pairs = random_pairing(rnd, left, right) if k % 2 else any_pairing(rnd, left, right)
        if not pairs:
            continue
        for tag in ("seq", "po"):
            if assert_same_pushout(span_from_pairing(left, right, pairs), tag):
                exists += 1
            else:
                refused += 1
    assert exists > 50 and refused > 10


def test_identity_and_adjoint_leg_spans_match_reference(rnd):
    for _ in range(60):
        m = random_morphism(rnd)
        ident = identity_morphism(m.src)
        for span in (Span(m.src, m, ident), Span(m.src, ident, m), Span(m.src, m, m)):
            assert_same_pushout(span)
        c = random_circuit(rnd)
        assert assert_same_pushout(Span(c, identity_morphism(c), identity_morphism(c)))
        for adj in (in_adjoint(c), out_adjoint(c)):
            assert_same_pushout(Span(adj.domain, adj.morphism, adj.morphism))
            assert_same_pushout(Span(adj.domain, adj.morphism, identity_morphism(adj.domain)))


def test_non_mono_legs_that_merge_flows_match_reference(rnd):
    doubled, _, merge = doubled_flow_circuit()
    ident = identity_morphism(doubled)
    assert assert_same_pushout(Span(doubled, merge, ident))
    assert assert_same_pushout(Span(doubled, merge, merge))
    cs = pushout(Span(doubled, merge, ident))
    assert len(cs.result.in_flows) == 2  # i2 and i3 of the right copy merged onto the left i2
    for _ in range(30):
        c = random_circuit(rnd)
        cp, fold = codiagonal(c)
        assert assert_same_pushout(Span(cp.circuit, fold, fold))
        assert assert_same_pushout(Span(cp.circuit, fold, identity_morphism(cp.circuit)))


def test_pushout_does_not_exist_on_the_same_spans(rnd):
    refused = 0
    for _ in range(60):
        a = random_circuit(rnd, 1)
        nexts = []
        while len(nexts) < 2:
            b = random_primitive(rnd)
            pairs = random_pairing(rnd, a, b)
            if pairs:
                nexts.append(sequence(a, b, pairs).left_leg)
        if not assert_same_pushout(Span(a, nexts[0], nexts[1])):
            refused += 1
    assert refused > 30


def test_random_coproducts_match_reference(rnd):
    for k in range(300):
        a, b = random_circuit(rnd), random_circuit(rnd)
        assert_same_coproduct(a, b, ("cp", "par", "br0")[k % 3])


def test_random_sequencings_match_reference(checked_kernel, rnd):
    for _ in range(300):
        left, right = random_circuit(rnd), random_primitive(rnd)
        pairs = random_pairing(rnd, left, right)
        if pairs:
            sequence(left, right, pairs)
    assert checked_kernel["pushout"] > 300  # random_circuit sequences too


# -- operators and fixtures -------------------------------------------------


# Every fixture builder that glues (the rest are single primitives).
FIXTURE_BUILDERS = {
    "and": fixtures.build_and,
    "or": fixtures.build_or,
    "buffer": fixtures.build_buffer,
    "alt_invert": fixtures.build_alt_invert,
    "alt_or_a": fixtures.build_alt_or_a,
    "alt_or_b": fixtures.build_alt_or_b,
    "alt_echo": fixtures.build_alt_echo,
    "p53": fixtures.build_p53,
    "entry": fixtures.build_entry,
    "action": fixtures.build_action,
    "next": fixtures.build_next_state,
    "flipflop": fixtures.build_flipflop,
}


@pytest.mark.parametrize("name", sorted(FIXTURE_BUILDERS))
def test_every_fixture_builder_glues_like_reference(name, checked_kernel):
    FIXTURE_BUILDERS[name]()
    assert checked_kernel["pushout"] + checked_kernel["coproduct"] > 0


def inverter_chain(n: int) -> Circuit:
    inv = fixtures.build_not()
    c = inv
    for _ in range(n - 1):
        outs = sorted(c.outvars)
        ctrl = next(v for v in outs if c.var_types[v] is CTRL)
        b = next(v for v in outs if c.var_types[v] is BOOL)
        c = sequence(c, inv, [(ctrl, "v1"), (b, "v2")]).circuit
    return c


def test_chains_glue_like_reference(checked_kernel):
    for n in (2, 5, 40):
        assert len(inverter_chain(n).units) == n
    assert checked_kernel["pushout"] == 1 + 4 + 39


def test_branch_glues_like_reference(checked_kernel):
    buf = fixtures.build_buffer()
    checked_kernel.update(pushout=0, coproduct=0)
    pairs_in = [("c_in", "c_in"), ("b_in", "b_in")]
    pairs_out = [("c_out", "c_out"), ("b_out", "b_out")]
    res = branch(buf, buf, pairs_in, pairs_out)
    assert len(res.circuit.units) == 2 * len(buf.units)
    assert checked_kernel == {"pushout": 1, "coproduct": 0}


def test_iterate_head_glues_like_reference(checked_kernel):
    w = IterationWiring(
        entry=fixtures.build_buffer(),
        body=fixtures.build_not(),
        end=fixtures.build_buffer(),
        exit=fixtures.build_eater(1),
        head=(("c_out", "c_out", "v1", "v1"), ("b_out", "b_out", "v2", "v2")),
        tail=(("v3", "c_in"), ("v4", "b_in")),
    )
    checked_kernel.update(pushout=0, coproduct=0)
    iterate_head(w)
    assert checked_kernel == {"pushout": 3, "coproduct": 0}


def test_iterate_tail_glues_like_reference(checked_kernel):
    w = IterationWiring(
        entry=fixtures.build_entry(),
        body=fixtures.build_action(),
        end=fixtures.build_next_state(),
        exit=fixtures.build_eater(1),
        head=(
            ("ctrl_out", "ctrl_out", "ctrl_in"),
            ("r_out", "r_out", "r_in"),
            ("q_out", "q_out", "q_in"),
            ("s_out", "s_out", "s_in"),
        ),
        tail=(("ctrl_out", "ctrl_in", "v1"), ("q_next_out", "q_in", "v2")),
    )
    checked_kernel.update(pushout=0, coproduct=0)
    iterate_tail(w)
    assert checked_kernel == {"pushout": 4, "coproduct": 0}


# -- byte-identical fixture traces ------------------------------------------

# SHA-256 of the JSONL traces of each registered fixture, over every Boolean
# input assignment (sorted invar order) and seeds 0-4, recorded with the
# original union-find kernel.
FIXTURE_TRACE_SHA256 = {
    "action": "a3b2731b8b9b615f483548eae45373998ebdc172aa885e16e98dd44cc91a1289",
    "and": "617756ab982b6ef90799a34daa2a827b202bbe099b7a47acf85c1d25667bfb75",
    "buffer": "97913500acab7477c31015afddd831dd2d4b37fb44fde955439e8536e075d1fb",
    "eater1": "30ca8842074c2e95126d5420c88ea1d7140aa61ec624dc193c991e1d7e274273",
    "entry": "0529cbd6fc395f0a5cc255c912f5156b031d811bc45b21035e52df0fea67d255",
    "flipflop": "3e4d1eb99ca7f2a69d115dc98aa27f6c962a740b0a5ae54c390b5a53feda24a6",
    "fork2": "cd573e2140e93848fcd252171f0cadd879044d987ffd2c266bbdad21dd16add7",
    "fork3": "90760bb319ea85fe44cf05efcc623acad757953a30ad4b259a4c0c43f2e8c946",
    "join2": "af4270296f9f3140c4898ff6a75f785836d0e2144073e2d27e017a5f2f82f756",
    "join3": "c0c0b55d34e45e216feb3f6b58e23765241bf746492c0ca0b545105487c288ab",
    "nand2": "c1f26d20de27bbe7feb37dacc0e2ba376dd0d926b940843acd802967304b3fe7",
    "next": "5098a55d5703a7322dadd2262d767d07d93d0b7e33a1196e697a3b52ca873ad7",
    "not": "63c6031cb567d1d4f2df1ca6a41625b86b30a5242477dda9e53370341ed02e1d",
    "or": "c0867a03434f51bce2df4e1e92c8ff58a14b5ff13c7f614408e5a323919a2b4c",
    "p53": "d4b9e3291f167bfed3ba674b5af0109e5fd1baf5d9df81fbdc44b1bf9bdfec99",
    "unit": "11c09a7654063182bf7c97933c9f36479baf3cdaaf32e281e5a0ccbc7937c154",
}


def test_digests_cover_the_registry():
    assert set(FIXTURE_TRACE_SHA256) == set(fixtures.REGISTRY)


@pytest.mark.parametrize("name", sorted(FIXTURE_TRACE_SHA256))
def test_fixture_traces_keep_their_digest(name):
    c = fixtures.fixture(name)
    bools = sorted(v for v in c.invars if c.var_types[v] is BOOL)
    digest = hashlib.sha256()
    for bits in itertools.product((0, 1), repeat=len(bools)):
        inputs = {v: Value.SIGNAL for v in c.invars if c.var_types[v] is CTRL}
        inputs.update({v: Value.from_bit(b) for v, b in zip(bools, bits)})
        init = initial_state(c, inputs)
        for seed in range(5):
            digest.update(trace_to_jsonl(run(c, init, ExecConfig(seed=seed))).encode())
    assert digest.hexdigest() == FIXTURE_TRACE_SHA256[name]
