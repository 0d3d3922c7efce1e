import random

import pytest

from ctrlcirc import (
    BOOL,
    CTRL,
    StructureError,
    check_morphism,
    classify,
    compose_morphisms,
    identity_morphism,
    in_adjoint,
    is_mono,
    mk_primitive,
    mk_trivial,
    out_adjoint,
    parallel,
    validate_morphism,
)
from ctrlcirc.fixtures import build_and
from conftest import random_circuit, random_morphism


def test_identity_is_valid_and_mono(rnd):
    c = random_circuit(rnd)
    m = identity_morphism(c)
    assert not check_morphism(c, c, m.f_v, m.f_u, m.f_i, m.f_o)
    assert is_mono(m)


def test_type_change_is_forbidden():
    src = mk_trivial([CTRL, BOOL])  # v1 ctrl, v2 bool
    dst = mk_trivial([CTRL, CTRL])
    bad = check_morphism(src, dst, {"v1": "v1", "v2": "v2"}, {}, {}, {})
    assert bad == ["type-change-forbidden"]


def test_trivial_embedding_into_composite_mid_vars():
    # embed a two-variable trivial circuit onto the glued mid-point of the
    # AND composite; all squares commute and the boundary is vacuous
    and_c = build_and()
    apex = mk_trivial([CTRL, BOOL])
    m = validate_morphism(apex, and_c, {"v1": "v4", "v2": "v5"}, {}, {}, {})
    assert is_mono(m)


def test_broken_square_is_reported():
    p = mk_primitive(1, 1, 1, 1)
    # swap the two in-flow images: i1 (from v1) -> i2 (from v2)
    bad = check_morphism(
        p, p, {v: v for v in p.vars}, {"u1": "u1"}, {"i1": "i2", "i2": "i1"}, {"o1": "o1", "o2": "o2"}
    )
    assert "source-square-broken" in bad


def test_interior_variable_gaining_a_producer_violates_boundary():
    from ctrlcirc import validate_circuit
    from ctrlcirc.model import Flow

    chain = validate_circuit(
        {"a": CTRL, "m": CTRL, "z": CTRL},
        ["u1", "u2"],
        {"i1": Flow("a", "u1"), "i2": Flow("m", "u2")},
        {"o1": Flow("u1", "m"), "o2": Flow("u2", "z")},
    )
    # same chain, but a third unit also produces into the mid variable
    bigger = validate_circuit(
        {"a": CTRL, "b": CTRL, "m": CTRL, "z": CTRL},
        ["u1", "u2", "u3"],
        {"i1": Flow("a", "u1"), "i2": Flow("m", "u2"), "i3": Flow("b", "u3")},
        {"o1": Flow("u1", "m"), "o2": Flow("u2", "z"), "o3": Flow("u3", "m")},
    )
    bad = check_morphism(
        chain,
        bigger,
        {"a": "a", "m": "m", "z": "z"},
        {"u1": "u1", "u2": "u2"},
        {"i1": "i1", "i2": "i2"},
        {"o1": "o1", "o2": "o2"},
    )
    assert bad == ["boundary-condition-violated"]


def test_embedding_onto_nand_stage_of_and_is_valid():
    # a single-unit circuit maps cleanly onto the first stage of the AND
    # composite: its outvars land on the glued mid variables, which gain a
    # consumer, and that is allowed exactly because they sit on the boundary
    and_c = build_and()
    p = mk_primitive(1, 1, 1, 1)
    bad = check_morphism(
        p,
        and_c,
        {"v1": "v1", "v2": "v2", "v3": "v4", "v4": "v5"},
        {"u1": "u1"},
        {"i1": "i1", "i2": "i2"},
        {"o1": "o1", "o2": "o2"},
    )
    assert bad == []


def test_composition_identity_laws(rnd):
    for _ in range(25):
        m = random_morphism(rnd)
        assert compose_morphisms(m, identity_morphism(m.src)).f_v == m.f_v
        assert compose_morphisms(identity_morphism(m.dst), m).f_v == m.f_v


def test_composition_associativity(rnd):
    from ctrlcirc import coproduct

    for _ in range(15):
        a = random_circuit(rnd, 1)
        cp1 = coproduct(a, random_circuit(rnd, 1))
        cp2 = coproduct(cp1.circuit, random_circuit(rnd, 1))
        cp3 = coproduct(cp2.circuit, random_circuit(rnd, 1))
        f, g, h = cp1.left, cp2.left, cp3.left
        lhs = compose_morphisms(h, compose_morphisms(g, f))
        rhs = compose_morphisms(compose_morphisms(h, g), f)
        assert (lhs.f_v, lhs.f_u, lhs.f_i, lhs.f_o) == (rhs.f_v, rhs.f_u, rhs.f_i, rhs.f_o)


def test_interface_preservation_on_random_morphisms(rnd):
    # preimages of interface variables stay interface variables
    for _ in range(60):
        m = random_morphism(rnd)
        pre_in = {v for v in m.src.vars if m.f_v[v] in m.dst.invars}
        pre_out = {v for v in m.src.vars if m.f_v[v] in m.dst.outvars}
        assert pre_in <= m.src.invars
        assert pre_out <= m.src.outvars


def test_collapsing_map_is_not_mono():
    tri = mk_trivial([CTRL, CTRL])
    lam = mk_trivial([CTRL])
    m = validate_morphism(tri, lam, {"v1": "v1", "v2": "v1"}, {}, {}, {})
    assert not is_mono(m)


def test_adjoints_are_canonical_monos(rnd):
    for _ in range(25):
        c = random_circuit(rnd)
        for adj, vs in ((in_adjoint(c), c.invars), (out_adjoint(c), c.outvars)):
            assert is_mono(adj.morphism)
            assert {adj.morphism.f_v[v] for v in adj.domain.vars} == vs
            assert classify(adj.domain).value in ("trivial", "unit-circuit")
            assert {adj.domain.var_types[v] for v in adj.domain.vars} == {c.var_types[v] for v in vs}


def test_direct_built_morphisms_equal_the_validated_ones(rnd):
    # adjoints and the legs of span_from_pairing are built without
    # validate_morphism; the full check must accept each and give it back
    from ctrlcirc.fixtures import REGISTRY, fixture
    from ctrlcirc.operators import span_from_pairing

    def same_type_sample(c, tag, n):
        return rnd.sample([v for v in c.sorted_vars() if c.var_types[v] is tag], n)

    circuits = [fixture(name) for name in sorted(REGISTRY)] + [random_circuit(rnd, 4) for _ in range(30)]
    for c in circuits:
        for adj in (in_adjoint(c), out_adjoint(c)):
            m = adj.morphism
            assert m == validate_morphism(m.src, m.dst, m.f_v, m.f_u, m.f_i, m.f_o)
        other = rnd.choice(circuits)
        pairs = []
        for tag in (CTRL, BOOL):
            most = min(sum(t is tag for t in c.var_types.values()), sum(t is tag for t in other.var_types.values()))
            n = rnd.randint(1 if tag is CTRL else 0, most)
            pairs.extend(zip(same_type_sample(c, tag, n), same_type_sample(other, tag, n)))
        span = span_from_pairing(c, other, pairs)
        for leg in (span.left, span.right):
            assert leg == validate_morphism(leg.src, leg.dst, leg.f_v, leg.f_u, leg.f_i, leg.f_o)


def test_adjoint_of_unit_circuit_is_singleton():
    from ctrlcirc import unit_circuit

    adj = in_adjoint(unit_circuit())
    assert len(adj.domain.vars) == 1


def test_adjoint_domains_fixture_tags():
    from ctrlcirc.fixtures import build_and, build_not

    and_in = in_adjoint(build_and()).domain
    assert sorted(t.value for t in and_in.var_types.values()) == ["bool", "bool", "ctrl"]
    not_out = out_adjoint(build_not()).domain
    assert sorted(t.value for t in not_out.var_types.values()) == ["bool", "ctrl"]


def swapped_maps(c, *pairs):
    """The identity maps of ``c``'s four id kinds with each pair of ids swapped."""
    maps = []
    for ids in (c.var_types, c.units, c.in_flows, c.out_flows):
        m = {x: x for x in ids}
        for a, b in pairs:
            if a in m:
                m[a], m[b] = b, a
        maps.append(m)
    return maps


@pytest.mark.parametrize(
    "swaps, broken",
    [
        ((("u1", "u1/par/u1"), ("o1", "o1/par/o1"), ("v2", "v2/par/v2")), "input-unit-square-broken"),
        ((("u1", "u1/par/u1"), ("i1", "i1/par/i1"), ("v1", "v2/par/v1")), "output-unit-square-broken"),
        ((("v2", "v2/par/v2"),), "target-square-broken"),
    ],
    ids=["units-and-out-flows", "units-and-in-flows", "outvars"],
)
def test_each_flow_square_is_checked_on_its_own(swaps, broken):
    # two copies of one primitive side by side; swapping the copies' elements of some kinds breaks one square
    c = parallel(mk_primitive(1, 0, 1, 0), mk_primitive(1, 0, 1, 0))
    assert check_morphism(c, c, *swapped_maps(c, *swaps)) == [broken]


def test_a_map_into_undeclared_elements_is_refused():
    c = mk_trivial([CTRL])
    with pytest.raises(StructureError, match=r"^f_v maps into undeclared elements: \['nope'\]$"):
        check_morphism(c, c, {"v1": "nope"}, {}, {}, {})


def test_compose_morphisms_refuses_maps_that_do_not_compose():
    f, g = identity_morphism(mk_trivial([CTRL])), identity_morphism(mk_trivial([CTRL, CTRL]))
    with pytest.raises(StructureError, match=r"^compose_morphisms: codomain of first argument != domain of second$"):
        compose_morphisms(g, f)
