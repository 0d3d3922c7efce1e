import itertools
import random

import pytest

from ctrlcirc import (
    BOOL,
    CTRL,
    CompositionError,
    Flow,
    Span,
    StructureError,
    circuit_violations,
    compose_morphisms,
    copair,
    coproduct,
    identity_morphism,
    invert_iso,
    is_isomorphic,
    is_mono,
    mk_primitive,
    mk_trivial,
    pushout,
    sequence,
    unit_circuit,
    validate_morphism,
)
from ctrlcirc import colimits
from ctrlcirc.operators import span_from_pairing
from conftest import flow_multiplicities, random_circuit, random_pairing, random_primitive
from test_glue_differential import codiagonal, doubled_flow_circuit, inverter_chain


def test_unit_sequencing_span_pushout_is_identity_up_to_iso(rnd):
    for _ in range(10):
        lam = random_circuit(rnd)
        ctrl_in = sorted(v for v in lam.invars if lam.var_types[v] is CTRL)[0]
        span = span_from_pairing(unit_circuit(), lam, [("v1", ctrl_in)])
        cs = pushout(span)
        assert is_isomorphic(cs.result, lam) is not None


def test_and_shape_pushout_var_count():
    nand2 = mk_primitive(1, 2, 1, 1)
    inv = mk_primitive(1, 1, 1, 1)
    span = span_from_pairing(nand2, inv, [("v4", "v1"), ("v5", "v2")])
    cs = pushout(span)
    assert len(cs.result.vars) == 7
    assert len(cs.result.units) == 2
    # square commutes
    for v in span.apex.vars:
        assert cs.left_leg.f_v[span.left.f_v[v]] == cs.right_leg.f_v[span.right.f_v[v]]


def test_pushout_cardinality_under_injective_legs(rnd):
    for _ in range(20):
        left, right = random_circuit(rnd, 1), random_primitive(rnd)
        pairs = random_pairing(rnd, left, right)
        if not pairs:
            continue
        cs = pushout(span_from_pairing(left, right, pairs))
        assert len(cs.result.vars) == len(left.vars) + len(right.vars) - len(pairs)


def test_pushout_existence_condition_rejects_interior_to_interior_gluing():
    # gluing the interior mid variables of two composites would make each
    # gain flows away from its interface, so the pushout must not exist
    from ctrlcirc.fixtures import build_and

    and_a = build_and()  # v4/v5 interior
    and_b = build_and()
    apex = mk_trivial([CTRL])
    left = validate_morphism(apex, and_a, {"v1": "v4"}, {}, {}, {})
    right = validate_morphism(apex, and_b, {"v1": "v4"}, {}, {}, {})
    with pytest.raises(CompositionError) as exc:
        pushout(Span(apex, left, right))
    assert exc.value.code == "pushout-does-not-exist"


def test_pushout_that_breaks_a_model_rule_does_not_exist():
    # crossing the pairing glues each inverter's control invar onto the
    # other's control outvar: the result has no control invar or outvar left
    from ctrlcirc.fixtures import build_not

    span = span_from_pairing(build_not(), build_not(), [("v1", "v3"), ("v3", "v1")])
    with pytest.raises(CompositionError) as exc:
        pushout(span)
    assert exc.value.code == "pushout-does-not-exist"
    assert "['no-control-invar', 'no-control-outvar']" in str(exc.value)


def test_pushout_onto_interior_from_trivial_is_allowed():
    # a bare inoutvar may be glued onto an interior variable: the gains land
    # on the apex's own interface, and the result is just the host circuit
    from ctrlcirc.fixtures import build_and

    and_c = build_and()
    apex = mk_trivial([CTRL])
    left = validate_morphism(apex, unit_circuit(), {"v1": "v1"}, {}, {}, {})
    right = validate_morphism(apex, and_c, {"v1": "v4"}, {}, {}, {})
    cs = pushout(Span(apex, left, right))
    assert is_isomorphic(cs.result, and_c) is not None


def test_pushout_legs_of_sequentiable_spans_are_mono(rnd):
    for _ in range(40):
        left, right = random_circuit(rnd, 1), random_primitive(rnd)
        pairs = random_pairing(rnd, left, right)
        if not pairs:
            continue
        cs = pushout(span_from_pairing(left, right, pairs))
        assert is_mono(cs.left_leg)
        assert is_mono(cs.right_leg)


def test_pushout_legs_agree_on_apex_as_composites(rnd):
    # composing each leg with its span morphism gives the same apex map
    for _ in range(15):
        left, right = random_circuit(rnd, 1), random_primitive(rnd)
        pairs = random_pairing(rnd, left, right)
        if not pairs:
            continue
        span = span_from_pairing(left, right, pairs)
        cs = pushout(span)
        via_left = compose_morphisms(cs.left_leg, span.left)
        via_right = compose_morphisms(cs.right_leg, span.right)
        assert via_left.f_v == via_right.f_v


def test_coproduct_counts_and_injections(rnd):
    for _ in range(20):
        a, b = random_circuit(rnd, 1), random_circuit(rnd, 1)
        cp = coproduct(a, b)
        assert len(cp.circuit.vars) == len(a.vars) + len(b.vars)
        assert len(cp.circuit.units) == len(a.units) + len(b.units)
        assert is_mono(cp.left) and is_mono(cp.right)
        covered = set(cp.left.f_v.values()) | set(cp.right.f_v.values())
        assert covered == cp.circuit.vars
        assert not circuit_violations(cp.circuit)


def test_coproduct_of_units_is_two_control_inoutvars():
    cp = coproduct(unit_circuit(), unit_circuit())
    assert len(cp.circuit.vars) == 2
    assert all(t is CTRL for t in cp.circuit.var_types.values())
    assert cp.circuit.inoutvars == cp.circuit.vars


def test_copair_agrees_with_components(rnd):
    a, b = random_primitive(rnd), random_primitive(rnd)
    cp = coproduct(a, b)
    target = coproduct(cp.circuit, unit_circuit())
    f = compose_morphisms(target.left, cp.left)
    g = compose_morphisms(target.left, cp.right)
    h = copair(f, g, cp)
    for v in a.vars:
        assert h.f_v[cp.left.f_v[v]] == f.f_v[v]
    for v in b.vars:
        assert h.f_v[cp.right.f_v[v]] == g.f_v[v]


# -- composite ids: the left operand keeps its ids --------------------------

PARTS = ("var_types", "units", "in_flows", "out_flows")
COMPS = ("f_v", "f_u", "f_i", "f_o")


def left_nested_gluings(rnd: random.Random, builds: int = 40):
    """(left, right, result, left leg, right leg) of random left-nested sequencings and coproducts."""
    out = []
    for _ in range(builds):
        acc = random_primitive(rnd)
        for _ in range(rnd.randint(1, 4)):
            nxt = random_circuit(rnd, 1)
            pairs = random_pairing(rnd, acc, nxt) if rnd.random() < 0.6 else None
            if pairs:
                r = sequence(acc, nxt, pairs)
                glued = (r.circuit, r.left_leg, r.right_leg)
            else:
                cp = coproduct(acc, nxt, rnd.choice(("cp", "par")))
                glued = (cp.circuit, cp.left, cp.right)
            out.append((acc, nxt, *glued))
            acc = glued[0]
    return out


def test_without_a_left_merge_the_left_leg_is_the_identity(rnd):
    for left, _, result, left_leg, _ in left_nested_gluings(rnd):
        for part, comp in zip(PARTS, COMPS):
            assert getattr(left_leg, comp) == {x: x for x in getattr(left, part)}
        for part in ("in_flows", "out_flows"):
            glued = getattr(result, part)
            assert all(glued[x] is fl for x, fl in getattr(left, part).items())


def test_new_right_ids_sort_after_the_left_ids_in_right_order(rnd):
    for left, right, result, _, right_leg in left_nested_gluings(rnd):
        for part, comp in zip(PARTS, COMPS):
            l_ids, leg = set(getattr(left, part)), getattr(right_leg, comp)
            new = [leg[x] for x in sorted(getattr(right, part)) if leg[x] not in l_ids]
            assert new == sorted(set(new))
            assert not (new and l_ids) or min(new) > max(l_ids)
            assert set(getattr(result, part)) == l_ids | set(new)


def test_a_left_merge_keeps_the_least_id(rnd):
    doubled, _, merge = doubled_flow_circuit()
    cs = pushout(Span(doubled, identity_morphism(doubled), merge))
    assert cs.left_leg.f_i == {"i1": "i1", "i2": "i2", "i3": "i2"}
    assert sorted(cs.result.in_flows) == ["i1", "i2"]
    for _ in range(30):
        c = random_circuit(rnd)
        cp, fold = codiagonal(c)
        # both copies of each element of c are left elements glued together
        cs = pushout(Span(cp.circuit, identity_morphism(cp.circuit), fold))
        for comp in COMPS:
            fibres: dict[str, list[str]] = {}
            for x, y in getattr(cs.left_leg, comp).items():
                fibres.setdefault(y, []).append(x)
            assert all(len(xs) == 2 and y == min(xs) for y, xs in fibres.items())
        assert is_isomorphic(cs.result, c) is not None


def test_each_chain_step_builds_flows_only_for_its_right_operand(monkeypatch):
    built = [0]
    steps: list[tuple[int, int]] = []
    real_glue = colimits._glue

    def counting_flow(src, dst):
        built[0] += 1
        return Flow(src, dst)

    def counting_glue(left, right, seeds, tag):
        before = built[0]
        out = real_glue(left, right, seeds, tag)
        steps.append((built[0] - before, len(right.in_flows) + len(right.out_flows)))
        return out

    monkeypatch.setattr(colimits, "Flow", counting_flow)
    monkeypatch.setattr(colimits, "_glue", counting_glue)
    assert len(inverter_chain(200).units) == 200
    assert len(steps) == 199 and all(new == right for new, right in steps)


# -- isomorphism ------------------------------------------------------------


def test_iso_reflexive(rnd):
    for _ in range(10):
        c = random_circuit(rnd)
        w = is_isomorphic(c, c)
        assert w is not None


def test_iso_symmetric_witness_invertible(rnd):
    for _ in range(10):
        c = random_circuit(rnd, 1)
        d, _ = __import__("ctrlcirc").relabel(c, {})
        w = is_isomorphic(c, d)
        assert w is not None
        back = invert_iso(w)
        assert compose_morphisms(back, w).f_v == {v: v for v in c.vars}


def test_unit_plus_unit_not_iso_to_unit():
    cp = coproduct(unit_circuit(), unit_circuit())
    assert is_isomorphic(cp.circuit, unit_circuit()) is None


def test_iso_distinguishes_wiring():
    # same counts everywhere, different Boolean wiring
    a = mk_primitive(1, 2, 1, 1)
    b_ = mk_primitive(2, 1, 1, 1)
    assert is_isomorphic(a, b_) is None


def _brute_force_iso(a, b) -> bool:
    if len(a.vars) != len(b.vars) or len(a.units) != len(b.units):
        return False
    avs, auts = a.sorted_vars(), a.sorted_units()
    am_in, am_out = flow_multiplicities(a)
    bm_in, bm_out = flow_multiplicities(b)
    for vperm in itertools.permutations(b.sorted_vars()):
        v_map = dict(zip(avs, vperm))
        if any(a.var_types[v] is not b.var_types[w] for v, w in v_map.items()):
            continue
        for uperm in itertools.permutations(b.sorted_units()):
            u_map = dict(zip(auts, uperm))
            ok = all(
                am_in.get((v, u), 0) == bm_in.get((v_map[v], u_map[u]), 0)
                and am_out.get((u, v), 0) == bm_out.get((u_map[u], v_map[v]), 0)
                for v in avs
                for u in auts
            )
            if ok:
                return True
    return False


def test_iso_agrees_with_brute_force_on_small_circuits(rnd):
    for _ in range(40):
        a = random_primitive(rnd)
        b = random_primitive(rnd) if rnd.random() < 0.5 else __import__("ctrlcirc").relabel(a, {})[0]
        if len(a.vars) > 6 or len(b.vars) > 6:
            continue
        assert (_brute_force_iso(a, b)) == (is_isomorphic(a, b) is not None)


def test_span_legs_must_share_the_apex():
    apex, other = mk_trivial([CTRL]), mk_trivial([CTRL, CTRL])
    with pytest.raises(StructureError, match=r"^span legs must share the apex as their domain$"):
        Span(apex, identity_morphism(other), identity_morphism(apex))


def test_copair_refuses_wrong_summands_and_codomains():
    a, b = mk_trivial([CTRL]), mk_trivial([CTRL, CTRL])
    cp = coproduct(a, b)
    with pytest.raises(StructureError, match=r"^copair components must match the coproduct summands$"):
        copair(identity_morphism(b), identity_morphism(b), cp)
    with pytest.raises(StructureError, match=r"^copair components must share a codomain$"):
        copair(identity_morphism(a), identity_morphism(b), cp)


def test_the_kernel_asserts_that_glued_variables_share_a_type():
    # operators and pushout refuse such pairs first; only hand-built seeds reach the kernel's own check
    c = mk_trivial([CTRL, BOOL])
    with pytest.raises(AssertionError, match=r"^gluing identified variables of different types at 'v1'$"):
        colimits._glue(c, c, ([("v1", "v2")], (), (), ()), "t")
