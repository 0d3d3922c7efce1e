import itertools
import random

import pytest

from ctrlcirc import (
    CTRL,
    CompositionError,
    Span,
    circuit_violations,
    compose_morphisms,
    copair,
    coproduct,
    invert_iso,
    is_isomorphic,
    is_mono,
    mk_primitive,
    mk_trivial,
    pushout,
    unit_circuit,
    validate_morphism,
)
from ctrlcirc.operators import span_from_pairing
from conftest import flow_multiplicities, random_circuit, random_pairing, random_primitive


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
