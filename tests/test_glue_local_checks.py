"""Differential tests: the gluing kernel's local checks against the full checks.

The kernel checks a gluing only where it can break: its legs are built
without ``validate_morphism``, the boundary condition is tested at seeded
variables off the operand's interface, unseeded flows are not compared, and
``pushout`` skips the scan for gaining variables when a leg maps the whole
apex into its operand's interface. ``full_check_pushout`` glues the same way
but checks everything: it scans both operands with ``boundary_sets``,
compares every flow image and runs ``validate_morphism`` (so the full
``check_morphism``) on both legs. Results, legs and refusals (exception
type, code, violations and message) must come out equal.

The kernel also tests only the control invar and outvar rules, on an
interface it derives from the operands', and stores that interface and the
greatest ids on its result. The last section checks those stored facts
against a fresh ``Circuit`` of the same fields after every gluing of the
operators, the fixtures and the random generators, merging gluings
included, and each refusal against ``circuit_violations`` of the glued
structure.
"""

from __future__ import annotations

import random

import pytest

from ctrlcirc import BOOL, CTRL, CompositionError, ValidationError, branch, coproduct, identity_morphism, parallel
from ctrlcirc import pushout, sequence
from ctrlcirc import colimits, fixtures, morphisms
from ctrlcirc.colimits import Cospan, Span
from ctrlcirc.model import Circuit, Flow, TypeTag, circuit_violations, mk_primitive, mk_trivial
from ctrlcirc.morphisms import CircuitMorphism, boundary_sets, check_morphism, validate_morphism
from ctrlcirc.operators import span_from_pairing
from conftest import random_circuit, random_morphism, random_pairing, random_total_pair, random_total_triple, tag_zip
from test_by_construction import buffer_loop
from test_glue_differential import any_pairing, codiagonal, doubled_flow_circuit, inverter_chain

# -- the fully checked reference --------------------------------------------


def _full_check_flows(kind: str, sides) -> dict[str, Flow]:
    out: dict[str, Flow] = {}
    for flows, f_flow, f_src, f_dst in sides:
        for x, fl in flows.items():
            image = Flow(f_src[fl.src], f_dst[fl.dst])
            if out.setdefault(f_flow[x], image) != image:
                raise AssertionError(f"gluing produced an ill-defined {kind}-flow map at {f_flow[x]!r}")
    return out


def glued_structure(left: Circuit, right: Circuit, seeds, tag: str):
    """The kernel's naming and glued structure, unchecked but for clashing types and flows.

    Both operands are re-imaged element by element, also where the kernel
    copies the left operand whole. Returns the structure and both operands'
    four maps.
    """
    left_maps: list[dict[str, str]] = []
    right_maps: list[dict[str, str]] = []
    for pairs, l_ids, r_ids in zip(
        seeds,
        (left.var_types, left.units, left.in_flows, left.out_flows),
        (right.var_types, right.units, right.in_flows, right.out_flows),
    ):
        merged, seeded_right = colimits._seed_classes(pairs)
        prefix = f"{max(l_ids)}/{tag}/" if l_ids else f"{tag}/"
        left_maps.append({x: merged.get(x, x) for x in l_ids})
        right_maps.append({x: seeded_right.get(x, prefix + x) for x in r_ids})
    lv, lu, li, lo = left_maps
    rv, ru, ri, ro = right_maps
    var_types: dict[str, TypeTag] = {}
    for base, f_v in ((left, lv), (right, rv)):
        for v, t in base.var_types.items():
            if var_types.setdefault(f_v[v], t) is not t:
                raise AssertionError(f"gluing identified variables of different types at {f_v[v]!r}")
    result = Circuit(
        var_types=var_types,
        units=frozenset([*lu.values(), *ru.values()]),
        in_flows=_full_check_flows("input", ((left.in_flows, li, lv, lu), (right.in_flows, ri, rv, ru))),
        out_flows=_full_check_flows("output", ((left.out_flows, lo, lu, lv), (right.out_flows, ro, ru, rv))),
        sigma=left.sigma | right.sigma,
    )
    return result, left_maps, right_maps


def full_check_glue(left: Circuit, right: Circuit, seeds, tag: str):
    """The kernel's naming, with every check run on the whole result and both legs."""
    result, (lv, lu, li, lo), (rv, ru, ri, ro) = glued_structure(left, right, seeds, tag)
    bad = circuit_violations(result)
    if bad:
        raise CompositionError("pushout-does-not-exist", f"the glued structure is not a valid circuit: {bad}")
    return (
        result,
        validate_morphism(left, result, lv, lu, li, lo),
        validate_morphism(right, result, rv, ru, ri, ro),
    )


def span_seeds(span: Span):
    comps = ((span.left.f_v, span.right.f_v), (span.left.f_u, span.right.f_u))
    comps += ((span.left.f_i, span.right.f_i), (span.left.f_o, span.right.f_o))
    return [[(fa[x], fb[x]) for x in fa] for fa, fb in comps]


def full_check_pushout(span: Span, tag: str = "po") -> Cospan:
    alpha, beta = span.left, span.right
    for side, leg, other in (("left", alpha, beta), ("right", beta, alpha)):
        gain_in, gain_out = boundary_sets(span.apex, other.dst, other.f_v, other.f_u)
        outside = {leg.f_v[v] for v in gain_in | gain_out} - (leg.dst.invars | leg.dst.outvars)
        if outside:
            raise CompositionError(
                "pushout-does-not-exist",
                f"{side} operand would gain flows at non-interface variables {sorted(outside)}",
            )
    cs = Cospan(*full_check_glue(alpha.dst, beta.dst, span_seeds(span), tag))
    for v in span.apex.var_types:
        if cs.left_leg.f_v[alpha.f_v[v]] != cs.right_leg.f_v[beta.f_v[v]]:
            raise AssertionError("pushout square does not commute")
    return cs


# -- comparison -------------------------------------------------------------


def _outcome(glue, *args):
    try:
        return glue(*args)
    except (CompositionError, ValidationError, AssertionError) as e:
        return type(e), getattr(e, "code", None), getattr(e, "violations", None), str(e)


def assert_same_verdict(span: Span, tag: str = "po") -> str:
    """The kernel and the full checks agree on ``span``; returns the verdict.

    The verdict is ``"exists"``, a ``CompositionError`` code, or the
    ``ValidationError`` violations joined by commas.
    """
    want = _outcome(full_check_pushout, span, tag)
    got = _outcome(pushout, span, tag)
    assert got == want
    if isinstance(got, Cospan):
        for leg in (got.left_leg, got.right_leg):
            assert check_morphism(leg.src, leg.dst, leg.f_v, leg.f_u, leg.f_i, leg.f_o) == []
        return "exists"
    kind, code, violations, _ = got
    return code if kind is CompositionError else ",".join(violations or ["assertion"])


def merging_span(rnd: random.Random, left: Circuit, right: Circuit) -> Span:
    """A trivial apex whose legs send each variable to any same-type variable.

    Neither leg need be injective nor land on the interface, so the right
    leg can merge apex variables whose left images then meet in the result.
    """
    by_type = lambda c: {t: [v for v in c.sorted_vars() if c.var_types[v] is t] for t in (CTRL, BOOL)}
    l_vars, r_vars = by_type(left), by_type(right)
    tags = [CTRL] + [rnd.choice((CTRL, BOOL)) for _ in range(rnd.randint(1, 3))]
    tags = [t for t in tags if l_vars[t] and r_vars[t]]
    apex = mk_trivial(tags, "a")
    names = [f"a{i + 1}" for i in range(len(tags))]
    # One target per type, without flows where there is one: apex variables
    # sent there merge, and the existence check sees nothing gained there.
    r_pick = {t: [min(set(vs) & right.inoutvars, default=rnd.choice(vs))] for t, vs in r_vars.items() if vs}
    to_left = {a: rnd.choice(l_vars[t]) for a, t in zip(names, tags)}
    to_right = {a: rnd.choice(r_pick[t] if rnd.random() < 0.6 else r_vars[t]) for a, t in zip(names, tags)}
    legs = (validate_morphism(apex, c, f_v, {}, {}, {}) for c, f_v in ((left, to_left), (right, to_right)))
    return Span(apex, *legs)


def with_isolated(rnd: random.Random, c: Circuit) -> Circuit:
    """``c``, or ``c`` beside two isolated variables (gluing there adds no flows)."""
    return coproduct(c, mk_trivial([CTRL, BOOL], "t"), "par").circuit if rnd.random() < 0.5 else c


def seeds_flows(span: Span) -> bool:
    return bool(span.apex.in_flows or span.apex.out_flows)


# -- random spans -----------------------------------------------------------


def test_trivial_apex_pairings_agree_with_full_checks(rnd):
    verdicts: dict[str, int] = {}
    for k in range(150):
        left, right = random_circuit(rnd), random_circuit(rnd)
        pairs = random_pairing(rnd, left, right) if k % 2 else any_pairing(rnd, left, right)
        if pairs:
            v = assert_same_verdict(span_from_pairing(left, right, pairs), ("seq", "po")[k % 2])
            verdicts[v] = verdicts.get(v, 0) + 1
    assert verdicts["exists"] > 50 and verdicts["pushout-does-not-exist"] > 10


def test_merging_spans_agree_with_full_checks(rnd):
    verdicts: dict[str, int] = {}
    for _ in range(400):
        span = merging_span(rnd, with_isolated(rnd, random_circuit(rnd)), with_isolated(rnd, random_circuit(rnd)))
        v = assert_same_verdict(span)
        verdicts[v] = verdicts.get(v, 0) + 1
    assert verdicts["exists"] > 20
    assert verdicts["pushout-does-not-exist"] > 20
    assert verdicts["boundary-condition-violated"] > 5


def test_random_morphism_legs_agree_with_full_checks(rnd):
    flow_seeded = 0
    for _ in range(80):
        m = random_morphism(rnd)
        ident = identity_morphism(m.src)
        for span in (Span(m.src, m, ident), Span(m.src, ident, m), Span(m.src, m, m)):
            assert_same_verdict(span)
            flow_seeded += seeds_flows(span)
    assert flow_seeded > 60


def test_non_mono_folds_agree_with_full_checks(rnd):
    doubled, _, merge = doubled_flow_circuit()
    assert assert_same_verdict(Span(doubled, merge, identity_morphism(doubled))) == "exists"
    assert assert_same_verdict(Span(doubled, merge, merge)) == "exists"
    for _ in range(40):
        cp, fold = codiagonal(random_circuit(rnd))
        assert assert_same_verdict(Span(cp.circuit, fold, fold)) == "exists"
        assert assert_same_verdict(Span(cp.circuit, fold, identity_morphism(cp.circuit))) == "exists"


def test_random_coproducts_agree_with_full_checks(rnd):
    for _ in range(100):
        a, b = random_circuit(rnd), random_circuit(rnd)
        assert coproduct(a, b, "cp") == colimits.CoproductResult(*full_check_glue(a, b, ((), (), (), ()), "cp"))


# -- pinned refusals --------------------------------------------------------


def test_a_merge_off_the_interface_violates_the_boundary_condition():
    """Two apex variables meet on the right, so their left images are glued.

    On the left, ``x`` is interior to an inverter chain and ``y`` is the
    control invar of a separate inverter. Neither operand gains flows at an
    apex image, so the existence check passes, and the result keeps the
    chain's control invar. But the glued ``x`` now feeds the second
    inverter too, and ``x`` is not on the left operand's interface.
    """
    chain, inv = inverter_chain(2), fixtures.build_not()
    cp = coproduct(chain, inv, "par")
    left = cp.circuit
    x = next(v for v in sorted(left.vars - left.invars - left.outvars) if left.var_types[v] is CTRL)
    y = cp.right.f_v["v1"]
    assert y in left.invars and left.var_types[y] is CTRL
    right = mk_trivial([CTRL], "z")
    apex = mk_trivial([CTRL, CTRL], "a")
    span = Span(
        apex,
        validate_morphism(apex, left, {"a1": x, "a2": y}, {}, {}, {}),
        validate_morphism(apex, right, {"a1": "z1", "a2": "z1"}, {}, {}, {}),
    )
    assert assert_same_verdict(span) == "boundary-condition-violated"
    try:
        pushout(span)
    except ValidationError as e:
        assert (e.subject, str(e)) == ("morphism", "invalid morphism: boundary-condition-violated")


def test_legs_that_break_a_square_are_refused_like_the_full_checks():
    """A span built from unvalidated maps can glue two flows with different images."""
    c = mk_primitive(1, 1, 1, 0)
    ident = identity_morphism(c)
    swapped = CircuitMorphism(c, c, ident.f_v, ident.f_u, {"i1": "i2", "i2": "i1"}, ident.f_o)
    assert check_morphism(c, c, swapped.f_v, swapped.f_u, swapped.f_i, swapped.f_o) == ["source-square-broken"]
    assert assert_same_verdict(Span(c, ident, swapped)) == "assertion"
    with pytest.raises(AssertionError, match="ill-defined input-flow map"):
        pushout(Span(c, ident, swapped))


def test_a_leg_off_the_interface_still_gets_the_existence_scan():
    """A leg onto interior variables cannot skip the scan of the other operand."""
    left = inverter_chain(3)
    interior = sorted(left.vars - left.invars - left.outvars)
    pairs = [(v, v) for v in interior]
    assert assert_same_verdict(span_from_pairing(left, left, pairs)) == "pushout-does-not-exist"


# -- no whole-operand checks when sequencing --------------------------------


def test_sequencing_a_chain_runs_no_whole_operand_check(monkeypatch):
    calls = {"boundary_sets": 0, "check_morphism_with_units": 0}
    real_boundary_sets, real_check = morphisms.boundary_sets, morphisms.check_morphism

    def counting_boundary_sets(*args):
        calls["boundary_sets"] += 1
        return real_boundary_sets(*args)

    def counting_check(src, *rest):
        calls["check_morphism_with_units"] += bool(src.units)
        return real_check(src, *rest)

    monkeypatch.setattr(morphisms, "boundary_sets", counting_boundary_sets)
    monkeypatch.setattr(colimits, "boundary_sets", counting_boundary_sets)
    monkeypatch.setattr(morphisms, "check_morphism", counting_check)
    chain = inverter_chain(50)
    assert len(chain.units) == 50
    assert calls == {"boundary_sets": 0, "check_morphism_with_units": 0}

    # the counters do count: one full validation of a unit-bearing source
    ident = identity_morphism(chain)
    validate_morphism(chain, chain, ident.f_v, ident.f_u, ident.f_i, ident.f_o)
    assert calls == {"boundary_sets": 1, "check_morphism_with_units": 1}


# -- the facts a gluing carries forward ------------------------------------


def assert_carries_fresh_facts(c: Circuit) -> None:
    """The interface and greatest ids stored on ``c`` equal those a fresh ``Circuit`` derives."""
    fresh = Circuit(c.var_types, c.units, c.in_flows, c.out_flows, c.sigma)
    assert (c.invars, c.outvars, c._greatest_ids) == (fresh.invars, fresh.outvars, fresh._greatest_ids)


@pytest.fixture
def glued(monkeypatch):
    """Check the stored facts of every gluing's result; counts all gluings and the merging ones.

    The interface is always stored. The greatest ids are stored unless the
    left leg merges elements, and are then derived when first read.
    """
    seen = {"gluings": 0, "merging": 0}
    real = colimits._glue

    def checked(left, right, seeds, tag):
        result, to_left, to_right = real(left, right, seeds, tag)
        merging = not morphisms.is_mono(to_left)
        assert "invars" in vars(result) and "outvars" in vars(result)
        assert ("_greatest_ids" in vars(result)) is not merging
        assert_carries_fresh_facts(result)
        seen["gluings"] += 1
        seen["merging"] += merging
        return result, to_left, to_right

    monkeypatch.setattr(colimits, "_glue", checked)
    return seen


def test_random_generators_carry_fresh_facts(glued, rnd):
    for _ in range(60):
        random_circuit(rnd, extra_ops=4)
        left, right, pairs = random_total_pair(rnd)
        sequence(left, right, pairs)
        a, b, c = random_total_triple(rnd)
        ab = sequence(a, b, tag_zip(a, a.outvars, b, b.invars)).circuit
        sequence(ab, c, tag_zip(ab, ab.outvars, c, c.invars))
        random_morphism(rnd)
    assert glued["gluings"] > 300


def test_operators_carry_fresh_facts(glued):
    buf = fixtures.build_buffer()
    assert len(inverter_chain(40).units) == 40
    row = fixtures.build_not()
    for _ in range(39):
        row = parallel(row, fixtures.build_not())
    branch(buf, buf, [("c_in", "c_in"), ("b_in", "b_in")], [("c_out", "c_out"), ("b_out", "b_out")])
    buffer_loop()
    fixtures.build_flipflop()  # a tail iteration
    assert glued["gluings"] > 80


@pytest.mark.parametrize("name", sorted(fixtures.REGISTRY))
def test_every_fixture_carries_fresh_facts(glued, name):
    fixtures.REGISTRY[name]()


def test_merging_gluings_carry_fresh_facts(glued, rnd):
    doubled, _, merge = doubled_flow_circuit()
    pushout(Span(doubled, merge, identity_morphism(doubled)))
    pushout(Span(doubled, merge, merge))
    for _ in range(40):
        cp, fold = codiagonal(random_circuit(rnd))
        pushout(Span(cp.circuit, fold, fold))
        pushout(Span(cp.circuit, fold, identity_morphism(cp.circuit)))
    for _ in range(200):
        span = merging_span(rnd, with_isolated(rnd, random_circuit(rnd)), with_isolated(rnd, random_circuit(rnd)))
        try:
            pushout(span)
        except (CompositionError, ValidationError):
            pass
    assert glued["merging"] > 40


def interface_pairing(rnd: random.Random, left: Circuit, right: Circuit):
    """A random injective same-type pairing of interface variables with a control pair, or None.

    Every glued variable is on both interfaces, so the existence scan passes
    and only the glued structure's control invars and outvars can fail.
    """
    def interface(c: Circuit) -> list[str]:
        vs = sorted(c.invars | c.outvars)
        rnd.shuffle(vs)
        return vs

    free = {t: [v for v in interface(right) if right.var_types[v] is t] for t in (CTRL, BOOL)}
    pairs = []
    for l in interface(left):
        if free[left.var_types[l]] and rnd.random() < 0.7:
            pairs.append((l, free[left.var_types[l]].pop()))
    return pairs if any(left.var_types[l] is CTRL for l, _ in pairs) else None


def ring_pairing(rnd: random.Random, left: Circuit, right: Circuit):
    """Left invars onto right outvars and left outvars onto right invars, in sorted order within each type."""
    pairs = tag_zip(left, left.invars, right, right.outvars)
    pairs += tag_zip(left, left.outvars - left.invars, right, right.invars - right.outvars)
    return pairs


def test_every_refusal_lists_what_circuit_violations_finds(rnd):
    """A refused gluing names the rules the glued structure breaks, as the full model check lists them."""
    refused: dict[str, int] = {}
    for k in range(300):
        left, right = random_circuit(rnd), random_circuit(rnd)
        if k % 4 == 3:
            span = merging_span(rnd, with_isolated(rnd, left), with_isolated(rnd, right))
        else:
            pairs = (interface_pairing, ring_pairing, any_pairing)[k % 4](rnd, left, right)
            if not pairs:
                continue
            span = span_from_pairing(left, right, pairs)
        assert_same_verdict(span)
        try:
            pushout(span)
        except CompositionError as e:
            if "the glued structure" not in str(e):
                continue  # refused by the existence scan, before anything is glued
            structure, _, _ = glued_structure(span.left.dst, span.right.dst, span_seeds(span), "po")
            bad = circuit_violations(structure)
            assert str(e) == f"pushout-does-not-exist: the glued structure is not a valid circuit: {bad}"
            refused[",".join(bad)] = refused.get(",".join(bad), 0) + 1
        except ValidationError:
            pass
    assert set(refused) == {"no-control-invar", "no-control-outvar", "no-control-invar,no-control-outvar"}
    assert min(refused.values()) > 5
