from types import MappingProxyType

import pytest
from hypothesis import given, strategies as st

from ctrlcirc import (
    BOOL,
    CTRL,
    CircuitClass,
    StructureError,
    ValidationError,
    circuit_violations,
    classify,
    interface,
    is_sound,
    mk_primitive,
    mk_trivial,
    relabel,
    unit_circuit,
    validate_circuit,
)
from ctrlcirc.model import Circuit, Flow

from conftest import random_primitive
import random


def test_unit_circuit_is_valid_and_unit_class():
    lam = unit_circuit()
    assert classify(lam) is CircuitClass.UNIT_CIRCUIT
    itf = interface(lam)
    assert itf.invars == itf.outvars == lam.vars


def test_bool_only_variable_reports_both_control_clauses():
    with pytest.raises(ValidationError) as exc:
        validate_circuit({"x": BOOL})
    assert set(exc.value.violations) == {"no-control-invar", "no-control-outvar"}


def test_primitive_with_bool_only_output_violates_ctrl_restriction():
    # one unit whose only output flow targets a Boolean variable
    with pytest.raises(ValidationError) as exc:
        validate_circuit(
            {"a": CTRL, "b": BOOL},
            ["u"],
            {"i1": Flow("a", "u")},
            {"o1": Flow("u", "b")},
        )
    assert "sigma-ctrl-restriction-not-surjective" in exc.value.violations


def test_dangling_flow_reference_is_a_structure_error():
    with pytest.raises(StructureError):
        validate_circuit({"a": CTRL}, ["u"], {"i1": Flow("ghost", "u")}, {"o1": Flow("u", "a")})
    with pytest.raises(StructureError):
        validate_circuit({"a": CTRL}, [], {"i1": Flow("a", "nounit")}, {})


def test_unit_without_input_flow_reported():
    with pytest.raises(ValidationError) as exc:
        validate_circuit({"a": CTRL, "b": CTRL}, ["u"], {}, {"o1": Flow("u", "b")})
    assert "tau-not-surjective" in exc.value.violations
    assert "tau-ctrl-restriction-not-surjective" in exc.value.violations


def test_declared_but_unused_type_is_reported():
    with pytest.raises(ValidationError) as exc:
        validate_circuit({"a": CTRL}, sigma=[CTRL, BOOL])
    assert exc.value.violations == ["c-not-surjective"]


def test_interface_of_not_primitive():
    inv = mk_primitive(1, 1, 1, 1)
    itf = interface(inv)
    assert itf.invars == {"v1", "v2"}
    assert itf.outvars == {"v3", "v4"}
    assert not itf.inoutvars


def test_trivial_circuit_shapes():
    c = mk_trivial([CTRL, CTRL, BOOL])
    assert classify(c) is CircuitClass.TRIVIAL
    assert interface(c).inoutvars == c.vars
    assert not is_sound(c)  # inoutvars never reach an outvar through a unit


def test_mk_trivial_requires_a_control_tag():
    with pytest.raises(ValidationError):
        mk_trivial([BOOL])
    with pytest.raises(ValidationError):
        mk_trivial([])


def test_mk_primitive_requires_control_in_and_out():
    for counts in ((0, 1, 1, 1), (1, 1, 0, 1), (0, 0, 1, 1), (1, 1, 0, 0), (0, 0, 0, 0)):
        with pytest.raises(ValidationError):
            mk_primitive(*counts)


@pytest.mark.parametrize("position", range(4))
def test_mk_primitive_rejects_a_negative_count(position):
    counts = [1, 1, 1, 1]
    counts[position] = -1
    with pytest.raises(StructureError):
        mk_primitive(*counts)


def test_mk_primitive_shape_and_class():
    p = mk_primitive(1, 2, 1, 1)
    assert classify(p) is CircuitClass.PRIMITIVE
    assert len(p.vars) == 5
    assert p.vars == p.flow_sources ^ p.flow_targets


@given(st.integers(1, 3), st.integers(0, 3), st.integers(1, 3), st.integers(0, 3))
def test_primitives_are_sound(ci, bi, co, bo):
    assert is_sound(mk_primitive(ci, bi, co, bo))


@given(st.integers(0, 10_000))
def test_random_circuit_interface_identities(seed):
    from conftest import random_circuit

    c = random_circuit(random.Random(seed))
    assert c.invars | c.flow_targets == c.vars
    assert c.outvars | c.flow_sources == c.vars
    assert not circuit_violations(c)


def test_soundness_requires_a_unit_on_the_path():
    # the sole variable of the unit circuit is an inoutvar: never sound
    assert not is_sound(unit_circuit())


def test_and_composite_is_sound():
    # every input reaches an output: v1,v2,v3 feed u1 which feeds v4,v5,
    # which feed u2, which feeds the outvars v6,v7
    from ctrlcirc.fixtures import build_and

    assert is_sound(build_and())


@given(st.lists(st.sampled_from([CTRL, BOOL]), min_size=1, max_size=6).filter(lambda ts: CTRL in ts))
def test_mk_trivial_always_validates(tags):
    c = mk_trivial(tags)
    assert not circuit_violations(c)
    assert len(c.vars) == len(tags)


def test_cyclic_circuit_soundness_terminates():
    # two units feeding each other, plus a proper entry and exit
    c = validate_circuit(
        {"a": CTRL, "b": CTRL, "c": CTRL, "d": CTRL},
        ["u1", "u2"],
        {"i1": Flow("a", "u1"), "i2": Flow("c", "u1"), "i3": Flow("b", "u2")},
        {"o1": Flow("u1", "b"), "o2": Flow("u2", "c"), "o3": Flow("u2", "d")},
    )
    assert is_sound(c)


def test_classify_precedence_unit_over_trivial():
    assert classify(mk_trivial([CTRL])) is CircuitClass.UNIT_CIRCUIT
    assert classify(mk_trivial([CTRL, BOOL])) is CircuitClass.TRIVIAL


def test_and_fixture_is_general():
    from ctrlcirc.fixtures import build_and

    assert classify(build_and()) is CircuitClass.GENERAL


def test_relabel_round_trip_preserves_structure(rnd):
    for _ in range(20):
        c = random_primitive(rnd)
        new, ren = relabel(c, {})
        assert len(new.vars) == len(c.vars)
        assert len(new.in_flows) == len(c.in_flows)
        assert {new.var_types[ren.f_v[v]] for v in c.vars} == set(c.var_types.values())


def test_relabel_rejects_collisions():
    c = mk_trivial([CTRL, CTRL])
    with pytest.raises(StructureError):
        relabel(c, {"v1": "x", "v2": "x"})
    with pytest.raises(StructureError):
        relabel(c, {"nope": "x"})


@pytest.mark.parametrize(
    "var_names",
    [{"v1": 5}, {"v1": None}, {"v1": ("x",)}, {"v1": ["x"]}, {"v1": "x", "v2": 5}, {5: "x"}, {("v1",): "x"}, {None: "x", "v1": "y"}],
)
def test_relabel_rejects_names_that_are_not_strings(var_names):
    c = mk_primitive(1, 1, 1, 1)
    with pytest.raises(StructureError, match="must be strings"):
        relabel(c, var_names)


@pytest.mark.parametrize("var_names", ["ab", [("v1",)], [("v1", "x")], 5, ("v1", "x")])
def test_relabel_rejects_names_that_are_not_a_mapping(var_names):
    c = mk_primitive(1, 1, 1, 1)
    with pytest.raises(StructureError, match="must map variable ids to names"):
        relabel(c, var_names)


def test_relabel_takes_any_mapping_of_names():
    c = mk_primitive(1, 1, 1, 1)
    new, ren = relabel(c, MappingProxyType({"v1": "go", "v4": "w1"}))
    assert (ren.f_v["v1"], ren.f_v["v4"]) == ("go", "w1")
    assert sorted(new.var_types) == ["go", "w1", "w2", "w3"]


def test_circuits_compare_by_value_but_are_unhashable():
    a, b = mk_primitive(1, 1, 1, 1), mk_primitive(1, 1, 1, 1)
    assert a == b
    assert Circuit.__hash__ is None
    with pytest.raises(TypeError, match="Circuit"):
        hash(a)


PRIMITIVE = {
    "var_types": {"v1": CTRL, "v2": CTRL},
    "units": ["u1"],
    "in_flows": {"i1": ("v1", "u1")},
    "out_flows": {"o1": ("u1", "v2")},
}


@pytest.mark.parametrize(
    "change, what",
    [
        ({"var_types": {1: CTRL, "v2": CTRL}, "in_flows": {"i1": (1, "u1")}}, "variable id 1"),
        ({"units": [1], "in_flows": {"i1": ("v1", 1)}, "out_flows": {"o1": (1, "v2")}}, "unit id 1"),
        ({"units": [[], "u2"]}, r"unit id \[\]"),
        ({"units": iter([None])}, "unit id None"),
        ({"in_flows": {1: ("v1", "u1")}}, "in-flow id 1"),
        ({"out_flows": {("o", 1): ("u1", "v2")}}, r"out-flow id \('o', 1\)"),
        ({"units": ["u1", "u1"]}, r"repeated unit ids: \['u1'\]"),
        ({"in_flows": {"i1": ("v1", [])}}, r"undeclared target unit \[\]"),
        ({"out_flows": {"o1": ({}, "v2")}}, r"undeclared source unit \{\}"),
    ],
    ids=[
        "var-int", "unit-int", "unit-unhashable", "unit-none-from-iterator", "in-flow-int", "out-flow-tuple",
        "unit-repeated", "in-flow-target-unhashable", "out-flow-source-unhashable",
    ],
)
def test_ids_that_are_not_strings_or_repeat_are_malformed(change, what):
    # ids are never coerced with str(): 1 and "1" would otherwise name one unit
    with pytest.raises(StructureError, match=what):
        validate_circuit(**{**PRIMITIVE, **change})
    assert validate_circuit(**PRIMITIVE) == mk_primitive(1, 0, 1, 0)


@pytest.mark.parametrize(
    "change, what",
    [
        ({"in_flows": {"i1": ("ghost", "u1")}}, "in-flow 'i1' has undeclared source variable 'ghost'"),
        ({"in_flows": {"i1": ("v1", "ghost")}}, "in-flow 'i1' has undeclared target unit 'ghost'"),
        ({"out_flows": {"o1": ("ghost", "v2")}}, "out-flow 'o1' has undeclared source unit 'ghost'"),
        ({"out_flows": {"o1": ("u1", "ghost")}}, "out-flow 'o1' has undeclared target variable 'ghost'"),
        ({"in_flows": {"i1": ("u1", "v1")}}, "in-flow 'i1' has undeclared source variable 'u1'"),
        ({"out_flows": {"o1": ("v2", "u1")}}, "out-flow 'o1' has undeclared source unit 'v2'"),
    ],
    ids=["in-source", "in-target", "out-source", "out-target", "in-reversed", "out-reversed"],
)
def test_every_flow_endpoint_is_checked(change, what):
    with pytest.raises(StructureError) as exc:
        validate_circuit(**{**PRIMITIVE, **change})
    assert str(exc.value) == what


@pytest.mark.parametrize(
    "change, what",
    [
        ({"in_flows": {"i1": ("v1",)}}, "in-flow 'i1' must be a Flow or a pair, got tuple"),
        ({"in_flows": {"i1": ("v1", "u1", "v2")}}, "in-flow 'i1' must be a Flow or a pair, got tuple"),
        ({"out_flows": {"o1": 5}}, "out-flow 'o1' must be a Flow or a pair, got int"),
        ({"in_flows": {"i1": "vu"}}, "in-flow 'i1' must be a Flow or a pair, got str"),
        ({"out_flows": {"o1": {"src": "u1", "dst": "v2"}}}, "out-flow 'o1' must be a Flow or a pair, got dict"),
        ({"in_flows": [("v1", "u1")]}, "in-flows must map ids to flows, got list"),
        ({"out_flows": "o1"}, "out-flows must map ids to flows, got str"),
        ({"units": 5}, "units must be a collection, got int"),
        ({"units": "u1"}, "units must be a collection, got str"),
        (
            {"units": "u", "in_flows": {"i1": ("v1", "u")}, "out_flows": {"o1": ("u", "v2")}},
            "units must be a collection, got str",
        ),
        ({"sigma": 5}, "sigma must be a collection, got int"),
        ({"sigma": "ctrl"}, "sigma must be a collection, got str"),
    ],
    ids=[
        "spec-of-one", "spec-of-three", "spec-int", "spec-string", "spec-dict", "flows-list", "flows-string",
        "units-int", "units-string", "units-string-of-one-unit", "sigma-int", "sigma-string",
    ],
)
def test_malformed_python_side_input_is_a_structure_error(change, what):
    # each used to escape as a raw TypeError or AttributeError, or to read a string as its characters ("u1" as {"u", "1"})
    with pytest.raises(StructureError) as exc:
        validate_circuit(**{**PRIMITIVE, **change})
    assert str(exc.value) == what


def test_flow_specs_may_be_flows_or_pairs_and_units_and_sigma_any_iterable():
    prim, vt = mk_primitive(1, 0, 1, 0), PRIMITIVE["var_types"]
    assert validate_circuit(vt, ["u1"], {"i1": Flow("v1", "u1")}, {"o1": ["u1", "v2"]}) == prim
    assert validate_circuit(vt, iter(["u1"]), {"i1": ("v1", "u1")}, {"o1": ("u1", "v2")}, iter(["ctrl"])) == prim
