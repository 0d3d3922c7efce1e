"""Differential tests: the circuit and netlist document codec against ``json``.

``dumps_circuit`` and ``dumps_dag`` lay their documents out by hand; each
must equal ``json.dumps`` of the dict form with ``indent=2`` and sorted keys,
byte for byte, on fixtures, trivial circuits (empty blocks), operator
composites, random circuits, imported netlists, synthesised family members
and ids that need escaping. ``circuit_from_dict`` checks a plain flow entry
with one type test per field; ``reference_circuit_from_dict`` is the reader
that checked every entry in full. Both must return equal circuits, or raise
the same exception type with the same message, on the fuzz corpus and on
hand-mutated flow entries.
"""

from __future__ import annotations

import json
import random
from collections import OrderedDict
from typing import Any, Mapping

import pytest
from hypothesis import given

from ctrlcirc import BOOL, CTRL, StructureError, branch, fixtures, parallel
from ctrlcirc.model import Flow, TypeTag, _as_tag, mk_trivial, unit_circuit, validate_circuit
from ctrlcirc.nanddag import synth_family, to_control, validate_dag
from ctrlcirc.serialize import (
    _require_keys,
    _require_object,
    circuit_from_dict,
    circuit_to_dict,
    dag_to_dict,
    dumps_circuit,
    dumps_dag,
    loads_circuit,
    loads_dag,
)
from conftest import random_circuit, random_primitive
from test_fuzz_inputs import CIRCUIT, FUZZ, ONE_UNIT, documents
from test_nanddag_differential import deep_netlist_doc


def oracle(d: dict) -> str:
    return json.dumps(d, indent=2, sort_keys=True) + "\n"


# Characters json escapes (or, with ensure_ascii, writes as \u escapes,
# surrogate pairs included).
SPECIAL = ['"', "\\", "\n", "\x00", "\u00e9", "\U0001f600", "\u2028"]


def special_circuit(s: str):
    """A two-unit circuit whose every id, and one id that is nothing else, holds ``s``."""
    return validate_circuit(
        {f"c{s}": "ctrl", f"b{s}": "bool", f"m{s}": "ctrl", f"o{s}": "ctrl", s: "bool"},
        [f"u{s}", s],
        {f"i{s}": Flow(f"c{s}", f"u{s}"), f"j{s}": Flow(f"b{s}", f"u{s}"), s: Flow(f"m{s}", s)},
        {f"p{s}": Flow(f"u{s}", f"m{s}"), f"q{s}": Flow(s, f"o{s}"), s: Flow(s, s)},
    )


def special_dag(s: str):
    return validate_dag(
        {f"x{s}": "input", f"y{s}": "input", s: "gate", f"z{s}": "output"},
        [(f"x{s}", s), (f"y{s}", s), (s, f"z{s}")],
    )


def _circuits():
    out = [(name, build()) for name, build in sorted(fixtures.REGISTRY.items())]
    out += [("unit", unit_circuit()), ("trivial", mk_trivial([CTRL, BOOL, BOOL])), ("trivial-ctrl", mk_trivial([CTRL] * 3))]
    f = fixtures.fixture
    out.append(("par", parallel(parallel(f("and"), f("or")), f("not"))))
    wiring = [("c_in", "c_in"), ("b_in", "b_in")], [("c_out", "c_out"), ("b_out", "b_out")]
    out.append(("branch", branch(f("buffer"), f("buffer"), *wiring).circuit))
    rnd = random.Random(20251019)
    out += [(f"random{i}", random_circuit(rnd, extra_ops=4)) for i in range(40)]
    out += [(f"primitive{i}", random_primitive(rnd)) for i in range(10)]
    gen = random.Random(7)
    out += [(f"deep{g}", to_control(loads_dag(deep_netlist_doc(g, n, gen))).circuit) for g, n in ((200, 2), (401, 3))]
    members = synth_family({0: [1], 2: [0, 1, 1, 0], 4: [gen.randint(0, 1) for _ in range(16)]}).members
    out += [(f"member{k}", m.circuit) for k, m in sorted(members.items())]
    out += [(f"special{i}", special_circuit(s)) for i, s in enumerate(SPECIAL)]
    out.append(("special-all", special_circuit("".join(SPECIAL))))
    return out


CIRCUITS = _circuits()


@pytest.mark.parametrize("c", [c for _, c in CIRCUITS], ids=[name for name, _ in CIRCUITS])
def test_dumps_circuit_equals_the_indented_json_encoder(c):
    text = dumps_circuit(c)
    assert text == oracle(circuit_to_dict(c))
    assert loads_circuit(text) == c


def _dags():
    gen = random.Random(11)
    out = [(f"deep{g}", loads_dag(deep_netlist_doc(g, n, gen))) for g, n in ((2, 2), (200, 2), (801, 5))]
    members = synth_family({1: [1, 0], 3: [0, 1, 1, 0, 1, 0, 0, 1], 5: [gen.randint(0, 1) for _ in range(32)]}).members
    out += [(f"member{k}", m.dag) for k, m in sorted(members.items()) if m.dag is not None]
    out += [(f"special{i}", special_dag(s)) for i, s in enumerate(SPECIAL)]
    out.append(("special-all", special_dag("".join(SPECIAL))))
    return out


DAGS = _dags()


@pytest.mark.parametrize("d", [d for _, d in DAGS], ids=[name for name, _ in DAGS])
def test_dumps_dag_equals_the_indented_json_encoder(d):
    text = dumps_dag(d)
    assert text == oracle(dag_to_dict(d))
    assert loads_dag(text) == d


# -- reader -----------------------------------------------------------------


def reference_circuit_from_dict(d: Mapping[str, Any]):
    """The reader that runs the full key and endpoint checks on every flow entry."""
    _require_keys(d, {"vars", "units", "in_flows", "out_flows"}, {"sigma"}, "circuit document")

    if not isinstance(d["units"], list):
        raise StructureError(f"circuit units must be a JSON list, got {type(d['units']).__name__}")
    if not isinstance(d.get("sigma", []), (list, type(None))):
        raise StructureError(f"circuit sigma must be a JSON list, got {type(d['sigma']).__name__}")

    def flows(key: str) -> dict[str, Flow]:
        _require_object(d[key], f"circuit {key}")
        out = {}
        for fid, spec in d[key].items():
            _require_keys(spec, {"src", "dst"}, set(), f"{key}[{fid!r}]")
            if not (isinstance(spec["src"], str) and isinstance(spec["dst"], str)):
                raise StructureError(f"{key}[{fid!r}] endpoints must be ids (strings)")
            out[fid] = Flow(spec["src"], spec["dst"])
        return out

    return validate_circuit(d["vars"], d["units"], flows("in_flows"), flows("out_flows"), d.get("sigma"))


def outcome(read, doc):
    try:
        return "ok", read(doc)
    except Exception as e:  # the type and message are what is compared
        return type(e), str(e)


def assert_same_outcome(doc):
    assert outcome(circuit_from_dict, doc) == outcome(reference_circuit_from_dict, doc)


@FUZZ
@given(documents(CIRCUIT))
def test_reader_agrees_with_the_reference_on_the_fuzz_corpus(doc):
    assert_same_outcome(doc)


class Spec(dict):
    pass


class Redirect(dict):
    """A mapping whose item lookup, which the general checks use, differs from ``get``."""

    def __getitem__(self, key):
        return "v2" if key == "src" else super().__getitem__(key)


class Id(str):
    pass


# Replacements for one flow entry: each goes through the general checks.
MUTATED_SPECS = {
    "list": ["v1", "u1"],
    "string": "v1",
    "none": None,
    "empty": {},
    "extra-key": {"src": "v1", "dst": "u1", "via": "x"},
    "missing-dst": {"src": "v1"},
    "missing-src": {"dst": "u1"},
    "two-wrong-keys": {"from": "v1", "to": "u1"},
    "src-and-wrong-key": {"src": "v1", "to": "u1"},
    "int-endpoint": {"src": 1, "dst": "u1"},
    "bool-endpoint": {"src": "v1", "dst": True},
    "none-endpoint": {"src": None, "dst": "u1"},
    "list-endpoint": {"src": ["v1"], "dst": "u1"},
    "dict-endpoint": {"src": "v1", "dst": {"u1": 1}},
    "undeclared-endpoint": {"src": "nope", "dst": "u1"},
    "reversed-endpoints": {"src": "u1", "dst": "v1"},
    "dict-subclass": Spec(src="v1", dst="u1"),
    "ordered-dict": OrderedDict(dst="u1", src="v1"),
    "str-subclass-endpoints": {"src": Id("v1"), "dst": Id("u1")},
    "dict-subclass-extra-key": Spec(src="v1", dst="u1", via="x"),
    "dict-subclass-own-getitem": Redirect(src="v1", dst="u1"),
}


@pytest.mark.parametrize("key, fid", [("in_flows", "i1"), ("out_flows", "o1"), ("in_flows", "i0"), ("out_flows", 7)])
@pytest.mark.parametrize("spec", list(MUTATED_SPECS.values()), ids=list(MUTATED_SPECS))
def test_reader_agrees_with_the_reference_on_mutated_flow_entries(key, fid, spec):
    doc = json.loads(json.dumps(ONE_UNIT))
    if fid == "i0":  # a good entry first, then the mutated one
        doc["in_flows"] = {"i0": {"src": "v1", "dst": "u1"}, "i1": spec}
    else:
        doc[key][fid] = spec
    assert_same_outcome(doc)


@pytest.mark.parametrize("flows", [[], None, "x", OrderedDict(), {"i1": {"src": "v1", "dst": "u1"}}])
def test_reader_agrees_with_the_reference_on_flow_maps(flows):
    doc = json.loads(json.dumps(ONE_UNIT))
    doc["in_flows"] = flows
    assert_same_outcome(doc)


@pytest.mark.parametrize("c", [c for _, c in CIRCUITS[::5]], ids=[name for name, _ in CIRCUITS[::5]])
def test_reader_agrees_with_the_reference_on_written_documents(c):
    doc = json.loads(dumps_circuit(c))
    assert circuit_from_dict(doc) == reference_circuit_from_dict(doc) == c


def reference_as_tag(value):
    if isinstance(value, TypeTag):
        return value
    try:
        return TypeTag(value)
    except ValueError:
        raise StructureError(f"unknown type tag {value!r}") from None


@pytest.mark.parametrize("value", ["ctrl", "bool", CTRL, BOOL, Id("ctrl"), "CTRL", "", None, 1, 1.0, True, [], {}, ["ctrl"]])
def test_as_tag_agrees_with_the_enum_constructor(value):
    assert outcome(_as_tag, value) == outcome(reference_as_tag, value)
