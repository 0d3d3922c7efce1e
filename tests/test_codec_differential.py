"""Differential tests: the circuit and netlist document codec against ``json``.

``dumps_circuit`` and ``dumps_dag`` lay their documents out by hand; each
must equal ``json.dumps`` of the dict form with ``indent=2`` and sorted keys,
byte for byte, on fixtures, trivial circuits (empty blocks), operator
composites, random circuits, imported netlists, synthesised family members
and ids that need escaping. ``circuit_from_dict`` checks a plain flow entry
with one type test per field; ``reference_circuit_from_dict`` is the reader
that checked every entry in full, over a frozen copy of the model's
``_assemble``/``validate_circuit`` from before their flow loops merged. Both
must return equal circuits, or raise the same exception type with the same
message, on the fuzz corpus and on hand-mutated flow entries. Called
directly, ``validate_circuit`` must agree with that frozen copy too, except
that malformed Python-side parts it once let through as a raw ``TypeError``
or ``AttributeError``, or read a string as a collection of ids, now raise
``StructureError``. The CLI's other indented documents (the
import-nand and compose provenance, synth-family's ``family.json``, the iso
witness and the ``exec --runs`` summary) are written by the same block
writer and must equal ``json.dumps(..., indent=2, sort_keys=True)`` too.
"""

from __future__ import annotations

import json
import random
from collections import Counter, OrderedDict
from typing import Any, Mapping

import pytest
from hypothesis import given, settings, strategies as hs

from ctrlcirc import BOOL, CTRL, StructureError, branch, cli, fixtures, parallel
from ctrlcirc.model import Circuit, Flow, TypeTag, _as_tag, circuit_violations, mk_trivial, unit_circuit, validate_circuit
from ctrlcirc.errors import ValidationError
from ctrlcirc.nanddag import synth_family, to_control, validate_dag
from ctrlcirc.serialize import (
    _indented,
    _require_keys,
    _transform_provenance,
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


def reference_assemble(var_types, units, in_flows, out_flows, sigma) -> Circuit:
    """A frozen copy of ``model._assemble`` as it was before its flow loops merged."""
    if not isinstance(var_types, Mapping):
        raise StructureError(f"variables must map ids to type tags, got {type(var_types).__name__}")
    units = list(units)
    for what, ids in (("variable", var_types), ("unit", units), ("in-flow", in_flows), ("out-flow", out_flows)):
        for x in ids:
            if not isinstance(x, str):
                raise StructureError(f"{what} id {x!r} must be a string")
    vt = {v: _as_tag(t) for v, t in var_types.items()}
    us = frozenset(units)
    if len(us) != len(units):
        raise StructureError(f"repeated unit ids: {sorted(u for u, n in Counter(units).items() if n > 1)}")

    def norm(flows) -> dict[str, Flow]:
        return {fid: f if isinstance(f, Flow) else Flow(*f) for fid, f in flows.items()}

    ins = norm(in_flows)
    outs = norm(out_flows)
    for fid, f in ins.items():
        if not isinstance(f.src, str) or f.src not in vt:
            raise StructureError(f"in-flow {fid!r} has undeclared source variable {f.src!r}")
        if not isinstance(f.dst, str) or f.dst not in us:
            raise StructureError(f"in-flow {fid!r} has undeclared target unit {f.dst!r}")
    for fid, f in outs.items():
        if not isinstance(f.src, str) or f.src not in us:
            raise StructureError(f"out-flow {fid!r} has undeclared source unit {f.src!r}")
        if not isinstance(f.dst, str) or f.dst not in vt:
            raise StructureError(f"out-flow {fid!r} has undeclared target variable {f.dst!r}")
    if sigma is None:
        sig = frozenset(vt.values())
    else:
        sig = frozenset(_as_tag(t) for t in sigma)
    return Circuit(vt, us, ins, outs, sig)


def reference_validate_circuit(var_types, units=(), in_flows=None, out_flows=None, sigma=None) -> Circuit:
    """A frozen copy of ``model.validate_circuit`` over ``reference_assemble``."""
    c = reference_assemble(var_types, units, in_flows or {}, out_flows or {}, sigma)
    violations = circuit_violations(c)
    if violations:
        raise ValidationError(violations)
    return c


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

    return reference_validate_circuit(d["vars"], d["units"], flows("in_flows"), flows("out_flows"), d.get("sigma"))


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


# Python-side arguments for ``validate_circuit``: a valid circuit (a NAND gate)
# with up to two parts replaced, each from a pool of the shapes ``_assemble``
# takes (a mapping of flow specs, a collection of ids) or, for the second
# test, of the shapes it now refuses up front. Variables, units and sigma are
# factories, as an iterator is used up by one call.
BASE = (
    lambda: {"v1": "ctrl", "v2": "bool", "v3": "bool", "v4": "ctrl", "v5": "bool"},
    lambda: ["u1"],
    {"i1": ("v1", "u1"), "i2": ("v2", "u1"), "i3": ("v3", "u1")},
    {"o1": ("u1", "v4"), "o2": ("u1", "v5")},
    lambda: None,
)
TAKEN = (
    [
        lambda: {"v1": "ctrl", "v2": CTRL, "v4": "ctrl"}, lambda: {1: "ctrl", "v4": "ctrl"}, lambda: {"v1": "nope"},
        lambda: [], lambda: {},
    ],
    [lambda: ("u1",), lambda: iter(["u1"]), lambda: {"u1": 0}, lambda: [1], lambda: ["u1", "u1"], lambda: [[]], lambda: []],
    [
        Flow("v1", "u1"), ["v1", "u1"], ("v4", "u1"), ("ghost", "u1"), ("v1", "ghost"), ("v1", []), (1, "u1"),
        Flow(1, "u1"), ("u1", "v1"),
    ],
    [Flow("u1", "v4"), ["u1", "v2"], ("u1", "ghost"), ("ghost", "v4"), ("v4", "u1"), ({}, "v4")],
    [
        lambda: ["ctrl"], lambda: ["ctrl", "bool"], lambda: [CTRL, "bool"], lambda: iter(["bool", "ctrl"]),
        lambda: ["nope"], lambda: [[]],
    ],
)
# a string or non-collection as units or sigma, a flow map that is not a mapping, a flow spec that is not a Flow or a pair
BAD_SPECS = ["vu", "v1", ("v1",), ("v1", "u1", "x"), 5, None, {"src": "v1", "dst": "u1"}, ()]
REFUSED = (
    [],
    [lambda: "u1", lambda: "u", lambda: "", lambda: 5, lambda: None],
    BAD_SPECS,
    BAD_SPECS,
    [lambda: "ctrl", lambda: "", lambda: 5],
)
BAD_FLOW_MAPS = [["i1"], [("v1", "u1")], "i1", 5]


def replaced(draw, k: int, pool: list, refused: bool):
    """Part ``k`` of ``BASE`` with one value drawn from ``pool``; a flow map gets one entry replaced or added."""
    if k not in (2, 3):
        return draw(hs.sampled_from(pool))
    if refused and draw(hs.booleans()):
        return draw(hs.sampled_from(BAD_FLOW_MAPS))
    flows = dict(BASE[k])
    flows[draw(hs.sampled_from([*flows, "x", 7]))] = draw(hs.sampled_from(pool))
    return flows


@hs.composite
def arguments(draw, refused: bool = False):
    args = list(BASE)
    for k in draw(hs.sets(hs.integers(0, 4), max_size=2)):
        args[k] = replaced(draw, k, TAKEN[k], False)
    if refused:
        k = draw(hs.integers(1, 4))
        args[k] = replaced(draw, k, REFUSED[k], True)
    return tuple(args)


def call(fn, var_types, units, in_flows, out_flows, sigma):
    return outcome(lambda _: fn(var_types(), units(), in_flows, out_flows, sigma()), None)


@settings(max_examples=400, deadline=None)
@given(arguments())
def test_validate_circuit_agrees_with_the_frozen_reference(args):
    ref = call(reference_validate_circuit, *args)
    assert ref[0] in ("ok", StructureError, ValidationError), ref
    assert call(validate_circuit, *args) == ref


@settings(max_examples=400, deadline=None)
@given(arguments(refused=True))
def test_refused_shapes_raise_structure_errors(args):
    # the reference let these through as a raw TypeError or AttributeError or read a string as its characters,
    # unless another replaced part failed first; the new checks refuse the shape itself
    assert call(validate_circuit, *args)[0] is StructureError


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


# -- the CLI's other indented documents ----------------------------------------


JSON_TEXT = hs.sampled_from(["", "a", "b", "u1", *SPECIAL, "".join(SPECIAL)])
JSON_SCALARS = hs.one_of(JSON_TEXT, hs.integers(-(2**70), 2**70), hs.booleans(), hs.none())
JSON_DOCS = hs.recursive(
    JSON_SCALARS,
    lambda inner: hs.one_of(
        hs.lists(inner, max_size=4),
        hs.lists(inner, max_size=4).map(tuple),
        hs.dictionaries(JSON_TEXT, inner, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(JSON_DOCS)
def test_block_writer_equals_the_indented_json_encoder(doc):
    assert _indented(doc) + "\n" == oracle(doc)


def reference_provenance(res) -> dict:
    """The import-nand provenance document as ``json.dumps`` was given it."""
    return {
        "vars": {v: {"edge": list(e), "copy": k} for v, (e, k) in sorted(res.var_origin.items())},
        "units": dict(sorted(res.unit_origin.items())),
        "inputs": {n: [list(p) for p in pairs] for n, pairs in sorted(res.input_bindings.items())},
        "outputs": {n: list(vs) for n, vs in sorted(res.output_bindings.items())},
    }


@pytest.mark.parametrize("d", [d for _, d in DAGS], ids=[name for name, _ in DAGS])
def test_import_provenance_equals_the_indented_json_encoder(d):
    res = to_control(d)
    assert _transform_provenance(res) == oracle(reference_provenance(res))


def cli_ok(*argv):
    assert cli.main([str(a) for a in argv]) == 0


def assert_indented_json(path):
    text = path.read_text(encoding="utf-8")
    assert text == oracle(json.loads(text))
    return json.loads(text)


def test_cli_documents_equal_the_indented_json_encoder(tmp_path, capsys):
    d = special_dag("".join(SPECIAL))
    dag, circ, prov = tmp_path / "s.dag", tmp_path / "s.circuit", tmp_path / "s-prov.json"
    dag.write_text(dumps_dag(d), encoding="utf-8")
    cli_ok("import-nand", dag, "--out", circ, "--provenance", prov)
    assert prov.read_text(encoding="utf-8") == oracle(reference_provenance(to_control(d)))

    fx = {name: tmp_path / f"{name}.circuit" for name in ("nand2", "not", "buffer", "entry", "action", "next", "eater1")}
    for name, path in fx.items():
        cli_ok("fixtures", "emit", name, "--out", path)
    special = tmp_path / "special.circuit"
    special.write_text(dumps_circuit(special_circuit("".join(SPECIAL))), encoding="utf-8")
    pairs, in_out, loop = tmp_path / "pairs.json", tmp_path / "in-out.json", tmp_path / "loop.json"
    pairs.write_text(json.dumps({"pairs": [["v4", "v1"], ["v5", "v2"]]}))
    in_out.write_text(json.dumps({"in_pairs": [["c_in", "c_in"], ["b_in", "b_in"]],
                                  "out_pairs": [["c_out", "c_out"], ["b_out", "b_out"]]}))
    loop.write_text(json.dumps({
        "head": [["ctrl_out", "ctrl_out", "ctrl_in"], ["r_out", "r_out", "r_in"],
                 ["q_out", "q_out", "q_in"], ["s_out", "s_out", "s_in"]],
        "tail": [["ctrl_out", "ctrl_in", "v1"], ["q_next_out", "q_in", "v2"]],
    }))
    for op, operands, extra in (
        ("seq", (fx["nand2"], fx["not"]), ("--wiring", pairs)),
        ("par", (special, fx["not"]), ()),
        ("branch", (fx["buffer"], fx["buffer"]), ("--wiring", in_out)),
        ("iter-tail", (fx["entry"], fx["action"], fx["next"], fx["eater1"]), ("--wiring", loop)),
    ):
        prov = tmp_path / f"{op}-prov.json"
        cli_ok("compose", "--op", op, *operands, *extra, "--out", tmp_path / f"{op}.circuit", "--provenance", prov)
        assert assert_indented_json(prov)["op"] == op

    witness = tmp_path / "witness.json"
    cli_ok("iso", special, special, "--witness", witness)
    assert set(assert_indented_json(witness)) == {"f_v", "f_u", "f_i", "f_o"}

    tables = tmp_path / "tables.json"
    tables.write_text(json.dumps({"0": [1], "2": [0, 1, 1, 0], "3": [0, 1, 1, 0, 1, 0, 0, 1]}))
    cli_ok("synth-family", tables, "--out-dir", tmp_path / "family")
    assert set(assert_indented_json(tmp_path / "family" / "family.json")) == {"0", "2", "3"}

    p53, inputs = tmp_path / "p53.circuit", tmp_path / "in.json"
    cli_ok("fixtures", "emit", "p53", "--out", p53)
    inputs.write_text(json.dumps({"ctrl_in": "*", "p53_in": 1, "mdm2_in": 0}))
    capsys.readouterr()
    cli_ok("exec", p53, "--inputs", inputs, "--runs", "30", "--format", "json-lines")
    payload = json.loads(capsys.readouterr().out)
    cli_ok("exec", p53, "--inputs", inputs, "--runs", "30")
    assert capsys.readouterr().out == oracle(payload)
