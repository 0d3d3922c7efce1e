"""Fuzz the document readers and the command line with malformed JSON.

Every reader either returns its object or raises ``StructureError`` (bad
shape) or ``ValidationError`` (well-formed data that breaks a model rule).
Through ``main()`` those become exit 2 (``malformed input: ...``) and exit 1
(``validation failure: ...``); a well-formed wiring that the operator
refuses is a composition failure, exit 1. A document that is not UTF-8, and
a path that holds a NUL, are I/O errors, exit 2 (``io error: ...``).
Nothing escapes as a traceback.
Truth tables of k = 10 to 12 inputs must synthesise within a wall-clock
budget, and ``validate`` must read a circuit document with a 1 MB id, one
with 100,000 flows and one whose flow entry is nested 100,000 deep within
one, with the expected exit code. So must the netlist, inputs, ``--wiring``,
``--span`` and morphism readers, each given a valid document with a 1 MB id
and one with a value nested 100,000 deep.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ctrlcirc import Circuit, StructureError, ValidationError
from ctrlcirc import cli
from ctrlcirc.fixtures import fixture
from ctrlcirc.nanddag import NandDag, eval_dag, to_control
from ctrlcirc.serialize import assignments_from_dict, circuit_from_dict, circuit_to_dict, dag_from_dict, loads_circuit, loads_dag

IDS = ["v1", "v2", "v4", "v5", "u1", "i1", "o1", "p1", "c_in", "b_out", "a", "g", "y"]
KEYS = IDS + ["vars", "units", "in_flows", "out_flows", "sigma", "src", "dst", "nodes", "edges",
              "pairs", "in_pairs", "out_pairs", "head", "tail", "apex", "left", "right", "f_v", "f_u", "f_i", "f_o"]
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-1, 3)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(IDS + ["ctrl", "bool", "*", "0", "1", "input", "gate", "output"])
    | st.text(max_size=3)
)
JSON = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), children, max_size=4),
    max_leaves=12,
)

CIRCUIT = circuit_to_dict(fixture("and"))
DAG = {"nodes": {"a": "input", "b": "input", "g": "gate", "y": "output"}, "edges": [["a", "g"], ["b", "g"], ["g", "y"]]}
INPUTS = {"v1": "*", "v2": 1, "v3": 0}
SEQ_WIRING = {"pairs": [["v4", "v1"], ["v5", "v2"]]}
BRANCH_WIRING = {
    "in_pairs": [["c_in", "c_in"], ["b_in", "b_in"]],
    "out_pairs": [["c_out", "c_out"], ["b_out", "b_out"]],
}
ONE_UNIT = {
    "vars": {"v1": "ctrl", "v2": "ctrl"},
    "units": ["u1"],
    "in_flows": {"i1": {"src": "v1", "dst": "u1"}},
    "out_flows": {"o1": {"src": "u1", "dst": "v2"}},
}
SPAN = {
    "apex": {"vars": {"p1": "ctrl", "p2": "bool"}, "units": [], "in_flows": {}, "out_flows": {}},
    "left": {"f_v": {"p1": "v4", "p2": "v5"}, "f_u": {}, "f_i": {}, "f_o": {}},
    "right": {"f_v": {"p1": "v1", "p2": "v2"}, "f_u": {}, "f_i": {}, "f_o": {}},
}


def _paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield from _paths(v, prefix + (k,))


@st.composite
def mutated(draw, base):
    """``base`` with one subtree replaced by random JSON, or deleted."""
    doc = json.loads(json.dumps(base))
    path = draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return draw(JSON)
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    if draw(st.booleans()):
        parent[path[-1]] = draw(JSON)
    else:
        del parent[path[-1]]
    return doc


def documents(base):
    return mutated(base) | JSON


FUZZ = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow], print_blob=True)


@FUZZ
@given(documents(CIRCUIT))
def test_circuit_reader_raises_only_typed_errors(doc):
    try:
        assert isinstance(circuit_from_dict(doc), Circuit)
    except (StructureError, ValidationError):
        pass


@FUZZ
@given(documents(DAG))
def test_netlist_reader_raises_only_typed_errors(doc):
    try:
        assert isinstance(dag_from_dict(doc), NandDag)
    except (StructureError, ValidationError):
        pass


@FUZZ
@given(documents(INPUTS))
def test_inputs_reader_raises_only_structure_errors(doc):
    try:
        assert isinstance(assignments_from_dict(doc), dict)
    except StructureError:
        pass


# -- main() -----------------------------------------------------------------


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    for name in ("and", "nand2", "not", "buffer"):
        (d / f"{name}.circuit").write_text(json.dumps(circuit_to_dict(fixture(name))))
    return d


def main_on(files, argv_of, doc) -> tuple[int, str]:
    """Run ``main`` on ``doc`` written to a file; returns exit code and stderr."""
    return main_on_text(files, argv_of, json.dumps(doc))


def main_on_text(files, argv_of, text: str) -> tuple[int, str]:
    return main_on_bytes(files, argv_of, text.encode())


def main_on_bytes(files, argv_of, data: bytes) -> tuple[int, str]:
    doc_file = files / "doc.json"
    doc_file.write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([str(a).format(dir=files, doc=doc_file) for a in argv_of])
    return code, err.getvalue()


VALIDATE = ["validate", "{doc}"]
EXEC = ["exec", "{dir}/and.circuit", "--inputs", "{doc}"]
SEQ = ["compose", "--op", "seq", "{dir}/nand2.circuit", "{dir}/not.circuit", "--wiring", "{doc}", "--out", "{dir}/o.circuit"]
BRANCH = ["compose", "--op", "branch", "{dir}/buffer.circuit", "{dir}/buffer.circuit", "--wiring", "{doc}", "--out", "{dir}/o.circuit"]
ITER = ["compose", "--op", "iter-tail"] + ["{dir}/buffer.circuit"] * 4 + ["--wiring", "{doc}", "--out", "{dir}/o.circuit"]
SYNTH = ["synth-family", "{doc}", "--out-dir", "{dir}/family"]
SPAN_SEQ = ["compose", "--op", "seq", "{dir}/nand2.circuit", "{dir}/not.circuit", "--span", "{doc}", "--out", "{dir}/o.circuit"]

# The documented exit code of each failure, by the prefix main() prints.
DOCUMENTED = {"malformed input": 2, "io error": 2, "validation failure": 1, "composition failure": 1}


def assert_documented(code: int, err: str) -> None:
    if code == 0:
        assert err == ""
        return
    prefix = err.split(":", 1)[0]
    assert DOCUMENTED.get(prefix) == code, (code, err)


@pytest.mark.parametrize(
    "argv_of, base",
    [
        (EXEC, INPUTS),
        (SEQ, SEQ_WIRING),
        (BRANCH, BRANCH_WIRING),
        (ITER, {"head": [], "tail": []}),
        (SPAN_SEQ, SPAN),
        (SYNTH, {"0": [1], "1": [0, 1]}),
    ],
    ids=["exec-inputs", "seq-wiring", "branch-wiring", "iter-wiring", "seq-span", "synth-tables"],
)
def test_main_maps_malformed_documents_to_documented_exits(files, argv_of, base):
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow], print_blob=True)
    @given(documents(base))
    def check(doc):
        assert_documented(*main_on(files, argv_of, doc))

    check()


@pytest.mark.parametrize(
    "argv_of, doc",
    [
        (EXEC, ["x"]),
        (EXEC, "x"),
        (EXEC, {**INPUTS, "v2": True}),
        (EXEC, {**INPUTS, "v3": 0.0}),
        (SEQ, {"pairs": [["v4"]]}),
        (SEQ, {"pairs": [["v4", "v1", "v2"]]}),
        (SEQ, {"pairs": [[4, "v1"]]}),
        (SEQ, {"pairs": 5}),
        (SEQ, {"pair": [["v4", "v1"]]}),
        (SEQ, [["v4", "v1"]]),
        (BRANCH, {"in_pairs": [[1, 2, 3]]}),
        (ITER, {"head": [1]}),
        (SPAN_SEQ, {**SPAN, "apex": 3}),
        (SPAN_SEQ, {"left": SPAN["left"], "right": SPAN["right"]}),
        (SPAN_SEQ, {**SPAN, "left": []}),
        (SPAN_SEQ, {**SPAN, "right": {"f_v": {"p1": ["v1"], "p2": "v2"}}}),
        (SPAN_SEQ, {**SPAN, "left": {**SPAN["left"], "f_x": {}}}),
        (SYNTH, ["x"]),
        (SYNTH, {"a": [1, 0]}),
        (SYNTH, {"1": 5}),
        (SYNTH, {"1000000000": [1]}),
        (SYNTH, {"1": "10"}),
        (SYNTH, {"1": [1, "x"]}),
        (SYNTH, {"-1": []}),
        (SYNTH, {"01": [1, 0]}),
        (SYNTH, {"1": [True, False]}),
        (SYNTH, {"2": [0, 1]}),
        (VALIDATE, {**ONE_UNIT, "units": [1], "in_flows": {"i1": {"src": "v1", "dst": "1"}},
                    "out_flows": {"o1": {"src": "1", "dst": "v2"}}}),
        (VALIDATE, {**ONE_UNIT, "units": ["u1", "u1"]}),
    ],
    ids=[
        "inputs-list", "inputs-string", "inputs-boolean", "inputs-float", "pair-of-one", "pair-of-three", "pair-of-int", "pairs-int",
        "unknown-key", "wiring-list", "branch-row-of-ints", "head-row-int", "apex-int", "apex-missing",
        "leg-list", "leg-map-of-list", "leg-unknown-key", "tables-list", "table-key-not-a-number",
        "table-int", "table-huge-k", "table-string", "table-entry-string", "table-negative-k",
        "table-key-leading-zero", "table-booleans", "table-too-short", "units-int", "units-repeated",
    ],
)
def test_malformed_cli_documents_exit_2(files, argv_of, doc):
    code, err = main_on(files, argv_of, doc)
    assert code == 2 and err.startswith("malformed input: "), err


@pytest.mark.parametrize(
    "argv_of",
    [
        ["validate", "{doc}"],
        ["exec", "{doc}", "--inputs", "{dir}/inputs.json"],
        EXEC,
        ["iso", "{dir}/and.circuit", "{doc}"],
        ["import-nand", "{doc}", "--out", "{dir}/o.circuit"],
        SYNTH,
        SEQ,
    ],
    ids=["validate", "exec-circuit", "exec-inputs", "iso", "import-nand", "synth-tables", "seq-wiring"],
)
def test_documents_nested_too_deeply_for_the_json_reader_exit_2(files, argv_of):
    # 200,000 nested lists make json.loads raise RecursionError, not JSONDecodeError
    (files / "inputs.json").write_text(json.dumps(INPUTS))
    code, err = main_on_text(files, argv_of, "[" * 200_000)
    assert code == 2 and err.startswith("io error: ") and "nested too deeply" in err, err


NOT_UTF8 = b"\xff\xfe{}"
IMPORT = ["import-nand", "{doc}", "--out", "{dir}/o.circuit"]


@pytest.mark.parametrize(
    "argv_of, data",
    [
        (VALIDATE, NOT_UTF8),
        (EXEC, NOT_UTF8),
        (SEQ, NOT_UTF8),
        (SPAN_SEQ, NOT_UTF8),
        (IMPORT, NOT_UTF8),
        (SYNTH, NOT_UTF8),
        (SPAN_SEQ, json.dumps({**SPAN, "apex": "a\u0000b"}).encode()),
        (SPAN_SEQ, json.dumps({**SPAN, "apex": "\ud800"}).encode()),
        (["fixtures", "emit", "not", "--out", "{dir}/a\x00b"], b""),
        (SEQ[:-1] + ["{dir}/a\x00b"], json.dumps(SEQ_WIRING).encode()),
        (SYNTH[:-1] + ["{dir}/a\x00b"], json.dumps({"2": [0, 1, 1, 0]}).encode()),
    ],
    ids=[
        "validate-not-utf8", "exec-inputs-not-utf8", "seq-wiring-not-utf8", "seq-span-not-utf8",
        "import-nand-not-utf8", "synth-tables-not-utf8", "span-apex-nul", "span-apex-lone-surrogate",
        "fixtures-out-nul", "compose-out-nul", "synth-out-dir-nul",
    ],
)
def test_unreadable_documents_and_paths_exit_2_as_io_errors(files, argv_of, data):
    code, err = main_on_bytes(files, argv_of, data)
    assert code == 2 and err.startswith("io error: "), err
    if data == NOT_UTF8:
        assert err.startswith(f"io error: {files / 'doc.json'}: ") and "utf-8" in err, err


def test_a_value_error_raised_by_the_written_pieces_escapes(tmp_path):
    # opening the file and encoding the text map a ValueError to an io error; any other one from the text is a fault
    def pieces():
        yield "a"
        raise ValueError("from the pieces")

    with pytest.raises(ValueError, match="from the pieces"):
        cli._write_pieces(str(tmp_path / "o.jsonl"), pieces())


@pytest.mark.parametrize("runs", ["0", "-3"])
def test_exec_runs_below_one_exits_2(files, runs):
    code, err = main_on(files, EXEC + ["--runs", runs], INPUTS)
    assert code == 2 and err.startswith("malformed input: --runs must be at least 1"), err


def test_well_formed_one_unit_circuit_validates(files):
    assert main_on(files, VALIDATE, ONE_UNIT) == (0, "")


def test_well_formed_wiring_still_composes(files):
    assert main_on(files, SEQ, SEQ_WIRING) == (0, "")
    assert main_on(files, BRANCH, BRANCH_WIRING) == (0, "")
    assert main_on(files, SPAN_SEQ, SPAN) == (0, "")
    assert main_on(files, SYNTH, {"0": [1], "2": [0, 1, 1, 0]}) == (0, "")


# Wall-clock budget of one size-adversarial synth-family call: a k=12 table
# took about 1.2 s in-process on a 2-vCPU x86-64 VM with Python 3.11.
SYNTH_BUDGET_S = 10.0


@pytest.mark.parametrize("k", [10, 11, 12])
def test_synth_family_of_large_tables_finishes_within_budget(files, k):
    rng = random.Random(k)
    table = [rng.randint(0, 1) for _ in range(2**k)]
    start = time.perf_counter()
    assert main_on(files, SYNTH, {str(k): table}) == (0, "")
    assert time.perf_counter() - start < SYNTH_BUDGET_S
    # read the member back: its circuit is its netlist's import, and the netlist computes the table
    family = files / "family"
    entry = json.loads((family / "family.json").read_text())[str(k)]
    dag = loads_dag((family / entry["dag"]).read_text())
    assert loads_circuit((family / entry["circuit"]).read_text()) == to_control(dag).circuit
    for row in rng.sample(range(2**k), 16):
        bits = {node: (row >> i) & 1 for i, group in enumerate(entry["inputs"]) for node in group}
        assert eval_dag(dag, bits) == {entry["output"]: table[row]}


# -- size-adversarial circuit documents -------------------------------------


def _long_id_circuit() -> str:
    big = "v" * 1_000_000
    return json.dumps({
        "vars": {big: "ctrl", "v2": "ctrl"},
        "units": ["u1"],
        "in_flows": {"i1": {"src": big, "dst": "u1"}},
        "out_flows": {"o1": {"src": "u1", "dst": "v2"}},
    })


def _chain_circuit(n_units: int) -> str:
    """A control chain v0 -> u0 -> v1 -> ... of ``n_units`` units: 2 x ``n_units`` flows."""
    return json.dumps({
        "vars": {f"v{i}": "ctrl" for i in range(n_units + 1)},
        "units": [f"u{i}" for i in range(n_units)],
        "in_flows": {f"i{i}": {"src": f"v{i}", "dst": f"u{i}"} for i in range(n_units)},
        "out_flows": {f"o{i}": {"src": f"u{i}", "dst": f"v{i + 1}"} for i in range(n_units)},
    })


def _deep_flow_spec(depth: int) -> str:
    text = json.dumps({**ONE_UNIT, "in_flows": {"i1": "@"}})
    return text.replace('"@"', '{"src": ' * depth + '"v1"' + "}" * depth)


# Wall-clock budget of one size-adversarial validate call; the 100,000-flow
# chain took about 1.4 s in-process on a 2-vCPU x86-64 VM with Python 3.11.
VALIDATE_BUDGET_S = 10.0


@pytest.mark.parametrize(
    "make, code",
    [(_long_id_circuit, 0), (lambda: _chain_circuit(50_000), 0), (lambda: _deep_flow_spec(100_000), 2)],
    ids=["id-of-1MB", "100000-flows", "flow-spec-nested-100000-deep"],
)
def test_size_adversarial_circuit_documents_validate_within_budget(files, make, code):
    text = make()
    start = time.perf_counter()
    got, err = main_on_text(files, VALIDATE, text)
    assert time.perf_counter() - start < VALIDATE_BUDGET_S
    assert got == code, err
    assert_documented(got, err)


# -- size-adversarial netlist, inputs, wiring, span and morphism documents ---


BIG = "v" * 1_000_000
BIG_SEQ = ["compose", "--op", "seq", "{dir}/big.circuit", "{dir}/big.circuit", "--out", "{dir}/o.circuit"]


def _nested(doc, depth: int = 100_000) -> str:
    """``doc`` as JSON text, its ``"@"`` value replaced by a list nested ``depth`` deep."""
    return json.dumps(doc).replace('"@"', "[" * depth + '"v1"' + "]" * depth)


def _trivial_apex(var: str) -> dict:
    return {"vars": {var: "ctrl"}, "units": [], "in_flows": {}, "out_flows": {}}


# Each reader gets a valid document with one 1 MB id (``big.circuit`` is a
# one-unit circuit whose invar id is BIG), which it must accept, and one with a
# value nested 100,000 deep, which the JSON reader refuses.
SIZE_CASES = {
    "netlist-id-of-1MB": (IMPORT, json.dumps({
        "nodes": {BIG: "input", "b": "input", "g": "gate", "y": "output"},
        "edges": [[BIG, "g"], ["b", "g"], ["g", "y"]],
    }), 0),
    "netlist-nested-100000-deep": (IMPORT, _nested({**DAG, "edges": [["a", "g"], "@", ["g", "y"]]}), 2),
    "inputs-id-of-1MB": (["exec", "{dir}/big.circuit", "--inputs", "{doc}"], json.dumps({BIG: "*"}), 0),
    "inputs-nested-100000-deep": (EXEC, _nested({**INPUTS, "v3": "@"}), 2),
    "wiring-id-of-1MB": (BIG_SEQ + ["--wiring", "{doc}"], json.dumps({"pairs": [["v2", BIG]]}), 0),
    "wiring-nested-100000-deep": (SEQ, _nested({"pairs": [["v4", "v1"], "@"]}), 2),
    "span-apex-id-of-1MB": (BIG_SEQ + ["--span", "{doc}"], json.dumps({
        "apex": _trivial_apex(BIG), "left": {"f_v": {BIG: "v2"}}, "right": {"f_v": {BIG: BIG}},
    }), 0),
    "span-nested-100000-deep": (SPAN_SEQ, _nested({**SPAN, "apex": {**SPAN["apex"], "units": "@"}}), 2),
    "morphism-id-of-1MB": (BIG_SEQ + ["--span", "{doc}"], json.dumps({
        "apex": _trivial_apex("p1"), "left": {"f_v": {"p1": "v2"}}, "right": {"f_v": {"p1": BIG}},
    }), 0),
    "morphism-nested-100000-deep": (SPAN_SEQ, _nested({**SPAN, "left": {**SPAN["left"], "f_v": {"p1": "v4", "p2": "@"}}}), 2),
}

# Wall-clock budget of one of these CLI calls; the slowest, importing a
# netlist with a 1 MB id, took about 0.1 s in-process on a 2-vCPU x86-64 VM
# with Python 3.11.
READER_BUDGET_S = 10.0


@pytest.mark.parametrize("argv_of, text, code", list(SIZE_CASES.values()), ids=list(SIZE_CASES))
def test_size_adversarial_documents_reach_their_exit_within_budget(files, argv_of, text, code):
    (files / "big.circuit").write_text(_long_id_circuit())
    start = time.perf_counter()
    got, err = main_on_text(files, argv_of, text)
    assert time.perf_counter() - start < READER_BUDGET_S
    assert got == code, err[:200]
    if code == 2:
        assert err.startswith("io error: ") and "nested too deeply" in err, err[:200]
    assert_documented(got, err)
