"""``ctrlcirc exec --trace`` streams its file: the same bytes as ``trace_to_jsonl``, in memory O(state).

The CLI writes the pieces of ``serialize._trace_pieces`` to the file one
after another; ``trace_to_jsonl`` joins the same pieces into one string.
These tests check that the file and the string agree byte for byte on
fixtures, write conflicts, step limits and imported netlists, that an
existing file is replaced whole, that a file that cannot be opened is an
``io error`` (exit 2), and that writing a 53.6 MB trace holds far less
than its text in memory.
"""

from __future__ import annotations

import json
import random
import tracemalloc

import pytest

from ctrlcirc import cli
from ctrlcirc.dynamics import ExecConfig, Outcome, initial_state, run
from ctrlcirc.fixtures import fixture
from ctrlcirc.nanddag import lift_inputs, to_control
from ctrlcirc.serialize import dumps_circuit, loads_dag, trace_to_jsonl, value_to_json
from test_differential import all_inputs
from test_dynamics import conflict_circuit
from test_nanddag_differential import deep_netlist_doc


def exec_trace(tmp_path, c, inputs, *options: str) -> tuple[int, bytes]:
    """Run ``ctrlcirc exec --trace`` on ``c`` and ``inputs``; its exit code and the trace file's bytes."""
    circ, ins, out = tmp_path / "c.circuit", tmp_path / "in.json", tmp_path / "t.jsonl"
    circ.write_text(dumps_circuit(c), encoding="utf-8")
    ins.write_text(json.dumps({v: value_to_json(x) for v, x in inputs.items()}), encoding="utf-8")
    code = cli.main(["exec", str(circ), "--inputs", str(ins), "--trace", str(out), *options])
    return code, out.read_bytes()


def string_form(c, inputs, seed: int = 0, max_steps: int = 10_000) -> bytes:
    return trace_to_jsonl(run(c, initial_state(c, inputs), ExecConfig(seed=seed, max_steps=max_steps))).encode()


def last_record(text: bytes) -> dict:
    return json.loads(text.splitlines()[-1])


@pytest.mark.parametrize("name", ["p53", "flipflop"])
def test_streamed_file_equals_string_form_on_fixtures(tmp_path, capsys, name):
    c = fixture(name)
    for inputs in all_inputs(c):
        for seed in (0, 1, 7, 424242):
            code, got = exec_trace(tmp_path, c, inputs, "--seed", str(seed))
            assert code == 0 and got == string_form(c, inputs, seed), (inputs, seed)
    capsys.readouterr()


def test_streamed_file_equals_string_form_on_a_write_conflict(tmp_path, capsys):
    c = conflict_circuit()
    outcomes = set()
    for inputs in all_inputs(c):
        code, got = exec_trace(tmp_path, c, inputs)
        assert code == 0 and got == string_form(c, inputs)
        outcomes.add(last_record(got)["outcome"])
        if "conflict" in last_record(got):
            assert last_record(got) == {
                "conflict": "units 'u1' and 'u2' write different Booleans into 't'",
                "outcome": Outcome.WRITE_CONFLICT.value,
            }
    assert outcomes == {Outcome.WRITE_CONFLICT.value, Outcome.FINAL.value}
    capsys.readouterr()


@pytest.mark.parametrize("max_steps", [1, 2, 3])
def test_streamed_file_equals_string_form_under_a_step_limit(tmp_path, capsys, max_steps):
    c = fixture("flipflop")
    inputs = all_inputs(c)[1]
    code, got = exec_trace(tmp_path, c, inputs, "--seed", "5", "--max-steps", str(max_steps))
    assert code == 0 and got == string_form(c, inputs, 5, max_steps)
    assert last_record(got) == {"outcome": Outcome.STEP_LIMIT.value}
    assert len(got.splitlines()) == max_steps + 2
    capsys.readouterr()


def test_streamed_file_equals_string_form_on_an_imported_netlist(tmp_path, capsys):
    rnd = random.Random(3)
    d = loads_dag(deep_netlist_doc(201, 3, rnd))
    c = to_control(d).circuit
    for _ in range(4):
        inputs = lift_inputs(d, {x: rnd.randint(0, 1) for x in ("x0", "x1", "x2")}).values
        code, got = exec_trace(tmp_path, c, inputs, "--expect-final")
        assert code == 0 and got == string_form(c, inputs)
    capsys.readouterr()


def test_trace_over_a_longer_file_replaces_it(tmp_path, capsys):
    c = fixture("p53")
    inputs = all_inputs(c)[0]
    want = string_form(c, inputs)
    (tmp_path / "t.jsonl").write_bytes(b"stale\n" * (len(want) // 6 + 100))
    code, got = exec_trace(tmp_path, c, inputs)
    assert code == 0 and got == want
    capsys.readouterr()


@pytest.mark.parametrize("target", ["directory", "missing-parent"])
def test_trace_to_an_unwritable_path_is_an_io_error(tmp_path, capsys, target):
    circ, ins = tmp_path / "p53.circuit", tmp_path / "in.json"
    circ.write_text(dumps_circuit(fixture("p53")), encoding="utf-8")
    ins.write_text(json.dumps({"ctrl_in": "*", "p53_in": 1, "mdm2_in": 0}), encoding="utf-8")
    out = tmp_path if target == "directory" else tmp_path / "missing" / "t.jsonl"
    assert cli.main(["exec", str(circ), "--inputs", str(ins), "--trace", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("io error: ") and "Traceback" not in err
    assert not (tmp_path / "missing").exists()


# The trace of ``deep_netlist_doc(3200, 8, Random(3))`` under all-ones inputs
# and seed 0: 1,601 records and an outcome line, 53,591,718 bytes. Holding its
# text whole, as ``trace_to_jsonl`` does, takes more than twice that at once.
DEEP_TRACE_BYTES = 53_591_718
DEEP_TRACE_LINES = 1_602
PEAK_BOUND = 27_000_000  # about half the file


def test_streamed_trace_of_a_deep_netlist_stays_in_bounded_memory(tmp_path, capsys):
    d = loads_dag(deep_netlist_doc(3200, 8, random.Random(3)))
    c = to_control(d).circuit
    circ, ins, out = tmp_path / "deep.circuit", tmp_path / "in.json", tmp_path / "t.jsonl"
    circ.write_text(dumps_circuit(c), encoding="utf-8")
    init = lift_inputs(d, {f"x{i}": 1 for i in range(8)})
    ins.write_text(json.dumps({v: value_to_json(x) for v, x in init.values.items()}), encoding="utf-8")
    del d, c, init
    tracemalloc.start()
    try:
        code = cli.main(["exec", str(circ), "--inputs", str(ins), "--seed", "0", "--trace", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and capsys.readouterr().out.startswith("outcome: final")
    assert out.stat().st_size == DEEP_TRACE_BYTES
    with out.open("rb") as f:
        assert sum(1 for _ in f) == DEEP_TRACE_LINES
    assert peak < PEAK_BOUND, f"exec --trace peaked at {peak:,} bytes traced"
