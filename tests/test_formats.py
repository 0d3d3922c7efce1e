import json
import re

import pytest

from ctrlcirc import StructureError, Value, circuit_violations, in_adjoint
from ctrlcirc.dot import export_dot
from ctrlcirc.fixtures import REGISTRY, build_and, fixture
from ctrlcirc.model import classify, unit_circuit
from ctrlcirc.nanddag import random_dag
from ctrlcirc.serialize import (
    assignments_from_dict,
    circuit_from_dict,
    circuit_to_dict,
    dag_from_dict,
    dag_to_dict,
    dumps_circuit,
    loads_circuit,
    morphism_from_dict,
    morphism_to_dict,
    value_from_json,
    value_to_json,
)
from ctrlcirc import cli
from conftest import random_circuit


def test_circuit_round_trip(rnd):
    for _ in range(25):
        c = random_circuit(rnd)
        assert loads_circuit(dumps_circuit(c)) == c


def test_serialisation_is_canonical(rnd):
    c = random_circuit(rnd)
    assert dumps_circuit(c) == dumps_circuit(loads_circuit(dumps_circuit(c)))


def test_unknown_keys_rejected():
    doc = circuit_to_dict(build_and())
    doc["comment"] = "nope"
    with pytest.raises(StructureError):
        circuit_from_dict(doc)
    flow_doc = circuit_to_dict(build_and())
    flow_doc["in_flows"]["i1"]["note"] = "nope"
    with pytest.raises(StructureError):
        circuit_from_dict(flow_doc)


def test_sigma_optional_and_rederived():
    doc = circuit_to_dict(build_and())
    del doc["sigma"]
    assert circuit_from_dict(doc) == build_and()


def test_dag_round_trip(rnd):
    for _ in range(10):
        d = random_dag(rnd)
        assert dag_from_dict(dag_to_dict(d)) == d


def test_value_json_mapping():
    assert value_to_json(Value.SIGNAL) == "*"
    assert value_to_json(Value.ZERO) == 0
    assert value_from_json("*") is Value.SIGNAL
    assert value_from_json(1) is Value.ONE
    assert value_from_json("0") is Value.ZERO
    for bad in ("x", True, False, 0.0, 1.0, 2, None):
        with pytest.raises(StructureError):
            value_from_json(bad)
    assert assignments_from_dict({"a": "*", "b": 1}) == {"a": Value.SIGNAL, "b": Value.ONE}


@pytest.mark.parametrize("key", [1, None, ("a",), 1.5, True])
def test_inputs_keys_that_are_not_strings_are_malformed(key):
    # a library caller's key is never coerced with str(): 1 would otherwise name the variable "1"
    with pytest.raises(StructureError, match="must be a variable id"):
        assignments_from_dict({"a": "*", key: 1})


# -- DOT ----------------------------------------------------------------------

_NODE = re.compile(r'^\s*"[^"]+" \[[^\]]*\];$')
_EDGE = re.compile(r'^\s*"[^"]+" -> "[^"]+" \[[^\]]*\];$')


def check_dot_grammar(text: str) -> tuple[int, int]:
    lines = text.strip().splitlines()
    assert lines[0] == "digraph circuit {"
    assert lines[-1] == "}"
    nodes = edges = 0
    for line in lines[1:-1]:
        if line.strip().startswith("//") or line.strip() in ("rankdir=LR;",):
            continue
        if _EDGE.match(line):
            edges += 1
        elif _NODE.match(line):
            nodes += 1
        else:
            raise AssertionError(f"unparseable DOT line: {line!r}")
    return nodes, edges


def test_dot_unit_circuit():
    nodes, edges = check_dot_grammar(export_dot(unit_circuit()))
    assert (nodes, edges) == (1, 0)


def test_dot_and_counts():
    nodes, edges = check_dot_grammar(export_dot(build_and()))
    # 7 variables + 2 units, one edge per flow (5 in + 4 out)
    assert nodes == 9
    assert edges == 9


def test_dot_deterministic_and_parseable():
    for name in sorted(REGISTRY):
        c = fixture(name)
        text = export_dot(c)
        assert text == export_dot(c)
        check_dot_grammar(text)


# -- CLI ----------------------------------------------------------------------


def run_cli(*argv) -> int:
    return cli.main(list(argv))


def test_cli_validate_and_exec(tmp_path, capsys):
    circ = tmp_path / "and.circuit"
    circ.write_text(dumps_circuit(build_and()))
    assert run_cli("validate", str(circ)) == 0
    inputs = tmp_path / "in.json"
    inputs.write_text(json.dumps({"v1": "*", "v2": 1, "v3": 0}))
    trace = tmp_path / "t.jsonl"
    assert run_cli("exec", str(circ), "--inputs", str(inputs), "--trace", str(trace), "--expect-final") == 0
    out = capsys.readouterr().out
    assert "v7=0" in out
    assert trace.read_text().splitlines()[-1] == '{"outcome": "final"}'


def test_cli_human_output_escapes_what_stdout_cannot_encode(tmp_path, capsys):
    # the and fixture with its output v7 renamed to a lone surrogate, which json.loads accepts
    circ = tmp_path / "sur.circuit"
    circ.write_text(dumps_circuit(build_and()).replace('"v7"', '"\\ud800"'))
    inputs = tmp_path / "in.json"
    inputs.write_text(json.dumps({"v1": "*", "v2": 1, "v3": 0}))
    exec_argv = ["exec", str(circ), "--inputs", str(inputs)]
    capsys.readouterr()
    # capsys's stdout encodes strictly as UTF-8, so printing the id itself would raise
    assert run_cli(*exec_argv) == 0
    assert capsys.readouterr().out == "outcome: final at t=2; state: v6=*, \\ud800=0\n"
    assert run_cli(*exec_argv, "--format", "json-lines") == 0
    assert json.loads(capsys.readouterr().out) == {"outcome": "final", "time": 2, "state": {"v6": "*", "\ud800": 0}}
    # the trace file is ASCII, the id escaped as JSON escapes it
    trace = tmp_path / "t.jsonl"
    assert run_cli(*exec_argv, "--trace", str(trace)) == 0
    lines = trace.read_bytes().decode("ascii").splitlines()
    assert '"\\ud800": 0' in lines[-2] and lines[-1] == '{"outcome": "final"}'
    assert json.loads(lines[-2])["state"] == {"v6": "*", "\ud800": 0}
    assert capsys.readouterr().out == "outcome: final at t=2; state: v6=*, \\ud800=0\n"
    assert run_cli("export-dot", str(circ)) == 0
    dot = capsys.readouterr().out
    assert '"var:\\ud800" [label="\\ud800"' in dot and "\ud800" not in dot
    # an output path that holds an undecodable file-name byte is echoed the same way
    out = tmp_path / "\udcff.circuit"
    assert run_cli("fixtures", "emit", "not", "--out", str(out)) == 0
    assert capsys.readouterr().out == f"wrote {tmp_path}/\\udcff.circuit\n"
    assert loads_circuit(out.read_text()) is not None


def test_export_dot_out_with_a_lone_surrogate_id_is_an_io_error(tmp_path, capsys):
    # the and fixture with v7 renamed to a lone surrogate: the DOT text holds it, and UTF-8 cannot encode it
    circ = tmp_path / "sur.circuit"
    circ.write_text(dumps_circuit(build_and()).replace('"v7"', '"\\ud800"'))
    dot = tmp_path / "sur.dot"
    capsys.readouterr()
    assert run_cli("export-dot", str(circ), "--out", str(dot)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"io error: {dot}: 'utf-8' codec can't encode character '\\ud800'"), err
    assert not dot.exists()  # the text is refused before the path is opened
    # a file already at the path keeps its content
    keep = tmp_path / "keep.dot"
    keep.write_text("old content")
    assert run_cli("export-dot", str(circ), "--out", str(keep)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"io error: {keep}: 'utf-8' codec can't encode character '\\ud800'"), err
    assert keep.read_text() == "old content"
    assert run_cli("export-dot", str(circ)) == 0
    assert '[label="\\ud800"' in capsys.readouterr().out


def test_cli_validate_reports_violations(tmp_path, capsys):
    bad = tmp_path / "bad.circuit"
    bad.write_text(json.dumps({"vars": {"x": "bool"}, "units": [], "in_flows": {}, "out_flows": {}}))
    assert run_cli("validate", str(bad), "--format", "json-lines") == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"valid": False, "violations": ["no-control-invar", "no-control-outvar"]}
    # a command that needs a valid circuit refuses it with exit 1
    inputs = tmp_path / "in.json"
    inputs.write_text(json.dumps({"x": 0}))
    assert run_cli("exec", str(bad), "--inputs", str(inputs)) == 1
    assert capsys.readouterr() == ("", "validation failure: invalid circuit: no-control-invar, no-control-outvar\n")


def test_cli_compose_iso_roundabout(tmp_path, capsys):
    nand2 = tmp_path / "nand2.circuit"
    inv = tmp_path / "not.circuit"
    assert run_cli("fixtures", "emit", "nand2", "--out", str(nand2)) == 0
    assert run_cli("fixtures", "emit", "not", "--out", str(inv)) == 0
    wiring = tmp_path / "w.json"
    wiring.write_text(json.dumps({"pairs": [["v4", "v1"], ["v5", "v2"]]}))
    out = tmp_path / "and.circuit"
    prov = tmp_path / "prov.json"
    assert (
        run_cli(
            "compose", "--op", "seq", str(nand2), str(inv),
            "--wiring", str(wiring), "--out", str(out), "--provenance", str(prov),
        )
        == 0
    )
    assert json.loads(prov.read_text())["total"] is True
    ref = tmp_path / "ref.circuit"
    assert run_cli("fixtures", "emit", "and", "--out", str(ref)) == 0
    assert run_cli("iso", str(out), str(ref)) == 0
    assert run_cli("iso", str(out), str(inv)) == 1


# nand2's outputs (v4, v5) onto not's inputs (v1, v2), through a two-variable apex
SPAN_DOC = {
    "apex": {"vars": {"p1": "ctrl", "p2": "bool"}, "units": [], "in_flows": {}, "out_flows": {}},
    "left": {"f_v": {"p1": "v4", "p2": "v5"}, "f_u": {}, "f_i": {}, "f_o": {}},
    "right": {"f_v": {"p1": "v1", "p2": "v2"}, "f_u": {}, "f_i": {}, "f_o": {}},
}


def test_cli_compose_from_explicit_span(tmp_path, capsys):
    # the span file carries the apex circuit inline plus both morphism map sets
    nand2 = tmp_path / "nand2.circuit"
    inv = tmp_path / "not.circuit"
    run_cli("fixtures", "emit", "nand2", "--out", str(nand2))
    run_cli("fixtures", "emit", "not", "--out", str(inv))
    span_file = tmp_path / "span.json"
    span_file.write_text(json.dumps(SPAN_DOC))
    out = tmp_path / "via_span.circuit"
    assert run_cli("compose", "--op", "seq", str(nand2), str(inv), "--span", str(span_file), "--out", str(out)) == 0
    ref = tmp_path / "ref.circuit"
    run_cli("fixtures", "emit", "and", "--out", str(ref))
    assert run_cli("iso", str(out), str(ref)) == 0


def test_morphism_documents_round_trip_and_default_missing_maps():
    m = in_adjoint(fixture("and")).morphism
    doc = morphism_to_dict(m)
    assert morphism_from_dict(doc, m.src, m.dst) == m
    assert morphism_from_dict({"f_v": doc["f_v"]}, m.src, m.dst) == m  # trivial source: the rest is empty
    for bad in ([], {"f_v": []}, {"f_v": {"c1": 1}}, {**doc, "f_x": {}}):
        with pytest.raises(StructureError):
            morphism_from_dict(bad, m.src, m.dst)


def test_cli_iso_writes_witness(tmp_path):
    a = tmp_path / "a.circuit"
    b = tmp_path / "b.circuit"
    run_cli("fixtures", "emit", "buffer", "--out", str(a))
    run_cli("fixtures", "emit", "buffer", "--out", str(b))
    witness = tmp_path / "w.json"
    assert run_cli("iso", str(a), str(b), "--witness", str(witness)) == 0
    maps = json.loads(witness.read_text())
    assert set(maps) == {"f_v", "f_u", "f_i", "f_o"}


def test_cli_auto_pair(tmp_path):
    nand2 = tmp_path / "nand2.circuit"
    inv = tmp_path / "not.circuit"
    run_cli("fixtures", "emit", "nand2", "--out", str(nand2))
    run_cli("fixtures", "emit", "not", "--out", str(inv))
    out = tmp_path / "o.circuit"
    assert run_cli("compose", "--op", "seq", str(nand2), str(inv), "--auto-pair", "--out", str(out)) == 0


def test_cli_import_and_exec_pipeline(tmp_path, capsys):
    dag = tmp_path / "g.dag"
    dag.write_text(
        json.dumps(
            {
                "nodes": {"a": "input", "b": "input", "g": "gate", "y": "output"},
                "edges": [["a", "g"], ["b", "g"], ["g", "y"]],
            }
        )
    )
    circ = tmp_path / "g.circuit"
    assert run_cli("import-nand", str(dag), "--out", str(circ)) == 0
    inputs = tmp_path / "in.json"
    inputs.write_text(json.dumps({"a>g#1": "*", "a>g#2": 1, "b>g#1": "*", "b>g#2": 0}))
    assert run_cli("exec", str(circ), "--inputs", str(inputs), "--format", "json-lines") == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["outcome"] == "final"
    assert payload["state"]["g>y#2"] == 1


def test_cli_exec_multirun_statistics(tmp_path, capsys):
    circ = tmp_path / "p53.circuit"
    assert run_cli("fixtures", "emit", "p53", "--out", str(circ)) == 0
    inputs = tmp_path / "in.json"
    inputs.write_text(json.dumps({"ctrl_in": "*", "p53_in": 1, "mdm2_in": 0}))
    capsys.readouterr()
    assert (
        run_cli("exec", str(circ), "--inputs", str(inputs), "--runs", "40", "--format", "json-lines", "--expect-final")
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["outcomes"] == {"final": 40}
    assert len(payload["fired_unit_sets"]) == 4


def test_cli_expect_final_exit_code(tmp_path, capsys):
    circ = tmp_path / "ff.circuit"
    assert run_cli("fixtures", "emit", "flipflop", "--out", str(circ)) == 0
    inputs = tmp_path / "in.json"
    inputs.write_text(json.dumps({"ctrl_in": "*", "r_in": 0, "q_in": 0, "s_in": 1}))
    assert (
        run_cli("exec", str(circ), "--inputs", str(inputs), "--max-steps", "3", "--expect-final") == 3
    )
    # with --runs the summary is printed, and the exit is 3 unless every run is final
    argv = ["exec", str(circ), "--inputs", str(inputs), "--runs", "40", "--max-steps", "3", "--format", "json-lines"]
    capsys.readouterr()
    assert run_cli(*argv, "--expect-final") == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["runs"] == 40 and payload["outcomes"] == {"step-limit": 40}
    assert run_cli(*argv) == 0


def test_cli_synth_family(tmp_path):
    tables = tmp_path / "tables.json"
    tables.write_text(json.dumps({"2": [0, 1, 1, 1]}))
    outdir = tmp_path / "fam"
    assert run_cli("synth-family", str(tables), "--out-dir", str(outdir)) == 0
    manifest = json.loads((outdir / "family.json").read_text())
    assert set(manifest) == {"2"}
    member = loads_circuit((outdir / "member_2.circuit").read_text())
    assert not circuit_violations(member)


def test_cli_compose_branch_and_iterate(tmp_path):
    # branch two copies of the same fixture, then build the toggle loop
    for name in ("entry", "action", "next", "eater1", "buffer"):
        run_cli("fixtures", "emit", name, "--out", str(tmp_path / f"{name}.circuit"))
    bw = tmp_path / "bw.json"
    bw.write_text(
        json.dumps(
            {
                "in_pairs": [["c_in", "c_in"], ["b_in", "b_in"]],
                "out_pairs": [["c_out", "c_out"], ["b_out", "b_out"]],
            }
        )
    )
    out = tmp_path / "br.circuit"
    buf = str(tmp_path / "buffer.circuit")
    assert run_cli("compose", "--op", "branch", buf, buf, "--wiring", str(bw), "--out", str(out)) == 0
    assert run_cli("validate", str(out)) == 0

    iw = tmp_path / "iw.json"
    iw.write_text(
        json.dumps(
            {
                "head": [
                    ["ctrl_out", "ctrl_out", "ctrl_in"],
                    ["r_out", "r_out", "r_in"],
                    ["q_out", "q_out", "q_in"],
                    ["s_out", "s_out", "s_in"],
                ],
                "tail": [["ctrl_out", "ctrl_in", "v1"], ["q_next_out", "q_in", "v2"]],
            }
        )
    )
    loop = tmp_path / "loop.circuit"
    prov = tmp_path / "loop-prov.json"
    assert (
        run_cli(
            "compose", "--op", "iter-tail",
            str(tmp_path / "entry.circuit"), str(tmp_path / "action.circuit"),
            str(tmp_path / "next.circuit"), str(tmp_path / "eater1.circuit"),
            "--wiring", str(iw), "--out", str(loop), "--provenance", str(prov),
        )
        == 0
    )
    assert run_cli("validate", str(loop)) == 0
    roles = json.loads(prov.read_text())
    assert {"entry", "body", "end", "exit"} <= set(roles)


def test_cli_seed_env_default(monkeypatch):
    monkeypatch.setenv("CTRLCIRC_SEED", "12345")
    args = cli.build_parser().parse_args(["exec", "c.circuit", "--inputs", "in.json"])
    assert args.seed == 12345
    monkeypatch.delenv("CTRLCIRC_SEED")
    args = cli.build_parser().parse_args(["exec", "c.circuit", "--inputs", "in.json"])
    assert args.seed == 0


def test_cli_malformed_seed_env_is_malformed_input(monkeypatch, tmp_path, capsys):
    circ = tmp_path / "and.circuit"
    circ.write_text(dumps_circuit(build_and()))
    inputs = tmp_path / "in.json"
    inputs.write_text(json.dumps({"v1": "*", "v2": 1, "v3": 0}))
    monkeypatch.setenv("CTRLCIRC_SEED", "abc")
    assert run_cli("exec", str(circ), "--inputs", str(inputs)) == 2
    err = capsys.readouterr().err
    assert err.startswith("malformed input: ") and "CTRLCIRC_SEED" in err and "'abc'" in err


def _count_builds(monkeypatch) -> list:
    """Empty ``main``'s parser cache and count the ``build_parser`` calls from now on."""
    builds = []
    build = cli.build_parser

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    return builds


def test_cli_main_builds_its_parser_once_per_seed_value(monkeypatch, tmp_path, capsys):
    builds = _count_builds(monkeypatch)
    monkeypatch.setenv("CTRLCIRC_SEED", "7")
    inputs = tmp_path / "in.json"
    inputs.write_text(json.dumps({"ctrl_in": "*", "p53_in": 1, "mdm2_in": 0}))
    # the calls of one fixture_exec benchmark pass: every fixture emitted, then four exec runs
    codes = [run_cli("fixtures", "emit", name, "--out", str(tmp_path / f"{name}.circuit")) for name in sorted(REGISTRY)]
    p53 = str(tmp_path / "p53.circuit")
    codes += [run_cli("exec", p53, "--inputs", str(inputs), "--runs", "10") for _ in range(4)]
    assert set(codes) == {0} and len(builds) == 1


def test_cli_seed_env_change_between_calls_sets_the_next_default(monkeypatch, tmp_path, capsys):
    circ = tmp_path / "p53.circuit"
    assert run_cli("fixtures", "emit", "p53", "--out", str(circ)) == 0
    inputs = tmp_path / "in.json"
    inputs.write_text(json.dumps({"ctrl_in": "*", "p53_in": 1, "mdm2_in": 0}))

    def trace(name, *seed):
        out = tmp_path / f"{name}.jsonl"
        assert run_cli("exec", str(circ), "--inputs", str(inputs), "--trace", str(out), *seed) == 0
        return out.read_bytes()

    # p53 runs differ at seeds 1 and 6, so a parser that kept the first default would show
    monkeypatch.setenv("CTRLCIRC_SEED", "1")
    first = trace("env-1")
    monkeypatch.setenv("CTRLCIRC_SEED", "6")
    second = trace("env-6")
    monkeypatch.delenv("CTRLCIRC_SEED")
    assert first == trace("seed-1", "--seed", "1") and second == trace("seed-6", "--seed", "6")
    assert first != second


@pytest.mark.parametrize(
    "argv", [["exec", "c.circuit", "--inputs", "in.json"], ["fixtures", "list"]], ids=["exec", "fixtures-list"]
)
def test_cli_malformed_seed_env_refuses_every_call(monkeypatch, capsys, argv):
    monkeypatch.setenv("CTRLCIRC_SEED", "abc")
    for _ in range(2):
        assert run_cli(*argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("malformed input: ") and "CTRLCIRC_SEED" in err and "'abc'" in err


def _exit_output(parse, argv, capsys) -> tuple:
    with pytest.raises(SystemExit) as e:
        parse(argv)
    captured = capsys.readouterr()
    return e.value.code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv", [["--help"], ["exec", "--help"], ["exec", "c.circuit"]], ids=["help", "exec-help", "usage-error"]
)
def test_cli_reused_parser_writes_help_and_usage_as_a_fresh_one(monkeypatch, capsys, argv):
    fresh = cli.build_parser
    builds = _count_builds(monkeypatch)
    outputs = {}
    for columns in ("60", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        first = _exit_output(cli.main, argv, capsys)
        assert _exit_output(cli.main, argv, capsys) == first
        assert _exit_output(fresh().parse_args, argv, capsys) == first
        outputs[columns] = first
    # one parser served both widths, and formatted at each call's
    assert len(builds) == 1 and outputs["60"] != outputs["200"]


def test_cli_bad_file_is_io_error(tmp_path, capsys):
    missing = tmp_path / "nope.circuit"
    assert run_cli("validate", str(missing)) == 2
    garbled = tmp_path / "garbled.circuit"
    garbled.write_text("{not json")
    assert run_cli("validate", str(garbled)) == 2
    out = tmp_path / "missing" / "x.circuit"
    capsys.readouterr()
    assert run_cli("fixtures", "emit", "and", "--out", str(out)) == 2
    out_text, err = capsys.readouterr()
    assert out_text == "" and err.startswith("io error: ") and str(out) in err, err


def test_cli_circuit_vars_list_is_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.circuit"
    bad.write_text(json.dumps({"vars": ["a"], "units": [], "in_flows": {}, "out_flows": {}}))
    good = tmp_path / "good.circuit"
    good.write_text(dumps_circuit(build_and()))
    inputs = tmp_path / "in.json"
    inputs.write_text(json.dumps({"a": "*"}))
    assert run_cli("exec", str(bad), "--inputs", str(inputs)) == 2
    assert run_cli("iso", str(good), str(bad)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("malformed input: ") and "list" in line for line in err)


def test_cli_netlist_edge_of_three_is_malformed_input(tmp_path, capsys):
    dag = tmp_path / "g.dag"
    dag.write_text(
        json.dumps(
            {
                "nodes": {"a": "input", "b": "input", "g": "gate", "y": "output"},
                "edges": [["a", "g"], ["b", "g", "y"], ["g", "y"]],
            }
        )
    )
    assert run_cli("import-nand", str(dag), "--out", str(tmp_path / "g.circuit")) == 2
    err = capsys.readouterr().err
    assert err.startswith("malformed input: ") and "['b', 'g', 'y']" in err


def test_cli_netlist_unknown_node_kind_is_malformed_input(tmp_path, capsys):
    dag = tmp_path / "g.dag"
    dag.write_text(
        json.dumps(
            {
                "nodes": {"a": "input", "b": "input", "g": "wat", "y": "output"},
                "edges": [["a", "g"], ["b", "g"], ["g", "y"]],
            }
        )
    )
    assert run_cli("import-nand", str(dag), "--out", str(tmp_path / "g.circuit")) == 2
    err = capsys.readouterr().err
    assert err.startswith("malformed input: ") and "'wat'" in err


def test_cli_exec_trace_with_several_runs_is_malformed_input(tmp_path, capsys):
    circ = tmp_path / "p53.circuit"
    assert run_cli("fixtures", "emit", "p53", "--out", str(circ)) == 0
    inputs = tmp_path / "in.json"
    inputs.write_text(json.dumps({"ctrl_in": "*", "p53_in": 1, "mdm2_in": 0}))
    trace = tmp_path / "t.jsonl"
    capsys.readouterr()
    assert run_cli("exec", str(circ), "--inputs", str(inputs), "--runs", "3", "--trace", str(trace)) == 2
    err = capsys.readouterr().err
    assert err.startswith("malformed input: --trace ") and "--runs 3" in err
    assert not trace.exists()
    assert run_cli("exec", str(circ), "--inputs", str(inputs), "--runs", "1", "--trace", str(trace)) == 0
    assert trace.read_text().splitlines()[-1] == '{"outcome": "final"}'


def test_cli_classify_and_fixtures_list_and_emit_to_stdout(tmp_path, capsys):
    circ = tmp_path / "and.circuit"
    circ.write_text(dumps_circuit(build_and()))
    capsys.readouterr()
    assert run_cli("classify", str(circ)) == 0
    assert capsys.readouterr().out == classify(build_and()).value + "\n"
    assert run_cli("fixtures", "list") == 0
    assert capsys.readouterr().out.splitlines() == sorted(REGISTRY)
    assert run_cli("fixtures", "emit", "and") == 0
    assert capsys.readouterr().out == dumps_circuit(build_and())


def test_cli_export_dot_out_writes_the_file_and_says_so(tmp_path, capsys):
    circ = tmp_path / "and.circuit"
    circ.write_text(dumps_circuit(build_and()))
    dot = tmp_path / "and.dot"
    capsys.readouterr()
    assert run_cli("export-dot", str(circ), "--out", str(dot)) == 0
    assert capsys.readouterr() == (f"wrote {dot}\n", "")
    assert dot.read_text() == export_dot(build_and())


def test_cli_fixtures_emit_without_a_known_name_exits_2(tmp_path, capsys):
    capsys.readouterr()
    assert run_cli("fixtures", "emit") == 2
    assert capsys.readouterr() == ("", "malformed input: fixtures emit needs a name\n")
    out = tmp_path / "x.circuit"
    assert run_cli("fixtures", "emit", "nosuch", "--out", str(out)) == 2
    known = ", ".join(sorted(REGISTRY))
    assert capsys.readouterr() == ("", f"malformed input: unknown fixture 'nosuch'; known: {known}\n")
    assert not out.exists()
    with pytest.raises(KeyError):  # the library call keeps its KeyError
        fixture("nosuch")


@pytest.mark.parametrize(
    "op, count, named",
    [("seq", 3, "compose --op seq takes exactly 2 operand files"),
     ("iter-tail", 2, "compose --op iter-tail takes entry, body, end and exit files")],
)
def test_cli_compose_with_the_wrong_operand_count_exits_2(tmp_path, capsys, op, count, named):
    circ = tmp_path / "buffer.circuit"
    run_cli("fixtures", "emit", "buffer", "--out", str(circ))
    out = tmp_path / "o.circuit"
    capsys.readouterr()
    assert run_cli("compose", "--op", op, *[str(circ)] * count, "--out", str(out)) == 2
    assert capsys.readouterr() == ("", f"malformed input: {named}\n")
    assert not out.exists()


def test_cli_netlist_edges_object_is_malformed_input(tmp_path, capsys):
    dag = tmp_path / "g.dag"
    dag.write_text(json.dumps({"nodes": {"a": "input", "b": "input", "g": "gate", "y": "output"}, "edges": {"a": "g"}}))
    out = tmp_path / "g.circuit"
    capsys.readouterr()
    assert run_cli("import-nand", str(dag), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("malformed input: ") and "edges" in err, err
    assert not out.exists()


@pytest.mark.parametrize("op", ["par", "branch"])
@pytest.mark.parametrize(
    "extra, option",
    [
        (["--span", "missing.json"], "--span"),
        (["--auto-pair"], "--auto-pair"),
        (["--span", "missing.json", "--auto-pair"], "--span"),
    ],
)
def test_cli_seq_only_options_on_other_operators_are_malformed_input(tmp_path, capsys, op, extra, option):
    a, b = tmp_path / "a.circuit", tmp_path / "b.circuit"
    run_cli("fixtures", "emit", "buffer", "--out", str(a))
    run_cli("fixtures", "emit", "buffer", "--out", str(b))
    out = tmp_path / "o.circuit"
    capsys.readouterr()
    assert run_cli("compose", "--op", op, str(a), str(b), *extra, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"malformed input: {option} applies to --op seq only"), err
    assert not out.exists()


@pytest.mark.parametrize(
    "op, wiring, extra, named",
    [
        ("par", {"pairs": [["v9", "v1"]]}, [], "--wiring does not apply to --op par"),
        ("par", {}, [], "--wiring does not apply to --op par"),
        ("seq", {"pairs": [["v9", "v1"]]}, ["--auto-pair"], "--wiring does not apply to --op seq --auto-pair"),
        ("seq", {"pairs": [["v4", "v1"]]}, ["--span", "{span}"], "--wiring does not apply to --op seq --span"),
        ("seq", None, ["--span", "{span}", "--auto-pair"], "--span and --auto-pair"),
        ("seq", {"pairs": [["v4", "v1"]], "head": []}, [], "wiring keys ['head'] are not read by --op seq"),
        ("branch", {"pairs": []}, [], "wiring keys ['pairs'] are not read by --op branch"),
        ("iter-tail", {"in_pairs": [], "head": []}, [], "wiring keys ['in_pairs'] are not read by --op iter-tail"),
    ],
    ids=["par-wiring", "par-empty-wiring", "seq-wiring-auto-pair", "seq-wiring-span", "seq-span-auto-pair",
         "seq-head-key", "branch-pairs-key", "iter-in-pairs-key"],
)
def test_cli_compose_options_and_keys_the_op_does_not_read_are_malformed_input(tmp_path, capsys, op, wiring, extra, named):
    run_cli("fixtures", "emit", "nand2", "--out", str(tmp_path / "nand2.circuit"))
    run_cli("fixtures", "emit", "not", "--out", str(tmp_path / "not.circuit"))
    operands = [str(tmp_path / "nand2.circuit"), str(tmp_path / "not.circuit")]
    if op.startswith("iter"):
        operands *= 2
    span = tmp_path / "span.json"
    span.write_text(json.dumps(SPAN_DOC))
    argv = ["compose", "--op", op, *operands, *(a.format(span=span) for a in extra)]
    if wiring is not None:
        (tmp_path / "w.json").write_text(json.dumps(wiring))
        argv += ["--wiring", str(tmp_path / "w.json")]
    out = tmp_path / "o.circuit"
    capsys.readouterr()
    assert run_cli(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"malformed input: {named}"), err
    assert not out.exists()
