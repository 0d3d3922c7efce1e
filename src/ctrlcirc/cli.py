"""Command-line interface.

Exit codes: 0 success, 1 validation/equivalence failure, 2 I/O or usage
problems, 3 execution that did not reach a final state under
``--expect-final`` (with ``--runs``, unless every run did). The default
seed comes from ``CTRLCIRC_SEED`` when set.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections import Counter
from pathlib import Path
from typing import Iterable, Optional

from .errors import CircuitError, CompositionError, StructureError, ValidationError
from .model import classify, is_sound
from .colimits import Span, coproduct, is_isomorphic
from .operators import IterationWiring, auto_pairing, branch, iterate_head, iterate_tail, sequence, sequence_span
from .dynamics import ExecConfig, Outcome, initial_state, run, tally_runs
from .nanddag import synth_family, to_control
from .dot import export_dot
from .fixtures import REGISTRY, fixture
from . import serialize as ser


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise SystemExit(f"io error: {e}")
    except ValueError as e:  # not UTF-8, or a path with a NUL or a character the file system cannot encode
        raise SystemExit(f"io error: {path}: {e}")


def _write(path: str, text: str) -> None:
    """Write one whole text to ``path`` as UTF-8 text.

    A text that UTF-8 cannot encode (it holds a lone surrogate) is an io
    error found before the path is opened, so a file already there keeps
    its content and none is created. An ASCII text, which
    ``str.isascii`` tells in O(1), is not encoded twice.
    """
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as e:
            raise SystemExit(f"io error: {path}: {e}")
    _write_pieces(path, (text,))


def _write_pieces(path: str, pieces: Iterable[str]) -> None:
    """Write the pieces to ``path`` one after another, as UTF-8 text, as ``Path.write_text`` writes one string.

    A piece that UTF-8 cannot encode (it holds a lone surrogate) is an io
    error; the file then holds the pieces before it. A text written whole
    goes through ``_write``, which refuses it before the file is opened.
    """
    try:
        try:
            f = open(path, "w", encoding="utf-8")
        except ValueError as e:  # as in _read; a ValueError raised by the pieces escapes
            raise SystemExit(f"io error: {path}: {e}")
        with f:
            try:
                f.writelines(pieces)
            except UnicodeEncodeError as e:  # a lone surrogate in the text; any other ValueError of the pieces escapes
                raise SystemExit(f"io error: {path}: {e}")
    except OSError as e:
        raise SystemExit(f"io error: {e}")


def _load_json(path: str):
    try:
        return json.loads(_read(path))
    except json.JSONDecodeError as e:
        raise SystemExit(f"io error: {path}: {e}")
    except RecursionError:
        raise SystemExit(f"io error: {path}: JSON nested too deeply") from None


def _load_circuit(path: str):
    return ser.circuit_from_dict(_load_json(path))


def _default_seed() -> int:
    text = os.environ.get("CTRLCIRC_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise StructureError(f"CTRLCIRC_SEED must be an integer, got {text!r}") from None


def _say(text: str, end: str = "\n") -> None:
    """Print ``text``, each character stdout cannot encode (a lone surrogate in an id, say) as a backslash escape."""
    try:
        print(text, end=end)
    except UnicodeEncodeError:  # raised before anything is written
        encoding = getattr(sys.stdout, "encoding", None) or "utf-8"
        print(text.encode(encoding, "backslashreplace").decode(encoding), end=end)


def _emit(args, payload: dict, human: Optional[str] = None) -> None:
    """Print ``payload`` as one JSON line, or ``human`` (by default the payload as indented JSON)."""
    if getattr(args, "format", None) == "json-lines":
        print(json.dumps(payload, sort_keys=True))
    else:
        _say(ser._indented(payload) if human is None else human)


# -- subcommands -------------------------------------------------------------


def cmd_validate(args) -> int:
    try:
        c = _load_circuit(args.circuit)
    except ValidationError as e:
        _emit(args, {"valid": False, "violations": e.violations}, "invalid: " + ", ".join(e.violations))
        return 1
    kind, sound = classify(c).value, is_sound(c)
    _emit(args, {"valid": True, "class": kind, "sound": sound}, f"valid ({kind}, {'sound' if sound else 'not sound'})")
    return 0


def cmd_classify(args) -> int:
    c = _load_circuit(args.circuit)
    print(classify(c).value)
    return 0


# The ``--wiring`` keys each operator reads, with the row width of each
# (``None`` leaves the width to the operator). ``--op seq`` reads none under
# ``--span`` or ``--auto-pair``.
_OP_WIRING = {
    "seq": {"pairs": 2},
    "par": {},
    "branch": {"in_pairs": 2, "out_pairs": 2},
    "iter-head": {"head": None, "tail": None},
    "iter-tail": {"head": None, "tail": None},
}


def _ids(xs) -> bool:
    return all(isinstance(x, str) for x in xs)


def _load_wiring(path, op: str) -> dict[str, list[tuple[str, ...]]]:
    """Read a ``--wiring`` document: each key ``op`` reads maps to a list of variable-id rows."""
    doc = _load_json(path) if path else {}
    if not isinstance(doc, dict):
        raise StructureError(f"wiring document must be a JSON object, got {type(doc).__name__}")
    widths = _OP_WIRING[op]
    unread = sorted(set(doc) - set(widths))
    if unread:
        raise StructureError(f"wiring keys {unread} are not read by --op {op}, which reads {list(widths)}")
    for key, rows in doc.items():
        width = widths[key]
        if not isinstance(rows, list) or not all(
            isinstance(row, list) and width in (None, len(row)) and _ids(row) for row in rows
        ):
            raise StructureError(f"wiring {key!r} must be a list of {width or 'n'}-element lists of variable ids")
    return {key: [tuple(row) for row in rows] for key, rows in doc.items()}


def _load_span(path: str, left, right) -> Span:
    """Read a ``--span`` document: an apex (inline circuit or file name) and two morphism documents."""
    doc = _load_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("apex"), (dict, str)):
        raise StructureError("span document must be a JSON object whose apex is a circuit object or a file name")
    apex = ser.circuit_from_dict(doc["apex"]) if isinstance(doc["apex"], dict) else _load_circuit(doc["apex"])
    legs = []
    for side, dst in (("left", left), ("right", right)):
        try:
            legs.append(ser.morphism_from_dict(doc.get(side), apex, dst))
        except StructureError as e:
            raise StructureError(f"span {side}: {e}") from None
    return Span(apex, *legs)


def cmd_compose(args) -> int:
    pairing = [option for option, given in (("--span", args.span), ("--auto-pair", args.auto_pair)) if given]
    if pairing and args.op != "seq":
        raise StructureError(f"{pairing[0]} applies to --op seq only, not --op {args.op}")
    if len(pairing) > 1:
        raise StructureError("--span and --auto-pair each give the whole pairing; use one")
    if args.wiring and (pairing or not _OP_WIRING[args.op]):
        raise StructureError(f"--wiring does not apply to --op {' '.join([args.op, *pairing])}")
    wiring = _load_wiring(args.wiring, args.op)
    prov: dict = {"op": args.op}

    if args.op in ("seq", "par", "branch"):
        if len(args.operands) != 2:
            raise SystemExit(f"compose --op {args.op} takes exactly 2 operand files")
        left = _load_circuit(args.operands[0])
        right = _load_circuit(args.operands[1])

    if args.op == "seq":
        if args.span:
            res = sequence_span(_load_span(args.span, left, right))
        else:
            pairs = auto_pairing(left, right) if args.auto_pair else wiring.get("pairs", [])
            res = sequence(left, right, pairs)
        out = res.circuit
        prov["total"] = res.total
        prov["left"] = ser.morphism_to_dict(res.left_leg)
        prov["right"] = ser.morphism_to_dict(res.right_leg)
    elif args.op == "par":
        cp = coproduct(left, right, tag="par")
        out = cp.circuit
        prov["left"] = ser.morphism_to_dict(cp.left)
        prov["right"] = ser.morphism_to_dict(cp.right)
    elif args.op == "branch":
        res = branch(left, right, wiring.get("in_pairs", []), wiring.get("out_pairs", []))
        out = res.circuit
        prov["left"] = ser.morphism_to_dict(res.left_leg)
        prov["right"] = ser.morphism_to_dict(res.right_leg)
    else:  # iter-head / iter-tail
        if len(args.operands) != 4:
            raise SystemExit(f"compose --op {args.op} takes entry, body, end and exit files")
        entry, body, end, exit_c = (_load_circuit(p) for p in args.operands)
        w = IterationWiring(
            entry=entry,
            body=body,
            end=end,
            exit=exit_c,
            head=tuple(wiring.get("head", [])),
            tail=tuple(wiring.get("tail", [])),
        )
        res = iterate_head(w) if args.op == "iter-head" else iterate_tail(w)
        out = res.circuit
        for role, m in (
            ("entry", res.entry_map),
            ("body", res.body_map),
            ("end", res.end_map),
            ("exit", res.exit_map),
        ):
            prov[role] = ser.morphism_to_dict(m)

    _write(args.out, ser.dumps_circuit(out))
    if args.provenance:
        _write(args.provenance, ser._indented(prov) + "\n")
    _say(f"wrote {args.out} ({len(out.vars)} vars, {len(out.units)} units)")
    return 0


def cmd_exec(args) -> int:
    if args.runs < 1:
        raise StructureError(f"--runs must be at least 1, got {args.runs}")
    if args.trace and args.runs > 1:
        raise StructureError(f"--trace writes the trace of one run; it cannot be combined with --runs {args.runs}")
    c = _load_circuit(args.circuit)
    inputs = ser.assignments_from_dict(_load_json(args.inputs))
    init = initial_state(c, inputs)
    cfg = ExecConfig(seed=args.seed, max_steps=args.max_steps)

    if args.runs > 1:
        outcomes: Counter[str] = Counter()
        fired_sets: Counter[frozenset[str]] = Counter()
        for (outcome, fired), n in tally_runs(c, init, cfg, args.runs).items():
            outcomes[outcome.value] += n
            fired_sets[fired] += n
        # each distinct set is sorted once, here, not once per run
        counted = [(sorted(units), n) for units, n in fired_sets.items()]
        payload = {
            "runs": args.runs,
            "outcomes": dict(sorted(outcomes.items())),
            "fired_unit_sets": [
                {"units": units, "count": n} for units, n in sorted(counted, key=lambda kv: (-kv[1], kv[0]))
            ],
        }
        _emit(args, payload)
        if args.expect_final and outcomes.get("final", 0) != args.runs:
            return 3
        return 0

    tr = run(c, init, cfg)
    if args.trace:
        # streamed: the trace's text is never held whole
        _write_pieces(args.trace, ser._trace_pieces(tr))
    final = {v: ser.value_to_json(val) for v, val in sorted(tr.final_state.values.items())}
    payload = {"outcome": tr.outcome.value, "time": tr.final_state.time, "state": final}
    human = f"outcome: {tr.outcome.value} at t={tr.final_state.time}; state: " + ", ".join(
        f"{v}={x}" for v, x in final.items()
    )
    _emit(args, payload, human)
    if args.expect_final and tr.outcome is not Outcome.FINAL:
        return 3
    return 0


def cmd_iso(args) -> int:
    a = _load_circuit(args.left)
    b = _load_circuit(args.right)
    witness = is_isomorphic(a, b)
    if witness is None:
        print("not isomorphic")
        return 1
    if args.witness:
        _write(args.witness, ser._indented(ser.morphism_to_dict(witness)) + "\n")
    print("isomorphic")
    return 0


def cmd_import_nand(args) -> int:
    d = ser.dag_from_dict(_load_json(args.dag))
    res = to_control(d)
    _write(args.out, ser.dumps_circuit(res.circuit))
    if args.provenance:
        _write(args.provenance, ser._transform_provenance(res))
    _say(f"wrote {args.out} ({len(res.circuit.vars)} vars, {len(res.circuit.units)} units)")
    return 0


def cmd_synth_family(args) -> int:
    fam = synth_family(ser.truth_tables_from_dict(_load_json(args.tables)))
    outdir = Path(args.out_dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise SystemExit(f"io error: {e}")
    except ValueError as e:  # as in _read
        raise SystemExit(f"io error: {args.out_dir}: {e}")
    manifest = {}
    for k, member in sorted(fam.members.items()):
        path = outdir / f"member_{k}.circuit"
        _write(str(path), ser.dumps_circuit(member.circuit))
        entry = {"circuit": path.name, "inputs": [list(g) for g in member.input_groups]}
        if member.dag is not None:
            dag_path = outdir / f"member_{k}.dag"
            _write(str(dag_path), ser.dumps_dag(member.dag))
            entry["dag"] = dag_path.name
            entry["output"] = member.output_node
        manifest[str(k)] = entry
    _write(str(outdir / "family.json"), ser._indented(manifest) + "\n")
    _say(f"wrote {len(fam.members)} members into {outdir}")
    return 0


def cmd_export_dot(args) -> int:
    c = _load_circuit(args.circuit)
    text = export_dot(c)
    if args.out:
        _write(args.out, text)
        _say(f"wrote {args.out}")
    else:
        _say(text, end="")
    return 0


def cmd_fixtures(args) -> int:
    if args.action == "list":
        for name in sorted(REGISTRY):
            print(name)
        return 0
    if args.name not in REGISTRY:
        raise StructureError(f"unknown fixture {args.name!r}; known: {', '.join(sorted(REGISTRY))}")
    text = ser.dumps_circuit(fixture(args.name))
    if args.out:
        _write(args.out, text)
        _say(f"wrote {args.out}")
    else:
        sys.stdout.write(text)  # a circuit document is ASCII: its ids are written escaped
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ctrlcirc", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check a circuit file")
    sp.add_argument("circuit")
    sp.add_argument("--format", choices=["human", "json-lines"], default="human")
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("classify", help="print a circuit's structural class")
    sp.add_argument("circuit")
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("compose", help="combine circuits with an operator")
    sp.add_argument("--op", required=True, choices=["seq", "par", "branch", "iter-head", "iter-tail"])
    sp.add_argument("operands", nargs="+", help="operand circuit files")
    sp.add_argument("--wiring", help="pairing/wiring JSON file")
    sp.add_argument("--span", help="explicit span file (seq only): apex + two morphisms")
    sp.add_argument("--auto-pair", action="store_true", help="pair by sorted type order (seq only, non-canonical)")
    sp.add_argument("--out", required=True)
    sp.add_argument("--provenance", help="write element-provenance JSON here")
    sp.set_defaults(fn=cmd_compose)

    sp = sub.add_parser("exec", help="run a circuit from an input assignment")
    sp.add_argument("circuit")
    sp.add_argument("--inputs", required=True, help="JSON file: variable -> '*' | 0 | 1")
    sp.add_argument("--seed", type=int, default=_default_seed())
    sp.add_argument("--max-steps", type=int, default=10_000)
    sp.add_argument("--trace", help="write a JSONL trace here")
    sp.add_argument("--runs", type=int, default=1, help="run K times with seeds seed..seed+K-1")
    sp.add_argument("--expect-final", action="store_true")
    sp.add_argument("--format", choices=["human", "json-lines"], default="human")
    sp.set_defaults(fn=cmd_exec)

    sp = sub.add_parser("iso", help="test two circuit files for isomorphism")
    sp.add_argument("left")
    sp.add_argument("right")
    sp.add_argument("--witness", help="write the witness maps here")
    sp.set_defaults(fn=cmd_iso)

    sp = sub.add_parser("import-nand", help="transform a NAND netlist file")
    sp.add_argument("dag")
    sp.add_argument("--out", required=True)
    sp.add_argument("--provenance")
    sp.set_defaults(fn=cmd_import_nand)

    sp = sub.add_parser("synth-family", help="synthesise circuits from truth tables")
    sp.add_argument("tables", help="JSON file: input length -> list of 2**k outputs")
    sp.add_argument("--out-dir", required=True)
    sp.set_defaults(fn=cmd_synth_family)

    sp = sub.add_parser("export-dot", help="render a circuit as DOT")
    sp.add_argument("circuit")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_export_dot)

    sp = sub.add_parser("fixtures", help="list or emit bundled example circuits")
    sp.add_argument("action", choices=["list", "emit"])
    sp.add_argument("name", nargs="?")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_fixtures)

    return p


@functools.lru_cache(maxsize=1)
def _parser(seed_text: Optional[str]) -> argparse.ArgumentParser:
    """``build_parser()``, built once per raw ``CTRLCIRC_SEED`` value, the one input it reads."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command; in-process calls reuse one parser per ``CTRLCIRC_SEED`` value, read on every call."""
    try:
        args = _parser(os.environ.get("CTRLCIRC_SEED")).parse_args(argv)
        if args.command == "fixtures" and args.action == "emit" and not args.name:
            print("fixtures emit needs a name", file=sys.stderr)
            return 2
        return args.fn(args)
    except SystemExit as e:
        if isinstance(e.code, str):
            print(e.code, file=sys.stderr)
            return 2
        raise
    except ValidationError as e:
        print(f"validation failure: {e}", file=sys.stderr)
        return 1
    except CompositionError as e:
        print(f"composition failure: {e}", file=sys.stderr)
        return 1
    except StructureError as e:
        print(f"malformed input: {e}", file=sys.stderr)
        return 2
    except CircuitError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except KeyError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
