"""JSON file formats for circuits, netlists, truth tables, morphisms, input assignments and traces.

All writers emit sorted keys so any given object serialises to exactly one
byte sequence; readers reject unknown keys.

The circuit and netlist writers lay their documents out by hand, one
pre-formatted entry per variable, unit, flow, node or edge, with every id
escaped by ``json``'s C string escaper. Their bytes equal
``json.dumps(circuit_to_dict(c), indent=2, sort_keys=True) + "\\n"`` (and
likewise for ``dag_to_dict``), which would run ``json``'s pure-Python
encoder, as it does whenever ``indent`` is set. The circuit reader checks
a plain ``{"src": ..., "dst": ...}`` flow entry with one type test per
field; any other entry takes the general checks and their messages.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Iterator, Mapping

from .errors import StructureError
from .model import CTRL, Circuit, Flow, validate_circuit
from .morphisms import CircuitMorphism, validate_morphism
from .nanddag import NandDag, TransformResult, validate_dag
from .dynamics import Trace, Value


def _require_object(x: Any, what: str) -> None:
    if not isinstance(x, Mapping):
        raise StructureError(f"{what} must be a JSON object, got {type(x).__name__}")


def _require_keys(d: Mapping[str, Any], required: set[str], optional: set[str], what: str) -> None:
    _require_object(d, what)
    keys = set(d)
    unknown = keys - required - optional
    if unknown:
        raise StructureError(f"{what} has unknown keys: {sorted(unknown)}")
    missing = required - keys
    if missing:
        raise StructureError(f"{what} is missing keys: {sorted(missing)}")


def _block(brackets: str, entries: list[str], pad: str) -> str:
    """``entries`` laid out as ``json.dumps(..., indent=2)`` lays out an object or list whose brackets sit at ``pad``."""
    if not entries:
        return brackets
    inner = pad + "  "
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(entries) + f"\n{pad}{brackets[1]}"


_STR = {str}


def _indented(x: Any, pad: str = "") -> str:
    """``json.dumps(x, indent=2, sort_keys=True)`` for a document of dicts with string keys, lists and scalars.

    ``pad`` is the indent of the line ``x`` starts on. A dict or list of
    strings is written in one pass of the C escaper; only other entries
    recurse, so the cost is about one Python call per container.
    """
    t = type(x)
    if t is str:
        return _quote(x)
    if t is dict:
        items = sorted(x.items())
        if set(map(type, x.values())) <= _STR:
            return _block("{}", [f"{_quote(k)}: {_quote(v)}" for k, v in items], pad)
        inner = pad + "  "
        return _block("{}", [f"{_quote(k)}: {_indented(v, inner)}" for k, v in items], pad)
    if t is list or t is tuple:
        if set(map(type, x)) <= _STR:
            return _block("[]", list(map(_quote, x)), pad)
        inner = pad + "  "
        return _block("[]", [_indented(v, inner) for v in x], pad)
    if t is int:
        return int.__repr__(x)
    return _SORTED_JSON.encode(x)


# -- circuits ---------------------------------------------------------------


def circuit_to_dict(c: Circuit) -> dict:
    return {
        "vars": {v: c.var_types[v].value for v in sorted(c.var_types)},
        "units": sorted(c.units),
        "in_flows": {i: {"src": f.src, "dst": f.dst} for i, f in sorted(c.in_flows.items())},
        "out_flows": {o: {"src": f.src, "dst": f.dst} for o, f in sorted(c.out_flows.items())},
        "sigma": sorted(t.value for t in c.sigma),
    }


def circuit_from_dict(d: Mapping[str, Any]) -> Circuit:
    _require_keys(d, {"vars", "units", "in_flows", "out_flows"}, {"sigma"}, "circuit document")

    if not isinstance(d["units"], list):
        raise StructureError(f"circuit units must be a JSON list, got {type(d['units']).__name__}")
    if not isinstance(d.get("sigma", []), (list, type(None))):
        raise StructureError(f"circuit sigma must be a JSON list, got {type(d['sigma']).__name__}")

    def flows(key: str) -> dict[str, Flow]:
        _require_object(d[key], f"circuit {key}")
        out = {}
        for fid, spec in d[key].items():
            # a plain dict of two string endpoints is exactly {"src", "dst"}; anything else gets the full checks
            if type(spec) is dict and len(spec) == 2:
                src, dst = spec.get("src"), spec.get("dst")
                if type(src) is str and type(dst) is str:
                    out[fid] = Flow(src, dst)
                    continue
            _require_keys(spec, {"src", "dst"}, set(), f"{key}[{fid!r}]")
            if not (isinstance(spec["src"], str) and isinstance(spec["dst"], str)):
                raise StructureError(f"{key}[{fid!r}] endpoints must be ids (strings)")
            out[fid] = Flow(spec["src"], spec["dst"])
        return out

    return validate_circuit(
        d["vars"], d["units"], flows("in_flows"), flows("out_flows"), d.get("sigma")
    )


def _flows_block(flows: Mapping[str, Flow]) -> str:
    return _block("{}", [
        f'{_quote(fid)}: {{\n      "dst": {_quote(f.dst)},\n      "src": {_quote(f.src)}\n    }}'
        for fid, f in sorted(flows.items())
    ], "  ")


def dumps_circuit(c: Circuit) -> str:
    """``json.dumps(circuit_to_dict(c), indent=2, sort_keys=True) + "\\n"``, written directly.

    O(output bytes + V log V + E log E): one sort per id set and one C
    escape per id occurrence.
    """
    vt = c.var_types
    ctrl, boolean = _quote("ctrl"), _quote("bool")
    var_entries = [f"{_quote(v)}: {ctrl if vt[v] is CTRL else boolean}" for v in sorted(vt)]
    sigma = [_quote(t) for t in sorted(t.value for t in c.sigma)]
    units = [_quote(u) for u in sorted(c.units)]
    return _block("{}", [
        f'"in_flows": {_flows_block(c.in_flows)}',
        f'"out_flows": {_flows_block(c.out_flows)}',
        f'"sigma": {_block("[]", sigma, "  ")}',
        f'"units": {_block("[]", units, "  ")}',
        f'"vars": {_block("{}", var_entries, "  ")}',
    ], "") + "\n"


def loads_circuit(text: str) -> Circuit:
    return circuit_from_dict(json.loads(text))


# -- netlists ---------------------------------------------------------------


def dag_to_dict(d: NandDag) -> dict:
    return {
        "nodes": {n: d.nodes[n].value for n in sorted(d.nodes)},
        "edges": [[a, b] for a, b in d.sorted_edges()],
    }


def dag_from_dict(d: Mapping[str, Any]) -> NandDag:
    _require_keys(d, {"nodes", "edges"}, set(), "netlist document")
    if not isinstance(d["edges"], list):
        raise StructureError(f"netlist edges must be a JSON list, got {type(d['edges']).__name__}")
    return validate_dag(d["nodes"], d["edges"])


def dumps_dag(d: NandDag) -> str:
    """``json.dumps(dag_to_dict(d), indent=2, sort_keys=True) + "\\n"``, written directly."""
    edges = [f"[\n      {_quote(a)},\n      {_quote(b)}\n    ]" for a, b in d.sorted_edges()]
    nodes = [f"{_quote(n)}: {_quote(d.nodes[n].value)}" for n in sorted(d.nodes)]
    return _block("{}", [f'"edges": {_block("[]", edges, "  ")}', f'"nodes": {_block("{}", nodes, "  ")}'], "") + "\n"


def loads_dag(text: str) -> NandDag:
    return dag_from_dict(json.loads(text))


def _transform_provenance(res: TransformResult) -> str:
    """The ``import-nand --provenance`` document, written directly.

    Equals ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` for ``doc =
    {"vars": {v: {"edge": list(e), "copy": k}}, "units": unit_origin,
    "inputs": input_bindings, "outputs": output_bindings}``, tuples written
    as lists; each variable is one pre-formatted entry.
    """
    var_entries = [
        f'{_quote(v)}: {{\n      "copy": {k},\n      "edge": [\n        {_quote(a)},\n        {_quote(b)}\n      ]\n    }}'
        for v, ((a, b), k) in sorted(res.var_origin.items())
    ]
    return _block("{}", [
        f'"inputs": {_indented(dict(res.input_bindings), "  ")}',
        f'"outputs": {_indented(dict(res.output_bindings), "  ")}',
        f'"units": {_indented(dict(res.unit_origin), "  ")}',
        f'"vars": {_block("{}", var_entries, "  ")}',
    ], "") + "\n"


# -- truth tables ----------------------------------------------------------


# A canonical decimal input length; 18 digits keep ``int`` cheap, and no
# table of 2**k entries fits in memory for such a k anyway.
_INPUT_LENGTH = re.compile(r"0|[1-9][0-9]{0,17}")


def truth_tables_from_dict(d: Mapping[str, Any]) -> dict[int, list[int]]:
    """Read a truth-table document: input length ``k`` (decimal) -> list of 0/1 outputs.

    Only the shape is checked; :func:`synth_family` checks each length.
    """
    _require_object(d, "truth-table document")
    tables = {}
    for k, table in d.items():
        if not (isinstance(k, str) and _INPUT_LENGTH.fullmatch(k)):
            raise StructureError(f"truth-table key {k!r} must be an input length k >= 0 in decimal")
        if not (isinstance(table, list) and all(type(b) is int and b in (0, 1) for b in table)):
            raise StructureError(f"truth table for k={k} must be a JSON list of 0/1 entries")
        tables[int(k)] = table
    return tables


# -- morphisms --------------------------------------------------------------


def morphism_to_dict(m: CircuitMorphism) -> dict:
    return {
        "f_v": dict(sorted(m.f_v.items())),
        "f_u": dict(sorted(m.f_u.items())),
        "f_i": dict(sorted(m.f_i.items())),
        "f_o": dict(sorted(m.f_o.items())),
    }


_MORPHISM_MAPS = ("f_v", "f_u", "f_i", "f_o")


def morphism_from_dict(d: Mapping[str, Any], src: Circuit, dst: Circuit) -> CircuitMorphism:
    """Read a morphism document: an object of id maps ``f_v``, ``f_u``, ``f_i``, ``f_o``.

    A missing map is empty; ``src`` and ``dst`` keys are allowed and ignored.
    """
    _require_keys(d, set(), {*_MORPHISM_MAPS, "src", "dst"}, "morphism document")
    maps = [d.get(k, {}) for k in _MORPHISM_MAPS]
    for k, m in zip(_MORPHISM_MAPS, maps):
        if not (isinstance(m, Mapping) and all(isinstance(y, str) for y in m.values())):
            raise StructureError(f"morphism {k} must be a JSON object mapping ids to ids (strings)")
    return validate_morphism(src, dst, *maps)


# -- values, input assignments, traces --------------------------------------


def value_to_json(v: Value):
    # the member's own ``_value_`` attribute: no ``Enum.value`` descriptor and no Python-level ``Enum.__hash__``
    return v._value_


def value_from_json(x) -> Value:
    """Read ``"*"``, ``0``, ``1``, ``"0"`` or ``"1"``; JSON booleans and other numbers are refused."""
    if x == "*":
        return Value.SIGNAL
    if type(x) is int and x in (0, 1):
        return Value(x)
    if x in ("0", "1"):
        return Value(int(x))
    raise StructureError(f"not a value: {x!r} (expected '*', 0 or 1)")


def assignments_from_dict(d: Mapping[str, Any]) -> dict[str, Value]:
    _require_object(d, "inputs document")
    for v in d:
        if not isinstance(v, str):
            raise StructureError(f"inputs document key {v!r} must be a variable id (a string)")
    return {v: value_from_json(x) for v, x in d.items()}


# ``json.dumps(obj, sort_keys=True)`` with the encoder built once, for the
# scalars ``_indented`` does not format itself and for a trace's outcome line.
_SORTED_JSON = json.JSONEncoder(sort_keys=True)
# A value's text, by identity: '"*"' for the signal, else the bit's
# ``_value_`` (0 or 1), which formats as its JSON text.
_SIGNAL, _SIGNAL_TEXT = Value.SIGNAL, _SORTED_JSON.encode(Value.SIGNAL.value)


def _trace_pieces(trace: Trace) -> Iterator[str]:
    """The text of ``trace_to_jsonl(trace)``, in pieces: three per record, one for the outcome line.

    A record's pieces are its text up to the state's opening brace, the
    state's entries joined by ``", "``, and the rest of the line. Each
    record equals ``json.dumps(record, sort_keys=True)`` for the record
    dict: keys in sorted order (enabled, ready, results, state, time), ", "
    between items, ": " after keys, and every id escaped by ``_quote``, the
    escaper that encoder runs on strings.

    The generator walks each step's changes (recorded by ``run``, or
    diffed for a hand-built trace) and keeps the state's ids sorted, with
    each entry's ``"id": value`` text beside its id: a change costs one C
    escape and one ``bisect`` into that list, and a record one join of the
    texts. A step that changes more than an eighth of the state (the first
    step among them) sorts the state afresh instead, as so many list
    inserts and deletes would cost O(changes x |state|).
    """
    ids: list[str] = []  # the current state's ids, sorted
    texts: list[str] = []  # their '"id": value' texts, in the same order
    for s, assigned, left in trace._changes():
        if 8 * (len(assigned) + len(left)) > len(ids):
            entries = dict(zip(ids, texts))
            for v in left:
                del entries[v]
            for v, val in assigned.items():
                entries[v] = f"{_quote(v)}: {_SIGNAL_TEXT if val is _SIGNAL else val._value_}"
            ids = sorted(entries)
            texts = list(map(entries.__getitem__, ids))
        else:
            for v in left:
                i = bisect_left(ids, v)
                del ids[i], texts[i]
            for v, val in assigned.items():
                i = bisect_left(ids, v)
                entry = f"{_quote(v)}: {_SIGNAL_TEXT if val is _SIGNAL else val._value_}"
                if i < len(ids) and ids[i] == v:
                    texts[i] = entry
                else:
                    ids.insert(i, v)
                    texts.insert(i, entry)
        results = ", ".join([
            f"{_quote(u)}: {_SIGNAL_TEXT if x is _SIGNAL else x._value_}" for u, x in sorted(s.results.items())
        ])
        yield (
            f'{{"enabled": [{", ".join(map(_quote, s.enabled))}], "ready": [{", ".join(map(_quote, s.ready))}], '
            f'"results": {{{results}}}, "state": {{'
        )
        yield ", ".join(texts)
        yield f'}}, "time": {s.time}}}\n'
    tail: dict[str, Any] = {"outcome": trace.outcome.value}
    if trace.conflict:
        tail["conflict"] = trace.conflict
    yield _SORTED_JSON.encode(tail) + "\n"


def trace_to_jsonl(trace: Trace) -> str:
    """One record per step plus a final outcome line, byte-stable.

    The text is one ``"".join`` of :func:`_trace_pieces`, which ``ctrlcirc
    exec --trace`` writes to its file piece by piece instead, so the text is
    built once and never copied into lines. Writing costs O(output bytes +
    sum of changes x log |state|) and reads no step's ``state`` that ``run``
    did not keep.
    """
    return "".join(_trace_pieces(trace))
