"""User-facing composition operators.

Every operator reduces to pushouts and coproducts. Callers describe what to
glue with variable pairings or iteration rows (never raw spans); an operator
checks its rows once and hands the pairs they identify to the gluing kernel,
building no apex circuit, mono or span. The two iterations differ only in
whether the exit column joins the head rows or the tail rows. Results carry
the leg morphisms, so each original element can be traced to its
representative in the composite.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .errors import CompositionError, StructureError
from .model import Circuit, CircuitClass, TypeTag, classify, is_sound, mk_trivial, trivial_violations
from .morphisms import CircuitMorphism, is_mono
from .colimits import Span, coproduct, glue_pairs, pushout

Pairing = Sequence[tuple[str, str]]


def _check_rows(rows: Sequence[Sequence[str]], width: int | None = None) -> None:
    """Every row must be a sequence of string ids, ``width`` of them when given; a string is not one."""
    for row in rows:
        ok = isinstance(row, Sequence) and not isinstance(row, str) and width in (None, len(row))
        if not (ok and all(isinstance(v, str) for v in row)):
            shape = "a (left, right) pair" if width == 2 else "a sequence"
            raise StructureError(f"every row must be {shape} of variable ids, got {row!r}")


def _check_control(tags: Sequence[TypeTag]) -> None:
    """The trivial apex with these tags must be a circuit: one of them is control."""
    bad = trivial_violations(tags)
    if bad:
        raise CompositionError("pairing-needs-control", f"synthesised apex is invalid: {bad}")


def _check_pairing(left: Circuit, right: Circuit, pairs: Pairing) -> None:
    if not pairs:
        raise CompositionError("empty-pairing", "a pairing must identify at least one variable")
    _check_rows(pairs, 2)
    if any(len(set(side)) != len(pairs) for side in zip(*pairs)):
        raise CompositionError("pairing-not-injective")
    for l, r in pairs:
        if l not in left.var_types or r not in right.var_types:
            raise CompositionError("pairing-unknown-variable", f"({l}, {r})")
        if left.var_types[l] is not right.var_types[r]:
            raise CompositionError("pair-tag-mismatch", f"({l}, {r})")
    _check_control([left.var_types[l] for l, _ in pairs])


def span_from_pairing(left: Circuit, right: Circuit, pairs: Pairing, prefix: str = "p") -> Span:
    """Synthesise the trivial apex and the two mono legs a pairing describes."""
    _check_pairing(left, right, pairs)
    apex = mk_trivial([left.var_types[l] for l, _ in pairs], prefix)
    # each side names distinct variables of the apex's types: monos
    ls, rs = (dict(zip(apex.var_types, side)) for side in zip(*pairs))
    return Span(apex, CircuitMorphism(apex, left, ls, {}, {}, {}), CircuitMorphism(apex, right, rs, {}, {}, {}))


def _compose(g: CircuitMorphism, f: CircuitMorphism) -> CircuitMorphism:
    """``g`` after ``f``, unchecked: a composite of morphisms is one."""
    maps = zip((f.f_v, f.f_u, f.f_i, f.f_o), (g.f_v, g.f_u, g.f_i, g.f_o))
    return CircuitMorphism(f.src, g.dst, *({x: gm[y] for x, y in fm.items()} for fm, gm in maps))


# ---------------------------------------------------------------------------
# sequencing


@dataclass(frozen=True)
class SequenceResult:
    circuit: Circuit
    left_leg: CircuitMorphism
    right_leg: CircuitMorphism
    total: bool


def sequence(left: Circuit, right: Circuit, pairs: Pairing, tag: str = "seq") -> SequenceResult:
    """Run ``left`` then ``right``, gluing paired outvars onto invars.

    Pairs map outvars of the left operand injectively onto invars of the
    right operand with equal types; whether the span was total (covering the
    whole left outvar set and the whole right invar set) is detected and
    reported, not declared.
    """
    _check_pairing(left, right, pairs)
    return _sequence(left, right, pairs, tag)


def sequence_span(span: Span, tag: str = "seq") -> SequenceResult:
    """Sequence along a caller-supplied span (for file-driven composition).

    The span must have a trivial apex and mono legs landing in the left
    operand's outvars and the right operand's invars.
    """
    if classify(span.apex) not in (CircuitClass.TRIVIAL, CircuitClass.UNIT_CIRCUIT):
        raise CompositionError("span-apex-not-trivial")
    if not (is_mono(span.left) and is_mono(span.right)):
        raise CompositionError("span-legs-not-mono")
    pairs = [(span.left.f_v[v], span.right.f_v[v]) for v in span.apex.var_types]
    return _sequence(span.left.dst, span.right.dst, pairs, tag)


def _sequence(left: Circuit, right: Circuit, pairs: Pairing, tag: str) -> SequenceResult:
    """Glue checked pairs that must land in ``left``'s outvars and ``right``'s invars."""
    img_l = {l for l, _ in pairs}
    img_r = {r for _, r in pairs}
    if not img_l <= left.outvars:
        raise CompositionError("pair-left-not-outvar", ", ".join(sorted(img_l - left.outvars)))
    if not img_r <= right.invars:
        raise CompositionError("pair-right-not-invar", ", ".join(sorted(img_r - right.invars)))
    total = img_l == left.outvars and img_r == right.invars
    cs = glue_pairs(left, right, pairs, tag)
    return SequenceResult(cs.result, cs.left_leg, cs.right_leg, total)


def auto_pairing(left: Circuit, right: Circuit) -> list[tuple[str, str]]:
    """Pair left outvars with right invars by sorted id within each type.

    A convenience for the command line; the result depends on identifier
    order, so it is not canonical. Pairs as many variables as both sides
    allow, control first.
    """
    pairs: list[tuple[str, str]] = []
    for tag in (TypeTag.CTRL, TypeTag.BOOL):
        ls = sorted(v for v in left.outvars if left.var_types[v] is tag)
        rs = sorted(v for v in right.invars if right.var_types[v] is tag)
        pairs.extend(zip(ls, rs))
    return pairs


# ---------------------------------------------------------------------------
# parallelising


def parallel(a: Circuit, b: Circuit, tag: str = "par") -> Circuit:
    """Place two circuits side by side (their coproduct)."""
    return coproduct(a, b, tag=tag).circuit


# ---------------------------------------------------------------------------
# branching


@dataclass(frozen=True)
class BranchResult:
    circuit: Circuit
    left_leg: CircuitMorphism
    right_leg: CircuitMorphism
    in_domain: Circuit
    out_domain: Circuit


def branch(a: Circuit, b: Circuit, in_pairs: Pairing, out_pairs: Pairing, tag: str = "br") -> BranchResult:
    """Merge two circuits at both interfaces so exactly one runs per firing.

    ``in_pairs`` must biject the invars of ``a`` with the invars of ``b``
    (equal types), ``out_pairs`` their outvars; the composite's interface
    stays in bijection with each operand's.
    """
    domains = []
    for pairs, avs, bvs, side, prefix in (
        (in_pairs, a.invars, b.invars, "invars", "p"),
        (out_pairs, a.outvars, b.outvars, "outvars", "q"),
    ):
        _check_rows(pairs, 2)
        if {l for l, _ in pairs} != avs or {r for _, r in pairs} != bvs:
            raise CompositionError("branch-interface-mismatch", f"{side} not covered bijectively")
        try:
            _check_pairing(a, b, pairs)
        except CompositionError as e:
            raise CompositionError("branch-interface-mismatch", str(e)) from None
        domains.append(mk_trivial([a.var_types[l] for l, _ in pairs], prefix))
    cs = glue_pairs(a, b, [*in_pairs, *out_pairs], tag)
    return BranchResult(cs.result, cs.left_leg, cs.right_leg, *domains)


# ---------------------------------------------------------------------------
# iteration


@dataclass(frozen=True)
class IterationWiring:
    """Operands and variable alignment for an iterative composite.

    ``entry`` starts the loop, ``body`` is iterated, ``end`` closes one pass
    and feeds the loop head again, ``exit`` consumes the loop's output when
    iteration stops. All four must be sound.

    ``head`` aligns, column by column, the variables glued at the loop head;
    ``tail`` the ones glued after the body. Row shapes depend on the
    operator:

    * head iteration: head rows ``(entry outvar, end outvar, body invar,
      exit invar)`` and tail rows ``(body outvar, end invar)`` -- the exit
      competes for the loop-head variables, so the continue/stop decision
      happens before the body runs;
    * tail iteration: head rows ``(entry outvar, end outvar, body invar)``
      and tail rows ``(body outvar, end invar, exit invar)`` -- the exit
      competes for the body's output, so the decision happens after.

    Each column must cover the respective interface completely, and every
    row must align variables of one type.
    """

    entry: Circuit
    body: Circuit
    end: Circuit
    exit: Circuit
    head: tuple[tuple[str, ...], ...]
    tail: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class IterationResult:
    circuit: Circuit
    entry_map: CircuitMorphism
    body_map: CircuitMorphism
    end_map: CircuitMorphism
    exit_map: CircuitMorphism


def _check_wiring(
    rows: Sequence[tuple[str, ...]], columns: Sequence[tuple[Circuit, frozenset[str], str]], what: str
) -> None:
    """Check ``rows`` against ``columns``: per row position, the circuit, the interface set it must cover, a label."""
    _check_rows(rows)
    if any(len(row) != len(columns) for row in rows):
        raise CompositionError("iteration-wiring-mismatch", f"{what} rows must have {len(columns)} entries")
    for k, (_, iface, label) in enumerate(columns):
        col = [row[k] for row in rows]
        if len(set(col)) != len(col):
            raise CompositionError("iteration-wiring-mismatch", f"{what} column {label} repeats a variable")
        if set(col) != iface:
            raise CompositionError(
                "iteration-wiring-mismatch", f"{what} column {label} must cover exactly {sorted(iface)}"
            )
    targets = [circ for circ, _, _ in columns]
    for row in rows:
        if len({c.var_types[v] for c, v in zip(targets, row)}) != 1:
            raise CompositionError("iteration-wiring-mismatch", f"{what} row {row} mixes types")
    _check_control([targets[0].var_types[row[0]] for row in rows])


def _iterate(w: IterationWiring, exit_at_head: bool, tag: str) -> IterationResult:
    """Both iterations: the exit column joins the head rows or the tail rows."""
    for label, c in (("entry", w.entry), ("body", w.body), ("end", w.end), ("exit", w.exit)):
        if not is_sound(c):
            raise CompositionError("iteration-operand-unsound", label)
    head_cols = [
        (w.entry, w.entry.outvars, "entry-outvars"),
        (w.end, w.end.outvars, "end-outvars"),
        (w.body, w.body.invars, "body-invars"),
    ]
    tail_cols = [(w.body, w.body.outvars, "body-outvars"), (w.end, w.end.invars, "end-invars")]
    (head_cols if exit_at_head else tail_cols).append((w.exit, w.exit.invars, "exit-invars"))
    _check_wiring(w.head, head_cols, "head")
    _check_wiring(w.tail, tail_cols, "tail")

    if exit_at_head:
        # exit and body compete for the loop head, which entry and end feed
        pl = glue_pairs(w.exit, w.body, [(x, b) for _, _, b, x in w.head], f"{tag}1")
        pr = glue_pairs(w.entry, w.end, [(s, e) for s, e, _, _ in w.head], f"{tag}2")
        ends = [(pl.left_leg.f_v[x], pr.left_leg.f_v[s]) for s, _, _, x in w.head]
        ends += [(pl.right_leg.f_v[b], pr.right_leg.f_v[e]) for b, e in w.tail]
        cs = glue_pairs(pl.result, pr.result, ends, tag)
        return IterationResult(
            circuit=cs.result,
            entry_map=_compose(cs.right_leg, pr.left_leg),
            body_map=_compose(cs.left_leg, pl.right_leg),
            end_map=_compose(cs.right_leg, pr.right_leg),
            exit_map=_compose(cs.left_leg, pl.left_leg),
        )

    # entry, end and exit form one operand (a pushout along end) around the body's two ends
    p1 = glue_pairs(w.entry, w.end, [(s, e) for s, e, _ in w.head], f"{tag}1")
    p2 = glue_pairs(w.end, w.exit, [(e, x) for _, e, x in w.tail], f"{tag}2")
    p3 = pushout(Span(w.end, p1.right_leg, p2.left_leg), tag=f"{tag}3")
    ends = [(p3.left_leg.f_v[p1.left_leg.f_v[s]], b) for s, _, b in w.head]
    ends += [(p3.right_leg.f_v[p2.right_leg.f_v[x]], b) for b, _, x in w.tail]
    cs = glue_pairs(p3.result, w.body, ends, tag)
    return IterationResult(
        circuit=cs.result,
        entry_map=_compose(cs.left_leg, _compose(p3.left_leg, p1.left_leg)),
        body_map=cs.right_leg,
        end_map=_compose(cs.left_leg, _compose(p3.left_leg, p1.right_leg)),
        exit_map=_compose(cs.left_leg, _compose(p3.right_leg, p2.right_leg)),
    )


def iterate_head(w: IterationWiring, tag: str = "hd") -> IterationResult:
    """While-style loop: the stop/continue choice precedes each body run."""
    return _iterate(w, exit_at_head=True, tag=tag)


def iterate_tail(w: IterationWiring, tag: str = "tl") -> IterationResult:
    """Do-while-style loop: the body always runs before each stop check."""
    return _iterate(w, exit_at_head=False, tag=tag)
