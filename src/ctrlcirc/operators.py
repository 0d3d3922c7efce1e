"""User-facing composition operators.

Every operator reduces to pushouts and coproducts. Callers describe what to
glue with variable pairings or iteration rows (never raw spans); one helper
synthesises the trivial apex of a list of rows and its monos into each
operand. Branching and both iterations end with one shared step: two
operands are glued at both ends at once, by a pushout along the coproduct
of a head apex and a tail apex. The two iterations differ only in whether
the exit column joins the head rows or the tail rows. Results carry the leg
morphisms, so each original element can be traced to its representative in
the composite.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .errors import CompositionError, StructureError, ValidationError
from .model import Circuit, CircuitClass, TypeTag, classify, is_sound, mk_trivial
from .morphisms import CircuitMorphism, compose_morphisms, is_mono
from .colimits import Cospan, Span, copair, coproduct, pushout

Pairing = Sequence[tuple[str, str]]


def _check_rows(rows: Sequence[Sequence[str]], width: int | None = None) -> None:
    """Every row must be a sequence of string ids, ``width`` of them when given."""
    for row in rows:
        if not (isinstance(row, Sequence) and width in (None, len(row)) and all(isinstance(v, str) for v in row)):
            shape = "a (left, right) pair" if width == 2 else "a sequence"
            raise StructureError(f"every row must be {shape} of variable ids, got {row!r}")


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


def _apex(
    rows: Sequence[Sequence[str]], targets: Sequence[Circuit], prefix: str
) -> tuple[Circuit, list[CircuitMorphism]]:
    """A trivial apex with one variable per row, and its mono into each target.

    Variable ``<prefix><i + 1>`` maps to ``rows[i][k]`` in ``targets[k]``;
    the entries of a row must share one type.
    """
    try:
        apex = mk_trivial([targets[0].var_types[row[0]] for row in rows], prefix)
    except ValidationError as e:
        raise CompositionError("pairing-needs-control", f"synthesised apex is invalid: {e.violations}") from None
    # callers checked that each column names distinct variables and each row one type: monos
    names = [f"{prefix}{i + 1}" for i in range(len(rows))]
    return apex, [CircuitMorphism(apex, c, dict(zip(names, col)), {}, {}, {}) for c, col in zip(targets, zip(*rows))]


def span_from_pairing(left: Circuit, right: Circuit, pairs: Pairing, prefix: str = "p") -> Span:
    """Synthesise the trivial apex and the two mono legs a pairing describes."""
    _check_pairing(left, right, pairs)
    apex, (to_left, to_right) = _apex(pairs, (left, right), prefix)
    return Span(apex, to_left, to_right)


def _glue_both_ends(head: Span, tail: Span, tag: str) -> Cospan:
    """Glue the spans' left and right operands at both ends: a pushout along the apexes' coproduct."""
    cp = coproduct(head.apex, tail.apex, tag=f"{tag}0")
    return pushout(Span(cp.circuit, copair(head.left, tail.left, cp), copair(head.right, tail.right, cp)), tag=tag)


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
    return sequence_span(span_from_pairing(left, right, pairs), tag=tag)


def sequence_span(span: Span, tag: str = "seq") -> SequenceResult:
    """Sequence along a caller-supplied span (for file-driven composition).

    The span must have a trivial apex and mono legs landing in the left
    operand's outvars and the right operand's invars.
    """
    if classify(span.apex) not in (CircuitClass.TRIVIAL, CircuitClass.UNIT_CIRCUIT):
        raise CompositionError("span-apex-not-trivial")
    if not (is_mono(span.left) and is_mono(span.right)):
        raise CompositionError("span-legs-not-mono")
    left, right = span.left.dst, span.right.dst
    img_l = {span.left.f_v[v] for v in span.apex.vars}
    img_r = {span.right.f_v[v] for v in span.apex.vars}
    if not img_l <= left.outvars:
        raise CompositionError("pair-left-not-outvar", ", ".join(sorted(img_l - left.outvars)))
    if not img_r <= right.invars:
        raise CompositionError("pair-right-not-invar", ", ".join(sorted(img_r - right.invars)))
    total = img_l == left.outvars and img_r == right.invars
    cs = pushout(span, tag=tag)
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
    spans = []
    for pairs, avs, bvs, side, prefix in (
        (in_pairs, a.invars, b.invars, "invars", "p"),
        (out_pairs, a.outvars, b.outvars, "outvars", "q"),
    ):
        _check_rows(pairs, 2)
        if {l for l, _ in pairs} != avs or {r for _, r in pairs} != bvs:
            raise CompositionError("branch-interface-mismatch", f"{side} not covered bijectively")
        try:
            spans.append(span_from_pairing(a, b, pairs, prefix))
        except CompositionError as e:
            raise CompositionError("branch-interface-mismatch", str(e)) from None
    cs = _glue_both_ends(*spans, tag)
    return BranchResult(cs.result, cs.left_leg, cs.right_leg, spans[0].apex, spans[1].apex)


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


def _shared_domain(
    rows: Sequence[tuple[str, ...]], columns: Sequence[tuple[Circuit, frozenset[str], str]], prefix: str, what: str
) -> tuple[Circuit, list[CircuitMorphism]]:
    """Check ``rows`` against ``columns``, then build their shared apex and its monos.

    ``columns`` lists, per row position, the target circuit, the interface
    set the column must cover, and a label for error messages.
    """
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
    return _apex(rows, targets, prefix)


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
    lam0, (m_entry, m_end_out, m_body_in, *exit_h) = _shared_domain(w.head, head_cols, prefix="h", what="head")
    lam1, (m_body_out, m_end_in, *exit_t) = _shared_domain(w.tail, tail_cols, prefix="t", what="tail")
    [m_exit] = exit_h + exit_t

    if exit_at_head:
        # exit and body compete for the loop head, which entry and end feed
        pl = pushout(Span(lam0, m_exit, m_body_in), tag=f"{tag}1")
        pr = pushout(Span(lam0, m_entry, m_end_out), tag=f"{tag}2")
        cs = _glue_both_ends(
            Span(lam0, compose_morphisms(pl.left_leg, m_exit), compose_morphisms(pr.left_leg, m_entry)),
            Span(lam1, compose_morphisms(pl.right_leg, m_body_out), compose_morphisms(pr.right_leg, m_end_in)),
            tag,
        )
        return IterationResult(
            circuit=cs.result,
            entry_map=compose_morphisms(cs.right_leg, pr.left_leg),
            body_map=compose_morphisms(cs.left_leg, pl.right_leg),
            end_map=compose_morphisms(cs.right_leg, pr.right_leg),
            exit_map=compose_morphisms(cs.left_leg, pl.left_leg),
        )

    # entry, end and exit form one operand around the body's two ends
    p1 = pushout(Span(lam0, m_entry, m_end_out), tag=f"{tag}1")
    p2 = pushout(Span(lam1, m_end_in, m_exit), tag=f"{tag}2")
    p3 = pushout(Span(w.end, p1.right_leg, p2.left_leg), tag=f"{tag}3")
    cs = _glue_both_ends(
        Span(lam0, compose_morphisms(p3.left_leg, compose_morphisms(p1.left_leg, m_entry)), m_body_in),
        Span(lam1, compose_morphisms(p3.right_leg, compose_morphisms(p2.right_leg, m_exit)), m_body_out),
        tag,
    )
    return IterationResult(
        circuit=cs.result,
        entry_map=compose_morphisms(cs.left_leg, compose_morphisms(p3.left_leg, p1.left_leg)),
        body_map=cs.right_leg,
        end_map=compose_morphisms(cs.left_leg, compose_morphisms(p3.left_leg, p1.right_leg)),
        exit_map=compose_morphisms(cs.left_leg, compose_morphisms(p3.right_leg, p2.right_leg)),
    )


def iterate_head(w: IterationWiring, tag: str = "hd") -> IterationResult:
    """While-style loop: the stop/continue choice precedes each body run."""
    return _iterate(w, exit_at_head=True, tag=tag)


def iterate_tail(w: IterationWiring, tag: str = "tl") -> IterationResult:
    """Do-while-style loop: the body always runs before each stop check."""
    return _iterate(w, exit_at_head=False, tag=tag)
