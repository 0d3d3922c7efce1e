"""User-facing composition operators.

Every operator reduces to pushouts and coproducts. Callers describe what to
glue with variable pairings (never raw spans); the trivial apex circuits and
their embeddings are synthesised internally. Results carry the leg
morphisms, so each original element can be traced to its representative in
the composite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import CompositionError, ValidationError
from .model import Circuit, CircuitClass, TypeTag, classify, is_sound, mk_trivial
from .morphisms import CircuitMorphism, compose_morphisms, is_mono, validate_morphism
from .colimits import Span, copair, coproduct, pushout

Pairing = Sequence[tuple[str, str]]


def _trivial_apex(tags: Sequence[TypeTag], prefix: str) -> Circuit:
    try:
        return mk_trivial(tags, prefix)
    except ValidationError as e:
        raise CompositionError("pairing-needs-control", f"synthesised apex is invalid: {e.violations}") from None


def _check_pairing(left: Circuit, right: Circuit, pairs: Pairing) -> None:
    if not pairs:
        raise CompositionError("empty-pairing", "a pairing must identify at least one variable")
    ls = [l for l, _ in pairs]
    rs = [r for _, r in pairs]
    if len(set(ls)) != len(ls) or len(set(rs)) != len(rs):
        raise CompositionError("pairing-not-injective")
    for l, r in pairs:
        if l not in left.vars or r not in right.vars:
            raise CompositionError("pairing-unknown-variable", f"({l}, {r})")
        if left.var_types[l] is not right.var_types[r]:
            raise CompositionError("pair-tag-mismatch", f"({l}, {r})")


def span_from_pairing(left: Circuit, right: Circuit, pairs: Pairing, prefix: str = "p") -> Span:
    """Synthesise the trivial apex and the two mono legs a pairing describes."""
    _check_pairing(left, right, pairs)
    apex = _trivial_apex([left.var_types[l] for l, _ in pairs], prefix)
    names = [f"{prefix}{i + 1}" for i in range(len(pairs))]
    to_left = validate_morphism(apex, left, dict(zip(names, (l for l, _ in pairs))), {}, {}, {})
    to_right = validate_morphism(apex, right, dict(zip(names, (r for _, r in pairs))), {}, {}, {})
    return Span(apex, to_left, to_right)


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
    for pairs, avs, bvs, side in (
        (in_pairs, a.invars, b.invars, "invars"),
        (out_pairs, a.outvars, b.outvars, "outvars"),
    ):
        if {l for l, _ in pairs} != avs or {r for _, r in pairs} != bvs:
            raise CompositionError("branch-interface-mismatch", f"{side} not covered bijectively")
        try:
            _check_pairing(a, b, pairs)
        except CompositionError as e:
            raise CompositionError("branch-interface-mismatch", str(e)) from None

    in_span = span_from_pairing(a, b, in_pairs, prefix="p")
    out_span = span_from_pairing(a, b, out_pairs, prefix="q")
    cp = coproduct(in_span.apex, out_span.apex, tag=f"{tag}0")
    to_a = copair(in_span.left, out_span.left, cp)
    to_b = copair(in_span.right, out_span.right, cp)
    cs = pushout(Span(cp.circuit, to_a, to_b), tag=tag)
    return BranchResult(cs.result, cs.left_leg, cs.right_leg, in_span.apex, out_span.apex)


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
    rows: Sequence[tuple[str, ...]],
    columns: Sequence[tuple[Circuit, frozenset[str], str]],
    prefix: str,
    what: str,
) -> tuple[Circuit, list[CircuitMorphism]]:
    """Build one trivial circuit shared by several interface embeddings.

    ``columns`` lists, per row position, the target circuit, the interface
    set the column must cover, and a label for error messages.
    """
    if any(len(row) != len(columns) for row in rows):
        raise CompositionError("iteration-wiring-mismatch", f"{what} rows must have {len(columns)} entries")
    for k, (circ, must_cover, label) in enumerate(columns):
        col = [row[k] for row in rows]
        if len(set(col)) != len(col):
            raise CompositionError("iteration-wiring-mismatch", f"{what} column {label} repeats a variable")
        if set(col) != must_cover:
            raise CompositionError(
                "iteration-wiring-mismatch",
                f"{what} column {label} must cover exactly {sorted(must_cover)}",
            )
    tags = []
    for row in rows:
        row_tags = {columns[k][0].var_types[row[k]] for k in range(len(columns))}
        if len(row_tags) != 1:
            raise CompositionError("iteration-wiring-mismatch", f"{what} row {row} mixes types")
        tags.append(row_tags.pop())
    dom = _trivial_apex(tags, prefix)
    names = [f"{prefix}{i + 1}" for i in range(len(rows))]
    monos = []
    for k, (circ, _, _) in enumerate(columns):
        f_v = {names[i]: rows[i][k] for i in range(len(rows))}
        monos.append(validate_morphism(dom, circ, f_v, {}, {}, {}))
    return dom, monos


def _require_sound(w: IterationWiring) -> None:
    for label, c in (("entry", w.entry), ("body", w.body), ("end", w.end), ("exit", w.exit)):
        if not is_sound(c):
            raise CompositionError("iteration-operand-unsound", label)


def iterate_head(w: IterationWiring, tag: str = "hd") -> IterationResult:
    """While-style loop: the stop/continue choice precedes each body run."""
    _require_sound(w)
    lam0, (m_entry, m_end_out, m_body_in, m_exit) = _shared_domain(
        w.head,
        [
            (w.entry, w.entry.outvars, "entry-outvars"),
            (w.end, w.end.outvars, "end-outvars"),
            (w.body, w.body.invars, "body-invars"),
            (w.exit, w.exit.invars, "exit-invars"),
        ],
        prefix="h",
        what="head",
    )
    lam1, (m_body_out, m_end_in) = _shared_domain(
        w.tail,
        [(w.body, w.body.outvars, "body-outvars"), (w.end, w.end.invars, "end-invars")],
        prefix="t",
        what="tail",
    )
    pl = pushout(Span(lam0, m_exit, m_body_in), tag=f"{tag}1")
    pr = pushout(Span(lam0, m_entry, m_end_out), tag=f"{tag}2")
    cp = coproduct(lam0, lam1, tag=f"{tag}0")
    into_l = copair(
        compose_morphisms(pl.left_leg, m_exit),
        compose_morphisms(pl.right_leg, m_body_out),
        cp,
    )
    into_r = copair(
        compose_morphisms(pr.left_leg, m_entry),
        compose_morphisms(pr.right_leg, m_end_in),
        cp,
    )
    cs = pushout(Span(cp.circuit, into_l, into_r), tag=tag)
    return IterationResult(
        circuit=cs.result,
        entry_map=compose_morphisms(cs.right_leg, pr.left_leg),
        body_map=compose_morphisms(cs.left_leg, pl.right_leg),
        end_map=compose_morphisms(cs.right_leg, pr.right_leg),
        exit_map=compose_morphisms(cs.left_leg, pl.left_leg),
    )


def iterate_tail(w: IterationWiring, tag: str = "tl") -> IterationResult:
    """Do-while-style loop: the body always runs before each stop check."""
    _require_sound(w)
    lam0, (m_entry, m_end_out, m_body_in) = _shared_domain(
        w.head,
        [
            (w.entry, w.entry.outvars, "entry-outvars"),
            (w.end, w.end.outvars, "end-outvars"),
            (w.body, w.body.invars, "body-invars"),
        ],
        prefix="h",
        what="head",
    )
    lam1, (m_body_out, m_end_in, m_exit) = _shared_domain(
        w.tail,
        [
            (w.body, w.body.outvars, "body-outvars"),
            (w.end, w.end.invars, "end-invars"),
            (w.exit, w.exit.invars, "exit-invars"),
        ],
        prefix="t",
        what="tail",
    )
    p1 = pushout(Span(lam0, m_entry, m_end_out), tag=f"{tag}1")
    p2 = pushout(Span(lam1, m_end_in, m_exit), tag=f"{tag}2")
    p3 = pushout(Span(w.end, p1.right_leg, p2.left_leg), tag=f"{tag}3")
    cp = coproduct(lam0, lam1, tag=f"{tag}0")
    into_p3 = copair(
        compose_morphisms(p3.left_leg, compose_morphisms(p1.left_leg, m_entry)),
        compose_morphisms(p3.right_leg, compose_morphisms(p2.right_leg, m_exit)),
        cp,
    )
    into_body = copair(m_body_in, m_body_out, cp)
    cs = pushout(Span(cp.circuit, into_p3, into_body), tag=tag)
    left = cs.left_leg
    return IterationResult(
        circuit=cs.result,
        entry_map=compose_morphisms(left, compose_morphisms(p3.left_leg, p1.left_leg)),
        body_map=cs.right_leg,
        end_map=compose_morphisms(left, compose_morphisms(p3.left_leg, p1.right_leg)),
        exit_map=compose_morphisms(left, compose_morphisms(p3.right_leg, p2.right_leg)),
    )
