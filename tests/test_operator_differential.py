"""Differential tests: the shared construction skeleton against the original operators.

``reference_branch``, ``reference_iterate_head`` and ``reference_iterate_tail``
are the first implementations, in which each operator built its own trivial
apexes and ran its own final coproduct, copairs and pushout, and ``branch``
checked each pairing twice. The library builds no apex: each operator checks
its rows once, hands the variable pairs they identify to the gluing kernel
and ends with one gluing step. Composites, all maps, gluing domains and
refusals (code and message) must come out equal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

import pytest

from ctrlcirc import BOOL, CTRL, CompositionError, ValidationError, branch, mk_primitive, mk_trivial, parallel
from ctrlcirc.colimits import Span, copair, coproduct, pushout
from ctrlcirc.fixtures import build_action, build_buffer, build_eater, build_entry, build_next_state, build_not
from ctrlcirc.model import Circuit, TypeTag, is_sound
from ctrlcirc.morphisms import CircuitMorphism, compose_morphisms, validate_morphism
from ctrlcirc.operators import (
    BranchResult,
    IterationResult,
    IterationWiring,
    Pairing,
    iterate_head,
    iterate_tail,
    span_from_pairing,
)

# -- reference implementations ----------------------------------------------


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


def reference_span_from_pairing(left: Circuit, right: Circuit, pairs: Pairing, prefix: str = "p") -> Span:
    _check_pairing(left, right, pairs)
    apex = _trivial_apex([left.var_types[l] for l, _ in pairs], prefix)
    names = [f"{prefix}{i + 1}" for i in range(len(pairs))]
    to_left = validate_morphism(apex, left, dict(zip(names, (l for l, _ in pairs))), {}, {}, {})
    to_right = validate_morphism(apex, right, dict(zip(names, (r for _, r in pairs))), {}, {}, {})
    return Span(apex, to_left, to_right)


def reference_branch(a: Circuit, b: Circuit, in_pairs: Pairing, out_pairs: Pairing, tag: str = "br") -> BranchResult:
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

    in_span = reference_span_from_pairing(a, b, in_pairs, prefix="p")
    out_span = reference_span_from_pairing(a, b, out_pairs, prefix="q")
    cp = coproduct(in_span.apex, out_span.apex, tag=f"{tag}0")
    to_a = copair(in_span.left, out_span.left, cp)
    to_b = copair(in_span.right, out_span.right, cp)
    cs = pushout(Span(cp.circuit, to_a, to_b), tag=tag)
    return BranchResult(cs.result, cs.left_leg, cs.right_leg, in_span.apex, out_span.apex)


def reference_shared_domain(
    rows: Sequence[tuple[str, ...]],
    columns: Sequence[tuple[Circuit, frozenset[str], str]],
    prefix: str,
    what: str,
) -> tuple[Circuit, list[CircuitMorphism]]:
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


def reference_iterate_head(w: IterationWiring, tag: str = "hd") -> IterationResult:
    _require_sound(w)
    lam0, (m_entry, m_end_out, m_body_in, m_exit) = reference_shared_domain(
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
    lam1, (m_body_out, m_end_in) = reference_shared_domain(
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


def reference_iterate_tail(w: IterationWiring, tag: str = "tl") -> IterationResult:
    _require_sound(w)
    lam0, (m_entry, m_end_out, m_body_in) = reference_shared_domain(
        w.head,
        [
            (w.entry, w.entry.outvars, "entry-outvars"),
            (w.end, w.end.outvars, "end-outvars"),
            (w.body, w.body.invars, "body-invars"),
        ],
        prefix="h",
        what="head",
    )
    lam1, (m_body_out, m_end_in, m_exit) = reference_shared_domain(
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


# -- comparison helpers -----------------------------------------------------


@dataclass(frozen=True)
class Refused:
    kind: type
    code: str
    message: str


def outcome(fn: Callable, *args):
    """The result of ``fn(*args)``, or how it refused."""
    try:
        return fn(*args)
    except (CompositionError, KeyError, ValueError) as e:
        return Refused(type(e), getattr(e, "code", ""), str(e))


def assert_same(got, want) -> bool:
    """Equal results or equal refusals; returns whether both succeeded."""
    assert type(got) is type(want)
    assert got == want
    return not isinstance(got, Refused)


ITERATIONS = {"head": (iterate_head, reference_iterate_head), "tail": (iterate_tail, reference_iterate_tail)}


def assert_same_iteration(kind: str, w: IterationWiring) -> bool:
    lib, ref = ITERATIONS[kind]
    return assert_same(outcome(lib, w), outcome(ref, w))


def assert_same_branch(a: Circuit, b: Circuit, in_pairs: Pairing, out_pairs: Pairing) -> bool:
    return assert_same(outcome(branch, a, b, in_pairs, out_pairs), outcome(reference_branch, a, b, in_pairs, out_pairs))


def refusal(got) -> tuple[str, str]:
    assert isinstance(got, Refused), got
    return got.code, got.message


# -- fixed wirings ----------------------------------------------------------


def buffer_loop() -> IterationWiring:
    """A one-bit toggle: inverter body, buffer entry and end, an eater exit."""
    return IterationWiring(
        entry=build_buffer(),
        body=build_not(),
        end=build_buffer(),
        exit=build_eater(1),
        head=(("c_out", "c_out", "v1", "v1"), ("b_out", "b_out", "v2", "v2")),
        tail=(("v3", "c_in"), ("v4", "b_in")),
    )


FLIPFLOP_HEAD = (
    ("ctrl_out", "ctrl_out", "ctrl_in"),
    ("r_out", "r_out", "r_in"),
    ("q_out", "q_out", "q_in"),
    ("s_out", "s_out", "s_in"),
)


def flipflop_wiring() -> IterationWiring:
    """The clocked set-reset toggle, wired for tail iteration."""
    return IterationWiring(
        entry=build_entry(),
        body=build_action(),
        end=build_next_state(),
        exit=build_eater(1),
        head=FLIPFLOP_HEAD,
        tail=(("ctrl_out", "ctrl_in", "v1"), ("q_next_out", "q_in", "v2")),
    )


def flipflop_head_wiring() -> IterationWiring:
    """The same blocks head-iterated: the exit eats the whole loop head."""
    return IterationWiring(
        entry=build_entry(),
        body=build_action(),
        end=build_next_state(),
        exit=build_eater(3),
        head=tuple(row + (f"v{i + 1}",) for i, row in enumerate(FLIPFLOP_HEAD)),
        tail=(("ctrl_out", "ctrl_in"), ("q_next_out", "q_in")),
    )


def swap_body_invars(head: tuple[tuple[str, ...], ...]) -> tuple[tuple[str, ...], ...]:
    """Swap the body invars of the first two head rows (a control and a Boolean)."""
    (r0, r1, *rest) = head
    return ((*r0[:2], r1[2], *r0[3:]), (*r1[:2], r0[2], *r1[3:]), *rest)


def replace(w: IterationWiring, **changes) -> IterationWiring:
    fields = dict(entry=w.entry, body=w.body, end=w.end, exit=w.exit, head=w.head, tail=w.tail)
    fields.update(changes)
    return IterationWiring(**fields)


# -- random wirings ---------------------------------------------------------


def typed(c: Circuit, vs, tag: TypeTag) -> list[str]:
    return sorted(v for v in vs if c.var_types[v] is tag)


def random_rows(rnd: random.Random, columns: Sequence[tuple[Circuit, frozenset[str]]]) -> tuple[tuple[str, ...], ...]:
    """Rows that align same-type variables of each column in a random order."""
    rows: list[tuple[str, ...]] = []
    for tag in (CTRL, BOOL):
        cols = [rnd.sample(typed(c, vs, tag), len(typed(c, vs, tag))) for c, vs in columns]
        rows.extend(zip(*cols))
    rnd.shuffle(rows)
    return tuple(rows)


def random_shape(rnd: random.Random) -> tuple[int, int]:
    return rnd.randint(1, 2), rnd.randint(0, 2)


def random_iteration(rnd: random.Random, exit_at_head: bool) -> IterationWiring:
    """Primitive operands whose interfaces fit the loop, wired at random."""
    head, tail = random_shape(rnd), random_shape(rnd)
    entry = mk_primitive(*random_shape(rnd), *head)
    body = mk_primitive(*head, *tail)
    end = mk_primitive(*tail, *head)
    exit = mk_primitive(*(head if exit_at_head else tail), *random_shape(rnd))
    head_cols = [(entry, entry.outvars), (end, end.outvars), (body, body.invars)]
    tail_cols = [(body, body.outvars), (end, end.invars)]
    (head_cols if exit_at_head else tail_cols).append((exit, exit.invars))
    return IterationWiring(entry, body, end, exit, random_rows(rnd, head_cols), random_rows(rnd, tail_cols))


def mutate_rows(rnd: random.Random, rows: tuple[tuple[str, ...], ...], pool: Sequence[str]):
    """One random defect: a row dropped, repeated or cut short, or an entry swapped."""
    rows = [list(r) for r in rows]
    i = rnd.randrange(len(rows))
    kind = rnd.randrange(4)
    if kind == 0 and len(rows) > 1:
        del rows[i]
    elif kind == 1:
        rows.append(list(rows[i]))
    elif kind == 2:
        rows[i].pop()
    else:
        rows[i][rnd.randrange(len(rows[i]))] = rnd.choice(pool)
    return tuple(tuple(r) for r in rows)


def random_bijection(rnd: random.Random, a: Circuit, avs, b: Circuit, bvs) -> list[tuple[str, str]]:
    """Pair variables of ``avs`` with same-type ones of ``bvs`` in a random order."""
    pairs: list[tuple[str, str]] = []
    for tag in (CTRL, BOOL):
        rs = typed(b, bvs, tag)
        pairs.extend(zip(typed(a, avs, tag), rnd.sample(rs, len(rs))))
    return pairs


def random_branch_pairs(rnd: random.Random, a: Circuit, b: Circuit):
    return random_bijection(rnd, a, a.invars, b, b.invars), random_bijection(rnd, a, a.outvars, b, b.outvars)


# -- equal results ----------------------------------------------------------


def test_buffer_loop_matches_reference():
    assert assert_same_iteration("head", buffer_loop())


def test_flipflop_tail_iteration_matches_reference():
    assert assert_same_iteration("tail", flipflop_wiring())


def test_flipflop_head_iteration_matches_reference():
    assert assert_same_iteration("head", flipflop_head_wiring())


@pytest.mark.parametrize("kind", sorted(ITERATIONS))
def test_random_primitive_iterations_match_reference(kind, rnd):
    for _ in range(40):
        assert assert_same_iteration(kind, random_iteration(rnd, exit_at_head=kind == "head"))


def test_random_primitive_branches_match_reference(rnd):
    for _ in range(40):
        shape = (*random_shape(rnd), *random_shape(rnd))
        a, b = mk_primitive(*shape), mk_primitive(*shape)
        assert assert_same_branch(a, b, *random_branch_pairs(rnd, a, b))


def test_spans_from_pairings_match_reference(rnd):
    for _ in range(60):
        a = mk_primitive(*random_shape(rnd), *random_shape(rnd))
        b = mk_primitive(*random_shape(rnd), *random_shape(rnd))
        pairs = random_bijection(rnd, a, a.vars, b, b.vars)
        pairs = rnd.sample(pairs, rnd.randint(1, len(pairs)))
        want = outcome(reference_span_from_pairing, a, b, pairs, "x")
        assert_same(outcome(span_from_pairing, a, b, pairs, "x"), want)


# -- equal refusals ---------------------------------------------------------


ITERATION_DEFECTS = {
    "row width": lambda w: replace(w, head=tuple(row[:-1] for row in w.head)),
    "repeated column variable": lambda w: replace(w, tail=(w.tail[0], w.tail[1][:-1] + (w.tail[0][-1],))),
    "uncovered column": lambda w: replace(w, head=w.head[:-1]),
    "mixed-type row": lambda w: replace(w, head=swap_body_invars(w.head)),
    "unsound operand": lambda w: replace(w, exit=parallel(w.exit, mk_trivial([CTRL]))),
    "role swap": lambda w: replace(w, entry=w.end, end=w.entry),
}


@pytest.mark.parametrize("defect", sorted(ITERATION_DEFECTS))
@pytest.mark.parametrize("kind, wiring", [("head", flipflop_head_wiring), ("tail", flipflop_wiring)])
def test_iteration_refusals_match_reference(kind, wiring, defect):
    w = ITERATION_DEFECTS[defect](wiring())
    lib, ref = ITERATIONS[kind]
    got = outcome(lib, w)
    assert got == outcome(ref, w)
    code, _ = refusal(got)
    assert code == ("iteration-operand-unsound" if defect == "unsound operand" else "iteration-wiring-mismatch")


@pytest.mark.parametrize("kind", sorted(ITERATIONS))
def test_random_defective_iterations_match_reference(kind, rnd):
    refused = 0
    for _ in range(60):
        w = random_iteration(rnd, exit_at_head=kind == "head")
        pool = sorted(w.entry.vars | w.body.vars | w.end.vars | w.exit.vars)
        if rnd.random() < 0.5:
            w = replace(w, head=mutate_rows(rnd, w.head, pool))
        else:
            w = replace(w, tail=mutate_rows(rnd, w.tail, pool))
        refused += not assert_same_iteration(kind, w)
    assert refused > 40


def test_iterations_refuse_each_others_row_shapes():
    for kind, wiring in (("head", flipflop_wiring), ("tail", buffer_loop)):
        lib, ref = ITERATIONS[kind]
        assert refusal(outcome(lib, wiring())) == refusal(outcome(ref, wiring()))


BRANCH_DEFECTS = {
    "invars not covered": lambda i, o: (i[:-1], o),
    "outvars not covered": lambda i, o: (i, o[1:]),
    "invars not injective": lambda i, o: (i + [(i[0][0], i[-1][1])], o),
    "outvars not injective": lambda i, o: (i, o + [(o[-1][0], o[0][1])]),
    "invar types differ": lambda i, o: ([(i[0][0], i[1][1]), (i[1][0], i[0][1]), *i[2:]], o),
    "outvar types differ": lambda i, o: (i, [(o[0][0], o[1][1]), (o[1][0], o[0][1]), *o[2:]]),
}


@pytest.mark.parametrize("defect", sorted(BRANCH_DEFECTS))
def test_branch_refusals_match_reference(defect):
    a, b = mk_primitive(1, 2, 1, 1), mk_primitive(1, 2, 1, 1)
    in_pairs, out_pairs = BRANCH_DEFECTS[defect](
        [("v1", "v1"), ("v2", "v3"), ("v3", "v2")], [("v4", "v4"), ("v5", "v5")]
    )
    got = outcome(branch, a, b, in_pairs, out_pairs)
    assert got == outcome(reference_branch, a, b, in_pairs, out_pairs)
    assert refusal(got)[0] == "branch-interface-mismatch"


def test_random_defective_branches_match_reference(rnd):
    refused = 0
    for _ in range(60):
        shape = (*random_shape(rnd), *random_shape(rnd))
        a, b = mk_primitive(*shape), mk_primitive(*shape)
        sides = list(random_branch_pairs(rnd, a, b))
        k = rnd.randrange(2)
        pairs = sides[k]
        i = rnd.randrange(len(pairs))
        kind = rnd.randrange(3)
        if kind == 0:
            del pairs[i]
        elif kind == 1:
            pairs.append((pairs[i][0], rnd.choice(sorted(b.vars))))
        else:
            pairs[i] = (pairs[i][0], rnd.choice(sorted(b.vars)))
        refused += not assert_same_branch(a, b, *sides)
    assert refused > 40
