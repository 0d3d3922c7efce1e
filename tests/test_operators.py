import random
import re
from dataclasses import replace

import pytest

from ctrlcirc import (
    CTRL,
    CompositionError,
    IterationWiring,
    Span,
    StructureError,
    branch,
    identity_morphism,
    in_adjoint,
    is_isomorphic,
    iterate_head,
    iterate_tail,
    mk_primitive,
    mk_trivial,
    out_adjoint,
    parallel,
    sequence,
    sequence_span,
    unit_circuit,
    validate_circuit,
    validate_morphism,
)
from ctrlcirc.fixtures import (
    build_action,
    build_and,
    build_buffer,
    build_eater,
    build_entry,
    build_next_state,
    build_not,
)
from conftest import random_circuit, random_pairing, random_primitive, random_total_pair, random_total_triple, tag_zip


# -- sequencing ---------------------------------------------------------------


def test_sequence_detects_total_vs_partial():
    nand2, inv = mk_primitive(1, 2, 1, 1), build_not()
    assert sequence(nand2, inv, [("v4", "v1"), ("v5", "v2")]).total
    assert not sequence(nand2, inv, [("v4", "v1")]).total


def test_sequence_rejects_bad_pairings():
    a, b = build_not(), build_not()
    with pytest.raises(CompositionError):
        sequence(a, b, [("v3", "v2"), ("v4", "v1")])  # tags crossed
    with pytest.raises(CompositionError):
        sequence(a, b, [("v1", "v1")])  # v1 is an invar on the left
    with pytest.raises(CompositionError):
        sequence(a, b, [("v3", "v3")])  # v3 is an outvar on the right
    with pytest.raises(CompositionError):
        sequence(a, b, [("v4", "v2")])  # no control pair: apex has no control variable
    with pytest.raises(CompositionError):
        sequence(a, b, [])


@pytest.mark.parametrize("row", [("v3",), (), ("v3", "v1", "v2"), 7], ids=["one", "empty", "three", "int"])
def test_pairing_rows_must_be_pairs(row):
    a, b = build_not(), build_not()
    with pytest.raises(StructureError):
        sequence(a, b, [row])
    with pytest.raises(StructureError):
        sequence(a, b, [("v3", "v1"), row])
    with pytest.raises(StructureError):
        branch(a, b, [("v1", "v1"), row], [("v3", "v3"), ("v4", "v4")])
    with pytest.raises(StructureError):
        branch(a, b, [("v1", "v1"), ("v2", "v2")], [row])


@pytest.mark.parametrize("bad", [["v3"], {"v3": 1}, 3, None, b"v3"], ids=["list", "dict", "int", "none", "bytes"])
def test_rows_must_hold_string_ids(bad):
    # unhashable ids used to escape as a raw TypeError from the set checks
    a, b = build_not(), build_not()
    with pytest.raises(StructureError):
        sequence(a, b, [(bad, "v1")])
    with pytest.raises(StructureError):
        sequence(a, b, [("v3", "v1"), ("v4", bad)])
    with pytest.raises(StructureError):
        branch(a, b, [("v1", "v1"), (bad, "v2")], [("v3", "v3"), ("v4", "v4")])
    with pytest.raises(StructureError):
        branch(a, b, [("v1", "v1"), ("v2", "v2")], [("v3", bad), ("v4", "v4")])
    toggle = _toggle_wiring()
    iterate_head(toggle)  # well formed
    with pytest.raises(StructureError):
        iterate_head(replace(toggle, head=(("c_out", "c_out", bad, "v1"), ("b_out", "b_out", "v2", "v2"))))
    with pytest.raises(StructureError):
        iterate_head(replace(toggle, tail=(("v3", "c_in"), (bad, "b_in"))))
    w = _flipflop_wiring()
    iterate_tail(w)
    with pytest.raises(StructureError):
        iterate_tail(replace(w, tail=(("ctrl_out", "ctrl_in", "v1"), ("q_next_out", bad, "v2"))))


def test_a_string_is_not_a_row():
    # a string is a sequence of one-character strings, so "ab" used to pair a with b
    a, b = validate_circuit({"a": "ctrl"}), validate_circuit({"b": "ctrl"})
    pair_msg = "every row must be a (left, right) pair of variable ids, got 'ab'"
    with pytest.raises(StructureError, match=re.escape(pair_msg)):
        sequence(a, b, ["ab"])
    with pytest.raises(StructureError, match=re.escape(pair_msg)):
        branch(a, b, ["ab"], ["ab"])
    with pytest.raises(StructureError, match=re.escape(pair_msg)):
        branch(a, b, [("a", "b")], ["ab"])
    inv = build_not()
    with pytest.raises(StructureError, match=re.escape("got 'v3v1'")):
        sequence(inv, inv, ["v3v1"])  # used to be refused as an unknown pair (v, 3)
    w = _flipflop_wiring()
    row_msg = "every row must be a sequence of variable ids, got "
    with pytest.raises(StructureError, match=re.escape(row_msg + "'xyz'")):
        iterate_tail(replace(w, tail=(("ctrl_out", "ctrl_in", "v1"), "xyz")))
    with pytest.raises(StructureError, match=re.escape(row_msg + "'wxyz'")):
        iterate_head(replace(_toggle_wiring(), head=("wxyz", ("b_out", "b_out", "v2", "v2"))))


def test_unit_is_left_and_right_identity(rnd):
    for _ in range(30):
        lam = random_circuit(rnd)
        ctrl_in = sorted(v for v in lam.invars if lam.var_types[v] is CTRL)[0]
        ctrl_out = sorted(v for v in lam.outvars if lam.var_types[v] is CTRL)[0]
        left = sequence(unit_circuit(), lam, [("v1", ctrl_in)])
        right = sequence(lam, unit_circuit(), [(ctrl_out, "v1")])
        assert is_isomorphic(left.circuit, lam) is not None
        assert is_isomorphic(right.circuit, lam) is not None


def test_total_sequencing_associativity(rnd):
    for _ in range(30):
        a, b, c = random_total_triple(rnd)
        p_ab = tag_zip(a, a.outvars, b, b.invars)
        p_bc = tag_zip(b, b.outvars, c, c.invars)

        s1 = sequence(a, b, p_ab)
        assert s1.total
        lhs = sequence(s1.circuit, c, [(s1.right_leg.f_v[l], r) for l, r in p_bc])
        assert lhs.total

        s2 = sequence(b, c, p_bc)
        rhs = sequence(a, s2.circuit, [(l, s2.left_leg.f_v[r]) for l, r in p_ab])
        assert rhs.total
        assert is_isomorphic(lhs.circuit, rhs.circuit) is not None


def test_partial_sequencing_counterexample_to_associativity_exists():
    # grouping can leave different variables unmatched; exhibit one concrete
    # witness pair rather than asserting a law
    a = mk_primitive(1, 0, 2, 0)
    b = mk_primitive(1, 0, 2, 0)
    c = mk_primitive(2, 0, 1, 0)
    # (a > b) > c : wire a's first out into b, then both of the result's
    # remaining outs into c
    s1 = sequence(a, b, [("v2", "v1")])
    lhs = sequence(
        s1.circuit, c, [(s1.left_leg.f_v["v3"], "v1"), (s1.right_leg.f_v["v2"], "v2")]
    )
    # a > (b > c) : wire b into c first, then a's first out into b
    s2 = sequence(b, c, [("v2", "v1")])
    rhs = sequence(a, s2.circuit, [("v2", s2.left_leg.f_v["v1"])])
    # the right grouping leaves c's second input open; the left consumes it
    assert len(lhs.circuit.invars) != len(rhs.circuit.invars)


def test_sequential_interface_inclusions_partial(rnd):
    for _ in range(40):
        left, right = random_circuit(rnd, 1), random_primitive(rnd)
        pairs = random_pairing(rnd, left, right)
        if not pairs:
            continue
        res = sequence(left, right, pairs)
        out = res.circuit
        assert {res.left_leg.f_v[v] for v in left.invars} <= out.invars
        assert {res.right_leg.f_v[v] for v in right.outvars} <= out.outvars


def test_sequential_interface_equalities_total(rnd):
    for _ in range(40):
        left, right, pairs = random_total_pair(rnd)
        res = sequence(left, right, pairs)
        assert res.total
        out = res.circuit
        assert {res.left_leg.f_v[v] for v in left.invars} == out.invars
        assert {res.right_leg.f_v[v] for v in right.outvars} == out.outvars


def test_and_composite_textbook_labels():
    and_c = build_and()
    assert sorted(and_c.vars) == [f"v{i}" for i in range(1, 8)]
    assert and_c.invars == {"v1", "v2", "v3"}
    assert and_c.outvars == {"v6", "v7"}


# -- parallelising ------------------------------------------------------------


def test_parallel_commutative_and_associative(rnd):
    for _ in range(20):
        a, b, c = (random_primitive(rnd) for _ in range(3))
        assert is_isomorphic(parallel(a, b), parallel(b, a)) is not None
        assert is_isomorphic(parallel(parallel(a, b), c), parallel(a, parallel(b, c))) is not None


def test_parallel_has_no_identity():
    lam = unit_circuit()
    # any candidate identity e must satisfy |V(e + lam)| == |V(lam)| == 1,
    # impossible since circuits have at least one variable
    e = unit_circuit()
    assert len(parallel(e, lam).vars) == 2 > len(lam.vars)


# -- branching ----------------------------------------------------------------


def _branch_pairs(a, b):
    return tag_zip(a, a.invars, b, b.invars), tag_zip(a, a.outvars, b, b.outvars)


def test_branch_requires_bijective_interfaces():
    a = mk_primitive(1, 1, 1, 1)
    b = mk_primitive(1, 2, 1, 1)
    with pytest.raises(CompositionError) as exc:
        branch(a, b, *_branch_pairs(a, b))
    assert exc.value.code == "branch-interface-mismatch"


def test_branch_interface_in_bijection_with_operands(rnd):
    for _ in range(20):
        ci, bi, co, bo = rnd.randint(1, 2), rnd.randint(0, 2), rnd.randint(1, 2), rnd.randint(0, 2)
        a, b = mk_primitive(ci, bi, co, bo), mk_primitive(ci, bi, co, bo)
        res = branch(a, b, *_branch_pairs(a, b))
        out = res.circuit
        assert len(out.invars) == len(a.invars)
        assert len(out.outvars) == len(a.outvars)
        # adjoint domains of the result are isomorphic to the gluing domains
        assert is_isomorphic(in_adjoint(out).domain, res.in_domain) is not None
        assert is_isomorphic(out_adjoint(out).domain, res.out_domain) is not None


def test_branch_commutative(rnd):
    for _ in range(20):
        ci, bi, co, bo = rnd.randint(1, 2), rnd.randint(0, 2), rnd.randint(1, 2), rnd.randint(0, 2)
        a, b = mk_primitive(ci, bi, co, bo), mk_primitive(ci, bi, co, bo)
        in_p, out_p = _branch_pairs(a, b)
        lhs = branch(a, b, in_p, out_p).circuit
        rhs = branch(b, a, [(r, l) for l, r in in_p], [(r, l) for l, r in out_p]).circuit
        assert is_isomorphic(lhs, rhs) is not None


def test_branch_associative(rnd):
    for _ in range(20):
        ci, bi, co, bo = rnd.randint(1, 2), rnd.randint(0, 2), rnd.randint(1, 2), rnd.randint(0, 2)
        a, b, c = (mk_primitive(ci, bi, co, bo) for _ in range(3))
        p_ab_in, p_ab_out = _branch_pairs(a, b)
        p_ac_in, p_ac_out = _branch_pairs(a, c)

        r1 = branch(a, b, p_ab_in, p_ab_out)
        lhs = branch(
            r1.circuit,
            c,
            [(r1.left_leg.f_v[x], y) for x, y in p_ac_in],
            [(r1.left_leg.f_v[x], y) for x, y in p_ac_out],
        ).circuit

        # align b with c through a so both groupings identify the same triples
        bc_in = [(dict(p_ab_in)[x], y) for x, y in p_ac_in]
        bc_out = [(dict(p_ab_out)[x], y) for x, y in p_ac_out]
        r2 = branch(b, c, bc_in, bc_out)
        rhs = branch(
            a,
            r2.circuit,
            [(x, r2.left_leg.f_v[y]) for x, y in p_ab_in],
            [(x, r2.left_leg.f_v[y]) for x, y in p_ab_out],
        ).circuit
        assert is_isomorphic(lhs, rhs) is not None


# -- iteration ----------------------------------------------------------------


def _toggle_wiring() -> IterationWiring:
    """A one-bit toggle: inverter body, buffer entry and end, an eater exit."""
    return IterationWiring(
        entry=build_buffer(),
        body=build_not(),
        end=build_buffer(),
        exit=build_eater(1),
        head=(("c_out", "c_out", "v1", "v1"), ("b_out", "b_out", "v2", "v2")),
        tail=(("v3", "c_in"), ("v4", "b_in")),
    )


def _flipflop_wiring() -> IterationWiring:
    return IterationWiring(
        entry=build_entry(),
        body=build_action(),
        end=build_next_state(),
        exit=build_eater(1),
        head=(
            ("ctrl_out", "ctrl_out", "ctrl_in"),
            ("r_out", "r_out", "r_in"),
            ("q_out", "q_out", "q_in"),
            ("s_out", "s_out", "s_in"),
        ),
        tail=(
            ("ctrl_out", "ctrl_in", "v1"),
            ("q_next_out", "q_in", "v2"),
        ),
    )


def test_iterate_tail_unit_count_is_sum_of_operands():
    w = _flipflop_wiring()
    res = iterate_tail(w)
    expect = sum(len(c.units) for c in (w.entry, w.body, w.end, w.exit))
    assert len(res.circuit.units) == expect


def test_iterate_tail_interface():
    res = iterate_tail(_flipflop_wiring())
    assert len(res.circuit.invars) == 4
    assert len(res.circuit.outvars) == 1


def test_iterate_head_with_buffer_body_runs():
    # smallest sensible loop: entry/body/end echo one bit, the exit eats it
    entry, body, end = build_buffer(), build_buffer(), build_buffer()
    eater = build_eater(1)
    w = IterationWiring(
        entry=entry,
        body=body,
        end=end,
        exit=eater,
        head=(
            ("c_out", "c_out", "c_in", "v1"),
            ("b_out", "b_out", "b_in", "v2"),
        ),
        tail=(("c_out", "c_in"), ("b_out", "b_in")),
    )
    res = iterate_head(w)
    expect = sum(len(c.units) for c in (entry, body, end, eater))
    assert len(res.circuit.units) == expect

    from ctrlcirc import ExecConfig, Outcome, Value, initial_state, run

    c = res.circuit
    inputs = {}
    for v in c.invars:
        inputs[v] = Value.SIGNAL if c.var_types[v] is CTRL else Value.ONE
    finals = set()
    for seed in range(12):
        tr = run(c, initial_state(c, inputs), ExecConfig(seed=seed, max_steps=400))
        finals.add(tr.outcome)
        assert tr.outcome is Outcome.FINAL
        # loop output is eaten; the only outvar is the exit's control signal
        assert set(tr.final_state.values) == c.outvars


def test_iterate_head_of_flipflop_blocks_is_valid():
    # the literal toggle blocks can be head-iterated too; the exit then has
    # to absorb the whole loop head (three Booleans), so its choice point is
    # not a single readiness group -- validity and shape still hold
    from ctrlcirc import circuit_violations

    w = IterationWiring(
        entry=build_entry(),
        body=build_action(),
        end=build_next_state(),
        exit=build_eater(3),
        head=(
            ("ctrl_out", "ctrl_out", "ctrl_in", "v1"),
            ("r_out", "r_out", "r_in", "v2"),
            ("q_out", "q_out", "q_in", "v3"),
            ("s_out", "s_out", "s_in", "v4"),
        ),
        tail=(
            ("ctrl_out", "ctrl_in"),
            ("q_next_out", "q_in"),
        ),
    )
    res = iterate_head(w)
    assert not circuit_violations(res.circuit)
    expect = sum(len(c.units) for c in (w.entry, w.body, w.end, w.exit))
    assert len(res.circuit.units) == expect
    assert len(res.circuit.invars) == 4
    assert len(res.circuit.outvars) == 1


def test_iterate_head_toggle_checks_termination_before_each_pass():
    # one-Boolean loop state: the body inverter and the exit eater consume
    # exactly the same variables, so each pass starts with a stop/continue
    # choice; the stored bit flips once per body run
    from ctrlcirc import ExecConfig, Outcome, Value, initial_state, run

    entry, end = build_buffer(), build_buffer()
    body = build_not()
    eater = build_eater(1)
    w = IterationWiring(
        entry=entry,
        body=body,
        end=end,
        exit=eater,
        head=(
            ("c_out", "c_out", "v1", "v1"),
            ("b_out", "b_out", "v2", "v2"),
        ),
        tail=(("v3", "c_in"), ("v4", "b_in")),
    )
    res = iterate_head(w)
    c = res.circuit
    head_bit = res.entry_map.f_v["b_out"]
    inputs = {v: Value.SIGNAL if c.var_types[v] is CTRL else Value.ONE for v in c.invars}
    seen_lengths = set()
    for seed in range(24):
        tr = run(c, initial_state(c, inputs), ExecConfig(seed=seed, max_steps=300))
        assert tr.outcome is Outcome.FINAL
        bits = [v.bit for _, v in tr.assignment_history(head_bit)]
        assert bits == [(k + 1) % 2 for k in range(len(bits))]  # toggles once per pass
        seen_lengths.add(len(bits))
    assert len(seen_lengths) > 1  # the stop choice happens at different passes


def test_iterate_requires_sound_operands():
    w = _flipflop_wiring()
    bad = IterationWiring(
        entry=w.entry,
        body=w.body,
        end=w.end,
        exit=parallel(build_eater(1), mk_trivial([CTRL])),  # inoutvar: unsound
        head=w.head,
        tail=w.tail,
    )
    with pytest.raises(CompositionError) as exc:
        iterate_tail(bad)
    assert exc.value.code == "iteration-operand-unsound"


def test_iterate_rejects_misaligned_wiring():
    w = _flipflop_wiring()
    bad = IterationWiring(
        entry=w.entry,
        body=w.body,
        end=w.end,
        exit=w.exit,
        head=w.head,
        tail=(("ctrl_out", "ctrl_in", "v1"), ("q_next_out", "q_in", "v1")),  # reuses exit v1
    )
    with pytest.raises(CompositionError) as exc:
        iterate_tail(bad)
    assert exc.value.code == "iteration-wiring-mismatch"


def test_iterate_head_and_tail_disagree_on_row_shapes():
    w = _flipflop_wiring()
    with pytest.raises(CompositionError):
        iterate_head(w)  # head rows lack the exit column


def test_iterate_tail_role_swap_is_rejected():
    # using the entry block as the end stage breaks the interface alignment
    w = _flipflop_wiring()
    swapped = IterationWiring(
        entry=w.end, body=w.body, end=w.entry, exit=w.exit, head=w.head, tail=w.tail
    )
    with pytest.raises(CompositionError) as exc:
        iterate_tail(swapped)
    assert exc.value.code == "iteration-wiring-mismatch"


def test_sequence_span_refuses_a_non_trivial_apex_and_legs_that_are_not_mono():
    prim = mk_primitive(1, 0, 1, 0)
    with pytest.raises(CompositionError, match=r"^span-apex-not-trivial$") as exc:
        sequence_span(Span(prim, identity_morphism(prim), identity_morphism(prim)))
    assert exc.value.code == "span-apex-not-trivial"
    apex = mk_trivial([CTRL, CTRL])
    fold = validate_morphism(apex, unit_circuit(), {"v1": "v1", "v2": "v1"}, {}, {}, {})
    with pytest.raises(CompositionError, match=r"^span-legs-not-mono$") as exc:
        sequence_span(Span(apex, fold, identity_morphism(apex)))
    assert exc.value.code == "span-legs-not-mono"


def test_sequence_refuses_a_pair_naming_an_unknown_variable():
    prim = mk_primitive(1, 0, 1, 0)
    with pytest.raises(CompositionError, match=r"^pairing-unknown-variable: \(nope, v1\)$") as exc:
        sequence(prim, prim, [("nope", "v1")])
    assert exc.value.code == "pairing-unknown-variable"
