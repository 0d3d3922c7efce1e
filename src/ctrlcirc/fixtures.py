"""A library of named circuits built by operator calls.

Each builder composes primitives with the public operators and then renames
the interface variables to stable, meaningful ids, so the builders double as
executable documentation of how the composites are put together. Nothing
here is hand-assembled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .dynamics import ExecConfig, Value, initial_state, run
from .model import Circuit, mk_primitive, relabel, unit_circuit
from .colimits import coproduct
from .operators import IterationWiring, branch, iterate_tail, sequence


def build_not() -> Circuit:
    """Single-unit inverter: control+Boolean in, control+Boolean out."""
    return mk_primitive(1, 1, 1, 1)


def build_nand(n_bool_in: int = 2) -> Circuit:
    """Single-unit NAND stage with ``n_bool_in`` Boolean inputs."""
    return mk_primitive(1, n_bool_in, 1, 1)


def build_fork(n_out: int) -> Circuit:
    """Replicates one control signal onto ``n_out`` control outputs."""
    return mk_primitive(1, 0, n_out, 0)


def build_join(n_in: int) -> Circuit:
    """Merges ``n_in`` control signals into one."""
    return mk_primitive(n_in, 0, 1, 0)


def build_eater(n_bool_in: int = 1) -> Circuit:
    """Discards Booleans: consumes them but emits only a control signal."""
    return mk_primitive(1, n_bool_in, 1, 0)


def build_and() -> Circuit:
    """Two-input AND: a binary NAND stage run into an inverter (total).

    Variables carry the textbook labels: v1 control in, v2/v3 Boolean in,
    v4/v5 the mid-point, v6 control out, v7 the AND of v2 and v3.
    """
    res = sequence(build_nand(2), build_not(), [("v4", "v1"), ("v5", "v2")])
    assert res.total
    names = {res.left_leg.f_v[f"v{i}"]: f"v{i}" for i in range(1, 6)}
    names[res.right_leg.f_v["v3"]] = "v6"
    names[res.right_leg.f_v["v4"]] = "v7"
    circuit, _ = relabel(res.circuit, names)
    return circuit


def build_or() -> Circuit:
    """Two-input OR: two inverters in parallel run into a binary NAND (total).

    Interface: ``c1_in``/``a_in`` feed one inverter, ``c2_in``/``b_in`` the
    other; ``or_out`` carries ``a or b``.
    """
    cp = coproduct(build_not(), build_not(), tag="par")
    final = mk_primitive(2, 2, 1, 1)  # v1,v2 ctrl in; v3,v4 bool in; v5,v6 out
    pairs = [
        (cp.left.f_v["v3"], "v1"),
        (cp.left.f_v["v4"], "v3"),
        (cp.right.f_v["v3"], "v2"),
        (cp.right.f_v["v4"], "v4"),
    ]
    res = sequence(cp.circuit, final, pairs)
    assert res.total
    names = {
        res.left_leg.f_v[cp.left.f_v["v1"]]: "c1_in",
        res.left_leg.f_v[cp.left.f_v["v2"]]: "a_in",
        res.left_leg.f_v[cp.right.f_v["v1"]]: "c2_in",
        res.left_leg.f_v[cp.right.f_v["v2"]]: "b_in",
        res.right_leg.f_v["v5"]: "c_out",
        res.right_leg.f_v["v6"]: "or_out",
    }
    circuit, _ = relabel(res.circuit, names)
    return circuit


def build_buffer() -> Circuit:
    """Echoes a Boolean unchanged: two inverters in sequence (total)."""
    res = sequence(build_not(), build_not(), [("v3", "v1"), ("v4", "v2")])
    assert res.total
    names = {
        res.left_leg.f_v["v1"]: "c_in",
        res.left_leg.f_v["v2"]: "b_in",
        res.right_leg.f_v["v3"]: "c_out",
        res.right_leg.f_v["v4"]: "b_out",
    }
    circuit, _ = relabel(res.circuit, names)
    return circuit


# ---------------------------------------------------------------------------
# branching showcase: a four-alternative regulatory-network step
#
# Each alternative consumes one control signal plus the p53 and mdm2 bits and
# produces one control signal plus a next p53 bit.  Every alternative leads
# with a pure fork whose input set is exactly the shared control invar, so
# after branching the four forks compete in a single readiness group and
# exactly one alternative runs per execution.


def _build_alt_through(operand: Circuit, ids: tuple[str, str, str, str]) -> Circuit:
    """Fork, then ``operand`` beside a Boolean eater, then a join.

    ``ids`` names the operand's control in, Boolean in, control out and
    Boolean out; the operand turns ``p53_in`` into ``p53_out``.
    """
    c_in, b_in, c_out, b_out = ids
    fork = build_fork(2)
    cp = coproduct(operand, build_eater(1), tag="par")
    st1 = sequence(fork, cp.circuit, [("v2", cp.left.f_v[c_in]), ("v3", cp.right.f_v["v1"])])
    join = build_join(2)
    st2 = sequence(
        st1.circuit,
        join,
        [(st1.right_leg.f_v[cp.left.f_v[c_out]], "v1"), (st1.right_leg.f_v[cp.right.f_v["v3"]], "v2")],
    )
    lift = lambda v: st2.left_leg.f_v[st1.right_leg.f_v[v]]
    names = {
        st2.left_leg.f_v[st1.left_leg.f_v["v1"]]: "ctrl_in",
        lift(cp.left.f_v[b_in]): "p53_in",
        lift(cp.right.f_v["v2"]): "mdm2_in",
        st2.right_leg.f_v["v3"]: "ctrl_out",
        lift(cp.left.f_v[b_out]): "p53_out",
    }
    circuit, _ = relabel(st2.circuit, names)
    return circuit


def build_alt_invert() -> Circuit:
    """Fork, then an inverter beside a Boolean eater, then a join."""
    return _build_alt_through(build_not(), ("v1", "v2", "v3", "v4"))


def _build_alt_or(invert_first: bool) -> Circuit:
    """Fork, an inverter beside a buffer, then a binary NAND stage (total).

    The two variants differ only in which Boolean gets inverted before the
    final stage, i.e. in how they process their Boolean information.
    """
    fork = build_fork(2)
    first = build_not() if invert_first else build_buffer()
    second = build_buffer() if invert_first else build_not()
    cp = coproduct(first, second, tag="par")
    left_ids = ("v1", "v2", "v3", "v4") if invert_first else ("c_in", "b_in", "c_out", "b_out")
    right_ids = ("c_in", "b_in", "c_out", "b_out") if invert_first else ("v1", "v2", "v3", "v4")
    st1 = sequence(fork, cp.circuit, [("v2", cp.left.f_v[left_ids[0]]), ("v3", cp.right.f_v[right_ids[0]])])
    final = mk_primitive(2, 2, 1, 1)
    st2 = sequence(
        st1.circuit,
        final,
        [
            (st1.right_leg.f_v[cp.left.f_v[left_ids[2]]], "v1"),
            (st1.right_leg.f_v[cp.left.f_v[left_ids[3]]], "v3"),
            (st1.right_leg.f_v[cp.right.f_v[right_ids[2]]], "v2"),
            (st1.right_leg.f_v[cp.right.f_v[right_ids[3]]], "v4"),
        ],
    )
    lift = lambda v: st2.left_leg.f_v[st1.right_leg.f_v[v]]
    names = {
        st2.left_leg.f_v[st1.left_leg.f_v["v1"]]: "ctrl_in",
        lift(cp.left.f_v[left_ids[1]]): "p53_in",
        lift(cp.right.f_v[right_ids[1]]): "mdm2_in",
        st2.right_leg.f_v["v5"]: "ctrl_out",
        st2.right_leg.f_v["v6"]: "p53_out",
    }
    circuit, _ = relabel(st2.circuit, names)
    return circuit


def build_alt_or_a() -> Circuit:
    return _build_alt_or(invert_first=True)


def build_alt_or_b() -> Circuit:
    return _build_alt_or(invert_first=False)


def build_alt_echo() -> Circuit:
    """Fork, then a buffer beside a Boolean eater, then a join (echoes p53)."""
    return _build_alt_through(build_buffer(), ("c_in", "b_in", "c_out", "b_out"))


@dataclass(frozen=True)
class BranchFixture:
    circuit: Circuit
    alternatives: Mapping[str, frozenset[str]]  # name -> unit ids in the composite

    CTRL_IN = "ctrl_in"
    P53_IN = "p53_in"
    MDM2_IN = "mdm2_in"
    CTRL_OUT = "ctrl_out"
    P53_OUT = "p53_out"


_IFACE_PAIRS_IN = [("ctrl_in", "ctrl_in"), ("p53_in", "p53_in"), ("mdm2_in", "mdm2_in")]
_IFACE_PAIRS_OUT = [("ctrl_out", "ctrl_out"), ("p53_out", "p53_out")]


def build_p53() -> BranchFixture:
    """Four alternatives branched pairwise; one fires per run."""
    alts = {
        "invert": build_alt_invert(),
        "or_a": build_alt_or_a(),
        "or_b": build_alt_or_b(),
        "echo": build_alt_echo(),
    }
    order = ["invert", "or_a", "or_b", "echo"]
    acc = alts[order[0]]
    unit_maps: dict[str, dict[str, str]] = {order[0]: {u: u for u in acc.units}}

    # each round relabels the accumulated interface back to the standard
    # names, so the same literal pairings apply at every nesting level
    for name in order[1:]:
        nxt = alts[name]
        res = branch(acc, nxt, _IFACE_PAIRS_IN, _IFACE_PAIRS_OUT)
        for prev in unit_maps:
            unit_maps[prev] = {u: res.left_leg.f_u[w] for u, w in unit_maps[prev].items()}
        unit_maps[name] = dict(res.right_leg.f_u)
        names = {
            res.left_leg.f_v["ctrl_in"]: "ctrl_in",
            res.left_leg.f_v["p53_in"]: "p53_in",
            res.left_leg.f_v["mdm2_in"]: "mdm2_in",
            res.left_leg.f_v["ctrl_out"]: "ctrl_out",
            res.left_leg.f_v["p53_out"]: "p53_out",
        }
        acc, ren = relabel(res.circuit, names)
        for prev in unit_maps:
            unit_maps[prev] = {u: ren.f_u[w] for u, w in unit_maps[prev].items()}

    return BranchFixture(
        circuit=acc,
        alternatives={name: frozenset(m.values()) for name, m in unit_maps.items()},
    )


# ---------------------------------------------------------------------------
# iterative showcase: the toggle action of a clocked set-reset flip-flop


def build_entry() -> Circuit:
    """Echoes reset/state/set bits: fork -> three buffers in parallel -> join.

    Both sequencings are partial: the fork covers only the buffers' control
    inputs and the join only their control outputs.
    """
    fork = build_fork(3)
    cpA = coproduct(build_buffer(), build_buffer(), tag="par")
    cp = coproduct(cpA.circuit, build_buffer(), tag="par")
    b_ctrl_ins = [
        cp.left.f_v[cpA.left.f_v["c_in"]],
        cp.left.f_v[cpA.right.f_v["c_in"]],
        cp.right.f_v["c_in"],
    ]
    st1 = sequence(fork, cp.circuit, list(zip(["v2", "v3", "v4"], b_ctrl_ins)))
    assert not st1.total
    join = build_join(3)
    b_ctrl_outs = [
        st1.right_leg.f_v[cp.left.f_v[cpA.left.f_v["c_out"]]],
        st1.right_leg.f_v[cp.left.f_v[cpA.right.f_v["c_out"]]],
        st1.right_leg.f_v[cp.right.f_v["c_out"]],
    ]
    st2 = sequence(st1.circuit, join, list(zip(b_ctrl_outs, ["v1", "v2", "v3"])))
    lift = lambda v: st2.left_leg.f_v[st1.right_leg.f_v[v]]
    names = {
        st2.left_leg.f_v[st1.left_leg.f_v["v1"]]: "ctrl_in",
        lift(cp.left.f_v[cpA.left.f_v["b_in"]]): "r_in",
        lift(cp.left.f_v[cpA.right.f_v["b_in"]]): "q_in",
        lift(cp.right.f_v["b_in"]): "s_in",
        st2.right_leg.f_v["v4"]: "ctrl_out",
        lift(cp.left.f_v[cpA.left.f_v["b_out"]]): "r_out",
        lift(cp.left.f_v[cpA.right.f_v["b_out"]]): "q_out",
        lift(cp.right.f_v["b_out"]): "s_out",
    }
    circuit, _ = relabel(st2.circuit, names)
    return circuit


def build_action() -> Circuit:
    """Computes the next flip-flop state ``s or (not r and q)``.

    An inverter that also forks its control feeds the AND composite (partial),
    and the result plus the spare control line feed the OR composite
    (partial); the set bit enters the OR stage directly.
    """
    inv_fork = mk_primitive(1, 1, 2, 1)  # v1 ctrl in, v2 bool in, v3+v4 ctrl out, v5 bool out
    and_c = build_and()
    st1 = sequence(inv_fork, and_c, [("v3", "v1"), ("v5", "v2")])
    or_c = build_or()
    st2 = sequence(
        st1.circuit,
        or_c,
        [
            (st1.right_leg.f_v["v6"], "c1_in"),
            (st1.right_leg.f_v["v7"], "a_in"),
            (st1.left_leg.f_v["v4"], "c2_in"),
        ],
    )
    names = {
        st2.left_leg.f_v[st1.left_leg.f_v["v1"]]: "ctrl_in",
        st2.left_leg.f_v[st1.left_leg.f_v["v2"]]: "r_in",
        st2.left_leg.f_v[st1.right_leg.f_v["v3"]]: "q_in",
        st2.right_leg.f_v["b_in"]: "s_in",
        st2.right_leg.f_v["c_out"]: "ctrl_out",
        st2.right_leg.f_v["or_out"]: "q_next_out",
    }
    circuit, _ = relabel(st2.circuit, names)
    return circuit


def build_next_state() -> Circuit:
    """Derives the next iteration's inputs from the computed state.

    Two inverters in partial sequence; each replicates its Boolean result,
    so the composite emits ``not q`` (next set), ``q`` (next reset) and ``q``
    (echo) plus control.
    """
    first = mk_primitive(1, 1, 1, 2)  # emits not-q twice
    second = mk_primitive(1, 1, 1, 2)  # emits q twice
    res = sequence(first, second, [("v3", "v1"), ("v4", "v2")])
    assert not res.total
    names = {
        res.left_leg.f_v["v1"]: "ctrl_in",
        res.left_leg.f_v["v2"]: "q_in",
        res.left_leg.f_v["v5"]: "s_out",
        res.right_leg.f_v["v3"]: "ctrl_out",
        res.right_leg.f_v["v4"]: "r_out",
        res.right_leg.f_v["v5"]: "q_out",
    }
    circuit, _ = relabel(res.circuit, names)
    return circuit


@dataclass(frozen=True)
class FlipFlopFixture:
    """Tail-iterative toggle circuit with stable ids for the glued variables.

    ``loop_*`` name the loop-head variables (entry output = next-stage output
    = action input); ``ret_*`` the loop-tail variables (action output = next
    stage input = exit input). Each pass the next-stage inverter pair and the
    exit eater compete for the same ``ret`` variables, so termination happens
    at a random iteration.
    """

    circuit: Circuit
    entry_units: frozenset[str]
    body_units: frozenset[str]
    end_units: frozenset[str]
    exit_units: frozenset[str]

    CTRL_IN = "ctrl_in"
    R_IN = "r_in"
    Q_IN = "q_in"
    S_IN = "s_in"
    CTRL_OUT = "ctrl_out"
    LOOP_CTRL = "loop_ctrl"
    LOOP_R = "loop_r"
    LOOP_Q = "loop_q"
    LOOP_S = "loop_s"
    RET_CTRL = "ret_ctrl"
    RET_Q = "ret_q"


def build_flipflop() -> FlipFlopFixture:
    entry = build_entry()
    action = build_action()
    nxt = build_next_state()
    exit_c = build_eater(1)  # v1 ctrl in, v2 bool in, v3 ctrl out

    wiring = IterationWiring(
        entry=entry,
        body=action,
        end=nxt,
        exit=exit_c,
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
    res = iterate_tail(wiring)
    names = {
        res.entry_map.f_v["ctrl_in"]: "ctrl_in",
        res.entry_map.f_v["r_in"]: "r_in",
        res.entry_map.f_v["q_in"]: "q_in",
        res.entry_map.f_v["s_in"]: "s_in",
        res.entry_map.f_v["ctrl_out"]: "loop_ctrl",
        res.entry_map.f_v["r_out"]: "loop_r",
        res.entry_map.f_v["q_out"]: "loop_q",
        res.entry_map.f_v["s_out"]: "loop_s",
        res.body_map.f_v["ctrl_out"]: "ret_ctrl",
        res.body_map.f_v["q_next_out"]: "ret_q",
        res.exit_map.f_v["v3"]: "ctrl_out",
    }
    circuit, ren = relabel(res.circuit, names)
    remap = lambda leg, units: frozenset(ren.f_u[leg.f_u[u]] for u in units)
    return FlipFlopFixture(
        circuit=circuit,
        entry_units=remap(res.entry_map, entry.units),
        body_units=remap(res.body_map, action.units),
        end_units=remap(res.end_map, nxt.units),
        exit_units=remap(res.exit_map, exit_c.units),
    )


@dataclass(frozen=True)
class FlipFlopRow:
    """One observed characteristic-table row."""

    s: int
    r: int
    q: int
    q_next: int
    r_next: int
    s_next: int


def run_flipflop_table(seeds: Iterable[int] = range(64), fixture: FlipFlopFixture | None = None) -> list[FlipFlopRow]:
    """Observe the first loop pass of the toggle circuit for all 8 inputs.

    Whether a run continues past the first pass is random, so each row scans
    the given seeds until one trace shows the next-stage writes (the second
    assignment of the loop-head variables); a row that never continues is an
    error. Values: ``q_next`` from the first loop-tail write, ``r_next`` and
    ``s_next`` from the loop head's second write.
    """
    ff = fixture or build_flipflop()
    seeds = list(seeds)
    rows: list[FlipFlopRow] = []
    for s in (0, 1):
        for r in (0, 1):
            for q in (0, 1):
                observed = None
                for seed in seeds:
                    init = initial_state(
                        ff.circuit,
                        {
                            ff.CTRL_IN: Value.SIGNAL,
                            ff.R_IN: Value.from_bit(r),
                            ff.Q_IN: Value.from_bit(q),
                            ff.S_IN: Value.from_bit(s),
                        },
                    )
                    tr = run(ff.circuit, init, ExecConfig(seed=seed, max_steps=600))
                    q_hist = tr.assignment_history(ff.RET_Q)
                    r_hist = tr.assignment_history(ff.LOOP_R)
                    s_hist = tr.assignment_history(ff.LOOP_S)
                    if q_hist and len(r_hist) >= 2 and len(s_hist) >= 2:
                        observed = FlipFlopRow(
                            s, r, q, q_hist[0][1].bit, r_hist[1][1].bit, s_hist[1][1].bit
                        )
                        break
                if observed is None:
                    raise RuntimeError(f"no seed continued the loop for inputs S={s} R={r} Q={q}")
                rows.append(observed)
    return rows


# ---------------------------------------------------------------------------
# registry


def _p53_circuit() -> Circuit:
    return build_p53().circuit


def _flipflop_circuit() -> Circuit:
    return build_flipflop().circuit


REGISTRY: dict[str, Callable[[], Circuit]] = {
    "unit": unit_circuit,
    "not": build_not,
    "nand2": lambda: build_nand(2),
    "and": build_and,
    "or": build_or,
    "buffer": build_buffer,
    "fork2": lambda: build_fork(2),
    "fork3": lambda: build_fork(3),
    "join2": lambda: build_join(2),
    "join3": lambda: build_join(3),
    "eater1": lambda: build_eater(1),
    "entry": build_entry,
    "action": build_action,
    "next": build_next_state,
    "p53": _p53_circuit,
    "flipflop": _flipflop_circuit,
}


def fixture(name: str) -> Circuit:
    try:
        return REGISTRY[name]()
    except KeyError:
        raise KeyError(f"unknown fixture {name!r}; known: {', '.join(sorted(REGISTRY))}") from None
