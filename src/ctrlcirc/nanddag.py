"""Classical NAND netlists and their transformation into control circuits.

A netlist is a DAG whose nodes are input variables (in-degree 0), output
variables (out-degree 0) or NAND gates (fan-in 2, fan-out 1). It doubles as
the independent truth-table oracle: the transformation below converts any
such DAG into a control circuit whose execution must agree with direct
topological evaluation on every input vector.

The transformation allocates one control and one Boolean variable per DAG
edge (ids ``src>dst#1`` and ``src>dst#2``), one unit per gate, an input flow
per edge-copy entering a gate and an output flow per edge-copy leaving one.
Edges out of input nodes become invar pairs; edges into output nodes become
outvar pairs.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from itertools import chain, groupby
from operator import itemgetter
from typing import Iterator, Mapping, Optional, Sequence

from .errors import StructureError, ValidationError
from .model import BOOL, CTRL, Circuit, Flow, _cached_view, mk_primitive
from .dynamics import ExecConfig, Outcome, State, Trace, Value, initial_state, run

_ZERO, _ONE = Value.ZERO, Value.ONE


class NodeKind(enum.Enum):
    INPUT = "input"
    OUTPUT = "output"
    GATE = "gate"


@dataclass(frozen=True)
class NandDag:
    """A validated NAND netlist. Treat fields as immutable."""

    nodes: Mapping[str, NodeKind]
    edges: frozenset[tuple[str, str]]

    @_cached_view
    def out_edges(self) -> dict[str, list[tuple[str, str]]]:
        """Each node's out-edges, sorted; the only sort of the edge set.

        Sources come first, in sorted order, so walking the rows in order
        yields the sorted edge set (``sorted_edges``).
        """
        table = {src: list(row) for src, row in groupby(sorted(self.edges), itemgetter(0))}
        for n in self.nodes:
            if n not in table:
                table[n] = []
        return table

    @_cached_view
    def in_edges(self) -> dict[str, list[tuple[str, str]]]:
        """Each node's in-edges, sorted: filled from the sorted edge walk."""
        table: dict[str, list[tuple[str, str]]] = {n: [] for n in self.nodes}
        for e in self.sorted_edges():
            table[e[1]].append(e)
        return table

    def sorted_edges(self) -> Iterator[tuple[str, str]]:
        """The edges in sorted order, read off the ``out_edges`` rows."""
        return chain.from_iterable(self.out_edges.values())

    @_cached_view
    def _input_vars(self) -> tuple[tuple[str, tuple[tuple[str, str], ...]], ...]:
        """Per input node, in sorted order: its (control, Boolean) invar pair per outgoing edge."""
        return tuple((n, tuple((ctrl_var(e), bool_var(e)) for e in self.out_edges[n])) for n in self.inputs())

    @_cached_view
    def _output_vars(self) -> tuple[tuple[str, tuple[str, ...]], ...]:
        """Per output node, in sorted order: the Boolean outvar of each incoming edge."""
        return tuple((n, tuple(bool_var(e) for e in self.in_edges[n])) for n in self.outputs())

    @_cached_view
    def _oracle_order(self) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
        """What the ``eval_dag`` oracle reads: the topological order, then the sorted input and output nodes.

        The order is Kahn's over the edge tables, sources in name order. It
        leaves out exactly the nodes on or after a cycle.
        """
        indeg = {n: len(es) for n, es in self.in_edges.items()}
        order = [n for n in sorted(self.nodes) if not indeg[n]]
        for n in order:  # a queue: the loop reaches the nodes appended below
            for _, m in self.out_edges[n]:
                indeg[m] -= 1
                if not indeg[m]:
                    order.append(m)
        return tuple(order), tuple(self.inputs()), tuple(self.outputs())

    def inputs(self) -> list[str]:
        return sorted(n for n, k in self.nodes.items() if k is NodeKind.INPUT)

    def outputs(self) -> list[str]:
        return sorted(n for n, k in self.nodes.items() if k is NodeKind.OUTPUT)

    def gates(self) -> list[str]:
        return sorted(n for n, k in self.nodes.items() if k is NodeKind.GATE)


def dag_violations(d: NandDag) -> list[str]:
    """Names of every netlist rule ``d`` breaks (empty means valid).

    Degrees are read off the edge tables; ``cyclic`` means the Kahn order leaves a node out.
    """
    nodes, ins, outs = d.nodes, d.in_edges, d.out_edges
    bad = [] if d.edges else ["no-edges"]
    for n, k in sorted(nodes.items()):
        indeg, outdeg = len(ins[n]), len(outs[n])
        if indeg + outdeg == 0:
            bad.append(f"isolated-node:{n}")
        elif k is NodeKind.INPUT and indeg != 0:
            bad.append(f"input-degree:{n}")
        elif k is NodeKind.OUTPUT and outdeg != 0:
            bad.append(f"output-degree:{n}")
        elif k is NodeKind.GATE and (indeg != 2 or outdeg != 1):
            bad.append(f"gate-degree:{n}")
    for a, b in d.sorted_edges():
        ka, kb = nodes[a], nodes[b]
        if ka is NodeKind.OUTPUT or kb is NodeKind.INPUT or (ka is NodeKind.INPUT and kb is NodeKind.OUTPUT):
            bad.append(f"bad-edge:{a}->{b}")
    if len(d._oracle_order[0]) < len(nodes):
        bad.append("cyclic")
    return bad


def validate_dag(nodes: Mapping[str, NodeKind | str], edges) -> NandDag:
    """Validate raw netlist data; raises listing every violated rule, else returns the netlist it checked."""
    if not isinstance(nodes, Mapping):
        raise StructureError(f"netlist nodes must map node names to kinds, got {type(nodes).__name__}")
    nk: dict[str, NodeKind] = {}
    for n, k in nodes.items():
        if not isinstance(n, str):
            raise StructureError(f"node name {n!r} must be a string")
        try:
            nk[n] = k if isinstance(k, NodeKind) else NodeKind(k)
        except ValueError:
            raise StructureError(f"node {n!r} has unknown kind {k!r}") from None
    es = set()
    for e in edges:
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise StructureError(f"edge {e!r} must be a pair of node names")
        a, b = e
        if not (isinstance(a, str) and isinstance(b, str)) or a not in nk or b not in nk:
            raise StructureError(f"edge ({a!r}, {b!r}) references an undeclared node")
        es.add((a, b))
    d = NandDag(nk, frozenset(es))
    bad = dag_violations(d)
    if bad:
        raise ValidationError(bad, subject="nand-dag")
    return d


def topo_order(d: NandDag) -> list[str]:
    """Kahn's topological order: the sources in name order, then each node after its last predecessor."""
    return list(d._oracle_order[0])


def eval_dag(d: NandDag, bits: Mapping[str, int]) -> dict[str, int]:
    """Topological evaluation; each gate outputs the negated conjunction.

    The order and the input and output nodes are derived once per netlist.
    """
    order, inputs, outputs = d._oracle_order
    missing = [n for n in inputs if n not in bits]
    if missing:
        raise StructureError(f"missing input bits for {missing}")
    value: dict[str, int] = {}
    for n in order:
        kind = d.nodes[n]
        if kind is NodeKind.INPUT:
            value[n] = 1 if bits[n] else 0
        elif kind is NodeKind.GATE:
            a, b = (value[src] for src, _ in d.in_edges[n])
            value[n] = 0 if (a and b) else 1
        else:
            sources = {value[src] for src, _ in d.in_edges[n]}
            if len(sources) != 1:
                raise StructureError(f"output node {n!r} receives disagreeing values")
            value[n] = sources.pop()
    return {n: value[n] for n in outputs}


def longest_gate_path(d: NandDag) -> int:
    depth: dict[str, int] = {}
    for n in d._oracle_order[0]:
        if d.nodes[n] is NodeKind.GATE:
            depth[n] = 1 + max((depth.get(src, 0) for src, _ in d.in_edges[n]), default=0)
    return max(depth.values(), default=0)


# ---------------------------------------------------------------------------
# transformation


def ctrl_var(e: tuple[str, str]) -> str:
    return f"{e[0]}>{e[1]}#1"


def bool_var(e: tuple[str, str]) -> str:
    return f"{e[0]}>{e[1]}#2"


@dataclass(frozen=True)
class TransformResult:
    """Transformed circuit plus the table tracing elements back to the DAG."""

    circuit: Circuit
    var_origin: Mapping[str, tuple[tuple[str, str], int]]  # variable -> (edge, copy)
    unit_origin: Mapping[str, str]  # unit -> gate
    input_bindings: Mapping[str, tuple[tuple[str, str], ...]]  # input node -> (ctrl invar, bool invar) pairs
    output_bindings: Mapping[str, tuple[str, ...]]  # output node -> bool outvars


def to_control(d: NandDag) -> TransformResult:
    """Turn a NAND netlist into an equivalent control circuit.

    Every DAG edge yields one control and one Boolean variable, every gate a
    unit; flows mirror which edges enter and leave gates. One pass over the
    sorted edges (the ``out_edges`` rows) builds each edge's ids once and
    fills every table in edge order; a gate has one out-edge, so its unit is
    met exactly once. Nothing is re-checked: a validated netlist yields a
    valid, sound circuit by construction. Each gate's unit has control flows
    in and out, edges out of inputs and into outputs give control invars and
    outvars, and every edge leads through gates to an output (fan-out 1, acyclic).
    """
    kinds, gate = d.nodes, NodeKind.GATE
    var_types, var_origin, in_flows, out_flows, unit_origin = {}, {}, {}, {}, {}
    for e in d.sorted_edges():
        src, dst = e
        cv, bv = ctrl_var(e), bool_var(e)
        var_types[cv], var_types[bv] = CTRL, BOOL
        var_origin[cv], var_origin[bv] = (e, 1), (e, 2)
        if kinds[dst] is gate:
            in_flows["i:" + cv], in_flows["i:" + bv] = Flow(cv, dst), Flow(bv, dst)
        if kinds[src] is gate:
            out_flows["o:" + cv], out_flows["o:" + bv] = Flow(src, cv), Flow(src, bv)
            unit_origin[src] = src

    circuit = Circuit(
        var_types=var_types,
        units=frozenset(unit_origin),
        in_flows=in_flows,
        out_flows=out_flows,
        sigma=frozenset({CTRL, BOOL}),
    )
    return TransformResult(
        circuit=circuit,
        var_origin=var_origin,
        unit_origin=unit_origin,
        input_bindings=dict(d._input_vars),
        output_bindings=dict(d._output_vars),
    )


def lift_inputs(d: NandDag, bits: Mapping[str, int]) -> State:
    """Initial state for the transformed circuit of ``d``.

    Every control invar receives a signal; every Boolean invar receives its
    source input's bit, replicated once per outgoing edge (invars are never
    shared). The invar ids are derived once per netlist.
    """
    ins = d._input_vars
    missing = [n for n, _ in ins if n not in bits]
    if missing:
        raise StructureError(f"missing input bits for {missing}")
    signal = Value.SIGNAL
    values: dict[str, Value] = {}
    for n, pairs in ins:
        bit = Value.from_bit(bits[n])
        for cv, bv in pairs:
            values[cv] = signal
            values[bv] = bit
    return State(0, values)


def read_outputs(d: NandDag, trace: Trace) -> dict[str, int]:
    """Decode the DAG's output bits from a finished trace.

    Requires a final outcome; replicated outvars mapped to one output node
    must agree: where they disagree (an output node fed by two gates that
    disagree), it raises the :class:`StructureError` :func:`eval_dag` does.
    Bits are decoded by identity, as ``Value`` members are singletons; a
    control signal among the outvars raises ``Value.bit``'s ``ValueError``.
    """
    if trace.outcome is not Outcome.FINAL:
        raise StructureError(f"cannot read outputs from a {trace.outcome.value} trace")
    final = trace.final_state.values
    out: dict[str, int] = {}
    for n, vs in d._output_vars:
        val = final[vs[0]]
        if len(vs) > 1 and any(final[v] is not val for v in vs):
            if len({final[v].bit for v in vs}) > 1:  # a control signal raises in ``bit`` first
                raise StructureError(f"output node {n!r} receives disagreeing values")
        out[n] = 1 if val is _ONE else 0 if val is _ZERO else val.bit
    return out


# ---------------------------------------------------------------------------
# families


@dataclass(frozen=True)
class FamilyMember:
    """One circuit of a family, for a fixed input length ``k``.

    For ``k >= 1`` the member is imported from a synthesised netlist whose
    input nodes are grouped per logical bit (``input_groups[i]`` lists the
    nodes that all receive bit ``i``); a zero-input member is built directly
    from a constant primitive and carries no netlist.
    """

    k: int
    circuit: Circuit
    dag: Optional[NandDag]
    input_groups: tuple[tuple[str, ...], ...]
    output_node: Optional[str]

    def evaluate(self, x: Sequence[int]) -> int:
        if len(x) != self.k:
            raise StructureError(f"expected {self.k} input bits, got {len(x)}")
        if not all(b in (0, 1) for b in x):  # booleans pass, as in tables
            raise StructureError(f"input bits must be 0 or 1, got {list(x)!r}")
        if self.dag is None:
            st = initial_state(self.circuit, {v: Value.SIGNAL for v in self.circuit.invars})
            tr = run(self.circuit, st, ExecConfig())
            bools = [v for v in sorted(self.circuit.outvars) if self.circuit.var_types[v] is BOOL]
            return tr.final_state.values[bools[0]].bit
        bits = {node: x[i] for i, group in enumerate(self.input_groups) for node in group}
        tr = run(self.circuit, lift_inputs(self.dag, bits), ExecConfig())
        return read_outputs(self.dag, tr)[self.output_node]


@dataclass(frozen=True)
class CircuitFamily:
    members: Mapping[int, FamilyMember]

    def evaluate(self, x: Sequence[int]) -> int:
        k = len(x)
        if k not in self.members:
            raise StructureError(f"family has no member for input length {k}")
        return self.members[k].evaluate(x)


def _shannon_netlist(k: int, table: Sequence[int]) -> tuple[NandDag, tuple[tuple[str, ...], ...], str]:
    """Emit the netlist of a k-input table (``k >= 1``) by Shannon expansion on the highest input.

    A function of inputs ``0..m-1`` is an int whose bit ``row`` is its value
    on ``row``. Input ``x = m-1`` splits it into the cofactors ``f0`` (low
    half) and ``f1`` (high half). Equal cofactors fold away; a constant
    cofactor leaves an OR (one NAND over the other cofactor's complement) or
    an AND (that NAND, negated) of a literal and the other cofactor; otherwise
    the function is the multiplexer ``NAND(NAND(x, f1), NAND(NOT x, f0))``.
    Gates have fan-out 1, so every literal is a fresh input node of its bit
    and nothing is shared. Gates and leaves go straight into the netlist,
    and the recursion is at most k deep.
    """
    nodes: dict[str, NodeKind] = {}
    edges: set[tuple[str, str]] = set()
    groups: list[list[str]] = [[] for _ in range(k)]

    def leaf(x: int) -> str:
        name = f"x{x}_{len(nodes)}"
        nodes[name] = NodeKind.INPUT
        groups[x].append(name)
        return name

    def nand(a: str, b: str) -> str:
        name = f"g{len(nodes)}"
        nodes[name] = NodeKind.GATE
        edges.add((a, name))
        edges.add((b, name))
        return name

    def inv(x: int) -> str:  # NOT x, from two leaves of x
        return nand(leaf(x), leaf(x))

    def one() -> str:  # x0 NAND (NOT x0)
        return nand(leaf(0), inv(0))

    def emit(f: int, m: int, top: bool = False) -> str:
        half = 1 << (m - 1)
        ones = (1 << half) - 1
        f0, f1, x = f & ones, f >> half, m - 1
        if f0 == f1:
            return emit(f0, m - 1, top)
        if f0 in (0, ones) and f1 in (0, ones):  # the literal x or NOT x
            if not f1:
                return inv(x)
            return nand(inv(x), inv(x)) if top else leaf(x)  # the output must leave a gate
        if f0 == ones:  # NOT x OR f1
            return nand(leaf(x), emit(f1 ^ ones, m - 1))
        if f1 == ones:  # x OR f0
            return nand(inv(x), emit(f0 ^ ones, m - 1))
        if not f0:  # x AND f1
            return nand(nand(leaf(x), emit(f1, m - 1)), one())
        if not f1:  # NOT x AND f0
            return nand(nand(inv(x), emit(f0, m - 1)), one())
        return nand(nand(leaf(x), emit(f1, m - 1)), nand(inv(x), emit(f0, m - 1)))

    f = int("".join(map(str, reversed(table))), 2)
    if f == (1 << len(table)) - 1:
        root = one()
    elif not f:
        root = nand(one(), one())
    else:
        root = emit(f, k, top=True)
    nodes["out"] = NodeKind.OUTPUT
    edges.add((root, "out"))
    return validate_dag(nodes, edges), tuple(tuple(g) for g in groups), "out"


def synth_family(tables: Mapping[int, Sequence[int]]) -> CircuitFamily:
    """Build one circuit per input length from explicit truth tables.

    Tables map ``k`` to the 2**k outputs (row index read in binary, least
    significant bit = first input). A member for ``k >= 1`` is a fan-in-2
    NAND netlist synthesised by Shannon expansion (C. E. Shannon, "The
    synthesis of two-terminal switching circuits", BSTJ 1949): at most one
    multiplexer of at most five gates per distinct cofactor, so at most
    3 * 2**k gates, and at most 2k + 1 gates on any path (2k - 1 below the
    constant tables and single literals). No minimisation is attempted.
    """
    for k in tables:
        if type(k) is not int or k < 0:  # bool is an int subclass, so it fails too
            raise StructureError(f"truth table keys must be non-negative ints, got {k!r}")
    members: dict[int, FamilyMember] = {}
    for k, table in sorted(tables.items()):
        # a string table fails too: its entries are strings
        if not (isinstance(table, Sequence) and all(b in (0, 1) for b in table)):
            raise StructureError(f"truth table for k={k} must be a sequence of 0/1 entries")
        table = [1 if b else 0 for b in table]
        n = len(table)
        if not k < n.bit_length() or n != 1 << k:  # never builds 2**k for a huge k
            raise StructureError(f"truth table for k={k} must have 2**{k} entries, got {n}")
        if k == 0:
            const_one = mk_primitive(1, 0, 1, 1)
            if table[0]:
                circuit = const_one
            else:
                from .operators import sequence

                inv = mk_primitive(1, 1, 1, 1)
                circuit = sequence(const_one, inv, [("v2", "v1"), ("v3", "v2")], tag="const").circuit
            members[k] = FamilyMember(k, circuit, None, (), None)
            continue
        dag, groups, out_node = _shannon_netlist(k, table)
        members[k] = FamilyMember(k, to_control(dag).circuit, dag, groups, out_node)
    return CircuitFamily(members)


# ---------------------------------------------------------------------------
# randomised netlists (used by the test suite and experiment scripts)


def random_dag(rng: random.Random, max_inputs: int = 6, max_gates: int = 15) -> NandDag:
    """A random well-formed netlist with the given size bounds.

    Every input feeds at least one gate, every gate output is consumed
    exactly once (by a gate or a fresh output node), and output nodes have
    in-degree one.
    """
    if max_inputs < 2:
        raise StructureError("need room for at least 2 inputs")
    n_gates = rng.randint(1, max_gates)
    n_inputs = rng.randint(2, min(max_inputs, 2 * n_gates))
    inputs = [f"x{i}" for i in range(n_inputs)]
    unused_inputs = set(inputs)
    open_gates: list[str] = []
    nodes: dict[str, NodeKind] = {n: NodeKind.INPUT for n in inputs}
    edges: set[tuple[str, str]] = set()
    for gi in range(n_gates):
        g = f"g{gi}"
        slots_after = 2 * (n_gates - gi - 1)
        must_take = max(0, min(2, len(unused_inputs) - slots_after))
        sources: list[str] = []
        for _ in range(must_take):
            pick = rng.choice(sorted(unused_inputs))
            unused_inputs.discard(pick)
            sources.append(pick)
        pool = [n for n in inputs + open_gates if n not in sources]
        while len(sources) < 2:
            pick = rng.choice(pool)
            pool.remove(pick)
            sources.append(pick)
            unused_inputs.discard(pick)
        for src in sources:
            if src in open_gates:
                open_gates.remove(src)
            edges.add((src, g))
        nodes[g] = NodeKind.GATE
        open_gates.append(g)
    for j, g in enumerate(open_gates):
        out = f"y{j}"
        nodes[out] = NodeKind.OUTPUT
        edges.add((g, out))
    return validate_dag(nodes, edges)
