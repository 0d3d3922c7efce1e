"""Gluing constructions on circuits: pushout, coproduct, isomorphism.

A pushout merges two circuits along a shared apex by quotienting the tagged
disjoint union of each component set; a coproduct places two circuits side
by side. Identifier freshness uses a namespace prefix ``<tag>/<L|R>/<id>``
and quotient classes are named after their lexicographically least member,
so results are reproducible and diffable.

Isomorphism is decided on the var/unit graph whose edges carry flow
multiplicities: joint colour refinement (Weisfeiler-Leman, a few rounds)
rejects most non-isomorphic pairs in near-linear time, and a VF2-style
backtracking search (Cordella et al., 2004) extends the mapping from
already-mapped neighbours on an explicit stack.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional

from .errors import CompositionError, StructureError
from .model import Circuit, Flow, TypeTag, circuit_violations
from .morphisms import CircuitMorphism, boundary_sets, is_mono, validate_morphism


@dataclass(frozen=True)
class Span:
    """Two morphisms out of a common apex."""

    apex: Circuit
    left: CircuitMorphism
    right: CircuitMorphism

    def __post_init__(self):
        if self.left.src != self.apex or self.right.src != self.apex:
            raise StructureError("span legs must share the apex as their domain")


@dataclass(frozen=True)
class Cospan:
    """The result of a pushout: the glued circuit plus its two legs."""

    result: Circuit
    left_leg: CircuitMorphism
    right_leg: CircuitMorphism


class UnionFind:
    """Plain union-find over hashable items; classes are reported sorted."""

    def __init__(self, items: Iterable):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def classes(self) -> list[list]:
        by_root: dict = {}
        for x in self.parent:
            by_root.setdefault(self.find(x), []).append(x)
        return [sorted(members) for members in by_root.values()]


def _quotient(
    left_items: Iterable[str],
    right_items: Iterable[str],
    seeds: Iterable[tuple[str, str]],
    name: Callable[[tuple[str, str]], str],
) -> tuple[dict[tuple[str, str], str], list[list[tuple[str, str]]]]:
    """Quotient the tagged union of two id sets by the seed pairs.

    Returns a map from tagged element to its class representative name, and
    the list of classes (each a sorted list of tagged elements).
    """
    tagged = [("L", x) for x in left_items] + [("R", x) for x in right_items]
    uf = UnionFind(tagged)
    for lx, rx in seeds:
        uf.union(("L", lx), ("R", rx))
    classes = uf.classes()
    rep: dict[tuple[str, str], str] = {}
    for members in classes:
        rep_name = min(name(m) for m in members)
        for m in members:
            rep[m] = rep_name
    return rep, classes


def pushout(span: Span, tag: str = "po") -> Cospan:
    """Glue the two base circuits of a span along its apex.

    Exists only when each leg maps the other leg's boundary-gaining
    variables into interface variables; otherwise raises
    ``CompositionError("pushout-does-not-exist")``.
    """
    alpha, beta = span.left, span.right
    left, right = alpha.dst, beta.dst

    gi_b, go_b = boundary_sets(span.apex, right, beta.f_v, beta.f_u)
    gi_a, go_a = boundary_sets(span.apex, left, alpha.f_v, alpha.f_u)
    img_in_left = {alpha.f_v[v] for v in gi_b | go_b}
    img_in_right = {beta.f_v[v] for v in gi_a | go_a}
    if not img_in_left <= (left.invars | left.outvars):
        raise CompositionError(
            "pushout-does-not-exist",
            f"left operand would gain flows at non-interface variables {sorted(img_in_left - (left.invars | left.outvars))}",
        )
    if not img_in_right <= (right.invars | right.outvars):
        raise CompositionError(
            "pushout-does-not-exist",
            f"right operand would gain flows at non-interface variables {sorted(img_in_right - (right.invars | right.outvars))}",
        )

    def name(member: tuple[str, str]) -> str:
        side, orig = member
        return f"{tag}/{side}/{orig}"

    v_rep, v_classes = _quotient(
        left.vars, right.vars, ((alpha.f_v[v], beta.f_v[v]) for v in span.apex.vars), name
    )
    u_rep, _ = _quotient(
        left.units, right.units, ((alpha.f_u[u], beta.f_u[u]) for u in span.apex.units), name
    )
    i_rep, i_classes = _quotient(
        left.in_flows, right.in_flows, ((alpha.f_i[i], beta.f_i[i]) for i in span.apex.in_flows), name
    )
    o_rep, o_classes = _quotient(
        left.out_flows, right.out_flows, ((alpha.f_o[o], beta.f_o[o]) for o in span.apex.out_flows), name
    )

    sides = {"L": left, "R": right}
    var_types: dict[str, TypeTag] = {}
    for members in v_classes:
        tags = {sides[s].var_types[x] for s, x in members}
        if len(tags) != 1:
            raise AssertionError(f"pushout identified variables of different types: {members}")
        var_types[v_rep[members[0]]] = tags.pop()

    in_flows: dict[str, Flow] = {}
    for members in i_classes:
        images = {
            (v_rep[(s, sides[s].in_flows[x].src)], u_rep[(s, sides[s].in_flows[x].dst)]) for s, x in members
        }
        if len(images) != 1:
            raise AssertionError(f"pushout produced an ill-defined input-flow map on {members}")
        src, dst = images.pop()
        in_flows[i_rep[members[0]]] = Flow(src, dst)
    out_flows: dict[str, Flow] = {}
    for members in o_classes:
        images = {
            (u_rep[(s, sides[s].out_flows[x].src)], v_rep[(s, sides[s].out_flows[x].dst)]) for s, x in members
        }
        if len(images) != 1:
            raise AssertionError(f"pushout produced an ill-defined output-flow map on {members}")
        src, dst = images.pop()
        out_flows[o_rep[members[0]]] = Flow(src, dst)

    result = Circuit(
        var_types=var_types,
        units=frozenset(u_rep[m] for m in u_rep),
        in_flows=in_flows,
        out_flows=out_flows,
        sigma=left.sigma | right.sigma,
    )
    bad = circuit_violations(result)
    if bad:
        raise AssertionError(f"pushout produced an invalid circuit: {bad}")

    def leg(side: str, base: Circuit) -> CircuitMorphism:
        return validate_morphism(
            base,
            result,
            {v: v_rep[(side, v)] for v in base.vars},
            {u: u_rep[(side, u)] for u in base.units},
            {i: i_rep[(side, i)] for i in base.in_flows},
            {o: o_rep[(side, o)] for o in base.out_flows},
        )

    left_leg = leg("L", left)
    right_leg = leg("R", right)
    for v in span.apex.vars:
        if left_leg.f_v[alpha.f_v[v]] != right_leg.f_v[beta.f_v[v]]:
            raise AssertionError("pushout square does not commute")
    return Cospan(result, left_leg, right_leg)


# ---------------------------------------------------------------------------
# coproduct


@dataclass(frozen=True)
class CoproductResult:
    circuit: Circuit
    left: CircuitMorphism
    right: CircuitMorphism


def coproduct(a: Circuit, b: Circuit, tag: str = "cp") -> CoproductResult:
    """Componentwise disjoint union with namespace-prefixed identifiers."""

    def ren(side: str, x: str) -> str:
        return f"{tag}/{side}/{x}"

    var_types = {ren("L", v): t for v, t in a.var_types.items()}
    var_types.update({ren("R", v): t for v, t in b.var_types.items()})
    units = frozenset([ren("L", u) for u in a.units] + [ren("R", u) for u in b.units])
    in_flows = {ren("L", i): Flow(ren("L", f.src), ren("L", f.dst)) for i, f in a.in_flows.items()}
    in_flows.update({ren("R", i): Flow(ren("R", f.src), ren("R", f.dst)) for i, f in b.in_flows.items()})
    out_flows = {ren("L", o): Flow(ren("L", f.src), ren("L", f.dst)) for o, f in a.out_flows.items()}
    out_flows.update({ren("R", o): Flow(ren("R", f.src), ren("R", f.dst)) for o, f in b.out_flows.items()})
    result = Circuit(var_types, units, in_flows, out_flows, a.sigma | b.sigma)
    bad = circuit_violations(result)
    if bad:
        raise AssertionError(f"coproduct produced an invalid circuit: {bad}")

    def inj(side: str, base: Circuit) -> CircuitMorphism:
        return validate_morphism(
            base,
            result,
            {v: ren(side, v) for v in base.vars},
            {u: ren(side, u) for u in base.units},
            {i: ren(side, i) for i in base.in_flows},
            {o: ren(side, o) for o in base.out_flows},
        )

    return CoproductResult(result, inj("L", a), inj("R", b))


def copair(f: CircuitMorphism, g: CircuitMorphism, cp: CoproductResult) -> CircuitMorphism:
    """The unique morphism out of a coproduct agreeing with ``f`` and ``g``."""
    if f.src != cp.left.src or g.src != cp.right.src:
        raise StructureError("copair components must match the coproduct summands")
    if f.dst != g.dst:
        raise StructureError("copair components must share a codomain")

    def merge(comp_f: Mapping[str, str], comp_g: Mapping[str, str], inj_l: Mapping[str, str], inj_r: Mapping[str, str]):
        out = {inj_l[x]: y for x, y in comp_f.items()}
        out.update({inj_r[x]: y for x, y in comp_g.items()})
        return out

    return validate_morphism(
        cp.circuit,
        f.dst,
        merge(f.f_v, g.f_v, cp.left.f_v, cp.right.f_v),
        merge(f.f_u, g.f_u, cp.left.f_u, cp.right.f_u),
        merge(f.f_i, g.f_i, cp.left.f_i, cp.right.f_i),
        merge(f.f_o, g.f_o, cp.left.f_o, cp.right.f_o),
    )


# ---------------------------------------------------------------------------
# isomorphism

# Colour refinement stops after this many rounds even if classes still split:
# on a deep netlist the rounds to a fixpoint grow with its depth, and the
# neighbour-first search below resolves the rest from mapped neighbours.
_REFINE_ROUNDS = 4


def _flow_multiplicities(c: Circuit):
    in_mult: dict[tuple[str, str], int] = {}
    for f in c.in_flows.values():
        in_mult[(f.src, f.dst)] = in_mult.get((f.src, f.dst), 0) + 1
    out_mult: dict[tuple[str, str], int] = {}
    for f in c.out_flows.values():
        out_mult[(f.src, f.dst)] = out_mult.get((f.src, f.dst), 0) + 1
    return in_mult, out_mult


def _var_unit_graph(c: Circuit):
    """Number variables ``0..V-1`` then units (both sorted) and index the flows.

    Returns the node names, the initial colours (a variable's type tag, one
    shared colour for units) and, per node, a map from each neighbour to the
    pair (flows from the node to it, flows from it to the node).
    """
    names = c.sorted_vars() + c.sorted_units()
    n_vars = len(c.var_types)
    vi = {v: i for i, v in enumerate(names[:n_vars])}
    ui = {u: n_vars + i for i, u in enumerate(names[n_vars:])}
    adj: list[dict[int, tuple[int, int]]] = [{} for _ in names]
    in_mult, out_mult = _flow_multiplicities(c)
    for (v, u), m in in_mult.items():
        back = out_mult.get((u, v), 0)
        adj[vi[v]][ui[u]] = (m, back)
        adj[ui[u]][vi[v]] = (back, m)
    for (u, v), m in out_mult.items():
        if (v, u) not in in_mult:
            adj[vi[v]][ui[u]] = (0, m)
            adj[ui[u]][vi[v]] = (m, 0)
    colours = [("v", c.var_types[v].value) for v in names[:n_vars]] + [("u",)] * len(c.units)
    return names, colours, adj


def _refine(ca: list, cb: list, adj_a: list, adj_b: list) -> Optional[tuple[list[int], list[int]]]:
    """Joint 1-WL colour refinement of two graphs over one shared palette.

    A node's next colour is its colour plus the sorted multiset of (flow
    multiplicities, neighbour colour) over its neighbours. Stops when no
    class splits or after ``_REFINE_ROUNDS`` rounds, so the cost is
    O(rounds * (V + E log deg)). Returns ``None`` as soon as the colour
    histograms differ, which proves the graphs non-isomorphic.
    """
    def recolour(cols: list[int], adj: list[dict], palette: dict) -> list[int]:
        return [
            palette.setdefault((cols[x], tuple(sorted((k, cols[y]) for y, k in adj[x].items()))), len(palette))
            for x in range(len(cols))
        ]

    palette: dict = {}
    ca = [palette.setdefault(x, len(palette)) for x in ca]
    cb = [palette.setdefault(x, len(palette)) for x in cb]
    classes = len(palette)
    for _ in range(_REFINE_ROUNDS):
        if sorted(ca) != sorted(cb):
            return None
        palette = {}
        ca, cb = recolour(ca, adj_a, palette), recolour(cb, adj_b, palette)
        if len(palette) == classes:
            return ca, cb  # no class split, so the histograms still agree
        classes = len(palette)
    return (ca, cb) if sorted(ca) == sorted(cb) else None


def _search_order(colours: list[int], adj: list[dict]) -> tuple[list[int], list[int]]:
    """Neighbour-first node order, rarest colour first, with each node's parent.

    A node's parent is the earlier node through which the order reached it
    (``-1`` for the first node of each connected component).
    """
    freq: dict[int, int] = {}
    for col in colours:
        freq[col] = freq.get(col, 0) + 1
    roots = sorted(range(len(colours)), key=lambda x: (freq[colours[x]], x))
    parent = [-1] * len(colours)
    seen = [False] * len(colours)
    order: list[int] = []
    frontier: list[tuple[int, int]] = []
    for root in roots:
        if seen[root]:
            continue
        seen[root] = True
        frontier.append((freq[colours[root]], root))
        while frontier:
            _, x = heapq.heappop(frontier)
            order.append(x)
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    parent[y] = x
                    heapq.heappush(frontier, (freq[colours[y]], y))
    return order, parent


def _match(ca: list[int], cb: list[int], adj_a: list[dict], adj_b: list[dict]) -> Optional[list[int]]:
    """Backtracking search for a colour-preserving graph isomorphism.

    Nodes are mapped in neighbour-first order; a node with a mapped parent
    only tries the same-colour, unused neighbours of the parent's image. A
    candidate is checked against the node's mapped neighbours only, and
    both sides must have the same number of mapped neighbours. The search
    keeps an explicit stack of candidate iterators, one per mapped node.
    Returns the node map from ``a`` to ``b``, or ``None``.
    """
    n = len(ca)
    if n == 0:
        return []
    order, parent = _search_order(ca, adj_a)
    by_colour: dict[int, list[int]] = {}
    for y, col in enumerate(cb):
        by_colour.setdefault(col, []).append(y)
    core_a = [-1] * n
    core_b = [-1] * n

    def candidates(x: int):
        p = parent[x]
        if p < 0:
            return iter([y for y in by_colour[ca[x]] if core_b[y] < 0])
        col = ca[x]
        return iter(sorted(y for y in adj_b[core_a[p]] if cb[y] == col and core_b[y] < 0))

    def feasible(x: int, y: int) -> bool:
        ny = adj_b[y]
        mapped = 0
        for z, k in adj_a[x].items():
            w = core_a[z]
            if w >= 0:
                if ny.get(w) != k:
                    return False
                mapped += 1
        for w in ny:
            if core_b[w] >= 0:
                mapped -= 1
        return mapped == 0

    stack = [candidates(order[0])]
    while stack:
        x = order[len(stack) - 1]
        for y in stack[-1]:
            if feasible(x, y):
                core_a[x], core_b[y] = y, x
                if len(stack) == n:
                    return core_a
                stack.append(candidates(order[len(stack)]))
                break
        else:
            stack.pop()
            if stack:
                x = order[len(stack) - 1]
                core_b[core_a[x]] = -1
                core_a[x] = -1
    return None


def is_isomorphic(a: Circuit, b: Circuit) -> Optional[CircuitMorphism]:
    """Search for an isomorphism; returns a witness morphism or ``None``.

    Both circuits are read as var/unit graphs whose edges carry flow
    multiplicities. Joint colour refinement (1-WL, at most four rounds of
    O(V + E log deg)) rejects most non-isomorphic pairs outright. A complete
    VF2-style backtracking search on an explicit stack then maps each node
    next to an already-mapped one, trying only same-colour neighbours of
    that neighbour's image and checking only mapped neighbours. Where each
    such step has one candidate, as on netlists, chains and composites with
    distinct wiring, the search is O(V + E). Pairs that refinement cannot
    separate but that are not isomorphic make it backtrack, and that worst
    case is exponential. Flows are paired off per endpoint at the end.
    """
    if a.sigma != b.sigma:
        return None
    if (len(a.vars), len(a.units), len(a.in_flows), len(a.out_flows)) != (
        len(b.vars),
        len(b.units),
        len(b.in_flows),
        len(b.out_flows),
    ):
        return None

    names_a, init_a, adj_a = _var_unit_graph(a)
    names_b, init_b, adj_b = _var_unit_graph(b)
    refined = _refine(init_a, init_b, adj_a, adj_b)
    if refined is None:
        return None
    core = _match(*refined, adj_a, adj_b)
    if core is None:
        return None
    n_vars = len(a.var_types)
    v_map = {names_a[x]: names_b[core[x]] for x in range(n_vars)}
    u_map = {names_a[x]: names_b[core[x]] for x in range(n_vars, len(names_a))}

    # Flows carry no data beyond their endpoints, so any endpoint-respecting
    # bijection works; pair them off in sorted order per endpoint group.
    def flow_bijection(flows_a: Mapping[str, Flow], flows_b: Mapping[str, Flow], ends) -> Optional[dict[str, str]]:
        groups_a: dict[tuple[str, str], list[str]] = {}
        for fid in sorted(flows_a):
            f = flows_a[fid]
            groups_a.setdefault(ends(f), []).append(fid)
        groups_b: dict[tuple[str, str], list[str]] = {}
        for fid in sorted(flows_b):
            f = flows_b[fid]
            groups_b.setdefault((f.src, f.dst), []).append(fid)
        out: dict[str, str] = {}
        for key, ids in groups_a.items():
            target = groups_b.get(key)
            if target is None or len(target) != len(ids):
                return None
            out.update(zip(ids, target))
        return out

    f_i = flow_bijection(a.in_flows, b.in_flows, lambda f: (v_map[f.src], u_map[f.dst]))
    f_o = flow_bijection(a.out_flows, b.out_flows, lambda f: (u_map[f.src], v_map[f.dst]))
    if f_i is None or f_o is None:
        return None
    m = validate_morphism(a, b, v_map, u_map, f_i, f_o)
    if not is_mono(m):
        raise AssertionError("isomorphism witness must be mono")
    return m


def invert_iso(m: CircuitMorphism) -> CircuitMorphism:
    """Invert an isomorphism witness."""
    flip = lambda d: {v: k for k, v in d.items()}
    return validate_morphism(m.dst, m.src, flip(m.f_v), flip(m.f_u), flip(m.f_i), flip(m.f_o))
