"""Gluing constructions on circuits: pushout, coproduct, isomorphism.

One kernel does both gluings. It quotients the disjoint union of the two
operands by seed pairs: a pushout seeds the two images of each apex
element, and a coproduct seeds nothing. A colimit is fixed only up to
isomorphism, so the kernel picks the representative in which the left
operand keeps its ids and its leg is the identity. A seeded class takes its
least left id; every other right element ``x`` becomes ``<M>/<tag>/<x>``,
``M`` being the greatest left id of its kind (``<tag>/<x>`` when there is
none). New names thus sort after every left id and keep the right
operand's order, so the composite's ids sort as under a ``<tag>/<L|R>/<id>``
renaming of both operands, and results are reproducible and diffable.

A gluing is checked only where it can break something. Of valid operands,
every result unit has a preimage unit whose control and Boolean flows are
carried over with their types, and sigma is the union of the operands'
sigmas, so the only model rules a gluing can break are "some control
invar" and "some control outvar". A result variable is an invar (outvar)
iff none of its preimages receives (emits) a flow in its operand, so the
kernel derives the result's interface from the operands': the images of
their invars (outvars), minus the images of seeded variables off that side
of their operand's interface. It tests the two rules on those sets and
stores them on the result, with its greatest id of each kind, so the next
gluing reads them instead of walking the composite. ``circuit_violations``
is for untrusted input. Away from the seeds the renaming is injective and
carries every flow with its endpoints, so the legs are morphisms by
construction except for the boundary condition at seeded variables off an
operand's interface, and two flow images can only meet at a seeded flow.
``pushout`` scans an operand for variables that gain flows only when the
other leg sends an apex variable off its operand's interface. The left leg
copies nothing: each of its maps is a read-only view over the left
operand's own ids. The composite still costs a C-level copy of the left
operand's three dicts, its unit set and its interface (it shares their
``Flow`` objects), plus O(|right|) Python work and near-linear work in the
seeds. Only a leg that is not mono, gluing two left elements together,
makes the kernel re-image the left operand.

Isomorphism is decided on the var/unit graph whose edges carry flow
multiplicities: joint colour refinement (Weisfeiler-Leman, a few rounds)
rejects most non-isomorphic pairs in near-linear time, and a VF2-style
backtracking search (Cordella et al., 2004) extends the mapping from
already-mapped neighbours on an explicit stack. Its witness is an
isomorphism by construction and is not validated again.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import AbstractSet, Optional

from .errors import CompositionError, StructureError, ValidationError
from .model import CTRL, Circuit, Flow, TypeTag
from .morphisms import CircuitMorphism, _boundary_gains, boundary_sets, validate_morphism


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


def _seed_classes(pairs: Iterable[tuple[str, str]]) -> tuple[dict[str, str], dict[str, str]]:
    """Union-find over the seeded elements only; each class takes its least left id.

    Every seed pair joins a left id and a right id, so every class holds a
    left id. Returns the left ids that another left id of their class
    names (empty unless a leg is not mono) and every seeded right id, each
    mapped to its class's least left id.
    """
    parent: dict[tuple[int, str], tuple[int, str]] = {}

    def find(x: tuple[int, str]) -> tuple[int, str]:
        root = parent.setdefault(x, x)
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for lx, rx in pairs:
        # (0, left id) sorts before every (1, right id), so a class's least node is its least left id
        a, b = find((0, lx)), find((1, rx))
        if a != b:
            parent[max(a, b)] = min(a, b)
    merged: dict[str, str] = {}
    seeded_right: dict[str, str] = {}
    for node in parent:
        side, x = node
        root = find(node)[1]
        if side:
            seeded_right[x] = root
        elif root != x:
            merged[x] = root
    return merged, seeded_right


class _IdentityLeg(Mapping):
    """One map of a gluing's left leg: a read-only view over the left operand's ids.

    Each id maps to itself, or to the least left id of its seeded class when
    a leg that is not mono merged it into another (``merged``, usually
    empty). Keys, iteration order, length and membership are those of
    ``ids``, a key view of one of the left operand's own containers (its
    unit set is its own), so the view holds no per-element storage and
    ``keys()`` compares with a set at C level.
    """

    __slots__ = ("_keys", "_merged")

    def __init__(self, ids: AbstractSet[str], merged: Mapping[str, str]):
        self._keys, self._merged = ids, merged

    def __getitem__(self, x: str) -> str:
        if x in self._keys:
            return self._merged.get(x, x)
        raise KeyError(x)

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, x) -> bool:
        return x in self._keys

    def keys(self):
        return self._keys


def _glue_flows(kind: str, out: dict[str, Flow], flows: Mapping[str, Flow], f_flow, f_src, f_dst) -> None:
    """Add the images of ``flows`` to ``out``; identified flows must agree on endpoints.

    Two images are compared only when they land on one name, which happens
    only at seeded flows; a new name holds its own image, which the
    identity test passes without running ``Flow.__eq__``.
    """
    for x, fl in flows.items():
        name, image = f_flow[x], Flow(f_src[fl.src], f_dst[fl.dst])
        held = out.setdefault(name, image)
        if held is not image and held != image:
            raise AssertionError(f"gluing produced an ill-defined {kind}-flow map at {name!r}")


def _glued_side(l_side, r_side, lv, rv, l_seeded, r_seeded, merges: bool) -> frozenset[str]:
    """The result variables all of whose preimages lie in ``l_side`` or ``r_side``.

    With ``l_side``/``r_side`` an operand's invars (outvars), these are the
    result's invars (outvars): the images of both sides, minus the images of
    seeded variables off their side. While no left elements merge, the left
    side is its own image and is copied at C level, once when nothing is
    cut, as in a coproduct.
    """
    cut = {lv[v] for v in l_seeded if v not in l_side}
    cut.update(rv[v] for v in r_seeded if v not in r_side)
    images = frozenset(map(lv.__getitem__, l_side)) if merges else l_side
    side = images.union(map(rv.__getitem__, r_side))
    return side.difference(cut) if cut else side


def _glue(
    left: Circuit, right: Circuit, seeds: Sequence[Sequence[tuple[str, str]]], tag: str
) -> tuple[Circuit, CircuitMorphism, CircuitMorphism]:
    """The one gluing kernel: quotient ``left + right`` by the seed pairs.

    ``seeds`` holds four sequences of (left id, right id) pairs, for
    variables, units, input flows and output flows. Returns the glued
    circuit and both legs.

    Naming, per id kind: the left operand keeps its ids, so its leg is the
    identity; a seeded class takes its least left id. An unseeded right
    element ``x`` becomes ``<M>/<tag>/<x>``, where ``M`` is the greatest
    left id of that kind (``<tag>/<x>`` when the left has none). Those
    names sort after every left id and keep the right operand's order, so
    the composite's ids sort as under a ``<tag>/<L|R>/<id>`` renaming of
    both operands, and the result's greatest id is the image of the right's
    greatest unseeded id (the left's when the right adds none).

    Cost: the left leg's four maps are views over the left operand's id
    containers (see :class:`_IdentityLeg`), O(1) each. While no two left
    elements are glued together, the left operand's four parts and its
    interface are copied at C level into the composite, which shares their
    ``Flow`` objects; Python work is O(|right| + seeds). When a leg that is
    not mono glues two left elements, the merged element keeps the lesser
    id and every left element is re-imaged through the view, O(|left|)
    more, and the result's greatest ids are left to be computed when read.

    Checks, for valid operands: every result unit, flow and type comes from
    an operand, so only the control invar and control outvar rules can
    fail; they are tested on the interface derived from the operands'
    (see :func:`_glued_side`), which the result keeps. The legs' maps are
    total and land in the result by construction, the type check below
    keeps types, and the flow images keep the four squares (two images that
    meet are compared). An unseeded variable's image receives flows only
    from its own operand, so the boundary condition is tested only at
    seeded variables off an operand's interface.
    """
    left_maps: list[_IdentityLeg] = []
    right_maps: list[dict[str, str]] = []
    greatest: list[Optional[str]] = []
    merges = False
    for pairs, l_ids, r_ids, l_max, r_max in zip(
        seeds,
        (left.var_types.keys(), left.units, left.in_flows.keys(), left.out_flows.keys()),
        (right.var_types, right.units, right.in_flows, right.out_flows),
        left._greatest_ids,
        right._greatest_ids,
    ):
        merged, seeded_right = _seed_classes(pairs)
        merges = merges or bool(merged)
        prefix = f"{l_max}/{tag}/" if l_max is not None else f"{tag}/"
        r_map = {x: prefix + x for x in r_ids}
        r_map.update(seeded_right)
        left_maps.append(_IdentityLeg(l_ids, merged))
        right_maps.append(r_map)
        if r_max in seeded_right:
            r_max = max((x for x in r_ids if x not in seeded_right), default=None)
        greatest.append(l_max if r_max is None else r_map[r_max])  # the image itself, not an equal copy
    lv, lu, li, lo = left_maps
    rv, ru, ri, ro = right_maps

    if merges:
        var_types: dict[str, TypeTag] = {}
        in_flows: dict[str, Flow] = {}
        out_flows: dict[str, Flow] = {}
        images = ((left, lv, lu, li, lo), (right, rv, ru, ri, ro))
        units = frozenset(lu.values()).union(ru.values())
    else:
        var_types, in_flows, out_flows = dict(left.var_types), dict(left.in_flows), dict(left.out_flows)
        images = ((right, rv, ru, ri, ro),)
        units = left.units.union(ru.values())
    for base, f_v, f_u, f_i, f_o in images:
        for v, t in base.var_types.items():
            if var_types.setdefault(f_v[v], t) is not t:
                raise AssertionError(f"gluing identified variables of different types at {f_v[v]!r}")
        _glue_flows("input", in_flows, base.in_flows, f_i, f_v, f_u)
        _glue_flows("output", out_flows, base.out_flows, f_o, f_u, f_v)
    result = Circuit(var_types, units, in_flows, out_flows, left.sigma | right.sigma)
    l_seeded, r_seeded = {x for x, _ in seeds[0]}, {x for _, x in seeds[0]}
    invars = _glued_side(left.invars, right.invars, lv, rv, l_seeded, r_seeded, merges)
    outvars = _glued_side(left.outvars, right.outvars, lv, rv, l_seeded, r_seeded, merges)
    bad = [
        rule
        for rule, side in (("no-control-invar", invars), ("no-control-outvar", outvars))
        if CTRL not in map(var_types.__getitem__, side)
    ]
    if bad:  # a coproduct of valid circuits never gets here; a pushout can
        raise CompositionError("pushout-does-not-exist", f"the glued structure is not a valid circuit: {bad}")
    result.__dict__.update(invars=invars, outvars=outvars)  # the cached views' slots
    if not merges:
        result.__dict__["_greatest_ids"] = tuple(greatest)
    for base, f_v, f_u, vs in ((left, lv, lu, l_seeded), (right, rv, ru, r_seeded)):
        off = [v for v in vs if v not in base.invars and v not in base.outvars]
        if off and any(_boundary_gains(base, result, f_v, f_u, off)):
            raise ValidationError(["boundary-condition-violated"], subject="morphism")
    return result, CircuitMorphism(left, result, lv, lu, li, lo), CircuitMorphism(right, result, rv, ru, ri, ro)


def pushout(span: Span, tag: str = "po") -> Cospan:
    """Glue the two base circuits of a span along its apex.

    Exists only when each leg maps the other leg's boundary-gaining
    variables into interface variables and the glued structure satisfies
    every model rule (say, it keeps a control invar); otherwise raises
    ``CompositionError("pushout-does-not-exist")``. When a leg maps the
    whole apex into its operand's interface, nothing can land outside it,
    so the other operand is not scanned for gaining variables.
    """
    alpha, beta = span.left, span.right
    for side, leg, other in (("left", alpha, beta), ("right", beta, alpha)):
        inv, outv = leg.dst.invars, leg.dst.outvars
        if all(w in inv or w in outv for w in map(leg.f_v.__getitem__, span.apex.var_types)):
            continue
        gain_in, gain_out = boundary_sets(span.apex, other.dst, other.f_v, other.f_u)
        outside = {w for w in map(leg.f_v.__getitem__, gain_in | gain_out) if w not in inv and w not in outv}
        if outside:
            raise CompositionError(
                "pushout-does-not-exist",
                f"{side} operand would gain flows at non-interface variables {sorted(outside)}",
            )

    comps = ((alpha.f_v, beta.f_v), (alpha.f_u, beta.f_u), (alpha.f_i, beta.f_i), (alpha.f_o, beta.f_o))
    # Both images of each apex element are seeded together, so they get one
    # root: the square commutes by construction.
    return Cospan(*_glue(alpha.dst, beta.dst, [[(fa[x], fb[x]) for x in fa] for fa, fb in comps], tag))


def glue_pairs(left: Circuit, right: Circuit, pairs: Sequence[tuple[str, str]], tag: str) -> Cospan:
    """:func:`pushout` along a trivial apex given as same-type (left, right) pairs of interface variables."""
    return Cospan(*_glue(left, right, (pairs, (), (), ()), tag))


# ---------------------------------------------------------------------------
# coproduct


@dataclass(frozen=True)
class CoproductResult:
    circuit: Circuit
    left: CircuitMorphism
    right: CircuitMorphism


def coproduct(a: Circuit, b: Circuit, tag: str = "cp") -> CoproductResult:
    """Componentwise disjoint union: the gluing that identifies nothing."""
    return CoproductResult(*_glue(a, b, ((), (), (), ()), tag))


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


def _flow_groups(flows: Mapping[str, Flow]) -> dict[tuple[str, str], list[str]]:
    """Flow ids grouped by their (src, dst) endpoints."""
    groups: dict[tuple[str, str], list[str]] = {}
    for fid, f in flows.items():
        groups.setdefault((f.src, f.dst), []).append(fid)
    return groups


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
    in_groups, out_groups = _flow_groups(c.in_flows), _flow_groups(c.out_flows)
    for (v, u), ids in in_groups.items():
        adj[vi[v]][ui[u]] = (len(ids), 0)
        adj[ui[u]][vi[v]] = (0, len(ids))
    for (u, v), ids in out_groups.items():
        m = adj[vi[v]].get(ui[u], (0, 0))[0]
        adj[vi[v]][ui[u]] = (m, len(ids))
        adj[ui[u]][vi[v]] = (len(ids), m)
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
    case is exponential. Flows are paired off per endpoint at the end. The
    search proved a bijection keeping types and flow multiplicities, so the
    witness is an isomorphism by construction and is not validated again.
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
    # bijection works. The search kept every multiplicity, so each endpoint
    # group of ``a`` has a group of ``b`` of its size; pair them off sorted.
    def flow_bijection(flows_a: Mapping[str, Flow], flows_b: Mapping[str, Flow], src_map, dst_map) -> dict[str, str]:
        groups_b = _flow_groups(flows_b)
        return {
            x: y
            for (src, dst), ids in _flow_groups(flows_a).items()
            for x, y in zip(sorted(ids), sorted(groups_b[(src_map[src], dst_map[dst])]))
        }

    f_i = flow_bijection(a.in_flows, b.in_flows, v_map, u_map)
    f_o = flow_bijection(a.out_flows, b.out_flows, u_map, v_map)
    return CircuitMorphism(a, b, v_map, u_map, f_i, f_o)


def invert_iso(m: CircuitMorphism) -> CircuitMorphism:
    """Invert an isomorphism witness."""
    flip = lambda d: {v: k for k, v in d.items()}
    return validate_morphism(m.dst, m.src, flip(m.f_v), flip(m.f_u), flip(m.f_i), flip(m.f_o))
