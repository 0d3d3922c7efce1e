"""Core circuit model: typed variables, computation units, and flows.

A circuit is a bipartite flow structure.  Variables hold values (a bare
control signal, or a Boolean); computation units consume a set of variables
through input flows and produce into a set of variables through output
flows.  Control variables gate when a unit may fire, which is what makes
evaluation order explicit rather than implied by wiring alone.

Structural rules enforced by :func:`validate_circuit`:

* at least one variable exists, and every declared type is used;
* every unit has input and output flows (no dangling units);
* every unit is fed from at least one control variable and feeds at least
  one control variable;
* at least one control variable has no incoming flows (a control invar) and
  at least one has no outgoing flows (a control outvar).
"""

from __future__ import annotations

import enum
from collections import Counter
from collections.abc import Collection, Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .errors import StructureError, ValidationError


class TypeTag(enum.Enum):
    """Variable type: a control signal carrier or a Boolean carrier."""

    CTRL = "ctrl"
    BOOL = "bool"

    def __repr__(self) -> str:  # keep reprs short in test output
        return self.value


CTRL = TypeTag.CTRL
BOOL = TypeTag.BOOL


@dataclass(frozen=True)
class Flow:
    """A directed flow edge; src/dst are a variable and a unit (or vice versa)."""

    src: str
    dst: str


class _ExecTables(NamedTuple):
    """What execution reads of a circuit: one row per unit and the consumers of each variable.

    ``units`` maps each unit to its row ``(pre, bool_in, post, group,
    draw)``: its input variables, sorted; the Boolean ones among them; its
    output variables, sorted, each with whether it is a control variable;
    the sorted units that share its input variable set (the units it
    competes with, itself included); and the size of the draw that group
    makes when enabled, kept at the group's least member when it has two or
    more members and 0 otherwise. ``consumers`` holds the units a variable
    feeds. Repeated flows between one variable and one unit count once
    everywhere.
    """

    units: dict[str, tuple[tuple[str, ...], tuple[str, ...], tuple[tuple[str, bool], ...], tuple[str, ...], int]]
    consumers: dict[str, tuple[str, ...]]


class _cached_view:
    """A derived view computed on first read and stored in the instance ``__dict__``.

    Like ``functools.cached_property`` without its lock, which Python 3.10
    and 3.11 take on every first read: a non-data descriptor is shadowed by
    the stored value, so later reads never reach it. Two threads may both
    compute a view on its first read; both get an equal value.
    """

    def __init__(self, func):
        self.func, self.__doc__ = func, func.__doc__  # named as on ``cached_property``

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True, eq=True)
class Circuit:
    """A validated circuit. Treat all fields as immutable.

    ``var_types`` maps every variable id to its type tag (its key set is the
    variable set). ``in_flows`` map flow ids to variable->unit edges,
    ``out_flows`` to unit->variable edges. ``sigma`` is the set of types the
    circuit operates on.

    Circuits compare equal field by field but are not hashable: the fields
    are dicts, so ``__hash__`` is set to ``None`` and ``hash(circuit)``
    raises ``TypeError`` naming ``Circuit``.
    """

    __hash__ = None

    var_types: Mapping[str, TypeTag]
    units: frozenset[str]
    in_flows: Mapping[str, Flow]
    out_flows: Mapping[str, Flow]
    sigma: frozenset[TypeTag]

    # -- derived views (cached; cheap to recompute but used everywhere) -----

    @_cached_view
    def vars(self) -> frozenset[str]:
        return frozenset(self.var_types)

    @_cached_view
    def flow_sources(self) -> frozenset[str]:
        """Variables with at least one outgoing flow (s(I))."""
        return frozenset(f.src for f in self.in_flows.values())

    @_cached_view
    def flow_targets(self) -> frozenset[str]:
        """Variables with at least one incoming flow (t(O))."""
        return frozenset(f.dst for f in self.out_flows.values())

    @_cached_view
    def invars(self) -> frozenset[str]:
        """Variables with no incoming flows."""
        return self.vars - self.flow_targets

    @_cached_view
    def outvars(self) -> frozenset[str]:
        """Variables with no outgoing flows."""
        return self.vars - self.flow_sources

    @_cached_view
    def inoutvars(self) -> frozenset[str]:
        return self.invars & self.outvars

    @_cached_view
    def _greatest_ids(self) -> tuple[Optional[str], Optional[str], Optional[str], Optional[str]]:
        """The greatest variable, unit, in-flow and out-flow id; ``None`` for a kind without ids.

        The gluing kernel names the right operand's new elements after the
        left operand's, and fills this in on its result along with ``invars``
        and ``outvars``.
        """
        return tuple(max(ids, default=None) for ids in (self.var_types, self.units, self.in_flows, self.out_flows))

    @_cached_view
    def _exec_tables(self) -> _ExecTables:
        vt = self.var_types
        # one ``(variable, is control)`` entry per variable, shared by every post tuple that holds it
        entry = {v: (v, t is CTRL) for v, t in vt.items()}
        pre: dict[str, list[str]] = {u: [] for u in self.units}
        post: dict[str, list[str]] = {u: [] for u in self.units}
        cons: dict[str, list[str]] = {v: [] for v in vt}
        for f in self.in_flows.values():
            pre[f.dst].append(f.src)
            cons[f.src].append(f.dst)
        for f in self.out_flows.values():
            post[f.src].append(f.dst)
        # every part of a row is built before any row: the garbage collector checks a row before the
        # parts only rows hold, so a row built with its parts would stay tracked one collection longer
        post_of = {u: tuple(map(entry.__getitem__, sorted(set(vs)))) for u, vs in post.items()}
        groups: dict[tuple[str, ...], list[str]] = {}
        for u in sorted(self.units):
            groups.setdefault(tuple(sorted(set(pre[u]))), []).append(u)
        parts = [(vs, tuple(v for v in vs if vt[v] is BOOL), tuple(g)) for vs, g in groups.items()]
        units = {}
        for vs, bool_in, g in parts:
            draw = len(g) if len(g) > 1 else 0
            for u in g:
                units[u] = (vs, bool_in, post_of[u], g, draw)
                draw = 0
        return _ExecTables(units, {v: tuple(dict.fromkeys(us)) for v, us in cons.items()})

    def pre_set(self, unit: str) -> frozenset[str]:
        """Variables connected into ``unit``: a copy of the inputs in its execution-table row, O(|pre-set|).

        The execution tables are the circuit's one cached adjacency; the first
        query that reads them builds them, O(V + E). Two units compete for
        firing exactly when their pre-sets are equal, so a circuit's runs can
        draw iff two of its units share a pre-set.
        """
        return frozenset(self._exec_tables.units[unit][0])

    def post_set(self, unit: str) -> frozenset[str]:
        """Variables connected from ``unit``: a copy of the outputs in its execution-table row, O(|post-set|)."""
        return frozenset(v for v, _ in self._exec_tables.units[unit][2])

    def consumers(self, var: str) -> frozenset[str]:
        """Units fed by ``var``: a copy of its execution-table row, O(|consumers|)."""
        return frozenset(self._exec_tables.consumers[var])

    def producers(self, var: str) -> frozenset[str]:
        """Units feeding ``var``: one pass over the out-flows, O(E), and nothing is cached."""
        if var not in self.var_types:
            raise KeyError(var)
        return frozenset(f.src for f in self.out_flows.values() if f.dst == var)

    def sorted_vars(self) -> list[str]:
        return sorted(self.var_types)

    def sorted_units(self) -> list[str]:
        return sorted(self.units)


@dataclass(frozen=True)
class Interface:
    """The boundary of a circuit: its invars and outvars."""

    invars: frozenset[str]
    outvars: frozenset[str]

    @property
    def inoutvars(self) -> frozenset[str]:
        return self.invars & self.outvars


class CircuitClass(enum.Enum):
    TRIVIAL = "trivial"
    PRIMITIVE = "primitive"
    UNIT_CIRCUIT = "unit-circuit"
    GENERAL = "general"


# ---------------------------------------------------------------------------
# validation


# The tags as documents spell them; a dict lookup skips ``TypeTag``'s Python-level constructor.
_TAG_OF_TEXT = {"ctrl": CTRL, "bool": BOOL}


def _as_tag(value) -> TypeTag:
    if isinstance(value, TypeTag):
        return value
    if type(value) is str and value in _TAG_OF_TEXT:
        return _TAG_OF_TEXT[value]
    try:
        return TypeTag(value)
    except ValueError:
        raise StructureError(f"unknown type tag {value!r}") from None


def _assemble(
    var_types: Mapping[str, TypeTag | str],
    units: Iterable[str],
    in_flows: Mapping[str, Flow | tuple[str, str]],
    out_flows: Mapping[str, Flow | tuple[str, str]],
    sigma: Optional[Iterable[TypeTag | str]],
) -> Circuit:
    """Build a Circuit, raising StructureError on malformed parts, non-string or repeated ids and dangling references.

    Ids are type-checked before anything hashes them, so an unhashable id
    raises StructureError too; a string is never read as a collection of ids.
    """
    maps = (("variables", var_types, "type tags"), ("in-flows", in_flows, "flows"), ("out-flows", out_flows, "flows"))
    for what, x, to in maps:
        if not isinstance(x, Mapping):
            raise StructureError(f"{what} must map ids to {to}, got {type(x).__name__}")
    for what, x in (("units", units), ("sigma", () if sigma is None else sigma)):
        if isinstance(x, str) or not isinstance(x, Iterable):
            raise StructureError(f"{what} must be a collection, got {type(x).__name__}")
    units = list(units)
    for what, ids in (("variable", var_types), ("unit", units), ("in-flow", in_flows), ("out-flow", out_flows)):
        for x in ids:
            if not isinstance(x, str):
                raise StructureError(f"{what} id {x!r} must be a string")
    vt = {v: _as_tag(t) for v, t in var_types.items()}
    us = frozenset(units)
    if len(us) != len(units):
        raise StructureError(f"repeated unit ids: {sorted(u for u, n in Counter(units).items() if n > 1)}")
    ins, outs = {}, {}
    for kind, flows, out, (srcs, src_what), (dsts, dst_what) in (
        ("in", in_flows, ins, (vt, "source variable"), (us, "target unit")),
        ("out", out_flows, outs, (us, "source unit"), (vt, "target variable")),
    ):
        for fid, f in flows.items():
            if not isinstance(f, Flow):
                if not isinstance(f, (tuple, list)) or len(f) != 2:
                    raise StructureError(f"{kind}-flow {fid!r} must be a Flow or a pair, got {type(f).__name__}")
                f = Flow(*f)
            # every declared id is a string, so an endpoint that is not one is undeclared (and is never hashed)
            if not isinstance(f.src, str) or f.src not in srcs:
                raise StructureError(f"{kind}-flow {fid!r} has undeclared {src_what} {f.src!r}")
            if not isinstance(f.dst, str) or f.dst not in dsts:
                raise StructureError(f"{kind}-flow {fid!r} has undeclared {dst_what} {f.dst!r}")
            out[fid] = f
    sig = frozenset(vt.values()) if sigma is None else frozenset(map(_as_tag, sigma))
    return Circuit(vt, us, ins, outs, sig)


def circuit_violations(c: Circuit) -> list[str]:
    """Names of every violated model constraint (empty list means valid)."""
    bad: list[str] = []
    if not c.var_types:
        bad.append("no-vars")
    if not c.sigma:
        bad.append("sigma-empty")
    # membership tests compare by identity in C; a set of the values hashes each through ``Enum.__hash__``
    tags = c.var_types.values()
    used = {t for t in (CTRL, BOOL) if t in tags}
    if used - c.sigma:
        bad.append("var-type-outside-sigma")
    if c.sigma - used:
        bad.append("c-not-surjective")

    fed = {f.dst for f in c.in_flows.values()}
    feeding = {f.src for f in c.out_flows.values()}
    if c.units - fed:
        bad.append("tau-not-surjective")
    if c.units - feeding:
        bad.append("sigma-not-surjective")
    ctrl_fed = {f.dst for f in c.in_flows.values() if c.var_types[f.src] is CTRL}
    ctrl_feeding = {f.src for f in c.out_flows.values() if c.var_types[f.dst] is CTRL}
    if c.units - ctrl_fed:
        bad.append("tau-ctrl-restriction-not-surjective")
    if c.units - ctrl_feeding:
        bad.append("sigma-ctrl-restriction-not-surjective")

    if not any(c.var_types[v] is CTRL for v in c.invars):
        bad.append("no-control-invar")
    if not any(c.var_types[v] is CTRL for v in c.outvars):
        bad.append("no-control-outvar")
    return bad


def validate_circuit(
    var_types: Mapping[str, TypeTag | str],
    units: Iterable[str] = (),
    in_flows: Mapping[str, Flow | tuple[str, str]] | None = None,
    out_flows: Mapping[str, Flow | tuple[str, str]] | None = None,
    sigma: Optional[Iterable[TypeTag | str]] = None,
) -> Circuit:
    """Validate raw circuit data and return a sealed :class:`Circuit`.

    Raises :class:`StructureError` for dangling references and
    :class:`ValidationError` (listing every violated clause) otherwise.
    """
    return revalidate(_assemble(var_types, units, in_flows or {}, out_flows or {}, sigma))


def revalidate(c: Circuit) -> Circuit:
    """Assert that an already-assembled circuit satisfies all constraints."""
    violations = circuit_violations(c)
    if violations:
        raise ValidationError(violations)
    return c


# ---------------------------------------------------------------------------
# interface / soundness / classification


def interface(c: Circuit) -> Interface:
    return Interface(invars=c.invars, outvars=c.outvars)


def is_sound(c: Circuit) -> bool:
    """True iff every invar and every flow source reaches some outvar.

    Reachability alternates variable -> unit -> variable and must traverse at
    least one unit, so an inoutvar (no flows at all) never satisfies it.
    Circuits may be cyclic. One reverse pass from the outvars marks the good
    units (those producing an outvar or a variable that feeds a good unit);
    a variable is sound iff it feeds a good unit. That is O(V + E): one pass
    over each flow map builds the pre-lists and producer lists it walks, and
    nothing is kept on the circuit.
    """
    pre: dict[str, list[str]] = {}
    for f in c.in_flows.values():
        pre.setdefault(f.dst, []).append(f.src)
    producers: dict[str, list[str]] = {}
    for f in c.out_flows.values():
        producers.setdefault(f.dst, []).append(f.src)
    frontier = [u for v in c.outvars for u in producers.get(v, ())]
    good: set[str] = set()
    sound: set[str] = set()
    while frontier:
        u = frontier.pop()
        if u in good:
            continue
        good.add(u)
        for v in pre.get(u, ()):
            if v not in sound:
                sound.add(v)
                frontier.extend(producers.get(v, ()))
    return c.flow_sources <= sound and c.invars <= sound


def classify(c: Circuit) -> CircuitClass:
    if not c.units and not c.in_flows and not c.out_flows:
        if len(c.var_types) == 1 and next(iter(c.var_types.values())) is CTRL:
            return CircuitClass.UNIT_CIRCUIT
        return CircuitClass.TRIVIAL
    if len(c.units) == 1 and c.vars == (c.flow_sources ^ c.flow_targets):
        return CircuitClass.PRIMITIVE
    return CircuitClass.GENERAL


# ---------------------------------------------------------------------------
# constructors


def trivial_violations(tags: Collection[TypeTag]) -> list[str]:
    """What :func:`circuit_violations` lists for bare variables of these tags: only a missing control tag."""
    no_vars = ["no-vars", "sigma-empty"] if not tags else []
    return [] if CTRL in tags else no_vars + ["no-control-invar", "no-control-outvar"]


def _flowless(var_types: dict[str, TypeTag]) -> Circuit:
    """The circuit of bare variables ``var_types``, refused as :func:`trivial_violations` says."""
    bad = trivial_violations(var_types.values())
    if bad:
        raise ValidationError(bad)
    return Circuit(var_types, frozenset(), {}, {}, frozenset(var_types.values()))


def mk_trivial(tags: Sequence[TypeTag | str], prefix: str = "v") -> Circuit:
    """A circuit of bare variables named ``v1..vn`` in the given order: no units, no flows."""
    return _flowless({f"{prefix}{i + 1}": _as_tag(t) for i, t in enumerate(tags)})


def unit_circuit() -> Circuit:
    """The one-control-variable circuit; identity for sequencing."""
    return mk_trivial([CTRL])


def mk_primitive(n_ctrl_in: int, n_bool_in: int, n_ctrl_out: int, n_bool_out: int) -> Circuit:
    """A single-unit circuit with disjoint invars and outvars.

    Control in/out counts must be at least 1 (units always synchronise on
    control; validation reports a zero count). Variables are numbered invars
    first (control before Boolean), then outvars, as ``v1..vn``; the unit is
    ``u1``; flows ``i1..``/``o1..`` in variable order.
    """
    if min(n_ctrl_in, n_bool_in, n_ctrl_out, n_bool_out) < 0:
        raise StructureError("negative variable count")
    order = [CTRL] * n_ctrl_in + [BOOL] * n_bool_in + [CTRL] * n_ctrl_out + [BOOL] * n_bool_out
    n_in = n_ctrl_in + n_bool_in
    vt = {f"v{i + 1}": t for i, t in enumerate(order)}
    ins = {f"i{k + 1}": Flow(f"v{k + 1}", "u1") for k in range(n_in)}
    outs = {f"o{k + 1}": Flow("u1", f"v{n_in + k + 1}") for k in range(len(order) - n_in)}
    c = Circuit(vt, frozenset(("u1",)), ins, outs, frozenset(order))
    return c if n_ctrl_in and n_ctrl_out else revalidate(c)  # only a zero control count can break a rule


# ---------------------------------------------------------------------------
# relabelling


def relabel(c: Circuit, var_names: Mapping[str, str] | None = None):
    """Rename a circuit's elements to a readable, canonical scheme.

    Variables listed in ``var_names`` take the given names; remaining
    variables become ``w1..wn`` in sorted order. Units become ``u1..``,
    flows ``i1..``/``o1..`` (sorted by renamed endpoints). Returns the new
    circuit together with the renaming morphism (old -> new). A
    ``var_names`` that is not a mapping, or a key or new name that is not a
    string, raises :class:`StructureError`. Nothing is re-checked: a
    type-keeping bijection that carries each flow onto its renamed flow
    gives a valid circuit and an isomorphism by construction.
    """
    from .morphisms import CircuitMorphism  # local import to avoid a cycle

    if var_names is not None and not isinstance(var_names, Mapping):
        raise StructureError(f"relabel names must map variable ids to names, got {type(var_names).__name__}")
    v_map = dict(var_names or {})
    for name in (*v_map, *v_map.values()):
        if not isinstance(name, str):
            raise StructureError(f"relabel names must be strings, got {name!r}")
    unknown = set(v_map) - c.vars
    if unknown:
        raise StructureError(f"relabel names unknown variables: {sorted(unknown)}")
    taken = set(v_map.values())
    if len(taken) != len(v_map):
        raise StructureError("relabel target names must be distinct")
    counter = 0
    for v in c.sorted_vars():
        if v in v_map:
            continue
        counter += 1
        while f"w{counter}" in taken:
            counter += 1
        v_map[v] = f"w{counter}"
    u_map = {u: f"u{i + 1}" for i, u in enumerate(c.sorted_units())}
    in_order = sorted(c.in_flows, key=lambda fid: (v_map[c.in_flows[fid].src], u_map[c.in_flows[fid].dst], fid))
    i_map = {fid: f"i{k + 1}" for k, fid in enumerate(in_order)}
    out_order = sorted(c.out_flows, key=lambda fid: (u_map[c.out_flows[fid].src], v_map[c.out_flows[fid].dst], fid))
    o_map = {fid: f"o{k + 1}" for k, fid in enumerate(out_order)}

    new = Circuit(
        var_types={v_map[v]: t for v, t in c.var_types.items()},
        units=frozenset(u_map.values()),
        in_flows={i_map[f]: Flow(v_map[fl.src], u_map[fl.dst]) for f, fl in c.in_flows.items()},
        out_flows={o_map[f]: Flow(u_map[fl.src], v_map[fl.dst]) for f, fl in c.out_flows.items()},
        sigma=c.sigma,
    )
    return new, CircuitMorphism(c, new, v_map, u_map, i_map, o_map)
