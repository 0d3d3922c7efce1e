"""Execution semantics: states, ready units, reduction, and traces.

A state assigns values to some variables at a discrete time step. A unit is
enabled once every variable feeding it holds a value; enabled units whose
input variable sets coincide compete, and exactly one of each competing
group fires per step (chosen by a seeded generator, so runs replay
byte-for-byte). Firing consumes the inputs and writes a bare signal into
every control output and the unit's Boolean result into every Boolean
output: the constant 1 when the unit has no Boolean inputs, otherwise the
negated conjunction of all of them.

Which units are enabled and ready depends only on which variables hold
values, never on the Booleans, so the units a run fires, step by step,
depend only on its draws. A step thus splits into its shape (its ready
units, the variables that leave and enter the domain, and whether two
ready units write one variable), which ``_shape`` derives from the
domain alone, and its values (each ready unit's Boolean and the entries
it writes), which :func:`run` applies in one place for every step.
:func:`run` keeps the shapes of the steps each circuit's runs have taken
in a tree keyed by the draws, planted on the circuit by its first run,
and replays a known step, computing only its values. A step it derives
is attached before its values are computed, as its node does not depend
on them, so a step whose writes conflict is kept too. Every situation, the
tree's root included, is derived from each unit's count of missing
inputs. A circuit without competing units (a seed-free circuit,
such as every imported netlist) draws nothing, so it fires the same units
in the same order from every input and its tree is one chain. A run ends
in one of the :class:`Outcome` members. So a run's outcome and fired units
also follow from its draws alone, except at a step where two ready units
write one variable: :func:`tally_runs` counts them over many seeds by
walking the tree, making only the draws. The generator is counter-based,
so the seeds at a node draw at once, and they walk in groups that split
only where their draws differ: each node is visited once per group and
block of seeds, and a warm tally costs O(nodes visited + runs x draws),
in memory O(block + tree) for any number of runs. A seed is run in full
only where its group's path leaves the tree (the first seed of the
group, whose run attaches the step; all of them if the tree is full) or
meets such a step, never at a step limit.

A run's :class:`Trace` holds ``init`` on its first step, the final state on
its last, and only its change on every other step. A step's state is
replayed when read, and the replay leaves checkpoint copies behind, so
reading every state, in any order, costs O(|init| + changes + states read)
in total, amortised over the reads.
"""

from __future__ import annotations

import enum
import threading
from collections import Counter
from dataclasses import dataclass
from itertools import compress, count
from operator import is_not, itemgetter, not_
from typing import Collection, Iterable, Iterator, Mapping, Optional, Sequence

from .errors import StructureError
from .model import BOOL, CTRL, Circuit


class Value(enum.Enum):
    SIGNAL = "*"
    ZERO = 0
    ONE = 1

    @property
    def is_bool(self) -> bool:
        return self is not Value.SIGNAL

    @property
    def bit(self) -> int:
        if not self.is_bool:
            raise ValueError("control signal has no bit value")
        return self.value

    @staticmethod
    def from_bit(b: int) -> "Value":
        return Value.ONE if b else Value.ZERO

    def __repr__(self) -> str:
        return f"<{self.value}>"


@dataclass(frozen=True)
class State:
    """Partial assignment of variables at one time step. Treat as immutable."""

    time: int
    values: Mapping[str, Value]

    @property
    def domain(self) -> frozenset[str]:
        return frozenset(self.values)


@dataclass(frozen=True)
class ExecConfig:
    seed: int = 0
    max_steps: int = 10_000

    def __post_init__(self):
        for name in ("seed", "max_steps"):
            val = getattr(self, name)
            if not isinstance(val, int) or isinstance(val, bool):
                raise StructureError(f"{name} must be an int, got {val!r}")
        if self.max_steps < 1:
            raise StructureError("max_steps must be at least 1")


class Outcome(enum.Enum):
    """How a run ended."""

    FINAL = "final"
    DEADLOCK = "deadlock"
    STEP_LIMIT = "step-limit"
    WRITE_CONFLICT = "write-conflict"


# splitmix64's mask, increment and two multipliers, as module globals: a class attribute costs a lookup per read
_MASK64 = (1 << 64) - 1
_GAMMA, _MIX1, _MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _mix(z: int) -> int:
    """splitmix64's output for the counter ``z`` (below 2**64): the k-th draw of seed s mixes ``(s + k * gamma) mod 2**64``."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Deterministic 64-bit generator (splitmix64), identical on all platforms."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        return self.below(_MASK64 + 1)  # the draw is below 2**64, so the remainder is the draw itself

    def below(self, n: int) -> int:
        """Uniform-ish draw in [0, n): ``next_u64() % n``; exact for powers of two.

        The generator is counter-based: the k-th draw (from 1) of
        ``SplitMix64(seed)`` is ``_mix((seed + k * gamma) mod 2**64) % n``,
        which :func:`tally_runs` computes for many seeds at once, through
        ``_draws``, without a generator each. :func:`run` and
        :func:`ready_units` draw here, one draw per competing group.
        """
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        self._state = z = (self._state + _GAMMA) & _MASK64
        return _mix(z) % n


def _draws(seeds: Sequence[int], drawn: int, sizes: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Each seed's draws of ``sizes``, after ``drawn`` draws: what ``tuple(map(SplitMix64(seed).below, sizes))`` gives then."""
    columns = []
    for k, n in enumerate(sizes, drawn + 1):
        at = k * _GAMMA  # the counter's advance by the k-th draw
        columns.append([_mix((s + at) & _MASK64) % n for s in seeds])
    return zip(*columns)


# the members as module constants: each ``Value.ONE`` lookup goes through the enum class machinery
_SIGNAL, _ZERO, _ONE = Value.SIGNAL, Value.ZERO, Value.ONE


# A replay leaves a copy of the assignment on a step once the changes since the
# last held state reach that state's size, and at least this many.
_MIN_CHECKPOINT_GAP = 32


class TraceStep:
    """One observation: the state at ``time`` plus what fired out of it. Treat as immutable.

    Built by hand, a step holds its ``state``. Of the steps :func:`run`
    records, the first holds ``init`` and the last the final state; every
    other one holds only its change from the previous step (that step, the
    entries assigned and the ids that left). Its ``state`` is replayed on
    first read from the nearest earlier step holding a state and kept, and
    the replay leaves checkpoint copies behind on the steps it passes (see
    ``_replay``). Equality compares the five fields, as for a dataclass.
    """

    __slots__ = ("time", "_state", "enabled", "ready", "results", "_change")
    __match_args__ = ("time", "state", "enabled", "ready", "results")

    def __init__(
        self,
        time: int,
        state: Optional[State],
        enabled: tuple[str, ...],
        ready: tuple[str, ...],
        results: Mapping[str, Value],
    ):
        self.time = time
        self._state = state
        self.enabled = enabled
        self.ready = ready
        self.results = results
        self._change: Optional[tuple[TraceStep, dict[str, Value], list[str]]] = None

    @property
    def state(self) -> State:
        st = self._state
        if st is None and self._change is not None:
            st = self._state = self._replay()
        return st

    def _replay(self) -> State:
        """This step's state, from the nearest earlier step holding one, leaving checkpoints on the way.

        A step it passes keeps a copy of the assignment once the changes
        since the last held state reach that state's size, and at least
        ``_MIN_CHECKPOINT_GAP``. So the copies cost O(1) amortised per
        change replayed, and a later read replays fewer than that many
        changes before its own step.
        """
        passed = []
        s = self
        while s._state is None:
            passed.append(s)
            s = s._change[0]
        values = dict(s._state.values)
        budget = max(len(values), _MIN_CHECKPOINT_GAP)  # changes left before the next checkpoint
        for s in reversed(passed):
            _, assigned, left = s._change
            for v in left:
                del values[v]
            values.update(assigned)
            budget -= len(assigned) + len(left)
            if budget <= 0 and s is not self:
                s._state = State(s.time, dict(values))
                budget = max(len(values), _MIN_CHECKPOINT_GAP)
        return State(self.time, values)

    def _fields(self) -> tuple:
        return self.time, self.state, self.enabled, self.ready, self.results

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        fields = "time={!r}, state={!r}, enabled={!r}, ready={!r}, results={!r}".format(*self._fields())
        return f"TraceStep({fields})"


@dataclass(frozen=True)
class Trace:
    """The steps of one run and how it ended.

    A trace that :func:`run` made keeps the initial state on its first
    step, the final state on its last (so ``final_state`` is always held)
    and each other step's change, no state: O(|init| + sum of changes)
    memory. Reading another step's ``state`` replays the changes since the
    nearest earlier held state and keeps the result, and the replay leaves
    checkpoint copies behind (see ``TraceStep._replay``). So a trace nobody
    reads holds no checkpoint, and reading every state, in any order, costs
    O(|init| + sum of changes + sum of the states read) in total, amortised
    over the reads.
    """

    steps: tuple[TraceStep, ...]
    outcome: Outcome
    conflict: Optional[str] = None

    @property
    def final_state(self) -> State:
        return self.steps[-1].state

    def fired_units(self) -> frozenset[str]:
        return frozenset(u for s in self.steps for u in s.ready)

    def assignment_history(self, var: str) -> list[tuple[int, Value]]:
        """Times at which ``var`` (re)acquired a value, with the value."""
        events = []
        had = False
        for s, assigned, left in self._changes():
            if var in left:
                had = False
            elif not had and var in assigned:
                events.append((s.time, assigned[var]))
                had = True
        return events

    def _changes(self) -> Iterator[tuple[TraceStep, Mapping[str, Value], Collection[str]]]:
        """Each step with its change from the previous step's state: ``(step, assigned, left)``.

        ``assigned`` holds every entry that is new or holds a different
        value (a recorded change may also repeat unchanged ones); ``left``
        lists the ids that left the domain. The first step assigns its whole
        state. A step that :func:`run` recorded right after the previous
        step gives its recorded change; any other step (hand-built, or
        placed after a different step) is diffed against the previous
        state, by identity, as ``Value`` members are singletons.
        """
        prev: Optional[TraceStep] = None
        for s in self.steps:
            change = s._change
            if change is not None and change[0] is prev:
                yield s, change[1], change[2]
            else:
                old = prev.state.values if prev is not None else {}
                cur = s.state.values
                # the ids v with old.get(v) is not cur[v], found without a Python loop
                changed = compress(cur, map(is_not, map(old.get, cur), cur.values()))
                yield s, {v: cur[v] for v in changed}, old.keys() - cur.keys()
            prev = s


class WriteConflictError(Exception):
    def __init__(self, var: str, detail: str):
        self.var = var
        super().__init__(detail)


# ---------------------------------------------------------------------------


def initial_state(c: Circuit, inputs: Mapping[str, Value]) -> State:
    """State at time 0 assigning exactly the invars."""
    keys = set(inputs)
    if keys != set(c.invars):
        missing = sorted(set(c.invars) - keys)
        extra = sorted(keys - set(c.invars))
        raise StructureError(f"initial state must assign exactly the invars (missing={missing}, extra={extra})")
    _check_tags(c, inputs)
    return State(0, dict(inputs))


def _check_tags(c: Circuit, values: Mapping[str, Value]) -> None:
    """Every id must be a variable of ``c`` holding a ``Value`` of its type."""
    vt = c.var_types
    for v, val in values.items():
        tag = vt.get(v)
        if tag is None:
            raise StructureError(f"{v!r} is not a variable of the circuit")
        if type(val) is not Value:
            raise StructureError(f"variable {v!r} must hold a Value, got {val!r}")
        if tag is CTRL and val is not _SIGNAL:
            raise StructureError(f"control variable {v!r} cannot hold a Boolean")
        if tag is BOOL and val is _SIGNAL:
            raise StructureError(f"Boolean variable {v!r} cannot hold a bare signal")


def _check_initial(c: Circuit, init: State) -> None:
    """``init`` must be an initial state of ``c``: time 0, exactly the invars, each holding a ``Value`` of its type."""
    if init.time != 0 or init.values.keys() != c.invars:
        raise StructureError("run() needs an initial state (time 0, exactly the invars)")
    _check_tags(c, init.values)


def is_final(c: Circuit, st: State) -> bool:
    return st.values.keys() == c.outvars


def enabled_units(c: Circuit, st: State) -> frozenset[str]:
    """Units whose full input variable set is assigned."""
    return frozenset(_enabled(_missing_inputs(c._exec_tables.units, st.values)))


def ready_units(c: Circuit, st: State, rng: SplitMix64) -> frozenset[str]:
    """One unit per group of enabled units sharing an input variable set.

    Groups are visited sorted by their least member so draws are
    reproducible; singleton groups do not consume randomness.
    """
    units = c._exec_tables.units
    enabled = sorted(enabled_units(c, st))
    sizes = filter(None, map(_DRAW, map(units.__getitem__, enabled)))
    return frozenset(_pick_ready(units, enabled, map(rng.below, sizes)))


def _pick_ready(units: Mapping[str, tuple], enabled: Iterable[str], draws: Iterator[int]) -> list[str]:
    """The ready picks among the sorted ``enabled`` units, given the unit rows and the draws.

    Members of a group share their input variables, so a group is enabled
    whole or not at all: it takes the next of ``draws`` at its least
    member, the one whose row holds the draw size; a unit alone in its
    group is picked without a draw.
    """
    picks = []
    for u in enabled:
        _, _, _, g, n = units[u]
        if n:
            picks.append(g[next(draws)])
        elif g[0] == u:
            picks.append(u)
    return picks


def _reduce(bool_in: tuple[str, ...], values: Mapping[str, Value]) -> Value:
    """``ZERO`` exactly when there are Boolean inputs and all of them hold ``ONE``."""
    for v in bool_in:
        if values[v] is not _ONE:
            return _ONE
    return _ZERO if bool_in else _ONE


def reduce_unit(c: Circuit, u: str, st: State) -> Value:
    """The Boolean a firing unit writes into its Boolean outputs.

    With no Boolean inputs the unit is the constant 1; otherwise it negates
    the conjunction of all its Boolean inputs (order-independent). Raises
    :class:`StructureError` when ``st`` is not a state of ``c``, when ``u``
    is not a unit of ``c``, or when a Boolean input of ``u`` is unassigned.
    """
    _check_tags(c, st.values)
    row = c._exec_tables.units.get(u) if isinstance(u, str) else None
    if row is None:
        raise StructureError(f"{u!r} is not a unit of the circuit")
    bool_in, values = row[1], st.values
    unassigned = [v for v in bool_in if v not in values]
    if unassigned:
        raise StructureError(f"unit {u!r} has unassigned Boolean inputs {unassigned}")
    return _reduce(bool_in, values)


def _missing_inputs(units: Mapping[str, tuple], values: Mapping[str, Value]) -> dict[str, int]:
    """Each unit's count of input variables that ``values`` leaves unassigned, O(V + E)."""
    has = values.__contains__
    return {u: len(vs) - sum(map(has, vs)) for u, (vs, _, _, _, _) in units.items()}


def _enabled(missing: Mapping[str, int]) -> Iterator[str]:
    """The units that miss no input, given each unit's count of missing inputs."""
    return compress(missing, map(not_, missing.values()))


# The draw field of a unit row in ``Circuit._exec_tables.units``, for reading many rows in one C-level ``map``.
_DRAW = itemgetter(4)

# A circuit's step tree holds at most this many entries per variable and unit (see ``_StepTree``).
_TREE_ROOM_PER_ELEMENT = 64


class _StepTree:
    """The value-free steps the runs of one circuit have taken, keyed by their draws.

    :func:`run` plants it on the circuit, at ``"_step_tree"`` in its
    ``__dict__``, on the circuit's first run. A node is a step's shape
    (see ``_shape``) and the situation it reaches from the invars, a tuple
    ``(ready, left, double, enabled, sizes, ending, ident)``: the step's
    sorted ready units, the
    variables that leave the domain, and whether two ready units write one
    variable (``()``, ``()`` and ``False`` at the root); then the sorted
    units enabled after it, the sizes of the draws a step makes there (the
    nonzero ``draw`` fields of their unit rows: one per enabled group of two
    or more members, at its least member, in sorted order),
    ``Outcome.FINAL``, ``Outcome.DEADLOCK`` or ``None``, and an id unique in
    the tree (``None`` at an ending, which enables nothing and makes no
    draws). ``children`` maps ``(ident, draw results)``, or ``ident`` alone
    at a node without draws, to the node that step reaches. One flat dict
    for the whole tree keeps nodes free of containers, so the cyclic garbage
    collector stops tracking them. ``ids`` numbers new nodes, one ``next``
    each, so runs in two threads never give two nodes one id; ``room`` is
    what is left of the tree's size bound, counted as one entry per node
    below the root plus the ids its ready, left and enabled tuples hold.
    :func:`run` attaches a node only while it fits, and only once per key:
    it holds ``lock`` while it checks the room, attaches and debits, and
    never while it replays a step. It attaches a derived step before it
    computes the step's values, so a step whose writes conflict is kept
    like any other, marked ``double``.

    :func:`tally_runs` reads the tree without the lock and attaches
    nothing itself: a group of its seeds hops to the node its draws key,
    so it visits each node at most once per group and block of
    ``_TALLY_BLOCK`` seeds, and holds O(block) seeds besides the tree.
    Where that node is missing, the group's first seed is run in full and
    attaches it; where it stays missing (the tree is full) or two of its
    units write one variable, the whole group is.
    """

    __slots__ = ("root", "children", "ids", "room", "lock")

    def __init__(self, c: Circuit, units: Mapping[str, tuple], missing: Mapping[str, int]):
        """The tree of just the root, given the unit rows of ``c`` and their missing-input counts at its invars."""
        self.ids = count()
        self.root = _step_node((), (), False, c.invars == c.outvars, _enabled(missing), units, self.ids)
        self.children: dict = {}
        self.room = _TREE_ROOM_PER_ELEMENT * (len(c.var_types) + len(units))
        self.lock = threading.Lock()


def _step_node(
    ready: tuple[str, ...],
    left: tuple[str, ...],
    double: bool,
    final: bool,
    enabled: Iterable[str],
    units: Mapping[str, tuple],
    ids: Iterator[int],
) -> tuple:
    """The step-tree node of a step, given whether the domain it reaches is final, the units it enables and the rows."""
    if final:
        return ready, left, double, (), (), Outcome.FINAL, None
    enabled = tuple(sorted(enabled))
    if not enabled:
        return ready, left, double, (), (), Outcome.DEADLOCK, None
    sizes = tuple(filter(None, map(_DRAW, map(units.__getitem__, enabled))))
    return ready, left, double, enabled, sizes, None, next(ids)


def _write(
    units: Mapping[str, tuple], ready: Sequence[str], results: Mapping[str, Value]
) -> tuple[dict[str, Value], Optional[tuple[str, str]]]:
    """The entries the sorted ``ready`` units produce, and an optional ``(variable, detail)`` conflict.

    A conflict names the first variable, in firing order, that receives a
    second, different Boolean, and the last earlier unit that wrote it.
    """
    produced: dict[str, Value] = {}
    for u in ready:
        res = results[u]
        for v, is_ctrl in units[u][2]:
            val = _SIGNAL if is_ctrl else res
            if produced.setdefault(v, val) is not val:
                prev = [w for w in ready[: ready.index(u)] if (v, False) in units[w][2]][-1]
                return produced, (v, f"units {prev!r} and {u!r} write different Booleans into {v!r}")
    return produced, None


def _shape(
    units: Mapping[str, tuple], ready: Sequence[str], domain: Collection[str]
) -> tuple[tuple[str, ...], list[str], bool]:
    """The shape of firing the sorted ``ready`` units, each enabled in ``domain``: ``(left, entered, double)``.

    It reads only which variables hold values, never the Booleans. A
    variable a ready unit consumes leaves the domain unless a ready unit
    produces it; ``left`` lists those in firing order. ``entered`` lists the
    produced variables outside ``domain``, in the order they are first
    written, and ``double`` is whether two ready units write one variable.
    """
    produced = {}
    writes = 0
    for u in ready:
        post = units[u][2]
        writes += len(post)
        for v, _ in post:
            produced[v] = None
    left = {}
    for u in ready:
        for v in units[u][0]:
            if v not in produced:
                left[v] = None
    return tuple(left), [v for v in produced if v not in domain], writes > len(produced)


def step(c: Circuit, st: State, rng: SplitMix64) -> State:
    """One transition, fired like :func:`run` into a copy of ``st.values``.

    The step's shape, the variables that leave the domain, comes from
    ``_shape`` as in a step :func:`run` derives; its values, each ready
    unit's Boolean and the entries it writes, from ``_write``.

    Raises :class:`StructureError` when ``st`` assigns an id that is not a
    variable of ``c`` or a value of the wrong type, and
    :class:`WriteConflictError` on conflicting writes.
    """
    _check_tags(c, st.values)
    units, values = c._exec_tables.units, dict(st.values)
    ready = sorted(ready_units(c, st, rng))
    left = _shape(units, ready, values)[0]
    produced, conflict = _write(units, ready, {u: _reduce(units[u][1], values) for u in ready})
    if conflict:
        raise WriteConflictError(*conflict)
    for v in left:
        del values[v]
    values.update(produced)
    return State(st.time + 1, values)


def run(c: Circuit, init: State, cfg: ExecConfig) -> Trace:
    """Execute until final, deadlocked, conflicting, or out of steps.

    Every step is recorded together with the enabled and ready sets that
    produced the next one; the last record fires nothing, except in a
    write-conflict run, where it holds the step whose writes conflicted.
    Failure modes are reported through the outcome, never raised.

    One assignment, copied once from ``init``, is updated in place; a step
    touches only the fired units' pre- and post-sets. The circuit's
    execution tables (one row per unit holding its pre- and post-set,
    Boolean inputs, competing group and draw size, which are static because
    units compete exactly when their input variable sets coincide, plus each
    variable's consumers) are built once per circuit and reused by every
    run.

    Which units are enabled and ready depends on which variables hold
    values, never on their Booleans, so a run's steps depend only on its
    draws. The circuit keeps the steps its runs have taken in its step
    tree (see ``_StepTree``): a node per step and the situation it
    reaches from the invars, with the step's shape (its ready units, the
    variables that left the domain and whether two ready units write one
    variable), and the situation's enabled units, draw sizes and ending;
    below a node is one node per tuple of its draw results. At each node a
    run makes the node's draws and looks up the node below. A known step
    takes its shape from the node; a step the run derives takes it from
    ``_shape``. Either way the step's values are applied by one block: its
    ready units are reduced and their outputs written, and only a step
    where two units write one variable checks for a conflict, as that
    depends on the Booleans; it costs O(firing units' flows).

    Every situation is derived from each unit's count of input variables
    still unassigned (as in Kahn's topological sort): the units that miss
    nothing are enabled. The counts are taken from the domain, O(V + E):
    on the circuit's first run, at the invars, where they give the tree's
    root, and on a later run wherever it leaves the tree (once, unless
    another thread attaches steps below the ones this run derives).
    After a derived step only the consumers of variables that entered or
    left the domain have their counts updated; the units enabled then are
    the units enabled before that still miss nothing, and those whose count
    reached zero. So a derived step costs O(firing units' flows + changed
    variables x their consumers + enabled units). Each derived step is
    attached as a new node in one dict store before its values are
    applied: whether its domain is final follows from the domain, the
    variables that leave and those that enter, with no Boolean. So an
    interrupted run leaves a valid tree holding every step it began, and a
    step that ends in a write conflict is attached like any other, while
    the tree holds at most ``_TREE_ROOM_PER_ELEMENT``
    entries per variable and unit; past that, runs derive their new steps
    without keeping them. A step is attached once: a run that derived a
    step another thread attached first goes on from the stored node, the
    same step under another id, and debits no room. The room check, the
    debit and the attach hold the tree's lock, which a replayed step never
    takes. A seed-free circuit only ever draws ``()``, so its tree is one
    chain. :func:`tally_runs` walks the same tree to count the outcomes and
    fired units of many seeds without building their traces.

    The trace records each step's change, not its state (see
    :class:`Trace`): the first step holds ``init`` itself, the last the
    final state, which is the run's own assignment, not a copy, and no other
    step holds a state. The run keeps no checkpoints; a replay that reads
    states leaves them behind (see ``TraceStep._replay``).
    """
    _check_initial(c, init)
    units, consumers = c._exec_tables
    values = dict(init.values)
    missing: Optional[dict[str, int]] = None  # the counts, set up where the run first derives a situation
    tree = c.__dict__.get("_step_tree")
    if tree is None:
        missing = _missing_inputs(units, values)
        tree = c.__dict__.setdefault("_step_tree", _StepTree(c, units, missing))  # one tree if two threads race
    lookup = tree.children.get
    _, _, _, enabled, sizes, ending, ident = tree.root  # the situation the run has reached
    below = SplitMix64(cfg.seed).below
    max_steps = cfg.max_steps
    steps: list[TraceStep] = []
    grow = True  # false once a derived step did not fit the tree, so its node is not in the tree
    time = 0
    change = None
    conflict = None
    while True:
        if ending is not None:
            outcome, last = ending, ((), (), {})
            break
        if time >= max_steps:
            outcome, last = Outcome.STEP_LIMIT, (enabled, (), {})
            break
        key = (ident, tuple(map(below, sizes))) if sizes else ident
        node = lookup(key)
        if node is None:
            if missing is None:  # the run leaves the tree here
                missing = _missing_inputs(units, values)
            # without draws every enabled group is a single unit, so every enabled unit is ready
            ready = tuple(sorted(_pick_ready(units, enabled, iter(key[1])))) if sizes else enabled
            left, entered, double = _shape(units, ready, values)
            for v in left:
                for u in consumers[v]:
                    missing[u] += 1
            # no input of a unit enabled before the step entered the domain, so no unit is listed twice
            now = [u for u in enabled if not missing[u]]
            for v in entered:
                for u in consumers[v]:
                    n = missing[u] - 1
                    missing[u] = n
                    if not n:
                        now.append(u)
            # the domain after the step is the domain minus ``left`` plus ``entered``: no Boolean decides the node
            after = len(values) - len(left) + len(entered)
            final = after == len(c.outvars) and (values.keys() - left).union(entered) == c.outvars
            node = _step_node(ready, left, double, final, now, units, tree.ids)
            if grow:
                size = 1 + len(ready) + len(left) + len(node[3])
                with tree.lock:
                    stored = tree.children.get(key)
                    if stored is None and tree.room >= size:
                        stored = tree.children[key] = node
                        tree.room -= size
                if stored is None:
                    grow = False
                else:
                    node = stored  # another thread may have attached this step first: the same step under its own id
        else:
            # counts taken before a replayed step are stale: another thread may attach below a node this run derived
            missing = None
        ready, left, double, reached, sizes, ending, ident = node
        # the step's values, the same for a replayed and a derived step; loops, not comprehensions: a
        # comprehension is a function call, which a step of one or two units pays for again and again
        results = {}
        if double:
            for u in ready:
                results[u] = _reduce(units[u][1], values)
            produced, conflict = _write(units, ready, results)
            if conflict:
                outcome, last = Outcome.WRITE_CONFLICT, (enabled, ready, results)
                break
        else:
            # no variable is written twice, so each unit is reduced and written in one pass
            produced = {}
            for u in ready:
                _, bool_in, post, _, _ = units[u]
                results[u] = res = _reduce(bool_in, values)
                for v, is_ctrl in post:
                    produced[v] = _SIGNAL if is_ctrl else res
        for v in left:
            del values[v]
        values.update(produced)
        rec = TraceStep(time, None if steps else init, enabled, ready, results)  # later steps keep only their change
        rec._change = change
        steps.append(rec)
        enabled = reached
        time += 1
        change = (rec, produced, left)
    # the last step holds its state; ``values`` changes no more, so it is not copied
    rec = TraceStep(time, State(time, values) if steps else init, *last)
    rec._change = change
    steps.append(rec)
    return Trace(tuple(steps), outcome, conflict[1] if conflict else None)


# A tally walks its seeds into the step tree this many at a time, so its memory is O(this + the tree) for any runs.
_TALLY_BLOCK = 1024


def tally_runs(c: Circuit, init: State, cfg: ExecConfig, runs: int) -> Counter[tuple[Outcome, frozenset[str]]]:
    """How often each ``(outcome, fired units)`` pair ends the ``runs`` runs from seed ``cfg.seed`` on.

    Equal to counting ``(tr.outcome, tr.fired_units())`` over the traces
    ``run(c, init, ExecConfig(seed=cfg.seed + k, max_steps=cfg.max_steps))``
    for ``k < runs``, without building them. A run's outcome and fired
    units depend only on its draws, except at a step where two ready units
    write one variable, whose conflict depends on the Booleans. So the
    seeds walk the circuit's step tree (see ``_StepTree``) as :func:`run`
    does, making only the draws, in groups of seeds that drew alike: the
    seeds enter the root in blocks of ``_TALLY_BLOCK``, one group each. At
    a node a group ends, together, in the node's ending or at the step
    limit; otherwise its seeds make the node's draws, each from its own
    counter (see ``_draws``), and split by their draws, each part hopping
    to the node its draws key; a node without draws keeps the group whole.
    Each group carries the set of units its path fired, which grows only
    where a step fires a unit not yet in it. Where the node is missing,
    the part's first seed is run in full by :func:`run`, which attaches the
    step before its values, even one that ends in a write conflict, and the
    rest hop on; where the step stays missing (the tree is full) or two of
    its units write one variable, the whole part is run in full. The walk
    attaches nothing. A warm tally thus costs O(nodes visited + runs x
    draws), each node visited once per block and group, in
    O(``_TALLY_BLOCK`` + tree) memory, and evaluates no Boolean; a step
    limit never sends a seed to :func:`run`.

    Raises :class:`StructureError` when ``init`` is not an initial state
    of ``c`` or ``runs`` is not a positive int.
    """
    _check_initial(c, init)
    if not isinstance(runs, int) or isinstance(runs, bool) or runs < 1:
        raise StructureError(f"runs must be an int of at least 1, got {runs!r}")
    max_steps = cfg.max_steps
    tally: Counter[tuple[Outcome, frozenset[str]]] = Counter()

    def in_full(seeds: Iterable[int]) -> None:
        for seed in seeds:
            tr = run(c, init, ExecConfig(seed=seed, max_steps=max_steps))
            tally[tr.outcome, tr.fired_units()] += 1

    first, end = cfg.seed, cfg.seed + runs
    if "_step_tree" not in c.__dict__:  # the first seed's run plants the tree
        in_full((first,))
        first += 1
    tree = c.__dict__["_step_tree"]
    lookup = tree.children.get
    for start in range(first, end, _TALLY_BLOCK):
        # a group: the node its seeds reached, their draws and steps so far, the units fired on the way, the seeds
        groups = [(tree.root, 0, 0, frozenset(), range(start, min(start + _TALLY_BLOCK, end)))]
        while groups:
            node, drawn, steps, fired, seeds = groups.pop()
            _, _, _, _, sizes, ending, ident = node
            if ending is not None or steps >= max_steps:
                tally[ending or Outcome.STEP_LIMIT, fired] += len(seeds)
                continue
            if sizes:
                parts: dict = {}
                for seed, draws in zip(seeds, _draws(seeds, drawn, sizes)):
                    parts.setdefault(draws, []).append(seed)
                hops = [((ident, draws), part) for draws, part in parts.items()]
                drawn += len(sizes)
            else:
                hops = [(ident, seeds)]
            for key, part in hops:
                child = lookup(key)
                if child is None:  # the first seed's run attaches the step, unless the tree is full
                    in_full(part[:1])
                    part = part[1:]
                    child = lookup(key)
                # still missing (the tree is full), or a conflict that depends on the Booleans
                if child is None or child[2]:
                    in_full(part)
                elif part:
                    ready = child[0]
                    groups.append((child, drawn, steps + 1, fired if fired.issuperset(ready) else fired.union(ready), part))
    return tally
