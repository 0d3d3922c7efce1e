"""Execution semantics: states, ready units, reduction, and traces.

A state assigns values to some variables at a discrete time step. A unit is
enabled once every variable feeding it holds a value; enabled units whose
input variable sets coincide compete, and exactly one of each competing
group fires per step (chosen by a seeded generator, so runs replay
byte-for-byte). Firing consumes the inputs and writes a bare signal into
every control output and the unit's Boolean result into every Boolean
output: the constant 1 when the unit has no Boolean inputs, otherwise the
negated conjunction of all of them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .errors import StructureError
from .model import BOOL, CTRL, Circuit, _ExecTables


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


class SplitMix64:
    """Deterministic 64-bit generator (splitmix64), identical on all platforms."""

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self._state = seed & self.MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & self.MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-ish draw in [0, n); exact for powers of two."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n


# the members as module constants: each ``Value.ONE`` lookup goes through the enum class machinery
_SIGNAL, _ZERO, _ONE = Value.SIGNAL, Value.ZERO, Value.ONE


class Outcome(enum.Enum):
    FINAL = "final"
    DEADLOCK = "deadlock"
    STEP_LIMIT = "step-limit"
    WRITE_CONFLICT = "write-conflict"


@dataclass(frozen=True)
class TraceStep:
    """One observation: the state at ``time`` plus what fired out of it."""

    time: int
    state: State
    enabled: tuple[str, ...]
    ready: tuple[str, ...]
    results: Mapping[str, Value]


@dataclass(frozen=True)
class Trace:
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
        previous_had = False
        for s in self.steps:
            has = var in s.state.values
            if has and not previous_had:
                events.append((s.time, s.state.values[var]))
            previous_had = has
        return events


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


def is_final(c: Circuit, st: State) -> bool:
    return st.values.keys() == c.outvars


def enabled_units(c: Circuit, st: State) -> frozenset[str]:
    """Units whose full input variable set is assigned."""
    dom = st.values
    return frozenset(u for u, vs in c._exec_tables.pre.items() if all(v in dom for v in vs))


def ready_units(c: Circuit, st: State, rng: SplitMix64) -> frozenset[str]:
    """One unit per group of enabled units sharing an input variable set.

    Groups are visited sorted by their least member so draws are
    reproducible; singleton groups do not consume randomness.
    """
    return frozenset(_pick_ready(c._exec_tables.group, sorted(enabled_units(c, st)), rng))


def _pick_ready(group: Mapping[str, tuple[str, ...]], enabled: Iterable[str], rng: SplitMix64) -> list[str]:
    """The ready picks among the sorted ``enabled`` units, given each unit's competing group.

    Members of a group share their input variables, so a group is enabled
    whole or not at all: its one draw is made at its least member.
    """
    picks = []
    for u in enabled:
        g = group[u]
        if g[0] == u:
            picks.append(g[rng.below(len(g))] if len(g) > 1 else u)
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
    the conjunction of all assigned Boolean inputs (order-independent).
    Raises :class:`StructureError` when ``st`` is not a state of ``c``.
    """
    _check_tags(c, st.values)
    return _reduce(c._exec_tables.bool_in[u], st.values)


def _fire(
    t: _ExecTables, ready: Sequence[str], values: dict[str, Value]
) -> tuple[dict[str, Value], list[str], list[str], Optional[tuple[str, str]]]:
    """Fire the sorted ``ready`` units into the assignment ``values``, in place.

    ``values`` becomes the next assignment. Each ready unit is reduced once;
    a produced variable takes its value even if another firing unit
    consumes it, and consumed-only variables leave the domain. Returns the
    results, the variables that left and that entered the domain, and an
    optional ``(variable, detail)`` conflict, which is found before
    ``values`` changes.
    """
    bool_in, post, pre = t.bool_in, t.post, t.pre
    results = {u: _reduce(bool_in[u], values) for u in ready}
    produced: dict[str, Value] = {}
    producer: dict[str, str] = {}
    for u in ready:
        res = results[u]
        for v, is_ctrl in post[u]:
            val = _SIGNAL if is_ctrl else res
            if produced.setdefault(v, val) is not val:
                return results, [], [], (v, f"units {producer[v]!r} and {u!r} write different Booleans into {v!r}")
            producer[v] = u
    left = []
    for u in ready:
        for v in pre[u]:
            if v in values and v not in produced:
                del values[v]
                left.append(v)
    entered = [v for v in produced if v not in values]
    values.update(produced)
    return results, left, entered, None


def step(c: Circuit, st: State, rng: SplitMix64) -> State:
    """One transition, fired like :func:`run` into a copy of ``st.values``.

    Raises :class:`StructureError` when ``st`` assigns an id that is not a
    variable of ``c`` or a value of the wrong type, and
    :class:`WriteConflictError` on conflicting writes.
    """
    _check_tags(c, st.values)
    values = dict(st.values)
    conflict = _fire(c._exec_tables, sorted(ready_units(c, st, rng)), values)[3]
    if conflict:
        raise WriteConflictError(*conflict)
    return State(st.time + 1, values)


def run(c: Circuit, init: State, cfg: ExecConfig) -> Trace:
    """Execute until final, deadlocked, conflicting, or out of steps.

    Every state is recorded together with the enabled and ready sets that
    produced the next one; the last record has empty sets. Failure modes are
    reported through the outcome, never raised.

    One assignment, copied once from ``init``, is updated in place; a step
    touches only the fired units' pre- and post-sets. The circuit's
    execution tables (pre- and post-sets, Boolean inputs, consumers and
    competing groups, which are static because units compete exactly when
    their input variable sets coincide) are built once per circuit and
    reused by every run. Each unit counts its input variables still
    unassigned (as in Kahn's topological sort), copied from a template of
    the initial counts; after a step only the consumers of variables that
    entered or left the domain are updated. A step costs O(firing units'
    flows + changed variables x their consumers), plus the trace's
    O(|state|) snapshot of the assignment.
    """
    if init.time != 0 or init.domain != c.invars:
        raise StructureError("run() needs an initial state (time 0, exactly the invars)")
    _check_tags(c, init.values)
    t = c._exec_tables
    group, consumers = t.group, t.consumers
    rng = SplitMix64(cfg.seed)
    steps: list[TraceStep] = []
    st = init
    values = dict(init.values)
    missing = dict(t.missing)
    enabled_set = {u for u, n in missing.items() if not n}
    while True:
        if is_final(c, st):
            steps.append(TraceStep(st.time, st, (), (), {}))
            return Trace(tuple(steps), Outcome.FINAL)
        enabled = tuple(sorted(enabled_set))
        if not enabled:
            steps.append(TraceStep(st.time, st, (), (), {}))
            return Trace(tuple(steps), Outcome.DEADLOCK)
        if st.time >= cfg.max_steps:
            steps.append(TraceStep(st.time, st, enabled, (), {}))
            return Trace(tuple(steps), Outcome.STEP_LIMIT)
        ready = tuple(sorted(_pick_ready(group, enabled, rng)))
        results, left, entered, conflict = _fire(t, ready, values)
        steps.append(TraceStep(st.time, st, enabled, ready, results))
        if conflict:
            return Trace(tuple(steps), Outcome.WRITE_CONFLICT, conflict=conflict[1])
        for v in left:
            for u in consumers[v]:
                missing[u] += 1
                enabled_set.discard(u)
        for v in entered:
            for u in consumers[v]:
                n = missing[u] - 1
                missing[u] = n
                if not n:
                    enabled_set.add(u)
        st = State(st.time + 1, dict(values))
