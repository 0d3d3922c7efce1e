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
from typing import Iterable, Mapping, Optional

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
    for v, val in values.items():
        tag = c.var_types[v]
        if tag is CTRL and val.is_bool:
            raise StructureError(f"control variable {v!r} cannot hold a Boolean")
        if tag is BOOL and not val.is_bool:
            raise StructureError(f"Boolean variable {v!r} cannot hold a bare signal")


def is_final(c: Circuit, st: State) -> bool:
    return st.values.keys() == c.outvars


def enabled_units(c: Circuit, st: State) -> frozenset[str]:
    """Units whose full input variable set is assigned."""
    dom = st.values
    return frozenset(u for u in c.units if all(v in dom for v in c.pre_set(u)))


def ready_units(c: Circuit, st: State, rng: SplitMix64) -> frozenset[str]:
    """One unit per group of enabled units sharing an input variable set.

    Groups are visited sorted by their least member so draws are
    reproducible; singleton groups do not consume randomness.
    """
    return frozenset(_pick_ready(c, enabled_units(c, st), rng))


def _pick_ready(c: Circuit, enabled: Iterable[str], rng: SplitMix64) -> list[str]:
    """The ready picks of :func:`ready_units` for a given enabled set."""
    groups: dict[frozenset[str], list[str]] = {}
    for u in enabled:
        groups.setdefault(c.pre_set(u), []).append(u)
    picks = []
    for members in sorted((sorted(g) for g in groups.values()), key=lambda g: g[0]):
        if len(members) == 1:
            picks.append(members[0])
        else:
            picks.append(members[rng.below(len(members))])
    return picks


def reduce_unit(c: Circuit, u: str, st: State) -> Value:
    """The Boolean a firing unit writes into its Boolean outputs.

    With no Boolean inputs the unit is the constant 1; otherwise it negates
    the conjunction of all assigned Boolean inputs (order-independent).
    """
    bits = [st.values[v].bit for v in c.pre_set(u) if c.var_types[v] is BOOL]
    if not bits:
        return Value.ONE
    return Value.ZERO if all(bits) else Value.ONE


def _transition(
    c: Circuit, st: State, results: Mapping[str, Value]
) -> tuple[dict[str, Value], set[str], Optional[tuple[str, str]]]:
    """Apply one step in which the units keyed in ``results`` fire.

    ``results`` maps each firing unit to its :func:`reduce_unit` value.
    Returns the next assignment, the variables the firing units touch, and
    an optional ``(variable, detail)`` conflict. A variable produced by a
    firing unit takes the produced value even if another firing unit
    consumes it; assigned variables untouched by any firing unit keep their
    value; consumed-only variables leave the domain. Only touched variables
    can enter or leave the domain.
    """
    produced: dict[str, Value] = {}
    producer: dict[str, str] = {}
    touched: set[str] = set()
    for u in sorted(results):
        result = results[u]
        touched |= c.pre_set(u) | c.post_set(u)
        for v in sorted(c.post_set(u)):
            val = Value.SIGNAL if c.var_types[v] is CTRL else result
            if v in produced and produced[v] != val:
                return {}, touched, (v, f"units {producer[v]!r} and {u!r} write different Booleans into {v!r}")
            produced[v] = val
            producer[v] = u
    nxt = dict(produced)
    for v, val in st.values.items():
        if v not in touched:
            nxt[v] = val
    return nxt, touched, None


def _fire(
    c: Circuit, st: State, ready: Iterable[str]
) -> tuple[dict[str, Value], dict[str, Value], set[str], Optional[tuple[str, str]]]:
    """One step's firing: each ready unit reduced once, then the transition.

    Returns the results, the next assignment, the touched variables and an
    optional conflict (see :func:`_transition`).
    """
    results = {u: reduce_unit(c, u, st) for u in sorted(ready)}
    nxt, touched, conflict = _transition(c, st, results)
    return results, nxt, touched, conflict


def step(c: Circuit, st: State, rng: SplitMix64) -> State:
    """One transition. Raises :class:`WriteConflictError` on conflicting writes."""
    _, nxt, _, conflict = _fire(c, st, ready_units(c, st, rng))
    if conflict:
        raise WriteConflictError(conflict[0], conflict[1])
    return State(st.time + 1, nxt)


def run(c: Circuit, init: State, cfg: ExecConfig) -> Trace:
    """Execute until final, deadlocked, conflicting, or out of steps.

    Every state is recorded together with the enabled and ready sets that
    produced the next one; the last record has empty sets. Failure modes are
    reported through the outcome, never raised.

    The enabled set is kept incrementally: each unit counts its input
    variables still unassigned (as in Kahn's topological sort), the counts
    are seeded once from ``init`` in O(|flows|), and after each step only
    the consumers of variables that entered or left the domain are updated.
    A step therefore costs O(changed variables x their consumers) for the
    enabled set, plus the O(|state|) copy of the state the trace keeps.
    """
    if init.time != 0 or init.domain != c.invars:
        raise StructureError("run() needs an initial state (time 0, exactly the invars)")
    _check_tags(c, init.values)
    rng = SplitMix64(cfg.seed)
    steps: list[TraceStep] = []
    st = init
    missing = {u: sum(v not in st.values for v in c.pre_set(u)) for u in c.units}
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
        ready = tuple(sorted(_pick_ready(c, enabled, rng)))
        results, nxt, touched, conflict = _fire(c, st, ready)
        steps.append(TraceStep(st.time, st, enabled, ready, results))
        if conflict:
            return Trace(tuple(steps), Outcome.WRITE_CONFLICT, conflict=conflict[1])
        for v in touched:
            had = v in st.values
            if had == (v in nxt):
                continue
            delta = 1 if had else -1
            for u in c.consumers(v):
                n = missing[u] + delta
                missing[u] = n
                if n:
                    enabled_set.discard(u)
                else:
                    enabled_set.add(u)
        st = State(st.time + 1, nxt)
