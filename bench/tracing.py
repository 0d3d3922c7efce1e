"""Per-layer tracing applied from outside the library.

The tracer replaces every public function of the traced modules with a
wrapper that records a span (operation id, span id, parent, name, start,
end) while recording is switched on, and passes straight through while it
is off. It patches every place a caller looks a function up: the defining
module, every ``ctrlcirc`` module that imported the name
(``ctrlcirc.operators.pushout`` as well as ``ctrlcirc.colimits.pushout``),
the package namespace, and module-level tables such as
``fixtures.REGISTRY``. ``SplitMix64.below`` is wrapped to count random
draws.

Span times are CPU time of the tracing thread. Self time is a span's
duration minus the part its wrapped child spans cover. Aggregates cover every span; raw spans are kept in memory up to a
cap and written out when the run ends.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from time import thread_time

LAYERS = ("model", "morphisms", "colimits", "operators", "dynamics", "nanddag", "serialize", "cli", "fixtures")
OPERATORS = frozenset(
    f"operators.{n}"
    for n in ("sequence", "sequence_span", "parallel", "parallel_with_injections", "branch", "iterate_head", "iterate_tail")
)
SPAN_CAP = 50_000


def _elements(c) -> int:
    return len(c.var_types) + len(c.units) + len(c.in_flows) + len(c.out_flows)


def _count_run(counters, args, kwargs, trace) -> None:
    counters["dynamics.steps"] += len(trace.steps) - 1
    counters["dynamics.firings"] += sum(len(s.ready) for s in trace.steps)


def _count_enabled(counters, args, kwargs, result) -> None:
    c = args[0] if args else kwargs["c"]
    counters["dynamics.enabled_units.scanned"] += len(c.units)


def _count_pushout(counters, args, kwargs, result) -> None:
    span = args[0] if args else kwargs["span"]
    counters["colimits.pushout.operand_elems"] += _elements(span.left.dst) + _elements(span.right.dst)


def _count_jsonl(counters, args, kwargs, text) -> None:
    counters["serialize.trace_to_jsonl.bytes"] += len(text.encode("utf-8"))


def _count_synth(counters, args, kwargs, family) -> None:
    counters["nanddag.synth_family.gates"] += sum(
        len(m.dag.gates()) for m in family.members.values() if m.dag is not None
    )


# Counts read from a traced call's arguments or result.
COUNT_HOOKS = {
    "dynamics.run": _count_run,
    "dynamics.enabled_units": _count_enabled,
    "colimits.pushout": _count_pushout,
    "serialize.trace_to_jsonl": _count_jsonl,
    "nanddag.synth_family": _count_synth,
}


class Tracer:
    """Span recorder; ``on`` gates recording so set-up and checks stay out."""

    def __init__(self):
        self.on = False
        self.op = 0
        self.stack: list[list] = []  # [span id, start, time covered by child spans]
        self.next_id = 1
        self.stats: dict[str, list] = {}  # name -> [calls, self s, inclusive s]
        self.counters: defaultdict[str, float] = defaultdict(int)
        self.spans: list[tuple] = []
        self.op_depth = 0

    def take(self) -> tuple[dict, dict]:
        """Return the aggregates recorded so far and start new ones."""
        stats, counters = self.stats, self.counters
        self.stats, self.counters = {}, defaultdict(int)
        return stats, counters

    def begin_op(self) -> None:
        self.op += 1
        self.on = True

    def end_op(self) -> None:
        self.on = False

    def install(self, lib) -> None:
        """Wrap the public functions of every layer of ``lib`` in place."""
        wrappers = {}
        for layer in LAYERS:
            mod = getattr(lib, layer)
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "ctrlcirc" and not mod_name.startswith("ctrlcirc."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in wrappers:
                            obj[key] = wrappers[val]

        rng_cls = lib.dynamics.SplitMix64
        below = rng_cls.below
        tracer = self

        def counted_below(rng, n):
            if tracer.on:
                tracer.counters["dynamics.rng_draws"] += 1
            return below(rng, n)

        rng_cls.below = counted_below

    def _wrap(self, name: str, fn):
        tracer = self
        hook = COUNT_HOOKS.get(name)
        is_op = name in OPERATORS
        validates = name == "morphisms.validate_morphism"

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack = tracer.stack
            span_id = tracer.next_id
            tracer.next_id += 1
            parent = stack[-1][0] if stack else 0
            if is_op:
                if tracer.op_depth == 0:
                    tracer.counters["operators.outer_calls"] += 1
                tracer.op_depth += 1
            elif validates and tracer.op_depth:
                tracer.counters["morphisms.validate_morphism.in_ops"] += 1
            frame = [span_id, thread_time(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = thread_time()
                stack.pop()
                dur = end - frame[1]
                stat = tracer.stats.get(name)
                if stat is None:
                    stat = tracer.stats[name] = [0, 0.0, 0.0]
                stat[0] += 1
                stat[1] += dur - frame[2]
                stat[2] += dur
                if stack:
                    stack[-1][2] += dur
                if is_op:
                    tracer.op_depth -= 1
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((tracer.op, span_id, parent, name, frame[1], end))
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def write_spans(self, path) -> None:
        """Write the kept spans as JSON lines (times in seconds)."""
        with open(path, "w", encoding="utf-8") as fh:
            for op, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"op": op, "id": span_id, "parent": parent, "name": name, "start": start, "end": end}))
                fh.write("\n")
