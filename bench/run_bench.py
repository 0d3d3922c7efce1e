#!/usr/bin/env python3
"""Benchmark for ctrlcirc: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run_bench.py --workload nand_sweep --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``nand_sweep``, ``nand_large``,
``compose_deep`` and ``fixture_exec``. The workload seed picks the
execution seeds (netlist workloads, fixture_exec) and the order of the
builds and searches (compose_deep); the netlists, composites and tables,
and the order of the syntheses, are fixed.
The process sets the workload up (imports the package, makes the inputs
and their expected answers) and then runs closed-loop passes until their
time adds up to ``--seconds``.

With ``--trace 0`` the last line of standard output is a JSON object
whose metrics are the end-to-end ones, every one defined for every workload:

- ``setup_s``: median of seven set-ups, each in a fresh process: the CPU
  time that process spends from its start to the end of its set-up, at the
  reference speed (see below). It
  covers interpreter start, importing the package and the benchmark, and
  the workload's set-up. One set-up is made before the first pass and
  one after each of the next passes, so the seven spread over the run.
- ``peak_rss_mb``: peak resident memory of the process once set-up and the
  first pass are done. Later passes repeat the same work and would add only
  heap fragmentation, which varies from run to run.
- ``build_s``: time of a typical pass spent producing circuits:
  ``to_control`` of 200 netlists (nand_sweep), the import-nand document trip
  (nand_large), building every composite and relabelled copy
  (compose_deep), ``ctrlcirc fixtures emit`` of every fixture
  (fixture_exec).
- ``use_s``: time of a typical pass spent using them: lift, run and
  read-back of every vector (nand_sweep), run, trace and read-back
  (nand_large), isomorphism and synthesis calls with limit hits charged at
  the limit (compose_deep), ``ctrlcirc exec`` runs (fixture_exec).
- ``ops_per_s``: operations of a pass divided by its build plus use time:
  checked vectors (nand_*), build and search calls (compose_deep), seeded
  runs (fixture_exec).

A typical pass takes, for each operation, the median of its times across
the run's passes, and sums them; a disturbance then moves one sample of one
operation rather than a whole pass. Operation times are CPU time of the
benchmark's thread, scaled to a fixed reference speed by a plain-Python
reference loop timed between operations (see ``workloads.py``), because
the speed a thread gets on a shared host drifts by up to a factor of two.
``--seconds`` counts elapsed time.

``nanddag.run_vs_oracle`` (netlist workloads) is the summed per-vector
median time of ``dynamics.run`` across passes over the summed per-vector
median time of ``eval_dag`` across ten loops over all vectors made after
set-up. ``eval_dag`` is always timed untraced; under ``--trace 1`` the
``run`` times include the tracing of its callees, so the untraced value in
the ``summary:`` line is the one to quote.

With ``--trace 1`` the public functions of every layer are wrapped from
outside (``tracing.py``) and the metrics are the per-layer ones: calls and
self time per pass of each named function (raw CPU time over the run's
median speed, so at the reference speed), and exact counts and ratios.
The set-ups are traced too. Spans are written to ``bench/out/`` when the
run ends. Lines before the last one are a readable summary and one
``summary:`` JSON line.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

from tracing import LAYERS, Tracer
from workloads import REFERENCE_S, WORKLOADS, Meter, time_oracle, time_reference

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 7
SETUP_REFERENCES = 5
ORACLE_LOOPS = 10
HASH_SEED = "0"
READY = "set-up done"

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "build_s": "s",
    "use_s": "s",
    "ops_per_s": "1/s",
}

# Functions whose calls and self time are per-layer metrics; every other
# public function of a layer is wrapped too, so it is not counted as self
# time of its caller, and appears in the written spans.
TRACED_FUNCTIONS = (
    "model.is_sound",
    "model.circuit_violations",
    "model.relabel",
    "morphisms.validate_morphism",
    "morphisms.boundary_sets",
    "colimits.pushout",
    "colimits.coproduct",
    "colimits.is_isomorphic",
    "operators.sequence",
    "operators.parallel",
    "operators.branch",
    "operators.iterate_head",
    "operators.iterate_tail",
    "dynamics.run",
    "dynamics.enabled_units",
    "dynamics.ready_units",
    "dynamics.reduce_unit",
    "nanddag.to_control",
    "nanddag.lift_inputs",
    "nanddag.read_outputs",
    "nanddag.synth_family",
    "nanddag.eval_dag",
    "serialize.loads_dag",
    "serialize.dumps_circuit",
    "serialize.loads_circuit",
    "serialize.trace_to_jsonl",
    "cli.main",
    "fixtures.build_p53",
    "fixtures.build_flipflop",
)

# Counts and ratios per pass. validations_per_op counts validations made
# inside operator calls per outermost operator call.
DERIVED = {
    "morphisms.validations_per_op": "ratio",
    "colimits.pushout.operand_elems": "count",
    "colimits.is_isomorphic.limit_hits": "count",
    "dynamics.steps": "count",
    "dynamics.firings": "count",
    "dynamics.rng_draws": "count",
    "dynamics.steps_per_s": "1/s",
    "dynamics.enabled_units.calls_per_step": "ratio",
    "dynamics.enabled_units.fired_per_scanned": "ratio",
    "dynamics.reduce_unit.calls_per_firing": "ratio",
    "nanddag.synth_family.limit_hits": "count",
    "nanddag.synth_family.gates": "count",
    "nanddag.run_vs_oracle": "ratio",
    "serialize.trace_to_jsonl.bytes": "bytes",
    "fail_frac": "ratio",
}

PER_LAYER = {}
for _fn in TRACED_FUNCTIONS:
    PER_LAYER[f"{_fn}.calls"] = "count"
    PER_LAYER[f"{_fn}.self_s"] = "s"
PER_LAYER.update(DERIVED)


def set_up(wl, seed: int, trace: int):
    """Import the package and make the workload's inputs; with ``trace``, traced."""
    importlib.import_module("ctrlcirc")
    lib = argparse.Namespace(**{m: importlib.import_module(f"ctrlcirc.{m}") for m in LAYERS})
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install(lib)
        tracer.begin_op()
    state = wl.setup(lib, seed)
    if tracer:
        tracer.end_op()
    return lib, state, tracer


def timed_setup(args) -> float:
    """CPU seconds a fresh process spends from its start to the end of its set-up.

    The process reports its own CPU time when set-up is done, so interpreter
    start is included and the time it waited for a processor is not. It
    scales that time to the reference speed (``workloads.REFERENCE_S``) by
    the median of reference loops it times right before and after set-up.
    """
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    cmd += ["--trace", str(args.trace), "--setup-only"]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        proc.communicate()
    ready, _, cpu_s = line.rpartition(" ")
    if ready != READY or proc.returncode != 0:
        raise RuntimeError(f"set-up process failed with exit code {proc.returncode}: {line!r}")
    return float(cpu_s)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def percentile(values: list[float], q: float) -> float:
    """The q-quantile by the nearest-rank rule."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))]


def typical_pass(passes, phase: str) -> float:
    """Sum over a phase's operations of each operation's median time across passes."""
    times = [getattr(p, phase) for p in passes]
    return sum(statistics.median(t[op] for t in times if op in t) for op in times[0])


def end_to_end(setup_times, passes, peak_rss_mb) -> dict:
    build_s, use_s = typical_pass(passes, "build"), typical_pass(passes, "use")
    return {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
        "build_s": build_s,
        "use_s": use_s,
        "ops_per_s": statistics.median(p.ops for p in passes) / (build_s + use_s),
    }


def run_vs_oracle(passes, oracle) -> float:
    """Summed per-vector median run time over summed per-vector eval_dag time."""
    run = sum(statistics.median(p.run[key] for p in passes if key in p.run) for key in oracle)
    return run / sum(oracle.values())


def per_layer(tracer, setup_stats, meter, passes, ratio) -> dict:
    n = len(passes)
    stats, c = tracer.stats, tracer.counters
    stat = lambda fn, i: (setup_stats if fn == "nanddag.eval_dag" else stats).get(fn, [0, 0.0, 0.0])[i]
    # Span times are raw CPU seconds; the run's median speed brings them to
    # the reference speed of the end-to-end times.
    speed = meter.speed.run_factor()
    out = {}
    # eval_dag runs only in set-up, for the oracle answers, so it is
    # reported for this process's traced set-up rather than per pass.
    for fn in TRACED_FUNCTIONS:
        scale = 1 if fn == "nanddag.eval_dag" else n
        out[f"{fn}.calls"] = stat(fn, 0) / scale
        out[f"{fn}.self_s"] = stat(fn, 1) / scale / speed
    # Parsing, JSON input and aggregation run in cli helpers under main.
    out["cli.main.self_s"] = sum(s[1] for name, s in stats.items() if name.startswith("cli.")) / n / speed
    steps, firings = c["dynamics.steps"], c["dynamics.firings"]
    hits = meter.limit_hits
    out.update(
        {
            "morphisms.validations_per_op": _ratio(c["morphisms.validate_morphism.in_ops"], c["operators.outer_calls"]),
            "colimits.pushout.operand_elems": c["colimits.pushout.operand_elems"] / n,
            "colimits.is_isomorphic.limit_hits": hits.get("colimits.is_isomorphic", 0) / n,
            "dynamics.steps": steps / n,
            "dynamics.firings": firings / n,
            "dynamics.rng_draws": c["dynamics.rng_draws"] / n,
            "dynamics.steps_per_s": _ratio(steps, stat("dynamics.run", 2) / speed),
            "dynamics.enabled_units.calls_per_step": _ratio(stat("dynamics.enabled_units", 0), steps),
            "dynamics.enabled_units.fired_per_scanned": _ratio(firings, c["dynamics.enabled_units.scanned"]),
            "dynamics.reduce_unit.calls_per_firing": _ratio(stat("dynamics.reduce_unit", 0), firings),
            "nanddag.synth_family.limit_hits": hits.get("nanddag.synth_family", 0) / n,
            "nanddag.synth_family.gates": c["nanddag.synth_family.gates"] / n,
            "nanddag.run_vs_oracle": ratio or 0.0,
            "serialize.trace_to_jsonl.bytes": c["serialize.trace_to_jsonl.bytes"] / n,
            "fail_frac": _ratio(meter.failed + sum(hits.values()), meter.attempted),
        }
    )
    return out


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing decides set iteration order, and with it the order
        # of allocations and frees: under a random hash seed the peak memory
        # of the same work differs by up to a fifth between processes.
        # Replace this process by one with a fixed hash seed.
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    src = ROOT / "src"
    if not (src / "ctrlcirc" / "__init__.py").is_file():
        print(f"error: no ctrlcirc sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    if args.setup_only:
        # Reference loops bracket the set-up; their own CPU time is left out.
        t0 = process_time()
        references = [time_reference() for _ in range(SETUP_REFERENCES)]
        reference_cpu_s = process_time() - t0
        lib, state, tracer = set_up(wl, args.seed, args.trace)
        cpu_s = process_time() - reference_cpu_s
        references += [time_reference() for _ in range(SETUP_REFERENCES)]
        print(f"{READY} {cpu_s * REFERENCE_S / statistics.median(references)!r}", flush=True)
        wl.teardown(state)
        return 0
    lib, state, tracer = set_up(wl, args.seed, args.trace)
    setup_stats = tracer.take()[0] if tracer else {}
    meter = Meter(tracer)
    passes = []
    try:
        oracle = time_oracle(lib, state, ORACLE_LOOPS) if "vectors" in state else None
        setup_times = [timed_setup(args)]
        elapsed = 0.0
        while not passes or elapsed < args.seconds:
            gc.collect()
            t0 = perf_counter()
            passes.append(wl.run_pass(lib, state, meter, first=not passes))
            elapsed += perf_counter() - t0
            if len(passes) == 1:
                first_pass_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if len(setup_times) < SETUPS:
                setup_times.append(timed_setup(args))
        while len(setup_times) < SETUPS:
            setup_times.append(timed_setup(args))
    finally:
        wl.teardown(state)

    e2e = end_to_end(setup_times, passes, first_pass_rss_mb)
    ratio = run_vs_oracle(passes, oracle) if oracle else None
    metrics = per_layer(tracer, setup_stats, meter, passes, ratio) if tracer else e2e
    units = PER_LAYER if tracer else END_TO_END

    latencies = [x for p in passes for x in p.use.values()]
    run_s = sum(t for p in passes for t in p.run.values())
    steps = sum(p.steps for p in passes)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "measured_s": elapsed,
        "setup_s": setup_times,
        "end_to_end": e2e,
        "pass_build_s": [sum(p.build.values()) for p in passes],
        "pass_use_s": [sum(p.use.values()) for p in passes],
        "use_ops": len(latencies),
        "use_ms_p50": 1000 * percentile(latencies, 0.5) if latencies else None,
        "use_ms_p99": 1000 * percentile(latencies, 0.99) if len(latencies) >= 1000 else None,
        "steps_per_s": steps / run_s if run_s else None,
        "run_vs_oracle": ratio,
        "limit_hit_calls": sorted(meter.limit_calls),
        "trace_sha256": state.get("digest"),
        "attempted": meter.attempted,
        "failed": meter.failed,
        "limit_hits": sum(meter.limit_hits.values()),
        "failures": meter.messages,
        "python": platform.python_version(),
    }

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(passes)} passes in {elapsed:.2f} s")
    for name, value in e2e.items():
        basis = f"median of {SETUPS} set-up processes" if name == "setup_s" else "after the first pass" if name == "peak_rss_mb" else f"typical of {len(passes)} passes"
        print(f"  {name:<12} {value:>14.6f} {END_TO_END[name]:<4} ({basis})")
    if summary["use_ms_p50"] is not None:
        p99 = summary["use_ms_p99"]
        print(f"  use latency  p50 {summary['use_ms_p50']:.4f} ms" + (f", p99 {p99:.4f} ms" if p99 else "") + f" over {len(latencies)} operations")
    if summary["limit_hit_calls"]:
        print(f"  limit hits ({sum(meter.limit_hits.values())}): " + "; ".join(summary["limit_hit_calls"]))
    for msg in meter.messages:
        print(f"  FAILED: {msg}")
    print("summary: " + json.dumps(summary, sort_keys=True))

    if tracer:
        out_dir = Path(__file__).resolve().parent / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")

    result = {
        "correct": meter.failed == 0,
        "attempted": meter.attempted,
        "failed": meter.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
