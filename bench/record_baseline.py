#!/usr/bin/env python3
"""Run every workload and write ``bench/baseline.json``.

Run from the repository root:

    python3 bench/record_baseline.py

Each workload of ``BENCHMARK.json`` runs untraced once for each of the
seeds 1 to 10, for ``run_seconds``, then traced once with seed 1. The file
records the machine and commit, the seeds, each workload's reason, the
median and quartile spread of every end-to-end metric and of the untraced
``run_vs_oracle`` ratio, the traced per-layer metrics, the tracing overhead
(traced minus untraced end-to-end values for seed 1), the calls that hit the
per-call limit, and which workload and metric now measure each ROADMAP item.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import CALL_LIMIT_S, REFERENCE_S, WORKLOADS  # noqa: E402

SEEDS = list(range(1, 11))

ROADMAP = {
    "2": {"workload": "nand_large", "end_to_end": ["build_s", "use_s"], "per_layer": ["model.is_sound.self_s", "dynamics.enabled_units.self_s", "dynamics.steps_per_s"]},
    "3": {"workload": "nand_sweep", "end_to_end": ["ops_per_s", "use_s"], "per_layer": ["dynamics.run.self_s"]},
    "4": {"workload": "compose_deep", "end_to_end": ["build_s"], "per_layer": ["colimits.pushout.self_s", "colimits.pushout.operand_elems"]},
    "5a": {"workload": "compose_deep", "end_to_end": ["use_s"], "per_layer": ["nanddag.synth_family.limit_hits", "nanddag.synth_family.gates", "fail_frac"]},
    "5b": {"workload": "compose_deep", "end_to_end": ["use_s"], "per_layer": ["colimits.is_isomorphic.limit_hits", "fail_frac"]},
}


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, "bench/run_bench.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(next(line for line in lines if line.startswith("summary: "))[len("summary: "):])
    return json.loads(lines[-1]), summary


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q[0], "q3": q[2], "iqr_over_median": (q[2] - q[0]) / med if med else None, "values": values}


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    out = {
        "provenance": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "platform": platform.platform(),
            "commit": commit(),
            "run_seconds": seconds,
            "seeds": SEEDS,
            "traced_seed": SEEDS[0],
            "call_limit_cpu_s": CALL_LIMIT_S,
            "setup_s": "median of 7 set-ups per run, each a fresh process: its CPU time from its start to the end of its set-up, at the reference speed",
            "time_unit": f"CPU seconds of the benchmark's thread, scaled to the speed at which the reference loop (workloads.time_reference) takes {REFERENCE_S} s",
        },
        "roadmap": ROADMAP,
        "workloads": {},
    }
    for name in (w["name"] for w in spec["workloads"]):
        e2e: dict[str, list[float]] = {}
        runs = []
        for seed in SEEDS:
            result, summary = run(name, seed, seconds, 0)
            runs.append({k: summary[k] for k in ("seed", "passes", "attempted", "failed", "limit_hits", "use_ops", "use_ms_p50", "use_ms_p99", "steps_per_s", "run_vs_oracle")} | {"correct": result["correct"]})
            for metric, v in result["metrics"].items():
                e2e.setdefault(metric, []).append(v["value"])
            print(f"{name} seed {seed}: correct={result['correct']} " + " ".join(f"{m}={v['value']:.6g}" for m, v in result["metrics"].items()), flush=True)
        traced, traced_summary = run(name, SEEDS[0], seconds, 1)
        untraced_first = {m: vals[0] for m, vals in e2e.items()}
        ratios = [r["run_vs_oracle"] for r in runs if r["run_vs_oracle"] is not None]
        out["workloads"][name] = {
            "why": WORKLOADS[name].why,
            "end_to_end": {m: spread(vals) for m, vals in e2e.items()},
            "run_vs_oracle": spread(ratios) if ratios else None,
            "runs": runs,
            "limit_hit_calls": traced_summary["limit_hit_calls"],
            "trace_sha256": traced_summary["trace_sha256"],
            "per_layer": {m: v["value"] for m, v in traced["metrics"].items()},
            "tracing_overhead": {
                m: {"traced": traced_summary["end_to_end"][m], "untraced": untraced_first[m], "difference": traced_summary["end_to_end"][m] - untraced_first[m]}
                for m in untraced_first
            },
        }
        print(f"{name} traced: limit hits {traced_summary['limit_hit_calls']}", flush=True)
    (BENCH / "baseline.json").write_text(json.dumps(out, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
