"""Smoke test of the benchmark itself, on a tiny size of every workload.

    python3 perfbench/smoke.py

Runs each workload twice, traced, and checks that
  * every metric that BENCHMARK.json names is printed with its unit;
  * every ``calls`` count, ``io.bytes_written`` and
    ``spawner.ortho.hard_cases`` repeats exactly across the two runs;
  * every name the tracer wraps resolves, and uninstalling restores it;
  * the outputs pass the benchmark's checks.
Exits 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import importlib
import json
import sys

import run
import tracer

EXACT = (".calls", "io.bytes_written", "spawner.ortho.hard_cases")


def check_tracer_restores(problems: list) -> None:
    sys.path.insert(0, str(run.SRC))
    before = {}
    for _, targets in tracer.LAYERS.values():
        for target in targets:
            mod, attr = target.split(":")
            before[target] = getattr(importlib.import_module(mod), attr)
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    problems += [f"tracer: {name} does not resolve" for name in t.missing]
    for target, original in before.items():
        mod, attr = target.split(":")
        if getattr(importlib.import_module(mod), attr) is not original:
            problems.append(f"tracer: {target} not restored")


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    problems = []
    check_tracer_restores(problems)
    for name in run.WORKLOADS:
        runs = []
        for _ in range(2):
            lines = []
            rec = run.run_workload(name, seed=1, seconds=0, trace=True, tiny=True,
                                   setup_reps=1, min_reps=1, log=lines.append)
            runs.append(rec)
            printed = {}
            for line in lines:
                parts = line.split()
                if parts[0] in ("metric", "layer"):
                    printed[parts[1]] = parts[3]
            for metric, unit in units.items():
                if printed.get(metric) != unit:
                    problems.append(f"{name}: {metric} printed as {printed.get(metric)!r}, want unit {unit!r}")
            if not rec["result"]["correct"]:
                problems.append(f"{name}: outputs failed the checks")
            missing = rec["reps"][-1]["missing_targets"]
            problems += [f"{name}: traced name {t} does not resolve" for t in missing]
        first, second = (r["result"]["metrics"] for r in runs)
        for metric in first:
            if metric.endswith(EXACT) and first[metric]["value"] != second.get(metric, {}).get("value"):
                problems.append(f"{name}: {metric} {first[metric]['value']} then {second[metric]['value']}")
        print(f"{name}: {len(first)} per-layer metrics checked", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
