"""Layered benchmark of the fedgames CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
``--workload all`` runs every workload in turn.

For one workload the benchmark
  1. writes the workload's config, generated from ``--seed``;
  2. times SETUP_REPS fresh ``python -m fedgames.cli run --config C --dry-run``
     processes (import, config validation, one Scenario per cell), each
     divided by the host factor of ``calib.py``: ``setup_s`` is the median;
  3. runs the workload command in a fresh process (``child.py``) again and
     again until ``--seconds`` have passed. Each repetition yields
     agent-steps per second (completed agent-steps / wall time of
     ``fedgames.cli.main``, divided by the host factor of ``calib.py``)
     and the process's peak RSS; the medians are reported. Failed cells
     are read from the CLI's ``solver failure`` lines and exit code, and
     every repetition's outputs are checked;
  4. with ``--trace 1``, runs the command once more with the per-layer
     wrappers of ``tracer.py`` installed and reports the per-layer metrics
     and the tracing overhead against the untraced median.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines above it
record the environment, the resolved sizes, each repetition, the failure
share, the outputs fingerprint and (traced) each layer. Spans and the full
record go to ``.perfbench_work/<workload>/record.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
from calib import START_COMMAND, START_REFERENCE_S  # noqa: E402
from workloads import WORKLOADS, cli_failures  # noqa: E402

SETUP_REPS = 7
MIN_REPS = 3
CHILD_TIMEOUT_S = 150
# one BLAS thread per workload process: the load comes from one process with
# no more threads than cores, and small-matrix BLAS gains nothing from more
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "agent_steps_per_s": "agent-steps/s",
    "peak_rss_mb": "MB",
}

# name -> (tracer layer, measure, unit)
PER_LAYER = {
    "cli.run_episode.calls": ("harness.run_episode", "calls", "count"),
    "cli.round0_dump.calls": ("cli.round0_dump", "calls", "count"),
    "cli.round0_dump.busy_s": ("cli.round0_dump", "busy_s", "s"),
    "cli.cmd.self_s": ("cli.cmd", "self_s", "s"),
    "io.write.calls": ("io.write", "calls", "count"),
    "io.write.busy_s": ("io.write", "busy_s", "s"),
    "io.bytes_written": ("io.write", "bytes", "B"),
    "datasets.build.calls": ("datasets.build", "calls", "count"),
    "datasets.build.busy_s": ("datasets.build", "busy_s", "s"),
    "harness.run_episode.busy_s": ("harness.run_episode", "busy_s", "s"),
    "harness.run_episode.self_s": ("harness.run_episode", "self_s", "s"),
    "harness.noise.calls": ("harness.noise", "calls", "count"),
    "harness.noise.busy_s": ("harness.noise", "busy_s", "s"),
    "harness.finalize.busy_s": ("harness.finalize", "busy_s", "s"),
    "harness.step.busy_s": ("harness.step", "busy_s", "s"),
    "harness.aggregate.busy_s": ("harness.aggregate", "busy_s", "s"),
    "harness.bank.calls": ("harness.bank", "calls", "count"),
    "harness.bank.busy_s": ("harness.bank", "busy_s", "s"),
    "encoders.encode.calls": ("encoders.encode", "calls", "count"),
    "encoders.encode.busy_s": ("encoders.encode", "busy_s", "s"),
    "model.moments.calls": ("model.moments", "calls", "count"),
    "model.moments.busy_s": ("model.moments", "busy_s", "s"),
    "nash_full.backward.calls": ("nash_full.backward", "calls", "count"),
    "nash_full.backward.busy_s": ("nash_full.backward", "busy_s", "s"),
    "nash_full.action.busy_s": ("nash_full.action", "busy_s", "s"),
    "nash_reduced.backward.calls": ("nash_reduced.backward", "calls", "count"),
    "nash_reduced.backward.busy_s": ("nash_reduced.backward", "busy_s", "s"),
    "nash_reduced.action.calls": ("nash_reduced.action", "calls", "count"),
    "nash_reduced.action.busy_s": ("nash_reduced.action", "busy_s", "s"),
    "nash_meanfield.backward.calls": ("nash_meanfield.backward", "calls", "count"),
    "nash_meanfield.backward.busy_s": ("nash_meanfield.backward", "busy_s", "s"),
    "nash_meanfield.forward.busy_s": ("nash_meanfield.forward", "busy_s", "s"),
    "nash_meanfield.action.calls": ("nash_meanfield.action", "calls", "count"),
    "nash_meanfield.action.busy_s": ("nash_meanfield.action", "busy_s", "s"),
    "ridge.action.calls": ("ridge.action", "calls", "count"),
    "ridge.action.busy_s": ("ridge.action", "busy_s", "s"),
    "spawner.resample.calls": ("spawner.resample", "calls", "count"),
    "spawner.resample.busy_s": ("spawner.resample", "busy_s", "s"),
    "spawner.ortho.calls": ("spawner.ortho", "calls", "count"),
    "spawner.ortho.busy_s": ("spawner.ortho", "busy_s", "s"),
    "spawner.ortho.hard_cases": ("spawner.ortho", "hard_cases", "count"),
    "spawner.score.calls": ("spawner.score", "calls", "count"),
    "spawner.score.busy_s": ("spawner.score", "busy_s", "s"),
    "diagnostics.simulate.calls": ("diagnostics.simulate", "calls", "count"),
    "diagnostics.simulate.busy_s": ("diagnostics.simulate", "busy_s", "s"),
}
OVERHEAD = ("trace.overhead_share", "ratio")


def _env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _load_baseline() -> dict:
    return json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))


def measure_setup(cfg_path: Path, reps: int) -> list[dict]:
    """Fresh dry-run processes, each after a START_COMMAND process that
    gives its host factor; the first, untimed pair writes the byte-code
    caches a user's later runs would find."""
    dry_run = [sys.executable, "-m", "fedgames.cli", "run", "--config", str(cfg_path), "--dry-run"]
    times = []
    for i in range(reps + 1):
        start_s, _ = _timed(START_COMMAND)
        wall_s, proc = _timed(dry_run)
        if proc.returncode != 0 or "cells:" not in proc.stdout:
            raise RuntimeError(f"dry run failed (exit {proc.returncode}): {proc.stderr.strip()[-500:]}")
        if i:
            host_factor = start_s / START_REFERENCE_S
            times.append({"wall_s": wall_s, "host_factor": host_factor, "s": wall_s / host_factor})
    return times


def _timed(cmd: list) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start, proc


def run_rep(workload, cfg_path: Path, cells: dict, work: Path, trace: bool) -> dict:
    """One fresh workload process, its failures and the checks of its outputs."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    rec_path = work / "child.json"
    rec_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--record", str(rec_path)]
    cmd += ["--trace"] if trace else []
    cmd += ["--", workload.command, "--config", str(cfg_path), "--out", str(out)]
    _, proc = _timed(cmd)
    if proc.returncode != 0 or not rec_path.exists():
        raise RuntimeError(f"workload process failed (exit {proc.returncode}): {proc.stderr.strip()[-800:]}")
    rec = json.loads(rec_path.read_text(encoding="utf-8"))

    failed = cli_failures(proc.stderr, cells)
    bad = {}
    if rec["rc"] == 0:
        bad = workload.check(out, cells)
    elif not failed:  # a crash or exit without a per-cell line: every cell failed
        last = proc.stderr.strip().splitlines()[-1:] or [""]
        failed = {cell: f"exit {rec['rc']}: {last[0]}" for cell in cells}
    done = [c for c in cells if c not in failed and c not in bad]
    rec.update(
        cli_failed={str(c): m for c, m in failed.items()},
        check_failed={str(c): m for c, m in bad.items()},
        n_failed=len(set(failed) | set(bad)),
        steps=sum(cells[c] for c in done),
    )
    rec["steps_per_s"] = rec["steps"] * rec["host_factor"] / rec["wall_s"]
    return rec


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 setup_reps: int = SETUP_REPS, min_reps: int = MIN_REPS, log=print) -> dict:
    """Measure one workload; returns the record whose ``result`` is the
    contract's JSON object (end-to-end metrics, or per-layer when traced)."""
    workload = WORKLOADS[name]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = workload.config(seed, tiny)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    cells = workload.cells(cfg)
    sizes = {k: cfg[k] for k in ("params", "mc_samples", "dataset", "encoder", "ridge", "spawner",
                                 "policies", "n_grid", "seeds", "convergence") if k in cfg}
    log(f"workload {name} seed={seed} seconds={seconds} trace={int(trace)} command=fedgames {workload.command}")
    log(f"sizes {json.dumps(sizes, sort_keys=True)}")

    setup = measure_setup(cfg_path, setup_reps)
    log(f"setup {len(setup)} dry runs, wall s (host factor): "
        + " ".join(f"{t['wall_s']:.4f} ({t['host_factor']:.3f})" for t in setup))

    reps = []
    start = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - start < seconds:
        rec = run_rep(workload, cfg_path, cells, work, trace=False)
        reps.append(rec)
        log(
            f"rep {len(reps)}: exit {rec['rc']}, wall {rec['wall_s']:.4f} s, host factor {rec['host_factor']:.3f}, "
            f"{len(cells) - rec['n_failed']}/{len(cells)} cells ok, {rec['steps']} agent-steps, "
            f"{rec['steps_per_s']:.1f} agent-steps/s, peak RSS {rec['peak_rss_mb']:.1f} MB, "
            f"fingerprint {rec['fingerprint']}"
        )
        for cell, msg in {**rec["cli_failed"], **rec["check_failed"]}.items():
            log(f"  failed {cell}: {msg}")
    env = dict(reps[0]["env"], workload_blas_env=THREAD_ENV["OPENBLAS_NUM_THREADS"])
    log(f"env {json.dumps(env, sort_keys=True)}")

    traced = run_rep(workload, cfg_path, cells, work, trace=True) if trace else None
    all_reps = reps + ([traced] if traced else [])
    attempted = len(cells) * len(all_reps)
    failed = sum(r["n_failed"] for r in all_reps)
    fingerprints = {r["fingerprint"] for r in all_reps if r["rc"] == 0}
    correct = not any(r["check_failed"] for r in all_reps) and len(fingerprints) <= 1
    if len(fingerprints) > 1:
        log(f"outputs differ between repetitions of the same config: {sorted(fingerprints)}")

    e2e = {
        "setup_s": statistics.median(t["s"] for t in setup),
        "agent_steps_per_s": statistics.median(r["steps_per_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    raw = {
        "setup_s": statistics.median(t["wall_s"] for t in setup),
        "agent_steps_per_s": statistics.median(r["steps"] / r["wall_s"] for r in reps),
    }
    log(f"failed_share {failed / attempted:.6g} ratio ({failed} of {attempted} cells)")
    _report_outputs(name, None if tiny else seed, reps[0], log)
    for metric, unit in END_TO_END.items():
        log(f"metric {metric} {_fmt(e2e[metric])} {unit}")
    log("raw, not host-normalized: " + ", ".join(f"{m} {_fmt(v)} {END_TO_END[m]}" for m, v in raw.items()))

    layer_metrics = {}
    if traced:
        layers = traced["layers"]
        for metric, (layer, measure, unit) in PER_LAYER.items():
            if layer in layers:
                layer_metrics[metric] = {"value": layers[layer][measure], "unit": unit}
        absent = sorted({layer for layer, _, _ in PER_LAYER.values()} - set(layers))
        if traced["missing_targets"]:
            log(f"trace: names not found: {', '.join(traced['missing_targets'])}")
        if absent:
            log(f"trace: absent layers (not reported): {', '.join(absent)}")
        normalized = [r["wall_s"] / r["host_factor"] for r in reps]
        overhead = traced["wall_s"] / traced["host_factor"] / statistics.median(normalized) - 1.0
        layer_metrics[OVERHEAD[0]] = {"value": overhead, "unit": OVERHEAD[1]}
        for metric, v in layer_metrics.items():
            log(f"layer {metric} {_fmt(v['value'])} {v['unit']}")

    metrics = layer_metrics if trace else {m: {"value": e2e[m], "unit": u} for m, u in END_TO_END.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": name, "seed": seed, "env": env, "sizes": sizes, "setup_s": setup,
        "end_to_end": e2e, "raw": raw, "failed_share": failed / attempted,
        "reps": [{k: v for k, v in r.items() if k != "spans"} for r in all_reps],
        "spans": traced["spans"] if traced else None, "result": result,
    }
    (work / "record.json").write_text(json.dumps(record), encoding="utf-8")
    return record


def _report_outputs(name: str, seed: int | None, rep: dict, log) -> None:
    """Compare the outputs fingerprint with the seed-state value recorded in
    baseline.json (seed None: a size with no recorded values). A different
    value means the outputs changed: not a failure, but a change the PR
    that causes it must explain."""
    baseline = _load_baseline()
    recorded = baseline["fingerprints"].get(name, {}).get(str(seed))
    fp = rep["fingerprint"]
    if fp is None:
        log(f"outputs: none written (exit {rep['rc']})")
    elif recorded is None:
        log(f"outputs fingerprint {fp} (no seed-state value recorded for this seed and size)")
    elif fp == recorded:
        log(f"outputs fingerprint {fp} unchanged from the seed state")
    else:
        log(f"outputs changed: fingerprint {fp}, seed state {recorded}")
    defect = baseline["known_defects"].get(name)
    if defect:
        log(f"known defect: {defect['cause']} (seed-state failed_share {defect['failed_share']})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "fedgames" / "cli.py").is_file():
        print(f"perfbench: no fedgames sources under {SRC}; run from the root of a fedgames checkout",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    if len(records) == 1:
        result = records[0]["result"]
    else:  # every workload's end-to-end and (traced) per-layer metrics
        metrics = {}
        for rec in records:
            e2e = {m: {"value": rec["end_to_end"][m], "unit": u} for m, u in END_TO_END.items()}
            metrics.update({f"{rec['workload']}:{m}": v for m, v in e2e.items()})
            if args.trace:
                metrics.update({f"{rec['workload']}:{m}": v for m, v in rec["result"]["metrics"].items()})
        result = {
            "correct": all(r["result"]["correct"] for r in records),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "metrics": metrics,
        }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
