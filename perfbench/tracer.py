"""Per-layer tracing of one fedgames CLI run, from outside the package.

The tracer replaces the module-level names through which one fedgames
module calls another (``fedgames.cli.run_episode``,
``fedgames.harness.rfn_encode``, ...) with timing wrappers, and puts the
originals back on ``uninstall``. Nothing under ``src/`` is edited.

Two kinds of layer:

* ``SPAN`` layers are called once per cell, per round or more coarsely.
  Each call is kept as a span: layer, start, end, parent span, cell id.
* ``FOLD`` layers are called per step or per agent (~250k calls per run on
  the largest workload). Their calls are folded into (calls, busy) counters
  under the enclosing span instead of being kept one by one.

A span's self time is its duration minus the time of the wrapped calls made
directly inside it. A layer whose every target name is missing (removed or
renamed by a later change) is reported as absent, never as zero.
"""

from __future__ import annotations

import importlib
import json
import os
import time

SPAN = "span"
FOLD = "fold"

# layer -> (kind, "module:attribute" names the layer is reached through)
LAYERS = {
    "cli.cmd": (SPAN, ("fedgames.cli:cmd_run", "fedgames.cli:cmd_convergence")),
    "harness.run_episode": (SPAN, ("fedgames.cli:run_episode",)),
    "cli.round0_dump": (SPAN, ("fedgames.cli:_round0_coeff_dump",)),
    "io.write": (
        SPAN,
        (
            "fedgames.cli:export_run_record_json",
            "fedgames.cli:dump_coeffs",
            "fedgames.cli:write_jsonl",
            "fedgames.cli:export_gap_report_csv",
        ),
    ),
    # the CLI's round-0 dump imports build_dataset and _build_bank at call
    # time, so it sees the wrappers installed on their home modules
    "datasets.build": (SPAN, ("fedgames.harness:build_dataset", "fedgames.datasets:build_dataset")),
    "harness.bank": (SPAN, ("fedgames.harness:_build_bank",)),
    "harness.finalize": (SPAN, ("fedgames.harness:_finalize_metrics",)),
    "model.moments": (SPAN, ("fedgames.harness:estimate_moments", "fedgames.cli:estimate_moments")),
    "nash_full.backward": (SPAN, ("fedgames.harness:full_backward_pass", "fedgames.cli:full_backward_pass")),
    "nash_reduced.backward": (
        SPAN,
        (
            "fedgames.harness:reduced_backward_pass",
            "fedgames.cli:reduced_backward_pass",
            "fedgames.diagnostics:reduced_backward_pass",
        ),
    ),
    "nash_meanfield.backward": (
        SPAN,
        (
            "fedgames.harness:decentralized_backward_pass",
            "fedgames.cli:decentralized_backward_pass",
            "fedgames.diagnostics:decentralized_backward_pass",
        ),
    ),
    "nash_meanfield.forward": (
        SPAN,
        ("fedgames.harness:meanfield_forward", "fedgames.diagnostics:meanfield_forward"),
    ),
    "spawner.resample": (SPAN, ("fedgames.harness:resample_parameters",)),
    "spawner.ortho": (SPAN, ("fedgames.harness:ortho_solve",)),
    "diagnostics.simulate": (SPAN, ("fedgames.diagnostics:_simulate_mean_gap",)),
    "harness.noise": (FOLD, ("fedgames.harness:_rng",)),
    "encoders.encode": (FOLD, ("fedgames.harness:rfn_encode", "fedgames.harness:esn_encode")),
    "harness.step": (FOLD, ("fedgames.harness:step_dynamics",)),
    "harness.aggregate": (FOLD, ("fedgames.harness:aggregate_predictions",)),
    "spawner.score": (FOLD, ("fedgames.harness:score_agents",)),
    "nash_full.action": (FOLD, ("fedgames.harness:full_action",)),
    "nash_reduced.action": (FOLD, ("fedgames.harness:reduced_action",)),
    "nash_meanfield.action": (FOLD, ("fedgames.harness:decentralized_action",)),
    "ridge.action": (FOLD, ("fedgames.harness:ridge_action",)),
}


def _cell_id(layer, args):
    """Cell label for the spans that start a cell; None means inherit."""
    if layer in ("harness.run_episode", "cli.round0_dump"):  # (policy, scenario, seed, ...)
        policy, scenario, seed = args[:3]
        return f"policy={policy} N={scenario.params.population_N} seed={seed}"
    if layer == "diagnostics.simulate":  # _simulate_mean_gap(params, ...)
        return f"N={args[0].population_N}"
    return None


def _bytes_written(fn, args) -> int:
    """Size of the file an io writer wrote, less the digits of the measured
    runtime_ms: the one value that differs between runs of the same config
    (results_fingerprint blanks it too)."""
    size = os.path.getsize(args[-1])
    if fn.__name__ == "export_run_record_json":
        size -= len(json.dumps(args[0].runtime_ms))
    return size


class Tracer:
    """Installs the wrappers, records spans and folded counters."""

    def __init__(self):
        self.spans = []  # [layer, start, end, parent, cell]
        self.child_s = []  # per span: time of wrapped calls made directly inside it
        self.folds = {}  # (parent span, layer) -> [calls, busy_s]
        self.extra = {"io.write": {"bytes": 0}, "spawner.ortho": {"hard_cases": 0}}
        self.missing = []  # "module:attribute" names that did not resolve
        self.present = set()  # layers with at least one resolved name
        self._stack = []
        self._installed = []  # (module, attribute, original)

    def install(self):
        for layer, (kind, targets) in LAYERS.items():
            for target in targets:
                mod_name, attr = target.split(":")
                try:
                    module = importlib.import_module(mod_name)
                    original = getattr(module, attr)
                except (ImportError, AttributeError):
                    self.missing.append(target)
                    continue
                make = self._span_wrapper if kind == SPAN else self._fold_wrapper
                setattr(module, attr, make(layer, original))
                self._installed.append((module, attr, original))
                self.present.add(layer)

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _span_wrapper(self, layer, fn):
        spans, child_s, stack = self.spans, self.child_s, self._stack
        extra = self.extra.get(layer)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            cell = _cell_id(layer, args)
            if cell is None and parent >= 0:
                cell = spans[parent][4]
            idx = len(spans)
            spans.append([layer, time.perf_counter(), None, parent, cell])
            child_s.append(0.0)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                spans[idx][2] = end
                stack.pop()
                if parent >= 0:
                    child_s[parent] += end - spans[idx][1]
            if layer == "io.write":
                extra["bytes"] += _bytes_written(fn, args)
            elif layer == "spawner.ortho":
                extra["hard_cases"] += int(bool(out.hard_case))
            return out

        return wrapper

    def _fold_wrapper(self, layer, fn):
        folds, child_s, stack = self.folds, self.child_s, self._stack

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = time.perf_counter() - start
                parent = stack[-1] if stack else -1
                counter = folds.get((parent, layer))
                if counter is None:
                    folds[(parent, layer)] = [1, busy]
                else:
                    counter[0] += 1
                    counter[1] += busy
                if parent >= 0:
                    child_s[parent] += busy

        return wrapper

    def layer_totals(self) -> dict:
        """layer -> {calls, busy_s, self_s[, extra counters]} for present layers."""
        totals = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for layer in self.present}
        for (layer, start, end, _, _), child in zip(self.spans, self.child_s):
            t = totals[layer]
            t["calls"] += 1
            t["busy_s"] += end - start
            t["self_s"] += end - start - child
        for (_, layer), (calls, busy) in self.folds.items():
            t = totals[layer]
            t["calls"] += calls
            t["busy_s"] += busy
            t["self_s"] += busy
        for layer, counters in self.extra.items():
            if layer in totals:
                totals[layer].update(counters)
        return totals

    def span_records(self) -> list:
        """Spans with their folded counters, for the run's record file."""
        folded = {}
        for (parent, layer), (calls, busy) in self.folds.items():
            folded.setdefault(parent, {})[layer] = {"calls": calls, "busy_s": busy}
        out = [
            {
                "name": layer,
                "start": start,
                "end": end,
                "parent": parent,
                "cell": cell,
                "folded": folded.get(i, {}),
            }
            for i, (layer, start, end, parent, cell) in enumerate(self.spans)
        ]
        if -1 in folded:
            out.append({"name": "(outside any span)", "folded": folded[-1]})
        return out
