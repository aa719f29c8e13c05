"""Outside-in tracer: spans around calls into dpfedsim's public functions.

Nothing under ``src/`` knows about it. Each function is replaced, for the
duration of a ``with Tracer():`` block, in the namespace where its caller
looks it up: ``engine`` imports the regression and noise functions by name,
``harness`` imports the data, constants and engine entry points by name,
``cli`` imports the ``cmd_*`` drivers by name, and ``bounds`` functions are
looked up on the module. Spans stay in memory until the benchmark writes them
out; the self time of a span is its duration minus the durations of its
child spans.
"""
from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter


def _count_clipped(args, result, counters):
    # clip_gradient returns its input object unchanged when no clipping happens
    counters["clipped"] += result is not args[0]


def _count_rounds(args, result, counters):
    counters["rounds"] += len(result.records)
    counters["diverged_repeats"] += result.diverged


def _count_rows(args, result, counters):
    train, holdout = result
    counters["rows_loaded"] += train.shape[0] + holdout.shape[0]


# (module, attribute the caller looks up, span name, optional counter hook)
PATCH_POINTS = [
    ("dpfedsim.cli", "cmd_run", "harness.cmd_run", None),
    ("dpfedsim.cli", "cmd_validate", "harness.cmd_validate", None),
    ("dpfedsim.harness", "parse_config", "config.parse_config", None),
    ("dpfedsim.harness", "build_experiment", "harness.build_experiment", None),
    ("dpfedsim.harness", "run_repeats", "harness.run_repeats", None),
    ("dpfedsim.harness", "synth_regression", "data.synth_regression", None),
    ("dpfedsim.harness", "load_csv", "data.load_csv", _count_rows),
    ("dpfedsim.harness", "sorted_partition", "data.sorted_partition", None),
    ("dpfedsim.harness", "problem_constants", "regression.problem_constants", None),
    ("dpfedsim.harness", "pilot_gradient_bound", "engine.pilot_gradient_bound", None),
    ("dpfedsim.harness", "run_federation", "engine.run_federation", _count_rounds),
    ("dpfedsim.engine", "client_update", "engine.client_update", None),
    ("dpfedsim.engine", "aggregate", "engine.aggregate", None),
    ("dpfedsim.engine", "clip_gradient", "regression.clip_gradient", _count_clipped),
    ("dpfedsim.engine", "mse_gradient", "regression.mse_gradient", None),
    ("dpfedsim.engine", "noise_stream", "mechanisms.noise_stream", None),
    ("dpfedsim.engine", "sample_noise", "mechanisms.sample_noise", None),
    ("dpfedsim.bounds", "convergence_bound", "bounds.convergence_bound", None),
]


class Tracer:
    """Patch every point in ``PATCH_POINTS`` on entry and restore it on exit."""

    def __init__(self):
        # one entry per span, in start order; flat arrays keep the cyclic
        # garbage collector from walking every span during the traced run
        self.names: list = []  # span names, indexed by name_ids
        self.name_ids = array("i")
        self.parents = array("q")  # index of the enclosing span, -1 at the root
        self.starts = array("d")
        self.ends = array("d")
        self.counters: Counter = Counter()
        self._stack: list = []
        self._saved: list = []

    def __enter__(self) -> "Tracer":
        for module_name, attr, name, hook in PATCH_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, hook))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def wrap(self, name: str, fn, hook=None):
        """Return ``fn`` recording one span per call under ``name``."""
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, counters = self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result, counters)
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        child = [0.0] * len(durations)
        for parent, duration in zip(self.parents, durations):
            if parent >= 0:
                child[parent] += duration
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for name_id, duration, inner in zip(self.name_ids, durations, child):
            calls[name_id] += 1
            total[name_id] += duration
            own[name_id] += duration - inner
        return {name: (calls[i], total[i], own[i]) for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        """Write the spans as TSV: index, name, parent, start and end in ns from the first."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tparent\tstart_ns\tend_ns\n")
            for index, (name_id, parent, start, end) in enumerate(
                    zip(self.name_ids, self.parents, self.starts, self.ends)):
                fh.write(f"{index}\t{self.names[name_id]}\t{parent}\t"
                         f"{round((start - origin) * 1e9)}\t{round((end - origin) * 1e9)}\n")


def layer_metrics(summary: dict, counters: Counter, wall_s: float) -> dict:
    """The benchmark's per-layer metrics from one traced command."""

    def calls(name):
        return summary.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return summary.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return summary.get(name, (0, 0.0, 0.0))[2]

    clip_calls = calls("regression.clip_gradient")
    below_root = sum(s for name, (_, _, s) in summary.items() if name != "cli.main")
    return {
        "regression.clip_s": own("regression.clip_gradient"),
        "regression.clip_calls": clip_calls,
        "regression.clip_active_frac": counters["clipped"] / clip_calls if clip_calls else 0.0,
        "regression.gradient_s": own("regression.mse_gradient"),
        "regression.gradient_calls": calls("regression.mse_gradient"),
        "regression.constants_s": own("regression.problem_constants"),
        "engine.client_update_self_s": own("engine.client_update"),
        "engine.client_update_calls": calls("engine.client_update"),
        "engine.round_self_s": own("engine.run_federation"),
        "engine.rounds": counters["rounds"],
        "engine.aggregate_s": own("engine.aggregate"),
        "engine.aggregate_calls": calls("engine.aggregate"),
        "engine.diverged_repeats": counters["diverged_repeats"],
        "engine.pilot_s": total("engine.pilot_gradient_bound"),
        "mechanisms.stream_s": own("mechanisms.noise_stream"),
        "mechanisms.stream_calls": calls("mechanisms.noise_stream"),
        "mechanisms.sample_s": own("mechanisms.sample_noise"),
        "mechanisms.sample_calls": calls("mechanisms.sample_noise"),
        "data.load_csv_s": own("data.load_csv"),
        "data.partition_s": own("data.sorted_partition"),
        "data.rows_loaded": counters["rows_loaded"],
        "data.synth_s": own("data.synth_regression"),
        "config.parse_s": own("config.parse_config"),
        "bounds.convergence_bound_s": own("bounds.convergence_bound"),
        "bounds.convergence_bound_calls": calls("bounds.convergence_bound"),
        "harness.validate_self_s": own("harness.cmd_validate"),
        "harness.output_self_s": own("harness.cmd_run"),
        "harness.build_experiment_s": total("harness.build_experiment"),
        "harness.run_repeats_s": total("harness.run_repeats"),
        "cli.self_s": own("cli.main"),
        "trace.attributed_frac": below_root / wall_s,
        "trace.spans": sum(c for c, _, _ in summary.values()),
    }
