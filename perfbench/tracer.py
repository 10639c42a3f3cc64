"""Span recorder for the traced benchmark run.

Spans are opened around calls into the public functions of each heavytail
module. The library is left untouched: ``Tracer.install`` rebinds each
function's name, in every heavytail module that imported it, to a wrapper
that records a span, and ``Tracer.uninstall`` puts the originals back.
Because a module looks its globals up at call time, calls a module makes
into its own public functions (``coefficient_matrix`` into ``ecdf_values``)
are recorded too.

Spans are kept in memory and written out once, when the run ends. Counts are
taken at the same boundaries. Work the tracer does itself (counting
exceedances, say) is timed and removed from the duration of every span that
was open while it ran, so it never shows up as a layer's time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, function) pairs whose calls become spans named "<module>.<function>".
TRACED = (
    ("noise", "sample_noise"),
    ("noise", "hill_tail_index"),
    ("graph", "random_scm"),
    ("simulate", "simulate"),
    ("estimators", "ecdf_values"),
    ("estimators", "coefficient_matrix"),
    ("ease", "ease"),
    ("ease", "ease_trace"),
    ("oracle", "gamma_population"),
    ("oracle", "psi_population"),
    ("evaluate", "score_order"),
    ("evaluate", "benchmark"),
    ("evaluate", "k_sensitivity"),
    ("formats", "dataset_to_csv"),
    ("formats", "dataset_from_csv"),
    ("formats", "read_json"),
    ("formats", "write_json"),
)

# CLI commands the workloads run; each is a span named "cli.<command>".
CLI_COMMANDS = ("simulate", "coefficients", "discover", "evaluate", "oracle",
                "tail_index", "benchmark")

# Span record fields.
NAME, START, END, PARENT, REPLICATE, EXCLUDED = range(6)


class Tracer:
    """Spans and counts of one traced pass or more."""

    def __init__(self, modules: dict):
        self.modules = modules  # as returned by heavytail_modules()
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.replicate = ""
        self._saved = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), 0.0,
                  self.stack[-1] if self.stack else -1, self.replicate, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[END] = time.perf_counter()
            self.stack.pop()

    def bookkeeping(self, work, *args) -> None:
        """Run tracer-side work and take its time out of every open span."""
        start = time.perf_counter()
        work(*args)
        spent = time.perf_counter() - start
        for index in self.stack:
            self.spans[index][EXCLUDED] += spent

    def install(self) -> None:
        for module_name, func_name in TRACED:
            original = getattr(self.modules[module_name], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original,
                                 _COUNTERS.get(func_name))
            for module in self.modules.values():
                if module.__dict__.get(func_name) is original:
                    self._saved.append((module, func_name, original))
                    setattr(module, func_name, wrapper)
        streams = self.modules["simulate"].scenario_streams
        for module in self.modules.values():
            if module.__dict__.get("scenario_streams") is streams:
                self._saved.append((module, "scenario_streams", streams))
                setattr(module, "scenario_streams", self._replicate_marker(streams))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _wrap(self, name, func, counter):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            if counter is not None:
                self.bookkeeping(counter, self, result, *args, **kwargs)
            return result
        return traced

    def _replicate_marker(self, func):
        # Every replicate of a grid draws its streams first, so the arguments
        # of that call name the replicate the following spans belong to.
        @functools.wraps(func)
        def marked(seed, n, p, alpha, rep):
            self.replicate = f"n{n}-p{p}-a{alpha:g}-r{rep}"
            return func(seed, n, p, alpha, rep)
        return marked


def _count_csv_write(tracer, result, data, path):
    tracer.counts["formats.csv_write_bytes"] += os.path.getsize(path)


def _count_csv_read(tracer, result, path):
    tracer.counts["formats.csv_read_bytes"] += os.path.getsize(path)


def _count_ranks(tracer, result, column):
    tracer.counts["estimators.rank_rows"] += len(result)


def _count_matrix(tracer, result, data, config):
    estimators = tracer.modules["estimators"]
    k = estimators.resolve_k(data.n, config)
    tails = [data.values, -data.values] if config.kind == "psi" else [data.values]
    exceedances = 0
    for values in tails:
        # strict exceedances over the (n - k)-th order statistic, as the estimator counts them
        thresholds = np.partition(values, data.n - k - 1, axis=0)[data.n - k - 1]
        exceedances += int(np.count_nonzero(values > thresholds))
    tracer.counts["estimators.pairs"] += data.p * (data.p - 1)
    tracer.counts["estimators.k_sum"] += k
    tracer.counts["estimators.exceedances"] += exceedances
    tracer.counts["estimators.exceedance_slots"] += k * data.p * len(tails)


def _count_ease(tracer, result, coefs):
    p = coefs.p
    tracer.counts["ease.steps"] += p
    tracer.counts["ease.score_evals"] += sum(r * (r - 1) for r in range(2, p + 1))


def _count_score(tracer, result, truth, order):
    tracer.counts["evaluate.ancestral_pairs"] += result.ancestral_pairs


def _count_edges(tracer, result, *args, **kwargs):
    tracer.counts["graph.edges"] += len(result.coefficients)


_COUNTERS = {
    "dataset_to_csv": _count_csv_write,
    "dataset_from_csv": _count_csv_read,
    "ecdf_values": _count_ranks,
    "coefficient_matrix": _count_matrix,
    "ease": _count_ease,
    "ease_trace": _count_ease,
    "score_order": _count_score,
    "random_scm": _count_edges,
}


def heavytail_modules() -> dict:
    """The heavytail submodules by short name, with the package itself as ''."""
    return {name.partition(".")[2]: module for name, module in sys.modules.items()
            if name == "heavytail" or name.startswith("heavytail.")}


def span_times(spans) -> tuple[dict, dict, dict]:
    """Per span name: number of calls, total net seconds and self seconds.

    Net time is the span's duration less the tracer's own work inside it;
    self time is net time less the net time of the span's children.
    """
    net = [s[END] - s[START] - s[EXCLUDED] for s in spans]
    child = [0.0] * len(spans)
    for index, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += net[index]
    calls, total, self_time = Counter(), defaultdict(float), defaultdict(float)
    for index, s in enumerate(spans):
        calls[s[NAME]] += 1
        total[s[NAME]] += net[index]
        self_time[s[NAME]] += net[index] - child[index]
    return calls, total, self_time


def nested_total(spans, name: str, under: str) -> float:
    """Net seconds of spans called ``name`` whose parent span is called ``under``."""
    return sum(s[END] - s[START] - s[EXCLUDED] for s in spans
               if s[NAME] == name and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == under)


def layer_metrics(tracer: Tracer, method_ms: float) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit).

    ``method_ms`` is the sum of the pass's results-table ``wall_ms`` column.
    """
    calls, total, self_time = span_times(tracer.spans)
    c = tracer.counts

    def ms(name):
        return 1000.0 * total.get(name, 0.0)

    read_ms = ms("formats.dataset_from_csv")
    matrix_ms = 1000.0 * self_time.get("estimators.coefficient_matrix", 0.0)
    matrix_calls = calls["estimators.coefficient_matrix"]
    sample_in_simulate = 1000.0 * nested_total(tracer.spans, "noise.sample_noise",
                                               "simulate.simulate")
    benchmark_calls = calls["evaluate.benchmark"]
    metrics = {
        "formats.csv_write_ms": (ms("formats.dataset_to_csv"), "ms"),
        "formats.csv_write_bytes": (c["formats.csv_write_bytes"], "bytes"),
        "formats.csv_read_ms": (read_ms, "ms"),
        "formats.csv_read_MBps": (
            c["formats.csv_read_bytes"] / 1e3 / read_ms if read_ms else 0.0, "MB/s"),
        "formats.json_ms": (ms("formats.read_json") + ms("formats.write_json"), "ms"),
        "noise.sample_ms": (ms("noise.sample_noise"), "ms"),
        "noise.hill_ms": (ms("noise.hill_tail_index"), "ms"),
        "simulate.ms": (ms("simulate.simulate"), "ms"),
        "simulate.calls": (calls["simulate.simulate"], "count"),
        "simulate.assign_ms": (ms("simulate.simulate") - sample_in_simulate, "ms"),
        "graph.random_scm_ms": (ms("graph.random_scm"), "ms"),
        "graph.random_scm_calls": (calls["graph.random_scm"], "count"),
        "graph.edges": (c["graph.edges"], "count"),
        "estimators.rank_ms": (ms("estimators.ecdf_values"), "ms"),
        "estimators.rank_rows": (c["estimators.rank_rows"], "count"),
        "estimators.matrix_ms": (matrix_ms, "ms"),
        "estimators.matrix_calls": (matrix_calls, "count"),
        "estimators.pairs": (c["estimators.pairs"], "count"),
        "estimators.pair_us": (
            1000.0 * matrix_ms / c["estimators.pairs"] if c["estimators.pairs"] else 0.0, "us"),
        "estimators.k": (c["estimators.k_sum"] / matrix_calls if matrix_calls else 0.0, "count"),
        "estimators.exceedance_fill": (
            c["estimators.exceedances"] / c["estimators.exceedance_slots"]
            if c["estimators.exceedance_slots"] else 0.0, "ratio"),
        "ease.ms": (ms("ease.ease") + ms("ease.ease_trace"), "ms"),
        "ease.calls": (calls["ease.ease"] + calls["ease.ease_trace"], "count"),
        "ease.steps": (c["ease.steps"], "count"),
        "ease.score_evals": (c["ease.score_evals"], "count"),
        "oracle.psi_ms": (ms("oracle.psi_population"), "ms"),
        "evaluate.score_ms": (ms("evaluate.score_order"), "ms"),
        "evaluate.ancestral_pairs": (c["evaluate.ancestral_pairs"], "count"),
        "evaluate.method_ms": (method_ms, "ms"),
        "evaluate.overhead_ms": (
            ms("evaluate.benchmark") - method_ms if benchmark_calls else 0.0, "ms"),
        "evaluate.k_sensitivity_ms": (ms("evaluate.k_sensitivity"), "ms"),
    }
    for command in CLI_COMMANDS:
        metrics[f"cli.{command}_ms"] = (ms(f"cli.{command}"), "ms")
    metrics["cli.overhead_ms"] = (
        1000.0 * sum(v for name, v in self_time.items() if name.startswith("cli.")), "ms")
    return metrics


def write_trace(path, workload: str, seed: int, env: dict, traced: list) -> None:
    """Write the spans of every traced pass, with per-name totals over all of them."""
    passes, summary = [], {}
    for index, wall, tracer in traced:
        origin = tracer.spans[0][START] if tracer.spans else 0.0
        passes.append({"pass": index, "wall_s": wall, "spans": [
            [s[NAME], round((s[START] - origin) * 1e6, 1), round((s[END] - origin) * 1e6, 1),
             s[PARENT], s[REPLICATE], round(s[EXCLUDED] * 1e6, 1)] for s in tracer.spans]})
        calls, total, self_time = span_times(tracer.spans)
        for name in calls:
            entry = summary.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            entry["calls"] += calls[name]
            entry["total_ms"] += 1000.0 * total[name]
            entry["self_ms"] += 1000.0 * self_time[name]
    path.write_text(json.dumps({
        "workload": workload, "seed": seed, "environment": env,
        "span_fields": ["name", "start_us", "end_us", "parent", "replicate", "excluded_us"],
        "summary": dict(sorted(summary.items())), "passes": passes}) + "\n")


class NullTracer:
    """Stands in for a Tracer in untraced passes."""

    @staticmethod
    def span(name: str):
        return contextlib.nullcontext()
