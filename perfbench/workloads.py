"""The benchmark's workloads.

Each workload is closed-loop: one caller in one process issues each call
after the previous one returns. Constructing a workload builds its inputs
from the seed (this is set-up, before timing starts); ``run`` makes one
timed pass, a fixed sequence of steps, calls ``between_steps`` after each
step (outside its timing) and returns the wall time of each step by name,
and ``check`` then hashes the pass's bit-reproducible outputs and runs the
semantic checks, outside the timed region. ``rows`` is the number of sample
rows a pass simulates and ``evals`` the number of replicate x method
evaluations it scores.

* ``pipeline-tall``: the CLI file pipeline on one long heavy-tailed sample.
  File IO and ranking at large n dominate it, and it is the only workload
  that writes data files as well as reading them.
* ``grid-wide``: one wide grid cell through the library's ``benchmark``,
  one replicate per call and step. The p^2 pair sums of
  ``coefficient_matrix`` and the O(p^3) EASE loop dominate it; ranking and
  IO are minor.
* ``grid-paper``: the source paper's headline grid through the CLI
  ``benchmark`` command, one cell per command and step, then the
  exceedance-exponent sweep of acceptance test A6. It runs about 500 small
  replicates, so fixed costs per call of SCM draws and simulation count;
  ranking and noise sampling at n=10000 take most of its time.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

SWISS_ORDER = ["EURCHF", "NOVN", "ROG", "NESN"]
METHODS = ("ease_gamma", "ease_psi", "random_order")
SETTINGS = ("linear", "hidden_confounders", "nonlinear", "uniform_margins")
# Exponents of the k = floor(n ** e) calibration sweep of acceptance test A6.
A6_EXPONENTS = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
# Largest admissible mean off-diagonal |psi_hat - psi| on pipeline-tall; the
# package as first benchmarked gives 0.012-0.019 (seeds 3, 11 and 12).
PSI_ERROR_LIMIT = 0.05


@dataclass
class PassCheck:
    """Outputs of one pass: a digest per output and the outputs that failed.

    ``ops`` says how many operations (CLI commands, or replicate x method
    evaluations) produced each output; a failed output fails all of them.
    ``method_ms`` is the sum of the results table's ``wall_ms`` column, or 0
    for a workload without a results table.
    """

    digests: dict
    ops: dict
    failed: set = field(default_factory=set)
    method_ms: float = 0.0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def json_digest(doc) -> str:
    if isinstance(doc, dict):
        doc = {key: value for key, value in doc.items() if key != "meta"}
    return sha256(json.dumps(doc, sort_keys=True).encode())


def _cli(ht, tracer, command: str, argv: list) -> tuple[int, str]:
    """Run one CLI command in-process; returns its exit code and stdout."""
    out = io.StringIO()
    with tracer.span("cli." + command.replace("-", "_")), contextlib.redirect_stdout(out):
        try:
            code = ht.cli.main([command, *argv])
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, out.getvalue()


class PipelineTall:
    name = "pipeline-tall"
    n = 200_000
    p = 6

    def __init__(self, ht, seed: int, workdir: Path):
        self.ht = ht
        self.files = {name: str(workdir / name) for name in (
            "data.csv", "truth.json", "psi.json", "order.json", "oracle.json", "swiss.json")}
        f = self.files
        fixture = Path(ht.cli.__file__).parent / "fixtures" / "swiss_finance_psi.json"
        # (output name, command, arguments)
        self.steps = [
            ("simulate", "simulate",
             ["--setting", "linear", "--mode", "real", "--p", str(self.p), "--n", str(self.n),
              "--alpha", "1.5", "--seed", str(seed),
              "--out", f["data.csv"], "--truth", f["truth.json"]]),
            ("coefficients", "coefficients",
             ["--data", f["data.csv"], "--kind", "psi", "--out", f["psi.json"]]),
            ("discover", "discover", ["--matrix", f["psi.json"], "--out", f["order.json"]]),
            ("evaluate", "evaluate", ["--order", f["order.json"], "--truth", f["truth.json"]]),
            ("oracle", "oracle",
             ["--scm", f["truth.json"], "--kind", "psi", "--out", f["oracle.json"]]),
            ("tail-index", "tail-index",
             ["--data", f["data.csv"], "--column", "x0", "--k", "1000"]),
            ("discover-swiss", "discover", ["--matrix", str(fixture), "--out", f["swiss.json"]]),
        ]
        self.rows = self.n
        self.evals = 1

    def run(self, tracer, between_steps) -> dict:
        self.exits, self.stdout, times = {}, {}, {}
        for output, command, argv in self.steps:
            start = time.perf_counter()
            self.exits[output], self.stdout[output] = _cli(self.ht, tracer, command, argv)
            times[output] = time.perf_counter() - start
            between_steps()
        return times

    def check(self) -> PassCheck:
        f = self.files
        check = PassCheck(digests={}, ops={output: 1 for output, _, _ in self.steps})
        check.failed = {output for output, code in self.exits.items() if code != 0}
        # The JSON document each command writes; evaluate and tail-index print theirs.
        sources = {"coefficients": f["psi.json"], "discover": f["order.json"],
                   "oracle": f["oracle.json"], "discover-swiss": f["swiss.json"]}
        docs = {}
        for output, _, _ in self.steps[1:]:
            try:
                text = (Path(sources[output]).read_text() if output in sources
                        else self.stdout[output])
                docs[output] = json.loads(text)
                check.digests[output] = json_digest(docs[output])
            except (OSError, ValueError):
                docs[output] = None
                check.digests[output] = "missing"
                check.failed.add(output)
        try:
            check.digests["simulate"] = sha256(
                (sha256(Path(f["data.csv"]).read_bytes())
                 + json_digest(json.loads(Path(f["truth.json"]).read_text()))).encode())
        except (OSError, ValueError):
            check.digests["simulate"] = "missing"
            check.failed.add("simulate")

        swiss = docs["discover-swiss"]
        if swiss is None or swiss.get("pi_inverse") != SWISS_ORDER:
            check.failed.add("discover-swiss")
        estimate, truth = docs["coefficients"], docs["oracle"]
        if estimate is None or truth is None or psi_error(estimate, truth) >= PSI_ERROR_LIMIT:
            check.failed.add("coefficients")
        return check


def psi_error(estimate: dict, truth: dict) -> float:
    """Mean off-diagonal |estimate - truth| of two matrix documents."""
    diffs = [abs(a - b)
             for i, (row_a, row_b) in enumerate(zip(estimate["values"], truth["values"]))
             for j, (a, b) in enumerate(zip(row_a, row_b)) if i != j]
    return math.fsum(diffs) / len(diffs) if diffs else math.inf


def _result_digest(rows: list[list[str]]) -> str:
    """Digest of results CSV rows (header first) with the wall_ms column left out."""
    keep = [i for i, name in enumerate(rows[0]) if name != "wall_ms"]
    text = "\n".join(",".join(row[i] for i in keep) for row in rows)
    return sha256(text.encode())


def _render(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


class GridWide:
    name = "grid-wide"
    setting = "hidden_confounders"
    n = 5000
    p = 150
    reps = 4

    def __init__(self, ht, seed: int, workdir: Path):
        self.ht = ht
        # One benchmark call per replicate, each with its own seed, so that
        # each replicate is timed as a step of its own.
        self.seeds = [seed * self.reps + rep for rep in range(self.reps)]
        self.grid = ht.simulate.GridSpec(
            n_values=[self.n], p_values=[self.p], alpha_values=[1.5], settings=[self.setting])
        self.rows = self.reps * self.n
        self.evals = self.reps * len(METHODS)

    def run(self, tracer, between_steps) -> dict:
        self.results, times = [], {}
        for seed in self.seeds:
            start = time.perf_counter()
            try:
                self.results.append(self.ht.evaluate.benchmark(
                    self.grid, methods=METHODS, reps=1, seed=seed))
            except Exception as exc:  # counted as failed replicates, reported below
                print(f"grid-wide: benchmark seed {seed} raised {type(exc).__name__}: {exc}")
                self.results.append(None)
            times[f"replicate-{seed}"] = time.perf_counter() - start
            between_steps()
        return times

    def check(self) -> PassCheck:
        check = PassCheck(digests={}, ops={"results": self.evals})
        if any(result is None for result in self.results):
            check.failed.add("results")
            check.digests["results"] = "missing"
            return check
        header = list(self.ht.evaluate.RESULT_HEADER)
        rows = [header] + [[_render(v) for v in row.as_csv_values()]
                           for result in self.results for row in result]
        check.digests["results"] = _result_digest(rows)
        check.method_ms = math.fsum(row.wall_ms for result in self.results for row in result)
        return check


class GridPaper:
    name = "grid-paper"
    n_values = (500, 2000, 10_000)
    p_values = (4, 10)
    reps = 20
    sweep_p, sweep_n, sweep_reps = 10, 1000, 20

    def __init__(self, ht, seed: int, workdir: Path):
        self.ht = ht
        self.seed = seed
        # One grid file and command per cell, in the grid's own cell order;
        # replicate streams depend on the cell, not on the rest of the grid,
        # so the tables joined are the table of the whole grid.
        self.cells = []
        for setting, n, p in itertools.product(SETTINGS, self.n_values, self.p_values):
            cell = f"{setting}-n{n}-p{p}"
            grid_path = workdir / f"grid-{cell}.json"
            results_path = workdir / f"results-{cell}.csv"
            grid_path.write_text(json.dumps({
                "n": [n], "p": [p], "alpha": [1.5], "settings": [setting]}))
            self.cells.append((cell, results_path, [
                "--grid", str(grid_path), "--reps", str(self.reps), "--seed", str(seed),
                "--methods", ",".join(METHODS), "--out", str(results_path)]))
        self.grid_evals = len(self.cells) * self.reps * len(METHODS)
        self.sweep_evals = len(A6_EXPONENTS) * self.sweep_reps
        self.rows = (len(SETTINGS) * len(self.p_values) * self.reps * sum(self.n_values)
                     + self.sweep_reps * self.sweep_n)
        self.evals = self.grid_evals + self.sweep_evals

    def run(self, tracer, between_steps) -> dict:
        self.exits, times = {}, {}
        for cell, _, argv in self.cells:
            start = time.perf_counter()
            self.exits[cell], _ = _cli(self.ht, tracer, "benchmark", argv)
            times[cell] = time.perf_counter() - start
            between_steps()
        start = time.perf_counter()
        try:
            self.sweep = self.ht.evaluate.k_sensitivity(
                A6_EXPONENTS, p=self.sweep_p, alpha=1.5, n=self.sweep_n,
                reps=self.sweep_reps, seed=self.seed, kind="psi")
        except Exception as exc:  # counted as failed replicates, reported below
            print(f"grid-paper: k_sensitivity raised {type(exc).__name__}: {exc}")
            self.sweep = None
        times["k_sensitivity"] = time.perf_counter() - start
        between_steps()
        return times

    def check(self) -> PassCheck:
        check = PassCheck(digests={}, ops={"results": self.grid_evals,
                                           "k_sensitivity": self.sweep_evals})
        if self.sweep is None:
            check.failed.add("k_sensitivity")
            check.digests["k_sensitivity"] = "missing"
        else:
            text = self.ht.evaluate.sensitivity_rows_to_csv(self.sweep)
            check.digests["k_sensitivity"] = sha256(text.encode())
        rows = []
        for cell, results_path, _ in self.cells:
            try:
                with open(results_path, newline="") as fh:
                    table = list(csv.reader(fh))
            except OSError:
                table = []
            if self.exits[cell] != 0 or not table:
                rows = []
                break
            rows += table if not rows else table[1:]
        if not rows:
            check.failed.add("results")
            check.digests["results"] = "missing"
            return check
        check.digests["results"] = _result_digest(rows)
        records = [dict(zip(rows[0], row)) for row in rows[1:]]
        check.method_ms = math.fsum(float(r["wall_ms"]) for r in records)
        if not self._psi_beats_random(records):
            check.failed.add("results")
        return check

    def _psi_beats_random(self, records) -> bool:
        """At the largest n, ease_psi must beat random_order in every cell."""
        largest = str(max(self.n_values))
        cells = {}
        for r in records:
            if r["n"] == largest:
                cells.setdefault((r["setting"], r["p"]), {})[r["method"]] = float(
                    r["mean_violation_fraction"])
        return bool(cells) and all(
            m["ease_psi"] < m["random_order"] for m in cells.values())


WORKLOADS = {w.name: w for w in (PipelineTall, GridWide, GridPaper)}
