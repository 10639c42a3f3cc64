"""Benchmark of the heavytail package, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pipeline-tall --seed 0 --seconds 35 --trace 0

The workloads are described in ``workloads.py``. Each run starts fresh
processes with a pinned environment (no HEAVYTAIL_THREADS, one BLAS/OpenMP
thread): several that only set up, for the median set-up time, then one that
sets up and makes timed passes for ``--seconds`` seconds, then checks every
pass's outputs. With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics: ``wall_s`` is the time of a
typical pass, the sum of the median time of each of its steps over the run
(a pass is a fixed sequence of steps, such as one CLI command or one
replicate each), scaled to a fixed host speed by reference kernels timed
between the steps (``hostspeed.py``; the measured time and the scale are
printed on the ``host speed`` line), ``rows_per_s`` and
``replicates_per_s`` are the pass's sample rows and replicate x method
evaluations over it, ``peak_rss_mb`` is the measuring process's peak
resident set and ``setup_s`` the median set-up time. With ``--trace 1``
untraced and traced passes alternate, the per-layer metrics are medians
over the traced ones, and the spans are written to ``.perfbench-out/``.
Temporary files go to a private directory under ``.perfbench-out/`` that is
deleted at the end.

Outputs are hashed and compared across passes and against the digests in
``reference.json``, recorded from the code of the commit that added the
benchmark, for the seeds listed there and on the platform it names (numpy
version and SIMD targets, on which bit-identical floats depend); on another
platform that comparison is skipped. ``--record-reference`` rewrites the file.
"""

import time

T0 = time.perf_counter()  # a worker's set-up time counts from here

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
WORKLOAD_NAMES = ("pipeline-tall", "grid-wide", "grid-paper")
SETUP_PROBES = 8  # set-up-only processes per run, besides the measuring one
TIME_LIMIT_S = 170.0  # a run must end within 180 s
REFERENCE_SEEDS = range(10)


class BenchError(Exception):
    pass


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from the current code")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_reference:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


# ---------------------------------------------------------------- parent side

def pinned_env() -> dict:
    env = {key: value for key, value in os.environ.items()
           if key not in ("HEAVYTAIL_THREADS", "PYTHONPATH")}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def run_worker(args, workdir: Path, deadline: float, setup_only=False) -> list[str]:
    """Run one worker process to completion; returns its standard output lines."""
    workdir.mkdir()
    command = [sys.executable, str(Path(__file__).resolve()), "--worker",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", str(workdir)]
    if setup_only:
        command.append("--setup-only")
    try:
        proc = subprocess.run(command, env=pinned_env(), stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within the time limit: {exc}") from None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return lines


def measure(args) -> dict:
    """One benchmark run; returns the result object and prints the report lines."""
    deadline = time.monotonic() + TIME_LIMIT_S
    OUT.mkdir(exist_ok=True)
    setups = []
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=OUT) as tmp:
        if not args.trace:
            # The first process also compiles the bytecode; its time is not kept.
            run_worker(args, Path(tmp, "warm"), deadline, setup_only=True)
            for i in range(SETUP_PROBES):
                lines = run_worker(args, Path(tmp, f"probe{i}"), deadline, setup_only=True)
                setups.append(json.loads(lines[-1])["setup_s"])
        lines = run_worker(args, Path(tmp, "run"), deadline)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    setups.append(result.pop("setup_s"))
    if not args.trace:
        print(f"setup_s samples: {[round(s, 4) for s in setups]}")
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return result


def record_reference(args) -> None:
    """Rewrite reference.json with the digests of one pass per workload and seed."""
    digests, fingerprint = {}, None
    for name in WORKLOAD_NAMES:
        digests[name] = {}
        for seed in REFERENCE_SEEDS:
            run_args = argparse.Namespace(**{**vars(args), "workload": name, "seed": seed,
                                             "seconds": 0.0, "trace": 0})
            OUT.mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(prefix="tmp-", dir=OUT) as tmp:
                lines = run_worker(run_args, Path(tmp, "run"), time.monotonic() + TIME_LIMIT_S)
            failures = [line for line in lines if line.startswith("output ")
                        and line.endswith(": failed")]
            if failures:
                raise BenchError(f"{name} seed {seed}: {failures}")
            report = next(json.loads(line[len("digest "):]) for line in lines
                          if line.startswith("digest "))
            fingerprint = report["platform"]
            digests[name][str(seed)] = report["outputs"]
            print(f"{name} seed {seed}: {report['digest']}", flush=True)
    REFERENCE.write_text(json.dumps({"platform": fingerprint, "digests": digests},
                                    indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------- worker side

def platform_fingerprint(numpy) -> str:
    """What bit-identical outputs depend on besides the code: numpy and its SIMD targets."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        __cpu_features__ = {}
    features = ",".join(sorted(k for k, v in __cpu_features__.items() if v))
    return f"numpy {numpy.__version__}; {platform.machine()}; {features}"


def environment(numpy) -> dict:
    try:
        llc = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        llc = ""
    head = ROOT / ".git" / "HEAD"
    sha = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            sha = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "llc_bytes": int(llc) if llc.isdigit() else None,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_sha": sha, "heavytail_threads": os.environ.get("HEAVYTAIL_THREADS"),
            "omp_num_threads": os.environ.get("OMP_NUM_THREADS")}


def load_reference(fingerprint: str, workload: str, seed: int):
    """The recorded digests for this workload and seed, and why there are none."""
    if not REFERENCE.is_file():
        return None, "no reference file"
    doc = json.loads(REFERENCE.read_text())
    if doc.get("platform") != fingerprint:
        return None, "reference recorded on another platform; not compared"
    digests = doc.get("digests", {}).get(workload, {}).get(str(seed))
    return digests, (None if digests is not None else "no reference for this seed")


def worker(args) -> int:
    sys.path.insert(0, str(SRC))
    import numpy
    import heavytail
    import heavytail.cli  # noqa: F401  (imports every module the workloads use)

    if Path(heavytail.__file__).resolve().parent != (SRC / "heavytail").resolve():
        print(f"error: heavytail was imported from {heavytail.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from hostspeed import HostSpeed
    from tracer import NullTracer, Tracer, heavytail_modules, layer_metrics, write_trace
    from workloads import WORKLOADS

    modules = heavytail_modules()
    ht = types.SimpleNamespace(**{name: m for name, m in modules.items() if name})
    workload = WORKLOADS[args.workload](ht, args.seed, Path(args.workdir))
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    host = HostSpeed()
    kinds = (False, True) if args.trace else (False,)
    walls = {False: [], True: []}
    steps = {False: {}, True: {}}  # step name -> its wall time in every pass
    cpu = []
    checks, traced = [], []
    start = time.perf_counter()
    while True:
        index = len(checks)
        is_traced = kinds[index % len(kinds)]
        gc.collect()
        pass_start = time.perf_counter()
        tracer = Tracer(modules) if is_traced else NullTracer()
        if is_traced:
            tracer.install()
        cpu_start = time.process_time()
        try:
            times = workload.run(tracer, host.sample)
        finally:
            cpu.append(time.process_time() - cpu_start)
            if is_traced:
                tracer.uninstall()
        checks.append(workload.check())
        wall = sum(times.values())
        walls[is_traced].append(wall)
        for step, seconds in times.items():
            steps[is_traced].setdefault(step, []).append(seconds)
        if is_traced:
            traced.append((index, wall, tracer))
        now = time.perf_counter()
        if len(checks) >= len(kinds) and now - start + (now - pass_start) > args.seconds:
            break

    fingerprint = platform_fingerprint(numpy)
    env = environment(numpy)
    print("environment " + json.dumps(env, sort_keys=True))
    reference, note = load_reference(fingerprint, args.workload, args.seed)
    first = checks[0].digests
    attempted = failed = 0
    for index, check in enumerate(checks):
        wrong = {o for o, d in check.digests.items() if d != first[o]}
        if reference is not None:
            wrong |= {o for o, d in check.digests.items() if reference.get(o) != d}
        bad = check.failed | wrong
        attempted += sum(check.ops.values())
        failed += sum(check.ops[o] for o in bad)
        for o in sorted(bad):
            reason = "differs from the reference or the first pass" if o in wrong else "failed"
            print(f"output {o!r} of pass {index}: {reason}")
    overall = json.dumps(first, sort_keys=True).encode()
    print("digest " + json.dumps({
        "workload": args.workload, "seed": args.seed,
        "digest": hashlib.sha256(overall).hexdigest(),
        "outputs": first, "platform": fingerprint}, sort_keys=True))
    if note is None:
        unmatched = sorted(o for o, d in first.items() if reference.get(o) != d)
        note = (f"differs in {', '.join(unmatched)}" if unmatched
                else "all outputs match")
    print(f"reference: {note}")
    print(f"passes: untraced wall_s {[round(w, 4) for w in walls[False]]}"
          f" traced wall_s {[round(w, 4) for w in walls[True]]}"
          f" cpu_s {[round(c, 4) for c in cpu]}")
    print(f"ops: attempted {attempted} failed {failed} ops_failed_frac {failed / attempted:g}")
    untraced = walls[False]
    print(f"untraced passes: {len(untraced)}, wall_s min {min(untraced):.4f}"
          f" median {statistics.median(untraced):.4f} max {max(untraced):.4f}")
    print("median step times: " + json.dumps(
        {step: round(statistics.median(times), 4) for step, times in steps[False].items()}))

    # Other tenants of a shared host slow every step by a share that changes
    # from second to second, so each step's median over the run is the
    # steadiest estimate of its cost, and a typical pass takes the sum of
    # those medians. Changes of host speed that outlast the run are scaled
    # out by the reference kernels (see hostspeed.py).
    typical_wall = sum(statistics.median(times) for times in steps[False].values())
    if args.trace:
        per_pass = [layer_metrics(tracer, checks[index].method_ms)
                    for index, _, tracer in traced]
        metrics = {name: {"value": statistics.median(m[name][0] for m in per_pass),
                          "unit": unit} for name, (_, unit) in per_pass[0].items()}
        typical_traced = sum(statistics.median(times) for times in steps[True].values())
        metrics["trace.overhead_ms"] = {
            "value": 1000.0 * (typical_traced - typical_wall), "unit": "ms"}
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        write_trace(path, args.workload, args.seed, env, traced)
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        scale = host.scale()
        print("host speed: reference kernel medians "
              + json.dumps({k: round(v * 1e3, 4) for k, v in host.medians().items()})
              + f" ms, scale {scale:.4f}, measured wall_s {typical_wall:.4f}")
        wall_s = typical_wall * scale
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "rows_per_s": {"value": workload.rows / wall_s, "unit": "1/s"},
            "replicates_per_s": {"value": workload.evals / wall_s, "unit": "1/s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics, "setup_s": setup_s}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.worker:
        return worker(args)
    if not (SRC / "heavytail" / "__init__.py").is_file():
        print(f"error: no heavytail sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.record_reference:
            record_reference(args)
            return 0
        result = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
