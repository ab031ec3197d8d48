#!/usr/bin/env python3
"""Benchmark of the afrokhlin toolkit, run from the root of a source checkout.

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 20 --trace 0

Imports the package from ./src, builds the workload's operations from the
seed, runs whole rounds of them closed loop (one caller, no think time) until
``--seconds`` have passed, checks the outputs of the first round against the
benchmark's own computations and every later round against the first, and
prints one JSON object as the last line of standard output.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it wraps
the package's cross-module calls in spans and reports the per-layer metrics.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
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
SETUP_RUNS = 11
IMPORT_TIMEOUT_S = 60


def fresh_import(flags=()) -> tuple[float, str]:
    """Wall time of a fresh interpreter running ``import afrokhlin``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, *flags, "-c", "import afrokhlin"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=IMPORT_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"fresh import failed: {proc.stderr.strip()}")
    return elapsed, proc.stderr


def setup_seconds() -> float:
    fresh_import()  # writes the bytecode caches; not counted
    return statistics.median(fresh_import()[0] for _ in range(SETUP_RUNS))


def import_ms() -> float:
    """Cumulative import time of the afrokhlin package, from -X importtime."""
    fresh_import()
    samples = []
    for _ in range(SETUP_RUNS):
        _, err = fresh_import(("-X", "importtime"))
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].rstrip() == " afrokhlin":
                samples.append(int(parts[1]) / 1000)
    if not samples:
        raise RuntimeError("no afrokhlin line in the -X importtime output")
    return statistics.median(samples)


def normalize(result):
    """A comparable form of an operation result; exceptions by type and text."""
    if isinstance(result, BaseException):
        return ("exception", type(result).__name__, str(result), getattr(result, "witness", None))
    if isinstance(result, tuple):
        return tuple(normalize(x) for x in result)
    return result


@contextlib.contextmanager
def unlimited_int_digits():
    """Checks may parse exact sizes beyond the default int-to-string limit."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def run_rounds(ops, seconds: float, tracer, failed):
    """Whole rounds of ``ops`` until ``seconds`` have passed.

    Returns every latency, the first round's results, the failure count, the
    time each round spent inside operations, and results that changed."""
    latencies_ns: list[int] = []
    round_ns: list[int] = []
    first: list = []
    failures = 0
    unstable: list[str] = []
    rounds = 0
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.round = rounds
        gc.collect()  # every round starts from the same collector state
        for i, op in enumerate(ops):
            t0 = time.perf_counter_ns()
            try:
                result = tracer.call(op.call) if tracer is not None else op.call()
            except Exception as exc:  # an operation failure is counted, not fatal
                result = exc
            latencies_ns.append(time.perf_counter_ns() - t0)
            if failed(op, result):
                failures += 1
            if rounds == 0:
                first.append(result)
            elif normalize(result) != normalize(first[i]):
                unstable.append(f"op {i} ({op.kind}) changed its result in round {rounds + 1}")
        round_ns.append(sum(latencies_ns[-len(ops):]))
        rounds += 1
        if time.perf_counter() - start >= seconds:
            return latencies_ns, first, failures, round_ns, unstable


def check_outputs(ops, first, failed) -> list[str]:
    problems = []
    with unlimited_int_digits():
        for i, (op, result) in enumerate(zip(ops, first)):
            if failed(op, result):
                if not op.known_fault:
                    detail = result if isinstance(result, BaseException) else result[2].strip()
                    problems.append(f"op {i} ({op.kind}) failed: {detail}")
                continue
            try:
                problem = op.check(result)
            except Exception as exc:  # a malformed output is a wrong output
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem:
                problems.append(f"op {i} ({op.kind}): {problem}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "afrokhlin" / "__init__.py").is_file():
        print(f"error: no afrokhlin sources under {SRC}", file=sys.stderr)
        return 2
    # the CLI reads its default cutoff from the environment; the workloads
    # are defined at the built-in default
    os.environ.pop("AFROKHLIN_CUTOFF", None)
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    import afrokhlin as af
    import afrokhlin.cli  # noqa: F401  (loads every module of the package)

    if Path(af.__file__).resolve().parent != (SRC / "afrokhlin").resolve():
        print(f"error: imported afrokhlin from {af.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    build = workloads.WORKLOADS.get(args.workload)
    if build is None:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    setup = None if args.trace else setup_seconds()
    imp = import_ms() if args.trace else None
    tmp = WORK / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        ops = build(af, args.seed, tmp)
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            spans.install(af, tracer)
        latencies_ns, first, failures, round_ns, unstable = run_rounds(
            ops, args.seconds, tracer, workloads.failed
        )
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems = unstable + check_outputs(ops, first, workloads.failed)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    attempted = len(latencies_ns)
    rounds = len(round_ns)
    lat_ms = [ns / 1e6 for ns in latencies_ns]
    if tracer is not None:
        output_bytes = sum(
            len(r[1].encode("utf-8")) for op, r in zip(ops, first) if op.kind.startswith("cli.")
            and not isinstance(r, BaseException)
        )
        metrics = spans.layer_metrics(tracer, rounds, imp, output_bytes)
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"spans-{args.workload}.jsonl")
    else:
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "ops_per_s": {"value": len(ops) / (statistics.median(round_ns) / 1e9), "unit": "ops/s"},
            "op_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
            "op_p90_ms": {"value": statistics.quantiles(lat_ms, n=10)[-1], "unit": "ms"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    for problem in problems:
        print(f"check: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {rounds} rounds of {len(ops)} ops, "
          f"{attempted} attempted, {failures} failed, {sum(lat_ms) / rounds:.1f} ms of ops per round")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failures,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
