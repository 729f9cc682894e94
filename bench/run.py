"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` there.  One process, one thread.  Set-up (import, input
generation, OAF files) runs ``SETUP_BEFORE`` times; then every query of
the seeded list runs once, timed one by one; then set-up runs
``SETUP_AFTER`` more times, and the median of all set-up times is
reported; then every result is checked.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)

import workloads  # noqa: E402

PACKAGE = "omegabaire"
# A set-up takes 0.1-0.8 s, and back-to-back repeats share the machine's
# speed of that moment, which drifts by up to 20% over seconds.  Splitting the
# repeats around the timed phase samples two moments of the run.
SETUP_BEFORE = 3
SETUP_AFTER = 2
# Seconds one round of each workload's queries took on the reference
# machine (see README.md); a run does round(seconds / ROUND_SECONDS)
# whole rounds, at least one, so equal --seconds means equal work.
ROUND_SECONDS = {"measure-solve": 5.7, "topology-search": 0.55, "cli-witness": 0.33}


def import_package():
    """A fresh import of the package from this checkout's ``src/``."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    ob = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    if not os.path.abspath(ob.__file__).startswith(SRC + os.sep):
        raise ImportError(f"{PACKAGE} was imported from {ob.__file__}, not from {SRC}")
    return ob


def setup(name: str, seed: int, rounds: int, workdir: str):
    """One timed set-up: (package, queries, seconds).  Every set-up writes
    the same OAF files to the same paths: the first creates them, the
    later ones overwrite them in place.  Creating a thousand files on the
    reference machine's disk took anywhere from 0.05 s to 0.7 s from one
    minute to the next, so the median set-up measures the set-up code
    rather than the disk."""
    build = workloads.WORKLOADS[name][0]
    os.makedirs(workdir, exist_ok=True)
    gc.collect()
    t0 = time.perf_counter()
    ob = import_package()
    queries = build(ob, seed, rounds, workdir)
    return ob, queries, time.perf_counter() - t0


def timed_phase(queries, tracer=None):
    results, durations, failed = [], [], 0
    clock = time.perf_counter
    gc.collect()
    start = clock()
    for i, q in enumerate(queries):
        if tracer is not None:
            tracer.query = i
        t0 = clock()
        try:
            r = q.call()
        except Exception as exc:  # counted as a failed operation
            r = exc
            failed += 1
        durations.append(clock() - t0)
        results.append(r)
    return results, durations, failed, clock() - start


def check_results(name: str, seed: int, queries, results) -> list[str]:
    workloads.load_checkers()
    check = workloads.WORKLOADS[name][1]
    problems = []
    for i, (q, r) in enumerate(zip(queries, results)):
        if isinstance(r, Exception):
            # a failed operation: counted in ``failed``, not checked
            print(f"query {i} ({q.kind}) failed: {type(r).__name__}: {r}", file=sys.stderr)
            continue
        try:
            reason = check(q, r, random.Random(f"check/{name}/{seed}/{i}"))
        except Exception as exc:  # a malformed output, judged wrong
            reason = f"checker raised {type(exc).__name__}: {exc}"
        if reason is not None:
            problems.append(f"query {i} ({q.kind}): {reason}")
    return problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, PACKAGE)):
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    rounds = max(1, round(args.seconds / ROUND_SECONDS[args.workload]))
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    try:
        setup_times = []
        for _ in range(SETUP_BEFORE):
            queries = None  # the previous set-up's garbage is not this one's cost
            ob, queries, seconds = setup(args.workload, args.seed, rounds, workdir)
            setup_times.append(seconds)
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install(ob)
        results, durations, failed, wall = timed_phase(queries, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
        for _ in range(SETUP_AFTER):
            setup_times.append(setup(args.workload, args.seed, rounds, workdir)[2])
        problems = check_results(args.workload, args.seed, queries, results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)

    done = len(queries) - failed
    if tracer is None:
        ms = sorted(d * 1000.0 for d in durations)
        metrics = {
            "queries_per_s": (done / wall, "1/s"),
            "query_p50_ms": (statistics.median(ms), "ms"),
            "query_p90_ms": (statistics.quantiles(ms, n=10)[8], "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
    else:
        metrics = tracer.layer_metrics()
        metrics["trace.queries_per_s"] = (done / wall, "1/s")
        metrics["trace.spans"] = (len(tracer.spans), "count")
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json"))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(queries),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
