"""coopshare benchmark: one seeded workload per process, closed loop, one thread.

    python3 bench/run.py --workload market-scale --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Set-up (imports, input generation, input files) runs SETUP_REPEATS times
and reports its median.  The timed loop then sends one request after
another, cycling through the workload's input set, until --seconds have
passed and at least MIN_SAMPLES requests are done.  Each distinct
request is checked against the benchmark's own computations outside the
timed region; a repeat must return exactly its first output.

With --trace 1 the loop runs whole passes over the input set with every
coopshare public function wrapped in a span, and reports per-layer
figures per request instead of the end-to-end metrics.  Spans go to
bench/out/trace-<workload>-<seed>.jsonl; every result line is appended
to bench/out/results.jsonl for compare.py.

The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import stats
import tracing
from workloads import WORKLOADS, CheckError

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 9


def fresh_import():
    """Import coopshare (and its CLI) anew, as a new process would."""
    for name in [n for n in sys.modules if n == "coopshare" or n.startswith("coopshare.")]:
        del sys.modules[name]
    package = importlib.import_module("coopshare")
    importlib.import_module("coopshare.cli")
    return package


def set_up(workload, seed, workdir):
    rng = random.Random(f"{workload.name}:{seed}")
    cs = fresh_import()
    raws = [workload.draw(rng) for _ in range(workload.items)]
    return cs, workload.prepare(cs, raws, workdir)


def attempt(call, *args):
    """The output of one request, or None when it raised (a failed request)."""
    try:
        return call(*args)
    except Exception:  # counted as failed, not fatal
        traceback.print_exc(file=sys.stderr)
        return None


def measure(workload, cs, items, seconds, tracer=None):
    """Closed loop over the input set until `seconds` have passed.

    Untraced, it stops after any request once MIN_SAMPLES are done;
    traced, only after whole passes, so per-request counts repeat exactly.
    Keeps the first output of each distinct request and compares every
    repeat with it on arrival.  Returns (samples, first outputs, failed,
    repeats that differ, wall seconds).
    """
    samples, first, failed, differ = [], {}, 0, 0
    start = time.perf_counter()
    while True:
        k = len(samples)
        if (time.perf_counter() - start >= seconds and k >= stats.MIN_SAMPLES
                and (tracer is None or k % len(items) == 0)):
            break
        idx = k % len(items)
        t0 = time.perf_counter()
        if tracer is None:
            out = attempt(workload.run, cs, items[idx])
        else:
            tracer.item = k
            out = attempt(tracer.span, "bench.item", workload.run, cs, items[idx])
        samples.append(time.perf_counter() - t0)
        if out is None:
            failed += 1
        elif idx not in first:
            first[idx] = out
        elif out != first[idx]:
            differ += 1
    return samples, first, failed, differ, time.perf_counter() - start


def check_all(workload, cs, items, first):
    """Check the first output of each distinct request."""
    for idx, out in sorted(first.items()):
        try:
            workload.check(cs, items[idx], out)
        except Exception as exc:  # a malformed output fails its check, whatever it breaks
            raise CheckError(f"request {idx}: {exc!r}") from None


def run_one(args) -> int:
    if not (ROOT / "src" / "coopshare" / "__init__.py").is_file():
        print(f"error: no coopshare sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            cs, items = set_up(workload, args.seed, str(workdir))
            setup_times.append(time.perf_counter() - t0)

        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        samples, first, failed, differ, wall = measure(workload, cs, items, args.seconds, tracer)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer:
            tracer.uninstall()

        correct = differ == 0
        if differ:
            print(f"check failed: {differ} repeated requests changed output", file=sys.stderr)
        try:
            check_all(workload, cs, items, first)
        except CheckError as exc:
            correct = False
            print(f"check failed: {exc}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(samples)
    detail = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "requests": attempted, "distinct": len(first),
              "wall_s": wall, "games_per_s": attempted / wall,
              "setup_runs_s": setup_times}
    if args.trace:
        values = tracer.metrics(attempted)
        tracer.write(str(OUT / f"trace-{workload.name}-{args.seed}.jsonl"))
        detail["spans"] = len(tracer.spans)
    else:
        tail_s, detail["tail_percentile"] = stats.tail(samples)
        values = {
            "games_per_s": attempted / wall,
            "game_p50_ms": statistics.median(samples) * 1000,
            "game_tail_ms": tail_s * 1000,
            "peak_rss_mb": peak_kb / 1024,
            "setup_s": statistics.median(setup_times),
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(units):
        print(f"error: metrics {sorted(values)} differ from BENCHMARK.json's {sorted(units)}",
              file=sys.stderr)
        return 2
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({**detail, "result": result}) + "\n")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh interpreter, one after another."""
    summary, code = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            code = 1
            continue
        result = json.loads(lines[-1])
        summary[name] = result
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:40s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(summary))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
