"""Compare two sets of benchmark runs, workload by workload.

    python3 bench/compare.py BASE.jsonl NEW.jsonl

Each file holds result lines as run.py appends them to
bench/out/results.jsonl (copy that file aside after each set of runs).
For every workload and end-to-end metric this prints each side's
median and quartiles over its untraced runs, the change of the median
as a share of the base median, and BEYOND where the change is worse
than the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

import stats

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """workload -> metric -> values, from the untraced runs in a results file."""
    runs = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record["trace"]:
                continue
            for name, entry in record["result"]["metrics"].items():
                runs[record["workload"]][name].append(entry["value"])
    return runs


def compare(base, new, metrics):
    """Rows of (workload, metric, base quartiles, new quartiles, delta, beyond)."""
    rows = []
    for workload in sorted(set(base) & set(new)):
        for metric in metrics:
            name = metric["name"]
            if name not in base[workload] or name not in new[workload]:
                continue
            b = stats.summary(base[workload][name])
            n = stats.summary(new[workload][name])
            delta = (n[1] - b[1]) / b[1]
            worse = -delta if metric["better"] == "higher" else delta
            rows.append((workload, name, b, n, delta, worse > metric["bound"]))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    metrics = json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
    rows = compare(load(args.base), load(args.new), metrics)
    fmt = "{:16s} {:13s} {:>30s} {:>30s} {:>8s}  {}"
    print(fmt.format("workload", "metric", "base q1 / median / q3",
                     "new q1 / median / q3", "delta", ""))
    for workload, name, b, n, delta, beyond in rows:
        print(fmt.format(workload, name, " / ".join(f"{v:.4g}" for v in b),
                         " / ".join(f"{v:.4g}" for v in n), f"{delta:+.1%}",
                         "BEYOND" if beyond else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
