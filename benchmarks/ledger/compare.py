#!/usr/bin/env python3
"""Compare ledger result files against the bounds in BENCHMARK.json.

Each file is one ``run.py --out`` result (one seed).  With one set of
files, prints for each workload and metric the median, the quartiles
and the spread (the distance between the quartiles as a share of the
median), marking a metric ``unresolved`` when its spread exceeds its
bound.  With ``--vs``, the second set is the change: a metric is
``REGRESSED`` when its median is worse than the first set's by more
than its bound, and ``unresolved`` when the first set's own spread
exceeds the bound, unless every run of the change reads better than
every run of the first set.  Runs of the same seed must also agree
exactly on ``sim_slowdown`` (``CHANGED`` otherwise) and, marked ``=`` or
``!=``, on every count::

    python3 benchmarks/ledger/compare.py parent-*.json --vs change-*.json

Exits 1 if any metric regressed or changed, or any run was incorrect.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent
DEFAULT_BENCHMARK = HERE.parent.parent / "BENCHMARK.json"


#: metrics that repeat exactly for a seed (besides per-layer counts)
EXACT = ("sim_slowdown",)


def load(paths) -> dict:
    """``{workload: {metric: {seed: value}}}`` plus ``{workload: problems}``."""
    values: dict = {}
    problems: dict = {}
    for path in paths:
        result = json.loads(pathlib.Path(path).read_text())
        for name, run in result["workloads"].items():
            if not run["correct"] or run["failed"]:
                problems.setdefault(name, []).append(
                    f"{path}: correct={run['correct']} failed={run['failed']}/{run['attempted']}"
                )
            for metric, entry in run["metrics"].items():
                values.setdefault(name, {}).setdefault(metric, {})[result["seed"]] = entry["value"]
    return {"values": values, "problems": problems}


def same_seeds(base: dict, new: dict) -> bool | None:
    """Whether runs of the seeds both sets share agree exactly."""
    common = base.keys() & new.keys()
    return all(base[s] == new[s] for s in common) if common else None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``, as :func:`statistics.quantiles` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base: list[float], new: list[float] | None, rule: dict | None) -> tuple[str, float | None]:
    """Status of one metric and, with ``new``, its worsening as a share
    of the base median (negative: improved)."""
    if rule is None:
        return "-", None
    bound = rule["bound"]
    sign = 1 if rule["better"] == "lower" else -1
    base_med = statistics.median(base)
    if new is None:
        return ("ok" if spread(base) <= bound else "unresolved"), None
    worse = sign * (statistics.median(new) - base_med) / abs(base_med) if base_med else 0.0
    if spread(base) > bound:
        all_better = max(new) < min(base) if sign > 0 else min(new) > max(base)
        return ("better" if all_better else "unresolved"), worse
    return ("REGRESSED" if worse > bound else "ok"), worse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", help="result files of the base set")
    parser.add_argument("--vs", nargs="+", metavar="FILE", help="result files of the change")
    parser.add_argument("--benchmark", default=str(DEFAULT_BENCHMARK))
    args = parser.parse_args(argv)

    spec = json.loads(pathlib.Path(args.benchmark).read_text())
    rules = {m["name"]: m for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    base = load(args.files)
    new = load(args.vs) if args.vs else None

    status = 0
    for problems in (base["problems"], new["problems"] if new else {}):
        for name, lines in problems.items():
            status = 1
            for line in lines:
                print(f"INCORRECT {name}: {line}")
    head = f"{'workload':<16} {'metric':<50} {'n':>3} {'q1':>11} {'median':>11} {'q3':>11} {'spread':>7} {'bound':>6}"
    print(head + ("  {:>11} {:>8}".format("new median", "worse") if new else "") + "  status")
    for name, metrics in base["values"].items():
        for metric, by_seed in metrics.items():
            values = list(by_seed.values())
            q1, med, q3 = quartiles(values)
            rule = rules.get(metric)
            other_by_seed = new["values"].get(name, {}).get(metric) if new else None
            other = list(other_by_seed.values()) if other_by_seed else None
            state, worse = verdict(values, other, rule)
            if other and (metric in EXACT or units.get(metric) == "count"):
                same = same_seeds(by_seed, other_by_seed)
                if same is False and metric in EXACT:
                    state = "CHANGED"
                elif same is not None:
                    state += "  =" if same else "  !="
            status = status or int(state in ("REGRESSED", "CHANGED"))
            bound = f"{100 * rule['bound']:.0f}%" if rule else "-"
            line = (f"{name:<16} {metric + ' [' + units.get(metric, '?') + ']':<50} {len(values):>3} "
                    f"{q1:>11.5g} {med:>11.5g} {q3:>11.5g} {100 * spread(values):>6.1f}% {bound:>6}")
            if new:
                new_med = f"{statistics.median(other):.5g}" if other else "-"
                line += f"  {new_med:>11} " + (f"{100 * worse:>7.1f}%" if worse is not None else f"{'-':>8}")
            print(f"{line}  {state}")
    return status


if __name__ == "__main__":
    sys.exit(main())
