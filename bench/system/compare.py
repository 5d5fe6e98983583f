#!/usr/bin/env python3
"""Compares two result sets of the system benchmark (standard library only).

    python3 bench/system/compare.py PARENT_DIR CHANGE_DIR \
        [--claim METRIC@WORKLOAD ...] [--benchmark BENCHMARK.json]

Each result set is a directory of files named <workload>-<seed>.json, each
holding the last line run.py printed for that run, e.g.

    python3 bench/system/run.py --workload thrash_read --seed 3 \
        --seconds 20 --trace 0 | tail -n 1 > parent/thrash_read-3.json

A parent run and a change run with the same workload and seed form a pair.
Make at least ten pairs per workload, alternating which side runs first,
so that the two runs of a pair share the host's speed at the time.

Every verdict rests on the per-pair ratios change/parent, so host drift
that both runs of a pair share cancels. A claimed metric counts as
improved only when the change wins at least nine tenths of the pairs
(ties count for neither side) and the median ratio is further from 1 than
the parent's interquartile range is from its median, as a share of that
median. Every other metric is checked against the bound BENCHMARK.json
gives it: the median ratio may be worse than 1 by at most the bound.
Where the interquartile range of the ratios is wider than the bound, the
metric is reported "unresolved" instead of "ok", unless every change run
reads better than every parent run. One row is printed per workload.
Exits 1 when a claim is not met, a metric regressed, or a run failed.
"""

import argparse
import json
import pathlib
import statistics
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory):
    """{workload: {seed: result}} from <workload>-<seed>.json files."""
    runs = {}
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        workload, _, seed = path.stem.rpartition("-")
        if not workload or not seed.isdigit():
            continue
        runs.setdefault(workload, {})[int(seed)] = json.loads(path.read_text())
    return runs


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def better(a, b, direction):
    """True when value `a` is strictly better than value `b`."""
    return a < b if direction == "lower" else a > b


def ratios(pairs):
    """change/parent of each pair whose parent value is positive."""
    return [c / p for p, c in pairs if p > 0]


def judge_claim(pairs, direction):
    wins = sum(better(c, p, direction) for p, c in pairs)
    note = f"{wins}/{len(pairs)} wins"
    parent = [p for p, _ in pairs]
    p_med = statistics.median(parent)
    r = ratios(pairs)
    if p_med == 0 or len(r) != len(pairs):
        return "not-met", note + ", parent not positive"
    r_med = statistics.median(r)
    improved = (better(r_med, 1.0, direction)
                and wins >= WIN_SHARE * len(pairs)
                and abs(r_med - 1.0) > iqr(parent) / abs(p_med))
    return ("improved" if improved else "not-met"), note


def judge_bound(pairs, direction, bound):
    r = ratios(pairs)
    if len(r) != len(pairs):
        return "unresolved (parent not positive)"
    r_med = statistics.median(r)
    worse = (r_med - 1.0) if direction == "lower" else (1.0 - r_med)
    if worse > bound:
        return "regressed"
    if iqr(r) > bound and not all(better(c, p, direction)
                                  for _, c in pairs for p, _ in pairs):
        return "unresolved"
    return "ok"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--claim", action="append", default=[],
                        metavar="METRIC@WORKLOAD")
    parser.add_argument("--benchmark", default=str(
        pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"))
    args = parser.parse_args()

    spec = json.loads(pathlib.Path(args.benchmark).read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]
    claims = set()
    for claim in args.claim:
        name, _, workload = claim.partition("@")
        if name not in metrics or workload not in workloads:
            parser.error(f"bad claim {claim!r}")
        claims.add((name, workload))

    parent_runs, change_runs = load(args.parent), load(args.change)
    failed = False
    for workload in workloads:
        seeds = sorted(set(parent_runs.get(workload, {})) &
                       set(change_runs.get(workload, {})))
        if not seeds:
            continue
        pairs = [(parent_runs[workload][s], change_runs[workload][s])
                 for s in seeds]
        cells = []
        if len(pairs) < MIN_PAIRS:
            cells.append(f"only {len(pairs)} pairs (need {MIN_PAIRS})")
            failed = True
        if not all(p.get("correct") and c.get("correct") for p, c in pairs):
            cells.append("a run was incorrect")
            failed = True
        checked = list(spec["end_to_end"]) + [
            metrics[name] for name, w in sorted(claims) if w == workload
            and metrics[name] not in spec["end_to_end"]]
        for metric in checked:
            name = metric["name"]
            values = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                      for p, c in pairs
                      if name in p.get("metrics", {})
                      and name in c.get("metrics", {})]
            if len(values) != len(pairs):
                if (name, workload) in claims:
                    cells.append(f"{name} missing from some runs")
                    failed = True
                continue
            p_med = statistics.median(p for p, _ in values)
            c_med = statistics.median(c for _, c in values)
            r = ratios(values)
            delta = (statistics.median(r) - 1.0) * 100 if r else 0.0
            if (name, workload) in claims:
                verdict, note = judge_claim(values, metric["better"])
                verdict = f"{verdict}, {note}"
                failed |= verdict.startswith("not-met")
            else:
                verdict = judge_bound(values, metric["better"],
                                      metric["bound"])
                failed |= verdict == "regressed"
            cells.append(f"{name} {p_med:.6g}->{c_med:.6g} "
                         f"(paired {delta:+.1f}%) {verdict}")
        print(f"{workload:14s} | " + " | ".join(cells))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
