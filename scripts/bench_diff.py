#!/usr/bin/env python3
"""Diffs the deterministic fields of two sets of bench artifacts.

    python3 scripts/bench_diff.py PARENT_DIR CHANGE_DIR

Each directory holds the BENCH_<name>.json result tables and the
BENCH_<name>_trace.json span traces that scripts/run_benches.sh leaves in
the repository root. The benches run on virtual time, so every field but
the host wall-clock ones below must match between two commits that are
meant to behave the same. Every other difference is printed, one line per
field, as is a file present on one side only. Exits 1 when there is any.
"""

import argparse
import json
import pathlib
import sys

# Host wall-clock fields: the only ones that differed between two runs of
# one tree on one machine (baseline_compare's host-side costs and
# fig5_traversal's measured traversal time). Nothing in the traces does.
WALL_CLOCK_FIELDS = frozenset({"evict_host_ms", "restore_host_ms",
                               "measured_ms"})


def diff(parent, change, path, out):
    """Appends (path, parent value, change value) for every difference."""
    if isinstance(parent, dict) and isinstance(change, dict):
        for key in sorted(set(parent) | set(change)):
            if key in WALL_CLOCK_FIELDS:
                continue
            diff(parent.get(key), change.get(key), path + [key], out)
    elif (isinstance(parent, list) and isinstance(change, list)
          and len(parent) == len(change)):
        for index, (a, b) in enumerate(zip(parent, change)):
            diff(a, b, path + [index], out)
    elif parent != change:
        out.append((path, parent, change))


def render(value):
    text = json.dumps(value)
    return text if len(text) <= 120 else text[:117] + "..."


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args()
    parent_dir = pathlib.Path(args.parent)
    change_dir = pathlib.Path(args.change)
    names = sorted({p.name for d in (parent_dir, change_dir)
                    for p in d.glob("BENCH_*.json")})
    if not names:
        sys.exit(f"bench_diff: no BENCH_*.json in {parent_dir} or {change_dir}")
    differences = 0
    for name in names:
        sides = [d / name for d in (parent_dir, change_dir)]
        missing = [str(p) for p in sides if not p.is_file()]
        if missing:
            print(f"{name}: missing {', '.join(missing)}")
            differences += 1
            continue
        parent, change = (json.loads(p.read_text()) for p in sides)
        found = []
        diff(parent, change, [], found)
        for path, a, b in found:
            where = "".join(f"[{p}]" if isinstance(p, int) else f".{p}"
                            for p in path)
            print(f"{name}{where}: {render(a)} -> {render(b)}")
        differences += len(found)
    print(f"bench_diff: {len(names)} files, {differences} differences "
          f"outside {', '.join(sorted(WALL_CLOCK_FIELDS))}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
