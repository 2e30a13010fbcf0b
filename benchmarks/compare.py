"""Compare two benchmark result files, metric by metric.

    python3 benchmarks/compare.py BASE.json NEW.json [--check-counts]

Each file is what ``run.py --out`` wrote: one workload's result, or the
results of ``--workload all``.  For every workload and metric in both files
this prints the base value, the new value and their ratio new/base.  With
``--check-counts`` (two traced runs of the same code) it also checks that
every exact count repeats exactly, and exits with 1 if one does not.
"""

from __future__ import annotations

import argparse
import json
import sys

from tracing import EXACT_COUNTS


def by_workload(path) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if "runs" in data:
        return data["runs"]
    return {data["env"]["workload"]: data}


def compare(base: dict, new: dict, check_counts: bool) -> list[str]:
    """Print the comparison table; return the exact counts that differ."""
    mismatches = []
    print(f"{'workload':20s} {'metric':28s} {'unit':6s} {'base':>14s} {'new':>14s} {'new/base':>9s}")
    for wl in sorted(base.keys() & new.keys()):
        bm, nm = base[wl]["metrics"], new[wl]["metrics"]
        for name in [k for k in bm if k in nm]:
            b, n = bm[name]["value"], nm[name]["value"]
            ratio = f"{n / b:9.4f}" if b and n is not None else f"{'-':>9s}"
            print(f"{wl:20s} {name:28s} {bm[name]['unit']:6s} {_fmt(b)} {_fmt(n)} {ratio}")
            if check_counts and name in EXACT_COUNTS and b != n:
                mismatches.append(f"{wl} {name}: {b!r} != {n!r}")
        print(f"{wl:20s} {'(env)':28s} base sha {base[wl]['env'].get('git_sha')}, new sha {new[wl]['env'].get('git_sha')}")
    return mismatches


def _fmt(v) -> str:
    return f"{'-':>14s}" if v is None else f"{v:14.6g}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base")
    p.add_argument("new")
    p.add_argument("--check-counts", action="store_true", help="require exact counts to repeat")
    args = p.parse_args(argv)
    base, new = by_workload(args.base), by_workload(args.new)
    mismatches = compare(base, new, args.check_counts)
    if args.check_counts:
        compared = [
            wl for wl in base.keys() & new.keys() if any(c in base[wl]["metrics"] for c in EXACT_COUNTS)
        ]
        if not compared:
            print("no traced results to check counts on", file=sys.stderr)
            return 1
        for line in mismatches:
            print(f"count differs: {line}", file=sys.stderr)
        if mismatches:
            return 1
        print(f"exact counts repeat on {', '.join(sorted(compared))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
