#!/usr/bin/env python3
"""Compare two fgbench histories written by `run.py --record FILE`.

    python3 fgbench/compare.py BASE.jsonl CHANGE.jsonl

For each workload, prints the median of every metric on each side and the
change in percent.  Records are comparable only when every label except
rev, seed, samples, undisturbed and steal_pct matches (nproc, build type,
resolved disk backend, executor, channel policy, input size, ...); a
workload whose labels differ between or within the two files is refused,
and the exit code is 2.
"""

import json
import statistics
import sys

FREE_LABELS = {"rev", "seed", "samples", "undisturbed", "steal_pct"}


def load(path):
    groups = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if not rec["result"]["correct"]:
                continue
            labels = rec["labels"]
            fixed = {k: v for k, v in labels.items() if k not in FREE_LABELS}
            groups.setdefault(labels["workload"], []).append(
                (fixed, rec["result"]["metrics"]))
    return groups


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, change = load(sys.argv[1]), load(sys.argv[2])
    status = 0
    for workload in sorted(set(base) & set(change)):
        runs = base[workload] + change[workload]
        if any(fixed != runs[0][0] for fixed, _ in runs):
            print(f"{workload}: labels differ, not comparable", file=sys.stderr)
            status = 2
            continue
        print(f"{workload} ({len(base[workload])} vs {len(change[workload])} runs)")
        for name, m in runs[0][1].items():
            old = statistics.median(r[name]["value"] for _, r in base[workload])
            new = statistics.median(r[name]["value"] for _, r in change[workload])
            delta = (new - old) / old * 100 if old else 0.0
            print(f"  {name:40s} {old:14.6g} {new:14.6g} {delta:+7.2f}% "
                  f"{m['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
