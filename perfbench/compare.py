#!/usr/bin/env python3
"""Compare two sets of perfbench runs.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds records appended by perfbench (perfbench/results/runs.jsonl,
copied aside per commit). Records are grouped by workload and pass; for every
metric the script prints each side's median and quartiles and, for the
end-to-end metrics, whether the change's median is worse than the base's by
more than the metric's bound in BENCHMARK.json. Where a side's own spread is
wider than the bound the verdict is "unresolved".

Results from different machine fingerprints, or of different run lengths, are
never compared: the script says so and exits with status 2.
"""

import json
import os
import statistics
import sys


def load(path):
    groups = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            p = rec["provenance"]
            groups.setdefault((p["workload"], p["trace"]), []).append(rec)
    return groups


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip())
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    base, change = load(sys.argv[1]), load(sys.argv[2])
    status = 0
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        recs = base[key] + change[key]
        prints = {json.dumps(r["provenance"]["fingerprint"], sort_keys=True) for r in recs}
        lengths = {r["provenance"]["seconds"] for r in recs}
        if len(prints) > 1 or len(lengths) > 1:
            print(f"REFUSED {workload} trace={trace}: the runs differ in machine "
                  f"fingerprint ({sorted(prints)}) or run length ({sorted(lengths)})")
            status = 2
            continue
        print(f"== {workload} trace={trace}: {len(base[key])} base runs, "
              f"{len(change[key])} change runs")
        names = base[key][0]["result"]["metrics"].keys()
        for name in names:
            a = [r["result"]["metrics"][name]["value"] for r in base[key]]
            b = [r["result"]["metrics"][name]["value"] for r in change[key]]
            qa, qb = quartiles(a), quartiles(b)
            line = (f"  {name:28} base {qa[1]:<12.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                    f"change {qb[1]:<12.6g} [{qb[0]:.6g}, {qb[2]:.6g}]")
            if name in bounds and qa[1]:
                bound, better = bounds[name]
                worse = (qb[1] - qa[1]) / qa[1] * (1 if better == "lower" else -1)
                spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1] if qb[1] else 0)
                if spread > bound:
                    verdict = "unresolved: spread wider than the bound"
                elif worse > bound:
                    verdict = f"WORSE by {worse:.1%} > bound {bound:.0%}"
                else:
                    verdict = f"within bound ({worse:+.1%} worse)"
                line += "  " + verdict
            print(line)
        failed = [r for r in change[key] if not r["result"]["correct"]]
        if failed:
            print(f"  {len(failed)} change runs were not correct")
    for key in sorted(set(base) ^ set(change)):
        print(f"skipped {key[0]} trace={key[1]}: present on one side only")
    return status


if __name__ == "__main__":
    sys.exit(main())
