"""Compare two sets of benchmark reports, metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds report files written by ``perfbench/run.py`` (under
``.perfbench/reports/``; copy them aside between commits).  Untraced
reports are grouped by workload; for every end-to-end metric the script
prints each side's median and quartiles over its runs, and the change of
the median against the bound ``BENCHMARK.json`` fixes for that metric.

Reports from hosts with different fingerprints are never compared: the
script exits with status 2 instead.  A change whose base spread (quartile
distance over median) exceeds the bound is reported as unresolved.  An
improvement is not reported as a gain: claiming one needs alternating
pairs of runs on both commits.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory: str) -> dict:
    runs: dict = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as fh:
            report = json.load(fh)
        runs.setdefault(report["workload"], []).append(report)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(base_dir: str, new_dir: str) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    base, new = load(base_dir), load(new_dir)
    hosts = {r["host"]["id"] for side in (base, new) for rs in side.values() for r in rs}
    if len(hosts) > 1:
        print(f"refusing to compare reports from different hosts: {sorted(hosts)}")
        return 2
    for workload in sorted(set(base) & set(new)):
        print(f"{workload}: {len(base[workload])} base runs, {len(new[workload])} new runs")
        for name, metric in spec.items():
            b = [r["end_to_end"][name][0] for r in base[workload]]
            n = [r["end_to_end"][name][0] for r in new[workload]]
            b1, bm, b3 = quartiles(b)
            n1, nm, n3 = quartiles(n)
            change = nm / bm - 1.0
            worse = change if metric["better"] == "lower" else -change
            if (b3 - b1) / bm > metric["bound"]:
                verdict = "unresolved (base spread exceeds bound)"
            elif worse > metric["bound"]:
                verdict = "REGRESSION"
            else:
                verdict = "within bound"
            print(f"  {name:<14} base {bm:.6g} [{b1:.6g}, {b3:.6g}]  new {nm:.6g} "
                  f"[{n1:.6g}, {n3:.6g}]  {change:+.1%}  {verdict}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
