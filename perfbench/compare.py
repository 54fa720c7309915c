"""Summarise and compare benchmark result records.

    python3 perfbench/compare.py [RESULTS.ndjson]
    python3 perfbench/compare.py BASE.ndjson CHANGE.ndjson

Reads the records ``perfbench/run.py`` appends to
``.perfbench_out/results.ndjson``. With one file it prints, per
workload and metric, the median, quartiles and spread (interquartile
range over median) of the runs. With two it also prints the change's
median against the base's, and the bound ``BENCHMARK.json`` fixes for
each end-to-end metric.

Results are only comparable on the same host: if the records' host
blocks (CPU count and model, BLAS thread cap, python, numpy and scipy
versions) differ, the script refuses and exits 1. It also flags every
run whose planner backend mix differs from the other runs of its
workload, since a different mix is different work.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_RESULTS = ROOT / ".perfbench_out" / "results.ndjson"


def load(path: Path):
    with open(path, encoding="utf-8") as lines:
        return [json.loads(line) for line in lines if line.strip()]


def bounds():
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def group(records):
    groups = defaultdict(list)
    for record in records:
        key = (record["workload"], record["trace"], record["scale"])
        groups[key].append(record)
    return groups


def flag_backend_mixes(groups) -> None:
    for (workload, trace, _), runs in sorted(groups.items()):
        usual = Counter(
            tuple(r["backend_mix"]) for r in runs
        ).most_common(1)[0][0]
        for r in runs:
            if tuple(r["backend_mix"]) != usual:
                print(
                    f"FLAG {workload} trace={trace} seed={r['seed']}: "
                    f"backend mix {r['backend_mix']} differs from the "
                    f"usual {list(usual)}"
                )


def main(argv) -> int:
    paths = [Path(p) for p in argv] or [DEFAULT_RESULTS]
    if len(paths) > 2:
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(path) for path in paths]
    hosts = {
        json.dumps(record["host"], sort_keys=True)
        for records in sets
        for record in records
    }
    if len(hosts) > 1:
        print("refusing to compare results from different hosts:")
        for host in sorted(hosts):
            print(f"  {host}")
        return 1
    limits = bounds()
    base = group(sets[0])
    change = group(sets[-1]) if len(sets) == 2 else None
    flag_backend_mixes(base)
    if change is not None:
        flag_backend_mixes(change)
    for key in sorted(base):
        workload, trace, scale = key
        runs = base[key]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(
            f"\n{workload} trace={trace} scale={scale}: {len(runs)} runs, "
            f"{failed}/{attempted} ops failed"
        )
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name] for r in runs if name in r["metrics"]]
            q1, median, q3 = quartiles(values)
            spread = (q3 - q1) / median if median else float("nan")
            line = (
                f"  {name:36s} median {median:.6g}  "
                f"q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.3f}"
            )
            if change is not None and key in change:
                other = [
                    r["metrics"][name]
                    for r in change[key]
                    if name in r["metrics"]
                ]
                if other:
                    new = statistics.median(other)
                    delta = (new - median) / median if median else float("nan")
                    line += f"  change {new:.6g} ({delta:+.3f})"
                    if name in limits:
                        better, bound = limits[name]
                        worse = -delta if better == "higher" else delta
                        verdict = "REGRESSED" if worse > bound else "ok"
                        line += f" bound {bound} {verdict}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
