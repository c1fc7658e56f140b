"""Summarise untraced results in perfbench/out against BENCHMARK.json.

    python3 perfbench/summarize.py --seeds 1-10 [--against 11-20] [--baseline]

For each workload and end-to-end metric: the median over the given seeds'
result files, and the spread, (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4).  --against also compares the median of a
second seed range with the first, as a share of the first.  --baseline
writes the first range's medians, quartiles, key outputs and provenance to
perfbench/baseline.json.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"


def _seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def _load(workload, seeds):
    results = []
    for seed in seeds:
        path = OUT / f"result-{workload}-s{seed}-t0.json"
        if path.exists():
            results.append(json.loads(path.read_text()))
    return results


def _stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "n": len(values)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--against")
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    baseline = {}
    for wl in (w["name"] for w in spec["workloads"]):
        first = _load(wl, _seeds(args.seeds))
        second = _load(wl, _seeds(args.against)) if args.against else []
        if len(first) < 2:
            print(f"{wl}: fewer than two results", file=sys.stderr)
            continue
        entry = {"metrics": {}, "failed": sum(r["failed"] for r in first),
                 "attempted": sum(r["attempted"] for r in first),
                 "seeds": [r["provenance"]["seed"] for r in first],
                 "key_outputs": {str(r["provenance"]["seed"]): r["key_outputs"]
                                 for r in first},
                 "provenance": {k: v for k, v in first[0]["provenance"].items()
                                if k != "seed"}}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            st = _stats([r["end_to_end"][name] for r in first])
            line = (f"{wl:16s} {name:14s} median {st['median']:10.4f}  "
                    f"spread {st['spread']:6.3f}  bound {metric['bound']}")
            if len(second) >= 2:
                other = statistics.median(r["end_to_end"][name] for r in second)
                st["shift"] = other / st["median"] - 1.0
                line += (f"  second median {other:10.4f} ({st['shift']:+.3f}, "
                         f"spread {_stats([r['end_to_end'][name] for r in second])['spread']:.3f})")
            print(line)
            entry["metrics"][name] = {"unit": metric["unit"], **st}
        baseline[wl] = entry
    if args.baseline:
        (HERE / "baseline.json").write_text(
            json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
