"""Summarise benchmark results over seeds, against the bounds in
BENCHMARK.json.

    python3 perfbench/summarize.py [RESULTS.json ...] [--write FILE]

Reads the result files that ``run.py`` writes (every ``perfbench/out/*.json``
when none are named).  For each workload and end-to-end metric it prints the
median, the quartiles from ``statistics.quantiles(values, n=4)`` and the
spread, the distance between the quartiles as a share of the median, next to
the metric's bound; a spread above a third of the bound is flagged.  Traced
results contribute the median of each per-layer metric.  ``--write`` saves
the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def summarize(results: list[dict]) -> dict:
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    out: dict = {}
    for name in [w["name"] for w in SPEC["workloads"]]:
        runs = [r for r in results if r["workload"] == name and not r["trace"]]
        traced = [r for r in results if r["workload"] == name and r["trace"]]
        if not runs and not traced:
            continue
        entry: dict = {
            "seeds": sorted(r["seed"] for r in runs),
            "failed": sum(r["failed"] for r in runs + traced),
            "environment": (runs or traced)[0]["environment"],
            "inputs": (runs or traced)[0]["inputs"],
            "end_to_end": {},
        }
        for metric, spec in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            if len(values) < 2:
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            entry["end_to_end"][metric] = {
                "unit": spec["unit"],
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median,
                "bound": spec["bound"],
                "values": values,
            }
        if traced:
            entry["per_layer"] = {
                m["name"]: statistics.median(r["metrics"][m["name"]]["value"] for r in traced)
                for m in SPEC["per_layer"]
            }
        out[name] = entry
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", nargs="*", type=Path)
    parser.add_argument("--write", type=Path, help="save the summary as JSON here")
    args = parser.parse_args(argv)
    paths = args.results or sorted((HERE / "out").glob("*.json"))
    summary = summarize([json.loads(p.read_text()) for p in paths])
    for name, entry in summary.items():
        print(f"{name}: seeds {entry['seeds']}, {entry['failed']} failed operations")
        for metric, row in entry["end_to_end"].items():
            flag = "" if row["spread"] < row["bound"] / 3 else "  <-- spread above bound/3"
            print(
                f"  {metric:12s} median {row['median']:12.6g} {row['unit']:4s}"
                f" quartiles [{row['q1']:.6g}, {row['q3']:.6g}]"
                f" spread {row['spread']:.4f} bound {row['bound']}{flag}"
            )
    if args.write:
        args.write.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
