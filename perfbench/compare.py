"""Compare saved benchmark runs of two commits, metric by metric.

Each input file is the captured stdout of one ``run.py`` invocation::

    python3 perfbench/compare.py --base base-*.out --change change-*.out

Runs are grouped by workload.  The comparison is refused (exit 2) when
any two runs were made in different environments (cores, BLAS and its
thread count, worker count, Python/numpy/scipy, graph) or when the two
sides did not run identical inputs for a seed.  For each end-to-end
metric it prints both medians, the quartile spread of each side and
the change against the bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def _load(path: str) -> Dict[str, object]:
    lines = Path(path).read_text().strip().splitlines()
    env = next(
        json.loads(line.split(":", 1)[1]) for line in lines
        if line.startswith("environment:")
    )
    head = next(line for line in lines if line.startswith("workload "))
    _, workload, _, seed, _, trace = head.split()[:6]
    return {
        "path": path, "workload": workload, "seed": int(seed),
        "trace": int(trace), "env": env, "result": json.loads(lines[-1]),
    }


def _spread(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    runs = {"base": [_load(p) for p in args.base],
            "change": [_load(p) for p in args.change]}

    everyone = runs["base"] + runs["change"]
    reference = {k: v for k, v in everyone[0]["env"].items() if k != "inputs"}
    for run in everyone[1:]:
        env = {k: v for k, v in run["env"].items() if k != "inputs"}
        if env != reference:
            print(f"refused: {run['path']} ran in another environment:\n"
                  f"  {env}\n  vs {reference}", file=sys.stderr)
            return 2
    inputs = {}
    for run in everyone:
        key = (run["workload"], run["seed"])
        if inputs.setdefault(key, run["env"]["inputs"]) != run["env"]["inputs"]:
            print(f"refused: {run['path']} ran other inputs for seed "
                  f"{run['seed']}", file=sys.stderr)
            return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for workload in sorted({run["workload"] for run in everyone}):
        print(f"{workload}")
        for name, meta in bounds.items():
            sides = {}
            for side, side_runs in runs.items():
                sides[side] = [
                    r["result"]["metrics"][name]["value"] for r in side_runs
                    if r["workload"] == workload and not r["trace"]
                ]
            if not all(sides.values()):
                continue
            base = statistics.median(sides["base"])
            change = statistics.median(sides["change"])
            worse = (change - base) / base if base else 0.0
            if meta["better"] == "higher":
                worse = -worse
            verdict = "REGRESSED" if worse > meta["bound"] else "ok"
            print(f"  {name:<14} base {base:12.4f} ({_spread(sides['base']):.3f})"
                  f"  change {change:12.4f} ({_spread(sides['change']):.3f})"
                  f"  worse by {worse:+.3f} of bound {meta['bound']}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
