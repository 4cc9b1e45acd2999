#!/usr/bin/env python3
"""Run every workload over several seeds and print each metric's spread.

Run from the repository root::

    python3 bkebench/spread.py [--runs 10] [--trace 0]

Each workload in ``BENCHMARK.json`` runs with seeds 1 to ``--runs``, each
run ``run.py`` in its own process, one after another, with the run length
from ``BENCHMARK.json``. For each workload and metric this
prints the median, the quartiles (``statistics.quantiles(values, n=4)``),
the distance between the quartiles as a share of the median next to the
metric's bound, and the share of failed operations. The raw results are
written to ``bkebench/out/spread.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"] + config["per_layer"]}

    results: dict[str, list[dict]] = {}
    ok = True
    for workload in (w["name"] for w in config["workloads"]):
        results[workload] = []
        for seed in range(1, args.runs + 1):
            cmd = [*config["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(config["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            results[workload].append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)

        runs = results[workload]
        if not runs:
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n{workload}: {len(runs)} runs, failed share {shares}")
        print(f"  {'metric':36s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'iqr/med':>8s} {'bound':>6s}")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            print(f"  {name:36s} {first['unit']:6s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {'' if bound is None else bound:>6}")

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "spread.json").write_text(json.dumps(results, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
