#!/usr/bin/env python3
"""Measure what tracing costs: traced minus untraced ``wall_s``, in pairs.

Run from the repository root::

    python3 bkebench/overhead.py [--pairs 10]

For each workload of ``run.py``, one process sets up the inputs of seed 1
once and then runs pairs of rounds of the workload's commands, one round
with the tracing of ``tracing.py`` installed and one without, back to back.
Even pairs run the untraced round first, odd pairs the traced one. Rounds
of a pair run seconds apart, so the shared machine's drift, which moves
whole runs by up to 10%, mostly cancels in each pair's difference. Prints
each workload's median untraced and traced round time and the median and
quartiles of the paired differences, in seconds and as a share of the
untraced round. Outputs go to ``bkebench/out/overhead/``.
"""

from __future__ import annotations

import argparse
import shutil
import statistics
import sys

import run
import tracing


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))

    for workload in run.WORKLOADS:
        work = run.OUT / "overhead" / workload
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        bench = run.Bench(workload, 1, work)
        if run.set_up(bench, once=True) is None:
            return 1
        commands = bench.round_commands()
        walls: dict[int, list[float]] = {0: [], 1: []}
        for i in range(args.pairs):
            for trace in ((0, 1) if i % 2 == 0 else (1, 0)):
                tracer = tracing.Tracer() if trace else None
                if tracer:
                    tracer.install()
                bench.clear_outputs()
                times, failed = run.run_commands(commands)
                if tracer:
                    tracer.uninstall()
                if failed:
                    return 1
                walls[trace].append(sum(times))
        diffs = [t - u for u, t in zip(walls[0], walls[1])]
        shares = [d / u for d, u in zip(diffs, walls[0])]
        q1, _, q3 = statistics.quantiles(shares, n=4)
        print(f"{workload}: untraced {statistics.median(walls[0]):.4f} s, traced "
              f"{statistics.median(walls[1]):.4f} s; paired difference median "
              f"{statistics.median(diffs):+.4f} s ({statistics.median(shares):+.1%}), "
              f"quartiles {q1:+.1%} to {q3:+.1%}, over {args.pairs} pairs", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
