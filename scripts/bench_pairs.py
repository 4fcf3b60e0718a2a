#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload, in alternating pairs of full runs.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload cut-chain --pairs 10

``PARENT`` and ``CHANGE`` are the roots of two checkouts.  Pair ``i`` (seeds
``--first-seed`` on) runs the benchmark command of ``BENCHMARK.json`` in each
checkout, as ``--workload W --seed i --seconds S --trace 0`` with ``S`` the
benchmark's ``run_seconds``, one run after the other.  Which checkout runs
first alternates from pair to pair, so slow drift of the machine's load falls
on both sides alike.  Each run's last line is its JSON result, and each pair
prints both sides' ``ops_per_s`` and ``op_tail_ms``.

Printed per end-to-end metric of ``BENCHMARK.json``: the median of each side,
the change of the median, the parent's interquartile spread, whether the
change of the median exceeds that spread, and in how many pairs the change
was better, in the metric's own ``better`` direction.  The benchmark file is
read from the checkout this script belongs to; nothing is written.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def run(root: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """The JSON result of one benchmark run in the checkout at ``root``."""
    args = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(args, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"bench_pairs: {' '.join(args)} in {root} failed:\n{done.stderr}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    """The interquartile spread of ``values``; 0 for fewer than two."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path, help="root of the parent checkout")
    ap.add_argument("change", type=Path, help="root of the changed checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)

    bench = json.loads(BENCHMARK.read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    seconds = bench["run_seconds"]
    roots = (args.parent.resolve(), args.change.resolve())
    results: tuple[list[dict], list[dict]] = ([], [])
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = (0, 1) if i % 2 == 0 else (1, 0)    # the parent leads on even pairs
        for side in order:
            results[side].append(run(roots[side], bench["command"], args.workload, seed,
                                     seconds))
        parent, change = (r[-1] for r in results)
        print(f"pair {i + 1} seed={seed} first={'parent' if order[0] == 0 else 'change'}: "
              f"ops_per_s {parent['metrics']['ops_per_s']['value']:.1f} -> "
              f"{change['metrics']['ops_per_s']['value']:.1f}, op_tail_ms "
              f"{parent['metrics']['op_tail_ms']['value']:.3f} -> "
              f"{change['metrics']['op_tail_ms']['value']:.3f}, correct "
              f"{parent['correct']}/{change['correct']}, failed "
              f"{parent['failed']}/{change['failed']}", flush=True)

    print(f"{args.workload}: {args.pairs} pairs, seeds {args.first_seed}-"
          f"{args.first_seed + args.pairs - 1}, {seconds:g} s a run; "
          f"parent {roots[0]}, change {roots[1]}")
    print(f"{'metric':<12}{'better':>8}{'parent':>12}{'change':>12}{'delta':>9}"
          f"{'parent_iqr':>12}{'>iqr':>6}{'wins':>7}")
    for m in bench["end_to_end"]:
        name, higher = m["name"], m["better"] == "higher"
        a, b = ([r["metrics"][name]["value"] for r in side] for side in results)
        ma, mb, iqr = statistics.median(a), statistics.median(b), spread(a)
        gain = mb - ma if higher else ma - mb
        wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
        delta = f"{(mb - ma) / ma:+.1%}" if ma else "n/a"
        print(f"{name:<12}{m['better']:>8}{ma:>12.4g}{mb:>12.4g}{delta:>9}"
              f"{iqr:>12.4g}{'yes' if gain > iqr else 'no':>6}{f'{wins}/{args.pairs}':>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
