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

Each checkout gets a bytecode cache of its own in a temporary directory
(``PYTHONPYCACHEPREFIX``), filled before the pairs by one untimed run of one
pass (seed 0), so that no timed run compiles a module: a missing or stale
``__pycache__``, which an environment with ``PYTHONDONTWRITEBYTECODE`` set
never mends, would otherwise make every fresh interpreter of one side
recompile what it imports, and ``setup_s`` would differ by the compile time
alone.  The timed runs write no bytecode.  The cache state used is printed
first.  Ad-hoc runs against a ``cp -r`` copy of a checkout mismeasure for
that reason: a copy whose ``.pyc`` files were stale recompiled at every
start, and read about 1 MB more ``peak_rss_mb`` and a longer ``setup_s``
than a checkout with valid bytecode.

``setup_s`` stays noisy even so.  On ``replay``, one 10-pair set of a change
with nothing on the setup path read 0.122 -> 0.143 s (better in 2 of 10,
parent IQR 0.012) and a second set of the same two checkouts 0.123 -> 0.125
s, while the setup probe (``perfbench/run.py --setup-probe``) timed directly
in 12 alternating fresh interpreters a side read 0.417 s on both sides.  One
set can come near the 25 % bound by chance; a second set tells.

Printed per end-to-end metric of ``BENCHMARK.json``: the median of each side,
the change of the median, the parent's interquartile spread, whether the
change of the median exceeds that spread, and in how many pairs the change
was better, in the metric's own ``better`` direction.  The benchmark file is
read from the checkout this script belongs to; nothing is written.

Fewer pairs than the default of 10 do not resolve a change of a few percent,
so 10 is the least to cite.  On ``cut-chain`` an A/A run (the same code in
two copies) of 4 pairs read ``op_p50_ms`` +3.7 % with the change better in
0 of 4, and a 5-pair run of two checkouts read ``ops_per_s`` -9.2 % where 10
pairs of the same two read -0.8 %.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def run(root: Path, command: list[str], workload: str, seed: int, seconds: float,
        env: dict[str, str]) -> dict:
    """The JSON result of one benchmark run in the checkout at ``root``."""
    args = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(args, cwd=root, capture_output=True, text=True, env=env)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"bench_pairs: {' '.join(args)} in {root} failed:\n{done.stderr}")
    return json.loads(lines[-1])


def cached(root: Path, cache: Path, command: list[str], workload: str) -> dict[str, str]:
    """The environment of the timed runs in the checkout at ``root``: its
    bytecode cache is ``cache``, filled here by one untimed run of one pass,
    and the runs write no more bytecode."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(cache)
    run(root, command, workload, 0, 0, env)
    return {**env, "PYTHONDONTWRITEBYTECODE": "1"}


def spread(values: list[float]) -> float:
    """The interquartile spread of ``values``; 0 for fewer than two."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def pairs(roots: tuple[Path, Path], envs: list[dict[str, str]], command: list[str], args,
          seconds: float) -> tuple[list[dict], list[dict]]:
    """Each side's results of ``args.pairs`` alternating pairs of runs."""
    results: tuple[list[dict], list[dict]] = ([], [])
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = (0, 1) if i % 2 == 0 else (1, 0)    # the parent leads on even pairs
        for side in order:
            results[side].append(run(roots[side], command, args.workload, seed, seconds,
                                     envs[side]))
        parent, change = (r[-1] for r in results)
        print(f"pair {i + 1} seed={seed} first={'parent' if order[0] == 0 else 'change'}: "
              f"ops_per_s {parent['metrics']['ops_per_s']['value']:.1f} -> "
              f"{change['metrics']['ops_per_s']['value']:.1f}, op_tail_ms "
              f"{parent['metrics']['op_tail_ms']['value']:.3f} -> "
              f"{change['metrics']['op_tail_ms']['value']:.3f}, correct "
              f"{parent['correct']}/{change['correct']}, failed "
              f"{parent['failed']}/{change['failed']}", flush=True)
    return results


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
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        envs = [cached(root, Path(tmp) / side, bench["command"], args.workload)
                for root, side in zip(roots, ("parent", "change"))]
        print(f"bytecode: each checkout's own cache under {tmp}, filled by one untimed "
              f"one-pass run; timed runs write none", flush=True)
        results = pairs(roots, envs, bench["command"], args, seconds)

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
