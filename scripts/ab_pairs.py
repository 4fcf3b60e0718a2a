#!/usr/bin/env python3
"""Compare the engines of two checkouts on one benchmark workload, each
operation on both engines in turn.

    python3 scripts/ab_pairs.py PARENT CHANGE --workload replay --passes 4

``PARENT`` and ``CHANGE`` are the roots of two checkouts.  The comparison runs
twice, in a new child process each time: once with ``PARENT`` named first,
then with ``CHANGE`` named first, with the same seed and passes.  In a child,
each checkout's ``bint`` and ``perfbench`` are imported from its own tree,
with both purged from ``sys.modules`` in between, so the two engines live side
by side.  Each builds the same seeded passes of the workload's operations,
and the operations run interleaved: each operation runs on one checkout, then
at once on the other.  Both sides therefore meet the same machine load.
Which side runs first alternates from one operation to the next, so each side
pays about equally for the garbage the other leaves behind.

One order alone is still biased by the order of its arguments: the checkout
named first has measured 1.5–3.4 % busier on ``prove`` and up to 2.5 % less
busy on ``cut-chain`` and ``replay`` than the same code named second.  With r1
the first checkout's busy time over the second's in the order ``PARENT
CHANGE``, and r2 the same in the order ``CHANGE PARENT``, sqrt(r2/r1) is the
change's busy time over the parent's, with the bias removed, and sqrt(r1·r2)
is the bias.

Printed per order and per operation kind: how many ran, each side's busy
seconds, each side's median and tail latency in milliseconds over the
operations that succeeded (the benchmark's ``op_p50_ms`` and ``op_tail_ms``,
the tail at the workload's own ``tail_pct``, nearest rank; a busy-time ratio
can hide either), how many of each side's operations failed, and the ratio of
the first checkout's busy time to the second's.  Then per kind: the
operations a side ran, r1, r2, sqrt(r2/r1), a 90 % bootstrap interval of
sqrt(r2/r1), and sqrt(r1·r2).  The interval is the 5th to 95th percentile of
sqrt(r2/r1) over 1,000 resamples with a fixed seed; each resample draws each
order's paired per-operation busy times of that kind with replacement.  A
kind with few operations gets a wide interval, so its ratio is read as no
more precise than that.
"""

from __future__ import annotations

import argparse
import importlib
import math
import multiprocessing
import random
import statistics
import sys
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

_PACKAGES = ("bint", "perfbench")
#: bootstrap resamples of each kind's debiased ratio, and their seed
_RESAMPLES, _BOOTSTRAP_SEED = 1000, 0


def load(root: Path):
    """The ``perfbench.workloads`` and ``perfbench.run`` modules of the
    checkout at ``root``, bound to that checkout's ``bint``."""
    for name in [m for m in sys.modules if m.split(".")[0] in _PACKAGES]:
        del sys.modules[name]
    sys.path[:0] = [str(root / "src"), str(root)]
    try:
        bint = importlib.import_module("bint")
        if Path(bint.__file__).resolve().parent != (root / "src" / "bint").resolve():
            sys.exit(f"ab_pairs: imported bint from {bint.__file__}, not {root / 'src'}")
        return (importlib.import_module("perfbench.workloads"),
                importlib.import_module("perfbench.run"))
    finally:
        del sys.path[:2]


def compare(roots: tuple[Path, Path], workload: str, passes: int, seed: int) -> tuple[str, dict]:
    """One order: the operations of ``passes`` passes of ``workload`` run on
    both checkouts in turn.  The workload's tail label, and per kind the
    count, then per side the busy seconds, median and tail milliseconds and
    failures, and each operation's pair of busy seconds."""
    sides = [load(root) for root in roots]
    if workload not in sides[0][0].WORKLOADS:
        sys.exit(f"ab_pairs: unknown workload {workload!r}")
    busy = [Counter(), Counter()]       # per side: seconds per kind, and in all
    failed = [Counter(), Counter()]
    took = [defaultdict(list), defaultdict(list)]   # per side: each success's seconds, per kind
    paired = defaultdict(list)          # per kind: each operation's seconds on both sides
    count = Counter()
    for index in range(passes):
        ops_by_side = [wl.WORKLOADS[workload].make_pass(seed, index)[0] for wl, _ in sides]
        if [op.kind for op in ops_by_side[0]] != [op.kind for op in ops_by_side[1]]:
            sys.exit("ab_pairs: the two checkouts generate different operations")
        for ops in zip(*ops_by_side):
            kinds = (ops[0].kind, "all")
            count.update(kinds)
            # the first checkout leads on the first operation, the second on the next
            dts = [0.0, 0.0]
            for i in (0, 1) if count["all"] % 2 else (1, 0):
                dt, (end, _) = sides[i][1].attempt(ops[i])
                dts[i] = dt
                for kind in kinds:
                    busy[i][kind] += dt
                    if end == "ok":
                        took[i][kind].append(dt)
                    else:
                        failed[i][kind] += 1
            for kind in kinds:
                paired[kind].append(tuple(dts))

    pct = sides[0][0].WORKLOADS[workload].tail_pct
    rows = {}
    for kind in sorted(count, key=lambda k: (k == "all", k)):
        ms = [sorted(side[kind]) for side in took]
        rows[kind] = (count[kind], [b[kind] for b in busy],
                      [1e3 * statistics.median(x) if x else math.nan for x in ms],
                      [1e3 * run.percentile(x, pct) if x else math.nan
                       for x, (_, run) in zip(ms, sides)],
                      [f[kind] for f in failed], paired[kind])
    return f"p{pct:g}", rows


def interval(pairs1: list, pairs2: list) -> tuple[float, float]:
    """The 90 % bootstrap interval of sqrt(r2/r1) from each order's paired
    per-operation busy seconds (first checkout, second checkout)."""
    rng = random.Random(_BOOTSTRAP_SEED)

    def ratio(pairs: list) -> float:
        sample = rng.choices(pairs, k=len(pairs))
        return sum(a for a, _ in sample) / sum(b for _, b in sample)

    draws = [math.sqrt(ratio(pairs2) / ratio(pairs1)) for _ in range(_RESAMPLES)]
    cuts = statistics.quantiles(draws, n=20)
    return cuts[0], cuts[-1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path, help="root of the parent checkout")
    ap.add_argument("change", type=Path, help="root of the changed checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--passes", type=int, default=4)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    parent, change = args.parent.resolve(), args.change.resolve()
    orders = []
    for roots in ((parent, change), (change, parent)):
        # each order in a fresh interpreter, so neither inherits the other's heap
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
            tail, rows = pool.submit(compare, roots, args.workload, args.passes,
                                     args.seed).result()
        print(f"{args.workload} seed={args.seed} passes={args.passes}: "
              f"first {roots[0]}, second {roots[1]}, leading in turn")
        print(f"{'kind':<12}{'ops':>7}{'first_s':>10}{'second_s':>10}{'first_p50':>11}"
              f"{'second_p50':>11}{'first_' + tail:>11}{'second_' + tail:>12}{'failed':>10}"
              f"{'ratio':>8}")
        for kind, (n, (a, b), p50, p_tail, fails, _) in rows.items():
            print(f"{kind:<12}{n:>7}{a:>10.3f}{b:>10.3f}{p50[0]:>11.4f}{p50[1]:>11.4f}"
                  f"{p_tail[0]:>11.4f}{p_tail[1]:>12.4f}"
                  f"{f'{fails[0]}/{fails[1]}':>10}{a / b:>8.3f}")
        print()
        orders.append(rows)

    first, second = orders
    print(f"{'kind':<12}{'ops':>7}{'r1':>8}{'r2':>8}{'change/parent':>15}{'90% interval':>16}"
          f"{'bias':>8}")
    for kind, (n, (a1, b1), *_, pairs1) in first.items():
        _, (a2, b2), *_, pairs2 = second[kind]
        r1, r2 = a1 / b1, a2 / b2
        lo, hi = interval(pairs1, pairs2)
        print(f"{kind:<12}{n:>7}{r1:>8.3f}{r2:>8.3f}{math.sqrt(r2 / r1):>15.3f}"
              f"{f'{lo:.3f}-{hi:.3f}':>16}{math.sqrt(r1 * r2):>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
