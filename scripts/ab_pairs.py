#!/usr/bin/env python3
"""Compare the engines of two checkouts on one benchmark workload, or on the
formula families, each operation on both engines in turn.

    python3 scripts/ab_pairs.py PARENT CHANGE --workload replay --passes 4
    python3 scripts/ab_pairs.py PARENT CHANGE --families --passes 4
    python3 scripts/ab_pairs.py PARENT CHANGE --families "pigeonhole n = 3" "Horn L = 16"

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

With ``--families`` the operations of a pass are built from each checkout's
own ``scripts/families.py``: ``prove`` on each member of its ``full`` ladder
and on the member's dual, each member its own kind, or on the members named
only.  A verdict other than the member's known one is a failed operation.
Both checkouts must generate the same sequent texts.  Every pass proves the
same sequents again, so a cache that outlives a query meets them again.

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
the tail at the workload's own ``tail_pct``, or ``prove``'s for the
families, nearest rank; a busy-time ratio can hide either), how many of
each side's operations failed, and the ratio of the first checkout's busy
time to the second's.  Then per kind: the
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
import importlib.util
import math
import multiprocessing
import random
import statistics
import sys
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path
from types import SimpleNamespace

_PACKAGES = ("bint", "perfbench")
#: bootstrap resamples of each kind's debiased ratio, and their seed
_RESAMPLES, _BOOTSTRAP_SEED = 1000, 0


def load(root: Path) -> SimpleNamespace:
    """The ``perfbench.workloads`` (``wl``), ``perfbench.run`` (``run``),
    ``bint.kernel`` (``kernel``) and ``bint.search`` (``search``) modules of
    the checkout at ``root``, all bound to that checkout's ``bint``, and its
    ``scripts/families.py`` (``families``), which uses the standard library
    only."""
    for name in [m for m in sys.modules if m.split(".")[0] in _PACKAGES]:
        del sys.modules[name]
    sys.path[:0] = [str(root / "src"), str(root)]
    try:
        bint = importlib.import_module("bint")
        if Path(bint.__file__).resolve().parent != (root / "src" / "bint").resolve():
            sys.exit(f"ab_pairs: imported bint from {bint.__file__}, not {root / 'src'}")
        spec = importlib.util.spec_from_file_location("families", root / "scripts" / "families.py")
        families = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(families)
        return SimpleNamespace(wl=importlib.import_module("perfbench.workloads"),
                               run=importlib.import_module("perfbench.run"),
                               kernel=importlib.import_module("bint.kernel"),
                               search=importlib.import_module("bint.search"),
                               families=families)
    finally:
        del sys.path[:2]


def _prove(side: SimpleNamespace, s, expected: bool) -> None:
    """``prove`` of ``s`` on the checkout of ``side``; ``WrongOutput`` when
    its verdict is not ``expected``."""
    if isinstance(side.search.prove(s), side.search.Proved) != expected:
        raise side.wl.WrongOutput(f"expected {'a proof' if expected else 'a refutation'} of {s}")


def passes_of(side: SimpleNamespace, workload, members, seed: int):
    """A function from a pass index to the operations of that pass on the
    checkout of ``side``, and per operation what both checkouts must agree
    on: its kind, and for the families its sequent's text."""
    if workload is not None:
        if workload not in side.wl.WORKLOADS:
            sys.exit(f"ab_pairs: unknown workload {workload!r}")

        def make_pass(index: int) -> tuple[list, list]:
            ops = side.wl.WORKLOADS[workload].make_pass(seed, index)[0]
            return ops, [op.kind for op in ops]
        return make_pass
    ladder = side.families.instances("full")
    unknown = set(members) - {name for name, *_ in ladder}
    if unknown:
        sys.exit(f"ab_pairs: no family member named {', '.join(map(repr, sorted(unknown)))}")
    ops, texts = [], []
    for name, text, expected in ladder:
        if members and name not in members:
            continue
        s = side.kernel.parse_sequent(text)
        for x in (s, side.kernel.dual_sequent(s)):
            ops.append(side.wl.Op(name, partial(_prove, side, x, expected)))
            texts.append((name, side.kernel.format_sequent(x)))
    return lambda index: (ops, texts)


def compare(roots: tuple[Path, Path], workload, members, passes: int,
            seed: int) -> tuple[str, dict]:
    """One order: the operations of ``passes`` passes of ``workload``, or of
    the family ``members`` when ``workload`` is None, run on both checkouts
    in turn.  The tail label, and per kind the count, then per side the busy
    seconds, median and tail milliseconds and failures, and each operation's
    pair of busy seconds."""
    sides = [load(root) for root in roots]
    makers = [passes_of(side, workload, members, seed) for side in sides]
    busy = [Counter(), Counter()]       # per side: seconds per kind, and in all
    failed = [Counter(), Counter()]
    took = [defaultdict(list), defaultdict(list)]   # per side: each success's seconds, per kind
    paired = defaultdict(list)          # per kind: each operation's seconds on both sides
    count = Counter()
    for index in range(passes):
        (ops0, same0), (ops1, same1) = (make(index) for make in makers)
        if same0 != same1:
            sys.exit("ab_pairs: the two checkouts generate different operations")
        for ops in zip(ops0, ops1):
            kinds = (ops[0].kind, "all")
            count.update(kinds)
            # the first checkout leads on the first operation, the second on the next
            dts = [0.0, 0.0]
            for i in (0, 1) if count["all"] % 2 else (1, 0):
                dt, (end, _) = sides[i].run.attempt(ops[i])
                dts[i] = dt
                for kind in kinds:
                    busy[i][kind] += dt
                    if end == "ok":
                        took[i][kind].append(dt)
                    else:
                        failed[i][kind] += 1
            for kind in kinds:
                paired[kind].append(tuple(dts))

    pct = sides[0].wl.WORKLOADS[workload or "prove"].tail_pct
    rows = {}
    for kind in sorted(count, key=lambda k: (k == "all", k)):
        ms = [sorted(side[kind]) for side in took]
        rows[kind] = (count[kind], [b[kind] for b in busy],
                      [1e3 * statistics.median(x) if x else math.nan for x in ms],
                      [1e3 * side.run.percentile(x, pct) if x else math.nan
                       for x, side in zip(ms, sides)],
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
    what = ap.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload")
    what.add_argument("--families", nargs="*", metavar="MEMBER",
                      help="prove on the members of the families' full ladder named, "
                           "or on all of them, and on their duals")
    ap.add_argument("--passes", type=int, default=4)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    parent, change = args.parent.resolve(), args.change.resolve()
    label = (f"{args.workload} seed={args.seed}" if args.workload is not None
             else "families")
    orders = []
    for roots in ((parent, change), (change, parent)):
        # each order in a fresh interpreter, so neither inherits the other's heap
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
            tail, rows = pool.submit(compare, roots, args.workload, args.families, args.passes,
                                     args.seed).result()
        width = max(12, 2 + max(map(len, rows)))
        print(f"{label} passes={args.passes}: first {roots[0]}, second {roots[1]}, "
              f"leading in turn")
        print(f"{'kind':<{width}}{'ops':>7}{'first_s':>10}{'second_s':>10}{'first_p50':>11}"
              f"{'second_p50':>11}{'first_' + tail:>11}{'second_' + tail:>12}{'failed':>10}"
              f"{'ratio':>8}")
        for kind, (n, (a, b), p50, p_tail, fails, _) in rows.items():
            print(f"{kind:<{width}}{n:>7}{a:>10.3f}{b:>10.3f}{p50[0]:>11.4f}{p50[1]:>11.4f}"
                  f"{p_tail[0]:>11.4f}{p_tail[1]:>12.4f}"
                  f"{f'{fails[0]}/{fails[1]}':>10}{a / b:>8.3f}")
        print()
        orders.append(rows)

    first, second = orders
    print(f"{'kind':<{width}}{'ops':>7}{'r1':>8}{'r2':>8}{'change/parent':>15}"
          f"{'90% interval':>16}{'bias':>8}")
    for kind, (n, (a1, b1), *_, pairs1) in first.items():
        _, (a2, b2), *_, pairs2 = second[kind]
        r1, r2 = a1 / b1, a2 / b2
        lo, hi = interval(pairs1, pairs2)
        print(f"{kind:<{width}}{n:>7}{r1:>8.3f}{r2:>8.3f}{math.sqrt(r2 / r1):>15.3f}"
              f"{f'{lo:.3f}-{hi:.3f}':>16}{math.sqrt(r1 * r2):>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
