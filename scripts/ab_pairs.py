#!/usr/bin/env python3
"""Compare the engines of two checkouts on one benchmark workload, in one process.

    python3 scripts/ab_pairs.py PARENT CHANGE --workload replay --passes 4

``PARENT`` and ``CHANGE`` are the roots of two checkouts.  Each one's
``bint`` and ``perfbench`` are imported from its own tree, with both purged
from ``sys.modules`` in between, so the two engines live side by side.  Each
builds the same seeded passes of the workload's operations, and the
operations run interleaved: each operation runs on one checkout, then at once
on the other.  Both sides therefore meet the same machine load.  Which side
runs first alternates from one operation to the next: the side that runs
first pays for some of the garbage the other leaves behind, and alternating
makes both sides pay it equally, so one invocation gives an unbiased ratio.

Printed per operation kind: how many ran, each side's busy seconds and how
many of its operations failed, and the ratio of the first checkout's busy
time to the second's.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from collections import Counter
from pathlib import Path

_PACKAGES = ("bint", "perfbench")


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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("first", type=Path, help="root of the first checkout")
    ap.add_argument("second", type=Path, help="root of the second checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--passes", type=int, default=4)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    sides = [load(root.resolve()) for root in (args.first, args.second)]
    if args.workload not in sides[0][0].WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}")
    busy = [Counter(), Counter()]       # per side: seconds per kind, and in all
    failed = [Counter(), Counter()]
    count = Counter()
    for index in range(args.passes):
        passes = [wl.WORKLOADS[args.workload].make_pass(args.seed, index)[0] for wl, _ in sides]
        if [op.kind for op in passes[0]] != [op.kind for op in passes[1]]:
            sys.exit("ab_pairs: the two checkouts generate different operations")
        for ops in zip(*passes):
            kinds = (ops[0].kind, "all")
            count.update(kinds)
            # the first checkout leads on the first operation, the second on the next
            for i in (0, 1) if count["all"] % 2 else (1, 0):
                dt, (end, _) = sides[i][1].attempt(ops[i])
                for kind in kinds:
                    busy[i][kind] += dt
                    failed[i][kind] += end != "ok"

    print(f"{args.workload} seed={args.seed} passes={args.passes}: "
          f"first {args.first}, second {args.second}, leading in turn")
    print(f"{'kind':<12}{'ops':>7}{'first_s':>10}{'second_s':>10}{'failed':>10}{'ratio':>8}")
    for kind in sorted(count, key=lambda k: (k == "all", k)):
        a, b = busy[0][kind], busy[1][kind]
        print(f"{kind:<12}{count[kind]:>7}{a:>10.3f}{b:>10.3f}"
              f"{f'{failed[0][kind]}/{failed[1][kind]}':>10}{a / b:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
