#!/usr/bin/env python3
"""Run a randomized cut-elimination corpus and print per-case statistics.

Seeded via BINT_SEED (default 0).  For each variant this generates premise
pairs, eliminates the cut with tracing on, and reports which rewrite cases
fired, how often the cut-height grew while the weight dropped, and how often
one cut variant was replaced by the other.  With ``--oracle`` it also checks
that the decision procedure of ``bint.decide`` accepts every output
endsequent.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))    # the tests' conftest imports scripts.families
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from bint.kernel import RuleId as R, check_derivation, format_sequent
from bint.transform import CutTrace, eliminate_cut
from bint.decide import derivable
from conftest import random_cut_pair


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-n", "--pairs", type=int, default=200,
                        help="premise pairs per cut variant (default 200)")
    parser.add_argument("--oracle", action="store_true",
                        help="cross-check every output endsequent with the decision "
                             "procedure of bint.decide")
    args = parser.parse_args()

    seed = int(os.environ.get("BINT_SEED", "0"))
    rng = random.Random(seed + 42)
    cases = Counter()
    replacements = Counter()
    height_bumps = 0
    steps = 0
    start = time.time()

    for variant in (R.CutA, R.CutC):
        for i in range(args.pairs):
            left, right, dfm = random_cut_pair(rng, variant)
            trace = CutTrace()
            out = eliminate_cut(left, right, dfm, variant, trace)
            report = check_derivation(out)
            assert report.valid and report.cut_count == 0, report
            steps += len(trace.steps)
            cases.update(s.case for s in trace.steps)
            for parent, child in trace.edges():
                if child.cut_height > parent.cut_height:
                    height_bumps += 1
                if parent.variant != child.variant:
                    replacements[f"{parent.variant}->{child.variant}"] += 1
            if args.oracle:
                assert derivable(out.conclusion), format_sequent(out.conclusion)

    elapsed = time.time() - start
    print(f"seed {seed}: {2 * args.pairs} eliminations, {steps} rewrite steps, "
          f"{elapsed:.1f}s")
    print(f"cut-height grew on {height_bumps} edges (weight dropped each time)")
    for key, count in sorted(replacements.items()):
        print(f"variant replacement {key}: {count}")
    print("case histogram:")
    for case, count in sorted(cases.items()):
        print(f"  {case:10} {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
