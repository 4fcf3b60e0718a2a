"""The bootstrap interval that ``scripts/ab_pairs.py`` prints beside each
kind's debiased busy-time ratio."""

import math
import random

from scripts.ab_pairs import interval


def _pairs(rng: random.Random, n: int, second_over_first: float) -> list:
    out = []
    for _ in range(n):
        first = rng.lognormvariate(0, 0.5)
        out.append((first, first * second_over_first * rng.uniform(0.9, 1.1)))
    return out


def test_the_interval_holds_the_ratio_and_narrows_with_more_operations():
    rng = random.Random(3)
    widths = []
    for n in (4, 40, 400):
        # order 1: parent then change, 5 % slower; order 2: change then parent
        pairs1, pairs2 = _pairs(rng, n, 1.05), _pairs(rng, n, 1 / 1.05)
        r1 = sum(a for a, _ in pairs1) / sum(b for _, b in pairs1)
        r2 = sum(a for a, _ in pairs2) / sum(b for _, b in pairs2)
        lo, hi = interval(pairs1, pairs2)
        assert lo <= math.sqrt(r2 / r1) <= hi
        assert interval(pairs1, pairs2) == (lo, hi)     # a fixed seed
        widths.append(hi - lo)
    assert widths[0] > widths[1] > widths[2]
    assert 1.0 < lo and hi < 1.1                       # 400 operations tell 5 %
