"""The bootstrap interval that ``scripts/ab_pairs.py`` prints beside each
kind's debiased busy-time ratio, and one short run of the script on the
families."""

import math
import random
from pathlib import Path

from scripts.ab_pairs import interval, main


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


def test_an_aa_run_on_two_family_members(capsys):
    root = str(Path(__file__).resolve().parent.parent)
    assert main([root, root, "--families", "de Bruijn n = 1", "Horn L = 16", "--passes", "1"]) == 0
    out = capsys.readouterr().out
    # both orders print their table, then one summary row per member and in all
    assert out.count("families passes=1: first ") == 2
    summary = out.split("\n\n")[-1].splitlines()
    assert summary[0].split() == ["kind", "ops", "r1", "r2", "change/parent", "90%", "interval",
                                  "bias"]
    assert [row.rsplit(None, 6)[0] for row in summary[1:]] == ["Horn L = 16", "de Bruijn n = 1",
                                                              "all"]
    for row in summary[1:]:
        ops, *ratios = row.rsplit(None, 6)[1:]
        assert int(ops) == (4 if row.startswith("all") else 2)
        assert 0.5 < float(ratios[2]) < 2
    # each order's table has a row per member and in all, none with a failure
    assert out.count(" 0/0 ") == 6
