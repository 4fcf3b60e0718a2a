"""The three workloads: each pass is a list of operations on seeded text inputs.

The engine functions an operation calls are imported into this module, so the
traced run can replace these names, like the names one engine layer imports
from another, with span-recording wrappers.  An operation verifies what it gets
back and raises ``WrongOutput`` on any violation; an ``OverBudget`` query or
a ``RecursionError`` is a failed operation, never a skipped one.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple

from bint import search
from bint.corpus import run_all
from bint.kernel import (
    RuleId, Side, check_derivation, dual_derivation, format_sequent, node, parse_sequent,
)
from bint.search import Proved, Refuted, prove
from bint.serialize import dumps_derivation, loads_derivation
from bint.syntax import Atom, parse_formula
from bint.transform import contract, eliminate_cut, weaken

from . import gen


class WrongOutput(Exception):
    """The engine returned something the benchmark's checks reject."""


class OverBudget(Exception):
    """A prove query needed more sequent expansions than its budget."""


class NoVerdict(Exception):
    """Search stopped at its depth bound without a verdict."""


class Failures(Exception):
    """Several independent steps of one operation failed; ``errors`` holds each."""

    def __init__(self, errors: list):
        super().__init__(f"{len(errors)} step(s) failed")
        self.errors = errors


class Op(NamedTuple):
    kind: str
    run: Callable[[], None]


#: every prove query, the reproducer included, may expand this many sequents
#: (calls of ``backward_expansions``, repeats included); a query that needs
#: more is a failed operation.  A count, not a time: the same query fails the
#: same way on every run, however fast the machine is running.
PROVE_EXPANSIONS = 300
#: random sequents per prove pass, five of each shape; each comes with its dual
PROVE_RANDOM = 160
REPLAY_DERIVATIONS = 300
REPLAY_CUT_PAIRS = 60


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise WrongOutput(what)


def node_count(d) -> int:
    n, stack = 0, [d]
    while stack:
        x = stack.pop()
        n += 1
        stack.extend(x.premises)
    return n


def same_tree(a, b) -> bool:
    """Structural equality of two derivations, without recursion."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if (x.rule is not y.rule or x.conclusion != y.conclusion
                or x.annotation != y.annotation or len(x.premises) != len(y.premises)):
            return False
        stack.extend(zip(x.premises, y.premises))
    return True


def check_valid(d, what: str) -> None:
    report = check_derivation(d)
    expect(report.valid and report.cut_count == 0, f"{what}: {report}")


# --- prove -------------------------------------------------------------------------

def _budgeted(expand, limit: int):
    left = limit

    def backward_expansions(s):
        nonlocal left
        left -= 1
        if left < 0:
            raise OverBudget()
        return expand(s)
    return backward_expansions


class Verdicts:
    """Verdicts of one pass, so a sequent and its dual can be compared."""

    def __init__(self, pairs: list[tuple[str, str]]):
        self.pairs = pairs          # (text, text of its dual)
        self.by_text: dict[str, str] = {}

    def mismatches(self) -> int:
        bad = 0
        for text, dual_text in self.pairs:
            a, b = self.by_text.get(text), self.by_text.get(dual_text)
            if a is not None and b is not None and a != b:
                bad += 1
        return bad


def _prove(q: gen.Query, verdicts: Verdicts) -> None:
    # the name search calls, wrapped for this query only (and around the
    # traced run's span wrapper, when there is one)
    expand = search.backward_expansions
    search.backward_expansions = _budgeted(expand, PROVE_EXPANSIONS)
    try:
        s = parse_sequent(q.text)
        expect(format_sequent(s) == q.text, f"sequent text does not round-trip: {q.text}")
        out = prove(s)
        if isinstance(out, Proved):
            d = out.derivation
            check_valid(d, f"proof of {q.text}")
            expect(d.conclusion == s, f"proof of {q.text} concludes {d.conclusion}")
            verdict = "proved"
        elif isinstance(out, Refuted):
            verdict = "refuted"
        else:
            raise NoVerdict(q.text)
    finally:
        search.backward_expansions = expand
    expect(q.expect in (None, verdict), f"{q.text}: expected {q.expect}, got {verdict}")
    verdicts.by_text[q.text] = verdict


def prove_pass(seed: int, index: int) -> tuple[list[Op], Verdicts, list[str]]:
    queries = gen.prove_set(seed, index, PROVE_RANDOM)
    verdicts = Verdicts([(q.text, q.dual_text) for q in queries])
    ops = [Op("prove", lambda q=q: _prove(q, verdicts)) for q in queries]
    return ops, verdicts, [q.text for q in queries]


# --- cut elimination -----------------------------------------------------------------

def _eliminate(p: gen.CutPair) -> None:
    left = loads_derivation(p.left)
    right = loads_derivation(p.right)
    out = eliminate_cut(left, right, parse_formula(p.cut_formula), RuleId(p.variant))
    check_valid(out, f"eliminated {p.tag}")
    got = format_sequent(out.conclusion)
    expect(got == p.endsequent, f"{p.tag}: endsequent {got}, expected {p.endsequent}")
    dumps_derivation(out)


def _cut_texts(pairs) -> list[str]:
    return [t for p in pairs for t in (p.left, p.right, p.cut_formula, p.variant)]


def chain_pass(seed: int, index: int) -> tuple[list[Op], None, list[str]]:
    pairs = gen.chain_set(seed, index)
    return [Op("cut-chain", lambda p=p: _eliminate(p)) for p in pairs], None, _cut_texts(pairs)


# --- replay ----------------------------------------------------------------------------

def _golden() -> None:
    results, coverage = run_all()
    failed = [r.case.id for r in results if not r.ok]
    expect(not failed and coverage.ok, f"golden: failed {failed}, {coverage}")


def _side(text: str):
    return Side.A if text == "a" else Side.C


def _replay(item: gen.Replay) -> None:
    d = loads_derivation(item.text)
    check_valid(d, "loaded derivation")
    expect(dumps_derivation(d) == item.text, "dump is not bit-exact")
    expect(same_tree(dual_derivation(dual_derivation(d)), d), "dual of dual differs")
    f, side = parse_formula(item.weaken_formula), _side(item.weaken_side)
    w = weaken(d, f, side)
    check_valid(w, "weakened")
    expect(w.height == d.height, "weakening changed the height")
    expect(format_sequent(w.conclusion) == item.weakened, "weakened endsequent")
    if item.contracts:
        c = contract(w, f, side)
        check_valid(c, "contracted")
        expect(c.height <= d.height, "contraction grew the height")
        expect(format_sequent(c.conclusion) == item.conclusion, "contracted endsequent")


def _tower(height: int) -> None:
    """Build the tower from its two sequents, then check, round-trip, dualize
    twice and weaken it; each step that overflows the stack is one error."""
    top = parse_sequent(gen.TOWER_TOP)
    closer = node(RuleId.RfPlus, parse_sequent(gen.TOWER_CLOSER))
    principal = parse_formula("p -> p")
    d = node(RuleId.RfPlus, top)
    for _ in range(height):
        d = node(RuleId.ImpLa, top, (d, closer), principal=principal)

    def check():
        report = check_derivation(d)
        expect(report.valid and report.height == height, f"tower {height}: {report}")

    def round_trip():
        expect(same_tree(loads_derivation(dumps_derivation(d)), d),
               f"tower {height} does not round-trip")

    def dual_dual():
        expect(same_tree(dual_derivation(dual_derivation(d)), d),
               f"tower {height}: dual of dual differs")

    def weakened():
        w = weaken(d, parse_formula("q"), Side.A)
        expect(w.height == height and w.conclusion.gamma == top.gamma.add(Atom("q")),
               f"tower {height}: bad weakening")

    errors = []
    for step in (check, round_trip, dual_dual, weakened):
        try:
            step()
        except RecursionError as e:
            errors.append(e)
    if errors:
        raise Failures(errors)


def replay_pass(seed: int, index: int) -> tuple[list[Op], None, list[str]]:
    rng = random.Random(f"replay/{seed}/{index}")
    items = [gen.replay_item(rng) for _ in range(REPLAY_DERIVATIONS)]
    pairs = [gen.random_cut_pair(rng, v) for v in ("CutA", "CutC")
             for _ in range(REPLAY_CUT_PAIRS // 2)]
    ops = [Op("golden", _golden)]
    ops += [Op("derivation", lambda it=it: _replay(it)) for it in items]
    ops += [Op("cut", lambda p=p: _eliminate(p)) for p in pairs]
    rng.shuffle(ops)
    # the towers open every pass, shortest first: the memory they need then
    # comes from a heap in the same state every time, and peak_rss_mb does not
    # depend on where the shuffle put them
    ops[:0] = [Op("tower", lambda h=h: _tower(h)) for h in gen.TOWER_LADDER]
    texts = [it.text for it in items] + _cut_texts(pairs) + [gen.TOWER_TOP, gen.TOWER_CLOSER]
    return ops, None, texts


class Workload(NamedTuple):
    make_pass: Callable   # (seed, pass index) -> (ops, verdicts or None, input texts)
    #: seconds one pass takes on the seed engine when the machine runs at its
    #: slow speed (see ``speed``).  A run makes as many passes as fit in
    #: ``--seconds`` at that pace: a fixed amount of work, so the counts of a
    #: run repeat exactly whatever the machine's speed.
    pass_s: float
    #: the latency percentile reported as op_tail_ms.  It leaves at least ten
    #: completed operations beyond it in a 30 s run and falls where many
    #: operations of similar cost lie, so that it is steady from run to run:
    #: cut-chain's p94 would be the cheapest of its six L = 40 eliminations,
    #: an extreme of a few long, noisy timings, and replay's p99 would sit on
    #: the jump from random derivations to towers and golden runs.
    tail_pct: float


WORKLOADS = {
    "prove": Workload(prove_pass, 4.0, 99),
    "cut-chain": Workload(chain_pass, 8.5, 90),
    "replay": Workload(replay_pass, 2.8, 95),
}
