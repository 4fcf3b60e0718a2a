"""The decision procedure of `bint.decide` against the calculus it decides:
its translation rule by rule, the rules read backward, an exhaustive
loop-checked search, duality and the golden corpus; and `prove`, which asks
it before constructing a proof."""

import random
import timeit

import pytest

from bint import corpus, decide, search
from bint.decide import derivable
from bint.kernel import (
    MINUS, PLUS, SCHEMA, Context, RuleId as R, Sequent, Side, backward_expansions, dual_sequent,
    parse_sequent, premises_for, sequent,
)
from bint.syntax import BOT, TOP, Atom
from bint.search import Refuted, prove
from bint.transform import InternalCheckError
from conftest import REPRODUCER, SEED, horn_chain, random_sequent

def sample(n: int, salt: str) -> list:
    rng = random.Random(f"{SEED}/{salt}")
    return [random_sequent(rng) for _ in range(n)]


class _OverBudget(Exception):
    pass


def test_decider_reads_neither_the_search_nor_the_checker():
    used = set(vars(decide))
    assert not used & {"search", "backward_expansions", "premises_for", "check_derivation",
                       "check_rule_instance", "SCHEMA"}


# --- the translation, rule by rule ------------------------------------------------

def _text(g4, i):
    """Image formula ``i`` as text, or a tuple (connective, left, right)."""
    kind, left, right = g4.kind[i], g4.left[i], g4.right[i]
    if kind == decide._ATOM:
        return left if right else left + "'"
    if kind in (decide._BOT, decide._TOP):
        return "FT"[kind == decide._TOP]
    return ({decide._AND: "&", decide._OR: "|", decide._IMP: ">"}[kind],
            _text(g4, left), _text(g4, right))


def _image(g4, s: Sequent):
    antecedent = [g4.signed(f, True) for f in s.gamma.expand()]
    antecedent += [g4.signed(f, False) for f in s.delta.expand()]
    return (frozenset(_text(g4, i) for i in antecedent),
            _text(g4, g4.signed(s.succedent, s.polarity is PLUS)))


def _g3ip_rules(conclusion, premises) -> set:
    """The rules of G3ip, implication-left as Kleene's, of which
    ``premises / conclusion`` is an instance."""
    gamma, goal = conclusion
    found = set()
    if not premises:
        found |= {"Ax"} if goal in gamma and isinstance(goal, str) else set()
        found |= {"FL"} if "F" in gamma else set()
        found |= {"TR"} if goal == "T" else set()
    if isinstance(goal, tuple):
        op, x, y = goal
        if op == "&" and premises == [(gamma, x), (gamma, y)]:
            found.add("&R")
        if op == "|" and premises in ([(gamma, x)], [(gamma, y)]):
            found.add("|R")
        if op == ">" and premises == [(gamma | {x}, y)]:
            found.add(">R")
    for f in gamma:
        if isinstance(f, tuple):
            op, x, y = f
            rest = gamma - {f}
            if op == "&" and premises == [(rest | {x, y}, goal)]:
                found.add("&L")
            if op == "|" and premises == [(rest | {x}, goal), (rest | {y}, goal)]:
                found.add("|L")
            if op == ">" and premises == [(gamma, x), (rest | {y}, goal)]:
                found.add(">L")
    return found


_G3IP_RULE = {
    R.AndRPlus: "&R", R.AndRMinus1: "|R", R.AndRMinus2: "|R", R.AndLa: "&L", R.AndLc: "|L",
    R.OrRPlus1: "|R", R.OrRPlus2: "|R", R.OrRMinus: "&R", R.OrLa: "|L", R.OrLc: "&L",
    R.ImpRPlus: ">R", R.ImpRMinus: "&R", R.ImpLa: ">L", R.ImpLc: "&L",
    R.CoimpRPlus: "&R", R.CoimpRMinus: ">R", R.CoimpLa: "&L", R.CoimpLc: ">L",
}


def test_each_rule_translates_to_one_g3ip_rule():
    p, q, r, s, t = (Atom(x) for x in "pqrst")
    for rule, schema in SCHEMA.items():
        principal = schema.connective(p, q)
        for pol in (PLUS, MINUS):
            if schema.at is Side.A:
                conclusion = sequent([r, principal], [s], pol, t)
            elif schema.at is Side.C:
                conclusion = sequent([r], [s, principal], pol, t)
            elif schema.at is pol:
                conclusion = sequent([r], [s], pol, principal)
            else:
                continue
            g4 = decide._G4ip()
            premises = [_image(g4, x) for x in premises_for(conclusion, rule, principal)]
            assert _g3ip_rules(_image(g4, conclusion), premises) == {_G3IP_RULE[rule]}, rule
    closers = {
        R.RfPlus: sequent([p], [], PLUS, p), R.RfMinus: sequent([], [p], MINUS, p),
        R.BotLa: sequent([BOT], [], MINUS, q), R.TopLc: sequent([], [TOP], PLUS, q),
        R.TopRPlus: sequent([], [], PLUS, TOP), R.BotRMinus: sequent([], [], MINUS, BOT),
    }
    for rule, conclusion in closers.items():
        assert premises_for(conclusion, rule) == ()
        assert len(_g3ip_rules(_image(decide._G4ip(), conclusion), [])) == 1, rule


def test_decider_is_closed_under_the_rules():
    """Every zero-premise instance is accepted; an instance whose premises are
    all accepted has its conclusion accepted; and every accepted sequent is
    the conclusion of some instance whose premises are all accepted."""
    closers = 0
    for s in sample(500, "rules"):
        accepted = derivable(s)
        closes = False
        for e in backward_expansions(s):
            if all(derivable(p) for p in e.premises):
                assert accepted, f"{e.rule.value} derives {s} from accepted premises"
                closes = True
                closers += not e.premises
        assert closes == accepted, f"no rule derives the accepted {s}"
    assert closers > 50


def _searches_to_a_proof(s: Sequent, expand, path: frozenset = frozenset()) -> bool:
    """Whether an exhaustive backward search, with a loop check over sequents
    whose multiplicities are capped at one, derives ``s``.  Independent of
    both the decider and the constructor of ``bint.search``."""
    s = Sequent(Context.from_iter(s.gamma.distinct()), Context.from_iter(s.delta.distinct()),
                s.polarity, s.succedent)
    if s in path:
        return False
    path |= {s}
    return any(all(_searches_to_a_proof(p, expand, path) for p in e.premises)
               for e in expand(s))


def test_decider_agrees_with_the_search():
    budget = 500
    verdicts = disagreements = 0
    for s in sample(300, "search"):
        left = budget

        def expand(seq):
            nonlocal left
            left -= 1
            if left < 0:
                raise _OverBudget
            return backward_expansions(seq)

        try:
            found = _searches_to_a_proof(s, expand)
        except _OverBudget:
            continue
        verdicts += 1
        disagreements += derivable(s) != found
    assert disagreements == 0
    assert verdicts > 250


def test_decider_gives_a_sequent_and_its_dual_one_verdict():
    for s in sample(1000, "dual"):
        assert derivable(s) == derivable(dual_sequent(s)), s


def test_decider_on_the_golden_prove_cases():
    cases = [c for c in corpus.load_manifest() if c.kind == "prove"]
    assert len(cases) == 7
    for c in cases:
        assert derivable(parse_sequent(c.input["sequent"])) == (
            c.expected["outcome"] == "proved"), c.id


def test_decider_on_the_heavy_tail():
    assert derivable(REPRODUCER) and derivable(dual_sequent(REPRODUCER))
    assert derivable(horn_chain(100, True))
    assert not derivable(horn_chain(100, False))
    # generous bounds: the search took 87 s on the reproducer
    for s in (REPRODUCER, dual_sequent(REPRODUCER), horn_chain(40, False)):
        assert min(timeit.repeat(lambda: derivable(s), number=1, repeat=3)) < 0.1


def test_prove_refutes_without_searching(monkeypatch):
    def expand(seq):
        raise AssertionError("prove searched a sequent it should refute")

    monkeypatch.setattr(search, "backward_expansions", expand)
    for text in ("F -> F ; |-+ F", "; T -< T |-- T", "; |-+ ((p -> q) -> p) -> p"):
        assert isinstance(prove(parse_sequent(text)), Refuted)
    assert isinstance(prove(horn_chain(40, False)), Refuted)


def test_prove_raises_when_the_search_exhausts_an_accepted_sequent(monkeypatch):
    monkeypatch.setattr(search, "derivable", lambda s: True)
    with pytest.raises(InternalCheckError):
        prove(parse_sequent("F -> F ; |-+ F"))
