import hashlib
import random
import sys

import pytest
from hypothesis import given, settings

from bint import corpus, search
from bint.decide import derivable
from bint.kernel import (
    MINUS, PLUS, Expansion, RuleId as R, Sequent, Side, check_derivation, dual_derivation,
    dual_formula, dual_sequent, node, parse_sequent, premises_for,
)
from bint.search import Proved, Refuted, prove
from random_derivations import random_derivation
from bint.serialize import dumps_derivation, load_derivation
from bint.syntax import Atom, Imp
from bint.transform import (
    InternalCheckError, contract, derive_identity, eliminate_cut, weaken,
)
from conftest import (
    REPRODUCER, SEED, contexts, formulas, horn_chain, polarities, random_sequent,
)

p, q = Atom("p"), Atom("q")


def outcome_name(o):
    return {Proved: "proved", Refuted: "refuted"}[type(o)]


def test_implication_reflexivity():
    out = prove(parse_sequent("; |-+ p -> p"))
    assert isinstance(out, Proved)
    d = out.derivation
    assert d.rule is R.ImpRPlus and d.premises[0].rule is R.RfPlus
    assert check_derivation(d).valid


def test_search_checks_every_node_it_builds(monkeypatch):
    # an expansion table that wrongly offers an axiom must not yield a Proved
    goal = parse_sequent("; |-+ p -> p")
    wrong = Expansion(R.RfPlus, None, ())
    monkeypatch.setattr(search, "backward_expansions",
                        lambda s: [wrong] if s == goal else [])
    with pytest.raises(InternalCheckError):
        prove(goal)


def assert_proves_exactly(s):
    out = prove(s)
    assert isinstance(out, Proved), s
    report = check_derivation(out.derivation)
    assert report.valid and report.cut_count == 0, s
    assert out.derivation.conclusion == s


def test_constructs_accepted_random_sequents_and_their_duals():
    rng = random.Random(f"{SEED}/construct")
    accepted = 0
    while accepted < 1000:
        s = random_sequent(rng)
        if derivable(s):
            accepted += 1
            assert_proves_exactly(s)
            assert_proves_exactly(dual_sequent(s))


def test_constructs_the_heavy_tail_reproducer():
    assert_proves_exactly(REPRODUCER)
    assert_proves_exactly(dual_sequent(REPRODUCER))


def test_horn_chains_are_built_without_backtracking(monkeypatch):
    # at the default recursion limit, so a height-200 proof must fit in it
    assert sys.getrecursionlimit() == 1000
    calls = 0
    constructors = []
    real = search.backward_expansions

    def expand(s):
        nonlocal calls
        calls += 1
        return real(s)

    class Recorded(search._Constructor):
        def __init__(self):
            super().__init__()
            constructors.append(self)

    monkeypatch.setattr(search, "backward_expansions", expand)
    monkeypatch.setattr(search, "_Constructor", Recorded)
    for length in [*range(4, 17), 25, 50, 100, 200]:
        for s in (horn_chain(length, True), dual_sequent(horn_chain(length, True))):
            calls = 0
            out = prove(s)
            assert isinstance(out, Proved) and out.derivation.conclusion == s
            assert calls <= 2 * length + 2, (length, calls)
            assert constructors[-1].backtracks == 0
            assert out.derivation.height == length
            assert check_derivation(out.derivation).valid


#: SHA-256 over the proof of every pinned query below and of its dual, as
#: dumped (``refuted`` for none), and the number of ``backward_expansions``
#: calls they took: any change to a proof, or to what is expanded, changes them
PROVE_DIGEST = "a3f1655ae3a0160c8310457ee89ab51c87feeadc28ff0fc6025864e84e0e3cc7"
PROVE_EXPANSIONS = 9975


def test_prove_output_is_pinned(monkeypatch):
    if SEED != 0:
        pytest.skip("the digest pins the random sequents of the default seed")
    calls = 0
    real = search.backward_expansions

    def expand(s):
        nonlocal calls
        calls += 1
        return real(s)

    monkeypatch.setattr(search, "backward_expansions", expand)
    queries = [parse_sequent(c.input["sequent"])
               for c in corpus.load_manifest() if c.kind == "prove"]
    rng = random.Random(f"{SEED}/pin")
    accepted = []
    while len(accepted) < 1000:
        s = random_sequent(rng)
        if derivable(s):
            accepted.append(s)
    queries += accepted
    queries += [horn_chain(n, start) for n in range(4, 51) for start in (True, False)]
    assert len(queries) == 1101
    digest = hashlib.sha256()
    for s in queries:
        for x in (s, dual_sequent(s)):
            out = prove(x)
            digest.update(dumps_derivation(out.derivation).encode()
                          if isinstance(out, Proved) else b"refuted\n")
    assert (digest.hexdigest(), calls) == (PROVE_DIGEST, PROVE_EXPANSIONS)


def _right_premise_by_cut(d, principal, side):
    """From ``d`` concluding ``Gamma, A -> B ; Delta |-* C`` (side a), cut
    ``A -> B`` against ``Gamma, B ; Delta |-+ A -> B`` and contract back to
    ``Gamma, B ; Delta |-* C``; dually for ``A -< B`` on side c."""
    s = d.conclusion
    a, b = principal.left, principal.right
    if side is Side.A:
        g, dl = s.gamma.remove(principal), s.delta
        left = node(R.ImpRPlus, Sequent(g.add(b), dl, PLUS, principal),
                    [derive_identity(g.add(a), dl, b, PLUS)])
        out = eliminate_cut(left, d, principal, R.CutA)
    else:
        g, dl = s.gamma, s.delta.remove(principal)
        left = node(R.CoimpRMinus, Sequent(g, dl.add(a), MINUS, principal),
                    [derive_identity(g, dl.add(b), a, MINUS)])
        out = eliminate_cut(left, d, principal, R.CutC)
    for f in g.expand():
        out = contract(out, f, Side.A)
    for f in dl.expand():
        out = contract(out, f, Side.C)
    return out


def test_implication_left_is_invertible_in_its_right_premise(derivation_corpus):
    """The lemma the constructor commits on: ``ImpLa`` and, dually,
    ``CoimpLc`` lose nothing once their kept premise is derivable."""
    golden = [load_derivation(path) for path in sorted(corpus.DATA_DIR.glob("*.deriv"))]
    seen = 0
    for d in derivation_corpus + [d for d in golden if d.cut_count == 0]:
        for principal in d.conclusion.gamma.distinct():
            if not isinstance(principal, Imp):
                continue
            for x, f, rule, side in ((d, principal, R.ImpLa, Side.A),
                                     (dual_derivation(d), dual_formula(principal), R.CoimpLc,
                                      Side.C)):
                out = _right_premise_by_cut(x, f, side)
                assert check_derivation(out).valid and out.cut_count == 0
                assert out.conclusion == premises_for(x.conclusion, rule, f)[1]
                seen += 1
    assert seen >= 40


def test_noninvertible_premise_witnesses():
    assert isinstance(prove(parse_sequent("F -> F ; |-+ F -> F")), Proved)
    assert isinstance(prove(parse_sequent("F -> F ; |-+ F")), Refuted)
    assert isinstance(prove(parse_sequent("; T -< T |-- T -< T")), Proved)
    assert isinstance(prove(parse_sequent("; T -< T |-- T")), Refuted)


def test_peirce_refuted():
    assert isinstance(prove(parse_sequent("; |-+ ((p -> q) -> p) -> p")), Refuted)


def test_proved_concludes_the_query_exactly():
    s = parse_sequent("p, p ; q |-+ p /\\ p")
    out = prove(s)
    assert isinstance(out, Proved)
    assert out.derivation.conclusion == s
    assert check_derivation(out.derivation).valid


@given(contexts, contexts, formulas(max_leaves=3), polarities)
@settings(max_examples=40, deadline=None)
def test_oracle_finds_identity_sequents(g, d, c, pol):
    deriv = derive_identity(g, d, c, pol)
    assert isinstance(prove(deriv.conclusion), Proved)


def test_oracle_coherence_on_transform_outputs(derivation_corpus):
    for d in derivation_corpus[:60]:
        grown = weaken(weaken(d, q, Side.A), q, Side.A)
        out = contract(grown, q, Side.A)
        assert isinstance(prove(out.conclusion), Proved)


def test_dual_invariance_of_verdicts():
    suite = [
        "; |-+ p -> p",
        "F -> F ; |-+ F",
        "; |-+ ((p -> q) -> p) -> p",
        "; |-+ p \\/ (p -> F)",
        "p ; q |-+ p /\\ (q \\/ p)",
        "; p -> q |-- r",
    ]
    for text in suite:
        s = parse_sequent(text)
        assert outcome_name(prove(s)) == outcome_name(prove(dual_sequent(s)))


def test_random_derivation_budget_one_is_an_axiom():
    d = random_derivation(SEED, 1)
    assert d.height == 0 and not d.premises


def test_random_derivation_always_checks():
    for seed in range(40):
        d = random_derivation(seed, 12)
        report = check_derivation(d)
        assert report.valid and report.cut_count == 0


def test_random_derivation_deterministic():
    a = [random_derivation(seed, 12) for seed in range(30)]
    b = [random_derivation(seed, 12) for seed in range(30)]
    assert a == b
    mean_height = sum(d.height for d in a) / len(a)
    assert mean_height > 1  # the generator actually composes rules


def test_random_derivation_rejects_zero_budget():
    with pytest.raises(ValueError):
        random_derivation(0, 0)
