import pytest
from hypothesis import given, settings

from bint import search
from bint.kernel import (
    Expansion, RuleId as R, Side, check_derivation, dual_sequent, parse_sequent,
)
from bint.search import (
    BoundExhausted, Proved, Refuted, SearchConfig, prove,
    random_derivation,
)
from bint.syntax import Atom
from bint.transform import InternalCheckError, contract, derive_identity, weaken
from conftest import SEED, contexts, formulas, polarities

p, q = Atom("p"), Atom("q")


def outcome_name(o):
    return {Proved: "proved", Refuted: "refuted", BoundExhausted: "bound"}[type(o)]


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


def test_bound_exhausted_when_too_shallow():
    out = prove(parse_sequent("; |-+ p -> (q -> p)"), SearchConfig(max_depth=1))
    assert isinstance(out, BoundExhausted)


def test_config_validates_depth():
    with pytest.raises(ValueError):
        SearchConfig(max_depth=0)


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
