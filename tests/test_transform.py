import hashlib
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings

from bint.syntax import (
    BOT, TOP, And, Atom, Bottom, Coimp, Formula, Imp, Or, Top, parse_formula, weight,
)
from bint.kernel import (
    MINUS, PLUS, Annotation, Context, ContextSplit, Derivation, Polarity, RuleId as R, Sequent,
    Side, check_derivation, fold, node, parse_sequent,
)
from bint.transform import (
    CutTrace, SpecialWeakening, TransformError, _node, contract, derive_identity,
    eliminate_cut, invert, unweaken_special, weaken, weaken_context,
)
from bint import corpus, transform
from bint.serialize import dumps_derivation, load_derivation, loads_derivation
from conftest import SEED, chain_proof, contexts, formulas, polarities, random_formula
from perfbench import gen

p, q, r = Atom("p"), Atom("q"), Atom("r")
EMPTY = Context()


def assert_cutfree_valid(d):
    report = check_derivation(d)
    assert report.valid, report
    assert report.cut_count == 0
    return report


# --- identity expansion -----------------------------------------------------------

def test_identity_atom_is_one_axiom():
    d = derive_identity(EMPTY, EMPTY, p, PLUS)
    assert d.rule is R.RfPlus and d.height == 0
    assert d.conclusion == parse_sequent("p ; |-+ p")


def test_identity_low_weight_conjunction():
    d = derive_identity(EMPTY, EMPTY, And(BOT, BOT), PLUS)
    assert d.rule is R.AndLa and d.premises[0].rule is R.BotLa
    assert d.height == 1


def test_identity_atomic_conjunction_height_two():
    d = derive_identity(EMPTY, EMPTY, And(p, q), PLUS)
    assert d.rule is R.AndRPlus and d.height == 2
    assert d.conclusion == parse_sequent("p /\\ q ; |-+ p /\\ q")


@given(contexts, contexts, formulas(), polarities)
@settings(max_examples=120, deadline=None)
def test_identity_total_and_valid(g, d, c, pol):
    deriv = derive_identity(g, d, c, pol)
    assert_cutfree_valid(deriv)
    if pol is PLUS:
        assert deriv.conclusion == Sequent(g.add(c), d, PLUS, c)
    else:
        assert deriv.conclusion == Sequent(g, d.add(c), MINUS, c)


def ref_identity(g, d, c, pol):
    if weight(c) <= 1:
        return ref_identity_base(g, d, c, pol)
    return ref_identity_step(g, d, c, pol)


# The one-step figures of weight <= 1, one branch per connective, operand pair
# and polarity, as they were written by hand before they were derived from the
# rule table.
def ref_identity_base(g: Context, d: Context, c: Formula, pol: Polarity) -> Derivation:
    plus = pol is PLUS
    conc = Sequent(g.add(c), d, PLUS, c) if plus else Sequent(g, d.add(c), MINUS, c)

    match c:
        case Bottom():
            return _node(R.BotLa if plus else R.BotRMinus, conc)
        case Top():
            return _node(R.TopRPlus if plus else R.TopLc, conc)
        case Atom():
            return _node(R.RfPlus if plus else R.RfMinus, conc)

    a, b = c.left, c.right  # weight(c) == 1: both operands are F or T
    bot_a, bot_b = isinstance(a, Bottom), isinstance(b, Bottom)

    match c:
        case And():
            if plus:
                if bot_a or bot_b:
                    prem = _node(R.BotLa, Sequent(g.add(a).add(b), d, PLUS, c))
                    return _node(R.AndLa, conc, [prem], principal=c)
                prem = _node(R.TopRPlus, Sequent(conc.gamma, d, PLUS, TOP))
                return _node(R.AndRPlus, conc, [prem, prem])
            if bot_a:
                prem = _node(R.BotRMinus, Sequent(g, conc.delta, MINUS, BOT))
                return _node(R.AndRMinus1, conc, [prem])
            if bot_b:
                prem = _node(R.BotRMinus, Sequent(g, conc.delta, MINUS, BOT))
                return _node(R.AndRMinus2, conc, [prem])
            prem = _node(R.TopLc, Sequent(g, d.add(TOP), MINUS, c))
            return _node(R.AndLc, conc, [prem, prem], principal=c)
        case Or():
            if plus:
                if not bot_a:
                    prem = _node(R.TopRPlus, Sequent(conc.gamma, d, PLUS, TOP))
                    return _node(R.OrRPlus1, conc, [prem])
                if not bot_b:
                    prem = _node(R.TopRPlus, Sequent(conc.gamma, d, PLUS, TOP))
                    return _node(R.OrRPlus2, conc, [prem])
                prem = _node(R.BotLa, Sequent(g.add(BOT), d, PLUS, c))
                return _node(R.OrLa, conc, [prem, prem], principal=c)
            if bot_a and bot_b:
                prem = _node(R.BotRMinus, Sequent(g, conc.delta, MINUS, BOT))
                return _node(R.OrRMinus, conc, [prem, prem])
            prem = _node(R.TopLc, Sequent(g, d.add(a).add(b), MINUS, c))
            return _node(R.OrLc, conc, [prem], principal=c)
        case Imp():
            if plus:
                if not bot_a and bot_b:  # T -> F closes through both arms
                    p1 = _node(R.TopRPlus, Sequent(conc.gamma, d, PLUS, TOP))
                    p2 = _node(R.BotLa, Sequent(g.add(BOT), d, PLUS, c))
                    return _node(R.ImpLa, conc, [p1, p2], principal=c)
                inner_rule = R.BotLa if bot_a and bot_b else R.TopRPlus
                succ = BOT if bot_a and bot_b else TOP
                prem = _node(inner_rule, Sequent(conc.gamma.add(a), d, PLUS, succ))
                return _node(R.ImpRPlus, conc, [prem])
            if not bot_a and bot_b:
                p1 = _node(R.TopRPlus, Sequent(g, conc.delta, PLUS, TOP))
                p2 = _node(R.BotRMinus, Sequent(g, conc.delta, MINUS, BOT))
                return _node(R.ImpRMinus, conc, [p1, p2])
            inner_rule = R.BotLa if (bot_a and bot_b) else R.TopLc
            prem = _node(inner_rule, Sequent(g.add(a), d.add(b), MINUS, c))
            return _node(R.ImpLc, conc, [prem], principal=c)
        case Coimp():
            if plus:
                if not bot_a and bot_b:
                    p1 = _node(R.TopRPlus, Sequent(conc.gamma, d, PLUS, TOP))
                    p2 = _node(R.BotRMinus, Sequent(conc.gamma, d, MINUS, BOT))
                    return _node(R.CoimpRPlus, conc, [p1, p2])
                inner_rule = R.BotLa if bot_a else R.TopLc
                prem = _node(inner_rule, Sequent(g.add(a), d.add(b), PLUS, c))
                return _node(R.CoimpLa, conc, [prem], principal=c)
            if bot_a:
                inner_rule = R.BotRMinus if bot_b else R.TopLc
                prem = _node(inner_rule, Sequent(g, conc.delta.add(b), MINUS, BOT))
                return _node(R.CoimpRMinus, conc, [prem])
            if bot_b:
                p1 = _node(R.BotRMinus, Sequent(g, conc.delta, MINUS, BOT))
                p2 = _node(R.TopLc, Sequent(g, d.add(TOP), MINUS, c))
                return _node(R.CoimpLc, conc, [p1, p2], principal=c)
            prem = _node(R.TopLc, Sequent(g, conc.delta.add(TOP), MINUS, TOP))
            return _node(R.CoimpRMinus, conc, [prem])
    raise TypeError(f"not a formula: {c!r}")


def ref_identity_step(g, d, c, pol):
    """The eight rule pairs of identity expansion, written out by hand."""
    _node = transform._node
    a, b = c.left, c.right
    plus = pol is PLUS
    conc = Sequent(g.add(c), d, PLUS, c) if plus else Sequent(g, d.add(c), MINUS, c)
    match c:
        case And():
            if plus:
                pa = _node(R.AndLa, Sequent(conc.gamma, d, PLUS, a),
                           [ref_identity(g.add(b), d, a, PLUS)], principal=c)
                pb = _node(R.AndLa, Sequent(conc.gamma, d, PLUS, b),
                           [ref_identity(g.add(a), d, b, PLUS)], principal=c)
                return _node(R.AndRPlus, conc, [pa, pb])
            pa = _node(R.AndRMinus1, Sequent(g, d.add(a), MINUS, c),
                       [ref_identity(g, d, a, MINUS)])
            pb = _node(R.AndRMinus2, Sequent(g, d.add(b), MINUS, c),
                       [ref_identity(g, d, b, MINUS)])
            return _node(R.AndLc, conc, [pa, pb], principal=c)
        case Or():
            if plus:
                pa = _node(R.OrRPlus1, Sequent(g.add(a), d, PLUS, c),
                           [ref_identity(g, d, a, PLUS)])
                pb = _node(R.OrRPlus2, Sequent(g.add(b), d, PLUS, c),
                           [ref_identity(g, d, b, PLUS)])
                return _node(R.OrLa, conc, [pa, pb], principal=c)
            pa = _node(R.OrLc, Sequent(g, conc.delta, MINUS, a),
                       [ref_identity(g, d.add(b), a, MINUS)], principal=c)
            pb = _node(R.OrLc, Sequent(g, conc.delta, MINUS, b),
                       [ref_identity(g, d.add(a), b, MINUS)], principal=c)
            return _node(R.OrRMinus, conc, [pa, pb])
        case Imp():
            if plus:
                inner = _node(R.ImpLa, Sequent(conc.gamma.add(a), d, PLUS, b),
                              [ref_identity(g.add(c), d, a, PLUS),
                               ref_identity(g.add(a), d, b, PLUS)], principal=c)
                return _node(R.ImpRPlus, conc, [inner])
            inner = _node(R.ImpRMinus, Sequent(g.add(a), d.add(b), MINUS, c),
                          [ref_identity(g, d.add(b), a, PLUS),
                           ref_identity(g.add(a), d, b, MINUS)])
            return _node(R.ImpLc, conc, [inner], principal=c)
        case Coimp():
            if plus:
                inner = _node(R.CoimpRPlus, Sequent(g.add(a), d.add(b), PLUS, c),
                              [ref_identity(g, d.add(b), a, PLUS),
                               ref_identity(g.add(a), d, b, MINUS)])
                return _node(R.CoimpLa, conc, [inner], principal=c)
            inner = _node(R.CoimpLc, Sequent(g, conc.delta.add(b), MINUS, a),
                          [ref_identity(g, d.add(c), b, MINUS),
                           ref_identity(g, d.add(b), a, MINUS)], principal=c)
            return _node(R.CoimpRMinus, conc, [inner])


def test_identity_equals_the_hand_written_rule_pairs():
    rng = random.Random(SEED + 29)

    def context():
        return Context.from_iter(random_formula(rng, rng.randint(1, 3))
                                 for _ in range(rng.randrange(3)))

    shapes = Counter()
    for _ in range(3_000):
        c = random_formula(rng, rng.randint(2, 7))
        g, d = context(), context()
        for pol in (PLUS, MINUS):
            got = derive_identity(g, d, c, pol)
            assert dumps_derivation(got) == dumps_derivation(ref_identity(g, d, c, pol))
            if weight(c) > 1:
                shapes[type(c), pol] += 1
    assert len(shapes) == 8 and min(shapes.values()) > 200


def test_identity_base_figures_equal_the_hand_written_ones():
    """Every formula of weight <= 1, at both polarities, on contexts that hold
    F, T, the formula itself and its operands."""
    light = [BOT, TOP, p] + [k(x, y) for k in (And, Or, Imp, Coimp)
                             for x in (BOT, TOP) for y in (BOT, TOP)]
    rng = random.Random(SEED + 31)
    for c in light:
        operands = (c.left, c.right) if isinstance(c, (And, Or, Imp, Coimp)) else ()
        pool = [BOT, TOP, p, q, c, *operands]
        for _ in range(120):
            g, d = (Context.from_iter(rng.choice(pool) for _ in range(rng.randrange(4)))
                    for _ in range(2))
            for pol in (PLUS, MINUS):
                assert (dumps_derivation(derive_identity(g, d, c, pol))
                        == dumps_derivation(ref_identity_base(g, d, c, pol)))


# --- weakening -------------------------------------------------------------------

def test_weaken_axiom():
    d = node(R.RfPlus, parse_sequent("p ; |-+ p"))
    out = weaken(d, q, Side.A)
    assert out == node(R.RfPlus, parse_sequent("p, q ; |-+ p"))
    assert out.height == 0


def test_weaken_rejects_cut_input():
    from bint.kernel import Annotation, ContextSplit
    rf = node(R.RfPlus, parse_sequent("p ; |-+ p"))
    cut = node(R.CutA, parse_sequent("p ; |-+ p"), [rf, rf],
               annotation=Annotation(cut_formula=p, context_split=ContextSplit(
                   Context.of(p), EMPTY, EMPTY, EMPTY)))
    with pytest.raises(TransformError):
        weaken(cut, q, Side.A)


def test_weaken_then_unweaken_restores_endsequent():
    d = derive_identity(Context.of(q), EMPTY, p, PLUS)
    out = unweaken_special(weaken(d, TOP, Side.A), SpecialWeakening.TOP_IN_GAMMA)
    assert out.conclusion == d.conclusion


def test_weaken_corpus_properties(derivation_corpus):
    rng = random.Random(SEED + 7)
    pool = [p, q, Imp(p, q), And(q, r), BOT, TOP]
    for d in derivation_corpus:
        extra = rng.choice(pool)
        side = rng.choice((Side.A, Side.C))
        out = weaken(d, extra, side)
        assert_cutfree_valid(out)
        assert out.height <= d.height
        before = d.conclusion.gamma if side is Side.A else d.conclusion.delta
        after = out.conclusion.gamma if side is Side.A else out.conclusion.delta
        assert after == before.add(extra)


def test_weaken_context_fold(derivation_corpus):
    ge, de = Context.of(p, p), Context.of(TOP)
    for d in derivation_corpus[:40]:
        out = weaken_context(d, ge, de)
        assert_cutfree_valid(out)
        assert out.height <= d.height
        assert out.conclusion.gamma == d.conclusion.gamma.union(ge)
        assert out.conclusion.delta == d.conclusion.delta.union(de)


# --- inverted weakening -----------------------------------------------------------

def test_unweaken_axiom():
    d = node(R.TopRPlus, parse_sequent("T ; |-+ T"))
    assert unweaken_special(d, SpecialWeakening.TOP_IN_GAMMA) == \
        node(R.TopRPlus, parse_sequent("; |-+ T"))


def test_unweaken_through_imp_lc():
    d = node(R.ImpLc, parse_sequent("T ; p -> q |-+ p"),
             [node(R.RfPlus, parse_sequent("p, T ; q |-+ p"))],
             principal=Imp(p, q))
    out = unweaken_special(d, SpecialWeakening.TOP_IN_GAMMA)
    assert out.conclusion == parse_sequent("; p -> q |-+ p")
    assert out.height == d.height


def test_unweaken_missing_occurrence():
    d = node(R.RfPlus, parse_sequent("p ; |-+ p"))
    with pytest.raises(TransformError):
        unweaken_special(d, SpecialWeakening.TOP_IN_GAMMA)


def test_unweaken_corpus(derivation_corpus):
    for d in derivation_corpus[:60]:
        grown = weaken(weaken(d, TOP, Side.A), BOT, Side.C)
        back = unweaken_special(
            unweaken_special(grown, SpecialWeakening.TOP_IN_GAMMA),
            SpecialWeakening.BOT_IN_DELTA)
        assert back.conclusion == d.conclusion
        assert back.height <= d.height


# --- inversion --------------------------------------------------------------------

def test_invert_principal_returns_premise():
    inner = node(R.AndRPlus, parse_sequent("p, q ; |-+ p /\\ q"),
                 [node(R.RfPlus, parse_sequent("p, q ; |-+ p")),
                  node(R.RfPlus, parse_sequent("p, q ; |-+ q"))])
    d = node(R.AndLa, parse_sequent("p /\\ q ; |-+ p /\\ q"), [inner],
             principal=And(p, q))
    (out,) = invert(d, Side.A, And(p, q))
    assert out == inner


def test_invert_disjunction_counterassumption():
    d = derive_identity(EMPTY, EMPTY, Or(p, q), MINUS)
    (out,) = invert(d, Side.C, Or(p, q))
    assert out.conclusion == parse_sequent("; p, q |-- p \\/ q")
    assert out.height <= d.height
    assert_cutfree_valid(out)


def test_invert_missing_occurrence():
    d = node(R.RfPlus, parse_sequent("p ; |-+ p"))
    with pytest.raises(TransformError):
        invert(d, Side.A, And(p, q))
    with pytest.raises(TransformError):
        invert(d, Side.A, p)  # atomic target is not invertible


_INVERT_SHAPES = [
    (Side.A, And(p, q), 1), (Side.C, And(p, q), 2),
    (Side.A, Or(p, q), 2), (Side.C, Or(p, q), 1),
    (Side.A, Imp(p, q), 1), (Side.C, Imp(p, q), 1),
    (Side.A, Coimp(p, q), 1), (Side.C, Coimp(p, q), 1),
]


@pytest.mark.parametrize("side, target, n_outputs", _INVERT_SHAPES)
def test_invert_all_cases_on_corpus(side, target, n_outputs, derivation_corpus):
    for d in derivation_corpus[:50]:
        grown = weaken(d, target, side)
        outs = invert(grown, side, target)
        assert len(outs) == n_outputs
        for out in outs:
            assert_cutfree_valid(out)
            assert out.height <= grown.height


def test_invert_all_cases_reach_stated_endsequents():
    d0 = derive_identity(Context.of(r), Context.of(r), p, PLUS)
    for side, target, _ in _INVERT_SHAPES:
        grown = weaken(d0, target, side)
        a, b = target.left, target.right
        outs = invert(grown, side, target)
        g0, dl0 = grown.conclusion.gamma, grown.conclusion.delta
        seqs = {o.conclusion for o in outs}
        strip_g, strip_d = (g0.remove(target), dl0) if side is Side.A else (g0, dl0.remove(target))
        mk = lambda ga, da: Sequent(ga, da, grown.conclusion.polarity,
                                    grown.conclusion.succedent)
        match (side, target):
            case (Side.A, And()):
                assert seqs == {mk(strip_g.add(a).add(b), strip_d)}
            case (Side.C, And()):
                assert seqs == {mk(strip_g, strip_d.add(a)), mk(strip_g, strip_d.add(b))}
            case (Side.A, Or()):
                assert seqs == {mk(strip_g.add(a), strip_d), mk(strip_g.add(b), strip_d)}
            case (Side.C, Or()):
                assert seqs == {mk(strip_g, strip_d.add(a).add(b))}
            case (Side.A, Imp()):
                assert seqs == {mk(strip_g.add(b), strip_d)}
            case (Side.C, Imp()):
                assert seqs == {mk(strip_g.add(a), strip_d.add(b))}
            case (Side.A, Coimp()):
                assert seqs == {mk(strip_g.add(a), strip_d.add(b))}
            case (Side.C, Coimp()):
                assert seqs == {mk(strip_g, strip_d.add(a))}


# --- contraction ------------------------------------------------------------------

def test_contract_axiom():
    d = node(R.RfPlus, parse_sequent("p, p ; |-+ p"))
    out = contract(d, p, Side.A)
    assert out == node(R.RfPlus, parse_sequent("p ; |-+ p"))


def test_contract_needs_two_occurrences():
    d = node(R.RfPlus, parse_sequent("p ; |-+ p"))
    with pytest.raises(TransformError):
        contract(d, p, Side.A)


def test_contract_principal_conjunction_counterassumptions():
    inner1 = node(R.AndLc, parse_sequent("; p, r, p /\\ q |-- r"),
                  [node(R.RfMinus, parse_sequent("; p, p, r |-- r")),
                   node(R.RfMinus, parse_sequent("; p, q, r |-- r"))],
                  principal=And(p, q))
    inner2 = node(R.AndLc, parse_sequent("; q, r, p /\\ q |-- r"),
                  [node(R.RfMinus, parse_sequent("; p, q, r |-- r")),
                   node(R.RfMinus, parse_sequent("; q, q, r |-- r"))],
                  principal=And(p, q))
    d = node(R.AndLc, parse_sequent("; r, p /\\ q, p /\\ q |-- r"),
             [inner1, inner2], principal=And(p, q))
    out = contract(d, And(p, q), Side.C)
    assert out.conclusion == parse_sequent("; r, p /\\ q |-- r")
    assert out.height <= d.height
    assert_cutfree_valid(out)


def test_contract_corpus_weaken_twice(derivation_corpus):
    rng = random.Random(SEED + 13)
    pool = [p, q, And(p, q), Or(p, q), Imp(p, q), Coimp(p, q), TOP, BOT]
    for d in derivation_corpus:
        dup = rng.choice(pool)
        side = rng.choice((Side.A, Side.C))
        grown = weaken(weaken(d, dup, side), dup, side)
        out = contract(grown, dup, side)
        assert_cutfree_valid(out)
        assert out.height <= grown.height
        want = grown.conclusion.gamma.remove(dup) if side is Side.A \
            else grown.conclusion.delta.remove(dup)
        got = out.conclusion.gamma if side is Side.A else out.conclusion.delta
        assert got == want


# --- cut elimination ---------------------------------------------------------------

def test_cut_on_two_axioms():
    rf = node(R.RfPlus, parse_sequent("p ; |-+ p"))
    trace = CutTrace()
    out = eliminate_cut(rf, rf, p, R.CutA, trace)
    assert out == rf
    assert trace.steps[0].case == "-1.2-"


def test_cut_principal_conjunction():
    left = derive_identity(EMPTY, EMPTY, And(p, q), PLUS)
    right = node(R.AndLa, parse_sequent("p /\\ q ; |-+ p"),
                 [node(R.RfPlus, parse_sequent("p, q ; |-+ p"))], principal=And(p, q))
    trace = CutTrace()
    out = eliminate_cut(left, right, And(p, q), R.CutA, trace)
    assert_cutfree_valid(out)
    assert out.conclusion == parse_sequent("p /\\ q ; |-+ p")
    assert "-5.1-" in trace.cases()


def test_cut_premise_mismatch_rejected():
    rf = node(R.RfPlus, parse_sequent("p ; |-+ p"))
    with pytest.raises(TransformError):
        eliminate_cut(rf, rf, q, R.CutA)  # left premise does not conclude q
    rfm = node(R.RfMinus, parse_sequent("; p |-- p"))
    with pytest.raises(TransformError):
        eliminate_cut(rfm, rf, p, R.CutA)  # wrong polarity for the a-variant


def test_measure_strictly_decreases_on_edges(cut_pairs):
    for variant, pairs in cut_pairs.items():
        for left, right, dfm in pairs[:50]:
            trace = CutTrace()
            eliminate_cut(left, right, dfm, variant, trace)
            for parent, child in trace.edges():
                assert (child.weight, child.cut_height) < (parent.weight, parent.cut_height)


def test_variant_replacement_events():
    a, b = Atom("a"), Atom("b")
    # falsification-side principal implication: the inner cut flips c -> a
    left = node(R.ImpRMinus, parse_sequent("a ; b |-- a -> b"),
                [node(R.RfPlus, parse_sequent("a ; b |-+ a")),
                 node(R.RfMinus, parse_sequent("a ; b |-- b"))])
    right = node(R.ImpLc, parse_sequent("; a -> b |-+ a"),
                 [node(R.RfPlus, parse_sequent("a ; b |-+ a"))], principal=Imp(a, b))
    trace = CutTrace()
    eliminate_cut(left, right, Imp(a, b), R.CutC, trace)
    assert any(pa.variant == "c" and ch.variant == "a" for pa, ch in trace.edges())

    # verification-side principal co-implication: the outer cut flips a -> c
    left = node(R.CoimpRPlus, parse_sequent("a ; b |-+ a -< b"),
                [node(R.RfPlus, parse_sequent("a ; b |-+ a")),
                 node(R.RfMinus, parse_sequent("a ; b |-- b"))])
    right = node(R.CoimpLa, parse_sequent("a -< b ; |-+ a"),
                 [node(R.RfPlus, parse_sequent("a ; b |-+ a"))], principal=Coimp(a, b))
    trace = CutTrace()
    eliminate_cut(left, right, Coimp(a, b), R.CutA, trace)
    assert any(pa.variant == "a" and ch.variant == "c" for pa, ch in trace.edges())


#: SHA-256 over every output and trace of the pinned elimination corpus below;
#: any change to a rewrite, its order or a case label changes it
CUT_ELIMINATION_DIGEST = "e2f58752a741e0704084869b755e10b9810571eeedc9645e461db23225a77553"


def test_cut_elimination_output_is_pinned(cut_pairs):
    # the golden -5.x- cases pin only the endsequent and the first case; this
    # pins every byte of every output and every trace line
    if SEED != 0:
        pytest.skip("the digest pins the cut_pairs of the default seed")
    inputs = [(left, right, dfm, variant)
              for variant, pairs in cut_pairs.items() for left, right, dfm in pairs]
    for case in corpus.load_manifest():
        if case.kind == "cutelim":
            inp = case.input
            inputs.append((load_derivation(corpus.DATA_DIR / inp["left"]),
                           load_derivation(corpus.DATA_DIR / inp["right"]),
                           parse_formula(inp["cut_formula"]),
                           R.CutA if inp["variant"] == "a" else R.CutC))
    assert len(inputs) == 450
    digest = hashlib.sha256()
    for left, right, dfm, variant in inputs:
        trace = CutTrace()
        out = eliminate_cut(left, right, dfm, variant, trace)
        digest.update(dumps_derivation(out).encode())
        digest.update(("\n".join(trace.lines()) + "\n").encode())
    assert digest.hexdigest() == CUT_ELIMINATION_DIGEST


#: SHA-256 over every output and trace of the tall-chain eliminations below
CHAIN_ELIMINATION_DIGEST = "d6858d26a46b472beeb85825982eec4c2eef6be043382b9c6110f4baee053fad"


@pytest.fixture(scope="module")
def chain_eliminations():
    """The 100 tall-chain pairs of the benchmark's first cut-chain pass, each
    with its right premise, its output and its trace."""
    out = []
    for pair in gen.chain_set(0, 0):
        left, right = loads_derivation(pair.left), loads_derivation(pair.right)
        trace = CutTrace()
        out.append((pair, right, eliminate_cut(left, right, parse_formula(pair.cut_formula),
                                               R(pair.variant), trace), trace))
    return out


def test_tall_chain_eliminations_are_pinned(chain_eliminations):
    assert len(chain_eliminations) == 100
    digest = hashlib.sha256()
    for _, _, out, trace in chain_eliminations:
        digest.update(dumps_derivation(out).encode())
        digest.update(("\n".join(trace.lines()) + "\n").encode())
    assert digest.hexdigest() == CHAIN_ELIMINATION_DIGEST


def _context_objects(d):
    seen = {}
    fold(d, lambda x, _: seen.update({(Side.A, id(x.conclusion.gamma)): x.conclusion.gamma,
                                      (Side.C, id(x.conclusion.delta)): x.conclusion.delta}))
    return len(seen)


def test_tall_chain_eliminations_keep_their_contexts_shared(chain_eliminations):
    # a loaded premise holds one object per distinct context text; each step
    # of the elimination computes its contexts once per distinct pair of
    # premise contexts, so the output holds no more objects than the right
    # premise: at L = 50, one Gamma shared by the chain, one per closing
    # axiom, and one empty Delta
    tall = [(right, out) for pair, right, out, _ in chain_eliminations
            if pair.tag in ("L50a", "L50c")]
    assert len(tall) == 2
    for right, out in tall:
        assert _context_objects(right) == 52
        assert _context_objects(out) <= 52 and out.height == right.height


def test_cut_elimination_computes_each_steps_contexts_once(monkeypatch):
    # each step's contexts are a memo keyed by value: the premises' four
    # contexts, the cut formula and the variant.  On the chain the steps
    # share keys, and each distinct key is computed once
    pair = next(pair for pair in gen.chain_set(0, 0) if pair.tag == "L30a")
    left, right = loads_derivation(pair.left), loads_derivation(pair.right)
    made = []
    make = transform._cut_contexts
    monkeypatch.setattr(transform, "_cut_contexts", lambda key: made.append(key) or make(key))
    trace = CutTrace()
    out = eliminate_cut(left, right, parse_formula(pair.cut_formula), R.CutA, trace)
    assert len(set(made)) == len(made) < len(trace.steps)
    assert str(out.conclusion) == pair.endsequent and out.height == right.height


def test_equal_contexts_built_apart_are_one_object_in_the_output():
    # the right premise's three equal assumption contexts are separate
    # objects; a step's contexts are found by value, so the output holds one
    # object per distinct context
    dfm, a, b = And(Atom("x"), Atom("y")), Atom("a"), Atom("b")
    gammas = [Context.from_iter([a, b, dfm]) for _ in range(3)]
    assert len({id(g) for g in gammas}) == 3
    right = node(R.AndRPlus, Sequent(gammas[0], EMPTY, PLUS, And(a, b)),
                 [node(R.RfPlus, Sequent(gammas[1], EMPTY, PLUS, a)),
                  node(R.RfPlus, Sequent(gammas[2], EMPTY, PLUS, b))])
    left = node(R.AndRPlus, parse_sequent("x, y ; |-+ x /\\ y"),
                [node(R.RfPlus, parse_sequent("x, y ; |-+ x")),
                 node(R.RfPlus, parse_sequent("x, y ; |-+ y"))])
    out = eliminate_cut(left, right, dfm, R.CutA)
    assert out.height == 1 and str(out.conclusion) == "a, b, x, y ; |-+ a /\\ b"
    for side in ("gamma", "delta"):
        found = [getattr(x.conclusion, side) for x in (out, *out.premises)]
        assert len({id(c) for c in found}) == len(set(found))


def test_cut_on_two_axioms_untraced():
    rf = node(R.RfPlus, parse_sequent("p ; |-+ p"))
    assert eliminate_cut(rf, rf, p, R.CutA) == rf


def _tall_chain_pair(length: int):
    """A Horn chain of the given height as the right premise, with the
    compound cut formula sitting unused in every one of its sequents."""
    dfm = And(Atom("x"), Atom("y"))
    atoms = [Atom(f"a{i}") for i in range(length + 1)]
    gamma = Context.from_iter(
        [atoms[0], dfm] + [Imp(lo, hi) for lo, hi in zip(atoms, atoms[1:])])
    right = chain_proof(gamma, atoms)
    left = node(R.AndRPlus, parse_sequent("x, y ; |-+ x /\\ y"),
                [node(R.RfPlus, parse_sequent("x, y ; |-+ x")),
                 node(R.RfPlus, parse_sequent("x, y ; |-+ y"))])
    return left, right, dfm


def test_cut_elimination_checks_only_its_inputs(monkeypatch):
    # every node is checked once, as it is built, so a valid input is read,
    # not walked: no operation calls the whole-tree checker on one, however
    # tall.  Only an invalid input is walked, to name its first violation.
    left, right, dfm = _tall_chain_pair(50)
    calls = []

    def counting(d):
        calls.append(d)
        return check_derivation(d)

    monkeypatch.setattr(transform, "check_derivation", counting)
    out = eliminate_cut(left, right, dfm, R.CutA)
    assert out.height == right.height
    contract(weaken(right, dfm, Side.A), dfm, Side.A)
    invert(right, Side.A, dfm)
    unweaken_special(weaken(right, TOP, Side.A), SpecialWeakening.TOP_IN_GAMMA)
    assert calls == []
    assert_cutfree_valid(out)

    # a valid chain beside an invalid axiom: the violation is at premises[1]
    s = right.conclusion
    z = Atom("z")
    bad = node(R.AndRPlus, Sequent(s.gamma, s.delta, PLUS, And(s.succedent, z)),
               [right, node(R.RfPlus, Sequent(s.gamma, s.delta, PLUS, z))])
    report = check_derivation(bad)
    assert report.first_violation[0] == "premises[1]"
    for op in (lambda: eliminate_cut(bad, right, bad.conclusion.succedent, R.CutA),
               lambda: eliminate_cut(left, bad, dfm, R.CutA),
               lambda: weaken(bad, dfm, Side.A),
               lambda: contract(bad, dfm, Side.A),
               lambda: invert(bad, Side.A, dfm),
               lambda: unweaken_special(bad, SpecialWeakening.TOP_IN_GAMMA)):
        with pytest.raises(TransformError, match="not checker-valid") as info:
            op()
        assert str(report) in str(info.value)


def test_bad_case_builder_is_caught_by_the_constructor(monkeypatch):
    # a -4.x- builder that forgets to rewrite the endsequent to the cut target
    def forgetful(self, index, measure, left, right, dfm, variant, target):
        premises = [self.run(left, q, dfm, variant, index, measure) for q in right.premises]
        return transform._node(right.rule, right.conclusion, premises,
                               annotation=right.annotation)

    monkeypatch.setattr(transform._Eliminator, "_permute_right", forgetful)
    left, right, dfm = _tall_chain_pair(3)
    with pytest.raises(transform.InternalCheckError) as info:
        eliminate_cut(left, right, dfm, R.CutA)
    assert info.traceback[-1].name == "_node"


def test_internal_check_error_is_loud():
    # an invalid input caught by the precondition check, not silently used
    bad = node(R.RfPlus, parse_sequent("; |-+ p"))
    rf = node(R.RfPlus, parse_sequent("p ; |-+ p"))
    with pytest.raises(TransformError):
        eliminate_cut(bad, rf, p, R.CutA)


def test_eliminate_cut_refuses_bad_inputs_by_name():
    rf = node(R.RfPlus, parse_sequent("p ; |-+ p"))
    rq = node(R.RfPlus, parse_sequent("q ; |-+ q"))
    rf_minus = node(R.RfMinus, parse_sequent("; p |-- p"))
    cases = [
        ((rf, rf, p, R.RfPlus), "eliminate_cut: variant must be CutA or CutC, got RfPlus"),
        ((rf, rq, q, R.CutA), "eliminate_cut: left premise must conclude |-+ q, got p ; |-+ p"),
        ((rf, rq, p, R.CutA),
         "eliminate_cut: cut formula p missing from the right premise's assumptions"),
        ((rf_minus, rq, p, R.CutC),
         "eliminate_cut: cut formula p missing from the right premise's counterassumptions"),
    ]
    for args, message in cases:
        with pytest.raises(TransformError) as info:
            eliminate_cut(*args)
        assert str(info.value) == message


def test_a_transform_refuses_an_input_with_a_cut():
    split = ContextSplit(Context.of(p), EMPTY, EMPTY, EMPTY)
    rf = node(R.RfPlus, parse_sequent("p ; |-+ p"))
    cut = node(R.CutA, rf.conclusion, [rf, rf],
               annotation=Annotation(cut_formula=p, context_split=split))
    assert cut.valid and cut.cut_count == 1
    with pytest.raises(TransformError) as info:
        weaken(cut, q, Side.A)
    assert str(info.value) == "weaken: input contains 1 cut(s)"


def test_a_tall_chain_cut_eliminates_at_the_default_recursion_limit():
    # each level of the -4.x- permutation up the chain costs the eliminator
    # three frames: ``run``, ``_permute_right`` and its generator
    assert sys.getrecursionlimit() == 1000
    left, right, dfm = _tall_chain_pair(300)
    out = eliminate_cut(left, right, dfm, R.CutA)
    assert out.valid and out.cut_count == 0 and out.height == right.height
    s = right.conclusion
    assert out.conclusion == Sequent(s.gamma.remove(dfm).union(left.conclusion.gamma), s.delta,
                                     s.polarity, s.succedent)


def test_trace_line_format():
    rf = node(R.RfPlus, parse_sequent("p ; |-+ p"))
    trace = CutTrace()
    eliminate_cut(rf, rf, p, R.CutA, trace)
    assert trace.lines() == ["case=-1.2- weight=1 cutheight=0 variant=a"]


def test_transforms_on_self_similar_operands():
    # equal operands and duplicated targets must not confuse the occurrence
    # bookkeeping anywhere
    pp = And(p, p)
    d = derive_identity(EMPTY, EMPTY, pp, PLUS)
    grown = weaken(d, pp, Side.A)
    out = contract(grown, pp, Side.A)
    assert out.conclusion == d.conclusion and out.height <= grown.height
    for o in invert(weaken(grown, pp, Side.A), Side.A, pp):
        assert_cutfree_valid(o)

    ii = Imp(p, p)
    d = derive_identity(Context.of(ii), EMPTY, ii, MINUS)
    out = contract(weaken(d, ii, Side.C), ii, Side.C)
    assert_cutfree_valid(out)
    assert out.conclusion == d.conclusion

    cc = Coimp(pp, pp)
    d = derive_identity(EMPTY, Context.of(p), cc, PLUS)
    grown = weaken(d, cc, Side.A)
    out = contract(grown, cc, Side.A)
    assert_cutfree_valid(out)
    assert out.height <= grown.height
