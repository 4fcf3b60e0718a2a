"""Shared strategies and corpus builders for the test suite.

The randomized corpora are seeded (override with BINT_SEED) so failures
reproduce; session-scoped fixtures keep the 200-derivation corpus shared
across test modules.
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import strategies as st

from bint.syntax import BOT, TOP, And, Atom, Coimp, Imp, Or
from bint.kernel import MINUS, PLUS, Context, RuleId as R, Sequent, Side, node, parse_sequent
from bint.transform import derive_identity, weaken
from random_derivations import random_derivation

SEED = int(os.environ.get("BINT_SEED", "0"))

_LEAVES = (Atom("p"), Atom("q"), Atom("r"), BOT, TOP)
leaves = st.sampled_from(_LEAVES)


def formulas(max_leaves: int = 6):
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.builds(And, sub, sub), st.builds(Or, sub, sub),
            st.builds(Imp, sub, sub), st.builds(Coimp, sub, sub)),
        max_leaves=max_leaves,
    )


contexts = st.lists(formulas(max_leaves=3), max_size=3).map(Context.from_iter)
polarities = st.sampled_from([PLUS, MINUS])
sequents = st.builds(Sequent, contexts, contexts, polarities, formulas(max_leaves=3))


def random_formula(rng: random.Random, n_leaves: int):
    if n_leaves == 1:
        return rng.choice(_LEAVES)
    split = rng.randrange(1, n_leaves)
    return rng.choice((And, Or, Imp, Coimp))(random_formula(rng, split),
                                             random_formula(rng, n_leaves - split))


def random_sequent(rng: random.Random) -> Sequent:
    """Up to 3 formulas a side, each of 1 to 4 leaves over p, q, r, T, F."""
    def side():
        return Context.from_iter(random_formula(rng, rng.randint(1, 4))
                                 for _ in range(rng.randrange(4)))
    return Sequent(side(), side(), rng.choice((PLUS, MINUS)),
                   random_formula(rng, rng.randint(1, 4)))


#: the heavy-tail reproducer: derivable, and 928,679 expansions deep for the
#: depth-first search that once built proofs
REPRODUCER = parse_sequent(
    "r \\/ T \\/ q, q \\/ F -> q ; (T /\\ q) /\\ q, (q -< p) -< T /\\ p "
    "|-- ((T \\/ q) \\/ (T -< r)) /\\ F")


def horn_chain(length: int, with_start: bool):
    """``a0, a0 -> a1, ..., a(L-1) -> aL ; |-+ aL``; derivable iff ``a0`` is there."""
    links = [f"a{i} -> a{i + 1}" for i in range(length)]
    return parse_sequent(", ".join(links + ["a0"] * with_start) + f" ; |-+ a{length}")


@pytest.fixture(scope="session")
def derivation_corpus() -> list:
    """200 seeded random cut-free derivations (the regression corpus)."""
    return [random_derivation(SEED * 1000 + i, 10) for i in range(200)]


_SMALL = [Atom("p"), Atom("q"), Atom("r"), BOT, TOP,
          And(Atom("p"), Atom("q")), Or(Atom("q"), BOT),
          Imp(Atom("p"), Atom("q")), Coimp(Atom("r"), TOP)]


def _principal_gadget(rng: random.Random, variant: R):
    """A right premise whose root decomposes the cut formula itself, so the
    principal-principal reductions (including the variant flips) get hit."""
    x = rng.choice([Atom("p"), Atom("q"), BOT, TOP])
    y = rng.choice([Atom("q"), Atom("r"), BOT, TOP])
    extra_g = Context.from_iter(rng.choice(_SMALL) for _ in range(rng.randrange(0, 2)))
    extra_d = Context.from_iter(rng.choice(_SMALL) for _ in range(rng.randrange(0, 2)))
    kind = rng.randrange(4)
    if variant is R.CutA:
        seq = lambda g, d: Sequent(g, d, PLUS, TOP)
        leaf = lambda g, d: node(R.TopRPlus, seq(g, d))
        if kind == 0:
            dfm = And(x, y)
            right = node(R.AndLa, seq(extra_g.add(dfm), extra_d),
                         [leaf(extra_g.add(x).add(y), extra_d)], principal=dfm)
        elif kind == 1:
            dfm = Or(x, y)
            right = node(R.OrLa, seq(extra_g.add(dfm), extra_d),
                         [leaf(extra_g.add(x), extra_d),
                          leaf(extra_g.add(y), extra_d)], principal=dfm)
        elif kind == 2:
            dfm = Imp(TOP, y)
            right = node(R.ImpLa, seq(extra_g.add(dfm), extra_d),
                         [leaf(extra_g.add(dfm), extra_d),
                          leaf(extra_g.add(y), extra_d)], principal=dfm)
        else:
            dfm = Coimp(x, y)
            right = node(R.CoimpLa, seq(extra_g.add(dfm), extra_d),
                         [leaf(extra_g.add(x), extra_d.add(y))], principal=dfm)
    else:
        seq = lambda g, d: Sequent(g, d, MINUS, BOT)
        leaf = lambda g, d: node(R.BotRMinus, seq(g, d))
        if kind == 0:
            dfm = And(x, y)
            right = node(R.AndLc, seq(extra_g, extra_d.add(dfm)),
                         [leaf(extra_g, extra_d.add(x)),
                          leaf(extra_g, extra_d.add(y))], principal=dfm)
        elif kind == 1:
            dfm = Or(x, y)
            right = node(R.OrLc, seq(extra_g, extra_d.add(dfm)),
                         [leaf(extra_g, extra_d.add(x).add(y))], principal=dfm)
        elif kind == 2:
            dfm = Imp(x, y)
            right = node(R.ImpLc, seq(extra_g, extra_d.add(dfm)),
                         [leaf(extra_g.add(x), extra_d.add(y))], principal=dfm)
        else:
            dfm = Coimp(x, BOT)
            right = node(R.CoimpLc, seq(extra_g, extra_d.add(dfm)),
                         [leaf(extra_g, extra_d.add(dfm)),
                          leaf(extra_g, extra_d.add(x))], principal=dfm)
    return right, dfm


def random_cut_pair(rng: random.Random, variant: R):
    """A premise pair for one cut: the right premise comes from the random
    generator (or a principal-shaped gadget), the left premise is a
    reflexivity construction for the chosen cut formula, optionally wrapped so
    that every dispatch family is hit."""
    side = Side.A if variant is R.CutA else Side.C
    if rng.random() < 0.35:
        right, dfm = _principal_gadget(rng, variant)
    else:
        right = random_derivation(rng.randrange(10 ** 9), rng.randrange(3, 9))
        side_ctx = right.conclusion.gamma if variant is R.CutA else right.conclusion.delta
        if side_ctx.is_empty() or rng.random() < 0.25:
            dfm = rng.choice(_SMALL)
            right = weaken(right, dfm, side)
        else:
            dfm = rng.choice(list(side_ctx.distinct()))

    extra_g = Context.from_iter(rng.choice(_SMALL) for _ in range(rng.randrange(0, 2)))
    extra_d = Context.from_iter(rng.choice(_SMALL) for _ in range(rng.randrange(0, 2)))
    pol = PLUS if variant is R.CutA else MINUS
    left = derive_identity(extra_g, extra_d, dfm, pol)

    # sometimes bury the succedent under a left rule so the cut has to be
    # permuted into the left premise as well
    if rng.random() < 0.4:
        g, d = left.conclusion.gamma, left.conclusion.delta
        if len(g) >= 2:
            a = rng.choice(list(g.expand()))
            b = rng.choice(list(g.remove(a).expand()))
            conc = Sequent(g.remove(a).remove(b).add(And(a, b)), d,
                           left.conclusion.polarity, left.conclusion.succedent)
            left = node(R.AndLa, conc, [left], principal=And(a, b))
        elif not g.is_empty() and not d.is_empty():
            a = rng.choice(list(g.expand()))
            b = rng.choice(list(d.expand()))
            conc = Sequent(g.remove(a).add(Coimp(a, b)), d.remove(b),
                           left.conclusion.polarity, left.conclusion.succedent)
            left = node(R.CoimpLa, conc, [left], principal=Coimp(a, b))
    return left, right, dfm


def chain_proof(gamma: Context, chain: list) -> object:
    """Derivation of (gamma;) |-+ chain[-1] through the implication chain
    a0 -> a1 -> ... (all links in gamma); height is the chain length."""
    d = node(R.RfPlus, Sequent(gamma, Context(), PLUS, chain[0]))
    for lo, hi in zip(chain, chain[1:]):
        link = Imp(lo, hi)
        closing = node(R.RfPlus, Sequent(gamma.remove(link).add(hi), Context(), PLUS, hi))
        d = node(R.ImpLa, Sequent(gamma, Context(), PLUS, hi), [d, closing],
                 principal=link)
    return d


def tower(height: int, bad_at: int = -1):
    """``ImpLa`` stacked ``height`` times on ``p, p -> p ; |-+ p``; the node
    ``bad_at`` levels above the leaf is replaced by an invalid ``RfMinus``."""
    top = parse_sequent("p, p -> p ; |-+ p")
    closer = node(R.RfPlus, parse_sequent("p, p ; |-+ p"))
    d = node(R.RfPlus, top)
    for level in range(1, height + 1):
        if level == bad_at:
            d = node(R.RfMinus, top)
        else:
            d = node(R.ImpLa, top, (d, closer), principal=Imp(Atom("p"), Atom("p")))
    return d


def _bump_pair():
    """A principal conjunction cut whose two left subproofs are tall chains
    while the right premise closes by restating an operand: the inner operand
    cut resolves by weakening a tall subtree, so the outer operand cut has a
    larger cut-height than the original cut (its weight is smaller)."""
    a, b, c, e, f, g = (Atom(x) for x in "abcefg")
    p, q = Atom("p"), Atom("q")
    gamma = Context.of(a, Imp(a, b), Imp(b, c), Imp(c, p),
                       e, Imp(e, f), Imp(f, g), Imp(g, q))
    l1 = chain_proof(gamma, [a, b, c, p])
    l2 = chain_proof(gamma, [e, f, g, q])
    left = node(R.AndRPlus, Sequent(gamma, Context(), PLUS, And(p, q)), [l1, l2])
    right = node(R.AndLa, Sequent(Context.of(And(p, q)), Context(), PLUS, p),
                 [node(R.RfPlus, Sequent(Context.of(p, q), Context(), PLUS, p))],
                 principal=And(p, q))
    return left, right, And(p, q)


@pytest.fixture(scope="session")
def cut_pairs():
    """200 premise pairs per cut variant, seeded; the first pair of each
    variant is the crafted cut-height-bump instance (dualized for CutC)."""
    from bint.kernel import dual_derivation, dual_formula
    rng = random.Random(SEED + 42)
    bump_left, bump_right, bump_d = _bump_pair()
    dual_bump = (dual_derivation(bump_left), dual_derivation(bump_right),
                 dual_formula(bump_d))
    return {
        R.CutA: [(bump_left, bump_right, bump_d)]
        + [random_cut_pair(rng, R.CutA) for _ in range(199)],
        R.CutC: [dual_bump] + [random_cut_pair(rng, R.CutC) for _ in range(199)],
    }
