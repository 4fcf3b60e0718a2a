"""Shared strategies and corpus builders for the test suite.

The randomized corpora are seeded (override with BINT_SEED) so failures
reproduce; session-scoped fixtures keep the 200-derivation corpus, the
checker's corpus of nodes and their single-field mutations shared across test
modules.
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import strategies as st

from bint.corpus import DATA_DIR
from bint.syntax import BOT, TOP, And, Atom, Coimp, Imp, Or
from bint.kernel import (
    MINUS, PLUS, RIGHT_RULES, SCHEMA, Annotation, Context, RuleId as R, Sequent, Side,
    dual_derivation, node, parse_sequent, premises_for,
)
from bint.serialize import load_derivations
from bint.transform import derive_identity, weaken
from random_derivations import random_derivation
from scripts import families

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
    """The sequent of ``scripts.families.horn_chain``."""
    return parse_sequent(families.horn_chain(length, with_start))


@pytest.fixture(scope="session")
def derivation_corpus() -> list:
    """200 seeded random cut-free derivations (the regression corpus)."""
    return [random_derivation(SEED * 1000 + i, 10) for i in range(200)]


# --- the nodes of the checker's tests, and their mutations ---------------------------

RANDOM_DERIVATIONS = 1_000
_ZZ = Atom("zz")


def _nodes(roots):
    """Each distinct node of ``roots``, as (conclusion, rule, premise conclusions,
    annotation), once per value."""
    seen, visited, out, stack = set(), set(), [], list(roots)
    while stack:
        x = stack.pop()
        if id(x) in visited:
            continue
        visited.add(id(x))
        key = (x.conclusion, x.rule, tuple(p.conclusion for p in x.premises), x.annotation)
        if key not in seen:
            seen.add(key)
            out.append(key)
        stack.extend(x.premises)
    return out


@pytest.fixture(scope="session")
def nodes(derivation_corpus):
    """The distinct nodes of the corpus files, of the session corpus, and of
    1,000 more random derivations and their duals."""
    roots = [d for path in sorted(DATA_DIR.glob("*.deriv")) for d in load_derivations(path)]
    roots += derivation_corpus
    rand = [random_derivation(SEED * 1000 + 50_000 + i, 8) for i in range(RANDOM_DERIVATIONS)]
    roots += rand + [dual_derivation(d) for d in rand]
    return _nodes(roots)


@pytest.fixture(scope="session")
def mutated_nodes(nodes):
    """Every single-field mutation of every logical node of ``nodes``, as
    (rule, conclusion, premises, annotation), in one list: the checker's
    tests read it three times, and making it costs more than reading it."""
    return [(rule, *m) for s, rule, premises, annotation in nodes if rule in SCHEMA
            for m in _mutations(s, rule, premises, annotation)]


def principals(s: Sequent, rule, annotation):
    """The principals the checker tries: the annotated one, a right rule's
    succedent, or each context formula a left rule could decompose."""
    if annotation is not None and annotation.principal is not None:
        return [annotation.principal]
    if rule in RIGHT_RULES:
        return [s.succedent]
    schema = SCHEMA[rule]
    side = s.gamma if schema.at is Side.A else s.delta
    return [f for f in side.distinct() if isinstance(f, schema.connective)]


def _changed(s: Sequent, **fields) -> Sequent:
    return Sequent(**{"gamma": s.gamma, "delta": s.delta, "polarity": s.polarity,
                      "succedent": s.succedent, **fields})


def _mutations(s, rule, premises, annotation):
    """Single-field mutations of one node, as (conclusion, premises,
    annotation): one context formula added to, dropped from or replaced in
    either side of a premise, a premise's polarity flipped, the principal's
    other operand as a premise's succedent, the premises swapped, a wrong
    principal in the annotation, and every polarity flipped."""
    principal = _principal_of(s, rule, premises, annotation)
    ops = () if principal is None else (principal.left, principal.right)
    for i, p in enumerate(premises):
        def at(q):
            return s, premises[:i] + (q,) + premises[i + 1:], annotation
        for side in ("gamma", "delta"):
            ctx = getattr(p, side)
            for f in (_ZZ, *ops, *ctx[:1]):
                yield at(_changed(p, **{side: ctx.add(f)}))
            for f in ctx.distinct():
                yield at(_changed(p, **{side: ctx.remove(f)}))
                yield at(_changed(p, **{side: ctx.remove(f).add(_ZZ)}))
        yield at(_changed(p, polarity=p.polarity.flip()))
        for f in ops:
            if f != p.succedent:
                yield at(_changed(p, succedent=f))
    if len(premises) == 2:
        yield s, premises[::-1], annotation
    connective = SCHEMA[rule].connective
    wrong = [f for f in (*s.gamma.distinct(), *s.delta.distinct(), s.succedent)
             if isinstance(f, connective) and f != principal]
    for f in wrong + [connective(_ZZ, _ZZ)]:
        yield s, premises, Annotation(principal=f)
    yield (_changed(s, polarity=s.polarity.flip()),
           tuple(_changed(p, polarity=p.polarity.flip()) for p in premises), annotation)


def _principal_of(s, rule, premises, annotation):
    return next((f for f in principals(s, rule, annotation)
                 if premises_for(s, rule, f) == premises), None)


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
        if not side_ctx or rng.random() < 0.25:
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
            a = rng.choice(list(g))
            b = rng.choice(list(g.remove(a)))
            conc = Sequent(g.remove(a).remove(b).add(And(a, b)), d,
                           left.conclusion.polarity, left.conclusion.succedent)
            left = node(R.AndLa, conc, [left], principal=And(a, b))
        elif g and d:
            a = rng.choice(list(g))
            b = rng.choice(list(d))
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
