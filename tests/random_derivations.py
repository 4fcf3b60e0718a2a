"""Random valid cut-free derivations for the tests, each built by forward
composition from a random axiom; a seed gives the same derivation on every
run."""

from __future__ import annotations

import random
from typing import Optional

from bint.syntax import And, Atom, Coimp, Formula, Imp, Or
from bint.kernel import (
    MINUS, PLUS, Context, Derivation, RuleId as R, Sequent, Side, check_derivation, node,
)
from bint.transform import derive_identity, weaken

_POOL_ATOMS = ("p", "q", "r", "s")


def _random_formula(rng: random.Random, depth: int = 1) -> Formula:
    from bint.syntax import BOT, TOP
    roll = rng.random()
    if depth <= 0 or roll < 0.55:
        return rng.choice(
            [Atom(a) for a in _POOL_ATOMS] + [BOT, TOP])  # type: ignore[list-item]
    ctor = rng.choice((And, Or, Imp, Coimp))
    return ctor(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))


def _random_axiom(rng: random.Random) -> Derivation:
    from bint.syntax import BOT, TOP
    extras_g = [_random_formula(rng) for _ in range(rng.randrange(0, 3))]
    extras_d = [_random_formula(rng) for _ in range(rng.randrange(0, 3))]
    p = Atom(rng.choice(_POOL_ATOMS))
    kind = rng.randrange(6)
    if kind == 0:
        s = Sequent(Context.from_iter(extras_g + [p]), Context.from_iter(extras_d), PLUS, p)
        return node(R.RfPlus, s)
    if kind == 1:
        s = Sequent(Context.from_iter(extras_g), Context.from_iter(extras_d + [p]), MINUS, p)
        return node(R.RfMinus, s)
    succ = _random_formula(rng)
    pol = rng.choice((PLUS, MINUS))
    if kind == 2:
        s = Sequent(Context.from_iter(extras_g + [BOT]), Context.from_iter(extras_d), pol, succ)
        return node(R.BotLa, s)
    if kind == 3:
        s = Sequent(Context.from_iter(extras_g), Context.from_iter(extras_d + [TOP]), pol, succ)
        return node(R.TopLc, s)
    if kind == 4:
        s = Sequent(Context.from_iter(extras_g), Context.from_iter(extras_d), PLUS, TOP)
        return node(R.TopRPlus, s)
    s = Sequent(Context.from_iter(extras_g), Context.from_iter(extras_d), MINUS, BOT)
    return node(R.BotRMinus, s)


def _pick(rng: random.Random, ctx: Context) -> Formula:
    return rng.choice(list(ctx.expand()))


def _extend_once(d: Derivation, rng: random.Random) -> Optional[Derivation]:
    """Apply one random rule forward to ``d`` (possibly synthesizing a sibling
    premise from an identity derivation), or None when the pick does not fit."""
    s = d.conclusion
    g, dl, pol, c = s.gamma, s.delta, s.polarity, s.succedent
    move = rng.randrange(12)

    if move == 0:  # weakening keeps the corpus contexts varied
        return weaken(d, _random_formula(rng), rng.choice((Side.A, Side.C)))
    if move == 1 and len(g) >= 2:  # AndLa on two assumption occurrences
        a = _pick(rng, g)
        b = _pick(rng, g.remove(a))
        conc = Sequent(g.remove(a).remove(b).add(And(a, b)), dl, pol, c)
        return node(R.AndLa, conc, [d], principal=And(a, b))
    if move == 2 and len(dl) >= 2:  # OrLc
        a = _pick(rng, dl)
        b = _pick(rng, dl.remove(a))
        conc = Sequent(g, dl.remove(a).remove(b).add(Or(a, b)), pol, c)
        return node(R.OrLc, conc, [d], principal=Or(a, b))
    if move == 3 and len(g) >= 1 and len(dl) >= 1:  # ImpLc
        a = _pick(rng, g)
        b = _pick(rng, dl)
        conc = Sequent(g.remove(a), dl.remove(b).add(Imp(a, b)), pol, c)
        return node(R.ImpLc, conc, [d], principal=Imp(a, b))
    if move == 4 and len(g) >= 1 and len(dl) >= 1:  # CoimpLa
        a = _pick(rng, g)
        b = _pick(rng, dl)
        conc = Sequent(g.remove(a).add(Coimp(a, b)), dl.remove(b), pol, c)
        return node(R.CoimpLa, conc, [d], principal=Coimp(a, b))
    if move == 5 and pol is PLUS and len(g) >= 1:  # ImpRPlus
        a = _pick(rng, g)
        conc = Sequent(g.remove(a), dl, PLUS, Imp(a, c))
        return node(R.ImpRPlus, conc, [d])
    if move == 6 and pol is MINUS and len(dl) >= 1:  # CoimpRMinus
        b = _pick(rng, dl)
        conc = Sequent(g, dl.remove(b), MINUS, Coimp(c, b))
        return node(R.CoimpRMinus, conc, [d])
    if move == 7:  # AndRMinus / OrRPlus with a synthesized disjunct
        x = _random_formula(rng)
        if pol is MINUS:
            rule, succ = rng.choice(((R.AndRMinus1, And(c, x)), (R.AndRMinus2, And(x, c))))
        else:
            rule, succ = rng.choice(((R.OrRPlus1, Or(c, x)), (R.OrRPlus2, Or(x, c))))
        return node(rule, Sequent(g, dl, pol, succ), [d])
    if move == 8 and pol is PLUS and len(g) >= 1:  # AndRPlus with identity sibling
        x = _pick(rng, g)
        sibling = derive_identity(g.remove(x), dl, x, PLUS)
        return node(R.AndRPlus, Sequent(g, dl, PLUS, And(c, x)), [d, sibling])
    if move == 9 and pol is MINUS and len(dl) >= 1:  # OrRMinus with identity sibling
        x = _pick(rng, dl)
        sibling = derive_identity(g, dl.remove(x), x, MINUS)
        return node(R.OrRMinus, Sequent(g, dl, MINUS, Or(c, x)), [d, sibling])
    if move == 10 and pol is MINUS and len(g) >= 1:  # ImpRMinus with identity sibling
        x = _pick(rng, g)
        sibling = derive_identity(g.remove(x), dl, x, PLUS)
        return node(R.ImpRMinus, Sequent(g, dl, MINUS, Imp(x, c)), [sibling, d])
    if move == 11 and pol is PLUS and len(dl) >= 1:  # CoimpRPlus with identity sibling
        x = _pick(rng, dl)
        sibling = derive_identity(g, dl.remove(x), x, MINUS)
        return node(R.CoimpRPlus, Sequent(g, dl, PLUS, Coimp(c, x)), [d, sibling])
    return None


def random_derivation(seed: int, size_budget: int) -> Derivation:
    """Deterministic random valid cut-free derivation, built by forward
    composition from a random axiom; ``size_budget`` bounds the number of
    extension attempts."""
    if size_budget < 1:
        raise ValueError("size_budget must be >= 1")
    rng = random.Random(seed)
    d = _random_axiom(rng)
    for _ in range(size_budget - 1):
        out = _extend_once(d, rng)
        if out is not None:
            d = out
    if not d.valid:
        raise AssertionError(
            f"random_derivation produced an invalid tree: {check_derivation(d)}")
    return d
