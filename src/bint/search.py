"""Backward proof search over the cut-free calculus.

``prove`` asks the decision procedure of ``bint.decide`` first: a sequent it
rejects is ``Refuted`` with no search.  For a derivable sequent a depth-first
search builds the proof, checking every node as it builds it.  Backward
expansion only ever introduces subformulas of the goal, so with a per-branch
repetition check the reachable sequent space is finite, and the search cannot
exhaust a derivable sequent; if it does, the two disagree and ``prove``
raises.  The searcher doubles as a derivation generator for the
transformation corpora.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .syntax import And, Atom, Coimp, Formula, Imp, Or
from .kernel import (
    MINUS, PLUS, SCHEMA, Context, Derivation, Expansion, RuleId as R, Sequent, Side,
    backward_expansions, check_derivation, node,
)
from .decide import derivable
from .transform import InternalCheckError, derive_identity, _node, _weaken


@dataclass(frozen=True)
class SearchConfig:
    max_depth: int = 50

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")


class SearchOutcome:
    __slots__ = ()


@dataclass(frozen=True)
class Proved(SearchOutcome):
    derivation: Derivation


@dataclass(frozen=True)
class Refuted(SearchOutcome):
    """The decision procedure rejects the sequent: no proof of any height exists."""


@dataclass(frozen=True)
class BoundExhausted(SearchOutcome):
    """The sequent is derivable, but the depth bound cut off every proof the
    search tried."""


# expansion ordering: closers, then deterministic single-premise rules, then
# branching/choice rules, then the rules that copy their principal formula
_COPYING = frozenset(r for r, s in SCHEMA.items() if any(t.keeps for t in s.premises))
_DETERMINISTIC = (R.AndLa, R.OrLc, R.ImpLc, R.CoimpLa, R.ImpRPlus, R.CoimpRMinus)


def _expansion_order(e: Expansion) -> int:
    if not e.premises:
        return 0
    if e.rule in _COPYING:
        return 3
    if e.rule in _DETERMINISTIC:
        return 1
    return 2


class _NotFound:
    __slots__ = ("pruned", "bounded")

    def __init__(self, pruned: bool, bounded: bool):
        self.pruned = pruned
        self.bounded = bounded


def _normalize(s: Sequent) -> Sequent:
    """Cap every context multiplicity at one.  Height-preserving contraction
    and weakening are admissible, so this preserves derivability while making
    the sequent space reachable from a goal finite (backward expansion only
    introduces subformulas of the goal)."""
    return Sequent(Context.from_iter(s.gamma.distinct()), Context.from_iter(s.delta.distinct()),
                   s.polarity, s.succedent)


def _lift(d: Derivation, to: Sequent) -> Derivation:
    """Weaken a derivation of the normalized sequent back up to ``to``."""
    have = d.conclusion
    for side, want, got in ((Side.A, to.gamma, have.gamma), (Side.C, to.delta, have.delta)):
        for f in want.distinct():
            for _ in range(want.count(f) - got.count(f)):
                d = _weaken(d, f, side)
    return d


class _Searcher:
    """DFS over normalized sequents with a per-branch repetition check and
    per-query memo tables.  Refutations are cached only when the failure
    involved no pruning and no depth cutoff, since those are path- and
    bound-dependent."""

    def __init__(self):
        self.proved: dict[Sequent, Derivation] = {}
        self.refuted: set[Sequent] = set()
        self.path: set[Sequent] = set()     # the sequents on the current branch

    def search(self, s: Sequent, depth: int):
        hit = self.proved.get(s)
        if hit is not None:
            return hit
        if s in self.refuted:
            return _NotFound(False, False)
        if s in self.path:
            return _NotFound(True, False)

        expansions = sorted(backward_expansions(s), key=_expansion_order)
        pruned = bounded = False
        found: Optional[Derivation] = None
        self.path.add(s)
        for e in expansions:
            if not e.premises:
                found = _node(e.rule, s, (), annotation=e.annotation)
                break
            if depth == 0:
                bounded = True
                continue
            children: list[Derivation] = []
            for premise in e.premises:
                r = self.search(_normalize(premise), depth - 1)
                if isinstance(r, _NotFound):
                    pruned |= r.pruned
                    bounded |= r.bounded
                    children = []
                    break
                children.append(_lift(r, premise))
            if children:
                found = _node(e.rule, s, children, annotation=e.annotation)
                break
        self.path.remove(s)
        if found is not None:
            self.proved[s] = found
            return found
        if not pruned and not bounded:
            self.refuted.add(s)
        return _NotFound(pruned, bounded)


def _search(s: Sequent, depth: int) -> SearchOutcome:
    """The depth-first search alone: ``Refuted`` when it exhausts ``s``
    without a depth cut-off."""
    result = _Searcher().search(_normalize(s), depth)
    if isinstance(result, Derivation):
        return Proved(_lift(result, s))
    if result.bounded:
        return BoundExhausted()
    return Refuted()


def prove(s: Sequent, cfg: SearchConfig = SearchConfig()) -> SearchOutcome:
    """Decide ``s``, and search for a cut-free derivation when it is derivable.

    Refuted: ``bint.decide`` rejects s, so no derivation of any height exists.
    Proved(d): d concludes s and passes the checker with no cuts.
    BoundExhausted: s is derivable, but the search found no proof within
    ``cfg.max_depth``.
    Raises InternalCheckError when the search exhausts a sequent the decision
    procedure accepts: the two disagree, and neither verdict can be trusted.
    """
    if not derivable(s):
        return Refuted()
    out = _search(s, cfg.max_depth)
    if isinstance(out, Refuted):
        raise InternalCheckError(f"bint.decide accepts {s}, but the search exhausted it")
    return out


# --- random derivation generation ------------------------------------------------

_POOL_ATOMS = ("p", "q", "r", "s")


def _random_formula(rng: random.Random, depth: int = 1) -> Formula:
    from .syntax import BOT, TOP
    roll = rng.random()
    if depth <= 0 or roll < 0.55:
        return rng.choice(
            [Atom(a) for a in _POOL_ATOMS] + [BOT, TOP])  # type: ignore[list-item]
    ctor = rng.choice((And, Or, Imp, Coimp))
    return ctor(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))


def _random_axiom(rng: random.Random) -> Derivation:
    from .syntax import BOT, TOP
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
        return _weaken(d, _random_formula(rng), rng.choice((Side.A, Side.C)))
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
    report = check_derivation(d)
    if not report.valid:
        raise AssertionError(f"random_derivation produced an invalid tree: {report}")
    return d
