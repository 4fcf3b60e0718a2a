"""Proof construction over the cut-free calculus.

``prove`` asks the decision procedure of ``bint.decide`` first: a sequent it
rejects is ``Refuted``.  For an accepted sequent a constructor builds the
proof without a depth bound, checking every node as it builds it.  It works
over normalized sequents and takes the first step that applies, in order:

1. a zero-premise rule that closes the sequent;
2. an invertible rule, with no oracle call: its premises are derivable
   whenever its conclusion is;
3. an ``ImpLa``/``CoimpLc`` whose kept premise closes at once: these rules
   are invertible in their other premise (cut the principal against
   ``Gamma, B |-+ A -> B`` and contract);
4. otherwise the first other expansion whose premises the oracle all
   accepts, trying the next one if the chosen one gets stuck.

A sequent already on its own branch is a loop, and building it gets stuck.
Steps 2 and 3 shrink the sequent, so every loop passes through step 4, which
then tries its next choice: construction terminates, with no depth bound.  A
goal it cannot finish means the constructor and the decision procedure
disagree, and ``prove`` raises.  The module doubles as a derivation generator
for the transformation corpora.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .syntax import And, Atom, Coimp, Formula, Imp, Or
from .kernel import (
    MINUS, PLUS, SCHEMA, Context, Derivation, Expansion, RuleId as R, Sequent, Side,
    backward_expansions, check_derivation, closing_rules, node, premise_of,
)
from .decide import derivable
from .transform import InternalCheckError, derive_identity, _node, weaken, weaken_context


class SearchOutcome:
    __slots__ = ()


@dataclass(frozen=True)
class Proved(SearchOutcome):
    derivation: Derivation


@dataclass(frozen=True)
class Refuted(SearchOutcome):
    """The decision procedure rejects the sequent: no proof of any height exists."""


#: the rules committed to without asking the oracle: under the translation of
#: ``bint.decide`` each one is an invertible rule of G3ip (conjunction left
#: and right, disjunction left, implication right)
_INVERTIBLE = frozenset((
    R.AndLa, R.OrLc, R.ImpLc, R.CoimpLa, R.ImpRPlus, R.CoimpRMinus,
    R.AndRPlus, R.OrRMinus, R.OrLa, R.AndLc, R.ImpRMinus, R.CoimpRPlus,
))
#: ``ImpLa`` and ``CoimpLc``, whose first premise keeps the principal: the
#: principal's side and that premise's template
_KEEPING = {r: (s.at, s.premises[0]) for r, s in SCHEMA.items() if s.premises[0].keeps}


def _closer(s: Sequent) -> Optional[R]:
    """The first zero-premise rule that closes ``s``, if any."""
    return next(iter(closing_rules(s)), None)


def _kept_premise_closes(s: Sequent, e: Expansion) -> bool:
    side, kept = _KEEPING[e.rule]
    return _closer(premise_of(s, side, e.annotation.principal, kept)) is not None


def _normalize(s: Sequent) -> Sequent:
    """Cap every context multiplicity at one (``s`` itself when none repeats).
    Height-preserving contraction and weakening are admissible, so this
    preserves derivability while making the sequent space reachable from a
    goal finite (backward expansion only introduces subformulas of the goal)."""
    gamma, delta = dict.fromkeys(s.gamma.items), dict.fromkeys(s.delta.items)
    if len(gamma) == len(s.gamma) and len(delta) == len(s.delta):
        return s
    # the first occurrences keep the sorted order
    return Sequent(Context(tuple(gamma)), Context(tuple(delta)), s.polarity, s.succedent)


def _repeats(ctx: Context) -> Context:
    """The occurrences of ``ctx`` after the first of each formula."""
    items = ctx.items
    return Context(tuple(f for f, before in zip(items[1:], items) if f == before))


def _lift(d: Derivation, to: Sequent) -> Derivation:
    """Weaken a derivation of ``_normalize(to)`` back up to ``to``."""
    if d.conclusion == to:
        return d
    return weaken_context(d, _repeats(to.gamma), _repeats(to.delta))


class _Constructor:
    """Builds proofs of accepted normalized sequents, for one query.
    ``proved`` and ``accepted`` memoize finished subproofs and oracle
    verdicts; ``path`` holds the sequents on the current branch; ``backtracks``
    counts the step-4 choices that got stuck."""

    def __init__(self):
        self.proved: dict[Sequent, Derivation] = {}
        self.accepted: dict[Sequent, bool] = {}
        self.path: set[Sequent] = set()
        self.backtracks = 0

    def build(self, s: Sequent) -> Optional[Derivation]:
        """A derivation of ``s``, or None when the step-4 choices get stuck."""
        found = self.proved.get(s)
        if found is not None or s in self.path:     # proved, or a loop
            return found
        rule = _closer(s)
        if rule is not None:
            return _node(rule, s)
        expansions = backward_expansions(s)
        self.path.add(s)
        committed = next((e for e in expansions if e.rule in _INVERTIBLE), None)
        if committed is None:
            committed = next((e for e in expansions if e.rule in _KEEPING
                              and _kept_premise_closes(s, e)), None)
        if committed is not None:
            found = self._apply(s, committed)
        else:
            for e in expansions:
                if not all(self._accepts(_normalize(p)) for p in e.premises):
                    continue
                found = self._apply(s, e)
                if found is not None:
                    break
                self.backtracks += 1
        self.path.remove(s)
        if found is not None:
            self.proved[s] = found
        return found

    def _accepts(self, s: Sequent) -> bool:
        verdict = self.accepted.get(s)
        if verdict is None:
            verdict = self.accepted[s] = derivable(s)
        return verdict

    def _apply(self, s: Sequent, e: Expansion) -> Optional[Derivation]:
        children = []
        for premise in e.premises:
            d = self.build(_normalize(premise))
            if d is None:
                return None
            children.append(_lift(d, premise))
        return _node(e.rule, s, children, annotation=e.annotation)


def prove(s: Sequent) -> SearchOutcome:
    """Decide ``s``, and construct a cut-free derivation when it is derivable.

    Refuted: ``bint.decide`` rejects s, so no derivation of any height exists.
    Proved(d): d concludes s and passes the checker with no cuts.
    Raises InternalCheckError when the constructor cannot finish a sequent
    the decision procedure accepts: the two disagree, and neither verdict can
    be trusted.
    """
    if not derivable(s):
        return Refuted()
    d = _Constructor().build(_normalize(s))
    if d is None:
        raise InternalCheckError(f"bint.decide accepts {s}, but no proof of it was built")
    return Proved(_lift(d, s))


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
