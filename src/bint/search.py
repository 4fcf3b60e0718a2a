"""Proof construction over the cut-free calculus.

``prove`` asks the decision procedure of ``bint.decide`` first: a sequent it
rejects is ``Refuted``.  For an accepted sequent a constructor builds the
proof without a depth bound, checking every node as it builds it.  One
``_G4ip`` gives every verdict of the query.  The constructor chooses over
normalized sequents, and takes the first step that applies, in order:

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
disagree, and ``prove`` raises.  Each node is built once, by the step chosen
for its normalized sequent, at the sequent it concludes in the proof.
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
from .transform import InternalCheckError, _node


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


class _Constructor:
    """Builds proofs, for one query, whose verdicts ``oracle`` gives: one
    ``_G4ip`` unless ``derivable`` is replaced.  ``chosen`` holds the step of
    each finished normalized sequent, replayed with no search wherever it
    recurs; ``built`` keeps each node with premises by ``(s, to)``;
    ``accepted`` asks ``oracle`` once per sequent; ``path`` holds the
    sequents on the current branch; ``backtracks`` counts the step-4 choices
    that got stuck."""

    def __init__(self):
        self.oracle = _G4ip().derivable if derivable is _decides else derivable
        self.chosen: dict[Sequent, Expansion] = {}
        self.built: dict[tuple[Sequent, Sequent], Derivation] = {}
        self.accepted: dict[Sequent, bool] = _Memo(self.oracle)
        self.path: set[Sequent] = set()
        self.backtracks = 0

    def build(self, s: Sequent, to: Sequent) -> Optional[Derivation]:
        """A derivation of ``to`` by the steps chosen over ``s``, or None when
        the step-4 choices get stuck."""
        found = self.built.get((s, to))
        if found is not None or s in self.path:     # built, or a loop
            return found
        if s in self.chosen:                        # finished: replay its step
            found = self.built[s, to] = self._apply(s, to, self.chosen[s])
            return found
        rule = _closer(s)
        if rule is not None:
            return _node(rule, to)
        expansions = backward_expansions(s)
        self.path.add(s)
        committed = next((e for e in expansions if e.rule in _INVERTIBLE), None)
        if committed is None:
            committed = next((e for e in expansions if e.rule in _KEEPING
                              and _kept_premise_closes(s, e)), None)
        if committed is not None:
            found = self._apply(s, to, committed)
        else:
            for committed in expansions:
                if not all(self.accepted[_normalize(p)] for p in committed.premises):
                    continue
                found = self._apply(s, to, committed)
                if found is not None:
                    break
                self.backtracks += 1
        self.path.remove(s)
        if found is not None:
            self.chosen[s], self.built[s, to] = committed, found
        return found

    def _apply(self, s: Sequent, to: Sequent, e: Expansion) -> Optional[Derivation]:
        """``e``'s node at ``to``: the same templates build its premises from
        ``to``, each by the steps chosen over the normalized premise of ``s``."""
        lifted = e.premises if to is s else Expansion(e.rule, e.annotation, conclusion=to).premises
        children = []
        for p, q in zip(e.premises, lifted):
            d = self.build(_normalize(p), q)
            if d is None:
                return None
            children.append(d)
        return _node(e.rule, to, children, annotation=e.annotation)


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
    d = constructor.build(_normalize(s), s)
    if d is None:
        raise InternalCheckError(f"bint.decide accepts {s}, but no proof of it was built")
    return Proved(d)
