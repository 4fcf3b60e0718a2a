"""Decide derivability: the ± translation into intuitionistic logic, then
Dyckhoff's terminating calculus G4ip.

A sequent ``Gamma ; Delta |-± C`` maps to the intuitionistic sequent
``Gamma+, Delta- => C±``: each assumption is read as verified (``+``), each
counterassumption as falsified (``-``), and the succedent at its polarity.

* atoms and constants: ``p+ = p``, ``p- = p'`` (a fresh atom), ``T+ = T``,
  ``T- = F``, ``F+ = F``, ``F- = T``;
* ``(A /\\ B)+ = A+ /\\ B+`` and ``(A /\\ B)- = A- \\/ B-``, and the other way
  round for ``\\/``;
* ``(A -> B)+ = A+ -> B+`` and ``(A -> B)- = A+ /\\ B-``;
* ``(A -< B)+ = A+ /\\ B-`` and ``(A -< B)- = B- -> A-``, where ``A`` is
  ``Coimp.left``.

Under this map each primitive rule of ``kernel.SCHEMA`` and each zero-premise
rule becomes one rule of the intuitionistic calculus G3ip (``ImpLa`` and
``CoimpLc``, which keep their principal, become Kleene's implication-left
rule), so a sequent is derivable exactly when its image is intuitionistically
valid: the verification/falsification embedding of 2Int (Wansing, J. Logic
Comput. 2016).  The image is decided by G4ip (Dyckhoff, JSL 57(3), 1992),
which terminates with no loop check and no depth bound.

The images are kept per thread: a formula is translated once per thread, as
it is printed once per process and dualized once.  A ``_G4ip`` binds its
thread's image tables when it is built, and starts new ones when they hold
more than ``_MAX_NODES`` image nodes, so they stay bounded and no query's ids
change under it.  The verdict memo and the saturated antecedents belong to
one ``_G4ip``, which serves a whole ``bint.search`` query; ``derivable(s)``
alone builds one for ``s``.  No query is answered from another's memo.
This module reads neither the rule table's backward expansion nor the
checker, so its verdicts are independent of the search they gate.
"""

from __future__ import annotations

import threading
from typing import Iterable

from .kernel import PLUS, Sequent
from .syntax import And, Atom, Bottom, Coimp, Formula, Imp, Or, Top

# the connectives of the intuitionistic image; a formula of the image is an
# integer id in its thread's image tables, and ``_BOT``/``_TOP`` are also the
# ids of the two constants
_BOT, _TOP, _ATOM, _AND, _OR, _IMP = range(6)

#: the most image nodes a thread's tables may hold when a ``_G4ip`` binds
#: them; past it the ``_G4ip`` starts new ones
_MAX_NODES = 2048
#: each thread's image tables: ``make`` reads a length and then appends, so
#: two threads must not share them
_local = threading.local()

#: (connective, verified?) -> the image's connective, then its left and its
#: right operand, each as (operand of the connective, verified?) with 0 the
#: connective's left and 1 its right operand
_SIGNED = {
    (And, True): (_AND, (0, True), (1, True)),
    (And, False): (_OR, (0, False), (1, False)),
    (Or, True): (_OR, (0, True), (1, True)),
    (Or, False): (_AND, (0, False), (1, False)),
    (Imp, True): (_IMP, (0, True), (1, True)),
    (Imp, False): (_AND, (0, True), (1, False)),
    (Coimp, True): (_AND, (0, True), (1, False)),
    (Coimp, False): (_IMP, (1, False), (0, False)),
}


def derivable(s: Sequent) -> bool:
    """Whether ``s`` has a cut-free derivation of any height."""
    return _G4ip().derivable(s)


def _tables() -> tuple:
    """This thread's image tables ``(kind, left, right, ids, images)``, new
    ones when they hold more than ``_MAX_NODES`` nodes."""
    tables = getattr(_local, "tables", None)
    if tables is None or len(tables[0]) > _MAX_NODES:
        tables = _local.tables = ([_BOT, _TOP], [None, None], [None, None], {}, {})
    return tables


class _G4ip:
    """The formulas of images, interned as integer ids in its thread's
    tables, and the G4ip search over them with its memo and the saturated
    image of each antecedent it was asked about.  Those two live for one
    ``prove`` query.

    An antecedent is a frozenset of ids: contraction is admissible, so
    multiplicities do not matter.  It is kept *saturated*: closed under the
    invertible one-premise left rules, so it holds no conjunction, no ``T``,
    no ``F`` (that closes the sequent) and no implication whose antecedent
    is ``T``, ``F``, a conjunction, a disjunction or an atom it holds."""

    def __init__(self):
        self.kind, self.left, self.right, self.ids, self.images = _tables()
        self.memo: dict[tuple[frozenset, int], bool] = {}
        self.saturated: dict[tuple, frozenset | None] = {}

    def derivable(self, s: Sequent) -> bool:
        key = (s.gamma, s.delta)
        if key in self.saturated:
            gamma = self.saturated[key]
        else:
            antecedent = [self.signed(f, True) for f in s.gamma.distinct()]
            antecedent += [self.signed(f, False) for f in s.delta.distinct()]
            gamma = self.saturated[key] = self._saturate(frozenset(), antecedent)
        return gamma is None or self._sequent(gamma, self.signed(s.succedent, s.polarity is PLUS))

    def make(self, kind: int, left, right) -> int:
        key = (kind, left, right)
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.kind)
            self.kind.append(kind)
            self.left.append(left)
            self.right.append(right)
        return i

    def signed(self, f: Formula, verified: bool) -> int:
        """The id of ``f+`` (``verified``) or ``f-``."""
        i = self.images.get((f, verified))
        if i is None:
            if isinstance(f, Atom):
                i = self.make(_ATOM, f.name, verified)
            elif isinstance(f, Bottom):
                i = _BOT if verified else _TOP
            elif isinstance(f, Top):
                i = _TOP if verified else _BOT
            else:
                kind, (a, sa), (b, sb) = _SIGNED[type(f), verified]
                ops = (f.left, f.right)  # type: ignore[attr-defined]
                i = self.make(kind, self.signed(ops[a], sa), self.signed(ops[b], sb))
            self.images[f, verified] = i
        return i

    def derives(self, gamma: frozenset, new: Iterable[int], goal: int) -> bool:
        """Whether ``gamma`` (saturated) with ``new`` added proves ``goal``."""
        gamma = self._saturate(gamma, new)
        return gamma is None or self._sequent(gamma, goal)

    def _saturate(self, gamma: frozenset, new: Iterable[int]):
        """``gamma`` with ``new`` added, saturated; None when it holds ``F``."""
        kind, left, right = self.kind, self.left, self.right
        done = set(gamma)
        todo = list(new)
        while todo:
            f = todo.pop()
            if f in done:
                continue
            k = kind[f]
            if k == _AND:
                todo += (left[f], right[f])
                continue
            if k == _BOT:
                return None
            if k == _TOP:
                continue
            if k == _IMP:
                a, b = left[f], right[f]
                ka = kind[a]
                if ka == _TOP or (ka == _ATOM and a in done):
                    todo.append(b)
                    continue
                if ka == _BOT:
                    continue
                if ka == _AND:      # (C /\ D) -> B  becomes  C -> (D -> B)
                    todo.append(self.make(_IMP, left[a], self.make(_IMP, right[a], b)))
                    continue
                if ka == _OR:       # (C \/ D) -> B  becomes  C -> B, D -> B
                    todo += (self.make(_IMP, left[a], b), self.make(_IMP, right[a], b))
                    continue
            elif k == _ATOM:        # p, p -> B  becomes  p, B
                fired = [g for g in done if kind[g] == _IMP and left[g] == f]
                done.difference_update(fired)
                todo += [right[g] for g in fired]
            done.add(f)
        return frozenset(done)

    def _sequent(self, gamma: frozenset, goal: int) -> bool:
        key = (gamma, goal)
        verdict = self.memo.get(key)
        if verdict is None:
            verdict = self.memo[key] = self._decide(gamma, goal)
        return verdict

    def _decide(self, gamma: frozenset, goal: int) -> bool:
        kind, left, right = self.kind, self.left, self.right
        k = kind[goal]
        if k == _TOP or goal in gamma:
            return True
        # the invertible rules: right conjunction and implication, left disjunction
        if k == _AND:
            return self._sequent(gamma, left[goal]) and self._sequent(gamma, right[goal])
        if k == _IMP:
            return self.derives(gamma, (left[goal],), right[goal])
        for f in gamma:
            if kind[f] == _OR:
                rest = gamma - {f}
                return (self.derives(rest, (left[f],), goal)
                        and self.derives(rest, (right[f],), goal))
        # the choices: a disjunct of the goal, or an implication whose
        # antecedent is an implication:  (C -> D) -> B  gives
        # D -> B => C -> D  and  B => goal
        if k == _OR and (self._sequent(gamma, left[goal]) or self._sequent(gamma, right[goal])):
            return True
        for f in gamma:
            a = left[f]
            if kind[f] == _IMP and kind[a] == _IMP:
                rest = gamma - {f}
                b = right[f]
                if (self.derives(rest, (self.make(_IMP, right[a], b),), a)
                        and self.derives(rest, (b,), goal)):
                    return True
        return False
