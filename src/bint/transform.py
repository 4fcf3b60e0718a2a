"""Executable structural transformations on checked derivations.

Each operation consumes checker-valid, cut-free derivations and produces a
checker-valid, cut-free derivation with the advertised endsequent:

* ``derive_identity``  -- reflexivity for an arbitrary formula,
* ``weaken`` / ``weaken_context`` -- height-preserving weakening,
* ``unweaken_special`` -- dropping a spurious T assumption / F counterassumption,
* ``invert`` -- the eight inversion cases for the left rules,
* ``contract`` -- height-preserving contraction,
* ``eliminate_cut`` -- the full cut-elimination case machine.  It reads its
  principal (``-5.x-``) reductions from the schemas of the two premises' root
  rules and each variant's side and polarity from ``kernel.CUT_AT``, so each
  case is written once for both cut variants.

Every node is checked once, when it is built (``Derivation.valid``), so an
entry point reads its input's validity and cut count without a walk.  The
weakenings, inversion and contraction are each one stack-free ``kernel.fold``
that gives every node a new conclusion; inversion and contraction stop the
walk at a node that decomposes their formula, where contraction calls itself
on the premises.  The weakenings and contraction edit each distinct context
once per call (the contractions nested in one call share its memos), and cut
elimination computes each step's contexts once per distinct pair of premise
contexts, with memos that live for the call, so contexts that the input
shares stay shared in the output.  Identity expansion reads the rule table:
a formula of weight <= 1 gets the first backward expansion of its bare
sequent whose premises close at once, closed by the rules of one tie-break
table, ``_IDENTITY_CLOSERS``; a heavier one gets its rule pair from
``SCHEMA``, and it and cut elimination recurse.
Every node goes through one constructor, which refuses cuts and raises
``InternalCheckError`` where an invalid node is built; by induction every
output is valid and cut-free.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .syntax import BOT, TOP, And, Coimp, Formula, Imp, Or, format_formula, weight
from .kernel import (
    _RIGHT_BY_SHAPE, CUT_AT, CUT_RULES, EMPTY, LEFT_RULE_BY_SHAPE, LEFT_RULES, MINUS, PLUS,
    SCHEMA, ZERO_PREMISE, Annotation, Context, Derivation, Polarity, RuleId as R, Sequent, Side,
    _Memo, backward_expansions, check_derivation, closing_rules, fold, infer_principal, node,
    premise_of, premises_for,
)


class TransformError(ValueError):
    """Precondition failure: bad input derivation or missing occurrence."""


class InternalCheckError(AssertionError):
    """A built node failed the checker; indicates a transformation bug."""


def _node(rule: R, conclusion: Sequent, premises: Iterable[Derivation] = (),
          principal: Optional[Formula] = None,
          annotation: Optional[Annotation] = None) -> Derivation:
    """The only way this module builds a node: a cut-free node that is valid
    when it is built."""
    if rule in CUT_RULES:
        raise InternalCheckError(f"a transformation built a {rule.value} node")
    d = node(rule, conclusion, premises, principal, annotation)
    if not d.valid:
        raise InternalCheckError(f"built an invalid node {conclusion}: "
                                 f"{check_derivation(d).first_violation[1]}")
    return d


def _require_input(d: Derivation, what: str) -> None:
    if d.cut_count != 0:
        raise TransformError(f"{what}: input contains {d.cut_count} cut(s)")
    if not d.valid:
        raise TransformError(f"{what}: input is not checker-valid: {check_derivation(d)}")


# --- identity expansion --------------------------------------------------------

def derive_identity(gamma: Context, delta: Context, c: Formula,
                    polarity: Polarity) -> Derivation:
    """Cut-free derivation of ``(gamma, C; delta) |-+ C`` (PLUS) or
    ``(gamma; delta, C) |-- C`` (MINUS), for arbitrary C and contexts.

    Formulas of weight <= 1 get a figure of at most one step above the
    closers, which depends on C and the polarity alone; heavier formulas
    recurse through the matching left/right rule pair on strict subformulas,
    so an all-atom compound comes out with height 2.
    """
    if weight(c) <= 1:
        return _identity_base(gamma, delta, c, polarity)
    return _identity_step(gamma, delta, c, polarity)


#: per polarity, the zero-premise rules that close a sequent in a figure of
#: weight <= 1, in the order they are tried
_IDENTITY_CLOSERS = {PLUS: (R.RfPlus, R.TopRPlus, R.BotLa, R.TopLc),
                     MINUS: (R.RfMinus, R.TopLc, R.BotLa, R.BotRMinus)}


def _first_closer(s: Sequent, rules: tuple[R, ...]) -> Optional[R]:
    """The first of ``rules`` that closes ``s``."""
    closers = closing_rules(s)
    return next((rule for rule in rules if rule in closers), None)


def _identity_base(g: Context, d: Context, c: Formula, pol: Polarity) -> Derivation:
    """The figure of ``c`` alone in its context, built on ``g`` and ``d``: the
    first backward expansion of that bare sequent whose premises each close,
    by the first rule that closes them in ``_IDENTITY_CLOSERS``.  A closer of
    the bare sequent itself is such an expansion, and comes first."""
    plus = pol is PLUS
    conc = Sequent(g.add(c), d, PLUS, c) if plus else Sequent(g, d.add(c), MINUS, c)
    alone = Context.of(c)
    bare = Sequent(alone, EMPTY, PLUS, c) if plus else Sequent(EMPTY, alone, MINUS, c)
    for e in backward_expansions(bare):
        closers = [_first_closer(p, _IDENTITY_CLOSERS[p.polarity]) for p in e.premises]
        if None not in closers:
            premises = premises_for(conc, e.rule, c)
            return _node(e.rule, conc, [_node(r, p) for r, p in zip(closers, premises)],
                         annotation=e.annotation)
    raise InternalCheckError(f"no base figure for {format_formula(c)}")


def _identity_step(g: Context, d: Context, c: Formula, pol: Polarity) -> Derivation:
    """The right rule for ``c`` at ``pol`` and the left rule on its occurrence
    in the context, one above the other; each premise of the upper rule is
    closed by identity on the operand it concludes.  The left rule goes below
    where the right rule has two variants, one per premise of the left rule
    (And-, Or+), or a premise of the other polarity (Imp-, Coimp+)."""
    side = Side.A if pol is PLUS else Side.C
    conc = Sequent(g.add(c), d, PLUS, c) if pol is PLUS else Sequent(g, d.add(c), MINUS, c)
    left, rights = LEFT_RULE_BY_SHAPE[side][type(c)], _RIGHT_BY_SHAPE[type(c), pol]
    if len(rights) == 1 and all(t.polarity in (None, pol) for t in SCHEMA[rights[0]].premises):
        lower, uppers = rights[0], (left, left)
    else:
        lower, uppers = left, rights
    premises = []
    for t, upper in zip(SCHEMA[lower].premises, uppers):
        s = premise_of(conc, SCHEMA[lower].at, c, t)
        closed = []
        for u in SCHEMA[upper].premises:
            above = premise_of(s, SCHEMA[upper].at, c, u)
            e, g2, d2 = above.succedent, above.gamma, above.delta
            closed.append(derive_identity(g2.remove(e), d2, e, PLUS) if above.polarity is PLUS
                          else derive_identity(g2, d2.remove(e), e, MINUS))
        premises.append(_node(upper, s, closed, principal=c if upper is left else None))
    return _node(lower, conc, premises, principal=c if lower is left else None)


# --- weakening -------------------------------------------------------------------

def _map_conclusions(d: Derivation, conclusion: Callable[[Sequent], Sequent],
                     stop: Optional[Callable[[Derivation], Optional[Derivation]]] = None
                     ) -> Derivation:
    """``d`` with each conclusion ``s`` replaced by ``conclusion(s)``: the same
    rules, annotations and shape, and a shared subproof stays shared.  Where
    ``stop(x)`` gives a derivation, it stands for ``x`` and its premises."""
    return fold(d, lambda x, premises: _node(x.rule, conclusion(x.conclusion), premises,
                                             annotation=x.annotation), stop)


def _edit(s: Sequent, gamma: Optional[_Memo], delta: Optional[_Memo]) -> Sequent:
    """``s`` with its Gamma and Delta looked up in ``gamma`` and ``delta``,
    memos of one edit each; a side whose memo is None stays the same object."""
    return Sequent(s.gamma if gamma is None else gamma[s.gamma],
                   s.delta if delta is None else delta[s.delta], s.polarity, s.succedent)


def _map_contexts(d: Derivation, gamma: Optional[_Memo], delta: Optional[_Memo],
                  stop: Optional[Callable[[Derivation], Optional[Derivation]]] = None
                  ) -> Derivation:
    """``_map_conclusions`` by ``_edit``.  The memos live for one call, so each
    distinct context is edited once, and equal contexts of ``d`` stay one
    object in the output."""
    return _map_conclusions(d, lambda s: _edit(s, gamma, delta), stop)


def _on(side: Side, edit: Callable[[Context], Context]) -> tuple:
    """The (gamma, delta) memos of ``_edit`` that ``edit`` one side."""
    return (_Memo(edit), None) if side is Side.A else (None, _Memo(edit))


def weaken(d: Derivation, extra: Formula, side: Side) -> Derivation:
    """Add ``extra`` to the assumptions (side a) or counterassumptions (side c)
    of the endsequent, preserving the tree shape and therefore the height."""
    _require_input(d, "weaken")
    return _map_contexts(d, *_on(side, lambda ctx: ctx.add(extra)))


def weaken_context(d: Derivation, gamma_extra: Context = Context(),
                   delta_extra: Context = Context()) -> Derivation:
    """Multiset fold of ``weaken`` over both sides (the W^{a/c} steps), in
    one walk that adds every extra occurrence at each node."""
    _require_input(d, "weaken_context")
    if gamma_extra.is_empty() and delta_extra.is_empty():
        return d
    return _map_contexts(
        d, None if gamma_extra.is_empty() else _Memo(lambda g: g.union(gamma_extra)),
        None if delta_extra.is_empty() else _Memo(lambda c: c.union(delta_extra)))


class SpecialWeakening(enum.Enum):
    """Which invertible-weakening occurrence to drop."""

    TOP_IN_GAMMA = "TopInGamma"
    BOT_IN_DELTA = "BotInDelta"


def unweaken_special(d: Derivation, which: SpecialWeakening) -> Derivation:
    """Remove one T from the assumptions or one F from the counterassumptions
    of the endsequent.  Such an occurrence is never principal, so it occurs in
    every sequent above the root and is dropped at every node without touching
    the tree shape or height."""
    _require_input(d, "unweaken_special")
    if which is SpecialWeakening.TOP_IN_GAMMA:
        if TOP not in d.conclusion.gamma:
            raise TransformError("unweaken_special: no T among the assumptions")
        return _map_contexts(d, *_on(Side.A, lambda g: g.remove(TOP)))
    if BOT not in d.conclusion.delta:
        raise TransformError("unweaken_special: no F among the counterassumptions")
    return _map_contexts(d, *_on(Side.C, lambda c: c.remove(BOT)))


# --- inversion -------------------------------------------------------------------

def invert(d: Derivation, side: Side, target: Formula) -> tuple[Derivation, ...]:
    """Invert the left-rule decomposition of ``target`` on the given side of
    the endsequent.  Returns one derivation, or two for the case-splitting
    shapes (a conjunction among counterassumptions, a disjunction among
    assumptions).  Heights never increase.

    There is no inversion toward the repeated-premise side of the arrow rules:
    an implication among the assumptions inverts only to its consequent, a
    co-implication among the counterassumptions only to its first operand.
    """
    _require_input(d, "invert")
    if not isinstance(target, (And, Or, Imp, Coimp)):
        raise TransformError(
            f"invert: unsupported target {format_formula(target)} (must be compound)")
    present = target in (d.conclusion.gamma if side is Side.A else d.conclusion.delta)
    if not present:
        raise TransformError(
            f"invert: {format_formula(target)} does not occur on side {side.value}")
    # one output per premise of the target's left rule that does not keep it
    return tuple([_inverse(d, side, target, i) for i, t in
                  enumerate(SCHEMA[LEFT_RULE_BY_SHAPE[side][type(target)]].premises)
                  if not t.keeps])


def _inverse(d: Derivation, side: Side, target: Formula, i: int) -> Derivation:
    """``d`` with each conclusion made by premise ``i`` of the left rule that
    decomposes ``target`` on ``side``; a node that decomposes it gives its own
    premise ``i``, and the walk does not go above it."""
    t = SCHEMA[LEFT_RULE_BY_SHAPE[side][type(target)]].premises[i]
    return _map_conclusions(d, lambda s: premise_of(s, side, target, t),
                            lambda x: x.premises[i] if _principal_here(x, side, target) else None)


def _principal_here(d: Derivation, side: Side, target: Formula) -> bool:
    """Does the root rule decompose an occurrence of ``target`` on ``side``?
    The principal of a valid left-rule node is unique."""
    return (d.rule is LEFT_RULE_BY_SHAPE[side].get(type(target))
            and infer_principal(d) == target)


# --- contraction -----------------------------------------------------------------

def contract(d: Derivation, dup: Formula, side: Side) -> Derivation:
    """Collapse two occurrences of ``dup`` on the given side into one, without
    increasing the height."""
    _require_input(d, "contract")
    ctx = d.conclusion.gamma if side is Side.A else d.conclusion.delta
    if ctx.count(dup) < 2:
        raise TransformError(
            f"contract: fewer than two occurrences of {format_formula(dup)} "
            f"on side {side.value}")
    return _contract(d, dup, side, _Memo(lambda key: _on(key[0], lambda c: c.remove(key[1]))))


def _contract(d: Derivation, dup: Formula, side: Side, memos: _Memo) -> Derivation:
    """``contract`` with no checks.  ``memos`` gives the ``_on`` memos that
    drop one formula from one side, per (side, formula), and the contractions
    nested in this one share it, so equal contexts stay one object."""
    drop = memos[side, dup]

    def stop(x: Derivation) -> Optional[Derivation]:
        if _principal_here(x, side, dup):
            return _contract_principal(x, dup, side, drop, stop, memos)
        return None

    return _map_contexts(d, *drop, stop)


def _drop_one(s: Sequent, f: Formula, side: Side) -> Sequent:
    if side is Side.A:
        return Sequent(s.gamma.remove(f), s.delta, s.polarity, s.succedent)
    return Sequent(s.gamma, s.delta.remove(f), s.polarity, s.succedent)


def _contract_principal(d: Derivation, dup: Formula, side: Side, drop: tuple,
                        stop: Callable[[Derivation], Optional[Derivation]],
                        memos: _Memo) -> Derivation:
    """The root decomposes one copy of ``dup`` while another copy is parked in
    the context.  A premise that keeps the principal holds both copies and is
    contracted on ``dup``; in every other premise the parked copy is inverted
    away and the doubled operands are contracted.  Then the rule is reapplied.
    A run of such nodes, each the kept premise of the one below, is rebuilt in
    one loop from the top down, so a tower of them does not nest.  The run's
    conclusions and its kept premise are contracted with the calling
    contraction's memos ``drop`` and its ``stop``, and a premise the run
    shares is inverted and contracted once."""
    operands = (dup.left, dup.right)  # type: ignore[attr-defined]
    templates = SCHEMA[d.rule].premises
    kept = next((j for j, t in enumerate(templates) if t.keeps), None)
    run = [d]
    while kept is not None and _principal_here(run[-1].premises[kept], side, dup):
        run.append(run[-1].premises[kept])
    image = None if kept is None else _map_contexts(run[-1].premises[kept], *drop, stop)
    done: dict[tuple[int, int], Derivation] = {}    # (id of a premise, its index) -> image
    for x in reversed(run):
        premises = []
        for j, (p, t) in enumerate(zip(x.premises, templates)):
            if t.keeps:
                premises.append(image)
                continue
            if (id(p), j) not in done:      # a premise shared along the run
                q = _inverse(p, side, dup, j)
                for i in t.gamma:
                    q = _contract(q, operands[i], Side.A, memos)
                for i in t.delta:
                    q = _contract(q, operands[i], Side.C, memos)
                done[id(p), j] = q
            premises.append(done[id(p), j])
        image = _node(x.rule, _edit(x.conclusion, *drop), premises, principal=dup)
    return image


# --- cut elimination --------------------------------------------------------------

@dataclass
class TraceStep:
    """One dispatch of the elimination machine, linked to its parent cut."""

    index: int
    parent: Optional[int]
    case: str
    variant: str            # "a" or "c"
    weight: int
    cut_height: int

    def line(self) -> str:
        return (f"case={self.case} weight={self.weight} "
                f"cutheight={self.cut_height} variant={self.variant}")


@dataclass
class CutTrace:
    steps: list[TraceStep] = field(default_factory=list)

    def edges(self) -> list[tuple[TraceStep, TraceStep]]:
        by_index = {s.index: s for s in self.steps}
        return [(by_index[s.parent], s) for s in self.steps if s.parent is not None]

    def lines(self) -> list[str]:
        return [s.line() for s in self.steps]

    def cases(self) -> set[str]:
        return {s.case for s in self.steps}


_CASE_BY_LEFT_RULE = {
    R.AndLa: "-3.1-", R.AndLc: "-3.2-", R.OrLa: "-3.3-", R.OrLc: "-3.4-",
    R.ImpLa: "-3.5-", R.ImpLc: "-3.6-", R.CoimpLa: "-3.7-", R.CoimpLc: "-3.8-",
}

_CASE_BY_RIGHT_RULE = {
    R.AndLa: "-4.1-", R.AndLc: "-4.2-", R.OrLa: "-4.3-", R.OrLc: "-4.4-",
    R.ImpLa: "-4.5-", R.ImpLc: "-4.6-", R.CoimpLa: "-4.7-", R.CoimpLc: "-4.8-",
    R.AndRPlus: "-4.9-", R.AndRMinus1: "-4.10.1-", R.AndRMinus2: "-4.10.2-",
    R.OrRPlus1: "-4.11.1-", R.OrRPlus2: "-4.11.2-", R.OrRMinus: "-4.12-",
    R.ImpRPlus: "-4.13-", R.ImpRMinus: "-4.14-", R.CoimpRPlus: "-4.15-",
    R.CoimpRMinus: "-4.16-",
}

_CASE_PRINCIPAL = {And: "-5.1-", Or: "-5.2-", Imp: "-5.3-", Coimp: "-5.4-"}

#: every case label of the elimination machine, for coverage accounting
ELIMINATION_CASES: tuple[str, ...] = (
    "-1.1-", "-1.2-", "-1.3-", "-2.1-", "-2.2-", "-2.3-", *_CASE_BY_LEFT_RULE.values(),
    *_CASE_BY_RIGHT_RULE.values(), *_CASE_PRINCIPAL.values())

#: the cut variant on a formula on each side, or proved at each polarity
_VARIANT = {at: variant for variant, pair in CUT_AT.items() for at in pair}

# priority for re-axiomatizing a conclusion that several zero-premise rules
# close: context-based closures first
_AXIOM_PRIORITY = (R.BotLa, R.TopLc, R.TopRPlus, R.BotRMinus, R.RfPlus, R.RfMinus)


def _cut_contexts(key: tuple) -> tuple[Context, Context, Context, Context]:
    """Gamma', Delta', and the target's Gamma and Delta, of a cut with the
    premise contexts, cut formula and variant of ``key``."""
    lg, ld, gp, dp, dfm, variant = key
    if CUT_AT[variant][0] is Side.A:
        gp = gp.remove(dfm)
    else:
        dp = dp.remove(dfm)
    return gp, dp, lg.union(gp), ld.union(dp)


def eliminate_cut(left: Derivation, right: Derivation, cut_formula: Formula,
                  variant: R, trace: Optional[CutTrace] = None) -> Derivation:
    """Eliminate one cut between two cut-free derivations.

    ``variant`` is CutA (left concludes ``|-+ D``, D among the right premise's
    assumptions) or CutC (left ``|-- D``, D among the counterassumptions).
    Returns a cut-free derivation of ``(Gamma, Gamma'; Delta, Delta') |-* C``.

    Every recursive sub-cut strictly decreases the (weight, cut-height) pair;
    pass ``trace`` to record the dispatched case per rewrite.
    """
    if variant not in CUT_AT:
        raise TransformError(f"variant must be CutA or CutC, got {variant}")
    _require_input(left, "eliminate_cut(left)")
    _require_input(right, "eliminate_cut(right)")
    side, want_pol = CUT_AT[variant]
    if left.conclusion.polarity is not want_pol or left.conclusion.succedent != cut_formula:
        raise TransformError(
            f"eliminate_cut: left premise must conclude |-{want_pol.sign} "
            f"{format_formula(cut_formula)}, got {left.conclusion}")
    on_a = side is Side.A
    if cut_formula not in (right.conclusion.gamma if on_a else right.conclusion.delta):
        where = "assumptions" if on_a else "counterassumptions"
        raise TransformError(
            f"eliminate_cut: cut formula {format_formula(cut_formula)} missing "
            f"from the right premise's {where}")
    eliminator = _Eliminator(trace)
    out = eliminator.run(left, right, cut_formula, variant, None, None)
    target = eliminator.target(left, right, cut_formula, variant)
    if out.conclusion != target:
        raise InternalCheckError(
            f"eliminate_cut endsequent mismatch: wanted {target}, got {out.conclusion}")
    return out


class _Eliminator:
    """One elimination.  It computes each cut formula's weight, and each
    step's contexts from the premises' contexts, once per elimination, so a
    context shared by the premises stays one object in the output."""

    def __init__(self, trace: Optional[CutTrace]):
        self.trace = trace
        self._counter = 0
        self.weight = _Memo(weight)
        # (Gamma, Delta of the left premise, of the right premise, cut formula,
        # variant) -> Gamma', Delta' and the target's Gamma, Delta
        self._contexts = _Memo(_cut_contexts)

    def contexts(self, left: Derivation, right: Derivation, dfm: Formula,
                 variant: R) -> tuple[Context, Context, Context, Context]:
        """``_cut_contexts`` of the cut of ``left`` into ``right`` on ``dfm``."""
        l, r = left.conclusion, right.conclusion
        return self._contexts[l.gamma, l.delta, r.gamma, r.delta, dfm, variant]

    def target(self, left: Derivation, right: Derivation, dfm: Formula, variant: R) -> Sequent:
        """The endsequent of the cut of ``left`` into ``right`` on ``dfm``."""
        _, _, g, d = self.contexts(left, right, dfm, variant)
        return Sequent(g, d, right.conclusion.polarity, right.conclusion.succedent)

    def run(self, left: Derivation, right: Derivation, dfm: Formula, variant: R,
            parent: Optional[int], parent_measure: Optional[tuple[int, int]]) -> Derivation:
        measure = (self.weight[dfm], left.height + right.height)
        if parent_measure is not None and not measure < parent_measure:
            raise InternalCheckError(
                f"elimination measure did not decrease: {parent_measure} -> {measure}")
        index = self._counter
        self._counter += 1
        case, build = self._select(left, right, dfm, variant)
        if self.trace is not None:
            self.trace.steps.append(TraceStep(index, parent, case, CUT_AT[variant][0].value,
                                              *measure))
        return build(index, measure)

    def _select(self, left: Derivation, right: Derivation, dfm: Formula,
                variant: R) -> tuple[str, Callable[[int, tuple[int, int]], Derivation]]:
        target = self.target(left, right, dfm, variant)
        side, pol = CUT_AT[variant]
        family = "-1." if side is Side.A else "-2."

        if right.rule in ZERO_PREMISE:
            case = family + ("2-" if right.conclusion.polarity is PLUS else "3-")
            closer = _first_closer(target, _AXIOM_PRIORITY)
            if closer is not None:
                return case, lambda i, m: _node(closer, target)
            if target.succedent == dfm and target.polarity is pol:
                gp, dp, _, _ = self.contexts(left, right, dfm, variant)
                return case, lambda i, m: weaken_context(left, gp, dp)
            # the right axiom closed through the cut occurrence itself
            # (D = F via BotLa under CutA, D = T via TopLc under CutC); the
            # left premise then necessarily ends in a left rule, so the cut
            # is permuted into it exactly as in the -3.x- cases below
            if left.rule not in LEFT_RULES:
                raise InternalCheckError(
                    f"fall-through with a non-left-rule left premise {left.rule}")
        elif left.rule in ZERO_PREMISE:
            return family + "1-", lambda i, m: self._left_axiom(left, right, dfm, variant, target)

        if left.rule in LEFT_RULES:
            case = _CASE_BY_LEFT_RULE[left.rule]
            return case, lambda i, m: self._permute_left(i, m, left, right, dfm, variant, target)
        if not _principal_here(right, side, dfm):
            case = _CASE_BY_RIGHT_RULE[right.rule]
            return case, lambda i, m: self._permute_right(i, m, left, right, dfm, variant, target)
        case = _CASE_PRINCIPAL[type(dfm)]
        return case, lambda i, m: self._principal(i, m, left, right, dfm, variant, target)

    # -1.1- / -2.1-: the left premise is an axiom
    def _left_axiom(self, left: Derivation, right: Derivation, dfm: Formula,
                    variant: R, target: Sequent) -> Derivation:
        lg, ld = left.conclusion.gamma, left.conclusion.delta
        rule = left.rule
        if rule in (R.RfPlus, R.RfMinus):
            rest = _drop_one(left.conclusion, dfm, CUT_AT[variant][0])
            return weaken_context(right, rest.gamma, rest.delta)
        if rule in (R.BotLa, R.TopLc):
            return _node(rule, target)
        if rule in (R.TopRPlus, R.BotRMinus):
            which = (SpecialWeakening.TOP_IN_GAMMA if rule is R.TopRPlus
                     else SpecialWeakening.BOT_IN_DELTA)
            return weaken_context(unweaken_special(right, which), lg, ld)
        raise InternalCheckError(f"unexpected axiom rule {rule} on the left premise")

    # -3.x-: the cut formula is not principal on the left; permute the cut
    # above the left rule
    def _permute_left(self, index: int, measure: tuple[int, int], left: Derivation,
                      right: Derivation, dfm: Formula, variant: R,
                      target: Sequent) -> Derivation:
        gp, dp, _, _ = self.contexts(left, right, dfm, variant)
        principal = infer_principal(left)
        if principal is None:
            raise InternalCheckError(f"cannot identify the principal of {left.rule}")

        def rec(premise: Derivation) -> Derivation:
            return self.run(premise, right, dfm, variant, index, measure)

        # a premise with a succedent of its own does not conclude the cut
        # formula; it is only weakened by the carried-over context
        new_premises = [rec(p) if t.succedent is None else weaken_context(p, gp, dp)
                        for p, t in zip(left.premises, SCHEMA[left.rule].premises)]
        return _node(left.rule, target, new_premises, principal=principal)

    # -4.x-: principal on the left only; permute the cut above the right rule
    def _permute_right(self, index: int, measure: tuple[int, int], left: Derivation,
                       right: Derivation, dfm: Formula, variant: R,
                       target: Sequent) -> Derivation:
        new_premises = tuple(
            self.run(left, q, dfm, variant, index, measure) for q in right.premises)
        return _node(right.rule, target, new_premises, annotation=right.annotation)

    # -5.x-: principal on both sides; the two rules' schemas say which strict
    # subformulas to cut on, and the doubled contexts are closed by contraction
    def _principal(self, index: int, measure: tuple[int, int], left: Derivation,
                   right: Derivation, dfm: Formula, variant: R,
                   target: Sequent) -> Derivation:
        proves = SCHEMA.get(left.rule)
        if (proves is None or proves.connective is not type(dfm)
                or proves.at is not CUT_AT[variant][1]):
            raise InternalCheckError(
                f"left premise root {left.rule} does not introduce the cut formula")
        ops = (dfm.left, dfm.right)  # type: ignore[attr-defined]
        templates = SCHEMA[right.rule].premises
        lg, ld = left.conclusion.gamma, left.conclusion.delta

        def rec(l: Derivation, r: Derivation, f: Formula, v: R) -> Derivation:
            return self.run(l, r, f, v, index, measure)

        if templates[0].keeps:                  # ImpLa / CoimpLc
            kept, i = templates[0], proves.premises[0].succedent
            first = rec(left, right.premises[0], dfm, variant)
            second = rec(left.premises[0], right.premises[1], ops[i], variant)
            out = rec(first, second, ops[kept.succedent], _VARIANT[kept.polarity])
            lg, ld = target.gamma, target.delta
        elif len(templates) == 2:               # OrLa / AndLc: one operand, no close
            i = proves.premises[0].succedent
            adds = [t.gamma + t.delta for t in templates]
            return rec(left.premises[0], right.premises[adds.index((i,))], ops[i], variant)
        else:                                   # one premise: cut each operand it adds
            (t,) = templates
            proof = {lt.succedent: p for p, lt in zip(left.premises, proves.premises)}
            out = right.premises[0]
            for v, adds in ((_VARIANT[Side.A], t.gamma), (_VARIANT[Side.C], t.delta)):
                for i in adds:
                    out = rec(proof[i], out, ops[i], v)
        # the C^{a/c} closing steps: contract each doubled occurrence
        for ctx, side in ((lg, Side.A), (ld, Side.C)):
            for f in ctx.expand():
                out = contract(out, f, side)
        return out
