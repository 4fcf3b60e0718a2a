"""A small reference checker for derivations, written apart from the kernel.

Each of the 24 primitive rules and the two cuts is written out below as the
premises it demands of its conclusion, in the notation of the rule figures:
a sequent is ``(gamma, delta, sign, succedent)`` with ``collections.Counter``
contexts, so two sequents are equal when their multisets are.  The checker
reads a ``Derivation``'s fields and the formula classes of ``bint.syntax``,
and nothing of the kernel's rule logic: no ``SCHEMA``, matcher or ``Context``
operation.  The tests compare its verdicts with ``Derivation.valid``.
"""

from __future__ import annotations

from collections import Counter

from bint.syntax import And, Atom, Bottom, Coimp, Imp, Or, Top

_CONNECTIVES = (("Coimp", Coimp), ("And", And), ("Imp", Imp), ("Or", Or))


def sequent(s) -> tuple:
    """``s`` as ``(gamma, delta, sign, succedent)``, its contexts as Counters."""
    return Counter(s.gamma.items), Counter(s.delta.items), s.polarity.value, s.succedent


def _with(ctx: Counter, *fs) -> Counter:
    out = ctx.copy()
    out.update(fs)
    return out


def _without(ctx: Counter, f) -> Counter:
    out = ctx.copy()
    out[f] -= 1
    return out


def _closes(rule: str, g: Counter, d: Counter, sign: str, c) -> bool:
    """Whether the zero-premise rule ``rule`` closes ``g ; d |-sign c``."""
    if rule == "RfPlus":
        return sign == "+" and isinstance(c, Atom) and g[c] > 0
    if rule == "RfMinus":
        return sign == "-" and isinstance(c, Atom) and d[c] > 0
    if rule == "BotLa":
        return any(isinstance(f, Bottom) for f in g)
    if rule == "TopLc":
        return any(isinstance(f, Top) for f in d)
    if rule == "BotRMinus":
        return sign == "-" and isinstance(c, Bottom)
    return rule == "TopRPlus" and sign == "+" and isinstance(c, Top)


def _demands(rule: str, g: Counter, d: Counter, sign: str, c, p) -> list | None:
    """The premises logical rule ``rule`` with principal ``p`` (already of
    its connective, and on its side for a left rule) demands of
    ``g ; d |-sign c``, or None when the rule does not apply.  Coimp(a, b) is
    the text ``a -< b``."""
    a, b = p.left, p.right
    if rule == "AndRPlus" and sign == "+":
        return [(g, d, "+", a), (g, d, "+", b)]
    if rule in ("AndRMinus1", "AndRMinus2") and sign == "-":
        return [(g, d, "-", a if rule.endswith("1") else b)]
    if rule in ("OrRPlus1", "OrRPlus2") and sign == "+":
        return [(g, d, "+", a if rule.endswith("1") else b)]
    if rule == "OrRMinus" and sign == "-":
        return [(g, d, "-", a), (g, d, "-", b)]
    if rule == "ImpRPlus" and sign == "+":
        return [(_with(g, a), d, "+", b)]
    if rule == "ImpRMinus" and sign == "-":
        return [(g, d, "+", a), (g, d, "-", b)]
    if rule == "CoimpRPlus" and sign == "+":
        return [(g, d, "+", a), (g, d, "-", b)]
    if rule == "CoimpRMinus" and sign == "-":
        return [(g, _with(d, b), "-", a)]
    if rule == "AndLa":
        return [(_with(_without(g, p), a, b), d, sign, c)]
    if rule == "AndLc":
        return [(g, _with(_without(d, p), a), sign, c), (g, _with(_without(d, p), b), sign, c)]
    if rule == "OrLa":
        return [(_with(_without(g, p), a), d, sign, c), (_with(_without(g, p), b), d, sign, c)]
    if rule == "OrLc":
        return [(g, _with(_without(d, p), a, b), sign, c)]
    if rule == "ImpLa":
        return [(g, d, "+", a), (_with(_without(g, p), b), d, sign, c)]
    if rule == "ImpLc":
        return [(_with(g, a), _with(_without(d, p), b), sign, c)]
    if rule == "CoimpLa":
        return [(_with(_without(g, p), a), _with(d, b), sign, c)]
    if rule == "CoimpLc":
        return [(g, d, "-", b), (g, _with(_without(d, p), a), sign, c)]
    return None


def _cut_fits(rule: str, g: Counter, d: Counter, sign: str, c, premises: list,
              annotation) -> bool:
    """CutA: from ``g1 ; d1 |-+ D`` and ``g2, D ; d2 |-* C`` infer
    ``g1, g2 ; d1, d2 |-* C``; CutC: from ``g1 ; d1 |-- D`` and
    ``g2 ; d2, D |-* C``.  The split (g1, d1, g2, d2) and D are annotated."""
    if annotation is None or annotation.cut_formula is None or annotation.context_split is None:
        return False
    cut, sp = annotation.cut_formula, annotation.context_split
    g1, d1, g2, d2 = (Counter(x.items) for x in (sp.gamma, sp.delta, sp.gamma_prime,
                                                 sp.delta_prime))
    if g != g1 + g2 or d != d1 + d2:
        return False
    if rule == "CutA":
        return premises == [(g1, d1, "+", cut), (_with(g2, cut), d2, sign, c)]
    return premises == [(g1, d1, "-", cut), (g2, _with(d2, cut), sign, c)]


def node_fits(rule: str, conclusion, premise_conclusions, annotation) -> bool:
    """Whether one node, rule ``rule`` (its name) concluding ``conclusion``
    from premises concluding ``premise_conclusions``, is a rule instance."""
    g, d, sign, c = sequent(conclusion)
    premises = [sequent(s) for s in premise_conclusions]
    if rule in ("CutA", "CutC"):
        return _cut_fits(rule, g, d, sign, c, premises, annotation)
    connective = next((k for name, k in _CONNECTIVES if rule.startswith(name)), None)
    if connective is None:
        return not premises and _closes(rule, g, d, sign, c)
    kind = rule[len(connective.__name__)]              # "R", or "L" then the side
    side = None if kind == "R" else g if rule.endswith("a") else d
    annotated = None if annotation is None else annotation.principal
    if annotated is not None:
        candidates = [annotated]
    else:
        candidates = [c] if side is None else list(side)
    for p in candidates:
        if not isinstance(p, connective):
            continue
        if (side is None and p != c) or (side is not None and side[p] < 1):
            continue
        if _demands(rule, g, d, sign, c, p) == premises:
            return True
    return False


def valid(root) -> bool:
    """Whether every node of the derivation ``root`` is a rule instance;
    each distinct node object is checked once, on an explicit stack."""
    stack, seen = [root], set()
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if not node_fits(x.rule.value, x.conclusion, [p.conclusion for p in x.premises],
                         x.annotation):
            return False
        stack.extend(x.premises)
    return True
