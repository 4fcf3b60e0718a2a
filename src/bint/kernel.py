"""Sequents over multiset contexts, the 24-rule table plus the two cut rules,
the derivation checker, backward rule enumeration, the duality mapping, and
``fold``, the stack-free walk that duality, weakening, inversion, contraction
and coverage share.  Its ``stop`` hook gives a node an image without visiting
its premises, which is how inversion and contraction end at a principal node.
Duality dualizes each distinct subformula once per call, on its own stack.

Every ``Derivation`` is checked once, when it is built, by the one call that
writes its fields: ``valid`` says that its premises are valid and that it
instantiates its rule schema.  No construction path skips the check, so a
tree is never re-checked, and ``check_derivation`` walks only an invalid tree.
A node is decided by ``_VALID[rule]``, one predicate per rule built from
``SCHEMA`` at import: it matches the premises in place and words nothing.
``check_rule_instance`` builds the expected premises only to word a violation.

The 18 logical rules are one data table, ``SCHEMA``: per rule, the connective
it decomposes, where its principal sits, and one template per premise.
Checking, backward expansion, the rule sets and the duality table here, and
identity expansion, inversion, contraction and the principal cases of cut
elimination in ``bint.transform``, all read it.

A context caches its hash, as a sequent does, and a union with a short side
inserts that side's occurrences by bisection, so editing a long context never
sorts it again.

Sequent text is read from one ``bint.syntax.scan``: ``read_formula`` reads
each formula, and the lists, ``;`` and turnstile between them are read here.

A sequent ``(gamma; delta) |-* C`` reads: from the verification of everything
in gamma and the falsification of everything in delta, derive the verification
(``*`` = ``+``) or falsification (``*`` = ``-``) of C.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Optional, TypeVar

from .syntax import (
    BOT,
    TOP,
    And,
    Atom,
    Bottom,
    Coimp,
    Formula,
    Imp,
    Or,
    Top,
    error,
    format_formula,
    read_formula,
    scan,
)


class Polarity(enum.Enum):
    PLUS = "+"
    MINUS = "-"

    # Members are singletons, so identity hashing agrees with ``==`` and skips
    # ``Enum.__hash__``'s Python-level ``hash(self._name_)``.
    __hash__ = object.__hash__

    @property
    def sign(self) -> str:
        return self.value

    def flip(self) -> "Polarity":
        return Polarity.MINUS if self is Polarity.PLUS else Polarity.PLUS


PLUS = Polarity.PLUS
MINUS = Polarity.MINUS


class Side(enum.Enum):
    """Context side: assumptions (``a``) or counterassumptions (``c``)."""

    A = "a"
    C = "c"

    __hash__ = object.__hash__   # as for Polarity


# --- multiset contexts -------------------------------------------------------

_KEY = attrgetter("key")
#: ``Context.union`` inserts a side of at most this many occurrences, and at
#: most a quarter of the other side's, by bisection; it sorts longer sides,
#: where bisecting each occurrence costs more than the sort
_SHORT = 4


@dataclass(frozen=True)
class Context:
    """Finite multiset of formulas: the tuple of every occurrence, sorted by
    ``Formula.key``, so that equality and hashing are multiset equality."""

    items: tuple[Formula, ...] = ()

    # as for Sequent: not a field, so neither compared nor printed
    _hash = None

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.items,))
            object.__setattr__(self, "_hash", h)
        return h

    @staticmethod
    def of(*formulas: Formula) -> "Context":
        return Context.from_iter(formulas)

    @staticmethod
    def from_iter(formulas: Iterable[Formula]) -> "Context":
        return Context(tuple(sorted(formulas, key=_KEY)))

    def count(self, f: Formula) -> int:
        return (bisect_right(self.items, f.key, key=_KEY)
                - bisect_left(self.items, f.key, key=_KEY))

    def __contains__(self, f: Formula) -> bool:
        i = bisect_left(self.items, f.key, key=_KEY)
        return i < len(self.items) and self.items[i] == f

    def __len__(self) -> int:
        return len(self.items)

    def is_empty(self) -> bool:
        return not self.items

    def add(self, f: Formula, n: int = 1) -> "Context":
        i = bisect_right(self.items, f.key, key=_KEY)
        return Context(self.items[:i] + (f,) * n + self.items[i:])

    def remove(self, f: Formula, n: int = 1) -> "Context":
        items = self.items
        lo = bisect_left(items, f.key, key=_KEY)
        if items[lo:lo + n].count(f) < n:   # the occurrences of f are adjacent
            raise KeyError(f"{format_formula(f)} not present {n} time(s)")
        return Context(items[:lo] + items[lo + n:])

    def union(self, other: "Context") -> "Context":
        """Both multisets; an empty side gives the other context itself."""
        a, b = self.items, other.items
        if not b:
            return self
        if not a:
            return other
        long, short, find = (a, b, bisect_right) if len(b) <= len(a) else (b, a, bisect_left)
        if len(short) > _SHORT or len(long) < 4 * len(short):
            # the sort merges the two sorted runs
            return Context.from_iter(a + b)
        # the short side's occurrences go where the stable sort would put
        # them: after equal ones of ``self``, before equal ones of ``other``
        out, start = (), 0
        for f in short:
            i = find(long, f.key, key=_KEY)
            out += long[start:i] + (f,)
            start = i
        return Context(out + long[start:])

    def distinct(self) -> Iterator[Formula]:
        """The first occurrence of each formula, in canonical order."""
        return iter(dict.fromkeys(self.items))

    def expand(self) -> tuple[Formula, ...]:
        """Every occurrence, in canonical order."""
        return self.items

    def __str__(self) -> str:
        return ", ".join(format_formula(f) for f in self.items)


EMPTY = Context()


@dataclass(frozen=True)
class Sequent:
    gamma: Context
    delta: Context
    polarity: Polarity
    succedent: Formula

    # Not a field, so not compared: ``__hash__`` stores the hash here on first
    # use.  Most sequents built by the transforms are never hashed.  It hashes
    # the contexts' items, not the contexts: the search hashes each sequent
    # once, and most of its contexts only there.
    _hash = None

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.gamma.items, self.delta.items, self.polarity, self.succedent))
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self) -> str:
        return format_sequent(self)


def sequent(gamma: Iterable[Formula], delta: Iterable[Formula], polarity: Polarity,
            succedent: Formula) -> Sequent:
    return Sequent(Context.from_iter(gamma), Context.from_iter(delta), polarity, succedent)


def format_sequent(s: Sequent, write: Callable[[Formula], str] = format_formula,
                   context: Optional[Callable[[Context], str]] = None) -> str:
    """The text of ``s``; ``write`` gives the text of each formula, and
    ``context``, when set, the text of each context (its formulas' texts
    joined by ", ")."""
    if context is None:
        g = ", ".join(map(write, s.gamma.items))
        d = ", ".join(map(write, s.delta.items))
    else:
        g, d = context(s.gamma), context(s.delta)
    left = f"{g} ;" if g else ";"
    if d:
        left = f"{left} {d}"
    return f"{left} |-{s.polarity.sign} {write(s.succedent)}"


def parse_sequent(text: str) -> Sequent:
    """Parse ``Gamma ; Delta |-+ C`` / ``|--``; empty sides are allowed and
    duplicate list entries produce multiset counts."""
    found = scan(text)
    gamma, delta, i = _contexts(text, found, _TURNSTILES)
    if found[i] not in _TURNSTILES:
        raise error(text, "expected '|-+' or '|--'", i)
    succ, end = read_formula(text, found, i + 1)
    if found[end]:
        raise error(text, f"trailing input {found[end]!r}", end)
    return Sequent(gamma, delta, PLUS if found[i] == "|-+" else MINUS, succ)


def parse_context_pair(text: str) -> tuple[Context, Context]:
    """Parse ``Gamma ; Delta`` with no turnstile (used by the identity command)."""
    found = scan(text)
    gamma, delta, i = _contexts(text, found, ("",))
    if found[i]:
        raise error(text, f"trailing input {found[i]!r}", i)
    return gamma, delta


_TURNSTILES = ("|-+", "|--")
#: the lexemes that may follow a formula of a sequent; "" is the end of the text
_AFTER_FORMULA = frozenset((",", ";", *_TURNSTILES, ""))


def _contexts(text: str, found: list[str], stops: tuple) -> tuple[Context, Context, int]:
    """``Gamma ; Delta`` from the first lexeme of ``found`` (``scan(text)``),
    the second list ending at a lexeme in ``stops``, and where it ends."""
    gamma, i = _formulas(text, found, 0, (";",))
    if found[i] != ";":
        raise error(text, "expected ';'", i)
    delta, i = _formulas(text, found, i + 1, stops)
    return Context.from_iter(gamma), Context.from_iter(delta), i


def _formulas(text: str, found: list[str], i: int, stops: tuple) -> tuple[list, int]:
    """Comma-separated formulas from lexeme ``i`` up to the first lexeme
    after a formula that is not a comma, and its index; none when lexeme
    ``i`` is in ``stops``."""
    out: list[Formula] = []
    if found[i] in stops:
        return out, i
    while True:
        f, i = read_formula(text, found, i)
        if found[i] not in _AFTER_FORMULA:
            raise error(text, f"trailing input {found[i]!r}", i)
        out.append(f)
        if found[i] != ",":
            return out, i
        i += 1


# --- the rule table ----------------------------------------------------------

class RuleId(enum.Enum):
    RfPlus = "RfPlus"
    RfMinus = "RfMinus"
    BotLa = "BotLa"
    TopLc = "TopLc"
    BotRMinus = "BotRMinus"
    TopRPlus = "TopRPlus"
    AndRPlus = "AndRPlus"
    AndRMinus1 = "AndRMinus1"
    AndRMinus2 = "AndRMinus2"
    AndLa = "AndLa"
    AndLc = "AndLc"
    OrRPlus1 = "OrRPlus1"
    OrRPlus2 = "OrRPlus2"
    OrRMinus = "OrRMinus"
    OrLa = "OrLa"
    OrLc = "OrLc"
    ImpRPlus = "ImpRPlus"
    ImpRMinus = "ImpRMinus"
    ImpLa = "ImpLa"
    ImpLc = "ImpLc"
    CoimpRPlus = "CoimpRPlus"
    CoimpRMinus = "CoimpRMinus"
    CoimpLa = "CoimpLa"
    CoimpLc = "CoimpLc"
    CutA = "CutA"
    CutC = "CutC"

    __hash__ = object.__hash__   # as for Polarity


R = RuleId

#: the zero-premise rules, in the order backward expansion lists them
CLOSERS = (R.RfPlus, R.RfMinus, R.BotLa, R.TopLc, R.BotRMinus, R.TopRPlus)
ZERO_PREMISE = frozenset(CLOSERS)
#: per cut variant, the right premise's side that holds the cut formula and the
#: polarity at which the left premise proves it
CUT_AT = {R.CutA: (Side.A, PLUS), R.CutC: (Side.C, MINUS)}
CUT_RULES = frozenset(CUT_AT)


@dataclass(frozen=True)
class Template:
    """How one premise of a logical rule is built from the rule's conclusion.

    ``gamma`` and ``delta`` list the principal's operands (0 its left, 1 its
    right operand) added to that context, in order; ``polarity`` and
    ``succedent`` (an operand) replace the conclusion's when set.  A left-rule
    premise drops the principal occurrence from its side unless it ``keeps``
    it; a right rule's contexts are never reduced."""

    gamma: tuple[int, ...] = ()
    delta: tuple[int, ...] = ()
    polarity: Optional[Polarity] = None
    succedent: Optional[int] = None
    keeps: bool = False


@dataclass(frozen=True)
class Schema:
    """One logical rule: the connective it decomposes, where its principal
    sits (``Side.A``/``Side.C`` for a left rule, the succedent at this polarity
    for a right rule), and one template per premise, in premise order."""

    connective: type
    at: Side | Polarity
    premises: tuple[Template, ...]


_A, _B = 0, 1
_P = Template

#: the 18 logical rules of the calculus; the zero-premise rules and the cuts
#: are checked by ``_zero_premise_failure`` and ``_check_cut``
SCHEMA: dict[RuleId, Schema] = {
    R.AndRPlus: Schema(And, PLUS, (_P(succedent=_A), _P(succedent=_B))),
    R.AndRMinus1: Schema(And, MINUS, (_P(succedent=_A),)),
    R.AndRMinus2: Schema(And, MINUS, (_P(succedent=_B),)),
    R.AndLa: Schema(And, Side.A, (_P(gamma=(_A, _B)),)),
    R.AndLc: Schema(And, Side.C, (_P(delta=(_A,)), _P(delta=(_B,)))),
    R.OrRPlus1: Schema(Or, PLUS, (_P(succedent=_A),)),
    R.OrRPlus2: Schema(Or, PLUS, (_P(succedent=_B),)),
    R.OrRMinus: Schema(Or, MINUS, (_P(succedent=_A), _P(succedent=_B))),
    R.OrLa: Schema(Or, Side.A, (_P(gamma=(_A,)), _P(gamma=(_B,)))),
    R.OrLc: Schema(Or, Side.C, (_P(delta=(_A, _B)),)),
    R.ImpRPlus: Schema(Imp, PLUS, (_P(gamma=(_A,), succedent=_B),)),
    R.ImpRMinus: Schema(Imp, MINUS, (_P(polarity=PLUS, succedent=_A), _P(succedent=_B))),
    R.ImpLa: Schema(Imp, Side.A, (_P(polarity=PLUS, succedent=_A, keeps=True),
                                  _P(gamma=(_B,)))),
    R.ImpLc: Schema(Imp, Side.C, (_P(gamma=(_A,), delta=(_B,)),)),
    R.CoimpRPlus: Schema(Coimp, PLUS, (_P(succedent=_A), _P(polarity=MINUS, succedent=_B))),
    R.CoimpRMinus: Schema(Coimp, MINUS, (_P(delta=(_B,), succedent=_A),)),
    R.CoimpLa: Schema(Coimp, Side.A, (_P(gamma=(_A,), delta=(_B,)),)),
    R.CoimpLc: Schema(Coimp, Side.C, (_P(polarity=MINUS, succedent=_B, keeps=True),
                                      _P(delta=(_A,)))),
}

LEFT_RULES = frozenset(r for r, s in SCHEMA.items() if isinstance(s.at, Side))
RIGHT_RULES = frozenset(SCHEMA) - LEFT_RULES
PRIMITIVE_RULES = ZERO_PREMISE | LEFT_RULES | RIGHT_RULES

ARITY = {**dict.fromkeys(ZERO_PREMISE, 0), **dict.fromkeys(CUT_RULES, 2),
         **{r: len(s.premises) for r, s in SCHEMA.items()}}


@dataclass(frozen=True, slots=True)
class ContextSplit:
    """The (gamma, delta) / (gamma', delta') partition of a cut conclusion;
    not recoverable from the conclusion alone, so cut nodes must carry it."""

    gamma: Context
    delta: Context
    gamma_prime: Context
    delta_prime: Context


@dataclass(frozen=True, slots=True)
class Annotation:
    principal: Optional[Formula] = None
    cut_formula: Optional[Formula] = None
    context_split: Optional[ContextSplit] = None


@dataclass(frozen=True, init=False, slots=True)
class Derivation:
    """A derivation tree.  ``valid`` is decided once, when the node is built:
    every premise is valid and the node instantiates its rule schema."""

    conclusion: Sequent
    rule: RuleId
    premises: tuple["Derivation", ...] = ()
    annotation: Optional[Annotation] = None
    height: int = field(init=False, compare=False, repr=False, default=0)
    cut_count: int = field(init=False, compare=False, repr=False, default=0)
    valid: bool = field(init=False, compare=False, repr=False, default=False)

    def __init__(self, conclusion: Sequent, rule: RuleId, premises=(), annotation=None):
        h, c, valid = 0, 1 if rule in CUT_RULES else 0, True
        for p in premises:
            if p.height >= h:
                h = p.height + 1
            c += p.cut_count
            valid = valid and p.valid
        _set_conclusion(self, conclusion)
        _set_rule(self, rule)
        _set_premises(self, premises)
        _set_annotation(self, annotation)
        _set_height(self, h)
        _set_cut_count(self, c)
        _set_valid(self, valid and _VALID[rule](conclusion, premises, annotation))

    def __eq__(self, other: object) -> bool:
        """The dataclass's equality of conclusion, rule, premises and
        annotation, on its own stack; a pair of node objects is compared once."""
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack, seen = [(self, other)], set()
        while stack:
            x, y = stack.pop()
            pair = (id(x), id(y))
            if x is y or pair in seen:
                continue
            seen.add(pair)
            if (x.conclusion != y.conclusion or x.rule is not y.rule
                    or len(x.premises) != len(y.premises) or x.annotation != y.annotation):
                return False
            stack += zip(x.premises, y.premises)
        return True

    def __hash__(self) -> int:
        # the root's fields only, so no walk: equal derivations agree on them
        return hash((self.conclusion, self.rule, len(self.premises), self.annotation))

    def __repr__(self) -> str:
        # the root only, so no walk: a tall or shared tree prints as one line
        return (f"Derivation({self.rule.value}, {format_sequent(self.conclusion)!r}, "
                f"height={self.height})")


# The writers of a node's slots, by field: the frozen record is written once,
# in ``__init__``, through them, at half the cost of ``object.__setattr__``.
(_set_conclusion, _set_rule, _set_premises, _set_annotation, _set_height, _set_cut_count,
 _set_valid) = (getattr(Derivation, f.name).__set__ for f in fields(Derivation))


def node(rule: RuleId, conclusion: Sequent, premises: Iterable[Derivation] = (),
         principal: Optional[Formula] = None,
         annotation: Optional[Annotation] = None) -> Derivation:
    if annotation is None and principal is not None:
        annotation = Annotation(principal=principal)
    return Derivation(conclusion, rule, tuple(premises), annotation)


def cut_height(d: Derivation) -> int:
    """Sum of the premise heights of a cut node."""
    if d.rule not in CUT_RULES:
        raise ValueError(f"cut_height needs a cut node, got {d.rule.value}")
    return d.premises[0].height + d.premises[1].height


_T = TypeVar("_T")


def fold(d: Derivation, make: Callable[[Derivation, tuple], _T],
         stop: Optional[Callable[[Derivation], Optional[_T]]] = None) -> _T:
    """``make(x, images of x's premises)`` for the root ``d``, on its own stack.
    Each distinct node object is made once, after its premises, in order, so
    a premise object shared by several nodes has one image.

    ``stop(x)``, when given, is asked first, once per distinct node: an image
    it returns (not None) stands for ``x``, and the premises of ``x`` are not
    visited."""
    if not d.premises and stop is None:
        return make(d, ())
    done: dict[int, _T] = {}     # id of a node -> its image
    stack: list = [d]
    while stack:
        x = stack.pop()
        if x is None:           # the premises of the node below are made
            x = stack.pop()
            done[id(x)] = make(x, tuple([done[id(p)] for p in x.premises]))
        elif id(x) not in done:  # a shared premise is pushed again once made
            image = None if stop is None else stop(x)
            if image is None:
                stack += (x, None, *x.premises[::-1])
            else:
                done[id(x)] = image
    return done[id(d)]


# --- schema machinery ---------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    rule: RuleId
    message: str

    def __str__(self) -> str:
        return f"{self.rule.value}: {self.message}"


def _zero_premise_failure(s: Sequent, rule: RuleId) -> Optional[str]:
    """None if the zero-premise rule closes s, else what is missing."""
    if rule is R.RfPlus:
        if s.polarity is not PLUS:
            return "wrong polarity: needs |-+"
        if not isinstance(s.succedent, Atom):
            return "succedent must be atomic"
        if s.succedent not in s.gamma:
            return "atomic succedent not among the assumptions"
        return None
    if rule is R.RfMinus:
        if s.polarity is not MINUS:
            return "wrong polarity: needs |--"
        if not isinstance(s.succedent, Atom):
            return "succedent must be atomic"
        if s.succedent not in s.delta:
            return "atomic succedent not among the counterassumptions"
        return None
    if rule is R.BotLa:
        return None if BOT in s.gamma else "F not among the assumptions"
    if rule is R.TopLc:
        return None if TOP in s.delta else "T not among the counterassumptions"
    if rule is R.TopRPlus:
        if s.polarity is not PLUS:
            return "wrong polarity: needs |-+"
        return None if s.succedent == TOP else "succedent must be T"
    if rule is R.BotRMinus:
        if s.polarity is not MINUS:
            return "wrong polarity: needs |--"
        return None if s.succedent == BOT else "succedent must be F"
    raise ValueError(f"not a zero-premise rule: {rule}")


def closing_rules(s: Sequent) -> list[RuleId]:
    """The zero-premise rules that close ``s``, in ``CLOSERS`` order: those
    for which ``_zero_premise_failure`` finds nothing missing, in one pass."""
    out = []
    c, plus = s.succedent, s.polarity is PLUS
    if isinstance(c, Atom) and c in (s.gamma if plus else s.delta):
        out.append(R.RfPlus if plus else R.RfMinus)
    if BOT in s.gamma:
        out.append(R.BotLa)
    if TOP in s.delta:
        out.append(R.TopLc)
    if not plus and isinstance(c, Bottom):
        out.append(R.BotRMinus)
    elif plus and isinstance(c, Top):
        out.append(R.TopRPlus)
    return out


def premises_for(conclusion: Sequent, rule: RuleId,
                 principal: Optional[Formula] = None) -> Optional[tuple[Sequent, ...]]:
    """Premise sequents the schema demands of this conclusion, or None when the
    rule does not apply (wrong polarity / shape / missing principal occurrence).

    A right rule's principal is the succedent; ``principal``, when given, must
    equal it.  A left rule requires the principal occurrence on its side.
    """
    if rule in ZERO_PREMISE:
        return () if _zero_premise_failure(conclusion, rule) is None else None
    schema = SCHEMA.get(rule)
    if schema is None:
        raise ValueError(f"premises_for does not handle {rule}")
    at = schema.at
    if isinstance(at, Side):
        if (not isinstance(principal, schema.connective)
                or principal not in (conclusion.gamma if at is Side.A else conclusion.delta)):
            return None
    else:
        c = conclusion.succedent
        if conclusion.polarity is not at or not isinstance(c, schema.connective):
            return None
        if principal is not None and principal != c:
            return None
        principal = c
    return tuple([premise_of(conclusion, at, principal, t) for t in schema.premises])


def premise_of(s: Sequent, at: Side | Polarity, principal: Formula, t: Template) -> Sequent:
    """The premise that template ``t`` of a rule with its principal ``at``
    (as in ``Schema``) builds from ``s``."""
    g, d = s.gamma, s.delta
    if not t.keeps:
        if at is Side.A:
            g = g.remove(principal)
        elif at is Side.C:
            d = d.remove(principal)
    ops = (principal.left, principal.right)  # type: ignore[attr-defined]
    for i in t.gamma:
        g = g.add(ops[i])
    for i in t.delta:
        d = d.add(ops[i])
    return Sequent(g, d, s.polarity if t.polarity is None else t.polarity,
                   s.succedent if t.succedent is None else ops[t.succedent])


def _context_fit(drop: bool, adds: tuple[int, ...]) -> Optional[Callable]:
    """``fit(items, got, principal)``: whether ``got`` is ``items`` less one
    ``principal`` when ``drop`` and with the operands ``adds`` inserted where
    they sort, as ``premise_of`` edits a context; None if it leaves it alone."""
    if not drop and not adds:
        return None
    change = len(adds) - drop

    def fit(items: tuple, got: tuple, principal) -> bool:
        if len(got) != len(items) + change:
            return False
        if drop:
            i = bisect_left(items, principal.key, key=_KEY)
            if i == len(items) or items[i] != principal:
                return False
            items = items[:i] + items[i + 1:]
        for a in adds:
            f = principal.right if a else principal.left
            i = bisect_right(items, f.key, key=_KEY)
            items = items[:i] + (f,) + items[i:]
        return got == items
    return fit


def _premise_fit(at: Side | Polarity, t: Template) -> Callable:
    """``fit(s, principal, p)``: whether ``p`` is ``premise_of(s, at, principal,
    t)``; a context the template leaves alone is compared by identity first."""
    pol, succ = t.polarity, t.succedent
    gamma = _context_fit(at is Side.A and not t.keeps, t.gamma)
    delta = _context_fit(at is Side.C and not t.keeps, t.delta)

    def fit(s: Sequent, principal, p: Sequent) -> bool:
        c = s.succedent if succ is None else principal.right if succ else principal.left
        return (p.polarity is (s.polarity if pol is None else pol)
                and (p.succedent is c or p.succedent == c)
                and (p.gamma is s.gamma or p.gamma.items == s.gamma.items if gamma is None
                     else gamma(s.gamma.items, p.gamma.items, principal))
                and (p.delta is s.delta or p.delta.items == s.delta.items if delta is None
                     else delta(s.delta.items, p.delta.items, principal)))
    return fit


def _rule_fit(schema: Schema) -> Callable:
    """``fit(s, principal, p0, p1=None)``: whether ``schema`` builds the premise
    conclusions ``p0`` (and ``p1`` for two premises) from ``s`` and ``principal``."""
    connective, at = schema.connective, schema.at
    right_at = None if isinstance(at, Side) else at
    first, *rest = [_premise_fit(at, t) for t in schema.premises]
    second = rest[0] if rest else None

    def fit(s: Sequent, principal, p0: Sequent, p1: Optional[Sequent] = None) -> bool:
        return (isinstance(principal, connective)
                and (right_at is None or s.polarity is right_at
                     and (principal is s.succedent or principal == s.succedent))
                and first(s, principal, p0)
                and (second is None or second(s, principal, p1)))
    return fit


_FIT = {r: _rule_fit(s) for r, s in SCHEMA.items()}


def _fits(s: Sequent, rule: RuleId, principal: Formula,
          premises: tuple[Sequent, ...] | list[Sequent]) -> bool:
    """Whether ``premises_for(s, rule, principal) == tuple(premises)`` for a
    logical rule, decided in place by the rule's ``_FIT``."""
    return len(premises) == ARITY[rule] and _FIT[rule](s, principal, *premises)


def _logical_valid(rule: RuleId) -> Callable:
    """``valid`` of a logical rule: some principal the node offers (the
    annotated one, a right rule's succedent, or each occurrence of the
    connective on a left rule's side) fits the premises."""
    schema = SCHEMA[rule]
    fit, connective, two = _FIT[rule], schema.connective, len(schema.premises) == 2
    side = None if not isinstance(schema.at, Side) else attrgetter(
        "gamma.items" if schema.at is Side.A else "delta.items")

    def valid(s: Sequent, premises: tuple, annotation: Optional[Annotation]) -> bool:
        if len(premises) != 1 + two:
            return False
        p0 = premises[0].conclusion
        p1 = premises[1].conclusion if two else None
        if annotation is not None and annotation.principal is not None:
            return fit(s, annotation.principal, p0, p1)
        if side is None:
            return fit(s, s.succedent, p0, p1)
        return any(isinstance(f, connective) and fit(s, f, p0, p1) for f in side(s))
    return valid


#: per rule, ``valid(conclusion, premises, annotation)``: whether a node with
#: these premise derivations instantiates the rule, decided without wording
#: a violation; ``Derivation`` calls it on every node it builds
_VALID = {
    **{r: lambda s, ps, a, r=r: not ps and _zero_premise_failure(s, r) is None
       for r in ZERO_PREMISE},
    **{r: lambda s, ps, a, r=r: len(ps) == 2 and _check_cut(
        s, r, (ps[0].conclusion, ps[1].conclusion), a) is None for r in CUT_RULES},
    **{r: _logical_valid(r) for r in SCHEMA}}


def check_rule_instance(conclusion: Sequent, rule: RuleId,
                        premise_conclusions: list[Sequent] | tuple[Sequent, ...],
                        annotation: Optional[Annotation] = None) -> Optional[Violation]:
    """None when the node instantiates the rule schema exactly, else the first
    failed constraint.  A logical rule's premises are matched against their
    templates in place (``_fits``); the expected premises are built only to
    word a violation."""
    premise_conclusions = tuple(premise_conclusions)
    if len(premise_conclusions) != ARITY[rule]:
        return Violation(rule, f"arity: expected {ARITY[rule]} premises, got {len(premise_conclusions)}")

    if rule in ZERO_PREMISE:
        why = _zero_premise_failure(conclusion, rule)
        return None if why is None else Violation(rule, why)

    if rule in CUT_RULES:
        return _check_cut(conclusion, rule, premise_conclusions, annotation)

    # logical rule
    if annotation is not None and annotation.principal is not None:
        candidates: list[Formula] = [annotation.principal]
    elif rule in RIGHT_RULES:
        candidates = [conclusion.succedent]
    else:
        schema = SCHEMA[rule]
        side = conclusion.gamma if schema.at is Side.A else conclusion.delta
        candidates = [f for f in side.distinct() if isinstance(f, schema.connective)]
        if not candidates:
            return Violation(rule, "no principal occurrence of the right shape")
    for cand in candidates:
        if _fits(conclusion, rule, cand, premise_conclusions):
            return None

    # every candidate failed: the last one words the violation
    expected = premises_for(conclusion, rule, cand)
    if expected is None:
        return Violation(rule, "conclusion does not fit the rule schema "
                               f"(principal {format_formula(cand)})")
    return Violation(
        rule,
        "premises do not match the schema: expected "
        + " | ".join(format_sequent(e) for e in expected)
        + ", got "
        + " | ".join(format_sequent(p) for p in premise_conclusions),
    )


def _check_cut(conclusion: Sequent, rule: RuleId,
               premises: tuple[Sequent, ...], annotation: Optional[Annotation]) -> Optional[Violation]:
    if annotation is None or annotation.cut_formula is None or annotation.context_split is None:
        return Violation(rule, "cut nodes must carry cut_formula and context_split")
    dfm = annotation.cut_formula
    sp = annotation.context_split
    if conclusion.gamma != sp.gamma.union(sp.gamma_prime):
        return Violation(rule, "context split does not recompose the assumptions")
    if conclusion.delta != sp.delta.union(sp.delta_prime):
        return Violation(rule, "context split does not recompose the counterassumptions")
    side, pol = CUT_AT[rule]
    left = Sequent(sp.gamma, sp.delta, pol, dfm)
    on_a = side is Side.A
    right = Sequent(sp.gamma_prime.add(dfm) if on_a else sp.gamma_prime,
                    sp.delta_prime if on_a else sp.delta_prime.add(dfm),
                    conclusion.polarity, conclusion.succedent)
    if premises[0] != left:
        return Violation(rule, f"left premise must be {format_sequent(left)}, "
                               f"got {format_sequent(premises[0])}")
    if premises[1] != right:
        return Violation(rule, f"right premise must be {format_sequent(right)}, "
                               f"got {format_sequent(premises[1])}")
    return None


@dataclass(frozen=True)
class CheckReport:
    valid: bool
    height: int
    cut_count: int
    first_violation: Optional[tuple[str, Violation]] = None

    def __str__(self) -> str:
        if self.valid:
            return f"valid, height {self.height}, cuts {self.cut_count}"
        path, v = self.first_violation  # type: ignore[misc]
        where = path or "root"
        return f"INVALID at {where}: {v} (height {self.height}, cuts {self.cut_count})"


def check_derivation(d: Derivation) -> CheckReport:
    """The report on ``d``; never raises.  A valid tree is reported without a
    walk; an invalid one is walked only for its first violation."""
    violation = None if d.valid else _first_violation(d)
    return CheckReport(d.valid, d.height, d.cut_count, violation)


def _first_violation(root: Derivation) -> tuple[str, Violation]:
    """The first node, in pre-order with premises in order, that breaks its
    rule, and its path from the root.  A valid subtree holds no violation, so
    the walk goes down one path: while the node fits its rule, into its first
    invalid premise."""
    d, steps = root, []
    while True:
        v = check_rule_instance(d.conclusion, d.rule, [p.conclusion for p in d.premises],
                                d.annotation)
        if v is not None:
            return ".".join(steps), v
        i = next(i for i, p in enumerate(d.premises) if not p.valid)
        steps.append(f"premises[{i}]")
        d = d.premises[i]


def infer_principal(d: Derivation) -> Optional[Formula]:
    """The formula the root rule introduces: annotated, or the succedent for
    right rules, or the unique context occurrence whose decomposition matches
    the premises for left rules."""
    if d.annotation is not None and d.annotation.principal is not None:
        return d.annotation.principal
    if d.rule in RIGHT_RULES:
        return d.conclusion.succedent
    if d.rule in LEFT_RULES:
        schema = SCHEMA[d.rule]
        side = d.conclusion.gamma if schema.at is Side.A else d.conclusion.delta
        actual = [p.conclusion for p in d.premises]
        for f in side.distinct():
            if isinstance(f, schema.connective) and _fits(d.conclusion, d.rule, f, actual):
                return f
    return None


# --- backward reading of the rule table ---------------------------------------

class Expansion:
    """A primitive-rule instance concluding ``conclusion``.  Its premises are
    built from the conclusion the first time they are read, and then kept;
    an expansion made with its premises keeps those."""

    __slots__ = ("rule", "annotation", "conclusion", "_premises")

    def __init__(self, rule: RuleId, annotation: Optional[Annotation] = None,
                 premises: Optional[tuple] = None, conclusion: Optional[Sequent] = None):
        self.rule = rule
        self.annotation = annotation
        self.conclusion = conclusion
        self._premises = premises

    @property
    def premises(self) -> tuple[Sequent, ...]:
        if self._premises is None:
            s, schema = self.conclusion, SCHEMA[self.rule]
            principal = s.succedent if self.annotation is None else self.annotation.principal
            self._premises = tuple([premise_of(s, schema.at, principal, t)
                                    for t in schema.premises])
        return self._premises


_RIGHT_BY_SHAPE = {
    (conn, pol): tuple(r for r, s in SCHEMA.items() if s.connective is conn and s.at is pol)
    for conn in (And, Or, Imp, Coimp) for pol in Polarity
}

#: the left rule that decomposes a compound of each shape, per context side
LEFT_RULE_BY_SHAPE = {
    side: {s.connective: r for r, s in SCHEMA.items() if s.at is side} for side in Side
}


def backward_expansions(s: Sequent) -> list[Expansion]:
    """Every primitive-rule instance (no cuts) concluding exactly s: the
    zero-premise closers, the right rule(s) for the succedent, and one left
    rule per distinct compound occurrence in either context.  Only the
    closers come with their premises; the others build them when read."""
    out = [Expansion(rule, None, ()) for rule in closing_rules(s)]
    for rule in _RIGHT_BY_SHAPE.get((type(s.succedent), s.polarity), ()):
        out.append(Expansion(rule, conclusion=s))
    for side, ctx in ((Side.A, s.gamma), (Side.C, s.delta)):
        table = LEFT_RULE_BY_SHAPE[side]
        for f in ctx.distinct():
            rule = table.get(type(f))
            if rule is not None:
                out.append(Expansion(rule, Annotation(principal=f), conclusion=s))
    return out


# --- duality -------------------------------------------------------------------

_DUAL_CONNECTIVE = {And: Or, Or: And, Imp: Coimp, Coimp: Imp}
_DUAL_AT = {Side.A: Side.C, Side.C: Side.A, PLUS: MINUS, MINUS: PLUS}


def _dual_schema(s: Schema) -> Schema:
    """``s`` under duality: sides and polarities swap, arrow operands trade
    places; an unset polarity or succedent stays unset (``get`` gives None)."""
    op = {0: 1, 1: 0} if s.connective in (Imp, Coimp) else {0: 0, 1: 1}
    return Schema(_DUAL_CONNECTIVE[s.connective], _DUAL_AT[s.at], tuple(
        Template(tuple(map(op.get, t.delta)), tuple(map(op.get, t.gamma)),
                 _DUAL_AT.get(t.polarity), op.get(t.succedent), t.keeps)
        for t in s.premises))


_RULE_BY_SCHEMA = {s: r for r, s in SCHEMA.items()}
_DUAL_SCHEMA = {r: _dual_schema(s) for r, s in SCHEMA.items()}

# mixed-polarity right rules: the dual schema lists its premises in the
# opposite order, so the premise tuple is reversed when dualizing
_DUAL_SWAPS_PREMISES = frozenset(r for r, d in _DUAL_SCHEMA.items() if d not in _RULE_BY_SCHEMA)

DUAL_RULE = {
    R.RfPlus: R.RfMinus, R.RfMinus: R.RfPlus,
    R.BotLa: R.TopLc, R.TopLc: R.BotLa,
    R.BotRMinus: R.TopRPlus, R.TopRPlus: R.BotRMinus,
    R.CutA: R.CutC, R.CutC: R.CutA,
    **{r: _RULE_BY_SCHEMA[replace(d, premises=d.premises[::-1])
                          if r in _DUAL_SWAPS_PREMISES else d]
       for r, d in _DUAL_SCHEMA.items()},
}


class _Duals(dict):
    """formula -> its dual, built on an explicit stack from its operands' duals,
    which are kept too: each distinct subformula is dualized once."""

    def __missing__(self, f: Formula) -> Formula:
        stack = [f]
        while stack:
            x = stack.pop()
            if x in self:
                continue
            dual = _DUAL_CONNECTIVE.get(x.__class__)
            if dual is None:
                if not isinstance(x, (Atom, Bottom, Top)):
                    raise TypeError(f"not a formula: {x!r}")
                self[x] = TOP if isinstance(x, Bottom) else BOT if isinstance(x, Top) else x
                continue
            # an arrow's operands trade places
            a, b = (x.right, x.left) if dual is Imp or dual is Coimp else (x.left, x.right)
            da, db = self.get(a), self.get(b)
            if da is None or db is None:
                stack += (x, a, b)
            else:
                self[x] = dual(da, db)
        return self[f]


def dual_formula(f: Formula) -> Formula:
    """The dual of ``f``, a formula of any depth."""
    return _Duals()[f]


def dual_context(ctx: Context) -> Context:
    return Context.from_iter(dual_formula(f) for f in ctx.expand())


def dual_sequent(s: Sequent) -> Sequent:
    return Sequent(dual_context(s.delta), dual_context(s.gamma), s.polarity.flip(),
                   dual_formula(s.succedent))


class _Memo(dict):
    """``key -> make(key)``, each value made on first use.  A hit is a plain
    dict lookup, with no Python frame."""

    def __init__(self, make: Callable):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def dual_derivation(d: Derivation) -> Derivation:
    """The dual of ``d``, a tree of any height.  Each distinct formula and
    subformula, context, sequent and node object (``fold``) is dualized once."""
    formula = _Duals()
    context = _Memo(lambda ctx: Context.from_iter(map(formula.__getitem__, ctx.items)))
    sequent = _Memo(lambda s: Sequent(context[s.delta], context[s.gamma], s.polarity.flip(),
                                      formula[s.succedent]))

    def make(x: Derivation, premises: tuple) -> Derivation:
        if x.rule in _DUAL_SWAPS_PREMISES:
            premises = premises[::-1]
        a = x.annotation
        if a is not None:
            sp = a.context_split
            a = Annotation(
                None if a.principal is None else formula[a.principal],
                None if a.cut_formula is None else formula[a.cut_formula],
                None if sp is None else ContextSplit(context[sp.delta], context[sp.gamma],
                                                     context[sp.delta_prime],
                                                     context[sp.gamma_prime]))
        return Derivation(sequent[x.conclusion], DUAL_RULE[x.rule], premises, a)

    return fold(d, make)
