"""Sequents over multiset contexts, the 24-rule table plus the two cut rules,
the derivation checker, backward rule enumeration, the duality mapping, and
``fold``, the stack-free walk that duality, weakening, inversion, contraction
and coverage share.  Its ``walk`` hook names the premises it visits from a
node: inversion visits none above a principal node, contraction its kept one.
Each formula keeps its dual, made once on its own stack, and the dual keeps it.

Every ``Derivation`` is checked once, when it is built, by the one call that
writes its fields: ``valid`` says that its premises are valid and that it
instantiates its rule schema, and ``principal`` keeps the formula it
decomposes.  No construction path skips the check, so a tree is never
re-checked, nor matched again for its principal, and ``check_derivation``
walks only an invalid tree.  A node is decided by ``_VALID[rule]``: for a
logical rule, one straight-line function generated from ``SCHEMA``
(``_SOURCE[rule]``) that matches the premises in place, words nothing and
gives the principal that fits.  It is the one decider of a node:
``check_rule_instance`` makes the same call, and ``premise_of`` builds the
expected premises only to word a violation the call found.

The 18 logical rules are one data table, ``SCHEMA``: per rule, the connective
it decomposes, where its principal sits, and one template per premise.
Checking, backward expansion, the rule sets and the duality table here, and
identity expansion, inversion, contraction and the principal cases of cut
elimination in ``bint.transform``, all read it.  ``CLOSER`` is the table of
the six zero-premise rules: their violations, duals and ``first_closer`` read
it, and a test keeps the one-pass scan ``closing_rules`` equal to it.
Read backward, a rule instance is its rule and principal, which the schema
fixes: ``backward_expansions`` lists the ``(rule, principal)`` pairs that
conclude a sequent, and ``premises`` builds an instance's premises where they
are read.  ``node`` alone turns a principal into an ``Annotation``.

A context is a tuple, its occurrences in canonical order, and a sequent,
an annotation and a context split are named tuples, so their equality and
hashing run in C.  A union with a short side inserts that side's occurrences
by bisection, so editing a long context never sorts it again.

Sequent text is read by its pieces through ``parse_formula``, the bounded
process-wide cache of formula texts, and irregular text by one scan
(``bint.syntax.scan`` and ``read_formula``), which words every error.

A sequent ``(gamma; delta) |-* C`` reads: from the verification of everything
in gamma and the falsification of everything in delta, derive the verification
(``*`` = ``+``) or falsification (``*`` = ``-``) of C.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from functools import cmp_to_key, lru_cache
from operator import attrgetter
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, TypeVar

from . import syntax
from .syntax import (
    BOT,
    TOP,
    And,
    Atom,
    Bottom,
    Coimp,
    Formula,
    FormulaSyntaxError,
    Imp,
    Or,
    Top,
    _Record,
    _set_dual,
    _setters,
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

    def flip(self) -> "Polarity":
        return Polarity.MINUS if self is Polarity.PLUS else Polarity.PLUS


PLUS = Polarity.PLUS
MINUS = Polarity.MINUS
#: each polarity's sign, read without the Python frame of ``Enum.value``
_SIGN = {p: p.value for p in Polarity}


class Side(enum.Enum):
    """Context side: assumptions (``a``) or counterassumptions (``c``)."""

    A = "a"
    C = "c"

    __hash__ = object.__hash__   # as for Polarity


# --- multiset contexts -------------------------------------------------------

_KEY = attrgetter("key")


def _compare(a: tuple, b: tuple) -> int:
    """-1, 0 or 1 as key ``a`` sorts before, with or after key ``b``, as
    tuple comparison orders them, but on its own stack: C compares nested
    tuples recursively, so two deep keys with a long common spine raise
    RecursionError.  A formula keeps one key object, so identical sub-keys
    are skipped by ``is``."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if x.__class__ is tuple and y.__class__ is tuple:
            stack.append((len(x), len(y)))          # a prefix sorts first
            stack += reversed(tuple(zip(x, y)))
        elif x != y:
            return -1 if x < y else 1
    return 0


#: a formula's sort key in the order of ``Formula.key``, compared by ``_compare``:
#: the key of a sort or bisection whose keys are too deep for C to compare
_DEEP = cmp_to_key(lambda f, g: _compare(f.key, g.key))


#: ``Context.union`` inserts a side of at most this many occurrences, and at
#: most a quarter of the other side's, by bisection; it sorts longer sides,
#: where bisecting each occurrence costs more than the sort
_SHORT = 4


class Context(tuple):
    """Finite multiset of formulas: the tuple of every occurrence, sorted by
    ``Formula.key``, so that tuple equality and hashing are multiset equality."""

    __slots__ = ()

    @staticmethod
    def of(*formulas: Formula) -> "Context":
        return Context.from_iter(formulas)

    @staticmethod
    def from_iter(formulas: Iterable[Formula]) -> "Context":
        out = list(formulas)
        try:
            out.sort(key=_KEY)
        except RecursionError:      # the list still holds every item, in some order
            out.sort(key=_DEEP)
        return Context(out)

    def add(self, f: Formula) -> "Context":
        try:
            i = bisect_right(self, f.key, key=_KEY)
        except RecursionError:
            i = bisect_right(self, _DEEP(f), key=_DEEP)
        return Context(self[:i] + (f,) + self[i:])

    def remove(self, f: Formula) -> "Context":
        try:
            lo = bisect_left(self, f.key, key=_KEY)
        except RecursionError:
            lo = bisect_left(self, _DEEP(f), key=_DEEP)
        if lo == len(self) or self[lo] is not f:
            raise KeyError(f"{format_formula(f)} not present")
        return Context(self[:lo] + self[lo + 1:])

    def union(self, other: "Context") -> "Context":
        """Both multisets; an empty side gives the other context itself."""
        a, b = self, other
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
            try:
                i = find(long, f.key, key=_KEY)
            except RecursionError:
                i = find(long, _DEEP(f), key=_DEEP)
            out += long[start:i] + (f,)
            start = i
        return Context(out + long[start:])

    def distinct(self) -> Iterator[Formula]:
        """The first occurrence of each formula, in canonical order."""
        return iter(dict.fromkeys(self))

    def __str__(self) -> str:
        """Its formulas' texts, each the one the formula keeps, joined by ", "."""
        return ", ".join([f._text or format_formula(f) for f in self])

    def __repr__(self) -> str:
        return f"Context({tuple.__repr__(self)})"


EMPTY = Context()


class Sequent(NamedTuple):
    gamma: Context
    delta: Context
    polarity: Polarity
    succedent: Formula

    def __str__(self) -> str:
        return format_sequent(self)


def sequent(gamma: Iterable[Formula], delta: Iterable[Formula], polarity: Polarity,
            succedent: Formula) -> Sequent:
    return Sequent(Context.from_iter(gamma), Context.from_iter(delta), polarity, succedent)


def format_sequent(s: Sequent, context: Callable[[Context], str] = Context.__str__) -> str:
    """The text of ``s``, each context's text given by ``context``."""
    g, d = context(s.gamma), context(s.delta)
    left = f"{g} ;" if g else ";"
    if d:
        left = f"{left} {d}"
    return f"{left} |-{_SIGN[s.polarity]} {format_formula(s.succedent)}"


#: formula text -> the formula, shared by every reader of the process.
#: Bounded, so a long run over ever new atoms keeps at most this many; a
#: text that does not parse raises each time, since errors are not cached.
parse_formula = lru_cache(maxsize=1024)(syntax.parse_formula)


def _context_of(text: str, formula: Callable[[str], Formula] = parse_formula) -> Context:
    """The context whose formulas' texts ``text`` joins by ", ", each read by
    ``formula``; other spacing raises FormulaSyntaxError."""
    text = text.strip()
    return Context.from_iter(map(formula, text.split(", "))) if text else EMPTY


def parse_sequent(text: str, formula: Callable[[str], Formula] = parse_formula,
                  context: Callable[[str], Context] = _context_of) -> Sequent:
    """Parse ``Gamma ; Delta |-+ C`` / ``|--``; empty sides are allowed and
    duplicate list entries produce multiset counts.  The text is split at its
    first ';' and the turnstile after it, and read by ``context`` and
    ``formula``; text that does not split or parse so goes to the scanner."""
    semi = text.find(";")
    turn = text.find("|-", semi)
    sign = text[turn + 2:turn + 3]
    if semi >= 0 and turn >= 0 and (sign == "+" or sign == "-"):
        # no formula's text holds a separator: the pieces that parse are the scanner's
        try:
            return Sequent(context(text[:semi]), context(text[semi + 1:turn]),
                           PLUS if sign == "+" else MINUS, formula(text[turn + 3:].strip()))
        except FormulaSyntaxError:
            pass
    return _scan_sequent(text)


def _scan_sequent(text: str) -> Sequent:
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


class Closer(NamedTuple):
    """A zero-premise rule: the polarity it needs, the context that must hold
    ``formula`` (None: the succedent must be it), and the constant (None:
    the atomic succedent)."""

    polarity: Optional[Polarity]
    side: Optional[Side]
    formula: Optional[Formula]


#: the six zero-premise rules of the calculus, each beside its dual
CLOSER: dict[RuleId, Closer] = {
    R.RfPlus: Closer(PLUS, Side.A, None), R.RfMinus: Closer(MINUS, Side.C, None),
    R.BotLa: Closer(None, Side.A, BOT), R.TopLc: Closer(None, Side.C, TOP),
    R.BotRMinus: Closer(MINUS, None, BOT), R.TopRPlus: Closer(PLUS, None, TOP)}
#: the closers in backward expansion's order, which ``first_closer`` tries by
#: default to pick the rule of a search leaf.  ``bint.transform`` keeps two
#: more orders: ``_IDENTITY_CLOSERS`` for an identity figure's leaves and
#: ``_AXIOM_PRIORITY`` where cut elimination re-closes a conclusion.  This one
#: in either place changes pinned output (two golden figures; the cut digest)
CLOSERS = tuple(CLOSER)
ZERO_PREMISE = frozenset(CLOSER)
#: per cut variant, the right premise's side that holds the cut formula and the
#: polarity at which the left premise proves it
CUT_AT = {R.CutA: (Side.A, PLUS), R.CutC: (Side.C, MINUS)}
CUT_RULES = frozenset(CUT_AT)


class Template(NamedTuple):
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


class Schema(NamedTuple):
    """One logical rule: the connective it decomposes, where its principal
    sits (``Side.A``/``Side.C`` for a left rule, the succedent at this polarity
    for a right rule), and one template per premise, in premise order."""

    connective: type
    at: Side | Polarity
    premises: tuple[Template, ...]


_A, _B = 0, 1
_P = Template

#: the 18 logical rules of the calculus; the zero-premise rules are ``CLOSER``
#: and the cuts ``CUT_AT``
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


class ContextSplit(NamedTuple):
    """The (gamma, delta) / (gamma', delta') partition of a cut conclusion;
    not recoverable from the conclusion alone, so cut nodes must carry it."""

    gamma: Context
    delta: Context
    gamma_prime: Context
    delta_prime: Context


class Annotation(NamedTuple):
    principal: Optional[Formula] = None
    cut_formula: Optional[Formula] = None
    context_split: Optional[ContextSplit] = None


class Derivation(_Record):
    """A derivation tree.  ``valid`` is decided once, when the node is built:
    every premise is valid and the node instantiates its rule schema.  The
    same check sets ``principal``, the formula a valid logical rule node
    decomposes; it is None for a closer, a cut and an invalid node."""

    __slots__ = ("conclusion", "rule", "premises", "annotation", "height", "cut_count", "valid",
                 "principal")
    __match_args__ = ("conclusion", "rule", "premises", "annotation")

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
        fit = _VALID[rule](conclusion, premises, annotation) if valid else None
        _set_valid(self, fit is not None)
        _set_principal(self, None if fit is True else fit)

    def __eq__(self, other: object) -> bool:
        """Equality of conclusion, rule, premises and annotation (the
        constructor's arguments), on its own stack; a pair of node objects is
        compared once."""
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

    # A copy or a pickle rebuilds each distinct node once, through the
    # constructor, on ``fold``'s stack, so it works at any height, re-checks
    # each node and keeps the sharing.  Conclusions and annotations are
    # immutable, so a deep copy shares them with the source.

    def __copy__(self) -> Derivation:
        return Derivation(self.conclusion, self.rule, self.premises, self.annotation)

    def __deepcopy__(self, memo: dict) -> Derivation:
        # a node this deep copy has already made (in ``memo``) is reused
        def make(x: Derivation, premises: tuple) -> Derivation:
            y = memo.get(id(x))
            if y is None:
                y = memo[id(x)] = Derivation(x.conclusion, x.rule, premises, x.annotation)
            return y

        return fold(self, make, lambda x: () if id(x) in memo else x.premises)

    def __reduce_ex__(self, protocol):
        # flat: one row per distinct node, in ``fold`` post-order, its premises
        # the indices of earlier rows.  Each formula is the index of its row in
        # one table of formulas (``syntax.indexer``), and each distinct context
        # the tuple of its formulas' indices, so a derivation over deep
        # formulas pickles in time linear in its distinct subformulas
        rows: list[tuple] = []
        formulas: list = []
        index = syntax.indexer(formulas)
        context = _Memo(lambda c: tuple(map(index, c)))

        def row(x: Derivation, premises: tuple[int, ...]) -> int:
            (g, d, polarity, succedent), a = x.conclusion, x.annotation
            if a is not None:
                sp = a.context_split
                a = (None if a.principal is None else index(a.principal),
                     None if a.cut_formula is None else index(a.cut_formula),
                     None if sp is None else tuple(map(context.__getitem__, sp)))
            rows.append((context[g], context[d], polarity, index(succedent), x.rule, premises,
                         a))
            return len(rows) - 1

        fold(self, row)
        return _from_rows, (formulas, rows)


(_set_conclusion, _set_rule, _set_premises, _set_annotation, _set_height, _set_cut_count,
 _set_valid, _set_principal) = _setters(Derivation)


def _from_rows(formula_rows: list, rows: list[tuple]) -> Derivation:
    """The root, the last row, of the rows ``Derivation.__reduce_ex__``
    writes, each built once over the nodes of the rows it names."""
    formula = syntax.built(formula_rows).__getitem__
    context = _Memo(lambda t: Context(map(formula, t)))
    built: list[Derivation] = []
    for g, d, polarity, succedent, rule, premises, a in rows:
        if a is not None:
            principal, cut_formula, sp = a
            a = Annotation(None if principal is None else formula(principal),
                           None if cut_formula is None else formula(cut_formula),
                           None if sp is None else ContextSplit(*map(context.__getitem__, sp)))
        built.append(Derivation(Sequent(context[g], context[d], polarity, formula(succedent)),
                                rule, tuple([built[k] for k in premises]), a))
    return built[-1]


def node(rule: RuleId, conclusion: Sequent, premises: Iterable[Derivation] = (),
         principal: Optional[Formula] = None,
         annotation: Optional[Annotation] = None) -> Derivation:
    if annotation is None and principal is not None:
        annotation = Annotation(principal=principal)
    return Derivation(conclusion, rule, tuple(premises), annotation)


_T = TypeVar("_T")


def fold(d: Derivation, make: Callable[[Derivation, tuple], _T],
         walk: Optional[Callable[[Derivation], tuple]] = None) -> _T:
    """``make(x, images)`` for the root ``d``, on its own stack, where
    ``images`` are those of the premises ``walk(x)`` names (all of them by
    default; ``walk`` is asked once per distinct node).  Each distinct node
    object is made once, after those premises, in order, so a premise object
    shared by several nodes has one image."""
    done: dict[int, _T] = {}     # id of a node -> its image
    image_of = done.__getitem__
    stack: list = [d]
    while stack:
        x = stack.pop()
        if x is None:           # the premises of the node below are made
            above, x = stack.pop(), stack.pop()
            done[id(x)] = make(x, tuple(map(image_of, map(id, above))))
        elif id(x) not in done:  # a shared premise is pushed again once made
            above = x.premises if walk is None else walk(x)
            if above:
                stack += (x, above, None, *above[::-1])
            else:               # a leaf, or a node the walk ends at, is made at once
                done[id(x)] = make(x, ())
    return done[id(d)]


# --- schema machinery ---------------------------------------------------------

class Violation(NamedTuple):
    rule: RuleId
    message: str

    def __str__(self) -> str:
        return f"{self.rule.value}: {self.message}"


def _zero_premise_failure(s: Sequent, rule: RuleId) -> Optional[str]:
    """None if the zero-premise rule closes s, else what is missing."""
    pol, side, f = CLOSER[rule]
    if pol is not None and s.polarity is not pol:
        return f"wrong polarity: needs |-{pol.value}"
    if f is None and not isinstance(s.succedent, Atom):
        return "succedent must be atomic"
    if side is None:
        return None if s.succedent is f else f"succedent must be {format_formula(f)}"
    if (s.succedent if f is None else f) in (s.gamma if side is Side.A else s.delta):
        return None
    what = "atomic succedent" if f is None else format_formula(f)
    return f"{what} not among the {'assumptions' if side is Side.A else 'counterassumptions'}"


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


def first_closer(s: Sequent, order: tuple[RuleId, ...] = CLOSERS) -> Optional[RuleId]:
    """The first zero-premise rule in ``order`` that closes ``s``, if any."""
    closers = closing_rules(s)
    if closers:    # most sequents of a search close by no rule
        for rule in order:
            if rule in closers:
                return rule
    return None


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


def _premise_lines(at: Side | Polarity, t: Template, i: int, fail: str) -> list[str]:
    """Source lines that do ``fail`` unless premise ``p<i>`` is ``premise_of(s,
    at, f, t)``: its polarity, its succedent, then each context.  A context the
    template leaves alone is compared by identity first; an edited one by its
    length, then by one edit of the conclusion's (drop the principal, insert
    each operand where it sorts).  A bisection whose keys are too deep for C
    to compare falls back to ``_DEEP``, as ``Context.add`` and ``remove`` do."""
    p, ops = f"p{i}", ("f.left", "f.right")
    c = "s.succedent" if t.succedent is None else ops[t.succedent]
    pol = "s.polarity" if t.polarity is None else t.polarity.name
    out = [f"if {p}.polarity is not {pol}: {fail}",
           f"if {p}.succedent is not {c}: {fail}"]
    for ctx, side, adds in (("gamma", Side.A, t.gamma), ("delta", Side.C, t.delta)):
        got, drop = f"{p}.{ctx}", at is side and not t.keeps
        if not drop and not adds:
            out.append(f"if {got} is not s.{ctx} and {got} != s.{ctx}: {fail}")
            continue
        grow = len(adds) - drop
        size = f"len(x) + {grow}" if grow else "len(x)"
        out += [f"x = s.{ctx}", f"if len({got}) != {size}: {fail}"]
        if drop:
            out += ["try: i = bisect_left(x, f.key, key=_KEY)",
                    "except RecursionError: i = bisect_left(x, _DEEP(f), key=_DEEP)",
                    f"if i == len(x) or x[i] is not f: {fail}",
                    "x = x[:i] + x[i + 1:]"]
        for a in adds:
            out += [f"try: i = bisect_right(x, {ops[a]}.key, key=_KEY)",
                    f"except RecursionError: i = bisect_right(x, _DEEP({ops[a]}), key=_DEEP)",
                    f"x = x[:i] + ({ops[a]},) + x[i:]"]
        out.append(f"if {got} != x: {fail}")
    return out


def _rule_source(rule: RuleId, schema: Schema) -> str:
    """The source of ``valid_<rule>(s, ps, a)``: the first principal the node
    offers that fits its premise derivations ``ps``, or None: the annotated
    one, a right rule's succedent, or each occurrence on a left rule's side.
    It is straight-line code over the rule's templates."""
    at, n, right = schema.at, len(schema.premises), isinstance(schema.at, Polarity)
    fail, indent = ("return None", "    ") if right else ("continue", "        ")
    checks = [f"if not isinstance(f, {schema.connective.__name__}): {fail}"]
    if right:
        checks.append(f"if s.polarity is not {at.name} or f is not s.succedent: {fail}")
    for i, t in enumerate(schema.premises):
        checks += _premise_lines(at, t, i, fail)
    offered = "s.succedent" if right else f"s.{'gamma' if at is Side.A else 'delta'}"
    offered += " if a is None or a.principal is None else"
    lines = [f"def valid_{rule.value}(s, ps, a):", f"    if len(ps) != {n}: return None",
             *(f"    p{i} = ps[{i}].conclusion" for i in range(n)),
             f"    f = {offered} a.principal" if right
             else f"    for f in {offered} (a.principal,):",
             *(indent + line for line in checks),
             *(["    return f"] if right else ["        return f", "    return None"])]
    return "\n".join(lines) + "\n"


#: per logical rule, the source text of its ``valid_<rule>``
_SOURCE = {r: _rule_source(r, s) for r, s in SCHEMA.items()}
_GENERATED = {"bisect_left": bisect_left, "bisect_right": bisect_right, "_KEY": _KEY,
              "_DEEP": _DEEP,
              "PLUS": PLUS, "MINUS": MINUS, "And": And, "Or": Or, "Imp": Imp, "Coimp": Coimp}


def _compiled(rule: RuleId) -> Callable:
    """Compile ``rule``'s ``valid`` into ``_VALID``, in place of the stub that
    asked: a rule is compiled when its first node is built, not at import."""
    exec(compile(_SOURCE[rule], f"<bint.kernel._SOURCE[{rule}]>", "exec"), _GENERATED)
    valid = _VALID[rule] = _GENERATED[f"valid_{rule.value}"]
    return valid


#: per rule, ``valid(conclusion, premises, annotation)``: whether a node with
#: these premise derivations instantiates the rule, decided without wording
#: a violation; None when it does not, else a logical rule's principal, or
#: True for a closer or a cut.  ``Derivation`` calls it on every node it builds
_VALID = {
    **{r: lambda s, ps, a, r=r: not ps and _zero_premise_failure(s, r) is None or None
       for r in ZERO_PREMISE},
    **{r: lambda s, ps, a, r=r: len(ps) == 2 and _check_cut(
        s, r, (ps[0].conclusion, ps[1].conclusion), a) is None or None for r in CUT_RULES},
    **{r: lambda s, ps, a, r=r: _compiled(r)(s, ps, a) for r in SCHEMA}}


def check_rule_instance(conclusion: Sequent, rule: RuleId,
                        premise_conclusions: list[Sequent] | tuple[Sequent, ...],
                        annotation: Optional[Annotation] = None) -> Optional[Violation]:
    """None when the node instantiates the rule schema exactly, else the first
    failed constraint.  A logical rule is decided by one call of its
    ``_VALID``, the call ``Derivation`` makes, on stand-ins for the premise
    derivations; only when it rejects the node are the expected premises
    built, by ``premise_of``, to word why."""
    premise_conclusions = tuple(premise_conclusions)
    if len(premise_conclusions) != ARITY[rule]:
        return Violation(rule, f"arity: expected {ARITY[rule]} premises, got {len(premise_conclusions)}")

    if rule in ZERO_PREMISE:
        why = _zero_premise_failure(conclusion, rule)
        return None if why is None else Violation(rule, why)

    if rule in CUT_RULES:
        return _check_cut(conclusion, rule, premise_conclusions, annotation)

    if _VALID[rule](conclusion, [SimpleNamespace(conclusion=p) for p in premise_conclusions],
                    annotation) is not None:
        return None
    # the last principal the check offered words the violation
    schema = SCHEMA[rule]
    at, conn = schema.at, schema.connective
    side = None if at in Polarity else conclusion.gamma if at is Side.A else conclusion.delta
    if annotation is not None and annotation.principal is not None:
        f = annotation.principal
    elif side is None:
        f = conclusion.succedent
    else:
        f = next((f for f in reversed(side) if isinstance(f, conn)), None)
        if f is None:
            return Violation(rule, "no principal occurrence of the right shape")
    if side is None:
        placed = conclusion.polarity is at and f is conclusion.succedent
    else:
        placed = f in side
    if not (isinstance(f, conn) and placed):
        return Violation(rule, "conclusion does not fit the rule schema "
                               f"(principal {format_formula(f)})")
    expected = [premise_of(conclusion, at, f, t) for t in schema.premises]
    got = " | ".join(map(format_sequent, premise_conclusions))
    return Violation(rule, "premises do not match the schema: expected "
                           f"{' | '.join(map(format_sequent, expected))}, got {got}")


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


class CheckReport(NamedTuple):
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


# --- backward reading of the rule table ---------------------------------------

_RIGHT_BY_SHAPE = {
    (conn, pol): tuple(r for r, s in SCHEMA.items() if s.connective is conn and s.at is pol)
    for conn in (And, Or, Imp, Coimp) for pol in Polarity
}

#: the left rule that decomposes a compound of each shape, per context side
LEFT_RULE_BY_SHAPE = {
    side: {s.connective: r for r, s in SCHEMA.items() if s.at is side} for side in Side
}


def backward_expansions(s: Sequent) -> list[tuple[RuleId, Optional[Formula]]]:
    """Every primitive-rule instance (no cuts) concluding exactly s, as its
    rule and principal: the zero-premise closers and the right rule(s) for the
    succedent, each with None, then one left rule per distinct compound
    occurrence in either context, with that occurrence.  ``premises`` builds
    an instance's premises."""
    right = _RIGHT_BY_SHAPE.get((type(s.succedent), s.polarity), ())
    out = [(rule, None) for rule in (*closing_rules(s), *right)]
    for side, ctx in ((Side.A, s.gamma), (Side.C, s.delta)):
        table = LEFT_RULE_BY_SHAPE[side]
        for f in ctx.distinct():
            rule = table.get(type(f))
            if rule is not None:
                out.append((rule, f))
    return out


def premises(s: Sequent, rule: RuleId, principal: Optional[Formula] = None) -> tuple[Sequent, ...]:
    """The premises of ``rule``'s instance concluding ``s`` that decomposes
    ``principal`` (None: the succedent); a closer has none."""
    schema = SCHEMA.get(rule)
    if schema is None:
        return ()
    f = s.succedent if principal is None else principal
    return tuple([premise_of(s, schema.at, f, t) for t in schema.premises])


# --- duality -------------------------------------------------------------------

_DUAL_CONNECTIVE = {And: Or, Or: And, Imp: Coimp, Coimp: Imp}
#: the dual of each side, polarity and constant a rule names
_DUAL_AT = {Side.A: Side.C, Side.C: Side.A, PLUS: MINUS, MINUS: PLUS, BOT: TOP, TOP: BOT}


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
_RULE_BY_CLOSER = {c: r for r, c in CLOSER.items()}

DUAL_RULE = {
    # a closer's dual flips its polarity and side and dualizes its constant
    **{r: _RULE_BY_CLOSER[Closer(*map(_DUAL_AT.get, c))] for r, c in CLOSER.items()},
    R.CutA: R.CutC, R.CutC: R.CutA,
    **{r: _RULE_BY_SCHEMA[d._replace(premises=d.premises[::-1])
                          if r in _DUAL_SWAPS_PREMISES else d]
       for r, d in _DUAL_SCHEMA.items()},
}


def dual_formula(f: Formula) -> Formula:
    """The dual of ``f``, a formula of any depth.  A formula keeps its dual and
    the dual keeps it, so each dual is built once while they live, on an
    explicit stack from the operands' duals."""
    if not isinstance(f, Formula):
        raise TypeError(f"not a formula: {f!r}")
    stack = [f]
    while stack:
        x = stack.pop()
        if x._dual is None:
            dual = _DUAL_CONNECTIVE[x.__class__]
            # an arrow's operands trade places
            a, b = (x.right, x.left) if dual is Imp or dual is Coimp else (x.left, x.right)
            if a._dual is None or b._dual is None:
                stack += (x, a, b)
            else:
                dual = dual(a._dual, b._dual)
                _set_dual(x, dual)
                _set_dual(dual, x)
    return f._dual


def dual_context(ctx: Context) -> Context:
    return Context.from_iter([f._dual or dual_formula(f) for f in ctx])


def dual_sequent(s: Sequent) -> Sequent:
    return Sequent(dual_context(s.delta), dual_context(s.gamma), s.polarity.flip(),
                   dual_formula(s.succedent))


class _Memo(dict):
    """``key -> make(key)``, each value made on first use.  A hit is a plain
    dict lookup, with no Python frame.  Formulas, contexts and sequents are
    keyed by value (``hash`` and ``==`` run in C), derivation nodes by ``id``:
    a node's ``hash`` is a Python call and its ``==`` walks the tree."""

    def __init__(self, make: Callable):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def dual_derivation(d: Derivation) -> Derivation:
    """The dual of ``d``, a tree of any height.  Each distinct context and
    sequent and each node object (``fold``) is dualized once per call, and
    each formula once per process (``dual_formula``)."""
    context = _Memo(dual_context)
    sequent = _Memo(lambda c: Sequent(context[c.delta], context[c.gamma], c.polarity.flip(),
                                      c.succedent._dual or dual_formula(c.succedent)))

    def make(x: Derivation, premises: tuple) -> Derivation:
        if x.rule in _DUAL_SWAPS_PREMISES:
            premises = premises[::-1]
        a = x.annotation
        if a is not None:
            sp = a.context_split
            a = Annotation(
                None if a.principal is None else dual_formula(a.principal),
                None if a.cut_formula is None else dual_formula(a.cut_formula),
                None if sp is None else ContextSplit(context[sp.delta], context[sp.gamma],
                                                     context[sp.delta_prime],
                                                     context[sp.gamma_prime]))
        return Derivation(sequent[x.conclusion], DUAL_RULE[x.rule], premises, a)

    return fold(d, make)
