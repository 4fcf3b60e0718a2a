"""Formula trees, the weight measure, and the concrete text format.

Concrete tokens: ``F`` (falsum), ``T`` (verum), ``/\\``, ``\\/``, ``->``, ``-<``.
Precedence, tightest first: ``/\\``, ``\\/``, then ``->`` and ``-<`` together at
the bottom.  All binary connectives associate to the right; mixing ``->`` and
``-<`` at the same level without parentheses is rejected rather than silently
resolved.

Formulas are immutable and hash-consed: there is one live object per
formula, so equal formulas are one object, and ``==`` and ``hash`` are
identity.  Atoms are kept for the life of the process; a binary formula is
held by a weak table, so one that nothing else holds is freed.

A formula keeps its own text once it has one: atoms and constants from their
creation, a binary formula from the first parse that builds or finds it while
both its operands keep theirs, if the text is at most ``TEXT_BOUND``
characters long, or else from its first ``format_formula``.  A parse writes
that text from the operands' texts by the printer's own rule (``_SHAPE``), so
it is the canonical one, whatever spacing and parentheses were read.  So each
formula object is printed at most once per process, however many documents,
contexts or messages show it, and the subformulas of a text read once keep
their texts, since a derivation repeats them in the sequents above it.

Every binary formula that keeps a text is entered under it in ``_TEXTS``,
beside the table of formulas, and ``parse_formula`` looks a text up there
before it scans: a canonical text is read once per process while its formula
lives.  The index holds the weak reference the table of formulas already
holds, so it keeps no formula alive, and its dead entries are swept as the
table's are.  The bound keeps a deep formula's parse linear: the formulas
above the first one whose text would pass it keep no text, so a 10**4-deep
chain does not keep the quadratic text of every subformula.  An atom's name
is a word the parser reads as an atom, so every kept text parses back to its
formula.

One lexer (``scan``) and one reader (``read_formula``) serve the text of a
formula here and of a sequent in ``bint.kernel``: the reader stops at the
first lexeme outside every parenthesis that is not a connective, where a
formula's text must end and a sequent's lists go on.
"""

from __future__ import annotations

import re
import threading
import weakref
from typing import Callable


class FormulaSyntaxError(ValueError):
    """Malformed formula or sequent text; ``position`` is a 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


_set = object.__setattr__


def _setters(cls: type) -> tuple:
    """The writers of a slotted record's fields: the base class's first, each
    class's in the order of its ``__slots__``.  A frozen record is written
    once, in its constructor, through them, at about half of ``_set``'s cost."""
    return tuple(getattr(c, name).__set__ for c in reversed(cls.__mro__)
                 for name in c.__dict__.get("__slots__", ()) if name != "__weakref__")


def _values(r: "_Record") -> tuple:
    return tuple([getattr(r, name) for name in r.__match_args__])


class _Record:
    """Base of the engine's frozen records: slotted classes, not dataclasses,
    since decorating a class costs far more at import.  ``__match_args__``
    names the constructor's arguments, in order.  Pattern matching reads them,
    and so do ``==``, ``hash`` and ``repr`` where a class has none of its own.
    A copy or a pickle is rebuilt by the constructor from them, so the rest
    (a derivation's validity verdict, say) is derived again, not restored."""

    __slots__ = ()
    __match_args__: tuple = ()

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError     # only here: it imports ``inspect``
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), _values(self)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _values(self) == _values(other)

    def __hash__(self) -> int:
        return hash(_values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


class Formula(_Record):
    """A formula tree, hash-consed: one live object per formula, so ``==`` and
    ``hash`` are identity, O(1) at any depth.  ``key``, a total structural
    order that keeps contexts sorted, is written when it is built; ``_text``
    once a parse or ``format_formula`` makes the formula's text, and ``_dual``
    once ``kernel.dual_formula`` makes its dual (None before).  Neither is
    printed or pickled."""

    __slots__ = ("key", "_text", "_dual")
    _tag = -1   # the first component of ``key``: the connective
    __eq__, __hash__ = object.__eq__, object.__hash__
    __init__ = object.__init__      # each class's ``__new__`` builds or finds the formula

    def __new__(cls):       # the constants, one object each
        return cls._one

    def __repr__(self) -> str:
        return f"<{format_formula(self)}>"

    def __copy__(self) -> "Formula":
        return self         # hash-consed: an equal formula is this object

    def __deepcopy__(self, memo: dict) -> "Formula":
        return self


class Bottom(Formula):
    __slots__ = ()
    _tag = 0
    _symbol = "F"


class Top(Formula):
    __slots__ = ()
    _tag = 1
    _symbol = "T"


#: name -> the atom of that name, kept for the life of the process
_ATOMS: dict[str, "Atom"] = {}
_NAME = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")


class Atom(Formula):
    """An atom: one per name, its own dual.  Its name is a word that the
    parser reads as an atom: a letter, then letters, digits and underscores,
    other than the constants ``F`` and ``T``."""

    __slots__ = __match_args__ = ("name",)
    _tag = 2

    def __new__(cls, name: str):
        atom = _ATOMS.get(name)
        if atom is None:
            if not _NAME.fullmatch(name) or name in _CONSTANT:
                raise ValueError(f"not an atom's name: {name!r}")
            atom = object.__new__(cls)
            _set(atom, "name", name)
            _set(atom, "key", (cls._tag, name))
            _set(atom, "_text", name)
            _set(atom, "_dual", atom)
            atom = _ATOMS.setdefault(name, atom)    # one atom, even when two threads race
        return atom


#: (connective, id of each operand) -> a weak reference, with no callback, to the
#: live formula of those parts, which holds them, so the ids are theirs; a dead
#: reference is a miss, and the dead entries are dropped as the table doubles
_BINARIES: dict[tuple, weakref.ref] = {}
#: the text a binary formula keeps -> the reference ``_BINARIES`` holds for it;
#: written, and its dead entries dropped as it doubles, under ``_lock`` too
_TEXTS: dict[str, weakref.ref] = {}
#: the longest text a parse writes for a formula; a longer one is printed
TEXT_BOUND = 256
_binaries_at = _texts_at = 1024     # the sizes at which to sweep each table
_lock = threading.RLock()           # reentrant: the collector may run code in it


def _swept(table: dict) -> int:
    """Drops ``table``'s dead references, under ``_lock``, and returns the size
    at which to sweep it again: twice the live entries, and at least 1,024."""
    for k in [k for k, r in table.items() if r() is None]:
        del table[k]
    return max(1024, 2 * len(table))


class _Binary(Formula):
    __slots__ = ("left", "right", "__weakref__")
    __match_args__ = ("left", "right")

    def __new__(cls, left: Formula, right: Formula):
        global _binaries_at
        key = (cls._tag, id(left), id(right))
        ref = _BINARIES.get(key)
        f = ref and ref()
        if f is None:
            with _lock:     # one formula per key, even when two threads race
                ref = _BINARIES.get(key)
                f = ref and ref()
                if f is None:
                    f = object.__new__(cls)
                    _set_left(f, left)
                    _set_right(f, right)
                    _set_key(f, (cls._tag, left.key, right.key))
                    _set_text(f, None)
                    _set_dual(f, None)
                    _BINARIES[key] = weakref.ref(f)
                    if len(_BINARIES) >= _binaries_at:
                        _binaries_at = _swept(_BINARIES)
        return f

    def __reduce_ex__(self, protocol):
        # flat rows, written by ``indexer``, so a formula of any depth pickles
        rows: list = []
        indexer(rows)(self)
        return _from_rows, (rows,)


_set_key, _set_text, _set_dual, _set_left, _set_right = _setters(_Binary)


def indexer(rows: list) -> Callable[[Formula], int]:
    """``index(f)``, the index of ``f``'s row in ``rows``: each call first
    appends a row for each subformula of ``f`` that has none yet, in
    post-order, on its own stack.  A leaf's row is the leaf; a binary
    formula's is its class and the indices of its operands' rows.  So the
    formulas of many calls share one table, each subformula once."""
    done: dict[int, int] = {}       # id of a formula -> the index of its row

    def index(f: Formula) -> int:
        stack = [f]
        while stack:
            x = stack[-1]
            if id(x) in done:
                stack.pop()
            elif x.__class__ not in _SHAPE:
                done[id(x)] = len(rows)
                rows.append(stack.pop())
            elif id(x.left) in done and id(x.right) in done:
                done[id(x)] = len(rows)
                rows.append((x.__class__, done[id(x.left)], done[id(x.right)]))
                stack.pop()
            else:
                stack += (x.right, x.left)
        return done[id(f)]

    return index


def built(rows: list) -> list[Formula]:
    """The formula of each of the rows ``indexer`` writes, each built once
    over the formulas of the rows it names."""
    out: list[Formula] = []
    for row in rows:
        out.append(row[0](out[row[1]], out[row[2]]) if row.__class__ is tuple else row)
    return out


def _from_rows(rows: list) -> Formula:
    return built(rows)[-1]


def _keep(f: Formula, text: str) -> str:
    """The text ``f`` keeps: ``text``, entered in ``_TEXTS``, unless another
    thread gave ``f`` its text first."""
    global _texts_at
    with _lock:
        if f._text is None:
            _set_text(f, text)
            _TEXTS[text] = weakref.ref(f)   # no callback: the reference ``_BINARIES`` holds
            if len(_TEXTS) >= _texts_at:
                _texts_at = _swept(_TEXTS)
    return f._text


class And(_Binary):
    __slots__ = ()
    _tag = 3


class Or(_Binary):
    __slots__ = ()
    _tag = 4


class Imp(_Binary):
    __slots__ = ()
    _tag = 5


class Coimp(_Binary):
    """``Coimp(a, b)`` is the co-implication "b co-implies a" (text ``a -< b``)."""

    __slots__ = ()
    _tag = 6


BOT, TOP = Bottom._one, Top._one = object.__new__(Bottom), object.__new__(Top)
for _c, _d in ((BOT, TOP), (TOP, BOT)):
    _set(_c, "key", (_c._tag,))
    _set(_c, "_text", _c._symbol)
    _set(_c, "_dual", _d)
BINARY = (And, Or, Imp, Coimp)


def weight(f: Formula) -> int:
    """Inductive size measure: constants 0, atoms 1, binaries w(l)+w(r)+1,
    summed on its own stack, so a formula of any depth is measured."""
    n, stack = 0, [f]
    while stack:
        x = stack.pop()
        if not isinstance(x, Formula):
            raise TypeError(f"not a formula: {x!r}")
        if isinstance(x, _Binary):
            stack += (x.left, x.right)
        n += not isinstance(x, (Bottom, Top))
    return n


# --- parser ----------------------------------------------------------------

# After optional whitespace, a lexeme: punctuation, a word, or any other
# non-space character, which begins no lexeme and is an error.  The sequent
# separators (comma, semicolon, turnstiles) are lexemes too, so the whole text
# of a sequent scans, and a formula's text holding one has trailing input.
_LEXEME = re.compile(r"\s*(/\\|\\/|->|-<|\|-\+|\|--|[(),;]|[a-zA-Z][a-zA-Z0-9_]*|\S)")
_PUNCTUATION = frozenset(("/\\", "\\/", "->", "-<", "|-+", "|--", "(", ")", ",", ";"))
_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")

_PREC = {And: 3, Or: 2, Imp: 1, Coimp: 1}
_OP_TEXT = {And: "/\\", Or: "\\/", Imp: "->", Coimp: "-<"}
#: per connective's text, how tightly it binds and the node it builds
_INFIX = {_OP_TEXT[c]: (_PREC[c], c) for c in BINARY}
_CONSTANT = {"F": BOT, "T": TOP}


def lexemes(text: str) -> list[tuple[str, int]]:
    """Each lexeme of ``text`` with its offset.  Raises FormulaSyntaxError at
    the first character that begins no lexeme."""
    out = []
    for m in _LEXEME.finditer(text):
        lexeme = m[1]
        if lexeme not in _PUNCTUATION and lexeme[0] not in _LETTERS:
            raise FormulaSyntaxError(f"unknown token {lexeme!r}", m.start(1))
        out.append((lexeme, m.start(1)))
    return out


def error(text: str, message: str, index: int) -> FormulaSyntaxError:
    """``message`` at lexeme ``index`` of ``text``, or at the end of the text
    past its last lexeme.  An unknown character anywhere in the text is
    reported first."""
    found = lexemes(text)
    return FormulaSyntaxError(message, found[index][1] if index < len(found) else len(text))


def scan(text: str) -> list[str]:
    """The lexemes of ``text``, with no check, and "" for the end of the text."""
    found = _LEXEME.findall(text)
    found.append("")
    return found


def parse_formula(text: str) -> Formula:
    """Parse a formula; raises FormulaSyntaxError with a position on bad input.

    A text that a live formula keeps is that formula (``_TEXTS``).  Any other
    is split into lexemes by one scan, and ``read_formula`` reads them.
    Positions are found again only for an error."""
    ref = _TEXTS.get(text)
    f = ref and ref()
    if f is not None:
        return f
    found = scan(text)
    f, i = read_formula(text, found, 0)
    if found[i]:
        raise error(text, f"trailing input {found[i]!r}", i)
    return f


def read_formula(text: str, found: list[str], i: int) -> tuple[Formula, int]:
    """The formula whose lexemes ``found`` (``scan(text)``) begin at index
    ``i``, and the index of the first lexeme outside every parenthesis that
    is not a connective.  One loop reads them with its own stacks, so
    parentheses nest as deep as memory allows.  Each binary formula it builds
    or finds with no text, while both its operands keep theirs, gets its text
    if that is at most ``TEXT_BOUND`` long."""
    operands: list[Formula] = []
    pending: list = []          # connectives not yet applied; None opens a parenthesis
    outer: list = []            # per open parenthesis, the enclosing level's arrow state
    arrow, mixed = "", -1       # this level's first arrow; where another one first follows
    while True:
        lexeme = found[i]
        while lexeme == "(":
            pending.append(None)
            outer.append((arrow, mixed))
            arrow, mixed = "", -1
            i += 1
            lexeme = found[i]
        f = _CONSTANT.get(lexeme)
        if f is None:
            if lexeme[:1] not in _LETTERS:
                raise error(text, "expected a formula", i)
            f = _ATOMS.get(lexeme) or Atom(lexeme)
        operands.append(f)
        i += 1
        # after an operand: a connective, or the end of the current level
        while True:
            lexeme = found[i]
            infix = _INFIX.get(lexeme)
            binding = 0 if infix is None else infix[0]
            # every connective associates to the right: apply the tighter ones
            while pending and pending[-1] is not None and pending[-1][0] > binding:
                right = operands.pop()
                left = operands[-1]
                f = operands[-1] = pending.pop()[1](left, right)
                if f._text is None and left._text is not None and right._text is not None:
                    _name(f, left._text, right._text)
            if infix is not None:
                break
            if mixed >= 0:
                raise error(text, "cannot mix '->' and '-<' without parentheses", mixed)
            if not outer:
                return operands[0], i
            if lexeme != ")":
                raise error(text, "unbalanced parentheses", i)
            pending.pop()
            arrow, mixed = outer.pop()
            i += 1
        if binding == _PREC[Imp]:
            if not arrow:
                arrow = lexeme
            elif lexeme != arrow and mixed < 0:
                mixed = i
        pending.append(infix)
        i += 1


# --- printer ---------------------------------------------------------------


def _shape(cls: type) -> tuple:
    prec = _PREC[cls]
    # right-associative: a left operand at the same level always needs
    # parentheses; the two arrows share a level but may not chain without them
    return (f" {_OP_TEXT[cls]} ",
            frozenset(c for c in BINARY if _PREC[c] <= prec),
            frozenset(c for c in BINARY if _PREC[c] < prec or (_PREC[c] == prec and c is not cls)))


#: per connective: its text with a space on each side, and the connectives of
#: the operands that take parentheses on its left and on its right
_SHAPE = {c: _shape(c) for c in BINARY}


def _name(f: _Binary, left: str, right: str) -> None:
    """Gives ``f`` the text its operands' texts ``left`` and ``right`` make,
    if it is at most ``TEXT_BOUND`` long."""
    if len(left) + len(right) < TEXT_BOUND:
        op, wrap_left, wrap_right = _SHAPE[f.__class__]
        if f.left.__class__ in wrap_left:
            left = f"({left})"
        if f.right.__class__ in wrap_right:
            right = f"({right})"
        text = f"{left}{op}{right}"
        if len(text) <= TEXT_BOUND:
            _keep(f, text)


def format_formula(f: Formula) -> str:
    """Minimal-parenthesization text that reparses to a structurally equal tree.

    The text is kept on ``f``, and entered in ``_TEXTS``, so each formula
    object is printed once.  The walk has its own stack, so a formula of any
    depth prints.  An operand that has its text already is not walked, and
    only ``f`` keeps the text made here, so a deep formula does not keep the
    text of every subformula."""
    text = f._text
    if text is not None:
        return text
    # pieces of text, and formulas still to print, in reverse order
    out, stack = [], [f]
    while stack:
        x = stack.pop()
        if x.__class__ is str:
            out.append(x)
        elif x._text is not None:
            out.append(x._text)
        else:
            op, wrap_left, wrap_right = _SHAPE[x.__class__]
            stack += (")", x.right, "(") if x.right.__class__ in wrap_right else (x.right,)
            stack.append(op)
            stack += (")", x.left, "(") if x.left.__class__ in wrap_left else (x.left,)
    return _keep(f, "".join(out))
