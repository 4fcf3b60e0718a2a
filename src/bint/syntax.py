"""Formula trees, the weight measure, and the concrete text format.

Concrete tokens: ``F`` (falsum), ``T`` (verum), ``/\\``, ``\\/``, ``->``, ``-<``.
Precedence, tightest first: ``/\\``, ``\\/``, then ``->`` and ``-<`` together at
the bottom.  All binary connectives associate to the right; mixing ``->`` and
``-<`` at the same level without parentheses is rejected rather than silently
resolved.

Formulas are immutable, and each is built in one call: a binary formula's
constructor writes its operands, its ``key`` and its hash at once.  Atoms
are interned: there is one atom per name, so equal atoms are one object and
compare by identity.

A formula keeps its own text once it has one: atoms and constants from their
creation, a binary formula from its first ``format_formula``.  So each
formula object is printed once per process, however many documents, contexts
or messages show it.

One lexer (``scan``) and one reader (``read_formula``) serve the text of a
formula here and of a sequent in ``bint.kernel``: the reader stops at the
first lexeme outside every parenthesis that is not a connective, where a
formula's text must end and a sequent's lists go on.
"""

from __future__ import annotations

import re


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
    once, in ``__init__``, through them, at about half of ``_set``'s cost."""
    return tuple(getattr(c, name).__set__ for c in reversed(cls.__mro__)
                 for name in c.__dict__.get("__slots__", ()))


def _values(r: "_Record") -> tuple:
    return tuple([getattr(r, name) for name in r.__match_args__])


class _Record:
    """Base of the engine's frozen records: slotted classes, not dataclasses,
    since decorating a class costs far more at import.  ``__match_args__``
    names the constructor's arguments, in order.  Pattern matching reads them,
    and so do ``==``, ``hash`` and ``repr`` where a class has none of its own.
    A copy or a pickle is rebuilt by the constructor from them, so the rest
    (a hash that derives from string hashes, a validity verdict) is derived
    again, not restored."""

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
    """A formula tree.  Each formula holds two things, written when it is
    built: ``key``, a total structural order used to keep contexts sorted,
    and its hash.  Equality and hashing read them instead of walking the
    tree.  A third, ``_text``, is the formula's text once ``format_formula``
    has made it (None before); like ``_hash`` it is not an argument, so it is
    neither compared, hashed, printed nor pickled."""

    __slots__ = ("key", "_hash", "_text")
    _tag = -1   # the first component of ``key``: the connective

    def __init__(self):     # the constants; atoms and binaries have their own
        _set(self, "key", (self._tag,))
        _set(self, "_hash", hash(self._tag))
        _set(self, "_text", self._symbol)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Formula):
            return NotImplemented
        return self is other or (self._hash == other._hash and self.key == other.key)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"<{format_formula(self)}>"


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


class Atom(Formula):
    """An atom.  There is one per name, so equal atoms are one object and
    compare by identity; copies and pickles are that object too."""

    __slots__ = __match_args__ = ("name",)
    _tag = 2
    __eq__ = object.__eq__
    __hash__ = Formula.__hash__
    __init__ = object.__init__      # ``__new__`` builds the atom

    def __new__(cls, name: str):
        atom = _ATOMS.get(name)
        if atom is None:
            atom = object.__new__(cls)
            _set(atom, "name", name)
            _set(atom, "key", (cls._tag, name))
            _set(atom, "_hash", hash(name))
            _set(atom, "_text", name)
            atom = _ATOMS.setdefault(name, atom)    # one atom, even when two threads race
        return atom


class _Binary(Formula):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        tag = self._tag
        _set_left(self, left)
        _set_right(self, right)
        _set_key(self, (tag, left.key, right.key))
        _set_hash(self, hash((tag, left._hash, right._hash)))
        _set_text(self, None)


_set_key, _set_hash, _set_text, _set_left, _set_right = _setters(_Binary)


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


BOT = Bottom()
TOP = Top()

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

    One scan splits the text into lexemes, and ``read_formula`` reads them.
    Positions are found again only for an error."""
    found = scan(text)
    f, i = read_formula(text, found, 0)
    if found[i]:
        raise error(text, f"trailing input {found[i]!r}", i)
    return f


def read_formula(text: str, found: list[str], i: int) -> tuple[Formula, int]:
    """The formula whose lexemes ``found`` (``scan(text)``) begin at index
    ``i``, and the index of the first lexeme outside every parenthesis that
    is not a connective.  One loop reads them with its own stacks, so
    parentheses nest as deep as memory allows."""
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
                operands[-1] = pending.pop()[1](operands[-1], right)
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


def format_formula(f: Formula) -> str:
    """Minimal-parenthesization text that reparses to a structurally equal tree.

    The text is kept on ``f``, so each formula object is printed once.  The
    walk has its own stack, so a formula of any depth prints.  An operand
    that has its text already is not walked, and only ``f`` keeps the text
    made here, so a deep formula does not keep the text of every subformula."""
    text = f._text
    if text is not None:
        return text
    op, wrap_left, wrap_right = _SHAPE[f.__class__]
    left, right = f.left, f.right  # type: ignore[attr-defined]
    lt, rt = left._text, right._text
    if lt is not None and rt is not None:       # operands printed already: no walk
        if left.__class__ in wrap_left:
            lt = f"({lt})"
        if right.__class__ in wrap_right:
            rt = f"({rt})"
        text = lt + op + rt
    else:
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
        text = "".join(out)
    _set_text(f, text)
    return text
