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

One lexer (``scan``) and one reader (``read_formula``) serve the text of a
formula here and of a sequent in ``bint.kernel``: the reader stops at the
first lexeme outside every parenthesis that is not a connective, where a
formula's text must end and a sequent's lists go on.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field


class FormulaSyntaxError(ValueError):
    """Malformed formula or sequent text; ``position`` is a 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


_formula = dataclass(frozen=True, eq=False, repr=False, slots=True, init=False)
_set = object.__setattr__


@_formula
class Formula:
    """A formula tree.  Each formula holds two things, written when it is
    built: ``key``, a total structural order used to keep contexts sorted,
    and its hash.  Equality and hashing read them instead of walking the
    tree."""

    key: tuple = field(init=False)
    _hash: int = field(init=False)
    _tag = -1   # the first component of ``key``: the connective

    def __init__(self):     # the constants; atoms and binaries have their own
        _set(self, "key", (self._tag,))
        _set(self, "_hash", hash(self._tag))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Formula):
            return NotImplemented
        return self is other or (self._hash == other._hash and self.key == other.key)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"<{format_formula(self)}>"


@_formula
class Bottom(Formula):
    _tag = 0


@_formula
class Top(Formula):
    _tag = 1


#: name -> the atom of that name, kept for the life of the process
_ATOMS: dict[str, "Atom"] = {}


@_formula
class Atom(Formula):
    """An atom.  There is one per name, so equal atoms are one object and
    compare by identity; copies and pickles are that object too."""

    name: str
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
            atom = _ATOMS.setdefault(name, atom)    # one atom, even when two threads race
        return atom

    def __reduce__(self):
        return Atom, (self.name,)


@_formula
class _Binary(Formula):
    left: Formula
    right: Formula

    def __init__(self, left: Formula, right: Formula):
        tag = self._tag
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "key", (tag, left.key, right.key))
        _set(self, "_hash", hash((tag, left._hash, right._hash)))


@_formula
class And(_Binary):
    _tag = 3


@_formula
class Or(_Binary):
    _tag = 4


@_formula
class Imp(_Binary):
    _tag = 5


@_formula
class Coimp(_Binary):
    """``Coimp(a, b)`` is the co-implication "b co-implies a" (text ``a -< b``)."""

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
_LETTERS = frozenset(string.ascii_letters)

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


def format_formula(f: Formula) -> str:
    """Minimal-parenthesization text that reparses to a structurally equal tree."""
    match f:
        case Atom(name):
            return name
        case Bottom():
            return "F"
        case Top():
            return "T"
    cls = type(f)
    prec = _PREC[cls]
    left, right = f.left, f.right  # type: ignore[attr-defined]
    left_txt = format_formula(left)
    # right-associative: a left child at the same level always needs parens
    if isinstance(left, BINARY) and _PREC[type(left)] <= prec:
        left_txt = f"({left_txt})"
    right_txt = format_formula(right)
    if isinstance(right, BINARY):
        rp = _PREC[type(right)]
        # the two arrows share a level but may not chain unparenthesized
        if rp < prec or (rp == prec and type(right) is not cls):
            right_txt = f"({right_txt})"
    return f"{left_txt} {_OP_TEXT[cls]} {right_txt}"

