"""Formula trees, the weight measure, and the concrete text format.

Concrete tokens: ``F`` (falsum), ``T`` (verum), ``/\\``, ``\\/``, ``->``, ``-<``.
Precedence, tightest first: ``/\\``, ``\\/``, then ``->`` and ``-<`` together at
the bottom.  All binary connectives associate to the right; mixing ``->`` and
``-<`` at the same level without parentheses is rejected rather than silently
resolved.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


class FormulaSyntaxError(ValueError):
    """Malformed formula or sequent text; ``position`` is a 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


_formula = dataclass(frozen=True, eq=False, repr=False, slots=True)


@_formula
class Formula:
    """A formula tree.  Each formula computes two things once, when it is
    built: ``key``, a total structural order used to keep contexts sorted,
    and its hash.  Equality and hashing read them instead of walking the
    tree."""

    key: tuple = field(init=False)
    _hash: int = field(init=False)
    _tag = -1   # the first component of ``key``: the connective

    def __post_init__(self):    # the constants; atoms and binaries override it
        self._seal((self._tag,), hash(self._tag))

    def _seal(self, key: tuple, h: int) -> None:
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "_hash", h)

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


@_formula
class Atom(Formula):
    name: str
    _tag = 2

    def __post_init__(self):
        self._seal((self._tag, self.name), hash(self.name))


@_formula
class _Binary(Formula):
    left: Formula
    right: Formula

    def __post_init__(self):
        l, r, tag = self.left, self.right, self._tag
        self._seal((tag, l.key, r.key), hash((tag, l._hash, r._hash)))


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
    """Inductive size measure: constants 0, atoms 1, binaries w(l)+w(r)+1."""
    match f:
        case Bottom() | Top():
            return 0
        case Atom():
            return 1
        case And(l, r) | Or(l, r) | Imp(l, r) | Coimp(l, r):
            return weight(l) + weight(r) + 1
    raise TypeError(f"not a formula: {f!r}")


def subformulas(f: Formula) -> frozenset[Formula]:
    """All subformulas of ``f``, including ``f`` itself."""
    match f:
        case And(l, r) | Or(l, r) | Imp(l, r) | Coimp(l, r):
            return subformulas(l) | subformulas(r) | {f}
        case _:
            return frozenset((f,))


# --- tokenizer -------------------------------------------------------------

# Token kinds: a punctuation token or reserved word is its own kind, any other
# word is an ``IDENT``.  The sequent separators (comma, semicolon, turnstiles)
# are tokens too, so the whole text of a sequent lexes, and a formula's text
# holding one has trailing input.
IDENT = "IDENT"
CONST_BOT = "F"
CONST_TOP = "T"
OP_AND = "/\\"
OP_OR = "\\/"
OP_IMP = "->"
OP_COIMP = "-<"
LPAREN = "("
RPAREN = ")"
END = "END"

# after optional whitespace: punctuation (group 1), a word (group 2), or any
# other non-space character, which is an error (group 3)
_TOKEN = re.compile(r"\s*(?:(/\\|\\/|->|-<|\|-\+|\|--|[(),;])|([a-zA-Z][a-zA-Z0-9_]*)|(\S))")


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    pos: int


def tokenize(text: str) -> list[Token]:
    out: list[Token] = []
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        lexeme = m[group]
        if group == 3:
            raise FormulaSyntaxError(f"unknown token {lexeme!r}", m.start(3))
        kind = IDENT if group == 2 and lexeme not in (CONST_BOT, CONST_TOP) else lexeme
        out.append(Token(kind, lexeme, m.start(group)))
    out.append(Token(END, "", len(text)))
    return out


class TokenStream:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.index = 0

    def peek(self) -> Token:
        return self.tokens[self.index]

    def next(self) -> Token:
        tok = self.tokens[self.index]
        if tok.kind != END:
            self.index += 1
        return tok


# --- parser ----------------------------------------------------------------

def parse_formula(text: str) -> Formula:
    """Parse a formula; raises FormulaSyntaxError with a position on bad input."""
    ts = TokenStream(tokenize(text))
    f = _parse_arrows(ts)
    tail = ts.peek()
    if tail.kind != END:
        raise FormulaSyntaxError(f"trailing input {tail.text!r}", tail.pos)
    return f


def _parse_arrows(ts: TokenStream) -> Formula:
    first = _parse_or(ts)
    chain: list[tuple[Token, Formula]] = []
    while ts.peek().kind in (OP_IMP, OP_COIMP):
        op = ts.next()
        chain.append((op, _parse_or(ts)))
    if not chain:
        return first
    kinds = {op.kind for op, _ in chain}
    if len(kinds) > 1:
        bad = next(op for op, _ in chain if op.kind != chain[0][0].kind)
        raise FormulaSyntaxError(
            "cannot mix '->' and '-<' without parentheses", bad.pos
        )
    ctor = Imp if chain[0][0].kind == OP_IMP else Coimp
    operands = [first] + [f for _, f in chain]
    result = operands[-1]
    for operand in reversed(operands[:-1]):
        result = ctor(operand, result)
    return result


def _parse_or(ts: TokenStream) -> Formula:
    left = _parse_and(ts)
    if ts.peek().kind == OP_OR:
        ts.next()
        return Or(left, _parse_or(ts))
    return left


def _parse_and(ts: TokenStream) -> Formula:
    left = _parse_unit(ts)
    if ts.peek().kind == OP_AND:
        ts.next()
        return And(left, _parse_and(ts))
    return left


def _parse_unit(ts: TokenStream) -> Formula:
    tok = ts.peek()
    if tok.kind == IDENT:
        ts.next()
        return Atom(tok.text)
    if tok.kind == CONST_BOT:
        ts.next()
        return BOT
    if tok.kind == CONST_TOP:
        ts.next()
        return TOP
    if tok.kind == LPAREN:
        ts.next()
        inner = _parse_arrows(ts)
        closing = ts.peek()
        if closing.kind != RPAREN:
            raise FormulaSyntaxError("unbalanced parentheses", closing.pos)
        ts.next()
        return inner
    raise FormulaSyntaxError("expected a formula", tok.pos)


# --- printer ---------------------------------------------------------------

_PREC = {And: 3, Or: 2, Imp: 1, Coimp: 1}
_OP_TEXT = {And: "/\\", Or: "\\/", Imp: "->", Coimp: "-<"}


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

