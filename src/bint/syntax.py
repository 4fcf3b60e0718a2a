"""Formula trees, the weight measure, and the concrete text format.

Concrete tokens: ``F`` (falsum), ``T`` (verum), ``/\\``, ``\\/``, ``->``, ``-<``.
Precedence, tightest first: ``/\\``, ``\\/``, then ``->`` and ``-<`` together at
the bottom.  All binary connectives associate to the right; mixing ``->`` and
``-<`` at the same level without parentheses is rejected rather than silently
resolved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


class FormulaSyntaxError(ValueError):
    """Malformed formula or sequent text; ``position`` is a 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class Formula:
    __slots__ = ()

    def __repr__(self) -> str:
        return f"<{format_formula(self)}>"


@dataclass(frozen=True, repr=False)
class Atom(Formula):
    name: str


@dataclass(frozen=True, repr=False)
class Bottom(Formula):
    pass


@dataclass(frozen=True, repr=False)
class Top(Formula):
    pass


@dataclass(frozen=True, repr=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, repr=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, repr=False)
class Imp(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, repr=False)
class Coimp(Formula):
    """``Coimp(a, b)`` is the co-implication "b co-implies a" (text ``a -< b``)."""

    left: Formula
    right: Formula


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


@lru_cache(maxsize=None)
def sort_key(f: Formula) -> tuple:
    """Total structural order on formulas, used to canonicalize multisets."""
    match f:
        case Bottom():
            return (0,)
        case Top():
            return (1,)
        case Atom(name):
            return (2, name)
        case And(l, r):
            return (3, sort_key(l), sort_key(r))
        case Or(l, r):
            return (4, sort_key(l), sort_key(r))
        case Imp(l, r):
            return (5, sort_key(l), sort_key(r))
        case Coimp(l, r):
            return (6, sort_key(l), sort_key(r))
    raise TypeError(f"not a formula: {f!r}")


# --- tokenizer -------------------------------------------------------------

# Token kinds; the sequent-level tokens (comma, semicolon, turnstiles) are
# produced here too so sequent parsing shares one lexer.
IDENT = "IDENT"
CONST_BOT = "BOT"
CONST_TOP = "TOP"
OP_AND = "AND"
OP_OR = "OR"
OP_IMP = "IMP"
OP_COIMP = "COIMP"
LPAREN = "LPAREN"
RPAREN = "RPAREN"
COMMA = "COMMA"
SEMI = "SEMI"
TURNSTILE_PLUS = "TSTILE+"
TURNSTILE_MINUS = "TSTILE-"
END = "END"

_PUNCT = [
    ("/\\", OP_AND),
    ("\\/", OP_OR),
    ("->", OP_IMP),
    ("-<", OP_COIMP),
    ("|-+", TURNSTILE_PLUS),
    ("|--", TURNSTILE_MINUS),
    ("(", LPAREN),
    (")", RPAREN),
    (",", COMMA),
    (";", SEMI),
]


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    pos: int


def tokenize(text: str) -> list[Token]:
    out: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        for lit, kind in _PUNCT:
            if text.startswith(lit, i):
                out.append(Token(kind, lit, i))
                i += len(lit)
                break
        else:
            if ch.isalpha():
                j = i + 1
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                word = text[i:j]
                if word == "F":
                    out.append(Token(CONST_BOT, word, i))
                elif word == "T":
                    out.append(Token(CONST_TOP, word, i))
                else:
                    out.append(Token(IDENT, word, i))
                i = j
            else:
                raise FormulaSyntaxError(f"unknown token {ch!r}", i)
    out.append(Token(END, "", n))
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

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise FormulaSyntaxError(f"expected {what}", tok.pos)
        return self.next()


# --- parser ----------------------------------------------------------------

def parse_formula(text: str) -> Formula:
    """Parse a formula; raises FormulaSyntaxError with a position on bad input."""
    ts = TokenStream(tokenize(text))
    f = parse_formula_tokens(ts)
    tail = ts.peek()
    if tail.kind != END:
        raise FormulaSyntaxError(f"trailing input {tail.text!r}", tail.pos)
    return f


def parse_formula_tokens(ts: TokenStream) -> Formula:
    return _parse_arrows(ts)


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

