import random
import re
from dataclasses import dataclass

import pytest
from hypothesis import given

from bint.syntax import (
    BOT, TOP, And, Atom, Bottom, Coimp, Formula, FormulaSyntaxError, Imp, Or,
    format_formula, parse_formula, weight,
)
from conftest import SEED, formulas, random_formula


# --- the reference: the recursive-descent parser as it was ---------------------------

IDENT, END = "IDENT", "END"
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
        kind = IDENT if group == 2 and lexeme not in ("F", "T") else lexeme
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


def reference_parse(text: str) -> Formula:
    ts = TokenStream(tokenize(text))
    f = _parse_arrows(ts)
    tail = ts.peek()
    if tail.kind != END:
        raise FormulaSyntaxError(f"trailing input {tail.text!r}", tail.pos)
    return f


def _parse_arrows(ts: TokenStream) -> Formula:
    first = _parse_or(ts)
    chain: list[tuple[Token, Formula]] = []
    while ts.peek().kind in ("->", "-<"):
        op = ts.next()
        chain.append((op, _parse_or(ts)))
    if not chain:
        return first
    kinds = {op.kind for op, _ in chain}
    if len(kinds) > 1:
        bad = next(op for op, _ in chain if op.kind != chain[0][0].kind)
        raise FormulaSyntaxError("cannot mix '->' and '-<' without parentheses", bad.pos)
    ctor = Imp if chain[0][0].kind == "->" else Coimp
    operands = [first] + [f for _, f in chain]
    result = operands[-1]
    for operand in reversed(operands[:-1]):
        result = ctor(operand, result)
    return result


def _parse_or(ts: TokenStream) -> Formula:
    left = _parse_and(ts)
    if ts.peek().kind == "\\/":
        ts.next()
        return Or(left, _parse_or(ts))
    return left


def _parse_and(ts: TokenStream) -> Formula:
    left = _parse_unit(ts)
    if ts.peek().kind == "/\\":
        ts.next()
        return And(left, _parse_and(ts))
    return left


def _parse_unit(ts: TokenStream) -> Formula:
    tok = ts.peek()
    if tok.kind == IDENT:
        ts.next()
        return Atom(tok.text)
    if tok.kind == "F":
        ts.next()
        return BOT
    if tok.kind == "T":
        ts.next()
        return TOP
    if tok.kind == "(":
        ts.next()
        inner = _parse_arrows(ts)
        closing = ts.peek()
        if closing.kind != ")":
            raise FormulaSyntaxError("unbalanced parentheses", closing.pos)
        ts.next()
        return inner
    raise FormulaSyntaxError("expected a formula", tok.pos)


def outcome(parse, text: str):
    """The tree ``parse`` reads from ``text``, or its error's message and position."""
    try:
        return parse(text)
    except FormulaSyntaxError as e:
        return e.message, e.position


def assert_parses_as_reference(text: str):
    assert outcome(parse_formula, text) == outcome(reference_parse, text), text


_SPACE = ("", "", " ", " ", "  ", "\t", "\n")
_INFIXES = ("/\\", "\\/", "->", "-<")
_WORDS = ("p", "q", "r1", "x_y", "F", "T", "Tx", "f")


def random_text(rng: random.Random, depth: int) -> str:
    """Text from the formula grammar with random connectives, spacing and
    parentheses; an arrow chain may mix ``->`` and ``-<``."""
    if depth == 0 or rng.random() < 0.3:
        text = rng.choice(_WORDS)
    else:
        parts = [random_text(rng, depth - 1) for _ in range(rng.randint(2, 4))]
        text = parts[0]
        for part in parts[1:]:
            text += rng.choice(_SPACE) + rng.choice(_INFIXES) + rng.choice(_SPACE) + part
    if rng.random() < 0.3:
        text = "(" + rng.choice(_SPACE) + text + rng.choice(_SPACE) + ")"
    return rng.choice(_SPACE) + text + rng.choice(_SPACE)


_GARBAGE = _WORDS + _INFIXES + ("(", "(", ")", ")", ",", ";", "|-+", "|--", "-", ">", "<",
                                "|", "/", "\\", "@", "é", "3", "²") + _SPACE


def garbage_text(rng: random.Random) -> str:
    return "".join(rng.choice(_GARBAGE) for _ in range(rng.randint(0, 12)))


def test_parser_matches_the_reference_on_random_formulas():
    rng = random.Random(f"{SEED}/parse")
    for _ in range(2000):
        f = random_formula(rng, rng.randint(1, 8))
        assert parse_formula(format_formula(f)) == reference_parse(format_formula(f)) == f
    parsed = mixed = 0
    for _ in range(3000):
        text = random_text(rng, 3)
        assert_parses_as_reference(text)
        found = outcome(parse_formula, text)
        parsed += isinstance(found, Formula)
        mixed += isinstance(found, tuple) and found[0].startswith("cannot mix")
    assert parsed > 1000 and mixed > 100


def test_parser_matches_the_reference_on_garbage():
    rng = random.Random(f"{SEED}/garbage")
    errors = set()
    for _ in range(5000):
        text = garbage_text(rng)
        assert_parses_as_reference(text)
        found = outcome(parse_formula, text)
        if isinstance(found, tuple):
            errors.add(found[0].split(" ")[0])
    # the mixed arrows are left to the test above
    assert errors == {"unknown", "expected", "trailing", "unbalanced"}


def test_deep_parentheses_parse_without_recursion():
    assert parse_formula("(" * 10_000 + "p" + ")" * 10_000) == Atom("p")
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula("(" * 10_000 + "p" + ")" * 9_999)
    assert exc.value.position == 20_000


def test_single_atom():
    assert parse_formula("p") == Atom("p")


def test_precedence():
    # tightest to loosest: /\, \/, arrows
    assert parse_formula("p /\\ q -> F") == Imp(And(Atom("p"), Atom("q")), BOT)
    assert parse_formula("p \\/ q /\\ r") == Or(Atom("p"), And(Atom("q"), Atom("r")))


def test_arrows_right_associative():
    a, b, c = Atom("a"), Atom("b"), Atom("c")
    assert parse_formula("a -< b -< c") == Coimp(a, Coimp(b, c))
    assert parse_formula("a -> b -> c") == Imp(a, Imp(b, c))


def test_mixed_arrows_rejected():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("a -> b -< c")
    # parenthesized mixing is fine
    assert parse_formula("a -> (b -< c)") == Imp(Atom("a"), Coimp(Atom("b"), Atom("c")))


def test_constants_are_reserved_words():
    assert parse_formula("F") == BOT
    assert parse_formula("T") == TOP
    # case-sensitive: lowercase are ordinary atoms, as are longer names
    assert parse_formula("f") == Atom("f")
    assert parse_formula("Tx") == Atom("Tx")


@pytest.mark.parametrize("text, position", [
    ("(p /\\ q", 7),     # unbalanced parens
    ("p @ q", 2),        # unknown token
    ("p ->", 4),         # dangling operator
    ("p q", 2),          # trailing input
    ("é", 0),            # atoms are ASCII: [a-zA-Z][a-zA-Z0-9_]*
    ("p²", 1),
])
def test_errors_carry_positions(text, position):
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula(text)
    assert exc.value.position == position
    assert_parses_as_reference(text)


def test_format_examples():
    assert format_formula(BOT) == "F"
    assert format_formula(Imp(Atom("p"), Atom("p"))) == "p -> p"
    assert format_formula(And(Or(Atom("p"), Atom("q")), Atom("r"))) == "(p \\/ q) /\\ r"
    assert format_formula(Imp(Atom("a"), Coimp(Atom("b"), Atom("c")))) == "a -> (b -< c)"


@given(formulas())
def test_round_trip(f):
    assert parse_formula(format_formula(f)) == f


@given(formulas())
def test_format_is_idempotent_on_outputs(f):
    text = format_formula(f)
    assert format_formula(parse_formula(text)) == text


def test_weight_base_cases():
    assert weight(BOT) == 0
    assert weight(TOP) == 0
    assert weight(Atom("p")) == 1


def test_weight_recursion():
    # 1 + (1 + 0 + 1) + 1
    f = parse_formula("p /\\ (q -> F)")
    assert weight(f) == 4


@given(formulas())
def test_weight_zero_exactly_on_constants(f):
    if weight(f) == 0:
        assert isinstance(f, (Bottom,)) or f == TOP
    else:
        assert f != BOT and f != TOP


@given(formulas())
def test_weight_strict_subterm_decrease(f):
    if isinstance(f, (And, Or, Imp, Coimp)):
        assert weight(f) > weight(f.left)
        assert weight(f) > weight(f.right)
