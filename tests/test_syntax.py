import copy
import pickle
import random
import re
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import pytest
from hypothesis import given

from bint.syntax import (
    _CONSTANT, _INFIX, _LETTERS, _LEXEME, _PREC, BOT, TOP, And, Atom, Bottom, Coimp, Formula,
    FormulaSyntaxError, Imp, Or, format_formula, lexemes, parse_formula, weight,
)
from bint.kernel import (
    MINUS, PLUS, Context, Sequent, format_sequent, parse_context_pair, parse_sequent,
)
from conftest import SEED, formulas, random_formula, random_sequent


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


# --- the references for sequent text: the readers as they were ---------------------
#
# ``parse_formula``, and ``parse_sequent`` and ``parse_context_pair`` over
# ``_Pieces``, which split the text at its separators and parsed each piece
# as a formula, as they were before sequents were read from one lexeme list.
# Copied unchanged but for the ``ref_`` names.

def ref_error(text: str, message: str, index: int) -> FormulaSyntaxError:
    """``message`` at lexeme ``index`` of ``text``, or at the end of the text
    past its last lexeme.  An unknown character anywhere in the text is
    reported first."""
    found = lexemes(text)
    return FormulaSyntaxError(message, found[index][1] if index < len(found) else len(text))


def ref_parse_formula(text: str) -> Formula:
    """Parse a formula; raises FormulaSyntaxError with a position on bad input.

    One scan splits the text into lexemes, and one loop reads them with its
    own stacks, so parentheses nest as deep as memory allows.  Positions are
    found again only for an error."""
    found = _LEXEME.findall(text)
    found.append("")            # the end of the text
    operands: list[Formula] = []
    pending: list = []          # connectives not yet applied; None opens a parenthesis
    outer: list = []            # per open parenthesis, the enclosing level's arrow state
    arrow, mixed = "", -1       # this level's first arrow; where another one first follows
    i = 0
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
                raise ref_error(text, "expected a formula", i)
            f = Atom(lexeme)
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
                raise ref_error(text, "cannot mix '->' and '-<' without parentheses", mixed)
            if not outer:
                if lexeme:
                    raise ref_error(text, f"trailing input {lexeme!r}", i)
                return operands[0]
            if lexeme != ")":
                raise ref_error(text, "unbalanced parentheses", i)
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


def ref_parse_sequent(text: str, read: Callable[[str], Formula] = ref_parse_formula) -> Sequent:
    """Parse ``Gamma ; Delta |-+ C`` / ``|--``; empty sides are allowed and
    duplicate list entries produce multiset counts.  ``read`` parses the text
    of each formula."""
    pieces = _Pieces(text, read)
    gamma, delta = pieces.contexts(_TURNSTILES)
    pol = PLUS if pieces.expect(_TURNSTILES, "'|-+' or '|--'") == "|-+" else MINUS
    succ = pieces.formula()
    pieces.end()
    return Sequent(gamma, delta, pol, succ)


def ref_parse_context_pair(text: str) -> tuple[Context, Context]:
    """Parse ``Gamma ; Delta`` with no turnstile (used by the identity command)."""
    pieces = _Pieces(text, ref_parse_formula)
    pair = pieces.contexts(("",))
    pieces.end()
    return pair


# The separators never occur inside a formula, so a sequent's text splits at
# them into the texts of its formulas.
_SEPARATORS = re.compile(r"(,|;|\|-\+|\|--)")
_TURNSTILES = ("|-+", "|--")


class _Pieces:
    """The text between the separators of a sequent, read left to right.  A
    piece is the text of one formula, or blank for an empty context.  Errors
    carry their position in the whole text."""

    def __init__(self, text: str, read: Callable[[str], Formula]):
        self.text = text
        self.read = read
        # piece, separator, ..., piece, and '' for the end of the text, so the
        # separator after the current piece parts[i] is always parts[i + 1]
        self.parts = _SEPARATORS.split(text) + [""]
        self.i = 0

    def _error(self, message: str, part: int, offset: int = 0) -> FormulaSyntaxError:
        """The error at ``offset`` into ``parts[part]``.  An unknown character
        anywhere in the text is reported first, as lexing it all would."""
        lexemes(self.text)
        return FormulaSyntaxError(message, sum(map(len, self.parts[:part])) + offset)

    def formula(self) -> Formula:
        piece = self.parts[self.i]
        body = piece.strip()
        try:
            return self.read(body)
        except FormulaSyntaxError as e:
            if e.position < len(body):
                raise self._error(e.message, self.i,
                                  len(piece) - len(piece.lstrip()) + e.position) from None
            # the end of the body stands for the separator after the piece
            raise self._error(e.message, self.i + 1) from None

    def _formulas(self, stops: tuple[str, ...]) -> list[Formula]:
        """Comma-separated formulas up to a separator in ``stops``; none when
        the first piece is blank and ends at a stop."""
        parts = self.parts
        if parts[self.i + 1] in stops and not parts[self.i].strip():
            return []
        out = [self.formula()]
        while parts[self.i + 1] == ",":
            self.i += 2
            out.append(self.formula())
        return out

    def expect(self, stops: tuple[str, ...], what: str) -> str:
        """Step past the separator after the current piece, one of ``stops``."""
        sep = self.parts[self.i + 1]
        if sep not in stops:
            raise self._error(f"expected {what}", self.i + 1)
        self.i += 2
        return sep

    def contexts(self, stops: tuple[str, ...]) -> tuple[Context, Context]:
        """``Gamma ; Delta``, the second list ending at a separator in ``stops``."""
        gamma = self._formulas((";",))
        self.expect((";",), "';'")
        return Context.from_iter(gamma), Context.from_iter(self._formulas(stops))

    def end(self) -> None:
        sep = self.parts[self.i + 1]
        if sep:
            raise self._error(f"trailing input {sep!r}", self.i + 1)
def outcome_or_error(parse, text: str):
    """What ``parse`` reads from ``text``, or ("error", message, position)."""
    try:
        return parse(text)
    except FormulaSyntaxError as e:
        return "error", e.message, e.position


_SEQUENT_PIECES = _WORDS + _INFIXES + _SPACE + ("(", ")", ",", ";", " , ", " ; ", "|-+", "|--")
_STRAY = ("|-", "|", "-", "+", ">", "<", "/", "@", "é", "3")


def sequent_text(rng: random.Random) -> str:
    """Token soup, formula texts between random separators, or the text of a
    random sequent or of its context pair, mutated at random places; one
    piece in ten is a stray character."""
    def piece():
        return rng.choice(_STRAY if rng.random() < 0.1 else _SEQUENT_PIECES)

    kind = rng.randrange(4)
    if kind == 0:
        return "".join(piece() for _ in range(rng.randint(0, 16)))
    if kind == 1:
        text = ""
        for _ in range(rng.randint(0, 6)):
            text += random_text(rng, 2) if rng.random() < 0.8 else piece()
            text += rng.choice((",", ",", ";", ";", "|-+", "|--", ""))
        return text
    text = format_sequent(random_sequent(rng))
    if rng.random() < 0.3:
        text = text.rsplit("|-", 1)[0]
    for _ in range(rng.randint(kind - 2, 2)):   # the text of a sequent may stay whole
        i = rng.randrange(len(text) + 1)
        text = text[:i] + piece() + text[i + rng.randrange(3):]
    return text


def test_sequent_readers_match_the_references_on_fuzzed_text():
    rng = random.Random(f"{SEED}/sequent")
    readers = ((parse_sequent, ref_parse_sequent), (parse_context_pair, ref_parse_context_pair),
               (parse_formula, ref_parse_formula))
    seen = Counter()
    for _ in range(20_000):
        text = sequent_text(rng)
        for parse, reference in readers:
            got = outcome_or_error(parse, text)
            assert got == outcome_or_error(reference, text), (parse.__name__, text)
            error = isinstance(got, tuple) and got[0] == "error"
            seen[parse.__name__, got[1][:10] if error else "ok"] += 1
    kinds = ("ok", "unknown to", "expected a", "trailing i", "unbalanced", "cannot mix")
    for name in ("parse_sequent", "parse_context_pair", "parse_formula"):
        assert min(seen[name, kind] for kind in kinds) >= 100, name
    # "expected ';'" and "expected '|-+' or '|--'"
    assert min(seen["parse_sequent", "expected '"], seen["parse_context_pair", "expected '"]) >= 1000


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


def test_an_interned_atom_survives_copies_and_pickles():
    p = Atom("p")
    assert Atom("p") is p and parse_formula("p") is p
    for copied in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert copied is p
    f = Imp(p, And(Atom("q"), BOT))
    for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert g == f and hash(g) == hash(f) and g.left is p
        assert type(g.right.right) is Bottom and g.right.right == BOT


def test_a_kept_text_is_not_compared_hashed_printed_or_pickled():
    f, g = parse_formula("p -> q /\\ r"), parse_formula("p -> q /\\ r")
    assert f is not g and f._text is None and g._text is None
    h = hash(f)
    text = format_formula(f)
    assert f._text is text and g._text is None
    assert f == g and g == f and hash(f) == hash(g) == h
    assert f.__reduce__() == (Imp, (f.left, f.right))
    for copied in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert copied == f and copied._text is None
    assert repr(g) == repr(f) == "<p -> q /\\ r>"


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
