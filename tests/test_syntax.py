import copy
import gc
import os
import pickle
import random
import re
import subprocess
import sys
import threading
import weakref
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest
from hypothesis import given, strategies as st

from bint import kernel, serialize, syntax
from bint.syntax import (
    _CONSTANT, _INFIX, _LETTERS, _LEXEME, _PREC, BINARY, BOT, TEXT_BOUND, TOP, And, Atom,
    Bottom, Coimp, Formula, FormulaSyntaxError, Imp, Or, Top, format_formula, lexemes,
    parse_formula, weight,
)
from bint.kernel import (
    EMPTY, MINUS, PLUS, Context, RuleId, Sequent, dual_formula, format_sequent, node,
    parse_context_pair, parse_sequent,
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


# --- sequent text read by its pieces --------------------------------------------------

def test_a_sequent_read_again_is_read_from_the_shared_cache():
    text = "cached_a, cached_a -> cached_b ; cached_c |-- cached_b /\\ cached_c"
    first = parse_sequent(text)
    before = kernel.parse_formula.cache_info()
    again = parse_sequent(text)
    after = kernel.parse_formula.cache_info()
    assert again == first and after.misses == before.misses and after.hits == before.hits + 4
    assert all(x is y for x, y in zip(first.gamma + first.delta, again.gamma + again.delta))
    assert again.succedent is first.succedent
    assert serialize.parse_formula is kernel.parse_formula


@pytest.mark.parametrize("text", [
    "p,q ; |-+ r",              # a comma with no space: read by the scanner, and valid
    "p ,q ; r ,s |-- t",
    "p ; q ; |-+ r",            # two ';'
    "p ; |-+ q ; r",
    "p |-+ q ; |-+ r",          # a turnstile inside Gamma
    "p |- q ; |-+ r",
    "p ; |- + q",               # a turnstile split by a space
    "p ; |-+ q, r",             # a ',' in the succedent
    "p ; |-+ q,",
    "; |-+ p",                  # empty sides
    "  ;   |-- p",
    ";|-+p",
    "; |-+",
    "p ; |-+ ",
    "p, ; |-+ q",
    "p, , q ; |-+ r",
    ", p ; |-+ q",
    "p ; q, |-+ r",
    "p ; |-+ q r",              # trailing text
    "p ; |-+ q )",
    "p ; |-+ q @",
    "p @ q ; |-+ r",
    "p ; q -> |-+ r",
    "(p ; |-+ q",
])
def test_irregular_sequent_text_is_read_as_the_scanner_reads_it(text):
    got = outcome_or_error(parse_sequent, text)
    assert got == outcome_or_error(kernel._scan_sequent, text)
    assert got == outcome_or_error(ref_parse_sequent, text)


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
    # an atom's name is one the parser reads as that atom, so its texts parse back
    for name in ("F", "T", "", "p q", "1p", "p->q", "é"):
        with pytest.raises(ValueError, match="not an atom's name"):
            Atom(name)


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
    # atoms no other test names, so the formula is new: the parse wrote its text
    f = parse_formula("kept_p -> ( kept_q /\\ kept_r )")
    text = f._text
    assert text == "kept_p -> kept_q /\\ kept_r" and f._dual is None
    h = hash(f)
    assert format_formula(f) is text and hash(f) == h and parse_formula(text) is f
    assert f.__reduce__() == (Imp, (f.left, f.right))
    assert text.encode() not in pickle.dumps(f)
    assert repr(f) == "<kept_p -> kept_q /\\ kept_r>"


def test_a_formula_is_one_object_however_it_is_made_again():
    f = parse_formula("p -> (q -< F) /\\ (T \\/ r)")
    assert Imp(Atom("p"), And(Coimp(Atom("q"), BOT), Or(TOP, Atom("r")))) is f
    assert Bottom() is BOT and Top() is TOP
    for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f)),
              parse_formula(format_formula(f))):
        assert g is f
    assert (And(f, f) == And(f, f)) and (And(f, f) != Or(f, f))


def test_formulas_of_any_depth_built_apart_are_one_object():
    assert sys.getrecursionlimit() == 1000

    def tower(n):
        f = Atom("p")
        for i in range(n):
            f = (Imp, Coimp, And, Or)[i % 4](f, Atom("q"))
        return f

    f, g = tower(10_000), tower(10_000)
    assert f is g and f == g and not f != g and hash(f) == hash(g)
    assert f != tower(9_999) and f.left is tower(9_999)
    s = Sequent(Context.of(f, f.left), Context.of(g), PLUS, g)
    t = Sequent(Context.of(g.left, g), Context.of(f), PLUS, f)
    assert s == t and hash(s) == hash(t) and f in t.gamma and f.left in s.gamma


def test_a_formula_nothing_holds_is_freed():
    f = parse_formula("freed_p -> freed_q \\/ freed_r")
    dual = dual_formula(f)      # the two keep each other
    refs = [weakref.ref(f), weakref.ref(f.right), weakref.ref(dual)]
    del f, dual
    gc.collect()
    assert [r() for r in refs] == [None, None, None]
    again = parse_formula("freed_p -> freed_q \\/ freed_r")
    assert weakref.ref(again) is not refs[0]        # built anew


#: in a fresh interpreter, builds and drops 10**5 distinct formulas, ten
#: chains of 10**4, and prints the size of the table of formulas at its largest
_TABLE_SCRIPT = """
import gc
from bint import syntax
p, largest = syntax.Atom("p"), 0
for _ in range(10):
    f = p
    for _ in range(10_000):
        f = syntax.Imp(f, p)
        largest = max(largest, len(syntax._BINARIES))
    del f
    gc.collect()
print(largest, len(syntax._BINARIES), sum(r() is not None for r in syntax._BINARIES.values()))
"""


def test_the_table_of_formulas_stays_bounded():
    src = str(Path(syntax.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", _TABLE_SCRIPT], env=env, check=True,
                         capture_output=True, text=True).stdout
    largest, size, live = map(int, out.split())
    # at most twice the live formulas, 10**4 at a time, and never all 10**5
    assert live == 0 and size <= largest <= 2 * 10_000 + 2


def test_threads_that_race_build_one_object_per_formula():
    """Each round, the threads build the same formulas at once, check that they
    hold one object per formula, and drop them all, so that the next round
    finds each entry of the table dead and replaces it."""
    n, rounds = 8, 300
    texts = [f"race{i} -> race{i + 1} /\\ (race{i + 2} -< race{i})" for i in range(6)]
    barrier = threading.Barrier(n, timeout=60)
    held, split = [None] * n, []

    def build(k):
        for _ in range(rounds):
            barrier.wait()
            held[k] = [parse_formula(t) for t in texts]
            barrier.wait()
            if k == 0:
                split.extend(x for h in held for x, y in zip(h, held[0]) if x is not y)
            barrier.wait()
            held[k] = None

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(k,)) for k in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not barrier.broken
    assert split == []


# --- kept texts and their index -------------------------------------------------------

_OPS = {And: "/\\", Or: "\\/", Imp: "->", Coimp: "-<"}


def reference_format(f: Formula) -> str:
    """The canonical text of ``f``, by recursion: a left operand whose
    connective binds no tighter, and a right one whose connective binds
    less tightly or is the other arrow, in parentheses."""
    if not isinstance(f, BINARY):
        return {BOT: "F", TOP: "T"}.get(f) or f.name
    prec, left, right = _PREC[type(f)], reference_format(f.left), reference_format(f.right)
    if isinstance(f.left, BINARY) and _PREC[type(f.left)] <= prec:
        left = f"({left})"
    if isinstance(f.right, BINARY) and (_PREC[type(f.right)] < prec or
                                        _PREC[type(f.right)] == prec and type(f.right) is not type(f)):
        right = f"({right})"
    return f"{left} {_OPS[type(f)]} {right}"


def loose_text(f: Formula, rng: random.Random) -> str:
    """A text of ``f`` with random spacing, and parentheses around some
    operands that need none."""
    if not isinstance(f, BINARY):
        return rng.choice(_SPACE) + reference_format(f) + rng.choice(_SPACE)
    prec, left, right = _PREC[type(f)], loose_text(f.left, rng), loose_text(f.right, rng)
    if isinstance(f.left, BINARY) and _PREC[type(f.left)] <= prec or rng.random() < 0.3:
        left = f"({left})"
    if isinstance(f.right, BINARY) and (_PREC[type(f.right)] < prec or
                                        _PREC[type(f.right)] == prec and type(f.right) is not type(f)
                                        ) or rng.random() < 0.3:
        right = f"({right})"
    return rng.choice(_SPACE) + left + rng.choice(_SPACE) + _OPS[type(f)] + right + rng.choice(_SPACE)


def subformulas(f: Formula) -> list[Formula]:
    out, stack = [], [f]
    while stack:
        x = stack.pop()
        out.append(x)
        if isinstance(x, BINARY):
            stack += (x.left, x.right)
    return out


@given(formulas(max_leaves=12), st.randoms(use_true_random=False))
def test_a_parse_keeps_the_printers_text_of_every_formula_it_reads(f, rng):
    text = loose_text(f, rng)
    assert parse_formula(text) is f, text
    for x in subformulas(f):
        # built before the parse, each had no text unless printed or read before
        assert x._text == reference_format(x) and parse_formula(x._text) is x


def test_a_kept_text_is_read_without_a_scan(monkeypatch):
    reads = []
    read = syntax.read_formula

    def counted(text, found, i):
        reads.append(text)
        return read(text, found, i)

    monkeypatch.setattr(syntax, "read_formula", counted)
    f = parse_formula("(look_p /\\ look_q) -> (look_r)")
    assert reads == ["(look_p /\\ look_q) -> (look_r)"]
    assert parse_formula("look_p /\\ look_q -> look_r") is f
    assert parse_formula("look_p /\\ look_q") is f.left
    assert len(reads) == 1
    assert parse_formula(" look_p /\\ look_q -> look_r") is f       # not canonical: scanned
    assert len(reads) == 2


def test_the_index_keeps_no_formula_alive():
    text = "gone_p -> gone_q \\/ gone_r"
    f = parse_formula(text)
    ref = syntax._TEXTS[text]
    assert ref is weakref.ref(f) and ref() is f and syntax._TEXTS["gone_q \\/ gone_r"]() is f.right
    del f
    gc.collect()
    assert ref() is None and syntax._TEXTS[text] is ref
    # new texts, each its own formula, dropped at once, until a sweep drops the dead entry
    for i in range(syntax._texts_at + 1):
        parse_formula(" /\\ ".join("gone_" + b for b in bin(i)))
        if text not in syntax._TEXTS:
            break
    assert text not in syntax._TEXTS and parse_formula(text)._text == text


def test_a_deep_chain_keeps_texts_only_up_to_the_bound():
    assert sys.getrecursionlimit() == 1000
    f = parse_formula(" -> ".join(["chain"] * 10_001))
    spine, x = [], f
    while isinstance(x, Imp):
        spine.append(x)
        x = x.right
    assert len(spine) == 10_000
    kept = [x._text for x in spine if x._text is not None]
    # the text of k arrows is 9k + 5 long: the lowest n keep theirs
    n = (TEXT_BOUND - 5) // 9
    assert [len(t) for t in kept] == [9 * k + 5 for k in range(n, 0, -1)]
    assert sum(map(len, kept)) == 3_537         # 27 texts, at the bound of 256
    assert kept[-1] == "chain -> chain" and spine[-n - 1]._text is None
    text = format_formula(f)
    assert len(text) == 9 * 10_000 + 5 and parse_formula(text) is f


def test_threads_that_parse_the_same_texts_get_one_formula_and_one_text():
    texts = [f"th{i} -> (th{i + 1} /\\ th{i + 2}) \\/ (th{i} -< th{i + 3})" for i in range(500)]
    rounds = 4
    barrier = threading.Barrier(2, timeout=60)
    got, errors, split = [None, None], [], []

    def parse(k):
        try:
            for _ in range(rounds):
                barrier.wait()
                got[k] = [parse_formula(t) for t in texts]
                barrier.wait()
                if k == 0:
                    split.extend(t for t, a, b in zip(texts, *got)
                                 if a is not b or a._text != reference_format(a)
                                 or a.right._text is not b.right._text)
                barrier.wait()
                got[k] = None       # the next round builds them anew over dead entries
        except Exception as e:      # a sweep that raised, say
            errors.append(e)
            barrier.abort()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=parse, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and split == [] and not barrier.broken


def test_a_3000_arrow_chain_and_a_derivation_over_it_copy_and_pickle():
    assert sys.getrecursionlimit() == 1000
    p = Atom("p")
    spine = [p]
    for _ in range(3_000):
        spine.append(Imp(p, spine[-1]))
    f = spine[-1]
    for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert g is f
    # ImpLa on each link ``p, X ; |-+ p``: every node holds another subformula
    d = node(RuleId.RfPlus, Sequent(Context.of(p, p), EMPTY, PLUS, p))
    for x in spine[1:]:
        s = Sequent(Context.of(p, x), EMPTY, PLUS, p)
        d = node(RuleId.ImpLa, s, (node(RuleId.RfPlus, s), d), principal=x)
    assert d.valid and d.height == 3_000
    data = pickle.dumps(d)
    assert len(data) < 100 * 3_000       # each formula once, not each subformula per node
    for c in (copy.deepcopy(d), pickle.loads(data)):
        assert c == d and c.valid and c.height == 3_000
        assert c.conclusion.gamma[1] is f and c.annotation.principal is f


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
