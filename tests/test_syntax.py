import pytest
from hypothesis import given

from bint.syntax import (
    BOT, TOP, And, Atom, Bottom, Coimp, FormulaSyntaxError, Imp, Or,
    format_formula, parse_formula, subformulas, weight,
)
from conftest import formulas


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


@given(formulas())
def test_subformulas_contains_self(f):
    subs = subformulas(f)
    assert f in subs
    if isinstance(f, (And, Or, Imp, Coimp)):
        assert f.left in subs and f.right in subs
