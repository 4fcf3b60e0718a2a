"""The shared derivation walk: ``kernel.fold`` and the maps built on it.

The three weakenings, inversion, contraction, duality and rule coverage are
folds; the two renderers are pre-order walks with their own stacks, and so are
the equality of two derivations and the two formula printers.  Each is
checked against the recursive definition it replaced, on tall towers or deep
formulas at the default recursion limit, and for the sharing of premise
objects.  A last test pins the functions of ``bint`` that still recurse.
"""

import ast
import random
import sys
from pathlib import Path

import pytest

import bint
from bint import cli
from bint.cli import _LATEX_RULE, _latex_sequent, render_latex, render_text
from bint.corpus import DATA_DIR, _rules_in
from bint import transform
from bint.kernel import (
    LEFT_RULE_BY_SHAPE, PLUS, SCHEMA, Annotation, Context, ContextSplit, Derivation,
    RuleId as R, Sequent, Side, dual_derivation, dual_formula, fold, format_sequent, node,
    parse_sequent, premise_of,
)
from random_derivations import random_derivation
from bint.serialize import dumps_derivation, load_derivation
from bint.syntax import (
    BINARY, BOT, TOP, And, Atom, Bottom, Coimp, Imp, Or, Top, format_formula, parse_formula, weight,
)
from bint.transform import (
    SpecialWeakening, TransformError, _drop_one, _inverse, _map_conclusions, _node,
    _principal_here, _require_input, contract, invert, unweaken_special, weaken, weaken_context,
)
from conftest import SEED, random_formula, tower

p, q, r = Atom("p"), Atom("q"), Atom("r")
TOP_IN_GAMMA, BOT_IN_DELTA = SpecialWeakening.TOP_IN_GAMMA, SpecialWeakening.BOT_IN_DELTA


# --- recursive references: the definitions the walks replaced ------------------

def ref_weaken(d, extra, side):
    _require_input(d, "weaken")
    s = d.conclusion
    conc = (Sequent(s.gamma.add(extra), s.delta, s.polarity, s.succedent)
            if side is Side.A
            else Sequent(s.gamma, s.delta.add(extra), s.polarity, s.succedent))
    return _node(d.rule, conc, [ref_weaken(p, extra, side) for p in d.premises],
                 annotation=d.annotation)


def ref_weaken_context(d, gamma_extra=Context(), delta_extra=Context()):
    _require_input(d, "weaken_context")
    if not gamma_extra and not delta_extra:
        return d
    s = d.conclusion
    conc = Sequent(s.gamma.union(gamma_extra), s.delta.union(delta_extra), s.polarity,
                   s.succedent)
    return _node(d.rule, conc, [ref_weaken_context(p, gamma_extra, delta_extra)
                                for p in d.premises], annotation=d.annotation)


def ref_unweaken_special(d, which):
    _require_input(d, "unweaken_special")
    s = d.conclusion
    if which is SpecialWeakening.TOP_IN_GAMMA:
        if TOP not in s.gamma:
            raise TransformError("unweaken_special: no T among the assumptions")
        conc = _drop_one(s, TOP, Side.A)
    else:
        if BOT not in s.delta:
            raise TransformError("unweaken_special: no F among the counterassumptions")
        conc = _drop_one(s, BOT, Side.C)
    return _node(d.rule, conc, [ref_unweaken_special(p, which) for p in d.premises],
                 annotation=d.annotation)


def ref_invert(d, side, target):
    _require_input(d, "invert")
    if not isinstance(target, (And, Or, Imp, Coimp)):
        raise TransformError(
            f"invert: unsupported target {format_formula(target)} (must be compound)")
    present = target in (d.conclusion.gamma if side is Side.A else d.conclusion.delta)
    if not present:
        raise TransformError(
            f"invert: {format_formula(target)} does not occur on side {side.value}")
    inverses = [t for t in SCHEMA[LEFT_RULE_BY_SHAPE[side][type(target)]].premises
                if not t.keeps]
    if not d.premises:
        return tuple([_node(d.rule, premise_of(d.conclusion, side, target, t),
                            annotation=d.annotation) for t in inverses])
    if _principal_here(d, side, target):
        return tuple([p for p, t in zip(d.premises, SCHEMA[d.rule].premises) if not t.keeps])
    sub = [ref_invert(p, side, target) for p in d.premises]
    return tuple([
        _node(d.rule, premise_of(d.conclusion, side, target, t), [out[k] for out in sub],
              annotation=d.annotation)
        for k, t in enumerate(inverses)
    ])


def ref_contract(d, dup, side):
    _require_input(d, "contract")
    ctx = d.conclusion.gamma if side is Side.A else d.conclusion.delta
    if ctx.count(dup) < 2:
        raise TransformError(
            f"contract: fewer than two occurrences of {format_formula(dup)} "
            f"on side {side.value}")
    conc = _drop_one(d.conclusion, dup, side)
    if not d.premises:
        return _node(d.rule, conc, annotation=d.annotation)
    if _principal_here(d, side, dup):
        return ref_contract_principal(d, dup, side, conc)
    return _node(d.rule, conc, [ref_contract(p, dup, side) for p in d.premises],
                 annotation=d.annotation)


def ref_contract_principal(d, dup, side, conc):
    operands = (dup.left, dup.right)
    premises = []
    k = 0
    for p, t in zip(d.premises, SCHEMA[d.rule].premises):
        if t.keeps:
            premises.append(ref_contract(p, dup, side))
            continue
        p = ref_invert(p, side, dup)[k]
        k += 1
        for i in t.gamma:
            p = ref_contract(p, operands[i], Side.A)
        for i in t.delta:
            p = ref_contract(p, operands[i], Side.C)
        premises.append(p)
    return _node(d.rule, conc, premises, principal=dup)


def ref_render_text(d, indent=0):
    lines = [f"{'  ' * indent}[{d.rule.value}] {format_sequent(d.conclusion)}"]
    for p in d.premises:
        lines.append(ref_render_text(p, indent + 1))
    return "\n".join(lines)


def ref_format_formula(f):
    match f:
        case Atom(name):
            return name
        case Bottom():
            return "F"
        case Top():
            return "T"
    cls = type(f)
    prec = {And: 3, Or: 2, Imp: 1, Coimp: 1}
    op = {And: "/\\", Or: "\\/", Imp: "->", Coimp: "-<"}[cls]
    left, right = f.left, f.right
    left_txt = ref_format_formula(left)
    if isinstance(left, BINARY) and prec[type(left)] <= prec[cls]:
        left_txt = f"({left_txt})"
    right_txt = ref_format_formula(right)
    if isinstance(right, BINARY):
        rp = prec[type(right)]
        if rp < prec[cls] or (rp == prec[cls] and type(right) is not cls):
            right_txt = f"({right_txt})"
    return f"{left_txt} {op} {right_txt}"


def ref_latex_formula(f):
    match f:
        case Atom(name):
            return name
        case Bottom():
            return r"\bot"
        case Top():
            return r"\top"
    op = {And: r"\wedge", Or: r"\vee", Imp: r"\rightarrow", Coimp: r"\Yleft"}[type(f)]
    return f"({ref_latex_formula(f.left)} {op} {ref_latex_formula(f.right)})"


def ref_latex_sequent(s):
    g = ", ".join(ref_latex_formula(f) for f in s.gamma) or r"\emptyset"
    d = ", ".join(ref_latex_formula(f) for f in s.delta) or r"\emptyset"
    return rf"({g}; {d}) \vdash^{{{s.polarity.value}}} {ref_latex_formula(s.succedent)}"


def ref_render_latex(d):
    if not d.premises:
        body = "{}"
    else:
        body = "{" + r" \quad ".join(ref_render_latex(p) for p in d.premises) + "}"
    return (rf"\infer[\scriptstyle {_LATEX_RULE[d.rule]}]"
            + "{" + ref_latex_sequent(d.conclusion) + "}" + body)


def outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type and text of what it raises."""
    try:
        return fn(*args)
    except TransformError as e:
        return type(e), str(e)


@pytest.fixture(scope="module")
def corpus_files():
    return [load_derivation(path) for path in sorted(DATA_DIR.glob("*.deriv"))]


# --- fold ------------------------------------------------------------------------

def test_fold_makes_each_distinct_node_once():
    rf = node(R.RfPlus, parse_sequent("p ; |-+ p"))
    d = node(R.AndRPlus, parse_sequent("p ; |-+ p /\\ p"), [rf, rf])
    made = []

    def make(x, images):
        made.append((x, images))
        return len(made)

    assert fold(d, make) == 2
    assert made == [(rf, ()), (d, (1, 1))] and made[0][0] is rf
    made.clear()
    assert fold(rf, make) == 1 and made == [(rf, ())]
    made.clear()
    rq = node(R.RfPlus, parse_sequent("p, q ; |-+ q"))
    rp = node(R.RfPlus, parse_sequent("p, q ; |-+ p"))
    pq = node(R.AndRPlus, parse_sequent("p, q ; |-+ p /\\ q"), [rp, rq])
    assert fold(pq, make) == 3
    assert [x for x, _ in made] == [rp, rq, pq]     # premises first, in order
    made.clear()
    # a premise the walk leaves out is not made, and its node gets the images
    # of the premises the walk names only
    assert fold(pq, make, lambda x: x.premises[:1]) == 2
    assert made == [(rp, ()), (pq, (1,))]
    made.clear()
    # a premise left out under one node and visited under another is made once
    top = node(R.AndRPlus, parse_sequent("p, q ; |-+ (p /\\ q) /\\ p"), [pq, rp])
    assert fold(top, make, lambda x: (pq,) if x is top else x.premises) == 4
    assert made == [(rp, ()), (rq, ()), (pq, (1, 2)), (top, (3,))]
    made.clear()
    # a node whose walk names no premise is made at once, with no images
    assert fold(pq, make, lambda x: ()) == 1 and made == [(pq, ())]


def test_fold_visits_a_towers_shared_closer_once():
    d = tower(50)
    made = []
    fold(d, lambda x, images: made.append(x))
    closer = d.premises[1]
    assert len(made) == 52          # 50 ImpLa nodes, the bottom leaf, one closer
    assert sum(x is closer for x in made) == 1
    assert len({id(x) for x in made}) == 52


def test_the_maps_share_what_their_input_shares():
    rf = node(R.RfPlus, parse_sequent("p ; |-+ p"))
    d = node(R.AndRPlus, parse_sequent("p ; |-+ p /\\ p"), [rf, rf])
    w = weaken(d, q, Side.A)
    wc = weaken_context(d, Context.of(q), Context.of(TOP))
    u = unweaken_special(weaken(d, TOP, Side.A), TOP_IN_GAMMA)
    dd = dual_derivation(d)
    for out in (w, wc, u, dd):
        assert out.premises[0] is out.premises[1]
    assert u == d
    t = weaken(tower(20), q, Side.C)
    closers = []
    x = t
    while x.premises:
        closers.append(x.premises[1])
        x = x.premises[0]
    assert len(closers) == 20 and all(c is closers[0] for c in closers)


def test_invert_and_contract_transform_a_shared_premise_once(monkeypatch):
    rf = node(R.RfPlus, parse_sequent("p ; |-+ p"))
    d = node(R.AndRPlus, parse_sequent("p ; |-+ p /\\ p"), [rf, rf])
    qr = And(q, r)
    outs = [*invert(weaken(d, qr, Side.C), Side.C, qr),
            contract(weaken(weaken(d, q, Side.A), q, Side.A), q, Side.A)]
    for out in outs:
        assert out.premises[0] is out.premises[1]
    built = []
    monkeypatch.setattr(transform, "_node", lambda *a, **k: built.append(a) or _node(*a, **k))
    t = weaken(weaken(tower(50), qr, Side.C), q, Side.A)    # 52 distinct nodes
    doubled = weaken(t, q, Side.A)
    built.clear()
    assert len(invert(t, Side.C, qr)) == 2 and len(built) == 2 * 52
    built.clear()
    assert contract(doubled, q, Side.A).height == 50 and len(built) == 52
    # a tree of 2 ** 11 - 1 nodes held in 11 objects: each output holds one
    # node per object, where the recursive definitions build one per node
    por = Or(p, p)
    big = _doubling(10)
    grown, doubled = weaken(big, qr, Side.C), weaken(big, por, Side.A)
    built.clear()
    first, second = invert(grown, Side.C, qr)
    assert len(built) == 2 * 11 and first.premises[0] is first.premises[1]
    built.clear()
    out = contract(doubled, por, Side.A)
    # the root, and for each of its two premises the level below it, whose
    # 9 objects are contracted on p
    assert len(built) == 1 + 2 * 9 and out.conclusion == big.conclusion and out.valid


# --- stack-free at the default recursion limit ---------------------------------

def _spine(d):
    """The nodes down the first premise, root first."""
    while True:
        yield d
        if not d.premises:
            return
        d = d.premises[0]


def test_a_tower_of_height_ten_thousand_at_the_default_recursion_limit():
    assert sys.getrecursionlimit() == 1000
    d = tower(10_000)
    top = d.conclusion
    w = weaken(d, q, Side.A)
    assert w.height == 10_000 and w.conclusion.gamma == top.gamma.add(q)
    wc = weaken_context(d, Context.of(q), Context.of(BOT))
    assert wc.height == 10_000 and wc.conclusion.delta == Context.of(BOT)
    with_top = weaken(d, TOP, Side.A)
    u = unweaken_special(with_top, TOP_IN_GAMMA)
    assert u.height == 10_000 and u.valid
    assert all(x.conclusion == y.conclusion for x, y in zip(_spine(u), _spine(d), strict=True))
    dd = dual_derivation(d)
    assert dd.height == 10_000 and dd.valid
    latex = render_latex(d)
    assert latex.count(r"\infer") == 2 * 10_000 + 1
    assert latex.count("{") == latex.count("}")
    assert _rules_in(d) == {R.ImpLa, R.RfPlus}
    assert all(x.valid for x in (w, wc, u, dd))


def test_invert_and_contract_a_tower_at_the_default_recursion_limit():
    # the formula inverted or contracted is never principal in the tower, or
    # principal at every level, each node the kept premise of the one below
    assert sys.getrecursionlimit() == 1000
    d = tower(10_000)
    qr = And(q, r)
    outs = invert(weaken(d, qr, Side.C), Side.C, qr)
    assert [o.conclusion.delta for o in outs] == [Context.of(q), Context.of(r)]
    assert all(o.height == 10_000 and o.valid for o in outs)
    once = weaken(d, q, Side.A)
    c = contract(weaken(once, q, Side.A), q, Side.A)
    assert c.height == 10_000 and c.valid and c.conclusion == once.conclusion
    pp = Imp(p, p)
    c = contract(weaken(d, pp, Side.A), pp, Side.A)
    assert c.height == 10_000 and c.valid and c.conclusion == d.conclusion


def _implication_tower(height: int) -> Derivation:
    """``ImpLa`` on ``p -> q`` stacked ``height`` times on
    ``p -> q, p -> q, p ; |-+ p``, each node the kept premise of the one
    below, with its other premise closed on ``p -> q, q, p ; |-+ p``."""
    pq = Imp(p, q)
    top = parse_sequent("p -> q, p -> q, p ; |-+ p")
    d = node(R.RfPlus, top)
    for _ in range(height):
        d = node(R.ImpLa, top, (d, node(R.RfPlus, parse_sequent("p -> q, q, p ; |-+ p"))),
                 principal=pq)
    return d


def test_contraction_rebuilds_a_run_of_principal_nodes_in_one_loop():
    # the doubled formula is principal at every level of the tower, so the
    # whole run sits on the stack of ``_contract``'s one fold
    pq, once = Imp(p, q), parse_sequent("p -> q, p ; |-+ p")
    for height in range(2, 6):
        d = _implication_tower(height)
        assert contract(d, pq, Side.A) == ref_contract(d, pq, Side.A)
    assert sys.getrecursionlimit() == 1000
    c = contract(_implication_tower(3_000), pq, Side.A)
    assert c.valid and c.cut_count == 0 and c.height == 3_000 and c.conclusion == once
    for _ in range(3_000):
        c, closed = c.premises
        assert c.conclusion == once and closed.conclusion == parse_sequent("q, p ; |-+ p")


def test_contraction_inverts_a_premise_shared_by_two_principal_nodes_once(monkeypatch):
    # two distinct ImpLa nodes on p -> q share both premise objects; the
    # premise that does not keep the principal is inverted once per call, and
    # its image is one object in both outputs
    pq = Imp(p, q)
    kept = node(R.RfPlus, parse_sequent("p -> q, p -> q, p ; |-+ p"))
    other = node(R.RfPlus, parse_sequent("p -> q, q, p ; |-+ q"))
    a, b = (node(R.ImpLa, parse_sequent("p -> q, p -> q, p ; |-+ q"), (kept, other),
                 principal=pq) for _ in range(2))
    d = node(R.AndRPlus, parse_sequent("p -> q, p -> q, p ; |-+ q /\\ q"), (a, b))
    assert a is not b and d.valid
    calls = []
    inverse = transform._inverse
    monkeypatch.setattr(transform, "_inverse", lambda *args: calls.append(args) or inverse(*args))
    c = contract(d, pq, Side.A)
    assert len(calls) == 1
    assert c.valid and c.conclusion == parse_sequent("p -> q, p ; |-+ q /\\ q")
    assert c.premises[0].premises[1] is c.premises[1].premises[1]


def test_repr_of_a_tower_at_the_default_recursion_limit():
    # the root's rule, conclusion and height: no walk, and one line
    assert sys.getrecursionlimit() == 1000
    text = repr(tower(10_000))
    assert len(text) < 200 and "ImpLa" in text and "p, p -> p ; |-+ p" in text
    assert "10000" in text


def test_render_text_of_a_tower_at_the_default_recursion_limit():
    # a tower's text is quadratic in its height (two spaces per level): at
    # height 3,000 it is about 18 MB, three times what one frame per level allows
    assert sys.getrecursionlimit() == 1000
    text = render_text(tower(3_000))
    lines = text.split("\n")
    assert len(lines) == 2 * 3_000 + 1
    assert lines[0] == "[ImpLa] p, p -> p ; |-+ p"
    assert lines[3_000] == "  " * 3_000 + "[RfPlus] p, p -> p ; |-+ p"   # the bottom leaf
    assert lines[-1] == "  [RfPlus] p, p ; |-+ p"        # the root's closer


def _doubling(levels: int):
    """``OrLa`` stacked ``levels`` times, both premises of each node the same
    object: a tree of 2 ** (levels + 1) - 1 nodes held in ``levels + 1``."""
    por = Or(p, p)
    d = node(R.RfPlus, Sequent(Context.of(*[p] * (levels + 1)), Context(), PLUS, p))
    for i in range(1, levels + 1):
        conc = Sequent(Context.of(*[por] * i, *[p] * (levels + 1 - i)), Context(), PLUS, p)
        d = node(R.OrLa, conc, (d, d), principal=por)
    return d


def test_equality_of_towers_at_the_default_recursion_limit():
    assert sys.getrecursionlimit() == 1000
    for height in (2_000, 10_000):
        a, b = tower(height), tower(height)
        assert a is not b and a == b and not a != b and hash(a) == hash(b)
    a = tower(2_000)
    assert a != tower(2_000, bad_at=1_000) and a != tower(1_999) and a != dual_derivation(a)
    assert a != a.conclusion and a.__eq__(a.conclusion) is NotImplemented


def test_equality_compares_a_shared_pair_of_subproofs_once():
    a, b = _doubling(80), _doubling(80)        # trees of 2 ** 81 - 1 nodes
    assert a == b and hash(a) == hash(b)
    assert a != _doubling(79) and a.premises[0] == b.premises[1]


def test_equality_is_the_dataclass_equality(derivation_corpus):
    def ref(x, y):
        return (x.conclusion == y.conclusion and x.rule is y.rule
                and len(x.premises) == len(y.premises)
                and all(ref(u, v) for u, v in zip(x.premises, y.premises))
                and x.annotation == y.annotation)

    ds = derivation_corpus[:60]
    for x in ds:
        for y in ds:
            assert (x == y) == ref(x, y)
        twin = dual_derivation(dual_derivation(x))
        assert twin == x and ref(twin, x) and hash(twin) == hash(x)
    # nodes, and trees, that differ in their rule or their annotation alone
    s = parse_sequent("p, F ; |-+ p")
    rf, bot = node(R.RfPlus, s), node(R.BotLa, s)
    both = parse_sequent("p, F ; |-+ p /\\ p")
    pairs = [(rf, bot), (node(R.AndRPlus, both, [rf, rf]), node(R.AndRPlus, both, [rf, bot]))]
    conj = parse_sequent("p /\\ q ; |-+ p")
    below = node(R.RfPlus, parse_sequent("p, q ; |-+ p"))
    pairs.append((node(R.AndLa, conj, [below]), node(R.AndLa, conj, [below], principal=And(p, q))))
    for x, y in pairs:
        assert x.valid and y.valid and x != y and not ref(x, y)


def test_renderers_format_each_distinct_node_once(monkeypatch):
    d = _doubling(10)
    formatted = []
    monkeypatch.setattr(cli, "format_sequent", lambda s: formatted.append(s) or format_sequent(s))
    monkeypatch.setattr(cli, "_latex_sequent", lambda s: formatted.append(s) or _latex_sequent(s))
    text = render_text(d)
    assert len(formatted) == 11 and text.count("\n") == 2 ** 11 - 2
    formatted.clear()
    latex = render_latex(d)
    assert len(formatted) == 11 and latex.count(r"\infer") == 2 ** 11 - 1
    monkeypatch.undo()
    assert text == ref_render_text(d) and latex == ref_render_latex(d)


# --- the same results as the recursive definitions -------------------------------

_EXTRA = [p, Imp(p, q), And(q, TOP), TOP, BOT]


def test_weakenings_equal_the_recursive_definitions(derivation_corpus, corpus_files):
    checked = 0
    for d in derivation_corpus + corpus_files:
        for f in _EXTRA:
            for side in Side:
                assert outcome(weaken, d, f, side) == outcome(ref_weaken, d, f, side)
        for g, dl in ((Context.of(q, TOP), Context.of(BOT)), (Context(), Context.of(p, p)),
                      (Context(), Context())):
            assert outcome(weaken_context, d, g, dl) == outcome(ref_weaken_context, d, g, dl)
        for which, x, side in ((TOP_IN_GAMMA, TOP, Side.A), (BOT_IN_DELTA, BOT, Side.C)):
            assert (outcome(unweaken_special, d, which)
                    == outcome(ref_unweaken_special, d, which))
            w = weaken(d, x, side)
            assert outcome(unweaken_special, w, which) == outcome(ref_unweaken_special, w, which)
            assert unweaken_special(w, which) == d
        checked += 1
    assert checked == len(derivation_corpus) + len(corpus_files)


# the conclusion maps the weakenings and contraction were before each distinct
# context was edited once per call: one new conclusion per node, and a union
# that sorts every occurrence

def sorting_union(a, b):
    return a if not b else Context.from_iter(a + b)


def map_weaken(d, extra, side):
    _require_input(d, "weaken")
    if side is Side.A:
        return _map_conclusions(d, lambda s: Sequent(s.gamma.add(extra), s.delta,
                                                     s.polarity, s.succedent))
    return _map_conclusions(d, lambda s: Sequent(s.gamma, s.delta.add(extra),
                                                 s.polarity, s.succedent))


def map_weaken_context(d, gamma_extra=Context(), delta_extra=Context()):
    _require_input(d, "weaken_context")
    if not gamma_extra and not delta_extra:
        return d
    return _map_conclusions(d, lambda s: Sequent(sorting_union(s.gamma, gamma_extra),
                                                 sorting_union(s.delta, delta_extra),
                                                 s.polarity, s.succedent))


def map_unweaken_special(d, which):
    _require_input(d, "unweaken_special")
    if which is SpecialWeakening.TOP_IN_GAMMA:
        if TOP not in d.conclusion.gamma:
            raise TransformError("unweaken_special: no T among the assumptions")
        return _map_conclusions(d, lambda s: _drop_one(s, TOP, Side.A))
    if BOT not in d.conclusion.delta:
        raise TransformError("unweaken_special: no F among the counterassumptions")
    return _map_conclusions(d, lambda s: _drop_one(s, BOT, Side.C))


def map_contract(d, dup, side):
    _require_input(d, "contract")
    ctx = d.conclusion.gamma if side is Side.A else d.conclusion.delta
    if ctx.count(dup) < 2:
        raise TransformError(
            f"contract: fewer than two occurrences of {format_formula(dup)} "
            f"on side {side.value}")
    return fold(d, lambda x, premises: (map_contract_principal(x, dup, side)
                                        if _principal_here(x, side, dup) else
                                        _node(x.rule, _drop_one(x.conclusion, dup, side),
                                              premises, annotation=x.annotation)),
                lambda x: () if _principal_here(x, side, dup) else x.premises)


def map_contract_principal(d, dup, side):
    operands = (dup.left, dup.right)
    templates = SCHEMA[d.rule].premises
    kept = next((j for j, t in enumerate(templates) if t.keeps), None)
    run = [d]
    while kept is not None and _principal_here(run[-1].premises[kept], side, dup):
        run.append(run[-1].premises[kept])
    image = None if kept is None else map_contract(run[-1].premises[kept], dup, side)
    for x in reversed(run):
        premises = []
        for j, (p, t) in enumerate(zip(x.premises, templates)):
            if t.keeps:
                premises.append(image)
                continue
            p = _inverse(p, side, dup, j)
            for i in t.gamma:
                p = map_contract(p, operands[i], Side.A)
            for i in t.delta:
                p = map_contract(p, operands[i], Side.C)
            premises.append(p)
        image = _node(x.rule, _drop_one(x.conclusion, dup, side), premises, principal=dup)
    return image


def context_objects(d):
    """The number of distinct context objects in the conclusions of ``d``,
    counted on each side (an empty Gamma may be the same object as Delta)."""
    seen = {}
    fold(d, lambda x, _: seen.update({(Side.A, id(x.conclusion.gamma)): x.conclusion.gamma,
                                      (Side.C, id(x.conclusion.delta)): x.conclusion.delta}))
    return len(seen)


def _principal_somewhere(d, side, f):
    return fold(d, lambda x, above: _principal_here(x, side, f) or any(above))


def test_mapping_transforms_equal_the_conclusion_maps(derivation_corpus, corpus_files):
    # the same output, node for node and byte for byte, with no more distinct
    # contexts than the input.  Where contraction meets its formula as a
    # principal, it contracts the operands above by calls of its own, each
    # with its own memo; that output holds no more than the map's.
    checked = nested = 0

    def same(fn, ref, d, *args, own_calls=False):
        nonlocal checked
        got, want = outcome(fn, d, *args), outcome(ref, d, *args)
        assert got == want
        if isinstance(got, Derivation):
            assert dumps_derivation(got) == dumps_derivation(want)
            assert context_objects(got) <= context_objects(want)
            assert own_calls or context_objects(got) <= context_objects(d)
            checked += 1

    for d in derivation_corpus + corpus_files:
        for f in _EXTRA:
            for side in Side:
                same(weaken, map_weaken, d, f, side)
        for g, dl in ((Context.of(q, TOP), Context.of(BOT)), (Context(), Context.of(p, p)),
                      (Context.of(*_EXTRA), Context()), (Context(), Context())):
            same(weaken_context, map_weaken_context, d, g, dl)
        for which, x, side in ((TOP_IN_GAMMA, TOP, Side.A), (BOT_IN_DELTA, BOT, Side.C)):
            same(unweaken_special, map_unweaken_special, d, which)
            same(unweaken_special, map_unweaken_special, weaken(d, x, side), which)
        for side in Side:
            ctx = d.conclusion.gamma if side is Side.A else d.conclusion.delta
            for f in [*ctx.distinct(), p, And(p, q)]:
                own_calls = _principal_somewhere(d, side, f)
                nested += own_calls
                same(contract, map_contract, d, f, side, own_calls=own_calls)
                doubled = weaken(d if f in ctx else weaken(d, f, side), f, side)
                same(contract, map_contract, doubled, f, side, own_calls=own_calls)
    assert checked > 5_000 and nested > 50, (checked, nested)


def test_mapping_transforms_edit_each_distinct_context_once():
    # a tower holds three context objects at any height: its two Gammas and
    # its one Delta, since parse_sequent reads every empty side as the one
    # EMPTY; each map of it holds no more, and a side that a map leaves alone
    # keeps its objects
    d = tower(200)
    n = context_objects(d)
    pp = Imp(p, p)
    outs = [weaken(d, q, Side.A), weaken(d, q, Side.C),
            weaken_context(d, Context.of(q, r), Context.of(BOT)),
            unweaken_special(weaken(d, TOP, Side.A), TOP_IN_GAMMA),
            contract(weaken(weaken(d, q, Side.C), q, Side.C), q, Side.C),
            contract(weaken(d, pp, Side.A), pp, Side.A)]
    assert n == context_objects(tower(3)) == 3
    for out in outs:
        assert out.height == 200 and context_objects(out) <= n
    assert all(x.conclusion.gamma is y.conclusion.gamma
               for x, y in zip(_spine(outs[1]), _spine(d), strict=True))


def test_nested_contractions_keep_equal_contexts_one_object(derivation_corpus, corpus_files):
    # weaken, then contract, each distinct formula of each side: no output
    # holds more distinct contexts than its input, also where contraction
    # meets the formula as a principal and contracts its operands above
    contractions = nested = 0
    for d in derivation_corpus + corpus_files:
        for side in Side:
            ctx = d.conclusion.gamma if side is Side.A else d.conclusion.delta
            for f in ctx.distinct():
                doubled = weaken(d, f, side)
                assert context_objects(contract(doubled, f, side)) <= context_objects(doubled)
                contractions += 1
                nested += _principal_somewhere(d, side, f)
    assert contractions > 500 and nested > 30, (contractions, nested)


def _seeded():
    """Random derivations beside the session corpus, from other seeds."""
    return [random_derivation(seed, size) for seed in range(300, 400) for size in (6, 14)]


def test_invert_and_contract_equal_the_recursive_definitions(derivation_corpus, corpus_files):
    targets = [And(p, q), Or(q, r), Imp(p, q), Coimp(q, p), And(p, p), Imp(TOP, q)]
    checked = principal = 0
    for d in derivation_corpus + corpus_files + _seeded():
        for side in Side:
            ctx = d.conclusion.gamma if side is Side.A else d.conclusion.delta
            for f in [*ctx.distinct(), *targets, p]:
                grown = d if f in ctx else weaken(d, f, side)
                assert outcome(invert, grown, side, f) == outcome(ref_invert, grown, side, f)
                doubled = weaken(grown, f, side)
                assert (outcome(contract, doubled, f, side)
                        == outcome(ref_contract, doubled, f, side))
                assert outcome(contract, grown, f, side) == outcome(ref_contract, grown, f, side)
                principal += f in ctx and any(_principal_here(x, side, f) for x in _spine(d))
                checked += 1
    assert checked > 5_000 and principal > 100
    # a run of nodes that decompose the formula, each the kept premise of the
    # one below: ImpLa in a tower, CoimpLc in its dual
    for d, side, f in ((tower(300), Side.A, Imp(p, p)),
                       (dual_derivation(tower(300)), Side.C, Coimp(p, p))):
        grown = weaken(d, f, side)
        assert contract(grown, f, side) == ref_contract(grown, f, side)


def test_entry_errors_equal_the_recursive_definitions():
    rf = node(R.RfPlus, parse_sequent("p ; q |-+ p"))
    split = ContextSplit(Context.of(p), Context.of(q), Context(), Context.of(q))
    cut = node(R.CutA, parse_sequent("p ; q, q |-+ p"), [rf, rf],
               annotation=Annotation(cut_formula=p, context_split=split))
    invalid = node(R.RfMinus, parse_sequent("p ; |-+ p"))
    for d in (cut, invalid, rf):
        assert outcome(weaken, d, q, Side.A) == outcome(ref_weaken, d, q, Side.A)
        assert (outcome(weaken_context, d, Context(), Context())
                == outcome(ref_weaken_context, d, Context(), Context()))
        for which in SpecialWeakening:
            assert (outcome(unweaken_special, d, which)
                    == outcome(ref_unweaken_special, d, which))
        for f in (p, q, And(p, q)):
            assert outcome(invert, d, Side.A, f) == outcome(ref_invert, d, Side.A, f)
            assert outcome(contract, d, f, Side.C) == outcome(ref_contract, d, f, Side.C)
    assert isinstance(outcome(weaken, cut, q, Side.A)[1], str)


def test_renderers_equal_the_recursive_definitions(derivation_corpus, corpus_files):
    for d in derivation_corpus + corpus_files:
        assert render_text(d) == ref_render_text(d)
        assert render_latex(d) == ref_render_latex(d)


def test_rules_in_equals_the_recursive_definition(derivation_corpus, corpus_files):
    def ref(d):
        out = {d.rule}
        for x in d.premises:
            out |= ref(x)
        return out

    for d in derivation_corpus + corpus_files:
        assert _rules_in(d) == ref(d)


# --- what still recurses ---------------------------------------------------------

#: functions of ``bint`` on a cycle of their module's call graph: formula walks,
#: the document writer and reader, contraction, identity expansion,
#: the cut eliminator, the proof constructor and the decider.  Remove an entry
#: when its recursion goes; a new entry is a new recursion.
RECURSIVE = {
    "decide._decide", "decide._sequent", "decide.derives", "decide.signed",
    "search._apply", "search.build",
    "serialize.derivation",
    "transform._identity_step",
    "transform._permute_left", "transform._permute_right", "transform._principal",
    "transform._contract", "transform.derive_identity", "transform.run",
}


def _on_cycles(path: Path) -> set[str]:
    """Functions of one module that can reach themselves, counting a call by
    its bare name (``f(...)``) or as ``self.f(...)``; a function's calls
    include those of the functions and lambdas written inside it."""
    calls: dict[str, set[str]] = {}
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out = calls.setdefault(fn.name, set())
            for c in ast.walk(fn):
                if not isinstance(c, ast.Call):
                    continue
                if isinstance(c.func, ast.Name):
                    out.add(c.func.id)
                elif (isinstance(c.func, ast.Attribute) and isinstance(c.func.value, ast.Name)
                      and c.func.value.id == "self"):
                    out.add(c.func.attr)
    found = set()
    for start in calls:
        seen, stack = set(), [start]
        while stack:
            for n in calls[stack.pop()] & calls.keys():
                if n == start:
                    found.add(start)
                elif n not in seen:
                    seen.add(n)
                    stack.append(n)
    return found


def test_the_recursive_functions_are_pinned():
    src = Path(bint.__file__).parent
    found = {f"{path.stem}.{name}" for path in sorted(src.glob("*.py"))
             for name in _on_cycles(path)}
    assert not found - RECURSIVE, f"new recursion: {sorted(found - RECURSIVE)}"
    assert not RECURSIVE - found, f"no longer recursive, unpin: {sorted(RECURSIVE - found)}"


def test_weight_and_dual_formula_take_a_formula_of_any_depth():
    assert sys.getrecursionlimit() == 1000
    f = p
    for i in range(10_000):
        f = (Imp, Coimp, And, Or)[i % 4](f, q)
    assert weight(f) == 20_001
    dual = {Imp: Coimp, Coimp: Imp, And: Or, Or: And}
    x, y = f, dual_formula(f)
    while x is not p:
        assert type(y) is dual[type(x)]
        if isinstance(x, (Imp, Coimp)):    # an arrow's operands trade places
            assert y.left is q
            x, y = x.left, y.right
        else:
            assert y.right is q
            x, y = x.left, y.left
    assert y is p


def test_a_formula_of_any_depth_prints_as_text_and_as_latex():
    assert sys.getrecursionlimit() == 1000
    f = p
    for i in range(10_000):     # every connective, on the left and on the right
        cls = (Imp, Coimp, And, Or)[i % 4]
        f = cls(f, q) if i % 8 < 4 else cls(q, f)
    text = format_formula(f)
    below = f.right     # the last level nests on the right
    assert f._text is text and below._text is None     # kept on the root only
    back = parse_formula(text)
    assert back is f     # one object per formula, so ``is`` compares the trees
    latex = cli._latex_formula(f)
    assert latex.count("(") == latex.count(")") == 10_000
    assert all(latex.count(op) == 2_500 for op in (r"\wedge", r"\vee", r"\rightarrow", r"\Yleft"))


def test_the_formula_printers_equal_the_recursive_definitions():
    rng = random.Random(SEED)
    for _ in range(2_000):
        f = random_formula(rng, rng.randint(1, 12))
        sub = f     # printed first, a subformula is a leaf of the walk that prints f
        while isinstance(sub, BINARY) and rng.random() < 0.7:
            sub = rng.choice((sub.left, sub.right))
        if rng.random() < 0.5:
            assert format_formula(sub) == ref_format_formula(sub)
        text = format_formula(f)
        assert text == ref_format_formula(f)
        assert format_formula(f) is text == f._text    # the second call reads the kept text
        assert cli._latex_formula(f) == ref_latex_formula(f)


def test_the_cycle_finder_sees_direct_and_mutual_recursion(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("def f(x):\n    return f(x)\n"
                    "def g():\n    return h()\n"
                    "def h():\n    return (lambda: g())()\n"
                    "class C:\n    def a(self):\n        return self.b()\n"
                    "    def b(self):\n        return self.a()\n"
                    "def leaf():\n    return f(1)\n")
    assert _on_cycles(path) == {"f", "g", "h", "a", "b"}
