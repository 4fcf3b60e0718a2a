import dataclasses
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from bint.syntax import BOT, And, Atom, FormulaSyntaxError, Imp, parse_formula
from bint.kernel import (
    CLOSERS, MINUS, Annotation, Context, ContextSplit, Derivation, RuleId as R, Sequent,
    Side, Violation, backward_expansions, check_derivation, check_rule_instance, closing_rules,
    cut_height, dual_context, dual_derivation, dual_formula, dual_sequent, format_sequent,
    infer_principal, node, parse_sequent, _zero_premise_failure,
)
from bint import corpus, kernel, syntax
from bint.serialize import dumps_derivation, load_derivation, loads_derivation
from bint.transform import TransformError, derive_identity, weaken
from conftest import SEED, contexts, formulas, polarities, random_sequent, sequents, tower

p, q = Atom("p"), Atom("q")


# --- contexts ------------------------------------------------------------------

def test_context_is_a_multiset():
    a = Context.of(p, q, p)
    b = Context.of(q, p, p)
    assert a == b
    assert a.count(p) == 2 and len(a) == 3
    assert a.remove(p).count(p) == 1
    with pytest.raises(KeyError):
        Context.of(q).remove(p)


def test_context_union_adds_counts():
    assert Context.of(p).union(Context.of(p, q)).count(p) == 2


@given(contexts, formulas(max_leaves=2))
def test_context_add_remove_inverse(ctx, f):
    assert ctx.add(f).remove(f) == ctx


_occurrences = st.lists(formulas(max_leaves=2), max_size=5)


@given(_occurrences, _occurrences, formulas(max_leaves=2), st.integers(1, 3))
@settings(max_examples=300)
def test_context_matches_a_counter_model(xs, ys, f, n):
    a, b = Context.from_iter(xs), Context.from_iter(ys)
    ma, mb = Counter(xs), Counter(ys)
    model = lambda ctx: Counter(ctx.expand())
    assert model(a) == ma and len(a) == len(xs)
    for g in xs + ys + [f]:
        assert a.count(g) == ma[g] and (g in a) == (ma[g] > 0)
    assert model(a.add(f, n)) == ma + Counter({f: n})
    assert model(a.union(b)) == ma + mb
    if ma[f] >= n:
        assert model(a.remove(f, n)) == ma - Counter({f: n})
    else:
        with pytest.raises(KeyError):
            a.remove(f, n)
    assert (a == b) == (ma == mb)
    same = Context.from_iter(reversed(xs))
    assert a == same and hash(a) == hash(same)
    keys = [g.key for g in a.expand()]
    assert keys == sorted(keys)
    assert list(a.distinct()) == [g for i, g in enumerate(a.expand())
                                  if i == 0 or a.expand()[i - 1] != g]


def test_union_equals_the_sorted_concatenation():
    # a short side is inserted into a long one by bisection, other sides are
    # sorted together; both must give what sorting every occurrence gives, down to
    # which of two equal formula objects comes first
    rng = random.Random(SEED + 5)
    texts = ("p", "q", "r", "F", "T", "p /\\ q", "q \\/ F", "p -> q", "r -< T",
             "(p -> q) /\\ r")
    sizes = (0, 1, 2, 3, 4, 5, 8, 30)
    seen = Counter()
    for _ in range(6_000):
        # each occurrence its own object, so that equal formulas are told apart
        xs = [parse_formula(rng.choice(texts)) for _ in range(rng.choice(sizes))]
        ys = [parse_formula(rng.choice(texts)) for _ in range(rng.choice(sizes))]
        a, b = Context.from_iter(xs), Context.from_iter(ys)
        for x, y in ((a, b), (b, a)):
            got, want = x.union(y), Context.from_iter(x.items + y.items)
            assert got == want and all(g is w for g, w in zip(got.items, want.items))
        short, long = sorted((len(xs), len(ys)))
        inserted = short <= kernel._SHORT and 4 * short <= long
        seen["an empty side"] += short == 0
        seen["a short side inserted"] += 0 < short and inserted
        seen["both sides sorted"] += not inserted
        seen["repeats on both sides"] += len(set(xs)) < len(xs) and len(set(ys)) < len(ys)
    assert len(seen) == 4 and min(seen.values()) > 500, seen


def test_union_with_an_empty_side_is_the_other_context():
    a = Context.of(p, q, p)
    for empty in (Context(), Context.from_iter([]), kernel.EMPTY):
        assert a.union(empty) is a and empty.union(a) is a
    assert kernel.EMPTY.union(Context()) is kernel.EMPTY


def test_equal_contexts_hash_equal():
    fs = [parse_formula(t) for t in ("p -> q", "p", "q /\\ p", "p", "F")]
    a = Context.from_iter(fs)
    b = Context.from_iter(reversed(fs))
    c = Context.of(p).union(Context.from_iter(fs).remove(p))
    assert a is not b and a == b == c
    assert hash(a) == hash(b) == hash(c) == hash(a) and {a: 1}[c] == 1


def test_the_cached_hash_is_not_a_field():
    a, b = Context.of(p, q), Context.of(q, p)
    hash(a)
    assert a._hash is not None and b._hash is None
    assert "_hash" not in {f.name for f in dataclasses.fields(Context)}
    assert a == b and repr(a) == repr(b) and "_hash" not in repr(a)
    object.__setattr__(b, "_hash", hash(a) + 1)     # a stored hash is not compared
    assert a == b


# --- sequent text ----------------------------------------------------------------

def test_sequent_round_trip():
    s = parse_sequent("p, p, q ; r |-+ p -> q")
    assert s.gamma.count(p) == 2
    assert parse_sequent(format_sequent(s)) == s


def test_empty_sides():
    s = parse_sequent("; |-- F")
    assert s.gamma.is_empty() and s.delta.is_empty() and s.polarity is MINUS


@given(sequents)
def test_sequent_format_parses_back(s):
    assert parse_sequent(format_sequent(s)) == s


_wide_contexts = st.lists(formulas(max_leaves=5), max_size=6).map(Context.from_iter)


@given(st.builds(Sequent, _wide_contexts, _wide_contexts, polarities, formulas()))
def test_wide_sequent_text_round_trips(s):
    text = format_sequent(s)
    assert parse_sequent(text) == s
    assert format_sequent(parse_sequent(text)) == text


@pytest.mark.parametrize("text, position", [
    ("p q ; |-+ r", 2),
    ("p ;; q |-+ r", 3),
    ("p, , q ; |-+ r", 3),
    ("p ; q", 5),
    ("p ; q |-+", 9),
    ("p ; q |-+ r |-- s", 12),
    ("p @ q ; |-+ r", 2),
    ("; |-+ p ; q", 8),
    ("|-+ p", 0),
    (", p ; |-+ q", 0),
    ("p -> ; |-+ q", 5),
    ("(p ; |-+ q", 3),
    ("p ; q r |-- s", 6),
    ("p |- q ; |-+ r", 2),
    ("p ; |-+ q r", 10),
    ("p ; |-+ q -> r -< s", 15),
    ("p ; |-+ (q", 10),
    ("p q ; |-+ r @", 12),    # an unknown character anywhere is reported first
    ("p ;  |-+", 8),
    ("", 0),
    (";", 1),
    ("p ; q |-+ r,", 11),
])
def test_malformed_sequents_are_rejected_where_they_go_wrong(text, position):
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_sequent(text)
    assert exc.value.position == position


# --- rule instance checking --------------------------------------------------------

def test_rf_plus_instance():
    s = parse_sequent("p ; |-+ p")
    assert check_rule_instance(s, R.RfPlus, []) is None


def test_shared_context_enforced():
    conc = parse_sequent("; |-+ p /\\ q")
    bad = [parse_sequent("; |-+ p"), parse_sequent("; q |-+ q")]
    v = check_rule_instance(conc, R.AndRPlus, bad)
    assert isinstance(v, Violation)


def test_imp_la_repeats_principal():
    conc = parse_sequent("p -> q ; |-+ q")
    good = [parse_sequent("p -> q ; |-+ p"), parse_sequent("q ; |-+ q")]
    assert check_rule_instance(conc, R.ImpLa, good) is None
    # dropping the repetition violates the schema
    bad = [parse_sequent("; |-+ p"), parse_sequent("q ; |-+ q")]
    assert check_rule_instance(conc, R.ImpLa, bad) is not None


def test_right_rule_principal_must_be_the_succedent():
    conc = parse_sequent("p, q ; |-+ p /\\ q")
    rf = [node(R.RfPlus, parse_sequent("p, q ; |-+ p")),
          node(R.RfPlus, parse_sequent("p, q ; |-+ q"))]
    r = Atom("r")
    assert not check_derivation(node(R.AndRPlus, conc, rf, principal=Imp(r, r))).valid
    assert check_derivation(node(R.AndRPlus, conc, rf, principal=And(p, q))).valid


def test_polarity_constraints():
    assert check_rule_instance(parse_sequent("p ; |-- p"), R.RfPlus, []) is not None
    assert check_rule_instance(parse_sequent("; |-- T"), R.TopRPlus, []) is not None
    assert check_rule_instance(parse_sequent("; |-- F"), R.BotRMinus, []) is None


def test_non_atomic_axiom_rejected():
    assert check_rule_instance(parse_sequent("p /\\ q ; |-+ p /\\ q"), R.RfPlus, []) is not None


def test_arity_checked():
    v = check_rule_instance(parse_sequent("p ; |-+ p"), R.RfPlus, [parse_sequent("p ; |-+ p")])
    assert v is not None and "arity" in v.message


# --- derivation checking ------------------------------------------------------------

def test_axiom_height_zero():
    d = node(R.RfPlus, parse_sequent("p ; |-+ p"))
    report = check_derivation(d)
    assert report.valid and report.height == 0 and report.cut_count == 0


def test_two_step_low_weight_identity():
    d = node(R.AndLa, parse_sequent("F /\\ F ; |-+ F /\\ F"),
             [node(R.BotLa, parse_sequent("F, F ; |-+ F /\\ F"))],
             principal=And(BOT, BOT))
    report = check_derivation(d)
    assert report.valid and report.height == 1 and report.cut_count == 0


def _cut_node():
    rf = node(R.RfPlus, parse_sequent("p ; |-+ p"))
    split = ContextSplit(Context.of(p), Context(), Context(), Context())
    conc = parse_sequent("p ; |-+ p")
    return node(R.CutA, conc, [rf, rf],
                annotation=Annotation(cut_formula=p, context_split=split))


def test_cut_node_checks_and_counts():
    d = _cut_node()
    report = check_derivation(d)
    assert report.valid and report.cut_count == 1
    assert cut_height(d) == 0


def test_cut_height_requires_cut():
    with pytest.raises(ValueError):
        cut_height(node(R.RfPlus, parse_sequent("p ; |-+ p")))


def test_cut_without_split_rejected():
    rf = node(R.RfPlus, parse_sequent("p ; |-+ p"))
    d = node(R.CutA, parse_sequent("p ; |-+ p"), [rf, rf])
    assert not check_derivation(d).valid


def test_cut_with_wrong_split_rejected():
    rf = node(R.RfPlus, parse_sequent("p ; |-+ p"))
    bad_split = ContextSplit(Context.of(Atom("q")), Context(), Context(), Context())
    d = node(R.CutA, parse_sequent("p ; |-+ p"), [rf, rf],
             annotation=Annotation(cut_formula=p, context_split=bad_split))
    report = check_derivation(d)
    assert not report.valid
    assert "recompose" in report.first_violation[1].message


def test_violation_path_reported():
    bad = node(R.AndRPlus, parse_sequent("; |-+ p /\\ q"),
               [node(R.RfPlus, parse_sequent("; |-+ p")),
                node(R.RfPlus, parse_sequent("; |-+ q"))])
    report = check_derivation(bad)
    assert not report.valid
    path, violation = report.first_violation
    assert "premises" in path and violation.rule is R.RfPlus


def _recursive_first_violation(d, trail=None):
    """The checker's walk as it was written before it kept its own stack or
    read ``valid``: every node checked, in pre-order.  The path is held as
    (premise index, the parent's trail) and written out at the violation, so
    a walk 10^4 nodes deep holds no long strings."""
    v = check_rule_instance(d.conclusion, d.rule, [x.conclusion for x in d.premises],
                            d.annotation)
    if v is not None:
        steps = []
        while trail is not None:
            i, trail = trail
            steps.append(f"premises[{i}]")
        return ".".join(reversed(steps)), v
    for i, x in enumerate(d.premises):
        sub = _recursive_first_violation(x, (i, trail))
        if sub is not None:
            return sub
    return None


def test_checker_walks_a_tall_tower_at_the_default_recursion_limit():
    report = check_derivation(tower(2000))
    assert report.valid and report.height == 2000


def _corrupt(d, rng):
    """``d`` with the polarity of about one conclusion in twelve flipped, so
    that those nodes, or their parents, break their rule."""
    premises = tuple(_corrupt(x, rng) for x in d.premises)
    conclusion = d.conclusion
    if rng.random() < 0.08:
        conclusion = Sequent(conclusion.gamma, conclusion.delta,
                             conclusion.polarity.flip(), conclusion.succedent)
    return node(d.rule, conclusion, premises, annotation=d.annotation)


def test_violation_paths_match_the_recursive_walk(derivation_corpus):
    rng = random.Random(SEED)
    trees = [_corrupt(d, rng) for d in derivation_corpus]
    trees += [tower(1500, bad_at=rng.randrange(1, 1500)) for _ in range(3)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10_000)
    try:
        expected = [_recursive_first_violation(d) for d in trees]
    finally:
        sys.setrecursionlimit(limit)
    assert sum(e is not None for e in expected) > 50
    assert [check_derivation(d).first_violation for d in trees] == expected


def test_valid_is_not_a_constructor_argument():
    s = parse_sequent("; |-+ p")
    with pytest.raises(TypeError):
        Derivation(s, R.RfPlus, valid=True)
    assert not Derivation(s, R.RfPlus).valid


def test_valid_agrees_with_the_recursive_walk(derivation_corpus):
    rng = random.Random(SEED)
    corrupt = [_corrupt(d, rng) for d in derivation_corpus]
    trees = derivation_corpus + corrupt
    assert [d.valid for d in trees] == [_recursive_first_violation(d) is None for d in trees]
    assert sum(not d.valid for d in corrupt) > 50
    # nodes built by duality and by loading are checked like any other
    assert [dual_derivation(d).valid for d in trees] == [d.valid for d in trees]
    assert [loads_derivation(dumps_derivation(d)).valid for d in trees] == [
        d.valid for d in trees]


@pytest.mark.parametrize("bad_at", [-1, 1, 2, 4_321, 9_999, 10_000])
def test_tall_towers_agree_with_the_recursive_walk(bad_at):
    d = tower(10_000, bad_at)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(25_000)
    try:
        expected = _recursive_first_violation(d)
    finally:
        sys.setrecursionlimit(limit)
    assert d.valid == (expected is None) == (bad_at == -1)
    assert check_derivation(d).first_violation == expected
    if not d.valid:
        # read, not walked: refused at the default recursion limit
        with pytest.raises(TransformError, match="not checker-valid"):
            weaken(d, q, Side.A)


# --- backward expansions -------------------------------------------------------------

def test_top_closes():
    out = backward_expansions(parse_sequent("; |-+ T"))
    assert any(e.rule is R.TopRPlus and e.premises == () for e in out)


def test_disjunction_choices():
    out = backward_expansions(parse_sequent("p ; |-+ p \\/ q"))
    got = {(e.rule, e.premises) for e in out}
    assert (R.OrRPlus1, (parse_sequent("p ; |-+ p"),)) in got
    assert (R.OrRPlus2, (parse_sequent("p ; |-+ q"),)) in got


def test_imp_lc_backward():
    out = backward_expansions(parse_sequent("; p -> q |-- r"))
    assert any(e.rule is R.ImpLc and e.premises == (parse_sequent("p ; q |-- r"),)
               for e in out)


@given(sequents)
@settings(max_examples=150)
def test_expansions_pass_the_checker(s):
    for e in backward_expansions(s):
        assert check_rule_instance(s, e.rule, e.premises, e.annotation) is None


def test_infer_principal():
    d = node(R.AndLa, parse_sequent("p /\\ q ; |-+ p"),
             [node(R.RfPlus, parse_sequent("p, q ; |-+ p"))])
    assert infer_principal(d) == And(p, q)


def test_formulas_and_derivations_are_frozen():
    d = node(R.RfPlus, parse_sequent("p ; |-+ p"))
    for obj, name in ((p, "name"), (Imp(p, q), "left"), (Imp(p, q), "key"), (d, "rule"),
                      (d, "valid")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, q)


# --- duality ---------------------------------------------------------------------------

def test_dual_formula_table():
    f = parse_formula("(p -> q) /\\ (F -< T)")
    assert dual_formula(f) == parse_formula("(q -< p) \\/ (F -> T)")


@given(formulas())
def test_dual_formula_involution(f):
    assert dual_formula(dual_formula(f)) == f


@given(sequents)
def test_dual_sequent_involution(s):
    assert dual_sequent(dual_sequent(s)) == s


def test_dual_sequent_swaps_zones_and_polarity():
    s = parse_sequent("p ; q |-+ r")
    assert format_sequent(dual_sequent(s)) == "q ; p |-- r"


@given(contexts, contexts, formulas(max_leaves=3), polarities)
@settings(max_examples=60)
def test_dual_derivation_of_identity_is_valid(g, d, c, pol):
    deriv = derive_identity(g, d, c, pol)
    dual = dual_derivation(deriv)
    report = check_derivation(dual)
    assert report.valid
    assert dual.height == deriv.height
    assert dual.conclusion == dual_sequent(deriv.conclusion)


def test_dual_rule_table_follows_from_the_schema():
    # the hand-written table the kernel derives from SCHEMA
    assert kernel.DUAL_RULE == {
        R.RfPlus: R.RfMinus, R.RfMinus: R.RfPlus,
        R.BotLa: R.TopLc, R.TopLc: R.BotLa,
        R.BotRMinus: R.TopRPlus, R.TopRPlus: R.BotRMinus,
        R.AndRPlus: R.OrRMinus, R.OrRMinus: R.AndRPlus,
        R.AndRMinus1: R.OrRPlus1, R.OrRPlus1: R.AndRMinus1,
        R.AndRMinus2: R.OrRPlus2, R.OrRPlus2: R.AndRMinus2,
        R.AndLa: R.OrLc, R.OrLc: R.AndLa,
        R.AndLc: R.OrLa, R.OrLa: R.AndLc,
        R.ImpRPlus: R.CoimpRMinus, R.CoimpRMinus: R.ImpRPlus,
        R.ImpRMinus: R.CoimpRPlus, R.CoimpRPlus: R.ImpRMinus,
        R.ImpLa: R.CoimpLc, R.CoimpLc: R.ImpLa,
        R.ImpLc: R.CoimpLa, R.CoimpLa: R.ImpLc,
        R.CutA: R.CutC, R.CutC: R.CutA,
    }
    assert kernel._DUAL_SWAPS_PREMISES == frozenset((R.ImpRMinus, R.CoimpRPlus))


def reference_dual(d: Derivation) -> Derivation:
    """``dual_derivation`` as it was: recursive, every part dualized afresh."""
    premises = tuple(reference_dual(p) for p in d.premises)
    if d.rule in kernel._DUAL_SWAPS_PREMISES:
        premises = premises[::-1]
    ann = None
    if d.annotation is not None:
        sp = d.annotation.context_split
        ann = Annotation(
            principal=dual_formula(d.annotation.principal) if d.annotation.principal else None,
            cut_formula=dual_formula(d.annotation.cut_formula) if d.annotation.cut_formula else None,
            context_split=ContextSplit(
                gamma=dual_context(sp.delta),
                delta=dual_context(sp.gamma),
                gamma_prime=dual_context(sp.delta_prime),
                delta_prime=dual_context(sp.gamma_prime),
            ) if sp is not None else None,
        )
    return Derivation(dual_sequent(d.conclusion), kernel.DUAL_RULE[d.rule], premises, ann)


def _cut(left: Derivation, right: Derivation, dfm, variant: R) -> Derivation:
    l, r = left.conclusion, right.conclusion
    gp, dp = (r.gamma.remove(dfm), r.delta) if variant is R.CutA else (r.gamma, r.delta.remove(dfm))
    split = ContextSplit(l.gamma, l.delta, gp, dp)
    return node(variant, Sequent(l.gamma.union(gp), l.delta.union(dp), r.polarity, r.succedent),
                [left, right], annotation=Annotation(cut_formula=dfm, context_split=split))


def test_dual_derivation_matches_the_reference(derivation_corpus, cut_pairs):
    golden = [load_derivation(path) for path in sorted(corpus.DATA_DIR.glob("*.deriv"))]
    cuts = [_cut(*pair, variant) for variant, pairs in cut_pairs.items() for pair in pairs[:50]]
    assert all(check_derivation(d).valid for d in cuts)
    for d in derivation_corpus + golden + cuts:
        dd = dual_derivation(d)
        assert dd == reference_dual(d)
        assert dual_derivation(dd) == d


def _nodes(d: Derivation):
    stack = [d]
    while stack:
        x = stack.pop()
        yield x
        stack += x.premises


def test_dual_derivation_dualizes_each_part_once(monkeypatch, derivation_corpus):
    built = Counter()
    init = syntax._Binary.__init__

    def counted_formula(self, left, right):
        init(self, left, right)
        built[self] += 1

    monkeypatch.setattr(syntax._Binary, "__init__", counted_formula)
    compounds = 0
    for d in derivation_corpus:
        built.clear()
        dd = dual_derivation(d)
        # only dualizing builds formulas here: each distinct formula and
        # subformula is dualized once, so each compound of the dual is built once
        assert max(built.values(), default=1) == 1
        compounds += len(built)
        # equal parts of the dual are one object
        parts = {}
        for x in _nodes(dd):
            s = x.conclusion
            for part in (s, s.gamma, s.delta, s.succedent, *s.gamma.items, *s.delta.items):
                assert parts.setdefault(part, part) is part
    assert compounds > 500
    made = []
    make = Derivation.__init__

    def counted_node(self, *args):
        made.append(self)
        make(self, *args)

    rf = node(R.RfPlus, parse_sequent("p ; |-+ p"))
    d = node(R.AndRPlus, parse_sequent("p ; |-+ p /\\ p"), [rf, rf])
    monkeypatch.setattr(Derivation, "__init__", counted_node)
    dd = dual_derivation(d)
    assert dd.premises[0] is dd.premises[1] and len(made) == 2


def test_tall_tower_dualizes_at_the_default_recursion_limit():
    assert sys.getrecursionlimit() == 1000
    top = parse_sequent("p, p -> p ; |-+ p")
    closer = node(R.RfPlus, parse_sequent("p, p ; |-+ p"))
    d = node(R.RfPlus, top)
    for _ in range(1200):
        d = node(R.ImpLa, top, (d, closer), principal=Imp(p, p))
    dd = dual_derivation(d)
    assert dd.height == 1200 and check_derivation(dd).valid
    back = dual_derivation(dd)
    for x, y in zip(_nodes(d), _nodes(back), strict=True):
        assert (x.conclusion, x.rule, x.annotation) == (y.conclusion, y.rule, y.annotation)


def test_closing_rules_agree_with_the_checker():
    rng = random.Random(f"{SEED}/closers")
    seen = Counter()
    for _ in range(3000):
        s = random_sequent(rng)
        for x in (s, dual_sequent(s)):
            found = closing_rules(x)
            assert found == [r for r in CLOSERS if _zero_premise_failure(x, r) is None], x
            seen.update(found)
    assert set(seen) == set(CLOSERS)


def test_dual_derivation_on_corpus(derivation_corpus):
    for d in derivation_corpus:
        dd = dual_derivation(d)
        assert check_derivation(dd).valid
        assert dd.height == d.height


def test_height_is_monotone(derivation_corpus):
    def walk(d):
        if d.premises:
            assert d.height == 1 + max(c.height for c in d.premises)
            for c in d.premises:
                walk(c)
        else:
            assert d.height == 0
    for d in derivation_corpus:
        walk(d)
