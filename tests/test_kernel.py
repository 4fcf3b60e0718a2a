import copy
import dataclasses
import os
import pickle
import random
import subprocess
import sys
from collections import Counter
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bint.syntax import BOT, TOP, And, Atom, Formula, FormulaSyntaxError, Imp, parse_formula
from bint.kernel import (
    CLOSERS, MINUS, PLUS, Annotation, Context, ContextSplit, Derivation, RuleId as R, Sequent,
    Side, Violation, backward_expansions, check_derivation, check_rule_instance, closing_rules,
    dual_context, dual_derivation, dual_formula, dual_sequent, format_sequent,
    node, parse_sequent, premises, _zero_premise_failure,
)
import bint
from bint import corpus, kernel, syntax
from bint.search import Refuted, prove
from bint.serialize import dumps_derivation, load_derivation, loads_derivation
from bint.transform import TransformError, derive_identity, weaken
from conftest import (
    SEED, contexts, cut_node, formulas, polarities, random_sequent, sequents, tower, valid_premise,
)

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
    model = lambda ctx: Counter(ctx)
    assert model(a) == ma and len(a) == len(xs)
    for g in xs + ys + [f]:
        assert a.count(g) == ma[g] and (g in a) == (ma[g] > 0)
    assert model(reduce(Context.add, [f] * n, a)) == ma + Counter({f: n})
    assert model(a.union(b)) == ma + mb
    if ma[f] >= n:
        assert model(reduce(Context.remove, [f] * n, a)) == ma - Counter({f: n})
    else:
        with pytest.raises(KeyError):
            reduce(Context.remove, [f] * n, a)
    assert (a == b) == (ma == mb)
    same = Context.from_iter(reversed(xs))
    assert a == same and hash(a) == hash(same)
    keys = [g.key for g in a]
    assert keys == sorted(keys)
    assert list(a.distinct()) == [g for i, g in enumerate(a)
                                  if i == 0 or a[i - 1] != g]


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
            got, want = x.union(y), Context.from_iter(x + y)
            assert got == want and all(g is w for g, w in zip(got, want))
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


def test_contexts_built_in_either_order_are_one_value():
    a, b = Context.of(p, q), Context.of(q, p)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b) and str(a) == str(b)
    with pytest.raises(TypeError):      # a context holds its occurrences and nothing else
        Context((), _hash=0)


def _spine(depth: int, end: Formula) -> Formula:
    """``p -> (p -> ... -> end)``, ``depth`` arrows deep."""
    f = end
    for _ in range(depth):
        f = Imp(p, f)
    return f


def test_contexts_of_deep_common_spine_formulas_at_the_default_limit():
    # C compares the nested keys recursively, so the two keys, equal down to
    # depth 10^4, need the comparison on a stack
    assert sys.getrecursionlimit() == 1000
    a, b = _spine(10_000, p), _spine(10_000, q)
    both = Context.of(a, b)
    assert both == Context.of(b, a) == Context.from_iter(iter((b, a)))
    assert both.index(a) < both.index(b)        # "p" sorts before "q"
    for f, other in ((a, b), (b, a)):
        assert Context.of(other).add(f) == both
        assert both.remove(f) == Context.of(other)
        assert both.add(f).remove(f).remove(f) == Context.of(other)
    doubled = Context.of(a, a, b, b)
    assert both.union(both) == doubled
    assert Context.of(a, b, a, b).union(Context.of(b)) == doubled.add(b)   # by bisection


def test_a_node_over_deep_common_spine_formulas_checks_at_the_default_limit():
    # the generated check bisects the conclusion's context for the principal
    # and the operand it adds, as ``Context.remove`` and ``add`` do
    assert sys.getrecursionlimit() == 1000
    r = Atom("r")
    a, b = _spine(3_000, p), _spine(3_000, q)
    s = Sequent(Context.of(a, b, p, r), Context(), PLUS, r)
    ps = [valid_premise(x) for x in premises(s, R.ImpLa, a)]
    d = node(R.ImpLa, s, ps, principal=a)
    assert d.valid and d.principal is a
    assert check_rule_instance(s, R.ImpLa, [x.conclusion for x in ps], d.annotation) is None
    wrong = [valid_premise(ps[0].conclusion), valid_premise(ps[1].conclusion._replace(
        gamma=ps[1].conclusion.gamma.remove(a.right).add(b.right)))]
    assert not node(R.ImpLa, s, wrong, principal=a).valid


def test_the_deep_comparison_orders_as_the_key_sort():
    # at depth 500 C still compares the keys, so the two orders can be compared
    rng = random.Random(SEED + 11)
    deep = [_spine(500, end) for end in (p, q, TOP, And(p, q))]
    shallow = [parse_formula(t) for t in ("p", "q", "F", "T", "p /\\ q", "q \\/ F", "p -> q",
                                          "r -< T", "(p -> q) /\\ r")]
    pool = deep + shallow + [Imp(p, f) for f in deep] + [And(f, p) for f in deep[:2]]
    for _ in range(30):
        fs = [rng.choice(pool) for _ in range(rng.randrange(1, 9))]
        assert sorted(fs, key=kernel._DEEP) == sorted(fs, key=kernel._KEY)
    for f in pool:
        for g in pool:
            order = kernel._compare(f.key, g.key)
            assert (order < 0) == (f.key < g.key) and (order == 0) == (f is g)


def test_a_context_finds_the_object_it_holds_without_comparing():
    f = parse_formula("p -> q")
    ctx = Context.of(parse_formula("q /\\ p"), f, p, parse_formula("p -> r"))
    eq_calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "__eq__":
            eq_calls.append(frame.f_code)

    # an equal formula parsed again is the same object, and is found as one
    g, other = parse_formula("p -> q"), parse_formula("q -> p")
    sys.setprofile(profile)
    try:
        found = f in ctx, g in ctx, other in ctx
    finally:
        sys.setprofile(None)
    assert g is f and found == (True, True, False) and eq_calls == []


def _two_of_each():
    """Two equal sequents, annotations and context splits, built apart: no
    context of the one is an object of the other."""
    f, g = parse_formula("p -> q"), parse_formula("q /\\ p")
    out = []
    for order in (1, -1):
        gamma, delta = Context.of(*(p, f, p)[::order]), Context.of(*(g, q)[::order])
        split = ContextSplit(gamma, delta, Context.of(*(q, f)[::order]), Context())
        out.append((Sequent(gamma, delta, MINUS, f), Annotation(f, g, split), split))
    return zip(*out)


def test_records_built_apart_compare_and_hash_with_no_python_call():
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    for a, b in _two_of_each():
        parts = [(getattr(a, name), getattr(b, name)) for name in a.__match_args__]
        assert all(x is not y for x, y in parts if isinstance(x, (Context, ContextSplit)) and x)
        sys.setprofile(profile)
        try:
            same = a == b, not a != b, hash(a) == hash(b), b in {a}
        finally:
            sys.setprofile(None)
        assert same == (True, True, True, True) and calls == []
        for copier in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
            c = copier(a)
            assert type(c) is type(a) and c == a and hash(c) == hash(a)
            assert [type(getattr(c, name)) for name in a.__match_args__] == [type(x) for x, _ in parts]


#: dumps a formula and a sequent, once both are hashed, or loads them and
#: compares them with fresh parses
_PICKLE_SCRIPT = """
import pickle, sys
from bint.syntax import parse_formula
from bint.kernel import parse_sequent
f, s = parse_formula("p -> q"), parse_sequent("p -> q ; |-+ p -> q")
if sys.argv[1] == "dump":
    hash(s), hash(s.gamma)
    sys.stdout.buffer.write(pickle.dumps((f, s)))
else:
    g, t = pickle.loads(sys.stdin.buffer.read())
    print(g == f, hash(g) == hash(f), t == s, hash(t) == hash(s),
          t.gamma == s.gamma, hash(t.gamma) == hash(s.gamma))
"""


def test_a_pickle_is_read_under_another_hash_seed():
    # a hash derives from addresses and string hashes, which change with the
    # process and its hash seed: a pickle holds no hash, and rebuilds each record
    src = str(Path(bint.__file__).parents[1])

    def run(seed: int, *args: str, data: bytes = b"") -> bytes:
        env = {**os.environ, "PYTHONHASHSEED": str(seed),
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        return subprocess.run([sys.executable, "-c", _PICKLE_SCRIPT, *args], input=data,
                              env=env, capture_output=True, check=True).stdout

    assert run(2, "load", data=run(1, "dump")).split() == [b"True"] * 6


def _fresh_output(script: str) -> str:
    """What ``script`` prints in a fresh interpreter that imports this ``bint``."""
    src = str(Path(bint.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          check=True, text=True).stdout


def test_the_engine_imports_without_dataclasses():
    # decorating its records, and importing ``dataclasses`` (which imports
    # ``inspect``) and ``string``, would cost each command's start-up
    script = ("import bint, bint.serialize, bint.corpus, bint.cli, sys; "
              "print(*sorted({'dataclasses', 'inspect', 'string'} & set(sys.modules)))")
    assert _fresh_output(script).split() == []


def test_each_layer_imports_only_the_layers_below_it():
    # the package holds no names of its own, so importing one module loads
    # that module and what it imports, not the whole engine
    script = ("import sys\n"
              "def loaded(): return sorted(m for m in sys.modules if m.split('.')[0] == 'bint')\n"
              "import bint.syntax\nprint(*loaded())\nimport bint.kernel\nprint(*loaded())\n")
    assert _fresh_output(script).splitlines() == ["bint bint.syntax",
                                                  "bint bint.kernel bint.syntax"]


def test_copies_and_pickles_rebuild_each_node(monkeypatch):
    # a copied node is built by its constructor, so its ``valid`` comes from
    # its own check, not from the state of its source
    proof = prove(parse_sequent("p, q ; |-+ (p /\\ q) /\\ (p /\\ q)"))
    shared, cut = proof.derivation, _cut_node()
    assert shared.premises[0] is shared.premises[1] and cut.premises[0] is cut.premises[1]

    def distinct(d: Derivation) -> int:
        seen: list = []
        kernel.fold(d, lambda x, images: seen.append(x))
        return len(seen)

    built = []
    init = Derivation.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(Derivation, "__init__", counted)
    # (object, a field, nodes built by a shallow copy, and by a deep one)
    cases = [(shared, "valid", 1, distinct(shared)), (cut, "annotation", 1, distinct(cut)),
             (proof, "derivation", 0, distinct(shared)), (BOT, "key", 0, 0), (TOP, "key", 0, 0),
             (Refuted(), "x", 0, 0)]
    for obj, name, shallow, deep in cases:
        for copier, n in ((copy.copy, shallow), (copy.deepcopy, deep),
                          (lambda x: pickle.loads(pickle.dumps(x)), deep)):
            built.clear()
            c = copier(obj)
            assert type(c) is type(obj) and c == obj and hash(c) == hash(obj)
            assert len(built) == n
            if isinstance(c, Derivation):
                assert c.valid and c.premises[0] is c.premises[1]
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(c, name)


def test_a_3000_high_tower_copies_and_pickles_at_the_default_limit(monkeypatch):
    assert sys.getrecursionlimit() == 1000
    d = tower(3_000)        # 3,000 ImpLa nodes, a leaf and one shared closer
    built = []
    init = Derivation.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(Derivation, "__init__", counted)
    for copier, n in ((copy.copy, 1), (copy.deepcopy, 3_002),
                      (lambda x: pickle.loads(pickle.dumps(x)), 3_002)):
        built.clear()
        c = copier(d)
        assert len(built) == n and c == d and c.valid and c.height == 3_000
        assert c.premises[1] is c.premises[0].premises[1]
    # one deep copy of several roots keeps the nodes they share shared
    built.clear()
    top, below = copy.deepcopy([d, d.premises[0]])
    assert top.premises[0] is below and len(built) == 3_002


# --- sequent text ----------------------------------------------------------------

def test_sequent_round_trip():
    s = parse_sequent("p, p, q ; r |-+ p -> q")
    assert s.gamma.count(p) == 2
    assert parse_sequent(format_sequent(s)) == s


def test_empty_sides():
    s = parse_sequent("; |-- F")
    assert not s.gamma and not s.delta and s.polarity is MINUS


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


def test_a_cut_with_wrong_counterassumptions_or_premises_is_named():
    rf = node(R.RfPlus, parse_sequent("p ; |-+ p"))
    wide = node(R.RfPlus, parse_sequent("p, p ; |-+ p"))
    split = ContextSplit(Context.of(p), Context(), Context(), Context())
    q_split = ContextSplit(Context.of(p), Context(), Context(), Context.of(Atom("q")))
    cases = [
        (q_split, [rf, rf], "context split does not recompose the counterassumptions"),
        (split, [wide, rf], "left premise must be p ; |-+ p, got p, p ; |-+ p"),
        (split, [rf, wide], "right premise must be p ; |-+ p, got p, p ; |-+ p"),
    ]
    for context_split, premises, message in cases:
        d = node(R.CutA, parse_sequent("p ; |-+ p"), premises,
                 annotation=Annotation(cut_formula=p, context_split=context_split))
        assert not d.valid
        assert check_derivation(d).first_violation == ("", Violation(R.CutA, message))


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
    s = parse_sequent("; |-+ T")
    out = backward_expansions(s)
    assert any(e[0] is R.TopRPlus and premises(s, *e) == () for e in out)


def test_disjunction_choices():
    s = parse_sequent("p ; |-+ p \\/ q")
    got = {(e[0], premises(s, *e)) for e in backward_expansions(s)}
    assert (R.OrRPlus1, (parse_sequent("p ; |-+ p"),)) in got
    assert (R.OrRPlus2, (parse_sequent("p ; |-+ q"),)) in got


def test_imp_lc_backward():
    s = parse_sequent("; p -> q |-- r")
    out = backward_expansions(s)
    assert any(e[0] is R.ImpLc and premises(s, *e) == (parse_sequent("p ; q |-- r"),)
               for e in out)


@given(sequents)
@settings(max_examples=150)
def test_expansions_pass_the_checker(s):
    for rule, principal in backward_expansions(s):
        annotation = None if principal is None else Annotation(principal=principal)
        assert check_rule_instance(s, rule, premises(s, rule, principal), annotation) is None


def test_a_node_keeps_the_principal_its_check_matched():
    r = Atom("r")
    rf = lambda text: node(R.RfPlus, parse_sequent(text))
    # two conjunctions to decompose: the first one in context order does not fit
    s = parse_sequent("p /\\ q, q /\\ r ; |-+ r")
    left = node(R.AndLa, s, [rf("p /\\ q, q, r ; |-+ r")])
    annotated = node(R.AndLa, s, [rf("p /\\ q, q, r ; |-+ r")], principal=And(q, r))
    right = node(R.AndRPlus, parse_sequent("p, q ; |-+ p /\\ q"),
                 [rf("p, q ; |-+ p"), rf("p, q ; |-+ q")])
    assert (left.principal, annotated.principal, right.principal) == (And(q, r), And(q, r),
                                                                      And(p, q))
    # closers and cuts decompose nothing; a failed instance, annotated or not, keeps none
    failed = [node(R.AndLa, s, [rf("r ; |-+ r")]),
              node(R.AndLa, s, [rf("p /\\ q, q, r ; |-+ r")], principal=And(p, q))]
    assert not any(d.valid for d in failed)
    assert [d.principal for d in (rf("p ; |-+ p"), _cut_node(), *failed)] == [None] * 4
    for d in (left, annotated, right):
        for copier in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
            assert copier(d).principal is d.principal


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


@given(formulas())
def test_a_formula_keeps_its_dual_and_the_dual_keeps_it(f):
    dual = dual_formula(f)
    assert f._dual is dual and dual._dual is f and dual_formula(dual) is f
    assert dual_formula(f) is dual and (dual is f) == isinstance(f, Atom)


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


def test_dual_derivation_matches_the_reference(derivation_corpus, cut_pairs):
    golden = [load_derivation(path) for path in sorted(corpus.DATA_DIR.glob("*.deriv"))]
    cuts = [cut_node(*pair, variant) for variant, pairs in cut_pairs.items() for pair in pairs[:50]]
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
    new = syntax._Binary.__new__

    def counted_formula(cls, left, right):
        f = new(cls, left, right)
        built[f] += 1
        return f

    monkeypatch.setattr(syntax._Binary, "__new__", counted_formula)
    compounds = set()
    for d in derivation_corpus:
        built.clear()
        dd = dual_derivation(d)
        # only dualizing builds formulas here, and each formula keeps its dual:
        # each compound of the dual is built at most once, and dualizing
        # again builds none
        assert max(built.values(), default=1) == 1
        built.clear()
        assert dual_derivation(dd) == d and dual_derivation(d) == dd and not built
        # equal parts of the dual are one object
        parts = {}
        for x in _nodes(dd):
            s = x.conclusion
            for part in (s, s.gamma, s.delta, s.succedent, *s.gamma, *s.delta):
                assert parts.setdefault(part, part) is part
            for f in (s.succedent, *s.gamma, *s.delta):
                assert f._dual._dual is f
                if isinstance(f, syntax._Binary):
                    compounds.add(f)
    assert len(compounds) > 500
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
    d = tower(1200)
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
