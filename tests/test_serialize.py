"""The derivation writer against the JSON module it replaced, the loader's
and the writer's memos of contexts, the loader's shared cache of formulas,
and dumps that overflow the stack."""

from __future__ import annotations

import gc
import json
import random
import sys
import threading
import traceback
from typing import Any

import pytest

from bint import corpus, serialize
from bint.kernel import (
    PLUS, Annotation, Context, ContextSplit, Derivation, RuleId as R, Sequent, dual_derivation,
    format_sequent, node, parse_sequent,
)
from random_derivations import random_derivation
from bint.serialize import (
    DerivationFormatError, dumps_derivation, dumps_derivations, load_derivations,
    loads_derivation,
)
from bint.syntax import FormulaSyntaxError, format_formula, parse_formula

from conftest import SEED, random_formula


# --- the reference: the writer as it was, through json.dumps ----------------------------

def _reference_data(d: Derivation) -> dict[str, Any]:
    out: dict[str, Any] = {
        "rule": d.rule.value,
        "conclusion": format_sequent(d.conclusion),
        "premises": [_reference_data(p) for p in d.premises],
    }
    if d.annotation is not None:
        ann: dict[str, Any] = {}
        if d.annotation.principal is not None:
            ann["principal"] = format_formula(d.annotation.principal)
        if d.annotation.cut_formula is not None:
            ann["cut_formula"] = format_formula(d.annotation.cut_formula)
        if d.annotation.context_split is not None:
            sp = d.annotation.context_split
            ann["context_split"] = {k: [format_formula(f) for f in getattr(sp, k).expand()]
                                    for k in ("gamma", "delta", "gamma_prime", "delta_prime")}
        if ann:
            out["annotation"] = ann
    return out


def _reference(data: Any) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _same_as_reference(d: Derivation) -> None:
    assert dumps_derivation(d) == _reference(_reference_data(d))


# --- the writer -----------------------------------------------------------------------

def test_random_derivations_and_their_duals_write_as_before():
    for i in range(150):
        d = random_derivation(SEED * 1000 + i, 10)
        _same_as_reference(d)
        _same_as_reference(dual_derivation(d))


def _ctx(*texts: str) -> Context:
    return Context.from_iter(map(parse_formula, texts))


_SPLITS = [
    ContextSplit(Context(), Context(), Context(), Context()),
    ContextSplit(_ctx("p \\/ q"), Context(), Context(), _ctx("r", "r")),
    ContextSplit(_ctx("p"), _ctx("q -< r", "F"), _ctx("T /\\ p"), _ctx("p \\/ (q -> r)")),
]


@pytest.mark.parametrize("principal", [None, "p \\/ q"])
@pytest.mark.parametrize("cut_formula", [None, "q \\/ r -> p"])
@pytest.mark.parametrize("split", [None, *range(len(_SPLITS))])
def test_every_annotation_kind_writes_as_before(principal, cut_formula, split):
    annotation = Annotation(
        principal=None if principal is None else parse_formula(principal),
        cut_formula=None if cut_formula is None else parse_formula(cut_formula),
        context_split=None if split is None else _SPLITS[split])
    leaf = node(R.RfPlus, parse_sequent("p \\/ q ; |-+ p \\/ q"))
    d = Derivation(parse_sequent("p \\/ q, r ; T |-- q \\/ F"), R.CutA,
                   (leaf, leaf), annotation)
    _same_as_reference(d)
    text = dumps_derivation(d)
    assert "\\\\/" in text and dumps_derivation(loads_derivation(text)) == text


def test_formulas_with_escaped_characters_write_as_before():
    rng = random.Random(SEED)
    for _ in range(50):
        fs = [random_formula(rng, rng.randint(1, 6)) for _ in range(4)]
        d = node(R.AndLa, parse_sequent(f"{format_formula(fs[0])} ; |-+ {format_formula(fs[1])}"),
                 [node(R.RfPlus, parse_sequent(f"; {format_formula(fs[2])} |-- q"))],
                 principal=fs[3])
        _same_as_reference(d)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_lists_of_derivations_write_as_before(n):
    ds = [random_derivation(SEED * 1000 + i, 6) for i in range(n)]
    data = _reference_data(ds[0]) if n == 1 else [_reference_data(d) for d in ds]
    text = dumps_derivations(ds)
    assert text == _reference(data)
    assert dumps_derivations(serialize._derivations_from_text(text)) == text


def test_every_corpus_file_writes_as_before():
    files = sorted(corpus.DATA_DIR.glob("*.deriv"))
    assert files
    for path in files:
        text = path.read_text(encoding="utf-8")
        ds = load_derivations(path)
        data = _reference_data(ds[0]) if len(ds) == 1 else [_reference_data(d) for d in ds]
        assert _reference(data) == text, path.name
        assert dumps_derivations(ds) == text, path.name


# --- the loader's and the writer's memos of contexts ---------------------------------------

def _two_levels(top: str, below: str) -> str:
    return json.dumps({"rule": "AndLa", "conclusion": top,
                       "premises": [{"rule": "RfPlus", "conclusion": below}]})


@pytest.mark.parametrize("below", [
    "p ; |-+ q r", "p ; |-+ q, r", "p ; |-+ q ; r", "p ; |-+ q |-+ r", "p ; |-+ ",
    "p ; |-+ q)", "p ; |-+ q $",
])
def test_a_remembered_head_with_a_bad_succedent_fails_as_parse_sequent_does(below):
    with pytest.raises(FormulaSyntaxError) as alone:
        parse_sequent(below)
    with pytest.raises(FormulaSyntaxError) as loaded:
        loads_derivation(_two_levels("p ; |-+ q", below))
    assert type(loaded.value) is type(alone.value)
    assert (loaded.value.message, loaded.value.position) == \
        (alone.value.message, alone.value.position)


def test_equal_heads_read_as_one_context():
    d = loads_derivation(_two_levels("p, q ; r |-- q", "p, q ; r |-- p /\\ q"))
    below = d.premises[0].conclusion
    assert below == parse_sequent("p, q ; r |-- p /\\ q")
    assert below.gamma is d.conclusion.gamma and below.delta is d.conclusion.delta


@pytest.mark.parametrize("below", [
    "p,, q ; |-+ r", " , p ; |-+ q", "p ; q, |-+ r", "p ; q |- r", "p ; q |-x r", "p |-+ q",
    "p ; ; q |-+ r", "p ; q |-+ r ; s", "p $ ; |-+ q", "p ; q $ |-+ r", "p ; |-+", "",
    "p q ; |-+ r", "; p |-- q |-- r", "p |-- q ; |-+ r", "(p ; q) |-+ r", "p, ; |-+ q",
])
def test_an_irregular_context_text_fails_as_parse_sequent_does(below):
    with pytest.raises(FormulaSyntaxError) as alone:
        parse_sequent(below)
    for top in ("p ; q |-+ r", "p, q ; |-+ r"):     # the memo empty, and holding p and q
        with pytest.raises(FormulaSyntaxError) as loaded:
            loads_derivation(_two_levels(top, below))
        assert (loaded.value.message, loaded.value.position) == \
            (alone.value.message, alone.value.position)


@pytest.mark.parametrize("text", [
    "p ; q |-+ r", "  p ,q;r|--s ", "p \\/ q, r ;|-+ r", ";|-+ T", " ;  |-- F", "q, p, q ; p |-+ q",
    "p,q ; |-+ q", "p ,  q ; r,s |-- q", "p, q,r ; q ,p |-+ r",
])
def test_a_regular_text_in_any_spacing_reads_as_parse_sequent_does(text):
    d = loads_derivation(_two_levels("p, q ; r |-- q", text))
    assert d.premises[0].conclusion == parse_sequent(text)


@pytest.mark.parametrize("rule", [["RfPlus"], 3, None, "rfplus", "missing"],
                         ids=["list", "int", "null", "lowercase", "missing"])
def test_a_bad_or_missing_rule_id_is_a_format_error(rule):
    data = {"conclusion": "p ; |-+ p", "premises": []}
    if rule != "missing":
        data["rule"] = rule
    with pytest.raises(DerivationFormatError, match="^bad or missing rule id"):
        loads_derivation(json.dumps(data))


def _contexts_in(d: Derivation, side: str) -> list[Context]:
    out, stack = [], [d]
    while stack:
        x = stack.pop()
        out.append(getattr(x.conclusion, side))
        stack.extend(x.premises)
    return out


def test_each_distinct_context_is_read_as_one_object():
    for i in range(40):
        d = loads_derivation(dumps_derivation(random_derivation(SEED * 1000 + i, 10)))
        for side in ("gamma", "delta"):
            contexts = _contexts_in(d, side)
            one: dict[Context, Context] = {}
            assert all(one.setdefault(c, c) is c for c in contexts)


def test_each_distinct_context_object_is_joined_once():
    d = random_derivation(SEED, 12)
    contexts = _contexts_in(d, "gamma") + _contexts_in(d, "delta")
    writer = serialize._Writer()
    writer.node(d, 0)
    assert writer.text() == dumps_derivation(d)
    assert writer.contexts.keys() == {id(c) for c in contexts}
    assert all(writer.contexts[id(c)][0] is c for c in contexts)


# --- the shared cache of formulas -----------------------------------------------------------

def test_a_document_over_more_formulas_than_the_cache_holds_keeps_equal_ones_one_object():
    bound = serialize.parse_formula.cache_info().maxsize
    rng = random.Random(SEED)
    distinct = {}
    while len(distinct) < bound + 300:
        f = random_formula(rng, 8)
        distinct.setdefault(format_formula(f), f)
    p = parse_formula("p")
    nodes = [node(R.RfPlus, Sequent(Context.of(p, f), Context.of(f), PLUS, p))
             for f in distinct.values()]
    # every formula comes again after all the others, long after the cache dropped it
    loaded = serialize._derivations_from_text(dumps_derivations(nodes + nodes))
    assert loaded == nodes + nodes and all(d.valid for d in loaded)
    one = {}
    assert all(one.setdefault(f, f) is f
               for d in loaded for f in d.conclusion.gamma.items + d.conclusion.delta.items)
    assert len(one) == len(distinct) + 1
    info = serialize.parse_formula.cache_info()
    assert info.currsize == info.maxsize == bound
    first = loaded[0].conclusion.delta.items[0]
    assert serialize.parse_formula(format_formula(first)) is not first


def test_a_malformed_formula_fails_alike_every_time():
    text = json.dumps({"rule": "RfPlus", "conclusion": "p ; |-+ p",
                       "annotation": {"principal": "p -> $"}})
    for _ in range(2):
        with pytest.raises(FormulaSyntaxError) as e:
            loads_derivation(text)
        assert (e.value.message, e.value.position) == ("unknown token '$'", 5)
        before = serialize.parse_formula.cache_info()
        with pytest.raises(FormulaSyntaxError):
            serialize.parse_formula("p -> $")
        after = serialize.parse_formula.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 0)  # not cached


# --- dumps that overflow the stack --------------------------------------------------------

def _tower(height: int) -> Derivation:
    """``ImpLa`` stacked ``height`` times on ``p, p -> p ; |-+ p``."""
    top = parse_sequent("p, p -> p ; |-+ p")
    closer = node(R.RfPlus, parse_sequent("p, p ; |-+ p"))
    principal = parse_formula("p -> p")
    d = node(R.RfPlus, top)
    for _ in range(height):
        d = node(R.ImpLa, top, (d, closer), principal=principal)
    return d


def _keep_errors(d: Derivation) -> list[BaseException]:
    """Dump ``d`` and keep what it raises in a list, as a benchmark or a batch
    job might: the list, the error, its traceback and this frame then form a
    cycle that only the cyclic collector frees."""
    errors = []
    try:
        dumps_derivation(d)
    except RecursionError as e:
        errors.append(e)
    return errors


def test_a_failed_dump_keeps_no_frame_or_writer_alive():
    d = _tower(2000)
    gc.collect()
    gc.disable()
    try:
        errors = _keep_errors(d)
        assert [type(e) for e in errors] == [RecursionError]
        assert len(traceback.extract_tb(errors[0].__traceback__)) < 10
        del errors
        assert not [o for o in gc.get_objects() if isinstance(o, serialize._Writer)]
    finally:
        gc.enable()


def test_a_480_high_tower_round_trips_at_the_default_limit():
    """On a fresh stack, as at a program's top level: the test runner's own
    frames take about 30 of the limit's 1,000."""
    assert sys.getrecursionlimit() == 1000
    d = _tower(480)
    outcome = []

    def round_trip():
        try:
            text = dumps_derivation(d)
            outcome.append(text == dumps_derivation(loads_derivation(text)))
        except RecursionError as e:
            outcome.append(e)

    thread = threading.Thread(target=round_trip)
    thread.start()
    thread.join()
    assert outcome == [True]
