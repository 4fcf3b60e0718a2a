"""The derivation writer against the JSON module it replaced, the flat
layout, the loader's and the writer's memos of contexts, the loader's shared
cache of formulas, and dumps that overflow the stack."""

from __future__ import annotations

import gc
import json
import random
import re
import sys
import threading
from typing import Any

import pytest

from bint import cli, corpus, serialize
from bint.kernel import (
    PLUS, Annotation, Context, ContextSplit, Derivation, RuleId as R, Sequent, dual_derivation,
    format_sequent, node, parse_sequent,
)
from random_derivations import random_derivation
from bint.serialize import (
    FLAT_HEIGHT, DerivationFormatError, dumps_derivation, dumps_derivations, load_derivation,
    load_derivations, loads_derivation,
)
from bint.syntax import FormulaSyntaxError, format_formula, parse_formula

from conftest import SEED, cut_node, random_formula, tower


# --- the reference: the writer as it was, through json.dumps ----------------------------

def _reference_data(d: Derivation) -> dict[str, Any]:
    return _reference_fields(d, [_reference_data(p) for p in d.premises])


def _reference_fields(d: Derivation, premises: list) -> dict[str, Any]:
    out: dict[str, Any] = {
        "rule": d.rule.value,
        "conclusion": format_sequent(d.conclusion),
        "premises": premises,
    }
    if d.annotation is not None:
        ann: dict[str, Any] = {}
        if d.annotation.principal is not None:
            ann["principal"] = format_formula(d.annotation.principal)
        if d.annotation.cut_formula is not None:
            ann["cut_formula"] = format_formula(d.annotation.cut_formula)
        if d.annotation.context_split is not None:
            sp = d.annotation.context_split
            ann["context_split"] = {k: [format_formula(f) for f in getattr(sp, k)]
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


# --- the flat layout ---------------------------------------------------------------------

def _flat(d: Derivation) -> str:
    return serialize._dumps(serialize._Writer.flat, d)


def _tree(d: Derivation) -> str:
    return serialize._dumps(serialize._Writer.tree, d)


def _flat_reference(d: Derivation) -> str:
    """Each distinct node object once, numbered after its premises, left to
    right; each line is its fields as ``json.dumps`` writes them."""
    index: dict[int, int] = {}
    lines: list[str] = []

    def number(x: Derivation) -> int:
        if id(x) not in index:
            premises = [number(p) for p in x.premises]
            lines.append(json.dumps(_reference_fields(x, premises), sort_keys=True))
            index[id(x)] = len(lines) - 1
        return index[id(x)]

    root = number(d)
    nodes = ",\n".join("    " + line for line in lines)
    return f'{{\n  "format": "flat",\n  "nodes": [\n{nodes}\n  ],\n  "root": {root}\n}}\n'


def _flat_round_trip(d: Derivation) -> None:
    text = _flat(d)
    assert text == _flat_reference(d)
    back = loads_derivation(text)
    assert back == d and _flat(back) == text
    assert _tree(back) == _tree(d)     # tree -> flat -> tree


def test_every_corpus_file_round_trips_through_the_flat_layout():
    files = sorted(corpus.DATA_DIR.glob("*.deriv"))
    assert files
    for path in files:
        ds = load_derivations(path)
        for d in ds:
            _flat_round_trip(d)
        # tree -> flat -> tree, from the file's own text
        text = path.read_text(encoding="utf-8")
        assert dumps_derivations([loads_derivation(_flat(d)) for d in ds]) == text, path.name


def test_random_derivations_and_cuts_round_trip_through_the_flat_layout(cut_pairs):
    ds = [random_derivation(SEED * 1000 + i, 10) for i in range(1_000)]
    cuts = [cut_node(*pair, variant) for variant, pairs in cut_pairs.items() for pair in pairs]
    assert all(d.valid for d in cuts)
    assert sum(d.annotation.context_split != (Context(),) * 4 for d in cuts) > 100
    # a cut whose premises are themselves cuts, the left one shared
    nested = [node(R.CutA, d.conclusion, [d, d],
                   annotation=d.annotation) for d in cuts[:50]]
    for d in ds + cuts + nested:
        _flat_round_trip(d)


def test_a_shared_node_is_one_line_and_loads_as_one_object():
    leaf = node(R.RfPlus, parse_sequent("p ; |-+ p"))
    d = node(R.AndRPlus, parse_sequent("p ; |-+ p /\\ p"), [leaf, leaf])
    text = _flat(d)
    assert text.count('"rule": "RfPlus"') == 1 and '"premises": [0, 0]' in text
    back = loads_derivation(text)
    assert back.premises[0] is back.premises[1] and back == d


def test_a_derivation_is_written_flat_from_its_height_of_64():
    assert FLAT_HEIGHT == 64
    below, at = tower(FLAT_HEIGHT - 1), tower(FLAT_HEIGHT)
    assert dumps_derivation(below) == _tree(below) == _reference(_reference_data(below))
    assert dumps_derivation(at) == _flat(at)
    # each derivation of a list picks its own layout
    small = random_derivation(SEED, 6)
    ds = [at, small, below, tower(3 * FLAT_HEIGHT)]
    text = dumps_derivations(ds)
    assert json.loads(text) == [json.loads(dumps_derivation(d)) for d in ds]
    back = serialize._derivations_from_text(text)
    assert back == ds and dumps_derivations(back) == text


def test_the_shortest_replayed_tower_is_written_flat_and_round_trips():
    # the benchmark's ``replay`` towers start at 150 high, whose tree is 662 KB
    d = tower(150)
    text = dumps_derivation(d)
    assert text == _flat(d) and len(text) < 20_000
    back = loads_derivation(text)
    assert back == d and back.valid and back.height == 150
    assert dumps_derivation(back) == text


def test_a_10_000_high_tower_round_trips_at_the_default_limit(monkeypatch, tmp_path):
    assert sys.getrecursionlimit() == 1000
    d = tower(10_000)
    text = dumps_derivation(d)
    assert len(text) < 1_300_000 and text.count("\n") == 10_002 + 6
    built = []

    def counted(*args):
        built.append(Derivation(*args))
        return built[-1]

    monkeypatch.setattr(serialize, "Derivation", counted)
    back = loads_derivation(text)
    assert len(built) == len({id(x) for x in built}) == 10_002
    monkeypatch.undo()
    assert back.valid and back.height == 10_000 and back == d
    assert dumps_derivation(back) == text
    path = tmp_path / "tower.deriv"
    path.write_text(text, encoding="utf-8")
    assert load_derivation(path) == d


_LEAF = {"conclusion": "p ; |-+ p", "premises": [], "rule": "RfPlus"}
_AND = {"conclusion": "p ; |-+ p /\\ p", "rule": "AndRPlus"}


@pytest.mark.parametrize("document, message", [
    ({"nodes": [{**_AND, "premises": [1, 1]}, _LEAF], "root": 0}, "premise 1 is not"),
    ({"nodes": [_LEAF, {**_AND, "premises": [0, 2]}], "root": 1}, "premise 2 is not"),
    ({"nodes": [_LEAF, {**_AND, "premises": [0, -1]}], "root": 1}, "premise -1 is not"),
    ({"nodes": [_LEAF, {**_AND, "premises": [0, "0"]}], "root": 1}, "premise '0' is not"),
    ({"nodes": [_LEAF, {**_AND, "premises": [0, 0.0]}], "root": 1}, "premise 0.0 is not"),
    ({"nodes": [_LEAF, {**_AND, "premises": [0, False]}], "root": 1}, "premise False is not"),
    ({"nodes": [_LEAF, {**_AND, "premises": 0}], "root": 1}, "premises must be a JSON list"),
    ({"nodes": [_LEAF], "root": 1}, "root 1 is not"),
    ({"nodes": [_LEAF], "root": -1}, "root -1 is not"),
    ({"nodes": [_LEAF], "root": "0"}, "root '0' is not"),
    ({"nodes": [_LEAF], "root": True}, "root True is not"),
    ({"nodes": [_LEAF]}, "root None is not"),
    ({"nodes": [], "root": 0}, "root 0 is not"),
    ({"root": 0}, "nodes must be a JSON list"),
    ({"nodes": [{**_LEAF, "rule": "Leaf"}], "root": 0}, "bad or missing rule id"),
    ({"nodes": [{"premises": [], "rule": "RfPlus"}], "root": 0}, "missing conclusion"),
    ({"nodes": [3], "root": 0}, "a derivation must be a JSON object"),
])
def test_a_malformed_flat_document_is_a_format_error(capsys, tmp_path, document, message):
    text = json.dumps({"format": "flat", **document})
    with pytest.raises(DerivationFormatError, match="^(node \\d: )?" + re.escape(message)):
        loads_derivation(text)
    path = tmp_path / "bad.deriv"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["check", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_an_unknown_format_is_a_format_error():
    with pytest.raises(DerivationFormatError, match="^unknown format 'dag'$"):
        loads_derivation(json.dumps({"format": "dag", "nodes": [_LEAF], "root": 0}))


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


def test_a_node_without_a_conclusion_is_a_format_error():
    with pytest.raises(DerivationFormatError, match="^missing conclusion$"):
        loads_derivation(json.dumps({"rule": "RfPlus", "premises": []}))


@pytest.mark.parametrize("text", ['"p ; |-+ p"', "3", "null"])
def test_a_file_of_neither_object_nor_list_is_a_format_error(tmp_path, text):
    path = tmp_path / "scalar.deriv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DerivationFormatError, match="^expected a JSON object or list$"):
        load_derivations(path)


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


def test_each_distinct_context_is_joined_once():
    # the writer's texts are a memo keyed by the context's value
    d = random_derivation(SEED, 12)
    contexts = _contexts_in(d, "gamma") + _contexts_in(d, "delta")
    writer = serialize._Writer()
    writer.tree(d, 0)
    assert writer.text() == dumps_derivation(d)
    assert writer.contexts.keys() == set(contexts)


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
               for d in loaded for f in d.conclusion.gamma + d.conclusion.delta)
    assert len(one) == len(distinct) + 1
    info = serialize.parse_formula.cache_info()
    assert info.currsize == info.maxsize == bound
    # a text the cache has dropped parses again, to the same object
    first = loaded[0].conclusion.delta[0]
    assert serialize.parse_formula(format_formula(first)) is first
    assert serialize.parse_formula.cache_info().misses == info.misses + 1


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


# --- callers deep in the stack ------------------------------------------------------------

def _frames() -> int:
    """The frames on the stack of the caller."""
    f, n = sys._getframe(1), 0
    while f is not None:
        f, n = f.f_back, n + 1
    return n


def _nested(depth: int, f):
    """``f()``, called from ``depth`` frames deep."""
    return f() if _frames() >= depth else _nested(depth, f)


def test_the_tallest_tree_dumps_from_a_caller_900_frames_deep():
    # the writer is a loop: only reading a tree is bound by the stack
    assert sys.getrecursionlimit() == 1000
    d = tower(FLAT_HEIGHT - 1)
    gc.collect()
    assert _nested(900, lambda: dumps_derivation(d)) == dumps_derivation(d)
    assert not [o for o in gc.get_objects() if isinstance(o, serialize._Writer)]


def test_the_tallest_tree_round_trips_from_a_caller_850_frames_deep():
    # a tree nests 2h + 1 JSON levels and two reader frames a level: at 63
    # high it reads from about 860 frames deep on Python 3.11
    assert sys.getrecursionlimit() == 1000
    d = tower(FLAT_HEIGHT - 1)
    text = _nested(850, lambda: dumps_derivation(d))
    assert text == _tree(d)
    assert _nested(850, lambda: loads_derivation(text)) == d


def test_a_480_high_tower_round_trips_at_the_default_limit():
    """On a fresh stack, as at a program's top level: the test runner's own
    frames take about 30 of the limit's 1,000."""
    assert sys.getrecursionlimit() == 1000
    d = tower(480)
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
