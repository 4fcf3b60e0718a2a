"""The checker's one decider, ``kernel._VALID[rule]``: a logical rule
instance is decided by matching each premise against its template in place,
by the same call when a node is built and when ``check_rule_instance`` is
asked; ``premise_of`` builds the expected premises only to word a violation.

The matcher, offered one principal (``conftest.fits``), is compared with the
reference builder ``conftest.premises_for``, which builds the expected
premises and compares them, on every node of the golden corpus files, of the
random derivation corpora and of their duals, and on single-field mutations
of those nodes.  The whole checker is compared with its former definition,
violation text included, and the principal a node keeps
(``Derivation.principal``) with the former ``infer_principal``, which
matched the node again, on every node of the corpus files, of the random
corpus and its duals and of the prove-pin proofs.  The last tests count
that building valid nodes builds no premise for the check, that building
invalid ones words no violation, that building a node makes few Python
calls, and that checking a node calls its rule's decider once.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from bint import kernel
from bint.corpus import DATA_DIR
from bint.kernel import (
    ARITY, CUT_RULES, RIGHT_RULES, SCHEMA, ZERO_PREMISE, Derivation, RuleId as R,
    Sequent, Side, Violation,
    _check_cut, _zero_premise_failure, check_rule_instance, dual_derivation, format_sequent,
    parse_sequent,
)
from bint.search import prove
from bint.serialize import load_derivation, load_derivations
from bint.syntax import And, Atom, Coimp, Imp, Or, format_formula
from bint.transform import eliminate_cut, weaken

from conftest import fits, horn_chain, premises_for, principals, valid_premise

_CONNECTIVES = (And, Or, Imp, Coimp)
q, zz = Atom("q"), Atom("zz")


# --- the reference: the checker as it was, building the expected premises --------

def ref_check_rule_instance(conclusion, rule, premise_conclusions, annotation=None):
    premise_conclusions = tuple(premise_conclusions)
    if len(premise_conclusions) != ARITY[rule]:
        return Violation(rule, f"arity: expected {ARITY[rule]} premises, "
                               f"got {len(premise_conclusions)}")
    if rule in ZERO_PREMISE:
        why = _zero_premise_failure(conclusion, rule)
        return None if why is None else Violation(rule, why)
    if rule in CUT_RULES:
        return _check_cut(conclusion, rule, premise_conclusions, annotation)
    if annotation is not None and annotation.principal is not None:
        candidates = [annotation.principal]
    elif rule in RIGHT_RULES:
        candidates = [conclusion.succedent]
    else:
        schema = SCHEMA[rule]
        side = conclusion.gamma if schema.at is Side.A else conclusion.delta
        candidates = [f for f in side.distinct() if isinstance(f, schema.connective)]
        if not candidates:
            return Violation(rule, "no principal occurrence of the right shape")
    last = None
    for cand in candidates:
        expected = premises_for(conclusion, rule, cand)
        if expected is None:
            last = Violation(rule, "conclusion does not fit the rule schema "
                                   f"(principal {format_formula(cand)})")
            continue
        if expected == premise_conclusions:
            return None
        last = Violation(
            rule,
            "premises do not match the schema: expected "
            + " | ".join(format_sequent(e) for e in expected)
            + ", got "
            + " | ".join(format_sequent(p) for p in premise_conclusions),
        )
    return last


def ref_infer_principal(d):
    if d.annotation is not None and d.annotation.principal is not None:
        return d.annotation.principal
    if d.rule in RIGHT_RULES:
        return d.conclusion.succedent
    if d.rule in SCHEMA:
        schema = SCHEMA[d.rule]
        side = d.conclusion.gamma if schema.at is Side.A else d.conclusion.delta
        actual = tuple(p.conclusion for p in d.premises)
        for f in side.distinct():
            if (isinstance(f, schema.connective)
                    and premises_for(d.conclusion, d.rule, f) == actual):
                return f
    return None


def _candidates(s: Sequent, annotation):
    """Every formula that could be offered as the principal: the annotated one,
    the succedent, each context formula and each operand."""
    out = [s.succedent, *s.gamma.distinct(), *s.delta.distinct()]
    if annotation is not None and annotation.principal is not None:
        out.append(annotation.principal)
    out += [x for f in list(out) if isinstance(f, _CONNECTIVES) for x in (f.left, f.right)]
    return list(dict.fromkeys(out))


def _agree(s, rule, premises, annotation, candidates, worded=True):
    """The matcher agrees with ``premises_for`` on each candidate principal,
    and the checker with its former definition: on its verdict, and when
    ``worded``, on its violation text."""
    fit = False
    for f in candidates:
        built = premises_for(s, rule, f) == premises
        assert fits(s, rule, f, premises) == built, \
            (format_sequent(s), rule, format_formula(f), [format_sequent(p) for p in premises])
        fit = fit or built
    if not worded:
        return fit
    got = check_rule_instance(s, rule, premises, annotation)
    want = ref_check_rule_instance(s, rule, premises, annotation)
    assert str(got) == str(want) and (got is None) == (want is None)
    return got is None


# --- the matcher against premises_for ------------------------------------------------

def test_the_matcher_agrees_with_premises_for_on_every_node(nodes):
    logical = [n for n in nodes if n[1] in SCHEMA]
    assert len(logical) > 5_000
    assert {n[1] for n in logical} == set(SCHEMA)
    assert all(_agree(*n, _candidates(n[0], n[3])) for n in logical)    # all are valid


def test_the_matcher_agrees_with_premises_for_on_mutated_nodes(mutated_nodes):
    accepted = rejected = 0
    for rule, conclusion, mutated, ann in mutated_nodes:
        # formatting dominates, so every eighth violation is worded
        worded = (accepted + rejected) % 8 == 0
        if _agree(conclusion, rule, mutated, ann, principals(conclusion, rule, ann), worded):
            accepted += 1
        else:
            rejected += 1
    # a mutation is nearly always a violation; a few still fit: by another
    # principal, by an equal premise, or a left rule at the other polarity
    assert rejected > 100_000 and accepted < rejected // 20


def test_the_kept_principal_agrees_with_the_former_definition(derivation_corpus,
                                                               prove_pin_proofs):
    roots = [d for path in sorted(DATA_DIR.glob("*.deriv")) for d in load_derivations(path)]
    roots += derivation_corpus + [dual_derivation(d) for d in derivation_corpus]
    roots += prove_pin_proofs
    stack, seen, kept = list(roots), set(), 0
    while stack:
        x = stack.pop()
        if id(x) not in seen:
            seen.add(id(x))
            assert x.valid and x.principal == (ref_infer_principal(x) if x.rule in SCHEMA
                                               else None), x
            kept += x.principal is not None
            stack.extend(x.premises)
    assert kept > 10_000


def test_a_context_that_changes_is_matched_in_sort_order():
    # two operands added around a dropped principal, and repeated formulas
    s = parse_sequent("a, b /\\ d, c, c, e ; |-+ q")
    ok = (parse_sequent("a, b, c, c, d, e ; |-+ q"),)
    principal = And(Atom("b"), Atom("d"))
    assert fits(s, R.AndLa, principal, ok)
    for bad in ("a, b, c, d, e ; |-+ q", "a, b, c, c, c, d, e ; |-+ q",
                "a, b /\\ d, b, c, c, d, e ; |-+ q", "a, b, c, c, d ; |-+ q"):
        assert not fits(s, R.AndLa, principal, (parse_sequent(bad),))
        assert premises_for(s, R.AndLa, principal) != (parse_sequent(bad),)
    assert not fits(s, R.AndLa, And(Atom("x"), Atom("y")), ok)
    # a premise that repeats, as the same object, a context the rule changes
    assert not fits(s, R.AndLa, principal, (Sequent(s.gamma, s.delta, s.polarity, q),))
    t = parse_sequent("a ; |-+ a -> q")
    assert not fits(t, R.ImpRPlus, t.succedent, (Sequent(t.gamma, t.delta, t.polarity, q),))


# --- building valid nodes builds no premise for the check ------------------------------

@pytest.fixture
def builders(monkeypatch):
    """Calls of ``premise_of`` made through the kernel, by the name of the
    calling function."""
    callers = []

    def spy(fn):
        def wrapper(*args, **kwargs):
            caller = sys._getframe(1)
            while caller.f_code.co_name.startswith("<"):     # a comprehension
                caller = caller.f_back
            callers.append((fn.__name__, caller.f_code.co_name))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(kernel, "premise_of", spy(kernel.premise_of))
    return callers


def test_building_valid_nodes_builds_no_premise(cut_pairs, builders):
    loaded = [load_derivation(path) for path in sorted(DATA_DIR.glob("*.deriv"))]
    built = [dual_derivation(d) for d in loaded]
    built += [weaken(d, zz, side) for d in loaded if not d.cut_count for side in Side]
    for variant in CUT_RULES:
        for left, right, dfm in cut_pairs[variant][:20]:
            built.append(eliminate_cut(left, right, dfm, variant))
    for s in (horn_chain(12, True), parse_sequent("p /\\ q ; |-+ q /\\ p"),
              parse_sequent("; |-+ (p -> q) -> (q -> r) -> p -> r")):
        built.append(prove(s).derivation)
    assert len(loaded) > 100 and all(d.valid for d in loaded + built)
    # the expansions of prove build their premises, once each; nothing else does
    assert {caller for _, caller in builders} <= {"premises"}


def test_building_a_node_words_no_violation(mutated_nodes, monkeypatch):
    # the mutated nodes are nearly all invalid, and building them formats no
    # sequent and builds no expected premise; check_rule_instance, asked
    # afterwards, gives the same verdict on each
    calls = Counter()

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("format_sequent", "premise_of"):
        monkeypatch.setattr(kernel, name, counted(getattr(kernel, name)))
    built = [(conclusion, rule, mutated, ann,
              Derivation(conclusion, rule, tuple(map(valid_premise, mutated)), ann).valid)
             for rule, conclusion, mutated, ann in mutated_nodes]
    assert not calls
    monkeypatch.undo()
    for conclusion, rule, mutated, ann, valid in built:
        assert valid == (check_rule_instance(conclusion, rule, mutated, ann) is None)
    assert sum(not b[-1] for b in built) > 100_000


def test_building_a_node_makes_few_python_calls():
    # the first node of each non-cut rule in the corpus files, rebuilt under
    # a profiler: its constructor and its rule's check are a few Python frames
    firsts = {}
    for path in sorted(DATA_DIR.glob("*.deriv")):
        stack = load_derivations(path)[::-1]
        while stack:
            x = stack.pop()
            firsts.setdefault(x.rule, x)
            stack += x.premises[::-1]
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[rule] += 1

    for rule, x in firsts.items():
        if rule in CUT_RULES:
            continue
        sys.setprofile(profile)
        try:
            d = Derivation(x.conclusion, rule, x.premises, x.annotation)
        finally:
            sys.setprofile(None)
        assert d.valid
    assert set(calls) == set(R) - CUT_RULES
    assert max(calls.values()) <= 5 and sum(calls.values()) <= 90, calls


def test_each_logical_rule_is_checked_by_its_own_generated_function(nodes):
    # every rule has a node in the corpus, so each check has been compiled
    for rule in SCHEMA:
        source = kernel._SOURCE[rule]
        assert source.startswith(f"def valid_{rule.value}(s, ps, a):\n")
        assert source.count("def ") == 1 and "premise_of" not in source
        assert kernel._VALID[rule].__name__ == f"valid_{rule.value}"


def test_a_violation_is_worded_from_built_premises(builders):
    s = parse_sequent("p /\\ q ; |-+ p")
    v = check_rule_instance(s, R.AndLa, [parse_sequent("p ; |-+ p")])
    assert str(v) == ("AndLa: premises do not match the schema: expected p, q ; |-+ p, "
                      "got p ; |-+ p")
    assert ("premise_of", "check_rule_instance") in builders
    # with no conjunction among the assumptions there is no candidate to word
    v = check_rule_instance(parse_sequent("p ; |-+ p"), R.AndLa, [parse_sequent("p ; |-+ p")])
    assert str(v) == "AndLa: no principal occurrence of the right shape"


def test_a_rule_instance_is_decided_by_one_call(monkeypatch):
    # three conjunctions among the assumptions, and a premise that fits only
    # the last: the decider walks them in one call, whether the node fits or not
    s = parse_sequent("a /\\ b, c /\\ d, e /\\ f ; |-+ q")
    ok = [parse_sequent("a /\\ b, c /\\ d, e, f ; |-+ q")]
    assert check_rule_instance(s, R.AndLa, ok) is None     # compiles the rule's check
    calls = []
    valid = kernel._VALID[R.AndLa]

    def counted(*args):
        calls.append(args)
        return valid(*args)

    monkeypatch.setitem(kernel._VALID, R.AndLa, counted)
    assert check_rule_instance(s, R.AndLa, ok) is None
    assert len(calls) == 1
    v = check_rule_instance(s, R.AndLa, [parse_sequent("a /\\ b, c /\\ d, e ; |-+ q")])
    assert str(v) == ("AndLa: premises do not match the schema: expected "
                      "e, f, a /\\ b, c /\\ d ; |-+ q, got e, a /\\ b, c /\\ d ; |-+ q")
    assert len(calls) == 2
