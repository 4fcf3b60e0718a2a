"""The reference checker of ``reference_checker.py`` against the kernel.

Its verdict must equal ``Derivation.valid``: on every node of the corpus
files, of the prove-pin proofs and of the pinned cut eliminations, and on
``test_match.py``'s single-field mutations of the nodes of its corpus.
"""

from __future__ import annotations

import random

import reference_checker as reference
from bint import corpus
from bint.corpus import DATA_DIR
from bint.decide import derivable
from bint.kernel import SCHEMA, Derivation, RuleId as R, dual_sequent, parse_sequent
from bint.search import Proved, prove
from bint.serialize import load_derivation, load_derivations
from bint.syntax import parse_formula
from bint.transform import eliminate_cut
from conftest import SEED, horn_chain, random_sequent
from test_match import _mutations, nodes  # noqa: F401  (``nodes`` is a fixture)


def _agree(roots) -> tuple[int, int]:
    """Asserts that the reference judges each distinct node of ``roots`` as
    the kernel did when it built it, and each root as ``valid`` says; gives
    the counts of valid and invalid nodes."""
    counts = [0, 0]
    stack, seen = list(roots), set()
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        fits = reference.node_fits(x.rule.value, x.conclusion,
                                   [p.conclusion for p in x.premises], x.annotation)
        assert x.valid == (fits and all(p.valid for p in x.premises)), x
        counts[x.valid] += 1
        stack.extend(x.premises)
    assert all(reference.valid(d) == d.valid for d in roots)
    return counts[1], counts[0]


def test_the_reference_agrees_on_the_corpus_files():
    roots = [d for path in sorted(DATA_DIR.glob("*.deriv")) for d in load_derivations(path)]
    good, bad = _agree(roots)
    assert len(roots) > 150 and good > 300 and bad == 0


def test_the_reference_agrees_on_the_prove_pin_proofs():
    # the queries of test_search.py::test_prove_output_is_pinned
    queries = [parse_sequent(c.input["sequent"])
               for c in corpus.load_manifest() if c.kind == "prove"]
    rng = random.Random(f"{SEED}/pin")
    accepted = []
    while len(accepted) < 1000:
        s = random_sequent(rng)
        if derivable(s):
            accepted.append(s)
    queries += accepted
    queries += [horn_chain(n, start) for n in range(4, 51) for start in (True, False)]
    proofs = [out.derivation for s in queries for x in (s, dual_sequent(s))
              if isinstance(out := prove(x), Proved)]
    good, bad = _agree(proofs)
    assert len(proofs) > 2000 and good > 10_000 and bad == 0


def test_the_reference_agrees_on_the_pinned_cut_eliminations(cut_pairs):
    # the inputs of test_transform.py::test_cut_elimination_output_is_pinned
    inputs = [(left, right, dfm, variant)
              for variant, pairs in cut_pairs.items() for left, right, dfm in pairs]
    for case in corpus.load_manifest():
        if case.kind == "cutelim":
            inp = case.input
            inputs.append((load_derivation(DATA_DIR / inp["left"]),
                           load_derivation(DATA_DIR / inp["right"]),
                           parse_formula(inp["cut_formula"]),
                           R.CutA if inp["variant"] == "a" else R.CutC))
    outputs = [eliminate_cut(*args) for args in inputs]
    good, bad = _agree(outputs + [x for args in inputs for x in args[:2]])
    assert len(outputs) == 450 and good > 4000 and bad == 0


def _stub(s) -> Derivation:
    """A valid premise concluding ``s``, made without a check: a node built
    on stubs is valid exactly when the node itself fits its rule."""
    x = object.__new__(Derivation)
    for name, value in (("conclusion", s), ("rule", R.RfPlus), ("premises", ()),
                        ("annotation", None), ("height", 0), ("cut_count", 0), ("valid", True)):
        object.__setattr__(x, name, value)
    return x


def test_the_reference_agrees_on_mutated_nodes(nodes):   # noqa: F811
    counts = [0, 0]
    for s, rule, premises, annotation in nodes:
        if rule not in SCHEMA:
            continue
        for conclusion, mutated, ann in _mutations(s, rule, premises, annotation):
            kernel = Derivation(conclusion, rule, tuple(map(_stub, mutated)), ann).valid
            assert reference.node_fits(rule.value, conclusion, mutated, ann) == kernel, \
                (conclusion, rule, mutated, ann)
            counts[kernel] += 1
    assert counts[0] > 100_000 and 0 < counts[1] < counts[0] // 20
