"""The reference checker of ``reference_checker.py`` against the kernel.

Its verdict must equal ``Derivation.valid``: on every node of the corpus
files, of the prove-pin proofs, of the pinned cut eliminations and the
tall-chain ones, of what dualizing, weakening, contracting, inverting and
unweakening make of the corpus files, and of identity expansions; and on
the single-field mutations of ``conftest.py``'s corpus of nodes.
"""

from __future__ import annotations

import reference_checker as reference
from bint import corpus
from bint.corpus import DATA_DIR
from bint.kernel import Derivation, Polarity, RuleId as R, Side, dual_derivation
from bint.serialize import load_derivation, load_derivations, loads_derivation
from bint.syntax import BOT, TOP, And, Atom, Coimp, Imp, Or, parse_formula
from bint.transform import (
    SpecialWeakening, contract, derive_identity, eliminate_cut, invert, unweaken_special, weaken,
)
from perfbench import gen

from conftest import valid_premise


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


def test_the_reference_agrees_on_the_prove_pin_proofs(prove_pin_proofs):
    good, bad = _agree(prove_pin_proofs)
    assert len(prove_pin_proofs) > 2000 and good > 10_000 and bad == 0


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


def test_the_reference_agrees_on_mutated_nodes(mutated_nodes):
    counts = [0, 0]
    for rule, conclusion, mutated, ann in mutated_nodes:
        kernel = Derivation(conclusion, rule, tuple(map(valid_premise, mutated)), ann).valid
        assert reference.node_fits(rule.value, conclusion, mutated, ann) == kernel, \
            (conclusion, rule, mutated, ann)
        counts[kernel] += 1
    assert counts[0] > 100_000 and 0 < counts[1] < counts[0] // 20


def test_the_reference_agrees_on_the_tall_chain_eliminations():
    # the inputs of test_transform.py::test_tall_chain_eliminations_are_pinned
    outputs = [eliminate_cut(loads_derivation(pair.left), loads_derivation(pair.right),
                             parse_formula(pair.cut_formula), R(pair.variant))
               for pair in gen.chain_set(0, 0)]
    good, bad = _agree(outputs)
    assert len(outputs) == 100 and good > 1000 and bad == 0


def _transformed(d) -> list[Derivation]:
    """What each transform makes of ``d``: its dual, and for a cut-free ``d``
    a weakening on each side, a contraction of each distinct formula of
    either context doubled by weakening, the inversion of each compound of
    either context, and the removal of a T or F weakened in."""
    out = [dual_derivation(d)]
    if d.cut_count:
        return out
    s = d.conclusion
    for side, ctx in ((Side.A, s.gamma), (Side.C, s.delta)):
        out.append(weaken(d, Atom("zz"), side))
        for f in ctx.distinct():
            out.append(contract(weaken(d, f, side), f, side))
            if isinstance(f, (And, Or, Imp, Coimp)):
                out += invert(d, side, f)
    out.append(unweaken_special(weaken(d, TOP, Side.A), SpecialWeakening.TOP_IN_GAMMA))
    out.append(unweaken_special(weaken(d, BOT, Side.C), SpecialWeakening.BOT_IN_DELTA))
    return out


def test_the_reference_agrees_on_the_transforms_of_the_corpus_files():
    roots = [d for path in sorted(DATA_DIR.glob("*.deriv")) for d in load_derivations(path)]
    outputs = [x for d in roots for x in _transformed(d)]
    good, bad = _agree(outputs)
    assert len(outputs) > 1000 and good > 2500 and bad == 0


def test_the_reference_agrees_on_identity_expansions():
    # every formula of every corpus endsequent, in that endsequent's contexts
    ends = [d.conclusion for path in sorted(DATA_DIR.glob("*.deriv"))
            for d in load_derivations(path)]
    outputs = [derive_identity(s.gamma, s.delta, f, pol) for s in ends
               for f in dict.fromkeys((*s.gamma.distinct(), *s.delta.distinct(), s.succedent))
               for pol in Polarity]
    good, bad = _agree(outputs)
    assert len(outputs) > 500 and good > 1500 and bad == 0
