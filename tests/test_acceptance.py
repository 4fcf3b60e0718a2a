"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

import itertools
import random
import time

from bint.syntax import (
    BOT, TOP, And, Atom, Bottom, Coimp, Formula, Imp, Or, Top,
    format_formula, parse_formula,
)
from bint.kernel import (
    MINUS, PLUS, Context, Derivation, RuleId as R, Sequent, Side,
    backward_expansions, check_derivation, check_rule_instance, dual_derivation,
    dual_sequent, format_sequent, node, parse_sequent, sequent,
)
from bint.search import Proved, Refuted, prove
from bint.serialize import (
    dumps_derivation, load_derivation, loads_derivation,
)
from bint.transform import (
    CutTrace, contract, derive_identity, eliminate_cut, invert, weaken,
)
from bint import corpus, kernel

from conftest import SEED

p, q = Atom("p"), Atom("q")


def _ok(name: str, detail: str = "") -> None:
    print(f"\nACCEPTANCE {name}: PASS {detail}".rstrip())


# --- criterion 1: rule-table completeness -------------------------------------------

# An independent, list-based transcription of the rule figures.  It enumerates
# candidate instances position by position and never calls the kernel's
# premise builder, so agreement with backward_expansions checks both sides.

def naive_expansions(s: Sequent) -> set:
    out = set()
    g = tuple(s.gamma)
    d = tuple(s.delta)
    pol, c = s.polarity, s.succedent
    plus = pol is PLUS

    def mk(gs, ds, sign, succ) -> Sequent:
        return sequent(gs, ds, sign, succ)

    def drop(ctx, i):
        return ctx[:i] + ctx[i + 1:]

    # closers
    if plus and isinstance(c, Atom) and c in g:
        out.add((R.RfPlus, None, ()))
    if not plus and isinstance(c, Atom) and c in d:
        out.add((R.RfMinus, None, ()))
    if BOT in g:
        out.add((R.BotLa, None, ()))
    if TOP in d:
        out.add((R.TopLc, None, ()))
    if not plus and isinstance(c, Bottom):
        out.add((R.BotRMinus, None, ()))
    if plus and isinstance(c, Top):
        out.add((R.TopRPlus, None, ()))

    # right rules, by the succedent's main connective
    if isinstance(c, And):
        a, b = c.left, c.right
        if plus:
            out.add((R.AndRPlus, None, (mk(g, d, PLUS, a), mk(g, d, PLUS, b))))
        else:
            out.add((R.AndRMinus1, None, (mk(g, d, MINUS, a),)))
            out.add((R.AndRMinus2, None, (mk(g, d, MINUS, b),)))
    elif isinstance(c, Or):
        a, b = c.left, c.right
        if plus:
            out.add((R.OrRPlus1, None, (mk(g, d, PLUS, a),)))
            out.add((R.OrRPlus2, None, (mk(g, d, PLUS, b),)))
        else:
            out.add((R.OrRMinus, None, (mk(g, d, MINUS, a), mk(g, d, MINUS, b))))
    elif isinstance(c, Imp):
        a, b = c.left, c.right
        if plus:
            out.add((R.ImpRPlus, None, (mk(g + (a,), d, PLUS, b),)))
        else:
            out.add((R.ImpRMinus, None, (mk(g, d, PLUS, a), mk(g, d, MINUS, b))))
    elif isinstance(c, Coimp):
        a, b = c.left, c.right
        if plus:
            out.add((R.CoimpRPlus, None, (mk(g, d, PLUS, a), mk(g, d, MINUS, b))))
        else:
            out.add((R.CoimpRMinus, None, (mk(g, d + (b,), MINUS, a),)))

    # left rules, one instance per occurrence position (set dedupes)
    for i, f in enumerate(g):
        rest = drop(g, i)
        if isinstance(f, And):
            out.add((R.AndLa, f, (mk(rest + (f.left, f.right), d, pol, c),)))
        elif isinstance(f, Or):
            out.add((R.OrLa, f, (mk(rest + (f.left,), d, pol, c),
                                 mk(rest + (f.right,), d, pol, c))))
        elif isinstance(f, Imp):
            out.add((R.ImpLa, f, (mk(g, d, PLUS, f.left),
                                  mk(rest + (f.right,), d, pol, c))))
        elif isinstance(f, Coimp):
            out.add((R.CoimpLa, f, (mk(rest + (f.left,), d + (f.right,), pol, c),)))
    for i, f in enumerate(d):
        rest = drop(d, i)
        if isinstance(f, And):
            out.add((R.AndLc, f, (mk(g, rest + (f.left,), pol, c),
                                  mk(g, rest + (f.right,), pol, c))))
        elif isinstance(f, Or):
            out.add((R.OrLc, f, (mk(g, rest + (f.left, f.right), pol, c),)))
        elif isinstance(f, Imp):
            out.add((R.ImpLc, f, (mk(g + (f.left,), rest + (f.right,), pol, c),)))
        elif isinstance(f, Coimp):
            out.add((R.CoimpLc, f, (mk(g, d, MINUS, f.right),
                                    mk(g, rest + (f.left,), pol, c))))
    return out


_POOL = [Atom("p"), Atom("q"), BOT, TOP,
         And(Atom("p"), Atom("q")), Or(Atom("p"), Atom("q")),
         Imp(Atom("p"), Atom("q")), Coimp(Atom("p"), Atom("q"))]


def _universe():
    ctxs = [()]
    ctxs += [(f,) for f in _POOL]
    ctxs += [tuple(pair) for pair in
             itertools.combinations_with_replacement(_POOL, 2)]
    for gam in ctxs:
        for delt in ctxs:
            for succ in _POOL:
                for pol in (PLUS, MINUS):
                    yield sequent(gam, delt, pol, succ)


def test_criterion_1_rule_table_completeness():
    start = time.time()
    rng = random.Random(SEED + 1)
    count = 0
    probes = 0
    for s in _universe():
        count += 1
        got = {(rule, principal, kernel.premises(s, rule, principal))
               for rule, principal in backward_expansions(s)}
        want = naive_expansions(s)
        assert got == want, f"disagreement at {format_sequent(s)}"
        for rule, principal, premises in got:
            ann = None
            if principal is not None:
                from bint.kernel import Annotation
                ann = Annotation(principal=principal)
            assert check_rule_instance(s, rule, premises, ann) is None
        # mutation probes: the checker accepts a perturbed instance only if it
        # is itself a listed instance
        if rng.random() < 0.02 and got:
            rule, principal, premises = rng.choice(sorted(
                got, key=lambda t: t[0].value))
            mutated = _mutate(rng, premises)
            if mutated is not None and mutated != premises:
                probes += 1
                verdict = check_rule_instance(s, rule, mutated) is None
                listed = any(r2 is rule and prem2 == mutated
                             for (r2, _, prem2) in want)
                assert verdict == listed, (
                    f"checker disagreed with the table at {format_sequent(s)} "
                    f"{rule.value} {[format_sequent(m) for m in mutated]}")
    elapsed = time.time() - start
    assert elapsed < 60, f"exhaustive agreement took {elapsed:.1f}s"
    _ok("1 (rule-table completeness)",
        f"- {count} sequents, {probes} mutation probes, {elapsed:.1f}s")


def _mutate(rng: random.Random, premises):
    if not premises:
        return None
    idx = rng.randrange(len(premises))
    s = premises[idx]
    z = Atom("zz")
    kind = rng.randrange(4)
    if kind == 0:
        s2 = Sequent(s.gamma.add(z), s.delta, s.polarity, s.succedent)
    elif kind == 1:
        s2 = Sequent(s.gamma, s.delta.add(z), s.polarity, s.succedent)
    elif kind == 2:
        s2 = Sequent(s.gamma, s.delta, s.polarity.flip(), s.succedent)
    else:
        if len(premises) != 2 or premises[0] == premises[1]:
            return None
        return (premises[1], premises[0])
    return premises[:idx] + (s2,) + premises[idx + 1:]


# --- criterion 2: the reflexivity golden suite ---------------------------------------

def test_criterion_2_identity_golden_suite():
    cases = [c for c in corpus.load_manifest() if c.kind == "identity"]
    bases = [c for c in cases if not c.id.endswith(("-step-plus", "-step-minus"))]
    steps = [c for c in cases if c.id.endswith(("-step-plus", "-step-minus"))]
    assert len(bases) == 38   # 19 low-weight shapes, both polarities
    assert len(steps) == 8    # 4 connective steps, both polarities
    for c in cases:
        result = corpus.run_golden(c)
        assert result.ok, f"{c.id}: {result.diff}"
    assert all(c.expected["height"] <= 1 for c in bases)
    assert all(c.expected["height"] == 2 for c in steps)
    _ok("2 (identity golden suite)", f"- {len(cases)} figures reproduced")


# --- criterion 3: height-preserving weakening ----------------------------------------

def test_criterion_3_weakening(derivation_corpus):
    rng = random.Random(SEED + 3)
    pool = _POOL
    checked = 0
    for d in derivation_corpus:
        extra = rng.choice(pool)
        side = rng.choice((Side.A, Side.C))
        out = weaken(d, extra, side)
        report = check_derivation(out)
        assert report.valid and report.cut_count == 0
        assert out.height <= d.height
        target_before = d.conclusion.gamma if side is Side.A else d.conclusion.delta
        target_after = out.conclusion.gamma if side is Side.A else out.conclusion.delta
        other_before = d.conclusion.delta if side is Side.A else d.conclusion.gamma
        other_after = out.conclusion.delta if side is Side.A else out.conclusion.gamma
        assert target_after == target_before.add(extra)
        assert other_after == other_before
        checked += 1

        from bint.transform import weaken_context
        ge = Context.from_iter([rng.choice(pool), rng.choice(pool)])
        de = Context.from_iter([rng.choice(pool)])
        folded = weaken_context(d, ge, de)
        report = check_derivation(folded)
        assert report.valid and folded.height <= d.height
        assert folded.conclusion.gamma == d.conclusion.gamma.union(ge)
        assert folded.conclusion.delta == d.conclusion.delta.union(de)
    assert checked == 200
    _ok("3 (height-preserving weakening)", "- 200/200 runs height-preserving")


# --- criterion 4: inversion -----------------------------------------------------------

def test_criterion_4_inversion(derivation_corpus):
    shapes = [
        (Side.A, And(p, q)), (Side.C, And(p, q)),
        (Side.A, Or(p, q)), (Side.C, Or(p, q)),
        (Side.A, Imp(p, q)), (Side.C, Imp(p, q)),
        (Side.A, Coimp(p, q)), (Side.C, Coimp(p, q)),
    ]
    runs = 0
    for side, target in shapes:
        for d in derivation_corpus[:25]:
            grown = weaken(d, target, side)
            for out in invert(grown, side, target):
                report = check_derivation(out)
                assert report.valid and report.cut_count == 0
                assert out.height <= grown.height
                runs += 1

    # the non-invertible arrow premises: the positive sequents are derivable,
    # their would-be inversions are not
    assert isinstance(prove(parse_sequent("F -> F ; |-+ F -> F")), Proved)
    assert isinstance(prove(parse_sequent("F -> F ; |-+ F")), Refuted)
    assert isinstance(prove(parse_sequent("; T -< T |-- T -< T")), Proved)
    assert isinstance(prove(parse_sequent("; T -< T |-- T")), Refuted)
    _ok("4 (inversion)", f"- 8 cases x 25 derivations ({runs} outputs), "
                         "non-invertible witnesses confirmed")


# --- criterion 5: height-preserving contraction ----------------------------------------

def _principal_contraction_inputs(a: Formula, b: Formula) -> list[tuple[Derivation, Formula, Side]]:
    """One derivation per connective and side whose root decomposes one copy
    of the duplicated formula."""
    out = []
    fa = And(a, b)
    d = node(R.AndLa, Sequent(Context.of(fa), Context(), PLUS, a),
             [derive_identity(Context.of(b), Context(), a, PLUS)], principal=fa)
    out.append((weaken(d, fa, Side.A), fa, Side.A))
    d = node(R.AndLc, Sequent(Context(), Context.of(fa), MINUS, BOT),
             [node(R.BotRMinus, Sequent(Context(), Context.of(a), MINUS, BOT)),
              node(R.BotRMinus, Sequent(Context(), Context.of(b), MINUS, BOT))],
             principal=fa)
    out.append((weaken(d, fa, Side.C), fa, Side.C))

    fo = Or(a, b)
    out.append((weaken(derive_identity(Context(), Context(), fo, PLUS), fo, Side.A),
                fo, Side.A))
    d = node(R.OrLc, Sequent(Context(), Context.of(fo), MINUS, BOT),
             [node(R.BotRMinus, Sequent(Context(), Context.of(a, b), MINUS, BOT))],
             principal=fo)
    out.append((weaken(d, fo, Side.C), fo, Side.C))

    fi = Imp(a, b)
    d = node(R.ImpLa, Sequent(Context.of(a, fi), Context(), PLUS, a),
             [derive_identity(Context.of(fi), Context(), a, PLUS),
              derive_identity(Context.of(b), Context(), a, PLUS)], principal=fi)
    out.append((weaken(d, fi, Side.A), fi, Side.A))
    out.append((weaken(derive_identity(Context(), Context(), fi, MINUS), fi, Side.C),
                fi, Side.C))

    fc = Coimp(a, b)
    out.append((weaken(derive_identity(Context(), Context(), fc, PLUS), fc, Side.A),
                fc, Side.A))
    d = node(R.CoimpLc, Sequent(Context(), Context.of(b, fc), MINUS, b),
             [derive_identity(Context(), Context.of(fc), b, MINUS),
              derive_identity(Context(), Context.of(a), b, MINUS)], principal=fc)
    out.append((weaken(d, fc, Side.C), fc, Side.C))
    return out


def test_criterion_5_contraction(derivation_corpus):
    rng = random.Random(SEED + 5)
    cases: list[tuple[Derivation, Formula, Side]] = []

    # principal cases: all four connectives on both sides, several operand mixes
    operand_pairs = [(Atom("p"), Atom("q")), (Atom("q"), Atom("r")),
                     (BOT, Atom("p")), (Atom("p"), TOP),
                     (And(Atom("p"), Atom("q")), Atom("r")),
                     (Atom("p"), Imp(Atom("q"), Atom("r")))]
    for a, b in operand_pairs:
        cases.extend(_principal_contraction_inputs(a, b))
    # non-principal duplicates from the random corpus, grown by weakening twice
    i = 0
    while len(cases) < 200:
        d = derivation_corpus[i % len(derivation_corpus)]
        i += 1
        dup = rng.choice(_POOL)
        side = rng.choice((Side.A, Side.C))
        cases.append((weaken(weaken(d, dup, side), dup, side), dup, side))
    assert len(cases) == 200

    for d, dup, side in cases:
        ctx = d.conclusion.gamma if side is Side.A else d.conclusion.delta
        assert ctx.count(dup) >= 2
        out = contract(d, dup, side)
        report = check_derivation(out)
        assert report.valid and report.cut_count == 0
        assert out.height <= d.height
        want = (d.conclusion.gamma.remove(dup) if side is Side.A
                else d.conclusion.delta.remove(dup))
        got = out.conclusion.gamma if side is Side.A else out.conclusion.delta
        assert got == want
    _ok("5 (height-preserving contraction)",
        "- 200/200 runs height-preserving, all principal shapes covered")


# --- criterion 6: cut elimination -------------------------------------------------------

def test_criterion_6_cut_elimination(cut_pairs):
    start = time.time()
    height_bump_seen = False
    c_to_a = a_to_c = 0
    total = 0
    for variant in (R.CutA, R.CutC):
        for left, right, dfm in cut_pairs[variant]:
            total += 1
            trace = CutTrace()
            out = eliminate_cut(left, right, dfm, variant, trace)
            report = check_derivation(out)
            assert report.valid and report.cut_count == 0

            from bint.transform import _Eliminator
            assert out.conclusion == _Eliminator(None).target(left, right, dfm, variant)

            for parent, child in trace.edges():
                assert (child.weight, child.cut_height) < (parent.weight, parent.cut_height)
                if child.cut_height > parent.cut_height:
                    assert child.weight < parent.weight
                    height_bump_seen = True
                if parent.case == "-5.3-" and parent.variant == "c" and child.variant == "a":
                    c_to_a += 1
                if parent.case == "-5.4-" and parent.variant == "a" and child.variant == "c":
                    a_to_c += 1

            oracle = prove(out.conclusion)
            assert isinstance(oracle, Proved), \
                f"oracle failed on {format_sequent(out.conclusion)}"
    elapsed = time.time() - start
    assert total == 400
    assert height_bump_seen, "no run showed cut-height growing while weight drops"
    assert c_to_a > 0, "no falsification-to-verification cut replacement seen"
    assert a_to_c > 0, "no verification-to-falsification cut replacement seen"
    assert elapsed < 300, f"cut-elimination corpus took {elapsed:.1f}s"
    _ok("6 (cut elimination)",
        f"- 400 pairs, replacements c->a:{c_to_a} a->c:{a_to_c}, {elapsed:.1f}s")


# --- criterion 7: duality ----------------------------------------------------------------

def test_criterion_7_duality(derivation_corpus):
    checked = 0
    for d in derivation_corpus:
        dd = dual_derivation(d)
        report = check_derivation(dd)
        assert report.valid
        assert dd.height == d.height
        assert dd.conclusion == dual_sequent(d.conclusion)
        checked += 1
    for path in sorted(corpus.DATA_DIR.glob("*.deriv")):
        d = load_derivation(path)
        dd = dual_derivation(d)
        assert check_derivation(dd).valid and dd.height == d.height
        checked += 1

    suite = _REGRESSION_PROVED + _REGRESSION_REFUTED + [
        "F -> F ; |-+ F -> F", "F -> F ; |-+ F",
        "p, q ; r |-+ p /\\ q",
    ]
    for text in suite:
        s = parse_sequent(text)
        a = type(prove(s)).__name__
        b = type(prove(dual_sequent(s))).__name__
        assert a == b, f"verdict changed under duality for {text}: {a} vs {b}"
    _ok("7 (duality)", f"- {checked} derivations dualized, verdicts dual-invariant")


# --- criterion 8: regression sequents ------------------------------------------------------

_REGRESSION_PROVED = [
    "; |-+ p -> p",
    "; |-+ p -> (q -> p)",                                      # K
    "; |-+ (p -> (q -> r)) -> ((p -> q) -> (p -> r))",          # S
    "; |-+ p /\\ q -> p",
    "; |-+ p /\\ q -> q",
    "; |-+ p -> (q -> p /\\ q)",
    "; |-+ p -> p \\/ q",
    "; |-+ q -> p \\/ q",
    "; |-+ (p -> r) -> ((q -> r) -> (p \\/ q -> r))",
    "; |-+ p /\\ (q \\/ r) -> (p /\\ q) \\/ (p /\\ r)",
    "; |-+ F -> p",
]

_REGRESSION_REFUTED = [
    "; |-+ ((p -> q) -> p) -> p",    # Peirce
    "; |-+ p \\/ (p -> F)",          # excluded middle
]


def test_criterion_8_regression_suite():
    for text in _REGRESSION_PROVED:
        t0 = time.time()
        out = prove(parse_sequent(text))
        dt = time.time() - t0
        assert isinstance(out, Proved), text
        assert check_derivation(out.derivation).valid
        assert dt < 1.0, f"{text} took {dt:.2f}s"
    for text in _REGRESSION_REFUTED:
        t0 = time.time()
        out = prove(parse_sequent(text))
        dt = time.time() - t0
        assert isinstance(out, Refuted), text
        assert dt < 1.0, f"{text} took {dt:.2f}s"
    _ok("8 (regression suite)",
        f"- {len(_REGRESSION_PROVED)} proved, {len(_REGRESSION_REFUTED)} refuted, <1s each")


# --- criterion 9: round trips ----------------------------------------------------------------

def _formulas_in(s: Sequent):
    yield s.succedent
    yield from s.gamma
    yield from s.delta


def test_criterion_9_round_trips(derivation_corpus):
    files = sorted(corpus.DATA_DIR.glob("*.deriv"))
    for path in files:
        text = path.read_text(encoding="utf-8")
        assert dumps_derivation(loads_derivation(text)) == text, path.name

    formulas_checked = 0
    def walk(d: Derivation):
        nonlocal formulas_checked
        for f in _formulas_in(d.conclusion):
            t = format_formula(f)
            assert parse_formula(t) == f
            assert format_formula(parse_formula(t)) == t
            formulas_checked += 1
        s_text = format_sequent(d.conclusion)
        assert format_sequent(parse_sequent(s_text)) == s_text
        for prem in d.premises:
            walk(prem)

    for d in derivation_corpus:
        walk(d)
        dumped = dumps_derivation(d)
        assert dumps_derivation(loads_derivation(dumped)) == dumped
    _ok("9 (round trips)",
        f"- {len(files)} files bit-exact, {formulas_checked} formula round trips")
