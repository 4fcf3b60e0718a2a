#!/usr/bin/env python3
"""Regenerate the golden corpus under src/bint/corpus_data/.

Every derivation here is written out literally, node by node, so the corpus is
an independent record of the expected figures rather than a snapshot of
whatever the engine currently produces.  Each tree is still run through the
checker before being written; a typo in a figure should fail loudly here, not
in the test suite.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bint.kernel import Annotation, Derivation, RuleId as R, check_derivation, parse_sequent
from bint.syntax import parse_formula
from bint.serialize import dumps_derivation

OUT = ROOT / "src" / "bint" / "corpus_data"

FILES: dict[str, Derivation] = {}
CASES: list[dict] = []


def n(rule: R, seq: str, premises=(), principal: str | None = None) -> Derivation:
    ann = Annotation(principal=parse_formula(principal)) if principal else None
    return Derivation(parse_sequent(seq), rule, tuple(premises), ann)


def put(name: str, d: Derivation) -> str:
    report = check_derivation(d)
    if not report.valid:
        raise SystemExit(f"hand-built figure {name} is invalid: {report}")
    FILES[name] = d
    return name


def case(id: str, description: str, kind: str, input: dict, expected: dict) -> None:
    CASES.append({"id": id, "description": description, "kind": kind,
                  "input": input, "expected": expected})


# --- identity: the 19 low-weight constructions, both polarities -----------------

def identity_case(tag: str, formula: str, polarity: str, d: Derivation, height: int,
                  description: str) -> None:
    suffix = "plus" if polarity == "+" else "minus"
    name = put(f"identity-{tag}-{suffix}.deriv", d)
    case(f"identity-{tag}-{suffix}", description, "identity",
         {"context": ";", "formula": formula, "polarity": polarity},
         {"file": name, "height": height})


def build_identity_bases() -> None:
    identity_case("bot", "F", "+", n(R.BotLa, "F ; |-+ F"), 0,
                  "reflexivity for falsum, verification side")
    identity_case("bot", "F", "-", n(R.BotRMinus, "; F |-- F"), 0,
                  "reflexivity for falsum, falsification side")
    identity_case("top", "T", "+", n(R.TopRPlus, "T ; |-+ T"), 0,
                  "reflexivity for verum, verification side")
    identity_case("top", "T", "-", n(R.TopLc, "; T |-- T"), 0,
                  "reflexivity for verum, falsification side")
    identity_case("atom", "p", "+", n(R.RfPlus, "p ; |-+ p"), 0,
                  "reflexivity for an atom, verification side")
    identity_case("atom", "p", "-", n(R.RfMinus, "; p |-- p"), 0,
                  "reflexivity for an atom, falsification side")

    identity_case("bot-and-bot", "F /\\ F", "+",
                  n(R.AndLa, "F /\\ F ; |-+ F /\\ F",
                    [n(R.BotLa, "F, F ; |-+ F /\\ F")], principal="F /\\ F"), 1,
                  "conjunction of falsum with itself, verification side")
    identity_case("bot-and-bot", "F /\\ F", "-",
                  n(R.AndRMinus1, "; F /\\ F |-- F /\\ F",
                    [n(R.BotRMinus, "; F /\\ F |-- F")]), 1,
                  "conjunction of falsum with itself, falsification side")

    identity_case("bot-or-bot", "F \\/ F", "+",
                  n(R.OrLa, "F \\/ F ; |-+ F \\/ F",
                    [n(R.BotLa, "F ; |-+ F \\/ F"), n(R.BotLa, "F ; |-+ F \\/ F")],
                    principal="F \\/ F"), 1,
                  "disjunction of falsum with itself, verification side")
    identity_case("bot-or-bot", "F \\/ F", "-",
                  n(R.OrRMinus, "; F \\/ F |-- F \\/ F",
                    [n(R.BotRMinus, "; F \\/ F |-- F"),
                     n(R.BotRMinus, "; F \\/ F |-- F")]), 1,
                  "disjunction of falsum with itself, falsification side")

    identity_case("bot-imp-bot", "F -> F", "+",
                  n(R.ImpRPlus, "F -> F ; |-+ F -> F",
                    [n(R.BotLa, "F, F -> F ; |-+ F")]), 1,
                  "falsum implies falsum, verification side")
    identity_case("bot-imp-bot", "F -> F", "-",
                  n(R.ImpLc, "; F -> F |-- F -> F",
                    [n(R.BotLa, "F ; F |-- F -> F")], principal="F -> F"), 1,
                  "falsum implies falsum, falsification side")

    identity_case("bot-coimp-bot", "F -< F", "+",
                  n(R.CoimpLa, "F -< F ; |-+ F -< F",
                    [n(R.BotLa, "F ; F |-+ F -< F")], principal="F -< F"), 1,
                  "falsum co-implied by falsum, verification side")
    identity_case("bot-coimp-bot", "F -< F", "-",
                  n(R.CoimpRMinus, "; F -< F |-- F -< F",
                    [n(R.BotRMinus, "; F, F -< F |-- F")]), 1,
                  "falsum co-implied by falsum, falsification side")

    identity_case("bot-and-top", "F /\\ T", "+",
                  n(R.AndLa, "F /\\ T ; |-+ F /\\ T",
                    [n(R.BotLa, "F, T ; |-+ F /\\ T")], principal="F /\\ T"), 1,
                  "falsum-and-verum, verification side")
    identity_case("bot-and-top", "F /\\ T", "-",
                  n(R.AndRMinus1, "; F /\\ T |-- F /\\ T",
                    [n(R.BotRMinus, "; F /\\ T |-- F")]), 1,
                  "falsum-and-verum, falsification side")

    identity_case("bot-or-top", "F \\/ T", "+",
                  n(R.OrRPlus2, "F \\/ T ; |-+ F \\/ T",
                    [n(R.TopRPlus, "F \\/ T ; |-+ T")]), 1,
                  "falsum-or-verum, verification side")
    identity_case("bot-or-top", "F \\/ T", "-",
                  n(R.OrLc, "; F \\/ T |-- F \\/ T",
                    [n(R.TopLc, "; F, T |-- F \\/ T")], principal="F \\/ T"), 1,
                  "falsum-or-verum, falsification side")

    identity_case("bot-imp-top", "F -> T", "+",
                  n(R.ImpRPlus, "F -> T ; |-+ F -> T",
                    [n(R.TopRPlus, "F, F -> T ; |-+ T")]), 1,
                  "falsum implies verum, verification side")
    identity_case("bot-imp-top", "F -> T", "-",
                  n(R.ImpLc, "; F -> T |-- F -> T",
                    [n(R.TopLc, "F ; T |-- F -> T")], principal="F -> T"), 1,
                  "falsum implies verum, falsification side")

    identity_case("bot-coimp-top", "F -< T", "+",
                  n(R.CoimpLa, "F -< T ; |-+ F -< T",
                    [n(R.BotLa, "F ; T |-+ F -< T")], principal="F -< T"), 1,
                  "falsum co-implied by verum, verification side")
    identity_case("bot-coimp-top", "F -< T", "-",
                  n(R.CoimpRMinus, "; F -< T |-- F -< T",
                    [n(R.TopLc, "; T, F -< T |-- F")]), 1,
                  "falsum co-implied by verum, falsification side")

    identity_case("top-and-bot", "T /\\ F", "+",
                  n(R.AndLa, "T /\\ F ; |-+ T /\\ F",
                    [n(R.BotLa, "F, T ; |-+ T /\\ F")], principal="T /\\ F"), 1,
                  "verum-and-falsum, verification side")
    identity_case("top-and-bot", "T /\\ F", "-",
                  n(R.AndRMinus2, "; T /\\ F |-- T /\\ F",
                    [n(R.BotRMinus, "; T /\\ F |-- F")]), 1,
                  "verum-and-falsum, falsification side")

    identity_case("top-or-bot", "T \\/ F", "+",
                  n(R.OrRPlus1, "T \\/ F ; |-+ T \\/ F",
                    [n(R.TopRPlus, "T \\/ F ; |-+ T")]), 1,
                  "verum-or-falsum, verification side")
    identity_case("top-or-bot", "T \\/ F", "-",
                  n(R.OrLc, "; T \\/ F |-- T \\/ F",
                    [n(R.TopLc, "; F, T |-- T \\/ F")], principal="T \\/ F"), 1,
                  "verum-or-falsum, falsification side")

    identity_case("top-imp-bot", "T -> F", "+",
                  n(R.ImpLa, "T -> F ; |-+ T -> F",
                    [n(R.TopRPlus, "T -> F ; |-+ T"),
                     n(R.BotLa, "F ; |-+ T -> F")], principal="T -> F"), 1,
                  "verum implies falsum, verification side")
    identity_case("top-imp-bot", "T -> F", "-",
                  n(R.ImpRMinus, "; T -> F |-- T -> F",
                    [n(R.TopRPlus, "; T -> F |-+ T"),
                     n(R.BotRMinus, "; T -> F |-- F")]), 1,
                  "verum implies falsum, falsification side")

    identity_case("top-coimp-bot", "T -< F", "+",
                  n(R.CoimpRPlus, "T -< F ; |-+ T -< F",
                    [n(R.TopRPlus, "T -< F ; |-+ T"),
                     n(R.BotRMinus, "T -< F ; |-- F")]), 1,
                  "verum co-implied by falsum, verification side")
    identity_case("top-coimp-bot", "T -< F", "-",
                  n(R.CoimpLc, "; T -< F |-- T -< F",
                    [n(R.BotRMinus, "; T -< F |-- F"),
                     n(R.TopLc, "; T |-- T -< F")], principal="T -< F"), 1,
                  "verum co-implied by falsum, falsification side")

    identity_case("top-and-top", "T /\\ T", "+",
                  n(R.AndRPlus, "T /\\ T ; |-+ T /\\ T",
                    [n(R.TopRPlus, "T /\\ T ; |-+ T"),
                     n(R.TopRPlus, "T /\\ T ; |-+ T")]), 1,
                  "conjunction of verum with itself, verification side")
    identity_case("top-and-top", "T /\\ T", "-",
                  n(R.AndLc, "; T /\\ T |-- T /\\ T",
                    [n(R.TopLc, "; T |-- T /\\ T"),
                     n(R.TopLc, "; T |-- T /\\ T")], principal="T /\\ T"), 1,
                  "conjunction of verum with itself, falsification side")

    identity_case("top-or-top", "T \\/ T", "+",
                  n(R.OrRPlus1, "T \\/ T ; |-+ T \\/ T",
                    [n(R.TopRPlus, "T \\/ T ; |-+ T")]), 1,
                  "disjunction of verum with itself, verification side")
    identity_case("top-or-top", "T \\/ T", "-",
                  n(R.OrLc, "; T \\/ T |-- T \\/ T",
                    [n(R.TopLc, "; T, T |-- T \\/ T")], principal="T \\/ T"), 1,
                  "disjunction of verum with itself, falsification side")

    identity_case("top-imp-top", "T -> T", "+",
                  n(R.ImpRPlus, "T -> T ; |-+ T -> T",
                    [n(R.TopRPlus, "T, T -> T ; |-+ T")]), 1,
                  "verum implies verum, verification side")
    identity_case("top-imp-top", "T -> T", "-",
                  n(R.ImpLc, "; T -> T |-- T -> T",
                    [n(R.TopLc, "T ; T |-- T -> T")], principal="T -> T"), 1,
                  "verum implies verum, falsification side")

    identity_case("top-coimp-top", "T -< T", "+",
                  n(R.CoimpLa, "T -< T ; |-+ T -< T",
                    [n(R.TopLc, "T ; T |-+ T -< T")], principal="T -< T"), 1,
                  "verum co-implied by verum, verification side")
    identity_case("top-coimp-top", "T -< T", "-",
                  n(R.CoimpRMinus, "; T -< T |-- T -< T",
                    [n(R.TopLc, "; T, T -< T |-- T")]), 1,
                  "verum co-implied by verum, falsification side")


def build_identity_steps() -> None:
    identity_case("and-step", "p /\\ q", "+",
                  n(R.AndRPlus, "p /\\ q ; |-+ p /\\ q",
                    [n(R.AndLa, "p /\\ q ; |-+ p",
                       [n(R.RfPlus, "p, q ; |-+ p")], principal="p /\\ q"),
                     n(R.AndLa, "p /\\ q ; |-+ q",
                       [n(R.RfPlus, "p, q ; |-+ q")], principal="p /\\ q")]), 2,
                  "recursive reflexivity step for a conjunction, verification side")
    identity_case("and-step", "p /\\ q", "-",
                  n(R.AndLc, "; p /\\ q |-- p /\\ q",
                    [n(R.AndRMinus1, "; p |-- p /\\ q", [n(R.RfMinus, "; p |-- p")]),
                     n(R.AndRMinus2, "; q |-- p /\\ q", [n(R.RfMinus, "; q |-- q")])],
                    principal="p /\\ q"), 2,
                  "recursive reflexivity step for a conjunction, falsification side")
    identity_case("or-step", "p \\/ q", "+",
                  n(R.OrLa, "p \\/ q ; |-+ p \\/ q",
                    [n(R.OrRPlus1, "p ; |-+ p \\/ q", [n(R.RfPlus, "p ; |-+ p")]),
                     n(R.OrRPlus2, "q ; |-+ p \\/ q", [n(R.RfPlus, "q ; |-+ q")])],
                    principal="p \\/ q"), 2,
                  "recursive reflexivity step for a disjunction, verification side")
    identity_case("or-step", "p \\/ q", "-",
                  n(R.OrRMinus, "; p \\/ q |-- p \\/ q",
                    [n(R.OrLc, "; p \\/ q |-- p",
                       [n(R.RfMinus, "; p, q |-- p")], principal="p \\/ q"),
                     n(R.OrLc, "; p \\/ q |-- q",
                       [n(R.RfMinus, "; p, q |-- q")], principal="p \\/ q")]), 2,
                  "recursive reflexivity step for a disjunction, falsification side")
    identity_case("imp-step", "p -> q", "+",
                  n(R.ImpRPlus, "p -> q ; |-+ p -> q",
                    [n(R.ImpLa, "p, p -> q ; |-+ q",
                       [n(R.RfPlus, "p, p -> q ; |-+ p"),
                        n(R.RfPlus, "p, q ; |-+ q")], principal="p -> q")]), 2,
                  "recursive reflexivity step for an implication, verification side")
    identity_case("imp-step", "p -> q", "-",
                  n(R.ImpLc, "; p -> q |-- p -> q",
                    [n(R.ImpRMinus, "p ; q |-- p -> q",
                       [n(R.RfPlus, "p ; q |-+ p"),
                        n(R.RfMinus, "p ; q |-- q")])], principal="p -> q"), 2,
                  "recursive reflexivity step for an implication, falsification side")
    identity_case("coimp-step", "p -< q", "+",
                  n(R.CoimpLa, "p -< q ; |-+ p -< q",
                    [n(R.CoimpRPlus, "p ; q |-+ p -< q",
                       [n(R.RfPlus, "p ; q |-+ p"),
                        n(R.RfMinus, "p ; q |-- q")])], principal="p -< q"), 2,
                  "recursive reflexivity step for a co-implication, verification side")
    identity_case("coimp-step", "p -< q", "-",
                  n(R.CoimpRMinus, "; p -< q |-- p -< q",
                    [n(R.CoimpLc, "; q, p -< q |-- p",
                       [n(R.RfMinus, "; q, p -< q |-- q"),
                        n(R.RfMinus, "; p, q |-- p")], principal="p -< q")]), 2,
                  "recursive reflexivity step for a co-implication, falsification side")


# --- weakening / inverted weakening ----------------------------------------------

def build_weakening() -> None:
    src = put("weaken-and-la-in.deriv",
              n(R.AndLa, "p /\\ q ; |-+ p",
                [n(R.RfPlus, "p, q ; |-+ p")], principal="p /\\ q"))
    dst = put("weaken-and-la-out.deriv",
              n(R.AndLa, "r, p /\\ q ; |-+ p",
                [n(R.RfPlus, "p, q, r ; |-+ p")], principal="p /\\ q"))
    case("weaken-and-la", "weakening pushed through a one-premise assumption rule",
         "weaken", {"file": src, "formula": "r", "side": "a"}, {"file": dst})

    src = put("weaken-and-lc-in.deriv",
              n(R.AndLc, "p ; a /\\ b |-+ p",
                [n(R.RfPlus, "p ; a |-+ p"), n(R.RfPlus, "p ; b |-+ p")],
                principal="a /\\ b"))
    dst = put("weaken-and-lc-out.deriv",
              n(R.AndLc, "p ; r, a /\\ b |-+ p",
                [n(R.RfPlus, "p ; a, r |-+ p"), n(R.RfPlus, "p ; b, r |-+ p")],
                principal="a /\\ b"))
    case("weaken-and-lc", "weakening pushed through a two-premise counterassumption rule",
         "weaken", {"file": src, "formula": "r", "side": "c"}, {"file": dst})

    src = put("weaken-and-rplus-in.deriv",
              n(R.AndRPlus, "p, q ; |-+ p /\\ q",
                [n(R.RfPlus, "p, q ; |-+ p"), n(R.RfPlus, "p, q ; |-+ q")]))
    dst = put("weaken-and-rplus-out.deriv",
              n(R.AndRPlus, "p, q ; r |-+ p /\\ q",
                [n(R.RfPlus, "p, q ; r |-+ p"), n(R.RfPlus, "p, q ; r |-+ q")]))
    case("weaken-and-rplus", "weakening pushed through the conjunction verification rule",
         "weaken", {"file": src, "formula": "r", "side": "c"}, {"file": dst})

    src = put("weaken-and-rminus1-in.deriv",
              n(R.AndRMinus1, "; p |-- p /\\ q", [n(R.RfMinus, "; p |-- p")]))
    dst = put("weaken-and-rminus1-out.deriv",
              n(R.AndRMinus1, "r ; p |-- p /\\ q", [n(R.RfMinus, "r ; p |-- p")]))
    case("weaken-and-rminus1", "weakening pushed through a one-premise falsification rule",
         "weaken", {"file": src, "formula": "r", "side": "a"}, {"file": dst})

    src = put("unweaken-imp-lc-in.deriv",
              n(R.ImpLc, "T ; p -> q |-+ p",
                [n(R.RfPlus, "p, T ; q |-+ p")], principal="p -> q"))
    dst = put("unweaken-imp-lc-out.deriv",
              n(R.ImpLc, "; p -> q |-+ p",
                [n(R.RfPlus, "p ; q |-+ p")], principal="p -> q"))
    case("unweaken-imp-lc",
         "dropping a verum assumption through the implication counterassumption rule",
         "unweaken", {"file": src, "which": "TopInGamma"}, {"file": dst})

    src = put("unweaken-axiom-in.deriv", n(R.TopRPlus, "T ; |-+ T"))
    dst = put("unweaken-axiom-out.deriv", n(R.TopRPlus, "; |-+ T"))
    case("unweaken-axiom", "dropping a verum assumption from a closing rule",
         "unweaken", {"file": src, "which": "TopInGamma"}, {"file": dst})


# --- inversion ---------------------------------------------------------------------

def build_inversion() -> None:
    src = put("invert-and-a-in.deriv",
              n(R.AndLa, "p /\\ q ; |-+ p /\\ q",
                [n(R.AndRPlus, "p, q ; |-+ p /\\ q",
                   [n(R.RfPlus, "p, q ; |-+ p"), n(R.RfPlus, "p, q ; |-+ q")])],
                principal="p /\\ q"))
    dst = put("invert-and-a-out.deriv",
              n(R.AndRPlus, "p, q ; |-+ p /\\ q",
                [n(R.RfPlus, "p, q ; |-+ p"), n(R.RfPlus, "p, q ; |-+ q")]))
    case("invert-and-a", "conjunction among assumptions splits into both operands",
         "invert", {"file": src, "side": "a", "target": "p /\\ q"}, {"files": [dst]})

    src = put("invert-and-c-in.deriv",
              n(R.AndLc, "; p /\\ q |-- p /\\ q",
                [n(R.AndRMinus1, "; p |-- p /\\ q", [n(R.RfMinus, "; p |-- p")]),
                 n(R.AndRMinus2, "; q |-- p /\\ q", [n(R.RfMinus, "; q |-- q")])],
                principal="p /\\ q"))
    dst1 = put("invert-and-c-out1.deriv",
               n(R.AndRMinus1, "; p |-- p /\\ q", [n(R.RfMinus, "; p |-- p")]))
    dst2 = put("invert-and-c-out2.deriv",
               n(R.AndRMinus2, "; q |-- p /\\ q", [n(R.RfMinus, "; q |-- q")]))
    case("invert-and-c", "conjunction among counterassumptions splits into two derivations",
         "invert", {"file": src, "side": "c", "target": "p /\\ q"}, {"files": [dst1, dst2]})

    src = put("invert-or-a-in.deriv",
              n(R.OrLa, "p \\/ q ; |-+ p \\/ q",
                [n(R.OrRPlus1, "p ; |-+ p \\/ q", [n(R.RfPlus, "p ; |-+ p")]),
                 n(R.OrRPlus2, "q ; |-+ p \\/ q", [n(R.RfPlus, "q ; |-+ q")])],
                principal="p \\/ q"))
    dst1 = put("invert-or-a-out1.deriv",
               n(R.OrRPlus1, "p ; |-+ p \\/ q", [n(R.RfPlus, "p ; |-+ p")]))
    dst2 = put("invert-or-a-out2.deriv",
               n(R.OrRPlus2, "q ; |-+ p \\/ q", [n(R.RfPlus, "q ; |-+ q")]))
    case("invert-or-a", "disjunction among assumptions splits into two derivations",
         "invert", {"file": src, "side": "a", "target": "p \\/ q"}, {"files": [dst1, dst2]})

    src = put("invert-or-c-in.deriv",
              n(R.OrRMinus, "; p \\/ q |-- p \\/ q",
                [n(R.OrLc, "; p \\/ q |-- p",
                   [n(R.RfMinus, "; p, q |-- p")], principal="p \\/ q"),
                 n(R.OrLc, "; p \\/ q |-- q",
                   [n(R.RfMinus, "; p, q |-- q")], principal="p \\/ q")]))
    dst = put("invert-or-c-out.deriv",
              n(R.OrRMinus, "; p, q |-- p \\/ q",
                [n(R.RfMinus, "; p, q |-- p"), n(R.RfMinus, "; p, q |-- q")]))
    case("invert-or-c",
         "disjunction among counterassumptions spreads into both operands below a branching root",
         "invert", {"file": src, "side": "c", "target": "p \\/ q"}, {"files": [dst]})

    src = put("invert-imp-a-in.deriv",
              n(R.ImpRPlus, "p -> q ; |-+ p -> q",
                [n(R.ImpLa, "p, p -> q ; |-+ q",
                   [n(R.RfPlus, "p, p -> q ; |-+ p"),
                    n(R.RfPlus, "p, q ; |-+ q")], principal="p -> q")]))
    dst = put("invert-imp-a-out.deriv",
              n(R.ImpRPlus, "q ; |-+ p -> q", [n(R.RfPlus, "p, q ; |-+ q")]))
    case("invert-imp-a", "implication among assumptions inverts to its consequent only",
         "invert", {"file": src, "side": "a", "target": "p -> q"}, {"files": [dst]})

    src = put("invert-imp-c-in.deriv",
              n(R.ImpLc, "; p -> q |-- p -> q",
                [n(R.ImpRMinus, "p ; q |-- p -> q",
                   [n(R.RfPlus, "p ; q |-+ p"), n(R.RfMinus, "p ; q |-- q")])],
                principal="p -> q"))
    dst = put("invert-imp-c-out.deriv",
              n(R.ImpRMinus, "p ; q |-- p -> q",
                [n(R.RfPlus, "p ; q |-+ p"), n(R.RfMinus, "p ; q |-- q")]))
    case("invert-imp-c",
         "implication among counterassumptions moves antecedent and consequent across sides",
         "invert", {"file": src, "side": "c", "target": "p -> q"}, {"files": [dst]})

    src = put("invert-coimp-a-in.deriv",
              n(R.CoimpLa, "p -< q ; |-+ p -< q",
                [n(R.CoimpRPlus, "p ; q |-+ p -< q",
                   [n(R.RfPlus, "p ; q |-+ p"), n(R.RfMinus, "p ; q |-- q")])],
                principal="p -< q"))
    dst = put("invert-coimp-a-out.deriv",
              n(R.CoimpRPlus, "p ; q |-+ p -< q",
                [n(R.RfPlus, "p ; q |-+ p"), n(R.RfMinus, "p ; q |-- q")]))
    case("invert-coimp-a",
         "co-implication among assumptions moves its operands across sides",
         "invert", {"file": src, "side": "a", "target": "p -< q"}, {"files": [dst]})

    src = put("invert-coimp-c-in.deriv",
              n(R.CoimpRMinus, "; p -< q |-- p -< q",
                [n(R.CoimpLc, "; q, p -< q |-- p",
                   [n(R.RfMinus, "; q, p -< q |-- q"),
                    n(R.RfMinus, "; p, q |-- p")], principal="p -< q")]))
    dst = put("invert-coimp-c-out.deriv",
              n(R.CoimpRMinus, "; p |-- p -< q", [n(R.RfMinus, "; p, q |-- p")]))
    case("invert-coimp-c",
         "co-implication among counterassumptions inverts to its first operand only",
         "invert", {"file": src, "side": "c", "target": "p -< q"}, {"files": [dst]})


# --- contraction -------------------------------------------------------------------

def build_contraction() -> None:
    src = put("contract-and-a-in.deriv",
              n(R.AndLa, "p /\\ q, p /\\ q ; |-+ p",
                [n(R.AndLa, "p, q, p /\\ q ; |-+ p",
                   [n(R.RfPlus, "p, p, q, q ; |-+ p")], principal="p /\\ q")],
                principal="p /\\ q"))
    dst = put("contract-and-a-out.deriv",
              n(R.AndLa, "p /\\ q ; |-+ p",
                [n(R.RfPlus, "p, q ; |-+ p")], principal="p /\\ q"))
    case("contract-and-a", "duplicated conjunction among assumptions, principal at the root",
         "contract", {"file": src, "formula": "p /\\ q", "side": "a"}, {"file": dst})

    src = put("contract-or-a-in.deriv",
              n(R.OrLa, "r, p \\/ q, p \\/ q ; |-+ r",
                [n(R.OrLa, "p, r, p \\/ q ; |-+ r",
                   [n(R.RfPlus, "p, p, r ; |-+ r"), n(R.RfPlus, "p, q, r ; |-+ r")],
                   principal="p \\/ q"),
                 n(R.OrLa, "q, r, p \\/ q ; |-+ r",
                   [n(R.RfPlus, "p, q, r ; |-+ r"), n(R.RfPlus, "q, q, r ; |-+ r")],
                   principal="p \\/ q")],
                principal="p \\/ q"))
    dst = put("contract-or-a-out.deriv",
              n(R.OrLa, "r, p \\/ q ; |-+ r",
                [n(R.RfPlus, "p, r ; |-+ r"), n(R.RfPlus, "q, r ; |-+ r")],
                principal="p \\/ q"))
    case("contract-or-a", "duplicated disjunction among assumptions, principal at the root",
         "contract", {"file": src, "formula": "p \\/ q", "side": "a"}, {"file": dst})

    src = put("contract-imp-a-in.deriv",
              n(R.ImpLa, "p, p -> q, p -> q ; |-+ q",
                [n(R.RfPlus, "p, p -> q, p -> q ; |-+ p"),
                 n(R.RfPlus, "p, q, p -> q ; |-+ q")], principal="p -> q"))
    dst = put("contract-imp-a-out.deriv",
              n(R.ImpLa, "p, p -> q ; |-+ q",
                [n(R.RfPlus, "p, p -> q ; |-+ p"), n(R.RfPlus, "p, q ; |-+ q")],
                principal="p -> q"))
    case("contract-imp-a",
         "duplicated implication among assumptions; the copying left premise contracts directly",
         "contract", {"file": src, "formula": "p -> q", "side": "a"}, {"file": dst})

    src = put("contract-coimp-a-in.deriv",
              n(R.CoimpLa, "s, p -< q, p -< q ; |-+ s",
                [n(R.CoimpLa, "p, s, p -< q ; q |-+ s",
                   [n(R.RfPlus, "p, p, s ; q, q |-+ s")], principal="p -< q")],
                principal="p -< q"))
    dst = put("contract-coimp-a-out.deriv",
              n(R.CoimpLa, "s, p -< q ; |-+ s",
                [n(R.RfPlus, "p, s ; q |-+ s")], principal="p -< q"))
    case("contract-coimp-a",
         "duplicated co-implication among assumptions, principal at the root",
         "contract", {"file": src, "formula": "p -< q", "side": "a"}, {"file": dst})

    src = put("contract-and-c-in.deriv",
              n(R.AndLc, "; r, p /\\ q, p /\\ q |-- r",
                [n(R.AndLc, "; p, r, p /\\ q |-- r",
                   [n(R.RfMinus, "; p, p, r |-- r"), n(R.RfMinus, "; p, q, r |-- r")],
                   principal="p /\\ q"),
                 n(R.AndLc, "; q, r, p /\\ q |-- r",
                   [n(R.RfMinus, "; p, q, r |-- r"), n(R.RfMinus, "; q, q, r |-- r")],
                   principal="p /\\ q")],
                principal="p /\\ q"))
    dst = put("contract-and-c-out.deriv",
              n(R.AndLc, "; r, p /\\ q |-- r",
                [n(R.RfMinus, "; p, r |-- r"), n(R.RfMinus, "; q, r |-- r")],
                principal="p /\\ q"))
    case("contract-and-c",
         "duplicated conjunction among counterassumptions, principal at the root",
         "contract", {"file": src, "formula": "p /\\ q", "side": "c"}, {"file": dst})

    src = put("contract-or-c-in.deriv",
              n(R.OrLc, "; r, p \\/ q, p \\/ q |-- r",
                [n(R.OrLc, "; p, q, r, p \\/ q |-- r",
                   [n(R.RfMinus, "; p, p, q, q, r |-- r")], principal="p \\/ q")],
                principal="p \\/ q"))
    dst = put("contract-or-c-out.deriv",
              n(R.OrLc, "; r, p \\/ q |-- r",
                [n(R.RfMinus, "; p, q, r |-- r")], principal="p \\/ q"))
    case("contract-or-c",
         "duplicated disjunction among counterassumptions, principal at the root",
         "contract", {"file": src, "formula": "p \\/ q", "side": "c"}, {"file": dst})

    src = put("contract-imp-c-in.deriv",
              n(R.ImpLc, "; s, p -> q, p -> q |-- s",
                [n(R.ImpLc, "p ; q, s, p -> q |-- s",
                   [n(R.RfMinus, "p, p ; q, q, s |-- s")], principal="p -> q")],
                principal="p -> q"))
    dst = put("contract-imp-c-out.deriv",
              n(R.ImpLc, "; s, p -> q |-- s",
                [n(R.RfMinus, "p ; q, s |-- s")], principal="p -> q"))
    case("contract-imp-c",
         "duplicated implication among counterassumptions, principal at the root",
         "contract", {"file": src, "formula": "p -> q", "side": "c"}, {"file": dst})

    src = put("contract-coimp-c-in.deriv",
              n(R.CoimpLc, "; q, p -< q, p -< q |-- q",
                [n(R.RfMinus, "; q, p -< q, p -< q |-- q"),
                 n(R.RfMinus, "; p, q, p -< q |-- q")], principal="p -< q"))
    dst = put("contract-coimp-c-out.deriv",
              n(R.CoimpLc, "; q, p -< q |-- q",
                [n(R.RfMinus, "; q, p -< q |-- q"), n(R.RfMinus, "; p, q |-- q")],
                principal="p -< q"))
    case("contract-coimp-c",
         "duplicated co-implication among counterassumptions; the copying premise contracts directly",
         "contract", {"file": src, "formula": "p -< q", "side": "c"}, {"file": dst})


# --- cut elimination ----------------------------------------------------------------

def elim_case(id: str, description: str, left: str, right: str, cut: str, variant: str,
              endsequent: str, first_case: str, root_rule: str | None = None,
              result_file: str | None = None) -> None:
    expected: dict = {"endsequent": endsequent, "first_case": first_case}
    if root_rule:
        expected["root_rule"] = root_rule
    if result_file:
        expected["result_file"] = result_file
    case(id, description, "cutelim",
         {"left": left, "right": right, "cut_formula": cut, "variant": variant},
         expected)


def build_cutelim() -> None:
    # a reusable non-axiom right premise with the cut atom r among assumptions
    gadget_a = put("elim-gadget-imp-rplus.deriv",
                   n(R.ImpRPlus, "r ; |-+ s -> s", [n(R.RfPlus, "r, s ; |-+ s")]))
    gadget_c = put("elim-gadget-coimp-rminus.deriv",
                   n(R.CoimpRMinus, "; r |-- s -< s", [n(R.RfMinus, "; r, s |-- s")]))

    lf = put("elim-11a-left.deriv", n(R.RfPlus, "p, r ; |-+ r"))
    elim_case("elim-11a", "left premise closed by atomic reflexivity",
              lf, gadget_a, "r", "a", "p, r ; |-+ s -> s", "-1.1-", "ImpRPlus")
    lf = put("elim-11b-left.deriv", n(R.BotLa, "F ; |-+ r"))
    elim_case("elim-11b", "left premise closed through a falsum assumption",
              lf, gadget_a, "r", "a", "F ; |-+ s -> s", "-1.1-", "BotLa")
    lf = put("elim-11c-left.deriv", n(R.TopLc, "; T |-+ r"))
    elim_case("elim-11c", "left premise closed through a verum counterassumption",
              lf, gadget_a, "r", "a", "; T |-+ s -> s", "-1.1-", "TopLc")
    lf = put("elim-11d-left.deriv", n(R.TopRPlus, "; |-+ T"))
    rt = put("elim-11d-right.deriv",
             n(R.ImpRPlus, "T ; |-+ s -> s", [n(R.RfPlus, "s, T ; |-+ s")]))
    elim_case("elim-11d", "cut formula verum: inverted weakening removes it on the right",
              lf, rt, "T", "a", "; |-+ s -> s", "-1.1-", "ImpRPlus")

    lf = put("elim-21a-left.deriv", n(R.RfMinus, "; p, r |-- r"))
    elim_case("elim-21a", "left premise closed by atomic reflexivity, falsification side",
              lf, gadget_c, "r", "c", "; p, r |-- s -< s", "-2.1-", "CoimpRMinus")
    lf = put("elim-21b-left.deriv", n(R.BotLa, "F ; |-- r"))
    elim_case("elim-21b", "falsum assumption closes the falsification-side cut",
              lf, gadget_c, "r", "c", "F ; |-- s -< s", "-2.1-", "BotLa")
    lf = put("elim-21c-left.deriv", n(R.TopLc, "; T |-- r"))
    elim_case("elim-21c", "verum counterassumption closes the falsification-side cut",
              lf, gadget_c, "r", "c", "; T |-- s -< s", "-2.1-", "TopLc")
    lf = put("elim-21d-left.deriv", n(R.BotRMinus, "; |-- F"))
    rt = put("elim-21d-right.deriv",
             n(R.CoimpRMinus, "; F |-- s -< s", [n(R.RfMinus, "; F, s |-- s")]))
    elim_case("elim-21d", "cut formula falsum: inverted weakening removes it on the right",
              lf, rt, "F", "c", "; |-- s -< s", "-2.1-", "CoimpRMinus")

    rf_p = put("elim-axiom-p.deriv", n(R.RfPlus, "p ; |-+ p"))
    rt = put("elim-12a-right.deriv", n(R.RfPlus, "p, x ; |-+ x"))
    elim_case("elim-12a", "right premise closes independently of the cut formula",
              rf_p, rt, "p", "a", "p, x ; |-+ x", "-1.2-", "RfPlus")
    elim_case("elim-12b", "right premise restates the cut formula; the left premise is reused",
              rf_p, rf_p, "p", "a", "p ; |-+ p", "-1.2-", result_file=rf_p)
    rt = put("elim-13-right.deriv", n(R.RfMinus, "p ; y |-- y"))
    elim_case("elim-13", "falsification-polarity right axiom under an assumption-side cut",
              rf_p, rt, "p", "a", "p ; y |-- y", "-1.3-", "RfMinus")
    rf_m = put("elim-axiom-mp.deriv", n(R.RfMinus, "; p |-- p"))
    rt = put("elim-22-right.deriv", n(R.RfPlus, "x ; p |-+ x"))
    elim_case("elim-22", "verification-polarity right axiom under a counterassumption-side cut",
              rf_m, rt, "p", "c", "x ; p |-+ x", "-2.2-", "RfPlus")
    elim_case("elim-23", "right premise restates the cut formula, falsification side",
              rf_m, rf_m, "p", "c", "; p |-- p", "-2.3-", result_file=rf_m)

    lf = put("elim-31-left.deriv",
             n(R.AndLa, "p /\\ r ; |-+ r",
               [n(R.RfPlus, "p, r ; |-+ r")], principal="p /\\ r"))
    elim_case("elim-31", "cut permutes above a conjunction assumption rule",
              lf, gadget_a, "r", "a", "p /\\ r ; |-+ s -> s", "-3.1-", "AndLa")
    lf = put("elim-32-left.deriv",
             n(R.AndLc, "r ; a /\\ b |-+ r",
               [n(R.RfPlus, "r ; a |-+ r"), n(R.RfPlus, "r ; b |-+ r")],
               principal="a /\\ b"))
    elim_case("elim-32", "cut permutes above a conjunction counterassumption rule",
              lf, gadget_a, "r", "a", "r ; a /\\ b |-+ s -> s", "-3.2-", "AndLc")
    lf = put("elim-33-left.deriv",
             n(R.OrLa, "r, a \\/ b ; |-+ r",
               [n(R.RfPlus, "a, r ; |-+ r"), n(R.RfPlus, "b, r ; |-+ r")],
               principal="a \\/ b"))
    elim_case("elim-33", "cut permutes above a disjunction assumption rule",
              lf, gadget_a, "r", "a", "r, a \\/ b ; |-+ s -> s", "-3.3-", "OrLa")
    lf = put("elim-34-left.deriv",
             n(R.OrLc, "r ; a \\/ b |-+ r",
               [n(R.RfPlus, "r ; a, b |-+ r")], principal="a \\/ b"))
    elim_case("elim-34", "cut permutes above a disjunction counterassumption rule",
              lf, gadget_a, "r", "a", "r ; a \\/ b |-+ s -> s", "-3.4-", "OrLc")
    lf = put("elim-35-left.deriv",
             n(R.ImpLa, "a, r, a -> b ; |-+ r",
               [n(R.RfPlus, "a, r, a -> b ; |-+ a"), n(R.RfPlus, "a, b, r ; |-+ r")],
               principal="a -> b"))
    elim_case("elim-35", "cut permutes above the copying implication rule; the copied premise is weakened",
              lf, gadget_a, "r", "a", "a, r, a -> b ; |-+ s -> s", "-3.5-", "ImpLa")
    lf = put("elim-36-left.deriv",
             n(R.ImpLc, "r ; a -> b |-+ r",
               [n(R.RfPlus, "a, r ; b |-+ r")], principal="a -> b"))
    elim_case("elim-36", "cut permutes above an implication counterassumption rule",
              lf, gadget_a, "r", "a", "r ; a -> b |-+ s -> s", "-3.6-", "ImpLc")
    lf = put("elim-37-left.deriv",
             n(R.CoimpLa, "r, a -< b ; |-+ r",
               [n(R.RfPlus, "a, r ; b |-+ r")], principal="a -< b"))
    elim_case("elim-37", "cut permutes above a co-implication assumption rule",
              lf, gadget_a, "r", "a", "r, a -< b ; |-+ s -> s", "-3.7-", "CoimpLa")
    lf = put("elim-38-left.deriv",
             n(R.CoimpLc, "r ; b, a -< b |-+ r",
               [n(R.RfMinus, "r ; b, a -< b |-- b"), n(R.RfPlus, "r ; a, b |-+ r")],
               principal="a -< b"))
    elim_case("elim-38", "cut permutes above the copying co-implication rule; the copied premise is weakened",
              lf, gadget_a, "r", "a", "r ; b, a -< b |-+ s -> s", "-3.8-", "CoimpLc")

    # right-permutation family: the cut disjunction is principal on the left only
    disj = put("elim-4x-left.deriv",
               n(R.OrRPlus1, "p ; |-+ p \\/ q", [n(R.RfPlus, "p ; |-+ p")]))
    D = "p \\/ q"

    rt = put("elim-41-right.deriv",
             n(R.AndLa, "a /\\ b, p \\/ q ; |-+ a",
               [n(R.RfPlus, "a, b, p \\/ q ; |-+ a")], principal="a /\\ b"))
    elim_case("elim-41", "cut permutes above a conjunction assumption rule on the right",
              disj, rt, D, "a", "p, a /\\ b ; |-+ a", "-4.1-", "AndLa")
    rt = put("elim-42-right.deriv",
             n(R.AndLc, "x, p \\/ q ; a /\\ b |-+ x",
               [n(R.RfPlus, "x, p \\/ q ; a |-+ x"),
                n(R.RfPlus, "x, p \\/ q ; b |-+ x")], principal="a /\\ b"))
    elim_case("elim-42", "cut permutes above a conjunction counterassumption rule on the right",
              disj, rt, D, "a", "p, x ; a /\\ b |-+ x", "-4.2-", "AndLc")
    rt = put("elim-43-right.deriv",
             n(R.OrLa, "x, a \\/ b, p \\/ q ; |-+ x",
               [n(R.RfPlus, "a, x, p \\/ q ; |-+ x"),
                n(R.RfPlus, "b, x, p \\/ q ; |-+ x")], principal="a \\/ b"))
    elim_case("elim-43", "cut permutes above a disjunction assumption rule on the right",
              disj, rt, D, "a", "p, x, a \\/ b ; |-+ x", "-4.3-", "OrLa")
    rt = put("elim-44-right.deriv",
             n(R.OrLc, "x, p \\/ q ; a \\/ b |-+ x",
               [n(R.RfPlus, "x, p \\/ q ; a, b |-+ x")], principal="a \\/ b"))
    elim_case("elim-44", "cut permutes above a disjunction counterassumption rule on the right",
              disj, rt, D, "a", "p, x ; a \\/ b |-+ x", "-4.4-", "OrLc")
    rt = put("elim-45-right.deriv",
             n(R.ImpLa, "a, x, a -> b, p \\/ q ; |-+ x",
               [n(R.RfPlus, "a, x, a -> b, p \\/ q ; |-+ a"),
                n(R.RfPlus, "a, b, x, p \\/ q ; |-+ x")], principal="a -> b"))
    elim_case("elim-45", "cut permutes above the copying implication rule on the right",
              disj, rt, D, "a", "a, p, x, a -> b ; |-+ x", "-4.5-", "ImpLa")
    rt = put("elim-46-right.deriv",
             n(R.ImpLc, "x, p \\/ q ; a -> b |-+ x",
               [n(R.RfPlus, "a, x, p \\/ q ; b |-+ x")], principal="a -> b"))
    elim_case("elim-46", "cut permutes above an implication counterassumption rule on the right",
              disj, rt, D, "a", "p, x ; a -> b |-+ x", "-4.6-", "ImpLc")
    rt = put("elim-47-right.deriv",
             n(R.CoimpLa, "x, a -< b, p \\/ q ; |-+ x",
               [n(R.RfPlus, "a, x, p \\/ q ; b |-+ x")], principal="a -< b"))
    elim_case("elim-47", "cut permutes above a co-implication assumption rule on the right",
              disj, rt, D, "a", "p, x, a -< b ; |-+ x", "-4.7-", "CoimpLa")
    rt = put("elim-48-right.deriv",
             n(R.CoimpLc, "x, p \\/ q ; b, a -< b |-+ x",
               [n(R.RfMinus, "x, p \\/ q ; b, a -< b |-- b"),
                n(R.RfPlus, "x, p \\/ q ; a, b |-+ x")], principal="a -< b"))
    elim_case("elim-48", "cut permutes above the copying co-implication rule on the right",
              disj, rt, D, "a", "p, x ; b, a -< b |-+ x", "-4.8-", "CoimpLc")
    rt = put("elim-49-right.deriv",
             n(R.AndRPlus, "a, p \\/ q ; |-+ a /\\ a",
               [n(R.RfPlus, "a, p \\/ q ; |-+ a"), n(R.RfPlus, "a, p \\/ q ; |-+ a")]))
    elim_case("elim-49", "cut permutes above the conjunction verification rule",
              disj, rt, D, "a", "a, p ; |-+ a /\\ a", "-4.9-", "AndRPlus")
    rt = put("elim-4101-right.deriv",
             n(R.AndRMinus1, "p \\/ q ; a |-- a /\\ b", [n(R.RfMinus, "p \\/ q ; a |-- a")]))
    elim_case("elim-4101", "cut permutes above the first conjunction falsification rule",
              disj, rt, D, "a", "p ; a |-- a /\\ b", "-4.10.1-", "AndRMinus1")
    rt = put("elim-4102-right.deriv",
             n(R.AndRMinus2, "p \\/ q ; b |-- a /\\ b", [n(R.RfMinus, "p \\/ q ; b |-- b")]))
    elim_case("elim-4102", "cut permutes above the second conjunction falsification rule",
              disj, rt, D, "a", "p ; b |-- a /\\ b", "-4.10.2-", "AndRMinus2")
    rt = put("elim-4111-right.deriv",
             n(R.OrRPlus1, "a, p \\/ q ; |-+ a \\/ b", [n(R.RfPlus, "a, p \\/ q ; |-+ a")]))
    elim_case("elim-4111", "cut permutes above the first disjunction verification rule",
              disj, rt, D, "a", "a, p ; |-+ a \\/ b", "-4.11.1-", "OrRPlus1")
    rt = put("elim-4112-right.deriv",
             n(R.OrRPlus2, "b, p \\/ q ; |-+ a \\/ b", [n(R.RfPlus, "b, p \\/ q ; |-+ b")]))
    elim_case("elim-4112", "cut permutes above the second disjunction verification rule",
              disj, rt, D, "a", "b, p ; |-+ a \\/ b", "-4.11.2-", "OrRPlus2")
    rt = put("elim-412-right.deriv",
             n(R.OrRMinus, "p \\/ q ; a, b |-- a \\/ b",
               [n(R.RfMinus, "p \\/ q ; a, b |-- a"),
                n(R.RfMinus, "p \\/ q ; a, b |-- b")]))
    elim_case("elim-412", "cut permutes above the disjunction falsification rule",
              disj, rt, D, "a", "p ; a, b |-- a \\/ b", "-4.12-", "OrRMinus")
    rt = put("elim-413-right.deriv",
             n(R.ImpRPlus, "b, p \\/ q ; |-+ a -> b",
               [n(R.RfPlus, "a, b, p \\/ q ; |-+ b")]))
    elim_case("elim-413", "cut permutes above the implication verification rule",
              disj, rt, D, "a", "b, p ; |-+ a -> b", "-4.13-", "ImpRPlus")
    rt = put("elim-414-right.deriv",
             n(R.ImpRMinus, "a, p \\/ q ; x |-- a -> x",
               [n(R.RfPlus, "a, p \\/ q ; x |-+ a"),
                n(R.RfMinus, "a, p \\/ q ; x |-- x")]))
    elim_case("elim-414", "cut permutes above the implication falsification rule",
              disj, rt, D, "a", "a, p ; x |-- a -> x", "-4.14-", "ImpRMinus")
    rt = put("elim-415-right.deriv",
             n(R.CoimpRPlus, "a, p \\/ q ; x |-+ a -< x",
               [n(R.RfPlus, "a, p \\/ q ; x |-+ a"),
                n(R.RfMinus, "a, p \\/ q ; x |-- x")]))
    elim_case("elim-415", "cut permutes above the co-implication verification rule",
              disj, rt, D, "a", "a, p ; x |-+ a -< x", "-4.15-", "CoimpRPlus")
    rt = put("elim-416-right.deriv",
             n(R.CoimpRMinus, "p \\/ q ; a |-- a -< b",
               [n(R.RfMinus, "p \\/ q ; a, b |-- a")]))
    elim_case("elim-416", "cut permutes above the co-implication falsification rule",
              disj, rt, D, "a", "p ; a |-- a -< b", "-4.16-", "CoimpRMinus")

    # principal on both sides
    lf = put("elim-51a-left.deriv",
             n(R.AndRPlus, "p, q ; |-+ p /\\ q",
               [n(R.RfPlus, "p, q ; |-+ p"), n(R.RfPlus, "p, q ; |-+ q")]))
    rt = put("elim-51a-right.deriv",
             n(R.AndLa, "p /\\ q ; |-+ p",
               [n(R.RfPlus, "p, q ; |-+ p")], principal="p /\\ q"))
    elim_case("elim-51a", "principal conjunction cut: two operand cuts plus contraction",
              lf, rt, "p /\\ q", "a", "p, q ; |-+ p", "-5.1-")
    lf = put("elim-51c-left.deriv",
             n(R.AndRMinus1, "; p |-- p /\\ q", [n(R.RfMinus, "; p |-- p")]))
    rt = put("elim-51c-right.deriv",
             n(R.AndLc, "; y, p /\\ q |-- y",
               [n(R.RfMinus, "; p, y |-- y"), n(R.RfMinus, "; q, y |-- y")],
               principal="p /\\ q"))
    elim_case("elim-51c", "principal conjunction cut, falsification side: one operand cut",
              lf, rt, "p /\\ q", "c", "; p, y |-- y", "-5.1-")
    lf = put("elim-52a-left.deriv",
             n(R.OrRPlus1, "p ; |-+ p \\/ q", [n(R.RfPlus, "p ; |-+ p")]))
    rt = put("elim-52a-right.deriv",
             n(R.OrLa, "x, p \\/ q ; |-+ x",
               [n(R.RfPlus, "p, x ; |-+ x"), n(R.RfPlus, "q, x ; |-+ x")],
               principal="p \\/ q"))
    elim_case("elim-52a", "principal disjunction cut, verification side: one operand cut",
              lf, rt, "p \\/ q", "a", "p, x ; |-+ x", "-5.2-")
    lf = put("elim-52c-left.deriv",
             n(R.OrRMinus, "; p, q |-- p \\/ q",
               [n(R.RfMinus, "; p, q |-- p"), n(R.RfMinus, "; p, q |-- q")]))
    rt = put("elim-52c-right.deriv",
             n(R.OrLc, "; y, p \\/ q |-- y",
               [n(R.RfMinus, "; p, q, y |-- y")], principal="p \\/ q"))
    elim_case("elim-52c", "principal disjunction cut: two operand cuts plus contraction",
              lf, rt, "p \\/ q", "c", "; p, q, y |-- y", "-5.2-")
    lf = put("elim-53a-left.deriv",
             n(R.ImpRPlus, "b ; |-+ a -> b", [n(R.RfPlus, "a, b ; |-+ b")]))
    rt = put("elim-53a-right.deriv",
             n(R.ImpLa, "a, a -> b ; |-+ a",
               [n(R.RfPlus, "a, a -> b ; |-+ a"), n(R.RfPlus, "a, b ; |-+ a")],
               principal="a -> b"))
    elim_case("elim-53a", "principal implication cut: three cuts plus contraction",
              lf, rt, "a -> b", "a", "a, b ; |-+ a", "-5.3-")
    lf = put("elim-53c-left.deriv",
             n(R.ImpRMinus, "a ; b |-- a -> b",
               [n(R.RfPlus, "a ; b |-+ a"), n(R.RfMinus, "a ; b |-- b")]))
    rt = put("elim-53c-right.deriv",
             n(R.ImpLc, "; a -> b |-+ a",
               [n(R.RfPlus, "a ; b |-+ a")], principal="a -> b"))
    elim_case("elim-53c",
              "principal implication cut on the falsification side: the inner cut flips variant",
              lf, rt, "a -> b", "c", "a ; b |-+ a", "-5.3-")
    lf = put("elim-54a-left.deriv",
             n(R.CoimpRPlus, "a ; b |-+ a -< b",
               [n(R.RfPlus, "a ; b |-+ a"), n(R.RfMinus, "a ; b |-- b")]))
    rt = put("elim-54a-right.deriv",
             n(R.CoimpLa, "a -< b ; |-+ a",
               [n(R.RfPlus, "a ; b |-+ a")], principal="a -< b"))
    elim_case("elim-54a",
              "principal co-implication cut on the verification side: the outer cut flips variant",
              lf, rt, "a -< b", "a", "a ; b |-+ a", "-5.4-")
    lf = put("elim-54c-left.deriv",
             n(R.CoimpRMinus, "; a |-- a -< b", [n(R.RfMinus, "; a, b |-- a")]))
    rt = put("elim-54c-right.deriv",
             n(R.CoimpLc, "; b, a -< b |-- b",
               [n(R.RfMinus, "; b, a -< b |-- b"), n(R.RfMinus, "; a, b |-- b")],
               principal="a -< b"))
    elim_case("elim-54c", "principal co-implication cut: three cuts plus contraction",
              lf, rt, "a -< b", "c", "; a, b |-- b", "-5.4-")

    # right premise closed through the cut occurrence itself: dispatch falls
    # through to the left-rule permutation machinery
    lf = put("elim-12d-left.deriv",
             n(R.AndLa, "F /\\ F ; |-+ F",
               [n(R.BotLa, "F, F ; |-+ F")], principal="F /\\ F"))
    rt = put("elim-12d-right.deriv", n(R.BotLa, "F ; |-+ x"))
    elim_case("elim-12d-fallthrough",
              "cut formula falsum closes the right axiom; the cut permutes into the left premise",
              lf, rt, "F", "a", "F /\\ F ; |-+ x", "-3.1-", "AndLa")
    lf = put("elim-22d-left.deriv",
             n(R.OrLc, "; T \\/ T |-- T",
               [n(R.TopLc, "; T, T |-- T")], principal="T \\/ T"))
    rt = put("elim-22d-right.deriv", n(R.TopLc, "; T |-- y"))
    elim_case("elim-22d-fallthrough",
              "cut formula verum closes the right axiom; the cut permutes into the left premise",
              lf, rt, "T", "c", "; T \\/ T |-- y", "-3.4-", "OrLc")

    # the reflexivity construction as a cut premise, for a deeper recursion
    lf = put("elim-identity-left.deriv",
             n(R.AndRPlus, "p /\\ q ; |-+ p /\\ q",
               [n(R.AndLa, "p /\\ q ; |-+ p",
                  [n(R.RfPlus, "p, q ; |-+ p")], principal="p /\\ q"),
                n(R.AndLa, "p /\\ q ; |-+ q",
                  [n(R.RfPlus, "p, q ; |-+ q")], principal="p /\\ q")]))
    rt = put("elim-identity-right.deriv",
             n(R.AndLa, "p /\\ q ; |-+ p",
               [n(R.RfPlus, "p, q ; |-+ p")], principal="p /\\ q"))
    elim_case("elim-identity",
              "principal conjunction cut whose left premise is the reflexivity construction",
              lf, rt, "p /\\ q", "a", "p /\\ q ; |-+ p", "-5.1-")


# --- search verdicts ---------------------------------------------------------------

def build_prove() -> None:
    def prove_case(id: str, description: str, sequent: str, outcome: str) -> None:
        case(id, description, "prove", {"sequent": sequent}, {"outcome": outcome})

    prove_case("prove-imp-refl", "implication reflexivity is derivable",
               "; |-+ p -> p", "proved")
    prove_case("prove-imp-noninvertible-pos",
               "the sequent witnessing that the copying implication premise is not invertible",
               "F -> F ; |-+ F -> F", "proved")
    prove_case("prove-imp-noninvertible-neg",
               "its would-be inversion target is underivable",
               "F -> F ; |-+ F", "refuted")
    prove_case("prove-coimp-noninvertible-pos",
               "the dual witness for the copying co-implication premise",
               "; T -< T |-- T -< T", "proved")
    prove_case("prove-coimp-noninvertible-neg",
               "its would-be inversion target is underivable",
               "; T -< T |-- T", "refuted")
    prove_case("prove-peirce", "Peirce's law fails constructively",
               "; |-+ ((p -> q) -> p) -> p", "refuted")
    prove_case("prove-excluded-middle", "excluded middle fails constructively",
               "; |-+ p \\/ (p -> F)", "refuted")


def main(argv: Sequence[str] = ()) -> None:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    FILES.clear()
    CASES.clear()
    build_identity_bases()
    build_identity_steps()
    build_weakening()
    build_inversion()
    build_contraction()
    build_cutelim()
    build_prove()

    OUT.mkdir(parents=True, exist_ok=True)
    for old in OUT.glob("*.deriv"):
        old.unlink()
    for name, d in sorted(FILES.items()):
        (OUT / name).write_text(dumps_derivation(d), encoding="utf-8")
    manifest = {"cases": CASES}
    (OUT / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(FILES)} derivation files and {len(CASES)} cases to {OUT}")


if __name__ == "__main__":
    main(sys.argv[1:])
