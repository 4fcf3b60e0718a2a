"""Golden corpus: stored derivation figures, replay inputs, and expected
outcomes, plus the coverage ledger over rules and elimination cases.

Cases live under ``corpus_data/`` as canonical derivation files with a
``manifest.json`` mapping each case id to its inputs and expectations; they
are data, not test code, so the same corpus backs the test suite, the
``golden`` CLI subcommand, and documentation diffs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from .kernel import (
    PRIMITIVE_RULES, Derivation, Polarity, RuleId, Side,
    check_derivation, fold, format_sequent, parse_context_pair, parse_sequent,
)
from .syntax import parse_formula
from .serialize import dumps_derivation, load_derivation
from .transform import (
    CutTrace, ELIMINATION_CASES, SpecialWeakening, contract, derive_identity,
    eliminate_cut, invert, unweaken_special, weaken,
)
from . import search as _search

DATA_DIR = Path(__file__).resolve().parent / "corpus_data"


@dataclass(frozen=True)
class GoldenCase:
    id: str
    description: str
    kind: str
    input: dict[str, Any]
    expected: dict[str, Any]


@dataclass
class GoldenResult:
    case: GoldenCase
    ok: bool
    diff: Optional[str] = None
    produced: Optional[Derivation] = None
    trace: Optional[CutTrace] = None


@dataclass
class CoverageReport:
    missing_rules: list[str] = field(default_factory=list)
    missing_cases: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.missing_rules and not self.missing_cases

    def __str__(self) -> str:
        if self.ok:
            return "coverage complete: all 24 rules and all elimination cases exercised"
        parts = []
        if self.missing_rules:
            parts.append("rules never exercised: " + ", ".join(self.missing_rules))
        if self.missing_cases:
            parts.append("elimination cases never hit: " + ", ".join(self.missing_cases))
        return "; ".join(parts)


def load_manifest(data_dir: Path = DATA_DIR) -> list[GoldenCase]:
    with open(data_dir / "manifest.json", encoding="utf-8") as fh:
        raw = json.load(fh)
    return [GoldenCase(**entry) for entry in raw["cases"]]


def _load(data_dir: Path, name: str) -> Derivation:
    return load_derivation(data_dir / name)


def _diff_derivations(expected: Derivation, produced: Derivation) -> Optional[str]:
    want, got = dumps_derivation(expected), dumps_derivation(produced)
    if want == got:
        return None
    want_lines = want.splitlines()
    got_lines = got.splitlines()
    for i, (w, g) in enumerate(zip(want_lines, got_lines)):
        if w != g:
            return f"first difference at dump line {i + 1}: expected {w!r}, got {g!r}"
    return f"dump lengths differ: expected {len(want_lines)} lines, got {len(got_lines)}"


def run_golden(case: GoldenCase, data_dir: Path = DATA_DIR) -> GoldenResult:
    """Execute one golden case and diff the engine's answer against it."""
    try:
        return _run(case, data_dir)
    except Exception as e:  # a crash is a diff, not a test-harness error
        return GoldenResult(case, False, f"{type(e).__name__}: {e}")


def _run(case: GoldenCase, data_dir: Path) -> GoldenResult:
    kind = case.kind
    inp, exp = case.input, case.expected

    if kind == "identity":
        gamma, delta = parse_context_pair(inp["context"])
        produced = derive_identity(gamma, delta, parse_formula(inp["formula"]),
                                   Polarity(inp["polarity"]))
        expected = _load(data_dir, exp["file"])
        diff = _diff_derivations(expected, produced)
        if diff is None and produced.height != exp["height"]:
            diff = f"height: expected {exp['height']}, got {produced.height}"
        return GoldenResult(case, diff is None, diff, produced)

    if kind == "weaken":
        produced = weaken(_load(data_dir, inp["file"]),
                          parse_formula(inp["formula"]), Side(inp["side"]))
        diff = _diff_derivations(_load(data_dir, exp["file"]), produced)
        return GoldenResult(case, diff is None, diff, produced)

    if kind == "unweaken":
        produced = unweaken_special(_load(data_dir, inp["file"]),
                                    SpecialWeakening(inp["which"]))
        diff = _diff_derivations(_load(data_dir, exp["file"]), produced)
        return GoldenResult(case, diff is None, diff, produced)

    if kind == "invert":
        outs = invert(_load(data_dir, inp["file"]), Side(inp["side"]),
                      parse_formula(inp["target"]))
        expected_files = exp["files"]
        if len(outs) != len(expected_files):
            return GoldenResult(case, False,
                                f"expected {len(expected_files)} outputs, got {len(outs)}")
        for name, produced in zip(expected_files, outs):
            diff = _diff_derivations(_load(data_dir, name), produced)
            if diff is not None:
                return GoldenResult(case, False, f"{name}: {diff}")
        return GoldenResult(case, True, None, outs[0])

    if kind == "contract":
        produced = contract(_load(data_dir, inp["file"]),
                            parse_formula(inp["formula"]), Side(inp["side"]))
        diff = _diff_derivations(_load(data_dir, exp["file"]), produced)
        return GoldenResult(case, diff is None, diff, produced)

    if kind == "cutelim":
        trace = CutTrace()
        produced = eliminate_cut(
            _load(data_dir, inp["left"]), _load(data_dir, inp["right"]),
            parse_formula(inp["cut_formula"]),
            RuleId.CutA if inp["variant"] == "a" else RuleId.CutC,
            trace,
        )
        diff = None
        if not produced.valid or produced.cut_count:
            diff = f"output not cut-free valid: {check_derivation(produced)}"
        elif format_sequent(produced.conclusion) != exp["endsequent"]:
            diff = (f"endsequent: expected {exp['endsequent']}, "
                    f"got {format_sequent(produced.conclusion)}")
        elif trace.steps[0].case != exp["first_case"]:
            diff = f"first case: expected {exp['first_case']}, got {trace.steps[0].case}"
        elif "root_rule" in exp and produced.rule.value != exp["root_rule"]:
            diff = f"root rule: expected {exp['root_rule']}, got {produced.rule.value}"
        elif "result_file" in exp:
            diff = _diff_derivations(_load(data_dir, exp["result_file"]), produced)
        if diff is None and "cases_include" in exp:
            missing = set(exp["cases_include"]) - trace.cases()
            if missing:
                diff = f"trace missing cases: {sorted(missing)}"
        return GoldenResult(case, diff is None, diff, produced, trace)

    if kind == "prove":
        outcome = _search.prove(parse_sequent(inp["sequent"]))
        got = "proved" if isinstance(outcome, _search.Proved) else "refuted"
        ok = got == exp["outcome"]
        produced = outcome.derivation if isinstance(outcome, _search.Proved) else None
        return GoldenResult(case, ok, None if ok else f"expected {exp['outcome']}, got {got}",
                            produced)

    return GoldenResult(case, False, f"unknown case kind {kind!r}")


def run_all(data_dir: Path = DATA_DIR) -> tuple[list[GoldenResult], CoverageReport]:
    cases = load_manifest(data_dir)
    results = [run_golden(c, data_dir) for c in cases]

    trees = [r.produced for r in results if r.produced is not None]
    trees += map(load_derivation, sorted(data_dir.glob("*.deriv")))
    rules_seen = set().union(*map(_rules_in, trees))
    cases_seen = set().union(*(r.trace.cases() for r in results if r.trace is not None))

    report = CoverageReport(
        missing_rules=sorted(r.value for r in PRIMITIVE_RULES - rules_seen),
        missing_cases=[c for c in ELIMINATION_CASES if c not in cases_seen],
    )
    return results, report


def _rules_in(d: Derivation) -> set[RuleId]:
    return fold(d, lambda x, images: {x.rule}.union(*images))
