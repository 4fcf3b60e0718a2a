"""Golden corpus: stored derivation figures, replay inputs, and expected
outcomes, plus the coverage ledger over rules and elimination cases.

Cases live under ``corpus_data/`` as canonical derivation files with a
``manifest.json`` mapping each case id to its inputs and expectations; they
are data, not test code, so the same corpus backs the test suite, the
``golden`` CLI subcommand, and documentation diffs.  ``run_operation`` turns
an operation's text arguments into an engine call, for the corpus and the CLI
alike.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional

from .kernel import (
    PRIMITIVE_RULES, Derivation, Polarity, RuleId, Side, _Memo,
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


class GoldenCase(NamedTuple):
    id: str
    description: str
    kind: str
    input: dict[str, Any]
    expected: dict[str, Any]


class GoldenResult(NamedTuple):
    case: GoldenCase
    ok: bool
    diff: Optional[str] = None
    produced: Optional[Derivation] = None
    trace: Optional[CutTrace] = None


class CoverageReport(NamedTuple):
    missing_rules: list[str]
    missing_cases: list[str]

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


def run_operation(kind: str, inputs: dict[str, Any], load: Callable[[Any], Derivation],
                  trace: Optional[CutTrace] = None) -> list[Derivation]:
    """Decode the text arguments of one operation of the engine and run it:
    the derivations it produces, none for a refuted ``prove``.  ``load``
    reads a derivation file; each file is loaded before the formula after it
    is parsed.  The engine is called through this module's names, which the
    benchmark's traced run wraps."""
    i = inputs
    if kind == "identity":
        gamma, delta = parse_context_pair(i["context"])
        return [derive_identity(gamma, delta, parse_formula(i["formula"]),
                                Polarity(i["polarity"]))]
    if kind in ("weaken", "contract"):
        op = weaken if kind == "weaken" else contract
        return [op(load(i["file"]), parse_formula(i["formula"]), Side(i["side"]))]
    if kind == "unweaken":
        return [unweaken_special(load(i["file"]), SpecialWeakening(i["which"]))]
    if kind == "invert":
        return list(invert(load(i["file"]), Side(i["side"]), parse_formula(i["target"])))
    if kind == "cutelim":
        return [eliminate_cut(load(i["left"]), load(i["right"]), parse_formula(i["cut_formula"]),
                              RuleId.CutA if i["variant"] == "a" else RuleId.CutC, trace)]
    if kind == "prove":
        outcome = _search.prove(parse_sequent(i["sequent"]))
        return [outcome.derivation] if isinstance(outcome, _search.Proved) else []
    raise ValueError(f"unknown case kind {kind!r}")


def run_golden(case: GoldenCase, data_dir: Path = DATA_DIR) -> GoldenResult:
    """Execute one golden case and diff the engine's answer against it."""
    return _golden(case, data_dir, _Memo(lambda path: load_derivation(path)))


def _golden(case: GoldenCase, data_dir: Path, loaded: _Memo) -> GoldenResult:
    """``run_golden``, reading each file once through ``loaded`` (path -> derivation,
    shared by the cases of one run) and this module's ``load_derivation``."""
    try:
        return _run(case, data_dir, loaded)
    except Exception as e:  # a crash is a diff, not a test-harness error
        return GoldenResult(case, False, f"{type(e).__name__}: {e}")


def _run(case: GoldenCase, data_dir: Path, loaded: _Memo) -> GoldenResult:
    kind, exp = case.kind, case.expected

    def load(name: str) -> Derivation:
        return loaded[data_dir / name]

    trace = CutTrace() if kind == "cutelim" else None
    outs = run_operation(kind, case.input, load, trace)
    produced = outs[0] if outs else None

    if kind == "prove":
        got = "proved" if outs else "refuted"
        ok = got == exp["outcome"]
        return GoldenResult(case, ok, None if ok else f"expected {exp['outcome']}, got {got}",
                            produced)

    if kind == "invert":
        if len(outs) != len(exp["files"]):
            return GoldenResult(case, False,
                                f"expected {len(exp['files'])} outputs, got {len(outs)}")
        for name, out in zip(exp["files"], outs):
            diff = _diff_derivations(load(name), out)
            if diff is not None:
                return GoldenResult(case, False, f"{name}: {diff}")
        return GoldenResult(case, True, None, produced)

    if kind == "cutelim":
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
            diff = _diff_derivations(load(exp["result_file"]), produced)
        if diff is None and "cases_include" in exp:
            missing = set(exp["cases_include"]) - trace.cases()
            if missing:
                diff = f"trace missing cases: {sorted(missing)}"
        return GoldenResult(case, diff is None, diff, produced, trace)

    diff = _diff_derivations(load(exp["file"]), produced)
    if diff is None and "height" in exp and produced.height != exp["height"]:
        diff = f"height: expected {exp['height']}, got {produced.height}"
    return GoldenResult(case, diff is None, diff, produced)


def run_all(data_dir: Path = DATA_DIR) -> tuple[list[GoldenResult], CoverageReport]:
    cases, loaded = load_manifest(data_dir), _Memo(lambda path: load_derivation(path))
    results = [_golden(c, data_dir, loaded) for c in cases]

    trees = [r.produced for r in results if r.produced is not None]
    trees += map(loaded.__getitem__, sorted(data_dir.glob("*.deriv")))
    rules_seen = set().union(*map(_rules_in, trees))
    cases_seen = set().union(*(r.trace.cases() for r in results if r.trace is not None))

    report = CoverageReport(
        missing_rules=sorted(r.value for r in PRIMITIVE_RULES - rules_seen),
        missing_cases=[c for c in ELIMINATION_CASES if c not in cases_seen],
    )
    return results, report


def _rules_in(d: Derivation) -> set[RuleId]:
    return fold(d, lambda x, images: {x.rule}.union(*images))
