import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from bint import corpus
from bint.kernel import check_derivation
from bint.serialize import load_derivation


def test_manifest_ids_unique():
    cases = corpus.load_manifest()
    ids = [c.id for c in cases]
    assert len(ids) == len(set(ids))
    assert all(c.description for c in cases)


def test_stored_derivations_all_check():
    for path in sorted(corpus.DATA_DIR.glob("*.deriv")):
        report = check_derivation(load_derivation(path))
        assert report.valid, f"{path.name}: {report}"
        assert report.cut_count == 0


def test_all_golden_cases_pass():
    results, coverage = corpus.run_all()
    failures = [f"{r.case.id}: {r.diff}" for r in results if not r.ok]
    assert not failures, "\n".join(failures)
    assert coverage.ok, str(coverage)


def test_coverage_tracks_gaps(tmp_path):
    # an empty corpus directory reports every rule and case as a gap
    (tmp_path / "manifest.json").write_text('{"cases": []}')
    results, coverage = corpus.run_all(tmp_path)
    assert results == []
    assert not coverage.ok
    assert len(coverage.missing_rules) == 24
    assert "-5.4-" in coverage.missing_cases
    # the report names both kinds of gap, rules first
    assert str(coverage) == ("rules never exercised: " + ", ".join(coverage.missing_rules)
                             + "; elimination cases never hit: "
                             + ", ".join(coverage.missing_cases))
    assert str(coverage).startswith("rules never exercised: AndLa, AndLc, AndRMinus1, ")
    assert ", TopRPlus; elimination cases never hit: -1.1-, -1.2-, " in str(coverage)


@pytest.mark.parametrize("field, value", [("side", "x"), ("which", "TopInDelta"),
                                          ("polarity", "*")])
def test_a_bad_manifest_value_fails_its_case(field, value):
    # an unknown side, weakening or polarity is an error, not a default
    case = next(c for c in corpus.load_manifest() if field in c.input)
    bad = corpus.GoldenCase(case.id, case.description, case.kind,
                            {**case.input, field: value}, case.expected)
    result = corpus.run_golden(bad)
    assert not result.ok and result.diff.startswith("ValueError: ")


def test_an_unknown_case_kind_fails_its_case():
    case = corpus.load_manifest()[0]
    bad = corpus.GoldenCase(case.id, case.description, "transmute", case.input, case.expected)
    result = corpus.run_golden(bad)
    assert not result.ok and "unknown case kind 'transmute'" in result.diff


def test_a_dump_that_stops_early_is_worded_by_its_length(monkeypatch):
    # of two whole dumps neither is a prefix of the other, so the dumper is
    # replaced: one text is the other and two more lines
    dumps = {"short": '{\n  "rule": "Rf+"\n}\n'}
    dumps["long"] = dumps["short"] + "{\n}\n"
    monkeypatch.setattr(corpus, "dumps_derivation", dumps.__getitem__)
    assert corpus._diff_derivations("short", "long") == (
        "dump lengths differ: expected 3 lines, got 5")
    assert corpus._diff_derivations("long", "short") == (
        "dump lengths differ: expected 5 lines, got 3")


@pytest.mark.parametrize("case_id, expected, diff", [
    ("invert-and-c", {"files": ["invert-and-c-out1.deriv"]}, "expected 1 outputs, got 2"),
    ("invert-and-c", {"files": ["invert-and-c-out2.deriv", "invert-and-c-out1.deriv"]},
     r"""invert-and-c-out2.deriv: first difference at dump line 2: expected """
     r"""'  "conclusion": "; q |-- p /\\\\ q",', got '  "conclusion": "; p |-- p /\\\\ q",'"""),
    ("elim-11a", {"endsequent": "p ; |-+ s -> s"},
     "endsequent: expected p ; |-+ s -> s, got p, r ; |-+ s -> s"),
    ("elim-11a", {"first_case": "-1.2-"}, "first case: expected -1.2-, got -1.1-"),
    ("elim-11a", {"root_rule": "BotLa"}, "root rule: expected BotLa, got ImpRPlus"),
    ("elim-11a", {"cases_include": ["-1.1-", "-5.1-"]}, "trace missing cases: ['-5.1-']"),
    ("identity-and-step-plus", {"height": 3}, "height: expected 3, got 2"),
])
def test_a_wrong_expectation_fails_its_case_with_its_diff(case_id, expected, diff):
    case = next(c for c in corpus.load_manifest() if c.id == case_id)
    result = corpus.run_golden(case._replace(expected={**case.expected, **expected}))
    assert not result.ok and result.diff == diff


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _build_corpus_script():
    spec = importlib.util.spec_from_file_location("build_corpus", SCRIPTS / "build_corpus.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_build_corpus_script_reproduces_the_stored_corpus(tmp_path):
    script = _build_corpus_script()
    stored = sorted(p.name for p in corpus.DATA_DIR.iterdir())
    for run in ("first", "second"):    # a second run in one process starts afresh
        script.OUT = out = tmp_path / run
        script.main()
        assert sorted(p.name for p in out.iterdir()) == stored
        for name in stored:
            assert (out / name).read_bytes() == (corpus.DATA_DIR / name).read_bytes(), name


@pytest.mark.parametrize("argv, status", [(["--help"], 0), (["--bogus"], 2)])
def test_build_corpus_script_writes_nothing_without_a_run(tmp_path, capsys, argv, status):
    script = _build_corpus_script()
    script.OUT = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        script.main(argv)
    assert info.value.code == status
    out, err = capsys.readouterr()
    assert "usage: " in out + err
    assert not script.OUT.exists()


def test_cutelim_stats_script_runs():
    result = subprocess.run([sys.executable, str(SCRIPTS / "cutelim_stats.py"), "-n", "3",
                             "--oracle"], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "6 eliminations" in result.stdout
