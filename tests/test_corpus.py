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


@pytest.mark.parametrize("field, value", [("side", "x"), ("which", "TopInDelta"),
                                          ("polarity", "*")])
def test_a_bad_manifest_value_fails_its_case(field, value):
    # an unknown side, weakening or polarity is an error, not a default
    case = next(c for c in corpus.load_manifest() if field in c.input)
    bad = corpus.GoldenCase(case.id, case.description, case.kind,
                            {**case.input, field: value}, case.expected)
    result = corpus.run_golden(bad)
    assert not result.ok and result.diff.startswith("ValueError: ")


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
