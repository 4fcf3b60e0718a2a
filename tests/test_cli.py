import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import bint
from bint import corpus, serialize, syntax
from bint.cli import KIND, main, render_text
from bint.kernel import RuleId as R, check_derivation, format_sequent, node, parse_sequent
from bint.serialize import (
    dumps_derivation, dumps_derivations, load_derivation, loads_derivation, save_derivation,
)
from bint.transform import derive_identity
from bint.kernel import Annotation, Context, ContextSplit
from bint.syntax import Atom, Imp, format_formula, parse_formula
from conftest import chain_proof, horn_chain, tower


@pytest.fixture
def identity_file(tmp_path):
    d = derive_identity(Context(), Context(), parse_formula("p /\\ q"), __import__("bint").PLUS)
    path = tmp_path / "id.deriv"
    save_derivation(d, path)
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_prove_success(capsys):
    code, out, _ = run(capsys, "prove", "; |-+ p -> p")
    assert code == 0
    assert "[ImpRPlus]" in out and "[RfPlus]" in out


def test_prove_refuted_exit_code(capsys):
    code, out, _ = run(capsys, "prove", "F -> F ; |-+ F")
    assert code == 1
    assert "refuted" in out


def _bint(*argv):
    """Run the command line in a fresh interpreter: its exit code and output."""
    env = {**os.environ, "PYTHONPATH": str(Path(bint.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "bint.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("sequent", ["; |-+ {}", "p ; |-+ {}"])
def test_prove_reads_deep_parentheses(sequent):
    deep = _bint("prove", sequent.format("(" * 10_000 + "p" + ")" * 10_000))
    assert deep == _bint("prove", sequent.format("p"))
    assert "Traceback" not in deep[2]


@pytest.mark.parametrize("arrows", [400, 3_000])
def test_prove_on_too_deep_a_formula_is_a_usage_error(arrows):
    code, out, err = _bint("prove", "; |-+ " + " -> ".join(["p"] * (arrows + 1)))
    assert code == 2 and out == ""
    assert err == "error: input nested too deeply for prove\n"


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "prove", "; |-+ p ->")
    assert code == 2
    assert "error" in err


def test_check_valid_file(capsys, identity_file):
    code, out, _ = run(capsys, "check", str(identity_file))
    assert code == 0
    assert "valid, height 2" in out


@pytest.mark.parametrize("command, target, message", [
    ("contract", "p", "contract: fewer than two occurrences of p on side a"),
    ("invert", "p", "invert: unsupported target p (must be compound)"),
    ("invert", "p /\\ q", "invert: p /\\ q does not occur on side a"),
])
def test_a_failed_transform_precondition_exits_1(tmp_path, command, target, message):
    # the derivation of p ; |-+ p holds one p and no compound
    path = tmp_path / "p.deriv"
    save_derivation(derive_identity(Context(), Context(), Atom("p"), bint.PLUS), path)
    assert _bint(command, str(path), target, "a") == (1, "", f"error: {message}\n")


def test_check_invalid_file(capsys, tmp_path):
    bad = node(R.RfPlus, parse_sequent("; |-+ p"))
    path = tmp_path / "bad.deriv"
    save_derivation(bad, path)
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    assert "INVALID" in out


def test_check_report_lines_are_pinned(capsys, tmp_path):
    # byte-for-byte: the first violation in pre-order and its path, whichever
    # premises the walk enters
    p = Atom("p")
    rf = node(R.RfPlus, parse_sequent("p ; |-+ p"))
    one = node(R.RfPlus, parse_sequent("; |-+ p"))
    # two bad nodes: the left one, deeper, comes first in pre-order
    two = node(R.AndRPlus, parse_sequent("p, p -> p ; |-+ p /\\ q"),
               [tower(4, 2), node(R.RfPlus, parse_sequent("p, p -> p ; |-+ q"))])
    deep = tower(200, 7)
    # a cut node that fits its rule, over an invalid premise
    split = ContextSplit(Context.of(p), Context(), Context(), Context())
    cut = node(R.CutA, parse_sequent("p ; |-+ p"),
               [rf, node(R.RfMinus, parse_sequent("p ; |-+ p"))],
               annotation=Annotation(cut_formula=p, context_split=split))
    path = tmp_path / "bad.deriv"
    path.write_text(dumps_derivations([rf, one, two, deep, cut]))
    code, out, err = run(capsys, "check", str(path))
    assert code == 1 and err == ""
    deep_path = ".".join(["premises[0]"] * 193)
    assert out == (
        "valid, height 0, cuts 0\n"
        "INVALID at root: RfPlus: atomic succedent not among the assumptions"
        " (height 0, cuts 0)\n"
        "INVALID at premises[0].premises[0].premises[0]: RfMinus: wrong polarity:"
        " needs |-- (height 3, cuts 0)\n"
        f"INVALID at {deep_path}: RfMinus: wrong polarity: needs |-- (height 193, cuts 0)\n"
        "INVALID at premises[1]: RfMinus: wrong polarity: needs |-- (height 1, cuts 1)\n")


_RF = {"rule": "RfPlus", "conclusion": "p ; |-+ p", "premises": []}
_DEEP = 3000


@pytest.mark.parametrize("content", [
    b"not json at all",
    b"[1, 2]",
    json.dumps({"rule": "RfPlus", "conclusion": 5, "premises": []}).encode(),
    json.dumps({"rule": "RfPlus", "conclusion": "p ; |-+ p",
                "premises": {"rule": "RfPlus"}}).encode(),
    json.dumps({"rule": "CutA", "conclusion": "p ; |-+ p", "premises": [_RF, _RF],
                "annotation": {"cut_formula": "p", "context_split": {}}}).encode(),
    json.dumps({"rule": "AndLa", "conclusion": "p /\\ q ; |-+ p",
                "annotation": {"principal": 3},
                "premises": [{"rule": "RfPlus", "conclusion": "p, q ; |-+ p"}]}).encode(),
    b"\xff\xfe not UTF-8",
    ('{"rule": "RfPlus", "conclusion": "p ; |-+ p", "premises": [' * _DEEP
     + json.dumps(_RF) + "]}" * _DEEP).encode(),
    *(json.dumps({**_RF, "rule": rule}).encode() for rule in (["RfPlus"], 3, None)),
], ids=["not-json", "list-of-ints", "conclusion-int", "premises-object",
        "cut-empty-split", "principal-int", "not-utf8", "nested-too-deeply",
        "rule-list", "rule-int", "rule-null"])
def test_check_malformed_file_is_a_format_error(capsys, tmp_path, content):
    path = tmp_path / "bad.deriv"
    path.write_bytes(content)
    code, out, err = run(capsys, "check", str(path))
    assert code == 2
    assert out == "" and err.startswith("error:")


def test_check_on_a_file_with_no_derivation_is_a_format_error(capsys, tmp_path):
    path = tmp_path / "empty.deriv"
    path.write_text("[]")
    code, out, err = run(capsys, "check", str(path))
    assert code == 2
    assert out == "" and err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("name", ["", "missing.deriv"], ids=["directory", "missing"])
def test_check_unreadable_path_is_a_usage_error(capsys, tmp_path, name):
    code, out, err = run(capsys, "check", str(tmp_path / name))
    assert code == 2
    assert out == "" and err.startswith("error:") and err.count("\n") == 1   # no traceback


def test_identity_subcommand(capsys):
    code, out, _ = run(capsys, "--format", "data", "identity", "q ; r", "p", "+")
    assert code == 0
    d = loads_derivation(out)
    assert d.conclusion == parse_sequent("p, q ; r |-+ p")


def test_outputs_recheck(capsys, tmp_path, identity_file):
    # every emitted derivation re-parses and re-checks as valid
    for argv in (
        ["--format", "data", "prove", "; |-+ p -> p"],
        ["--format", "data", "identity", ";", "p -> q", "-"],
        ["--format", "data", "weaken", str(identity_file), "r", "a"],
        ["--format", "data", "invert", str(identity_file), "p /\\ q", "a"],
    ):
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0
        emitted = tmp_path / "out.deriv"
        emitted.write_text(out)
        code = main(["check", str(emitted)])
        capsys.readouterr()
        assert code == 0


def test_cut_eliminate_with_trace(capsys, tmp_path):
    left = node(R.RfPlus, parse_sequent("p ; |-+ p"))
    lpath, rpath = tmp_path / "l.deriv", tmp_path / "r.deriv"
    save_derivation(left, lpath)
    save_derivation(left, rpath)
    code, out, err = run(capsys, "--format", "data", "cut-eliminate",
                         str(lpath), str(rpath), "p", "a", "--trace")
    assert code == 0
    assert "case=-1.2-" in err
    assert check_derivation(loads_derivation(out)).valid


def test_contract_subcommand(capsys, tmp_path):
    d = node(R.RfPlus, parse_sequent("p, p ; |-+ p"))
    path = tmp_path / "d.deriv"
    save_derivation(d, path)
    code, out, _ = run(capsys, "--format", "data", "contract", str(path), "p", "a")
    assert code == 0
    assert loads_derivation(out).conclusion == parse_sequent("p ; |-+ p")


def test_golden_subcommand(capsys):
    code, out, _ = run(capsys, "golden")
    assert code == 0
    assert "coverage complete" in out


def test_latex_rendering(capsys):
    code, out, _ = run(capsys, "--latex", "prove", "; |-+ p -> p")
    assert code == 0
    assert r"\infer[\scriptstyle \rightarrow R^{+}]" in out
    assert r"\vdash^{+}" in out


def test_latex_proof_of_a_tall_horn_chain():
    # a proof of height about 1,000: LaTeX is written by a walk with its own
    # stack, as the text tree and the data document are
    code, out, err = _bint("--latex", "prove", format_sequent(horn_chain(480, True)))
    assert code == 0 and err == ""
    assert out.startswith(r"\infer[\scriptstyle ") and out.count("{") == out.count("}")


def test_render_text_shape():
    d = derive_identity(Context(), Context(), Atom("p"), __import__("bint").PLUS)
    assert render_text(d) == "[RfPlus] p ; |-+ p"


def test_file_round_trip_bit_exact(identity_file):
    text = identity_file.read_text()
    assert dumps_derivation(load_derivation(identity_file)) == text
    # canonical JSON: stable under an extra load/dump cycle
    data = json.loads(text)
    assert json.dumps(data, indent=2, sort_keys=True) + "\n" == text


def test_cut_node_round_trips():
    from bint.kernel import Annotation, Context, ContextSplit
    p, q = Atom("p"), Atom("q")
    rf = node(R.RfPlus, parse_sequent("p ; q |-+ p"))
    split = ContextSplit(Context.of(p), Context.of(q), Context(), Context.of(q))
    cut = node(R.CutA, parse_sequent("p ; q, q |-+ p"),
               [rf, node(R.RfPlus, parse_sequent("p ; q |-+ p"))],
               annotation=Annotation(cut_formula=p, context_split=split))
    text = dumps_derivation(cut)
    back = loads_derivation(text)
    assert back == cut and dumps_derivation(back) == text
    report = check_derivation(back)
    assert report.valid and report.cut_count == 1


def _horn_chain(height: int):
    atoms = [Atom(f"a{i}") for i in range(height + 1)]
    links = [Imp(lo, hi) for lo, hi in zip(atoms, atoms[1:])]
    return chain_proof(Context.from_iter([atoms[0]] + links), atoms), atoms + links


def _formulas_in(d):
    stack = [d]
    while stack:
        x = stack.pop()
        stack.extend(x.premises)
        s = x.conclusion
        yield from s.gamma.expand()
        yield from s.delta.expand()
        yield s.succedent
        if x.annotation is not None and x.annotation.principal is not None:
            yield x.annotation.principal


def test_each_distinct_formula_is_parsed_once_per_document(monkeypatch):
    d, distinct = _horn_chain(50)
    text = dumps_derivation(d)
    parsed = Counter()

    def counting_parse(t):
        parsed[t] += 1
        return parse_formula(t)

    monkeypatch.setattr(serialize, "parse_formula", counting_parse)
    back = loads_derivation(text)
    assert back == d
    assert parsed == Counter(format_formula(f) for f in distinct)
    one = {}
    assert all(one.setdefault(f, f) is f for f in _formulas_in(back))
    assert len(one) == len(distinct)


def test_each_distinct_formula_is_printed_once_per_document():
    """Counted by the formatter itself, whatever name it is called through:
    the first dump makes the text of each freshly built formula object once
    and keeps it on the object, so a second dump makes none."""
    d, _ = _horn_chain(50)
    fresh = {id(f): f for f in _formulas_in(d) if f._text is None}
    assert len(fresh) == 2 * 50     # each link in Gamma, and again as a principal
    made, code = [], syntax.format_formula.__code__

    def count(frame, event, arg):
        if event == "call" and frame.f_code is code and frame.f_locals["f"]._text is None:
            made.append(id(frame.f_locals["f"]))

    sys.setprofile(count)
    try:
        text = dumps_derivation(d)
        first = made[:]
        del made[:]
        again = dumps_derivation(d)
    finally:
        sys.setprofile(None)
    assert sorted(first) == sorted(fresh) and made == [] and again == text
    assert all(f._text == f"{f.left.name} -> {f.right.name}" for f in fresh.values())


#: each subcommand's positional arguments, in order, by their manifest names
_POSITIONALS = {
    "identity": ("context", "formula", "polarity"), "weaken": ("file", "formula", "side"),
    "unweaken": ("file", "which"), "contract": ("file", "formula", "side"),
    "invert": ("file", "target", "side"), "prove": ("sequent",),
    "cut-eliminate": ("left", "right", "cut_formula", "variant"),
}


@pytest.mark.parametrize("case", corpus.load_manifest(), ids=lambda c: c.id)
def test_cli_agrees_with_the_golden_corpus(capsys, case):
    command = {kind: c for c, kind in KIND.items()}.get(case.kind, case.kind)
    data = corpus.DATA_DIR
    argv = [str(data / case.input[k]) if k in ("file", "left", "right") else case.input[k]
            for k in _POSITIONALS[command]]
    trace = ["--trace"] if command == "cut-eliminate" else []
    code, out, err = run(capsys, "--format", "data", command, *argv, *trace)
    exp = case.expected
    if command == "prove":
        assert code == {"proved": 0, "refuted": 1}[exp["outcome"]]
        return
    assert code == 0
    if command == "invert":
        assert out == dumps_derivations([load_derivation(data / f) for f in exp["files"]])
    elif command == "cut-eliminate":
        assert err.split("\n")[0].startswith(f"case={exp['first_case']} ")
        assert format_sequent(loads_derivation(out).conclusion) == exp["endsequent"]
        if "result_file" in exp:
            assert out == (data / exp["result_file"]).read_text()
    else:
        assert out == (data / exp["file"]).read_text()
