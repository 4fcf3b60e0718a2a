"""Command-line front end: parse, check, prove, transform, export.

The operations' arguments carry the golden manifest's names, and
``corpus.run_operation``, the runner the golden corpus uses, decodes and runs
them; this module reads the command line and writes what comes back.

Both renderers walk with their own stack, so a derivation of any height prints.

Exit codes: 0 success / proved; 1 refuted or invalid input derivation; 2 usage
or parse errors, or input nested too deeply for the command.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .syntax import And, Atom, Bottom, Coimp, Formula, FormulaSyntaxError, Imp, Or, Top
from .kernel import Derivation, RuleId, check_derivation, format_sequent
from .serialize import DerivationFormatError, dumps_derivations, load_derivations
from .transform import CutTrace, TransformError
from . import corpus

#: the subcommand whose name is not the kind of golden case it runs
KIND = {"cut-eliminate": "cutelim"}


def render_text(d: Derivation) -> str:
    """Pre-order lines, each premise indented two spaces below its node.  A
    node object that occurs several times is formatted once."""
    lines, stack, texts = [], [(d, 0)], {}    # id of a node -> its text
    while stack:
        x, depth = stack.pop()
        text = texts.get(id(x))
        if text is None:
            text = texts[id(x)] = f"[{x.rule.value}] {format_sequent(x.conclusion)}"
        lines.append(f"{'  ' * depth}{text}")
        stack += [(p, depth + 1) for p in reversed(x.premises)]
    return "\n".join(lines)


_LATEX_RULE = {
    RuleId.RfPlus: r"Rf^{+}", RuleId.RfMinus: r"Rf^{-}",
    RuleId.BotLa: r"\bot L^{a}", RuleId.TopLc: r"\top L^{c}",
    RuleId.BotRMinus: r"\bot R^{-}", RuleId.TopRPlus: r"\top R^{+}",
    RuleId.AndRPlus: r"\wedge R^{+}", RuleId.AndRMinus1: r"\wedge R^{-}_{1}",
    RuleId.AndRMinus2: r"\wedge R^{-}_{2}", RuleId.AndLa: r"\wedge L^{a}",
    RuleId.AndLc: r"\wedge L^{c}", RuleId.OrRPlus1: r"\vee R^{+}_{1}",
    RuleId.OrRPlus2: r"\vee R^{+}_{2}", RuleId.OrRMinus: r"\vee R^{-}",
    RuleId.OrLa: r"\vee L^{a}", RuleId.OrLc: r"\vee L^{c}",
    RuleId.ImpRPlus: r"\rightarrow R^{+}", RuleId.ImpRMinus: r"\rightarrow R^{-}",
    RuleId.ImpLa: r"\rightarrow L^{a}", RuleId.ImpLc: r"\rightarrow L^{c}",
    RuleId.CoimpRPlus: r"\Yleft R^{+}", RuleId.CoimpRMinus: r"\Yleft R^{-}",
    RuleId.CoimpLa: r"\Yleft L^{a}", RuleId.CoimpLc: r"\Yleft L^{c}",
    RuleId.CutA: r"Cut^{a}", RuleId.CutC: r"Cut^{c}",
}


_LATEX_OP = {And: r" \wedge ", Or: r" \vee ", Imp: r" \rightarrow ", Coimp: r" \Yleft "}
_LATEX_CONSTANT = {Bottom: r"\bot", Top: r"\top"}


def _latex_formula(f: Formula) -> str:
    """Every binary formula in parentheses, walked on its own stack, so a
    formula of any depth renders."""
    out, stack = [], [f]    # pieces of text and formulas still to render, in reverse order
    while stack:
        x = stack.pop()
        if x.__class__ is str:
            out.append(x)
        elif x.__class__ is Atom:
            out.append(x.name)
        elif x.__class__ in _LATEX_CONSTANT:
            out.append(_LATEX_CONSTANT[x.__class__])
        else:
            stack += (")", x.right, _LATEX_OP[x.__class__], x.left, "(")
    return "".join(out)


def _latex_sequent(s) -> str:
    g = ", ".join(_latex_formula(f) for f in s.gamma) or r"\emptyset"
    d = ", ".join(_latex_formula(f) for f in s.delta) or r"\emptyset"
    return rf"({g}; {d}) \vdash^{{{s.polarity.value}}} {_latex_formula(s.succedent)}"


def render_latex(d: Derivation) -> str:
    r"""``\infer[rule]{conclusion}{premise \quad ...}``; the stack holds nodes and
    text.  A node object that occurs several times is formatted once."""
    out, stack, texts = [], [d], {}     # id of a node -> the text before its premises
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            out.append(x)
            continue
        text = texts.get(id(x))
        if text is None:
            text = texts[id(x)] = (rf"\infer[\scriptstyle {_LATEX_RULE[x.rule]}]"
                                   + "{" + _latex_sequent(x.conclusion) + "}{")
        out.append(text)
        stack.append("}")      # after the premises, which pop in order
        for i, p in enumerate(reversed(x.premises)):
            stack += (r" \quad ", p) if i else (p,)
    return "".join(out)


def _emit(derivations: list[Derivation], output: str) -> None:
    if output == "data":
        sys.stdout.write(dumps_derivations(derivations))
    else:
        render = render_latex if output == "latex" else render_text
        for d in derivations:
            print(render(d))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bint",
        description="Bi-intuitionistic sequent engine: check, prove, transform.")
    parser.add_argument("--format", choices=("text", "data", "latex"), default="text",
                        help="output derivations as an indented tree, as JSON or as "
                             "inference-style LaTeX")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a derivation file")
    p.add_argument("file", type=Path)

    p = sub.add_parser("prove", help="decide a sequent and construct its proof")
    p.add_argument("sequent")

    p = sub.add_parser("identity", help="reflexivity derivation for a formula")
    p.add_argument("context", help="'Gamma ; Delta' (either side may be empty)")
    p.add_argument("formula")
    p.add_argument("polarity", choices=("+", "-"))

    p = sub.add_parser("weaken", help="add a formula to a derivation's endsequent")
    p.add_argument("file", type=Path)
    p.add_argument("formula")
    p.add_argument("side", choices=("a", "c"))

    p = sub.add_parser("unweaken", help="drop a T assumption or F counterassumption")
    p.add_argument("file", type=Path)
    p.add_argument("which", choices=("TopInGamma", "BotInDelta"))

    p = sub.add_parser("contract", help="collapse a duplicated context formula")
    p.add_argument("file", type=Path)
    p.add_argument("formula")
    p.add_argument("side", choices=("a", "c"))

    p = sub.add_parser("invert", help="invert a left-rule decomposition")
    p.add_argument("file", type=Path)
    p.add_argument("target")
    p.add_argument("side", choices=("a", "c"))

    p = sub.add_parser("cut-eliminate", help="eliminate a cut between two derivations")
    p.add_argument("left", type=Path)
    p.add_argument("right", type=Path)
    p.add_argument("cut_formula")
    p.add_argument("variant", choices=("a", "c"))
    p.add_argument("--trace", action="store_true",
                   help="log one rewrite-case line per elimination step to stderr")

    p = sub.add_parser("golden", help="run the stored golden corpus")
    p.add_argument("--corpus-dir", type=Path, default=corpus.DATA_DIR)

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (FormulaSyntaxError, DerivationFormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except TransformError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except RecursionError:
        print(f"error: input nested too deeply for {args.command}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "check":
        ds = load_derivations(args.file)
        if not ds:
            raise DerivationFormatError(f"{args.file} holds no derivation")
        worst = 0
        for d in ds:
            report = check_derivation(d)
            print(report)
            if not report.valid:
                worst = 1
        return worst

    if args.command == "golden":
        results, coverage = corpus.run_all(args.corpus_dir)
        failures = 0
        for r in results:
            status = "pass" if r.ok else f"FAIL ({r.diff})"
            print(f"{r.case.id}: {status}")
            failures += 0 if r.ok else 1
        print(coverage)
        print(f"{len(results) - failures}/{len(results)} golden cases passed")
        return 0 if failures == 0 and coverage.ok else 1

    trace = CutTrace() if getattr(args, "trace", False) else None
    outs = corpus.run_operation(KIND.get(args.command, args.command), vars(args),
                                _load_single, trace)
    for line in (trace.lines() if trace is not None else ()):
        print(line, file=sys.stderr)
    if not outs:
        print("refuted: no derivation exists")
        return 1
    _emit(outs, args.format)
    return 0


def _load_single(path: Path) -> Derivation:
    ds = load_derivations(path)
    if len(ds) != 1:
        raise DerivationFormatError(f"{path} holds {len(ds)} derivations, need exactly 1")
    return ds[0]


if __name__ == "__main__":
    sys.exit(main())
