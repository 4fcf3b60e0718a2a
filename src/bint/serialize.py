"""Structured-data derivation files.

A derivation is a JSON object with fields ``rule``, ``conclusion`` (sequent
text), optional ``annotation``, and ``premises`` (nested list).  Dumping is
canonical (sorted keys, two-space indent, ASCII escapes, trailing newline), so
files round-trip bit-exact through load/dump.  The text is exactly what
Python's ``json`` module writes with ``indent=2, sort_keys=True``; the writer
here emits it directly.  Every node repeats its whole conclusion, so one
document holds the same formulas many times, and documents over the same
atoms hold the same formulas again.  Each distinct formula text is therefore
parsed once per process, up to the bound of ``parse_formula``'s cache (the
one ``kernel.parse_sequent`` reads sequent text through), and once per
document beyond it, and equal formulas are one object either way (formulas
are hash-consed); each formula object is printed once per process, since it
keeps its text (``syntax.format_formula``).  Each distinct text of a
conclusion's Gamma or Delta is read, and each distinct context written, once
per document.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _escape
from typing import Any, Optional

from .syntax import Formula, format_formula
from . import kernel
from .kernel import (
    Annotation, Context, ContextSplit, Derivation, RuleId, _context_of, _Memo,
    format_sequent, parse_formula,
    parse_sequent,  # noqa: F401  # a name the benchmark's traced run wraps
)


class DerivationFormatError(ValueError):
    pass


_SPLIT_KEYS = ("gamma", "delta", "gamma_prime", "delta_prime")
#: each rule's name as a JSON string, escaped once
_RULE_TEXT = {r: _escape(r.value) for r in RuleId}


class _Writer:
    """Writes one document, reading each formula's kept text and printing
    only a formula that has none yet, and joining each distinct context's
    texts once (``contexts``).  The text is the one Python's JSON
    encoder gives with a two-space indent and sorted keys: the keys in that
    order, strings escaped by the encoder's own C function, and each depth's
    indentation built once.  It nests two calls per derivation level, node
    and premise list, as the loader does."""

    def __init__(self):
        self.contexts: dict[Context, str] = _Memo(Context.__str__)
        self.out: list[str] = []
        self.indents: dict[int, str] = _Memo(lambda depth: "\n" + "  " * depth)

    def text(self) -> str:
        self.out.append("\n")
        return "".join(self.out)

    def node(self, d: Derivation, depth: int) -> None:
        out, indents = self.out, self.indents
        nl = indents[depth + 1]
        out.append("{")
        a = d.annotation
        if a is not None and (a.principal is not None or a.cut_formula is not None
                              or a.context_split is not None):
            out += (nl, '"annotation": ')
            self.annotation(a, depth + 1)
            out.append(",")
        conclusion = format_sequent(d.conclusion, self.contexts.__getitem__)
        out += (nl, '"conclusion": ', _escape(conclusion), ",", nl, '"premises": ')
        self.premises(d.premises, depth + 1)
        out += (",", nl, '"rule": ', _RULE_TEXT[d.rule], indents[depth], "}")

    def premises(self, ds, depth: int) -> None:
        out = self.out
        if not ds:
            out.append("[]")
            return
        nl = self.indents[depth + 1]
        sep = "["
        for d in ds:
            out += (sep, nl)
            self.node(d, depth + 1)
            sep = ","
        out += (self.indents[depth], "]")

    def annotation(self, a: Annotation, depth: int) -> None:
        out, indents = self.out, self.indents
        nl = indents[depth + 1]
        sep = "{"
        sp = a.context_split
        if sp is not None:
            inner = indents[depth + 2]
            out += (sep, nl, '"context_split": ')
            sep = "{"
            for key in sorted(_SPLIT_KEYS):
                out += (sep, inner, f'"{key}": ')
                self.formulas(getattr(sp, key), depth + 2)
                sep = ","
            out += (nl, "}")
            sep = ","
        for key, f in (("cut_formula", a.cut_formula), ("principal", a.principal)):
            if f is not None:
                out += (sep, nl, f'"{key}": ', _escape(f._text or format_formula(f)))
                sep = ","
        out += (indents[depth], "}")

    def formulas(self, fs: tuple[Formula, ...], depth: int) -> None:
        out = self.out
        if not fs:
            out.append("[]")
            return
        nl = self.indents[depth + 1]
        sep = "["
        for f in fs:
            out += (sep, nl, _escape(f._text or format_formula(f)))
            sep = ","
        out += (self.indents[depth], "]")


_JSON_TYPE_NAMES = {dict: "object", list: "list", str: "string"}
_RULE_IDS = {r.value: r for r in RuleId}


def _expect(value: Any, kind: type, what: str) -> Any:
    if not isinstance(value, kind):
        raise DerivationFormatError(
            f"{what} must be a JSON {_JSON_TYPE_NAMES[kind]}, got {type(value).__name__}")
    return value


class _Reader:
    """Reads one document, each conclusion by ``kernel.parse_sequent``,
    parsing each distinct formula text at most once (the shared cache may
    have dropped it) and each distinct text of a conclusion's Gamma or Delta
    once, so equal contexts are one object."""

    def __init__(self):
        formula = self.formula = _Memo(parse_formula).__getitem__
        # the text of a context, before ';' or between ';' and the turnstile
        # -> the context: a left rule's premise changes one context of its
        # conclusion and repeats the other
        self.contexts: dict[str, Context] = _Memo(lambda text: _context_of(text, formula))

    def _context(self, data: Any, what: str) -> Context:
        return Context.from_iter(self.formula(_expect(t, str, f"{what} entry"))
                                 for t in _expect(data, list, what))

    def _annotated(self, ann: dict[str, Any], key: str) -> Optional[Formula]:
        return self.formula(_expect(ann[key], str, key)) if key in ann else None

    def derivation(self, data: Any) -> Derivation:
        # a node's types are checked inline; ``_expect`` only words an error
        if not isinstance(data, dict):
            _expect(data, dict, "a derivation")
        name = data.get("rule")
        rule = _RULE_IDS.get(name) if isinstance(name, str) else None
        if rule is None:
            raise DerivationFormatError(f"bad or missing rule id: {name!r}")
        if "conclusion" not in data:
            raise DerivationFormatError("missing conclusion")
        text, premises = data["conclusion"], data.get("premises", [])
        if not isinstance(text, str):
            _expect(text, str, "conclusion")
        # through ``kernel``, so a traced run opens no span per conclusion
        conclusion = kernel.parse_sequent(text, self.formula, self.contexts.__getitem__)
        if not isinstance(premises, list):
            _expect(premises, list, "premises")
        premises = tuple([self.derivation(p) for p in premises])
        ann_data = data.get("annotation")
        annotation = None
        if ann_data is not None and _expect(ann_data, dict, "annotation"):
            split = None
            if "context_split" in ann_data:
                spd = _expect(ann_data["context_split"], dict, "context_split")
                missing = [k for k in _SPLIT_KEYS if k not in spd]
                if missing:
                    raise DerivationFormatError(f"context_split lacks {', '.join(missing)}")
                split = ContextSplit(**{k: self._context(spd[k], k) for k in _SPLIT_KEYS})
            annotation = Annotation(
                principal=self._annotated(ann_data, "principal"),
                cut_formula=self._annotated(ann_data, "cut_formula"),
                context_split=split,
            )
        return Derivation(conclusion, rule, premises, annotation)


def _dumps(write, item) -> str:
    """The text ``write(writer, item, 0)`` gives a fresh writer.  Overflowing
    the stack raises a new ``RecursionError`` from here, outside the
    ``except`` and with the writer gone: the caught error's traceback holds
    every writer frame, and with them the partial text, for as long as
    anything keeps the error."""
    writer = _Writer()
    try:
        write(writer, item, 0)
        return writer.text()
    except RecursionError:
        pass
    del writer
    raise RecursionError("derivation nested too deeply to write")


def dumps_derivation(d: Derivation) -> str:
    return _dumps(_Writer.node, d)


def _parse_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise DerivationFormatError(f"not JSON: {e}") from e


def loads_derivation(text: str) -> Derivation:
    return _Reader().derivation(_parse_json(text))


def _read_text(path) -> str:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            raise DerivationFormatError(f"not UTF-8 text: {e}") from e


def _load(path, parse):
    text = _read_text(path)
    try:
        return parse(text)
    except RecursionError as e:
        raise DerivationFormatError("nested too deeply") from e


def load_derivation(path) -> Derivation:
    return _load(path, loads_derivation)


def load_derivations(path) -> list[Derivation]:
    """Load a file holding either one derivation object or a list of them."""
    return _load(path, _derivations_from_text)


def _derivations_from_text(text: str) -> list[Derivation]:
    data = _parse_json(text)
    reader = _Reader()
    if isinstance(data, list):
        return [reader.derivation(item) for item in data]
    if isinstance(data, dict):
        return [reader.derivation(data)]
    raise DerivationFormatError("expected a JSON object or list")


def dumps_derivations(ds: list[Derivation]) -> str:
    if len(ds) == 1:
        return dumps_derivation(ds[0])
    return _dumps(_Writer.premises, ds)
