"""Structured-data derivation files.

A derivation is a JSON object with fields ``rule``, ``conclusion`` (sequent
text), optional ``annotation``, and ``premises`` (nested list).  Dumping is
canonical (sorted keys, two-space indent, trailing newline) so files round-trip
bit-exact through load/dump.  Every node repeats its whole conclusion, so one
document holds the same formulas many times: each distinct formula text is
parsed, and each distinct formula printed, once per document.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from .syntax import Formula, format_formula, parse_formula
from .kernel import (
    Annotation, Context, ContextSplit, Derivation, RuleId,
    format_sequent, parse_sequent,
)


class DerivationFormatError(ValueError):
    pass


_SPLIT_KEYS = ("gamma", "delta", "gamma_prime", "delta_prime")


class _Writer:
    """Writes one document, printing each distinct formula once."""

    def __init__(self):
        self.texts: dict[Formula, str] = {}

    def formula(self, f: Formula) -> str:
        text = self.texts.get(f)
        if text is None:
            text = self.texts[f] = format_formula(f)
        return text

    def data(self, d: Derivation) -> dict[str, Any]:
        out: dict[str, Any] = {
            "rule": d.rule.value,
            "conclusion": format_sequent(d.conclusion, self.formula),
            "premises": [self.data(p) for p in d.premises],
        }
        if d.annotation is not None:
            ann: dict[str, Any] = {}
            if d.annotation.principal is not None:
                ann["principal"] = self.formula(d.annotation.principal)
            if d.annotation.cut_formula is not None:
                ann["cut_formula"] = self.formula(d.annotation.cut_formula)
            if d.annotation.context_split is not None:
                sp = d.annotation.context_split
                ann["context_split"] = {k: [self.formula(f) for f in getattr(sp, k).expand()]
                                        for k in _SPLIT_KEYS}
            if ann:
                out["annotation"] = ann
        return out


_JSON_TYPE_NAMES = {dict: "object", list: "list", str: "string"}


def _expect(value: Any, kind: type, what: str) -> Any:
    if not isinstance(value, kind):
        raise DerivationFormatError(
            f"{what} must be a JSON {_JSON_TYPE_NAMES[kind]}, got {type(value).__name__}")
    return value


class _Reader:
    """Reads one document, parsing each distinct formula text once, so equal
    formulas in what it reads are one object."""

    def __init__(self):
        self.formulas: dict[str, Formula] = {}

    def formula(self, text: str) -> Formula:
        f = self.formulas.get(text)
        if f is None:
            f = self.formulas[text] = parse_formula(text)
        return f

    def _context(self, data: Any, what: str) -> Context:
        return Context.from_iter(self.formula(_expect(t, str, f"{what} entry"))
                                 for t in _expect(data, list, what))

    def _annotated(self, ann: dict[str, Any], key: str) -> Optional[Formula]:
        return self.formula(_expect(ann[key], str, key)) if key in ann else None

    def derivation(self, data: Any) -> Derivation:
        _expect(data, dict, "a derivation")
        try:
            rule = RuleId(data["rule"])
        except (KeyError, ValueError) as e:
            raise DerivationFormatError(f"bad or missing rule id: {e}") from e
        if "conclusion" not in data:
            raise DerivationFormatError("missing conclusion")
        conclusion = parse_sequent(_expect(data["conclusion"], str, "conclusion"), self.formula)
        premises = tuple(self.derivation(p)
                         for p in _expect(data.get("premises", []), list, "premises"))
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


def dumps_derivation(d: Derivation) -> str:
    return json.dumps(_Writer().data(d), indent=2, sort_keys=True) + "\n"


def _parse_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise DerivationFormatError(f"not JSON: {e}") from e


def loads_derivation(text: str) -> Derivation:
    return _Reader().derivation(_parse_json(text))


def save_derivation(d: Derivation, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_derivation(d))


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
    writer = _Writer()
    return json.dumps([writer.data(d) for d in ds], indent=2, sort_keys=True) + "\n"
