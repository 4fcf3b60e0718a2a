"""Structured-data derivation files.

A derivation is written in one of two JSON layouts, both canonical, so files
round-trip bit-exact through load/dump:

- A tree, for a derivation of height below ``FLAT_HEIGHT``: a JSON object
  with fields ``rule``, ``conclusion`` (sequent text), optional
  ``annotation``, and ``premises`` (nested list).  The text is exactly what
  Python's ``json`` module writes with ``indent=2, sort_keys=True``; the
  writer here emits it directly.
- Flat, from ``FLAT_HEIGHT`` up: ``{"format": "flat", "nodes": [...], "root":
  k}``.  Each distinct node object is one line of ``nodes``, in
  ``kernel.fold`` post-order, with the tree layout's fields except that
  ``premises`` lists the indices of earlier lines; each line is the text
  ``json.dumps(fields, sort_keys=True)`` gives.

Both layouts are written by loops, at any height and from any caller depth.
The tree layout repeats a shared subproof under each node that uses it, and
indents each line two spaces per level, so its text is quadratic in the
height; and only reading it is bound by the stack: it nests 2h + 1 JSON
levels for height h, each of which ``json`` counts against the recursion
limit, as do the reader's two frames per level.  ``FLAT_HEIGHT`` is 64, the
least power of two above every tree whose bytes are pinned: the golden
corpus, the tall-chain elimination outputs (at most 51 high) and the
benchmark's replayed derivations (at most 14).  So a tree is at most 63 high,
about 125 KB for a 63-high tower against 1.9 MB at 255, and it reads from a
caller about 860 frames deep at the default limit of 1,000 (Python 3.11;
about 480 at 255 high).  The flat layout is linear in the number of distinct
nodes, nests a few levels at any height, and is read by a loop that builds
each line once, so sharing survives.  Every reader takes either layout,
choosing by the top-level key ``format``, and each derivation of a list picks
its own; so a tree 64 to 255 high, which earlier versions wrote, still loads,
and dumps flat.

Every node repeats its whole conclusion, so one document holds the same
formulas many times, and documents over the same atoms hold the same formulas
again; and a left rule's premise adds its principal's operands, which are
subformulas of a text read below it.  Each distinct formula text is looked up
once per document in ``parse_formula``'s cache (the one ``kernel.parse_sequent``
reads sequent text through), and a text the cache has dropped is found
without a scan while a live formula keeps it: a parse gives each formula it
reads its text, its subformulas' included (``syntax._TEXTS``).  So a formula
text is scanned once per process while its formula lives, and equal formulas
are one object either way (formulas are hash-consed); each formula object is
printed at most once per process, since it keeps its text.  Each distinct
text of a conclusion's Gamma or Delta is read, and each distinct context
written, once per document; a flat document's lines read each distinct
conclusion text once.
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


#: a derivation this high or higher is written flat, any lower one as a tree
FLAT_HEIGHT = 64

_SPLIT_KEYS = ("gamma", "delta", "gamma_prime", "delta_prime")
_SORTED_SPLIT_KEYS = sorted(_SPLIT_KEYS)
#: each rule's name as a JSON string, escaped once
_RULE_TEXT = {r: _escape(r.value) for r in RuleId}

#: the depth of a container -> the texts after it opens, between its items
#: and before it closes, as ``json.dumps(indent=2)`` writes them.  The memo
#: lives for the process; a tree's nodes lie at most 2 * FLAT_HEIGHT depths
#: down, so it stays small
_INDENTED = _Memo(lambda depth: ("\n" + "  " * (depth + 1), ",\n" + "  " * (depth + 1),
                                 "\n" + "  " * depth))


def _text(f: Formula) -> str:
    return f._text or format_formula(f)


def _container(brackets: str, items: list[str], depth: int) -> str:
    """The indented JSON list (``brackets`` is ``"[]"``) or object (``"{}"``)
    of the texts ``items``, at ``depth``."""
    if not items:
        return brackets
    start, sep, end = _INDENTED[depth]
    return f"{brackets[0]}{start}{sep.join(items)}{end}{brackets[1]}"


def _one_line(a: Annotation) -> str:
    """The one-line text of annotation ``a``'s field, and the separator after
    it, or "" when ``a`` has no item."""
    items = []
    sp = a.context_split
    if sp is not None:
        lists = ", ".join([f'"{key}": [{", ".join([_escape(_text(f)) for f in getattr(sp, key)])}]'
                           for key in _SORTED_SPLIT_KEYS])
        items.append(f'"context_split": {{{lists}}}')
    if a.cut_formula is not None:
        items.append(f'"cut_formula": {_escape(_text(a.cut_formula))}')
    if a.principal is not None:
        items.append(f'"principal": {_escape(_text(a.principal))}')
    return f'"annotation": {{{", ".join(items)}}}, ' if items else ""


class _Writer:
    """Writes one document, reading each formula's kept text and printing
    only a formula that has none yet, and joining each distinct context's
    texts once (``contexts``).  The text is the one Python's JSON encoder
    gives with sorted keys: strings escaped by the encoder's own C function,
    a tree's node objects written by ``fields`` and a flat document's lines
    each by one f-string.  Both layouts are written by loops, at any height
    and from any caller depth."""

    def __init__(self):
        self.contexts: dict[Context, str] = _Memo(Context.__str__)
        self.out: list[str] = []

    def text(self) -> str:
        self.out.append("\n")
        return "".join(self.out)

    def document(self, d: Derivation, depth: int) -> None:
        (self.flat if d.height >= FLAT_HEIGHT else self.tree)(d, depth)

    def documents(self, ds: list[Derivation], depth: int) -> None:
        """A list of derivations, each in its own layout."""
        out = self.out
        start, sep, end = _INDENTED[depth]
        out.append("[")
        for i, d in enumerate(ds):
            out.append(sep if i else start)
            self.document(d, depth + 1)
        out.append(f"{end}]" if ds else "]")

    def fields(self, x: Derivation, depth: int) -> tuple[str, str]:
        """The indented text of node ``x``'s object at ``depth`` before and
        after the value of its ``premises``."""
        start, sep, end = _INDENTED[depth]
        annotation, a = "", x.annotation
        if a is not None:
            items = []
            sp = a.context_split
            if sp is not None:
                items.append('"context_split": ' + _container("{}", [
                    f'"{key}": ' + _container("[]", [_escape(_text(f)) for f in getattr(sp, key)],
                                              depth + 3)
                    for key in _SORTED_SPLIT_KEYS], depth + 2))
            for key, f in (("cut_formula", a.cut_formula), ("principal", a.principal)):
                if f is not None:
                    items.append(f'"{key}": {_escape(_text(f))}')
            if items:
                annotation = f'"annotation": {_container("{}", items, depth + 1)}{sep}'
        conclusion = _escape(format_sequent(x.conclusion, self.contexts.__getitem__))
        return (f'{{{start}{annotation}"conclusion": {conclusion}{sep}"premises": ',
                f'{sep}"rule": {_RULE_TEXT[x.rule]}{end}}}')

    def tree(self, d: Derivation, depth: int) -> None:
        """``d`` in the tree layout, in one loop over a stack of texts and of
        ``(node, depth)`` items, each node's premises at two depths below it."""
        out, stack = self.out, [(d, depth)]
        while stack:
            x = stack.pop()
            if x.__class__ is str:
                out.append(x)
                continue
            x, depth = x
            head, tail = self.fields(x, depth)
            if not x.premises:
                out += (head, "[]", tail)
                continue
            start, sep, end = _INDENTED[depth + 1]
            out += (head, "[", start)
            stack.append(f"{end}]{tail}")      # after the premises, which pop in order
            for i, p in enumerate(reversed(x.premises)):
                stack += (sep, (p, depth + 2)) if i else ((p, depth + 2),)

    def flat(self, d: Derivation, depth: int) -> None:
        """``d`` in the flat layout, its lines numbered in ``kernel.fold``
        post-order, so the root is the last.  Each line is the text
        ``json.dumps`` gives the node's fields with sorted keys."""
        lines: list[str] = []
        context = self.contexts.__getitem__

        def number(x: Derivation, premises: tuple[int, ...]) -> int:
            a = x.annotation
            lines.append(f'{{{"" if a is None else _one_line(a)}"conclusion": '
                         f'{_escape(format_sequent(x.conclusion, context))}, "premises": '
                         f'[{", ".join(map(str, premises))}], "rule": {_RULE_TEXT[x.rule]}}}')
            return len(lines) - 1

        root = kernel.fold(d, number)
        nodes = _container("[]", lines, depth + 1)
        self.out.append(_container("{}", ['"format": "flat"', f'"nodes": {nodes}',
                                          f'"root": {root}'], depth))


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

    def head(self, data: Any) -> tuple[RuleId, str, list]:
        """The rule, the conclusion's text and the premise list of node
        ``data``."""
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
        if not isinstance(premises, list):
            _expect(premises, list, "premises")
        return rule, text, premises

    def annotation(self, ann_data: Any) -> Optional[Annotation]:
        if ann_data is None or not _expect(ann_data, dict, "annotation"):
            return None
        split = None
        if "context_split" in ann_data:
            spd = _expect(ann_data["context_split"], dict, "context_split")
            missing = [k for k in _SPLIT_KEYS if k not in spd]
            if missing:
                raise DerivationFormatError(f"context_split lacks {', '.join(missing)}")
            split = ContextSplit(**{k: self._context(spd[k], k) for k in _SPLIT_KEYS})
        return Annotation(
            principal=self._annotated(ann_data, "principal"),
            cut_formula=self._annotated(ann_data, "cut_formula"),
            context_split=split,
        )

    def document(self, data: Any) -> Derivation:
        """The derivation of a document in either layout."""
        if data.__class__ is dict and "format" in data:
            if data["format"] != "flat":
                raise DerivationFormatError(f"unknown format {data['format']!r}")
            return self.flat(data)
        return self.derivation(data)

    def derivation(self, data: Any) -> Derivation:
        """A tree: the node ``data`` over its nested premises."""
        rule, text, premises = self.head(data)
        # through ``kernel``, so a traced run opens no span per conclusion
        conclusion = kernel.parse_sequent(text, self.formula, self.contexts.__getitem__)
        return Derivation(conclusion, rule, tuple([self.derivation(p) for p in premises]),
                          self.annotation(data["annotation"]) if "annotation" in data else None)

    def flat(self, data: dict) -> Derivation:
        """The flat layout, in one loop: each line is built once, over the
        nodes built for the earlier lines its premises name.  Each distinct
        conclusion text is read once: lines repeat their conclusions."""
        built: list[Derivation] = []
        sequents = _Memo(lambda text: kernel.parse_sequent(text, self.formula,
                                                           self.contexts.__getitem__))
        for line in _expect(data.get("nodes"), list, "nodes"):
            rule, text, premises = self.head(line)
            for k in premises:
                if k.__class__ is not int or not 0 <= k < len(built):
                    raise DerivationFormatError(
                        f"node {len(built)}: premise {k!r} is not the index of an earlier node")
            built.append(Derivation(sequents[text], rule, tuple([built[k] for k in premises]),
                                    self.annotation(line.get("annotation"))))
        root = data.get("root")
        if root.__class__ is not int or not 0 <= root < len(built):
            raise DerivationFormatError(f"root {root!r} is not the index of a node")
        return built[root]


def _dumps(write, item) -> str:
    """The text ``write(writer, item, 0)`` gives a fresh writer."""
    writer = _Writer()
    write(writer, item, 0)
    return writer.text()


def dumps_derivation(d: Derivation) -> str:
    return _dumps(_Writer.document, d)


def _parse_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise DerivationFormatError(f"not JSON: {e}") from e


def loads_derivation(text: str) -> Derivation:
    return _Reader().document(_parse_json(text))


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
        return [reader.document(item) for item in data]
    if isinstance(data, dict):
        return [reader.document(data)]
    raise DerivationFormatError("expected a JSON object or list")


def dumps_derivations(ds: list[Derivation]) -> str:
    if len(ds) == 1:
        return dumps_derivation(ds[0])
    return _dumps(_Writer.documents, ds)
