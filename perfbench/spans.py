"""Spans for the traced run, recorded only from the benchmark's own code.

``install`` replaces, at run time, the names through which one ``bint`` layer
calls another (and through which the benchmark calls the engine) with
wrappers that open a span, call the original and close the span.  Nothing
under ``src/`` changes, and ``uninstall`` puts every original back.  Spans
live in one flat array until ``write`` saves them at the end of the run.

A span's self time is its duration minus the durations of its children; one
thread runs everything, so children never overlap.
"""

from __future__ import annotations

from array import array
from collections import Counter
from time import perf_counter

from bint import corpus, search, serialize, transform

from . import workloads
from .workloads import node_count


class Tracer:
    """Spans of one run; each closed span is five numbers in one flat array."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.rows = array("d")        # span id, parent id, name id, start, end
        self.next_id = 0
        self.stack: list[int] = []
        self.op_id = -1
        self.errors: dict[int, str] = {}
        self.counts: Counter = Counter()
        self.origins: Counter = Counter()   # layer -> RecursionErrors raised there
        self.expanded: set = set()           # sequents expanded by the current op

    def open(self, name: str) -> tuple:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = self.next_id
        self.next_id = i + 1
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(i)
        return (i, parent, nid, perf_counter())

    def close(self, span: tuple) -> None:
        self.rows.extend(span + (perf_counter(),))
        i = span[0]
        while self.stack and self.stack.pop() != i:
            pass

    def fail(self, span: tuple, e: BaseException) -> None:
        """Record the error; a RecursionError counts against the layer of the
        call the operation itself made, wherever below it the stack ran out."""
        self.errors[span[0]] = type(e).__name__
        if isinstance(e, RecursionError) and span[1] == self.op_id:
            self.origins[self.names[span[2]].split(".")[0]] += 1

    def begin_op(self, kind: str) -> tuple:
        self.expanded.clear()
        self.stack.clear()
        span = self.open(f"op.{kind}")
        self.op_id = span[0]
        return span

    def end_op(self, span: tuple) -> None:
        self.close(span)
        self.stack.clear()
        self.counts["search.expand_distinct"] += len(self.expanded)

    def spans(self):
        """(id, parent id, name, start, end) of every recorded span."""
        r = self.rows
        for k in range(0, len(r), 5):
            yield int(r[k]), int(r[k + 1]), self.names[int(r[k + 2])], r[k + 3], r[k + 4]

    # --- aggregation ------------------------------------------------------------

    def totals(self) -> tuple[Counter, Counter, Counter, float]:
        """Per span name: call count, total seconds, self seconds; and the
        seconds of ``kernel.check`` spans nested inside ``transform.elim``."""
        dur = [0.0] * self.next_id
        parent = array("i", [-1]) * self.next_id
        name: list = [None] * self.next_id
        for i, p, n, t0, t1 in self.spans():
            dur[i], parent[i], name[i] = t1 - t0, p, n
        child = [0.0] * self.next_id
        for i in range(self.next_id):
            if name[i] is not None and parent[i] >= 0:
                child[parent[i]] += dur[i]
        calls, total, self_s = Counter(), Counter(), Counter()
        check_in_elim = 0.0
        for i in range(self.next_id):
            n = name[i]
            if n is None:
                continue
            calls[n] += 1
            total[n] += dur[i]
            self_s[n] += dur[i] - child[i]
            if n == "kernel.check":
                p = parent[i]
                while p >= 0 and name[p] != "transform.elim":
                    p = parent[p]
                if p >= 0:
                    check_in_elim += dur[i]
        return calls, total, self_s, check_in_elim

    def write(self, path) -> None:
        t0 = min(self.rows[3::5], default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_us\tdur_us\terror\n")
            for i, p, n, a, b in self.spans():
                fh.write(f"{i}\t{p}\t{n}\t{(a - t0) * 1e6:.1f}\t{(b - a) * 1e6:.1f}\t"
                         f"{self.errors.get(i, '')}\n")


def _wrap(tracer: Tracer, fn, name: str, before=None, after=None):
    def wrapper(*args, **kwargs):
        if before is not None:
            before(tracer, args, kwargs)
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as e:
            tracer.fail(span, e)
            raise
        finally:
            tracer.close(span)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result
    return wrapper


def _count_checked(tracer, args, kwargs, result):
    tracer.counts["kernel.check_nodes"] += node_count(args[0])


def _note_expanded(tracer, args, kwargs):
    tracer.expanded.add(args[0])


def _count_proof(tracer, args, kwargs, result):
    if isinstance(result, search.Proved):
        tracer.counts["search.proof_nodes"] += node_count(result.derivation)


def _give_trace(tracer, args, kwargs):
    if len(args) < 5 and kwargs.get("trace") is None:
        kwargs["trace"] = transform.CutTrace()


def _count_steps(tracer, args, kwargs, result):
    trace = args[4] if len(args) >= 5 else kwargs["trace"]
    tracer.counts["transform.elim_steps"] += len(trace.steps)
    tracer.counts["transform.output_nodes"] += node_count(result)


def _count_loaded(tracer, args, kwargs, result):
    tracer.counts["serialize.bytes"] += len(args[0])


def _count_dumped(tracer, args, kwargs, result):
    tracer.counts["serialize.bytes"] += len(result)


def _count_cases(tracer, args, kwargs, result):
    tracer.counts["corpus.cases"] += len(result[0])


# (module, attribute, span, before hook, after hook): each name through which
# one layer calls another, the benchmark's workloads being one more caller
_CHECK = ("kernel.check", None, _count_checked)
_PATCHES = [
    (search, "backward_expansions", "kernel.expand", _note_expanded, None),
    (search, "check_derivation", *_CHECK),
    (transform, "check_derivation", *_CHECK),
    (serialize, "parse_sequent", "syntax.parse", None, None),
    (serialize, "parse_formula", "syntax.parse", None, None),
    (serialize, "format_sequent", "syntax.format", None, None),
    (serialize, "format_formula", "syntax.format", None, None),
    (corpus, "check_derivation", *_CHECK),
    (corpus, "parse_sequent", "syntax.parse", None, None),
    (corpus, "parse_formula", "syntax.parse", None, None),
    (corpus, "parse_context_pair", "syntax.parse", None, None),
    (corpus, "format_sequent", "syntax.format", None, None),
    (corpus, "load_derivation", "serialize.loads", None, None),
    (corpus, "dumps_derivation", "serialize.dumps", None, _count_dumped),
    (corpus, "eliminate_cut", "transform.elim", _give_trace, _count_steps),
    (corpus, "derive_identity", "transform.other", None, None),
    (corpus, "weaken", "transform.other", None, None),
    (corpus, "contract", "transform.other", None, None),
    (corpus, "invert", "transform.other", None, None),
    (corpus, "unweaken_special", "transform.other", None, None),
    (search, "prove", "search.prove", None, _count_proof),    # as bint.corpus sees it
    (workloads, "parse_sequent", "syntax.parse", None, None),
    (workloads, "parse_formula", "syntax.parse", None, None),
    (workloads, "format_sequent", "syntax.format", None, None),
    (workloads, "check_derivation", *_CHECK),
    (workloads, "dual_derivation", "kernel.dual", None, None),
    (workloads, "prove", "search.prove", None, _count_proof),
    (workloads, "loads_derivation", "serialize.loads", None, _count_loaded),
    (workloads, "dumps_derivation", "serialize.dumps", None, _count_dumped),
    (workloads, "eliminate_cut", "transform.elim", _give_trace, _count_steps),
    (workloads, "weaken", "transform.other", None, None),
    (workloads, "contract", "transform.other", None, None),
    (workloads, "run_all", "corpus.run_all", None, _count_cases),
]


def install(tracer: Tracer) -> list:
    saved = []
    for module, attr, name, before, after in _PATCHES:
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, _wrap(tracer, original, name, before, after))
    return saved


def uninstall(saved: list) -> None:
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)
