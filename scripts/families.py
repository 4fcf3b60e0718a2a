#!/usr/bin/env python3
"""The intuitionistic benchmark families, as bint sequent text, and a table of
what ``bint.search.prove`` does on them.

    python3 scripts/families.py [--ladder small|full]

The families follow their published definitions (Dyckhoff, "Some benchmark
formulae for intuitionistic propositional logic", 1997; the ILTP library,
Raths, Otten and Kreitz, JAR 2007).  A formula without ``-<`` is its own
``+`` image under the translation of ``bint.decide``, so ``; |-+ A`` is
derivable exactly when ``A`` is an intuitionistic theorem.

The text is fixed, because the search's choices and its oracle calls depend
on the order of the formulas it meets:

* ``A <-> B`` is written ``(A -> B) /\\ (B -> A)``;
* an n-ary conjunction or disjunction lists its operands in index order,
  unparenthesized, so it associates to the right as every bint connective
  does: ``x0 /\\ x1 /\\ x2`` is ``x0 /\\ (x1 /\\ x2)``.  An empty
  disjunction is ``F``.

The generators use the standard library only.  Run as a script, this proves
each instance of the ladder and its dual, checks each verdict against the
known one and each proof, and prints one row per sequent: the decision
time and the ``prove`` time (one run each), the oracle calls and the
``Derivation`` nodes constructed in a second, counted run, and the proof's
distinct (by object) and tree nodes.  The exit status is 1 when a verdict
or a proof is wrong.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from contextlib import ExitStack
from pathlib import Path
from unittest import mock


def _conj(parts) -> str:
    return " /\\ ".join(parts)


def _disj(parts) -> str:
    return " \\/ ".join(parts) or "F"


def _iff(a: str, b: str) -> str:
    return f"({a} -> {b}) /\\ ({b} -> {a})"


def de_bruijn(n: int, derivable: bool = True) -> str:
    """``; |-+ (/\\_i ((p_i <-> p_(i+1 mod m)) -> C)) -> C``.  Derivable with
    m = 2n+1 atoms and C = p0 /\\ ... /\\ p(m-1); refuted with m = 2n atoms
    and C = p0 (classically false: make p_i true for odd i only)."""
    m = 2 * n + 1 if derivable else 2 * n
    atoms = [f"p{i}" for i in range(m)]
    c = f"({_conj(atoms)})" if derivable else "p0"
    links = [f"(({_iff(atoms[i], atoms[(i + 1) % m])}) -> {c})" for i in range(m)]
    return f"; |-+ ({_conj(links)}) -> {c}"


def pigeonhole(n: int, k: int) -> str:
    """``; |-+ /\\_(i<k) \\/_(j<n) o_ij -> \\/_(j<n, i<i'<k) (o_ij /\\ o_i'j)``:
    k pigeons in n holes share one.  Derivable for k = n+1, refuted for
    k = n.  The disjuncts run over j, then i, then i'."""
    def o(i, j):
        return f"o{i}_{j}"
    left = _conj(f"({_disj(o(i, j) for j in range(n))})" for i in range(k))
    right = _disj(f"{o(i, j)} /\\ {o(i2, j)}"
                  for j in range(n) for i in range(k) for i2 in range(i + 1, k))
    return f"; |-+ ({left}) -> ({right})"


def equivalence(n: int) -> str:
    """``; |-+ (p1 /\\ ... /\\ pn) <-> (pn /\\ ... /\\ p1)``, derivable."""
    atoms = [f"p{i}" for i in range(1, n + 1)]
    return f"; |-+ {_iff(f'({_conj(atoms)})', f'({_conj(atoms[::-1])})')}"


def horn_chain(length: int, with_start: bool) -> str:
    """``a0 -> a1, ..., a(L-1) -> aL, a0 ; |-+ aL``; derivable iff ``a0`` is
    there."""
    links = [f"a{i} -> a{i + 1}" for i in range(length)]
    return ", ".join(links + ["a0"] * with_start) + f" ; |-+ a{length}"


def instances(ladder: str) -> list[tuple[str, str, bool]]:
    """``(name, sequent text, derivable)`` for each instance of ``ladder``:
    ``small`` (well under a second in all) or ``full``."""
    big = ladder == "full"
    out = [(f"de Bruijn n = {n}", de_bruijn(n), True) for n in range(1, 7 if big else 4)]
    # deciding the refuted member takes about 14 times longer at each n: 1.4 s at n = 4
    out += [(f"de Bruijn n = {n}, 2n atoms", de_bruijn(n, False), False)
            for n in range(1, 5 if big else 4)]
    for n in range(1, 5 if big else 4):
        out += [(f"pigeonhole n = {n}", pigeonhole(n, n + 1), True),
                (f"pigeonhole n = {n}, k = n", pigeonhole(n, n), False)]
    out += [(f"equivalence n = {n}", equivalence(n), True) for n in range(1, 7)]
    for length in (16, 100) if big else (16,):
        out += [(f"Horn L = {length}", horn_chain(length, True), True),
                (f"Horn L = {length}, no a0", horn_chain(length, False), False)]
    return out


def counted_prove(s, setattr):
    """Prove ``s`` with counters that ``setattr(owner, name, value)`` installs
    and the caller undoes: ``(outcome, oracle calls, Derivation nodes
    constructed)``."""
    from bint import kernel, search

    constructors, built = [], 0
    init = kernel.Derivation.__init__

    class Counted(search._Constructor):
        def __init__(self):
            super().__init__()
            constructors.append(self)

    def counting(self, *args):
        nonlocal built
        built += 1
        init(self, *args)

    setattr(kernel.Derivation, "__init__", counting)
    setattr(search, "_Constructor", Counted)
    out = search.prove(s)
    proved = getattr(out, "derivation", None) is not None
    return out, 1 + len(constructors[0].accepted) if proved else 1, built


def sizes(d) -> tuple[int, int]:
    """The distinct (by object) and tree nodes of ``d``; ``(0, 0)`` for None."""
    from bint.kernel import fold

    if d is None:
        return 0, 0
    distinct = []
    tree = fold(d, lambda x, images: distinct.append(x) or 1 + sum(images))
    return len(distinct), tree


def measure(s) -> dict:
    """Decide and prove ``s`` once each timed, then prove it once counted: the
    row of the table, with ``derivation`` the proof (None when refuted)."""
    from bint import search
    from bint.decide import derivable

    gc.collect()    # so earlier rows' garbage is not collected inside a timing
    start = time.perf_counter()
    derivable(s)
    decide_s = time.perf_counter() - start
    start = time.perf_counter()
    search.prove(s)
    prove_s = time.perf_counter() - start
    with ExitStack() as undo:
        out, oracle_calls, built = counted_prove(
            s, lambda *patch: undo.enter_context(mock.patch.object(*patch)))
    d = getattr(out, "derivation", None)
    distinct, tree = sizes(d)
    return {"decide_s": decide_s, "prove_s": prove_s, "oracle_calls": oracle_calls,
            "constructed": built, "distinct": distinct, "tree": tree, "derivation": d}


def _fault(s, expected: bool, d) -> str:
    """What is wrong with ``d``, the proof of ``s`` or None, if anything."""
    if (d is not None) != expected:
        return f"expected {'a proof' if expected else 'a refutation'}"
    if d is not None and not (d.valid and d.cut_count == 0 and d.conclusion == s):
        return "the proof is not a valid cut-free proof of the query"
    return ""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--ladder", choices=("small", "full"), default="full")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from bint.kernel import dual_sequent, parse_sequent

    bad = 0
    print(f"{'instance':34} {'decide ms':>9} {'prove ms':>9} {'oracle':>7} "
          f"{'built':>7} {'distinct':>8} {'tree':>8}")
    for name, text, expected in instances(args.ladder):
        s = parse_sequent(text)
        for label, x in ((name, s), (f"{name}, dual", dual_sequent(s))):
            row = measure(x)
            fault = _fault(x, expected, row.pop("derivation"))
            bad += bool(fault)
            print(f"{label:34} {row['decide_s'] * 1e3:9.2f} {row['prove_s'] * 1e3:9.2f} "
                  f"{row['oracle_calls']:7} {row['constructed']:7} {row['distinct']:8} "
                  f"{row['tree']:8}" + (f"  FAULT: {fault}" if fault else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
