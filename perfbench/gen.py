"""Seeded workload inputs, written as text by the benchmark's own code.

Nothing here imports ``bint``: the inputs of a run depend only on the seed and
on this file, so a change to the engine (its random generators, its identity
construction, its test fixtures) cannot change what both sides of a comparison
are measured on.  The model below reproduces the engine's documented text
formats: formula and sequent syntax with minimal parentheses, multisets in the
canonical structural order, and canonical derivation JSON (sorted keys, two
space indent, trailing newline).

Formulas: an atom is a ``str``; ``BOT`` and ``TOP`` are constants; a compound
is ``(op, left, right)`` with ``op`` one of ``AND``, ``OR``, ``IMP``, ``COIMP``
(``COIMP, a, b`` is the text ``a -< b``).
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import NamedTuple, Optional

BOT = ("F",)
TOP = ("T",)
AND, OR, IMP, COIMP = "/\\", "\\/", "->", "-<"
_PREC = {AND: 3, OR: 2, IMP: 1, COIMP: 1}
_ORDER = {AND: 3, OR: 4, IMP: 5, COIMP: 6}


def is_compound(f) -> bool:
    return isinstance(f, tuple) and len(f) == 3


def sort_key(f) -> tuple:
    """The engine's canonical multiset order: F, T, atoms by name, then
    conjunction, disjunction, implication, co-implication, each by operands."""
    if f == BOT:
        return (0,)
    if f == TOP:
        return (1,)
    if isinstance(f, str):
        return (2, f)
    return (_ORDER[f[0]], sort_key(f[1]), sort_key(f[2]))


def fmt(f) -> str:
    """Minimal-parenthesis text: right-associative, ``->``/``-<`` never chain."""
    if isinstance(f, str):
        return f
    if f == BOT:
        return "F"
    if f == TOP:
        return "T"
    op, left, right = f
    prec = _PREC[op]
    left_txt = fmt(left)
    if is_compound(left) and _PREC[left[0]] <= prec:
        left_txt = f"({left_txt})"
    right_txt = fmt(right)
    if is_compound(right):
        rp = _PREC[right[0]]
        if rp < prec or (rp == prec and right[0] != op):
            right_txt = f"({right_txt})"
    return f"{left_txt} {op} {right_txt}"


def dual(f):
    """Swap F/T, conjunction/disjunction, and A -> B with B' -< A'."""
    if isinstance(f, str):
        return f
    if f == BOT:
        return TOP
    if f == TOP:
        return BOT
    op, left, right = f
    if op == AND:
        return (OR, dual(left), dual(right))
    if op == OR:
        return (AND, dual(left), dual(right))
    if op == IMP:
        return (COIMP, dual(right), dual(left))
    return (IMP, dual(right), dual(left))


class Seq(NamedTuple):
    """A sequent; ``gamma``/``delta`` are tuples in canonical order."""

    gamma: tuple
    delta: tuple
    pol: str          # "+" or "-"
    succ: object


def seq(gamma, delta, pol: str, succ) -> Seq:
    return Seq(tuple(sorted(gamma, key=sort_key)), tuple(sorted(delta, key=sort_key)),
               pol, succ)


def fmt_seq(s: Seq) -> str:
    g = ", ".join(fmt(f) for f in s.gamma)
    d = ", ".join(fmt(f) for f in s.delta)
    left = f"{g} ;" if g else ";"
    if d:
        left = f"{left} {d}"
    return f"{left} |-{s.pol} {fmt(s.succ)}"


def _flip(pol: str) -> str:
    return "-" if pol == "+" else "+"


def dual_seq(s: Seq) -> Seq:
    return seq([dual(f) for f in s.delta], [dual(f) for f in s.gamma], _flip(s.pol),
               dual(s.succ))


def add(ctx: tuple, *fs) -> tuple:
    return tuple(sorted(ctx + fs, key=sort_key))


def remove(ctx: tuple, *fs) -> tuple:
    """Drop one occurrence of each of ``fs``."""
    for f in fs:
        i = ctx.index(f)
        ctx = ctx[:i] + ctx[i + 1:]
    return ctx


# --- derivations -----------------------------------------------------------------

class Node(NamedTuple):
    rule: str
    concl: Seq
    premises: tuple = ()
    principal: object = None   # set on left-rule nodes, as the engine does


DUAL_RULE = {
    "RfPlus": "RfMinus", "BotLa": "TopLc", "BotRMinus": "TopRPlus",
    "AndRPlus": "OrRMinus", "AndRMinus1": "OrRPlus1", "AndRMinus2": "OrRPlus2",
    "AndLa": "OrLc", "AndLc": "OrLa", "ImpRPlus": "CoimpRMinus",
    "ImpRMinus": "CoimpRPlus", "ImpLa": "CoimpLc", "ImpLc": "CoimpLa",
}
DUAL_RULE.update({v: k for k, v in DUAL_RULE.items()})
# mixed-polarity right rules list their premises in the opposite order
_SWAPS_PREMISES = frozenset(("ImpRMinus", "CoimpRPlus"))


def postorder(root: Node) -> list:
    """Every node, children before parents, without recursion."""
    out, stack = [], [(root, False)]
    while stack:
        n, expanded = stack.pop()
        if expanded:
            out.append(n)
        else:
            stack.append((n, True))
            stack.extend((p, False) for p in reversed(n.premises))
    return out


def map_tree(root: Node, fn) -> Node:
    """Rebuild bottom-up: ``fn(node, new_premises)`` returns the new node."""
    done: dict[int, Node] = {}
    for n in postorder(root):
        done[id(n)] = fn(n, tuple(done[id(p)] for p in n.premises))
    return done[id(root)]


def dual_tree(root: Node) -> Node:
    def step(n: Node, premises: tuple) -> Node:
        if n.rule in _SWAPS_PREMISES:
            premises = premises[::-1]
        principal = None if n.principal is None else dual(n.principal)
        return Node(DUAL_RULE[n.rule], dual_seq(n.concl), premises, principal)
    return map_tree(root, step)


def weaken_tree(root: Node, gamma=(), delta=()) -> Node:
    """Add formulas to every sequent of the tree (height-preserving weakening)."""
    def step(n: Node, premises: tuple) -> Node:
        s = n.concl
        return n._replace(concl=Seq(add(s.gamma, *gamma), add(s.delta, *delta), s.pol,
                                    s.succ), premises=premises)
    return map_tree(root, step)


def dumps(root: Node) -> str:
    """Canonical derivation JSON, byte-identical to ``json.dumps(data,
    indent=2, sort_keys=True) + "\\n"`` but built without recursion, so towers
    past the interpreter's recursion limit can be written."""
    out: list[str] = []
    stack: list = [(root, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        n, level = item
        pad1, pad2 = "  " * (level + 1), "  " * (level + 2)
        head = "{\n"
        if n.principal is not None:
            head += (f'{pad1}"annotation": {{\n{pad2}"principal": {json.dumps(fmt(n.principal))}'
                     f'\n{pad1}}},\n')
        head += f'{pad1}"conclusion": {json.dumps(fmt_seq(n.concl))},\n'
        tail = f'{pad1}"rule": {json.dumps(n.rule)}\n{"  " * level}}}'
        if not n.premises:
            stack.append(head + f'{pad1}"premises": [],\n' + tail)
            continue
        pieces: list = [head + f'{pad1}"premises": [\n']
        for i, p in enumerate(n.premises):
            pieces.append(pad2)
            pieces.append((p, level + 2))
            pieces.append(",\n" if i + 1 < len(n.premises) else "\n")
        pieces.append(f"{pad1}],\n" + tail)
        stack.extend(reversed(pieces))
    return "".join(out) + "\n"


# --- prove workload ----------------------------------------------------------------

PROVE_ATOMS = ("p", "q", "r")

#: the search heavy-tail reproducer (ROADMAP item 2): on the seed engine it
#: has no verdict within any per-query limit the benchmark uses
REPRODUCER = seq([(OR, "r", (OR, TOP, "q")), (IMP, (OR, "q", BOT), "q")],
                 [(AND, (AND, TOP, "q"), "q"), (COIMP, (COIMP, "q", "p"), (AND, TOP, "p"))],
                 "-", (AND, (OR, (OR, TOP, "q"), (COIMP, TOP, "r")), BOT))
HORN_PROVABLE = range(4, 17)
HORN_UNPROVABLE = range(3, 7)


def random_formula(rng: random.Random, leaves: int, atoms=PROVE_ATOMS):
    if leaves == 1:
        roll = rng.random()
        if roll < 0.1:
            return BOT
        if roll < 0.2:
            return TOP
        return rng.choice(atoms)
    split = rng.randrange(1, leaves)
    return (rng.choice((AND, OR, IMP, COIMP)), random_formula(rng, split, atoms),
            random_formula(rng, leaves - split, atoms))


#: (formulas in gamma, formulas in delta, polarity) of random prove queries,
#: taken in turn: every pass has the same mix of shapes, and only the formulas
#: are random, which keeps the share of hard queries steady from seed to seed
PROVE_SHAPES = tuple((g, d, pol) for pol in "+-" for g in range(4) for d in range(4))


def random_sequent(rng: random.Random, shape: tuple) -> Seq:
    """3 atoms, at most 3 formulas per side, at most 4 leaves per formula."""
    def f():
        return random_formula(rng, rng.randint(1, 4))
    n_gamma, n_delta, pol = shape
    gamma = [f() for _ in range(n_gamma)]
    delta = [f() for _ in range(n_delta)]
    return seq(gamma, delta, pol, f())


def horn_chain(length: int, with_start: bool) -> Seq:
    """``a0, a0 -> a1, ..., a(L-1) -> aL ; |-+ aL``; provable iff ``a0`` is there."""
    links = [(IMP, f"a{i}", f"a{i + 1}") for i in range(length)]
    return seq(links + (["a0"] if with_start else []), [], "+", f"a{length}")


class Query(NamedTuple):
    text: str
    dual_text: str     # the text of this query's dual; also in the set
    expect: Optional[str]   # "proved" / "refuted" when known by construction


def prove_set(seed: int, index: int, n_random: int) -> list[Query]:
    """Pass ``index``: ``n_random`` fresh random sequents, the Horn-chain
    ladder and the reproducer, each with its dual, so the set is closed under
    duality."""
    rng = random.Random(f"prove/{seed}/{index}")
    base: list[tuple[Seq, Optional[str]]] = [
        (random_sequent(rng, PROVE_SHAPES[i % len(PROVE_SHAPES)]), None)
        for i in range(n_random)]
    base += [(horn_chain(n, True), "proved") for n in HORN_PROVABLE]
    base += [(horn_chain(n, False), "refuted") for n in HORN_UNPROVABLE]
    base.append((REPRODUCER, None))
    out = []
    for s, expect in base:
        text, dual_text = fmt_seq(s), fmt_seq(dual_seq(s))
        out += [Query(text, dual_text, expect), Query(dual_text, text, expect)]
    return out


def digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


# --- cut-chain workload ------------------------------------------------------------

#: (right-premise height, CutA/CutC pairs per pass).  Cost grows with the
#: cube of the height on the seed engine, which re-checks the whole growing
#: tree after every rewrite step.  Every height up to 30 gives a continuous
#: spread of costs, so the median and the tail percentile move smoothly
#: rather than jumping between clusters; two pairs a height up to 20 put more
#: operations around the median; 40 and 50 are the tall end.  Height 100 (5 s
#: an elimination on the seed engine) would leave one pass in a run.
CHAIN_LADDER = (tuple((n, 2 if n <= 20 else 1) for n in range(2, 31))
                + ((40, 1), (50, 1)))
#: the cut formula's connective cycles with the height, so that every seed
#: puts the same connective at the same height and only names differ
_CHAIN_OPS = (AND, OR, IMP, COIMP)
_NAMES = "bcdeghjkmnsuvwz"


class CutPair(NamedTuple):
    left: str             # canonical derivation JSON
    right: str
    cut_formula: str
    variant: str          # "CutA" or "CutC"
    endsequent: str       # the text the eliminated derivation must conclude
    tag: str


def _left_premise(op: str, x: str, y: str) -> Node:
    """A cut-free derivation of ``... |-+ D`` for the compound ``D = x op y``."""
    d = (op, x, y)
    if op == AND:
        return Node("AndRPlus", seq([x, y], [], "+", d),
                    (Node("RfPlus", seq([x, y], [], "+", x)),
                     Node("RfPlus", seq([x, y], [], "+", y))))
    if op == OR:
        return Node("OrRPlus1", seq([x], [], "+", d), (Node("RfPlus", seq([x], [], "+", x)),))
    if op == IMP:
        return Node("ImpRPlus", seq([y], [], "+", d), (Node("RfPlus", seq([x, y], [], "+", y)),))
    return Node("CoimpRPlus", seq([x], [y], "+", d),
                (Node("RfPlus", seq([x], [y], "+", x)), Node("RfMinus", seq([x], [y], "-", y))))


def horn_chain_proof(atoms: list, extra=()) -> Node:
    """``a0, a0 -> a1, ... ; |-+ aL`` by ImpLa steps whose left premises form
    the tall branch; every sequent carries all ``L + 1`` assumptions."""
    links = [(IMP, lo, hi) for lo, hi in zip(atoms, atoms[1:])]
    gamma = tuple(sorted(links + [atoms[0], *extra], key=sort_key))
    d = Node("RfPlus", Seq(gamma, (), "+", atoms[0]))
    for link in links:
        hi = link[2]
        closing = Node("RfPlus", Seq(add(remove(gamma, link), hi), (), "+", hi))
        d = Node("ImpLa", Seq(gamma, (), "+", hi), (d, closing), link)
    return d


def _cut_endsequent(left: Seq, right: Seq, d, variant: str) -> Seq:
    if variant == "CutA":
        return seq(left.gamma + remove(right.gamma, d), left.delta + right.delta,
                   right.pol, right.succ)
    return seq(left.gamma + right.gamma, left.delta + remove(right.delta, d),
               right.pol, right.succ)


def _pair(left: Node, right: Node, d, variant: str, tag: str) -> CutPair:
    return CutPair(dumps(left), dumps(right), fmt(d), variant,
                   fmt_seq(_cut_endsequent(left.concl, right.concl, d, variant)), tag)


def chain_set(seed: int, index: int) -> list[CutPair]:
    """Pass ``index`` of the tall-chain family, shuffled: CutA pairs whose
    compound cut formula sits unused in every sequent of a Horn-chain right
    premise, each with its dual, a CutC pair."""
    rng = random.Random(f"cut-chain/{seed}/{index}")
    out = []
    for length, count in CHAIN_LADDER:
        for _ in range(count):
            prefix, x, y = rng.sample(_NAMES, 3)
            op = _CHAIN_OPS[length % len(_CHAIN_OPS)]
            left = _left_premise(op, x, y)
            d = left.concl.succ
            right = horn_chain_proof([f"{prefix}{i}" for i in range(length + 1)], extra=[d])
            out.append(_pair(left, right, d, "CutA", f"L{length}a"))
            out.append(_pair(dual_tree(left), dual_tree(right), dual(d), "CutC", f"L{length}c"))
    rng.shuffle(out)
    return out


# --- replay workload -------------------------------------------------------------

REPLAY_ATOMS = ("p", "q", "r", "s")


def _axiom(rng: random.Random) -> Node:
    """A random zero-premise node with random side formulas."""
    def extras():
        return [random_formula(rng, rng.randint(1, 3), REPLAY_ATOMS)
                for _ in range(rng.randrange(3))]
    g, d = extras(), extras()
    a = rng.choice(REPLAY_ATOMS)
    kind = rng.randrange(6)
    if kind == 0:
        return Node("RfPlus", seq(g + [a], d, "+", a))
    if kind == 1:
        return Node("RfMinus", seq(g, d + [a], "-", a))
    succ = random_formula(rng, rng.randint(1, 3), REPLAY_ATOMS)
    pol = rng.choice("+-")
    if kind == 2:
        return Node("BotLa", seq(g + [BOT], d, pol, succ))
    if kind == 3:
        return Node("TopLc", seq(g, d + [TOP], pol, succ))
    if kind == 4:
        return Node("TopRPlus", seq(g, d, "+", TOP))
    return Node("BotRMinus", seq(g, d, "-", BOT))


def _closer(rng: random.Random, gamma: tuple, delta: tuple, pol: str) -> Node:
    """A zero-premise derivation of ``gamma ; delta |-pol x`` for some x."""
    atoms = [f for f in (gamma if pol == "+" else delta) if isinstance(f, str)]
    if atoms and rng.random() < 0.7:
        x = rng.choice(atoms)
        return Node("RfPlus" if pol == "+" else "RfMinus", Seq(gamma, delta, pol, x))
    if pol == "+":
        return Node("TopRPlus", Seq(gamma, delta, "+", TOP))
    return Node("BotRMinus", Seq(gamma, delta, "-", BOT))


def _extend(d: Node, rng: random.Random) -> Optional[Node]:
    """Apply one random rule forward below ``d``, or None when it does not fit."""
    g, dl, pol, c = d.concl
    move = rng.randrange(11)
    if move == 0 and len(g) >= 2:
        a, b = rng.sample(g, 2)
        f = (AND, a, b)
        return Node("AndLa", Seq(add(remove(g, a, b), f), dl, pol, c), (d,), f)
    if move == 1 and len(dl) >= 2:
        a, b = rng.sample(dl, 2)
        f = (OR, a, b)
        return Node("OrLc", Seq(g, add(remove(dl, a, b), f), pol, c), (d,), f)
    if move == 2 and g and dl:
        a, b = rng.choice(g), rng.choice(dl)
        f = (IMP, a, b)
        return Node("ImpLc", Seq(remove(g, a), add(remove(dl, b), f), pol, c), (d,), f)
    if move == 3 and g and dl:
        a, b = rng.choice(g), rng.choice(dl)
        f = (COIMP, a, b)
        return Node("CoimpLa", Seq(add(remove(g, a), f), remove(dl, b), pol, c), (d,), f)
    if move == 4 and pol == "+" and g:
        a = rng.choice(g)
        return Node("ImpRPlus", Seq(remove(g, a), dl, "+", (IMP, a, c)), (d,))
    if move == 5 and pol == "-" and dl:
        b = rng.choice(dl)
        return Node("CoimpRMinus", Seq(g, remove(dl, b), "-", (COIMP, c, b)), (d,))
    if move == 6:
        x = random_formula(rng, rng.randint(1, 2), REPLAY_ATOMS)
        if pol == "-":
            rule, succ = rng.choice((("AndRMinus1", (AND, c, x)), ("AndRMinus2", (AND, x, c))))
        else:
            rule, succ = rng.choice((("OrRPlus1", (OR, c, x)), ("OrRPlus2", (OR, x, c))))
        return Node(rule, Seq(g, dl, pol, succ), (d,))
    if move == 7:
        sib = _closer(rng, g, dl, pol)
        if pol == "+":
            return Node("AndRPlus", Seq(g, dl, "+", (AND, c, sib.concl.succ)), (d, sib))
        return Node("OrRMinus", Seq(g, dl, "-", (OR, c, sib.concl.succ)), (d, sib))
    if move == 8:
        sib = _closer(rng, g, dl, "-" if pol == "+" else "+")
        if pol == "+":
            return Node("CoimpRPlus", Seq(g, dl, "+", (COIMP, c, sib.concl.succ)), (d, sib))
        return Node("ImpRMinus", Seq(g, dl, "-", (IMP, sib.concl.succ, c)), (sib, d))
    if move == 9 and g:
        # ImpLa: the principal a -> b stays in the left premise's context
        b = rng.choice(g)
        rest = remove(g, b)
        a = rng.choice([f for f in rest if isinstance(f, str)] or [TOP])
        f = (IMP, a, b)
        new_g = add(rest, f)
        sib = (Node("RfPlus", Seq(new_g, dl, "+", a)) if a != TOP
               else Node("TopRPlus", Seq(new_g, dl, "+", TOP)))
        return Node("ImpLa", Seq(new_g, dl, pol, c), (sib, d), f)
    if move == 10 and dl:
        a = rng.choice(dl)
        rest = remove(dl, a)
        b = rng.choice([f for f in rest if isinstance(f, str)] or [BOT])
        f = (COIMP, a, b)
        new_d = add(rest, f)
        sib = (Node("RfMinus", Seq(g, new_d, "-", b)) if b != BOT
               else Node("BotRMinus", Seq(g, new_d, "-", BOT)))
        return Node("CoimpLc", Seq(g, new_d, pol, c), (sib, d), f)
    return None


def random_tree(rng: random.Random, attempts: int) -> Node:
    """A random valid cut-free derivation built forward from an axiom."""
    d = _axiom(rng)
    for _ in range(attempts):
        d = _extend(d, rng) or d
    return d


class Replay(NamedTuple):
    text: str             # canonical derivation JSON
    weaken_side: str      # "a" or "c"
    weaken_formula: str
    weakened: str         # endsequent after weakening by that formula
    contracts: bool       # the formula was already there, so contraction undoes it
    conclusion: str


def replay_item(rng: random.Random) -> Replay:
    d = random_tree(rng, rng.randint(4, 14))
    s = d.concl
    side = rng.choice("ac")
    ctx = s.gamma if side == "a" else s.delta
    if ctx and rng.random() < 0.7:
        f, contracts = rng.choice(ctx), True
    else:
        f, contracts = random_formula(rng, rng.randint(1, 3), REPLAY_ATOMS), False
    w = Seq(add(s.gamma, f), s.delta, s.pol, s.succ) if side == "a" else \
        Seq(s.gamma, add(s.delta, f), s.pol, s.succ)
    return Replay(dumps(d), side, fmt(f), fmt_seq(w), contracts, fmt_seq(s))


def random_cut_pair(rng: random.Random, variant: str) -> CutPair:
    want = "+" if variant == "CutA" else "-"
    left = random_tree(rng, rng.randint(2, 8))
    while left.concl.pol != want:
        left = random_tree(rng, rng.randint(2, 8))
    d = left.concl.succ
    right = random_tree(rng, rng.randint(2, 8))
    right = weaken_tree(right, gamma=[d]) if variant == "CutA" else weaken_tree(right, delta=[d])
    return _pair(left, right, d, variant, "random")


#: tower heights; the seed engine's recursive walks fail from about 500
#: (serialize, dual, weaken) and about 1000 (checker)
TOWER_LADDER = (150, 300, 600, 1200)
TOWER_TOP = "p, p -> p ; |-+ p"
TOWER_CLOSER = "p, p ; |-+ p"
