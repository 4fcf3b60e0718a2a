"""The small members of the intuitionistic benchmark families of
``scripts/families.py``: known verdicts, checked proofs, and the cost of
building them."""

import pytest

import reference_checker as reference
from bint.kernel import dual_sequent, parse_sequent
from bint.search import Proved, prove
from scripts import families
from scripts.families import counted_prove, de_bruijn, equivalence, pigeonhole, sizes

SMALL = ([pytest.param(de_bruijn(n), True, id=f"de-bruijn-{n}") for n in (1, 2, 3)]
         + [pytest.param(de_bruijn(n, False), False, id=f"de-bruijn-{n}-2n-atoms")
            for n in (1, 2, 3)]
         + [pytest.param(pigeonhole(n, k), k > n, id=f"pigeonhole-{n}-k{k}")
            for n in (1, 2, 3) for k in (n + 1, n)]
         + [pytest.param(equivalence(n), True, id=f"equivalence-{n}") for n in range(1, 7)])


@pytest.mark.parametrize("text, derivable", SMALL)
def test_small_members_and_their_duals_get_the_known_verdict(text, derivable):
    s = parse_sequent(text)
    for x in (s, dual_sequent(s)):
        out = prove(x)
        assert isinstance(out, Proved) == derivable, x
        if derivable:
            d = out.derivation
            assert d.valid and d.cut_count == 0 and d.conclusion == x
            assert reference.valid(d)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_prove_builds_a_de_bruijn_proof_node_about_once(monkeypatch, n):
    # constructions are counted in ``Derivation.__init__``: a subproof rebuilt
    # at each level above it makes their ratio to the proof's nodes grow with n
    s = parse_sequent(de_bruijn(n))
    for x in (s, dual_sequent(s)):
        with monkeypatch.context() as patch:
            out, _, constructed = counted_prove(x, patch.setattr)
        distinct, _ = sizes(out.derivation)
        assert constructed <= 2 * distinct, (x, constructed, distinct)


def test_the_script_finds_no_fault_on_the_small_ladder(capsys):
    assert families.main(["--ladder", "small"]) == 0
    assert "FAULT" not in capsys.readouterr().out
