"""Bi-intuitionistic sequent engine.

Sequents carry assumptions and counterassumptions and derive either the
verification (``|-+``) or falsification (``|--``) of their succedent, over a
propositional language with co-implication.  The package provides the rule
table and proof checker (`bint.kernel`), executable structural
transformations up to cut elimination (`bint.transform`), a decision
procedure for derivability (`bint.decide`), proof construction (`bint.search`), the
golden corpus (`bint.corpus`), and a CLI (`bint.cli`).
"""

from .syntax import (
    Atom, And, Bottom, Coimp, Formula, Imp, Or, Top, BOT, TOP,
    FormulaSyntaxError, format_formula, parse_formula, weight,
)
from .kernel import (
    Annotation, Context, ContextSplit, Derivation, Polarity, RuleId, Sequent, Side,
    PLUS, MINUS, backward_expansions, check_derivation, check_rule_instance,
    cut_height, dual_derivation, dual_formula, dual_sequent, format_sequent,
    node, parse_sequent,
)
from .transform import (
    CutTrace, SpecialWeakening, TransformError, contract, derive_identity,
    eliminate_cut, invert, unweaken_special, weaken, weaken_context,
)
from .decide import derivable
from .search import Proved, Refuted, SearchOutcome, prove

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
