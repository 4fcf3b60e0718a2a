"""Bi-intuitionistic sequent engine.

Sequents carry assumptions and counterassumptions and derive either the
verification (``|-+``) or falsification (``|--``) of their succedent, over a
propositional language with co-implication.  The package provides the rule
table and proof checker (`bint.kernel`), executable structural
transformations up to cut elimination (`bint.transform`), a decision
procedure for derivability (`bint.decide`), proof construction (`bint.search`), the
golden corpus (`bint.corpus`), and a CLI (`bint.cli`).
"""
