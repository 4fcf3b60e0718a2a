"""The benchmark's traced run (``perfbench/spans.py``) replaces engine names
at run time with span-recording wrappers, so those names must exist and be
the ones the engine calls."""

from bint.serialize import dumps_derivation, loads_derivation
from bint.transform import derive_identity
from bint.kernel import PLUS, Context
from bint.syntax import parse_formula
from perfbench import spans


def test_every_traced_name_exists_on_the_engine():
    missing = [f"{module.__name__}.{attr}"
               for module, attr, *_ in spans._PATCHES if not hasattr(module, attr)]
    assert not missing


def test_serialize_reaches_the_syntax_layer_through_the_traced_names():
    d = derive_identity(Context(), Context(), parse_formula("p /\\ q -> r"), PLUS)
    text = dumps_derivation(d)
    tracer = spans.Tracer()
    saved = spans.install(tracer)
    try:
        assert dumps_derivation(loads_derivation(text)) == text
    finally:
        spans.uninstall(saved)
    calls = tracer.totals()[0]
    assert calls["syntax.parse"] > 0 and calls["syntax.format"] > 0
