"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bint import kernel, search, serialize, syntax
from perfbench import gen, run as bench, spans, speed, workloads as wl

ROOT = Path(__file__).resolve().parents[2]


def _outcome(op, tracer=None) -> bench.Run:
    r = bench.Run()
    r.add(*bench.attempt(op, tracer))
    return r


# --- inputs --------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_same_inputs(name):
    make = wl.WORKLOADS[name].make_pass
    first, again = make(7, 1)[2], make(7, 1)[2]
    assert first == again
    assert gen.digest(first) == gen.digest(again)


@pytest.mark.parametrize("name", ["prove", "replay", "cut-chain"])
def test_other_seed_other_inputs(name):
    make = wl.WORKLOADS[name].make_pass
    assert gen.digest(make(7, 0)[2]) != gen.digest(make(8, 0)[2])


def test_prove_set_is_closed_under_duality():
    queries = gen.prove_set(3, 0, 40)
    texts = {q.text for q in queries}
    assert {q.dual_text for q in queries} == texts
    for q in queries:
        dual = kernel.dual_sequent(kernel.parse_sequent(q.text))
        assert kernel.format_sequent(dual) == q.dual_text


def test_text_model_matches_the_engine():
    rng = random.Random(5)
    for _ in range(500):
        f = gen.random_formula(rng, rng.randint(1, 7), ("p", "q", "r"))
        parsed = syntax.parse_formula(gen.fmt(f))
        assert syntax.format_formula(parsed) == gen.fmt(f)
        assert syntax.format_formula(kernel.dual_formula(parsed)) == gen.fmt(gen.dual(f))
    for q in gen.prove_set(4, 0, 60):
        assert kernel.format_sequent(kernel.parse_sequent(q.text)) == q.text


def test_generated_derivations_are_valid_canonical_and_dualize_like_the_engine():
    rng = random.Random(11)
    trees = [gen.random_tree(rng, rng.randint(1, 14)) for _ in range(150)]
    trees.append(gen.horn_chain_proof([f"a{i}" for i in range(6)]))
    for t in trees:
        d = serialize.loads_derivation(gen.dumps(t))
        report = kernel.check_derivation(d)
        assert report.valid and report.cut_count == 0, report
        assert serialize.dumps_derivation(d) == gen.dumps(t)
        assert serialize.dumps_derivation(kernel.dual_derivation(d)) == gen.dumps(gen.dual_tree(t))


def test_cut_pairs_are_valid_inputs():
    rng = random.Random(2)
    small = [p for p in gen.chain_set(0, 0) if p.tag in ("L4a", "L4c", "L10a", "L10c")]
    pairs = small[:8] + [gen.random_cut_pair(rng, v) for v in ("CutA", "CutC") for _ in range(20)]
    for p in pairs:
        assert _outcome(wl.Op("cut", lambda p=p: wl._eliminate(p))).failed == 0, p.tag
    # every CutC pair is the engine's dual of a CutA pair
    pairs = gen.chain_set(0, 0)
    duals = set()
    for p in pairs:
        if p.variant == "CutA":
            duals.add(tuple(serialize.dumps_derivation(kernel.dual_derivation(
                serialize.loads_derivation(t))) for t in (p.left, p.right)))
    assert {(p.left, p.right) for p in pairs if p.variant == "CutC"} <= duals


# --- wrong outputs are counted ----------------------------------------------------------

def _horn_query() -> gen.Query:
    s = gen.horn_chain(4, True)
    return gen.Query(gen.fmt_seq(s), gen.fmt_seq(gen.dual_seq(s)), "proved")


def test_a_flipped_verdict_is_a_wrong_output(monkeypatch):
    monkeypatch.setattr(wl, "prove", lambda s: search.Refuted())
    r = _outcome(wl.Op("prove", lambda: wl._prove(_horn_query(), wl.Verdicts([]))))
    assert (r.wrong, r.failed, r.latencies) == (1, 1, [])


def test_a_proof_of_another_sequent_is_a_wrong_output(monkeypatch):
    other = search.prove(kernel.parse_sequent("p ; |-+ p")).derivation
    monkeypatch.setattr(wl, "prove", lambda s: search.Proved(other))
    r = _outcome(wl.Op("prove", lambda: wl._prove(_horn_query(), wl.Verdicts([]))))
    assert (r.wrong, r.failed) == (1, 1)


def test_dual_verdicts_that_differ_are_counted():
    q = _horn_query()
    v = wl.Verdicts([(q.text, q.dual_text), (q.dual_text, q.text)])
    v.by_text = {q.text: "proved", q.dual_text: "refuted"}
    assert v.mismatches() == 2
    v.by_text[q.dual_text] = "proved"
    assert v.mismatches() == 0


def test_a_mutated_elimination_result_is_a_wrong_output(monkeypatch):
    pair = gen.chain_set(0, 0)[0]
    monkeypatch.setattr(wl, "eliminate_cut", lambda left, right, f, v: right)
    r = _outcome(wl.Op("cut-chain", lambda: wl._eliminate(pair)))
    assert (r.wrong, r.failed) == (1, 1)


def test_a_dump_that_is_not_bit_exact_is_a_wrong_output(monkeypatch):
    item = gen.replay_item(random.Random(0))
    monkeypatch.setattr(wl, "dumps_derivation", lambda d: serialize.dumps_derivation(d) + " ")
    r = _outcome(wl.Op("derivation", lambda: wl._replay(item)))
    assert (r.wrong, r.failed) == (1, 1)


def test_an_engine_crash_is_a_wrong_output(monkeypatch):
    def crash(*args):
        raise KeyError("boom")
    monkeypatch.setattr(wl, "check_derivation", crash)
    item = gen.replay_item(random.Random(0))
    r = _outcome(wl.Op("derivation", lambda: wl._replay(item)))
    assert (r.wrong, r.failed) == (1, 1)


# --- failures are counted, not skipped ------------------------------------------------

def test_a_query_over_its_budget_is_a_failed_operation(monkeypatch):
    monkeypatch.setattr(wl, "PROVE_EXPANSIONS", 3)
    original = search.backward_expansions
    q = gen.Query(gen.fmt_seq(gen.REPRODUCER), gen.fmt_seq(gen.dual_seq(gen.REPRODUCER)), None)
    r = _outcome(wl.Op("prove", lambda: wl._prove(q, wl.Verdicts([]))))
    assert (r.over_budget, r.failed, r.attempted, r.wrong, r.latencies) == (1, 1, 1, 0, [])
    assert search.backward_expansions is original


def test_the_budget_counts_expansions_not_time():
    q = _horn_query()
    calls = []
    original = search.backward_expansions
    search.backward_expansions = lambda s: calls.append(s) or original(s)
    try:
        assert _outcome(wl.Op("prove", lambda: wl._prove(q, wl.Verdicts([])))).failed == 0
        needed = len(calls)
        wl.PROVE_EXPANSIONS, saved = needed - 1, wl.PROVE_EXPANSIONS
        try:
            assert _outcome(wl.Op("prove", lambda: wl._prove(q, wl.Verdicts([])))).over_budget == 1
        finally:
            wl.PROVE_EXPANSIONS = saved
    finally:
        search.backward_expansions = original


def test_a_recursion_error_is_a_failed_operation(monkeypatch):
    def overflow(d):
        raise RecursionError("maximum recursion depth exceeded")
    monkeypatch.setattr(wl, "check_derivation", overflow)
    r = _outcome(wl.Op("tower", lambda: wl._tower(10)))
    assert (r.recursion_errors, r.failed, r.attempted, r.wrong) == (1, 1, 1, 0)
    item = gen.replay_item(random.Random(0))
    r = _outcome(wl.Op("derivation", lambda: wl._replay(item)))
    assert (r.recursion_errors, r.failed, r.wrong) == (1, 1, 0)


# --- tracing ---------------------------------------------------------------------------

def test_tracing_records_layers_and_restores_the_engine():
    before = {(m.__name__, a): getattr(m, a) for m, a, *_ in spans._PATCHES}
    assert len(before) == len(spans._PATCHES)
    tracer = spans.Tracer()
    saved = spans.install(tracer)
    try:
        ops, _, _ = wl.replay_pass(1, 0)
        r = bench.Run()
        for op in ops[:40]:
            r.add(*bench.attempt(op, tracer))
        pair = gen.chain_set(1, 0)[6]
        r.add(*bench.attempt(wl.Op("cut-chain", lambda: wl._eliminate(pair)), tracer))
    finally:
        spans.uninstall(saved)
    assert {(m.__name__, a): getattr(m, a) for m, a, *_ in spans._PATCHES} == before
    calls, total, self_s, check_in_elim = tracer.totals()
    assert calls["serialize.loads"] and calls["kernel.check"] and calls["transform.elim"]
    assert 0 < check_in_elim < total["transform.elim"]
    assert tracer.counts["transform.elim_steps"] > 0
    for name in calls:
        assert self_s[name] <= total[name] + 1e-9


def test_reported_metrics_match_the_benchmark_definition():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    r = bench.Run()
    r.latencies, r.busy, r.attempted = [0.001] * 20, 0.02, 20
    e2e, _ = bench.end_to_end(r, 0.5, 90)
    assert sorted(e2e) == sorted(m["name"] for m in spec["end_to_end"])
    assert {k: v["unit"] for k, v in e2e.items()} == {m["name"]: m["unit"]
                                                      for m in spec["end_to_end"]}
    layers = bench.per_layer(r, spans.Tracer(), 1.0)
    assert sorted(layers) == sorted(m["name"] for m in spec["per_layer"])
    assert {k: v["unit"] for k, v in layers.items()} == {m["name"]: m["unit"]
                                                         for m in spec["per_layer"]}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(wl.WORKLOADS)


def test_refuses_to_run_without_the_engine_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "prove",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_traced_recursion_errors_count_against_the_called_layer(monkeypatch):
    def overflow(*args):
        raise RecursionError("maximum recursion depth exceeded")
    monkeypatch.setattr(wl, "dumps_derivation", overflow)
    monkeypatch.setattr(wl, "weaken", overflow)
    tracer = spans.Tracer()
    saved = spans.install(tracer)
    try:
        r = _outcome(wl.Op("tower", lambda: wl._tower(5)), tracer)
    finally:
        spans.uninstall(saved)
    assert (r.recursion_errors, r.failed) == (2, 1)
    assert tracer.origins == {"serialize": 1, "transform": 1}


# --- timing ------------------------------------------------------------------------------

def test_times_are_scaled_by_the_calibration_around_them():
    clock = speed.Speed()
    clock.at = [0.0, 0.01, 0.02, 1.0, 1.01]
    clock.took = [2e-3, 2e-3, 2e-3, 1e-3, 1e-3]
    assert clock.scale(0.005, 0.015) == pytest.approx(speed.REFERENCE_S / 2e-3)
    assert clock.scale(1.0, 1.001) == pytest.approx(speed.REFERENCE_S / 1e-3)
    # a long interval looks as far around it as it lasts
    assert clock.scale(0.4, 0.9) == pytest.approx(speed.REFERENCE_S / 2e-3)


def test_a_run_makes_a_fixed_amount_of_work_and_counts_each_operation_once():
    def make_pass(seed, index):
        ops = [wl.Op("ok", lambda: None), wl.Op("crash", lambda: 1 / 0)]
        return ops, None, [f"{seed}/{index}"]
    work = wl.Workload(make_pass, 1.0, 50)
    runs = [bench.measure(work, 3, 4, clock=speed.Speed()) for _ in range(2)]
    for r in runs:
        assert (r.passes, r.attempted, r.failed, r.wrong, len(r.latencies)) == (4, 8, 4, 4, 4)
    assert runs[0].digests == runs[1].digests
