#!/usr/bin/env python3
"""Run one benchmark workload against the engine under ``src/``.

    python3 perfbench/run.py --workload prove --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The run generates as many passes of inputs
from the seed as the workload fits in ``--seconds``, runs their operations
one at a time, times each, scaled to a reference machine speed, and checks
every output.  Self-tests:
``python3 -m pytest perfbench/tests``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the run
records spans around every call between layers and reports per-layer metrics
instead, and writes the spans to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
#: fresh interpreters timed for setup_s, spread evenly over the passes
SETUP_PROBES = 9
#: seconds of one pass's opening operations timed with and without tracing
OVERHEAD_PROBE_S = 1.0
SRC_MODULES = ("syntax", "kernel", "transform", "search", "serialize", "corpus", "cli")


def _use_checkout_engine() -> None:
    """Import ``bint`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "bint" / "__init__.py").is_file():
        sys.exit(f"perfbench: no engine source under {SRC}")
    sys.path[0:1] = [str(SRC), str(ROOT)]   # in place of the script directory
    import bint
    if Path(bint.__file__).resolve().parent != SRC / "bint":
        sys.exit(f"perfbench: imported bint from {bint.__file__}, not {SRC}")


if __name__ == "__main__":
    _use_checkout_engine()

from perfbench import gen, spans, workloads as wl  # noqa: E402
from perfbench.speed import REFERENCE_S, Speed  # noqa: E402


def percentile(sorted_values: list, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[k - 1]


class Run:
    """Outcome and time of every operation of one run."""

    def __init__(self):
        self.latencies: list[float] = []   # seconds, operations that succeeded
        self.busy = 0.0                    # seconds, every operation
        self.attempted = self.failed = self.wrong = 0
        self.over_budget = self.recursion_errors = 0
        self.passes = 0
        self.digests: list[str] = []
        self.first_wrong = ""

    def add(self, dt: float, end: tuple) -> None:
        kind, detail = end
        self.attempted += 1
        self.busy += dt
        if kind == "ok":
            self.latencies.append(dt)
            return
        self.failed += 1
        if kind == "wrong":
            self.wrong += 1
            self.first_wrong = self.first_wrong or detail
        elif kind == "over_budget":
            self.over_budget += 1
        elif kind == "recursion":
            self.recursion_errors += detail


def attempt(op, tracer=None) -> tuple[float, tuple]:
    """Run an operation once.  Returns its wall time and how it ended:
    ``("ok", None)``, ``("wrong", why)``, ``("over_budget", None)``,
    ``("no_verdict", None)`` or ``("recursion", stack overflows)``."""
    span = tracer.begin_op(op.kind) if tracer else None
    t0 = time.perf_counter()
    try:
        op.run()
        end = ("ok", None)
    except wl.WrongOutput as e:
        end = ("wrong", str(e))
    except wl.OverBudget:
        end = ("over_budget", None)
    except wl.NoVerdict:
        end = ("no_verdict", None)
    except RecursionError:
        end = ("recursion", 1)
    except wl.Failures as e:
        end = ("recursion", len(e.errors))
    except Exception:   # an engine crash is a wrong output, not a benchmark error
        end = ("wrong", traceback.format_exc())
    dt = time.perf_counter() - t0
    if tracer:
        tracer.end_op(span)
    return dt, end


def measure(workload, seed: int, passes: int, tracer=None, before_pass=None,
            clock: Speed | None = None) -> Run:
    """Every operation of ``passes`` passes, one at a time.  With a ``clock``
    sampling the machine's speed, each time is scaled to the reference
    speed.  Generating a pass is not timed."""
    run = Run()
    for index in range(passes):
        ops, verdicts, texts = workload.make_pass(seed, index)
        run.digests.append(gen.digest(texts))
        if before_pass is not None:
            before_pass(index)
        took = []
        for op in ops:
            if clock is not None:
                clock.tick()
            start = time.perf_counter()
            took.append((start, *attempt(op, tracer)))
        if clock is not None:
            clock.tick()
        for start, dt, end in took:
            if clock is not None:
                dt *= clock.scale(start, start + dt)
            run.add(dt, end)
        if verdicts is not None:
            # a sequent and its dual must get the same verdict
            bad = verdicts.mismatches()
            run.wrong += bad
            run.failed += bad
            if bad and not run.first_wrong:
                run.first_wrong = "a sequent and its dual got different verdicts"
        run.passes += 1
    return run


def overhead_ratio(workload, seed: int) -> float:
    """Traced over untraced wall time on the same opening operations of pass
    0, after one untimed warm-up, alternating untraced and traced three times
    each and taking the fastest of each, which is the least disturbed by other
    load on the machine.  Operations that fail in the warm-up are left out."""
    ops, _, _ = workload.make_pass(seed, 0)
    prefix, t0 = [], time.perf_counter()
    for op in ops:                      # warm-up, which also picks the prefix
        if attempt(op)[1][0] == "ok":
            prefix.append(op)
        if time.perf_counter() - t0 >= OVERHEAD_PROBE_S:
            break
    walls = {True: [], False: []}
    for traced in (False, True) * 3:
        tracer = spans.Tracer() if traced else None
        saved = spans.install(tracer) if traced else []
        try:
            t0 = time.perf_counter()
            for op in prefix:
                attempt(op, tracer)
            walls[traced].append(time.perf_counter() - t0)
        finally:
            spans.uninstall(saved)
    return min(walls[True]) / min(walls[False])


def setup_probe(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports the engine and builds
    the workload's first pass."""
    t0 = time.perf_counter()
    # no timeout: waiting with one polls, which rounds the time up to 50 ms
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(seed), "--setup-probe"],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def src_lines() -> dict[str, int]:
    out = {}
    for name in SRC_MODULES:
        path = SRC / "bint" / f"{name}.py"
        out[f"{name}.src_lines"] = len(path.read_text().splitlines()) if path.exists() else 0
    out["bint.src_lines"] = sum(len(p.read_text().splitlines())
                                for p in (SRC / "bint").rglob("*.py"))
    return out


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run: Run, setup_s: float, pct: float) -> tuple[dict, str]:
    lat = sorted(run.latencies)
    beyond = sum(1 for x in lat if x > percentile(lat, pct)) if lat else 0
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(run.attempted / run.busy, "1/s"),
        "op_p50_ms": metric(percentile(lat, 50) * 1e3 if lat else 0.0, "ms"),
        "op_tail_ms": metric(percentile(lat, pct) * 1e3 if lat else 0.0, "ms"),
        "ok_ratio": metric((run.attempted - run.failed) / run.attempted, "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, f"op_tail_ms is p{pct:g} of {len(lat)} completed operations, {beyond} beyond it"


def per_layer(run: Run, tracer, overhead: float) -> dict:
    calls, total, self_s, check_in_elim = tracer.totals()
    c = tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    values = {
        "search.expand_calls": (calls["kernel.expand"], "count"),
        "search.expand_distinct": (c["search.expand_distinct"], "count"),
        "search.expand_reuse": (ratio(calls["kernel.expand"], c["search.expand_distinct"]),
                                "ratio"),
        "search.self_s": (self_s["search.prove"], "s"),
        "search.timeouts": (run.over_budget, "count"),
        "search.proof_nodes": (c["search.proof_nodes"], "count"),
        "kernel.expand_s": (total["kernel.expand"], "s"),
        "kernel.check_calls": (calls["kernel.check"], "count"),
        "kernel.check_nodes": (c["kernel.check_nodes"], "count"),
        "kernel.check_s": (total["kernel.check"], "s"),
        "kernel.check_nodes_per_s": (ratio(c["kernel.check_nodes"], total["kernel.check"]),
                                     "1/s"),
        "kernel.dual_s": (total["kernel.dual"], "s"),
        "kernel.recursion_errors": (tracer.origins["kernel"], "count"),
        "transform.elim_calls": (calls["transform.elim"], "count"),
        "transform.elim_steps": (c["transform.elim_steps"], "count"),
        "transform.elim_self_s": (self_s["transform.elim"], "s"),
        "transform.elim_steps_per_s": (ratio(c["transform.elim_steps"], total["transform.elim"]),
                                       "1/s"),
        "transform.elim_check_share": (ratio(check_in_elim, total["transform.elim"]), "ratio"),
        "transform.other_s": (total["transform.other"], "s"),
        "transform.output_nodes": (c["transform.output_nodes"], "count"),
        "transform.recursion_errors": (tracer.origins["transform"], "count"),
        "serialize.load_calls": (calls["serialize.loads"], "count"),
        "serialize.load_s": (total["serialize.loads"], "s"),
        "serialize.dump_s": (total["serialize.dumps"], "s"),
        "serialize.bytes": (c["serialize.bytes"], "B"),
        "serialize.recursion_errors": (tracer.origins["serialize"], "count"),
        "syntax.parse_calls": (calls["syntax.parse"], "count"),
        "syntax.parse_s": (total["syntax.parse"], "s"),
        "syntax.format_s": (total["syntax.format"], "s"),
        "corpus.cases": (c["corpus.cases"], "count"),
        "corpus.run_s": (total["corpus.run_all"], "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.spans": (tracer.next_id, "count"),
    }
    values.update({k: (v, "lines") for k, v in src_lines().items()})
    return {k: metric(v, unit) for k, (v, unit) in values.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.workload not in wl.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload]
    if args.setup_probe:
        workload.make_pass(args.seed, 0)
        return 0

    passes = max(1, int(args.seconds / workload.pass_s))
    clock = Speed()
    setup_times: list[float] = []
    if args.trace:
        overhead = overhead_ratio(workload, args.seed)
        tracer = spans.Tracer()
        saved = spans.install(tracer)
        try:
            run = measure(workload, args.seed, passes, tracer)
        finally:
            spans.uninstall(saved)
    else:
        def probe_setup(index: int):
            due = SETUP_PROBES * (index + 1) // passes - SETUP_PROBES * index // passes
            for _ in range(due):
                clock.sample()
                start = time.perf_counter()
                dt = setup_probe(args.workload, args.seed)
                clock.sample()
                setup_times.append(dt * clock.scale(start, start + dt))
        run = measure(workload, args.seed, passes, before_pass=probe_setup, clock=clock)

    if clock.took:
        q = statistics.quantiles(clock.took, n=10)
        print(f"machine calibration_ms p10={q[0] * 1e3:.3f} p50={q[4] * 1e3:.3f} "
              f"p90={q[8] * 1e3:.3f} samples={len(clock.took)}; times are scaled to "
              f"{REFERENCE_S * 1e3:.3f}")
    print(f"inputs {args.workload} seed={args.seed} passes={run.passes} "
          f"first_pass={run.digests[0]} all={gen.digest(run.digests)}")
    if args.trace:
        metrics = per_layer(run, tracer, overhead)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}-{args.seed}.tsv"
        tracer.write(path)
        print(f"spans {tracer.next_id} written to {path.relative_to(ROOT)}")
    else:
        metrics, tail_note = end_to_end(run, statistics.median(setup_times),
                                        workload.tail_pct)
        print(tail_note)
    print(f"summary attempted={run.attempted} failed={run.failed} "
          f"failed_ratio={run.failed / run.attempted:.6f} wrong_outputs={run.wrong} "
          f"over_budget={run.over_budget} recursion_errors={run.recursion_errors}")
    if run.first_wrong:
        print(f"first wrong output: {run.first_wrong}", file=sys.stderr)
    print(json.dumps({"correct": run.wrong == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
