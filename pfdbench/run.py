#!/usr/bin/env python3
"""Seeded benchmark of strong and Cartesian prime factor decomposition.

    python3 pfdbench/run.py --workload strong_dense --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from ``src/``.  One
caller in one thread calls ``strong_pfd`` or ``cartesian_pfd`` back to back
(a closed loop) over the workload's corpus, round after round, for
``--seconds`` and at least ``MIN_CALLS`` calls.  Every output is checked by
``checks.py``.  Every timed interval is bracketed by the reference kernel and
reported in seconds at reference speed (see ``refkernel.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics instead.  The
last line of standard output is one JSON object.  The run's own record, with
raw wall-clock and kernel times next to the calibrated ones, and in traced
runs the spans, go to ``pfdbench/results/``.  ``--workload all`` runs every
workload in turn.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import random
import statistics
import sys
import time
import tracemalloc
import traceback
import types
from dataclasses import dataclass
from pathlib import Path

import checks
import refkernel
import tracing
import workloads

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
SETUP_REPS = 3
MIN_CALLS = 100
# Each input's median call time, which ``arcs_per_s`` uses, needs a few samples.
MIN_ROUNDS = 3
# With at least MIN_CALLS calls, at least ten samples lie beyond this one.
TAIL_PERCENTILE = 90


def load_library() -> types.SimpleNamespace:
    """The package's modules, imported from this checkout's ``src/`` only."""
    src = HERE.parent / "src"
    if not (src / "digraph_pfd" / "__init__.py").is_file():
        raise ImportError(f"no digraph_pfd package under {src}")
    sys.path.insert(0, str(src))
    names = ("digraph", "products", "oracle", "strong_pfd", "cartesian_pfd")
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"digraph_pfd.{name}") for name in names}
    )


@dataclass
class Sample:
    """One timed interval with the kernel times that bracket it."""

    raw_s: float
    kernel_before_s: float
    kernel_after_s: float

    @property
    def scale(self) -> float:
        return refkernel.NOMINAL_S * 2 / (self.kernel_before_s + self.kernel_after_s)

    @property
    def calibrated_s(self) -> float:
        return self.raw_s * self.scale


class Clock:
    """Times calls between kernel runs; each kernel run closes one interval
    and opens the next."""

    def __init__(self) -> None:
        refkernel.measure()  # warm-up
        self.kernel_s = refkernel.measure()

    def time(self, fn, *args):
        before = self.kernel_s
        start = time.perf_counter()
        try:
            result, error = fn(*args), None
        except Exception:  # a failing call is counted, not fatal
            result, error = None, traceback.format_exc(limit=3)
        raw = time.perf_counter() - start
        self.kernel_s = refkernel.measure()
        return result, error, Sample(raw, before, self.kernel_s)


def factorize(lib, inst: workloads.Instance):
    # Looked up at call time so the tracer's hooks apply.
    if inst.kind == "strong":
        return lib.strong_pfd.strong_pfd(inst.graph)
    return lib.cartesian_pfd.cartesian_pfd(inst.graph)


def peak_alloc_mb(lib, corpus) -> float:
    """Largest Python-heap peak of one call, counting only allocations made
    during the call; an untimed pass under tracemalloc over the first input
    of every slot."""
    peak = 0
    tracemalloc.start()
    try:
        for inst in {inst.label: inst for inst in reversed(corpus)}.values():
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                factorize(lib, inst)
            except Exception:  # already counted by the timed pass
                pass
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peak / 1e6


def build_corpus(lib, clock: Clock, tracer, workload: str, seed: int):
    """Build the corpus once, timing each input's build as its own interval.

    Returns the corpus and [raw, calibrated] seconds of the whole build."""
    corpus = []
    raw = calibrated = 0.0
    steps = workloads.build_corpus(lib, workload, seed)
    gc.collect()
    with tracer or contextlib.nullcontext():
        while True:
            inst, error, sample = clock.time(next, steps, None)
            if error:
                raise RuntimeError(f"set-up of {workload} failed:\n{error}")
            raw += sample.raw_s
            calibrated += sample.calibrated_s
            if inst is None:
                return corpus, [raw, calibrated]
            corpus.append(inst)


@dataclass
class Rounds:
    """What the timed loop did: one (slot, sample, traced, ok) per call."""

    calls: list[tuple[int, Sample, bool, bool]]
    failures: list[str]
    wrong: int
    rounds: int
    traced_rounds: int


def run_rounds(lib, clock: Clock, tracer, corpus, seed: int, seconds: float) -> Rounds:
    """Call the corpus round after round for ``seconds`` (and, untraced, at
    least MIN_ROUNDS rounds and MIN_CALLS calls); with a tracer, every second
    round is traced."""
    order = list(range(len(corpus)))
    random.Random(seed).shuffle(order)
    done = Rounds([], [], 0, 0, 0)
    deadline = time.perf_counter() + seconds
    while (
        done.rounds < (2 if tracer else MIN_ROUNDS)
        or time.perf_counter() < deadline
        or (not tracer and len(done.calls) < MIN_CALLS)
    ):
        traced = tracer is not None and done.rounds % 2 == 1
        for i in order:
            inst = corpus[i]
            if traced:
                tracer.call = len(done.calls)
            with tracer if traced else contextlib.nullcontext():
                result, error, sample = clock.time(factorize, lib, inst)
            if error is None and not inst.input_ok:
                error = f"{inst.label}: input lacks the property the workload relies on"
            elif error is None:
                problem = checks.factorization_error(inst.kind, inst.graph, result, inst.expected)
                if problem:
                    done.wrong += 1
                    error = f"{inst.label}: {problem}"
            if error is not None:
                done.failures.append(error)
            done.calls.append((i, sample, traced, error is None))
        done.rounds += 1
        done.traced_rounds += traced
    return done


def end_to_end_metrics(lib, corpus, done: Rounds, setups) -> dict[str, dict]:
    latencies = [s.calibrated_s for _, s, _, _ in done.calls]
    by_input: dict[int, list[float]] = {}
    for i, s, _, _ in done.calls:
        by_input.setdefault(i, []).append(s.calibrated_s)
    # Throughput of a round with every input at its median call time: a host
    # stall inside one call, which the kernels around it do not see, would
    # otherwise move the mean by several percent.
    round_s = sum(statistics.median(times) for times in by_input.values())
    round_arcs = sum(corpus[i].arcs for i in by_input)
    tail = statistics.quantiles(latencies, n=100)[TAIL_PERCENTILE - 1]
    return {
        "arcs_per_s": {"value": round_arcs / round_s, "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
        "latency_tail_ms": {"value": tail * 1e3, "unit": "ms"},
        "peak_alloc_mb": {"value": peak_alloc_mb(lib, corpus), "unit": "MB"},
        "setup_s": {"value": statistics.median(c for _, c in setups), "unit": "s"},
    }


def traced_metrics(tracer: tracing.Tracer, done: Rounds, setup) -> dict[str, dict]:
    scale = {k: s.scale for k, (_, s, traced, _) in enumerate(done.calls) if traced}
    raw, calibrated = setup
    metrics = tracing.layer_metrics(tracer, scale, calibrated / raw, done.traced_rounds)
    per_round = {True: 0.0, False: 0.0}
    for _, s, traced, _ in done.calls:
        per_round[traced] += s.calibrated_s
    untraced_rounds = done.rounds - done.traced_rounds
    overhead = per_round[True] / done.traced_rounds - per_round[False] / untraced_rounds
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def run_workload(lib, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    clock = Clock()
    tracer = tracing.Tracer() if trace else None
    setups = []
    corpus = None
    for _ in range(1 if trace else SETUP_REPS):
        corpus = None  # drop the last build, so each starts from the same heap
        corpus, times = build_corpus(lib, clock, tracer, workload, seed)
        setups.append(times)
    # The corpus is the benchmark's data, not the program's: keep the cyclic
    # GC from rescanning it during timed calls.
    gc.collect()
    gc.freeze()
    try:
        done = run_rounds(lib, clock, tracer, corpus, seed, seconds)
    finally:
        gc.unfreeze()

    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "nominal_kernel_s": refkernel.NOMINAL_S,
        "rounds": done.rounds,
        "slots": [
            {"label": inst.label, "n": inst.graph.n, "arcs": inst.arcs} for inst in corpus
        ],
        "setup_columns": ["raw_s", "calibrated_s"],
        "setup": setups,
        "columns": [
            "slot", "traced", "ok", "raw_s", "kernel_before_s", "kernel_after_s", "calibrated_s"
        ],
        "calls": [[i, traced, ok] + _row(s) for i, s, traced, ok in done.calls],
        "failures": done.failures[:20],
    }
    if tracer:
        metrics = traced_metrics(tracer, done, setups[0])
        record["absent_hooks"] = tracer.absent
        _write(f"{workload}-seed{seed}-spans.json", _spans(tracer))
    else:
        metrics = end_to_end_metrics(lib, corpus, done, setups)
    record["metrics"] = metrics
    _write(f"{workload}-seed{seed}-trace{int(trace)}.json", record)
    return {
        "correct": done.wrong == 0,
        "attempted": len(done.calls),
        "failed": len(done.failures),
        "metrics": metrics,
    }


def _row(s: Sample) -> list[float]:
    return [s.raw_s, s.kernel_before_s, s.kernel_after_s, s.calibrated_s]


def _spans(tracer: tracing.Tracer) -> dict:
    return {
        "columns": ["name", "start", "end", "parent", "call", "counts"],
        "absent": tracer.absent,
        "spans": [[s.name, s.start, s.end, s.parent, s.call, s.counts] for s in tracer.spans],
    }


def _write(name: str, payload: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / name).write_text(json.dumps(payload))


def _report(workload: str, result: dict) -> None:
    print(f"{workload}: {result['attempted']} calls attempted, {result['failed']} failed")
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        lib = load_library()
    except ImportError as exc:
        print(f"cannot import digraph_pfd from {HERE.parent / 'src'}: {exc}", file=sys.stderr)
        return 1

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(lib, name, args.seed, args.seconds, bool(args.trace))
        _report(name, results[name])
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
