"""Spans around the package's layers, recorded from the benchmark's side.

The tracer replaces exported functions with timing wrappers at the module
attribute where the pipeline looks them up (for example
``digraph_pfd.strong_pfd.cartesian_skeleton``), and ``Digraph.__init__`` on
the class.  Each span records its name, start, end, parent span and the
call it belongs to, plus counts read from the wrapped function's arguments
and return value.  Spans stay in memory; the benchmark aggregates them and
writes them out at the end.  A hook whose target no longer exists is listed
in ``absent`` and the metrics that need it are left out.
"""

from __future__ import annotations

import importlib
import math
import time
from dataclasses import dataclass, field
from typing import Callable


def _skeleton_counts(args, result) -> dict[str, int]:
    counts = {"arcs_judged": len(args[0].arcs), "arcs_removed": len(result.removed)}
    for _, witness in result.removed:
        key = f"removed_{witness.rule.lower()}"
        counts[key] = counts.get(key, 0) + 1
    return counts


def _factor_counts(args, result) -> dict[str, int]:
    return {"factors": len(result.factors)}


def _arcs_built(args, result) -> dict[str, int]:
    return {"arcs_built": len(args[0].arcs)}  # args[0] is the new Digraph


def _partition_counts(args, result) -> dict[str, int]:
    return {"classes": len(result.classes), "complete_l": math.gcd(*map(len, result.classes))}


# (module, attribute, span name, counts from (args, result)).  The span name's
# prefix before the first dot is the layer the span's self time is billed to.
HOOKS: list[tuple[str, str, str, Callable | None]] = [
    ("digraph_pfd.strong_pfd", "strong_pfd", "grouping.strong_pfd", None),
    ("digraph_pfd.strong_pfd", "strong_pfd_thin", "grouping.strong_pfd_thin", None),
    (
        "digraph_pfd.strong_pfd",
        "verify_strong_grouping",
        "grouping.verify",
        lambda a, r: {"verify_accepted": int(r is not None)},
    ),
    (
        "digraph_pfd.strong_pfd",
        "cartesian_skeleton",
        "skeleton.cartesian_skeleton",
        _skeleton_counts,
    ),
    ("digraph_pfd.strong_pfd", "cartesian_pfd", "cartesian.cartesian_pfd", _factor_counts),
    ("digraph_pfd.cartesian_pfd", "cartesian_pfd", "cartesian.cartesian_pfd", _factor_counts),
    (
        "digraph_pfd.cartesian_pfd",
        "undirected_cartesian_pfd",
        "cartesian.undirected",
        lambda a, r: {"colours_initial": r.count},
    ),
    ("digraph_pfd.cartesian_pfd", "_closure_coloring", "cartesian.closure", None),
    ("digraph_pfd.cartesian_pfd", "_coordinatize", "cartesian.coordinatize", None),
    (
        "digraph_pfd.cartesian_pfd",
        "direction_conflicts",
        "cartesian.conflicts",
        lambda a, r: {"merge_rounds": int(bool(r))},
    ),
    ("digraph_pfd.cartesian_pfd", "reconstruct_cartesian", "factorization.reconstruct", None),
    ("digraph_pfd.strong_pfd", "reconstruct_strong", "factorization.reconstruct", None),
    ("digraph_pfd.strong_pfd", "s_partition", "relations.partition", _partition_counts),
    ("digraph_pfd.strong_pfd", "quotient", "relations.quotient", None),
    ("digraph_pfd.strong_pfd", "blowup", "relations.blowup", None),
    ("digraph_pfd.strong_pfd", "strong_product", "products.strong_product", None),
    ("digraph_pfd.products", "strong_product", "products.strong_product", None),
    ("digraph_pfd.products", "cartesian_product", "products.cartesian_product", None),
    ("digraph_pfd.oracle", "random_prime_digraph", "oracle.random_prime_digraph", None),
    ("digraph_pfd.oracle", "brute_force_strong_pfd", "oracle.certify", None),
]

# Digraph construction is hooked on the class, so every caller is covered.
_DIGRAPH = ("digraph_pfd.digraph", "Digraph", "digraph.construct")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    call: int = -1  # index of the benchmark call, -1 during set-up
    counts: dict[str, int] = field(default_factory=dict)


class Tracer:
    """Installs the hooks while a traced section runs and keeps its spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.call = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        for module_name, attr, name, counter in HOOKS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(name)
            else:
                self._patches.append((module, attr, original, self._wrap(name, original, counter)))
        module_name, cls_name, name = _DIGRAPH
        cls = getattr(importlib.import_module(module_name), cls_name, None)
        if cls is None:
            self.absent.append(name)
        else:
            init = cls.__init__
            wrapper = self._wrap(name, init, _arcs_built)
            self._patches.append((cls, "__init__", init, wrapper))

    def _wrap(self, name: str, fn: Callable, counter: Callable | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=stack[-1] if stack else -1, call=self.call)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own


# Per-layer metrics: (name, unit, how, span names).  ``how`` is "self" (self
# time), "time" (inclusive time), "spans" (span count) or a counts key, all
# per round of timed calls; the "setup_" forms read the traced set-up
# instead.  A metric is left out when none of its spans could be hooked.
LAYER_METRICS: list[tuple[str, str, str, tuple[str, ...]]] = [
    ("skeleton.busy_s", "s", "self", ("skeleton.cartesian_skeleton",)),
    ("skeleton.calls", "count", "spans", ("skeleton.cartesian_skeleton",)),
    ("skeleton.arcs_judged", "count", "arcs_judged", ("skeleton.cartesian_skeleton",)),
    ("skeleton.arcs_removed", "count", "arcs_removed", ("skeleton.cartesian_skeleton",)),
    *[
        (f"skeleton.removed_d{i}", "count", f"removed_d{i}", ("skeleton.cartesian_skeleton",))
        for i in range(1, 6)
    ],
    (
        "cartesian.busy_s",
        "s",
        "self",
        (
            "cartesian.cartesian_pfd",
            "cartesian.undirected",
            "cartesian.closure",
            "cartesian.coordinatize",
            "cartesian.conflicts",
        ),
    ),
    ("cartesian.closure_s", "s", "time", ("cartesian.closure",)),
    ("cartesian.coordinatize_s", "s", "time", ("cartesian.coordinatize",)),
    ("cartesian.conflicts_s", "s", "time", ("cartesian.conflicts",)),
    ("cartesian.calls", "count", "spans", ("cartesian.cartesian_pfd",)),
    ("cartesian.colours_initial", "count", "colours_initial", ("cartesian.undirected",)),
    ("cartesian.factors", "count", "factors", ("cartesian.cartesian_pfd",)),
    ("cartesian.merge_rounds", "count", "merge_rounds", ("cartesian.conflicts",)),
    (
        "grouping.busy_s",
        "s",
        "self",
        ("grouping.strong_pfd", "grouping.strong_pfd_thin", "grouping.verify"),
    ),
    ("grouping.verify_s", "s", "time", ("grouping.verify",)),
    ("grouping.verify_calls", "count", "spans", ("grouping.verify",)),
    ("grouping.verify_accepted", "count", "verify_accepted", ("grouping.verify",)),
    ("relations.partition_s", "s", "time", ("relations.partition",)),
    ("relations.quotient_s", "s", "time", ("relations.quotient",)),
    ("relations.blowup_s", "s", "time", ("relations.blowup",)),
    ("relations.classes", "count", "classes", ("relations.partition",)),
    ("relations.complete_l", "count", "complete_l", ("relations.partition",)),
    ("products.strong_product_s", "s", "time", ("products.strong_product",)),
    ("products.calls", "count", "spans", ("products.strong_product",)),
    (
        "products.setup_s",
        "s",
        "setup_time",
        ("products.strong_product", "products.cartesian_product"),
    ),
    ("factorization.reconstruct_s", "s", "time", ("factorization.reconstruct",)),
    ("factorization.reconstruct_calls", "count", "spans", ("factorization.reconstruct",)),
    ("digraph.construct_s", "s", "time", ("digraph.construct",)),
    ("digraph.constructions", "count", "spans", ("digraph.construct",)),
    ("digraph.arcs_built", "count", "arcs_built", ("digraph.construct",)),
    ("digraph.setup_s", "s", "setup_time", ("digraph.construct",)),
    ("oracle.setup_s", "s", "setup_time", ("oracle.random_prime_digraph",)),
    ("oracle.prime_draws", "count", "setup_spans", ("oracle.certify",)),
]


def layer_metrics(
    tracer: Tracer, call_scale: dict[int, float], setup_scale: float, rounds: int
) -> dict[str, dict]:
    """Aggregate the spans into per-layer metrics.

    Call-phase figures are per round of traced calls; times are scaled by the
    calibration factor of the call (or set-up) that holds the span.
    """
    hooked = {name for _, _, name, _ in HOOKS} | {_DIGRAPH[2]}
    hooked -= set(tracer.absent)
    own = tracer.self_times()
    metrics: dict[str, dict] = {}
    for metric, unit, how, names in LAYER_METRICS:
        if not hooked & set(names):
            continue
        setup = how.startswith("setup_")
        total = 0.0
        for span, self_time in zip(tracer.spans, own):
            if span.name not in names or (span.call < 0) != setup:
                continue
            scale = setup_scale if setup else call_scale[span.call]
            if how == "self":
                total += self_time * scale
            elif how in ("time", "setup_time"):
                total += (span.end - span.start) * scale
            elif how in ("spans", "setup_spans"):
                total += 1
            else:
                total += span.counts.get(how, 0)
        metrics[metric] = {"value": total if setup else total / rounds, "unit": unit}
    calls = metrics.get("grouping.verify_calls")
    if calls:
        accepted = metrics["grouping.verify_accepted"]["value"]
        ratio = accepted / calls["value"] if calls["value"] else 0.0
        metrics["grouping.accept_ratio"] = {"value": ratio, "unit": "ratio"}
    return metrics
