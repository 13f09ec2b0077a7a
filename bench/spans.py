"""In-memory spans for the traced benchmark run.

A span records its name, start, end, parent span, item id and a dict of
attributes (counts such as cells built or the outcome of a run). Spans are
only kept in memory; `layer_metrics` reduces them when the run ends. The
untraced run uses `NullTracer`, whose spans record nothing.
"""

from __future__ import annotations

import time
from collections import Counter


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int) -> None:
        self.tracer = tracer
        self.index = index

    def __enter__(self) -> dict:
        rec = self.tracer.spans[self.index]
        self.tracer.stack.append(self.index)
        rec[1] = time.perf_counter()
        return rec[5]

    def __exit__(self, *exc) -> bool:
        self.tracer.spans[self.index][2] = time.perf_counter()
        self.tracer.stack.pop()
        return False


class Tracer:
    """Records [name, start, end, parent, item, attrs] for every span."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.item = -1

    def span(self, name: str, **attrs) -> _Span:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, 0.0, 0.0, parent, self.item, attrs])
        return _Span(self, len(self.spans) - 1)

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += n


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> dict:
        return {}

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Same interface as `Tracer`; records nothing."""

    item = -1

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, n: int = 1) -> None:
        pass


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [s[2] - s[1] - covered[i] for i, s in enumerate(spans)]


def item_self_sums(spans: list[list], selfs: list[float]) -> dict[int, float]:
    out: dict[int, float] = {}
    for s, t in zip(spans, selfs):
        out[s[4]] = out.get(s[4], 0.0) + t
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, selfs: list[float]) -> dict[str, float]:
    """Reduce spans to the per-layer metrics named in BENCHMARK.json.

    Times (`*_s`) are mean self seconds per call of the span, so a layer's
    figure does not depend on how many items the run completed. Rates are
    total work over total self time. `universe.evaluate_calls*` are totals.
    """
    time_by: Counter = Counter()
    calls: Counter = Counter()
    work: Counter = Counter()
    for span, t in zip(tracer.spans, selfs):
        name, attrs = span[0], span[5]
        time_by[name] += t
        calls[name] += 1
        if name == "core.build":
            work["cells"] += attrs["cells"]
        elif name == "universe.evaluate":
            outcome = attrs.get("outcome", "stuck")
            calls["evaluate." + outcome] += 1
            if outcome == "diverged":
                # a run that ends Diverged visited exactly `fuel` nodes
                work["diverged_fuel"] += attrs["fuel"]
                time_by["evaluate.diverged"] += t
            if attrs.get("omega"):
                work["omega_fuel"] += attrs["fuel"]
                time_by["evaluate.omega"] += t
        elif name == "universe.fixed_point":
            work["n0_digits"] += attrs["digits"]
        elif name == "universe.codec":
            work["codec_digits"] += attrs["digits"]
        elif name == "formal.sentence":
            work["number_digits"] += attrs["digits"]
        elif name == "sexpr.parse":
            work["nodes"] += attrs["nodes"]

    def mean_s(name: str) -> float:
        return _ratio(time_by[name], calls[name])

    evaluate_calls = calls["universe.evaluate"]
    return {
        "core.build_s": mean_s("core.build"),
        "core.cells": _ratio(work["cells"], calls["core.build"]),
        "core.cells_per_s": _ratio(work["cells"], time_by["core.build"]),
        "core.witness_s": mean_s("core.witness"),
        "core.search_s": mean_s("core.search"),
        "core.verify_s": mean_s("core.verify"),
        "instances.demo_s": mean_s("instances.demo"),
        "instances.convert_s": mean_s("instances.convert"),
        "universe.fixed_point_s": mean_s("universe.fixed_point"),
        "universe.n0_digits": _ratio(work["n0_digits"], calls["universe.fixed_point"]),
        "universe.evaluate_s": mean_s("universe.evaluate"),
        "universe.evaluate_calls": evaluate_calls,
        "universe.evaluate_calls.value": calls["evaluate.value"],
        "universe.evaluate_calls.diverged": calls["evaluate.diverged"],
        "universe.evaluate_calls.stuck": calls["evaluate.stuck"],
        "universe.diverged_share": _ratio(calls["evaluate.diverged"], evaluate_calls),
        "universe.diverged_visits_per_s": _ratio(
            work["diverged_fuel"], time_by["evaluate.diverged"]
        ),
        "universe.omega_visits_per_s": _ratio(work["omega_fuel"], time_by["evaluate.omega"]),
        "universe.sample_retry_ratio": _ratio(
            tracer.counters["recursion.retries"], tracer.counters["recursion.samples"]
        ),
        "universe.refute_s": mean_s("universe.refute"),
        "universe.rice_s": mean_s("universe.rice"),
        "universe.halting_matrix_s": mean_s("universe.halting_matrix"),
        "universe.codec_digits_per_s": _ratio(
            work["codec_digits"], time_by["universe.codec"]
        ),
        "formal.sentence_s": mean_s("formal.sentence"),
        "formal.goedel_s": mean_s("formal.goedel"),
        "formal.number_digits": _ratio(work["number_digits"], calls["formal.sentence"]),
        "formal.reduce_s": mean_s("formal.reduce"),
        "formal.format_s": mean_s("formal.format"),
        "sexpr.parse_s": mean_s("sexpr.parse"),
        "sexpr.nodes_per_s": _ratio(work["nodes"], time_by["sexpr.parse"]),
        "cli.run_command_s": mean_s("cli.run_command"),
        "cli.load_matrix_s": mean_s("cli.load_matrix"),
    }
