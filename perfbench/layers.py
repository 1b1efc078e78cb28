"""Per-layer metrics from the span documents of traced invocations.

A span's self time is its duration minus the durations of its child
spans (children nest and run on the caller's thread). One "pass" is
the set of invocations a workload makes once (five for the baseline
suite, one otherwise); layer totals are summed over a pass and the
reported value is the median over passes.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import spec


class PassSpans:
    """Span totals, self times and counts summed over one pass."""

    def __init__(self):
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.fired: set[str] = set()
        self.wall = 0.0

    def add(self, doc: dict, wall: float) -> None:
        """Fold in one invocation's span document and its measured wall."""
        self.wall += wall
        spans = {s[0]: s for s in doc["spans"]}
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent in spans.values():
            if parent is not None:
                child_time[parent] += end - start
        for ident, name, start, end, _ in spans.values():
            self.total[name] += end - start
            self.self_time[name] += end - start - child_time[ident]
            self.fired.add(name)
        for key, value in doc["counts"].items():
            self.counts[key] += value

    @property
    def accounted(self) -> float:
        """Sum of all self times, i.e. the time covered by some span."""
        return sum(self.self_time.values())


# metric -> (bytes count, span, use self time, bytes per unit)
_RATES = {
    "fileio.edge_list_mb_per_s": ("fileio.edge_list_bytes", "fileio.load_edge_list", False, 1e6),
    "fileio.gge1_read_mb_per_s": ("fileio.embedding_bytes", "fileio.load_embedding_values", False, 1e6),
    "fileio.sha256_mb_per_s": ("fileio.sha256_bytes", "fileio.sha256_file", False, 1e6),
    "ggi.gather_gb_per_s": ("ggi.gather_bytes", "ggi.score_configuration", True, 1e9),
}


def pass_value(metric: str, p: PassSpans) -> float | None:
    """One per-layer metric over one pass; None when its span did not fire."""
    if metric == "trace.unaccounted_share":
        return 1.0 - p.accounted / p.wall
    if metric == "core.edge_keep_ratio":
        keys = ("core.edges_kept", "core.self_loops_dropped", "core.duplicates_dropped")
        if not all(k in p.counts for k in keys):
            return None
        return p.counts[keys[0]] / sum(p.counts[k] for k in keys)
    if metric in _RATES:
        count, span, use_self, unit = _RATES[metric]
        if count not in p.counts or span not in p.fired:
            return None
        seconds = (p.self_time if use_self else p.total)[span]
        return p.counts[count] / unit / seconds
    if metric.endswith("_self_s"):
        span = metric[: -len("_self_s")]
        return p.self_time[span] if span in p.fired else None
    if metric.endswith("_s"):
        span = metric[: -len("_s")]
        return p.total[span] if span in p.fired else None
    return p.counts.get(metric)


def per_layer(workload: str, traced: list[PassSpans], extra: dict[str, float]) -> tuple[dict, list[str]]:
    """Every per-layer metric for one workload, plus the names found missing.

    ``extra`` holds metrics measured outside the spans (untraced walls,
    tracing overhead). A metric whose span did not fire on a workload
    listed in its ``on`` is missing; elsewhere the layer did no work and
    reads 0.
    """
    values, missing = {}, []
    for metric in spec.PER_LAYER:
        if metric.name in extra:
            value = extra[metric.name]
        else:
            found = [v for v in (pass_value(metric.name, p) for p in traced) if v is not None]
            value = statistics.median(found) if found else None
        if value is None:
            if workload in metric.on:
                missing.append(metric.name)
                continue
            value = 0.0 if metric.unit != "count" else 0
        values[metric.name] = value
    return values, missing
