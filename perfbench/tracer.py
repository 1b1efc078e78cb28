"""Span recording around the public functions of gramstab's modules.

``install`` replaces every public function, classmethod, staticmethod
and method defined in the modules below with a wrapper that records a
span (name, start, end, parent) and, for a few functions, counts taken
from their arguments and results. Every module of the package that
imported one of these functions by name gets the wrapper too, so calls
between modules nest: ``core.from_pairs`` inside
``fileio.load_edge_list``, ``baselines.knn_neighbors`` inside
``baselines.knn_jaccard_index``. Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import sys
import threading
import time

MODULES = ("cli", "fileio", "core", "ggi", "baselines", "alignment", "transforms")


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _file_bytes(key: str):
    return lambda a, k, r: {key: os.path.getsize(_arg(a, k, 0, "path"))}


def _edge_list(a, k, r):
    return {
        "core.self_loops_dropped": r.self_loops_dropped,
        "core.duplicates_dropped": r.duplicates_dropped,
        "core.edges_kept": r.graph.edge_count,
        "fileio.edge_list_bytes": os.path.getsize(_arg(a, k, 0, "path")),
    }


def _gather(a, k, r):
    """Bytes and flops of the edge gather, computed from its shape."""
    mat = _arg(a, k, 0, "mat")
    dim = getattr(mat, "values", mat).shape[1]
    edges = _arg(a, k, 1, "graph").edge_count
    return {"ggi.gather_bytes": 2 * edges * dim * 8, "ggi.gather_flops": 2 * edges * dim}


def _pairwise(a, k, r):
    return {
        "baselines.pairs": len(r.per_pair),
        "baselines.zero_vector_scores": r.metadata.get("zero_vector_scores", 0),
    }


COUNTERS = {
    "fileio.load_edge_list": _edge_list,
    "fileio.load_embedding_values": _file_bytes("fileio.embedding_bytes"),
    "fileio.sha256_file": _file_bytes("fileio.sha256_bytes"),
    "core.center_normalize_inplace": lambda a, k, r: {"core.degenerate_rows": int(r)},
    "ggi.score_configuration": _gather,
    "alignment.procrustes_align": lambda a, k, r: {
        "alignment.degenerate_alignments": int(r.degenerate)
    },
    **{
        f"baselines.{index}_index": _pairwise
        for index in (
            "knn_jaccard",
            "second_order_cosine",
            "aligned_cosine",
            "hausdorff",
            "wasserstein",
        )
    },
}


class Tracer:
    """Spans and counts of one process, kept in memory until ``document``."""

    def __init__(self):
        self.spans: list[list] = []  # [id, name, start, end, parent id]
        self.counts: dict[str, int] = {}
        self.errors: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def add(self, name: str, start: float, end: float) -> None:
        """Record a top-level span measured by the caller."""
        self.spans.append([next(self._ids), name, start, end, None])

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            record = [next(self._ids), name, time.perf_counter(), None, stack[-1] if stack else None]
            self.spans.append(record)
            stack.append(record[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    for key, value in counter(args, kwargs, result).items():
                        self.counts[key] = self.counts.get(key, 0) + value
                except Exception as exc:  # noqa: BLE001  a changed API must not break the run
                    self.errors.append(f"{name}: cannot count: {exc!r}")
            return result

        return traced

    def install(self, package: str = "gramstab") -> None:
        replaced = {}
        for short in MODULES:
            module = importlib.import_module(f"{package}.{short}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[obj] = self.wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._install_methods(short, obj)
        for name, module in list(sys.modules.items()):
            if name != package and not name.startswith(package + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(module, attr, replaced[obj])

    def _install_methods(self, short: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(member, (classmethod, staticmethod)):
                setattr(cls, attr, type(member)(self.wrap(f"{short}.{attr}", member.__func__)))
            elif inspect.isfunction(member):
                setattr(cls, attr, self.wrap(f"{short}.{attr}", member))

    def document(self, invocation: str) -> dict:
        return {
            "invocation": invocation,
            "spans": sorted(self.spans),
            "counts": self.counts,
            "errors": self.errors,
        }
