"""Spans around calls into the loophom modules, installed from outside the
package.

A `Tracer` replaces each function in `TRACED` with a wrapper that records a
span (name, start, end, parent) in memory.  Every module namespace that binds
a wrapped function is patched, because ``loophom.cli`` and
``loophom.transform`` import functions by name; methods are patched on their
class.  `restore` puts the original objects back.

A call to a function that is not in `TRACED` is not a span: its time is self
time of the innermost traced caller.  `TRACED` holds the public functions
and methods that one module calls in another, plus those the per-layer
metrics name.  Per-term helpers that run hundreds of thousands of times in a
pass (``permutations.epsilon``, ``permutations.act_on_coords``, the
dataclass constructors) and generators are left out.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from typing import Callable

MODULES = (
    "permutations",
    "affine",
    "chains",
    "words",
    "wedge",
    "homology",
    "transform",
    "cli",
)

TRACED = {
    "permutations": (
        "enumerate_shuffles",
        "enumerate_ens",
        "invol",
        "bij",
        "face_perm",
        "point_sign",
        "inversions_at",
        "is_shuffle",
    ),
    "affine": (
        "f_map",
        "ftilde_map",
        "compose",
        "subdivision_piece",
        "face_map",
        "identity_map",
        "vertex_E",
    ),
    "chains": (
        "div_chain",
        "chain_compose",
        "build_homotopy_L",
        "boundary_chain",
        "identity_chain",
        "zero_chain",
        "chain_of",
        "FormalChain.__add__",
        "FormalChain.__sub__",
        "FormalChain.__eq__",
        "FormalChain.is_zero",
    ),
    "words": (
        "positivize",
        "magnus",
        "make_alphabet",
        "parse_word",
        "word_str",
        "is_positive",
        "check_rank",
    ),
    "wedge": ("build_pair_complex", "complex_to_json", "simplex_str", "push_simplex", "in_Y"),
    "homology": (
        "homology",
        "smith_normal_form",
        "det",
        "HomologySummary.cycle_class",
        "HomologySummary.is_cycle",
    ),
    "transform": (
        "nu_vector",
        "nu_eval",
        "shuffle_expand",
        "sampling_oracle",
        "symbolic_cancellation",
        "vanishing_sum_check",
        "naturality_check",
        "random_simplex_points",
    ),
    "cli": ("main", "emit", "emit_to_file_only"),
}


def span_name(module: str, attr: str) -> str:
    """``module.function``; a method is named without its class."""
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """Spans and counters of one traced pass.

    Spans live in four parallel arrays; ``parent`` is the index of the
    enclosing span, or -1.  ``complexes`` keeps every pair complex built, so
    that its size is measured after the pass rather than inside a span.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counters: dict[str, float] = {}
        self.complexes: list = []
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(
        self,
        name: str,
        fn: Callable,
        label: Callable | None = None,
        observe: Callable | None = None,
    ) -> Callable:
        """A wrapper recording one span per call.  `label(*args)` appends a
        suffix to the span name; `observe(tracer, args, result)` runs after
        the span has ended."""
        names, start, end, parent, stack = self.name, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter
        span_id = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            names.append(span_id if label is None else self._id(f"{name}.{label(*args, **kwargs)}"))
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in `TRACED` wherever it is bound."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, tuple[object, Callable]] = {}
        for module_name, attrs in TRACED.items():
            module = sys.modules[f"loophom.{module_name}"]
            for attr in attrs:
                span = span_name(module_name, attr)
                extra = HOOKS.get(span, {})
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[method]
                    self._patch(cls, method, self.wrap(span, original, **extra))
                else:
                    original = getattr(module, attr)
                    wrappers[id(original)] = (original, self.wrap(span, original, **extra))
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])

    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._patched.append((owner, attr, getattr(owner, "__dict__")[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus the time covered by
        direct children (spans of one thread never overlap)."""
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        busy: dict[str, float] = {}
        for i, name_id in enumerate(self.name):
            name = self.names[name_id]
            busy[name] = busy.get(name, 0.0) + self.end[i] - self.start[i] - child[i]
        return busy

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for name_id in self.name:
            name = self.names[name_id]
            out[name] = out.get(name, 0) + 1
        return out

    def write_spans(self, path) -> None:
        """Gzipped JSON lines: a header with the span names, then one
        ``[name, start, end, parent]`` array per span."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names, "spans": len(self.start)}) + "\n")
            for row in zip(self.name, self.start, self.end, self.parent):
                fh.write(json.dumps(row) + "\n")


def _homology_degree(cx, d) -> str:
    return f"d{d}"


def _observe_homology(tracer: Tracer, args, result) -> None:
    cx, d = args
    entries = max(cx.rank(d - 1) * cx.rank(d) if d >= 1 else 0, cx.rank(d) * cx.rank(d + 1))
    tracer.counters["homology.max_matrix_entries"] = max(
        tracer.counters.get("homology.max_matrix_entries", 0), entries
    )


def _observe_positivize(tracer: Tracer, args, result) -> None:
    tracer.count("words.positivize.words_out", len(result))


def _observe_shuffle_expand(tracer: Tracer, args, result) -> None:
    tracer.count("transform.shuffle_terms", len(result))


def _observe_complex(tracer: Tracer, args, result) -> None:
    tracer.complexes.append(result)


HOOKS = {
    "homology.homology": {"label": _homology_degree, "observe": _observe_homology},
    "words.positivize": {"observe": _observe_positivize},
    "transform.shuffle_expand": {"observe": _observe_shuffle_expand},
    "wedge.build_pair_complex": {"observe": _observe_complex},
}

HOMOLOGY_DEGREES = range(5)


def complex_sizes(complexes: list) -> dict[str, float]:
    """Cells, boundary nonzeros and their share of the dense entries stored,
    over every pair complex built in the pass."""
    cells = nnz = dense = 0
    for cx in complexes:
        cells += sum(cx.rank(d) for d in range(cx.d_max + 1))
        for d in range(1, cx.d_max + 1):
            dense += cx.rank(d - 1) * cx.rank(d)
            nnz += sum(1 for row in cx.boundary_matrix(d) for x in row if x)
    return {
        "wedge.cells": cells,
        "wedge.boundary_nnz": nnz,
        "wedge.boundary_density": nnz / dense if dense else 0.0,
    }


def hit_ratio(cached) -> float:
    info = cached.cache_info()
    total = info.hits + info.misses
    return info.hits / total if total else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of a traced pass, read after `restore`: self time
    and calls of every module and traced function, counters and cache hit
    ratios.  The caller adds what it measures untraced (tracing overhead,
    per-suite wall time)."""
    busy = tracer.self_times()
    calls = tracer.calls()

    def total(prefix: str, table: dict) -> float:
        return sum(v for k, v in table.items() if k == prefix or k.startswith(prefix + "."))

    out: dict[str, float] = {f"{m}.busy_s": total(m, busy) for m in MODULES}
    for module, attrs in TRACED.items():
        for attr in attrs:
            name = span_name(module, attr)
            out[f"{name}.busy_s"] = total(name, busy)
            out[f"{name}.calls"] = total(name, calls)
    for d in HOMOLOGY_DEGREES:
        out[f"homology.homology.busy_s.d{d}"] = busy.get(f"homology.homology.d{d}", 0.0)
    out["homology.max_matrix_entries"] = tracer.counters.get("homology.max_matrix_entries", 0)
    words_in = out["words.positivize.calls"]
    words_out = tracer.counters.get("words.positivize.words_out", 0)
    out["words.positivize.blowup"] = words_out / words_in if words_in else 0.0
    out["transform.shuffle_terms"] = tracer.counters.get("transform.shuffle_terms", 0)
    out["cli.render.busy_s"] = busy.get("cli.emit", 0.0) + busy.get("cli.emit_to_file_only", 0.0)
    out.update(complex_sizes(tracer.complexes))
    affine = sys.modules["loophom.affine"]
    out["affine.subdivision_piece.hit_ratio"] = hit_ratio(affine.subdivision_piece)
    out["affine.face_map.hit_ratio"] = hit_ratio(affine.face_map)
    return out
