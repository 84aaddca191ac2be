"""Span tracer for the traced benchmark run.

The engine has no instrumentation of its own.  The tracer replaces the
public functions it names, as bound in each consumer module's namespace,
with wrappers that record a span (name, start, end, parent) and restores
the originals on exit.  Spans stay in memory until the run ends.

A function a later version of the engine no longer has is listed in
`absent` instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from time import perf_counter

# Modules whose global names the engine resolves at call time.
CONSUMERS = (
    "mompoly.cli",
    "mompoly.census",
    "mompoly.report",
    "mompoly.kaehler",
    "mompoly.difftype",
    "mompoly.classify",
    "mompoly.polygon",
)

# (owner module, function, span name).  A span is named after the module
# that owns the function, whichever module calls it.
TARGETS = (
    ("mompoly.cli", "main", "cli.main"),
    ("mompoly.census", "run_census", "census.run_census"),
    ("mompoly.census", "enumerate_triangles", "census.enumerate"),
    ("mompoly.census", "enumerate_convex", "census.enumerate"),
    ("mompoly.census", "classify_item", "census.classify_item"),
    ("mompoly.polygon", "convex_hull", "polygon.convex_hull"),
    ("mompoly.lattice", "primitive_ray", "lattice.primitive_ray"),
    ("mompoly.classify", "check_momentum_polytope", "classify.check"),
    ("mompoly.classify", "classify_triangle", "classify.classify_triangle"),
    ("mompoly.classify", "manifold_model", "classify.manifold_model"),
    ("mompoly.difftype", "diffeo_type", "difftype.diffeo_type"),
    ("mompoly.difftype", "chern_mod3_at_vertex", "difftype.chern_mod3"),
    ("mompoly.kaehler", "is_kaehlerizable", "kaehler.is_kaehlerizable"),
    ("mompoly.kaehler", "fixpoint_images", "kaehler.fixpoint_images"),
    ("mompoly.kaehler", "fixpoint_boundary_check", "kaehler.fixpoint_boundary_check"),
    ("mompoly.kaehler", "atiyah_cross_check", "kaehler.atiyah_cross_check"),
    ("mompoly.kaehler", "build_xray", "kaehler.build_xray"),
    ("mompoly.report", "parse_polytope_document", "report.parse"),
    ("mompoly.report", "full_report", "report.full_report"),
    ("mompoly.report", "render_document", "report.render"),
)

# Generator functions: each step of the iteration is one span.
GENERATORS = {"census.enumerate"}

# The per-item callback that `cli` hands to `run_census`; it is cli code
# (JSONL serialization) running inside the census loop.
CALLBACK_SPAN = "cli.on_item"


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ModuleNotFoundError:
        return None


class Tracer:
    """Records nested spans while installed (use as a context manager)."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.absent: list[str] = []
        self.candidates = 0  # items the enumeration generators yielded

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record one span around a block; yields the span's index."""
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        if name in GENERATORS:
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = self._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    self.candidates += 1
                    yield item

            return traced_gen

        wrap_callback = name == "census.run_census"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if wrap_callback and kwargs.get("on_item") is not None:
                kwargs["on_item"] = self._wrap(CALLBACK_SPAN, kwargs["on_item"])
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    # -- installation ----------------------------------------------------

    def __enter__(self):
        consumers = [m for m in map(_module, CONSUMERS) if m is not None]
        for owner_name, attr, span_name in TARGETS:
            original = getattr(_module(owner_name), attr, None)
            if original is None:
                self.absent.append(f"{owner_name}.{attr}")
                continue
            wrapper = self._wrap(span_name, original)
            for mod in consumers:
                if mod.__dict__.get(attr) is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()
        return False

    # -- analysis --------------------------------------------------------

    def aggregate(self, root: int) -> dict:
        """Per span name, over the spans below `root`: calls, inclusive
        seconds (outermost spans of that name only) and self seconds."""
        n = len(self.names)
        child = [0.0] * n
        inside = [False] * n  # below root
        inside[root] = True
        for i in range(root + 1, n):
            p = self.parents[i]
            if p >= 0 and inside[p]:
                inside[i] = True
                child[p] += self.ends[i] - self.starts[i]
        out: dict[str, dict] = {}
        for i in range(root + 1, n):
            if not inside[i]:
                continue
            name = self.names[i]
            dur = self.ends[i] - self.starts[i]
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += dur - child[i]
            p = self.parents[i]
            while p != root and self.names[p] != name:
                p = self.parents[p]
            if p == root:
                row["s"] += dur
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines: a header with the span names, then
        one [name index, start ns, end ns, parent index] per span, in start
        order, with times counted from the first span's start."""
        index = {name: i for i, name in enumerate(dict.fromkeys(self.names))}
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": list(index)}) + "\n")
            for name, start, end, parent in zip(self.names, self.starts, self.ends, self.parents):
                fh.write(f"[{index[name]},{round((start - origin) * 1e9)},"
                         f"{round((end - origin) * 1e9)},{parent}]\n")
