"""Per-layer attribution for the traced run: harness spans and a
``cProfile`` pass bucketed by ``repro`` package.

Both live in the benchmark's own files: spans wrap the calls *into* each
layer, and the profile is read from outside.  Nothing under ``src/`` is
instrumented, so the untraced run — the one every end-to-end number
comes from — executes exactly the code a user runs.
"""

from __future__ import annotations

import contextlib
import cProfile
import time
from typing import Optional

from repro.core import StructureCatalog
from repro.datagen import TpchGenerator

__all__ = ["LAYERS", "Span", "Tracer", "profile_layers"]

#: ``src/repro`` packages; ``python`` is everything else the round runs —
#: the stdlib, this harness, and repro's workload-definition packages
#: (``queries``, ``datagen``) and top-level modules
LAYERS = ("cluster", "engine", "storage", "core", "plan", "service",
          "ingest", "baselines", "python")


class Span:
    """One timed interval: id, parent id, name, start, end."""

    __slots__ = ("id", "parent", "name", "start", "end")

    def __init__(self, span_id: int, parent: Optional[int],
                 name: str) -> None:
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end}


class Tracer:
    """Collects spans in memory; the runner writes them out at exit.

    ``record=False`` (the untraced run) still times each span, because
    set-up and reset durations are reported either way, but keeps
    nothing.
    """

    def __init__(self, record: bool) -> None:
        self.record = record
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0

    @contextlib.contextmanager
    def span(self, name: str):
        self._next_id += 1
        span = Span(self._next_id,
                    self._stack[-1] if self._stack else None, name)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = time.perf_counter()
            if self.record:
                self.spans.append(span)

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)

    @contextlib.contextmanager
    def setup_spans(self):
        """Span the two layer calls ``TpchWorkload.__init__`` fuses.

        The constructor generates the tables and builds every structure
        in one call, so the boundary between ``datagen`` and ``core`` is
        inside it.  While recording, the two public methods at that
        boundary are wrapped to open a span each; the wrappers come off
        again before any round runs.
        """
        if not self.record:
            yield
            return
        with self._spanned(TpchGenerator, "generate_all", "setup.datagen"), \
                self._spanned(StructureCatalog, "build_all",
                              "setup.build_structures"):
            yield

    @contextlib.contextmanager
    def _spanned(self, cls, method: str, name: str):
        original = getattr(cls, method)
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        setattr(cls, method, wrapper)
        try:
            yield
        finally:
            setattr(cls, method, original)


def _layer_of(filename: str) -> str:
    marker = "/repro/"
    at = filename.rfind(marker)
    if at < 0:
        return "python"
    package = filename[at + len(marker):].split("/", 1)[0]
    return package if package in LAYERS else "python"


def profile_layers(profile: cProfile.Profile) -> tuple[dict, int, int]:
    """Bucket a finished profile's self time by layer.

    A built-in's self time (``heappush``, ``dict.get``...) is charged to
    the layer of the Python function that called it, so the kernel's heap
    operations count as ``cluster`` and not as ``python``.

    Returns ``(seconds by layer, Simulator.step calls, access-funnel
    *dereference* calls)``.
    """
    seconds = dict.fromkeys(LAYERS, 0.0)
    steps = funnel_calls = 0
    for entry in profile.getstats():
        code = entry.code
        if isinstance(code, str):
            continue  # charged through its callers below
        layer = _layer_of(code.co_filename)
        seconds[layer] += entry.inlinetime
        for call in entry.calls or ():
            if isinstance(call.code, str):
                seconds[layer] += call.inlinetime
        if layer == "cluster" and code.co_name == "step" \
                and code.co_filename.endswith("simulation.py"):
            steps += entry.callcount
        if "dereference" in code.co_name \
                and code.co_filename.endswith("engine/access.py"):
            funnel_calls += entry.callcount
    return seconds, steps, funnel_calls
