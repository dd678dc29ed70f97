"""Execution tracing: per-dereference event records and overlap analysis.

Figures 5/6 of the paper are *timelines*: the whole point of SMPE is that
dereference operations overlap massively instead of running back-to-back.
With ``EngineConfig(trace=True)`` the engines record one
:class:`TraceEvent` per dereference IO (virtual start/end time, node,
stage, partition, result count), and this module provides the analysis
used by tests, benchmarks, and the timeline example:

* :func:`max_overlap` — peak number of concurrent dereferences;
* :func:`concurrency_timeline` — binned concurrency series for plotting;
* :func:`stage_spans` — per-stage first-start/last-end, showing pipeline
  overlap between stages (stage N starts long before stage N-1 ends).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = ["TraceEvent", "max_overlap", "concurrency_timeline",
           "stage_spans", "render_timeline"]


@dataclass(frozen=True)
class TraceEvent:
    """One dereference IO (or fault/retry occurrence), in virtual time.

    ``kind`` is ``"deref"`` for ordinary dereference IOs; the resilience
    layer appends zero-duration markers with kinds like
    ``"fault:transient-io"``, ``"fault:timeout"``, ``"fault:node-crash"``,
    and ``"retry"`` so fault timelines can be analysed next to the IO
    timeline they perturb.
    """

    stage: int
    node: int
    partition: int
    owner_node: int
    num_records: int
    start: float
    end: float
    kind: str = "deref"
    #: buffer-pool pages served from RAM during this dereference
    cache_hits: int = 0
    #: buffer-pool pages that had to go to disk during this dereference
    cache_misses: int = 0
    #: probes dispatched in this event (1 on the per-record path; >1 when
    #: the batched funnel grouped same-(file, partition) targets)
    batch_size: int = 1


def max_overlap(events: Iterable[TraceEvent]) -> int:
    """Peak number of simultaneously in-flight dereferences."""
    boundaries: list[tuple[float, int]] = []
    for event in events:
        boundaries.append((event.start, 1))
        boundaries.append((event.end, -1))
    # Ends sort before starts at the same instant (-1 < 1), so touching
    # intervals do not count as overlapping.
    boundaries.sort()
    current = peak = 0
    for __, delta in boundaries:
        current += delta
        peak = max(peak, current)
    return peak


def concurrency_timeline(events: Sequence[TraceEvent],
                         num_bins: int = 40) -> list[tuple[float, float]]:
    """``(bin_start_time, mean_concurrency)`` pairs across the run."""
    if not events:
        return []
    start = min(e.start for e in events)
    end = max(e.end for e in events)
    if end <= start:
        return [(start, float(len(events)))]
    width = (end - start) / num_bins
    bins = [0.0] * num_bins
    for event in events:
        first = int((event.start - start) / width)
        last = min(num_bins - 1, int((event.end - start) / width))
        for b in range(first, last + 1):
            bin_start = start + b * width
            bin_end = bin_start + width
            covered = min(event.end, bin_end) - max(event.start, bin_start)
            if covered > 0:
                bins[b] += covered / width
    return [(start + b * width, bins[b]) for b in range(num_bins)]


def stage_spans(events: Iterable[TraceEvent]
                ) -> dict[int, tuple[float, float]]:
    """Per stage: (first start, last end) — adjacent spans overlapping is
    the pipeline parallelism of the Fig. 6 execution model."""
    spans: dict[int, tuple[float, float]] = {}
    for event in events:
        if event.stage in spans:
            lo, hi = spans[event.stage]
            spans[event.stage] = (min(lo, event.start),
                                  max(hi, event.end))
        else:
            spans[event.stage] = (event.start, event.end)
    return spans


def render_timeline(events: Sequence[TraceEvent], num_bins: int = 40,
                    width: int = 50) -> str:
    """ASCII concurrency chart (one row per bin) for terminal output."""
    timeline = concurrency_timeline(events, num_bins=num_bins)
    if not timeline:
        return "(no events)"
    peak = max(concurrency for __, concurrency in timeline) or 1.0
    lines = []
    for bin_start, concurrency in timeline:
        bar = "#" * max(0, round(concurrency / peak * width))
        lines.append(f"{bin_start * 1e3:9.2f}ms |{bar:<{width}}| "
                     f"{concurrency:6.1f}")
    lines.append(f"{'':>11} peak concurrency: {max_overlap(events)} "
                 f"in-flight dereferences")
    return "\n".join(lines)
