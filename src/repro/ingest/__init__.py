"""Streaming ingestion: delta segments, compaction, freshness.

The load-once lake becomes continuously fed: micro-batches of
appends/upserts arrive on simulated time (:mod:`repro.ingest.source`),
the :class:`~repro.ingest.coordinator.IngestCoordinator` commits them
as sorted delta runs (:mod:`repro.ingest.delta`) registered in the
catalog, queries probe base structures *plus* unmerged deltas with
newest-wins upsert semantics, and tiered background compaction
(:mod:`repro.ingest.compaction`) folds deltas back so the lake
converges to its static, bit-identical self.  Every job reports the
freshness watermark (:mod:`repro.ingest.watermark`) it observed.

Layering: ingest sits beside ``core``/``storage``/``cluster`` (like
``core.maintenance``, it yields simulated events but never imports the
engines or the service layer); the engines consume delta runs through
the catalog, and the service layer wraps ingest work in background-lane
adapters.
"""

from repro.ingest.compaction import CompactionPolicy, Compactor
from repro.ingest.coordinator import IngestBatch, IngestCoordinator
from repro.ingest.delta import DeltaRegistry, DeltaRun
from repro.ingest.source import (
    MicroBatch,
    bursty_gaps,
    poisson_gaps,
)
from repro.ingest.watermark import FreshnessWatermark

__all__ = [
    "CompactionPolicy",
    "Compactor",
    "DeltaRegistry",
    "DeltaRun",
    "FreshnessWatermark",
    "IngestBatch",
    "IngestCoordinator",
    "MicroBatch",
    "bursty_gaps",
    "poisson_gaps",
]
