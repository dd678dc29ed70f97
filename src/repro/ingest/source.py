"""Arrival processes and micro-batch streams for the ingest path.

Everything runs on *simulated* time and seeded RNGs: an arrival process
is an iterator of gap seconds, and the driver (CLI, benchmark, or test)
decides what to do with the gaps — usually sleep them on the cluster's
event loop, then hand a :class:`MicroBatch` to the
:class:`~repro.ingest.coordinator.IngestCoordinator`.

Two arrival shapes cover the experiments:

* :func:`poisson_gaps` — open-loop Poisson arrivals, the steady-state
  regime of the serving benchmarks;
* :func:`bursty_gaps` — on/off modulated Poisson (duty-cycled), the
  "sensor feed uploads every few minutes" regime of the civic-lake
  workload this PR mines for its third dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.core.records import Record
from repro.datagen.rng import make_rng

__all__ = ["MicroBatch", "poisson_gaps", "bursty_gaps"]


@dataclass
class MicroBatch:
    """One atomic unit of ingest: appends and upserts for one base file.

    Attributes:
        file_name: the base file the batch lands in.
        appends: brand-new records.
        upserts: replacement versions — each supersedes every record
            sharing its in-partition key (newest wins).
        event_time: the batch's event-time high mark; drives the
            freshness watermark.
        late_count: records the source knows arrived late (event time
            at or below the watermark of their emission).
    """

    file_name: str
    appends: list[Record] = field(default_factory=list)
    upserts: list[Record] = field(default_factory=list)
    event_time: float = 0.0
    late_count: int = 0

    def __len__(self) -> int:
        return len(self.appends) + len(self.upserts)


def poisson_gaps(rate: float, duration: float, seed: int = 0,
                 stream: str = "ingest") -> Iterator[float]:
    """Exponential inter-arrival gaps at ``rate``/s for ``duration``s."""
    if rate <= 0:
        return
    rng = make_rng(seed, stream)
    elapsed = 0.0
    while True:
        gap = rng.expovariate(rate)
        elapsed += gap
        if elapsed > duration:
            return
        yield gap


def bursty_gaps(rate: float, duration: float, seed: int = 0, *,
                period: float = 60.0, duty: float = 0.25,
                burst_factor: float = 8.0,
                stream: str = "ingest-burst") -> Iterator[float]:
    """On/off modulated Poisson arrivals.

    Each ``period`` splits into a burst window (fraction ``duty``, rate
    ``rate * burst_factor``) and a quiet window (rate scaled down so the
    long-run average stays ``rate``).  Sensor fleets upload this way:
    synchronized bursts on the five-minute mark, near silence between.
    """
    if rate <= 0:
        return
    rng = make_rng(seed, stream)
    quiet_scale = max(1e-9, (1.0 - duty * burst_factor) / (1.0 - duty))
    elapsed = 0.0
    while True:
        phase = elapsed % period
        current = (rate * burst_factor if phase < period * duty
                   else rate * quiet_scale)
        gap = rng.expovariate(current)
        elapsed += gap
        if elapsed > duration:
            return
        yield gap
