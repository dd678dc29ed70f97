"""Property: folding job metrics is order- and grouping-free.

``ExecutionMetrics.merge`` folds one job's metrics into another under the
rule each field declares.  Folding N random jobs into an empty ledger
must give the same ledger for any order of the jobs and any grouping of
the folds (the gateway folds per tenant, then across tenants), and that
ledger must equal an oracle written out field by field below.  Floats are
drawn as dyadic rationals with few bits, so every sum is exact and the
summation order cannot change a bit.
"""

from collections import Counter
from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.metrics import ExecutionMetrics

#: fields the oracle sums, by name
SUMMED = (
    "record_accesses", "index_entry_accesses", "base_record_accesses",
    "random_reads", "cache_hits", "cache_misses", "scan_stage_builds",
    "scan_stage_bytes", "remote_fetches", "bytes_transferred",
    "elapsed_seconds", "transient_faults", "timeouts", "retries",
    "reroutes", "tasks_skipped", "corruptions_detected", "quarantines",
    "corruption_fallbacks", "delta_probes", "delta_run_reads",
    "delta_entries", "delta_superseded", "result_cache_hits",
    "scan_table_cache_hits", "batches", "batched_probes",
    "batched_capacity",
)
COUNTERS = ("stage_invocations", "stage_record_accesses")
#: per-job peaks and counts of shared events: the largest one job saw
MAXED = ("peak_parallelism", "node_crashes")
#: never folded: the ledger keeps its own (empty) value
PER_JOB = ("disk_utilization", "trace")
OPTIONAL = ("freshness_watermark", "placement_epoch")

dyadic = st.integers(0, 1 << 20).map(lambda n: n / 1024)
counters = st.dictionaries(st.integers(0, 6), st.integers(1, 1000),
                           max_size=4).map(Counter)


def values_for(f) -> st.SearchStrategy:
    if f.name in COUNTERS:
        return counters
    if f.name == "freshness_watermark":
        return st.none() | dyadic
    if f.name == "placement_epoch":
        return st.none() | st.integers(0, 50)
    if f.name == "trace":
        return st.none() | st.lists(st.integers(), max_size=2)
    if isinstance(f.default, float):
        return dyadic
    return st.integers(0, 10 ** 6)


@st.composite
def job_metrics(draw) -> ExecutionMetrics:
    metrics = ExecutionMetrics()
    for f in fields(ExecutionMetrics):
        setattr(metrics, f.name, draw(values_for(f)))
    return metrics


def fold(jobs) -> ExecutionMetrics:
    total = ExecutionMetrics()
    for job in jobs:
        total.merge(job)
    return total


def oracle(jobs) -> ExecutionMetrics:
    total = ExecutionMetrics()
    for name in SUMMED:
        setattr(total, name, sum(getattr(job, name) for job in jobs))
    for name in COUNTERS:
        setattr(total, name, sum((getattr(job, name) for job in jobs),
                                 Counter()))
    for name in MAXED:
        setattr(total, name, max((getattr(job, name) for job in jobs),
                                 default=0))
    epochs = [job.placement_epoch for job in jobs
              if job.placement_epoch is not None]
    total.placement_epoch = max(epochs, default=None)
    watermarks = [job.freshness_watermark for job in jobs
                  if job.freshness_watermark is not None]
    total.freshness_watermark = min(watermarks, default=None)
    return total


def test_the_oracle_names_every_field():
    named = set(SUMMED + COUNTERS + MAXED + PER_JOB + OPTIONAL)
    assert named == {f.name for f in fields(ExecutionMetrics)}


@settings(max_examples=200)
@given(jobs=st.lists(job_metrics(), max_size=8), data=st.data())
def test_fold_is_order_and_grouping_free(jobs, data):
    expected = oracle(jobs)
    assert fold(jobs) == expected
    order = data.draw(st.permutations(range(len(jobs))))
    shuffled = [jobs[i] for i in order]
    cuts = sorted(data.draw(st.lists(st.integers(0, len(jobs)),
                                     max_size=3)))
    bounds = [0, *cuts, len(jobs)]
    groups = [fold(shuffled[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    assert fold(groups) == expected
    assert fold(groups).summary() == expected.summary()
