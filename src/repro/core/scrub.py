"""Online structure scrubbing: sampled integrity verification and repair.

The lifecycle work (:mod:`repro.core.catalog`) makes structure *health*
first-class metadata; this module supplies the background process that
keeps it honest.  A :class:`ScrubWorker` periodically walks the catalog's
access methods and, for each ``READY`` structure:

* samples its pages (every ``sample_every``-th page of every partition,
  in deterministic enumeration order) and verifies their checksums,
  paying one random read plus checksum CPU per sampled page on the page's
  home node — scrubbing is an ordinary background job that competes for
  the same simulated disks as queries;
* on a checksum failure, runs the targeted verification pass: every
  partition's B-tree is checked against its structural invariants
  (:meth:`~repro.storage.btree.BPlusTree.check_invariants`) and a sample
  of index entries is dereferenced against the base file to confirm each
  entry still points at the record that produced it (index-vs-base
  verification, charged as random reads on the base file's nodes);
* demotes failing structures (``READY -> DEGRADED``) and schedules
  repair: a checkpointed rebuild from the base file (charged through
  :meth:`~repro.core.maintenance.MaintenanceWorker.build_job`), cache
  invalidation, and — because a rewrite replaces the sick pages —
  clearing the structure's corruption verdicts in the fault injector.

Structures already ``DEGRADED`` or ``QUARANTINED`` (demoted by an earlier
scrub, or withdrawn mid-query by the engines' recovery path) skip the
sampling and go straight to repair.  With zero injected corruption a
scrub pass finds nothing, demotes nothing, and repairs nothing — its only
effect is its own IO, which is exactly the "scrub overhead" the extension
benchmark measures.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.catalog import StructureCatalog, StructureState
from repro.core.maintenance import MaintenanceWorker
from repro.errors import StorageError
from repro.storage.cache import PageId
from repro.storage.files import (BtreeFile, TARGET_KEY_FIELD,
                                 TARGET_PARTITION_FIELD)

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.cluster.cluster import Cluster

__all__ = ["ScrubFinding", "ScrubReport", "ScrubWorker"]

logger = logging.getLogger("repro.scrub")

#: the states a repair rebuilds from
_SICK = (StructureState.DEGRADED, StructureState.QUARANTINED)


@dataclass(frozen=True)
class ScrubFinding:
    """One page whose checksum failed to verify."""

    structure: str
    page: PageId


@dataclass
class ScrubReport:
    """What one scrub pass saw, demoted, and repaired."""

    structures_checked: int = 0
    pages_checked: int = 0
    entries_verified: int = 0
    findings: list[ScrubFinding] = field(default_factory=list)
    demoted: list[str] = field(default_factory=list)
    repaired: list[str] = field(default_factory=list)
    scrub_seconds: float = 0.0
    repair_seconds: float = 0.0

    @property
    def clean(self) -> bool:
        """True when no structure needed demotion or repair."""
        return not self.findings and not self.demoted and not self.repaired

    def render(self) -> str:
        lines = [
            f"ScrubReport: {self.structures_checked} structure"
            f"{'s' if self.structures_checked != 1 else ''} checked, "
            f"{self.pages_checked} pages sampled, "
            f"{self.entries_verified} entries verified "
            f"({self.scrub_seconds * 1e3:.2f}ms scrub, "
            f"{self.repair_seconds * 1e3:.2f}ms repair)"]
        if self.clean:
            lines.append("  all structures clean")
            return "\n".join(lines)
        for finding in self.findings:
            p = finding.page
            lines.append(
                f"  corrupt: {finding.structure} partition {p.partition} "
                f"{p.page_kind} page {p.page_no}")
        if self.demoted:
            lines.append(f"  demoted: {', '.join(self.demoted)}")
        if self.repaired:
            lines.append(f"  repaired: {', '.join(self.repaired)}")
        return "\n".join(lines)


class ScrubWorker:
    """Background integrity scrubber over a catalog's access methods.

    ``sample_every=1`` reads every page (a full scrub); larger values
    trade detection latency for IO.  ``verify_samples`` bounds the
    per-partition index-vs-base verification once a structure is suspect.
    Scrub and repair each run as one process generator
    (:meth:`scrub_job`, :meth:`repair_job`): :meth:`run_once` and
    :meth:`repair` drive them on a fresh time window, the serving
    gateway's background lane runs them on the shared timeline.
    """

    def __init__(self, catalog: StructureCatalog, cluster: "Cluster",
                 sample_every: int = 1,
                 verify_samples: int = 32) -> None:
        if sample_every < 1:
            raise StorageError("sample_every must be >= 1")
        self.catalog = catalog
        self.cluster = cluster
        self.sample_every = sample_every
        self.verify_samples = verify_samples
        self._maintenance = MaintenanceWorker(catalog, cluster)

    # -- one pass ---------------------------------------------------------

    def run_once(self, repair: bool = True) -> ScrubReport:
        """Scrub every access method once; optionally repair what fails."""
        report = ScrubReport()
        needs_repair: list[str] = []
        for name in self.catalog.access_methods():
            state = self.catalog.state(name)
            if state is StructureState.READY:
                self.cluster.run_job(self.scrub_job(name, report),
                                     name=f"scrub:{name}")
                state = self.catalog.state(name)
            if state in _SICK:
                needs_repair.append(name)
        if repair:
            for name in needs_repair:
                report.repair_seconds += self.repair(name)
                report.repaired.append(name)
        return report

    def repair(self, name: str) -> float:
        """Run :meth:`repair_job` on a fresh time window; returns its
        simulated seconds."""
        __, elapsed = self.cluster.run_job(self.repair_job(name),
                                           name=f"repair:{name}")
        return elapsed

    def _sampled_pages(self, file: BtreeFile
                       ) -> tuple[list[PageId], dict[int, int]]:
        """The pages one scrub pass samples, plus their per-node counts."""
        sampled: list[PageId] = []
        for pid in range(file.num_partitions):
            pages = file.partition_page_ids(pid)
            sampled.extend(pages[::self.sample_every])
        per_node: dict[int, int] = {}
        for page in sampled:
            home = file.node_of(page.partition)
            per_node[home] = per_node.get(home, 0) + 1
        return sampled, per_node

    def _findings(self, name: str, file: BtreeFile,
                  sampled: list[PageId]) -> list[ScrubFinding]:
        """Checksum verdicts for the sampled pages."""
        injector = self.cluster.faults
        if injector is None:
            return []
        return [ScrubFinding(name, page) for page in sampled
                if injector.page_corrupt(file.node_of(page.partition),
                                         page)]

    def _verify_entries(self, name: str, file: BtreeFile,
                        report: ScrubReport) -> dict[int, int]:
        """Targeted verification of a suspect structure: B-tree invariants
        plus sampled index-vs-base checks.  Returns the per-node random
        reads the pass owes (base-record fetches), for the caller to
        charge."""
        definition = self.catalog.definition(name)
        base = self.catalog.dfs.get_base(definition.base_file)
        per_node: dict[int, int] = {}
        for pid in range(file.num_partitions):
            tree = file.trees[pid]
            tree.check_invariants()
            verified = 0
            for index_key, entry in tree.items():
                if verified >= self.verify_samples:
                    break
                verified += 1
                target_pid = base.partition_of_key(
                    entry.get(TARGET_PARTITION_FIELD))
                record = base.partitions[target_pid].get(
                    entry.get(TARGET_KEY_FIELD))
                if index_key not in definition.extract_keys(record):
                    raise StorageError(
                        f"index {name!r} entry for key {index_key!r} does "
                        "not match its base record")
                home = base.node_of(target_pid)
                per_node[home] = per_node.get(home, 0) + 1
            report.entries_verified += verified
        return per_node

    # -- the process generators -------------------------------------------

    def scrub_job(self, name: str, report: ScrubReport):
        """Process generator: scrub one structure; a no-op unless it is
        ``READY``.

        Samples the structure's pages and, on checksum failures, runs the
        targeted verification pass and demotes it.  Repair is a separate
        job (:meth:`repair_job`), so the gateway's scheduler can
        interleave interactive work between detection and the much
        costlier rebuild.
        """
        if self.catalog.state(name) is not StructureState.READY:
            return
        sim = self.cluster.sim
        file = self.catalog.dfs.get_index(name)
        report.structures_checked += 1
        sampled, per_node = self._sampled_pages(file)
        report.pages_checked += len(sampled)
        start = sim.now
        if per_node:
            yield from self._page_read_job(per_node)
        findings = self._findings(name, file, sampled)
        if findings:
            report.findings.extend(findings)
            verify_nodes = self._verify_entries(name, file, report)
            if verify_nodes:
                yield from self._page_read_job(verify_nodes)
            self.catalog.demote(name)
            report.demoted.append(name)
        report.scrub_seconds += sim.now - start

    def repair_job(self, name: str):
        """Process generator: rebuild one sick structure from its base
        file; a no-op unless it is ``DEGRADED`` or ``QUARANTINED``.

        Pays the checkpointed build, rebuilds through the catalog
        (``-> PENDING -> READY``), drops the structure's cached pages, and
        clears its corruption verdicts in the injector — a rewrite
        replaces the bad pages, so subsequent reads verify clean.
        """
        if self.catalog.state(name) not in _SICK:
            return
        sim = self.cluster.sim
        start = sim.now
        yield from self._maintenance.build_job(name)
        self.catalog.rebuild(name)
        self.cluster.invalidate_cached_file(name)
        if self.cluster.faults is not None:
            self.cluster.faults.repair_file(name)
        logger.info("repaired structure %r in %.4fs simulated", name,
                    sim.now - start)

    def _page_read_job(self, per_node: dict[int, int]):
        """Process generator: ``per_node`` random reads + checksum CPU,
        each node's share in parallel."""
        cluster = self.cluster

        def node_scrub(node_id: int, pages: int):
            node = cluster.node(cluster.serving_node(node_id))
            for __ in range(pages):
                yield from node.disk.random_read()
            yield from node.process_tuples(pages)

        procs = [cluster.launch(node_scrub(n, p), name=f"scrub@{n}")
                 for n, p in sorted(per_node.items())]
        yield cluster.sim.all_of(procs)
