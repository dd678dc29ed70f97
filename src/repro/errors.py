"""Exception hierarchy for the repro package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch a single base class.  Sub-hierarchies
mirror the package layout: simulation, storage, core (job definition), and
engine (execution) errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SimulationError(ReproError):
    """Base class for discrete-event simulator errors."""


class SimulationDeadlock(SimulationError):
    """Raised when ``run()`` is asked to wait on an event that can never fire.

    The event heap drained while at least one process was still waiting; with
    no external event sources, simulated time can no longer advance.
    """


class StorageError(ReproError):
    """Base class for storage-layer errors."""


class PartitionError(StorageError):
    """A partition id or partition key was invalid for the target file."""


class RecordNotFound(StorageError):
    """A pointer did not resolve to a record."""


class CatalogError(ReproError):
    """Base class for structure-catalog errors."""


class UnknownStructure(CatalogError):
    """A structure (file or index) name was not found in the catalog."""


class AccessMethodError(CatalogError):
    """An access-method definition was malformed or conflicted with another."""


class JobDefinitionError(ReproError):
    """A Reference-Dereference job failed validation.

    Raised when the function list does not alternate sensibly, references an
    unknown structure, or has mismatched stage wiring.
    """


class ExecutionError(ReproError):
    """A job failed while executing on one of the engines."""


class FaultError(ReproError):
    """Base class for simulated infrastructure faults.

    Raised by the hardware substrate when a :class:`~repro.cluster.faults.
    FaultPlan` is active; the engines' resilience layer catches these and
    applies the configured ``on_error`` policy.  User-code errors never
    derive from this class, so fault handling cannot mask application bugs.
    """


class TransientIOError(FaultError):
    """A disk read or network message failed transiently (retryable)."""


class DereferenceTimeout(TransientIOError):
    """A dereference invocation exceeded ``EngineConfig.dereference_timeout``.

    Treated as a transient fault: the invocation is abandoned and retried
    (the straggler-mitigation path for slow disks).
    """


class NodeCrashed(FaultError):
    """An operation touched a node that has permanently crashed.

    Carries the dead node's id so recovery can re-route to a survivor.
    """

    def __init__(self, message: str, node: int = -1) -> None:
        super().__init__(message)
        self.node = node


class StructureCorruptionError(FaultError):
    """A probe read a structure page whose checksum did not verify.

    Deliberately *not* a :class:`TransientIOError`: re-reading a corrupt
    page cannot fix it, so the retry/backoff path never sees this.  The
    engines' recovery layer quarantines the structure and re-serves the
    stage from a base-file scan instead.  Carries the structure name and
    the failing page identity (a :class:`~repro.storage.cache.PageId`).
    """

    def __init__(self, message: str, structure: str = "",
                 page: object = None) -> None:
        super().__init__(message)
        self.structure = structure
        self.page = page


class JobAborted(ExecutionError):
    """A job was aborted mid-run by the failure policy.

    The triggering fault is chained as ``__cause__``.
    """


class DataGenerationError(ReproError):
    """A synthetic dataset generator received inconsistent parameters."""
