"""The frozen executor-backend protocol behind every sweep.

:class:`ExecutorBackend` is the seam between
:func:`repro.perf.backends.map_sweep`, which plans a sweep
(:func:`plan_jobs`), and the executor that runs it: the serial
in-process backend or the local process pool.  The protocol is
deliberately tiny and **frozen** — exactly three methods, pinned by
``tests/perf/test_backends.py``:

``submit_map(fn, work, *, n_jobs, star, chunksize)``
    Execute *fn* over the already-planned *work* items on *n_jobs*
    workers and return results **in input order**.  Bit-identity is
    part of the contract: a backend may change wall-clock time and
    scheduling, never values.  A backend that cannot run (no fork
    support, unpicklable work) raises; a backend whose workers died
    mid-task raises :class:`PoolBrokenError` after reaping the pool —
    either way the orchestrator degrades to the serial path and
    records why in :class:`MapInfo`.

``shutdown()``
    Release worker processes and any per-backend state.  Idempotent;
    also registered via ``atexit`` so abandoned pools never outlive
    the interpreter.

``describe()``
    One human-readable line for report notes.

:class:`MapInfo` (how the most recent sweep actually executed) and
:func:`plan_jobs` (the serial-fallback policy) live here too because
both backends share them.
"""

from __future__ import annotations

import abc
import os
from dataclasses import dataclass
from typing import Callable, Sequence

from repro import config

#: Below this many grid points per worker, pool start-up + IPC beat the
#: win from parallelism (BENCH_perf.json showed 0.98x on an 18-point
#: grid with a fresh pool); the planner shrinks the pool or goes serial.
MIN_ITEMS_PER_JOB = 4

#: Auto chunking aims for this many chunks per worker: big enough to
#: amortise per-task pickling, small enough to keep workers balanced.
CHUNK_WAVES = 4

_validate_jobs = config.validate_jobs


class PoolBrokenError(RuntimeError):
    """A worker process died mid-task and the pool has been reaped.

    Raised by backends *after* tearing the broken pool down, so the
    orchestrator can degrade to the serial path with a recorded reason
    and the next sweep starts from a fresh pool instead of retrying
    into a hung executor.
    """


def set_default_jobs(jobs: int | None) -> None:
    """Set the process-wide default worker count (None = env/serial)."""
    config.set_jobs(jobs)


def default_jobs() -> int:
    """Resolve the default worker count (explicit > REPRO_JOBS > 1).

    A malformed ``REPRO_JOBS`` raises :class:`ConfigError` instead of
    being silently coerced: a user who exported it wanted parallelism,
    and quietly running serial hides the typo.
    """
    return config.jobs()


@dataclass(frozen=True)
class MapInfo:
    """How the most recent :func:`map_sweep` actually executed."""

    mode: str                   # "serial" | "parallel"
    reason: str | None          # why serial (None when parallel)
    jobs_requested: int
    jobs_used: int
    items: int
    chunk_size: int | None      # None on the serial path
    backend: str = "serial"     # which ExecutorBackend ran the sweep

    def as_dict(self) -> dict:
        return {"mode": self.mode, "reason": self.reason,
                "jobs_requested": self.jobs_requested,
                "jobs_used": self.jobs_used, "items": self.items,
                "chunk_size": self.chunk_size, "backend": self.backend}

    def describe(self) -> str:
        """Human-readable one-liner for report notes and benchmarks."""
        if self.mode == "serial":
            return f"sweep ran serially ({self.reason})"
        tag = "" if self.backend == "serial" else \
            f" [{self.backend} backend]"
        return (f"sweep ran on {self.jobs_used} workers, chunk size "
                f"{self.chunk_size}{tag}")


def plan_jobs(n_items: int, jobs: int | None = None, *,
              oversubscribe: bool = False) -> tuple[int, str | None]:
    """Decide how a sweep of *n_items* should execute.

    Returns ``(worker_count, reason)``: 1 worker means serial, and
    *reason* says why.  ``oversubscribe=True`` skips the single-CPU
    check (tests exercise the pool protocol on one-core machines).
    """
    n_jobs = default_jobs() if jobs is None else _validate_jobs(
        jobs, "jobs")
    if n_jobs <= 1:
        return 1, "serial requested (jobs=1)"
    if n_items <= 1:
        return 1, f"{n_items} grid point(s): nothing to fan out"
    if not oversubscribe and (os.cpu_count() or 1) == 1:
        return 1, "single CPU: worker processes cannot run concurrently"
    fitting = n_items // MIN_ITEMS_PER_JOB
    if fitting <= 1:
        return 1, (f"{n_items} points across {n_jobs} workers is below "
                   f"the {MIN_ITEMS_PER_JOB}-points-per-worker "
                   "threshold")
    return min(n_jobs, fitting, n_items), None


class ExecutorBackend(abc.ABC):
    """Frozen three-method protocol every sweep executor implements."""

    #: Name recorded in :attr:`MapInfo.backend`.
    name: str = "abstract"

    @abc.abstractmethod
    def submit_map(self, fn: Callable, work: Sequence, *, n_jobs: int,
                   star: bool, chunksize: int) -> list:
        """Run ``fn`` over *work* on *n_jobs* workers, results in
        input order, bit-identical to a serial pass."""

    @abc.abstractmethod
    def shutdown(self) -> None:
        """Release worker processes; idempotent."""

    @abc.abstractmethod
    def describe(self) -> str:
        """One line for report notes."""
