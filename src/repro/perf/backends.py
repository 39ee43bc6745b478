"""The sweep executor: one ``map_sweep`` front door, two ways to run.

Every sweep call site (figures, tables, chaos, validation, traffic
knees, the GTPN structure-sharing engine) calls :func:`map_sweep`,
which plans the sweep (:func:`plan_jobs`) and then either

* runs it in-process — every one-job sweep (``--jobs 1``, the
  default) and the fallback of every fan-out that cannot run — or
* maps it over the persistent local process pool, chunked, for every
  sweep the planner fans out.

Results are **bit-identical either way** (asserted by
``tests/perf/test_backends.py``): the executor changes wall-clock time
and scheduling, never values.  Any pool failure — no fork support,
unpicklable work, a worker death mid-task — degrades the sweep to the
in-process loop with the reason recorded in :func:`last_map_info`, so
callers never special-case broken environments.

The pool is one :class:`~concurrent.futures.ProcessPoolExecutor`
keyed on (worker count, cache configuration, trace spill directory)
and reused across sweeps, so later grids skip process start-up.  Its
initializer primes each worker with the analysis imports and the
parent's store configuration; when the store is enabled and
memory-only, the parent first attaches a session-scoped disk tier and
flushes what it has already solved, so cold workers load shared
reachability skeletons instead of rebuilding them per point.  A pool
whose worker died mid-task never recovers, so it is dropped at once
and the next sweep builds a fresh one.

When a recorder is installed (:mod:`repro.obs`), each work item runs
under a ``pool.task`` span on either path — in workers those spans
spill to per-pid JSONL files that the parent merges back after the
sweep (:mod:`repro.obs.sink`), so one trace shows per-worker task
timing across the whole process tree.  A pooled sweep that fails
before the merge discards the spill files instead: the in-process
re-run records every item itself.
"""

from __future__ import annotations

import atexit
import math
import os
import pickle
import shutil
import tempfile
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

from repro import config, obs
from repro.obs import sink

T = TypeVar("T")
R = TypeVar("R")

#: Below this many grid points per worker, pool start-up + IPC beat the
#: win from parallelism (BENCH_perf.json showed 0.98x on an 18-point
#: grid with a fresh pool); the planner shrinks the pool or goes serial.
MIN_ITEMS_PER_JOB = 4

#: Auto chunking aims for this many chunks per worker: big enough to
#: amortise per-task pickling, small enough to keep workers balanced.
CHUNK_WAVES = 4

#: Failures that mean "this work cannot ship to the pool" — no fork
#: support, unpicklable work items, a worker bootstrap crash.
_POOL_UNAVAILABLE = (OSError, pickle.PicklingError, ImportError,
                     TypeError, AttributeError)


@dataclass(frozen=True)
class MapInfo:
    """How the most recent :func:`map_sweep` actually executed."""

    mode: str                   # "serial" | "parallel"
    reason: str | None          # why serial (None when parallel)
    jobs_requested: int
    jobs_used: int
    items: int
    chunk_size: int | None      # None on the serial path

    def as_dict(self) -> dict:
        return {"mode": self.mode, "reason": self.reason,
                "jobs_requested": self.jobs_requested,
                "jobs_used": self.jobs_used, "items": self.items,
                "chunk_size": self.chunk_size}

    def describe(self) -> str:
        """Human-readable one-liner for report notes and benchmarks."""
        if self.mode == "serial":
            return f"sweep ran serially ({self.reason})"
        return (f"sweep ran on {self.jobs_used} workers, chunk size "
                f"{self.chunk_size}")


def plan_jobs(n_items: int, jobs: int | None = None, *,
              oversubscribe: bool = False) -> tuple[int, str | None]:
    """Decide how a sweep of *n_items* should execute.

    Returns ``(worker_count, reason)``: 1 worker means serial, and
    *reason* says why.  ``oversubscribe=True`` skips the single-CPU
    check (tests exercise the pool protocol on one-core machines).
    """
    n_jobs = config.jobs() if jobs is None else \
        config.validate_positive_int(jobs, "jobs")
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


# ----------------------------------------------------------------------
# the persistent pool
# ----------------------------------------------------------------------

_pool: ProcessPoolExecutor | None = None
_pool_key: tuple | None = None
_shared_cache_dir: str | None = None
_parent_spill_dir: str | None = None


def _prime_shared_cache() -> tuple[bool, str | None]:
    """Store configuration the workers should mirror.

    When the store is enabled but memory-only, attach a session-scoped
    disk tier and flush what the parent already solved — freshly
    started workers then prime their own stores from disk (shared
    skeletons, shared payloads) instead of rebuilding per point.
    """
    global _shared_cache_dir
    from repro.perf import cache as _cache
    if not config.cache_enabled():
        return False, None
    store = _cache.get_cache()
    if store.directory is None:
        if _shared_cache_dir is None:
            _shared_cache_dir = tempfile.mkdtemp(prefix="repro-cache-")
            atexit.register(shutil.rmtree, _shared_cache_dir,
                            ignore_errors=True)
        store.attach_directory(_shared_cache_dir)
    return True, str(store.directory)


def _trace_spill_dir() -> str | None:
    """The spill directory workers should report traces into, if any."""
    global _parent_spill_dir
    if obs.current() is None:
        return None
    if _parent_spill_dir is None:
        _parent_spill_dir = tempfile.mkdtemp(prefix="repro-obs-")
        atexit.register(shutil.rmtree, _parent_spill_dir,
                        ignore_errors=True)
    return _parent_spill_dir


def _worker_init(cache_on: bool, cache_dir: str | None,
                 spill_dir: str | None) -> None:
    """Runs once per worker process: mirror the parent's store and
    trace setup and pay the heavy imports before the first task."""
    from repro.perf import cache as _cache
    if not cache_on:
        config.set_knob("cache", False)
    else:
        _cache.configure_cache(directory=cache_dir)
    sink.set_spill_dir(spill_dir)
    import repro.gtpn.analysis     # noqa: F401


def _get_pool(n_jobs: int):
    """The live pool for *n_jobs* workers, rebuilt when its key
    (worker count, store configuration, spill directory) changes."""
    global _pool, _pool_key
    cache_on, cache_dir = _prime_shared_cache()
    spill_dir = _trace_spill_dir()
    key = (n_jobs, cache_on, cache_dir, spill_dir)
    if _pool is not None and _pool_key != key:
        shutdown_pool()
    if _pool is None:
        _pool = ProcessPoolExecutor(
            max_workers=n_jobs, initializer=_worker_init,
            initargs=(cache_on, cache_dir, spill_dir))
        _pool_key = key
    return _pool


def shutdown_pool(wait: bool = False) -> None:
    """Tear down the worker pool (atexit, tests, a broken pool).

    ``wait=True`` also waits for running tasks, so no worker writes
    a spill file after this returns.
    """
    global _pool, _pool_key
    if _pool is not None:
        _pool.shutdown(wait=wait, cancel_futures=True)
        _pool = None
        _pool_key = None


atexit.register(shutdown_pool)


def _call_star(payload: tuple[Callable, tuple]) -> object:
    fn, item = payload
    return fn(*item)


def _traced_call(payload: tuple[Callable, object, bool, int]) -> object:
    """One pooled work item under a ``pool.task`` span, spilled after."""
    fn, item, star, index = payload
    with obs.span("pool.task", index=index):
        result = fn(*item) if star else fn(item)
    sink.flush_current()
    return result


def _pool_map(fn: Callable, work: Sequence, n_jobs: int, star: bool,
              chunksize: int) -> list:
    """Run *work* on the pool, results in input order."""
    pool = _get_pool(n_jobs)
    recorder = obs.current()
    if recorder is None:
        if star:
            return list(pool.map(_call_star,
                                 [(fn, item) for item in work],
                                 chunksize=chunksize))
        return list(pool.map(fn, work, chunksize=chunksize))
    payloads = [(fn, item, star, index)
                for index, item in enumerate(work)]
    try:
        results = list(pool.map(_traced_call, payloads,
                                chunksize=chunksize))
    except Exception:
        # what the workers spilled before the failure must never reach
        # a later sweep's merge: stop them, then drop their files
        shutdown_pool(wait=True)
        sink.discard_spills(_parent_spill_dir)
        raise
    sink.merge_spills(recorder, _parent_spill_dir)
    return results


def _serial_map(fn: Callable, work: Sequence, star: bool) -> list:
    """Run *work* in-process, in order."""
    if obs.current() is None:
        if star:
            return [fn(*item) for item in work]
        return [fn(item) for item in work]
    results = []
    for index, item in enumerate(work):
        with obs.span("pool.task", index=index):
            results.append(fn(*item) if star else fn(item))
    return results


# ----------------------------------------------------------------------
# the front door
# ----------------------------------------------------------------------

_last_map_info: MapInfo | None = None


def last_map_info() -> MapInfo | None:
    """The :class:`MapInfo` of the most recent sweep, if any."""
    return _last_map_info


def map_sweep(fn: Callable[..., R], items: Iterable[T], *,
              jobs: int | None = None, star: bool = False,
              chunksize: int | None = None,
              oversubscribe: bool = False) -> list[R]:
    """Map *fn* over *items*, in order, possibly across processes.

    ``star=True`` unpacks each item as positional arguments
    (``fn(*item)``); otherwise each item is passed whole (``fn(item)``).
    ``jobs=None`` uses :func:`repro.config.jobs` (``--jobs`` /
    ``REPRO_JOBS``, else serial).  The sweep is planned via
    :func:`plan_jobs` (serial fallback on small grids or one CPU) and
    chunked to ``ceil(items / (workers * CHUNK_WAVES))`` unless
    *chunksize* is given; :func:`last_map_info` reports what happened.
    A fanned-out sweep runs on the local pool; an unusable pool
    (unpicklable work, no fork support) or a worker death mid-task
    falls back to the in-process loop; exceptions raised by *fn*
    itself propagate.
    """
    global _last_map_info
    work: Sequence[T] = list(items)
    jobs_requested = config.jobs() if jobs is None else \
        config.validate_positive_int(jobs, "jobs")
    n_jobs, reason = plan_jobs(len(work), jobs_requested,
                               oversubscribe=oversubscribe)
    with obs.span("pool.map", items=len(work),
                  jobs_requested=jobs_requested) as map_span:
        if n_jobs > 1:
            chunk = chunksize if chunksize else max(
                1, math.ceil(len(work) / (n_jobs * CHUNK_WAVES)))
            try:
                results = _pool_map(fn, work, n_jobs, star, chunk)
            except BrokenProcessPool:
                # a broken executor never recovers: drop it, run this
                # sweep in-process and let the next one start fresh
                shutdown_pool()
                reason = ("worker pool broke (a worker process died "
                          "mid-task); pool reaped, degraded to serial")
            except _POOL_UNAVAILABLE:
                # pool unavailable or work not shippable: solve
                # in-process.  Genuine errors raised by fn itself
                # re-raise from the serial pass.
                reason = "worker pool unavailable (unpicklable work " \
                         "or no process support)"
            else:
                _last_map_info = MapInfo("parallel", None,
                                         jobs_requested, n_jobs,
                                         len(work), chunk)
                map_span.set(**_last_map_info.as_dict())
                return results
        _last_map_info = MapInfo("serial", reason, jobs_requested, 1,
                                 len(work), None)
        map_span.set(**_last_map_info.as_dict())
        return _serial_map(fn, work, star)
