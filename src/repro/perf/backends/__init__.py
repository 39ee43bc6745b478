"""Sweep executors behind one ``map_sweep`` front door.

Every sweep call site (figures, tables, chaos, validation, traffic
knees, the GTPN structure-sharing engine) calls :func:`map_sweep`,
which plans the sweep (:func:`~repro.perf.backends.base.plan_jobs`)
and runs it on one of the two
:class:`~repro.perf.backends.base.ExecutorBackend` implementations:

* :class:`~repro.perf.backends.serial.SerialBackend` — everything
  in-process: every one-worker sweep (``--jobs 1``, the default) and
  the fallback of every fan-out that cannot run.
* :class:`~repro.perf.backends.local.LocalPoolBackend` — the
  persistent primed process pool, chunked ``pool.map``, for every
  sweep the planner fans out.

Results are **bit-identical on either backend** (asserted by
``tests/perf/test_backends.py``): the executor changes wall-clock time
and scheduling, never values.  Any pool failure — no fork support,
unpicklable work, a worker death mid-task — degrades the sweep to the
serial path with the reason recorded in :func:`last_map_info`, so
callers never special-case broken environments.
"""

from __future__ import annotations

import math
import pickle
from typing import Callable, Iterable, Sequence, TypeVar

from repro import config, obs
from repro.perf.backends.base import (CHUNK_WAVES, MIN_ITEMS_PER_JOB,
                                      ExecutorBackend, MapInfo,
                                      PoolBrokenError, default_jobs,
                                      plan_jobs, set_default_jobs)
from repro.perf.backends.local import LocalPoolBackend
from repro.perf.backends.serial import SerialBackend

__all__ = [
    "CHUNK_WAVES",
    "MIN_ITEMS_PER_JOB",
    "ExecutorBackend",
    "LocalPoolBackend",
    "MapInfo",
    "PoolBrokenError",
    "SerialBackend",
    "default_jobs",
    "last_map_info",
    "map_sweep",
    "plan_jobs",
    "set_default_jobs",
    "shutdown_pool",
]

T = TypeVar("T")
R = TypeVar("R")

#: The two process-wide executors: the pool is expensive and
#: persistent, so it is a singleton like the store.
_SERIAL = SerialBackend()
_LOCAL = LocalPoolBackend()

_last_map_info: MapInfo | None = None

#: Failures that mean "this work cannot ship to a process backend" —
#: no fork support, unpicklable work items, a worker bootstrap crash.
_POOL_UNAVAILABLE = (OSError, pickle.PicklingError, ImportError,
                     TypeError, AttributeError)


def last_map_info() -> MapInfo | None:
    """The :class:`MapInfo` of the most recent sweep, if any."""
    return _last_map_info


def shutdown_pool() -> None:
    """Tear down the worker pool (atexit, tests)."""
    _LOCAL.shutdown()


def map_sweep(fn: Callable[..., R], items: Iterable[T], *,
              jobs: int | None = None, star: bool = False,
              chunksize: int | None = None,
              oversubscribe: bool = False) -> list[R]:
    """Map *fn* over *items*, in order, possibly across processes.

    ``star=True`` unpacks each item as positional arguments
    (``fn(*item)``); otherwise each item is passed whole (``fn(item)``).
    ``jobs=None`` uses :func:`default_jobs`.  The sweep is planned via
    :func:`plan_jobs` (serial fallback on small grids or one CPU) and
    chunked to ``ceil(items / (workers * CHUNK_WAVES))`` unless
    *chunksize* is given; :func:`last_map_info` reports what happened.
    A fanned-out sweep runs on the local pool; an unusable pool
    (unpicklable work, no fork support) or a worker death mid-task
    falls back to the serial path; exceptions raised by *fn* itself
    propagate.
    """
    global _last_map_info
    work: Sequence[T] = list(items)
    jobs_requested = default_jobs() if jobs is None else \
        config.validate_jobs(jobs, "jobs")
    n_jobs, reason = plan_jobs(len(work), jobs_requested,
                               oversubscribe=oversubscribe)
    with obs.span("pool.map", items=len(work),
                  jobs_requested=jobs_requested) as map_span:
        if n_jobs > 1:
            chunk = chunksize if chunksize else max(
                1, math.ceil(len(work) / (n_jobs * CHUNK_WAVES)))
            try:
                results = _LOCAL.submit_map(fn, work, n_jobs=n_jobs,
                                            star=star, chunksize=chunk)
            except PoolBrokenError:
                # the backend already reaped the dead pool; run this
                # sweep in-process and let the next one start fresh
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
                                         len(work), chunk,
                                         backend=_LOCAL.name)
                map_span.set(**_last_map_info.as_dict())
                return results
        _last_map_info = MapInfo("serial", reason, jobs_requested, 1,
                                 len(work), None,
                                 backend=_SERIAL.name)
        map_span.set(**_last_map_info.as_dict())
        return _SERIAL.submit_map(fn, work, n_jobs=1, star=star,
                                  chunksize=1)
