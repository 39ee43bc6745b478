"""The in-process executor: every sweep point runs in the caller.

:class:`SerialBackend` runs every one-worker sweep and is the
degradation target of the pool: the orchestrator routes a sweep here
whenever the planner declines to fan out or the pool fails, so callers
never need to special-case degraded environments.

When a recorder is installed each work item runs under a ``pool.task``
span, exactly like the pooled paths — one trace schema regardless of
executor.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro import obs
from repro.perf.backends.base import ExecutorBackend


class SerialBackend(ExecutorBackend):
    """Ordered in-process execution; the universal fallback."""

    name = "serial"

    def submit_map(self, fn: Callable, work: Sequence, *, n_jobs: int,
                   star: bool, chunksize: int) -> list:
        if obs.current() is None:
            if star:
                return [fn(*item) for item in work]
            return [fn(item) for item in work]
        results = []
        for index, item in enumerate(work):
            with obs.span("pool.task", index=index):
                results.append(fn(*item) if star else fn(item))
        return results

    def shutdown(self) -> None:
        pass                        # no processes to release

    def describe(self) -> str:
        return "serial in-process execution"
