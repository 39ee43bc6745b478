"""The persistent local process pool: the backend of every fan-out.

:class:`LocalPoolBackend` keeps one persistent
:class:`~concurrent.futures.ProcessPoolExecutor` per (worker count,
cache configuration, trace spill directory), reused across sweeps so
later grids skip process start-up entirely.  Its initializer primes
each worker with the analysis/sweep imports and the parent's cache
configuration; when caching is enabled and memory-only, the parent
first attaches a session-scoped disk tier and flushes what it has
already solved, so cold workers load shared reachability skeletons
instead of rebuilding them per point.

Lifecycle is now leak-free by construction: every
:class:`PersistentPool` registers its own ``atexit`` teardown when the
executor is first created, and a worker that dies mid-task
(``BrokenProcessPool``) is *reaped immediately* — the pool is shut
down and :class:`~repro.perf.backends.base.PoolBrokenError` raised so
the orchestrator degrades that sweep to the serial path with a
recorded :class:`~repro.perf.backends.base.MapInfo` reason, and the
next sweep builds a fresh pool instead of retrying into a hung
executor.

When a recorder is installed (:mod:`repro.obs`), each work item runs
under a ``pool.task`` span — in workers those spans spill to per-pid
JSONL files that the parent merges back after the sweep
(:mod:`repro.obs.sink`), so one trace shows per-worker task timing
across the whole process tree.
"""

from __future__ import annotations

import atexit
import shutil
import tempfile
from typing import Callable, Sequence

from repro import obs
from repro.obs import sink
from repro.perf.backends.base import ExecutorBackend, PoolBrokenError

try:
    from concurrent.futures.process import BrokenProcessPool as \
        _BrokenPool
except ImportError:                                    # pragma: no cover
    class _BrokenPool(RuntimeError):
        pass


_shared_cache_dir: str | None = None
_parent_spill_dir: str | None = None


def _prime_shared_cache() -> tuple[bool, str | None]:
    """Cache configuration the workers should mirror.

    When caching is enabled but memory-only, attach a session-scoped
    disk tier to the global cache and flush what the parent already
    solved — freshly started workers then prime their own caches from
    disk (shared skeletons, shared payloads) instead of rebuilding
    per point.
    """
    global _shared_cache_dir
    from repro.perf import cache as _cache
    if not _cache.cache_enabled():
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
    """Runs once per worker process: mirror the parent's cache and
    trace setup and pay the heavy imports before the first task."""
    from repro.perf import cache as _cache
    if not cache_on:
        _cache.set_cache_enabled(False)
    else:
        _cache.configure_cache(directory=cache_dir)
    sink.set_spill_dir(spill_dir)
    try:
        import repro.gtpn.sweep        # noqa: F401
    except ImportError:                                # pragma: no cover
        pass


class PersistentPool:
    """One keyed, reaped, atexit-registered ProcessPoolExecutor.

    The pool is created on first use, keyed on (worker count, cache
    configuration, spill directory) and rebuilt when the key changes,
    and torn down exactly once — by :meth:`shutdown` (tests, the
    orchestrator's broken-pool reap) or the ``atexit`` hook registered
    at creation, whichever comes first.
    """

    def __init__(self):
        self._pool = None
        self._key: tuple | None = None
        self._atexit_registered = False

    @property
    def executor(self):
        """The live executor, or ``None`` (introspection/tests)."""
        return self._pool

    def get(self, n_jobs: int):
        cache_on, cache_dir = _prime_shared_cache()
        spill_dir = _trace_spill_dir()
        key = (n_jobs, cache_on, cache_dir, spill_dir)
        if self._pool is not None and self._key != key:
            self.shutdown()
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor
            self._pool = ProcessPoolExecutor(
                max_workers=n_jobs, initializer=_worker_init,
                initargs=(cache_on, cache_dir, spill_dir))
            self._key = key
            if not self._atexit_registered:
                atexit.register(self.shutdown)
                self._atexit_registered = True
        return self._pool

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
            self._key = None

    def reap(self) -> None:
        """Tear down a pool whose worker died mid-task.

        ``BrokenProcessPool`` executors never recover — every later
        submit fails instantly — so the only safe move is to drop the
        executor (its shutdown also reclaims the dead children) and
        let the next sweep build a fresh one.
        """
        self.shutdown()

    def merge_trace(self, recorder) -> None:
        """Fold worker spill files into *recorder* after a sweep."""
        if recorder is not None and _parent_spill_dir is not None:
            sink.merge_spills(recorder, _parent_spill_dir)


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


class LocalPoolBackend(ExecutorBackend):
    """Persistent single-pool executor: ``pool.map`` with chunking."""

    name = "local"

    def __init__(self):
        self._manager = PersistentPool()

    def submit_map(self, fn: Callable, work: Sequence, *, n_jobs: int,
                   star: bool, chunksize: int) -> list:
        pool = self._manager.get(n_jobs)
        recorder = obs.current()
        try:
            if recorder is not None:
                payloads = [(fn, item, star, index)
                            for index, item in enumerate(work)]
                futures = pool.map(_traced_call, payloads,
                                   chunksize=chunksize)
            elif star:
                payloads = [(fn, item) for item in work]
                futures = pool.map(_call_star, payloads,
                                   chunksize=chunksize)
            else:
                futures = pool.map(fn, work, chunksize=chunksize)
            results = list(futures)
        except _BrokenPool as error:
            self._manager.reap()
            raise PoolBrokenError(str(error)) from error
        self._manager.merge_trace(recorder)
        return results

    def shutdown(self) -> None:
        self._manager.shutdown()

    def describe(self) -> str:
        state = "live" if self._manager.executor is not None else "idle"
        return f"local persistent process pool ({state})"
