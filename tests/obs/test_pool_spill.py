"""Worker-span spilling: one merged trace across the process pool."""

from __future__ import annotations

import os
import signal
from pathlib import Path

import pytest

from repro import obs
from repro.perf import backends
from repro.perf.backends import last_map_info, map_sweep, shutdown_pool


def _square(x: int) -> int:
    return x * x


def _kill_worker_on_last(item: tuple[int, int]) -> int:
    parent_pid, x = item
    if x == 15 and os.getpid() != parent_pid:
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x


def _spill_files() -> list[Path]:
    return list(Path(backends._parent_spill_dir).glob("obs-*.jsonl"))


@pytest.fixture(autouse=True)
def _fresh_pool():
    shutdown_pool()
    yield
    shutdown_pool()


def test_serial_sweep_records_per_item_spans():
    with obs.recording() as recorder:
        results = map_sweep(_square, [1, 2, 3], jobs=1)
    assert results == [1, 4, 9]
    totals = recorder.span_totals()
    assert totals["pool.task"][0] == 3
    assert totals["pool.map"][0] == 1
    (map_span,) = [s for s in recorder.spans if s.name == "pool.map"]
    assert map_span.attrs["mode"] == "serial"
    assert map_span.attrs["items"] == 3


def test_untraced_sweep_records_nothing():
    results = map_sweep(_square, [1, 2, 3], jobs=1)
    assert results == [1, 4, 9]
    assert obs.current() is None


def test_parallel_sweep_merges_worker_spans():
    items = list(range(12))
    with obs.recording() as recorder:
        results = map_sweep(_square, items, jobs=2, oversubscribe=True)
    assert results == [x * x for x in items]
    info = last_map_info()
    if info.mode != "parallel":
        pytest.skip(f"pool declined to fan out: {info.reason}")
    task_spans = [s for s in recorder.spans if s.name == "pool.task"]
    assert len(task_spans) == len(items)
    # every item's index arrived exactly once, across worker pids
    assert sorted(s.attrs["index"] for s in task_spans) == items
    worker_pids = {s.pid for s in task_spans}
    assert all(pid != recorder.pid for pid in worker_pids)
    # parent-side spans still carry the parent pid
    (map_span,) = [s for s in recorder.spans if s.name == "pool.map"]
    assert map_span.pid == recorder.pid
    assert map_span.attrs["mode"] == "parallel"
    # spill files were consumed by the merge
    assert backends._parent_spill_dir is not None
    assert _spill_files() == []


def test_parallel_results_identical_with_and_without_tracing():
    items = list(range(8, 24))
    plain = map_sweep(_square, items, jobs=2, oversubscribe=True)
    with obs.recording():
        traced = map_sweep(_square, items, jobs=2, oversubscribe=True)
    assert traced == plain


def test_broken_traced_sweep_leaves_no_spills_for_the_next():
    # a worker dies on the last item after its siblings spilled their
    # spans: the serial re-run records every item itself, so the
    # spilled files must go, not merge into the next traced sweep
    items = [(os.getpid(), x) for x in range(16)]
    with obs.recording() as recorder:
        results = map_sweep(_kill_worker_on_last, items, jobs=2,
                            oversubscribe=True, chunksize=1)
    assert results == [x * x for x in range(16)]
    if "worker pool broke" not in (last_map_info().reason or ""):
        pytest.skip(f"pool did not run: {last_map_info().reason}")
    tasks = [s for s in recorder.spans if s.name == "pool.task"]
    assert len(tasks) == 16
    assert _spill_files() == []
    with obs.recording() as recorder:
        map_sweep(_square, list(range(16)), jobs=2, oversubscribe=True,
                  chunksize=1)
    assert last_map_info().mode == "parallel"
    tasks = [s for s in recorder.spans if s.name == "pool.task"]
    assert sorted(s.attrs["index"] for s in tasks) == list(range(16))
