"""ExperimentService behaviour: queueing, backpressure, lifecycle."""

from __future__ import annotations

import threading

import pytest

from repro import api
from repro.errors import ConfigError, ReproError, ServiceError
from repro.experiments import Experiment, temporary_experiment
from repro.experiments.reporting import Table
from repro.service import ExperimentService, JobStatus

from tests.service.conftest import ToyTracker, make_toy

TIMEOUT = 30.0


def test_async_submission_matches_inline_run():
    with temporary_experiment(make_toy()):
        service = ExperimentService()
        try:
            handle = service.submit("toy-exp", seed=7)
            result = handle.result(timeout=TIMEOUT)
        finally:
            service.shutdown()
        direct = api.run_experiment("toy-exp", seed=7)
    assert handle.poll() is JobStatus.DONE
    assert result.values == direct.values
    assert result.config == direct.config


def test_failed_job_reraises_from_result():
    with temporary_experiment(make_toy(fail=True)):
        service = ExperimentService()
        try:
            handle = service.submit("toy-exp")
            with pytest.raises(ReproError, match="on purpose"):
                handle.result(timeout=TIMEOUT)
        finally:
            service.shutdown()
    assert handle.poll() is JobStatus.FAILED
    assert service.stats()["failed"] == 1


def test_lifecycle_events_in_order():
    with temporary_experiment(make_toy()):
        service = ExperimentService()
        try:
            handle = service.submit("toy-exp", seed=1)
            handle.result(timeout=TIMEOUT)
        finally:
            service.shutdown()
    kinds = [event.kind for event in handle.stream_events()]
    assert kinds == ["submitted", "started", "done"]


def test_backpressure_blocks_submitter_until_room():
    tracker = ToyTracker()
    tracker.gate = threading.Event()
    with temporary_experiment(make_toy(tracker=tracker)):
        service = ExperimentService(workers=1, queue_depth=1)
        try:
            service.submit("toy-exp", seed=1)
            assert tracker.started.acquire(timeout=TIMEOUT)
            service.submit("toy-exp", seed=2)
            blocked_handle = []

            def pressured_submit():
                blocked_handle.append(
                    service.submit("toy-exp", seed=3))

            submitter = threading.Thread(target=pressured_submit)
            submitter.start()
            submitter.join(timeout=0.3)
            assert submitter.is_alive()       # held back, not dropped
            tracker.gate.set()                # free the worker
            submitter.join(timeout=TIMEOUT)
            assert not submitter.is_alive()
            blocked_handle[0].result(timeout=TIMEOUT)
        finally:
            tracker.gate.set()
            service.shutdown()
    stats = service.stats()
    assert stats["backpressured"] == 1
    assert sorted(tracker.runs) == [1, 2, 3]  # nothing was lost


def test_backpressured_identical_twins_coalesce_not_duplicate():
    # two identical submissions that both block under backpressure must
    # not both enqueue once room frees: whoever wakes second re-runs
    # the dedup block and coalesces (or store-hits), so the unique key
    # still executes exactly once
    tracker = ToyTracker()
    tracker.gate = threading.Event()
    with temporary_experiment(make_toy(tracker=tracker)):
        service = ExperimentService(workers=1, queue_depth=1)
        try:
            service.submit("toy-exp", seed=1)
            assert tracker.started.acquire(timeout=TIMEOUT)
            service.submit("toy-exp", seed=2)     # fills the queue
            handles = []
            handles_lock = threading.Lock()

            def pressured_submit():
                handle = service.submit("toy-exp", seed=3)
                with handles_lock:
                    handles.append(handle)

            twins = [threading.Thread(target=pressured_submit)
                     for _ in range(2)]
            for twin in twins:
                twin.start()
            for twin in twins:
                twin.join(timeout=0.3)
            assert all(t.is_alive() for t in twins)  # both held back
            tracker.gate.set()
            for twin in twins:
                twin.join(timeout=TIMEOUT)
            assert not any(t.is_alive() for t in twins)
            results = [h.result(timeout=TIMEOUT) for h in handles]
            service.drain(timeout=TIMEOUT)
        finally:
            tracker.gate.set()
            service.shutdown()
    assert sorted(tracker.runs) == [1, 2, 3]  # seed 3 ran exactly once
    stats = service.stats()
    assert stats["coalesced"] + stats["store_hits"] == 1
    assert results[0].values == results[1].values


def test_submit_from_worker_thread_degrades_inline():
    # an experiment that re-enters the service from its own worker
    # thread must execute inline instead of deadlocking the queue
    inner = make_toy("toy-inner")
    service = ExperimentService(workers=1)

    def outer_runner() -> Table:
        nested = service.submit("toy-inner", seed=5)
        inner_result = nested.result(timeout=1.0)  # inline: already done
        return Table(experiment_id="toy-outer", title="outer",
                     headers=["k", "v"],
                     rows=[["inner", inner_result.values[0][1]]])

    outer = Experiment("toy-outer", "outer", "table", outer_runner)
    with temporary_experiment(inner), temporary_experiment(outer):
        try:
            result = service.submit("toy-outer").result(timeout=TIMEOUT)
        finally:
            service.shutdown()
    assert result.values == [["inner", 5]]
    assert service.stats()["inline"] == 1


def test_submit_from_another_services_worker_degrades_inline():
    # workers of *any* service in the process may hold the shared
    # execution lock; a nested submission across service instances must
    # degrade inline too, or the inner worker deadlocks behind the lock
    # the outer worker already holds
    inner = make_toy("toy-inner")
    outer_service = ExperimentService(workers=1)
    inner_service = ExperimentService(workers=1)

    def outer_runner() -> Table:
        nested = inner_service.submit("toy-inner", seed=9)
        inner_result = nested.result(timeout=1.0)  # inline: already done
        return Table(experiment_id="toy-outer", title="outer",
                     headers=["k", "v"],
                     rows=[["inner", inner_result.values[0][1]]])

    outer = Experiment("toy-outer", "outer", "table", outer_runner)
    with temporary_experiment(inner), temporary_experiment(outer):
        try:
            result = outer_service.submit("toy-outer").result(
                timeout=TIMEOUT)
        finally:
            outer_service.shutdown()
            inner_service.shutdown()
    assert result.values == [["inner", 9]]
    assert inner_service.stats()["inline"] == 1


def test_shutdown_rejects_new_submissions():
    with temporary_experiment(make_toy()):
        service = ExperimentService()
        service.submit("toy-exp").result(timeout=TIMEOUT)
        service.shutdown()
        with pytest.raises(ServiceError, match="shut down"):
            service.submit("toy-exp", seed=99)


def test_drain_timeout_raises():
    tracker = ToyTracker()
    tracker.gate = threading.Event()
    with temporary_experiment(make_toy(tracker=tracker)):
        service = ExperimentService(workers=1)
        try:
            service.submit("toy-exp")
            assert tracker.started.acquire(timeout=TIMEOUT)
            with pytest.raises(ServiceError, match="did not drain"):
                service.drain(timeout=0.05)
            tracker.gate.set()
            service.drain(timeout=TIMEOUT)
        finally:
            tracker.gate.set()
            service.shutdown()


def test_invalid_construction_rejected():
    with pytest.raises(ConfigError, match="workers"):
        ExperimentService(workers=0)
    with pytest.raises(ConfigError, match="queue_depth"):
        ExperimentService(queue_depth=0)


def test_stats_reconcile_after_drain():
    with temporary_experiment(make_toy()):
        service = ExperimentService()
        try:
            handles = [service.submit("toy-exp", seed=s % 3)
                       for s in range(12)]
            for handle in handles:
                handle.result(timeout=TIMEOUT)
            service.drain(timeout=TIMEOUT)
        finally:
            service.shutdown()
    stats = service.stats()
    accounted = (stats["executed"] + stats["failed"] +
                 stats["coalesced"] + stats["store_hits"] +
                 stats["rejected"] + stats["inline"])
    assert stats["submitted"] == 12 == accounted
    assert stats["queue_depth"] == 0 and stats["busy"] == 0
    assert stats["executed"] == 3          # one per unique seed
    assert stats["latency"]["count"] == 3
    assert stats["latency"]["p99_s"] >= stats["latency"]["p50_s"]
