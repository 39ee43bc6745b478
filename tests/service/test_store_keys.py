"""The service's ``result`` namespace: keyed on every value knob, and
silenced by the one kill switch."""

from __future__ import annotations

from repro import cli, config
from repro.experiments import Experiment, temporary_experiment
from repro.experiments.reporting import Table
from repro.perf.cache import configure_cache
from repro.service import ExperimentService

from tests.service.conftest import ToyTracker, make_toy

TIMEOUT = 30.0


def _sync_probe() -> Experiment:
    """A table whose one value is the sync primitive it ran under."""
    def runner() -> Table:
        return Table(experiment_id="toy-sync", title="sync probe",
                     headers=["knob", "value"],
                     rows=[["sync", config.sync()]])
    return Experiment("toy-sync", "sync probe", "table", runner)


def test_sync_is_part_of_the_result_key(tmp_path):
    configure_cache(directory=tmp_path)
    with temporary_experiment(_sync_probe()):
        service = ExperimentService(workers=1)
        try:
            tas = service.submit("toy-sync", sync="tas")
            tas_rows = tas.result(timeout=TIMEOUT).values
            cas = service.submit("toy-sync", sync="cas")
            cas_rows = cas.result(timeout=TIMEOUT).values
        finally:
            service.shutdown()
        assert not cas.store_hit
        assert tas_rows == [["sync", "tas"]]
        assert cas_rows == [["sync", "cas"]]
        assert service.stats()["executed"] == 2
        # a fresh store over the same directory answers each primitive
        # with its own row
        configure_cache(directory=tmp_path)
        service = ExperimentService(workers=1)
        try:
            again = service.submit("toy-sync", sync="cas")
            assert again.result(timeout=TIMEOUT).values == cas_rows
        finally:
            service.shutdown()
    assert again.store_hit


def test_cache_disabled_submission_never_reads_the_store():
    tracker = ToyTracker()
    with temporary_experiment(make_toy(tracker=tracker)):
        service = ExperimentService(workers=1)
        try:
            service.submit("toy-exp", seed=1).result(timeout=TIMEOUT)
            uncached = service.submit("toy-exp", seed=1,
                                      cache_enabled=False)
            uncached.result(timeout=TIMEOUT)
            cached = service.submit("toy-exp", seed=1)
            cached.result(timeout=TIMEOUT)
        finally:
            service.shutdown()
    assert not uncached.store_hit
    assert cached.store_hit
    assert tracker.runs == [1, 1]
    stats = service.stats()
    assert stats["executed"] == 2 and stats["store_hits"] == 1


def test_no_cache_serve_executes(capsys):
    def outcome() -> str:
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if "toy-exp" in line]
        assert len(lines) == 1
        return lines[0].split()[3]

    with temporary_experiment(make_toy()):
        assert cli.main(["serve", "toy-exp"]) == 0
        assert outcome() == "executed"
        assert cli.main(["serve", "toy-exp"]) == 0
        assert outcome() == "store-hit"
        assert cli.main(["--no-cache", "serve", "toy-exp"]) == 0
        assert outcome() == "executed"
