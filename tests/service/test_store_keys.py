"""The store's ``result`` namespace: keyed on every value knob, and
silenced by the one kill switch."""

from __future__ import annotations

from repro import cli, config
from repro.experiments import Experiment, temporary_experiment
from repro.experiments.reporting import Table
from repro.perf.cache import configure_cache
from repro.service import serve_experiment

from tests.service.conftest import ToyTracker, make_toy


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
        tas, tas_hit = serve_experiment("toy-sync", sync="tas")
        cas, cas_hit = serve_experiment("toy-sync", sync="cas")
        assert not tas_hit and not cas_hit
        assert tas.values == [["sync", "tas"]]
        assert cas.values == [["sync", "cas"]]
        # a fresh store over the same directory answers each primitive
        # with its own row
        configure_cache(directory=tmp_path)
        again, again_hit = serve_experiment("toy-sync", sync="cas")
    assert again_hit
    assert again.values == cas.values


def test_cache_disabled_submission_never_reads_the_store():
    tracker = ToyTracker()
    with temporary_experiment(make_toy(tracker=tracker)):
        _, first_hit = serve_experiment("toy-exp", seed=1)
        _, uncached_hit = serve_experiment("toy-exp", seed=1,
                                           cache=False)
        _, cached_hit = serve_experiment("toy-exp", seed=1)
    assert not first_hit
    assert not uncached_hit
    assert cached_hit
    assert tracker.runs == [1, 1]


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
