"""``repro serve``: one run after another, repeats answered by the store."""

from __future__ import annotations

import time

import pytest

from repro import api, cli, config
from repro.errors import ReproError
from repro.experiments import Experiment, temporary_experiment
from repro.experiments.reporting import Table
from repro.perf.cache import configure_cache, get_cache
from repro.service import build_job_key, serve_experiment

from tests.service.conftest import ToyTracker, make_toy


def _outcomes(text: str) -> list[str]:
    """The outcome column of every per-job line ``serve`` printed."""
    return [line.split()[3] for line in text.splitlines()
            if line.startswith("job-")]


def _slow_toy() -> Experiment:
    """A toy that takes long enough for a concurrent twin to overlap."""
    def runner() -> Table:
        time.sleep(0.3)
        return Table(experiment_id="toy-slow", title="slow",
                     headers=["k", "v"], rows=[["seed", config.seed()]])
    return Experiment("toy-slow", "slow", "table", runner)


def test_no_cache_repeat_executes_every_time(capsys):
    # with the store off nothing dedupes a repeat: each one runs
    with temporary_experiment(_slow_toy()):
        code = cli.main(["--no-cache", "serve", "toy-slow",
                         "--repeat", "2"])
    assert code == 0
    assert _outcomes(capsys.readouterr().out) == ["executed", "executed"]


def test_repeats_are_store_hits_and_the_ledger_reconciles(capsys):
    tracker = ToyTracker()
    with temporary_experiment(make_toy(tracker=tracker)):
        code = cli.main(["--seed", "7", "serve", "toy-exp",
                         "--repeat", "3", "--stats"])
    assert code == 0
    out = capsys.readouterr().out
    assert _outcomes(out) == ["executed", "store-hit", "store-hit"]
    assert tracker.runs == [7]
    ledger = {}
    for line in out.split("serve stats:")[1].splitlines():
        if line.strip():
            key, value = line.split(None, 1)
            ledger[key] = value
    assert list(ledger) == ["submitted", "executed", "store_hits",
                            "failed", "store"]
    assert (ledger["submitted"], ledger["executed"],
            ledger["store_hits"], ledger["failed"]) == ("3", "1", "2", "0")


def test_unknown_id_in_batch_fails_and_others_run(capsys):
    with temporary_experiment(make_toy()):
        code = cli.main(["serve", "toy-exp", "figure-9.99", "toy-exp",
                         "--stats"])
    captured = capsys.readouterr()
    assert code == 1
    assert _outcomes(captured.out) == ["executed", "store-hit"]
    (failed,) = [line for line in captured.err.splitlines()
                 if "FAILED" in line]
    assert failed.split()[:3] == ["job-2", "figure-9.99", "FAILED"]
    assert "unknown experiment" in failed
    assert "  failed           1" in captured.out


def test_failed_run_propagates_and_stores_nothing():
    with temporary_experiment(make_toy(fail=True)):
        with pytest.raises(ReproError, match="on purpose"):
            serve_experiment("toy-exp")
        key = ("result", build_job_key("toy-exp", {}).digest)
    assert get_cache().get(key) is None


def test_serve_matches_run_experiment():
    with temporary_experiment(make_toy()):
        served, hit = serve_experiment("toy-exp", seed=7)
        direct = api.run_experiment("toy-exp", seed=7)
    assert not hit
    assert served.values == direct.values
    assert served.config == direct.config


def test_unset_knobs_resolve_through_cli_and_env(monkeypatch):
    tracker = ToyTracker()
    with temporary_experiment(make_toy(tracker=tracker)):
        monkeypatch.setenv("REPRO_SEED", "5")
        _, env_hit = serve_experiment("toy-exp")
        monkeypatch.delenv("REPRO_SEED")
        _, explicit_hit = serve_experiment("toy-exp", seed=5)
        config.set_knob("seed", 6)
        _, cli_hit = serve_experiment("toy-exp")
        config.set_knob("seed", None)
        _, explicit_cli_hit = serve_experiment("toy-exp", seed=6)
    assert (env_hit, explicit_hit) == (False, True)
    assert (cli_hit, explicit_cli_hit) == (False, True)
    assert tracker.runs == [5, 6]


def _assert_field_parity(stored, fresh):
    """Every :class:`~repro.api.ExperimentResult` field but the
    wall-clock ``elapsed_s``."""
    assert stored.experiment_id == fresh.experiment_id
    assert stored.kind == fresh.kind
    assert stored.title == fresh.title
    assert stored.artifact.render() == fresh.artifact.render()
    assert stored.values == fresh.values
    assert stored.config == fresh.config
    assert stored.obs_summary == fresh.obs_summary
    assert stored.trace_paths == fresh.trace_paths
    assert stored.extras == fresh.extras


@pytest.mark.parametrize("experiment_id, seed",
                         [("figure-6.7", 7), ("chaos-outage", 11)])
def test_store_hit_matches_a_fresh_run(tmp_path, experiment_id, seed):
    # the hit comes back from the disk tier of a fresh store, so it is
    # a pickled round trip, not the object the first run produced
    configure_cache(directory=tmp_path)
    _, first_hit = serve_experiment(experiment_id, seed=seed)
    configure_cache(directory=tmp_path)
    stored, hit = serve_experiment(experiment_id, seed=seed)
    assert (first_hit, hit) == (False, True)
    configure_cache()
    fresh = api.run_experiment(experiment_id, seed=seed)
    _assert_field_parity(stored, fresh)
