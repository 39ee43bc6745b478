"""The front-door API: parity with the direct runner, config scoping,
extras and traces."""

from __future__ import annotations

import pytest

from repro import api, config
from repro.experiments import registry

#: Cheap registered experiments covering table and figure kinds.
PARITY_IDS = ("figure-6.7", "table-5.1", "table-3.1")


class TestRunExperiment:
    @pytest.mark.parametrize("experiment_id", PARITY_IDS)
    def test_parity_with_direct_runner(self, experiment_id):
        direct = registry.get_experiment(experiment_id).run()
        result = api.run_experiment(experiment_id)
        assert result.experiment_id == experiment_id
        assert result.artifact.experiment_id == direct.experiment_id
        if hasattr(direct, "rows"):
            assert result.artifact.rows == direct.rows
            assert result.values == [list(r) for r in direct.rows]
        else:
            assert [s.y for s in result.artifact.series] \
                == [s.y for s in direct.series]
            assert set(result.values) == {s.label for s in direct.series}

    def test_result_carries_config_and_timing(self):
        result = api.run_experiment("table-5.1", jobs=3, seed=99,
                                    cache=False)
        assert result.config["jobs"] == 3
        assert result.config["jobs_source"] == "cli"
        assert result.config["seed"] == 99
        assert result.config["cache_enabled"] is False
        assert result.elapsed_s >= 0.0
        assert result.obs_summary is None          # untraced run
        assert result.trace_paths == ()
        assert result.render() == result.artifact.render()

    def test_overrides_do_not_leak(self):
        api.run_experiment("table-5.1", jobs=5, seed=123, cache=False)
        assert config.jobs() == 1
        assert config.seed() is None
        assert config.cache_enabled() is True

    def test_every_knob_is_a_keyword(self):
        # run_experiment takes each settable knob, sync included, with
        # the matching CLI flag's precedence
        from repro.experiments import Experiment, temporary_experiment
        from repro.experiments.reporting import Table
        seen = []

        def runner():
            seen.append(config.sync())
            return Table(experiment_id="sync-probe", title="t",
                         headers=["sync"], rows=[[config.sync()]])

        with temporary_experiment(
                Experiment("sync-probe", "t", "table", runner)):
            result = api.run_experiment("sync-probe", sync="cas")
        assert seen == ["cas"]
        assert result.config["sync"] == "cas"
        assert result.config["sync_source"] == "cli"
        assert config.sync() == "tas"

    def test_attach_extra_rides_on_result(self):
        from repro.experiments.registry import Experiment, REGISTRY
        from repro.experiments.reporting import Table

        def runner():
            api.attach_extra("payload", {"x": 1})
            return Table(experiment_id="extra-test", title="t",
                         headers=["a"], rows=[[1]])

        REGISTRY["extra-test"] = Experiment(
            "extra-test", "t", "table", runner)
        try:
            result = api.run_experiment("extra-test")
        finally:
            REGISTRY.pop("extra-test")
        assert result.extras == {"payload": {"x": 1}}

    def test_attach_extra_outside_run_is_noop(self):
        api.attach_extra("orphan", 1)       # silently ignored
        result = api.run_experiment("table-5.1")
        assert "orphan" not in result.extras

    def test_trace_writes_both_exports(self, tmp_path):
        target = tmp_path / "run.json"
        result = api.run_experiment("figure-6.7", trace=target)
        chrome, jsonl = result.trace_paths
        assert chrome.endswith("run.json")
        assert jsonl.endswith("run.jsonl")
        from repro.obs.export import validate_jsonl
        header = validate_jsonl(jsonl)
        assert header["config"]["jobs"] == 1
        summary = result.obs_summary
        assert any(s["name"] == "experiment:figure-6.7"
                   for s in summary["top_spans"])

    def test_jsonl_trace_argument_flips_targets(self, tmp_path):
        result = api.run_experiment("table-5.1",
                                    trace=tmp_path / "run.jsonl")
        chrome, jsonl = result.trace_paths
        assert chrome.endswith("run.json")
        assert jsonl.endswith("run.jsonl")

    def test_unknown_id_still_raises_with_hint(self):
        from repro.errors import ReproError
        with pytest.raises(ReproError, match="unknown experiment"):
            api.run_experiment("figure-9.99")

    def test_run_experiment_never_reads_the_store(self):
        # a stored result of the same run is ignored: every call runs
        from repro.experiments.registry import Experiment, REGISTRY
        from repro.experiments.reporting import Table
        from repro.perf.cache import configure_cache
        from repro.service import serve_experiment
        runs = []

        def runner():
            runs.append(config.seed())
            return Table(experiment_id="store-test", title="t",
                         headers=["seed"], rows=[[config.seed()]])

        REGISTRY["store-test"] = Experiment(
            "store-test", "t", "table", runner)
        configure_cache()
        try:
            _, hit = serve_experiment("store-test", seed=3)
            result = api.run_experiment("store-test", seed=3)
            _, hit_again = serve_experiment("store-test", seed=3)
        finally:
            REGISTRY.pop("store-test")
            configure_cache()
        assert (hit, hit_again) == (False, True)
        assert runs == [3, 3]
        assert result.values == [[3]]
