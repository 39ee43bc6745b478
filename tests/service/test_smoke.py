"""Serve smoke: a mixed batch, half duplicates, deduped by the store."""

from __future__ import annotations

from repro.experiments import temporary_experiment
from repro.service import serve_experiment

from tests.service.conftest import ToyTracker, make_toy


def test_smoke_200_mixed_jobs_dedupe_at_least_40_percent():
    # the CI serve-smoke scenario: 200 runs, half duplicates; each
    # unique seed executes once and every repeat is a store hit
    tracker = ToyTracker()
    with temporary_experiment(make_toy(tracker=tracker)):
        outcomes = [serve_experiment("toy-exp", seed=n % 100)
                    for n in range(200)]
    store_hits = sum(hit for _result, hit in outcomes)
    assert len(tracker.runs) == 100            # one per unique seed
    assert sorted(tracker.runs) == list(range(100))
    assert store_hits / 200 >= 0.40
    assert store_hits == 100
    # every run resolved to its seed's values
    for n, (result, _hit) in enumerate(outcomes):
        assert result.values[0] == ["seed", n % 100]
