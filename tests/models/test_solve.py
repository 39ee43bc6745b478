"""Tests for the high-level solve/offered-load API."""

import pytest

from repro.errors import ModelError
from repro.models import (Architecture, Mode, communication_time,
                          offered_load, offered_load_table, solve,
                          server_time_for_offered_load,
                          throughput_vs_offered_load)
from repro.models.params import (PAPER_OFFERED_LOADS_LOCAL,
                                 PAPER_OFFERED_LOADS_NONLOCAL)


def test_solve_returns_consistent_result():
    result = solve(Architecture.I, Mode.LOCAL, 2, 1000.0)
    assert result.conversations == 2
    assert result.throughput > 0
    assert result.round_trip_time == pytest.approx(2 / result.throughput)
    assert result.throughput_per_ms == pytest.approx(
        result.throughput * 1e3)


def test_solve_caches_identical_calls():
    a = solve(Architecture.I, Mode.LOCAL, 1, 0.0)
    b = solve(Architecture.I, Mode.LOCAL, 1, 0.0)
    assert a.throughput == b.throughput


def _analyze_spans(recorder) -> int:
    return sum(span.name == "gtpn.analyze" for span in recorder.spans)


def test_uncached_solve_reaches_the_analyzer():
    """With the cache off, a repeated solve is solved again, even with
    the point already in the store: the store's kill switch covers its
    ``solve`` namespace too."""
    from repro import config, obs
    warm = solve(Architecture.I, Mode.LOCAL, 1, 250.0)
    with obs.recording() as recorder:
        solve(Architecture.I, Mode.LOCAL, 1, 250.0)
    assert _analyze_spans(recorder) == 0        # answered by the store
    assert recorder.counters["cache.solve_hit"] == 1
    with config.overrides(cache=False):
        solve(Architecture.I, Mode.LOCAL, 1, 250.0)
        with obs.recording() as recorder:
            again = solve(Architecture.I, Mode.LOCAL, 1, 250.0)
    assert _analyze_spans(recorder) == 1
    assert "cache.solve_hit" not in recorder.counters
    assert again.throughput == warm.throughput


def test_communication_time_matches_local_sum_for_arch1():
    assert communication_time(Architecture.I, Mode.LOCAL) == \
        pytest.approx(4970.0, rel=1e-6)


def test_offered_load_bounds():
    assert offered_load(Architecture.I, Mode.LOCAL, 0.0) == 1.0
    mid = offered_load(Architecture.I, Mode.LOCAL, 4970.0)
    assert mid == pytest.approx(0.5, rel=1e-6)


def test_offered_load_inversion_roundtrip():
    s = server_time_for_offered_load(Architecture.I, Mode.LOCAL, 0.4)
    assert offered_load(Architecture.I, Mode.LOCAL, s) == \
        pytest.approx(0.4, rel=1e-9)


def test_offered_load_table_local_matches_table_6_24():
    table = offered_load_table(Mode.LOCAL)
    for arch in Architecture:
        for ours, paper in zip(table[arch],
                               PAPER_OFFERED_LOADS_LOCAL[arch]):
            assert ours == pytest.approx(paper, abs=0.005), arch


def test_offered_load_table_nonlocal_matches_table_6_25():
    table = offered_load_table(Mode.NONLOCAL)
    for arch in Architecture:
        for ours, paper in zip(table[arch],
                               PAPER_OFFERED_LOADS_NONLOCAL[arch]):
            assert ours == pytest.approx(paper, abs=0.005), arch


def test_offered_load_ordering_matches_thesis():
    """Table 6.24 note: offered load for a given server time is least
    for architecture IV, nearly same for III, higher for II and I."""
    s = 5700.0
    loads = {arch: offered_load(arch, Mode.LOCAL, s)
             for arch in Architecture}
    assert loads[Architecture.IV] < loads[Architecture.III]
    assert loads[Architecture.III] < loads[Architecture.I]
    assert loads[Architecture.I] < loads[Architecture.II]


def test_throughput_vs_offered_load_curve():
    curve = throughput_vs_offered_load(
        Architecture.I, Mode.LOCAL, 1, [0.9, 0.5, 0.3])
    # lighter offered load = more compute = lower message throughput
    assert curve[0].throughput > curve[1].throughput > \
        curve[2].throughput


def test_bad_arguments_rejected():
    with pytest.raises(ModelError):
        solve(Architecture.I, Mode.LOCAL, 0)
    with pytest.raises(ModelError):
        solve(Architecture.I, Mode.LOCAL, 1, -1.0)
    with pytest.raises(ModelError):
        offered_load(Architecture.I, Mode.LOCAL, -1.0)
    with pytest.raises(ModelError):
        server_time_for_offered_load(Architecture.I, Mode.LOCAL, 0.0)
