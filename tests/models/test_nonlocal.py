"""Tests for the split non-local models and their iterative solution."""

import pytest

from repro.errors import ModelError
from repro.gtpn import analyze
from repro.models import (Architecture, build_nonlocal_client_net,
                          build_nonlocal_server_net, initial_server_delay,
                          server_population, solve_nonlocal)


class TestClientNet:
    def test_arch1_runs_interrupts_on_host(self):
        net = build_nonlocal_client_net(Architecture.I, 1, 3000.0)
        assert not net.has_place("MP")
        assert net.has_transition("cleanup")

    def test_arch2_runs_interrupts_on_mp(self):
        net = build_nonlocal_client_net(Architecture.II, 1, 3000.0)
        assert net.has_place("MP")
        assert net.has_transition("process_send")

    def test_client_net_solves_and_cycles(self):
        net = build_nonlocal_client_net(Architecture.II, 1, 3000.0)
        result = analyze(net)
        assert result.throughput("lambda") > 0

    def test_longer_server_delay_lowers_throughput(self):
        fast = analyze(build_nonlocal_client_net(
            Architecture.II, 1, 2000.0)).throughput("lambda")
        slow = analyze(build_nonlocal_client_net(
            Architecture.II, 1, 8000.0)).throughput("lambda")
        assert slow < fast

    def test_rejects_bad_arguments(self):
        with pytest.raises(ModelError):
            build_nonlocal_client_net(Architecture.I, 0, 3000.0)
        with pytest.raises(ModelError):
            build_nonlocal_client_net(Architecture.I, 1, 0.5)


class TestServerNet:
    def test_population_and_arrivals_positive(self):
        net = build_nonlocal_server_net(Architecture.II, 2, 3000.0, 500.0)
        result = analyze(net)
        assert result.resource_usage("lambda_in") > 0
        assert server_population(result) > 0

    def test_littles_law_population_below_conversations(self):
        net = build_nonlocal_server_net(Architecture.II, 3, 3000.0)
        result = analyze(net)
        assert 0 < server_population(result) <= 3.0 + 1e-9

    def test_flow_balance_in_equals_out(self):
        net = build_nonlocal_server_net(Architecture.II, 2, 3000.0)
        result = analyze(net)
        assert result.resource_usage("lambda_in") == pytest.approx(
            result.resource_usage("lambda_out"), rel=1e-6)

    def test_compute_time_grows_population(self):
        quick = analyze(build_nonlocal_server_net(
            Architecture.II, 2, 4000.0, 0.0))
        busy = analyze(build_nonlocal_server_net(
            Architecture.II, 2, 4000.0, 4000.0))
        assert server_population(busy) > server_population(quick)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ModelError):
            build_nonlocal_server_net(Architecture.I, 1, 3000.0, -1.0)


class TestIterativeSolution:
    def test_initial_delay_includes_compute(self):
        base = initial_server_delay(Architecture.II, 0.0)
        assert initial_server_delay(Architecture.II, 1000.0) == \
            pytest.approx(base + 1000.0)

    def test_converges_for_all_architectures(self):
        for arch in Architecture:
            solution = solve_nonlocal(arch, 1, 0.0)
            assert solution.throughput > 0
            assert solution.iterations <= 60

    def test_single_conversation_communication_times_match_thesis(self):
        """C from Table 6.25 (via offered loads): I ~6.5ms, II ~6.9ms,
        III ~5.1ms, IV ~5.0ms; reproduce within 2%."""
        expected = {Architecture.I: 6555.0, Architecture.II: 6930.0,
                    Architecture.III: 5130.0, Architecture.IV: 5022.0}
        for arch, target in expected.items():
            c = 1 / solve_nonlocal(arch, 1, 0.0).throughput
            assert c == pytest.approx(target, rel=0.02), arch

    def test_throughput_grows_with_conversations(self):
        t1 = solve_nonlocal(Architecture.II, 1, 2850.0).throughput
        t2 = solve_nonlocal(Architecture.II, 2, 2850.0).throughput
        assert t2 > t1

    def test_nonlocal_saturates_slower_than_local(self):
        """Section 6.9.1: the processing load spreads across two
        nodes, so adding conversations helps more than locally."""
        from repro.gtpn import analyze as _analyze
        from repro.models import build_local_net
        local_gain = (_analyze(build_local_net(
            Architecture.I, 2)).throughput()
            / _analyze(build_local_net(Architecture.I, 1)).throughput())
        nonlocal_gain = (solve_nonlocal(Architecture.I, 2, 0.0).throughput
                         / solve_nonlocal(Architecture.I, 1, 0.0)
                         .throughput)
        assert nonlocal_gain > local_gain

    def test_history_recorded(self):
        solution = solve_nonlocal(Architecture.II, 2, 2850.0)
        assert len(solution.history) == solution.iterations
        assert solution.round_trip_time == pytest.approx(
            2 / solution.throughput)

    def test_no_cache_fixed_point_shares_one_skeleton_per_side(self):
        """Under ``--no-cache`` the store neither answers nor
        remembers, yet each side of the fixed point builds its
        reachability graph once and re-times it on every later
        iteration — with the value of a cache-on run, bit for bit."""
        from collections import Counter

        from repro import config, obs
        from repro.perf.cache import configure_cache
        store = configure_cache()           # a fresh, empty global store
        try:
            with config.overrides(cache=False), \
                    obs.recording() as recorder:
                uncached = solve_nonlocal(Architecture.III, 3, 500.0)
            assert len(store) == 0
            with config.overrides(cache=True):
                cached = solve_nonlocal(Architecture.III, 3, 500.0)
        finally:
            configure_cache()
        spans = Counter(span.name for span in recorder.spans)
        assert spans["gtpn.build"] == 2
        # two analyses per iteration, one client and one server
        assert spans["gtpn.retime"] == 2 * uncached.iterations - 2
        assert uncached.throughput == cached.throughput
