"""Tests for the per-primitive re-costing of architecture II."""

import pytest

from repro import config
from repro.models import Architecture, Mode, solve, solve_grid
from repro.models.params import (LOCAL_PARAMS, NONLOCAL_CLIENT_PARAMS,
                                 NONLOCAL_SERVER_PARAMS, QUEUE_OP_US)
from repro.models.syncmodel import (local_params,
                                    nonlocal_client_params,
                                    nonlocal_server_params,
                                    queue_op_cost,
                                    round_trip_savings_us)


class TestQueueOpCost:
    def test_tas_reproduces_table_6_1_exactly(self):
        cost = queue_op_cost("tas")
        assert cost.processing_us == pytest.approx(60.0)
        assert cost.memory_cycles == pytest.approx(14.0)
        assert cost.queue_op_us == pytest.approx(QUEUE_OP_US)

    def test_cost_ordering(self):
        """Cheaper synchronization, cheaper op — LL/SC cheapest, the
        thesis's TAS most expensive, HTM paying begin/commit over
        LL/SC's free ride."""
        costs = {name: queue_op_cost(name).queue_op_us
                 for name in ("tas", "cas", "llsc", "htm")}
        assert costs["llsc"] < costs["htm"] < costs["cas"] \
            < costs["tas"]

    def test_savings_positive_except_baseline(self):
        assert round_trip_savings_us("tas") == pytest.approx(0.0)
        for name in ("cas", "llsc", "htm"):
            assert round_trip_savings_us(name) > 0


class TestScaledParams:
    def test_tas_is_the_committed_baseline_object(self):
        assert local_params("tas") is LOCAL_PARAMS[Architecture.II]
        assert nonlocal_client_params("tas") is \
            NONLOCAL_CLIENT_PARAMS[Architecture.II]
        assert nonlocal_server_params("tas") is \
            NONLOCAL_SERVER_PARAMS[Architecture.II]

    def test_only_mp_activities_scaled(self):
        base = LOCAL_PARAMS[Architecture.II]
        scaled = local_params("llsc")
        assert scaled.process_send < base.process_send
        assert scaled.match < base.match
        # host-side activities are untouched
        assert scaled.client_step == base.client_step
        assert scaled.server_step == base.server_step
        assert scaled.serve_base == base.serve_base

    def test_client_and_server_share_one_factor(self):
        client = nonlocal_client_params("cas")
        server = nonlocal_server_params("cas")
        base_c = NONLOCAL_CLIENT_PARAMS[Architecture.II]
        base_s = NONLOCAL_SERVER_PARAMS[Architecture.II]
        factor_c = client.process_send / base_c.process_send
        factor_s = server.match / base_s.match
        assert factor_c == pytest.approx(factor_s)
        assert 0 < factor_c < 1


class TestSolveWithSync:
    def test_throughput_ordering_tracks_primitive_cost(self):
        results = {name: solve(Architecture.II, Mode.LOCAL, 2,
                               sync=name).throughput
                   for name in ("tas", "cas", "llsc", "htm")}
        assert results["tas"] < results["cas"] < results["htm"] \
            < results["llsc"]

    def test_result_carries_the_primitive(self):
        result = solve(Architecture.II, Mode.LOCAL, 1, sync="cas")
        assert result.sync == "cas"

    def test_other_architectures_normalize_to_baseline(self):
        for arch in (Architecture.I, Architecture.III,
                     Architecture.IV):
            fast = solve(arch, Mode.LOCAL, 2, sync="llsc")
            base = solve(arch, Mode.LOCAL, 2)
            assert fast.sync == "tas"
            assert fast.throughput == base.throughput

    def test_ambient_sync_resolves_when_omitted(self):
        with config.overrides(sync="llsc"):
            ambient = solve(Architecture.II, Mode.LOCAL, 2)
        explicit = solve(Architecture.II, Mode.LOCAL, 2, sync="llsc")
        assert ambient.sync == "llsc"
        assert ambient.throughput == explicit.throughput

    def test_grid_accepts_five_tuples_and_fills_ambient(self):
        points = [(Architecture.II, Mode.LOCAL, 2, 0.0),
                  (Architecture.II, Mode.LOCAL, 2, 0.0, "llsc")]
        with config.overrides(sync="cas"):
            ambient, explicit = solve_grid(points, jobs=1)
        assert ambient.sync == "cas"
        assert explicit.sync == "llsc"
        assert ambient.throughput == \
            solve(Architecture.II, Mode.LOCAL, 2, sync="cas").throughput

    def test_nonlocal_solve_improves_with_cheap_primitive(self):
        base = solve(Architecture.II, Mode.NONLOCAL, 2)
        fast = solve(Architecture.II, Mode.NONLOCAL, 2, sync="llsc")
        assert fast.throughput > base.throughput
