"""Integration tests of the headline result shapes (section 6.10).

These run the light experiment grids and assert the qualitative
conclusions of the thesis: who wins, by roughly what factor, and where
the win region lies.
"""

import pytest

from repro import api
from repro.models import (Architecture, Mode, solve,
                          server_time_for_offered_load)


class TestFigure617:
    def test_local_max_load_shapes(self):
        figure = api.run_experiment("figure-6.17a").artifact
        arch1 = figure.get_series("arch I")
        arch2 = figure.get_series("arch II")
        arch3 = figure.get_series("arch III")
        # arch I flat in conversations
        assert arch1.y[0] == pytest.approx(arch1.y[-1], rel=1e-6)
        # arch II below arch I at one conversation (the ~10% loss) ...
        assert arch2.y[0] < arch1.y[0]
        # ... but above with several conversations
        assert arch2.y[-1] > arch1.y[-1]
        # arch III significantly better than both everywhere
        for y1, y2, y3 in zip(arch1.y, arch2.y, arch3.y):
            assert y3 > y1
            assert y3 > y2
        # throughput increase is sublinear (MP bandwidth limit)
        assert arch2.y[3] < 4 * arch2.y[0]


class TestFigure620:
    def test_partitioned_bus_no_significant_gain_local(self):
        figure = api.run_experiment("figure-6.20").artifact
        arch3 = figure.get_series("arch III")
        arch4 = figure.get_series("arch IV")
        for y3, y4 in zip(arch3.y, arch4.y):
            # IV is never significantly better than III (section 6.9.3)
            assert y4 == pytest.approx(y3, rel=0.06)


class TestRealisticWorkloadRegion:
    """Section 6.10 conclusion 1: the coprocessor wins over a region
    of offered loads, and the gain evaporates when compute-bound."""

    def test_arch2_win_region_local(self):
        for load in (0.7, 0.5):
            server = server_time_for_offered_load(
                Architecture.I, Mode.LOCAL, load)
            t1 = solve(Architecture.I, Mode.LOCAL, 4, server).throughput
            t2 = solve(Architecture.II, Mode.LOCAL, 4, server).throughput
            assert t2 > 1.3 * t1, load

    def test_gain_vanishes_when_compute_bound(self):
        server = server_time_for_offered_load(
            Architecture.I, Mode.LOCAL, 0.1)
        t1 = solve(Architecture.I, Mode.LOCAL, 2, server).throughput
        t2 = solve(Architecture.II, Mode.LOCAL, 2, server).throughput
        assert t2 == pytest.approx(t1, rel=0.1)

    def test_upper_bound_factor_two(self):
        """With an MP equal in speed to the host, the improvement is
        bounded by 2x (section 6.9.2)."""
        for load in (0.9, 0.7, 0.5):
            server = server_time_for_offered_load(
                Architecture.I, Mode.LOCAL, load)
            t1 = solve(Architecture.I, Mode.LOCAL, 4, server).throughput
            t2 = solve(Architecture.II, Mode.LOCAL, 4, server).throughput
            assert t2 < 2.0 * t1


class TestOfferedLoadTables:
    def test_table_6_24_renders_all_architectures(self):
        table = api.run_experiment("table-6.24").artifact
        assert table.headers == ["Server Time (ms)", "I", "II", "III",
                                 "IV"]
        assert len(table.rows) == 13
        # first row: zero server time = unit offered load everywhere
        assert table.rows[0][1:] == [1.0, 1.0, 1.0, 1.0]
