"""The bit-identity contract: tracing never changes computed values.

Figures and tables must be bit-identical whether a recorder is
installed or not — the observability layer only reads clocks and
appends records.
"""

from __future__ import annotations

from repro import obs
from repro.experiments.figures import figure_6_7
from repro.experiments.tables import table_5_1
from repro.faults.chaos import outage_recovery_table
from repro.gtpn import analyze
from repro.models import Architecture, build_local_net
from repro.perf.cache import Store


def test_exact_solve_bit_identical_under_tracing():
    plain = analyze(build_local_net(Architecture.II, 2, 500.0),
                    cache=Store())
    with obs.recording():
        traced = analyze(build_local_net(Architecture.II, 2, 500.0),
                         cache=Store())
    assert traced.throughput() == plain.throughput()
    assert (traced.pi == plain.pi).all()
    assert traced.state_count == plain.state_count


def test_figure_values_bit_identical_under_tracing():
    plain = figure_6_7()
    with obs.recording() as recorder:
        traced = figure_6_7()
    assert [s.y for s in traced.series] == [s.y for s in plain.series]
    assert [s.x for s in traced.series] == [s.x for s in plain.series]
    assert recorder.record_count > 0      # the run *was* observed


def test_table_rows_bit_identical_under_tracing():
    plain = table_5_1()
    with obs.recording():
        traced = table_5_1()
    assert traced.rows == plain.rows


def test_kernel_simulation_bit_identical_under_tracing():
    plain = outage_recovery_table(seed=11)
    with obs.recording() as recorder:
        traced = outage_recovery_table(seed=11)
    assert traced.rows == plain.rows
    assert traced.notes == plain.notes
    # and the traced run recorded the simulator's work stream
    assert any(e.name == obs.SIM_WORK_EVENT for e in recorder.events)
