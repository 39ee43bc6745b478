"""Tests for structure sharing in the exact analyzer (repro.gtpn.Analyzer).

The contract under test: re-timing a stored reachability skeleton is
bit-identical to a from-scratch build, every timing change that could
alter branch resolution falls back to a full rebuild (and is counted),
the split (structure, timing) cache key never lets two different
timings collide, and every analysis leaves one trace shape.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import config, obs
from repro.gtpn import Analyzer, Guard, Net, activity_pair, analyze
from repro.gtpn.packed import SkeletonMismatch, packed_build, packed_retime
from repro.perf import Store
from repro.perf.cache import fingerprint_net


@pytest.fixture(autouse=True)
def _cache_off():
    """Isolate from the global cache: per-point analyze must take the
    plain build path so the comparison is against independent work."""
    with config.overrides(cache=False):
        yield


def _span_counts(recorder) -> Counter:
    return Counter(span.name for span in recorder.spans)


def _outcomes(recorder) -> list:
    return [span.attrs.get("outcome") for span in recorder.spans
            if span.name == "gtpn.analyze"]


def _grid_net(f1: float, f2: float, mean: float) -> Net:
    """One structure, three timing knobs: a conflict class (f1 vs f2)
    whose f2 member is guarded, and a geometric activity pair."""
    net = Net("sweep-grid")
    ready = net.place("Ready", tokens=2)
    a = net.place("A")
    b = net.place("B")
    done = net.place("Done")
    net.transition("Ta", delay=1, frequency=f1,
                   inputs=[ready], outputs=[a])
    net.transition("Tb", delay=2, frequency=f2,
                   guard=Guard(empty=("Done",)),
                   inputs=[ready], outputs=[b])
    activity_pair(net, "work", mean, inputs=[a], outputs=[done])
    net.transition("join", delay=1, inputs=[b], outputs=[done])
    net.transition("loop", delay=1, inputs=[done], outputs=[ready],
                   resource="lambda")
    return net


def _assert_identical(a, b):
    assert a.throughput() == b.throughput()
    assert np.array_equal(a.pi, b.pi)
    for name in ("table", "init_vec", "starts_matrix", "inflight_matrix"):
        assert np.array_equal(getattr(a.graph, name),
                              getattr(b.graph, name)), name
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a.graph.matrix, name),
                              getattr(b.graph.matrix, name)), name


# ----------------------------------------------------------------------
# split cache key
# ----------------------------------------------------------------------

def test_same_structure_different_timing_share_structure_key():
    fp1 = fingerprint_net(_grid_net(0.5, 0.5, 4.0))
    fp2 = fingerprint_net(_grid_net(0.25, 0.75, 9.0))
    assert fp1.structure == fp2.structure
    assert fp1.timing != fp2.timing
    assert fp1 != fp2                       # full keys never collide


def test_structure_key_tracks_structure():
    base = fingerprint_net(_grid_net(0.5, 0.5, 4.0))
    extra = _grid_net(0.5, 0.5, 4.0)
    extra.transition("spur", delay=1,
                     inputs=[extra.places[3]], outputs=[extra.places[0]])
    assert fingerprint_net(extra).structure != base.structure


# ----------------------------------------------------------------------
# retime == rebuild, property-tested over random grids
# ----------------------------------------------------------------------

@settings(max_examples=10, deadline=None)
@given(st.lists(st.tuples(st.floats(0.1, 1.0), st.floats(0.1, 1.0),
                          st.floats(2.0, 20.0)),
                min_size=2, max_size=5))
def test_property_sweep_matches_pointwise_analyze(grid):
    analyzer = Analyzer()
    recorder = obs.Recorder()
    for point in grid:
        with obs.recording(recorder):
            swept = analyzer.analyze(_grid_net(*point))
        fresh = analyze(_grid_net(*point))
        _assert_identical(swept, fresh)
    spans = _span_counts(recorder)
    assert spans["gtpn.build"] == 1
    assert spans["gtpn.retime"] == len(grid) - 1
    assert "gtpn.skeleton_mismatch" not in recorder.counters


def test_analyze_records_retimes_as_retimes():
    """One structure at three timings through plain ``analyze`` over
    one store: the first point builds, the others re-time the stored
    skeleton, and the trace says so."""
    store = Store()
    grid = [(0.5, 0.5, 4.0), (0.3, 0.7, 6.0), (0.9, 0.1, 12.0)]
    with config.overrides(cache=True), \
            obs.recording() as recorder:
        results = [analyze(_grid_net(*point), cache=store)
                   for point in grid]
    spans = _span_counts(recorder)
    assert spans["gtpn.build"] == 1
    assert spans["gtpn.retime"] == 2
    assert spans["gtpn.solve"] == 3
    assert spans["gtpn.analyze"] == 3
    assert _outcomes(recorder) == ["built", "retimed", "retimed"]
    for point, result in zip(grid, results):
        _assert_identical(result, analyze(_grid_net(*point)))


# ----------------------------------------------------------------------
# rebuild fallback: timing changes that invalidate the skeleton
# ----------------------------------------------------------------------

def _delay_net(d: int, f: float = 0.5) -> Net:
    net = Net("delays")
    ready = net.place("Ready", tokens=1)
    done = net.place("Done")
    net.transition("Ta", delay=2, frequency=f,
                   inputs=[ready], outputs=[done])
    net.transition("Tb", delay=d,
                   frequency=1.0 - f if f < 1.0 else 0.5,
                   inputs=[ready], outputs=[done])
    net.transition("loop", delay=1, inputs=[done], outputs=[ready],
                   resource="lambda")
    return net


def test_retime_rejects_changed_static_delay():
    net = _delay_net(2)
    _graph, skeleton = packed_build(net, max_states=10_000)
    changed = _delay_net(3)
    assert fingerprint_net(changed).structure == \
        fingerprint_net(net).structure
    with pytest.raises(SkeletonMismatch):
        packed_retime(skeleton, changed, max_states=10_000)


def test_retime_rejects_frequency_mask_flip():
    net = _grid_net(0.5, 0.5, 4.0)
    _graph, skeleton = packed_build(net, max_states=10_000)
    # Ta's frequency drops to zero: the conflict class resolves to a
    # different member set, so the recorded branches no longer apply
    with pytest.raises(SkeletonMismatch):
        packed_retime(skeleton, _grid_net(0.0, 0.5, 4.0),
                      max_states=10_000)


def test_solver_falls_back_to_rebuild_on_mismatch():
    analyzer = Analyzer()
    with obs.recording() as recorder:
        first = analyzer.analyze(_delay_net(2))
        second = analyzer.analyze(_delay_net(3))     # Tb's delay changed
    assert recorder.counters["gtpn.skeleton_mismatch"] == 1
    spans = _span_counts(recorder)
    assert spans["gtpn.build"] == 2 and spans["gtpn.retime"] == 0
    assert _outcomes(recorder) == ["built", "built"]
    _assert_identical(first, analyze(_delay_net(2)))
    _assert_identical(second, analyze(_delay_net(3)))
    # the rebuilt skeleton serves later points with the new timing
    with obs.recording() as recorder:
        third = analyzer.analyze(_delay_net(3))
    assert _outcomes(recorder) == ["retimed"]
    _assert_identical(third, second)


def test_analyze_counts_rebuild_on_mismatch_through_the_store():
    """The same delay change through plain ``analyze`` over one shared
    store: the stored skeleton is rejected, counted, and replaced."""
    store = Store()
    with config.overrides(cache=True), \
            obs.recording() as recorder:
        first = analyze(_delay_net(2), cache=store)
        second = analyze(_delay_net(3), cache=store)
        third = analyze(_delay_net(3, 0.25), cache=store)
    assert recorder.counters["gtpn.skeleton_mismatch"] == 1
    spans = _span_counts(recorder)
    assert spans["gtpn.build"] == 2 and spans["gtpn.retime"] == 1
    assert _outcomes(recorder) == ["built", "built", "retimed"]
    _assert_identical(first, analyze(_delay_net(2)))
    _assert_identical(second, analyze(_delay_net(3)))
    _assert_identical(third, analyze(_delay_net(3, 0.25)))
