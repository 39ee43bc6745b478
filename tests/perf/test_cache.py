"""Cache-correctness tests: warm solves must be indistinguishable
from cold ones, and the fingerprint must key on structure, not names."""

import numpy as np
import pytest

from repro.gtpn import Guard, Net, analyze
from repro.models import Architecture, build_local_net
from repro.perf import AnalysisCache, cache_enabled, fingerprint_net, \
    set_cache_enabled


def _cycle_net(name="cycle", delay=5, compute=0):
    net = Net(name)
    ready = net.place("Ready", tokens=1)
    done = net.place("Done")
    net.transition("serve", delay=delay + compute, inputs=[ready],
                   outputs=[done], resource="lambda")
    net.transition("recycle", delay=1, inputs=[done], outputs=[ready])
    return net


def test_warm_analyze_identical_to_cold():
    cache = AnalysisCache()
    cold = analyze(build_local_net(Architecture.I, 2, 500.0),
                   cache=cache)
    warm = analyze(build_local_net(Architecture.I, 2, 500.0),
                   cache=cache)
    assert cache.hits == 1 and cache.misses == 1
    assert warm.throughput() == cold.throughput()
    assert warm.state_count == cold.state_count
    assert np.array_equal(warm.pi, cold.pi)
    for t in cold.net.transitions:
        assert warm.firing_rate(t.name) == cold.firing_rate(t.name)
    for p in cold.net.places:
        assert warm.mean_tokens(p.name) == cold.mean_tokens(p.name)


def test_structurally_identical_nets_share_fingerprint():
    # net/place/transition names are cosmetic: they must not split keys
    a = _cycle_net(name="first")
    b = _cycle_net(name="second")
    b.name = "renamed-again"
    assert fingerprint_net(a) == fingerprint_net(b)

    # ... and a hit on the renamed net binds results to *its* names
    cache = AnalysisCache()
    ra = analyze(a, cache=cache)
    rb = analyze(b, cache=cache)
    assert cache.hits == 1
    assert rb.throughput() == ra.throughput()
    assert rb.net is b


def test_fingerprint_distinguishes_structure():
    base = fingerprint_net(_cycle_net())
    assert fingerprint_net(_cycle_net(delay=6)) != base
    extra = _cycle_net()
    extra.place("Spare", tokens=1)
    assert fingerprint_net(extra) != base


def test_fingerprint_distinguishes_initial_marking():
    net = _cycle_net()
    other = Net("other")
    ready = other.place("Ready", tokens=2)
    done = other.place("Done")
    other.transition("serve", delay=5, inputs=[ready], outputs=[done],
                     resource="lambda")
    other.transition("recycle", delay=1, inputs=[done], outputs=[ready])
    assert fingerprint_net(net) != fingerprint_net(other)


def _guarded_net(guard=None):
    net = Net("guarded")
    ready = net.place("Ready", tokens=2)
    done = net.place("Done")
    net.transition("go", delay=1, inputs=[ready], outputs=[done],
                   resource="lambda", guard=guard)
    net.transition("back", delay=2, frequency=0.5, inputs=[done],
                   outputs=[ready])
    net.transition("skip", delay=1, frequency=0.5, inputs=[done],
                   outputs=[ready])
    return net


def test_fingerprint_covers_guard():
    from repro.gtpn.sweep import SweepSolver
    guards = [None, Guard(idle=("back",)), Guard(empty=("Done",))]
    fps = [fingerprint_net(_guarded_net(g)) for g in guards]
    assert len({fp.structure for fp in fps}) == 3
    assert len({fp.timing for fp in fps}) == 1

    # one shared cache: no payload hit, one skeleton per guard
    cache = AnalysisCache()
    results = [analyze(_guarded_net(g), cache=cache) for g in guards]
    assert cache.hits == 0 and cache.misses == 3
    skeletons = [cache.get_structure(fp.structure, kind="packed:none")
                 for fp in fps]
    assert len({id(sk) for sk in skeletons}) == 3
    assert [sk.guards[0] for sk in skeletons] == \
        [None, ((), (1,)), ((1,), ())]
    assert results[0].throughput() != results[1].throughput()

    # a sweep solver never re-times one guard's skeleton for another
    solver = SweepSolver(cache=None)
    for guard, fresh in zip(guards, results):
        swept = solver.analyze(_guarded_net(guard))
        assert swept.throughput() == fresh.throughput()
    assert solver.stats.skeleton_builds == 3
    assert solver.stats.points_retimed == 0


def test_disk_tier_shares_solves(tmp_path):
    first = AnalysisCache(directory=tmp_path)
    cold = analyze(_cycle_net(), cache=first)
    # a fresh cache over the same directory hits the disk tier
    second = AnalysisCache(directory=tmp_path)
    warm = analyze(_cycle_net(), cache=second)
    assert second.hits == 1 and second.misses == 0
    assert warm.throughput() == cold.throughput()
    assert np.array_equal(warm.pi, cold.pi)


@pytest.mark.parametrize("junk", [b"not a pickle", b"garbage\n", b""])
def test_corrupt_disk_entry_is_a_miss(tmp_path, junk):
    # different corruption shapes raise different exceptions from
    # pickle.load (UnpicklingError, ValueError, EOFError); all must
    # read as a miss, never an error
    cache = AnalysisCache(directory=tmp_path)
    analyze(_cycle_net(), cache=cache)
    for entry in tmp_path.glob("analysis-*.pkl"):
        entry.write_bytes(junk)
    fresh = AnalysisCache(directory=tmp_path)
    result = analyze(_cycle_net(), cache=fresh)
    assert result.throughput() > 0
    assert fresh.misses >= 1


def test_lru_bound_evicts_oldest():
    cache = AnalysisCache(max_entries=2)
    for delay in (3, 4, 5):
        analyze(_cycle_net(delay=delay), cache=cache)
    assert len(cache) == 2


def test_cache_disable_switch(monkeypatch):
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    set_cache_enabled(True)
    assert cache_enabled()
    set_cache_enabled(False)
    try:
        assert not cache_enabled()
    finally:
        set_cache_enabled(True)
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    assert not cache_enabled()
