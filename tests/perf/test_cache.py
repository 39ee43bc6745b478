"""Store tests: warm solves must be indistinguishable from cold ones,
the fingerprint must key on structure, not names, and every namespace
follows one LRU, disk and kill-switch rule."""

from collections import Counter

import numpy as np
import pytest

from repro import config, obs
from repro.gtpn import Analyzer, Guard, Net, analyze
from repro.models import Architecture, build_local_net
from repro.perf import Store, fingerprint_net


def _cycle_net(name="cycle", delay=5, compute=0):
    net = Net(name)
    ready = net.place("Ready", tokens=1)
    done = net.place("Done")
    net.transition("serve", delay=delay + compute, inputs=[ready],
                   outputs=[done], resource="lambda")
    net.transition("recycle", delay=1, inputs=[done], outputs=[ready])
    return net


def test_warm_analyze_identical_to_cold():
    cache = Store()
    cold = analyze(build_local_net(Architecture.I, 2, 500.0),
                   cache=cache)
    warm = analyze(build_local_net(Architecture.I, 2, 500.0),
                   cache=cache)
    assert cache.hits["analysis"] == 1 and cache.misses["analysis"] == 1
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
    cache = Store()
    ra = analyze(a, cache=cache)
    rb = analyze(b, cache=cache)
    assert cache.hits["analysis"] == 1
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
    guards = [None, Guard(idle=("back",)), Guard(empty=("Done",))]
    fps = [fingerprint_net(_guarded_net(g)) for g in guards]
    assert len({fp.structure for fp in fps}) == 3
    assert len({fp.timing for fp in fps}) == 1

    # one shared cache: no payload hit, one skeleton per guard
    cache = Store()
    results = [analyze(_guarded_net(g), cache=cache) for g in guards]
    assert cache.hits["analysis"] == 0 and cache.misses["analysis"] == 3
    skeletons = [cache.get_structure(fp.structure, lump=False)
                 for fp in fps]
    assert len({id(sk) for sk in skeletons}) == 3
    assert [sk.guards[0] for sk in skeletons] == \
        [None, ((), (1,)), ((1,), ())]
    assert results[0].throughput() != results[1].throughput()

    # an analyzer never re-times one guard's skeleton for another
    analyzer = Analyzer(cache=Store())
    with obs.recording() as recorder:
        for guard, fresh in zip(guards, results):
            swept = analyzer.analyze(_guarded_net(guard))
            assert swept.throughput() == fresh.throughput()
    spans = Counter(span.name for span in recorder.spans)
    assert spans["gtpn.build"] == 3
    assert spans["gtpn.retime"] == 0


def test_disk_tier_shares_solves(tmp_path):
    first = Store(directory=tmp_path)
    cold = analyze(_cycle_net(), cache=first)
    # a fresh cache over the same directory hits the disk tier
    second = Store(directory=tmp_path)
    warm = analyze(_cycle_net(), cache=second)
    assert second.hits["analysis"] == 1 and second.misses["analysis"] == 0
    assert warm.throughput() == cold.throughput()
    assert np.array_equal(warm.pi, cold.pi)


@pytest.mark.parametrize("junk", [b"not a pickle", b"garbage\n", b""])
def test_corrupt_disk_entry_is_a_miss(tmp_path, junk):
    # different corruption shapes raise different exceptions from
    # pickle.load (UnpicklingError, ValueError, EOFError); all must
    # read as a miss, never an error, and the torn entry is deleted
    # and counted
    cache = Store(directory=tmp_path)
    analyze(_cycle_net(), cache=cache)
    entries = list(tmp_path.glob("analysis-*.pkl"))
    for entry in entries:
        entry.write_bytes(junk)
    fresh = Store(directory=tmp_path)
    with obs.recording() as recorder:
        result = analyze(_cycle_net(), cache=fresh)
    assert result.throughput() > 0
    assert fresh.misses["analysis"] >= 1
    assert fresh.unreadable == len(entries)
    assert recorder.counters.get("cache.unreadable") == len(entries)


def test_lru_bound_evicts_oldest():
    cache = Store(limits={"analysis": 2})
    for delay in (3, 4, 5):
        analyze(_cycle_net(delay=delay), cache=cache)
    assert len(cache) == 2


def test_cache_disable_switch(monkeypatch):
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    assert config.cache_enabled()
    with config.overrides(cache=False):
        assert not config.cache_enabled()
    assert config.cache_enabled()
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    assert not config.cache_enabled()


# ----------------------------------------------------------------------
# one LRU, disk and kill-switch rule for every namespace
# ----------------------------------------------------------------------

def _rkey(n):
    return ("result", f"digest-{n}")


def test_roundtrip_and_counters():
    store = Store()
    with obs.recording() as recorder:
        assert store.get(_rkey(1)) is None
        store.put(_rkey(1), {"value": 41})
        assert store.get(_rkey(1)) == {"value": 41}
        assert store.get(("solve", "II", 1)) is None
    assert store.hits == {"result": 1}
    assert store.misses == {"result": 1, "solve": 1}
    assert recorder.counters["cache.result_hit"] == 1
    assert recorder.counters["cache.result_miss"] == 1
    assert recorder.counters["cache.solve_miss"] == 1
    # the analysis counters feed the hit ratio; other namespaces stay out
    assert "cache.hit" not in recorder.counters
    assert "cache.miss" not in recorder.counters


def test_memory_lru_bound():
    # each namespace is its own LRU, and a read refreshes recency
    store = Store(limits={"result": 2})
    store.put(("solve", 0), 0.5)
    for seed in range(3):
        store.put(_rkey(seed), seed)
    assert store.entries("result") == 2 and store.entries("solve") == 1
    assert store.get(_rkey(1)) == 1
    store.put(_rkey(3), 3)              # evicts 2, the least recent
    assert store.get(_rkey(1)) == 1 and store.get(_rkey(3)) == 3
    assert store.get(_rkey(2)) is None and store.get(_rkey(0)) is None
    assert store.get(("solve", 0)) == 0.5


def test_disk_tier_survives_restart(tmp_path):
    first = Store(directory=tmp_path)
    first.put(_rkey(7), {"seed": 7})
    first.put(("solve", "II", 7), 0.25)
    assert sorted(path.name.split("-")[0]
                  for path in tmp_path.glob("*.pkl")) == \
        ["result", "solve"]
    # a fresh store over the same directory answers from disk
    reborn = Store(directory=tmp_path)
    assert len(reborn) == 0
    assert reborn.get(_rkey(7)) == {"seed": 7}
    assert reborn.get(("solve", "II", 7)) == 0.25
    assert reborn.hits == {"result": 1, "solve": 1}


def test_eviction_falls_back_to_disk(tmp_path):
    store = Store(directory=tmp_path, limits={"result": 1})
    store.put(_rkey(1), "one")
    store.put(_rkey(2), "two")          # evicts key 1 from memory
    assert store.get(_rkey(1)) == "one"  # reloaded from the disk tier


def test_corrupt_result_entry_is_deleted(tmp_path):
    store = Store(directory=tmp_path)
    store.put(_rkey(5), "fine")
    (path,) = tmp_path.glob("result-*.pkl")
    path.write_bytes(b"not a pickle")
    fresh = Store(directory=tmp_path)
    assert fresh.get(_rkey(5)) is None  # torn entry: a miss ...
    assert not path.exists()            # ... deleted ...
    assert fresh.unreadable == 1        # ... and counted


@pytest.mark.parametrize("stale", [
    b"crepro.perf.cache\nAnalysisCache\n.",   # class gone
    b"crepro.perf.pool\nmap_sweep\n.",        # module gone
])
def test_entry_of_a_deleted_class_is_a_miss(tmp_path, stale):
    # an old REPRO_CACHE_DIR can hold pickles of classes and modules
    # that no longer exist: AttributeError / ImportError read as torn
    store = Store(directory=tmp_path)
    store.put(_rkey(6), "fine")
    (path,) = tmp_path.glob("result-*.pkl")
    path.write_bytes(stale)
    fresh = Store(directory=tmp_path)
    assert fresh.get(_rkey(6)) is None
    assert not path.exists() and fresh.unreadable == 1


def test_unpicklable_result_stays_memory_only(tmp_path):
    store = Store(directory=tmp_path)
    store.put(_rkey(9), lambda: None)   # lambdas do not pickle
    assert not list(tmp_path.iterdir())  # no entry, no temp file left
    assert callable(store.get(_rkey(9)))  # memory tier still serves it


def test_clear_drops_memory_keeps_disk(tmp_path):
    store = Store(directory=tmp_path)
    store.put(_rkey(1), 1)
    store.get(_rkey(1))
    store.clear()
    assert len(store) == 0 and not store.hits and not store.misses
    # the disk tier is shared with other processes: clear leaves it
    assert store.get(_rkey(1)) == 1


def test_stats_shape(tmp_path):
    store = Store(directory=tmp_path)
    store.put(_rkey(1), 1)
    stats = store.stats()
    assert stats["entries"] == {"analysis": 0, "solve": 0, "result": 1}
    assert stats["directory"] == str(tmp_path)
    assert stats["write_failures"] == 0 and stats["unreadable"] == 0


def test_spill_failure_is_counted_and_surfaced(tmp_path):
    store = Store(directory=tmp_path)
    with obs.recording() as recorder:
        store.put(_rkey(1), lambda: None)   # unpicklable: memory-only
        store.put(_rkey(2), "fine")         # picklable: spills to disk
    assert store.write_failures == 1
    assert store.stats()["write_failures"] == 1
    assert recorder.counters.get("cache.write_failure") == 1.0


class _ExplodesOnLoad:
    """Pickles fine; its __setstate__ raises on unpickling — a
    programming defect, not a torn disk entry."""

    def __init__(self):
        self.payload = "armed"      # non-empty state forces __setstate__

    def __setstate__(self, state):
        raise RuntimeError("defective __setstate__")


def test_defective_disk_entry_propagates(tmp_path):
    store = Store(directory=tmp_path)
    store.put(_rkey(3), _ExplodesOnLoad())
    fresh = Store(directory=tmp_path)
    with pytest.raises(RuntimeError):
        fresh.get(_rkey(3))                # not silently a miss
    assert len(list(tmp_path.glob("result-*.pkl"))) == 1  # not deleted


def test_kill_switch_covers_every_namespace(tmp_path):
    store = Store(directory=tmp_path)
    keys = [("structure", "timing", "none"), ("solve", 1),
            _rkey(1)]
    with config.overrides(cache=False):
        for key in keys:
            store.put(key, 1.0)
            assert store.get(key) is None
    assert len(store) == 0 and not list(tmp_path.iterdir())
    assert not store.hits and not store.misses
