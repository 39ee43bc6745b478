"""Tests for exact symmetry lumping (``analyze(..., lump=True)``).

The contract under test: on a net with declared replica symmetry the
lumped chain is a strongly-lumpable quotient, so every steady-state
measure — throughput, per-pool busy fractions, per-transition firing
rates (orbit-averaged) — agrees with the unlumped exact solve to
far better than 1e-9, while the state space shrinks.  Plus the
declaration-time validation: ``declare_symmetry`` must reject
malformed groups rather than let an inexact fold through.  And a
lumped result read back from the store's disk tier equals the cold
solve.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import config, obs
from repro.errors import ModelError
from repro.gtpn import Guard, Net, analyze
from repro.perf import Store
from repro.models.params import Architecture
from repro.models.symmetric import build_replicated_local_net

TOL = 1e-9


@pytest.fixture(autouse=True)
def _cache_off():
    with config.overrides(cache=False):
        yield


def _operating_points():
    return st.one_of(
        st.tuples(st.just(Architecture.I), st.integers(2, 3),
                  st.sampled_from([0.0, 5.0, 17.0])),
        st.tuples(st.just(Architecture.II), st.just(2),
                  st.sampled_from([0.0, 5.0])))


@settings(max_examples=8, deadline=None)
@given(_operating_points())
def test_lumped_measures_match_unlumped(point):
    architecture, conversations, compute = point
    exact = analyze(build_replicated_local_net(
        architecture, conversations, compute))
    lumped = analyze(build_replicated_local_net(
        architecture, conversations, compute), lump=True)
    assert lumped.state_count < exact.state_count
    assert lumped.graph.transition_orbits
    assert abs(lumped.throughput() - exact.throughput()) < TOL
    net = exact.net
    for place in net.places:
        if place.initial_tokens > 0:
            assert abs(lumped.busy_fraction(place.name)
                       - exact.busy_fraction(place.name)) < TOL
    for transition in net.transitions:
        assert abs(lumped.firing_rate(transition.name)
                   - exact.firing_rate(transition.name)) < TOL


def test_lumped_quotient_shrinks_by_replica_permutations():
    net = build_replicated_local_net(Architecture.I, 3)
    exact = analyze(build_replicated_local_net(Architecture.I, 3))
    with obs.recording() as recorder:
        lumped = analyze(net, lump=True)
    # 3 interchangeable replicas: the quotient can fold up to 3! states
    # onto one representative and never fewer than 1
    assert exact.state_count / 6 <= lumped.state_count
    assert lumped.state_count < exact.state_count
    assert len(lumped.graph.place_orbits[0]) == 3
    assert len(lumped.graph.transition_orbits[0]) == 3
    assert recorder.counters["gtpn.lumped"] > 0


def test_lumped_result_from_disk_store_equals_cold_solve(tmp_path):
    def make():
        return build_replicated_local_net(Architecture.I, 3, 5.0)

    with config.overrides(cache=True):
        cold = analyze(make(), lump=True, cache=Store(tmp_path))
        disk = Store(tmp_path)          # empty memory tier, same disk
        with obs.recording() as recorder:
            warm = analyze(make(), lump=True, cache=disk)
    assert disk.hits["analysis"] == 1
    assert [span.attrs.get("outcome") for span in recorder.spans
            if span.name == "gtpn.analyze"] == ["cache-hit"]
    assert warm.graph.transition_orbits == cold.graph.transition_orbits
    for transition in cold.net.transitions:
        assert warm.firing_rate(transition.name) == \
            cold.firing_rate(transition.name)
    for place in cold.net.places:
        assert warm.mean_tokens(place.name) == \
            cold.mean_tokens(place.name)


def test_replicated_net_matches_pooled_throughput():
    """The replicated form describes the same system as the pooled
    chapter-6 local model; with a single host their throughputs agree
    closely (the pooling is itself an exact counter abstraction of
    the same underlying chain)."""
    from repro.models.local import build_local_net
    pooled = analyze(build_local_net(Architecture.I, 2))
    replicated = analyze(build_replicated_local_net(Architecture.I, 2),
                         lump=True)
    assert replicated.throughput() == pytest.approx(
        pooled.throughput(), rel=1e-12)


def _pair_net():
    net = Net("pair")
    host = net.place("Host", tokens=1)
    a0 = net.place("A0", tokens=1)
    a1 = net.place("A1", tokens=1)
    b0 = net.place("B0")
    b1 = net.place("B1")
    net.transition("t0", delay=2, inputs=[a0], outputs=[b0],
                   extra_resources=["host"])
    net.transition("t1", delay=2, inputs=[a1], outputs=[b1],
                   extra_resources=["host"])
    net.transition("r0", delay=1, inputs=[b0], outputs=[a0],
                   resource="lambda")
    net.transition("r1", delay=1, inputs=[b1], outputs=[a1],
                   resource="lambda")
    return net, host


def test_declare_symmetry_rejects_single_member():
    net, _ = _pair_net()
    with pytest.raises(ModelError, match="at least 2"):
        net.declare_symmetry([(["A0", "B0"], ["t0", "r0"])])


def test_declare_symmetry_rejects_misaligned_lists():
    net, _ = _pair_net()
    with pytest.raises(ModelError, match="aligned"):
        net.declare_symmetry([(["A0", "B0"], ["t0", "r0"]),
                              (["A1"], ["t1", "r1"])])


def test_declare_symmetry_rejects_overlapping_members():
    net, _ = _pair_net()
    with pytest.raises(ModelError, match="overlap"):
        net.declare_symmetry([(["A0", "B0"], ["t0", "r0"]),
                              (["A0", "B1"], ["t1", "r1"])])


def test_declare_symmetry_rejects_non_automorphism():
    net = Net("asym")
    a0 = net.place("A0", tokens=1)
    a1 = net.place("A1", tokens=2)   # different initial marking
    b0 = net.place("B0")
    b1 = net.place("B1")
    net.transition("t0", delay=2, inputs=[a0], outputs=[b0])
    net.transition("t1", delay=2, inputs=[a1], outputs=[b1])
    with pytest.raises(ModelError, match="not a symmetry"):
        net.declare_symmetry([(["A0", "B0"], ["t0"]),
                              (["A1", "B1"], ["t1"])])


def test_declare_symmetry_rejects_mismatched_delay():
    net = Net("delays")
    a0 = net.place("A0", tokens=1)
    a1 = net.place("A1", tokens=1)
    b0 = net.place("B0")
    b1 = net.place("B1")
    net.transition("t0", delay=2, inputs=[a0], outputs=[b0])
    net.transition("t1", delay=3, inputs=[a1], outputs=[b1])
    with pytest.raises(ModelError, match="delay"):
        net.declare_symmetry([(["A0", "B0"], ["t0"]),
                              (["A1", "B1"], ["t1"])])


def _guarded_pair_net(mirrored: bool):
    """Replicas share the host; replica k's ``r`` idles on the other
    replica's ``t`` when *mirrored*, on replica 1's ``t`` otherwise."""
    net = Net("guarded-pair")
    host = net.place("Host", tokens=1)
    for k in (0, 1):
        net.place(f"A{k}", tokens=1)
        net.place(f"B{k}")
    for k in (0, 1):
        a, b = net.get_place(f"A{k}"), net.get_place(f"B{k}")
        net.transition(f"t{k}", delay=2, inputs=[a, host],
                       outputs=[b, host])
        net.transition(f"r{k}", delay=1, inputs=[b], outputs=[a],
                       resource="lambda",
                       guard=Guard(idle=(f"t{1 - k if mirrored else 1}",)))
    return net


def test_declare_symmetry_checks_guards():
    net = _guarded_pair_net(mirrored=False)
    with pytest.raises(ModelError, match="guard"):
        net.declare_symmetry([(["A0", "B0"], ["t0", "r0"]),
                              (["A1", "B1"], ["t1", "r1"])])
    net = _guarded_pair_net(mirrored=True)
    net.declare_symmetry([(["A0", "B0"], ["t0", "r0"]),
                          (["A1", "B1"], ["t1", "r1"])])
    plain = analyze(net, cache=None)
    lumped = analyze(net, lump=True, cache=None)
    assert lumped.state_count < plain.state_count
    assert lumped.throughput() == pytest.approx(plain.throughput(),
                                                rel=1e-12)
