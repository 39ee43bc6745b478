"""Tests for the array-native packed GTPN engine (repro.gtpn.packed).

The contract under test: unlumped, the packed engine is *bit-identical*
to the object walk kept as the oracle
(``reachability._build_object_graph``) — same state table, same CSR
arrays, same initial, expected-start and in-flight arrays, same
stationary vector — on
nets covering multi-tick delays, immediate transitions, multi-token
places, conflict classes and guards (every non-local client and server
net of archs I-IV at n = 1..3 on one and two hosts).  Plus the
supporting machinery: the pack/unpack round trip, the vectorized row
interner, the structured state-space limit error and the encoding caps.
"""

import itertools

import numpy as np
import pytest

from repro.errors import AnalysisError, StateSpaceLimitError
from repro.gtpn import Guard, Net, activity_pair, packed
from repro.gtpn.markov import stationary_distribution
from repro.gtpn.packed import (_Interner, _unique_rows_first_seen,
                               compile_packed, packed_build,
                               packed_retime)
from repro.gtpn.reachability import _build_object_graph
from repro.models.local import build_local_net
from repro.models.nonlocal_client import build_nonlocal_client_net
from repro.models.nonlocal_server import build_nonlocal_server_net
from repro.models.params import Architecture


def _cycle_net() -> Net:
    """Multi-token place, delay >= 2, and a geometric activity pair."""
    net = Net("cycle")
    ready = net.place("Ready", tokens=2)
    done = net.place("Done")
    activity_pair(net, "serve", 10.0, inputs=[ready], outputs=[done],
                  resource="lambda")
    net.transition("recycle", delay=2, inputs=[done], outputs=[ready])
    return net


def _immediate_net() -> Net:
    """A zero-delay transition between two timed stages."""
    net = Net("imm")
    a = net.place("A", tokens=2)
    b = net.place("B")
    c = net.place("C")
    net.transition("go", delay=3, inputs=[a], outputs=[b])
    net.transition("hop", delay=0, inputs=[b], outputs=[c])
    net.transition("back", delay=1, inputs=[c], outputs=[a],
                   resource="lambda")
    return net


def _conflict_net() -> Net:
    """Two transitions competing for one token (a conflict class)."""
    net = Net("conflict")
    ready = net.place("Ready", tokens=1)
    left = net.place("Left")
    right = net.place("Right")
    done = net.place("Done")
    net.transition("tl", delay=1, frequency=0.25,
                   inputs=[ready], outputs=[left])
    net.transition("tr", delay=2, frequency=0.75,
                   inputs=[ready], outputs=[right])
    net.transition("jl", delay=3, inputs=[left], outputs=[done])
    net.transition("jr", delay=1, inputs=[right], outputs=[done])
    net.transition("loop", delay=1, inputs=[done], outputs=[ready],
                   resource="lambda")
    return net


def _guarded_relay_net() -> Net:
    """``G`` idles on ``Slow``, which competes with ``Other`` for A.

    ``G``'s input arrives through an immediate hop, so ``G`` is first
    enabled in the second settle round, after the first round started
    ``Slow`` or ``Other``: the guard must see a firing started earlier
    in the same tick.  The post-advance marking with ``Slow`` or
    ``Other`` in flight is the same, so the settle memo must key on
    ``Slow``'s in-flight count as well as on the marking.
    """
    net = Net("guarded-relay")
    a = net.place("A", tokens=1)
    b = net.place("B")
    c = net.place("C", tokens=1)
    net.transition("Slow", delay=2, frequency=0.5, inputs=[a],
                   outputs=[a])
    net.transition("Other", delay=2, frequency=0.5, inputs=[a],
                   outputs=[a])
    net.transition("hop", delay=0, inputs=[c], outputs=[b])
    net.transition("G", delay=1, guard=Guard(idle=("Slow",)),
                   inputs=[b], outputs=[c], resource="lambda")
    return net


def _nonlocal_nets() -> list:
    nets = []
    for arch, n, hosts in itertools.product(Architecture, (1, 2, 3),
                                            (1, 2)):
        nets.append(lambda a=arch, n=n, h=hosts:
                    build_nonlocal_client_net(a, n, 3000.0, hosts=h))
        nets.append(lambda a=arch, n=n, h=hosts:
                    build_nonlocal_server_net(a, n, 2000.0, 100.0,
                                              hosts=h))
    return nets


NETS = [_cycle_net, _immediate_net, _conflict_net,
        lambda: build_local_net(Architecture.I, 2),
        lambda: build_local_net(Architecture.II, 2),
        _guarded_relay_net, *_nonlocal_nets()]


def _assert_bit_identical(a, b):
    """Exact equality of every array two graphs hold."""
    for name in ("table", "init_vec", "starts_matrix", "inflight_matrix"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a.matrix, name),
                              getattr(b.matrix, name)), name


@pytest.mark.parametrize("make", NETS, ids=lambda f: "net")
def test_packed_build_is_bit_identical_to_object_walk(make):
    net = make()
    og = _build_object_graph(net, 200_000)
    pg, _ = packed_build(net, compile_packed(net), max_states=200_000)
    _assert_bit_identical(og, pg)
    assert (stationary_distribution(og) == stationary_distribution(pg)).all()


@pytest.mark.parametrize("make", NETS, ids=lambda f: "net")
def test_packed_retime_is_bit_identical_to_packed_build(make):
    net = make()
    pg, skeleton = packed_build(net, compile_packed(net),
                                max_states=200_000)
    rg = packed_retime(skeleton, net, max_states=200_000)
    _assert_bit_identical(rg, pg)


def test_pack_unpack_round_trip():
    net = _cycle_net()
    pnet = compile_packed(net)
    graph, _ = packed_build(net, pnet, max_states=200_000)
    layout = graph.layout
    states = layout.unpack_all(graph.table)
    assert len(set(states)) == graph.state_count
    for state, row in zip(states, graph.table):
        assert layout.unpack(row) == state
        assert (layout.pack(state) == row).all()


def test_interner_assigns_first_seen_ids_and_is_stable():
    rows = np.array([[1, 2], [3, 4], [1, 2], [5, 6], [3, 4]],
                    dtype=np.int32)
    interner = _Interner(2)
    ids = interner.intern(rows)
    assert ids.tolist() == [0, 1, 0, 2, 1]
    assert interner.n == 3
    assert (interner.table() == [[1, 2], [3, 4], [5, 6]]).all()
    # a second pass over known plus fresh rows keeps existing ids
    more = np.array([[5, 6], [7, 8], [1, 2]], dtype=np.int32)
    assert interner.intern(more).tolist() == [2, 3, 0]
    assert interner.n == 4


def test_unique_rows_first_seen_order():
    rows = np.array([[9, 9], [0, 1], [9, 9], [0, 1], [2, 2]],
                    dtype=np.int32)
    firsts, inverse = _unique_rows_first_seen(rows)
    assert firsts.tolist() == [0, 1, 4]
    assert inverse.tolist() == [0, 1, 0, 1, 2]


def test_state_space_limit_error_is_structured():
    net = build_local_net(Architecture.II, 3)
    with pytest.raises(StateSpaceLimitError) as exc_info:
        packed_build(net, compile_packed(net), max_states=100)
    error = exc_info.value
    assert error.net_name == net.name
    assert error.state_count > 100
    assert error.frontier_size > 0
    assert error.max_states == 100
    assert "lump=True" in str(error)
    # the object walk raises the same structured error
    with pytest.raises(StateSpaceLimitError):
        _build_object_graph(net, 100)


def test_guard_memo_keys_on_inflight_counts():
    """Without the in-flight column the relay net's settle memo would
    reuse one outcome for two states sharing a marking; the guard then
    shows up as a lower G rate than the oracle's."""
    net = _guarded_relay_net()
    pnet = compile_packed(net)
    assert pnet.n_settle == pnet.n_places + 1
    graph, _ = packed_build(net, pnet, max_states=1_000)
    oracle = _build_object_graph(net, 1_000)
    _assert_bit_identical(graph, oracle)
    states = graph.layout.unpack_all(graph.table)
    assert len({s.marking for s in states}) < graph.state_count


def test_width_cap_raises_naming_net_and_cap(monkeypatch):
    monkeypatch.setattr(packed, "MAX_PACKED_WIDTH", 4)
    with pytest.raises(AnalysisError,
                       match=r"'cycle'.*MAX_PACKED_WIDTH = 4"):
        compile_packed(_cycle_net())


def test_class_member_cap_raises_naming_net_and_cap(monkeypatch):
    monkeypatch.setattr(packed, "MAX_CLASS_MEMBERS", 1)
    with pytest.raises(AnalysisError,
                       match=r"'conflict'.*MAX_CLASS_MEMBERS = 1"):
        compile_packed(_conflict_net())
