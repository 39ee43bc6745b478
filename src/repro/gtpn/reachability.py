"""Reachability graph construction for GTPN analysis.

Builds the discrete-time Markov chain embedded at tick boundaries: one
state per reachable post-decision snapshot, with transition
probabilities from the exhaustive branch enumeration of
:class:`repro.gtpn.state.TickEngine`.

The analyzer in the thesis "takes a description of the petri net,
builds the reachable states for the net, solves the embedded Markov
process, and gives exact estimates for resource usage" (section 6.5);
this module implements the first of those steps.

Every net is built by the array-native engine
(:mod:`repro.gtpn.packed`): packed int rows, batched frontier
expansion, direct CSR assembly.  The original one-state-at-a-time
object walk (:func:`_build_object_graph`) stays only as the reference
the tests hold the packed engine to, bit for bit.  Both return one
array-only :class:`ReachabilityGraph`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.errors import AnalysisError, StateSpaceLimitError
from repro.gtpn.net import Net
from repro.gtpn.packed import PackedLayout, packed_build
from repro.gtpn.state import ExhaustiveResolver, State, TickEngine

#: Default cap on explored states; architecture models stay well below.
DEFAULT_MAX_STATES = 200_000


@dataclass(frozen=True, eq=False)
class ReachabilityGraph:
    """The embedded chain of a GTPN, as arrays.

    * ``matrix``: the one-tick probability matrix P (CSR);
      ``matrix[i, j]`` is the probability of moving from state i to j.
    * ``init_vec``: probability distribution over states at time zero.
    * ``starts_matrix[i]``: expected firings of each transition started
      during a tick spent in state i.
    * ``inflight_matrix[i]``: concurrent in-flight firings of each
      transition while the net sits in state i.
    * ``table``: one packed row per state in ``layout``'s format;
      ``layout.unpack_all(table)`` recovers the :class:`State` objects.
    * ``place_orbits`` / ``transition_orbits``: the index groups a
      lumped build folded together (empty when nothing was lumped);
      :mod:`repro.gtpn.analysis` recovers exact per-member values by
      orbit averaging.

    Names live only on the net, so one graph serves every net with the
    same fingerprint.
    """

    matrix: sp.csr_matrix
    init_vec: np.ndarray
    starts_matrix: np.ndarray
    inflight_matrix: np.ndarray
    table: np.ndarray
    layout: PackedLayout
    place_orbits: tuple = ()
    transition_orbits: tuple = ()

    @property
    def state_count(self) -> int:
        return len(self.table)


def build_reachability_graph(net: Net,
                             max_states: int = DEFAULT_MAX_STATES,
                             *, lump: bool = False) -> ReachabilityGraph:
    """Explore every reachable state of *net* by breadth-first search.

    Runs the packed array engine; ``lump`` folds the states related by
    a declared symmetry (:meth:`Net.declare_symmetry`).
    """
    graph, _skeleton = packed_build(net, max_states=max_states,
                                    lump=lump)
    return graph


def _build_object_graph(net: Net, max_states: int) -> ReachabilityGraph:
    """The original one-state-at-a-time object walk (the test oracle)."""
    engine = TickEngine(net)
    resolver = ExhaustiveResolver()
    n_transitions = len(net.transitions)

    index: dict[State, int] = {}
    states: list[State] = []
    rows: list[dict[int, float]] = []
    # per-state expected-start accumulators as plain lists: the vectors
    # are tiny (tens of transitions) and mostly zero per branch, so
    # scalar accumulation beats allocating an ndarray per state; the
    # batch converts to one (states x transitions) array at the end.
    start_rows: list[list[float]] = []
    explored = 0

    def intern(state: State) -> int:
        found = index.get(state)
        if found is None:
            found = len(states)
            index[state] = found
            states.append(state)
            rows.append({})
            start_rows.append([0.0] * n_transitions)
            if len(states) > max_states:
                raise StateSpaceLimitError(
                    net.name, len(states), len(states) - explored,
                    max_states)
        return found

    initial: dict[int, float] = {}
    for branch in engine.initial_branches(resolver):
        i = intern(branch.state)
        initial[i] = initial.get(i, 0.0) + branch.probability

    while explored < len(states):
        i = explored
        explored += 1
        row = rows[i]
        start_row = start_rows[i]
        for branch in engine.tick(states[i], resolver):
            j = intern(branch.state)
            prob = branch.probability
            row[j] = row.get(j, 0.0) + prob
            for t_idx, count in enumerate(branch.starts):
                if count:
                    start_row[t_idx] += prob * count

    _check_stochastic(net, rows)
    n_states = len(states)
    indptr = np.zeros(n_states + 1, dtype=np.int64)
    indices: list[int] = []
    data: list[float] = []
    for i, row in enumerate(rows):
        for j in sorted(row):
            indices.append(j)
            data.append(row[j])
        indptr[i + 1] = len(indices)
    matrix = sp.csr_matrix((data, indices, indptr),
                           shape=(n_states, n_states))
    init_vec = np.zeros(n_states)
    for i, p in initial.items():
        init_vec[i] = p
    starts_matrix = np.asarray(start_rows, dtype=float).reshape(
        n_states, n_transitions)
    inflight_matrix = np.zeros((n_states, n_transitions))
    for i, state in enumerate(states):
        for t_idx, _remaining in state.inflight:
            inflight_matrix[i, t_idx] += 1.0
    layout = PackedLayout.for_net(net)
    table = np.array([layout.pack(state) for state in states],
                     dtype=np.int32).reshape(n_states, layout.width)
    return ReachabilityGraph(matrix=matrix, init_vec=init_vec,
                             starts_matrix=starts_matrix,
                             inflight_matrix=inflight_matrix,
                             table=table, layout=layout)


def _check_stochastic(net: Net, rows: list[dict[int, float]]) -> None:
    for i, row in enumerate(rows):
        if not row:
            raise AnalysisError(
                f"net {net.name!r}: state {i} is absorbing with no "
                "successors; the embedded chain is not well formed")
        total = sum(row.values())
        if abs(total - 1.0) > 1e-9:
            raise AnalysisError(
                f"net {net.name!r}: outgoing probabilities of state {i} "
                f"sum to {total!r}, expected 1.0")
