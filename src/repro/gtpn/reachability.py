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
the tests hold the packed engine to, bit for bit.  Either way the
result is one :class:`ReachabilityGraph`, which keeps both faces: the
``states`` / ``probabilities`` / ``initial`` views materialize lazily
from the packed arrays (and vice versa), so the oracle comparison and
the sparse solver both read their native representation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.errors import AnalysisError, StateSpaceLimitError
from repro.gtpn.net import Net
from repro.gtpn.state import ExhaustiveResolver, State, TickEngine

#: Default cap on explored states; architecture models stay well below.
DEFAULT_MAX_STATES = 200_000


@dataclass(frozen=True)
class ReductionInfo:
    """What state-space reduction produced a graph, and how much it cut.

    Attached to :class:`ReachabilityGraph` when ``reduction != "none"``
    was requested (even if nothing folded, so a caller can tell "lump
    did nothing" from "lump was off").  ``place_orbits`` /
    ``transition_orbits`` list the index groups whose per-member
    measures were folded together; :mod:`repro.gtpn.analysis` recovers
    exact per-member values by orbit averaging.
    """

    requested: str                  # canonical mode string
    lumped: bool                    # symmetry folding was active
    place_orbits: tuple = ()
    transition_orbits: tuple = ()
    folded_states: int = 0          # successor rows re-canonicalized
    pre_elim_states: int = 0        # states before transient removal
    transient_removed: int = 0


class ReachabilityGraph:
    """The embedded chain of a GTPN, in object and/or packed form.

    The object views keep their documented shapes:

    * ``states``: reachable post-decision states, index-aligned with
      the rows/columns of ``probabilities``.
    * ``probabilities``: sparse row dicts; ``probabilities[i][j]`` is
      the one-tick probability of moving from state i to state j.
    * ``initial``: probability distribution over states at time zero.
    * ``expected_starts[i]``: vector (length = number of transitions)
      of expected firings of each transition started during a tick
      spent in state i.
    * ``inflight_counts[i]``: vector of concurrent in-flight firings
      of each transition while the net sits in state i.

    A graph built by the packed engine natively holds ``matrix`` (CSR),
    ``init_vec``, ``starts_matrix``, ``inflight_matrix`` and the
    interned ``packed_table``; the attributes above are materialized on
    first access.  An object-walk (oracle) graph holds the dict form
    and materializes the arrays on demand.  ``reduction`` carries a
    :class:`ReductionInfo` when a reduction was requested.
    """

    def __init__(self, net: Net, states=None, probabilities=None,
                 initial=None, expected_starts=None,
                 inflight_counts=None, *, matrix=None,
                 starts_matrix=None, init_vec=None,
                 inflight_matrix=None, packed_table=None,
                 packed_layout=None, reduction: ReductionInfo | None = None):
        self.net = net
        self._states = states
        self._probabilities = probabilities
        self._initial = initial
        self._expected_starts = expected_starts
        self._inflight_counts = inflight_counts
        self._matrix = matrix
        self._starts_matrix = starts_matrix
        self._init_vec = init_vec
        self._inflight_matrix = inflight_matrix
        self.packed_table = packed_table
        self.packed_layout = packed_layout
        self.reduction = reduction
        if states is None and packed_table is None:
            raise ValueError(
                "ReachabilityGraph needs either object states or a "
                "packed table")

    @property
    def state_count(self) -> int:
        if self._states is not None:
            return len(self._states)
        return len(self.packed_table)

    # -- object views, materialized lazily from the arrays ----------

    @property
    def states(self) -> list[State]:
        if self._states is None:
            self._states = self.packed_layout.unpack_all(
                self.packed_table)
        return self._states

    @property
    def probabilities(self) -> list[dict[int, float]]:
        if self._probabilities is None:
            m = self._matrix
            indptr, indices, data = m.indptr, m.indices, m.data
            self._probabilities = [
                {int(indices[k]): float(data[k])
                 for k in range(indptr[i], indptr[i + 1])}
                for i in range(m.shape[0])]
        return self._probabilities

    @property
    def initial(self) -> dict[int, float]:
        if self._initial is None:
            self._initial = {int(i): float(self._init_vec[i])
                             for i in np.flatnonzero(self._init_vec)}
        return self._initial

    @property
    def expected_starts(self) -> list[np.ndarray]:
        if self._expected_starts is None:
            self._expected_starts = list(self._starts_matrix)
        return self._expected_starts

    @property
    def inflight_counts(self) -> list[np.ndarray]:
        if self._inflight_counts is None:
            self._inflight_counts = list(self._inflight_matrix)
        return self._inflight_counts

    # -- array views, materialized lazily from the object form -------

    @property
    def matrix(self) -> sp.csr_matrix:
        """The one-tick probability matrix P as a sparse CSR matrix."""
        if self._matrix is None:
            n = self.state_count
            data, rows, cols = [], [], []
            for i, row in enumerate(self._probabilities):
                for j, p in row.items():
                    rows.append(i)
                    cols.append(j)
                    data.append(p)
            self._matrix = sp.csr_matrix((data, (rows, cols)),
                                         shape=(n, n))
        return self._matrix

    @property
    def init_vec(self) -> np.ndarray:
        if self._init_vec is None:
            vec = np.zeros(self.state_count)
            for i, p in self._initial.items():
                vec[i] = p
            self._init_vec = vec
        return self._init_vec

    @property
    def starts_matrix(self) -> np.ndarray:
        if self._starts_matrix is None:
            self._starts_matrix = np.asarray(self._expected_starts,
                                             dtype=float)
        return self._starts_matrix

    @property
    def inflight_matrix(self) -> np.ndarray:
        if self._inflight_matrix is None:
            self._inflight_matrix = np.asarray(self._inflight_counts,
                                               dtype=float)
        return self._inflight_matrix


def build_reachability_graph(net: Net,
                             max_states: int = DEFAULT_MAX_STATES,
                             *, reduction: str = "none",
                             ) -> ReachabilityGraph:
    """Explore every reachable state of *net* by breadth-first search.

    Runs the packed array engine under *reduction* (one of
    :data:`repro.gtpn.packed.VALID_REDUCTIONS`).
    """
    from repro.gtpn import packed

    graph, _skeleton = packed.packed_build(
        net, max_states=max_states,
        reduction=packed.normalize_reduction(reduction))
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

    n_states = len(states)
    starts_matrix = np.asarray(start_rows, dtype=float).reshape(
        n_states, n_transitions)
    inflight_matrix = np.zeros((n_states, n_transitions))
    for i, state in enumerate(states):
        for t_idx, _remaining in state.inflight:
            inflight_matrix[i, t_idx] += 1.0

    _check_stochastic(net, rows)
    return ReachabilityGraph(net=net, states=states, probabilities=rows,
                             initial=initial,
                             expected_starts=list(starts_matrix),
                             inflight_counts=list(inflight_matrix))


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
