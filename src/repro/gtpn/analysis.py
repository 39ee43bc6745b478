"""Exact GTPN analysis: resource usage and firing rates.

This is the Python counterpart of the GTPN analyzer used in chapter 6:
it builds the reachable states, solves the embedded Markov process and
returns exact steady-state estimates of resource usage.

The two output measures are:

* ``resource_usage(name)`` — the mean number of concurrent in-flight
  firings of transitions tagged with resource *name* ("the mean number
  of usages (over time) of each resource in steady state").  For a
  delay-1 transition this equals its firing rate per tick, which is how
  the models read off message throughput (resource ``lambda``).
* ``firing_rate(transition)`` — expected firing starts per tick, which
  is defined for immediate transitions as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro import obs
from repro.gtpn.markov import stationary_distribution
from repro.gtpn.net import Net
from repro.gtpn.packed import (PackedSkeleton, SkeletonMismatch,
                               packed_build, packed_retime)
from repro.gtpn.reachability import DEFAULT_MAX_STATES, ReachabilityGraph
from repro.perf.cache import Store, fingerprint_net, get_cache


@dataclass
class AnalysisResult:
    """Steady-state estimates for one GTPN."""

    net: Net
    graph: ReachabilityGraph
    pi: np.ndarray

    @property
    def state_count(self) -> int:
        return self.graph.state_count

    @cached_property
    def _mean_inflight(self) -> np.ndarray:
        """Per-transition mean number of concurrent in-flight firings.

        One vector product, deterministic per graph; build and retime
        produce identical graphs, so sweep bit-identity holds.  Lumped
        graphs then average each declared transition orbit, which
        recovers the exact per-member value because canonicalization
        only permutes members within a state.
        """
        return self._fold_orbits(self.pi @ self.graph.inflight_matrix,
                                 places=False)

    @cached_property
    def _mean_starts(self) -> np.ndarray:
        """Per-transition expected firing starts per tick."""
        return self._fold_orbits(self.pi @ self.graph.starts_matrix,
                                 places=False)

    def _fold_orbits(self, vec: np.ndarray, *, places: bool) -> np.ndarray:
        """Average *vec* over each symmetry orbit of a lumped graph.

        Lumping preserves orbit sums exactly but scrambles which member
        carries which share; the members are interchangeable, so the
        orbit mean is each member's exact steady-state value.
        """
        graph = self.graph
        orbits = graph.place_orbits if places else graph.transition_orbits
        if not orbits:
            return vec
        out = vec.copy()
        for orbit in orbits:
            total = 0.0
            for idx in orbit:
                total += vec[idx]
            out[list(orbit)] = total / len(orbit)
        return out

    def resource_usage(self, resource: str) -> float:
        """Mean steady-state usage of *resource* (see module docstring)."""
        usage = 0.0
        for t in self.net.transitions:
            if resource in t.all_resources:
                usage += self._mean_inflight[t.index]
                if t.immediate:
                    # immediate firings take zero time; count their rate
                    usage += self._mean_starts[t.index]
        return float(usage)

    def firing_rate(self, transition: str) -> float:
        """Expected firing starts of *transition* per tick."""
        return float(self._mean_starts[self.net.transition_index(transition)])

    @cached_property
    def _mean_marking(self) -> np.ndarray:
        """Per-place mean token count."""
        n_places = self.graph.layout.n_places
        marking = self.graph.table[:, :n_places].astype(float)
        return self._fold_orbits(self.pi @ marking, places=True)

    def mean_tokens(self, place: str) -> float:
        """Steady-state mean number of tokens in *place*."""
        return float(self._mean_marking[self.net.place_index(place)])

    def throughput(self, resource: str = "lambda") -> float:
        """Alias for :meth:`resource_usage` on the conventional name."""
        return self.resource_usage(resource)

    def busy_fraction(self, place: str) -> float:
        """Steady-state busy fraction of the resource pool *place*.

        The architecture nets model a processor as a place whose
        initial tokens are its servers; an activity holding the place
        removes the token for its whole duration, so the mean token
        deficit over the initial population is exactly the processor's
        utilization — directly comparable to the kernel simulator's
        per-processor busy fractions.
        """
        from repro.errors import AnalysisError
        index = self.net.place_index(place)
        tokens = self.net.places[index].initial_tokens
        if tokens <= 0:
            raise AnalysisError(
                f"place {place!r} holds no initial tokens; busy "
                "fraction is only defined for resource pools")
        return 1.0 - self.mean_tokens(place) / tokens


class Analyzer:
    """Analyze a stream of nets, sharing structure work across them.

    Chapter 6 re-solves the *same* GTPN over grids of component
    timings.  Timing enters the models only through frequency weights
    and firing times, so every grid point of one structure shares one
    reachability graph and only the branch probabilities change.  A
    packed build (:mod:`repro.gtpn.packed`) returns, beside the graph,
    a :class:`~repro.gtpn.packed.PackedSkeleton` recording how every
    branch probability was derived; re-timing it under a new net
    re-evaluates only those factors, in the same floating-point order
    as a build, so a re-timed graph is bit-identical to a built one.
    A timing change that alters branch resolution (a delay, a guard, a
    frequency crossing zero) raises
    :class:`~repro.gtpn.packed.SkeletonMismatch`; the analyzer counts
    it (``gtpn.skeleton_mismatch``) and rebuilds.

    Per net, in order: look up the solved payload in the store; look
    up the skeleton in this analyzer's own table, then in the store's
    skeleton tier; re-time it, or build the graph; solve and store the
    result.  Each analysis is one ``gtpn.analyze`` span whose
    ``outcome`` is ``cache-hit``, ``retimed`` or ``built``, holding
    one ``gtpn.retime`` or ``gtpn.build`` span and one ``gtpn.solve``
    span.

    ``cache`` is a private :class:`~repro.perf.cache.Store`, or
    ``None`` for the process-wide one; either honours ``--no-cache``,
    under which the own skeleton table still shares structure work for
    as long as the analyzer lives.
    """

    def __init__(self, *, max_states: int = DEFAULT_MAX_STATES,
                 cache: Store | None = None, lump: bool = False):
        self.max_states = max_states
        self.lump = lump
        self.cache = cache if cache is not None else get_cache()
        #: structure fingerprint -> packed skeleton
        self._skeletons: dict[str, PackedSkeleton] = {}

    def analyze(self, net: Net) -> AnalysisResult:
        """Solve one net; see :func:`analyze` for the contract."""
        with obs.span("gtpn.analyze", net=net.name) as root:
            fingerprint = fingerprint_net(net)
            key = (fingerprint.structure, fingerprint.timing, self.lump)
            payload = self.cache.get(key)
            if payload is not None:
                net.validate()          # keep error behaviour of a solve
                root.set(outcome="cache-hit")
                graph, pi = payload
                return AnalysisResult(net=net, graph=graph, pi=pi)
            graph, skeleton, outcome = self._graph(net,
                                                   fingerprint.structure)
            with obs.span("gtpn.solve", states=graph.state_count):
                pi = stationary_distribution(
                    graph, closed_classes=skeleton.closed_class_count())
            result = AnalysisResult(net=net, graph=graph, pi=pi)
            self.cache.put(key, (graph, pi))
            root.set(outcome=outcome, states=graph.state_count)
            return result

    def _graph(self, net: Net, structure: str,
               ) -> tuple[ReachabilityGraph, PackedSkeleton, str]:
        """Re-time the structure's skeleton, else build; returns the
        graph, its skeleton and the ``gtpn.analyze`` outcome."""
        skeleton = self._skeletons.get(structure)
        if skeleton is None:
            skeleton = self.cache.get_structure(structure, lump=self.lump)
        if skeleton is not None:
            try:
                graph = packed_retime(skeleton, net,
                                      max_states=self.max_states)
                self._skeletons[structure] = skeleton
                return graph, skeleton, "retimed"
            except SkeletonMismatch:
                obs.add("gtpn.skeleton_mismatch")
        with obs.span("gtpn.build"):
            graph, skeleton = packed_build(
                net, max_states=self.max_states, structure=structure,
                lump=self.lump)
        self._skeletons[structure] = skeleton
        self.cache.put_structure(structure, skeleton, lump=self.lump)
        return graph, skeleton, "built"


def analyze(net: Net, *, max_states: int = DEFAULT_MAX_STATES,
            cache: Store | None = None,
            lump: bool = False) -> AnalysisResult:
    """Build the reachability graph of *net* and solve it exactly.

    A one-shot :class:`Analyzer`.  Solves are memoized in the analysis
    namespace of the content-addressed store (:mod:`repro.perf.cache`)
    under the split ``(structure, timing, lump)`` key: a full hit
    returns the stored ``(graph, pi)`` bound to *net*, skipping both
    state-space exploration and the Markov solve, while a
    structure-only hit re-times the stored reachability skeleton and
    re-solves just the linear system — bit-identical to a from-scratch
    build.  ``cache`` is a private store, or ``None`` for
    the process-wide one; either honours ``--no-cache`` /
    ``REPRO_NO_CACHE`` itself, and the global one ``REPRO_CACHE_DIR``.
    Cached payloads are shared — treat results as read-only.

    ``lump`` turns on symmetry lumping (off by default).  Only a net
    that declares a symmetry (:meth:`Net.declare_symmetry`) has
    anything to lump.
    """
    return Analyzer(max_states=max_states, cache=cache,
                    lump=lump).analyze(net)

