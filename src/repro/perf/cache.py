"""The content-addressed store: one memo for analyses, solves and results.

Every value the toolkit memoizes lives in one :class:`Store`, under one
of three key namespaces:

* ``analysis`` — exact GTPN analysis payloads ``(graph, pi)``, keyed
  ``(structure, timing, lump)`` on a net's split fingerprint (below),
  and the reusable reachability skeletons of
  :class:`repro.gtpn.Analyzer`, keyed ``("skeleton", structure,
  lump)``;
* ``solve`` — one operating point's throughput
  (:func:`repro.models.solve.solve`), keyed ``("solve", architecture,
  mode, conversations, compute_time, sync)``;
* ``result`` — one whole experiment result of ``repro serve``
  (:mod:`repro.service`), keyed ``("result", JobKey.digest)``, one
  digest over the experiment id and every value-changing knob of
  :data:`repro.config.KNOBS`.

A net is fingerprinted by a *split key* (:class:`NetFingerprint`):

* the **structure fingerprint** covers everything that shapes the
  reachable state space — place count, initial marking, arcs, guards
  (resolved to place and transition indices), resource tags and
  declared symmetry groups — and is invariant across a timing sweep,
  while
* the **timing fingerprint** covers the numeric attribute values
  (firing times and frequency weights).

Names (of the net, its places, and its transitions) stay out of both
halves: two structurally identical nets share one solve, and the
cached payload is re-bound to whichever net asked.

Each namespace is a bounded in-memory LRU (:data:`DEFAULT_LIMITS`).
``REPRO_CACHE_DIR`` — or ``directory`` — adds one pickle-per-entry
disk tier behind all three, so processes share solves and results.
Writes are atomic (temp file + :func:`os.replace`); a failed write is
counted (``cache.write_failure``) and the entry stays memory-only; an
unreadable entry is deleted, counted (``cache.unreadable``) and read
as a miss.  One kill switch covers every namespace: the store tests
:func:`repro.config.cache_enabled` (``--no-cache`` /
``REPRO_NO_CACHE=1``) on every ``get`` and ``put``, so a disabled
store neither answers nor remembers.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
from collections import Counter, OrderedDict
from pathlib import Path
from typing import Any, NamedTuple

from repro import config, obs

#: In-memory LRU bound per namespace.  An analysis entry holds a full
#: reachability graph (a few MB for the architecture models), a solve
#: entry one float, a result entry one experiment's artifact.  The
#: namespaces are bounded apart so a grid that runs the analysis LRU
#: full never evicts the solve memo its fixed point re-reads.
DEFAULT_LIMITS = {"analysis": 256, "solve": 4096, "result": 128}

#: ``obs`` counters of each namespace's lookups.  Analysis lookups keep
#: the historical ``cache.hit``/``cache.miss`` names.
_COUNTERS = {"analysis": ("cache.hit", "cache.miss"),
             "solve": ("cache.solve_hit", "cache.solve_miss"),
             "result": ("cache.result_hit", "cache.result_miss")}

#: What reading a disk entry raises when the entry cannot be used: a
#: torn or garbled pickle, or one naming a class this code no longer
#: has (an old ``REPRO_CACHE_DIR`` outlives the classes it pickled).
#: Anything else is a defect and propagates.
_UNREADABLE = (OSError, EOFError, ValueError, pickle.UnpicklingError,
               AttributeError, ImportError)

#: What writing a disk entry raises when the value cannot be spilled:
#: a full or read-only disk, or a value that does not pickle.
_UNWRITABLE = (OSError, pickle.PicklingError, TypeError, AttributeError)


# ----------------------------------------------------------------------
# fingerprinting
# ----------------------------------------------------------------------

class NetFingerprint(NamedTuple):
    """Split content hash of a net.

    ``structure`` is invariant across a timing sweep (places, arcs,
    guards, initial marking, resource tags); ``timing`` hashes the
    numeric attribute values (delays, frequency weights).  Compares as a plain tuple,
    so ``fingerprint_net(a) == fingerprint_net(b)`` means identical
    full keys and equal ``.structure`` means "same state space shape".
    """

    structure: str
    timing: str


def fingerprint_net(net) -> NetFingerprint:
    """Split content hash of a net.

    Covers everything the analyzer's numbers depend on — places,
    initial marking, arcs, guards, delays, frequencies, resources — and
    nothing cosmetic (names, labels), so renamed-but-identical nets
    share a fingerprint.  Numeric attribute values land in the
    ``timing`` half only; everything shaping the state space lands in
    ``structure``.
    """
    structure: list = [len(net.places), tuple(net.initial_marking)]
    # declared symmetry groups shape the packed engine's lumping
    # quotient, so they are structural: two nets that differ only in
    # declarations must not share a lumped skeleton
    for group in net.symmetries:
        structure.append(("sym", tuple(
            (tuple(p_idx), tuple(t_idx)) for p_idx, t_idx
            in group.members)))
    timing: list = []
    for t, guard in zip(net.transitions, net.resolved_guards()):
        structure.append((tuple(sorted(t.inputs.items())),
                          tuple(sorted(t.outputs.items())),
                          guard, t.resource, tuple(t.extra_resources)))
        timing.append((t.delay, t.frequency))

    def _hash(parts) -> str:
        return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()
    return NetFingerprint(_hash(structure), _hash(timing))


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------

def _namespace(key: Any) -> str:
    """The namespace a key belongs to: its tag, else ``analysis``."""
    head = key[0] if isinstance(key, tuple) and key else None
    return head if head in ("solve", "result") else "analysis"


class Store:
    """Thread-safe per-namespace LRUs over one optional disk tier.

    Keys are hashable tuples (see the module docstring for the three
    shapes); values are opaque picklable objects, never ``None``.
    ``limits`` overrides entries of :data:`DEFAULT_LIMITS`.
    """

    def __init__(self, directory: str | os.PathLike | None = None,
                 limits: dict[str, int] | None = None):
        self._limits = {**DEFAULT_LIMITS, **(limits or {})}
        self._mem: dict[str, OrderedDict] = {
            namespace: OrderedDict() for namespace in self._limits}
        self._dir = Path(directory) if directory else None
        self._lock = threading.Lock()
        self.hits: Counter = Counter()
        self.misses: Counter = Counter()
        self.write_failures = 0
        self.unreadable = 0

    def __len__(self) -> int:
        return sum(len(mem) for mem in self._mem.values())

    def entries(self, namespace: str) -> int:
        """In-memory entries of one namespace."""
        return len(self._mem[namespace])

    def clear(self) -> None:
        """Drop every in-memory entry and zero the counters; the disk
        tier, shared with other processes, is left alone."""
        with self._lock:
            for mem in self._mem.values():
                mem.clear()
            self.hits.clear()
            self.misses.clear()
            self.write_failures = 0
            self.unreadable = 0

    def get(self, key: Any, *, record_stats: bool = True):
        """The stored value for *key*, or ``None`` on a miss (and
        always ``None`` while the cache is disabled)."""
        if not config.cache_enabled():
            return None
        namespace = _namespace(key)
        mem = self._mem[namespace]
        with self._lock:
            value = mem.get(key)
            if value is not None:
                mem.move_to_end(key)
        if value is None:
            value = self._read_disk(key, namespace)
            if value is not None:
                with self._lock:
                    self._remember(namespace, key, value)
        if record_stats:
            hit, miss = _COUNTERS[namespace]
            with self._lock:
                (self.hits if value is not None else
                 self.misses)[namespace] += 1
            obs.add(hit if value is not None else miss)
        return value

    def put(self, key: Any, value: Any) -> None:
        """Remember *value* in memory and on disk (if configured);
        a no-op while the cache is disabled."""
        if not config.cache_enabled():
            return
        namespace = _namespace(key)
        with self._lock:
            self._remember(namespace, key, value)
        self._write_disk(key, namespace, value)

    def get_structure(self, structure_fp: str, *, lump: bool):
        """Stored reachability skeleton for a structure, if any.

        ``lump`` separates the lumped and the unlumped skeleton of one
        structure.

        Skeleton lookups ride the analysis namespace but stay out of
        its hit/miss counts — those count *solves avoided*, and a
        skeleton hit still re-times and re-solves.
        """
        return self.get(("skeleton", structure_fp, lump),
                        record_stats=False)

    def put_structure(self, structure_fp: str, skeleton: Any, *,
                      lump: bool) -> None:
        self.put(("skeleton", structure_fp, lump), skeleton)

    def attach_directory(self, directory: str | os.PathLike) -> None:
        """Add (or retarget) the disk tier without dropping memory.

        Existing in-memory entries are flushed to the new directory so
        freshly-forked pool workers can prime from what the parent has
        already solved (the sweep pool's shared-disk priming).
        """
        with self._lock:
            self._dir = Path(directory)
            entries = [(namespace, key, value)
                       for namespace, mem in self._mem.items()
                       for key, value in mem.items()]
        for namespace, key, value in entries:
            self._write_disk(key, namespace, value)

    @property
    def directory(self) -> Path | None:
        return self._dir

    def stats(self) -> dict:
        """Entries and counters per namespace, for ``repro serve
        --stats``."""
        with self._lock:
            return {"directory": str(self._dir) if self._dir else None,
                    "entries": {namespace: len(mem) for namespace, mem
                                in self._mem.items()},
                    "hits": dict(self.hits),
                    "misses": dict(self.misses),
                    "write_failures": self.write_failures,
                    "unreadable": self.unreadable}

    def _disk_path(self, key: Any, namespace: str) -> Path | None:
        if self._dir is None:
            return None
        digest = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()
        return self._dir / f"{namespace}-{digest}.pkl"

    def _read_disk(self, key: Any, namespace: str):
        path = self._disk_path(key, namespace)
        if path is None:
            return None
        try:
            with open(path, "rb") as fh:
                return pickle.load(fh)
        except FileNotFoundError:
            return None
        except _UNREADABLE:
            path.unlink(missing_ok=True)
            with self._lock:
                self.unreadable += 1
            obs.add("cache.unreadable")
            return None

    def _write_disk(self, key: Any, namespace: str, value: Any) -> None:
        path = self._disk_path(key, namespace)
        if path is None:
            return
        tmp = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent,
                                       prefix=f".{path.name}-")
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)     # atomic for concurrent writers
        except _UNWRITABLE:
            if tmp is not None:
                Path(tmp).unlink(missing_ok=True)
            with self._lock:
                self.write_failures += 1
            obs.add("cache.write_failure")

    def _remember(self, namespace: str, key: Any, value: Any) -> None:
        mem = self._mem[namespace]
        mem[key] = value
        mem.move_to_end(key)
        while len(mem) > self._limits[namespace]:
            mem.popitem(last=False)


_global_cache: Store | None = None
_global_lock = threading.Lock()


def get_cache() -> Store:
    """The process-wide store (created on first use)."""
    global _global_cache
    with _global_lock:
        if _global_cache is None:
            _global_cache = Store(directory=config.cache_dir())
        return _global_cache


def configure_cache(directory: str | os.PathLike | None = None,
                    limits: dict[str, int] | None = None) -> Store:
    """Replace the process-wide store (tests, pool workers) and
    return it."""
    global _global_cache
    with _global_lock:
        _global_cache = Store(directory=directory, limits=limits)
        return _global_cache
