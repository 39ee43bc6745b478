"""Performance layer: the sweep executor and the content-addressed store.

The chapter-6 evaluation is grid-shaped — conversations x offered
loads x architectures, each point an independent exact GTPN solve — so
the two scalable-offload levers are

* :func:`map_sweep` (:mod:`repro.perf.backends`) — fan independent
  grid points out over the persistent local process pool (``--jobs``
  / ``REPRO_JOBS``; one job runs in an in-process loop), with ordered
  results and a graceful serial fallback, and
* :class:`Store` (:mod:`repro.perf.cache`) — the one content-addressed
  store of analyses, solves and experiment results: per-namespace
  LRUs over one optional disk tier (``REPRO_CACHE_DIR``), behind one
  kill switch (``--no-cache`` / ``REPRO_NO_CACHE``).

Both are policy-free utilities: they know nothing about GTPN
internals beyond the duck-typed net attributes the fingerprint reads.
"""

from repro.perf.backends import (MapInfo, last_map_info, map_sweep,
                                 plan_jobs, shutdown_pool)
from repro.perf.cache import (Store, configure_cache, fingerprint_net,
                              get_cache)

__all__ = [
    "MapInfo",
    "Store",
    "configure_cache",
    "fingerprint_net",
    "get_cache",
    "last_map_info",
    "map_sweep",
    "plan_jobs",
    "shutdown_pool",
]
