"""Bench for ``repro serve``: batch throughput + dedupe by the store.

Runs a mixed batch (half duplicates) of tiny synthetic experiments one
after another through :func:`~repro.service.serve_experiment` and
records jobs/s and the dedupe ratio (store hits over submissions) to
``BENCH_perf.json``.  The floors are deliberately conservative — the
point of the record is the trajectory across PRs, the assertions only
guard against the serve path becoming pathologically slow or the
store's ``result`` namespace silently dying.
"""

from __future__ import annotations

from repro import config
from repro.experiments import Experiment, temporary_experiment
from repro.experiments.reporting import Table
from repro.obs.clock import perf_now
from repro.perf.cache import configure_cache
from repro.service import serve_experiment

#: Conservative throughput floor for a mostly-deduped batch of
#: trivial jobs (each unique point is a sub-millisecond table build).
MIN_JOBS_PER_S = 20.0

_BATCH = 200
_UNIQUE = 100


def _toy_experiment() -> Experiment:
    def runner() -> Table:
        seed = config.seed()
        return Table(experiment_id="bench-svc", title="bench",
                     headers=["k", "v"], rows=[["seed", seed]])
    return Experiment("bench-svc", "bench", "table", runner)


def test_bench_service_throughput_and_dedupe(perf_record):
    configure_cache()
    try:
        with temporary_experiment(_toy_experiment()):
            started = perf_now()
            hits = [serve_experiment("bench-svc", seed=n % _UNIQUE)[1]
                    for n in range(_BATCH)]
            elapsed = perf_now() - started
    finally:
        configure_cache()
    store_hits = sum(hits)
    executed = _BATCH - store_hits
    jobs_per_s = _BATCH / elapsed
    dedupe_ratio = store_hits / _BATCH
    perf_record(
        bench="service_mixed_batch", submissions=_BATCH,
        unique_points=_UNIQUE, wall_s=elapsed,
        jobs_per_s=jobs_per_s, executed=executed,
        store_hits=store_hits, dedupe_ratio=dedupe_ratio)
    print(f"\nserve: {jobs_per_s:.0f} jobs/s, dedupe "
          f"{dedupe_ratio:.0%} ({store_hits} store hits), executed "
          f"{executed}/{_BATCH}")
    assert executed == _UNIQUE
    assert dedupe_ratio == (_BATCH - _UNIQUE) / _BATCH
    assert jobs_per_s >= MIN_JOBS_PER_S
