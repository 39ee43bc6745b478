"""Batch runs answered from the store: the engine behind ``repro serve``.

:func:`serve_experiment` runs one experiment the way ``repro serve``
does.  Inside the run's own configuration it probes the ``result``
namespace of the process-wide store (:func:`repro.perf.cache.\
get_cache`) under the run's :class:`JobKey`; on a hit it returns the
stored :class:`~repro.api.ExperimentResult`, otherwise it runs the
experiment (:func:`repro.api._execute_run`, the same core as
:func:`repro.api.run_experiment`) and stores the result.
``REPRO_CACHE_DIR`` makes stored results survive restarts.  Because
the probe happens under the run's configuration, the store's kill
switch — ``--no-cache``, or ``cache=False`` — keeps that run
from reading or writing it.

:class:`JobKey` is the result namespace's content address: one digest
over the experiment id and the resolved value of every knob that can
change a value (the ``changes_values`` rows of
:data:`repro.config.KNOBS`: seed, fault plan, sync primitive and the
traffic knobs).  Equal keys mean the same computation.
Execution-only knobs (``jobs``, the store switch and its directory)
are deliberately **excluded**: they change wall-clock time and
scheduling, never values (the bit-identity contract the backends
suite pins), so they must not fragment the address space.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro import config, obs
from repro.perf.cache import get_cache


@dataclass(frozen=True)
class JobKey:
    """Content address of one experiment evaluation."""

    digest: str         # 16 hex digits, the store's file-name-safe key

    def __str__(self) -> str:
        return self.digest


def build_job_key(experiment_id: str, run_kwargs: dict) -> JobKey:
    """The :class:`JobKey` of one run.

    *run_kwargs* are :func:`repro.config.overrides` keywords; knobs
    the caller left unset resolve through the surrounding CLI/env
    configuration, so a run under ``REPRO_SEED=7`` and one passing
    ``seed=7`` explicitly share a key — they are the same run.
    """
    with config.overrides(**run_kwargs):
        snapshot = config.resolved_config().as_dict()
    parts = (experiment_id, *(
        (knob.field, snapshot[knob.field])
        for knob in config.KNOBS.values() if knob.changes_values))
    return JobKey(hashlib.sha256(repr(parts).encode()).hexdigest()[:16])


def serve_experiment(experiment_id: str, **run_kwargs):
    """Answer one run from the store, or run and store it.

    *run_kwargs* are :func:`repro.config.overrides` keywords
    (``seed=7``, ``sync="cas"``, ``cache=False``, ...).
    Returns ``(result, store_hit)``; exceptions from the run
    propagate and store nothing.
    """
    from repro import api
    with config.overrides(**run_kwargs):
        key = build_job_key(experiment_id, {})
        store_key = ("result", key.digest)
        store = get_cache()
        result = store.get(store_key)
        if result is not None:
            obs.add("service.store_hit")
            return result, True
        with obs.span("service.job", experiment=experiment_id,
                      key=str(key)):
            result = api._execute_run(experiment_id, {})
        store.put(store_key, result)
    obs.add("service.executed")
    return result, False
