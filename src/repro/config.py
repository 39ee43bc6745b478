"""One home for run configuration: CLI flag > environment > default.

Every knob the toolkit reads from the outside world resolves here,
with a single precedence rule:

===============  ==================  =================  =============
knob             CLI flag            environment        default
===============  ==================  =================  =============
worker count     ``--jobs N``        ``REPRO_JOBS``     1 (serial)
seed             ``--seed N``        ``REPRO_SEED``     per-component
store            ``--no-cache``      ``REPRO_NO_CACHE`` enabled
store directory  (none)              ``REPRO_CACHE_DIR``  memory-only
state reduction  ``--reduction M``   ``REPRO_REDUCTION``  ``none``
sync primitive   ``--sync P``        ``REPRO_SYNC``     ``tas``
traffic window   ``--duration US``   ``REPRO_DURATION`` per-experiment
arrival rate     ``--arrival-rate R``  ``REPRO_ARRIVAL_RATE``  per-exp.
deadline         ``--deadline US``   ``REPRO_DEADLINE`` none
ingress queue    ``--queue-limit N``  ``REPRO_QUEUE_LIMIT``  per-exp.
===============  ==================  =================  =============

The traffic knobs (measurement window in simulated microseconds,
offered arrival rate in messages per simulated millisecond, the
per-message deadline, and the bounded MP ingress queue length) default
to *unset*: each open-arrival entry point keeps its own documented
default, and a set knob overrides all of them at once.

The historical entry points (:func:`repro.perf.backends.set_default_jobs`,
:func:`repro.seeding.set_default_seed`,
:func:`repro.perf.cache.set_cache_enabled`) delegate to the setters
below, so precedence lives in exactly one place; error behaviour is
unchanged (malformed ``REPRO_JOBS`` raises
:class:`~repro.errors.ConfigError`, malformed ``REPRO_SEED`` raises
``ValueError`` — a user who exported either wanted an effect, and a
silent fallback hides the typo).

:func:`resolved_config` snapshots what actually applies *and where
each value came from*; the snapshot is written into every trace header
(:mod:`repro.obs.export`) and every ``BENCH_perf.json`` record, so a
recorded run says how it was configured.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass

from repro.errors import ConfigError

_UNSET = object()

_cli_jobs: int | None = None
_cli_seed: int | None = None
#: tri-state: None = not set on the CLI, True/False = CLI decision
_cli_cache_enabled: bool | None = None
#: process-wide default fault plan (see ``repro.api.run_experiment``)
_default_fault_plan = None


# ----------------------------------------------------------------------
# jobs
# ----------------------------------------------------------------------

def validate_positive_int(value, source: str) -> int:
    """A positive int, or :class:`ConfigError` naming the bad source."""
    if not isinstance(value, bool) and isinstance(value, int):
        result = value
    else:
        try:
            result = int(str(value).strip())
        except ValueError:
            raise ConfigError(
                f"{source} must be a positive integer, "
                f"got {value!r}") from None
    if result < 1:
        raise ConfigError(
            f"{source} must be a positive integer, got {value!r}")
    return result


def validate_positive_float(value, source: str) -> float:
    """A finite positive float, or :class:`ConfigError`."""
    try:
        result = float(str(value).strip())
    except ValueError:
        raise ConfigError(
            f"{source} must be a positive number, "
            f"got {value!r}") from None
    if not math.isfinite(result) or result <= 0.0:
        raise ConfigError(
            f"{source} must be a positive number, got {value!r}")
    return result


def validate_jobs(value, source: str) -> int:
    """A positive int, or :class:`ConfigError` naming the bad source."""
    return validate_positive_int(value, source)


def set_jobs(jobs: int | None) -> None:
    """Install the CLI worker count (``None`` reverts to env/default)."""
    global _cli_jobs
    if jobs is not None:
        jobs = validate_jobs(jobs, "jobs")
    _cli_jobs = jobs


def jobs() -> int:
    """Resolved worker count: CLI > ``REPRO_JOBS`` > 1 (serial)."""
    return _resolve_jobs()[0]


def _resolve_jobs() -> tuple[int, str]:
    if _cli_jobs is not None:
        return _cli_jobs, "cli"
    env = os.environ.get("REPRO_JOBS", "")
    if env.strip():
        return validate_jobs(env, "REPRO_JOBS"), "env"
    return 1, "default"


# ----------------------------------------------------------------------
# seed
# ----------------------------------------------------------------------

def set_seed(seed: int | None) -> None:
    """Install the CLI default seed (``None`` reverts to env/default)."""
    global _cli_seed
    if seed is not None and not isinstance(seed, int):
        raise ValueError(f"seed must be an int or None, got {seed!r}")
    _cli_seed = seed


def seed() -> int | None:
    """Resolved default seed: CLI > ``REPRO_SEED`` > ``None``."""
    return _resolve_seed()[0]


def _resolve_seed() -> tuple[int | None, str]:
    if _cli_seed is not None:
        return _cli_seed, "cli"
    env = os.environ.get("REPRO_SEED", "")
    if env:
        try:
            return int(env), "env"
        except ValueError:
            raise ValueError(
                f"REPRO_SEED must be an integer, got {env!r}") from None
    return None, "default"


# ----------------------------------------------------------------------
# analysis cache
# ----------------------------------------------------------------------

def set_cache_enabled(enabled: bool) -> None:
    """The CLI cache switch (``--no-cache`` passes ``False``).

    ``REPRO_NO_CACHE=1`` still disables the cache even after
    ``set_cache_enabled(True)``: both switches are kill switches, and
    either one disabling wins — the only *enabling* path is the
    default.
    """
    global _cli_cache_enabled
    _cli_cache_enabled = bool(enabled)


def cache_enabled() -> bool:
    """Resolved cache switch: any disable (CLI or env) wins."""
    return _resolve_cache()[0]


def _resolve_cache() -> tuple[bool, str]:
    if _cli_cache_enabled is False:
        return False, "cli"
    if os.environ.get("REPRO_NO_CACHE", "") == "1":
        return False, "env"
    if _cli_cache_enabled is True:
        return True, "cli"
    return True, "default"


def cache_dir() -> str | None:
    """The on-disk cache tier directory (``REPRO_CACHE_DIR``), if any."""
    return os.environ.get("REPRO_CACHE_DIR") or None


# ----------------------------------------------------------------------
# state-space reduction
# ----------------------------------------------------------------------

#: Recognized reduction modes, in canonical spelling.  ``lump`` folds
#: states related by a declared client symmetry onto one representative
#: (:meth:`repro.gtpn.net.Net.declare_symmetry`); ``elim`` drops the
#: transient states the chain leaves during initial settling.  Both are
#: exact for steady-state measures and both are **off** by default so
#: the exact path stays bit-identical to the committed baselines.
VALID_REDUCTIONS = ("none", "lump", "elim", "lump+elim")

_cli_reduction: str | None = None


def normalize_reduction(value, source: str = "reduction") -> str:
    """Canonical reduction mode, or :class:`ConfigError` for junk.

    Accepts any ``+``-joined combination of ``lump`` / ``elim`` in any
    order (``elim+lump`` -> ``lump+elim``), plus ``none``.
    """
    if value is None:
        return "none"
    parts = [p for p in str(value).strip().lower().split("+") if p]
    if parts in ([], ["none"]):
        return "none"
    if not set(parts) <= {"lump", "elim"}:
        raise ConfigError(
            f"{source} must be one of {', '.join(VALID_REDUCTIONS)}, "
            f"got {value!r}")
    return "+".join(m for m in ("lump", "elim") if m in parts)


def set_reduction(mode: str | None) -> None:
    """Install the CLI reduction mode (``None`` reverts to env/default)."""
    global _cli_reduction
    _cli_reduction = None if mode is None \
        else normalize_reduction(mode, "reduction")


def reduction() -> str:
    """Resolved reduction: CLI > ``REPRO_REDUCTION`` > ``"none"``."""
    return _resolve_reduction()[0]


def _resolve_reduction() -> tuple[str, str]:
    if _cli_reduction is not None:
        return _cli_reduction, "cli"
    env = os.environ.get("REPRO_REDUCTION", "")
    if env.strip():
        return normalize_reduction(env, "REPRO_REDUCTION"), "env"
    return "none", "default"


# ----------------------------------------------------------------------
# synchronization primitive (see repro.memory.primitives)
# ----------------------------------------------------------------------

#: Recognized software synchronization primitives for the
#: architecture II queue path.  ``tas`` is the thesis's test-and-set
#: spinlock baseline (Table 6.1's 60 us + 14 cycles); ``cas``,
#: ``llsc`` and ``htm`` re-cost the same section 5.1 queue algorithms
#: under compare-and-swap, load-linked/store-conditional and
#: speculative (HTM-style) synchronization.  This knob **changes
#: computed values**: the architecture II model parameters are
#: re-derived from the selected primitive's microcoded cost row, so it
#: is part of the store's ``solve`` and ``result`` keys.
VALID_SYNCS = ("tas", "cas", "llsc", "htm")

_cli_sync: str | None = None


def normalize_sync(value, source: str = "sync") -> str:
    """Canonical sync-primitive name, or :class:`ConfigError`."""
    name = str(value).strip().lower().replace("-", "").replace("/", "")
    if name == "llsc" or name in VALID_SYNCS:
        return "llsc" if name == "llsc" else name
    raise ConfigError(
        f"{source} must be one of {', '.join(VALID_SYNCS)}, "
        f"got {value!r}")


def set_sync(name: str | None) -> None:
    """Install the CLI sync primitive (``None`` reverts to
    env/default)."""
    global _cli_sync
    _cli_sync = None if name is None else normalize_sync(name, "sync")


def sync() -> str:
    """Resolved sync primitive: CLI > ``REPRO_SYNC`` > ``"tas"``."""
    return _resolve_sync()[0]


def _resolve_sync() -> tuple[str, str]:
    if _cli_sync is not None:
        return _cli_sync, "cli"
    env = os.environ.get("REPRO_SYNC", "")
    if env.strip():
        return normalize_sync(env, "REPRO_SYNC"), "env"
    return "tas", "default"


# ----------------------------------------------------------------------
# open-arrival traffic knobs (see repro.traffic)
# ----------------------------------------------------------------------

#: (attribute suffix, CLI spelling, env var, validator) for the four
#: traffic knobs — they share the resolve/set machinery below.
_TRAFFIC_KNOBS = {
    "duration": ("--duration", "REPRO_DURATION",
                 validate_positive_float),
    "arrival_rate": ("--arrival-rate", "REPRO_ARRIVAL_RATE",
                     validate_positive_float),
    "deadline": ("--deadline", "REPRO_DEADLINE",
                 validate_positive_float),
    "queue_limit": ("--queue-limit", "REPRO_QUEUE_LIMIT",
                    validate_positive_int),
}

_cli_traffic: dict[str, float | int | None] = {
    name: None for name in _TRAFFIC_KNOBS}


def _set_traffic_knob(name: str, value) -> None:
    flag, _env, validate = _TRAFFIC_KNOBS[name]
    _cli_traffic[name] = None if value is None \
        else validate(value, flag.lstrip("-"))


def _resolve_traffic_knob(name: str):
    _flag, env_var, validate = _TRAFFIC_KNOBS[name]
    cli = _cli_traffic[name]
    if cli is not None:
        return cli, "cli"
    env = os.environ.get(env_var, "")
    if env.strip():
        return validate(env, env_var), "env"
    return None, "default"


def set_duration(duration_us) -> None:
    """Install the CLI measurement window (simulated microseconds)."""
    _set_traffic_knob("duration", duration_us)


def duration() -> float | None:
    """Resolved window: CLI > ``REPRO_DURATION`` > ``None`` (unset)."""
    return _resolve_traffic_knob("duration")[0]


def set_arrival_rate(rate_per_ms) -> None:
    """Install the CLI offered arrival rate (messages per simulated
    millisecond)."""
    _set_traffic_knob("arrival_rate", rate_per_ms)


def arrival_rate() -> float | None:
    """Resolved rate: CLI > ``REPRO_ARRIVAL_RATE`` > ``None``."""
    return _resolve_traffic_knob("arrival_rate")[0]


def set_deadline(deadline_us) -> None:
    """Install the CLI per-message deadline (simulated microseconds)."""
    _set_traffic_knob("deadline", deadline_us)


def deadline() -> float | None:
    """Resolved deadline: CLI > ``REPRO_DEADLINE`` > ``None``."""
    return _resolve_traffic_knob("deadline")[0]


def set_queue_limit(limit) -> None:
    """Install the CLI bounded MP ingress queue length."""
    _set_traffic_knob("queue_limit", limit)


def queue_limit() -> int | None:
    """Resolved queue bound: CLI > ``REPRO_QUEUE_LIMIT`` > ``None``."""
    return _resolve_traffic_knob("queue_limit")[0]


# ----------------------------------------------------------------------
# default fault plan
# ----------------------------------------------------------------------

def set_default_fault_plan(plan) -> None:
    """Install a fault plan every kernel-simulator system runs under.

    Consulted by ``build_conversation_system`` when its caller passed
    no explicit plan; ``None`` clears it.  Stored opaquely so the
    config layer stays free of kernel imports.
    """
    global _default_fault_plan
    _default_fault_plan = plan


def default_fault_plan():
    return _default_fault_plan


def reset() -> None:
    """Drop every CLI-level override (tests and fresh CLI entry)."""
    global _cli_jobs, _cli_seed, _cli_cache_enabled, _default_fault_plan
    global _cli_reduction, _cli_sync
    _cli_jobs = None
    _cli_seed = None
    _cli_cache_enabled = None
    _default_fault_plan = None
    _cli_reduction = None
    _cli_sync = None
    for name in _cli_traffic:
        _cli_traffic[name] = None


# ----------------------------------------------------------------------
# scoped overrides
# ----------------------------------------------------------------------

@contextmanager
def overrides(*, jobs=_UNSET, seed=_UNSET, cache_enabled=_UNSET,
              fault_plan=_UNSET, reduction=_UNSET, sync=_UNSET,
              duration=_UNSET, arrival_rate=_UNSET, deadline=_UNSET,
              queue_limit=_UNSET):
    """Apply CLI-level settings for one block, restoring on exit.

    ``repro.api.run_experiment`` uses this so its keyword arguments
    behave exactly like the matching CLI flags (same precedence, same
    validation) without leaking into the rest of the process.  Passing
    nothing leaves a knob untouched — including an override already
    installed by the CLI.  Overrides are process-global for the
    block's duration, so runs execute one at a time; a run's store key
    (:func:`repro.service.build_job_key`) is resolved inside its
    block.
    """
    global _cli_jobs, _cli_seed, _cli_cache_enabled, _default_fault_plan
    global _cli_reduction, _cli_sync
    saved = (_cli_jobs, _cli_seed, _cli_cache_enabled, _default_fault_plan,
             _cli_reduction, _cli_sync, dict(_cli_traffic))
    try:
        if jobs is not _UNSET:
            set_jobs(jobs)
        if seed is not _UNSET:
            set_seed(seed)
        if cache_enabled is not _UNSET and cache_enabled is not None:
            set_cache_enabled(cache_enabled)
        if fault_plan is not _UNSET:
            set_default_fault_plan(fault_plan)
        if reduction is not _UNSET:
            set_reduction(reduction)
        if sync is not _UNSET:
            set_sync(sync)
        if duration is not _UNSET:
            set_duration(duration)
        if arrival_rate is not _UNSET:
            set_arrival_rate(arrival_rate)
        if deadline is not _UNSET:
            set_deadline(deadline)
        if queue_limit is not _UNSET:
            set_queue_limit(queue_limit)
        yield
    finally:
        (_cli_jobs, _cli_seed, _cli_cache_enabled, _default_fault_plan,
         _cli_reduction, _cli_sync, traffic_saved) = saved
        _cli_traffic.update(traffic_saved)


# ----------------------------------------------------------------------
# the snapshot
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ResolvedConfig:
    """What actually applies to a run, with per-knob provenance.

    ``*_source`` is one of ``"cli"``, ``"env"``, ``"default"``.
    """

    jobs: int
    jobs_source: str
    seed: int | None
    seed_source: str
    cache_enabled: bool
    cache_source: str
    cache_dir: str | None
    fault_plan: str | None      # repr of the active default plan
    reduction: str = "none"
    reduction_source: str = "default"
    sync: str = "tas"
    sync_source: str = "default"
    duration_us: float | None = None
    duration_source: str = "default"
    arrival_rate_per_ms: float | None = None
    arrival_rate_source: str = "default"
    deadline_us: float | None = None
    deadline_source: str = "default"
    queue_limit: int | None = None
    queue_limit_source: str = "default"

    def as_dict(self) -> dict:
        return asdict(self)


def resolved_config() -> ResolvedConfig:
    """Snapshot the configuration a run starting now would use."""
    n_jobs, jobs_source = _resolve_jobs()
    seed_value, seed_source = _resolve_seed()
    cache_on, cache_source = _resolve_cache()
    reduction_mode, reduction_source = _resolve_reduction()
    sync_name, sync_source = _resolve_sync()
    duration_us, duration_source = _resolve_traffic_knob("duration")
    rate_per_ms, rate_source = _resolve_traffic_knob("arrival_rate")
    deadline_us, deadline_source = _resolve_traffic_knob("deadline")
    queue_bound, queue_source = _resolve_traffic_knob("queue_limit")
    plan = _default_fault_plan
    return ResolvedConfig(
        jobs=n_jobs, jobs_source=jobs_source,
        seed=seed_value, seed_source=seed_source,
        cache_enabled=cache_on, cache_source=cache_source,
        cache_dir=cache_dir(),
        fault_plan=repr(plan) if plan is not None else None,
        reduction=reduction_mode, reduction_source=reduction_source,
        sync=sync_name, sync_source=sync_source,
        duration_us=duration_us, duration_source=duration_source,
        arrival_rate_per_ms=rate_per_ms,
        arrival_rate_source=rate_source,
        deadline_us=deadline_us, deadline_source=deadline_source,
        queue_limit=queue_bound, queue_limit_source=queue_source)
