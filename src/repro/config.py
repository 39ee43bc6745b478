"""One home for run configuration: override > environment > default.

Every knob the toolkit reads from the outside world is one row of
:data:`KNOBS`, and one function, :func:`resolve`, applies the one
precedence rule to every row: a value set for the run (a root CLI flag,
:func:`set_knob`, or a scoped :func:`overrides` block), else the
``REPRO_*`` environment variable, else the default.

============  ================  ==================  ==============  ======
knob          CLI flag          environment         default         value?
============  ================  ==================  ==============  ======
jobs          --jobs N          REPRO_JOBS          1 (serial)      no
seed          --seed N          REPRO_SEED          per-component   yes
cache         --no-cache        REPRO_NO_CACHE      enabled         no
cache_dir     (none)            REPRO_CACHE_DIR     memory-only     no
fault_plan    (none)            (none)              none            yes
sync          --sync P          REPRO_SYNC          tas             yes
duration      --duration US     REPRO_DURATION      per-experiment  yes
arrival_rate  --arrival-rate R  REPRO_ARRIVAL_RATE  per-experiment  yes
deadline      --deadline US     REPRO_DEADLINE      none            yes
queue_limit   --queue-limit N   REPRO_QUEUE_LIMIT   per-experiment  yes
============  ================  ==================  ==============  ======

The *value?* column is :attr:`Knob.changes_values`: whether the knob
can change a computed value.  Those knobs, and only those, make up the
store's ``result`` key (:func:`repro.service.build_job_key`); ``jobs``
and the store switches change scheduling and wall-clock time, never
values.  The root CLI flags (:mod:`repro.cli`) and the keywords of
:func:`repro.api.run_experiment` are read off the same table.

Three rows bend the rule.  The store switch is a kill switch: a disable
from either side wins, so ``REPRO_NO_CACHE=1`` beats an enable set for
the run.  ``cache_dir`` is read from the environment only (the store
opens its disk tier once), and ``fault_plan`` — a
:class:`~repro.faults.plan.FaultPlan` every kernel-simulator system
runs under — is set for a run only.  The traffic knobs (measurement
window in simulated microseconds, offered rate in messages per
simulated millisecond, per-message deadline, bounded MP ingress queue
length) default to *unset*: each open-arrival entry point keeps its
own documented default, and a set knob overrides all of them at once.

Every parser raises :class:`~repro.errors.ConfigError` naming the
source of the bad value (the flag, the variable or the keyword) — a
user who exported a knob wanted an effect, and a silent fallback hides
the typo.

:func:`resolved_config` snapshots what actually applies *and where
each value came from*; the snapshot is written into every trace header
(:mod:`repro.obs.export`) and every ``BENCH_perf.json`` record, so a
recorded run says how it was configured.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass, make_dataclass
from typing import Any, Callable

from repro.errors import ConfigError

# ----------------------------------------------------------------------
# parsers: (value, source) -> parsed value, or ConfigError naming source
# ----------------------------------------------------------------------


def validate_positive_int(value, source: str) -> int:
    """A positive int, or :class:`ConfigError` naming the bad source."""
    result = _integer(value, source, "a positive integer")
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


def _integer(value, source: str, what: str = "an integer") -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    try:
        return int(str(value).strip())
    except ValueError:
        raise ConfigError(f"{source} must be {what}, "
                          f"got {value!r}") from None


def _store_switch(value, source: str) -> bool:
    """The store switch: a bool set for the run, or ``REPRO_NO_CACHE``
    (``1`` turns the store off, ``0`` leaves it on)."""
    if isinstance(value, bool):
        return value
    if value in ("0", "1"):
        return value == "0"
    raise ConfigError(f"{source} must be 1 or 0, got {value!r}")


def _verbatim(value, source: str):
    return value


#: Recognized software synchronization primitives for the
#: architecture II queue path.  ``tas`` is the thesis's test-and-set
#: spinlock baseline (Table 6.1's 60 us + 14 cycles); ``cas``,
#: ``llsc`` and ``htm`` re-cost the same section 5.1 queue algorithms
#: under compare-and-swap, load-linked/store-conditional and
#: speculative (HTM-style) synchronization.  The architecture II model
#: parameters are re-derived from the selected primitive's microcoded
#: cost row, so the knob changes values and is part of the store's
#: ``solve`` and ``result`` keys.
VALID_SYNCS = ("tas", "cas", "llsc", "htm")


def normalize_sync(value, source: str = "sync") -> str:
    """Canonical sync-primitive name, or :class:`ConfigError`."""
    name = str(value).strip().lower().replace("-", "").replace("/", "")
    if name in VALID_SYNCS:
        return name
    raise ConfigError(
        f"{source} must be one of {', '.join(VALID_SYNCS)}, "
        f"got {value!r}")


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Knob:
    """One row of the knob table.

    ``flag`` is the root CLI flag with its metavar (``"--jobs N"``); a
    flag without one is a kill switch that sets the knob ``False``.
    ``field`` and ``source_field`` are the :class:`ResolvedConfig` keys
    of the value and of its provenance; ``show`` maps the value to its
    snapshot form.  ``settable`` is false for a knob read from the
    environment only.
    """

    name: str
    flag: str | None
    env: str | None
    parse: Callable[[Any, str], Any]
    default: Any
    field: str
    source_field: str | None
    changes_values: bool
    help: str = ""
    settable: bool = True
    show: Callable[[Any], Any] = lambda value: value


KNOBS: dict[str, Knob] = {knob.name: knob for knob in (
    Knob("jobs", "--jobs N", "REPRO_JOBS", validate_positive_int, 1,
         "jobs", "jobs_source", False,
         help="worker processes for sweep experiments (default: "
              "REPRO_JOBS or serial); results are identical at any N"),
    Knob("seed", "--seed N", "REPRO_SEED", _integer, None,
         "seed", "seed_source", True,
         help="default seed for every stochastic component (default: "
              "REPRO_SEED or each component's own)"),
    Knob("cache", "--no-cache", "REPRO_NO_CACHE", _store_switch, True,
         "cache_enabled", "cache_source", False,
         help="disable the content-addressed store of analyses, "
              "solves and results"),
    Knob("cache_dir", None, "REPRO_CACHE_DIR", _verbatim, None,
         "cache_dir", None, False, settable=False),
    Knob("fault_plan", None, None, _verbatim, None,
         "fault_plan", None, True,
         show=lambda plan: None if plan is None else repr(plan)),
    Knob("sync", "--sync P", "REPRO_SYNC", normalize_sync, "tas",
         "sync", "sync_source", True,
         help="synchronization primitive costing the architecture II "
              "software queue path: tas, cas, llsc, or htm (default: "
              "REPRO_SYNC or tas; architectures I/III/IV are "
              "unaffected)"),
    Knob("duration", "--duration US", "REPRO_DURATION",
         validate_positive_float, None,
         "duration_us", "duration_source", True,
         help="open-arrival measurement window in simulated us "
              "(default: REPRO_DURATION or each experiment's own)"),
    Knob("arrival_rate", "--arrival-rate R", "REPRO_ARRIVAL_RATE",
         validate_positive_float, None,
         "arrival_rate_per_ms", "arrival_rate_source", True,
         help="offered arrival rate in messages per simulated ms "
              "(default: REPRO_ARRIVAL_RATE or each experiment's own)"),
    Knob("deadline", "--deadline US", "REPRO_DEADLINE",
         validate_positive_float, None,
         "deadline_us", "deadline_source", True,
         help="per-message deadline in simulated us; completions past "
              "it count as deadline misses (default: REPRO_DEADLINE "
              "or none)"),
    Knob("queue_limit", "--queue-limit N", "REPRO_QUEUE_LIMIT",
         validate_positive_int, None,
         "queue_limit", "queue_limit_source", True,
         help="bounded MP ingress queue length for open-arrival runs "
              "(default: REPRO_QUEUE_LIMIT or each experiment's own)"),
)}

#: Values set for the run, by knob name (CLI flags, overrides).
_set: dict[str, Any] = {}


def _knob(name: str) -> Knob:
    knob = KNOBS.get(name)
    if knob is None or not knob.settable:
        raise TypeError(f"unknown run knob {name!r}; settable knobs: "
                        + ", ".join(k.name for k in KNOBS.values()
                                    if k.settable))
    return knob


def set_knob(name: str, value, source: str | None = None) -> None:
    """Set a knob for the run, parsed eagerly (``None`` unsets it).

    A bad value raises :class:`ConfigError` naming *source* — the CLI
    passes the flag; a Python caller sees the knob's name.
    """
    knob = _knob(name)
    if value is None:
        _set.pop(name, None)
        return
    _set[name] = knob.parse(value, source or name)


def resolve(name: str) -> tuple[Any, str]:
    """``(value, source)`` of one knob; *source* is ``"cli"`` (set for
    the run), ``"env"`` or ``"default"``."""
    knob = KNOBS[name]
    raw = os.environ.get(knob.env, "").strip() if knob.env else ""
    # the store switch is a kill switch: REPRO_NO_CACHE=1 wins over a
    # value set for the run, since that can only re-enable the store
    if name in _set and not (name == "cache" and raw == "1"):
        return _set[name], "cli"
    if raw:
        return knob.parse(raw, knob.env), "env"
    return knob.default, "default"


def reset() -> None:
    """Drop every value set for the run (tests and fresh CLI entry)."""
    _set.clear()


@contextmanager
def overrides(**knobs):
    """Set knobs for one block, restoring on exit.

    Keywords are knob names; ``None`` leaves a knob as the surrounding
    configuration has it.  :func:`repro.api.run_experiment` runs under
    this, so its keywords behave exactly like the matching CLI flags
    (same precedence, same validation) without leaking into the rest
    of the process.  Overrides are process-global for the block's
    duration, so runs execute one at a time; a run's store key
    (:func:`repro.service.build_job_key`) is resolved inside its
    block.
    """
    saved = dict(_set)
    try:
        for name, value in knobs.items():
            _knob(name)
            if value is not None:
                set_knob(name, value)
        yield
    finally:
        _set.clear()
        _set.update(saved)


# ----------------------------------------------------------------------
# named readers
# ----------------------------------------------------------------------

def jobs() -> int:
    return resolve("jobs")[0]


def seed() -> int | None:
    return resolve("seed")[0]


def cache_enabled() -> bool:
    return resolve("cache")[0]


def cache_dir() -> str | None:
    return resolve("cache_dir")[0]


def default_fault_plan():
    return resolve("fault_plan")[0]


def sync() -> str:
    return resolve("sync")[0]


def duration() -> float | None:
    return resolve("duration")[0]


def arrival_rate() -> float | None:
    return resolve("arrival_rate")[0]


def deadline() -> float | None:
    return resolve("deadline")[0]


def queue_limit() -> int | None:
    return resolve("queue_limit")[0]


# ----------------------------------------------------------------------
# the snapshot
# ----------------------------------------------------------------------

#: What actually applies to a run, with per-knob provenance: one
#: ``field`` (and ``source_field``) per row of :data:`KNOBS`, in table
#: order; ``*_source`` is one of ``"cli"``, ``"env"``, ``"default"``.
ResolvedConfig = make_dataclass(
    "ResolvedConfig",
    [name for knob in KNOBS.values()
     for name in (knob.field, knob.source_field) if name],
    frozen=True,
    namespace={"__module__": __name__,
               "as_dict": lambda self: asdict(self)})


def resolved_config() -> ResolvedConfig:
    """Snapshot the configuration a run starting now would use."""
    fields = {}
    for knob in KNOBS.values():
        value, source = resolve(knob.name)
        fields[knob.field] = knob.show(value)
        if knob.source_field:
            fields[knob.source_field] = source
    return ResolvedConfig(**fields)
