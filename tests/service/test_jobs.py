"""Job identity: the one digest of the result store's key.

The coverage tests are driven by the knob table, so a knob added to
:data:`repro.config.KNOBS` is keyed (or deliberately not) the day it
lands.
"""

from __future__ import annotations

import pytest

from repro import config
from repro.faults.plan import FaultPlan
from repro.models import Architecture, Mode
from repro.models.solve import solve
from repro.service import build_job_key

#: A value other than the default for every knob that changes values.
VALUE_KNOB_SAMPLES = {
    "seed": 7,
    "fault_plan": FaultPlan.packet_loss(0.01),
    "sync": "cas",
    "duration": 250_000.0,
    "arrival_rate": 0.5,
    "deadline": 4_000.0,
    "queue_limit": 16,
}

#: ``(environment value, run value)`` of every knob that only changes
#: scheduling; ``None`` for a knob read from the environment only.
EXECUTION_KNOBS = {
    "jobs": ("4", 2),
    "cache": ("1", False),
    "cache_dir": ("unused-store-dir", None),
}


def test_samples_cover_the_table():
    value_knobs = [k.name for k in config.KNOBS.values()
                   if k.changes_values]
    assert sorted(VALUE_KNOB_SAMPLES) == sorted(value_knobs)
    assert sorted(EXECUTION_KNOBS) == sorted(
        k.name for k in config.KNOBS.values() if not k.changes_values)


@pytest.mark.parametrize("name", sorted(VALUE_KNOB_SAMPLES))
def test_every_value_knob_changes_the_digest(name):
    base = build_job_key("figure-6.7", {})
    other = build_job_key("figure-6.7", {name: VALUE_KNOB_SAMPLES[name]})
    assert other.digest != base.digest


def test_execution_knobs_do_not_fragment_the_key(monkeypatch):
    # jobs / the store switches change scheduling, never values (the
    # backends bit-identity contract): they must share one address
    base = build_job_key("figure-6.7", {"seed": 7})
    for name, (env_value, run_value) in EXECUTION_KNOBS.items():
        with monkeypatch.context() as patch:
            patch.setenv(config.KNOBS[name].env, env_value)
            assert config.resolve(name)[1] == "env"
            assert build_job_key("figure-6.7", {"seed": 7}) == base
        if run_value is not None:
            assert build_job_key("figure-6.7",
                                 {"seed": 7, name: run_value}) == base


def test_key_equal_for_identical_submissions():
    a = build_job_key("figure-6.7", {"seed": 7})
    b = build_job_key("figure-6.7", {"seed": 7})
    assert a == b and a.digest == b.digest


def test_experiment_id_changes_the_digest():
    base = build_job_key("figure-6.7", {"seed": 7})
    other = build_job_key("table-5.1", {"seed": 7})
    assert base.digest != other.digest


def test_unset_knobs_resolve_through_config():
    # explicit seed=7 and ambient CLI seed 7 are the same run; so are
    # an explicit and an ambient sync primitive
    explicit = build_job_key("figure-6.7", {"seed": 7, "sync": "cas"})
    config.set_knob("seed", 7)
    config.set_knob("sync", "cas")
    try:
        ambient = build_job_key("figure-6.7", {})
    finally:
        config.reset()
    assert explicit == ambient


def test_key_resolves_inside_active_overrides():
    # runs execute one at a time, so a key built inside a run's
    # config.overrides block keys that run: its overrides are the
    # run's own knobs, and explicit keywords still win over them
    with config.overrides(seed=99, duration=123.0):
        inside = build_job_key("figure-6.7", {})
        explicit = build_job_key("figure-6.7", {"seed": 7})
    assert inside == build_job_key(
        "figure-6.7", {"seed": 99, "duration": 123.0})
    assert inside != build_job_key("figure-6.7", {})
    assert explicit == build_job_key(
        "figure-6.7", {"seed": 7, "duration": 123.0})


def test_numeric_normalisation():
    assert build_job_key("t", {"duration": 500000}) == \
        build_job_key("t", {"duration": 500000.0})


def test_str_is_the_digest():
    key = build_job_key("figure-6.7", {"seed": 7})
    assert str(key) == key.digest
    assert len(key.digest) == 16


def test_solve_key_covers_sync():
    # the sync primitive re-costs architecture II: a cas solve must not
    # be answered by the tas entry of the store's solve namespace
    tas = solve(Architecture.II, Mode.LOCAL, 1, 0.0, sync="tas")
    cas = solve(Architecture.II, Mode.LOCAL, 1, 0.0, sync="cas")
    with config.overrides(sync="cas"):
        ambient = solve(Architecture.II, Mode.LOCAL, 1, 0.0)
    assert cas.throughput != tas.throughput
    assert ambient.throughput == cas.throughput
