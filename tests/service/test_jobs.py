"""Job identity: the structure × timing keys of the result store."""

from __future__ import annotations

from repro import config
from repro.service import build_job_key


def test_key_equal_for_identical_submissions():
    a = build_job_key("figure-6.7", {"seed": 7})
    b = build_job_key("figure-6.7", {"seed": 7})
    assert a == b and a.digest == b.digest


def test_seed_lands_in_timing_half():
    base = build_job_key("figure-6.7", {"seed": 7})
    other = build_job_key("figure-6.7", {"seed": 8})
    assert base != other
    assert base.structure_digest == other.structure_digest
    assert base.timing_digest != other.timing_digest


def test_experiment_id_lands_in_structure_half():
    base = build_job_key("figure-6.7", {"seed": 7})
    other = build_job_key("table-5.1", {"seed": 7})
    assert base.structure_digest != other.structure_digest
    assert base.timing_digest == other.timing_digest


def test_execution_knobs_do_not_fragment_the_key():
    # jobs / cache change scheduling, never values (the backends
    # bit-identity contract) — they must share one address
    base = build_job_key("figure-6.7", {"seed": 7})
    for extra in ({"jobs": 4}, {"cache_enabled": False}):
        assert build_job_key("figure-6.7",
                             {"seed": 7, **extra}) == base


def test_unset_knobs_resolve_through_config():
    # explicit seed=7 and ambient CLI seed 7 are the same run
    explicit = build_job_key("figure-6.7", {"seed": 7})
    config.set_seed(7)
    try:
        ambient = build_job_key("figure-6.7", {})
    finally:
        config.set_seed(None)
    assert explicit == ambient


def test_key_resolves_inside_active_overrides():
    # runs execute one at a time, so a key built inside a run's
    # config.overrides block keys that run: its overrides are the
    # run's own knobs, and explicit keywords still win over them
    with config.overrides(seed=99, duration=123.0, reduction="lump"):
        inside = build_job_key("figure-6.7", {})
        explicit = build_job_key("figure-6.7", {"seed": 7})
    assert inside == build_job_key(
        "figure-6.7", {"seed": 99, "duration": 123.0,
                       "reduction": "lump"})
    assert inside != build_job_key("figure-6.7", {})
    assert explicit.timing[0] == 7
    assert explicit.structure == inside.structure


def test_numeric_normalisation():
    assert build_job_key("t", {"duration": 500000}) == \
        build_job_key("t", {"duration": 500000.0})


def test_sync_lands_in_structure_half():
    # the sync primitive re-costs architecture II: a value knob
    base = build_job_key("sync-comparison", {"sync": "tas"})
    other = build_job_key("sync-comparison", {"sync": "cas"})
    assert base.structure_digest != other.structure_digest
    assert base.timing_digest == other.timing_digest
    config.set_sync("cas")
    try:
        assert build_job_key("sync-comparison", {}) == other
    finally:
        config.set_sync(None)


def test_traffic_knobs_land_in_timing_half():
    base = build_job_key("traffic-knee-quick", {})
    other = build_job_key("traffic-knee-quick", {"arrival_rate": 9.0})
    assert base.structure_digest == other.structure_digest
    assert base.timing_digest != other.timing_digest


def test_str_shows_split_halves():
    key = build_job_key("figure-6.7", {"seed": 7})
    assert str(key) == f"{key.structure_digest}x{key.timing_digest}"
    assert len(key.digest) == 16
