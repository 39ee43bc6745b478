"""Tests for the experiment registry and reporting."""

import pytest

from repro import api
from repro.errors import ReproError
from repro.experiments import (Figure, REGISTRY, Series, Table,
                               all_experiment_ids, get_experiment)


def test_every_evaluation_artifact_registered():
    expected = {
        # chapter 3
        "table-3.1", "table-3.2", "table-3.3", "table-3.4", "table-3.5",
        "table-3.6", "table-3.7",
        # chapter 5
        "table-5.1", "table-5.2",
        # chapter 6 tables
        "table-6.1", "table-6.2", "table-6.4", "table-6.6", "table-6.9",
        "table-6.11", "table-6.14", "table-6.16", "table-6.19",
        "table-6.21", "table-6.24", "table-6.25",
        # chapter 6 figures
        "figure-6.7", "figure-6.15", "figure-6.17a", "figure-6.17b",
        "figure-6.18", "figure-6.19", "figure-6.20", "figure-6.21",
        "figure-6.22", "figure-6.23",
    }
    assert expected <= set(REGISTRY)


def test_unknown_experiment_rejected():
    with pytest.raises(ReproError):
        get_experiment("table-99.9")


def test_light_ids_exclude_heavy():
    light = all_experiment_ids(include_heavy=False)
    assert "table-6.24" in light
    assert "figure-6.18" not in light


def test_validation_experiments_registered():
    light = all_experiment_ids(include_heavy=False)
    assert "validate-quick" in light              # the CI gate
    assert "validate-full" not in light           # full grid is heavy
    assert get_experiment("validate-full").heavy


def test_light_tables_run_and_render():
    for experiment_id in ("table-3.1", "table-3.6", "table-5.1",
                          "table-5.2", "table-6.1", "table-6.4"):
        artifact = api.run_experiment(experiment_id).artifact
        assert isinstance(artifact, Table)
        text = artifact.render()
        assert experiment_id in text
        assert len(text.splitlines()) >= 4


def test_figure_6_7_curves_coincide():
    figure = api.run_experiment("figure-6.7").artifact
    const = figure.get_series("constant")
    geo = figure.get_series("geometric")
    for a, b in zip(const.y, geo.y):
        assert a == pytest.approx(b, rel=1e-9)


def test_table_render_alignment():
    table = Table(experiment_id="t", title="x",
                  headers=["a", "bb"], rows=[[1, 2.5], ["zz", 3]])
    lines = table.render().splitlines()
    assert len({len(line) for line in lines[1:]}) == 1


def test_series_length_mismatch_rejected():
    with pytest.raises(ReproError):
        Series("s", [1.0, 2.0], [1.0])


def test_figure_lookup_and_render():
    figure = Figure(experiment_id="f", title="t", x_label="x",
                    y_label="y",
                    series=[Series("a", [1.0, 2.0], [3.0, 4.0])])
    assert figure.get_series("a").y == [3.0, 4.0]
    with pytest.raises(ReproError):
        figure.get_series("b")
    assert "f — t" in figure.render()
