"""Tests for artifact persistence (JSON/CSV)."""

import json

import pytest

from repro.errors import ReproError
from repro.experiments import Figure, Series, Table
from repro.experiments.io import (artifact_from_dict, artifact_to_dict,
                                  load_artifact, save_artifact, to_csv,
                                  to_json)


def sample_table():
    return Table(experiment_id="table-x", title="Sample",
                 headers=["a", "b"], rows=[[1, 2.5], ["z", 4]],
                 notes=["a note"])


def sample_figure():
    return Figure(experiment_id="figure-x", title="Sample",
                  x_label="x", y_label="y",
                  series=[Series("s1", [1.0, 2.0], [10.0, 20.0]),
                          Series("s2", [1.0, 3.0], [5.0, 6.0])])


def test_table_json_roundtrip():
    table = sample_table()
    restored = artifact_from_dict(json.loads(to_json(table)))
    assert isinstance(restored, Table)
    assert restored.headers == table.headers
    assert restored.rows == [[1, 2.5], ["z", 4]]
    assert restored.notes == ["a note"]


def test_figure_json_roundtrip():
    figure = sample_figure()
    restored = artifact_from_dict(artifact_to_dict(figure))
    assert isinstance(restored, Figure)
    assert restored.get_series("s1").y == [10.0, 20.0]
    assert restored.x_label == "x"


def test_table_csv():
    text = to_csv(sample_table())
    lines = text.strip().splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "1,2.5"


def test_figure_csv_aligns_series_on_x():
    text = to_csv(sample_figure())
    lines = text.strip().splitlines()
    assert lines[0] == "x,s1,s2"
    assert lines[1] == "1.0,10.0,5.0"
    # x=2.0 has no s2 sample; x=3.0 has no s1 sample
    assert lines[2] == "2.0,20.0,"
    assert lines[3] == "3.0,,6.0"


def test_save_and_load(tmp_path):
    paths = save_artifact(sample_table(), tmp_path)
    assert {p.suffix for p in paths} == {".json", ".csv"}
    restored = load_artifact(tmp_path / "table-x.json")
    assert restored.title == "Sample"


def test_save_creates_directory(tmp_path):
    target = tmp_path / "deep" / "dir"
    save_artifact(sample_figure(), target, formats=("json",))
    assert (target / "figure-x.json").exists()


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ReproError):
        save_artifact(sample_table(), tmp_path, formats=("xml",))


def test_bad_payload_rejected():
    with pytest.raises(ReproError):
        artifact_from_dict({"kind": "sculpture"})
    with pytest.raises(ReproError):
        artifact_to_dict("not an artifact")


def test_real_experiment_roundtrips(tmp_path):
    from repro import api
    table = api.run_experiment("table-5.1").artifact
    save_artifact(table, tmp_path)
    restored = load_artifact(tmp_path / "table-5.1.json")
    assert restored.rows == table.rows
