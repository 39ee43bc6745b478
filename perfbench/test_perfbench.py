"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

Every workload runs at its tiny size and must print every metric
``BENCHMARK.json`` names, with its unit; corrupted outputs must fail
their checks rather than pass.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from repro.models.params import Mode  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    done = _run("--workload", workload, "--seed", str(SEED),
                "--seconds", "1", "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    report = "\n".join(lines[:-1])
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float)
        assert f"{metric['name']} " in report
    assert any(line.startswith("record: ") for line in lines)


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "exact-local", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# ----------------------------------------------------------------------
# corrupted outputs fail
# ----------------------------------------------------------------------

def _outputs(workload):
    return [op() for _label, op in workload.ops()]


def _failed(checks, prefix):
    return [c for c in checks if c.name.startswith(prefix) and not c.ok]


def test_baseline_drift_beyond_rtol_fails():
    from repro.validate.baseline import DRIFT_RTOL
    workload = workloads.ExactLocal(SEED, "tiny", ROOT)
    outputs = _outputs(workload)
    assert not [c for c in workload.checks(outputs) if not c.ok]
    kind, config, exact = next(o for o in outputs if o[0] == "baseline")
    drifted = dataclasses.replace(
        exact, throughput_per_ms=exact.throughput_per_ms
        * (1 + 3 * DRIFT_RTOL) + 3 * DRIFT_RTOL)
    outputs[outputs.index((kind, config, exact))] = (kind, config,
                                                     drifted)
    assert _failed(workload.checks(outputs),
                   f"baseline {config.config_id}")


def test_non_monotone_or_unbounded_grid_fails():
    workload = workloads.ExactLocal(SEED, "tiny", ROOT)
    outputs = _outputs(workload)
    low, high = [i for i, o in enumerate(outputs)
                 if o[0] == "grid" and o[1][:2] == ("II", 2)]
    outputs[low], outputs[high] = (
        (*outputs[low][:2], outputs[high][2]),
        (*outputs[high][:2], outputs[low][2]))
    assert _failed(workload.checks(outputs), "load-monotone II n2")
    outputs[low] = (*outputs[low][:2], 1.0)      # 1 msg/us: past the MP
    assert _failed(workload.checks(outputs), "mp-bound grid II 2")


def test_broken_conservation_count_fails():
    workload = workloads.DesOpen(SEED, "tiny", ROOT)
    outputs = _outputs(workload)
    assert not [c for c in workload.checks(outputs) if not c.ok]
    _point, result = outputs[0]
    result.meter.measured.dropped += 1
    assert _failed(workload.checks(outputs), "conservation")
    result.meter.measured.dropped -= 1
    result.meter.measured.completed -= 1
    assert _failed(workload.checks(outputs), "resolved")


def test_exact_outside_the_monte_carlo_interval_fails():
    workload = workloads.McValidate(SEED, "tiny", ROOT)
    outputs = _outputs(workload)
    assert not [c for c in workload.checks(outputs) if not c.ok]
    estimates = outputs[0]
    exact = dataclasses.replace(
        estimates.exact,
        throughput_per_ms=estimates.exact.throughput_per_ms * 2.0)
    outputs[0] = dataclasses.replace(estimates, exact=exact)
    assert _failed(workload.checks(outputs), estimates.config.config_id)


def test_digest_mismatch_between_repetitions_fails():
    rep = {"traced": False, "failures": [], "digest": "a",
           "attempted": 4, "wall_s": 1.0, "op_s": [0.5, 0.5],
           "peak_rss_mib": 100.0, "setup_s": 0.5, "counts": {},
           "host_s": {}}
    _metrics, checks, _notes = run.aggregate([rep, {**rep,
                                                    "digest": "b"}])
    assert checks["failed"] == 1 and checks["attempted"] == 9


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 10) is None
    percentile, _value = run.tail([float(i) for i in range(40)])
    assert percentile == 75.0
    assert run.tail([float(i) for i in range(200)])[0] == 95.0


def test_inputs_depend_only_on_the_seed():
    first = workloads.ExactNonlocal(SEED, "tiny", ROOT)
    again = workloads.ExactNonlocal(SEED, "tiny", ROOT)
    other = workloads.ExactNonlocal(SEED + 1, "tiny", ROOT)
    assert first.loads == again.loads != other.loads
    low, high = workloads.LOAD_RANGE
    assert all(low < load <= high for load in first.loads)
    assert Mode.NONLOCAL in {c.mode for c in first.configs}
