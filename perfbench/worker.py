"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition with every
``REPRO_*`` variable removed, so each repetition is a cold run of the
default configuration: no disk cache, no warm ``lru_cache``.  The
script builds the workload's inputs from the seed (set-up), prints
``PERFBENCH-READY`` just before the first timed operation, runs every
operation as one experiment through ``repro.api.run_experiment`` with
``jobs=1``, and then checks the outputs.  Its last line is
``PERFBENCH-RESULT <json>``.

Usage: python3 perfbench/worker.py --workload NAME --seed N
       [--size full|tiny] [--traced 0|1]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import sys
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

READY = "PERFBENCH-READY"
RESULT = "PERFBENCH-RESULT "


def run_pass(workload, ops):
    """Run *ops* as one registered experiment; returns
    ``(outputs, per-operation seconds, pass wall seconds)``."""
    from repro import api, obs
    from repro.experiments.registry import Experiment, temporary_experiment
    from repro.experiments.reporting import Table
    from repro.obs.clock import perf_now

    experiment_id = f"perfbench-{workload.name}"
    outputs, op_s = [], []

    def runner():
        with obs.span("bench:runner"):
            for _label, op in ops:
                started = perf_now()
                outputs.append(op())
                op_s.append(perf_now() - started)
        return Table(experiment_id=experiment_id,
                     title=f"benchmark pass {workload.name}",
                     headers=["operations"], rows=[[len(outputs)]])

    experiment = Experiment(experiment_id, f"benchmark {workload.name}",
                            "table", runner)
    with temporary_experiment(experiment):
        with obs.span("bench:pass"):
            started = perf_now()
            workload.call("api.run_experiment", api.run_experiment,
                          experiment_id, jobs=1)
            wall = perf_now() - started
    return outputs, op_s, wall


def main(argv=None) -> int:
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=workloads.SIZES)
    parser.add_argument("--traced", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    import numpy
    import scipy
    from repro import config, obs
    from repro.obs.recorder import Recorder

    workload = workloads.REGISTRY[args.workload](args.seed, args.size,
                                                 ROOT)
    ops = workload.ops()
    recorder = Recorder() if args.traced else None
    print(READY, flush=True)
    with obs.recording(recorder) if recorder else nullcontext():
        outputs, op_s, wall = run_pass(workload, ops)

    checks = workload.checks(outputs)
    digest = hashlib.sha256(json.dumps(
        workload.digest_data(outputs), sort_keys=True).encode()
    ).hexdigest()
    validate_checks = [c for c in checks if c.layer == "validate"]
    result = {
        "wall_s": wall,
        "op_s": op_s,
        "host_s": dict(workload.host_s),
        "attempted": len(checks),
        "failures": [f"{c.name}: {c.detail}" for c in checks if not c.ok],
        "validate_checks": len(validate_checks),
        "validate_failures": sum(not c.ok for c in validate_checks),
        "digest": digest,
        "counts": workload.counts(outputs),
        "peak_rss_mib": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "config": config.resolved_config().as_dict(),
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if recorder is not None:
        import layers
        result["layers"] = layers.layer_metrics(recorder)
    print(RESULT + json.dumps(result, default=str), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
