"""Run one benchmark workload and print its metrics.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S
        --trace 0|1 [--size full|tiny]

The run repeats the workload in fresh interpreters (``worker.py``, all
``REPRO_*`` variables removed) until another repetition would overrun
``--seconds``, but at least ``MIN_REPS`` times.  Metrics are medians
over the repetitions.  ``--trace 0`` reports the end-to-end metrics of
untraced repetitions; ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer split.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report and a ``record:`` line with the run's provenance.
See README.md for the workloads and the meaning of every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

WORKLOADS = ("exact-local", "exact-nonlocal", "mc-validate", "des-open")

#: Repetitions a run makes at least (with ``--trace 1``: one untraced,
#: one traced).
MIN_REPS = 2

#: A run stops starting repetitions, and kills a hung one, by then.
HARD_LIMIT_S = 170.0

READY = "PERFBENCH-READY"
RESULT = "PERFBENCH-RESULT "

#: Unit of every metric the benchmark computes.  ``BENCHMARK.json``
#: selects which of them the result line carries.
UNITS = {
    "setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
    "peak_rss_mib": "MiB", "failed_frac": "ratio",
    "states_per_s": "states/s", "mc_ticks_per_s": "ticks/s",
    "sim_events_per_s": "events/s",
    "api.self_s": "s", "perf.pool_self_s": "s",
    "perf.cache_hit_ratio": "ratio", "models.self_s": "s",
    "models.iterations": "count", "gtpn.build_s": "s",
    "gtpn.build_calls": "count", "gtpn.retime_s": "s",
    "gtpn.retime_calls": "count", "gtpn.solve_s": "s",
    "gtpn.solve_calls": "count", "gtpn.solve_states": "states",
    "gtpn.solve_max_s": "s", "gtpn.solve_fallbacks": "count",
    "gtpn.mc_s": "s", "gtpn.mc_ticks": "ticks",
    "validate.exact_s": "s", "validate.checks": "count",
    "validate.failures": "count", "kernel.des_s": "s",
    "kernel.events": "events", "traffic.offered": "count",
    "traffic.completed": "count", "traffic.dropped": "count",
    "traffic.completed_ratio": "ratio", "unattributed_s": "s",
    "trace_overhead_frac": "ratio",
}

#: Per-layer counts read from the outputs; 0 on workloads without them.
COUNT_KEYS = ("models.iterations", "gtpn.mc_ticks", "kernel.events",
              "traffic.offered", "traffic.completed", "traffic.dropped",
              "traffic.completed_ratio")

MC_CALL = "gtpn.monte_carlo_estimate"
DES_CALL = "traffic.run_open_experiment"

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class BenchError(Exception):
    """A repetition could not run; the run prints no result."""


#: Native thread pools pinned to one thread, so a repetition uses one
#: CPU whatever the machine's core count (``jobs=1`` end to end).
_ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")


def worker_env() -> dict[str, str]:
    """The caller's environment minus every ``REPRO_*`` variable, with
    native thread pools pinned to one thread."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(dict.fromkeys(_ONE_THREAD, "1"))
    return env


def run_rep(args, traced: bool, deadline: float, perf_now) -> dict:
    """Start one repetition and collect its result."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--traced", str(int(traced))]
    started = perf_now()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(),
                            stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    watchdog = threading.Timer(max(deadline - started, 1.0), proc.kill)
    watchdog.start()
    setup_s = result = None
    try:
        for line in proc.stdout:
            if line.startswith(READY) and setup_s is None:
                setup_s = perf_now() - started
            elif line.startswith(RESULT):
                result = json.loads(line[len(RESULT):])
            else:
                sys.stderr.write(line)
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or result is None or setup_s is None:
        raise BenchError(f"repetition failed (exit {proc.returncode}): "
                         f"{' '.join(cmd)}")
    result["setup_s"] = setup_s
    result["rep_s"] = perf_now() - started
    result["traced"] = traced
    return result


def tail(samples: list[float]) -> tuple[float, float] | None:
    """``(percentile, value)`` of the highest candidate percentile with
    at least ten samples beyond it (nearest rank), if any."""
    ordered = sorted(samples)
    for percentile in TAIL_PERCENTILES:
        rank = math.ceil(percentile / 100.0 * len(ordered))
        if rank >= 1 and len(ordered) - rank >= 10:
            return percentile, ordered[rank - 1]
    return None


def _rate(reps: list[dict], count_key: str, call: str) -> float:
    """Median over *reps* of a count divided by one call's host time."""
    rates = [rep["counts"].get(count_key, 0.0) / rep["host_s"][call]
             for rep in reps if rep["host_s"].get(call)]
    return statistics.median(rates) if rates else 0.0


def aggregate(reps: list[dict]) -> tuple[dict, dict, dict]:
    """``(metrics, checks, notes)`` of a run's repetitions."""
    untraced = [rep for rep in reps if not rep["traced"]]
    traced = [rep for rep in reps if rep["traced"]]
    failures = [f for rep in reps for f in rep["failures"]]
    reference = reps[0]["digest"]
    mismatched = [i for i, rep in enumerate(reps)
                  if rep["digest"] != reference]
    failures += [f"digest of repetition {i} differs from repetition 0"
                 for i in mismatched]
    attempted = sum(rep["attempted"] for rep in reps) + len(reps) - 1
    walls = [rep["wall_s"] for rep in untraced]
    ops = [t for rep in untraced for t in rep["op_s"]]
    metrics = {
        "setup_s": statistics.median(rep["setup_s"] for rep in reps),
        "wall_s": statistics.median(walls),
        "op_p50_s": statistics.median(ops),
        "peak_rss_mib": statistics.median(rep["peak_rss_mib"]
                                          for rep in untraced),
        "failed_frac": len(failures) / attempted,
        "mc_ticks_per_s": _rate(untraced, "gtpn.mc_ticks", MC_CALL),
        "sim_events_per_s": _rate(untraced, "kernel.events", DES_CALL),
    }
    notes = {"op_samples": len(ops)}
    found = tail(ops)
    if found is not None:
        notes["op_tail_percentile"], metrics["op_tail_s"] = found
    if traced:
        layer_keys = traced[0]["layers"].keys()
        for key in layer_keys:
            metrics[key] = statistics.median(rep["layers"][key]
                                             for rep in traced)
        for key in COUNT_KEYS:
            metrics[key] = statistics.median(
                rep["counts"].get(key, 0.0) for rep in traced)
        metrics["validate.checks"] = statistics.median(
            rep["validate_checks"] for rep in traced)
        metrics["validate.failures"] = statistics.median(
            rep["validate_failures"] for rep in traced)
        traced_wall = statistics.median(rep["wall_s"] for rep in traced)
        metrics["trace_overhead_frac"] = \
            traced_wall / metrics["wall_s"] - 1.0
        metrics["states_per_s"] = \
            metrics["gtpn.solve_states"] / metrics["wall_s"]
    checks = {"attempted": attempted, "failed": len(failures),
              "failures": failures}
    return metrics, checks, notes


def source_record() -> dict:
    """Provenance: git revision when the tree is a git checkout, and a
    digest of the program sources either way."""
    revision = None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=True)
        toplevel, head = out.stdout.split()
        if Path(toplevel).resolve() == ROOT:
            revision = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"git_revision": revision, "src_sha256": digest.hexdigest()}


def selected_metrics(trace: int) -> list[str]:
    """The metric names ``BENCHMARK.json`` asks for at this trace
    level."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [entry["name"]
            for entry in spec["per_layer" if trace else "end_to_end"]]


def report(args, reps, metrics, checks, notes, elapsed) -> None:
    """The readable report: every computed metric with its unit."""
    untraced = sum(not rep["traced"] for rep in reps)
    print(f"perfbench {args.workload} seed {args.seed} "
          f"({args.size}): {len(reps)} repetitions ({untraced} "
          f"untraced, {len(reps) - untraced} traced) in {elapsed:.1f} s")
    for name in sorted(metrics, key=list(UNITS).index):
        extra = ""
        if name == "op_p50_s":
            extra = f"  ({notes['op_samples']} operations)"
        elif name == "op_tail_s":
            extra = f"  (p{notes['op_tail_percentile']:g})"
        elif name == "failed_frac":
            extra = f"  ({checks['failed']} of {checks['attempted']})"
        print(f"  {name:26s} {metrics[name]:.6g} {UNITS[name]}{extra}")
    if "op_tail_s" not in metrics:
        print(f"  op_tail_s: fewer than 10 of {notes['op_samples']} "
              "operations lie beyond any percentile")
    for failure in checks["failures"]:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    args = parser.parse_args(argv)
    try:
        from repro.obs.clock import perf_now
    except ImportError as error:
        print(f"perfbench: cannot import the repository ({error})",
              file=sys.stderr)
        return 2

    run_started = perf_now()
    deadline = run_started + HARD_LIMIT_S
    reps: list[dict] = []
    try:
        names = selected_metrics(args.trace)
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 1
            reps.append(run_rep(args, traced, deadline, perf_now))
            elapsed = perf_now() - run_started
            typical = statistics.median(rep["rep_s"] for rep in reps)
            if len(reps) >= MIN_REPS and \
                    elapsed + typical > min(args.seconds, HARD_LIMIT_S):
                break
        metrics, checks, notes = aggregate(reps)
        missing = [name for name in names if name not in metrics]
        if missing:
            raise BenchError(f"metrics not computed: {missing}")
    except (BenchError, OSError, ValueError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    report(args, reps, metrics, checks, notes,
           perf_now() - run_started)
    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "nproc": os.cpu_count(),
        "versions": reps[0]["versions"], "config": reps[0]["config"],
        **source_record(),
        "repetitions": [{key: rep[key] for key in
                         ("traced", "setup_s", "wall_s", "rep_s")}
                        for rep in reps],
    }
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {name: {"value": float(metrics[name]),
                           "unit": UNITS[name]}
                    for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
