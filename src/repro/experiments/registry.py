"""Registry mapping every evaluation table and figure to its runner."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Callable, Union

from repro.errors import ReproError
from repro.experiments import extensions, figures, tables
from repro.experiments.reporting import Figure, Table
from repro.models import Mode

Artifact = Union[Table, Figure]


@dataclass(frozen=True)
class Experiment:
    """One reproducible artifact of the evaluation."""

    experiment_id: str
    title: str
    kind: str                    # "table" | "figure"
    runner: Callable[[], Artifact]
    heavy: bool = False          # multi-minute full-grid runners

    def run(self) -> Artifact:
        artifact = self.runner()
        if artifact.experiment_id and \
                artifact.experiment_id != self.experiment_id:
            raise ReproError(
                f"runner for {self.experiment_id} returned "
                f"{artifact.experiment_id}")
        return artifact


def _validation_artifact(grid_name: str, experiment_id: str) -> Table:
    """Run the three-way cross-validation; the full
    :class:`~repro.validate.report.ValidationReport` rides along as
    the ``validation_report`` extra for ``repro validate`` to persist
    and gate on."""
    from repro import api
    from repro.validate.report import run_validation
    report = run_validation(grid_name)
    api.attach_extra("validation_report", report)
    return report.table(experiment_id)


def _traffic_artifact(runner_name: str) -> Artifact:
    from repro.traffic import experiments as traffic_experiments
    return getattr(traffic_experiments, runner_name)()


def _sync_artifact(runner_name: str) -> Artifact:
    # lazy import: the sync-comparison runner pulls in the microcoded
    # edge-count derivation (repro.bus.syncedges), which the rest of
    # the registry never needs
    from repro.experiments import sync as sync_experiments
    return getattr(sync_experiments, runner_name)()


def _experiments() -> list[Experiment]:
    entries: list[Experiment] = []

    def table(experiment_id, title, runner, heavy=False):
        entries.append(Experiment(experiment_id, title, "table", runner,
                                  heavy))

    def figure(experiment_id, title, runner, heavy=False):
        entries.append(Experiment(experiment_id, title, "figure",
                                  runner, heavy))

    for tid in ("table-3.1", "table-3.2", "table-3.3", "table-3.4",
                "table-3.5"):
        table(tid, f"Kernel profiling breakdown ({tid})",
              partial(tables.profiling_table, tid))
    table("table-3.6", "Unix service times", tables.table_3_6)
    table("table-3.7", "Unix read/write times", tables.table_3_7)
    table("table-5.1", "Smart bus signals", tables.table_5_1)
    table("table-5.2", "Smart bus commands", tables.table_5_2)
    table("table-6.1", "Processing-time comparison", tables.table_6_1)
    table("table-6.2", "Client contention completion times",
          tables.table_6_2)
    for tid in ("table-6.4", "table-6.6", "table-6.9", "table-6.11",
                "table-6.14", "table-6.16", "table-6.19", "table-6.21"):
        table(tid, f"Round-trip action breakdown ({tid})",
              partial(tables.action_breakdown_table, tid))
    for tid in ("table-6.5", "table-6.7", "table-6.8", "table-6.10",
                "table-6.12", "table-6.13", "table-6.15t",
                "table-6.17", "table-6.18", "table-6.20",
                "table-6.22", "table-6.23"):
        table(tid, f"GTPN transition attributes ({tid})",
              partial(tables.transition_attribute_table, tid))
    table("table-6.24", "Offered loads (local)",
          partial(tables.offered_loads_table, Mode.LOCAL))
    table("table-6.25", "Offered loads (non-local)",
          partial(tables.offered_loads_table, Mode.NONLOCAL),
          heavy=True)

    figure("figure-6.7", "Geometric approximation of constant delays",
           figures.figure_6_7)
    figure("figure-6.15", "Model validation (DES vs GTPN)",
           figures.figure_6_15, heavy=True)
    figure("figure-6.15-faithful",
           "Model validation, two hosts per node",
           figures.figure_6_15_faithful, heavy=True)
    figure("figure-6.17a", "Max communication load (local)",
           figures.figure_6_17a)
    figure("figure-6.17b", "Max communication load (non-local)",
           figures.figure_6_17b, heavy=True)
    figure("figure-6.18", "Realistic workload (local)",
           figures.figure_6_18, heavy=True)
    figure("figure-6.19", "Realistic workload (non-local)",
           figures.figure_6_19, heavy=True)
    figure("figure-6.20", "Arch III vs IV max load (local)",
           figures.figure_6_20)
    figure("figure-6.21", "Arch III vs IV max load (non-local)",
           figures.figure_6_21, heavy=True)
    figure("figure-6.22", "Arch III vs IV realistic (local)",
           figures.figure_6_22, heavy=True)
    figure("figure-6.23", "Arch III vs IV realistic (non-local)",
           figures.figure_6_23, heavy=True)

    # beyond the published evaluation: chapter 7 + ablations
    figure("extension-7.1", "Multiprocessor node host scaling",
           extensions.extension_host_scaling, heavy=True)
    table("ablation-bus-speed", "Smart-bus speed sensitivity",
          extensions.ablation_bus_speed)
    table("ablation-mp-speed", "Coprocessor speed sensitivity",
          extensions.ablation_mp_speed, heavy=True)
    table("ablation-dedication",
          "Dedication vs symmetric multiprocessing",
          extensions.ablation_dedication, heavy=True)
    table("flavors-3.2", "Null RPC per IPC flavor (section 3.2)",
          extensions.flavor_round_trips)

    # repro.faults: the section 6.6.4 reliability assumption relaxed
    figure("chaos-degradation",
           "Degradation under packet loss (chaos sweep)",
           figures.figure_chaos_degradation, heavy=True)
    table("chaos-outage", "Node crash/recovery with MP retransmission",
          extensions.chaos_outage_table)

    # repro.traffic: open-arrival load beyond the closed loop (lazy
    # import: traffic experiments build on this package's reporting)
    figure("traffic-knee-quick",
           "Open-arrival load/latency knee (arch II, quick)",
           partial(_traffic_artifact, "knee_quick_figure"))
    figure("traffic-knee",
           "Open-arrival load/latency knee (arch I-IV)",
           partial(_traffic_artifact, "knee_full_figure"), heavy=True)
    table("traffic-chaos",
          "Chaos under load: burst spike + loss + outage",
          partial(_traffic_artifact, "chaos_under_load_table"))

    # repro.models.syncmodel: architecture II re-costed per
    # synchronization primitive (TAS / CAS / LL-SC / HTM)
    figure("sync-comparison",
           "Synchronization primitives vs the smart bus (local)",
           partial(_sync_artifact, "sync_comparison"))
    figure("sync-comparison-nonlocal",
           "Synchronization primitives vs the smart bus (non-local)",
           partial(_sync_artifact, "sync_comparison_nonlocal"),
           heavy=True)

    # repro.validate: three-way differential testing of the estimators
    table("validate-quick",
          "Cross-validation: exact vs MC vs DES (quick grid)",
          partial(_validation_artifact, "quick", "validate-quick"))
    table("validate-full",
          "Cross-validation: exact vs MC vs DES (full chapter-6 grid)",
          partial(_validation_artifact, "full", "validate-full"),
          heavy=True)
    return entries


REGISTRY: dict[str, Experiment] = {
    e.experiment_id: e for e in _experiments()}


def register_experiment(experiment: Experiment) -> None:
    """Install (or replace) an experiment under its id.

    The extension seam for runners the core does not ship — the
    ``repro serve`` tests register tiny synthetic experiments rather
    than paying for real chapter-6 grids.  Most callers want the
    scoped :func:`temporary_experiment` instead.
    """
    REGISTRY[experiment.experiment_id] = experiment


def unregister_experiment(experiment_id: str) -> None:
    """Remove an experiment registered with
    :func:`register_experiment` (missing ids are ignored)."""
    REGISTRY.pop(experiment_id, None)


@contextmanager
def temporary_experiment(experiment: Experiment):
    """Register *experiment* for the duration of a ``with`` block,
    restoring whatever (if anything) previously held its id."""
    previous = REGISTRY.get(experiment.experiment_id)
    register_experiment(experiment)
    try:
        yield experiment
    finally:
        if previous is not None:
            REGISTRY[experiment.experiment_id] = previous
        else:
            REGISTRY.pop(experiment.experiment_id, None)


def get_experiment(experiment_id: str) -> Experiment:
    try:
        return REGISTRY[experiment_id]
    except KeyError:
        import difflib
        close = difflib.get_close_matches(experiment_id,
                                          REGISTRY, n=3, cutoff=0.5)
        if close:
            hint = "did you mean " + " or ".join(close) + "?"
        else:
            hint = f"known ids: {', '.join(sorted(REGISTRY))}"
        raise ReproError(
            f"unknown experiment {experiment_id!r}; {hint} "
            "(see `repro list --heavy`)") from None


def all_experiment_ids(include_heavy: bool = True) -> list[str]:
    return [e.experiment_id for e in REGISTRY.values()
            if include_heavy or not e.heavy]
