"""The four benchmark workloads: seeded inputs, timed operations, checks.

Each workload class builds its inputs from the seed in ``__init__``
(that is set-up time), lists its operations with :meth:`Workload.ops`,
and after the timed pass turns the operations' outputs into correctness
checks, digest data and per-layer counts.  Every call into the
repository goes through :meth:`Workload.call`, which opens a
``bench:<layer>.<function>`` span (``<layer>`` is the package whose code
does the work) and adds the call's host time to
:attr:`Workload.host_s`.

Imported only by ``worker.py`` and the self-tests, with the
repository's ``src/`` on ``sys.path``.
"""

from __future__ import annotations

import random
from collections import defaultdict
from functools import partial
from pathlib import Path
from typing import Any, Callable, NamedTuple

from repro import obs
from repro.errors import ModelError
from repro.models.params import Architecture, Mode
from repro.obs.clock import perf_now
from repro.validate.grid import DEFAULT_VALIDATE_SEED

WORKLOADS = ("exact-local", "exact-nonlocal", "mc-validate", "des-open")
SIZES = ("full", "tiny")

#: Offered loads are drawn from this half-open interval (low, high].
LOAD_RANGE = (0.15, 0.95)

#: Server compute time of the multi-host points (the thesis's realistic
#: 2.85 ms, as in extension-7.1).  Fixed, not drawn: the deflated
#: solver's GMRES cost swings by 30x across compute times.
HOST_COMPUTE_US = 2850.0


class Check(NamedTuple):
    """One correctness check; ``layer`` is ``"validate"`` for the
    repository's own validation checks."""

    name: str
    ok: bool
    detail: str
    layer: str = "bench"


def _draw_loads(rng: random.Random, count: int) -> list[float]:
    """*count* distinct sorted loads in ``LOAD_RANGE``, to 6 digits."""
    low, high = LOAD_RANGE
    loads: set[float] = set()
    while len(loads) < count:
        load = round(high - rng.random() * (high - low), 6)
        if low < load <= high:
            loads.add(load)
    return sorted(loads)


def _monotone(name: str, points: list[tuple[float, float]]) -> Check:
    """Throughput must not fall as the x value (load, hosts) rises."""
    ordered = sorted(points)
    values = [value for _x, value in ordered]
    ok = all(later >= earlier
             for earlier, later in zip(values, values[1:]))
    return Check(name, ok, f"points {ordered!r}")


class Workload:
    """Shared plumbing: timed, span-wrapped calls into the repository."""

    name = ""

    def __init__(self, seed: int, size: str, root: Path):
        if size not in SIZES:
            raise ValueError(f"unknown size {size!r}")
        self.tiny = size == "tiny"
        self.root = root
        self.rng = random.Random(f"perfbench/{self.name}/{seed}")
        self.host_s: dict[str, float] = defaultdict(float)

    def call(self, span: str, fn: Callable, *args, **kwargs) -> Any:
        """Call *fn* under the span ``bench:<span>``, timing it."""
        with obs.span(f"bench:{span}"):
            started = perf_now()
            value = fn(*args, **kwargs)
            self.host_s[span] += perf_now() - started
        return value

    def ops(self) -> list[tuple[str, Callable[[], Any]]]:
        raise NotImplementedError

    def checks(self, outputs: list) -> list[Check]:
        raise NotImplementedError

    def digest_data(self, outputs: list) -> Any:
        """Plain data of every output, for the repetition digest."""
        raise NotImplementedError

    def counts(self, outputs: list) -> dict[str, float]:
        """Per-layer work counts read from the outputs."""
        return {}

    def exact(self, config):
        """The validation harness's exact estimate of one config, as
        ``(reference point, exact estimate)``."""
        from repro.models.solve import reference_point
        from repro.validate.estimators import exact_estimate

        def estimate():
            reference = self.call(
                "models.reference_point", reference_point,
                config.architecture, config.mode, config.conversations,
                config.compute_us)
            return reference, exact_estimate(reference)
        return self.call("validate.exact_estimate", estimate)


class _ExactGrid(Workload):
    """A seeded figure grid (archs I-IV x n = 1..4 x drawn offered
    loads) plus the ``validation-baseline.json`` configs of one
    locality.  Outputs are ``("grid", (arch, n, load), throughput,
    ...)`` and ``("baseline", config, exact estimate)``."""

    mode: Mode
    load_count: int

    def __init__(self, seed: int, size: str, root: Path):
        super().__init__(seed, size, root)
        from repro.validate.baseline import load_baseline
        from repro.validate.grid import GRIDS
        self.conversations = [1, 2] if self.tiny else [1, 2, 3, 4]
        self.loads = _draw_loads(self.rng,
                                 2 if self.tiny else self.load_count)
        self.baseline = load_baseline(self.root
                                      / "validation-baseline.json")
        configs = {config.config_id: config
                   for build in GRIDS.values() for config in build()
                   if config.mode is self.mode}
        self.configs = [configs[key] for key in sorted(configs)]
        if self.tiny:
            self.configs = [c for c in self.configs
                            if c.conversations == 1][:2]

    def grid_point(self, arch: Architecture, n: int, load: float):
        raise NotImplementedError

    def baseline_point(self, config):
        return ("baseline", config, self.exact(config)[1])

    def ops(self):
        ops = [(f"grid {arch.name} n{n} load {load}",
                partial(self.grid_point, arch, n, load))
               for arch in Architecture for n in self.conversations
               for load in self.loads]
        ops += [(f"baseline {config.config_id}",
                 partial(self.baseline_point, config))
                for config in self.configs]
        return ops

    def checks(self, outputs):
        from repro.validate.baseline import check_drift, entry_for
        checks = []
        curves: dict[tuple, list[tuple[float, float]]] = defaultdict(list)
        for kind, key, value, *_rest in outputs:
            if kind == "baseline":
                report = check_drift(self.baseline,
                                     {key.config_id: entry_for(value)})
                checks.append(Check(
                    f"baseline {key.config_id}", report["ok"],
                    f"drifted {report['drifted']} missing "
                    f"{report['missing']}", layer="validate"))
            elif kind == "grid":
                arch, n, load = key
                curves[(arch, n)].append((load, value))
                checks.append(Check(
                    f"positive grid {arch} n{n} load {load}", value > 0,
                    f"throughput {value!r}"))
        for (arch, n), points in sorted(curves.items()):
            checks.append(_monotone(f"load-monotone {arch} n{n}",
                                    points))
        return checks

    def digest_data(self, outputs):
        return [[kind, key.config_id, value.as_dict()]
                if kind == "baseline" else [kind, key, value, *rest]
                for kind, key, value, *rest in outputs]


class ExactLocal(_ExactGrid):
    """Figure-6.18 grid, multi-host points and the local baseline."""

    name = "exact-local"
    mode = Mode.LOCAL
    load_count = 2
    HOST_POINTS = ((Architecture.II, 2), (Architecture.II, 3),
                   (Architecture.III, 2))
    HOST_CONVERSATIONS = 4

    def grid_point(self, arch, n, load):
        from repro.models.solve import solve_offered_load_grid
        point = (arch, Mode.LOCAL, n, load, Architecture.I)
        result = self.call("models.solve_offered_load_grid",
                           solve_offered_load_grid, [point], jobs=1)[0]
        return ("grid", (arch.name, n, load), result.throughput)

    def host_point(self, arch, hosts):
        from repro.models.extension import host_scaling
        point = self.call("models.host_scaling", host_scaling, arch,
                          [hosts], self.HOST_CONVERSATIONS,
                          HOST_COMPUTE_US)[0]
        return ("hosts", (arch.name, hosts), point.throughput)

    def ops(self):
        hosts = () if self.tiny else self.HOST_POINTS
        return super().ops() + [
            (f"hosts {arch.name} h{count}",
             partial(self.host_point, arch, count))
            for arch, count in hosts]

    def checks(self, outputs):
        from repro.models.extension import mp_saturation_bound
        checks = super().checks(outputs)
        scaling: dict[str, list[tuple[int, float]]] = defaultdict(list)
        for kind, key, value, *_rest in outputs:
            if kind == "baseline":
                continue
            label = f"{kind} {' '.join(map(str, key))}"
            if kind == "hosts":
                scaling[key[0]].append((key[1], value))
                checks.append(Check(f"positive {label}", value > 0,
                                    f"throughput {value!r}"))
            try:
                bound = mp_saturation_bound(Architecture[key[0]])
            except ModelError:
                continue        # no coprocessor: the bound does not apply
            checks.append(Check(
                f"mp-bound {label}", value <= bound,
                f"throughput {value!r} vs MP bound {bound!r}"))
        for arch, points in sorted(scaling.items()):
            if len(points) > 1:
                checks.append(_monotone(f"host-monotone {arch}", points))
        return checks


class ExactNonlocal(_ExactGrid):
    """Figure-6.19 grid through the fixed point, plus the non-local
    baseline."""

    name = "exact-nonlocal"
    mode = Mode.NONLOCAL
    load_count = 3

    def grid_point(self, arch, n, load):
        from repro.models.iterate import solve_nonlocal
        from repro.models.solve import server_time_for_offered_load
        server_time = self.call("models.server_time_for_offered_load",
                                server_time_for_offered_load,
                                Architecture.I, Mode.NONLOCAL, load)
        solution = self.call("models.solve_nonlocal", solve_nonlocal,
                             arch, n, server_time)
        return ("grid", (arch.name, n, load), solution.throughput,
                solution.iterations, solution.server_delay)

    def counts(self, outputs):
        return {"models.iterations": float(sum(
            out[3] for out in outputs if out[0] == "grid"))}


class McValidate(Workload):
    """The validation gate's three estimators on quick-grid configs.

    The Monte Carlo and DES seeds are the gate's own,
    ``config.seed_for(DEFAULT_VALIDATE_SEED)`` as ``repro validate
    --quick`` runs them, not drawn from the benchmark seed: the
    exact-in-MC-CI check is a 95 % interval test, so seeds drawn per
    run would fail about one config in twenty by chance alone.
    """

    name = "mc-validate"

    #: The quick-grid configs kept (one local, one non-local).  The
    #: other two are dropped for run length; batches never are.
    CONFIG_IDS = ("III-local-n3-x0", "IV-nonlocal-n2-x0")

    def __init__(self, seed: int, size: str, root: Path):
        super().__init__(seed, size, root)
        from repro.validate.grid import (QUICK_DES, QUICK_MC, DESSettings,
                                         MCSettings, quick_grid)
        by_id = {config.config_id: config for config in quick_grid()}
        if self.tiny:
            self.configs = [by_id["I-local-n2-x0"]]
            self.mc = MCSettings(batches=4, round_trips_per_batch=4.0,
                                 min_batch_ticks=2_000)
            self.des = DESSettings(warmup_us=20_000.0,
                                   measure_us=200_000.0)
        else:
            self.configs = [by_id[key] for key in self.CONFIG_IDS]
            self.mc, self.des = QUICK_MC, QUICK_DES

    def estimate(self, config):
        from repro.validate.estimators import (PointEstimates,
                                               kernel_estimate,
                                               monte_carlo_estimate)
        seed = config.seed_for(DEFAULT_VALIDATE_SEED)
        reference, exact = self.exact(config)
        monte_carlo = self.call("gtpn.monte_carlo_estimate",
                                monte_carlo_estimate, reference, self.mc,
                                seed)
        kernel = self.call("kernel.kernel_estimate", kernel_estimate,
                           config, self.des, seed)
        return PointEstimates(config=config, exact=exact,
                              monte_carlo=monte_carlo, kernel=kernel)

    def ops(self):
        return [(config.config_id, partial(self.estimate, config))
                for config in self.configs]

    def checks(self, outputs):
        from repro.validate.report import point_checks
        return [Check(f"{estimates.config.config_id} {check.name}",
                      check.ok, check.detail, layer="validate")
                for estimates in outputs
                for check in point_checks(estimates)]

    def digest_data(self, outputs):
        return [[e.config.config_id, e.exact.as_dict(),
                 e.monte_carlo.as_dict(), e.kernel.as_dict()]
                for e in outputs]

    def counts(self, outputs):
        return {"gtpn.mc_ticks": float(sum(
            e.monte_carlo.batches * e.monte_carlo.batch_ticks
            + e.monte_carlo.warmup_ticks for e in outputs))}


class DesPoint(NamedTuple):
    """One open-arrival DES run."""

    kind: str                     # "poisson" | "mmpp"
    architecture: Architecture
    mode: Mode
    process: Any                  # repro.traffic.arrivals.ArrivalProcess
    warmup_us: float
    measure_us: float
    seed: int

    @property
    def label(self) -> str:
        return f"{self.kind} {self.architecture.name} seed {self.seed}"


class DesOpen(Workload):
    """Open-arrival kernel DES near and past the exact capacity."""

    name = "des-open"

    SERVERS = 4
    POISSON_FRACTION = 0.9
    MMPP_FRACTION = 1.2
    #: MMPP on/off rates as multiples of its mean; equal dwell times
    #: keep the mean at exactly the target rate.
    MMPP_ON, MMPP_OFF, MMPP_DWELL_US = 1.6, 0.4, 50_000.0

    def __init__(self, seed: int, size: str, root: Path):
        super().__init__(seed, size, root)
        from repro.traffic.arrivals import MMPPArrivals, PoissonArrivals
        from repro.traffic.experiments import closed_loop_capacity
        # the capacity solves are set-up: they size the offered rates
        poisson = PoissonArrivals(
            self.POISSON_FRACTION * closed_loop_capacity(
                Architecture.II, Mode.LOCAL, self.SERVERS))
        mean = self.MMPP_FRACTION * closed_loop_capacity(
            Architecture.III, Mode.NONLOCAL, self.SERVERS)
        mmpp = MMPPArrivals(
            rate_on_per_us=self.MMPP_ON * mean,
            rate_off_per_us=self.MMPP_OFF * mean,
            mean_on_us=self.MMPP_DWELL_US, mean_off_us=self.MMPP_DWELL_US)
        if self.tiny:
            pairs, warmup, poisson_us, mmpp_us = 1, 1e5, 2e6, 1e6
        else:
            pairs, warmup, poisson_us, mmpp_us = 6, 1e6, 24e6, 9e6
        self.points = []
        for _ in range(pairs):
            self.points.append(DesPoint(
                "poisson", Architecture.II, Mode.LOCAL, poisson, warmup,
                poisson_us, self.rng.randrange(2 ** 31)))
            self.points.append(DesPoint(
                "mmpp", Architecture.III, Mode.NONLOCAL, mmpp, warmup,
                mmpp_us, self.rng.randrange(2 ** 31)))

    def simulate(self, point: DesPoint):
        from repro.traffic.engine import run_open_experiment
        return point, self.call(
            "traffic.run_open_experiment", run_open_experiment,
            point.architecture, point.mode, point.process,
            servers=self.SERVERS, warmup_us=point.warmup_us,
            measure_us=point.measure_us, seed=point.seed)

    def ops(self):
        return [(point.label, partial(self.simulate, point))
                for point in self.points]

    @staticmethod
    def totals(result) -> dict[str, int]:
        """Warm-up + measured counts.  Admission is counted by arrival
        time and completion by completion time, so only the sum over
        both windows balances."""
        meter = result.meter
        return {key: getattr(meter.warmup, key)
                + getattr(meter.measured, key)
                for key in ("offered", "admitted", "dropped", "rejected",
                            "completed", "failed")}

    def checks(self, outputs):
        from repro.validate.metamorphic import OPEN_ARRIVAL_THROUGHPUT_RTOL
        checks = []
        for point, result in outputs:
            t = self.totals(result)
            checks.append(Check(
                f"conservation {point.label}",
                t["offered"] == t["admitted"] + t["dropped"]
                + t["rejected"], repr(t)))
            checks.append(Check(
                f"resolved {point.label}",
                t["admitted"] == t["completed"] + t["failed"]
                and t["completed"] > 0, repr(t)))
            if point.kind == "poisson":
                rate = point.process.mean_rate_per_us
                error = abs(result.throughput_per_us - rate) / rate
                checks.append(Check(
                    f"carried-rate {point.label}",
                    error <= OPEN_ARRIVAL_THROUGHPUT_RTOL,
                    f"throughput {result.throughput_per_us!r} vs offered "
                    f"{rate!r}: rel err {error:.4f}"))
        return checks

    def digest_data(self, outputs):
        return [[point.label, self.totals(result),
                 result.events_processed, repr(result.meter.signature())]
                for point, result in outputs]

    def counts(self, outputs):
        totals = [self.totals(result) for _point, result in outputs]
        offered = sum(t["offered"] for t in totals)
        completed = sum(t["completed"] for t in totals)
        return {
            "kernel.events": float(sum(result.events_processed
                                       for _point, result in outputs)),
            "traffic.offered": float(offered),
            "traffic.completed": float(completed),
            "traffic.dropped": float(sum(t["dropped"] for t in totals)),
            "traffic.completed_ratio":
                completed / offered if offered else 0.0,
        }


REGISTRY = {cls.name: cls for cls in (ExactLocal, ExactNonlocal,
                                      McValidate, DesOpen)}
