"""Replay the chapter 3 profiling study.

Runs the synthetic instrumented kernels of Charlotte, Jasmin, 925 and
Unix through the thesis's profiling technique and prints the
round-trip breakdowns (Tables 3.1-3.5), then derives the observations
that motivate the message coprocessor: copying is cheap for small
messages, scheduling and control-block manipulation dominate, and
server computation is comparable to communication.

Run:  python examples/profiling_study.py
"""

from repro.api import run_experiment
from repro.profiling import (ALL_SYSTEMS, CHARLOTTE_NONLOCAL,
                             UNIX_SERVICE_TIMES_MS, copy_percent,
                             offered_load_range,
                             scheduling_and_control_percent)


def tables() -> None:
    for experiment_id in ("table-3.1", "table-3.2", "table-3.3",
                          "table-3.4", "table-3.5"):
        print(run_experiment(experiment_id).render())
        print()


def observations() -> None:
    print("observations (sections 3.6-3.7):")
    for spec in ALL_SYSTEMS:
        print(f"  {spec.name:<18} copy {copy_percent(spec):4.1f}%   "
              f"scheduling+control "
              f"{scheduling_and_control_percent(spec):4.1f}%   "
              f"fixed overhead {spec.fixed_overhead_us / 1000:.3g} ms")
    print(f"\n  Charlotte non-local copy/fixed crossover: "
          f"{CHARLOTTE_NONLOCAL.crossover_bytes:.0f} bytes "
          "(thesis: ~6000)")
    low, high = offered_load_range(4.57)
    print(f"  typical Unix services ("
          f"{min(UNIX_SERVICE_TIMES_MS.values()):.3g}-"
          f"{max(UNIX_SERVICE_TIMES_MS.values()):.3g} ms) span "
          f"offered loads {high:.2f} down to {low:.2f}")
    print("  -> communication is NOT only a non-local problem; "
          "support must cover local IPC too")


if __name__ == "__main__":
    tables()
    observations()
