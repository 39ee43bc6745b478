"""Every table and figure of the evaluation, as runnable experiments.

``repro.api.run_experiment("table-6.24").artifact`` recomputes the
artifact from the library's own machinery and returns a renderable
:class:`Table`/:class:`Figure`.
"""

from repro.experiments.registry import (REGISTRY, Experiment,
                                        all_experiment_ids,
                                        get_experiment,
                                        register_experiment,
                                        temporary_experiment,
                                        unregister_experiment)
from repro.experiments.reporting import Figure, Series, Table

__all__ = [
    "Experiment",
    "Figure",
    "REGISTRY",
    "Series",
    "Table",
    "all_experiment_ids",
    "get_experiment",
    "register_experiment",
    "temporary_experiment",
    "unregister_experiment",
]
