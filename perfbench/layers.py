"""Per-layer split of one traced pass, read from a ``repro.obs`` recorder.

A span's *self time* is its duration minus the durations of its direct
children (spans of one thread never overlap).  Each span belongs to the
layer its name starts with: ``gtpn.*``, ``kernel.*``, ``validate.*``,
``models.*`` and ``traffic.*`` to that package, ``pool.map`` to
``perf``, ``service.*`` to ``api``; the benchmark's own
``bench:<layer>.<function>`` spans to ``<layer>``.  A ``pool.task``
span runs the mapped function, so its self time goes to the layer of
the call that started the sweep.  Everything else (the benchmark's own
``bench:pass`` and ``bench:runner`` spans and their glue code) is
*unattributed*.

Pure functions of the recorder, so they run without the repository
doing any work.
"""

from __future__ import annotations

LAYERS = ("api", "perf", "models", "gtpn", "validate", "kernel",
          "traffic")

#: Bench-side span names whose total duration is a per-layer metric.
MC_SPAN = "bench:gtpn.monte_carlo_estimate"
EXACT_SPAN = "bench:validate.exact_estimate"
PASS_SPAN = "bench:pass"


def span_layer(name: str) -> str | None:
    """The layer of a span name; ``None`` for spans that inherit it."""
    if name == "pool.task":
        return None
    if name.startswith("bench:"):
        name = name[len("bench:"):]
    head = name.split(".", 1)[0]
    if head == "pool":
        return "perf"
    if head == "service":
        return "api"
    return head if head in LAYERS else "other"


def _layers(spans) -> dict[int, str]:
    """Resolve every span's layer, walking inheriting spans up to the
    nearest ancestor outside ``perf``."""
    by_id = {span.span_id: span for span in spans}
    resolved: dict[int, str] = {}
    for span in spans:
        layer = span_layer(span.name)
        ancestor = by_id.get(span.parent_id)
        while layer is None:
            if ancestor is None:
                layer = "other"
                break
            candidate = span_layer(ancestor.name)
            if candidate not in (None, "perf"):
                layer = candidate
            ancestor = by_id.get(ancestor.parent_id)
        resolved[span.span_id] = layer
    return resolved


def self_times(spans) -> dict[str, float]:
    """Self time summed per layer (``"other"`` included)."""
    child_total: dict[int, float] = {}
    for span in spans:
        if span.parent_id is not None:
            child_total[span.parent_id] = \
                child_total.get(span.parent_id, 0.0) + span.duration_s
    layers = _layers(spans)
    totals = {layer: 0.0 for layer in LAYERS + ("other",)}
    for span in spans:
        totals[layers[span.span_id]] += \
            span.duration_s - child_total.get(span.span_id, 0.0)
    return totals


def outermost(spans, name: str) -> list:
    """Spans called *name* that no other span called *name* encloses."""
    by_id = {span.span_id: span for span in spans}
    found = []
    for span in spans:
        if span.name != name:
            continue
        parent = by_id.get(span.parent_id)
        while parent is not None and parent.name != name:
            parent = by_id.get(parent.parent_id)
        if parent is None:
            found.append(span)
    return found


def _total(spans, name: str) -> tuple[int, float]:
    chosen = outermost(spans, name)
    return len(chosen), sum(span.duration_s for span in chosen)


def layer_metrics(recorder) -> dict[str, float]:
    """The per-layer metrics of one traced pass (see README.md)."""
    spans = recorder.spans
    counters = recorder.counters
    selfs = self_times(spans)
    wall = _total(spans, PASS_SPAN)[1]
    build_calls, build_s = _total(spans, "gtpn.build")
    retime_calls, retime_s = _total(spans, "gtpn.retime")
    solves = outermost(spans, "gtpn.solve")
    hits = counters.get("cache.hit", 0.0)
    misses = counters.get("cache.miss", 0.0)
    return {
        "api.self_s": selfs["api"],
        "perf.pool_self_s": selfs["perf"],
        "perf.cache_hit_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
        "models.self_s": selfs["models"],
        "gtpn.build_s": build_s,
        "gtpn.build_calls": float(build_calls),
        "gtpn.retime_s": retime_s,
        "gtpn.retime_calls": float(retime_calls),
        "gtpn.solve_s": sum(span.duration_s for span in solves),
        "gtpn.solve_calls": float(len(solves)),
        "gtpn.solve_states": float(sum(span.attrs.get("states", 0)
                                       for span in solves)),
        "gtpn.solve_max_s": max((span.duration_s for span in solves),
                                default=0.0),
        "gtpn.solve_fallbacks": counters.get("markov.solve_fallback",
                                             0.0),
        "gtpn.mc_s": _total(spans, MC_SPAN)[1],
        "validate.exact_s": _total(spans, EXACT_SPAN)[1],
        "kernel.des_s": _total(spans, "kernel.run")[1],
        "unattributed_s": wall - sum(selfs[layer] for layer in LAYERS),
    }
