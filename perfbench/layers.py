"""Which unidesign callables the traced run wraps, and the per-layer metrics.

Layers are the package's modules: ``cli``, ``lattice``, ``optimize``,
``discrepancy``, ``surrogate``, ``sampling`` and ``benchfns``.  A span or
counter belongs to the layer named by the first part of its name.  The
``cli`` layer is the self time of each job span: argument parsing, CSV and
JSON I/O, manifests and gradient printing.
"""

from __future__ import annotations

from collections import defaultdict

from .tracer import Target, Tracer, self_times

LAYERS = ("cli", "lattice", "optimize", "discrepancy", "surrogate", "sampling", "benchfns")
CACHE_OPS = (
    "preview_column_swap",
    "apply_column_swap",
    "update",
    "coordinate_gradient",
    "zero_gradient_value",
    "preview_update",
)
REFINERS = ("cgd", "czg", "cdfss")
TERMINATIONS = ("converged", "max_epochs", "no_improving_move", "other")
JOB_SPAN = "cli.job"


def _record_ta(span, args, kwargs, result) -> None:
    config = args[0] if args else kwargs.get("config")
    schedule = args[1] if len(args) > 1 else kwargs.get("schedule")
    per_stage = getattr(config, "iterations_per_stage", None)
    stages = len(schedule) if schedule is not None else getattr(config, "stages", None)
    if per_stage is not None and stages is not None:
        # the data-driven schedule has stages + 1 thresholds, the last one zero
        span.attrs["iterations"] = per_stage * (stages if schedule is not None else stages + 1)


def _record_refiner(span, args, kwargs, result) -> None:
    termination = span.attrs["termination"] = getattr(result, "termination", "other")
    records = getattr(getattr(result, "trace", None), "records", None)
    if records:
        # CDFSS records only improving epochs; the final scan that found none ran too
        span.attrs["epochs"] = records[-1][0] + (termination == "no_improving_move")
        span.attrs["best_epoch"] = min(records, key=lambda r: r[1])[0]


def _record_minimize(span, args, kwargs, result) -> None:
    span.attrs["nfev"] = int(getattr(result, "nfev", 0))


def _span(name, *lookups, record=None) -> Target:
    return Target(name, "span", tuple(lookups), record)


TARGETS = (
    _span("lattice.ta_optimize", "unidesign.cli:ta_optimize", "unidesign.optimize:ta_optimize",
          record=_record_ta),
    _span("lattice.threshold_sequence", "unidesign.lattice:threshold_sequence"),
    _span("lattice.random_utype", "unidesign.lattice:random_utype", "unidesign.cli:random_utype"),
    _span("optimize.refine_pipeline", "unidesign.cli:refine_pipeline"),
    *(
        _span(f"optimize.{r}", f"unidesign.cli:_REFINERS[{r}]", f"unidesign.optimize:_REFINERS[{r}]",
              record=_record_refiner)
        for r in REFINERS
    ),
    _span("discrepancy.cd2", "unidesign.cli:cd2", "unidesign.optimize:cd2"),
    _span("discrepancy.cd2_gradient", "unidesign.cli:cd2_gradient", "unidesign.optimize:cd2_gradient"),
    _span("surrogate.evaluate_mse", "unidesign.cli:evaluate_mse"),
    _span("surrogate.kriging_fit", "unidesign.surrogate:kriging_fit"),
    _span("surrogate.kriging_predict", "unidesign.surrogate:kriging_predict"),
    _span("surrogate.minimize", "unidesign.surrogate:minimize", record=_record_minimize),
    *(_span(f"sampling.{f}", f"unidesign.cli:{f}") for f in ("lhs", "mlhs", "lhd")),
    _span("benchfns.get_test_function", "unidesign.cli:get_test_function"),
    _span("benchfns.scale_design", "unidesign.cli:scale_design", "unidesign.surrogate:scale_design"),
    _span("benchfns.evaluate", "unidesign.benchfns:TestFunction.__call__"),
    *(
        Target(f"discrepancy.cache.{op}", "counter",
               (f"unidesign.discrepancy:DiscrepancyCache.{'__init__' if op == 'init' else op}",))
        for op in ("init", *CACHE_OPS)
    ),
)

# Metrics the traced run prints, with units.  run.py fills the ``trace.*``
# and ``ref.*`` entries; ``layer_metrics`` computes the rest.
PER_LAYER_UNITS: dict[str, str] = {
    **{f"discrepancy.cache.{op}.{k}": u for op in CACHE_OPS
       for k, u in (("calls", "count"), ("us_per_call", "us"))},
    "discrepancy.cache.init.calls": "count",
    "discrepancy.cache.init.self_s": "s",
    "discrepancy.cd2.calls": "count",
    "discrepancy.cd2.self_s": "s",
    "discrepancy.cd2_gradient.calls": "count",
    "discrepancy.cd2_gradient.self_s": "s",
    "lattice.ta.iterations": "count",
    "lattice.ta.us_per_iteration": "us",
    "lattice.ta.accept_ratio": "ratio",
    "lattice.ta_optimize.self_s": "s",
    "lattice.threshold_sequence.self_s": "s",
    **{f"optimize.{r}.{k}": u for r in REFINERS
       for k, u in (("self_s", "s"), ("epochs", "count"), ("epochs_per_s", "1/s"),
                    ("useful_epoch_ratio", "ratio"))},
    **{f"optimize.termination.{t}": "count" for t in TERMINATIONS},
    "surrogate.kriging_fit.calls": "count",
    "surrogate.kriging_fit.self_s": "s",
    "surrogate.kriging_predict.self_s": "s",
    "surrogate.nll_evals": "count",
    "surrogate.us_per_nll_eval": "us",
    "sampling.self_s": "s",
    "benchfns.self_s": "s",
    "cli.self_s": "s",
    **{f"layer.{name}.share": "ratio" for name in LAYERS},
    "trace.overhead_frac": "ratio",
    "trace.missing_targets": "count",
    "ref.qmc_cd_500x10.ms": "ms",
    "ref.qmc_cd_2000x5.ms": "ms",
    "ref.random_cd_18x7.cd2": "1",
    "ref.random_cd_18x7.s": "s",
    "ref.random_cd_27x13.cd2": "1",
    "ref.random_cd_27x13.s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the spans and counters of the traced jobs."""
    spans = tracer.spans
    own = self_times(spans, tracer.counters)
    named: dict[str, list] = defaultdict(list)
    for span in spans:
        named[span.name].append(span)

    def self_s(name: str) -> float:
        return sum((own[s.id] for s in named[name]), 0.0)

    calls: dict[str, int] = defaultdict(int)
    seconds: dict[str, float] = defaultdict(float)
    layer_s: dict[str, float] = defaultdict(float)
    ta_ids = {s.id for s in named["lattice.ta_optimize"]}
    ta_previews = ta_accepts = 0
    for (parent, name), c in tracer.counters.items():
        calls[name] += c.calls
        seconds[name] += c.seconds
        layer_s[name.split(".", 1)[0]] += c.outer_seconds
        if parent in ta_ids and name == "discrepancy.cache.preview_column_swap":
            ta_previews += c.calls
        if parent in ta_ids and name == "discrepancy.cache.apply_column_swap":
            ta_accepts += c.calls
    for span in spans:
        layer_s[span.name.split(".", 1)[0]] += own[span.id]

    out: dict[str, float] = {}
    for op in CACHE_OPS:
        key = f"discrepancy.cache.{op}"
        out[f"{key}.calls"] = calls[key]
        out[f"{key}.us_per_call"] = 1e6 * _ratio(seconds[key], calls[key])
    out["discrepancy.cache.init.calls"] = calls["discrepancy.cache.init"]
    out["discrepancy.cache.init.self_s"] = seconds["discrepancy.cache.init"]
    for name in ("discrepancy.cd2", "discrepancy.cd2_gradient"):
        out[f"{name}.calls"] = len(named[name])
        out[f"{name}.self_s"] = self_s(name)

    ta = named["lattice.ta_optimize"]
    iterations = sum(s.attrs.get("iterations", 0) for s in ta) or ta_previews
    out["lattice.ta.iterations"] = iterations
    out["lattice.ta.us_per_iteration"] = 1e6 * _ratio(sum(s.duration for s in ta), iterations)
    out["lattice.ta.accept_ratio"] = _ratio(ta_accepts, iterations)
    out["lattice.ta_optimize.self_s"] = self_s("lattice.ta_optimize")
    out["lattice.threshold_sequence.self_s"] = self_s("lattice.threshold_sequence")

    terminations: dict[str, int] = defaultdict(int)
    for r in REFINERS:
        runs = named[f"optimize.{r}"]
        epochs = sum(s.attrs.get("epochs", 0) for s in runs)
        out[f"optimize.{r}.self_s"] = self_s(f"optimize.{r}")
        out[f"optimize.{r}.epochs"] = epochs
        out[f"optimize.{r}.epochs_per_s"] = _ratio(epochs, sum(s.duration for s in runs))
        out[f"optimize.{r}.useful_epoch_ratio"] = _ratio(
            sum(s.attrs.get("best_epoch", 0) for s in runs), epochs
        )
        for s in runs:
            reason = s.attrs.get("termination")
            terminations[reason if reason in TERMINATIONS else "other"] += 1
    for t in TERMINATIONS:
        out[f"optimize.termination.{t}"] = terminations[t]

    out["surrogate.kriging_fit.calls"] = len(named["surrogate.kriging_fit"])
    out["surrogate.kriging_fit.self_s"] = self_s("surrogate.kriging_fit")
    out["surrogate.kriging_predict.self_s"] = self_s("surrogate.kriging_predict")
    minimize = named["surrogate.minimize"]
    nfev = sum(s.attrs.get("nfev", 0) for s in minimize)
    out["surrogate.nll_evals"] = nfev
    out["surrogate.us_per_nll_eval"] = 1e6 * _ratio(sum(s.duration for s in minimize), nfev)

    for layer in ("sampling", "benchfns", "cli"):
        out[f"{layer}.self_s"] = layer_s[layer]
    job_s = sum(s.duration for s in named[JOB_SPAN])
    for layer in LAYERS:
        out[f"layer.{layer}.share"] = _ratio(layer_s[layer], job_s)
    return out
