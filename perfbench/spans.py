"""In-memory spans around calls into the package's public functions.

Inside ``patched(tracer, package)`` every public function of the
package's modules, and each public method of ``TransformerModel``, is
replaced by a wrapper that records a span (name, start, end, parent,
attributes) in the tracer. Modules import each other's functions by name, so
each wrapper is installed under every name that refers to the original
function in the package's modules, not only in the defining module.
Leaving the context restores the originals.

``layer_metrics`` turns the recorded spans into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import time

import numpy as np

LAYERS = ("eventlog", "synthlog", "transformer", "attnstats", "explain",
          "metrics", "prestudy", "cli")
EXPLAINERS = ("explain.backward_explain", "explain.attention_exploration_explain")
MODEL_METHODS = ("forward", "loss_and_grads", "predict_label", "target_class",
                 "save", "load")

NAME, START, END, PARENT, ATTRS = range(5)


class Tracer:
    """Span recorder; ``spans`` holds ``[name, start, end, parent, attrs]``
    lists, a parent always before its children."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def reset(self):
        self.spans, self._stack = [], []

    def call(self, name, attrs_of, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, attrs_of(args, kwargs) if attrs_of else None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()


def _forward_attrs(args, kwargs):
    ids = np.asarray(args[1].activities if hasattr(args[1], "activities") else args[1])
    masked = kwargs.get("masked_positions", args[2] if len(args) > 2 else None)
    key = (ids.tobytes(), tuple(sorted(masked)) if masked else ())
    return {"tokens": int(ids.size), "masked": bool(masked), "key": key}


def _prefix_count_attrs(args, kwargs):
    return {"prefixes": len(args[1])}


def _exp2_attrs(args, kwargs):
    return {"rows": sum(len(getattr(p, "activities", p)) for p in args[1])}


ATTRS_OF = {
    "transformer.forward": _forward_attrs,
    "transformer.loss_and_grads": lambda args, kwargs: {"rows": int(args[1].shape[0])},
    "explain.backward_explain": _prefix_count_attrs,
    "explain.attention_exploration_explain": _prefix_count_attrs,
    "prestudy.experiment2": _exp2_attrs,
}


def _span_name(layer, name):
    if layer == "cli" and name.startswith("cmd_"):
        return "cli." + name[len("cmd_"):]
    return f"{layer}.{name}"


def _wrap(tracer, span, fn):
    attrs_of = ATTRS_OF.get(span)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(span, attrs_of, fn, args, kwargs)

    return wrapper


@contextlib.contextmanager
def patched(tracer, package):
    """Install span wrappers on the package and its layer modules."""
    replacements = {}
    for layer in LAYERS:
        module = getattr(package, layer)
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_") and not inspect.isgeneratorfunction(obj)):
                replacements[id(obj)] = (obj, _wrap(tracer, _span_name(layer, name), obj))
    undo = []
    for module in (package, *(getattr(package, layer) for layer in LAYERS)):
        for name, obj in list(vars(module).items()):
            if id(obj) in replacements and replacements[id(obj)][0] is obj:
                undo.append((module, name, obj))
                setattr(module, name, replacements[id(obj)][1])
    model_cls = package.transformer.TransformerModel
    for name in MODEL_METHODS:
        raw = model_cls.__dict__[name]
        undo.append((model_cls, name, raw))
        if isinstance(raw, classmethod):
            setattr(model_cls, name, classmethod(_wrap(tracer, f"transformer.{name}", raw.__func__)))
        else:
            setattr(model_cls, name, _wrap(tracer, f"transformer.{name}", raw))
    try:
        yield tracer
    finally:
        for owner, name, obj in reversed(undo):
            setattr(owner, name, obj)


# ------------------------------------------------------------ aggregation


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and times from one traced set-up plus rep."""
    n = len(spans)
    child_time = [0.0] * n
    root = [0] * n
    under_explainer = [False] * n
    under_metrics = [False] * n
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            root[i] = root[parent]
            under_explainer[i] = under_explainer[parent] or spans[parent][NAME] in EXPLAINERS
            under_metrics[i] = under_metrics[parent] or spans[parent][NAME].startswith("metrics.")
        else:
            root[i] = i

    def durations(name):
        return [s[END] - s[START] for s in spans if s[NAME] == name]

    def self_time(pred):
        return sum(s[END] - s[START] - child_time[i] for i, s in enumerate(spans) if pred(s[NAME]))

    def entries(layer):
        """Spans entering a layer from outside it."""
        prefix = layer + "."
        return [s for s in spans if s[NAME].startswith(prefix)
                and (s[PARENT] < 0 or not spans[s[PARENT]][NAME].startswith(prefix))]

    out: dict[str, float] = {}
    lg = durations("transformer.loss_and_grads")
    out["transformer.loss_and_grads.calls"] = len(lg)
    out["transformer.loss_and_grads.rows"] = sum(
        s[ATTRS]["rows"] for s in spans if s[NAME] == "transformer.loss_and_grads")
    out["transformer.loss_and_grads.s"] = sum(lg)
    out["transformer.loss_and_grads.us_p50"] = _percentile(lg, 50) * 1e6
    out["transformer.loss_and_grads.us_p99"] = _percentile(lg, 99) * 1e6
    out["transformer.train.self_s"] = self_time(lambda name: name == "transformer.train")

    fwd_idx = [i for i, s in enumerate(spans) if s[NAME] == "transformer.forward"]
    fwd = [spans[i][END] - spans[i][START] for i in fwd_idx]
    out["transformer.forward.calls"] = len(fwd_idx)
    out["transformer.forward.tokens"] = sum(spans[i][ATTRS]["tokens"] for i in fwd_idx)
    out["transformer.forward.s"] = sum(fwd)
    out["transformer.forward.us_p50"] = _percentile(fwd, 50) * 1e6
    out["transformer.forward.us_p99"] = _percentile(fwd, 99) * 1e6
    out["transformer.forward.masked_calls"] = sum(spans[i][ATTRS]["masked"] for i in fwd_idx)
    seen, repeats = set(), 0
    for i in fwd_idx:
        key = (root[i], spans[i][ATTRS]["key"])
        repeats += key in seen
        seen.add(key)
    out["transformer.forward.repeat_share"] = repeats / len(fwd_idx) if fwd_idx else 0.0
    out["transformer.save.s"] = sum(durations("transformer.save"))
    out["transformer.load.s"] = sum(durations("transformer.load"))

    smp = durations("explain.score_matrices_for_prefix")
    out["explain.score_matrices_for_prefix.calls"] = len(smp)
    out["explain.score_matrices_for_prefix.s"] = sum(smp)
    out["explain.score_matrices_for_prefix.ms_p50"] = _percentile(smp, 50) * 1e3
    out["explain.score_matrices_for_prefix.ms_p90"] = _percentile(smp, 90) * 1e3
    for name in ("relevant_activities", "compute_relevance_score"):
        d = durations(f"explain.{name}")
        out[f"explain.{name}.calls"] = len(d)
        out[f"explain.{name}.s"] = sum(d)
    out["explain.self_s"] = self_time(lambda name: name.startswith("explain."))
    explained = sum(s[ATTRS]["prefixes"] for i, s in enumerate(spans)
                    if s[NAME] in EXPLAINERS and not under_explainer[i])
    explainer_forwards = sum(under_explainer[i] for i in fwd_idx)
    out["explain.forwards_per_prefix"] = explainer_forwards / explained if explained else 0.0

    for name in ("correctness", "completeness", "continuity", "contrastivity"):
        out[f"metrics.{name}.s"] = sum(durations(f"metrics.{name}"))
    out["metrics.explainer_calls"] = sum(
        1 for i, s in enumerate(spans)
        if s[NAME] in EXPLAINERS and under_metrics[i] and not under_explainer[i])
    out["metrics.forwards"] = sum(under_metrics[i] for i in fwd_idx)

    exp2 = [s for s in spans if s[NAME] == "prestudy.experiment2"]
    out["prestudy.experiment2.s"] = sum(s[END] - s[START] for s in exp2)
    out["prestudy.experiment2.rows"] = sum(s[ATTRS]["rows"] for s in exp2)

    stats = entries("attnstats")
    out["attnstats.calls"] = len(stats)
    out["attnstats.s"] = sum(s[END] - s[START] for s in stats)

    parse = durations("eventlog.parse_csv")
    out["eventlog.parse_csv.calls"] = len(parse)
    out["eventlog.parse_csv.s"] = sum(parse)
    out["eventlog.split.s"] = sum(durations("eventlog.split"))
    out["eventlog.extract_prefixes.s"] = sum(durations("eventlog.extract_prefixes"))
    for name in ("train", "explain", "evaluate", "prestudy"):
        out[f"cli.{name}.s"] = sum(durations(f"cli.{name}"))
    out["cli.self_s"] = self_time(lambda name: name.startswith("cli."))
    out["synthlog.synth_log.s"] = sum(durations("synthlog.synth_log"))
    return out


# Metrics that are counts: equal on every traced rep of one seed.
COUNT_METRICS = (
    "transformer.loss_and_grads.calls", "transformer.loss_and_grads.rows",
    "transformer.forward.calls", "transformer.forward.tokens",
    "transformer.forward.masked_calls", "transformer.forward.repeat_share",
    "explain.score_matrices_for_prefix.calls", "explain.relevant_activities.calls",
    "explain.compute_relevance_score.calls", "explain.forwards_per_prefix",
    "metrics.explainer_calls", "metrics.forwards", "prestudy.experiment2.rows",
    "attnstats.calls", "eventlog.parse_csv.calls",
)


def median_metrics(per_rep: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(rep[key] for rep in per_rep) for key in per_rep[0]}
