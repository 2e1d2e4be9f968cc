"""Every numeric option the library takes is checked in one way: a value
either builds or runs, or raises UsageError in one message form before
anything is drawn or trained."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attnexplain import explain, prestudy
from attnexplain.errors import UsageError
from attnexplain.eventlog import build_log, extract_prefixes, split
from attnexplain.explain import Explainer, ExplanationGraph, Thresholds, relevant_activities
from attnexplain.metrics import continuity, contrastivity, sample_prefixes
from attnexplain.prestudy import experiment1
from attnexplain.synthlog import MAX_EVENTS, MAX_ITER, loop, sequence, synth_log
from attnexplain.transformer import ModelConfig, TransformerModel
from conftest import TINY_CONFIG

LOG = build_log([("c1", ["A", "B", "C"]), ("c2", ["A", "C"]), ("c3", ["B", "C"])])
MODEL = TransformerModel(TINY_CONFIG, LOG.activity_labels)
PREFIXES = extract_prefixes(LOG)


def empty_graph(model, prefixes):
    return ExplanationGraph.make(set(), set())


# "function.option": (interval, integer option, a call with the value)
OPTIONS = {
    **{f"ModelConfig.{name}": (interval, True, lambda v, n=name: ModelConfig(**{n: v, "h": 1}))
       for name, interval in (("d_k", "[1, 1024]"), ("max_len", "[1, 4096]"),
                              ("ff_dim", "[1, 4096]"), ("epochs", "[1, inf)"),
                              ("batch_size", "[1, inf)"), ("seed", "[0, inf)"))},
    "ModelConfig.h": ("[1, inf)", True, lambda v: ModelConfig(d_k=36, h=v)),
    "ModelConfig.learning_rate": ("(0, inf)", False, lambda v: ModelConfig(learning_rate=v)),
    "ModelConfig.pad_dropout": ("[0, 1)", False, lambda v: ModelConfig(pad_dropout=v)),
    **{f"Thresholds.{name}": ("[0, inf)" if name == "sim_eps" else "[0, 1]", False,
                              lambda v, n=name: Thresholds(**{n: v}))
       for name in ("delta_sim", "delta_attr", "delta_pred", "delta_edge", "sim_eps")},
    **{f"Explainer.{name}": (interval, True, lambda v, n=name: Explainer(
        "attention-exploration", **{n: v})(MODEL, [(0, 1, 2)]))
       for name, interval in (("n_mods", "[0, 4096]"), ("subset_cap", "[1, 4096]"),
                              ("seed", "[0, inf)"))},
    **{f"relevant_activities.{name}": (interval, True, lambda v, n=name: relevant_activities(
        MODEL, (0, 1, 2), Thresholds(), **{n: v}))
       for name, interval in (("n_mods", "[0, 4096]"), ("seed", "[0, inf)"))},
    "sample_prefixes.sample_frac": ("(0, 1]", False, lambda v: sample_prefixes(LOG, v, 0)),
    "sample_prefixes.seed": ("[0, inf)", True, lambda v: sample_prefixes(LOG, 0.5, v)),
    # traces of up to 1000 events, so that at most 2000 fit
    "synth_log.n_traces": (f"[1, {MAX_EVENTS // 1000}]", True, lambda v: synth_log(
        loop([f"A{i}" for i in range(10)], max_iter=100, p_repeat=0.0), v)),
    "SynthSpec.max_iter": (f"[1, {MAX_ITER}]", True, lambda v: loop(["A"], max_iter=v)),
    "SynthSpec.p_repeat": ("[0, 1)", False, lambda v: loop(["A"], p_repeat=v)),
    "synth_log.seed": ("[0, inf)", True, lambda v: synth_log(sequence("A", "B"), 2, seed=v)),
    "experiment1.repeats": ("[1, inf)", True, lambda v: experiment1(
        LOG, repeats=v, config=replace(TINY_CONFIG, epochs=1))),
    "split.train_frac": ("(0, 1)", False, lambda v: split(LOG, v)),
    "split.seed": ("[0, inf)", True, lambda v: split(LOG, seed=v)),
    "continuity.seed": ("[0, inf)", True,
                        lambda v: continuity(MODEL, empty_graph, PREFIXES, seed=v)),
    "contrastivity.seed": ("[0, inf)", True,
                           lambda v: contrastivity(MODEL, empty_graph, PREFIXES, seed=v)),
}


def bounds(interval):
    return tuple(float(bound) for bound in interval[1:-1].split(", "))


def in_interval(value, interval, integer) -> bool:
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        return False
    low, high = bounds(interval)
    above = value > low or (value == low and interval[0] == "[")
    below = value < high or (value == high and interval[-1] == "]")
    return above and below


def values(interval, integer):
    """Non-numbers, NaN, infinities, any float, and the values at and one
    step either side of each finite bound. Integers run from one below the
    lower bound to one above the upper, or to two above the lower bound
    when there is no upper one, so that no count asks for much work."""
    low, high = bounds(interval)
    ends = [b for b in (low, high) if math.isfinite(b)]
    near = [float(x) for b in ends
            for x in (b, np.nextafter(b, -math.inf), np.nextafter(b, math.inf))]
    near += [int(b) + step for b in ends for step in (-1, 0, 1)]
    top = int(high) if math.isfinite(high) else int(low) + 1
    return st.one_of(st.none(), st.booleans(), st.text(max_size=2),
                     st.sampled_from([math.nan, math.inf, -math.inf, *near]), st.floats(),
                     st.integers(int(low) - 1, top + 1))


def fail(name):
    def failing(*args, **kwargs):
        pytest.fail(f"{name} ran")
    return failing


@given(st.sampled_from(sorted(OPTIONS)).flatmap(
    lambda key: st.tuples(st.just(key), values(*OPTIONS[key][:2]))))
@example(("Explainer.n_mods", 2.5))
@example(("Explainer.seed", -1))
@example(("sample_prefixes.sample_frac", "x"))
@example(("ModelConfig.learning_rate", "x"))
@example(("synth_log.n_traces", 2.5))
@example(("experiment1.repeats", 2.5))
@example(("split.seed", -1))
@example(("ModelConfig.seed", "x"))
@example(("SynthSpec.max_iter", 2.5))
@example(("SynthSpec.max_iter", True))
@example(("SynthSpec.p_repeat", "x"))
@example(("synth_log.n_traces", 10 ** 12))
@settings(max_examples=300, deadline=None)
def test_each_option_runs_or_raises_one_usage_error_before_anything_is_drawn(case):
    key, value = case
    interval, integer, call = OPTIONS[key]
    name = key.split(".")[1]
    if in_interval(value, interval, integer) or (name == "delta_edge" and value is None):
        call(value)
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "default_rng", fail("default_rng"))
        mp.setattr(explain, "random_maskings", fail("random_maskings"))
        mp.setattr(prestudy, "train", fail("train"))
        with pytest.raises(UsageError) as exc:
            call(value)
    kind = "an integer" if integer else "a number"
    assert str(exc.value) == f"{name} must be {kind} in {interval}, got {value!r}"
