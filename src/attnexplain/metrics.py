"""Rule conversion and the five quantitative explanation metrics:
correctness, completeness, continuity, contrastivity, compactness.

Metric operationalizations: correctness is the per-prefix Pearson
correlation between single-position masking impact (TVD) and the
explainer's binary edge indicator; completeness is micro-averaged F1 of
rule right-hand sides against the model's likely-next sets; continuity
and contrastivity are Jaccard-based on the firing rules' right-hand
sides; compactness counts rules and averages right-hand-side lengths.
Undefined per-prefix values (no activity, constant vectors, no dissimilar
pairs) are excluded; a metric with no defined values reports None.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .attnstats import tvd
from .errors import check_number
from .eventlog import (EventLog, Prefix, _last_activity, _prefix_ids, extract_prefixes,
                       length_batches, unique_prefixes)
from .explain import ExplanationGraph, Thresholds, likely_next
from .transformer import score_rows


@dataclass(frozen=True)
class Rule:
    lhs: str
    rhs: frozenset[str]


@dataclass(frozen=True)
class MetricValue:
    mean: float | None
    std: float | None
    n: int
    undefined: int = 0

    def as_dict(self):
        return asdict(self)


_METRIC_NAMES = ("correctness", "completeness", "continuity", "contrastivity", "compactness")


@dataclass(frozen=True)
class MetricReport:
    correctness: MetricValue
    completeness: MetricValue
    continuity: MetricValue
    contrastivity: MetricValue
    compactness: MetricValue
    num_rules: int
    precision: float
    recall: float
    sample_frac: float
    seed: int

    def as_dict(self):
        return {
            "metrics": {name: getattr(self, name).as_dict() for name in _METRIC_NAMES},
            "num_rules": self.num_rules,
            "precision": self.precision,
            "recall": self.recall,
            "sample_frac": self.sample_frac,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    def to_table(self) -> str:
        def cell(v: MetricValue) -> str:
            if v.mean is None:
                return "N +- N"
            return f"{v.mean:.2f} +- {0.0 if v.std is None else v.std:.2f}"

        rows = [(name.capitalize(), cell(getattr(self, name))) for name in _METRIC_NAMES]
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows) + "\n"


def precision_recall_f1(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """Precision, recall and F1 from true-positive, false-positive and
    false-negative counts; an undefined ratio counts as 0."""
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    return prec, rec, f1


def graph_to_rules(graph: ExplanationGraph) -> set[Rule]:
    """One rule per vertex, right-hand side = direct successors."""
    return {Rule(lhs=v, rhs=frozenset(graph.successors(v))) for v in graph.vertices}


def compactness(rules: set[Rule]) -> tuple[int, float]:
    """(rule count, mean right-hand-side length)."""
    if not rules:
        return 0, 0.0
    return len(rules), sum(len(r.rhs) for r in rules) / len(rules)


def _summary(values) -> MetricValue:
    """Mean and std of the defined per-prefix values; a None counts as undefined."""
    defined = [v for v in values if v is not None]
    undefined = len(values) - len(defined)
    if not defined:
        return MetricValue(mean=None, std=None, n=0, undefined=undefined)
    arr = np.asarray(defined, dtype=float)
    return MetricValue(mean=float(arr.mean()), std=float(arr.std()), n=len(defined),
                       undefined=undefined)


def _pearson(x, y) -> float | None:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 2 or np.std(x) == 0.0 or np.std(y) == 0.0:
        return None
    return float(np.corrcoef(x, y)[0, 1])


def correctness(model, graph: ExplanationGraph, prefixes) -> MetricValue:
    """Correlation between masking impact and explainer edge indicators;
    undefined for a prefix with no activity or whose top prediction is END.
    The rows of all prefixes of one length are scored in one call, so a
    row they share is forwarded once."""
    labels = model.activity_labels
    values = [None] * len(prefixes)
    for rows, ids in length_batches(prefixes):
        active = (ids != model.pad_id).any(axis=1)  # the rest have no activity
        rows, ids = rows[active], ids[active]
        n, T = ids.shape
        # per prefix, row 0 is the prefix itself, row 1 + i has position i masked
        masked = np.eye(T + 1, T, k=-1, dtype=bool)
        variants = np.where(masked, model.pad_id, ids[:, None]).reshape(n * (T + 1), T)
        probs = score_rows(model, variants)[0].reshape(n, T + 1, model.num_classes)
        for row, prefix_ids, p in zip(rows.tolist(), ids, probs):
            top = int(np.argmax(p[0]))
            if top >= model.num_activities:
                continue  # END has no graph representation
            # A PAD position has no vertex in the graph, so no edge marks it.
            expl_imp = [float(aid != model.pad_id and (labels[aid], labels[top]) in graph.edges)
                        for aid in prefix_ids.tolist()]
            values[row] = _pearson(tvd(p[0], p[1:]), expl_imp)
    return _summary(values)


def predict_by_length(model, prefixes) -> np.ndarray:
    """(N, C) ``predict`` probabilities for N prefixes (or id sequences)
    of mixed lengths, in input order; each length is one batch, a
    repeated prefix forwarded once."""
    probs = np.empty((len(prefixes), model.num_classes))
    for rows, ids in length_batches(prefixes):
        probs[rows] = score_rows(model, ids)[0]
    return probs


def weighted_f1(model, prefixes) -> float:
    """Support-weighted F1 of argmax predictions over prefix targets."""
    y_true = np.array([model.target_class(p.target) for p in prefixes])
    y_pred = predict_by_length(model, prefixes).argmax(axis=1)
    total = len(y_true)
    score = 0.0
    for cls in np.unique(y_true):
        support = int(np.sum(y_true == cls))
        tp = int(np.sum((y_true == cls) & (y_pred == cls)))
        fp = int(np.sum((y_true != cls) & (y_pred == cls)))
        _, _, f1 = precision_recall_f1(tp, fp, support - tp)
        score += support * f1
    return score / total if total else 0.0


def completeness(model, rules: set[Rule], prefixes, thresholds: Thresholds = Thresholds()):
    """(MetricValue for F1, precision, recall) of rule right-hand sides against
    the model's likely-next sets, micro-averaged over prefixes with an activity."""
    labels = model.activity_labels
    by_lhs = {r.lhs: r.rhs for r in rules}
    active = [(prefix, last) for prefix in prefixes
              if (last := _last_activity(prefix, model.pad_id)) is not None]
    probs = predict_by_length(model, [prefix for prefix, _ in active])
    tp = fp = fn = 0
    for (_, last), p_orig in zip(active, probs):
        predicted = by_lhs.get(labels[last], frozenset())
        truth = {labels[a] for a in likely_next(p_orig, thresholds, model.num_activities)}
        tp += len(predicted & truth)
        fp += len(predicted - truth)
        fn += len(truth - predicted)
    prec, rec, f1 = precision_recall_f1(tp, fp, fn)
    return MetricValue(mean=f1, std=0.0, n=len(active)), prec, rec


def _firing_rules(model, explainer, pairs, together=None):
    """The graph of ``together`` (if given), and a lookup from each prefix of
    the ``pairs`` to the right-hand side of the rule firing for its last
    non-PAD activity when it is explained alone (None if it has none): one
    ``explain`` call for an ``explain.Explainer``; a plain callable is called
    on ``together`` and once per distinct prefix with an activity. This
    relies on the explainer being a deterministic function of (model, prefix
    ids)."""
    alone = unique_prefixes(p for pair in pairs if pair for p in pair)
    if hasattr(explainer, "explain"):
        graph, rules = explainer.explain(model, () if together is None else together, alone)
    else:
        graph = None if together is None else explainer(model, together)
        rules = [None if (last := _last_activity(p, model.pad_id)) is None else frozenset(
            explainer(model, [p]).successors(model.activity_labels[last])) for p in alone]
    rhs = {_prefix_ids(p).tobytes(): rule for p, rule in zip(alone, rules)}
    return graph, lambda prefix: rhs[_prefix_ids(prefix).tobytes()]


def _jaccard(a: frozenset | None, b: frozenset | None) -> float | None:
    """Jaccard similarity; None when a side is None."""
    if a is None or b is None:
        return None
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def _similarities(pairs, rhs) -> list[float | None]:
    """Jaccard similarity of the firing rules of each prefix pair, under
    the ``_firing_rules`` lookup ``rhs``; None for a None pair."""
    return [pair and _jaccard(rhs(pair[0]), rhs(pair[1])) for pair in pairs]


def _perturbed_pairs(model, prefixes, seed: int) -> list[tuple | None]:
    """Per prefix, the prefix and a copy with one random position masked,
    as an id array; None for a prefix shorter than 2."""
    rng = np.random.default_rng(seed)
    return [None if len(ids) < 2 else (prefix, np.where(
        np.arange(len(ids)) == rng.integers(len(ids)), model.pad_id, ids))
        for prefix, ids in zip(prefixes, map(_prefix_ids, prefixes))]


def continuity(model, explainer, prefixes, seed: int = 0) -> MetricValue:
    """Jaccard similarity of firing rules before/after masking one
    random position, the explainer seeing the masked prefix as an id
    array; length-1 prefixes are skipped."""
    check_number("seed", seed, "[0, inf)", integer=True)
    pairs = _perturbed_pairs(model, prefixes, seed)
    return _summary(_similarities(pairs, _firing_rules(model, explainer, pairs)[1]))


_MAX_PAIRS = 1000


def _contrast_pairs(lasts, rng: np.random.Generator) -> list[tuple[int, int]]:
    """The index pairs (i, j), i < j, whose ``lasts`` differ (None is a
    value too), in lexicographic order; ``_MAX_PAIRS`` of them sampled by
    ``rng`` when there are more. Pairs are counted and numbered per first
    index, never listed whole."""
    codes = np.array([-1 if last is None else last for last in lasts], dtype=int)
    n = len(codes)
    order = np.argsort(codes, kind="stable")
    same_later = np.empty(n, dtype=int)
    same_later[order] = np.searchsorted(codes[order], codes[order], "right") - np.arange(n) - 1
    per_first = np.arange(n)[::-1] - same_later
    ends = np.cumsum(per_first)
    total = int(ends[-1]) if n else 0
    picks = (np.arange(total) if total <= _MAX_PAIRS
             else np.sort(rng.choice(total, size=_MAX_PAIRS, replace=False)))
    firsts = np.searchsorted(ends, picks, side="right")
    pairs = []
    for i in np.unique(firsts).tolist():
        later = np.flatnonzero(codes[i + 1:] != codes[i]) + i + 1
        ranks = picks[firsts == i] - (ends[i] - per_first[i])  # among i's pairs
        pairs += ((i, j) for j in later[ranks].tolist())
    return pairs


def _contrasted_pairs(model, prefixes, seed: int) -> list[tuple]:
    """The prefix pairs ``contrastivity`` compares."""
    pairs = _contrast_pairs([_last_activity(p, model.pad_id) for p in prefixes],
                            np.random.default_rng(seed))
    return [(prefixes[i], prefixes[j]) for i, j in pairs]


def contrastivity(model, explainer, prefixes, seed: int = 0) -> MetricValue:
    """1 - Jaccard similarity over prefix pairs with different last
    non-PAD activities, at most ``_MAX_PAIRS`` of them sampled."""
    check_number("seed", seed, "[0, inf)", integer=True)
    pairs = _contrasted_pairs(model, prefixes, seed)
    return _dissimilarity(pairs, _firing_rules(model, explainer, pairs)[1], len(prefixes))


def _dissimilarity(pairs, rhs, n: int) -> MetricValue:
    """``contrastivity`` of the ``pairs`` of ``n`` prefixes under ``rhs``."""
    if not pairs:
        return _summary([None] * n)
    return _summary([None if s is None else 1.0 - s for s in _similarities(pairs, rhs)])


def sample_prefixes(logobj: EventLog, sample_frac: float, seed: int) -> list[Prefix]:
    """A seeded ``sample_frac`` share of the log's prefixes (at least one), in
    log order; UsageError unless ``sample_frac`` is in (0, 1] and ``seed`` an integer >= 0."""
    check_number("sample_frac", sample_frac, "(0, 1]")
    check_number("seed", seed, "[0, inf)", integer=True)
    prefixes = extract_prefixes(logobj)
    if sample_frac == 1.0:
        return prefixes
    rng = np.random.default_rng(seed)
    k = max(1, int(round(sample_frac * len(prefixes))))
    idx = sorted(rng.choice(len(prefixes), size=k, replace=False).tolist())
    return [prefixes[i] for i in idx]


def evaluate_all(model, explainer, logobj: EventLog, sample_frac: float = 1.0,
                 thresholds: Thresholds | None = None, seed: int = 0) -> MetricReport:
    """Run all five metrics over a seeded prefix sample; completeness takes
    ``thresholds``, by default the explainer's own (else ``Thresholds()``).

    One ``_firing_rules`` call explains the sample together, and each
    prefix that ``continuity`` and ``contrastivity`` explain alone,
    perturbed ones included, on its own: one ``explain`` call for an
    ``explain.Explainer``, else one call on the sample and one per distinct
    prefix with an activity. ``Explainer`` is a deterministic function of
    (model, prefix ids), because every one-prefix call draws the same
    sub-seed."""
    if thresholds is None:
        thresholds = getattr(explainer, "thresholds", Thresholds())
    prefixes = sample_prefixes(logobj, sample_frac, seed)
    perturbed = _perturbed_pairs(model, prefixes, seed)
    contrasted = _contrasted_pairs(model, prefixes, seed)
    graph, rhs = _firing_rules(model, explainer, perturbed + contrasted, together=prefixes)
    rules = graph_to_rules(graph)
    corr = correctness(model, graph, prefixes)
    comp_value, precision, recall = completeness(model, rules, prefixes, thresholds)
    cont = _summary(_similarities(perturbed, rhs))
    contr = _dissimilarity(contrasted, rhs, len(prefixes))
    n_rules, mean_rhs = compactness(rules)
    comp = MetricValue(mean=mean_rhs, std=0.0, n=n_rules)
    return MetricReport(
        correctness=corr, completeness=comp_value, continuity=cont,
        contrastivity=contr, compactness=comp, num_rules=n_rules,
        precision=precision, recall=recall, sample_frac=sample_frac, seed=seed,
    )
