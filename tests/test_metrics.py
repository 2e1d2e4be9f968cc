import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attnexplain import explain, metrics, prestudy
from attnexplain.attnstats import activity_score_sums, tvd
from attnexplain.errors import UsageError
from attnexplain.eventlog import (Prefix, _last_activity, _prefix_ids, build_log, extract_prefixes,
                                  unique_prefixes)
from attnexplain.explain import (
    Explainer,
    ExplanationGraph,
    Thresholds,
    attention_exploration_explain,
    backward_explain,
    likely_next,
)
from attnexplain.metrics import (
    _MAX_PAIRS,
    MetricValue,
    Rule,
    _contrast_pairs,
    _pearson,
    compactness,
    completeness,
    continuity,
    contrastivity,
    correctness,
    evaluate_all,
    graph_to_rules,
    sample_prefixes,
)
from attnexplain.prestudy import experiment2
from test_explain import ABC_MODEL


class TableModel:
    """Prediction stub: scripted probability vector per id tuple."""

    def __init__(self, labels, probs_table, default=None):
        self.activity_labels = list(labels)
        self.num_activities = len(labels)
        self.pad_id = self.num_activities
        self.end_id = self.num_activities + 1
        self.num_classes = self.num_activities + 1
        self.table = {tuple(k): np.asarray(v, dtype=float) for k, v in probs_table.items()}
        self.default = default

    def forward(self, prefix, masked_positions=None):
        ids = tuple(int(a) for a in (prefix.activities if hasattr(prefix, "activities")
                                     else prefix))
        T = len(ids)
        att = np.full((1, T, T), 1.0 / T)
        if ids in self.table:
            return self.table[ids], att
        if self.default is not None:
            return np.asarray(self.default, dtype=float), att
        return np.full(self.num_classes, 1.0 / self.num_classes), att

    def predict(self, ids, att_mask=None):
        """``forward`` per row, stacked; like ``forward``, it ignores masks."""
        rows = [self.forward(row) for row in ids]
        return np.array([p for p, _ in rows]), np.array([a for _, a in rows])


def prefix(ids, target=0):
    return Prefix(activities=tuple(ids), target=target, source_case="c")


# ------------------------------------------------------------------- rules


def test_graph_to_rules_one_per_vertex():
    g = ExplanationGraph.make({"A", "B", "C"}, {("A", "B"), ("A", "C"), ("B", "C")})
    rules = graph_to_rules(g)
    assert {r.lhs: r.rhs for r in rules} == {
        "A": frozenset({"B", "C"}), "B": frozenset({"C"}), "C": frozenset(),
    }


def test_compactness_is_edge_count_over_vertex_count():
    g = ExplanationGraph.make({"A", "B", "C"}, {("A", "B"), ("B", "C"), ("A", "C")})
    n_rules, mean_rhs = compactness(graph_to_rules(g))
    assert n_rules == 3
    assert mean_rhs == len(g.edges) / len(g.vertices)  # exact
    assert compactness(set()) == (0, 0.0)


# ------------------------------------------------------------ completeness


def brute_force_micro_f1(model, rules, prefixes, thresholds):
    """Independent flat tally over (prefix, activity) decisions."""
    by_lhs = {r.lhs: r.rhs for r in rules}
    labels = model.activity_labels
    tp = fp = fn = 0
    for p in prefixes:
        non_pad = [a for a in p.activities if a != model.pad_id]
        predicted = by_lhs.get(labels[non_pad[-1]], frozenset())
        probs, _ = model.forward(p)
        truth = {labels[a] for a in likely_next(probs, thresholds, model.num_activities)}
        for a in labels:
            in_p, in_t = a in predicted, a in truth
            tp += in_p and in_t
            fp += in_p and not in_t
            fn += in_t and not in_p
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    return 2 * prec * rec / (prec + rec) if prec + rec else 0.0


FIXTURE_PROBS = {
    (0,): [0.1, 0.8, 0.1, 0.0],       # after A -> B
    (0, 1): [0.1, 0.1, 0.8, 0.0],     # after B -> C
    (1,): [0.1, 0.1, 0.8, 0.0],
    (2,): [0.0, 0.1, 0.1, 0.8],       # after C -> END
}


def completeness_fixture():
    model = TableModel(["A", "B", "C"], FIXTURE_PROBS)
    prefixes = [prefix(k) for k in FIXTURE_PROBS]
    return model, prefixes


def test_completeness_matches_brute_force_exactly():
    model, prefixes = completeness_fixture()
    thresholds = Thresholds(delta_pred=0.5)
    rule_sets = [
        {Rule("A", frozenset({"B"})), Rule("B", frozenset({"C"})), Rule("C", frozenset())},
        {Rule("A", frozenset({"C"})), Rule("B", frozenset({"B", "C"}))},
        set(),
        {Rule("A", frozenset({"A", "B", "C"}))},
    ]
    for rules in rule_sets:
        value, _, _ = completeness(model, rules, prefixes, thresholds)
        assert value.mean == brute_force_micro_f1(model, rules, prefixes, thresholds)


def test_completeness_perfect_rules_give_one():
    model, prefixes = completeness_fixture()
    rules = {Rule("A", frozenset({"B"})), Rule("B", frozenset({"C"})),
             Rule("C", frozenset())}
    value, prec, rec = completeness(model, rules, prefixes, Thresholds(delta_pred=0.5))
    assert value.mean == 1.0 and prec == 1.0 and rec == 1.0


def test_completeness_empty_rules_zero_by_convention():
    model, prefixes = completeness_fixture()
    value, prec, rec = completeness(model, set(), prefixes, Thresholds(delta_pred=0.5))
    assert (value.mean, prec, rec) == (0.0, 0.0, 0.0)


def test_completeness_crafted_confusion_counts():
    # 2 TP, 1 FP, 1 FN -> precision = recall = 2/3 -> F1 = 2/3
    model = TableModel(["A", "B"], {
        (0,): [0.0, 1.0, 0.0],    # truth {B}; rule A -> {A, B}: TP(B) + FP(A)
        (1,): [1.0, 1.0, 0.0],    # truth {A, B}; rule B -> {A}: TP(A) + FN(B)
    })
    rules = {Rule("A", frozenset({"A", "B"})), Rule("B", frozenset({"A"}))}
    prefixes = [prefix((0,)), prefix((1,))]
    value, prec, rec = completeness(model, rules, prefixes, Thresholds(delta_pred=0.5))
    assert prec == pytest.approx(2 / 3)
    assert rec == pytest.approx(2 / 3)
    assert value.mean == pytest.approx(2 / 3)


# ------------------------------------------------------------- correctness


def test_correctness_all_constant_is_undefined():
    # scripted model ignores masking entirely -> zero masking impact
    model = TableModel(["A", "B"], {}, default=[0.6, 0.4, 0.0])
    g = ExplanationGraph.make({"A", "B"}, {("A", "B")})
    value = correctness(model, g, [prefix((0, 1)), prefix((1, 0))])
    assert value.mean is None
    assert value.undefined == 2


def test_correctness_positive_when_masking_matters_on_edges():
    # masking position A changes the prediction, masking B does not;
    # the graph marks exactly the A edge
    model = TableModel(["A", "B"], {
        (0, 1): [0.9, 0.1, 0.0],
        (2, 1): [0.1, 0.9, 0.0],   # A masked: big shift
        (0, 2): [0.9, 0.1, 0.0],   # B masked: no shift
    })
    g = ExplanationGraph.make({"A", "B"}, {("A", "A")})
    value = correctness(model, g, [prefix((0, 1))])
    assert value.n == 1
    assert value.mean == pytest.approx(1.0)


def test_correctness_scores_pad_positions_as_non_edges():
    # masking A shifts the prediction, masking the PAD or B does not; the
    # graph marks exactly the A edge; the all-PAD prefix marks nothing
    model = TableModel(["A", "B"], {
        (0, 2, 1): [0.9, 0.1, 0.0],
        (2, 2, 1): [0.1, 0.9, 0.0],
    }, default=[0.9, 0.1, 0.0])
    g = ExplanationGraph.make({"A", "B"}, {("A", "A")})
    value = correctness(model, g, [prefix((0, 2, 1)), prefix((2, 2))])
    assert value.n == 1 and value.undefined == 1
    assert value.mean == pytest.approx(1.0)


# -------------------------------------------- continuity and contrastivity


def constant_explainer_graph():
    return ExplanationGraph.make({"A", "B"}, {("A", "B"), ("B", "B")})


def test_identical_explanations_continuity_one():
    model = TableModel(["A", "B"], {}, default=[0.5, 0.5, 0.0])
    explainer = lambda m, prefixes: constant_explainer_graph()
    prefixes = [prefix((0, 1)), prefix((1, 0)), prefix((0, 0))]
    value = continuity(model, explainer, prefixes, seed=0)
    assert value.mean == 1.0
    assert value.n == 3


def test_continuity_skips_length_one():
    model = TableModel(["A", "B"], {}, default=[0.5, 0.5, 0.0])
    explainer = lambda m, prefixes: constant_explainer_graph()
    value = continuity(model, explainer, [prefix((0,))], seed=0)
    assert value.n == 0 and value.undefined == 1


def test_continuity_masks_id_sequence_prefixes():
    """The explainer sees each id-sequence prefix, then its row of ids with
    the seeded draw's position set to PAD."""
    model = TableModel(["A", "B"], {}, default=[0.5, 0.5, 0.0])
    seen = []

    def explainer(m, prefixes):
        seen.extend(np.asarray(p).tolist() for p in prefixes)
        return constant_explainer_graph()

    sequences = [(0, 1, 0), (1, 0), (0, 1, 1, 0)]
    value = continuity(model, explainer, sequences, seed=5)
    rng, expected = np.random.default_rng(5), []
    for ids in sequences:
        perturbed = list(ids)
        perturbed[int(rng.integers(len(ids)))] = model.pad_id
        expected += [list(ids), perturbed]
    assert seen == expected
    assert value.mean == 1.0 and value.n == 3
    assert continuity(ABC_MODEL, backward_explain, [(0, 1), (1, 0)]).n == 2


def test_identical_explanations_contrastivity_zero():
    model = TableModel(["A", "B"], {}, default=[0.5, 0.5, 0.0])
    explainer = lambda m, prefixes: constant_explainer_graph()
    prefixes = [prefix((0, 1)), prefix((1, 0))]
    value = contrastivity(model, explainer, prefixes, seed=0)
    # different last activities, same rule rhs for both? A -> {B}, B -> {B}
    # rhs sets are equal, so 1 - Jaccard = 0
    assert value.mean == 0.0


def test_contrastivity_no_dissimilar_pairs_is_undefined():
    model = TableModel(["A", "B"], {}, default=[0.5, 0.5, 0.0])
    explainer = lambda m, prefixes: constant_explainer_graph()
    value = contrastivity(model, explainer, [prefix((0, 1)), prefix((1, 1))], seed=0)
    assert value.mean is None


def test_contrastivity_pairs_by_last_non_pad_activity():
    model = TableModel(["A", "B"], {}, default=[0.5, 0.5, 0.0])
    explainer = lambda m, prefixes: constant_explainer_graph()
    pad = model.pad_id
    # <A, PAD> and <B, A> both end in A once the PAD is skipped
    value = contrastivity(model, explainer, [prefix((0, pad)), prefix((1, 0))], seed=0)
    assert value.mean is None and value.undefined == 2
    value = contrastivity(model, explainer, [prefix((0, pad)), prefix((0, 1))], seed=0)
    assert value.n == 1


def test_contrastivity_disjoint_rules_is_one():
    model = TableModel(["A", "B"], {}, default=[0.5, 0.5, 0.0])

    def explainer(m, prefixes):
        ids = prefixes[0].activities
        last = ids[-1]
        if last == 0:
            return ExplanationGraph.make({"A", "B"}, {("A", "A")})
        return ExplanationGraph.make({"A", "B"}, {("B", "B")})

    value = contrastivity(model, explainer, [prefix((1, 0)), prefix((0, 1))], seed=0)
    assert value.mean == 1.0


def enumerated_pairs(lasts, seed):
    """Every pair (i, j), i < j, with different lasts, listed in order and
    then sampled, as ``contrastivity`` did before it numbered them."""
    pairs = [(i, j) for i in range(len(lasts)) for j in range(i + 1, len(lasts))
             if lasts[i] != lasts[j]]
    if len(pairs) > _MAX_PAIRS:
        idx = np.random.default_rng(seed).choice(len(pairs), size=_MAX_PAIRS, replace=False)
        pairs = [pairs[i] for i in sorted(idx.tolist())]
    return pairs


# 46 lasts give C(46, 2) = 1035 pairs; these leave 1000 and 1001 that differ
EXACTLY_MAX_PAIRS = [0] * 8 + [1] * 4 + [2] * 2 + list(range(3, 35))
ONE_ABOVE_MAX_PAIRS = [0] * 8 + [1] * 4 + list(range(2, 36))


@given(st.integers(0, 70).flatmap(
           lambda n: st.lists(st.none() | st.integers(0, 4), min_size=n, max_size=n)),
       st.integers(0, 2**32 - 1))
@example(EXACTLY_MAX_PAIRS, 5)
@example(ONE_ABOVE_MAX_PAIRS, 5)
@example([None] * 60, 0)
@example([None] * 30 + [0] * 30, 1)
@settings(max_examples=150, deadline=None)
def test_contrast_pairs_match_the_full_enumeration(lasts, seed):
    assert _contrast_pairs(lasts, np.random.default_rng(seed)) == enumerated_pairs(lasts, seed)


def test_contrast_pair_examples_straddle_the_sample_size():
    differing = [sum(a != b for a, b in itertools.combinations(lasts, 2))
                 for lasts in (EXACTLY_MAX_PAIRS, ONE_ABOVE_MAX_PAIRS)]
    assert differing == [_MAX_PAIRS, _MAX_PAIRS + 1]


# ------------------------------------------------------------- aggregation


def test_sample_prefixes_full_and_fractional():
    logobj = build_log([("c1", ["A", "B"]), ("c2", ["B", "A"])])
    assert len(sample_prefixes(logobj, 1.0, seed=0)) == 4
    half = sample_prefixes(logobj, 0.5, seed=0)
    assert len(half) == 2
    assert sample_prefixes(logobj, 0.5, seed=0) == half  # deterministic


@pytest.mark.parametrize("sample_frac", [0.0, -0.5, float("nan"), 1.5])
def test_sample_prefixes_rejects_fraction_outside_unit_interval(sample_frac):
    logobj = build_log([("c1", ["A", "B"]), ("c2", ["B", "A"])])
    message = rf"^sample_frac must be a number in \(0, 1\], got {sample_frac}$"
    with pytest.raises(UsageError, match=message) as exc:
        sample_prefixes(logobj, sample_frac, seed=0)
    assert isinstance(exc.value, ValueError)


def test_evaluate_all_report_shape():
    logobj = build_log([("c1", ["A", "B"]), ("c2", ["A", "B"])])
    model = TableModel(["A", "B"], {}, default=[0.2, 0.8, 0.0])
    explainer = lambda m, prefixes: ExplanationGraph.make({"A", "B"}, {("A", "B")})
    report = evaluate_all(model, explainer, logobj, thresholds=Thresholds(delta_pred=0.5))
    data = report.as_dict()
    assert set(data["metrics"]) == {
        "correctness", "completeness", "continuity", "contrastivity", "compactness",
    }
    assert report.num_rules == 2
    table = report.to_table()
    assert "Correctness" in table and "N +- N" in table  # constant model is undefined
    assert report.to_json().endswith("\n")


PAD = ABC_MODEL.pad_id
DEGENERATE_PREFIXES = st.one_of(
    st.just(()),                                                              # empty
    st.integers(1, 6).map(lambda n: (PAD,) * n),                             # all PAD
    st.integers(0, PAD).map(lambda a: (a,)),                                  # length 1
    st.tuples(st.integers(0, PAD - 1), st.integers(2, 6)).map(lambda t: (t[0],) * t[1]),
    st.lists(st.integers(0, PAD), min_size=2, max_size=6).filter(lambda ids: PAD in ids)
    .map(tuple),                                                              # holds a PAD
)
EXPLAINERS = (
    lambda m, prefixes: backward_explain(m, prefixes, n_mods=4),
    lambda m, prefixes: attention_exploration_explain(m, prefixes, subset_cap=8, n_mods=4),
)


@given(st.lists(DEGENERATE_PREFIXES, min_size=1, max_size=4))
@settings(max_examples=25, deadline=None)
def test_explainers_and_metrics_run_on_degenerate_prefixes(ids_list):
    prefixes = [prefix(ids) for ids in ids_list]
    for explainer in EXPLAINERS:
        graph = explainer(ABC_MODEL, prefixes)
        rules = graph_to_rules(graph)
        values = [
            correctness(ABC_MODEL, graph, prefixes),
            completeness(ABC_MODEL, rules, prefixes)[0],
            continuity(ABC_MODEL, explainer, prefixes),
            contrastivity(ABC_MODEL, explainer, prefixes),
        ]
        for value in values:
            assert value.mean is None or np.isfinite(value.mean)
        assert compactness(rules)[0] == len(graph.vertices)


def test_prefixes_without_activity_are_skipped(trained_chain_model):
    model, logobj = trained_chain_model
    prefixes = [p.activities for p in extract_prefixes(logobj)[:4]]
    for explainer in (backward_explain, attention_exploration_explain):
        graph = explainer(model, prefixes)
        assert graph.edges
        for skipped in ((), (model.pad_id, model.pad_id)):
            assert explainer(model, prefixes + [skipped]) == graph
    graph = attention_exploration_explain(model, [()])
    assert correctness(model, graph, [()]) == MetricValue(mean=None, std=None, n=0, undefined=1)
    assert completeness(model, graph_to_rules(graph), [()])[0].n == 0


def loop_summary(values, undefined):
    if not values:
        return MetricValue(mean=None, std=None, n=0, undefined=undefined)
    arr = np.asarray(values, dtype=float)
    return MetricValue(float(arr.mean()), float(arr.std()), len(values), undefined)


def loop_firing_rhs(model, explainer, prefix):
    last = _last_activity(prefix, model.pad_id)
    if last is None:
        return None
    label = model.activity_labels[last]
    graph = explainer(model, [prefix])
    return frozenset(graph.successors(label)) if label in graph.vertices else frozenset()


def loop_jaccard(a, b):
    return 1.0 if not a and not b else len(a & b) / len(a | b)


def loop_correctness(model, graph, prefixes):
    """correctness as a loop that counts its undefined values; it forwards
    every non-empty prefix, an all-PAD one too."""
    labels = model.activity_labels
    values, undefined = [], 0
    for prefix in prefixes:
        ids = np.asarray(getattr(prefix, "activities", prefix), dtype=int)
        if not len(ids):
            undefined += 1
            continue
        masked = np.eye(len(ids) + 1, len(ids), k=-1, dtype=bool)
        probs, _ = model.predict(np.where(masked, model.pad_id, ids))
        top = int(np.argmax(probs[0]))
        if top >= model.num_activities:
            undefined += 1
            continue
        expl_imp = [float(aid != model.pad_id and (labels[aid], labels[top]) in graph.edges)
                    for aid in ids.tolist()]
        corr = _pearson(tvd(probs[0], probs[1:]), expl_imp)
        if corr is None:
            undefined += 1
        else:
            values.append(corr)
    return loop_summary(values, undefined)


def loop_continuity(model, explainer, prefixes, seed=0):
    rng = np.random.default_rng(seed)
    values, undefined = [], 0
    for prefix in prefixes:
        ids = np.asarray(getattr(prefix, "activities", prefix), dtype=int)
        if len(ids) < 2:
            undefined += 1
            continue
        perturbed = np.where(np.arange(len(ids)) == rng.integers(len(ids)), model.pad_id, ids)
        r_orig = loop_firing_rhs(model, explainer, prefix)
        r_pert = loop_firing_rhs(model, explainer, perturbed)
        if r_orig is None or r_pert is None:
            undefined += 1
            continue
        values.append(loop_jaccard(r_orig, r_pert))
    return loop_summary(values, undefined)


def loop_contrastivity(model, explainer, prefixes, seed=0):
    pairs = _contrast_pairs([_last_activity(p, model.pad_id) for p in prefixes],
                            np.random.default_rng(seed))
    if not pairs:
        return MetricValue(mean=None, std=None, n=0, undefined=len(prefixes))
    values, undefined = [], 0
    for i, j in pairs:
        a = loop_firing_rhs(model, explainer, prefixes[i])
        b = loop_firing_rhs(model, explainer, prefixes[j])
        if a is None or b is None:
            undefined += 1
            continue
        values.append(1.0 - loop_jaccard(a, b))
    return loop_summary(values, undefined)


@given(st.lists(DEGENERATE_PREFIXES | st.lists(st.integers(0, PAD - 1), min_size=2, max_size=5)
                .map(tuple), min_size=1, max_size=5), st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_prefix_metrics_match_loops_with_counters(ids_list, seed):
    for explainer in EXPLAINERS:
        graph = explainer(ABC_MODEL, ids_list)
        assert correctness(ABC_MODEL, graph, ids_list) == loop_correctness(ABC_MODEL, graph,
                                                                           ids_list)
        for metric, loop in ((continuity, loop_continuity),
                             (contrastivity, loop_contrastivity)):
            assert (metric(ABC_MODEL, explainer, ids_list, seed=seed)
                    == loop(ABC_MODEL, explainer, ids_list, seed=seed))


@given(st.lists(st.lists(st.integers(0, PAD), min_size=1, max_size=5).map(tuple),
                min_size=1, max_size=4))
@settings(max_examples=10, deadline=None)
def test_explainers_and_metrics_read_id_sequences_as_prefixes(ids_list):
    prefixes = [prefix(ids) for ids in ids_list]
    for explainer in EXPLAINERS:
        graph = explainer(ABC_MODEL, prefixes)
        assert explainer(ABC_MODEL, ids_list) == graph
        rules = graph_to_rules(graph)
        for metric in (lambda ps: correctness(ABC_MODEL, graph, ps),
                       lambda ps: completeness(ABC_MODEL, rules, ps),
                       lambda ps: continuity(ABC_MODEL, explainer, ps),
                       lambda ps: contrastivity(ABC_MODEL, explainer, ps)):
            assert metric(ids_list) == metric(prefixes)


def test_metric_value_serialization():
    v = MetricValue(mean=0.5, std=0.1, n=4, undefined=1)
    assert v.as_dict() == {"mean": 0.5, "std": 0.1, "n": 4, "undefined": 1}


def plain_scores(model, ids, att_mask=None, sums=False):
    """``score_rows`` forwarding every row, repeated ones too."""
    probs, att = model.predict(ids, att_mask)
    return probs, activity_score_sums(att, ids, model.pad_id) if sums else probs[:, :0]


@given(st.lists(DEGENERATE_PREFIXES | st.lists(st.integers(0, PAD - 1), min_size=2, max_size=5)
                .map(tuple), min_size=1, max_size=4))
@settings(max_examples=20, deadline=None)
def test_forwarding_each_row_once_changes_no_result(ids_list):
    prefixes = ids_list + ids_list[::-1]  # repeated prefixes, so repeated rows

    def results():
        out = [experiment2(ABC_MODEL, prefixes)]
        for explainer in (backward_explain, attention_exploration_explain):
            graph = explainer(ABC_MODEL, prefixes, n_mods=4)
            out += [graph, correctness(ABC_MODEL, graph, prefixes),
                    completeness(ABC_MODEL, graph_to_rules(graph), prefixes)]
        return out

    cached = results()
    with pytest.MonkeyPatch.context() as mp:
        for module in (explain, metrics, prestudy):
            mp.setattr(module, "score_rows", plain_scores)
        assert results() == cached


def test_experiment2_forwards_a_repeated_prefix_once(trained_chain_model, monkeypatch):
    model, logobj = trained_chain_model
    prefixes = [p.activities for p in extract_prefixes(logobj)[:4]] + [(model.pad_id, 0)]
    forwarded = []
    predict = model.predict

    def counting_predict(ids, att_mask=None):
        forwarded.append(len(ids))
        return predict(ids, att_mask)

    monkeypatch.setattr(model, "predict", counting_predict)
    once = experiment2(model, prefixes)
    rows_once, forwarded[:] = sum(forwarded), []
    thrice = experiment2(model, prefixes * 3)
    assert sum(forwarded) <= rows_once
    n = len(prefixes)
    assert thrice.rows == tuple((idx + k * n, pos, value)
                                for k in range(3) for idx, pos, value in once.rows)


def test_experiment2_and_correctness_forward_each_distinct_row_once(trained_chain_model):
    model, _ = trained_chain_model
    A, B, C, PAD_ = 0, 1, 2, model.pad_id
    # (A, B) and (C, B) masked at position 0 are both (PAD, B); (A, B) repeats
    prefixes = [(A, B), (C, B), (A, B, C), (A, B), (PAD_, A), (PAD_, PAD_)]
    graph = backward_explain(model, prefixes, n_mods=4)
    forwarded = []
    predict = model.predict

    def recording_predict(ids, att_mask=None):
        masks = np.zeros(ids.shape, dtype=bool) if att_mask is None else att_mask
        forwarded.extend((row.tobytes(), m.tobytes()) for row, m in zip(ids, masks))
        return predict(ids, att_mask)

    def key(ids, mask=()):
        ids = np.array(ids)
        return ids.tobytes(), np.isin(np.arange(len(ids)), mask).tobytes()

    def masked(ids, pos):
        return tuple(PAD_ if i == pos else a for i, a in enumerate(ids))

    exp2_rows = {k for ids in prefixes for pos in range(len(ids))
                 for k in (key(masked(ids, pos)), key(ids, [pos]))}
    correctness_rows = {k for ids in prefixes if set(ids) != {PAD_}
                        for k in [key(ids)] + [key(masked(ids, pos)) for pos in range(len(ids))]}
    assert key((PAD_, B)) in exp2_rows & correctness_rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "predict", recording_predict)
        for call, rows in ((lambda: experiment2(model, prefixes), exp2_rows),
                           (lambda: correctness(model, graph, prefixes), correctness_rows)):
            forwarded.clear()
            call()
            assert sorted(forwarded) == sorted(rows)


def test_evaluate_all_explains_each_firing_prefix_once(trained_chain_model):
    model, logobj = trained_chain_model

    def recording(calls):
        def explainer(m, prefixes):
            calls.append([_prefix_ids(p).tobytes() for p in prefixes])
            return backward_explain(m, prefixes, n_mods=4)
        return explainer

    calls = []
    evaluate_all(model, recording(calls), logobj, sample_frac=0.5, seed=3)
    firing = [keys[0] for keys in calls[1:]]  # the first call explains the whole sample
    assert len(calls[0]) > 1 and all(len(keys) == 1 for keys in calls[1:])
    assert len(firing) == len(set(firing))
    wanted = []
    prefixes = sample_prefixes(logobj, 0.5, 3)
    continuity(model, recording(wanted), prefixes, seed=3)
    contrastivity(model, recording(wanted), prefixes, seed=3)
    assert len(wanted) > len({keys[0] for keys in wanted})  # the memo has repeats to save
    assert set(firing) == {keys[0] for keys in wanted}


def loop_log_and_model():
    from test_explain import LONG_MODEL
    loop = ["A", "B", "C"] * 4
    return build_log([(f"c{i}", loop[i % 3:i % 3 + 3 + i]) for i in range(10)]), LONG_MODEL


@pytest.mark.parametrize("method", ["backward", "attention-exploration"])
def test_evaluate_all_through_the_handle_matches_a_plain_callable(method):
    logobj, model = loop_log_and_model()
    handle = Explainer(method, n_mods=4, subset_cap=4, seed=3)
    for sample_frac in (0.5, 1.0):
        reports = [evaluate_all(model, explainer, logobj, sample_frac=sample_frac, seed=2).to_json()
                   for explainer in (handle, lambda m, p: handle(m, p))]
        assert reports[0] == reports[1]
    # the whole log explains prefixes alone over several windows of the phase
    prefixes = sample_prefixes(logobj, 1.0, 2)
    pairs = [*metrics._perturbed_pairs(model, prefixes, 2),
             *metrics._contrasted_pairs(model, prefixes, 2)]
    assert len(unique_prefixes(p for pair in pairs if pair for p in pair)) > explain._WINDOW


def test_evaluate_all_takes_the_explainers_thresholds():
    logobj, model = loop_log_and_model()
    thresholds = Thresholds(delta_pred=0.3)
    handle = Explainer("backward", thresholds, n_mods=4, seed=3)
    report = evaluate_all(model, handle, logobj, seed=2).to_json()
    assert evaluate_all(model, handle, logobj, thresholds=thresholds, seed=2).to_json() == report
    # an explicit value wins, and here scores completeness differently
    assert evaluate_all(model, handle, logobj, thresholds=Thresholds(), seed=2).to_json() != report
