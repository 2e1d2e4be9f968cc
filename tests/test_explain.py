import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attnexplain.attnstats import (activity_score_sums, aggregate_event_scores, cosine_distance,
                                   max_normalize)
from attnexplain.errors import UsageError
from attnexplain import explain
from attnexplain.explain import (
    Explainer,
    ExplanationGraph,
    Thresholds,
    _subsets,
    attention_exploration_explain,
    backward_explain,
    compute_relevance_score,
    likely_next,
    random_maskings,
    relevance_scores,
    relevant_activities,
    row_normalize,
    to_dot,
    to_json,
)
from attnexplain.transformer import ModelConfig, TransformerModel
from conftest import TINY_CONFIG
from test_attnstats import reference_score_sums


class FixedModel:
    """Model stub returning scripted (probs, attention) per prefix.

    The table maps an id tuple to the scripted pair; prefixes not in the
    table fall back to uniform outputs, which keeps random modifications
    prediction-similar without influencing the scripted rankings.
    """

    def __init__(self, labels, table):
        self.activity_labels = list(labels)
        self.num_activities = len(labels)
        self.pad_id = self.num_activities
        self.end_id = self.num_activities + 1
        self.num_classes = self.num_activities + 1
        self.table = {tuple(k): v for k, v in table.items()}

    def forward(self, prefix, masked_positions=None):
        ids = tuple(int(a) for a in (prefix.activities if hasattr(prefix, "activities")
                                     else prefix))
        if ids in self.table:
            probs, att = self.table[ids]
            return np.asarray(probs, dtype=float), np.asarray(att, dtype=float)
        T = len(ids)
        probs = np.full(self.num_classes, 1.0 / self.num_classes)
        att = np.full((1, T, T), 1.0 / T)
        return probs, att

    def predict(self, ids, att_mask=None):
        """``forward`` per row, stacked; like ``forward``, it ignores masks."""
        rows = [self.forward(row) for row in ids]
        return np.array([p for p, _ in rows]), np.array([a for _, a in rows])


def att_with_column_scores(scores):
    """One-head attention whose per-column sums equal ``scores``."""
    T = len(scores)
    att = np.zeros((1, T, T))
    att[0, 0, :] = scores
    return att


# ------------------------------------------------------------- primitives


def test_thresholds_default_edge_is_uniform_row_value():
    th = Thresholds()
    assert th.edge_threshold(4) == pytest.approx(0.25)
    assert Thresholds(delta_edge=0.9).edge_threshold(4) == 0.9


THRESHOLD_NAMES = ("delta_sim", "delta_attr", "delta_pred", "delta_edge", "sim_eps")
threshold_values = st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), -0.5, -1e-9, 0.0, 1.0, 1.5]
) | st.floats(0.0, 1.0)


def threshold_is_valid(name, value):
    if value is None:
        return name == "delta_edge"
    high = float("inf") if name == "sim_eps" else 1.0
    return bool(np.isfinite(value)) and 0.0 <= value <= high


@given(st.dictionaries(st.sampled_from(THRESHOLD_NAMES), threshold_values | st.none()))
@settings(max_examples=50, deadline=None)
def test_thresholds_build_or_raise_value_error(fields):
    valid = all(threshold_is_valid(name, value) for name, value in fields.items())
    try:
        Thresholds(**fields)
    except ValueError:
        assert not valid
    else:
        assert valid


def test_thresholds_reject_non_numbers():
    for bad in ({"delta_sim": "0.2"}, {"delta_attr": True}, {"sim_eps": None},
                {"delta_pred": None}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            Thresholds(**bad)


@pytest.mark.parametrize("explain, option", [
    (backward_explain, {"n_mods": -1}),
    (attention_exploration_explain, {"n_mods": -1}),
    (attention_exploration_explain, {"subset_cap": 0}),
])
def test_explainers_reject_options_out_of_range(tiny_model, explain, option):
    (name, value), = option.items()
    message = rf"^{name} must be an integer in \[{value + 1}, 4096\], got {value}$"
    with pytest.raises(UsageError, match=message) as exc:
        explain(tiny_model, [(0, 1, 2)], Thresholds(), **option)
    assert isinstance(exc.value, ValueError)


@pytest.mark.parametrize("name, limit", [("n_mods", explain.MAX_N_MODS),
                                         ("subset_cap", explain.MAX_SUBSET_CAP)])
def test_options_above_their_limits_raise_before_anything_is_drawn(tiny_model, monkeypatch,
                                                                   name, limit):
    ids = (0, 1, 2)
    calls = [lambda **option: attention_exploration_explain(tiny_model, [ids], **option)]
    if name == "n_mods":
        calls += [lambda **option: backward_explain(tiny_model, [ids], **option),
                  lambda **option: relevant_activities(tiny_model, ids, Thresholds(), **option)]
    for call in calls:
        call(**{name: limit})  # the limit itself is accepted
        with monkeypatch.context() as mp:
            for drawing in ("random_maskings", "_subsets"):
                mp.setattr(explain, drawing, lambda *_, d=drawing: pytest.fail(f"{d} ran"))
            low = 0 if name == "n_mods" else 1
            message = rf"^{name} must be an integer in \[{low}, {limit}\], got {limit + 1}$"
            with pytest.raises(UsageError, match=message):
                call(**{name: limit + 1})


def test_config_and_thresholds_raise_usage_errors():
    # backward ignores subset_cap, but is built only with one in range
    for make, option in ((ModelConfig, {"h": 0}), (Thresholds, {"delta_sim": float("nan")}),
                         (Explainer, {"method": "bogus"}),
                         (Explainer, {"method": "backward", "subset_cap": 0}),
                         (Explainer, {"method": "backward",
                                      "subset_cap": explain.MAX_SUBSET_CAP + 1}),
                         (Explainer, {"method": "backward", "thresholds": 0.5})):
        with pytest.raises(UsageError) as exc:
            make(**option)
        assert isinstance(exc.value, ValueError)


def test_explanation_graph_validates_edges():
    with pytest.raises(ValueError):
        ExplanationGraph.make({"A"}, {("A", "B")})
    g = ExplanationGraph.make({"A", "B"}, {("A", "B")})
    assert g.successors("A") == {"B"}
    assert g.successors("B") == set()


@given(length=st.integers(1, 12), n_mods=st.integers(0, 30), seed=st.integers(0, 99))
@settings(max_examples=60, deadline=None)
def test_random_maskings_sizes(length, n_mods, seed):
    rng = np.random.default_rng(seed)
    masks = random_maskings(length, n_mods, rng)
    assert masks.shape == (n_mods, length) and masks.dtype == bool
    cap = int(np.ceil(length / 2))
    sizes = masks.sum(axis=1)
    assert np.all((1 <= sizes) & (sizes <= max(1, cap)))


def tuple_maskings(length, n_mods, rng):
    """random_maskings as sorted position tuples: each draws its size, then
    its positions."""
    cap = max(1, int(np.ceil(length / 2)))
    out = []
    for _ in range(n_mods):
        size = int(rng.integers(1, cap + 1))
        out.append(tuple(sorted(rng.choice(length, size=size, replace=False).tolist())))
    return out


@given(length=st.integers(1, 12), n_mods=st.integers(0, 30), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_random_maskings_rows_match_position_tuples(length, n_mods, seed):
    masks = random_maskings(length, n_mods, np.random.default_rng(seed))
    tuples = tuple_maskings(length, n_mods, np.random.default_rng(seed))
    assert [tuple(np.flatnonzero(row).tolist()) for row in masks] == tuples


def test_likely_next_thresholding():
    th = Thresholds(delta_pred=0.3)
    top = likely_next(np.array([0.0, 1.0, 0.0, 0.0]), Thresholds(delta_pred=0.5), 3)
    assert top.tolist() == [1]
    assert likely_next(np.full(4, 0.25), th, 4).tolist() == []
    # END (last index) is never included
    assert likely_next(np.array([0.05, 0.05, 0.9]), Thresholds(delta_pred=0.1), 2).tolist() == []


def test_likely_next_mixed_prediction():
    p = np.array([0.15, 0.45, 0.40, 0.0])
    assert likely_next(p, Thresholds(delta_pred=0.3), 3).tolist() == [1, 2]


# ------------------------------------------------- relevant activity scores


def test_relevant_activities_zero_threshold_keeps_all():
    labels = ["A", "B", "C"]
    ids = (0, 1, 2)
    table = {ids: (np.array([0.25, 0.25, 0.25, 0.25]),
                   att_with_column_scores([0.5, 0.3, 0.2]))}
    model = FixedModel(labels, table)
    a_r, psi, _, _ = relevant_activities(model, ids, Thresholds(delta_attr=0.0), n_mods=0)
    assert a_r.tolist() == [0, 1, 2]
    assert psi[0] == 1.0


def test_relevant_activities_two_head_ranking():
    # two heads over <B, A, C, B, E>; the manual column-sum oracle ranks
    # B first and C second
    labels = ["A", "B", "C", "D", "E"]
    ids = (1, 0, 2, 1, 4)
    att = np.zeros((2, 5, 5))
    att[0, 0, :] = [0.1, 0.05, 0.4, 0.5, 0.15]
    att[1, 0, :] = [0.1, 0.05, 0.4, 0.5, 0.15]
    probs = np.array([0.05, 0.45, 0.05, 0.40, 0.05, 0.0])
    model = FixedModel(labels, {ids: (probs, att)})
    a_r, psi, _, _ = relevant_activities(model, ids, Thresholds(delta_attr=0.5), n_mods=0)
    sums = {"B": 0.1 + 0.5, "A": 0.05, "C": 0.4, "E": 0.15}
    top = max(sums.values())
    assert psi[1] == pytest.approx(sums["B"] / top * 2 / 2)  # heads scale out
    assert psi[2] == pytest.approx(sums["C"] / top)
    assert a_r.tolist() == [1, 2]


def test_relevant_activities_dissimilar_mods_excluded():
    # scripted modification prediction is orthogonal -> it must not count
    labels = ["A", "B"]
    ids = (0, 1)
    table = {
        ids: (np.array([1.0, 0.0, 0.0]), att_with_column_scores([0.9, 0.1])),
        (2, 1): (np.array([0.0, 1.0, 0.0]), att_with_column_scores([0.0, 5.0])),
        (0, 2): (np.array([1.0, 0.0, 0.0]), att_with_column_scores([0.3, 0.0])),
    }
    model = FixedModel(labels, table)
    _, psi, _, _ = relevant_activities(model, ids, Thresholds(delta_sim=0.2, delta_attr=0.5),
                                       n_mods=8, seed=0)
    # (2,1) masks A and flips the prediction: its huge B score is ignored;
    # (0,2) agrees and adds to A only
    assert psi[0] == 1.0
    assert psi[1] < 0.5


ABC_MODEL = TransformerModel(TINY_CONFIG, ("A", "B", "C"))


def similar_variant_sums(model, ids, thresholds, n_mods, seed):
    """Per-activity sum dicts of a prefix and then of each of its
    prediction-similar random variants, in variant order."""
    ids = np.asarray(ids)
    p_orig, att_orig = model.forward(ids)
    rows = [reference_score_sums(aggregate_event_scores(att_orig), ids, model.pad_id)]
    for mask in random_maskings(len(ids), n_mods, np.random.default_rng(seed)):
        masked = np.where(mask, model.pad_id, ids)
        if (masked == model.pad_id).all():
            continue
        p_mod, att_mod = model.forward(masked)
        if cosine_distance(p_mod, p_orig) <= thresholds.delta_sim:
            rows.append(reference_score_sums(aggregate_event_scores(att_mod), masked,
                                             model.pad_id))
    return rows


def merged_psi(rows, num_activities):
    """ψ as a dict loop builds it: the rows' sums added one activity at a
    time, in row order, then divided by the top sum."""
    sums = {}
    for row in rows:
        for aid, value in row.items():
            sums[aid] = sums.get(aid, 0.0) + value
    psi = np.zeros(num_activities)
    top = max(sums.values(), default=0.0)
    for aid, value in sums.items():
        psi[aid] = value / top if top > 0.0 else 0.0
    return psi


# A prefix whose ψ changes when the original's sums are added after the
# variants' instead of before them.
MERGE_ORDER_CASE = ((0, 1, 2, 0), 20, 0, 1.0)


@given(st.lists(st.integers(0, 3), min_size=1, max_size=8),  # 3 is PAD
       st.integers(0, 20), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.2, 1.0]))
@example(*MERGE_ORDER_CASE)
@settings(max_examples=40, deadline=None)
def test_relevant_activities_psi_matches_dict_loop(ids, n_mods, seed, delta_sim):
    thresholds = Thresholds(delta_sim=delta_sim)
    a_r, psi, _, _ = relevant_activities(ABC_MODEL, ids, thresholds, n_mods=n_mods, seed=seed)
    rows = similar_variant_sums(ABC_MODEL, ids, thresholds, n_mods, seed)
    assert np.array_equal(psi, merged_psi(rows, 3))
    assert a_r.tolist() == np.flatnonzero(psi > thresholds.delta_attr).tolist()


def loop_relevant_activities(model, ids, thresholds, n_mods, seed):
    """relevant_activities with each variant built from a position tuple and
    each prediction-similar variant's sums added one row at a time."""
    ids = np.asarray(ids)
    maskings = tuple_maskings(len(ids), n_mods, np.random.default_rng(seed))
    variants = np.tile(ids, (len(maskings), 1))
    for row, positions in zip(variants, maskings):
        row[list(positions)] = model.pad_id
    variants = variants[(variants != model.pad_id).any(axis=1)]
    batch = np.vstack([ids, variants])
    probs, att = model.predict(batch)
    sums = activity_score_sums(att, batch, model.pad_id)
    psi_orig = max_normalize(sums[0])
    for row, p_mod in zip(sums[1:], probs[1:]):
        if cosine_distance(p_mod, probs[0]) <= thresholds.delta_sim:
            sums[0] += row
    psi = max_normalize(sums[0])
    return np.flatnonzero(psi > thresholds.delta_attr), psi, probs[0], psi_orig


@given(st.lists(st.integers(0, 3), min_size=1, max_size=8)  # 3 is PAD
       | st.integers(1, 8).map(lambda n: [3] * n),
       st.integers(0, 20), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.2, 1.0]))
@example(*MERGE_ORDER_CASE)
@example([3, 3, 3], 20, 0, 0.2)
@settings(max_examples=40, deadline=None)
def test_relevant_activities_matches_row_loop(ids, n_mods, seed, delta_sim):
    thresholds = Thresholds(delta_sim=delta_sim)
    got = relevant_activities(ABC_MODEL, ids, thresholds, n_mods=n_mods, seed=seed)
    want = loop_relevant_activities(ABC_MODEL, ids, thresholds, n_mods, seed)
    for value, expected in zip(got, want, strict=True):
        assert np.array_equal(value, expected)


def test_merge_order_case_is_order_sensitive():
    ids, n_mods, seed, delta_sim = MERGE_ORDER_CASE
    rows = similar_variant_sums(ABC_MODEL, ids, Thresholds(delta_sim=delta_sim), n_mods, seed)
    assert not np.array_equal(merged_psi(rows[1:] + rows[:1], 3), merged_psi(rows, 3))


def test_relevant_activities_returns_the_unmodified_forward(tiny_model):
    ids = np.array([0, 1, 2, 0])
    _, _, probs, psi_orig = relevant_activities(tiny_model, ids, Thresholds(), n_mods=4)
    expected_probs, expected_att = tiny_model.forward(ids)
    np.testing.assert_array_equal(probs, expected_probs)
    expected_psi = max_normalize(activity_score_sums(expected_att[None], ids[None],
                                                     tiny_model.pad_id))[0]
    np.testing.assert_array_equal(psi_orig, expected_psi)


def test_relevant_activities_rejects_the_empty_prefix_before_drawing(monkeypatch):
    monkeypatch.setattr(explain, "random_maskings", None)  # a draw would raise TypeError
    with pytest.raises(ValueError, match=r"^prefix length 0 outside \[1, 8\]$"):
        relevant_activities(ABC_MODEL, (), Thresholds(), n_mods=3)


# ------------------------------------------------------ backward explainer


def scripted_model(labels, steps):
    """FixedModel over (ids, relevant ids, predicted ids) steps: each
    relevant activity's positions share attention 1, each predicted
    activity gets probability 0.15, so with ``n_mods=0`` and the default
    thresholds the backward explainer sees exactly the scripted sets."""
    nA = len(labels)
    table = {}
    for ids, relevant, predicted in steps:
        scores = [1.0 / ids.count(a) if a in relevant else 0.0 for a in ids]
        probs = np.zeros(nA + 1)
        probs[list(predicted)] = 0.15
        table[tuple(ids)] = (probs, att_with_column_scores(scores))
    return FixedModel(labels, table)


def scripted_backward(steps, labels="ABCD"):
    model = scripted_model(labels, steps)
    return backward_explain(model, [ids for ids, _, _ in steps], n_mods=0)


def test_backward_explain_empty_side_adds_no_vertex():
    A, B, C = 0, 1, 2
    graph = scripted_backward([((A, B), {A, B}, {C})])
    assert graph.vertices == frozenset("ABC")
    assert graph.edges == frozenset({("A", "C"), ("B", "C")})
    for relevant, predicted in (({A, B}, set()), (set(), {C})):
        graph = scripted_backward([((A, B), relevant, predicted)])
        assert graph.vertices == frozenset() and graph.edges == frozenset()


def test_backward_explain_prunes_shortcuts_through_last():
    A, B, C = 0, 1, 2
    # A -> B and B -> C, then A -> C from a prefix ending in B: a shortcut
    graph = scripted_backward([((A,), {A}, {B}), ((B,), {B}, {C}), ((A, B), {A}, {C})])
    assert graph.edges == frozenset({("A", "B"), ("B", "C")})


def test_backward_explain_keeps_edges_incident_to_last():
    B, D = 1, 3
    # (B, D) has the pattern (B, B), (B, D) but touches B itself
    graph = scripted_backward([((B,), {B}, {B, D})])
    assert graph.edges == frozenset({("B", "B"), ("B", "D")})


def test_backward_explain_predicts_each_prefix_once(tiny_model, monkeypatch):
    calls = []
    predict = tiny_model.predict

    def counting_predict(ids, att_mask=None):
        calls.append(ids.shape)
        return predict(ids, att_mask)

    monkeypatch.setattr(tiny_model, "predict", counting_predict)
    pad = tiny_model.pad_id
    backward_explain(tiny_model, [(0, 1, 2), (pad, pad), (1,)], Thresholds(), n_mods=0)
    assert calls == [(1, 3), (1, 1)]  # the all-PAD prefix makes no predict


def set_fold(labels, steps, pad_id):
    """The backward fold over label sets: join each prefix's complete
    bipartite graph, then prune shortcuts through its last activity."""
    vertices, edges = set(), set()
    for ids, relevant, predicted in steps:
        real = [a for a in ids if a != pad_id]
        if not real:
            continue
        if relevant and predicted:
            vertices |= {labels[a] for a in relevant | predicted}
            edges |= {(labels[u], labels[v]) for u in relevant for v in predicted}
        last = labels[real[-1]]
        edges -= {(u, v) for u, v in edges
                  if u != last and v != last and (u, last) in edges and (last, v) in edges}
    return vertices, edges


@st.composite
def backward_steps(draw):
    """Prefixes over nA activities (nA is PAD, so some are all PAD), each
    with a scripted relevant subset of its activities and a predicted set."""
    nA = draw(st.integers(1, 4))
    prefixes = draw(st.lists(st.lists(st.integers(0, nA), min_size=1, max_size=4).map(tuple),
                             max_size=8))
    scripts = {ids: (draw(st.sets(st.sampled_from(sorted(set(ids))))) - {nA},
                     draw(st.sets(st.integers(0, nA - 1))))
               for ids in dict.fromkeys(prefixes)}
    return "ABCD"[:nA], [(ids, *scripts[ids]) for ids in prefixes]


# Repeated last activity (C twice), an empty predicted side, an all-PAD
# prefix and a shortcut A -> C pruned through B.
BACKWARD_CASE = ("ABCD", [((0,), {0}, {1}), ((1, 2, 2), {1}, {2}), ((1, 0), {0}, set()),
                          ((4, 4), set(), {3}), ((0, 1), {0}, {2})])


@given(backward_steps())
@example(BACKWARD_CASE)
@settings(max_examples=150, deadline=None)
def test_backward_explain_matches_set_fold(case):
    labels, steps = case
    graph = scripted_backward(steps, labels)
    vertices, edges = set_fold(labels, steps, len(labels))
    assert graph.vertices == vertices and graph.edges == edges


@pytest.mark.parametrize("seed", range(5))
def test_backward_explain_is_the_set_fold_of_relevant_activities(trained_chain_model, seed):
    model, _ = trained_chain_model
    pad, th = model.pad_id, Thresholds(delta_attr=0.3)
    rng = np.random.default_rng(seed)
    # More than one window of prefixes, repeated and all-PAD ones among them.
    prefixes = [tuple(rng.integers(0, pad + 1, size=rng.integers(1, 7)).tolist())
                for _ in range(80)]
    sub_seeds = np.random.SeedSequence(seed).generate_state(80).tolist()
    steps = {}  # prefix index -> (relevant, likely next), for each prefix with an activity
    for i, (ids, sub_seed) in enumerate(zip(prefixes, sub_seeds)):
        if set(ids) != {pad}:
            a_r, _, p_orig, _ = relevant_activities(model, ids, th, n_mods=8, seed=sub_seed)
            steps[i] = set(a_r.tolist()), set(likely_next(p_orig, th, pad).tolist())
    handle = Explainer("backward", th, n_mods=8, seed=seed)
    assert {i: (set(a_r.tolist()), set(p_r.tolist()))
            for i, _, a_r, p_r, _ in handle._steps(model, prefixes, sub_seeds)} == steps
    vertices, edges = set_fold(model.activity_labels, [
        (ids, *steps.get(i, (set(), set()))) for i, ids in enumerate(prefixes)], pad)
    graph = backward_explain(model, prefixes, th, n_mods=8, seed=seed)
    assert graph.edges and graph.vertices == vertices and graph.edges == edges


def fig_style_mock():
    labels = ["A", "B", "C", "D", "E"]
    # prefix 1: <B, A, C, B, E>, relevant {B, C}, predicted {B, D}
    ids1 = (1, 0, 2, 1, 4)
    att1 = att_with_column_scores([0.2, 0.1, 0.8, 1.0, 0.3])
    probs1 = np.array([0.05, 0.45, 0.05, 0.40, 0.05, 0.0])
    # prefix 2: <A>, relevant {A}, predicted {C}
    ids2 = (0,)
    att2 = np.array([[[1.0]]])
    probs2 = np.array([0.02, 0.02, 0.90, 0.02, 0.02, 0.02])
    model = FixedModel(labels, {ids1: (probs1, att1), ids2: (probs2, att2)})
    return model, [ids1, ids2]


def test_backward_join_and_prune_example():
    model, prefixes = fig_style_mock()
    graph = backward_explain(model, prefixes, Thresholds(delta_attr=0.5, delta_pred=0.1),
                             n_mods=0)
    assert graph.vertices == frozenset({"A", "B", "C", "D"})
    assert graph.edges == frozenset(
        {("C", "B"), ("B", "B"), ("B", "D"), ("C", "D"), ("A", "C")}
    )


# ------------------------------------------------- relevance score fixture


def test_compute_relevance_score_hand_traced():
    # three activities; prefix <A, B> with B masked, both predictions stay
    # similar; expected cells computed by hand
    ids = np.array([0, 1])
    masked = np.array([0, 3])
    psi_orig = np.array([0.5, 1.0, 0.0])
    psi_masked = np.array([1.0, 0.0, 0.0])
    p_orig = np.array([0.2, 0.7, 0.1, 0.0])
    p_masked = np.array([0.24, 0.66, 0.10, 0.0])
    K = compute_relevance_score(ids, masked, psi_orig, psi_masked, p_orig, p_masked,
                                p_r={0, 1}, sim_eps=0.05, num_activities=3)
    expected = np.zeros((3, 3))
    expected[0, 0] = 0.2    # non-masked A, similar: psi_m(A) * p(A)
    expected[0, 1] = -0.2   # masked B, similar: -(p(A) * psi(B))
    expected[1, 0] = 0.7
    expected[1, 1] = -0.7
    np.testing.assert_allclose(K, expected, atol=1e-12)


def test_compute_relevance_score_dissimilar_branch():
    ids = np.array([0, 1])
    masked = np.array([0, 3])
    psi_orig = np.array([0.5, 1.0, 0.0])
    psi_masked = np.array([1.0, 0.0, 0.0])
    p_orig = np.array([0.2, 0.7, 0.1, 0.0])
    p_masked = np.array([0.6, 0.3, 0.1, 0.0])
    K = compute_relevance_score(ids, masked, psi_orig, psi_masked, p_orig, p_masked,
                                p_r={0}, sim_eps=0.05, num_activities=3)
    expected = np.zeros((3, 3))
    expected[0, 1] = 0.2                       # masked B, not similar: +p(A)*psi(B)
    expected[0, 0] = abs(0.5 - 1.0) * abs(0.2 - 0.6)
    np.testing.assert_allclose(K, expected, atol=1e-12)


def reference_relevance(ids, masked, psi_orig, psi_masked, p_orig, p_masked, p_r,
                        sim_eps, num_activities):
    """compute_relevance_score read position by position: for each predicted
    activity, the masked positions first, then the kept non-PAD ones."""
    K = np.zeros((num_activities, num_activities))
    for a in p_r:
        similar = abs(p_orig[a] - p_masked[a]) <= sim_eps
        for a_o, a_m in zip(ids, masked):
            if a_m != a_o:
                s = p_orig[a] * psi_orig[a_o]
                K[a, a_o] += -s if similar else s
        for a_o, a_m in zip(ids, masked):
            if a_m == a_o and a_m < num_activities:
                if similar:
                    K[a, a_m] += psi_masked[a_m] * p_orig[a]
                else:
                    K[a, a_m] += (abs(psi_orig[a_m] - psi_masked[a_m])
                                  * abs(p_orig[a] - p_masked[a]))
    return K


@st.composite
def relevance_cases(draw):
    nA = draw(st.integers(1, 5))
    ids = draw(st.lists(st.integers(0, nA), min_size=1, max_size=10))  # nA is PAD
    hide = draw(st.lists(st.booleans(), min_size=len(ids), max_size=len(ids)))
    masked = [nA if h else a for a, h in zip(ids, hide)]
    psi = st.lists(st.floats(0, 1), min_size=nA, max_size=nA).map(np.array)
    p_orig = draw(st.lists(st.floats(0, 1), min_size=nA + 1, max_size=nA + 1))
    moved = draw(st.lists(st.floats(-0.2, 0.2) | st.just(0.0), min_size=nA + 1,
                          max_size=nA + 1))
    return dict(ids=ids, masked=masked, psi_orig=draw(psi), psi_masked=draw(psi),
                p_orig=np.array(p_orig), p_masked=np.array(p_orig) + moved,
                p_r=draw(st.sets(st.integers(0, nA - 1))),
                sim_eps=draw(st.sampled_from([0.0, 0.05, 1.0])), num_activities=nA)


# Activity 0 both masked and kept, a PAD in the prefix.
SHARED_ACTIVITY_CASE = dict(ids=[0, 1, 0, 2], masked=[2, 1, 0, 2], psi_orig=np.array([0.5, 0.0]),
                            psi_masked=np.array([0.0, 1.0]), p_orig=np.array([0.3, 0.6, 0.1]),
                            p_masked=np.array([0.3, 0.2, 0.1]), p_r={0, 1},
                            sim_eps=0.0, num_activities=2)


@given(relevance_cases())
@example(SHARED_ACTIVITY_CASE)
@example({**SHARED_ACTIVITY_CASE, "p_r": set()})
@settings(max_examples=200, deadline=None)
def test_compute_relevance_score_matches_position_by_position(case):
    K = compute_relevance_score(np.array(case["ids"]), np.array(case["masked"]),
                                case["psi_orig"], case["psi_masked"], case["p_orig"],
                                case["p_masked"], case["p_r"], case["sim_eps"],
                                case["num_activities"])
    assert np.array_equal(K, reference_relevance(**case))


@st.composite
def relevance_batches(draw):
    """relevance_cases for a (V, T) batch of 0 to 6 variants of one prefix.
    ids may hold PAD (nA) and END (nA + 1); only real ids are masked."""
    nA = draw(st.integers(1, 5))
    ids = draw(st.lists(st.integers(0, nA + 1), min_size=1, max_size=10))
    V = draw(st.integers(0, 6))
    hides = draw(st.lists(st.lists(st.booleans(), min_size=len(ids), max_size=len(ids)),
                          min_size=V, max_size=V))
    psi = st.lists(st.floats(0, 1), min_size=nA, max_size=nA)
    p_orig = np.array(draw(st.lists(st.floats(0, 1), min_size=nA + 1, max_size=nA + 1)))
    moved = st.lists(st.floats(-0.2, 0.2) | st.just(0.0), min_size=nA + 1, max_size=nA + 1)
    variants = [[nA if h and a < nA else a for a, h in zip(ids, hide)] for hide in hides]
    return dict(ids=np.array(ids), variants=np.array(variants, dtype=int).reshape(V, len(ids)),
                psi_orig=np.array(draw(psi)),
                psi_var=np.array(draw(st.lists(psi, min_size=V, max_size=V))).reshape(V, nA),
                p_orig=p_orig,
                p_var=p_orig + np.array(draw(st.lists(moved, min_size=V, max_size=V))
                                        ).reshape(V, nA + 1),
                p_r=np.array(sorted(draw(st.sets(st.integers(0, nA - 1)))), dtype=int),
                sim_eps=draw(st.sampled_from([0.0, 0.05, 1.0])), num_activities=nA)


# SHARED_ACTIVITY_CASE's prefix, PAD included, with three variants.
SHARED_ACTIVITY_BATCH = dict(
    ids=np.array([0, 1, 0, 2]), variants=np.array([[2, 1, 0, 2], [0, 2, 2, 2], [2, 2, 2, 2]]),
    psi_orig=np.array([0.5, 0.0]), psi_var=np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]]),
    p_orig=np.array([0.3, 0.6, 0.1]),
    p_var=np.array([[0.3, 0.2, 0.1], [0.3, 0.6, 0.1], [0.1, 0.6, 0.3]]),
    p_r=np.array([0, 1]), sim_eps=0.0, num_activities=2)


@given(relevance_batches())
@example(SHARED_ACTIVITY_BATCH)
@example({**SHARED_ACTIVITY_BATCH, "p_r": np.zeros(0, dtype=int)})
@example({**SHARED_ACTIVITY_BATCH, "variants": np.zeros((0, 4), dtype=int),
          "psi_var": np.zeros((0, 2)), "p_var": np.zeros((0, 3))})
@example({**SHARED_ACTIVITY_BATCH, "ids": np.array([0, 1, 0, 3]),  # 3 is END, kept
          "variants": np.array([[2, 1, 0, 3], [0, 2, 2, 3], [2, 2, 2, 3]])})
@settings(max_examples=150, deadline=None)
def test_relevance_scores_match_per_pair_reference(batch):
    nA = batch["num_activities"]
    per_variant = relevance_scores(**batch)
    assert per_variant.shape == (len(batch["variants"]), nA, nA)
    total = np.zeros((nA, nA))
    for K, masked, psi_m, p_m in zip(per_variant, batch["variants"], batch["psi_var"],
                                     batch["p_var"]):
        reference = reference_relevance(batch["ids"], masked, batch["psi_orig"], psi_m,
                                        batch["p_orig"], p_m, batch["p_r"], batch["sim_eps"], nA)
        assert np.array_equal(K, reference)
        total += reference
    if len(per_variant):  # variants added in order, as score_matrices_for_prefix adds them
        assert np.array_equal(np.cumsum(per_variant, axis=0)[-1], total)


def test_subsets_stop_once_every_subset_is_drawn():
    n = 9
    rng = np.random.default_rng(5)
    rows = _subsets(n, 5000, rng)  # a cap above 2^n
    assert len(rows) == 2**n == len({row.tobytes() for row in rows})
    replay, seen = np.random.default_rng(5), set()
    while len(seen) < 2**n:
        seen.add((replay.random(n) < 0.5).tobytes())
    assert rng.random() == replay.random()  # no draw after the last new subset


def test_row_normalize_magnitudes():
    m = np.array([[3.0, 1.0], [-1.0, 0.0], [0.0, 0.0]])
    out = row_normalize(m)
    np.testing.assert_allclose(out[0], [0.75, 0.25])
    np.testing.assert_allclose(out[1], [1.0, 0.0])   # magnitude of the -1
    np.testing.assert_allclose(out[2], [0.0, 0.0])   # zero rows stay zero


@given(st.lists(st.lists(st.floats(-5, 5), min_size=3, max_size=3),
                min_size=1, max_size=5),
       st.lists(st.booleans(), min_size=5, max_size=5))
@settings(max_examples=100, deadline=None)
def test_row_normalize_rows_sum_to_one_or_zero(rows, zero_rows):
    m = np.array(rows)
    m[np.array(zero_rows[:len(rows)])] = 0.0
    out = row_normalize(m)
    for row in out:
        assert np.all(row >= 0.0)
        total = row.sum()
        assert total == pytest.approx(1.0, abs=1e-9) or total == 0.0
    expected = np.zeros_like(m)  # row by row
    for i, row in enumerate(np.abs(m)):
        if row.sum() > 0.0:
            expected[i] = row / row.sum()
    assert np.array_equal(out, expected)


def test_attention_exploration_determinism():
    model, prefixes = fig_style_mock()
    g1 = attention_exploration_explain(model, prefixes, Thresholds(), seed=3)
    g2 = attention_exploration_explain(model, prefixes, Thresholds(), seed=3)
    assert g1 == g2


def test_attention_exploration_without_relevant_activities_has_no_edges(tiny_model):
    # no ψ exceeds delta_attr = 1, so both scenario batches have zero rows
    g = attention_exploration_explain(tiny_model, [(0, 1, 2), (1, 3), (3, 3)],
                                      Thresholds(delta_attr=1.0))
    assert g.edges == frozenset()


def test_attention_exploration_edge_ceiling():
    # no row-normalized entry exceeds 1, so delta_edge = 1.0 yields no edges
    model, prefixes = fig_style_mock()
    g = attention_exploration_explain(model, prefixes, Thresholds(delta_edge=1.0), seed=3)
    assert g.edges == frozenset()


# ---------------------------------------------------------------- exports


def test_dot_output_is_sorted_and_quoted():
    g = ExplanationGraph.make({"B", 'A"x'}, {('A"x', "B")})
    dot = to_dot(g)
    assert dot.startswith("digraph explanation {")
    assert '"A\\"x" -> "B";' in dot
    assert dot.index('"A\\"x";') < dot.index('"B";')


def test_json_round_trip():
    g = ExplanationGraph.make({"A", "B", "C"}, {("A", "B"), ("B", "C")})
    payload = json.loads(to_json(g))
    assert set(payload["vertices"]) == g.vertices
    assert {tuple(e) for e in payload["edges"]} == g.edges


# ----------------------------------------------------- explainer handle

LONG_MODEL = TransformerModel(ModelConfig(d_k=8, h=2, max_len=16, ff_dim=8, seed=0),
                              ("A", "B", "C"))
LONG_PAD = LONG_MODEL.pad_id
LOOP_PREFIX = (0, 1, 2) * 4  # every position relevant: subsets are sampled
ALONE_PREFIXES = st.lists(
    st.just(()) | st.integers(1, 4).map(lambda n: (LONG_PAD,) * n)
    | st.lists(st.integers(0, LONG_PAD), min_size=1, max_size=6).map(tuple),
    min_size=1, max_size=6)


def test_loop_prefix_has_more_than_eight_relevant_positions():
    a_r = relevant_activities(LONG_MODEL, LOOP_PREFIX, Thresholds(), n_mods=3)[0]
    assert np.isin(LOOP_PREFIX, a_r).sum() > 8


@given(ALONE_PREFIXES, st.integers(0, 8), st.integers(0, 3),
       st.sampled_from(["backward", "attention-exploration"]))
@settings(max_examples=30, deadline=None)
def test_explaining_prefixes_alone_equals_one_prefix_calls(prefixes, where, seed, method):
    prefixes = prefixes + prefixes[:2]  # repeated prefixes
    prefixes.insert(where % (len(prefixes) + 1), LOOP_PREFIX)
    handle = Explainer(method, n_mods=3, subset_cap=4, seed=seed)
    together, alone = prefixes[:3], prefixes[::-1]
    graph, rules = handle.explain(LONG_MODEL, together, alone)
    for prefix, rule in zip(alone, rules, strict=True):
        if set(prefix) <= {LONG_PAD}:  # empty or all PAD: no activity
            assert rule is None
        else:
            last = LONG_MODEL.activity_labels[[a for a in prefix if a != LONG_PAD][-1]]
            assert rule == handle(LONG_MODEL, [prefix]).successors(last)
    assert graph == handle(LONG_MODEL, together)


def test_explainer_functions_are_the_handle():
    prefixes = [(0, 1), (2, 0, 1), LOOP_PREFIX]
    thresholds = Thresholds(delta_attr=0.3)
    assert (backward_explain(LONG_MODEL, prefixes, thresholds, n_mods=5, seed=2)
            == Explainer("backward", thresholds, n_mods=5, seed=2)(LONG_MODEL, prefixes))
    assert (attention_exploration_explain(LONG_MODEL, prefixes, thresholds, 4, 2, 5)
            == Explainer("attention-exploration", thresholds, 5, 4, 2)(LONG_MODEL, prefixes))


def test_explaining_same_length_prefixes_alone_scores_once_per_pass(monkeypatch):
    calls = []
    score_rows = explain.score_rows

    def counting(model, ids, att_mask=None, sums=False):
        calls.append(len(ids))
        return score_rows(model, ids, att_mask, sums)

    monkeypatch.setattr(explain, "score_rows", counting)
    prefixes = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 0, 1), (1, 1, 1)]
    for method, passes in (("backward", 1), ("attention-exploration", 2)):
        calls.clear()
        Explainer(method, n_mods=4).explain(ABC_MODEL, (), prefixes)
        assert len(calls) == passes


@pytest.mark.parametrize("method", ["backward", "attention-exploration"])
def test_phase_calls_hold_at_most_the_row_bound(monkeypatch, method):
    rng = np.random.default_rng(0)
    # One window of one length: about 21 relevance rows a prefix, over 1024 in all.
    prefixes = [tuple(rng.integers(0, 3, size=10).tolist()) for _ in range(explain._WINDOW)]
    calls = []
    score_rows = explain.score_rows

    def counting(model, ids, att_mask=None, sums=False):
        calls.append(len(ids))
        return score_rows(model, ids, att_mask, sums)

    monkeypatch.setattr(explain, "score_rows", counting)
    handle = Explainer(method, Thresholds(delta_attr=0.0), n_mods=20, subset_cap=16, seed=1)
    graph = handle(LONG_MODEL, prefixes)
    assert graph.edges and sum(calls) > explain._PHASE_ROWS >= max(calls)
    # A bound below every block: each block has a call of its own, unsplit.
    monkeypatch.setattr(explain, "_PHASE_ROWS", 7)
    calls.clear()
    assert handle(LONG_MODEL, prefixes) == graph
    assert len(calls) >= len(prefixes) and max(calls) > 7
