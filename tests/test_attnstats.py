import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import distance as sp_dist

from attnexplain.attnstats import (
    activity_score_sums,
    aggregate_activity_scores,
    aggregate_event_scores,
    cosine_distance,
    flatten,
    jsd,
    max_normalize,
    tvd,
)
from attnexplain.errors import DegenerateInputError, DimensionError


def random_distribution_pairs(n, dim, seed):
    rng = np.random.default_rng(seed)
    raw = rng.random((n, 2, dim)) + 1e-9
    return raw / raw.sum(axis=-1, keepdims=True)


# ------------------------------------------------------------------ flatten


def test_flatten_shapes_and_sums():
    rng = np.random.default_rng(0)
    att = rng.random((3, 4, 4))
    per_head, combined = flatten(att)
    assert len(per_head) == 3
    for dist in per_head:
        assert dist.shape == (16,)
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)
    assert combined.shape == (48,)
    assert combined.sum() == pytest.approx(1.0, abs=1e-12)


def test_flatten_rejects_bad_input():
    with pytest.raises(DimensionError):
        flatten(np.ones((4, 4)))
    with pytest.raises(DegenerateInputError):
        flatten(np.zeros((1, 2, 2)))


# ---------------------------------------------------------------- distances


def test_jsd_matches_scipy_oracle():
    pairs = random_distribution_pairs(2000, 8, seed=1)
    for p, q in pairs:
        oracle = float(sp_dist.jensenshannon(p, q)) ** 2  # natural log
        assert jsd(p, q) == pytest.approx(oracle, abs=1e-12)


def test_tvd_matches_scipy_oracle():
    pairs = random_distribution_pairs(2000, 8, seed=2)
    for p, q in pairs:
        oracle = 0.5 * sp_dist.cityblock(p, q)
        assert tvd(p, q) == pytest.approx(oracle, abs=1e-12)


def test_cosine_matches_scipy_oracle():
    pairs = random_distribution_pairs(2000, 8, seed=3)
    for p, q in pairs:
        assert cosine_distance(p, q) == pytest.approx(sp_dist.cosine(p, q), abs=1e-12)


def test_jsd_disjoint_is_log2():
    p = np.array([1.0, 0.0])
    q = np.array([0.0, 1.0])
    assert jsd(p, q) == pytest.approx(np.log(2.0), abs=1e-12)


def test_tvd_disjoint_is_exactly_one():
    assert tvd(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0


def test_self_distance_is_exact_zero():
    p = np.array([0.3, 0.5, 0.2])
    assert jsd(p, p) == 0.0
    assert tvd(p, p) == 0.0


@given(st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=10),
       st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=10))
@settings(max_examples=200, deadline=None)
def test_jsd_properties(a, b):
    n = min(len(a), len(b))
    p = np.array(a[:n]) / np.sum(a[:n])
    q = np.array(b[:n]) / np.sum(b[:n])
    value = jsd(p, q)
    assert -1e-12 <= value <= np.log(2.0) + 1e-12
    assert value == pytest.approx(jsd(q, p), abs=1e-12)


@given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=10),
       st.lists(st.floats(0.0, 1.0), min_size=2, max_size=10))
@settings(max_examples=200, deadline=None)
def test_tvd_bounds_and_symmetry(a, b):
    n = min(len(a), len(b))
    p, q = np.array(a[:n]), np.array(b[:n])
    assert tvd(p, q) == tvd(q, p)
    assert tvd(p, q) >= 0.0


def test_distance_shape_mismatch():
    with pytest.raises(DimensionError):
        jsd(np.ones(2) / 2, np.ones(3) / 3)
    with pytest.raises(DimensionError):
        tvd(np.ones(2), np.ones(3))
    with pytest.raises(DegenerateInputError):
        cosine_distance(np.zeros(3), np.ones(3))


# ------------------------------------------------------------- aggregation


def test_aggregate_event_scores_column_sums():
    att = np.zeros((2, 3, 3))
    att[0] = [[0.5, 0.3, 0.2], [0.1, 0.8, 0.1], [0.2, 0.2, 0.6]]
    att[1] = np.eye(3)
    eta = aggregate_event_scores(att)
    combined = att.sum(axis=0)
    np.testing.assert_allclose(eta, combined.sum(axis=0), atol=1e-12)


def test_eta_total_is_heads_times_length():
    rng = np.random.default_rng(4)
    raw = rng.random((4, 6, 6))
    att = raw / raw.sum(axis=-1, keepdims=True)  # proper attention rows
    eta = aggregate_event_scores(att)
    assert eta.sum() == pytest.approx(4 * 6, abs=1e-9)


def test_activity_score_sums_groups_and_skips_pad():
    eta = np.array([0.4, 0.3, 0.2, 0.1])
    sums = activity_score_sums(eta, [1, 0, 1, 3], pad_id=3)
    assert sums == {1: pytest.approx(0.6), 0: pytest.approx(0.3)}
    with pytest.raises(DimensionError):
        activity_score_sums(eta, [0, 1], pad_id=3)


def test_max_normalize():
    scores = max_normalize({0: 2.0, 1: 1.0, 2: 0.5})
    assert scores == {0: 1.0, 1: 0.5, 2: 0.25}
    with pytest.raises(DegenerateInputError):
        max_normalize({})
    with pytest.raises(DegenerateInputError):
        max_normalize({0: 0.0})


def test_aggregate_activity_scores_top_is_one():
    eta = np.array([0.4, 0.3, 0.2])
    scores = aggregate_activity_scores(eta, [0, 1, 0], pad_id=3)
    assert scores[0] == 1.0
    assert scores[1] == pytest.approx(0.5)
