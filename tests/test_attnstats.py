import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial import distance as sp_dist

from attnexplain.attnstats import (
    activity_score_sums,
    aggregate_event_scores,
    cosine_distance,
    cosine_distances,
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
    with pytest.raises(DegenerateInputError):  # one zero head in a batch
        flatten(np.stack([np.ones((2, 2, 2)), [np.ones((2, 2)), np.zeros((2, 2))]]))


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


# Two attention stacks, (2, B, h, T, T), whose cells are often exactly 0;
# each head keeps a positive sum.
_attention_pairs = st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 4)).flatmap(
    lambda shape: hnp.arrays(float, (2, *shape, shape[-1]),
                             elements=st.one_of(st.just(0.0), st.floats(1e-6, 1.0))))


@given(_attention_pairs)
@example(np.array([[[[[1.0, 0.0], [0.0, 0.0]]]], [[[[0.0, 1.0], [0.0, 0.0]]]]]))  # disjoint
@settings(max_examples=150, deadline=None)
def test_batched_rows_equal_single_calls(pair):
    pair[..., 0, 0] += pair.sum(axis=(-2, -1)) == 0.0
    heads, combined = flatten(pair)
    for k, b in np.ndindex(pair.shape[:2]):
        heads_row, combined_row = flatten(pair[k, b])
        assert np.array_equal(heads[k, b], heads_row)
        assert np.array_equal(combined[k, b], combined_row)
    for dist in (heads, combined):
        p, q = dist
        for fn in (jsd, tvd):
            batch = fn(p, q)
            assert batch.shape == p.shape[:-1]
            for b in np.ndindex(batch.shape):
                assert np.array_equal(batch[b], fn(p[b], q[b]))
            assert np.array_equal(fn(p[0], q), [fn(p[0], row) for row in q])  # broadcast


def test_distance_shape_mismatch():
    with pytest.raises(DimensionError):
        jsd(np.ones(2) / 2, np.ones(3) / 3)
    with pytest.raises(DimensionError):
        tvd(np.ones(2), np.ones(3))
    with pytest.raises(DimensionError):
        jsd(np.ones((4, 2)) / 2, np.ones((4, 3)) / 3)
    with pytest.raises(DimensionError, match=r"length mismatch: \(2,\) vs \(3,\)"):
        cosine_distance(np.ones(2), np.ones(3))
    with pytest.raises(DimensionError, match=r"length mismatch: \(3,\) vs \(2,\)"):
        cosine_distances(np.ones((4, 3)), np.ones(2))
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


def test_aggregate_event_scores_keeps_batch_axes():
    rng = np.random.default_rng(5)
    att = rng.random((3, 2, 4, 4))
    eta = aggregate_event_scores(att)
    assert eta.shape == (3, 4)
    for row, att_row in zip(eta, att):
        assert np.array_equal(row, aggregate_event_scores(att_row))
    with pytest.raises(DimensionError):
        aggregate_event_scores(np.ones((4, 4)))


def column_score_batch(rows):
    """(B, 1, T, T) attention whose per-column sums are the given rows."""
    rows = np.asarray(rows, dtype=float).reshape(len(rows), -1)
    att = np.zeros((len(rows), 1, rows.shape[1], rows.shape[1]))
    att[:, 0, 0, :] = rows
    return att


def test_activity_score_sums_groups_and_skips_pad():
    att = column_score_batch([[0.4, 0.3, 0.2, 0.1], [0.5, 0.25, 0.125, 0.125]])
    sums = activity_score_sums(att, [[1, 0, 1, 3], [3, 3, 3, 3]], pad_id=3)
    assert sums.shape == (2, 3) and sums.dtype == float
    np.testing.assert_allclose(sums[0], [0.3, 0.6, 0.0])  # the PAD's 0.1 is dropped
    assert np.array_equal(sums[1], np.zeros(3))             # all-PAD row
    with pytest.raises(DimensionError):
        activity_score_sums(att, [[0, 1], [0, 1]], pad_id=3)
    with pytest.raises(DimensionError):
        activity_score_sums(att[:1], [[0, 1, 4, 2]], pad_id=3)  # past PAD


def test_activity_score_sums_empty_batch():
    sums = activity_score_sums(np.zeros((0, 2, 3, 3)), np.zeros((0, 3), dtype=int), pad_id=3)
    assert sums.shape == (0, 3) and sums.dtype == float
    assert max_normalize(sums).shape == (0, 3)


def reference_score_sums(eta, activities, pad_id):
    """Per-activity sums of one prefix as a dict, added position by position."""
    sums = {}
    for score, aid in zip(eta, activities):
        if aid != pad_id:
            sums[aid] = sums.get(aid, 0.0) + float(score)
    return sums


@given(st.integers(0, 4), st.integers(1, 6), st.integers(1, 4), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_activity_score_sums_rows_match_dict_loop(B, T, nA, seed):
    rng = np.random.default_rng(seed)
    att = rng.random((B, 2, T, T)) * 10.0 ** rng.integers(-3, 4)
    ids = rng.integers(0, nA + 1, size=(B, T))  # id nA is PAD; T > nA repeats ids
    sums = activity_score_sums(att, ids, pad_id=nA)
    assert sums.shape == (B, nA)
    for row, att_row, ids_row in zip(sums, att, ids):
        expected = np.zeros(nA)
        reference = reference_score_sums(aggregate_event_scores(att_row), ids_row, nA)
        expected[list(reference)] = list(reference.values())
        assert np.array_equal(row, expected)


def test_max_normalize():
    scores = max_normalize(np.array([[2.0, 1.0, 0.5], [0.0, 0.0, 0.0], [0.0, 0.3, 0.0]]))
    assert np.array_equal(scores, [[1.0, 0.5, 0.25], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert np.array_equal(max_normalize(np.array([0.0, 4.0])), [0.0, 1.0])  # one prefix


def test_normalized_activity_scores_top_is_one():
    att = column_score_batch([[0.4, 0.3, 0.2]])
    scores = max_normalize(activity_score_sums(att, [[0, 1, 0]], pad_id=3))[0]
    assert scores[0] == 1.0
    assert scores[1] == pytest.approx(0.5)
    assert scores[2] == 0.0
