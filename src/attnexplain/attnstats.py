"""Attention-score and probability-distribution arithmetic.

Covers flattening attention tensors into L1-normalized distributions,
the divergence/distance measures used by the pre-study (Jensen-Shannon
divergence with natural log, total variation distance, cosine distance),
and the column-sum aggregation that turns attention tensors into
per-event and per-activity relevance scores.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError, DimensionError


def flatten(att: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Flatten an (h, T, T) attention tensor into distributions.

    Returns per-head distributions (row-major flattening of each head's
    matrix, divided by its component sum) and the combined distribution
    over the concatenation of all heads.
    """
    att = np.asarray(att, dtype=float)
    if att.ndim != 3:
        raise DimensionError(f"expected (h, T, T) tensor, got shape {att.shape}")
    grand = att.sum()
    if grand <= 0.0:
        raise DegenerateInputError("attention tensor sums to zero")
    per_head = []
    for head in att:
        s = head.sum()
        if s <= 0.0:
            raise DegenerateInputError("attention head sums to zero")
        per_head.append(head.reshape(-1) / s)
    combined = att.reshape(-1) / grand
    return per_head, combined


def kl(p: np.ndarray, q: np.ndarray) -> float:
    """Kullback-Leibler divergence with natural log and 0*log(0) = 0."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mask = p > 0.0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def jsd(a: np.ndarray, b: np.ndarray) -> float:
    """Jensen-Shannon divergence (natural log; bounded by log 2)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DimensionError(f"length mismatch: {a.shape} vs {b.shape}")
    m = 0.5 * (a + b)
    return 0.5 * kl(a, m) + 0.5 * kl(b, m)


def tvd(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance, 0.5 * sum |p_i - q_i|."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise DimensionError(f"length mismatch: {p.shape} vs {q.shape}")
    return float(0.5 * np.sum(np.abs(p - q)))


def cosine_distance(p: np.ndarray, q: np.ndarray) -> float:
    """1 - cosine similarity; in [0, 1] for non-negative vectors."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise DimensionError(f"length mismatch: {p.shape} vs {q.shape}")
    np_norm = np.linalg.norm(p)
    nq_norm = np.linalg.norm(q)
    if np_norm == 0.0 or nq_norm == 0.0:
        raise DegenerateInputError("cosine distance undefined for zero vectors")
    return float(1.0 - np.dot(p, q) / (np_norm * nq_norm))


def aggregate_event_scores(att: np.ndarray) -> np.ndarray:
    """Per-event total attention scores.

    The heads' matrices are summed component-wise and each column j is
    summed: score j is the total attention paid *to* position j across
    all heads.
    """
    att = np.asarray(att, dtype=float)
    if att.ndim != 3:
        raise DimensionError(f"expected (h, T, T) tensor, got shape {att.shape}")
    return att.sum(axis=0).sum(axis=0)


def activity_score_sums(eta: np.ndarray, activities, pad_id: int) -> dict[int, float]:
    """Raw per-activity sums of event scores; PAD positions excluded."""
    eta = np.asarray(eta, dtype=float)
    activities = list(activities)
    if len(eta) != len(activities):
        raise DimensionError(f"|eta|={len(eta)} but |prefix|={len(activities)}")
    sums: dict[int, float] = {}
    for score, aid in zip(eta, activities):
        if aid == pad_id:
            continue
        sums[aid] = sums.get(aid, 0.0) + float(score)
    return sums


def max_normalize(scores: dict[int, float]) -> dict[int, float]:
    """Divide by the maximum component so the top score is exactly 1."""
    if not scores:
        raise DegenerateInputError("no activity scores to normalize (all-PAD prefix?)")
    top = max(scores.values())
    if top <= 0.0:
        raise DegenerateInputError("non-positive maximum activity score")
    return {aid: value / top for aid, value in scores.items()}


def aggregate_activity_scores(eta: np.ndarray, activities, pad_id: int) -> dict[int, float]:
    """Max-normalized per-activity attention scores for one prefix."""
    return max_normalize(activity_score_sums(eta, activities, pad_id))

