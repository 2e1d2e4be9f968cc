"""Attention-score and probability-distribution arithmetic.

Covers flattening attention tensors into L1-normalized distributions,
the divergence/distance measures used by the pre-study (Jensen-Shannon
divergence with natural log, total variation distance, cosine distance),
and the column-sum aggregation that turns attention tensors into
per-event and per-activity relevance scores. Activity scores are
``(..., |A|)`` arrays indexed by activity id, one row per prefix of a
batch; an activity absent from a prefix scores 0.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateInputError, DimensionError


def flatten(att: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flatten a (..., h, T, T) attention batch into distributions.

    Returns the per-head distributions, (..., h, T*T): each head's matrix
    flattened row-major and divided by its component sum; and the
    combined distribution over the concatenation of all heads,
    (..., h*T*T).
    """
    att = np.asarray(att, dtype=float)
    if att.ndim < 3:
        raise DimensionError(f"expected (..., h, T, T) tensor, got shape {att.shape}")
    *lead, h, rows, cols = att.shape
    heads = att.reshape(*lead, h, rows * cols)
    combined = att.reshape(*lead, h * rows * cols)
    grand = combined.sum(axis=-1, keepdims=True)
    if np.any(grand <= 0.0):
        raise DegenerateInputError("attention tensor sums to zero")
    head_sums = heads.sum(axis=-1, keepdims=True)
    if np.any(head_sums <= 0.0):
        raise DegenerateInputError("attention head sums to zero")
    return heads / head_sums, combined / grand


def jsd(a: np.ndarray, b: np.ndarray) -> np.ndarray | float:
    """Jensen-Shannon divergence over the last axis (natural log, bounded
    by log 2, 0*log(0) = 0); leading axes broadcast, and 1-D inputs give
    a float."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[-1:] != b.shape[-1:]:
        raise DimensionError(f"length mismatch: {a.shape} vs {b.shape}")
    m = 0.5 * (a + b)

    def relative_entropy(p):  # KL(p || m)
        ratio = np.divide(p, m, out=np.ones_like(m), where=p > 0.0)
        return np.sum(p * np.log(ratio), axis=-1)

    return 0.5 * relative_entropy(a) + 0.5 * relative_entropy(b)


def tvd(p: np.ndarray, q: np.ndarray) -> np.ndarray | float:
    """Total variation distance over the last axis, 0.5 * sum |p_i - q_i|;
    leading axes broadcast, and 1-D inputs give a float."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape[-1:] != q.shape[-1:]:
        raise DimensionError(f"length mismatch: {p.shape} vs {q.shape}")
    return 0.5 * np.sum(np.abs(p - q), axis=-1)


def cosine_distance(p: np.ndarray, q: np.ndarray) -> float:
    """1 - cosine similarity; in [0, 1] for non-negative vectors."""
    p = np.asarray(p, dtype=float)
    if p.shape != np.shape(q):
        raise DimensionError(f"length mismatch: {p.shape} vs {np.shape(q)}")
    return float(cosine_distances(p[None], q)[0])


def cosine_distances(P: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``cosine_distance`` of each row of a (B, n) batch to an (n,) vector.
    A row takes the 1-D products ``np.linalg.norm`` and ``np.dot`` take,
    so its distance does not depend on the rest of the batch."""
    P, q = np.asarray(P, dtype=float), np.asarray(q, dtype=float)
    if P.shape[1:] != q.shape:
        raise DimensionError(f"length mismatch: {P.shape[1:]} vs {q.shape}")
    q_norm = _norm(q)
    distances = np.empty(len(P))
    for k, p in enumerate(P):
        p_norm = _norm(p)
        if p_norm == 0.0 or q_norm == 0.0:
            raise DegenerateInputError("cosine distance undefined for zero vectors")
        distances[k] = 1.0 - np.dot(p, q) / (p_norm * q_norm)
    return distances


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm(x)`` of a real array, without its per-call checks."""
    x = x.ravel(order="K")
    return math.sqrt(x.dot(x))


def aggregate_event_scores(att: np.ndarray) -> np.ndarray:
    """Per-event total attention scores, (..., T) for (..., h, T, T).

    The heads' matrices are summed component-wise and each column j is
    summed: score j is the total attention paid *to* position j across
    all heads.
    """
    att = np.asarray(att, dtype=float)
    if att.ndim < 3:
        raise DimensionError(f"expected (..., h, T, T) tensor, got shape {att.shape}")
    return att.sum(axis=-3).sum(axis=-2)


def activity_score_sums(att: np.ndarray, ids, pad_id: int) -> np.ndarray:
    """Raw per-activity sums of event scores, (B, |A|) for a (B, h, T, T)
    attention batch over (B, T) ids; PAD positions are excluded. Each
    activity's positions are added in position order."""
    ids = np.asarray(ids, dtype=int)
    eta = aggregate_event_scores(att)
    if eta.shape != ids.shape or ids.ndim != 2:
        raise DimensionError(f"event scores {eta.shape} but ids {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() > pad_id):
        raise DimensionError(f"activity id outside [0, {pad_id}]")
    B, width = len(ids), pad_id + 1
    rows = ids + width * np.arange(B)[:, None]
    sums = np.bincount(rows.ravel(), weights=eta.ravel(), minlength=B * width)
    return sums.reshape(B, width)[:, :pad_id].astype(float, copy=False)


def max_normalize(scores: np.ndarray) -> np.ndarray:
    """Divide each row by its maximum so its top score is exactly 1; an
    all-zero row (an all-PAD prefix) stays zero."""
    top = scores.max(axis=-1, keepdims=True, initial=0.0)
    return np.divide(scores, top, out=np.zeros_like(scores), where=top > 0.0)
