"""Straight-line reference forward pass and the forward-agreement check.

The reference is written from the model description, one head and one
attention row at a time, so that it shares no code with the vectorised
``TransformerModel._forward_batch`` it checks.
"""

from __future__ import annotations

import math

import numpy as np

TOLERANCE = 1e-6


def _layer_norm(row, gamma, beta, eps=1e-5):
    mu = sum(row) / len(row)
    var = sum((x - mu) ** 2 for x in row) / len(row)
    return np.array([g * (x - mu) / math.sqrt(var + eps) + b
                     for x, g, b in zip(row, gamma, beta)])


def _softmax(values):
    top = max(values)
    exps = [math.exp(v - top) for v in values]
    total = sum(exps)
    return np.array([e / total for e in exps])


def reference_forward(model, ids, masked_positions=()):
    """(probs, attention) for one id sequence; ``masked_positions`` zeroes
    those rows and columns of every head's attention after the softmax.
    The returned attention is taken before masking."""
    cfg, p = model.config, model.params
    ids = [int(a) for a in ids]
    T, d, h = len(ids), cfg.d_k, cfg.h
    dh = d // h
    masked = set(masked_positions)
    x = [p["embed"][a] + model.pos_enc[t] for t, a in enumerate(ids)]
    att = np.zeros((h, T, T))
    concat = [np.zeros(d) for _ in range(T)]
    for k in range(h):
        q = [xt @ p["Wq"][k] for xt in x]
        key = [xt @ p["Wk"][k] for xt in x]
        v = [xt @ p["Wv"][k] for xt in x]
        for t in range(T):
            if model.frozen_attention:
                row = np.full(T, 1.0 / T)
            else:
                row = _softmax([float(q[t] @ key[s]) / math.sqrt(d) for s in range(T)])
            att[k, t] = row
            out = np.zeros(dh)
            if t not in masked:
                for s in range(T):
                    if s not in masked:
                        out = out + row[s] * v[s]
            concat[t][k * dh:(k + 1) * dh] = out
    pooled = np.zeros(d)
    for t in range(T):
        n1 = _layer_norm(x[t] + concat[t] @ p["Wo"], p["ln1_g"], p["ln1_b"])
        hidden = np.maximum(n1 @ p["W1"] + p["b1"], 0.0)
        n2 = _layer_norm(n1 + hidden @ p["W2"] + p["b2"], p["ln2_g"], p["ln2_b"])
        pooled = pooled + n2 / T
    logits = pooled @ p["Wout"] + p["bout"]
    return _softmax(list(logits)), att


def sample_forward_cases(prefixes, pad_id, n, rng):
    """``n`` plain, ``n`` input-masked and ``n`` attention-masked cases,
    each ``(kind, ids, masked_positions)``, drawn from ``prefixes``."""
    cases = []
    pool = [tuple(p.activities) for p in prefixes]
    for kind in ("plain", "input_masked", "attention_masked"):
        for _ in range(n):
            ids = list(pool[int(rng.integers(len(pool)))])
            positions = ()
            if kind != "plain" and len(ids) > 1:
                size = int(rng.integers(1, len(ids)))
                positions = tuple(sorted(rng.choice(len(ids), size=size, replace=False).tolist()))
            if kind == "input_masked":
                ids = [pad_id if i in positions else a for i, a in enumerate(ids)]
                positions = ()
            cases.append((kind, ids, positions))
    return cases


def forward_mismatch(model, ids, masked_positions) -> float:
    """Largest absolute difference between the model's forward and the
    reference, over the probabilities and the attention tensor."""
    probs, att = model.forward(np.asarray(ids, dtype=int),
                               masked_positions=set(masked_positions) or None)
    ref_probs, ref_att = reference_forward(model, ids, masked_positions)
    return max(float(np.max(np.abs(np.asarray(probs) - ref_probs))),
               float(np.max(np.abs(np.asarray(att) - ref_att))))
