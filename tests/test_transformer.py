import io
import json
import warnings
from dataclasses import replace
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from attnexplain import transformer
from attnexplain.attnstats import activity_score_sums
from attnexplain.errors import (
    CheckpointError,
    DimensionError,
    DivergenceError,
    TrainingDataError,
    UsageError,
)
from attnexplain.eventlog import build_log, extract_prefixes
from attnexplain.metrics import weighted_f1
from attnexplain.transformer import (
    ATTENTION_FROZEN_UNIFORM,
    _LN_EPS,
    _PREDICT_TOKENS,
    SIZE_LIMITS,
    ModelConfig,
    TransformerModel,
    gradient_check,
    _embedding_grad,
    _layer_norm,
    _layer_norm_backward,
    _row_max,
    score_rows,
    sinusoidal_positions,
    train,
)
from conftest import TINY_CONFIG, reference_forward


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(d_k=10, h=4)
    with pytest.raises(ValueError):
        ModelConfig(h=0)
    with pytest.raises(ValueError):
        ModelConfig(attention_mode="nope")
    for bad in ({"d_k": 0, "h": 1}, {"batch_size": 0}, {"epochs": -1}, {"ff_dim": 0},
                {"learning_rate": 0.0}, {"learning_rate": -0.01},
                {"learning_rate": float("inf")}, {"learning_rate": float("nan")},
                {"pad_dropout": "x"}, {"pad_dropout": None}, {"pad_dropout": True},
                {"pad_dropout": 1.0}, {"pad_dropout": 1.5}, {"pad_dropout": -0.1},
                {"pad_dropout": float("nan")}, {"d_k": 36.0}, {"h": 4.0}, {"max_len": True},
                {"ff_dim": "64"}, {"epochs": 30.0}, {"batch_size": None}):
        with pytest.raises(ValueError):
            ModelConfig(**bad)
    for good in (0, 0.0, 0.5, np.float64(0.25)):
        assert ModelConfig(pad_dropout=good).pad_dropout == good
    assert ModelConfig(d_k=np.int64(8), h=np.int32(2)).d_k == 8


@pytest.mark.parametrize("name", sorted(SIZE_LIMITS))
def test_config_rejects_sizes_above_their_limit(name):
    # A config allocates nothing; the model built from it would.
    limit = SIZE_LIMITS[name]
    at_limit = ModelConfig(**{name: limit, "h": 1})
    assert getattr(at_limit, name) == limit
    for above in (limit + 1, 10_000_000_000_000):
        message = rf"^{name} must be an integer in \[1, {limit}\], got {above}$"
        with pytest.raises(UsageError, match=message):
            ModelConfig(**{name: above, "h": 1})


def test_sinusoidal_positions_values():
    enc = sinusoidal_positions(4, 6)
    assert enc.shape == (4, 6)
    assert enc[0, 0] == 0.0 and enc[0, 1] == 1.0
    assert enc[2, 0] == pytest.approx(np.sin(2.0))
    assert enc[1, 3] == pytest.approx(np.cos(1.0 / 10000.0 ** (2.0 / 6.0)))


def test_forward_matches_reference(tiny_model):
    rng = np.random.default_rng(0)
    for _ in range(10):
        T = int(rng.integers(1, 7))
        ids = rng.integers(0, tiny_model.vocab_size, size=T)
        probs, att = tiny_model.forward(ids)
        ref_probs, ref_att = reference_forward(tiny_model, ids)
        np.testing.assert_allclose(probs, ref_probs, atol=1e-9)
        np.testing.assert_allclose(att, ref_att, atol=1e-9)


def test_attention_masked_forward_matches_reference(tiny_model):
    ids = np.array([0, 1, 2, 0])
    for masked in ({0}, {1, 3}, {2}):
        probs, att = tiny_model.forward(ids, masked_positions=masked)
        ref_probs, ref_att = reference_forward(tiny_model, ids, masked_positions=masked)
        np.testing.assert_allclose(probs, ref_probs, atol=1e-9)
        # the captured attention is always the unmasked one
        np.testing.assert_allclose(att, ref_att, atol=1e-9)


def test_attention_rows_sum_to_one(tiny_model):
    _, att = tiny_model.forward(np.array([0, 1, 2]))
    np.testing.assert_allclose(att.sum(axis=-1), 1.0, atol=1e-12)


def test_probs_are_distribution(tiny_model):
    probs, _ = tiny_model.forward(np.array([1, 2]))
    assert probs.shape == (tiny_model.num_classes,)
    assert np.all(probs >= 0.0)
    assert probs.sum() == pytest.approx(1.0)


def test_forward_rejects_bad_input(tiny_model):
    with pytest.raises(ValueError):
        tiny_model.forward(np.arange(TINY_CONFIG.max_len + 1) % 3)
    with pytest.raises(IndexError):
        tiny_model.forward(np.array([99]))
    with pytest.raises(IndexError):
        tiny_model.forward(np.array([0, 1]), masked_positions={5})


def test_gradient_check_small(tiny_model):
    prefixes = [np.array([0, 1, 2])]
    err = gradient_check(tiny_model, prefixes[0], n_samples=20, seed=0)
    assert err < 1e-4


def test_gradient_check_frozen(abc_log):
    cfg = ModelConfig(d_k=8, h=2, max_len=8, ff_dim=8,
                      attention_mode=ATTENTION_FROZEN_UNIFORM)
    model = TransformerModel(cfg, abc_log.activity_labels)
    err = gradient_check(model, np.array([0, 1, 2]), n_samples=20, seed=0)
    assert np.isfinite(err) and err < 1e-4


@pytest.mark.parametrize("mode", ["learned", ATTENTION_FROZEN_UNIFORM])
def test_gradient_check_on_trained_model(abc_log, mode):
    """A model's projections view the parameter buffer with gaps between
    their rows, where ``reshape(-1)`` copies; the check must perturb the
    parameter itself."""
    model = train(abc_log, replace(TINY_CONFIG, attention_mode=mode))
    err = gradient_check(model, extract_prefixes(abc_log)[3], n_samples=20, seed=0)
    assert err < 1e-4


@given(d=st.integers(1, 64), rows=st.integers(1, 12), log_scale=st.floats(-3, 3),
       constant=st.booleans(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_layer_norm_matches_mean_var_reference(d, rows, log_scale, constant, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    shape = (rows, 2, d)
    if constant:  # every row one value: variance 0
        x = np.broadcast_to(rng.normal(size=(rows, 2, 1)) * scale, shape).copy()
    else:
        x = (rng.normal(size=shape) + rng.normal()) * scale
    gamma, beta, dy = rng.normal(size=d), rng.normal(size=d), rng.normal(size=x.shape)

    y, cache = _layer_norm(x, gamma, beta)
    dgamma, dbeta = np.empty(d), np.empty(d)
    dx = _layer_norm_backward(dy, cache, gamma, dgamma, dbeta)

    inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + _LN_EPS)
    xhat = (x - x.mean(axis=-1, keepdims=True)) * inv
    dxhat = dy * gamma
    ref_dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    # Both here and in the model a row's mean is rounded to a few ulps of
    # its values, and the norm divides by the row's spread; so the absolute
    # tolerance grows with |x| / spread: about 1 for spread rows, up to
    # |x| / sqrt(eps) for constant ones, whose exact output is beta.
    atol = 1e-12 * max(1.0, float(np.max(np.abs(x) * inv)))
    assert np.all(np.isfinite(y)) and np.all(np.isfinite(dx))
    np.testing.assert_allclose(y, gamma * xhat + beta, rtol=1e-12, atol=atol)
    np.testing.assert_allclose(dx, ref_dx, rtol=1e-12, atol=atol)
    np.testing.assert_allclose(dgamma, (dy * xhat).sum(axis=(0, 1)), rtol=1e-12, atol=atol)
    np.testing.assert_allclose(dbeta, dy.sum(axis=(0, 1)), rtol=1e-12, atol=1e-12)


def test_embedding_grad_sums_repeated_ids():
    # id 2 repeats within row 0 and across rows 0, 1 and 2; id 4 is unused
    ids = np.array([[2, 0, 2, 1], [3, 2, 1, 1], [2, 2, 2, 0]])
    dX = np.random.default_rng(4).normal(size=(*ids.shape, 6))
    expected = np.zeros((5, 6))
    np.add.at(expected, ids, dX)
    grad = _embedding_grad(ids, dX, 5)
    np.testing.assert_allclose(grad, expected, rtol=0, atol=1e-14)
    assert np.all(grad[4] == 0.0)


@pytest.mark.parametrize("mode", ["learned", ATTENTION_FROZEN_UNIFORM])
def test_batch_loss_and_grads_are_row_means(abc_log, mode):
    # h=2, B=3: the head and row reshapes of the batched backward, which
    # the B=1 gradient check cannot tell apart
    model = TransformerModel(replace(TINY_CONFIG, attention_mode=mode), abc_log.activity_labels,
                             rng=np.random.default_rng(5))
    ids = np.array([[0, 1, 2, 0], [2, 2, 1, 3], [1, 0, 3, 2]])
    targets = np.array([1, 3, 0])
    loss, grads = model.loss_and_grads(ids, targets)
    rows = [model.loss_and_grads(ids[i:i + 1], targets[i:i + 1]) for i in range(3)]
    assert loss == pytest.approx(np.mean([row_loss for row_loss, _ in rows]), abs=1e-12)
    for name, grad in grads.items():
        mean = np.mean([row_grads[name] for _, row_grads in rows], axis=0)
        np.testing.assert_allclose(grad, mean, rtol=0, atol=1e-12, err_msg=name)


def test_batch_forward_rows_match_single_forward(tiny_model):
    ids = np.array([[0, 1, 2, 0, 1], [2, 2, 1, 3, 0], [1, 0, 3, 2, 2]])
    probs, att, _ = tiny_model._forward_batch(ids)
    for row, probs_row, att_row in zip(ids, probs, att):
        single_probs, single_att = tiny_model.forward(row)
        np.testing.assert_array_equal(probs_row, single_probs)
        np.testing.assert_array_equal(att_row, single_att)


@pytest.mark.parametrize("mode", ["learned", ATTENTION_FROZEN_UNIFORM])
def test_batch_forward_applies_each_rows_attention_mask(abc_log, mode):
    model = TransformerModel(replace(TINY_CONFIG, attention_mode=mode), abc_log.activity_labels,
                             rng=np.random.default_rng(3))
    ids = np.array([[0, 1, 2, 0, 1], [2, 2, 1, 3, 0], [1, 0, 3, 2, 2]])
    att_mask = np.array([[False, True, False, False, True],
                         [False, False, False, False, False],
                         [True, True, True, True, True]])
    probs, att, _ = model._forward_batch(ids, False, att_mask)
    for row, mask_row, probs_row, att_row in zip(ids, att_mask, probs, att):
        masked = set(np.flatnonzero(mask_row).tolist())
        single_probs, single_att = model.forward(row, masked_positions=masked)
        np.testing.assert_array_equal(probs_row, single_probs)
        np.testing.assert_array_equal(att_row, single_att)
        ref_probs, ref_att = reference_forward(model, row, masked_positions=masked)
        np.testing.assert_allclose(probs_row, ref_probs, rtol=0, atol=1e-6)
        np.testing.assert_allclose(att_row, ref_att, rtol=0, atol=1e-6)


PREDICT_MODELS = {mode: TransformerModel(replace(TINY_CONFIG, attention_mode=mode),
                                         ["A", "B", "C"], rng=np.random.default_rng(5))
                  for mode in ("learned", ATTENTION_FROZEN_UNIFORM)}


@given(mode=st.sampled_from(sorted(PREDICT_MODELS)), T=st.integers(1, TINY_CONFIG.max_len),
       extra_rows=st.integers(0, 8), seed=st.integers(0, 2**32 - 1), masked=st.booleans())
@settings(max_examples=50, deadline=None)
def test_predict_rows_equal_forward_exactly(mode, T, extra_rows, seed, masked):
    model = PREDICT_MODELS[mode]
    B = _PREDICT_TOKENS // T + 1 + extra_rows  # one full chunk and part of a second
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, model.vocab_size, size=(B, T))
    att_mask = rng.random((B, T)) < 0.4 if masked else None
    probs, att = model.predict(ids, att_mask)
    assert probs.shape == (B, model.num_classes) and att.shape == (B, TINY_CONFIG.h, T, T)
    for i, row in enumerate(ids):
        positions = set() if att_mask is None else set(np.flatnonzero(att_mask[i]).tolist())
        single_probs, single_att = model.forward(row, masked_positions=positions)
        np.testing.assert_array_equal(probs[i], single_probs)
        np.testing.assert_array_equal(att[i], single_att)


def _out_of_place_forward(model, ids, keep_cache=False, att_mask=None):
    """``TransformerModel._forward_batch`` written out of place: every op
    allocates its result, the row max is a reduction and pooling is
    ``mean``. The in-place forward must equal it bit for bit."""
    p = model.params
    B, T = ids.shape
    d, h = model.config.d_k, model.config.h
    scale = 1.0 / np.sqrt(d)
    X0 = p["embed"][ids] + model.pos_enc[:T][None, :, :]
    names = model._projection_names()
    W = np.concatenate([p[n] for n in names]).transpose(1, 0, 2).reshape(d, -1)
    QKV = (X0 @ W).reshape(B, T, len(names), h, d // h).transpose(2, 0, 3, 1, 4)
    Vv = QKV[-1]
    if model.frozen_attention:
        Q = K = None
        A = np.full((B, h, T, T), 1.0 / T)
    else:
        Q, K = QKV[0], QKV[1]
        S = (Q @ K.swapaxes(-1, -2)) * scale
        S = S - S.max(axis=-1, keepdims=True)
        expS = np.exp(S)
        A = expS / (expS @ np.ones((T, 1)))
    att = A
    if att_mask is not None:
        keep = ~att_mask
        A = A * (keep[:, None, :, None] & keep[:, None, None, :])
    Hc = (A @ Vv).transpose(0, 2, 1, 3).reshape(B, T, d)
    R1 = X0 + Hc @ p["Wo"]
    N1, ln1_cache = _out_of_place_layer_norm(R1, p["ln1_g"], p["ln1_b"])
    U = N1 @ p["W1"] + p["b1"]
    Urelu = np.maximum(U, 0.0)
    R2 = N1 + (Urelu @ p["W2"] + p["b2"])
    N2, ln2_cache = _out_of_place_layer_norm(R2, p["ln2_g"], p["ln2_b"])
    pooled = N2.mean(axis=1)
    logits = (pooled[:, None, :] @ p["Wout"])[:, 0] + p["bout"]
    logits = logits - logits.max(axis=-1, keepdims=True)
    expl = np.exp(logits)
    probs = expl / expl.sum(axis=-1, keepdims=True)
    cache = None
    if keep_cache:
        cache = dict(X0=X0, W=W, Q=Q, K=K, V=Vv, A=A, Hc=Hc, N1=N1, ln1=ln1_cache,
                     U=U, Urelu=Urelu, ln2=ln2_cache, pooled=pooled)
    return probs, att, cache


def _out_of_place_layer_norm(x, gamma, beta):
    w = np.full((x.shape[-1], 1), 1.0 / x.shape[-1])
    xc = x - x @ w
    inv = 1.0 / np.sqrt((xc * xc) @ w + _LN_EPS)
    xhat = xc * inv
    return gamma * xhat + beta, (xhat, inv, w)


def assert_bits_equal(got, want, err_msg=""):
    """Equal bit for bit: same dtype, shape and bytes, so a -0.0 against a
    0.0 fails too, which ``assert_array_equal`` alone lets pass."""
    np.testing.assert_array_equal(got, want, err_msg=err_msg)
    assert got.dtype == want.dtype, err_msg
    np.testing.assert_array_equal(np.ascontiguousarray(got).view(np.uint8),
                                  np.ascontiguousarray(want).view(np.uint8), err_msg=err_msg)


@given(mode=st.sampled_from(sorted(PREDICT_MODELS)), T=st.integers(1, TINY_CONFIG.max_len),
       full_chunks=st.integers(0, 1), extra_rows=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1), masked=st.booleans())
@settings(max_examples=40, deadline=None)
def test_forward_is_bitwise_the_out_of_place_forward(mode, T, full_chunks, extra_rows, seed,
                                                     masked):
    """The in-place forward, its cache, ``predict`` over a partial last
    chunk and ``loss_and_grads`` equal the out-of-place form bit for bit."""
    model = PREDICT_MODELS[mode]
    B = full_chunks * max(1, _PREDICT_TOKENS // T) + extra_rows  # never a whole chunk count
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, model.vocab_size, size=(B, T))
    att_mask = rng.random((B, T)) < 0.4 if masked else None
    for keep_cache in (False, True):
        probs, att, cache = model._forward_batch(ids, keep_cache, att_mask)
        want_probs, want_att, want_cache = _out_of_place_forward(model, ids, keep_cache, att_mask)
        assert_bits_equal(probs, want_probs)
        assert_bits_equal(att, want_att)
        assert (cache is None) == (not keep_cache)
        if keep_cache:
            assert cache.keys() == want_cache.keys()
            for name, want in want_cache.items():
                if want is None:
                    assert cache[name] is None, name
                    continue
                got = cache[name]
                wants = want if isinstance(want, tuple) else (want,)
                gots = got if isinstance(got, tuple) else (got,)
                assert len(gots) == len(wants), name
                for g, w in zip(gots, wants):
                    assert_bits_equal(g, w, err_msg=name)
    probs, att = model.predict(ids, att_mask)
    assert_bits_equal(probs, want_probs)
    assert_bits_equal(att, want_att)

    targets = rng.integers(0, model.num_classes, size=B)
    loss, grads = model.loss_and_grads(ids, targets)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_forward_batch", partial(_out_of_place_forward, model))
        want_loss, want_grads = model.loss_and_grads(ids, targets)
    assert_bits_equal(np.float64(loss), np.float64(want_loss))
    assert grads.keys() == want_grads.keys()
    for name, want in want_grads.items():
        assert_bits_equal(grads[name], want, err_msg=name)


def _out_of_place_loss_and_grads(model, ids, targets):
    """``TransformerModel.loss_and_grads`` written out of place on
    ``_out_of_place_forward``: every op allocates its result, the fused
    projection gradient is split into per-head blocks and each gradient
    is its own array. The in-place backward must equal it bit for bit."""
    p = model.params
    B, T = ids.shape
    d, h = model.config.d_k, model.config.h
    BT = B * T
    scale = 1.0 / np.sqrt(d)
    probs, _, c = _out_of_place_forward(model, ids, keep_cache=True)
    loss = float(-np.log(probs[np.arange(B), targets] + 1e-12).sum() / B)
    dlogits = probs.copy()
    dlogits[np.arange(B), targets] -= 1.0
    dlogits /= B
    g = {}
    g["Wout"] = c["pooled"].T @ dlogits
    g["bout"] = dlogits.sum(axis=0)
    dpooled = dlogits @ p["Wout"].T
    dN2 = np.broadcast_to((dpooled / T)[:, None, :], (B, T, d))
    dR2, g["ln2_g"], g["ln2_b"] = _out_of_place_layer_norm_backward(dN2, c["ln2"], p["ln2_g"])
    g["W2"] = c["Urelu"].reshape(BT, -1).T @ dR2.reshape(BT, d)
    g["b2"] = dR2.sum(axis=(0, 1))
    dU = (dR2 @ p["W2"].T) * (c["U"] > 0.0)
    g["W1"] = c["N1"].reshape(BT, d).T @ dU.reshape(BT, -1)
    g["b1"] = dU.sum(axis=(0, 1))
    dN1 = dR2 + dU @ p["W1"].T
    dR1, g["ln1_g"], g["ln1_b"] = _out_of_place_layer_norm_backward(dN1, c["ln1"], p["ln1_g"])
    g["Wo"] = c["Hc"].reshape(BT, d).T @ dR1.reshape(BT, d)
    dH = (dR1 @ p["Wo"].T).reshape(B, T, h, d // h).transpose(0, 2, 1, 3)
    A = c["A"]
    names = model._projection_names()
    dQKV = np.empty((B, T, len(names), h, d // h))
    blocks = dQKV.transpose(2, 0, 3, 1, 4)
    np.matmul(A.swapaxes(-1, -2), dH, out=blocks[-1])
    if model.frozen_attention:
        g["Wq"] = np.zeros_like(p["Wq"])
        g["Wk"] = np.zeros_like(p["Wk"])
    else:
        dA = dH @ c["V"].swapaxes(-1, -2)
        dS = A * (dA - (dA * A) @ np.ones((T, 1))) * scale
        np.matmul(dS, c["K"], out=blocks[0])
        np.matmul(dS.swapaxes(-1, -2), c["Q"], out=blocks[1])
    dQKV = dQKV.reshape(BT, -1)
    gW = c["X0"].reshape(BT, d).T @ dQKV
    for i, name in enumerate(names):
        g[name] = _head_blocks(gW[:, i * d:(i + 1) * d], h)
    dX0 = dR1 + (dQKV @ c["W"].T).reshape(B, T, d)
    g["embed"] = _out_of_place_embedding_grad(ids, dX0, model.vocab_size)
    return loss, g


def _out_of_place_layer_norm_backward(dy, cache, gamma):
    xhat, inv, w = cache
    d = dy.shape[-1]
    ones = np.ones(dy.size // d)
    dgamma = ones @ (dy * xhat).reshape(-1, d)
    dbeta = ones @ dy.reshape(-1, d)
    dxhat = dy * gamma
    dx = inv * (dxhat - dxhat @ w - xhat * ((dxhat * xhat) @ w))
    return dx, dgamma, dbeta


def _head_blocks(G, h):
    """(d, h*dh) head-major columns -> (h, d, dh) per-head blocks."""
    return G.reshape(G.shape[0], h, -1).transpose(1, 0, 2)


def _out_of_place_embedding_grad(ids, dX, vocab_size):
    onehot = ids.reshape(-1, 1) == np.arange(vocab_size)
    return onehot.T @ dX.reshape(ids.size, -1)


# The tiny sizes and the default ones (d_k 36, h 4, ff 64), which the benchmark trains.
BACKWARD_MODELS = {(size, mode): TransformerModel(replace(config, attention_mode=mode),
                                                  ["A", "B", "C"], rng=np.random.default_rng(5))
                   for size, config in (("tiny", TINY_CONFIG), ("default", ModelConfig(max_len=24)))
                   for mode in ("learned", ATTENTION_FROZEN_UNIFORM)}


@given(case=st.sampled_from(sorted(BACKWARD_MODELS)).flatmap(lambda key: st.tuples(
           st.just(key), st.integers(1, BACKWARD_MODELS[key].config.max_len))),
       B=st.sampled_from([16, 32]) | st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
@example(case=(("default", "learned"), 24), B=16, seed=0)
@example(case=(("default", ATTENTION_FROZEN_UNIFORM), 24), B=13, seed=1)
@settings(max_examples=40, deadline=None)
def test_backward_is_bitwise_the_out_of_place_backward(case, B, seed):
    """``loss_and_grads`` equals the out-of-place backward bit for bit:
    the loss and all 15 gradients, in both attention modes, at every
    length and at batch sizes that are a multiple of 16 and that are not."""
    key, T = case
    model = BACKWARD_MODELS[key]
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, model.vocab_size, size=(B, T))
    targets = rng.integers(0, model.num_classes, size=B)
    loss, grads = model.loss_and_grads(ids, targets)
    want_loss, want_grads = _out_of_place_loss_and_grads(model, ids, targets)
    assert_bits_equal(np.float64(loss), np.float64(want_loss))
    assert grads.keys() == want_grads.keys() == model.params.keys()
    for name, want in want_grads.items():
        assert_bits_equal(grads[name], want, err_msg=name)


@given(S=hnp.arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 2),
                                         st.integers(1, 30)).map(lambda s: (*s, s[2])),
                    elements=st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf])
                    | st.floats(allow_nan=False)))
@example(S=np.array([[[[-0.0]]]]))
@example(S=np.array([[[[0.0, -0.0], [-0.0, 0.0]]]]))
@example(S=np.array([[[[-np.finfo(float).max, 2.0**970], [2.0**970, 2.0**970]]]]))
@settings(max_examples=200, deadline=None)
def test_row_max_equals_the_max_reduction(S):
    """``_row_max`` equals ``S.max(axis=-1, keepdims=True)``, ties and
    infinities included. Only the sign of a zero maximum may differ (the
    reduction's vector lanes pick either zero), and the softmax numerator
    ``exp(S - max)`` is bitwise the same either way."""
    got, want = _row_max(S), S.max(axis=-1, keepdims=True)
    np.testing.assert_array_equal(got, want)  # counts 0.0 == -0.0
    nonzero = want != 0.0
    assert_bits_equal(got[nonzero], want[nonzero])
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf; -max - max overflows
        assert_bits_equal(np.exp(S - got), np.exp(S - want))


def test_integer_attention_mask_equals_the_boolean_mask():
    """A 0/1 integer mask masks as the boolean mask does; ``~1`` would be -2."""
    model = PREDICT_MODELS["learned"]
    ids = np.array([[0, 1, 2]])
    int_mask, bool_mask = np.array([[1, 0, 0]]), np.array([[True, False, False]])
    for score in (model.predict, partial(score_rows, model, sums=True)):
        for got, want in zip(score(ids, int_mask), score(ids, bool_mask)):
            assert_bits_equal(got, want)
        with pytest.raises(DimensionError, match=r"shape \(1, 2\) .* shape \(1, 3\)"):
            score(ids, np.array([[1, 0]]))
    assert not np.array_equal(model.predict(ids, int_mask)[0], model.predict(ids)[0])


@st.composite
def scored_batches(draw):
    """A (B, T) id batch over PREDICT_MODELS' vocabulary with repeated and
    all-PAD rows in any order, possibly empty, and an attention mask or
    None."""
    T = draw(st.integers(1, TINY_CONFIG.max_len))
    row = st.lists(st.integers(0, 3), min_size=T, max_size=T)  # 3 is PAD
    distinct = draw(st.lists(row | st.just([3] * T), min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), max_size=12))
    ids = np.array([distinct[i] for i in picks], dtype=int).reshape(len(picks), T)
    if not draw(st.booleans()):
        return ids, None
    masks = draw(st.lists(st.lists(st.booleans(), min_size=T, max_size=T), min_size=1,
                          max_size=3))
    mask_picks = draw(st.lists(st.integers(0, len(masks) - 1), min_size=len(picks),
                               max_size=len(picks)))
    return ids, np.array([masks[i] for i in mask_picks], dtype=bool).reshape(len(picks), T)


@given(mode=st.sampled_from(sorted(PREDICT_MODELS)), sums=st.booleans(), batch=scored_batches(),
       chunk=st.sampled_from([1, 3, transformer._SCORE_ROWS]))
@example(mode="learned", sums=True, batch=(np.zeros((0, 3), dtype=int), None), chunk=3)
@example(mode="learned", sums=False, batch=(np.zeros((0, 3), dtype=int),
                                             np.zeros((0, 3), dtype=bool)), chunk=3)
@settings(max_examples=50, deadline=None)
def test_row_scores_equal_predict_and_forward_each_row_once(mode, sums, batch, chunk):
    """``score_rows`` equals ``predict`` and ``activity_score_sums`` bit for
    bit, and forwards each distinct (ids, mask) row once, in chunks of
    ``_SCORE_ROWS`` rows or of fewer."""
    ids, att_mask = batch
    model = PREDICT_MODELS[mode]
    probs, att = model.predict(ids, att_mask)
    forwarded, sizes = [], []

    def keys(ids, att_mask):
        masks = [b""] * len(ids) if att_mask is None else [m.tobytes() for m in att_mask]
        return [(row.tobytes(), m) for row, m in zip(ids, masks)]

    def recording_predict(ids, att_mask=None):
        sizes.append(len(ids))
        forwarded.extend(keys(ids, att_mask))
        return TransformerModel.predict(model, ids, att_mask)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "predict", recording_predict)
        mp.setattr(transformer, "_SCORE_ROWS", chunk)
        got_probs, got_sums = score_rows(model, ids, att_mask, sums=sums)
    np.testing.assert_array_equal(got_probs, probs)
    want_sums = activity_score_sums(att, ids, model.pad_id) if sums else np.empty((len(ids), 0))
    np.testing.assert_array_equal(got_sums, want_sums)
    assert sorted(forwarded) == sorted(set(keys(ids, att_mask)))
    assert all(size <= chunk for size in sizes)


def test_row_scores_sum_no_end_ids():
    model = PREDICT_MODELS["learned"]
    ids = np.array([[0, 1, model.end_id]])
    with pytest.raises(DimensionError, match="activity id outside"):
        score_rows(model, ids, sums=True)
    probs, sums = score_rows(model, ids)
    np.testing.assert_array_equal(probs, model.predict(ids)[0])
    assert sums.shape == (1, 0)


def test_row_scores_reject_rows_of_length_zero():
    model = PREDICT_MODELS["learned"]
    with pytest.raises(ValueError, match=r"^prefix length 0 outside \[1, 8\]$"):
        score_rows(model, np.zeros((3, 0), dtype=int), sums=True)
    probs, sums = score_rows(model, np.zeros((0, 0), dtype=int))  # no rows, nothing to reject
    assert probs.shape == (0, model.num_classes) and sums.shape == (0, 0)

def test_frozen_forward_and_backward_never_read_qk(abc_log):
    cfg = replace(TINY_CONFIG, attention_mode=ATTENTION_FROZEN_UNIFORM)
    model = TransformerModel(cfg, abc_log.activity_labels)
    model.params["Wq"][:] = np.nan
    model.params["Wk"][:] = np.nan
    ids = np.array([[0, 1, 2], [2, 1, 0]])
    probs, _, cache = model._forward_batch(ids, True)
    assert np.all(np.isfinite(probs))
    # the forward projects V alone: no Q or K, and a (d, d) fused matrix
    assert cache["Q"] is None and cache["K"] is None
    assert cache["W"].shape == (cfg.d_k, cfg.d_k)
    loss, grads = model.loss_and_grads(ids, np.array([1, 3]))
    assert np.isfinite(loss)
    for name, grad in grads.items():
        assert np.all(np.isfinite(grad)), name
    assert np.all(grads["Wq"] == 0.0) and np.all(grads["Wk"] == 0.0)


def test_frozen_uniform_attention_exact(abc_log):
    cfg = ModelConfig(d_k=8, h=2, max_len=8, ff_dim=8,
                      attention_mode=ATTENTION_FROZEN_UNIFORM)
    model = TransformerModel(cfg, abc_log.activity_labels)
    for T in (1, 2, 5):
        _, att = model.forward(np.arange(T) % 3)
        assert np.all(att == 1.0 / T)


def test_target_class_mapping(tiny_model):
    assert tiny_model.target_class(0) == 0
    assert tiny_model.target_class(tiny_model.end_id) == tiny_model.num_classes - 1
    with pytest.raises(IndexError):
        tiny_model.target_class(tiny_model.pad_id)


def test_train_deterministic(abc_log):
    m1 = train(abc_log, TINY_CONFIG)
    m2 = train(abc_log, TINY_CONFIG)
    for name in m1.params:
        np.testing.assert_array_equal(m1.params[name], m2.params[name])


def _reference_sgd_train(logobj, config):
    """``train`` as a straight loop: batches assembled with ``np.stack``,
    the same random draws, the out-of-place backward and one
    ``param -= lr * grad`` per parameter."""
    prefixes = extract_prefixes(logobj)
    config = replace(config, max_len=max(config.max_len,
                                         max(len(p.activities) for p in prefixes)))
    init_seed, epoch_seed = np.random.SeedSequence(entropy=config.seed).spawn(2)
    model = TransformerModel(config, logobj.activity_labels, rng=np.random.default_rng(init_seed))
    epoch_rng = np.random.default_rng(epoch_seed)
    targets = np.array([model.target_class(p.target) for p in prefixes])
    id_arrays = [np.asarray(p.activities, dtype=int) for p in prefixes]
    lengths = np.array([len(a) for a in id_arrays])
    for _epoch in range(config.epochs):
        order = epoch_rng.permutation(len(prefixes))
        batches = []
        for length in np.unique(lengths):
            bucket = order[lengths[order] == length]
            for start in range(0, len(bucket), config.batch_size):
                batches.append(bucket[start:start + config.batch_size])
        batch_order = epoch_rng.permutation(len(batches))
        for batch in (batches[i] for i in batch_order):
            ids = np.stack([id_arrays[i] for i in batch])
            if config.pad_dropout > 0.0:
                drop = epoch_rng.random(ids.shape) < config.pad_dropout
                ids = np.where(drop, model.pad_id, ids)
            _, grads = _out_of_place_loss_and_grads(model, ids, targets[batch])
            for name, grad in grads.items():
                model.params[name] -= config.learning_rate * grad
    return model


@pytest.mark.parametrize("mode", ["learned", ATTENTION_FROZEN_UNIFORM])
def test_train_matches_reference_sgd_loop(mode):
    # prefixes of lengths 1 to 4, several batches per length, PAD dropout on
    logobj = build_log([(f"c{i}", trace) for i, trace in enumerate(
        [["A", "B", "C", "D"], ["A", "C"], ["B", "C", "D"], ["A", "B", "D"]] * 3)])
    config = replace(TINY_CONFIG, attention_mode=mode, epochs=3, batch_size=3, pad_dropout=0.3)
    model = train(logobj, config)
    reference = _reference_sgd_train(logobj, config)
    assert model.params.keys() == reference.params.keys()
    for name in model.params:
        np.testing.assert_array_equal(model.params[name], reference.params[name], err_msg=name)


def test_train_seed_changes_weights(abc_log):
    m1 = train(abc_log, TINY_CONFIG)
    m2 = train(abc_log, replace(TINY_CONFIG, seed=9))
    assert any(not np.array_equal(m1.params[n], m2.params[n]) for n in m1.params)


def test_train_learns_chain(trained_chain_model):
    model, logobj = trained_chain_model
    a, b = (logobj.vocabulary.index(label) for label in "AB")
    assert model.predict_label([a]) == "B"
    assert model.predict_label([a, b]) == "C"
    prefixes = extract_prefixes(logobj)
    assert weighted_f1(model, prefixes) == pytest.approx(1.0, abs=0.01)


def test_train_bumps_max_len(abc_log):
    cfg = ModelConfig(d_k=8, h=2, max_len=2, ff_dim=8, epochs=1)
    model = train(abc_log, cfg)
    assert model.config.max_len >= 3


def test_train_divergence_detected(abc_log):
    cfg = ModelConfig(d_k=8, h=2, max_len=8, ff_dim=8, epochs=30, learning_rate=1e6)
    with pytest.raises(DivergenceError):
        train(abc_log, cfg)


def test_train_rejects_a_log_without_traces(abc_log):
    with pytest.raises(TrainingDataError, match="no prefixes extractable from the log"):
        train(abc_log.with_traces([]), TINY_CONFIG)


def test_train_rejects_parameters_left_non_finite(abc_log, monkeypatch):
    # a finite loss, so only the check after the last step sees the damage
    def infinite_gradients(self, ids, targets):
        return 1.0, SimpleNamespace(flat=np.full(self.params.flat.size, np.inf))

    monkeypatch.setattr(TransformerModel, "loss_and_grads", infinite_gradients)
    with pytest.raises(DivergenceError,
                       match="non-finite values in parameter embed after training"):
        train(abc_log, replace(TINY_CONFIG, epochs=1))


def test_gradient_check_fails_a_gradient_on_a_frozen_projection(abc_log, monkeypatch):
    model = TransformerModel(replace(TINY_CONFIG, attention_mode=ATTENTION_FROZEN_UNIFORM),
                             abc_log.activity_labels)
    real = TransformerModel.loss_and_grads

    def leaking(self, ids, targets):
        loss, grads = real(self, ids, targets)
        grads["Wk"][0, 0, 0] = 1e-3
        return loss, grads

    monkeypatch.setattr(TransformerModel, "loss_and_grads", leaking)
    assert gradient_check(model, extract_prefixes(abc_log)[2]) == np.inf


def test_frozen_training_never_touches_qk(abc_log):
    cfg = ModelConfig(d_k=8, h=2, max_len=8, ff_dim=8, epochs=3,
                      attention_mode=ATTENTION_FROZEN_UNIFORM)
    model = train(abc_log, cfg)
    assert np.all(model.params["Wq"] == 0.0)
    assert np.all(model.params["Wk"] == 0.0)


@pytest.mark.parametrize("mode", ["learned", ATTENTION_FROZEN_UNIFORM])
def test_parameters_view_one_buffer(tmp_path, abc_log, mode):
    """Built, trained or loaded, the parameters tile one buffer without
    overlap, the forward projects with the fused matrix inside it, and a
    parameter cannot be replaced by an array outside it."""
    config = replace(TINY_CONFIG, attention_mode=mode)
    trained = train(abc_log, config)
    trained.save(tmp_path / "model.npz")
    for model in (TransformerModel(config, abc_log.activity_labels), trained,
                  TransformerModel.load(tmp_path / "model.npz")):
        flat = model.params.flat
        saved = flat.copy()
        flat[...] = -1.0
        for i, param in enumerate(model.params.values()):
            assert np.shares_memory(param, flat)
            param[...] = i
        assert flat.min() == 0.0
        assert np.bincount(flat.astype(int)).tolist() == [p.size for p in model.params.values()]
        flat[...] = saved
        _, _, cache = model._forward_batch(np.array([[0, 1, 2]]), True)
        assert np.shares_memory(cache["W"], flat)
        with pytest.raises(TypeError, match=r"write parameter Wq in place"):
            model.params["Wq"] = np.zeros_like(model.params["Wq"])  # the forward would not see it


@pytest.mark.parametrize("mode, name", [("learned", "Wq"), ("learned", "Wv"),
                                        (ATTENTION_FROZEN_UNIFORM, "Wv")])
def test_in_place_parameter_write_reaches_the_forward(abc_log, mode, name):
    model = TransformerModel(replace(TINY_CONFIG, attention_mode=mode), abc_log.activity_labels,
                             rng=np.random.default_rng(5))
    ids = np.array([[0, 1, 2, 0], [2, 1, 3, 1]])
    before, _ = model.predict(ids)
    model.params[name][1, 2] += 0.5  # head 1's weights from input feature 2
    probs, att = model.predict(ids)
    assert not np.array_equal(probs, before)
    for row, row_probs, row_att in zip(ids, probs, att):
        ref_probs, ref_att = reference_forward(model, row)
        np.testing.assert_allclose(row_probs, ref_probs, rtol=0, atol=1e-9)
        np.testing.assert_allclose(row_att, ref_att, rtol=0, atol=1e-9)


@pytest.mark.parametrize("mode", ["learned", ATTENTION_FROZEN_UNIFORM])
def test_gradients_outlive_the_next_call(mode):
    """Each call's gradients have their own buffer; ``gradient_check``
    and the row-mean test hold one call's while making more."""
    model = PREDICT_MODELS[mode]
    _, grads = model.loss_and_grads(np.array([[0, 1, 2]]), np.array([1]))
    kept = {name: grad.copy() for name, grad in grads.items()}
    model.loss_and_grads(np.array([[2, 2, 1], [1, 0, 3]]), np.array([0, 3]))
    for name, grad in grads.items():
        assert_bits_equal(grad, kept[name], err_msg=name)


def test_save_load_save_writes_identical_bytes(tmp_path, abc_log):
    train(abc_log, TINY_CONFIG).save(tmp_path / "first.npz")
    TransformerModel.load(tmp_path / "first.npz").save(tmp_path / "second.npz")
    assert (tmp_path / "first.npz").read_bytes() == (tmp_path / "second.npz").read_bytes()


def test_save_load_round_trip(tmp_path, abc_log):
    model = train(abc_log, TINY_CONFIG)
    path = tmp_path / "model.npz"
    model.save(path)
    loaded = TransformerModel.load(path)
    assert loaded.config == model.config
    assert loaded.activity_labels == model.activity_labels
    ids = np.array([0, 1, 2])
    p1, a1 = model.forward(ids)
    p2, a2 = loaded.forward(ids)
    # float32 storage bounds the round-trip error
    np.testing.assert_allclose(p1, p2, atol=1e-4)
    np.testing.assert_allclose(a1, a2, atol=1e-4)


def test_save_rejects_parameters_beyond_float32(tmp_path, abc_log):
    model = TransformerModel(TINY_CONFIG, abc_log.activity_labels)
    model.params["W2"][0, 0] = 1e39  # finite in float64, infinite in float32
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match="parameter W2 lies beyond the float32 range"):
            model.save(tmp_path / "model.npz")
    assert not (tmp_path / "model.npz").exists()


def test_load_rejects_non_checkpoint(tmp_path):
    path = tmp_path / "junk.npz"
    np.savez(path, x=np.arange(3))
    with pytest.raises(CheckpointError):
        TransformerModel.load(path)


def test_load_rejects_shape_mismatch(tmp_path, abc_log):
    model = TransformerModel(TINY_CONFIG, abc_log.activity_labels)
    model.save(tmp_path / "model.npz")
    data = dict(np.load(tmp_path / "model.npz"))
    data["Wo"] = data["Wo"][:-1]
    np.savez(tmp_path / "bad.npz", **data)
    with pytest.raises(CheckpointError):
        TransformerModel.load(tmp_path / "bad.npz")


def test_load_rejects_invalid_stored_config(tmp_path, abc_log):
    TransformerModel(TINY_CONFIG, abc_log.activity_labels).save(tmp_path / "model.npz")
    data = dict(np.load(tmp_path / "model.npz"))
    meta = json.loads(bytes(data["__meta__"]).decode())
    # d_k=8 is not divisible by h=3
    for key, value, message in (("h", 3, "not divisible"), ("pad_dropout", 1.5, "pad_dropout")):
        bad_meta = {**meta, "config": {**meta["config"], key: value}}
        data["__meta__"] = np.frombuffer(json.dumps(bad_meta).encode(), dtype=np.uint8)
        np.savez(tmp_path / "bad.npz", **data)
        with pytest.raises(CheckpointError, match=message):
            TransformerModel.load(tmp_path / "bad.npz")


def checkpoint_members() -> dict:
    """The members of a checkpoint that ``save`` wrote for a trained tiny model."""
    logobj = build_log([("c1", ["A", "B", "C"]), ("c2", ["A", "C"]), ("c3", ["B", "C"])])
    buffer = io.BytesIO()
    train(logobj, replace(TINY_CONFIG, epochs=2)).save(buffer)
    buffer.seek(0)
    with np.load(buffer) as data:
        return dict(data)


CHECKPOINT = checkpoint_members()
PARAMETERS = sorted(set(CHECKPOINT) - {"__meta__"})
JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-3, 70), st.floats(),
                        st.text(max_size=3), st.lists(st.text(max_size=2), max_size=4))


@st.composite
def mutated_checkpoints(draw):
    """The checkpoint with one change: a parameter's dtype, shape, byte
    order, memory order or one value; a parameter dropped or one added; or
    one key or value of the metadata, dropped or set."""
    members = dict(CHECKPOINT)
    kind = draw(st.sampled_from(["dtype", "shape", "byte order", "memory order", "value",
                                 "member", "metadata"]))
    name = draw(st.sampled_from(PARAMETERS))
    array = members[name]
    if kind == "dtype":
        dtype = draw(st.sampled_from(["<f2", "<f8", ">f8", "<c8", "<c16", "<i8", "<i4", "|u1",
                                      "|b1", "<U3", "|S8"]))
        members[name] = array.astype(dtype)
    elif kind == "shape":
        shapes = [array.reshape(-1), array[None], array[..., :-1], array[:0], np.float32(1.0)]
        members[name] = draw(st.sampled_from([a for a in shapes if a.shape != array.shape]))
    elif kind == "byte order":
        members[name] = array.astype(">f4")
    elif kind == "memory order":
        members[name] = np.asfortranarray(array)
    elif kind == "value":
        members[name] = array.copy()
        members[name].flat[draw(st.integers(0, array.size - 1))] = draw(st.floats(width=32))
    elif kind == "member":
        if draw(st.booleans()):
            del members[name]
        else:
            members["extra"] = array
    else:
        meta = json.loads(bytes(members["__meta__"]).decode())
        part = draw(st.sampled_from([meta, meta["config"]]))
        key = draw(st.sampled_from(sorted(part) + ["extra"]))
        if draw(st.booleans()):
            part.pop(key, None)
        else:
            part[key] = draw(JSON_VALUES)
        members["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    buffer = io.BytesIO()
    np.savez(buffer, **members)
    buffer.seek(0)
    return kind, members, buffer


@given(case=mutated_checkpoints(), seed=st.integers(0, 99))
@settings(max_examples=200, deadline=None)
def test_a_mutated_checkpoint_loads_as_stored_or_raises_checkpoint_error(case, seed):
    kind, members, buffer = case
    try:
        model = TransformerModel.load(buffer)
    except CheckpointError:
        assert kind != "memory order"
        return
    assert kind in ("memory order", "value", "metadata")
    for name, param in model.params.items():
        assert_bits_equal(param, members[name].astype(np.float64), err_msg=name)
    T = min(3, model.config.max_len)
    ids = np.random.default_rng(seed).integers(0, model.vocab_size, size=T)
    probs, att = model.predict(ids[None])
    ref_probs, ref_att = reference_forward(model, ids)
    np.testing.assert_allclose(probs[0], ref_probs, atol=1e-9)
    np.testing.assert_allclose(att[0], ref_att, atol=1e-9)


def test_weighted_f1_perfect_and_degenerate(trained_chain_model):
    model, logobj = trained_chain_model
    prefixes = extract_prefixes(logobj)
    assert weighted_f1(model, prefixes) == pytest.approx(1.0, abs=0.01)
    assert weighted_f1(model, []) == 0.0
