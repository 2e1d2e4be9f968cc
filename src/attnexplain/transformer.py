"""Single-block multi-head self-attention next-activity predictor.

Everything is plain numpy with a hand-written backward pass. The block
is: embedding + sinusoidal positions -> multi-head attention -> residual
+ layer norm -> position-wise feed-forward -> residual + layer norm ->
mean pooling over positions -> softmax output layer. Output classes are
the business activities plus END; PAD is an input-only symbol.

Two attention modes exist: ``learned`` (normal training) and
``frozen_uniform``, where every attention row is exactly the uniform
distribution and the query/key projections receive no gradients.

Every contraction is a matmul on reshaped views. The parameters live in
one flat float64 buffer, where ``Wq``, ``Wk`` and ``Wv`` (``Wv`` alone in
``frozen_uniform``) form one ``(d, k*d)`` Q|K|V matrix with head-major
columns, so the forward projects with a single product and the backward
takes all three gradients from one. ``params`` maps each name to a view
of the buffer in its checkpoint shape (format v1), ``(h, d, dh)`` for a
projection.
The forward's products are stacked per batch row, never taken over rows
flattened together: BLAS picks its kernels by matrix shape, so a flattened
product lets a row's last bits depend on its batch. Stacked, each row of
``predict`` is bitwise equal to ``forward`` on that row alone.

Short-axis reductions are BLAS products too, because at training shapes
(small batches, T <= 24) a numpy reduction costs more in call overhead
than in arithmetic: the layer-norm means and variances are ``x @ (1/d)``,
the softmax row sums ``e @ ones(T)``, the layer-norm gain and bias
gradients ``ones(B*T) @ rows`` and the embedding gradient a one-hot
product on ``arange(V)``. The model holds the operands that depend on
the config alone, read-only, and the workspace the ones. The softmax's
row max is a running ``np.maximum`` over the T columns, exact in any order.

Every op writes its result in place or with ``out=``, and the op
sequence is that of the out-of-place form, so every output bit is too:
the softmax is ``A = Q @ K.T; A *= scale; A -= rowmax; exp(A, out=A);
A /= A @ ones``, residual and bias adds are ``+=`` (IEEE addition
commutes), the layer norm turns its centred rows into x-hat and its
variances into 1/sigma, and pooling sums over positions and divides by
T, which is what ``mean`` computes. The backward does the same, from
the output gradient, formed in ``probs``, to the layer-norm gradients.

The results go into a workspace: one float64 arena with a 64-byte-aligned
view for each array the forward writes and, in a backward workspace, each
array the backward writes, carved once per (B, T) batch shape, every
shape's views in the head of the arena. A backward workspace also holds
a gradient buffer laid out as the parameters'. ``train`` makes one for
the whole call, sized for its largest batch, so a training step is
``gflat *= lr; flat -= gflat``. ``predict`` makes one for all its chunks,
and a direct ``loss_and_grads`` one that its forward shares. A workspace
is the model's only while that call runs; a batch's results in it live
until the next batch of the call. A direct ``_forward_batch`` writes into
one of its own, so direct calls return fresh arrays. A model runs one
``train`` or ``predict`` call at a time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import zipfile
from dataclasses import dataclass, asdict, replace

import numpy as np

from .attnstats import activity_score_sums
from .errors import (
    CheckpointError,
    DimensionError,
    DivergenceError,
    TrainingDataError,
    UsageError,
    check_number,
)
from .eventlog import EventLog, Prefix, _prefix_ids, extract_prefixes

ATTENTION_LEARNED = "learned"
ATTENTION_FROZEN_UNIFORM = "frozen_uniform"

_LN_EPS = 1e-5
# Tokens per ``predict`` chunk; bounds memory at about 8 KiB a token (T = 24),
# 3 MiB a chunk. With the forward's temporaries written in place, a larger
# chunk spreads the per-op call overhead over more rows.
_PREDICT_TOKENS = 384
# Distinct rows ``score_rows`` forwards per ``predict`` call. Handing ``predict``
# one 384-token chunk per call instead lost explain in 5 of 5 explore_long pairs
# (56 s, median 191.9 -> 182.9 prefixes/s) and evaluate in 4 of 5 (221 -> 217),
# for 0.7 MiB less peak RSS.
_SCORE_ROWS = 128
# Upper bounds on the sizes that shape the model's arrays, checked before
# any is allocated. At max_len 4096 one prefix's attention already takes
# 128 MiB a head; d_k and ff_dim are far above the paper's 36 and 64.
SIZE_LIMITS = {"d_k": 1024, "max_len": 4096, "ff_dim": 4096}
_INTERVALS = {**{name: f"[1, {limit}]" for name, limit in SIZE_LIMITS.items()},
              "h": "[1, inf)", "epochs": "[1, inf)", "batch_size": "[1, inf)",
              "seed": "[0, inf)", "learning_rate": "(0, inf)", "pad_dropout": "[0, 1)"}


@dataclass(frozen=True)
class ModelConfig:
    """Model sizes and training options; each number lies in its ``_INTERVALS`` interval."""

    d_k: int = 36
    h: int = 4
    max_len: int = 64
    ff_dim: int = 64
    epochs: int = 30
    batch_size: int = 16
    learning_rate: float = 1e-3
    seed: int = 0
    attention_mode: str = ATTENTION_LEARNED
    pad_dropout: float = 0.1

    def __post_init__(self):
        for name, interval in _INTERVALS.items():
            check_number(name, getattr(self, name), interval, self.__annotations__[name] == "int")
        if self.d_k % self.h != 0:
            raise UsageError(f"d_k={self.d_k} not divisible by h={self.h}")
        if self.attention_mode not in (ATTENTION_LEARNED, ATTENTION_FROZEN_UNIFORM):
            raise UsageError(f"unknown attention_mode {self.attention_mode!r}")


def sinusoidal_positions(max_len: int, dim: int) -> np.ndarray:
    pos = np.arange(max_len)[:, None].astype(float)
    i = np.arange(dim)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / dim)
    enc = np.zeros((max_len, dim))
    enc[:, 0::2] = np.sin(angle[:, 0::2])
    enc[:, 1::2] = np.cos(angle[:, 1::2])
    return enc


class TransformerModel:
    """Trained (or freshly initialized) predictor with attention capture."""

    def __init__(self, config: ModelConfig, activity_labels: list[str], params=None, rng=None):
        self.config = config
        self.activity_labels = list(activity_labels)
        self.num_activities = len(self.activity_labels)
        self.pad_id = self.num_activities
        self.end_id = self.num_activities + 1
        self.vocab_size = self.num_activities + 2      # activities + PAD + END
        self.num_classes = self.num_activities + 1     # activities + END
        self.pos_enc = sinusoidal_positions(config.max_len, config.d_k)
        if params is None:
            params = self._init_params(np.random.default_rng(config.seed) if rng is None else rng)
        self._check_params(params)
        self._spans, start = {}, 0
        for name, shape in self.expected_shapes().items():
            self._spans[name] = (slice(start, start + math.prod(shape)), shape)
            start += math.prod(shape)
        self._fused, self.params = self._views(np.empty(start))
        self._workspace = None  # the one the passes write into, while a call runs
        # The operands that depend on the config alone, built once, read-only.
        self.mean_w = np.full((config.d_k, 1), 1.0 / config.d_k)  # layer-norm means
        self.vocab = np.arange(self.vocab_size)  # the embedding gradient's one-hot columns
        for constant in self.pos_enc, self.mean_w, self.vocab:
            constant.flags.writeable = False
        self.scale = 1.0 / math.sqrt(config.d_k)
        for name, value in params.items():
            self.params[name][...] = value

    # ---------------------------------------------------------------- setup

    def _init_params(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        """Embedding ~ normal(0, 0.1), weight matrices Glorot-uniform, layer
        norm gains one, biases zero; drawn in ``expected_shapes`` order."""
        params = {}
        for name, shape in self.expected_shapes().items():
            if name == "embed":
                params[name] = rng.normal(0.0, 0.1, size=shape)
            elif name.startswith("W"):
                limit = np.sqrt(6.0 / (shape[-2] + shape[-1]))
                params[name] = rng.uniform(-limit, limit, size=shape)
            elif name.endswith("_g"):
                params[name] = np.ones(shape)
            else:
                params[name] = np.zeros(shape)
        for name in self.frozen_param_names():
            params[name] = np.zeros_like(params[name])
        return params

    def expected_shapes(self) -> dict[str, tuple[int, ...]]:
        d, h, ff = self.config.d_k, self.config.h, self.config.ff_dim
        dh = d // h
        C, V = self.num_classes, self.vocab_size
        return {
            "embed": (V, d),
            "Wq": (h, d, dh), "Wk": (h, d, dh), "Wv": (h, d, dh), "Wo": (d, d),
            "ln1_g": (d,), "ln1_b": (d,),
            "W1": (d, ff), "b1": (ff,), "W2": (ff, d), "b2": (d,),
            "ln2_g": (d,), "ln2_b": (d,),
            "Wout": (d, C), "bout": (C,),
        }

    def _check_params(self, params):
        expected, names = self.expected_shapes(), params.keys()
        if names != expected.keys():
            raise CheckpointError(f"missing parameters {sorted(expected.keys() - names)}, "
                                  f"unexpected {sorted(names - expected.keys())}")
        for name, shape in expected.items():
            got = params[name].shape
            if tuple(got) != shape:
                raise CheckpointError(f"parameter {name}: expected shape {shape}, got {got}")
            if not np.all(np.isfinite(params[name])):
                raise CheckpointError(f"parameter {name} holds NaN or infinite values")

    def _views(self, buf):
        """``(fused, views)`` of a flat buffer in ``expected_shapes`` order.
        The projections the forward computes lie side by side, d*d values
        each, so their span is also ``fused``, the ``(d, k*d)`` matrix of
        their head-major column blocks."""
        d, h = self.config.d_k, self.config.h
        names = self._projection_names()
        fused = buf[self._spans[names[0]][0].start:self._spans[names[-1]][0].stop].reshape(d, -1)
        projections = dict(zip(names, fused.reshape(d, -1, h, d // h).transpose(1, 2, 0, 3)))
        views = _Views({n: projections[n] if n in projections else buf[span].reshape(shape)
                        for n, (span, shape) in self._spans.items()})
        views.flat = buf
        return fused, views

    @property
    def frozen_attention(self) -> bool:
        return self.config.attention_mode == ATTENTION_FROZEN_UNIFORM

    def frozen_param_names(self) -> set[str]:
        return {"Wq", "Wk"} if self.frozen_attention else set()

    def _projection_names(self) -> tuple[str, ...]:
        """The projections the forward computes, in fused column order."""
        return ("Wv",) if self.frozen_attention else ("Wq", "Wk", "Wv")

    def num_params(self) -> int:
        return self.params.flat.size

    # -------------------------------------------------------------- forward

    def _forward_batch(self, ids: np.ndarray, keep_cache: bool = False, att_mask=None):
        """Forward a (B, T) id batch.

        Q, K and V come from one ``(B, T, d) @ (d, 3d)`` product on the
        fused ``Wq|Wk|Wv`` matrix the model stores, whose column blocks
        the ``(h, d, dh)`` parameters view; ``frozen_uniform`` projects V
        only. It and the head's product are stacked per row, so no row
        depends on the rest.

        ``att_mask``, a (B, T) boolean array, zeroes the rows and columns
        of every head's post-softmax attention matrix at the positions it
        marks True, each batch row with its own mask (the
        attention-masking pathway of the pre-study). The returned
        attention is always the unmasked one.

        Every result is written into the workspace of the running
        ``train``, ``predict`` or ``loss_and_grads`` call, or, with none
        running, into one made for this call alone.
        """
        p = self.params
        B, T = ids.shape
        if not 1 <= T <= self.config.max_len:
            raise _length_error(T, self.config.max_len)
        if ids.min() < 0 or ids.max() >= self.vocab_size:
            raise IndexError("activity id outside vocabulary")
        v = (self._workspace or _Workspace(self, [(B, T)])).views(B, T)

        X0 = p["embed"].take(ids, 0, v["X0"], "clip")  # ids checked above; "raise" would buffer
        X0 += self.pos_enc[:T]
        W = self._fused
        np.matmul(X0, W, v["QKV"])
        QKV = v["qkv"]  # (k, B, h, T, dh): one (T, dh) block per projection and head
        Vv = QKV[-1]
        A = v["A"]
        if self.frozen_attention:
            Q = K = None
            A.fill(1.0 / T)
        else:
            Q, K = QKV[0], QKV[1]
            np.matmul(Q, K.swapaxes(-1, -2), A)
            A *= self.scale
            A -= _row_max(A, v["col"])
            np.exp(A, A)
            A /= np.matmul(A, v["ones_T"], v["col"])
        att = A
        if att_mask is not None:
            keep = ~att_mask
            A = np.multiply(A, keep[:, None, :, None] & keep[:, None, None, :], v["A_masked"])
        np.copyto(v["Hc_heads"], np.matmul(A, Vv, v["H"]))
        Hc = v["Hc"]
        R1 = np.matmul(Hc, p["Wo"], v["R1"])
        R1 += X0
        N1, ln1_cache = _layer_norm(R1, p["ln1_g"], p["ln1_b"], self.mean_w, v["N1"], v["inv1"])
        U = np.matmul(N1, p["W1"], v["U"])
        U += p["b1"]
        Urelu = np.maximum(U, 0.0, out=v["Urelu"])
        R2 = np.matmul(Urelu, p["W2"], v["R2"])
        R2 += p["b2"]
        R2 += N1
        N2, ln2_cache = _layer_norm(R2, p["ln2_g"], p["ln2_b"], self.mean_w, v["N2"], v["inv2"])
        pooled = np.add.reduce(N2, 1, None, v["pooled"])
        pooled /= T
        probs = np.matmul(pooled[:, None, :], p["Wout"], v["logits"])[:, 0]
        probs += p["bout"]
        probs -= np.maximum.reduce(probs, -1, None, v["class_col"], True)
        np.exp(probs, probs)
        probs /= np.add.reduce(probs, -1, None, v["class_col"], True)

        cache = None
        if keep_cache:
            cache = dict(X0=X0, W=W, Q=Q, K=K, V=Vv, A=A, Hc=Hc, N1=N1, ln1=ln1_cache,
                         U=U, Urelu=Urelu, ln2=ln2_cache, pooled=pooled)
        return probs, att, cache

    def predict(self, ids, att_mask=None):
        """``(probs, attention)``, (B, C) and (B, h, T, T), for a (B, T) id
        batch and an optional (B, T) ``att_mask`` as ``_forward_batch``
        takes, boolean or 0/1; a mask of another shape raises
        DimensionError. Runs ``_PREDICT_TOKENS`` tokens at a time through
        one workspace; each row equals ``forward`` on that row alone, bit
        for bit."""
        ids = np.asarray(ids, dtype=int)
        att_mask = _mask_array(ids, att_mask)
        B, T = ids.shape
        if B and not 1 <= T <= self.config.max_len:  # before anything is sized by T
            raise _length_error(T, self.config.max_len)
        probs = np.empty((B, self.num_classes))
        att = np.empty((B, self.config.h, T, T))
        step = max(1, _PREDICT_TOKENS // max(T, 1))
        with _installed(self, _Workspace(self, [(min(B, step), T)])):
            for start in range(0, B, step):
                rows = slice(start, start + step)
                mask = None if att_mask is None else att_mask[rows]
                probs[rows], att[rows], _ = self._forward_batch(ids[rows], False, mask)
        return probs, att

    def forward(self, prefix, masked_positions=None):
        """Predict for one prefix (a Prefix or an id sequence).

        Returns ``(probs, attention)`` with ``probs`` over activities +
        END and ``attention`` of shape (h, T, T), post-softmax and taken
        before any attention masking is applied. ``masked_positions``
        indexes the prefix as numpy does; one outside it raises IndexError.
        """
        ids = _prefix_ids(prefix)
        att_mask = np.zeros((1, len(ids)), dtype=bool)  # all False masks nothing, exactly
        att_mask[0, list(masked_positions or ())] = True
        probs, att = self.predict(ids[None, :], att_mask)
        return probs[0], att[0]

    # ------------------------------------------------------------- backward

    def loss_and_grads(self, ids: np.ndarray, targets: np.ndarray):
        """Mean cross-entropy over a same-length (B, T) batch and its gradients
        w.r.t. every parameter, views of ``grads.flat``, a buffer laid out as
        ``params.flat``: the running ``train`` call's, or, called directly, a
        fresh one."""
        p = self.params
        B, T = ids.shape
        d = self.config.d_k
        BT = B * T
        ws = self._workspace or _Workspace(self, [(B, T)], backward=True)
        v = ws.views(B, T)
        with _installed(self, ws):  # a direct call's forward writes into the same arena
            probs, _, c = self._forward_batch(ids, keep_cache=True)
        rows = v["rows"]
        loss = float(-np.log(probs[rows, targets] + 1e-12).sum() / B)

        dlogits = probs
        dlogits[rows, targets] -= 1.0
        dlogits /= B

        gW, g = ws.grads
        np.matmul(c["pooled"].T, dlogits, g["Wout"])
        np.add.reduce(dlogits, 0, None, g["bout"])
        dpooled = np.matmul(dlogits, p["Wout"].T, v["dpooled"])
        dpooled /= T
        # Not a copy: at B = 1, numpy sums ln2_b's rows of stride 0 without BLAS.
        dR2 = _layer_norm_backward(v["dN2"], c["ln2"], p["ln2_g"], g["ln2_g"], g["ln2_b"], v)
        np.matmul(c["Urelu"].reshape(BT, -1).T, dR2.reshape(BT, d), g["W2"])
        np.add.reduce(dR2, (0, 1), None, g["b2"])
        dU = np.matmul(dR2, p["W2"].T, v["dU"])
        dU *= np.greater(c["U"], 0.0, v["relu"])
        np.matmul(c["N1"].reshape(BT, d).T, dU.reshape(BT, -1), g["W1"])
        np.add.reduce(dU, (0, 1), None, g["b1"])
        dN1 = np.matmul(dU, p["W1"].T, v["dN1"])
        dN1 += dR2
        dR1 = _layer_norm_backward(dN1, c["ln1"], p["ln1_g"], g["ln1_g"], g["ln1_b"], v)
        np.matmul(c["Hc"].reshape(BT, d).T, dR1.reshape(BT, d), g["Wo"])
        np.matmul(dR1, p["Wo"].T, v["dHc"])
        dH = v["dH"]  # (B, h, T, dh)
        A = c["A"]
        # dQKV is laid out (B, T, k, h, dh), so the fused (B*T, k*d) layout
        # below is a reshape; blocks[i] views projection i's (B, h, T, dh) gradient.
        blocks = v["dQKV_blocks"]
        np.matmul(A.swapaxes(-1, -2), dH, blocks[-1])
        if self.frozen_attention:
            g["Wq"][...] = 0.0
            g["Wk"][...] = 0.0
        else:
            dS = np.matmul(dH, c["V"].swapaxes(-1, -2), v["dS"])
            dS -= np.matmul(np.multiply(dS, A, v["dS_A"]), v["ones_T"], v["col"])
            dS *= A
            dS *= self.scale
            np.matmul(dS, c["K"], blocks[0])
            np.matmul(dS.swapaxes(-1, -2), c["Q"], blocks[1])
        dQKV = v["dQKV_rows"]
        np.matmul(c["X0"].reshape(BT, d).T, dQKV, gW)
        dX0 = np.matmul(dQKV, c["W"].T, v["dX0"])
        dX0 += dR1.reshape(BT, d)
        _embedding_grad(ids, dX0, self.vocab, g["embed"])
        return loss, g

    # ------------------------------------------------------------ accessors

    def target_class(self, target_id: int) -> int:
        """Map a prefix target (activity id or END id) to an output class."""
        if target_id == self.end_id:
            return self.num_classes - 1
        if 0 <= target_id < self.num_activities:
            return target_id
        raise IndexError(f"invalid target id {target_id}")

    def predict_label(self, prefix) -> str:
        probs, _ = self.forward(prefix)
        cls = int(np.argmax(probs))
        return "<END>" if cls == self.num_classes - 1 else self.activity_labels[cls]

    # ---------------------------------------------------------- persistence

    def save(self, path) -> None:
        """Write a checkpoint: config + vocabulary as JSON, parameters as
        little-endian float32 arrays. Raises DivergenceError, writing
        nothing, when a parameter lies beyond the float32 range."""
        with np.errstate(over="ignore"):
            arrays = {name: arr.astype("<f4") for name, arr in self.params.items()}
        for name, arr in arrays.items():
            if not np.all(np.isfinite(arr)):
                raise DivergenceError(f"parameter {name} lies beyond the float32 range")
        meta = {
            "format_version": 1,
            "config": asdict(self.config),
            "activity_labels": self.activity_labels,
        }
        np.savez(path, __meta__=np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8),
                 **arrays)

    @classmethod
    def load(cls, path) -> "TransformerModel":
        try:
            data = np.load(path)
        except (OSError, ValueError, zipfile.BadZipFile) as e:
            raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e
        if "__meta__" not in data:
            raise CheckpointError(f"{path} is not a model checkpoint")
        try:
            meta = json.loads(bytes(data["__meta__"]).decode())
        except ValueError as e:  # not UTF-8, or not JSON
            raise CheckpointError(f"unreadable checkpoint metadata in {path}: {e}") from e
        if not (isinstance(meta, dict) and "config" in meta
                and isinstance(meta.get("activity_labels"), list)):
            raise CheckpointError(f"checkpoint metadata in {path} is not an object "
                                  "with config and an activity_labels list")
        if meta.get("format_version") != 1:
            raise CheckpointError(f"unsupported checkpoint version {meta.get('format_version')}")
        try:
            config = ModelConfig(**meta["config"])
        except (TypeError, ValueError) as e:
            raise CheckpointError(f"invalid model configuration in {path}: {e}") from e
        try:
            params = {n: np.asarray(data[n]) for n in data.files if n != "__meta__"}
        except (ValueError, zipfile.BadZipFile) as e:  # an object array, a damaged member
            raise CheckpointError(f"cannot read the parameters in {path}: {e}") from e
        for name, value in params.items():  # only as save writes it, in C or Fortran order
            if value.dtype.str != "<f4":
                raise CheckpointError(f"parameter {name} has dtype {value.dtype.str}, not <f4")
        return cls(config, meta["activity_labels"], params=params)


def score_rows(model, ids, att_mask=None, sums: bool = False):
    """Each row's ``predict`` probabilities, (B, C), and, with ``sums``,
    its ``activity_score_sums``, (B, |A|), else (B, 0), for a (B, T) id
    batch and an optional (B, T) attention mask as ``predict`` takes them.

    A row is forwarded once however often the batch repeats it: rows are
    keyed by their id and mask bytes, and the distinct ones are forwarded
    ``_SCORE_ROWS`` at a time, each chunk's attention reduced before the
    next is forwarded. The results are bit-identical to scoring the whole
    batch, because each ``predict`` row equals ``forward`` on that row
    alone and the sums bin each row separately. Nothing outlives the call.
    """
    ids = np.ascontiguousarray(ids, dtype=int)
    if len(ids) and not ids.shape[1]:  # before zero-width keys are made
        raise _length_error(0, model.config.max_len)
    att_mask = _mask_array(ids, att_mask)
    _, first, inverse = np.unique(_row_keys(ids, att_mask), return_index=True, return_inverse=True)
    C = model.num_classes
    scored = np.empty((len(first), C + (model.num_activities if sums else 0)))
    for start in range(0, len(first), _SCORE_ROWS):
        rows = first[start:start + _SCORE_ROWS]
        probs, att = model.predict(ids[rows], None if att_mask is None else att_mask[rows])
        chunk = scored[start:start + len(rows)]
        chunk[:, :C] = probs
        if sums:
            chunk[:, C:] = activity_score_sums(att, ids[rows], model.pad_id)
    scored = scored[inverse]
    return scored[:, :C], scored[:, C:]


def _length_error(T: int, max_len: int) -> ValueError:
    return ValueError(f"prefix length {T} outside [1, {max_len}]")


def _mask_array(ids, att_mask):
    """``att_mask`` as a boolean array, or None. A 0/1 integer mask would
    otherwise reach ``~att_mask`` as -1/-2 and scale the attention."""
    if att_mask is None:
        return None
    att_mask = np.asarray(att_mask, dtype=bool)
    if att_mask.shape != ids.shape:
        raise DimensionError(f"attention mask of shape {att_mask.shape} does not match "
                             f"the ids' shape {ids.shape}")
    return att_mask


def _row_keys(ids, att_mask):
    """One key per row of a (B, T) id batch, as a (B,) array of
    fixed-size byte strings: the row's id bytes, then its mask bytes."""
    rows = ids.view(np.uint8)  # (B, T * itemsize) for a C-contiguous batch
    if att_mask is not None:
        rows = np.hstack([rows, att_mask.view(np.uint8)])
    return rows.view(np.dtype((np.void, rows.shape[1]))).reshape(len(ids))


class _Views(dict):
    """Views of one flat buffer by parameter name; ``flat`` is the buffer."""

    def __setitem__(self, name, value):
        if value is not self.get(name):  # ``params[name] -= x`` stores the same view back
            raise TypeError(f"write parameter {name} in place: params[{name!r}][...] = value")


class _Workspace:
    """One float64 arena for the forward's intermediates and ones as long
    as the largest batch's B*T; with ``backward``, also the backward's
    intermediates and a gradient buffer laid out as the parameters'.

    ``views(B, T)`` carves, once per batch shape, a 64-byte-aligned view
    of the arena for each array the passes write. Every shape's views
    start at the arena's start, so the arena holds the largest of
    ``shapes`` and the shapes' views overlap: a batch's results are valid
    until the next batch is forwarded.
    """

    def __init__(self, model, shapes, backward=False):
        d = model.config.d_k
        self._dims = (d, model.config.h, model.config.ff_dim, model.num_classes,
                      model._fused.shape[1] // d, backward)
        self._carved = {}
        size = max(_layout(*self._dims, B, T).itemsize for B, T in shapes) // 8
        raw = np.empty(size + 8)
        start = -raw.ctypes.data % 64 // 8
        self.arena = raw[start:start + size]
        self._ones = np.empty(max(B * T for B, T in shapes))
        self._ones.fill(1.0)
        if backward:
            self.grads = model._views(np.empty_like(model.params.flat))

    def views(self, B, T):
        """The (B, T) batch's arrays, views of the arena."""
        if (B, T) in self._carved:
            return self._carved[B, T]
        d, h, _, _, k, backward = self._dims
        record = np.ndarray((), _layout(*self._dims, B, T), self.arena)
        v = self._carved[B, T] = {name: record[name] for name in record.dtype.names}
        v["ones_T"] = self._ones[:T].reshape(T, 1)
        v["qkv"] = v["QKV"].reshape(B, T, k, h, d // h).transpose(2, 0, 3, 1, 4)
        v["Hc_heads"] = v["Hc"].reshape(B, T, h, d // h).transpose(0, 2, 1, 3)
        if backward:
            v["rows"] = np.arange(B)
            v["ones_BT"] = self._ones[:B * T]
            v["dN2"] = np.broadcast_to(v["dpooled"][:, None, :], (B, T, d))
            v["dH"] = v["dHc"].reshape(B, T, h, d // h).transpose(0, 2, 1, 3)
            v["dQKV_blocks"] = v["dQKV"].reshape(B, T, k, h, d // h).transpose(2, 0, 3, 1, 4)
            v["dQKV_rows"] = v["dQKV"].reshape(B * T, k * d)
        return v


@functools.lru_cache(maxsize=256)
def _layout(d, h, ff, C, k, backward, B, T):
    """The record type of a workspace arena for a (B, T) batch: one
    float64 field per array the passes write, each at a 64-byte-aligned
    offset, so one record over the arena views them all."""
    shapes = dict(X0=(B, T, d), QKV=(B, T, k * d), A=(B, h, T, T), A_masked=(B, h, T, T),
                  col=(B, h, T, 1), H=(B, h, T, d // h), Hc=(B, T, d), R1=(B, T, d),
                  inv1=(B, T, 1), N1=(B, T, d), U=(B, T, ff), Urelu=(B, T, ff),
                  R2=(B, T, d), inv2=(B, T, 1), N2=(B, T, d), pooled=(B, d),
                  logits=(B, 1, C), class_col=(B, 1))
    if backward:
        shapes.update(dpooled=(B, d), ln_t=(B, T, d), ln_dx=(B, T, d), ln_col=(B, T, 1),
                      dU=(B, T, ff), relu=(B, T, ff), dN1=(B, T, d), dHc=(B, T, d),
                      dQKV=(B, T, k * d), dS=(B, h, T, T), dS_A=(B, h, T, T), dX0=(B * T, d))
    offsets, offset = [], 0
    for shape in shapes.values():
        offsets.append(8 * offset)
        offset += -(-math.prod(shape) // 8) * 8  # whole 64-byte lines
    return np.dtype({"names": list(shapes), "formats": [(np.float64, s) for s in shapes.values()],
                     "offsets": offsets, "itemsize": 8 * offset})


@contextlib.contextmanager
def _installed(model, workspace):
    """Make ``workspace`` the one the model's passes write into, for the block."""
    outer, model._workspace = model._workspace, workspace
    try:
        yield
    finally:
        model._workspace = outer


def _embedding_grad(ids, dX, vocab, out=None):
    """Sum of the (B, T) rows of ``dX`` per id in ``ids``, as the
    (V, B*T) one-hot matrix over ``vocab``, ``arange(V)``, times ``dX``'s
    (B*T, d) rows."""
    onehot = ids.reshape(-1, 1) == vocab
    return np.matmul(onehot.T, dX.reshape(ids.size, -1), out=out)


def _row_max(S, out):
    """``S.max(axis=-1, keepdims=True)`` into ``out`` as a running
    ``np.maximum`` over the columns, which at T <= 24 costs less than the
    reduction. A max is exact in any order, so only the sign of a zero
    maximum can differ, and ``exp(S - max)`` is the same for either sign."""
    np.copyto(out, S[..., :1])
    for j in range(1, S.shape[-1]):
        np.maximum(out, S[..., j:j + 1], out=out)
    return out


def _layer_norm(x, gamma, beta, w, y, inv):
    """Row-wise layer norm of ``x`` into ``y``; the mean and the variance
    are products with ``w = 1/d``, kept in the cache for the backward.
    ``x`` becomes x-hat and ``inv``, (..., 1), 1/sigma, in place."""
    x -= np.matmul(x, w, inv)
    np.multiply(x, x, y)
    np.matmul(y, w, inv)
    inv += _LN_EPS
    np.sqrt(inv, inv)
    np.divide(1.0, inv, inv)
    x *= inv
    np.multiply(gamma, x, y)
    y += beta
    return y, (x, inv, w)


def _layer_norm_backward(dy, cache, gamma, dgamma, dbeta, v):
    """``inv * (dxhat - dxhat @ w - xhat * ((dxhat * xhat) @ w))``, with
    ``dxhat = dy * gamma``, formed in the workspace views ``v``'s
    ``ln_dx``, which it returns; the gain and bias gradients go into
    ``dgamma`` and ``dbeta``."""
    xhat, inv, w = cache
    d = dy.shape[-1]
    ones, t, col = v["ones_BT"], v["ln_t"], v["ln_col"]
    np.multiply(dy, xhat, t)
    np.matmul(ones, t.reshape(-1, d), dgamma)
    np.matmul(ones, dy.reshape(-1, d), dbeta)
    dxhat = np.multiply(dy, gamma, v["ln_dx"])
    np.multiply(dxhat, xhat, t)
    np.multiply(xhat, np.matmul(t, w, col), t)
    dxhat -= np.matmul(dxhat, w, col)
    dxhat -= t
    dxhat *= inv
    return dxhat


# ------------------------------------------------------------------ training


def train(logobj: EventLog, config: ModelConfig) -> TransformerModel:
    """Train on all prefixes of the log; deterministic per config seed.
    Raises DivergenceError on a non-finite loss."""
    prefixes = extract_prefixes(logobj)
    if not prefixes:
        raise TrainingDataError("no prefixes extractable from the log")
    lengths = np.array([len(p.activities) for p in prefixes])
    longest = int(lengths.max())
    if longest > config.max_len:
        config = replace(config, max_len=longest)

    init_seed, epoch_seed = np.random.SeedSequence(entropy=config.seed).spawn(2)
    model = TransformerModel(config, logobj.activity_labels, rng=np.random.default_rng(init_seed))
    epoch_rng = np.random.default_rng(epoch_seed)

    targets = np.array([model.target_class(p.target) for p in prefixes])
    # Every prefix padded once; a batch is a row selection of its columns.
    all_ids = np.full((len(prefixes), longest), model.pad_id)
    all_ids[np.arange(longest) < lengths[:, None]] = np.concatenate(
        [p.activities for p in prefixes])

    # The largest batch of each length; every batch fits that length's shape.
    shapes = [(min(config.batch_size, int(n)), int(length))
              for length, n in zip(*np.unique(lengths, return_counts=True))]
    flat, lr = model.params.flat, config.learning_rate
    step = 0
    with np.errstate(over="ignore", invalid="ignore"), \
            _installed(model, _Workspace(model, shapes, backward=True)):
        for _epoch in range(config.epochs):
            order = epoch_rng.permutation(len(prefixes))
            # Batches must be same-length to vectorize; bucket the shuffled
            # order by length so composition still varies per epoch.
            batches = []
            for length in np.unique(lengths):
                bucket = order[lengths[order] == length]
                for start in range(0, len(bucket), config.batch_size):
                    batches.append((bucket[start:start + config.batch_size], length))
            # Interleave length buckets; processing lengths in order makes
            # the pooled representation forget shorter prefixes.
            batch_order = epoch_rng.permutation(len(batches))
            for batch, length in (batches[i] for i in batch_order):
                ids = all_ids[batch, :length]
                if config.pad_dropout > 0.0:
                    drop = epoch_rng.random(ids.shape) < config.pad_dropout
                    ids = np.where(drop, model.pad_id, ids)
                loss, grads = model.loss_and_grads(ids, targets[batch])
                if not np.isfinite(loss):
                    raise DivergenceError(f"non-finite loss at step {step}", step=step)
                # Frozen Q/K get exact zero gradients, so they stay at 0.0.
                gflat = grads.flat
                gflat *= lr
                flat -= gflat
                step += 1
    for name, arr in model.params.items():
        if not np.all(np.isfinite(arr)):
            raise DivergenceError(f"non-finite values in parameter {name} after training")
    return model


def gradient_check(model: TransformerModel, prefix, n_samples: int = 30, step: float = 1e-4,
                   seed: int = 0) -> float:
    """Max relative error between analytical gradients and central finite
    differences over a random parameter subsample."""
    ids = _prefix_ids(prefix)[None, :]
    target = np.array([model.target_class(prefix.target) if isinstance(prefix, Prefix) else 0])
    _, grads = model.loss_and_grads(ids, target)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, param in model.params.items():
        if name in model.frozen_param_names():
            if np.any(grads[name] != 0.0):
                return np.inf
            continue
        k = min(n_samples, param.size)
        for idx in rng.choice(param.size, size=k, replace=False):
            at = np.unravel_index(idx, param.shape)  # param may view the buffer with gaps
            orig = param[at]
            param[at] = orig + step
            lo_p = model.loss_and_grads(ids, target)[0]
            param[at] = orig - step
            lo_m = model.loss_and_grads(ids, target)[0]
            param[at] = orig
            numeric = (lo_p - lo_m) / (2.0 * step)
            analytic = grads[name][at]
            denom = max(abs(numeric) + abs(analytic), 1e-8)
            worst = max(worst, abs(numeric - analytic) / denom)
    return worst
