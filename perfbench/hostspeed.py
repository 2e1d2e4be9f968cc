"""Host speed meter: a fixed reference computation timed between stages.

The VM this benchmark was built on runs the same code up to 1.5x slower
or faster within seconds, and whole runs drift by 15-25% (see NOTES.md,
*Noise*). Raw stage times carry that drift; the timed metrics are
therefore also given at a nominal host speed: a stage's time scaled by
``NOMINAL_UNIT_S`` over the time the reference took around it.

The reference is ``oracle.reference_forward`` on a fixed random model
that belongs to the benchmark, not to the package: Python loops over
small numpy operations, the same mix as the program's forward and
training code. No change to the package can change its cost.
"""

from __future__ import annotations

import statistics
import time
from types import SimpleNamespace

import numpy as np

import oracle

NOMINAL_UNIT_S = 0.02    # a reference unit's time at nominal speed
UNIT_FORWARDS = 10       # forwards per reference unit (about 20 ms here)
SHARE = 0.06             # reference time per second of timed stage time
_IDS = [1, 2, 3, 4, 5, 6, 0, 1]
_MASKED = (2,)


def _reference_model():
    rng = np.random.default_rng(20240807)
    d, h, ff, vocab, classes = 36, 4, 64, 8, 7

    def mat(*shape):
        return rng.normal(scale=shape[-2] ** -0.5, size=shape)

    params = {"embed": rng.normal(size=(vocab, d)), "Wq": mat(h, d, d // h),
              "Wk": mat(h, d, d // h), "Wv": mat(h, d, d // h), "Wo": mat(d, d),
              "ln1_g": np.ones(d), "ln1_b": np.zeros(d), "W1": mat(d, ff), "b1": np.zeros(ff),
              "W2": mat(ff, d), "b2": np.zeros(d), "ln2_g": np.ones(d), "ln2_b": np.zeros(d),
              "Wout": mat(d, classes), "bout": np.zeros(classes)}
    return SimpleNamespace(config=SimpleNamespace(d_k=d, h=h), params=params,
                           pos_enc=rng.normal(size=(len(_IDS), d)), frozen_attention=False)


class SpeedMeter:
    """Takes reference units in proportion to the stage time charged to it."""

    def __init__(self):
        self.model = _reference_model()
        self.unit()  # warm-up

    def unit(self) -> float:
        """Seconds one reference unit takes now."""
        start = time.perf_counter()
        for _ in range(UNIT_FORWARDS):
            oracle.reference_forward(self.model, _IDS, _MASKED)
        return time.perf_counter() - start

    def charge(self, samples: list, owed: float, seconds: float) -> float:
        """Add ``seconds`` of stage time to the reference time ``owed``,
        append a unit to ``samples`` for each nominal unit owed, and
        return what is still owed."""
        owed += SHARE * seconds
        while owed >= NOMINAL_UNIT_S:
            samples.append(self.unit())
            owed -= NOMINAL_UNIT_S
        return owed

    def settle(self, samples: list) -> None:
        """Make sure a stretch of work has at least one sample."""
        if not samples:
            samples.append(self.unit())


def scale(samples) -> float:
    """Factor from raw seconds to seconds at nominal speed."""
    return NOMINAL_UNIT_S / statistics.fmean(samples)
