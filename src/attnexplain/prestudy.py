"""The two reliability experiments for attention scores.

Experiment 1 trains paired normally-trained and frozen-uniform models
and compares attention distributions (JSD) and predictions (TVD) on the
test prefixes, one (mean JSD, mean TVD) point per pair. Experiment 2
compares, per prefix position, masking the input element against zeroing
the corresponding attention rows/columns, recording the TVD between the
two resulting predictions.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from .attnstats import flatten, jsd, tvd
from .errors import UsageError, check_number
from .eventlog import EventLog, _prefix_ids, extract_prefixes, length_batches, split
from .transformer import (
    ATTENTION_FROZEN_UNIFORM,
    ATTENTION_LEARNED,
    ModelConfig,
    TransformerModel,
    score_rows,
    train,
)


@dataclass(frozen=True)
class Exp1Point:
    baseline_seed: int
    modified_seed: int
    mean_jsd: float
    mean_tvd: float
    n_samples: int


@dataclass(frozen=True)
class Exp1Result:
    points: tuple[Exp1Point, ...]
    scope: str  # "all_heads" or "per_head"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["baseline_seed", "modified_seed", "mean_jsd", "mean_tvd", "n_samples"])
        for pt in self.points:
            writer.writerow([pt.baseline_seed, pt.modified_seed,
                             f"{pt.mean_jsd:.12g}", f"{pt.mean_tvd:.12g}", pt.n_samples])
        return buf.getvalue()

    def to_json(self) -> str:
        payload = {
            "scope": self.scope,
            "points": [asdict(pt) for pt in self.points],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class Exp2Result:
    """Experiment 2's (prefix index, position, tvd) values as three (N,)
    arrays, and their histogram. Plain triples took CLI exp2's peak RSS from
    66.8 to 74.1 MiB on 128,206 values."""

    index: np.ndarray
    position: np.ndarray
    tvd: np.ndarray
    histogram: tuple[int, ...]
    bin_edges: tuple[float, ...]

    def _triples(self, part=slice(None)):
        return zip(*(column[part].tolist() for column in (self.index, self.position, self.tvd)))

    @property
    def rows(self) -> tuple[tuple[int, int, float], ...]:
        """The values as (int, int, float) triples, built when read."""
        return tuple(self._triples())

    def __eq__(self, other):
        return (isinstance(other, Exp2Result) and self.rows == other.rows
                and (self.histogram, self.bin_edges) == (other.histogram, other.bin_edges))

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["prefix_index", "position", "tvd"])
        for start in range(0, len(self.tvd), 4096):  # a chunk of Python numbers at a time
            writer.writerows([idx, pos, f"{value:.12g}"]
                             for idx, pos, value in self._triples(slice(start, start + 4096)))
        return buf.getvalue()

    def to_json(self) -> str:
        payload = {"histogram": list(self.histogram), "bin_edges": list(self.bin_edges),
                   "n_values": len(self.tvd)}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _check_scope(scope: str) -> None:
    if scope not in ("all_heads", "per_head"):
        raise UsageError(f"unknown scope {scope!r}")


def compare_models(baseline: TransformerModel, modified: TransformerModel,
                   prefixes, scope: str = "all_heads") -> tuple[float, float]:
    """Mean JSD between attention distributions and mean TVD between
    predictions over the given prefixes. ``per_head`` takes each prefix's
    mean of the per-head JSDs; ``all_heads`` compares the heads'
    concatenation."""
    _check_scope(scope)
    jsds, tvds = np.empty(len(prefixes)), np.empty(len(prefixes))
    for rows, ids in length_batches(prefixes):
        p_b, att_b = baseline.predict(ids)
        p_m, att_m = modified.predict(ids)
        heads, combined = flatten(np.stack([att_b, att_m]))
        if scope == "all_heads":
            jsds[rows] = jsd(combined[0], combined[1])
        else:
            jsds[rows] = jsd(heads[0], heads[1]).mean(axis=-1)
        tvds[rows] = tvd(p_b, p_m)
    return float(jsds.mean()), float(tvds.mean())


def experiment1(logobj: EventLog, repeats: int = 5, config: ModelConfig = ModelConfig(),
                train_frac: float = 0.7, scope: str = "all_heads") -> Exp1Result:
    """Train ``repeats`` baseline / frozen-uniform model pairs and compare
    each pair on the test prefixes. ``max_len`` is raised to the longest
    trace of the whole log, so that every test prefix fits."""
    check_number("repeats", repeats, "[1, inf)", integer=True)
    _check_scope(scope)
    config = replace(config, max_len=max(config.max_len, logobj.stats.max_len))
    root = np.random.SeedSequence(entropy=config.seed)
    split_seed, *model_seeds = [int(s) for s in root.generate_state(repeats + 1)]
    train_log, test_log = split(logobj, train_frac, seed=split_seed)
    test_prefixes = extract_prefixes(test_log)

    points = []
    for seed in model_seeds:
        baseline = train(train_log, replace(config, seed=seed, attention_mode=ATTENTION_LEARNED))
        frozen = train(train_log, replace(config, seed=seed,
                                          attention_mode=ATTENTION_FROZEN_UNIFORM))
        mean_jsd, mean_tvd = compare_models(baseline, frozen, test_prefixes, scope)
        points.append(Exp1Point(
            baseline_seed=seed, modified_seed=seed,
            mean_jsd=mean_jsd, mean_tvd=mean_tvd, n_samples=len(test_prefixes),
        ))
    return Exp1Result(points=tuple(points), scope=scope)


_N_BINS = 20


def experiment2(model: TransformerModel, prefixes) -> Exp2Result:
    """Per prefix and position, TVD between the input-masked and the
    attention-masked prediction, histogrammed in ``_N_BINS`` bins over
    [0, 1]. The input-masked rows of all prefixes of one length are scored
    in one call, and their attention-masked rows in another, so a row
    they share is forwarded once."""
    lengths = np.array([len(_prefix_ids(p)) for p in prefixes], dtype=int)
    starts = np.cumsum(lengths) - lengths  # each prefix's first value
    values = np.empty(lengths.sum())
    for indices, ids in length_batches(prefixes):
        n, T = ids.shape
        single = np.eye(T, dtype=bool)  # row ``pos`` masks position ``pos``
        p_input, _ = score_rows(model, np.where(single, model.pad_id, ids[:, None]).reshape(n * T, T))
        p_attention, _ = score_rows(model, np.repeat(ids, T, axis=0), np.tile(single, (n, 1)))
        values[(starts[indices, None] + np.arange(T)).ravel()] = tvd(p_input, p_attention)
    index = np.repeat(np.arange(len(prefixes)), lengths)
    hist, edges = np.histogram(values, bins=_N_BINS, range=(0.0, 1.0))
    return Exp2Result(
        index=index, position=np.arange(len(values)) - starts[index], tvd=values,
        histogram=tuple(int(x) for x in hist),
        bin_edges=tuple(float(x) for x in edges),
    )
