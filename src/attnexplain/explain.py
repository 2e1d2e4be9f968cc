"""The two global explainers; both skip a prefix with no activity.

Backward Explainer: per prefix, relevant activities (by aggregated
attention over random PAD-maskings) and likely next activities (by
prediction threshold) are joined as a complete bipartite graph into one
adjacency matrix, in order, with shortcut pruning through the prefix's
last activity.

Attention Exploration Explainer: per prefix, signed relevance scores are
accumulated over "masking out a few" / "masking out most" subsets of the
relevant positions into activity-by-activity score matrices, which are
summed over prefixes, row-normalized, thresholded, and OR-combined into
an adjacency matrix (edge direction: column activity -> row activity).

Both run through ``Explainer``: a per-prefix phase that scores the rows of
all prefixes of one length together, then a fold in prefix order.
"""

from __future__ import annotations

import json
import re
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .attnstats import cosine_distances, max_normalize
from .errors import UsageError, check_number
from .eventlog import _last_activity, _prefix_ids
from .transformer import _length_error, score_rows


@dataclass(frozen=True)
class Thresholds:
    """Filtering thresholds for both explainers. ``delta_edge = None``
    means 1 / |A|, i.e. the uniform row value."""

    delta_sim: float = 0.2
    delta_attr: float = 0.5
    delta_pred: float = 0.1
    delta_edge: float | None = None
    sim_eps: float = 0.02

    def __post_init__(self):
        for name, value in vars(self).items():
            if not (name == "delta_edge" and value is None):
                check_number(name, value, "[0, inf)" if name == "sim_eps" else "[0, 1]")

    def edge_threshold(self, num_activities: int) -> float:
        if self.delta_edge is not None:
            return self.delta_edge
        return 1.0 / num_activities


@dataclass(frozen=True)
class ExplanationGraph:
    """Directed activity graph over label strings."""

    vertices: frozenset[str]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self):
        for u, v in self.edges:
            if u not in self.vertices or v not in self.vertices:
                raise ValueError(f"edge ({u}, {v}) has endpoint outside vertex set")

    @staticmethod
    def make(vertices, edges) -> "ExplanationGraph":
        return ExplanationGraph(frozenset(vertices), frozenset(tuple(e) for e in edges))

    def successors(self, vertex: str) -> set[str]:
        return {v for u, v in self.edges if u == vertex}


# --------------------------------------------------------- shared machinery


# Limits of ``n_mods`` and ``subset_cap``: each counts the variant rows a
# ``_WINDOW`` of prefixes holds before scoring. 64 random length-64 prefixes
# peaked at 241 MiB RSS at n_mods 4096 and 376 MiB at subset_cap 4096.
MAX_N_MODS = MAX_SUBSET_CAP = 4096


def _graph(labels, adjacency: np.ndarray, vertices: np.ndarray) -> ExplanationGraph:
    """The graph of a boolean (|A|, |A|) adjacency matrix (``[u, v]`` is an
    edge u -> v) over the activities an (|A|,) mask marks as vertices."""
    labels = np.array(labels, dtype=object)
    sources, targets = np.nonzero(adjacency)
    return ExplanationGraph.make(labels[vertices], zip(labels[sources], labels[targets]))


def random_maskings(length: int, n_mods: int, rng: np.random.Generator) -> np.ndarray:
    """``n_mods`` random position subsets as rows of a boolean
    (n_mods, length) matrix, each non-empty and of size at most
    ceil(length / 2); a row draws its size, then its positions."""
    cap = max(1, int(np.ceil(length / 2)))
    masks = np.zeros((n_mods, length), dtype=bool)
    for row in masks:
        row[rng.choice(length, size=int(rng.integers(1, cap + 1)), replace=False)] = True
    return masks


def _masked_rows(model, ids, masks):
    """A prefix's ids, then its variant under each mask row that keeps an activity."""
    variants = np.where(masks, model.pad_id, ids)
    return np.vstack([ids, variants[(variants != model.pad_id).any(axis=1)]])


def _relevance(probs, sums, thresholds: Thresholds):
    """``relevant_activities`` from the probabilities and ψ sums of its rows."""
    p_orig = probs[0]
    stable = np.append(True, cosine_distances(probs[1:], p_orig) <= thresholds.delta_sim)
    # in variant order: a reordered sum rounds differently
    psi = max_normalize(np.cumsum(sums[stable], axis=0)[-1])
    return np.flatnonzero(psi > thresholds.delta_attr), psi, p_orig, max_normalize(sums[0])


def relevant_activities(model, prefix, thresholds: Thresholds, n_mods: int = 20,
                        seed: int = 0):
    """Relevant activity ids for a prefix and its aggregated ``(|A|,)``
    score array ψ, followed by the unmodified prefix's probabilities and
    its own ψ, from its attention alone.

    Attention of the unmodified prefix always contributes; a random
    modification contributes only when its prediction stays within
    ``delta_sim`` cosine distance of the original. A variant equal to an
    earlier row is forwarded once.
    """
    check_number("n_mods", n_mods, f"[0, {MAX_N_MODS}]", integer=True)
    check_number("seed", seed, "[0, inf)", integer=True)
    ids = _prefix_ids(prefix)
    if not len(ids):
        raise _length_error(0, model.config.max_len)
    masks = random_maskings(len(ids), n_mods, np.random.default_rng(seed))
    return _relevance(*score_rows(model, _masked_rows(model, ids, masks), sums=True), thresholds)


def likely_next(probs, thresholds: Thresholds, num_activities: int) -> np.ndarray:
    """Ascending activity ids with prediction probability strictly above
    ``delta_pred``; the END class is excluded."""
    return np.flatnonzero(np.asarray(probs, dtype=float)[:num_activities] > thresholds.delta_pred)


# Prefixes per window of ``Explainer._steps``, and rows per ``score_rows``
# call in it. One call per pass instead took peak RSS from 51.4 to 74.4 MiB on
# 128 random length-24 prefixes (attention exploration, delta_attr=0).
_WINDOW = 64
_PHASE_ROWS = 1024


def _scored_blocks(model, blocks):
    """``score_rows(model, block, sums=True)`` of each (n_i, T) row block of
    one length, in order. Consecutive blocks share a call of at most
    ``_PHASE_ROWS`` rows (a larger block has its own), so a row they share
    is forwarded once."""
    calls, rows = [[]], 0
    for block in blocks:
        if calls[-1] and rows + len(block) > _PHASE_ROWS:
            calls, rows = calls + [[]], 0
        calls[-1].append(block)
        rows += len(block)
    for call in calls:
        probs, sums = score_rows(model, np.vstack(call), sums=True)
        ends = list(accumulate(map(len, call)))
        yield from ((probs[a:b], sums[a:b]) for a, b in zip([0] + ends, ends))


# ---------------------------------------------------------- Backward Explainer


def backward_explain(model, prefixes, thresholds: Thresholds = Thresholds(),
                     n_mods: int = 20, seed: int = 0) -> ExplanationGraph:
    """Fold per-prefix complete bipartite graphs, relevant -> likely next
    activities (self-edges allowed, nothing when either side is empty),
    into one adjacency matrix. After each prefix's join, a shortcut (u, v)
    with (u, last) and (last, v) both present is pruned, ``last`` being the
    prefix's last activity; edges incident to ``last`` are never pruned
    (they would witness their own removal)."""
    return Explainer("backward", thresholds, n_mods, seed=seed)(model, prefixes)


# ------------------------------------------------- Attention Exploration


def relevance_scores(ids: np.ndarray, variants: np.ndarray, psi_orig: np.ndarray,
                     psi_var: np.ndarray, p_orig: np.ndarray, p_var: np.ndarray,
                     p_r: np.ndarray, sim_eps: float, num_activities: int) -> np.ndarray:
    """Signed relevance scores of a prefix's (V, T) batch of masked
    ``variants``, one (|A|, |A|) matrix per variant; rows index the
    predicted activity, columns the influencing activity, and ψ is indexed
    by activity id. A masked position scores prediction times original
    attention, negated when the predicted activity's prediction is
    unchanged (within ``sim_eps``). A kept position scores masked attention
    times prediction when unchanged, otherwise the product of the attention
    and prediction deltas; PAD and END score nothing. Each cell adds its
    masked terms before its kept ones, each in position order, through one
    ``np.bincount``, which adds in input order; the 0.0 it adds for the
    other kind of position leaves every sum unchanged."""
    nA = num_activities
    real = ids < nA
    cols = ids[real]
    masked = (variants[:, real] != cols)[:, None]                        # (V, 1, T')
    p_a = p_orig[p_r, None]                                              # (R, 1)
    delta = np.abs(p_orig[p_r] - p_var[:, p_r])[:, :, None]              # (V, R, 1)
    similar = delta <= sim_eps
    psi_o, psi_m = psi_orig[cols], psi_var[:, None, cols]                # (T',), (V, 1, T')
    s = p_a * psi_o
    kept = np.where(similar, psi_m * p_a, np.abs(psi_o - psi_m) * delta)
    terms = np.concatenate([np.where(masked, np.where(similar, -s, s), 0.0),
                            np.where(masked, 0.0, kept)], axis=2)        # (V, R, 2T')
    cells = (np.arange(len(variants))[:, None] * nA + p_r)[:, :, None] * nA + np.tile(cols, 2)
    return np.bincount(cells.ravel(), terms.ravel(),
                       len(variants) * nA * nA).reshape(-1, nA, nA)


def compute_relevance_score(ids, masked_ids, psi_orig, psi_masked, p_orig, p_masked,
                            p_r, sim_eps: float, num_activities: int) -> np.ndarray:
    """``relevance_scores`` of one (prefix, masked prefix) pair of id arrays.
    ``p_r`` may be any collection of ids. ψ may also be a mapping from
    activity id; an id it omits scores 0.0."""
    psi_orig, psi_masked = (
        np.array([psi.get(a, 0.0) for a in range(num_activities)]) if isinstance(psi, Mapping)
        else np.asarray(psi, dtype=float) for psi in (psi_orig, psi_masked))
    return relevance_scores(ids, masked_ids[None], psi_orig, psi_masked[None], p_orig,
                            p_masked[None], np.array(sorted(p_r), dtype=int), sim_eps,
                            num_activities)[0]


def _subsets(n: int, cap: int, rng: np.random.Generator) -> np.ndarray:
    """Subsets of ``n`` items as rows of a boolean matrix: all of them, in
    binary counting order, when n <= 8, else up to ``cap`` distinct sampled
    ones; sampling stops once all 2^n are drawn."""
    if n <= 8:
        return (np.arange(1 << n)[:, None] >> np.arange(n) & 1).astype(bool)
    seen = {}
    attempts, wanted = 0, min(cap, 1 << n)
    while len(seen) < wanted and attempts < cap * 20:
        attempts += 1
        bits = rng.random(n) < 0.5
        seen.setdefault(bits.tobytes(), bits)
    return np.array(list(seen.values()), dtype=bool).reshape(-1, n)


def _scenario_rows(model, ids, a_r, p_r, subset_cap: int, seed: int):
    """A prefix's number of few-scenario variants, and its few, then its
    most scenario variants as one (V, T) id batch; none when ``p_r`` is
    empty, since nothing would score."""
    if not len(p_r):
        return 0, np.empty((0, len(ids)), dtype=int)
    relevant = np.isin(ids, a_r)
    subsets = _subsets(int(relevant.sum()), subset_cap, np.random.default_rng(seed))
    chosen = np.zeros((len(subsets), len(ids)), dtype=bool)
    chosen[:, relevant] = subsets
    # few scenario: mask a non-empty chosen subset of the relevant
    # positions; most scenario: mask all but a chosen proper subset.
    few, most = chosen[chosen.any(axis=1)], ~chosen[(chosen != relevant).any(axis=1)]
    return len(few), np.where(np.vstack([few, most]), model.pad_id, ids)


def score_matrices_for_prefix(model, ids, n_few, variants, probs, sums, p_r, p_orig, psi_orig,
                              thresholds: Thresholds) -> np.ndarray:
    """A prefix's few/most scenario score matrices K_few, K_most, stacked
    into one (2, |A|, |A|) array, from its ``_scenario_rows``, their
    probabilities and ψ sums, and its ``relevant_activities`` result: in
    each variant's matrix a cell adds its masked terms before its kept
    ones, each in position order (one ``np.bincount``), and each scenario
    ``np.cumsum``s its variants in order."""
    nA = model.num_activities
    K = np.zeros((2, nA, nA))
    per_variant = relevance_scores(ids, variants, psi_orig, max_normalize(sums), p_orig, probs,
                                   p_r, thresholds.sim_eps, nA)
    for K_scenario, scored in zip(K, np.split(per_variant, [n_few])):
        if len(scored):
            K_scenario += np.cumsum(scored, axis=0)[-1]
    return K


def row_normalize(matrix: np.ndarray) -> np.ndarray:
    """Rows rescaled to sum to 1, taken over score magnitudes.

    The sign of a relevance score only records whether masking changed
    the prediction; the magnitude carries how strongly the activity was
    weighted, which is what the edge decision needs. All-zero rows stay
    zero."""
    out = np.abs(np.array(matrix, dtype=float))
    totals = out.sum(axis=1, keepdims=True)
    return np.divide(out, totals, out=np.zeros_like(out), where=totals > 0.0)


def attention_exploration_explain(model, prefixes, thresholds: Thresholds = Thresholds(),
                                  subset_cap: int = 256, seed: int = 0,
                                  n_mods: int = 20) -> ExplanationGraph:
    """Aggregate score matrices across prefixes and read the thresholded,
    OR-combined result as an adjacency matrix."""
    return Explainer("attention-exploration", thresholds, n_mods, subset_cap, seed)(model, prefixes)


# ------------------------------------------------------------------ handle


@dataclass(frozen=True)
class Explainer:
    """One explainer with its options bound, called as ``(model, prefixes)``
    to explain the prefixes together. Building it checks ``thresholds``, ``n_mods``,
    ``subset_cap`` and ``seed`` for both methods; backward ignores ``subset_cap``."""

    method: str  # "backward" or "attention-exploration"
    thresholds: Thresholds = Thresholds()
    n_mods: int = 20
    subset_cap: int = 256
    seed: int = 0

    def __post_init__(self):
        if self.method not in ("backward", "attention-exploration"):
            raise UsageError(f"unknown explainer method {self.method!r}")
        if not isinstance(self.thresholds, Thresholds):
            raise UsageError(f"thresholds must be a Thresholds, got {self.thresholds!r}")
        check_number("n_mods", self.n_mods, f"[0, {MAX_N_MODS}]", integer=True)
        check_number("subset_cap", self.subset_cap, f"[1, {MAX_SUBSET_CAP}]", integer=True)
        check_number("seed", self.seed, "[0, inf)", integer=True)

    def __call__(self, model, prefixes) -> ExplanationGraph:
        return self.explain(model, prefixes)[0]

    def explain(self, model, together, alone=()) -> tuple[ExplanationGraph, list]:
        """The graph of ``together``, and for each p of ``alone`` the labels
        its last non-PAD activity points to in ``self(model, [p])`` (None if
        it has none), from one ``_steps`` call. A one-prefix call always
        draws the same sub-seed, so the prefixes of one length in ``alone``
        share their masking and their calls."""
        n, state = len(together), np.random.SeedSequence(entropy=self.seed).generate_state
        sub_seeds = state(max(n, 1)).tolist()[:n] + state(1).tolist() * len(alone)
        labels, rules = model.activity_labels, [None] * len(alone)

        def together_steps():  # reducing each step of ``alone`` to its rule as it passes
            for step in self._steps(model, [*together, *alone], sub_seeds):
                if step[0] < n:
                    yield step
                else:
                    graph = self._fold(model, [step])
                    rules[step[0] - n] = frozenset(graph.successors(labels[step[1]]))

        return self._fold(model, together_steps()), rules

    def _steps(self, model, prefixes, sub_seeds):
        """``(i, last, a_r, p_r, K)`` for each prefix i with an activity, in
        order: its last, relevant and likely next activities, and its
        ``score_matrices_for_prefix`` for attention exploration; it depends
        only on the model, the prefix ids and ``sub_seeds[i]``. A prefix
        with no activity (empty or all PAD) is skipped unforwarded.
        ``_WINDOW`` prefixes at a time are grouped by length, in input
        order; per group each distinct sub-seed's masking is drawn once, and
        each pass (relevance rows, then scenario rows) goes through
        ``_scored_blocks``."""
        explore = self.method != "backward"
        th, nA = self.thresholds, model.num_activities
        for start in range(0, len(prefixes), _WINDOW):
            groups, steps = {}, []  # length -> (i, ids, last) of the prefixes with an activity
            for i in range(start, min(start + _WINDOW, len(prefixes))):
                ids = _prefix_ids(prefixes[i])
                if (last := _last_activity(ids, model.pad_id)) is not None:
                    groups.setdefault(len(ids), []).append((i, ids, last))
            for length, group in groups.items():
                masks = {s: random_maskings(length, self.n_mods, np.random.default_rng(s))
                         for s in {sub_seeds[i] for i, *_ in group}}
                found = [_relevance(*scored, th) for scored in _scored_blocks(
                    model, [_masked_rows(model, ids, masks[sub_seeds[i]]) for i, ids, _ in group])]
                p_rs = [likely_next(p_orig, th, nA) for _, _, p_orig, _ in found]
                Ks = [None] * len(group)
                if explore:
                    scenarios = [_scenario_rows(model, ids, a_r, p_r, self.subset_cap, sub_seeds[i])
                                 for (i, ids, _), (a_r, *_), p_r in zip(group, found, p_rs)]
                    scored = _scored_blocks(model, [variants for _, variants in scenarios])
                    Ks = [score_matrices_for_prefix(model, ids, *scenario, *rows, p_r, p_orig,
                                                    psi_orig, th)
                          for (_, ids, _), scenario, rows, p_r, (_, _, p_orig, psi_orig)
                          in zip(group, scenarios, scored, p_rs, found)]
                steps += [(i, last, a_r, p_r, K)
                          for (i, _, last), (a_r, *_), p_r, K in zip(group, found, p_rs, Ks)]
            yield from sorted(steps, key=lambda step: step[0])

    def _fold(self, model, steps) -> ExplanationGraph:
        """The graph of the steps, folded in order: ``backward_explain``'s
        join and prune, or ``attention_exploration_explain``'s sum."""
        nA = model.num_activities
        if self.method == "backward":
            adjacency = np.zeros((nA, nA), dtype=bool)  # [u, v]: edge u -> v
            vertices = np.zeros(nA, dtype=bool)
            for _, last, a_r, p_r, _ in steps:
                if len(a_r) and len(p_r):
                    adjacency[np.ix_(a_r, p_r)] = True
                    vertices[a_r] = vertices[p_r] = True
                shortcut = np.outer(adjacency[:, last], adjacency[last])
                shortcut[last, :] = shortcut[:, last] = False
                adjacency &= ~shortcut
            return _graph(model.activity_labels, adjacency, vertices)
        K = np.zeros((2, nA, nA))  # K_few, K_most
        for *_, K_prefix in steps:
            K += K_prefix
        delta = self.thresholds.edge_threshold(nA)
        combined = (row_normalize(K[0]) > delta) | (row_normalize(K[1]) > delta)
        return _graph(model.activity_labels, combined.T, np.ones(nA, dtype=bool))


# ------------------------------------------------------------------- export


def _dot_quote(label: str) -> str:
    return '"' + re.sub(r'(["\\])', r"\\\1", label) + '"'


def to_dot(graph: ExplanationGraph) -> str:
    lines = ["digraph explanation {"]
    for v in sorted(graph.vertices):
        lines.append(f"  {_dot_quote(v)};")
    for u, v in sorted(graph.edges):
        lines.append(f"  {_dot_quote(u)} -> {_dot_quote(v)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(graph: ExplanationGraph) -> str:
    payload = {
        "vertices": sorted(graph.vertices),
        "edges": [list(e) for e in sorted(graph.edges)],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"

