import csv
import io
import json
from dataclasses import replace

import numpy as np
import pytest

from attnexplain import prestudy
from attnexplain.attnstats import flatten, jsd, tvd
from attnexplain.errors import UsageError
from attnexplain.eventlog import build_log, extract_prefixes
from attnexplain.prestudy import compare_models, experiment1, experiment2
from attnexplain.transformer import (
    ATTENTION_FROZEN_UNIFORM,
    ModelConfig,
    TransformerModel,
)
from conftest import TINY_CONFIG, reference_forward

SMALL_CONFIG = ModelConfig(d_k=8, h=2, max_len=8, ff_dim=8, epochs=2,
                           batch_size=4, learning_rate=1e-2, seed=0)


def test_self_comparison_is_exact_zero(tiny_model):
    prefixes = [np.array([0, 1]), np.array([2, 0, 1])]
    mean_jsd, mean_tvd = compare_models(tiny_model, tiny_model, prefixes)
    assert (mean_jsd, mean_tvd) == (0.0, 0.0)


def test_compare_models_scopes_differ(abc_log, tiny_model):
    frozen = TransformerModel(
        ModelConfig(d_k=8, h=2, max_len=8, ff_dim=8,
                    attention_mode=ATTENTION_FROZEN_UNIFORM),
        abc_log.activity_labels,
    )
    prefixes = [np.array([0, 1, 2])]
    all_heads = compare_models(tiny_model, frozen, prefixes, scope="all_heads")
    per_head = compare_models(tiny_model, frozen, prefixes, scope="per_head")
    assert all_heads[0] > 0.0 and per_head[0] > 0.0
    assert all_heads[1] == per_head[1]  # predictions do not depend on scope
    with pytest.raises(ValueError):
        compare_models(tiny_model, frozen, prefixes, scope="nope")


def test_compare_models_checks_scope_without_prefixes(tiny_model):
    with pytest.raises(ValueError):
        compare_models(tiny_model, tiny_model, [], scope="nope")


def loop_compare_models(baseline, modified, prefixes, scope):
    """One ``forward`` per prefix and model; per_head averages the
    per-head JSDs of each prefix."""
    jsds, tvds = [], []
    for prefix in prefixes:
        p_b, att_b = baseline.forward(prefix)
        p_m, att_m = modified.forward(prefix)
        heads_b, all_b = flatten(att_b)
        heads_m, all_m = flatten(att_m)
        if scope == "all_heads":
            jsds.append(jsd(all_b, all_m))
        else:
            jsds.append(float(np.mean([jsd(hb, hm) for hb, hm in zip(heads_b, heads_m)])))
        tvds.append(tvd(p_b, p_m))
    return float(np.mean(jsds)), float(np.mean(tvds))


@pytest.mark.parametrize("scope", ["all_heads", "per_head"])
def test_compare_models_matches_per_prefix_loop(abc_log, scope):
    learned = TransformerModel(TINY_CONFIG, abc_log.activity_labels)
    frozen = TransformerModel(replace(TINY_CONFIG, attention_mode=ATTENTION_FROZEN_UNIFORM),
                              abc_log.activity_labels, rng=np.random.default_rng(1))
    # Per-length results left unscattered would fail the equality below
    # only if the loop means differ in their last bits when taken in length
    # order. Which data does that depends on the BLAS kernel, so the data
    # seed is searched under the running one.
    for seed in range(4, 44):
        rng = np.random.default_rng(seed)
        # Lengths 1-8 interleaved, so each length batch scatters to scattered rows.
        prefixes = [rng.integers(0, learned.pad_id + 1, size=int(n))
                    for n in rng.permutation(np.repeat(np.arange(1, 9), 3))]
        expected = loop_compare_models(learned, frozen, prefixes, scope)
        if loop_compare_models(learned, frozen, sorted(prefixes, key=len), scope) != expected:
            break
    else:
        pytest.fail("no data seed in [4, 44) makes length order change the loop means")
    assert expected[0] > 0.0 and expected[1] > 0.0
    assert compare_models(learned, frozen, prefixes, scope) == expected


def test_experiment1_shapes_and_determinism(abc_log):
    r1 = experiment1(abc_log, repeats=2, config=SMALL_CONFIG)
    r2 = experiment1(abc_log, repeats=2, config=SMALL_CONFIG)
    assert r1 == r2
    assert len(r1.points) == 2
    for pt in r1.points:
        assert pt.baseline_seed == pt.modified_seed  # paired by repeat
        assert 0.0 <= pt.mean_jsd <= np.log(2.0) + 1e-12
        assert 0.0 <= pt.mean_tvd <= 1.0
        assert pt.n_samples > 0


def test_experiment1_rejects_bad_repeats(abc_log):
    with pytest.raises(ValueError):
        experiment1(abc_log, repeats=0, config=SMALL_CONFIG)


def test_experiment1_rejects_an_unknown_scope_before_training(abc_log, monkeypatch):
    monkeypatch.setattr(prestudy, "train", lambda *_: pytest.fail("trained before the check"))
    with pytest.raises(UsageError, match="^unknown scope 'bogus'$"):
        experiment1(abc_log, repeats=1, config=SMALL_CONFIG, scope="bogus")


def test_exp1_serialization(abc_log):
    r = experiment1(abc_log, repeats=2, config=SMALL_CONFIG)
    rows = list(csv.DictReader(io.StringIO(r.to_csv())))
    assert len(rows) == 2
    assert float(rows[0]["mean_jsd"]) == pytest.approx(r.points[0].mean_jsd)
    payload = json.loads(r.to_json())
    assert payload["scope"] == "all_heads"
    assert len(payload["points"]) == 2


def test_experiment2_matches_reference_oracle(tiny_model):
    prefixes = [np.array([0, 1, 2]), np.array([2, 2])]
    result = experiment2(tiny_model, prefixes)
    assert len(result.rows) == 5  # one per (prefix, position)
    for idx, pos, value in result.rows:
        ids = prefixes[idx]
        masked_ids = ids.copy()
        masked_ids[pos] = tiny_model.pad_id
        p_in, _ = reference_forward(tiny_model, masked_ids)
        p_att, _ = reference_forward(tiny_model, ids, masked_positions={pos})
        oracle = 0.5 * np.abs(p_in - p_att).sum()
        assert value == pytest.approx(oracle, abs=1e-6)
        assert 0.0 <= value <= 1.0


def test_experiment2_histogram(tiny_model):
    prefixes = extract_prefixes(
        build_log([("c1", ["A", "B", "C"]), ("c2", ["B", "C"])])
    )
    result = experiment2(tiny_model, prefixes)
    assert len(result.histogram) == 20
    assert len(result.bin_edges) == 21
    assert sum(result.histogram) == len(result.rows)
    payload = json.loads(result.to_json())
    assert payload["n_values"] == len(result.rows)
    rows = list(csv.DictReader(io.StringIO(result.to_csv())))
    assert len(rows) == len(result.rows)


def test_experiment2_rows_read_as_int_int_float_triples(tiny_model):
    prefixes = [(0, 1, 2), (2, 2), (1,)]
    rows = experiment2(tiny_model, prefixes).rows
    assert [row[:2] for row in rows] == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    assert all(type(i) is int and type(pos) is int and type(v) is float for i, pos, v in rows)
    assert rows[1:3] == tuple(rows)[1:3] and rows[-1] == tuple(rows)[-1]
    assert rows == tuple(rows) and rows != tuple(rows)[:-1]


def test_experiment2_csv_across_its_chunk_boundary_equals_the_csv_of_its_rows(tiny_model):
    rng = np.random.default_rng(0)
    prefixes = [tuple(rng.integers(0, 3, size=4).tolist()) for _ in range(1100)]
    result = experiment2(tiny_model, prefixes)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["prefix_index", "position", "tvd"])
    for idx, pos, value in result.rows:
        writer.writerow([idx, pos, f"{value:.12g}"])
    assert len(result.rows) > 4096 and result.to_csv() == buf.getvalue()
    assert result == experiment2(tiny_model, prefixes)
    assert result != experiment2(tiny_model, prefixes[:-1])
