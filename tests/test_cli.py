import json
import warnings
import zipfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from attnexplain.cli import build_parser, main
from attnexplain.eventlog import build_log, extract_prefixes, parse_csv, split, write_csv
from attnexplain.metrics import weighted_f1
from attnexplain.synthlog import sequence, write_spec_file
from attnexplain.transformer import TransformerModel


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.txt"
    write_spec_file(sequence("A", "B", "C"), path)
    return path


@pytest.fixture
def log_file(tmp_path, spec_file):
    out = tmp_path / "synth"
    assert main(["--seed", "1", "--out-dir", str(out), "synth",
                 "--spec", str(spec_file), "--n-traces", "30"]) == 0
    return out / "log.csv"


TRAIN_FLAGS = ["--d-k", "8", "--heads", "2", "--ff-dim", "8", "--epochs", "3",
               "--max-len", "8"]


@pytest.fixture
def checkpoint(tmp_path, log_file):
    out = tmp_path / "train"
    assert main(["--seed", "1", "--out-dir", str(out), "train",
                 "--log", str(log_file), *TRAIN_FLAGS]) == 0
    return out / "checkpoint.npz"


def read_bytes(directory):
    # the echoed config records the (differing) output directory itself
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())
            if p.name != "resolved_config.json"}


def test_stats_stdout_and_files(tmp_path, log_file, capsys):
    out = tmp_path / "stats"
    assert main(["--out-dir", str(out), "stats", "--log", str(log_file)]) == 0
    captured = capsys.readouterr().out
    assert "cases      30" in captured
    assert "activities 3" in captured
    stats = json.loads((out / "stats.json").read_text())
    assert stats["num_events"] == 90
    assert (out / "resolved_config.json").exists()


def test_synth_outputs(log_file):
    out = log_file.parent
    edges = json.loads((out / "ground_truth_edges.json").read_text())
    assert sorted(map(tuple, edges)) == [("A", "B"), ("B", "C")]


def test_train_writes_checkpoint_and_f1(checkpoint):
    report = json.loads((checkpoint.parent / "f1_report.json").read_text())
    assert 0.0 <= report["weighted_f1"] <= 1.0
    assert report["n_train_traces"] + report["n_test_traces"] == 30
    assert checkpoint.exists()


def test_explain_and_evaluate(tmp_path, log_file, checkpoint):
    out = tmp_path / "explain"
    assert main(["--seed", "1", "--out-dir", str(out), "explain",
                 "--method", "backward", "--checkpoint", str(checkpoint),
                 "--log", str(log_file), "--n-mods", "4"]) == 0
    graph = json.loads((out / "graph.json").read_text())
    assert set(graph) == {"vertices", "edges"}
    prov = json.loads((out / "provenance.json").read_text())
    assert prov["method"] == "backward"
    assert (out / "graph.dot").read_text().startswith("digraph")

    out2 = tmp_path / "evaluate"
    assert main(["--seed", "1", "--out-dir", str(out2), "evaluate",
                 "--method", "backward", "--checkpoint", str(checkpoint),
                 "--log", str(log_file), "--n-mods", "4", "--sample-frac", "0.2"]) == 0
    report = json.loads((out2 / "report.json").read_text())
    assert set(report["metrics"]) == {
        "correctness", "completeness", "continuity", "contrastivity", "compactness",
    }


def test_prestudy_exp1_and_exp2(tmp_path, log_file, checkpoint):
    out = tmp_path / "exp1"
    assert main(["--seed", "1", "--out-dir", str(out), "prestudy", "--which", "exp1",
                 "--log", str(log_file), "--repeats", "1", *TRAIN_FLAGS]) == 0
    assert (out / "exp1.csv").exists() and (out / "exp1.json").exists()

    out2 = tmp_path / "exp2"
    assert main(["--seed", "1", "--out-dir", str(out2), "prestudy", "--which", "exp2",
                 "--log", str(log_file), "--checkpoint", str(checkpoint)]) == 0
    payload = json.loads((out2 / "exp2.json").read_text())
    assert len(payload["histogram"]) == 20


def test_config_file_with_flag_override(tmp_path, log_file):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "log": str(log_file), "d_k": 8, "h": 2, "ff_dim": 8, "epochs": 1,
        "max_len": 8, "seed": 1,
    }))
    out = tmp_path / "train_cfg"
    assert main(["--config", str(config), "--out-dir", str(out), "train",
                 "--epochs", "2"]) == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["epochs"] == 2          # flag wins
    assert resolved["d_k"] == 8             # file value kept


def test_rerun_is_byte_identical(tmp_path, spec_file, log_file, checkpoint):
    """Every command writes the same files, byte for byte, when rerun."""
    log = ["--log", str(log_file)]
    explainer = [*log, "--checkpoint", str(checkpoint), "--n-mods", "4"]
    methods = ("backward", "attention-exploration")
    runs = {  # output directory: (argv after --out-dir, files besides resolved_config.json)
        "synth": (["synth", "--spec", str(spec_file), "--n-traces", "30"],
                  {"log.csv", "ground_truth_edges.json"}),
        "stats": (["stats", *log], {"stats.json"}),
        "train": (["train", *log, *TRAIN_FLAGS], {"checkpoint.npz", "f1_report.json"}),
        **{f"explain-{m}": (["explain", "--method", m, *explainer],
                            {"graph.dot", "graph.json", "provenance.json"}) for m in methods},
        **{f"evaluate-{m}": (["evaluate", "--method", m, *explainer, "--sample-frac", "0.5"],
                             {"report.json", "report.txt"}) for m in methods},
        "exp1": (["prestudy", "--which", "exp1", *log, "--repeats", "1", *TRAIN_FLAGS],
                 {"exp1.csv", "exp1.json"}),
        "exp2": (["prestudy", "--which", "exp2", *log, "--checkpoint", str(checkpoint)],
                 {"exp2.csv", "exp2.json"}),
    }
    for name, (argv, files) in runs.items():
        outputs = []
        for tag in ("x", "y"):
            out = tmp_path / tag / name
            assert main(["--seed", "1", "--out-dir", str(out), *argv]) == 0
            assert sorted(p.name for p in out.iterdir()) == sorted({"resolved_config.json", *files})
            outputs.append(read_bytes(out))
        assert outputs[0] == outputs[1], name


def write_log(path, traces):
    write_csv(build_log([(f"c{i}", t) for i, t in enumerate(traces)]), path)
    return path


OUT = ["--out-dir", "{tmp}/o"]
LONG_LOG = ["--log", "{tmp}/long.csv", "--checkpoint", "{ckpt}"]
LONGER_THAN_CHECKPOINT = "length 9, beyond the checkpoint's max_len 8"
TRAIN = [*OUT, "train", "--log", "{log}", *TRAIN_FLAGS]
EXPLAIN = [*OUT, "explain", "--method", "attention-exploration", "--log", "{log}",
           "--checkpoint", "{ckpt}"]
EVALUATE = [*OUT, "evaluate", "--method", "backward", "--log", "{log}", "--checkpoint", "{ckpt}"]
NOT_UTF8 = "input is not UTF-8"
BAD_CHECKPOINT = [*OUT, "prestudy", "--which", "exp2", "--log", "{log}", "--checkpoint"]
NOT_META_OBJECT = "is not an object with config and an activity_labels list"
EXIT_CASES = {
    # case: (argv, exit code, part of the error message); "{log}" is the
    # synthetic log, "{ckpt}" the max_len-8 checkpoint trained on it and
    # "{tmp}" the test's scratch directory
    "missing-out-dir": (["train", "--log", "{log}", *TRAIN_FLAGS], 2, "'out_dir'"),
    "train-frac-out-of-range": ([*OUT, "--train-frac", "1.5", "train", "--log", "{log}",
                                 *TRAIN_FLAGS], 2,
                                 "train_frac must be a number in (0, 1), got 1.5"),
    "d-k-not-divisible-by-heads": ([*OUT, "train", "--log", "{log}", *TRAIN_FLAGS,
                                    "--d-k", "7"], 2, "d_k=7 not divisible by h=2"),
    "missing-log": ([*OUT, "stats", "--log", "{tmp}/nope.csv"], 3, "nope.csv"),
    "log-is-directory": ([*OUT, "train", "--log", "{tmp}", *TRAIN_FLAGS], 3,
                         "Is a directory"),
    "malformed-log": ([*OUT, "stats", "--log", "{tmp}/bad.csv"], 4, "missing columns"),
    "malformed-config": (["--config", "{tmp}/config.json", *OUT, "stats", "--log", "{log}"],
                         4, "invalid JSON"),
    "explain-log-longer-than-checkpoint": (
        [*OUT, "explain", "--method", "backward", *LONG_LOG], 4, LONGER_THAN_CHECKPOINT),
    "evaluate-log-longer-than-checkpoint": (
        [*OUT, "evaluate", "--method", "backward", *LONG_LOG], 4, LONGER_THAN_CHECKPOINT),
    "exp2-log-longer-than-checkpoint": (
        [*OUT, "prestudy", "--which", "exp2", *LONG_LOG], 4, LONGER_THAN_CHECKPOINT),
    "log-vocabulary-differs-from-checkpoint": (
        [*OUT, "explain", "--method", "backward", "--log", "{tmp}/cba.csv",
         "--checkpoint", "{ckpt}"], 4,
        "log activities ['C', 'B', 'A'] differ from the checkpoint's ['A', 'B', 'C']"),
    "batch-size-zero": ([*TRAIN, "--batch-size", "0"], 2,
                        "batch_size must be an integer in [1, inf), got 0"),
    "epochs-negative": ([*TRAIN, "--epochs", "-1"], 2,
                        "epochs must be an integer in [1, inf), got -1"),
    "max-len-negative": ([*TRAIN, "--max-len", "-3"], 2,
                         "max_len must be an integer in [1, 4096], got -3"),
    "ff-dim-zero": ([*TRAIN, "--ff-dim", "0"], 2, "ff_dim must be an integer in [1, 4096], got 0"),
    "max-len-above-limit": ([*TRAIN, "--max-len", "10000000000000"], 2,
                            "max_len must be an integer in [1, 4096], got 10000000000000"),
    "d-k-above-limit": ([*TRAIN, "--d-k", "10000000000000"], 2,
                        "d_k must be an integer in [1, 1024], got 10000000000000"),
    "ff-dim-above-limit": ([*TRAIN, "--ff-dim", "10000000000000"], 2,
                           "ff_dim must be an integer in [1, 4096], got 10000000000000"),
    "learning-rate-zero": ([*TRAIN, "--learning-rate", "0"], 2,
                           "learning_rate must be a number in (0, inf), got 0.0"),
    "learning-rate-negative": ([*TRAIN, "--learning-rate", "-0.01"], 2,
                               "learning_rate must be a number in (0, inf), got -0.01"),
    "learning-rate-inf": ([*TRAIN, "--learning-rate", "inf"], 2,
                          "learning_rate must be a number in (0, inf), got inf"),
    "config-learning-rate-inf": (["--config", "{tmp}/lr_inf.json", *TRAIN], 2,
                                 "learning_rate must be a number in (0, inf), got inf"),
    "config-not-an-object": (["--config", "{tmp}/list.json", *OUT, "stats", "--log", "{log}"],
                             4, "is not a JSON object"),
    "config-value-outside-choices": (
        ["--config", "{tmp}/scope.json", *OUT, "prestudy", "--which", "exp1", "--log", "{log}"],
        2, "scope='bogus'"),
    "config-value-of-wrong-type": (
        ["--config", "{tmp}/n_mods.json", *OUT, "explain", "--method", "backward",
         "--log", "{log}", "--checkpoint", "{ckpt}"], 2, "n_mods='x'"),
    "pad-dropout-not-a-number": (["--config", "{tmp}/pad_x.json", *TRAIN], 2,
                                 "pad_dropout must be a number in [0, 1), got 'x'"),
    "pad-dropout-above-range": (["--config", "{tmp}/pad_1.5.json", *TRAIN], 2,
                                "pad_dropout must be a number in [0, 1), got 1.5"),
    "pad-dropout-negative": (["--config", "{tmp}/pad_-0.1.json", *TRAIN], 2,
                             "pad_dropout must be a number in [0, 1), got -0.1"),
    "exp1-repeats-zero": ([*OUT, "prestudy", "--which", "exp1", "--log", "{log}",
                           "--repeats", "0"], 2, "repeats must be an integer in [1, inf), got 0"),
    "config-epochs-float": (["--config", "{tmp}/epochs_2.0.json", *TRAIN], 2, "epochs=2.0"),
    "config-seed-float": (["--config", "{tmp}/seed_1.0.json", *TRAIN], 2, "seed=1.0"),
    "config-epochs-bool": (["--config", "{tmp}/epochs_true.json", *TRAIN], 2, "epochs=True"),
    "config-learning-rate-bool": (["--config", "{tmp}/lr_true.json", *TRAIN], 2,
                                  "learning_rate=True"),
    "sample-frac-nan": ([*EVALUATE, "--sample-frac", "nan"], 2,
                        "sample_frac must be a number in (0, 1], got nan"),
    "sample-frac-negative": ([*EVALUATE, "--sample-frac", "-1"], 2,
                             "sample_frac must be a number in (0, 1], got -1.0"),
    "sample-frac-zero": ([*EVALUATE, "--sample-frac", "0"], 2,
                         "sample_frac must be a number in (0, 1], got 0.0"),
    "n-mods-negative": ([*EXPLAIN, "--n-mods", "-3"], 2,
                        "n_mods must be an integer in [0, 4096], got -3"),
    "subset-cap-zero": ([*EXPLAIN, "--subset-cap", "0"], 2,
                        "subset_cap must be an integer in [1, 4096], got 0"),
    "subset-cap-zero-backward": (
        [*OUT, "explain", "--method", "backward", "--log", "{log}", "--checkpoint", "{ckpt}",
         "--subset-cap", "0"], 2, "subset_cap must be an integer in [1, 4096], got 0"),
    "n-mods-with-missing-checkpoint": (
        [*OUT, "evaluate", "--method", "backward", "--log", "{log}", "--checkpoint",
         "{tmp}/none.npz", "--n-mods", "-1"], 2, "n_mods must be an integer in [0, 4096], got -1"),
    "n-mods-above-limit": ([*EXPLAIN, "--n-mods", "4097"], 2,
                           "n_mods must be an integer in [0, 4096], got 4097"),
    "subset-cap-above-limit": ([*EXPLAIN, "--subset-cap", "4097"], 2,
                               "subset_cap must be an integer in [1, 4096], got 4097"),
    "delta-sim-nan": ([*EXPLAIN, "--delta-sim", "nan"], 2,
                      "delta_sim must be a number in [0, 1], got nan"),
    "delta-attr-negative": ([*EVALUATE, "--delta-attr", "-1"], 2,
                            "delta_attr must be a number in [0, 1], got -1.0"),
    "delta-pred-above-one": ([*EXPLAIN, "--delta-pred", "2"], 2,
                             "delta_pred must be a number in [0, 1], got 2.0"),
    "log-not-utf8": ([*OUT, "stats", "--log", "{tmp}/not_utf8.csv"], 4, NOT_UTF8),
    "config-not-utf8": (["--config", "{tmp}/not_utf8.json", *OUT, "stats", "--log", "{log}"],
                        4, NOT_UTF8),
    "spec-not-utf8": ([*OUT, "synth", "--spec", "{tmp}/not_utf8.spec"], 4, NOT_UTF8),
    "log-empty-activity": ([*OUT, "stats", "--log", "{tmp}/empty_activity.csv"], 4,
                           "empty activity name in case 'c1'"),
    "checkpoint-meta-not-json": ([*BAD_CHECKPOINT, "{tmp}/meta_not_json.npz"], 4,
                                 "unreadable checkpoint metadata"),
    "checkpoint-meta-not-object": ([*BAD_CHECKPOINT, "{tmp}/meta_list.npz"], 4,
                                   NOT_META_OBJECT),
    "checkpoint-meta-without-config": ([*BAD_CHECKPOINT, "{tmp}/meta_no_config.npz"], 4,
                                       NOT_META_OBJECT),
    "checkpoint-nan-parameter": ([*BAD_CHECKPOINT, "{tmp}/nan_param.npz"], 4,
                                 "parameter Wout holds NaN or infinite values"),
    "checkpoint-inf-parameter-explain": (
        [*OUT, "explain", "--method", "backward", "--log", "{log}", "--checkpoint",
         "{tmp}/inf_param.npz"], 4, "parameter embed holds NaN or infinite values"),
    "checkpoint-unknown-parameter": ([*BAD_CHECKPOINT, "{tmp}/extra_param.npz"], 4,
                                     "missing parameters [], unexpected ['extra']"),
    "checkpoint-max-len-negative": ([*BAD_CHECKPOINT, "{tmp}/max_len_neg.npz"], 4,
                                    "max_len must be an integer in [1, 4096], got -1"),
    "checkpoint-d-k-float": ([*BAD_CHECKPOINT, "{tmp}/d_k_float.npz"], 4,
                             "d_k must be an integer in [1, 1024], got 8.0"),
    "checkpoint-heads-float": ([*BAD_CHECKPOINT, "{tmp}/h_float.npz"], 4,
                               "h must be an integer in [1, inf), got 2.0"),
    "checkpoint-max-len-float": ([*BAD_CHECKPOINT, "{tmp}/max_len_float.npz"], 4,
                                 "max_len must be an integer in [1, 4096], got 8.0"),
    "checkpoint-ff-dim-float": ([*BAD_CHECKPOINT, "{tmp}/ff_dim_float.npz"], 4,
                                "ff_dim must be an integer in [1, 4096], got 8.0"),
    "checkpoint-max-len-above-limit": (
        [*BAD_CHECKPOINT, "{tmp}/max_len_big.npz"], 4,
        "max_len must be an integer in [1, 4096], got 10000000000000"),
    "checkpoint-d-k-above-limit": ([*BAD_CHECKPOINT, "{tmp}/d_k_big.npz"], 4,
                                   "d_k must be an integer in [1, 1024], got 10000000000000"),
    "checkpoint-learning-rate-inf": ([*BAD_CHECKPOINT, "{tmp}/lr_inf.npz"], 4,
                                     "learning_rate must be a number in (0, inf), got inf"),
    "checkpoint-seed-not-a-number": ([*BAD_CHECKPOINT, "{tmp}/seed_x.npz"], 4,
                                     "seed must be an integer in [0, inf), got 'x'"),
    "checkpoint-seed-negative": ([*BAD_CHECKPOINT, "{tmp}/seed_neg.npz"], 4,
                                 "seed must be an integer in [0, inf), got -1"),
    "checkpoint-seed-bool": ([*BAD_CHECKPOINT, "{tmp}/seed_true.npz"], 4,
                             "seed must be an integer in [0, inf), got True"),
    "checkpoint-parameter-of-strings": ([*BAD_CHECKPOINT, "{tmp}/str_param.npz"], 4,
                                        "parameter Wout has dtype <U1, not <f4"),
    "checkpoint-parameter-of-numeric-strings": (
        [*BAD_CHECKPOINT, "{tmp}/numeric_str_param.npz"], 4, "parameter Wo has dtype <U3, not <f4"),
    "checkpoint-parameter-complex": (
        [*OUT, "explain", "--method", "backward", "--log", "{log}", "--checkpoint",
         "{tmp}/complex_param.npz"], 4, "parameter Wo has dtype <c8, not <f4"),
    "checkpoint-parameter-big-endian": ([*BAD_CHECKPOINT, "{tmp}/big_endian_param.npz"], 4,
                                        "parameter Wo has dtype >f4, not <f4"),
    "checkpoint-member-not-npy": ([*BAD_CHECKPOINT, "{tmp}/raw_member.npz"], 4,
                                  "parameter Wout has dtype |S12, not <f4"),
    "checkpoint-truncated": ([*BAD_CHECKPOINT, "{tmp}/truncated.npz"], 4,
                             "cannot read checkpoint"),
    "spec-max-iter-not-a-number": ([*OUT, "synth", "--spec", "{tmp}/max_iter_x.spec"], 4,
                                   "max_iter must be an integer in [1, 1000], got 'x'"),
    "spec-max-iter-above-limit": ([*OUT, "synth", "--spec", "{tmp}/max_iter_big.spec"], 4,
                                  "max_iter must be an integer in [1, 1000], got 20000"),
    "spec-max-iter-float": (
        [*OUT, "synth", "--spec", "{tmp}/max_iter_2.5.spec"], 4,
        "max_iter_2.5.spec: max_iter must be an integer in [1, 1000], got '2.5'"),
    "spec-activity-pad": ([*OUT, "synth", "--spec", "{tmp}/pad_name.spec"], 4,
                          "pad_name.spec: activity name '_' is empty or reserved"),
    "spec-activity-end": ([*OUT, "synth", "--spec", "{tmp}/end_name.spec"], 4,
                          "end_name.spec: activity name '<END>' is empty or reserved"),
    "spec-kind-unknown": ([*OUT, "synth", "--spec", "{tmp}/nope.spec"], 4,
                          "nope.spec: unknown structure kind 'nope'"),
    "seed-negative-train": (["--seed", "-1", *TRAIN], 2,
                            "seed must be an integer in [0, inf), got -1"),
    "seed-negative-synth": (["--seed", "-1", *OUT, "synth", "--spec", "{tmp}/spec.txt"], 2,
                            "seed must be an integer in [0, inf), got -1"),
    "config-seed-negative": (["--config", "{tmp}/seed_-1.json", *OUT, "stats", "--log", "{log}"],
                             2, "seed must be an integer in [0, inf), got -1"),
    "synth-n-traces-zero": ([*OUT, "synth", "--spec", "{tmp}/spec.txt", "--n-traces", "0"], 2,
                            "n_traces must be an integer in [1, 666666], got 0"),
    "synth-n-traces-above-limit": (
        [*OUT, "synth", "--spec", "{tmp}/spec.txt", "--n-traces", "1000000000000"], 2,
        "n_traces must be an integer in [1, 666666], got 1000000000000"),
    "xes-without-traces": ([*OUT, "stats", "--log", "{tmp}/no_traces.xes", "--format", "xes"], 4,
                           "no usable traces in"),
    "log-header-only": ([*OUT, "stats", "--log", "{tmp}/header_only.csv"], 4, "no event rows"),
    "train-one-trace": ([*OUT, "train", "--log", "{tmp}/one_trace.csv", *TRAIN_FLAGS], 2,
                        "need at least 2 traces to split, got 1"),
    "config-learning-rate-beyond-float": (["--config", "{tmp}/lr_big.json", *TRAIN], 2,
                                          "is not valid for --learning-rate"),
    "exp2-without-checkpoint": ([*OUT, "prestudy", "--which", "exp2", "--log", "{log}"], 4,
                                "experiment 2 needs --checkpoint"),
    "checkpoint-format-version-2": ([*BAD_CHECKPOINT, "{tmp}/version_2.npz"], 4,
                                    "unsupported checkpoint version 2"),
}
CHECKPOINT_METAS = {
    "meta_not_json.npz": b"{not json",
    "meta_list.npz": b"[1, 2]",
    "meta_no_config.npz": b'{"format_version": 1, "activity_labels": ["A", "B", "C"]}',
    "version_2.npz": b'{"format_version": 2, "config": {}, "activity_labels": ["A", "B", "C"]}',
}
CONFIG_FILES = {
    "config.json": "{not json",
    "list.json": "[1, 2]",
    "scope.json": '{"scope": "bogus"}',
    "n_mods.json": '{"n_mods": "x"}',
    "pad_x.json": '{"pad_dropout": "x"}',
    "pad_1.5.json": '{"pad_dropout": 1.5}',
    "pad_-0.1.json": '{"pad_dropout": -0.1}',
    "epochs_2.0.json": '{"epochs": 2.0}',
    "seed_1.0.json": '{"seed": 1.0}',
    "epochs_true.json": '{"epochs": true}',
    "lr_true.json": '{"learning_rate": true}',
    "lr_inf.json": '{"learning_rate": Infinity}',
    "empty_activity.csv": "case,activity,time\nc1,A,1\nc1,,2\n",
    "seed_-1.json": '{"seed": -1}',
    "max_iter_x.spec": "kind = loop\nbody = A B\nmax_iter = x\n",
    "max_iter_big.spec": "kind = loop\nbody = A B\nmax_iter = 20000\n",
    "max_iter_2.5.spec": "kind = loop\nbody = A B\nmax_iter = 2.5\n",
    "pad_name.spec": "kind = sequence\nactivities = A _\n",
    "end_name.spec": "kind = sequence\nactivities = A <END>\n",
    "nope.spec": "kind = nope\nactivities = A\n",
    "no_traces.xes": '<log xmlns="http://www.xes-standard.org/"></log>\n',
    "header_only.csv": "case,activity,time\n",
    "one_trace.csv": "case,activity,time\nc1,A,1\nc1,B,2\n",
    "lr_big.json": '{"learning_rate": 1' + "0" * 400 + "}",  # an integer beyond float
}


@pytest.mark.parametrize("case", sorted(EXIT_CASES))
def test_exit_code(tmp_path, log_file, checkpoint, capsys, monkeypatch, case):
    (tmp_path / "bad.csv").write_text("x,y\n1,2\n")
    for name, text in CONFIG_FILES.items():
        (tmp_path / name).write_text(text)
    for name in ("not_utf8.csv", "not_utf8.json", "not_utf8.spec"):
        (tmp_path / name).write_bytes(b"case,activity,time\nc1,\xff\xfe,1\n")
    for name, meta in CHECKPOINT_METAS.items():
        np.savez(tmp_path / name, __meta__=np.frombuffer(meta, dtype=np.uint8))
    with np.load(checkpoint) as data:
        arrays = dict(data)
    nan_wout, inf_embed = arrays["Wout"].copy(), arrays["embed"].copy()
    nan_wout[0, 0], inf_embed[-1, -1] = np.nan, -np.inf
    np.savez(tmp_path / "nan_param.npz", **{**arrays, "Wout": nan_wout})
    np.savez(tmp_path / "inf_param.npz", **{**arrays, "embed": inf_embed})
    np.savez(tmp_path / "extra_param.npz", **arrays, extra=np.zeros(1, dtype="<f4"))
    np.savez(tmp_path / "str_param.npz", **{**arrays, "Wout": np.full(arrays["Wout"].shape, "x")})
    for name, wo in (("numeric_str_param.npz", arrays["Wo"].astype("<U3")),
                     ("complex_param.npz", arrays["Wo"].astype(np.complex64) + np.complex64(1j)),
                     ("big_endian_param.npz", arrays["Wo"].astype(">f4"))):
        np.savez(tmp_path / name, **{**arrays, "Wo": wo})
    raw_member = tmp_path / "raw_member.npz"
    with zipfile.ZipFile(checkpoint) as npz, zipfile.ZipFile(raw_member, "w") as out:
        for name in npz.namelist():  # Wout.npy holds bytes that are not .npy data
            out.writestr(name, b"not npy data" if name == "Wout.npy" else npz.read(name))
    (tmp_path / "truncated.npz").write_bytes(checkpoint.read_bytes()[:200])
    for name, field, value in (("max_len_neg.npz", "max_len", -1),
                               ("lr_inf.npz", "learning_rate", float("inf")),
                               ("d_k_float.npz", "d_k", 8.0), ("h_float.npz", "h", 2.0),
                               ("max_len_float.npz", "max_len", 8.0),
                               ("ff_dim_float.npz", "ff_dim", 8.0),
                               ("max_len_big.npz", "max_len", 10_000_000_000_000),
                               ("d_k_big.npz", "d_k", 10_000_000_000_000),
                               ("seed_x.npz", "seed", "x"), ("seed_neg.npz", "seed", -1),
                               ("seed_true.npz", "seed", True)):
        meta = json.loads(bytes(arrays["__meta__"]).decode())
        meta["config"][field] = value
        np.savez(tmp_path / name, **{**arrays, "__meta__": np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8)})
    write_log(tmp_path / "long.csv", [["A", "B", "C"] * 3] * 10)
    write_log(tmp_path / "cba.csv", [["C", "B", "A"]] * 10)
    real_init = TransformerModel.__init__

    def small_init(self, config, *args, **kwargs):  # a size check must come first
        assert max(config.d_k, config.max_len, config.ff_dim) <= 64, config
        real_init(self, config, *args, **kwargs)

    monkeypatch.setattr(TransformerModel, "__init__", small_init)
    argv, code, message = EXIT_CASES[case]
    capsys.readouterr()
    assert main([a.format(log=log_file, ckpt=checkpoint, tmp=tmp_path) for a in argv]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not (tmp_path / "o").exists()


def test_config_file_values_take_their_flag_type(tmp_path, log_file):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"train_frac": 1, "seed": 3}))
    out = tmp_path / "stats"
    assert main(["--config", str(config), "--out-dir", str(out), "stats",
                 "--log", str(log_file)]) == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["train_frac"] == 1.0 and isinstance(resolved["train_frac"], float)
    assert resolved["seed"] == 3 and isinstance(resolved["seed"], int)


def test_resolved_config_records_the_command_that_ran(tmp_path, spec_file):
    config = tmp_path / "config.json"
    config.write_text('{"command": "bogus"}')
    out = tmp_path / "o"
    assert main(["--config", str(config), "--out-dir", str(out), "synth",
                 "--spec", str(spec_file), "--n-traces", "5"]) == 0
    assert json.loads((out / "resolved_config.json").read_text())["command"] == "synth"


def test_empty_time_col_reads_as_the_library_without_one(tmp_path):
    log = tmp_path / "log.csv"
    log.write_text("case,activity\nc1,B\nc1,A\nc2,A\nc2,C\n")
    out = tmp_path / "o"
    assert main(["--out-dir", str(out), "stats", "--log", str(log)]) == 4  # no "time" column
    assert main(["--out-dir", str(out), "stats", "--log", str(log), "--time-col", ""]) == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats == asdict(parse_csv(log, time_col=None).stats)


BOM_ARGV = {"log": ["stats", "--log", "{log}"], "spec": ["synth", "--spec", "{spec}"],
            "config": ["--config", "{config}", "synth", "--spec", "{spec}"]}


# The unnamed trace is read as case_0; the unnamed event, the "start" event
# and the event without a lifecycle are dropped; "COMPLETE" matches.
LIFECYCLE_XES = """<?xml version="1.0" encoding="UTF-8"?>
<log xmlns="http://www.xes-standard.org/">
  <trace>
    <event><string key="concept:name" value="A"/>
      <string key="lifecycle:transition" value="complete"/></event>
    <event><string key="concept:name" value="A"/>
      <string key="lifecycle:transition" value="start"/></event>
    <event><string key="lifecycle:transition" value="complete"/></event>
    <event><string key="concept:name" value="B"/>
      <string key="lifecycle:transition" value="COMPLETE"/></event>
  </trace>
  <trace>
    <string key="concept:name" value="t2"/>
    <event><string key="concept:name" value="B"/>
      <string key="lifecycle:transition" value="complete"/></event>
    <event><string key="concept:name" value="C"/></event>
  </trace>
</log>
"""


def test_xes_log_with_lifecycle_filter_and_unnamed_elements(tmp_path):
    path = tmp_path / "log.xes"
    path.write_text(LIFECYCLE_XES, encoding="utf-8")
    out = tmp_path / "stats"
    assert main(["--out-dir", str(out), "stats", "--log", str(path), "--format", "xes",
                 "--lifecycle", "complete"]) == 0
    stats = json.loads((out / "stats.json").read_text())
    assert (stats["num_cases"], stats["num_events"], stats["num_activities"]) == (2, 3, 2)


@pytest.mark.parametrize("kind", sorted(BOM_ARGV))
def test_byte_order_mark_is_skipped(tmp_path, spec_file, log_file, kind):
    """A UTF-8 file that starts with a byte-order mark, as Excel's "CSV
    UTF-8" writes it, reads as the same file without one."""
    config = tmp_path / "config.json"
    config.write_text('{"n_traces": 5}')
    files = {"log": log_file, "spec": spec_file, "config": config}
    outputs = []
    for tag, mark in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        copy = tmp_path / f"{tag}-{files[kind].name}"
        copy.write_bytes(mark + files[kind].read_bytes())
        paths = {**files, kind: copy}
        out = tmp_path / tag
        argv = [a.format(**paths) for a in BOM_ARGV[kind]]
        assert main(["--out-dir", str(out), *argv]) == 0
        outputs.append(read_bytes(out))
    assert outputs[0] == outputs[1]


def test_attention_mode_is_a_train_option_only(tmp_path, log_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--out-dir", str(tmp_path / "o"), "prestudy", "--which", "exp1",
              "--log", str(log_file), "--attention-mode", "frozen_uniform"])
    assert exc.value.code == 2
    assert "--attention-mode" in capsys.readouterr().err
    out = tmp_path / "frozen"
    assert main(["--out-dir", str(out), "train", "--log", str(log_file), *TRAIN_FLAGS,
                 "--attention-mode", "frozen_uniform"]) == 0
    assert TransformerModel.load(out / "checkpoint.npz").config.attention_mode == "frozen_uniform"


def test_missing_out_dir_fails_before_training(log_file, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("trained before the options were checked")
    monkeypatch.setattr("attnexplain.cli.train", fail)
    assert main(["train", "--log", str(log_file), *TRAIN_FLAGS]) == 2


def test_exit_code_numeric_on_divergence(tmp_path, log_file, capsys):
    # train reports a divergence itself, as its one error line: no numpy warning
    for learning_rate in ("1e30", "1e200"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--seed", "1", "--out-dir", str(tmp_path / learning_rate), "train",
                         "--log", str(log_file), *TRAIN_FLAGS,
                         "--learning-rate", learning_rate]) == 5
        assert capsys.readouterr().err.count("\n") == 1


def test_train_writes_no_checkpoint_beyond_float32(tmp_path, log_file, capsys):
    # the trained parameters are finite in float64 but not in float32
    out = tmp_path / "o"
    assert main(["--seed", "1", "--out-dir", str(out), "train", "--log", str(log_file),
                 *TRAIN_FLAGS, "--learning-rate", "1e4"]) == 5
    assert "lies beyond the float32 range" in capsys.readouterr().err
    assert not (out / "checkpoint.npz").exists()


def test_no_dedup_flag_changes_prefix_count(tmp_path, log_file, checkpoint):
    out1 = tmp_path / "dedup"
    main(["--seed", "1", "--out-dir", str(out1), "explain",
          "--method", "backward", "--checkpoint", str(checkpoint),
          "--log", str(log_file), "--n-mods", "2"])
    out2 = tmp_path / "nodedup"
    main(["--seed", "1", "--out-dir", str(out2), "explain",
          "--method", "backward", "--checkpoint", str(checkpoint),
          "--log", str(log_file), "--n-mods", "2", "--no-dedup"])
    n1 = json.loads((out1 / "provenance.json").read_text())["n_prefixes"]
    n2 = json.loads((out2 / "provenance.json").read_text())["n_prefixes"]
    assert n1 < n2  # the sequence log repeats the same few variants


def test_train_sizes_max_len_from_whole_log(tmp_path):
    # with split seed 4 the single long trace is held out for testing
    long_trace = ["A", "B", "C", "B", "C", "B", "C", "D"]
    log = write_log(tmp_path / "log.csv", [["A", "B", "C"]] * 30 + [long_trace])
    parsed = parse_csv(log, "case", "activity", "time")
    assert long_trace in [[parsed.label(a) for a in t.activities]
                          for t in split(parsed, 0.7, seed=4)[1].traces]
    out = tmp_path / "train"
    assert main(["--seed", "4", "--out-dir", str(out), "train", "--log", str(log),
                 *TRAIN_FLAGS, "--max-len", "4"]) == 0
    assert TransformerModel.load(out / "checkpoint.npz").config.max_len == len(long_trace)


def test_f1_report_scores_the_saved_checkpoint(log_file, checkpoint):
    report = json.loads((checkpoint.parent / "f1_report.json").read_text())
    test_log = split(parse_csv(log_file, "case", "activity", "time"), 0.7, seed=1)[1]
    reloaded = TransformerModel.load(checkpoint)
    assert report["weighted_f1"] == weighted_f1(reloaded, extract_prefixes(test_log))


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """A spec, its 30-trace log and a tiny checkpoint, shared by a module's
    examples; "{tmp}" of an argv template is this directory."""
    tmp = tmp_path_factory.mktemp("cli")
    write_spec_file(sequence("A", "B", "C"), tmp / "spec.txt")
    assert main(["--seed", "1", "--out-dir", str(tmp / "synth"), "synth",
                 "--spec", str(tmp / "spec.txt"), "--n-traces", "30"]) == 0
    assert main(["--seed", "1", "--out-dir", str(tmp / "train"), "train",
                 "--log", str(tmp / "synth" / "log.csv"), *TRAIN_FLAGS]) == 0
    return {"tmp": tmp, "log": tmp / "synth" / "log.csv", "ckpt": tmp / "train" / "checkpoint.npz"}


NAN, INF = float("nan"), float("inf")
BELOW_0 = st.integers(-10**9, -1)
BELOW_1 = st.integers(-10**9, 0)
NEGATIVE_OR_NOT_FINITE = st.sampled_from([NAN, INF, -INF]) | st.floats(-1e9, -1e-9)
NOT_POSITIVE = NEGATIVE_OR_NOT_FINITE | st.sampled_from([0.0, -0.0])
SYNTH = [*OUT, "synth", "--spec", "{tmp}/spec.txt"]
EXP1 = [*OUT, "prestudy", "--which", "exp1", "--log", "{log}", *TRAIN_FLAGS]
# flag: (its type, the command it is given to, values its documented rule rejects)
NUMERIC_FLAGS = {
    "--seed": (int, SYNTH, BELOW_0),
    "--train-frac": (float, TRAIN, NOT_POSITIVE),
    "--n-traces": (int, SYNTH, BELOW_1),
    **{flag: (int, TRAIN, BELOW_1) for flag in
       ("--d-k", "--heads", "--max-len", "--ff-dim", "--epochs", "--batch-size")},
    "--learning-rate": (float, TRAIN, NOT_POSITIVE),
    "--repeats": (int, EXP1, BELOW_1),
    **{flag: (float, EXPLAIN, NEGATIVE_OR_NOT_FINITE) for flag in
       ("--delta-sim", "--delta-attr", "--delta-pred", "--delta-edge", "--sim-eps")},
    "--n-mods": (int, EXPLAIN, BELOW_0),
    "--subset-cap": (int, EXPLAIN, BELOW_1),
    "--sample-frac": (float, EVALUATE, NOT_POSITIVE),
}
GLOBAL_FLAGS = ("--seed", "--train-frac")
WRONG_JSON_TYPES = st.sampled_from(["1", True, False, None, [1]])


def flag_actions():
    """Every flag of the global parser and of each command, by its option string."""
    parser = build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    return {flag: a for p in (parser, *commands.values()) for a in p._actions
            for flag in a.option_strings}


def test_numeric_flags_are_every_typed_flag():
    typed = {flag: a.type for flag, a in flag_actions().items() if a.type in (int, float)}
    assert typed == {flag: kind for flag, (kind, _, _) in NUMERIC_FLAGS.items()}


@pytest.mark.parametrize("flag", sorted(NUMERIC_FLAGS))
@given(data=st.data())
# capsys is read out before each example's run, so sharing it is safe
@settings(max_examples=2, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_rejected_option_values_exit_2(cli_inputs, capsys, flag, data):
    """A value the flag's rule rejects, given as the flag or in --config,
    or a config value of a wrong JSON type, exits 2 with one error line
    and writes no output."""
    kind, command, rejected = NUMERIC_FLAGS[flag]
    base = [a.format(**cli_inputs) for a in command]
    if flag in base:  # the flag would override the config value
        at = base.index(flag)
        base = base[:at] + base[at + 2:]
    if data.draw(st.booleans(), label="through --config"):
        wrong = WRONG_JSON_TYPES | (st.floats() if kind is int else st.nothing())
        value = data.draw(rejected | wrong, label="value")
        config = cli_inputs["tmp"] / "config.json"
        config.write_text(json.dumps({flag_actions()[flag].dest: value}))
        argv = ["--config", str(config), *base]
    else:
        option = [f"{flag}={data.draw(rejected, label='value')}"]
        argv = [*option, *base] if flag in GLOBAL_FLAGS else [*base, *option]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (cli_inputs["tmp"] / "o").exists()
