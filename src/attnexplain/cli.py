"""Command-line pipeline: stats, synth, train, prestudy, explain, evaluate.

Every command runs on its configuration resolved from an optional JSON
config file plus flag overrides, echoes the resolved config into the
output directory, and writes deterministic artifacts (no timestamps), so a
rerun from the resolved config reproduces its outputs byte for byte.

Exit codes: 0 success, 2 usage, 3 I/O, 4 parse/schema, 5 numerical.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

from . import metrics, prestudy, synthlog
from .errors import (
    AttnExplainError,
    CheckpointError,
    EmptyLogError,
    LogParseError,
    SchemaError,
    SplitError,
    SynthSpecError,
    UsageError,
    check_number,
)
from .eventlog import (
    EventLog,
    extract_prefixes,
    parse_csv,
    parse_xes,
    split,
    unique_prefixes,
    write_csv,
)
from .explain import Explainer, Thresholds, to_dot, to_json
from .transformer import ModelConfig, TransformerModel, train

EXIT_USAGE = 2
EXIT_IO = 3
EXIT_PARSE = 4
EXIT_NUMERIC = 5

# Checked in order: the first row whose types match gives the exit code
# and the prefix of the one-line error message.
_EXIT_CODES = (
    ((LogParseError, SchemaError, EmptyLogError, SynthSpecError, CheckpointError), EXIT_PARSE, ""),
    (UnicodeDecodeError, EXIT_PARSE, "input is not UTF-8: "),
    ((UsageError, SplitError), EXIT_USAGE, ""),
    (OSError, EXIT_IO, ""),
    (KeyError, EXIT_USAGE, "missing required option "),
    (AttnExplainError, EXIT_NUMERIC, ""),
)

_MODEL_KEYS = tuple(f.name for f in fields(ModelConfig))
_THRESHOLD_FIELDS = tuple(f.name for f in fields(Thresholds))
# Namespace entries that are not options of the command.
_NOT_OPTIONS = ("config", "command", "func")


def _load_config_file(path) -> dict:
    try:
        with open(path, encoding="utf-8-sig") as f:
            config = json.load(f)
    except json.JSONDecodeError as e:
        raise LogParseError(f"invalid JSON config {path}: {e}", position=f"line {e.lineno}") from e
    if not isinstance(config, dict):
        raise LogParseError(f"config {path} is not a JSON object")
    return config


def _file_value(action, key, value):
    """A config-file value as its flag would give it. The value must be of
    the flag's type (bool for a switch, str if untyped; an int also
    passes for a float, a bool for neither) and among its choices."""
    kind = action.type or (bool if action.nargs == 0 else str)
    accepted = (int, float) if kind is float else kind
    try:
        valid = isinstance(value, accepted) and (kind is bool or not isinstance(value, bool))
        value = kind(value) if valid else value
    except OverflowError:  # an int beyond the float range
        valid = False
    if not valid or (action.choices is not None and value not in action.choices):
        raise UsageError(f"config value {key}={value!r} is not valid for "
                         f"{'/'.join(action.option_strings)}")
    return value


def _resolve(args, parser) -> dict:
    """Config-file values overridden by the flags given on the command line."""
    options = {k: v for k, v in vars(args).items() if k not in _NOT_OPTIONS}
    resolved = _load_config_file(args.config) if args.config else {}
    # The global flags and the command's own, by destination.
    commands = next(a for a in parser._actions if a.dest == "command").choices
    actions = {a.dest: a for a in (*parser._actions, *commands[args.command]._actions)}
    for key, value in resolved.items():
        if key in options:
            resolved[key] = _file_value(actions[key], key, value)
    resolved.update({k: v for k, v in options.items() if v is not None})
    check_number("seed", resolved.get("seed", 0), "[0, inf)", integer=True)
    return resolved


def _write(out: Path, resolved: dict, command: str, files: dict) -> None:
    """Echo the resolved config into ``out``, with the command that ran (not
    a config key), then write each ``name -> text`` artifact in order; a
    payload that is not text is written as sorted, indented JSON."""
    out.mkdir(parents=True, exist_ok=True)
    for name, text in {"resolved_config.json": {**resolved, "command": command}, **files}.items():
        if not isinstance(text, str):
            text = json.dumps(text, indent=2, sort_keys=True) + "\n"
        (out / name).write_text(text, encoding="utf-8")


def _given(resolved, names) -> dict:
    """The options among ``names`` that were set; the library function they
    are passed to holds the default and the range check of each other one."""
    return {k: resolved[k] for k in names if resolved.get(k) is not None}


def _read_log(resolved) -> EventLog:
    path = resolved["log"]
    if resolved.get("format", "csv") == "xes":
        return parse_xes(path, **_given(resolved, ("activity_prefix", "lifecycle")))
    return parse_csv(path, **_given(resolved, ("case_col", "activity_col", "time_col")))


def _split(resolved, logobj: EventLog) -> tuple[EventLog, EventLog]:
    return split(logobj, **_given(resolved, ("train_frac", "seed")))


def _model_and_test_log(resolved) -> tuple[TransformerModel, EventLog]:
    """The checkpoint's model and the test half of the resolved log; the
    log's vocabulary must be the model's and its test traces must fit it."""
    model = TransformerModel.load(resolved["checkpoint"])
    logobj = _read_log(resolved)
    if logobj.activity_labels != model.activity_labels:
        raise CheckpointError(f"log activities {logobj.activity_labels} differ from "
                              f"the checkpoint's {model.activity_labels}")
    test_log = _split(resolved, logobj)[1]
    longest, max_len = test_log.stats.max_len, model.config.max_len
    if longest > max_len:
        raise CheckpointError(f"test traces reach length {longest}, "
                              f"beyond the checkpoint's max_len {max_len}")
    return model, test_log


def _add_log_flags(p):
    p.add_argument("--log", help="event log file")
    p.add_argument("--format", choices=["csv", "xes"], help="log file format")
    p.add_argument("--case-col", dest="case_col")
    p.add_argument("--activity-col", dest="activity_col")
    p.add_argument("--time-col", dest="time_col")
    p.add_argument("--activity-prefix", dest="activity_prefix",
                   help="keep only XES events whose activity starts with this prefix")
    p.add_argument("--lifecycle", help="keep only XES events with this lifecycle:transition")


def _add_model_flags(p):
    p.add_argument("--d-k", dest="d_k", type=int)
    p.add_argument("--heads", dest="h", type=int)
    p.add_argument("--max-len", dest="max_len", type=int)
    p.add_argument("--ff-dim", dest="ff_dim", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)


def _add_threshold_flags(p):
    p.add_argument("--delta-sim", dest="delta_sim", type=float)
    p.add_argument("--delta-attr", dest="delta_attr", type=float)
    p.add_argument("--delta-pred", dest="delta_pred", type=float)
    p.add_argument("--delta-edge", dest="delta_edge", type=float)
    p.add_argument("--sim-eps", dest="sim_eps", type=float)
    p.add_argument("--n-mods", dest="n_mods", type=int)
    p.add_argument("--subset-cap", dest="subset_cap", type=int)


def cmd_stats(resolved) -> None:
    s = _read_log(resolved).stats
    table = (
        f"cases      {s.num_cases}\n"
        f"activities {s.num_activities}\n"
        f"events     {s.num_events}\n"
        f"avg_len    {s.avg_len:.2f}\n"
        f"max_len    {s.max_len}\n"
        f"variants   {s.num_variants}\n"
    )
    sys.stdout.write(table)
    if resolved.get("out_dir"):
        _write(Path(resolved["out_dir"]), resolved, "stats", {"stats.json": asdict(s)})


def cmd_synth(resolved) -> None:
    out = Path(resolved["out_dir"])
    spec = synthlog.parse_spec_file(resolved["spec"])
    logobj, truth = synthlog.synth_log(spec, **_given(resolved, ("n_traces", "seed")))
    _write(out, resolved, "synth", {"ground_truth_edges.json": sorted([list(e) for e in truth])})
    write_csv(logobj, out / "log.csv")
    sys.stdout.write(f"wrote {len(logobj.traces)} traces to {out / 'log.csv'}\n")


def cmd_train(resolved) -> None:
    out = Path(resolved["out_dir"])
    config = ModelConfig(**_given(resolved, _MODEL_KEYS))
    logobj = _read_log(resolved)
    # Size positions for the whole log, so that every test prefix fits too.
    config = replace(config, max_len=max(config.max_len, logobj.stats.max_len))
    train_log, test_log = _split(resolved, logobj)
    model = train(train_log, config)
    out.mkdir(parents=True, exist_ok=True)
    model.save(out / "checkpoint.npz")
    # Score the float32 model on disk, not the float64 one in memory.
    model = TransformerModel.load(out / "checkpoint.npz")
    test_prefixes = extract_prefixes(test_log)
    f1 = metrics.weighted_f1(model, test_prefixes)
    report = {"weighted_f1": f1, "n_test_prefixes": len(test_prefixes),
              "n_train_traces": len(train_log.traces), "n_test_traces": len(test_log.traces)}
    _write(out, resolved, "train", {"f1_report.json": report})
    sys.stdout.write(f"weighted F1 on test prefixes: {f1:.4f}\n")


def cmd_prestudy(resolved) -> None:
    out, which = Path(resolved["out_dir"]), resolved["which"]
    if which == "exp1":
        result = prestudy.experiment1(_read_log(resolved),
                                      config=ModelConfig(**_given(resolved, _MODEL_KEYS)),
                                      **_given(resolved, ("repeats", "train_frac", "scope")))
        summary = f"wrote {len(result.points)} comparison points\n"
    else:
        if not resolved.get("checkpoint"):
            raise CheckpointError("experiment 2 needs --checkpoint of a trained model")
        model, test_log = _model_and_test_log(resolved)
        result = prestudy.experiment2(model, extract_prefixes(test_log))
        summary = f"wrote {len(result.tvd)} TVD values\n"
    _write(out, resolved, "prestudy",
           {f"{which}.csv": result.to_csv(), f"{which}.json": result.to_json()})
    sys.stdout.write(summary)


def _explainer_handle(resolved) -> Explainer:
    """The method's explainer with the given options bound. Building it
    range-checks every option, so a bad one fails before any input is read."""
    thresholds = Thresholds(**_given(resolved, _THRESHOLD_FIELDS))
    return Explainer(resolved["method"], thresholds,
                     **_given(resolved, ("n_mods", "subset_cap", "seed")))


def cmd_explain(resolved) -> None:
    out = Path(resolved["out_dir"])
    handle = _explainer_handle(resolved)
    model, test_log = _model_and_test_log(resolved)
    prefixes = extract_prefixes(test_log)
    prefixes = unique_prefixes(prefixes) if resolved.get("dedup", True) else prefixes
    graph = handle(model, prefixes)
    provenance = {
        "method": resolved["method"],
        "thresholds": asdict(handle.thresholds),
        "seed": handle.seed,
        "n_prefixes": len(prefixes),
        "n_vertices": len(graph.vertices),
        "n_edges": len(graph.edges),
    }
    _write(out, resolved, "explain", {"graph.dot": to_dot(graph), "graph.json": to_json(graph),
                                      "provenance.json": provenance})
    sys.stdout.write(f"graph: {len(graph.vertices)} vertices, {len(graph.edges)} edges\n")


def cmd_evaluate(resolved) -> None:
    out = Path(resolved["out_dir"])
    handle = _explainer_handle(resolved)
    model, test_log = _model_and_test_log(resolved)
    report = metrics.evaluate_all(model, handle, test_log,
                                  **_given(resolved, ("sample_frac", "seed")))
    _write(out, resolved, "evaluate",
           {"report.json": report.to_json(), "report.txt": report.to_table()})
    sys.stdout.write(report.to_table())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attnexplain",
        description="Train, probe, and explain a transformer next-activity predictor.",
    )
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--seed", type=int, help="root random seed")
    parser.add_argument("--out-dir", dest="out_dir", help="output directory")
    parser.add_argument("--train-frac", dest="train_frac", type=float)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="print summary statistics for an event log")
    _add_log_flags(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("synth", help="generate a synthetic log from a structure spec")
    p.add_argument("--spec", required=True, help="structure spec file")
    p.add_argument("--n-traces", dest="n_traces", type=int)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model and report weighted F1")
    _add_log_flags(p)
    _add_model_flags(p)
    p.add_argument("--attention-mode", dest="attention_mode",
                   choices=["learned", "frozen_uniform"])
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("prestudy", help="run reliability experiment 1 or 2")
    p.add_argument("--which", choices=["exp1", "exp2"], required=True)
    p.add_argument("--repeats", type=int)
    p.add_argument("--checkpoint")
    p.add_argument("--scope", choices=["all_heads", "per_head"])
    _add_log_flags(p)
    _add_model_flags(p)
    p.set_defaults(func=cmd_prestudy)

    p = sub.add_parser("explain", help="build an explanation graph")
    p.add_argument("--method", choices=["backward", "attention-exploration"], required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--no-dedup", dest="dedup", action="store_false", default=None,
                   help="keep duplicate prefixes instead of unique variants")
    _add_log_flags(p)
    _add_threshold_flags(p)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("evaluate", help="run the five explanation metrics")
    p.add_argument("--method", choices=["backward", "attention-exploration"], required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--sample-frac", dest="sample_frac", type=float)
    _add_log_flags(p)
    _add_threshold_flags(p)
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(_resolve(args, parser))
    except (AttnExplainError, OSError, KeyError, UnicodeDecodeError) as e:
        code, prefix = next((code, prefix) for types, code, prefix in _EXIT_CODES
                            if isinstance(e, types))
        sys.stderr.write(f"error: {prefix}{e}\n")
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
