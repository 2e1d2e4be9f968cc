"""Attention-based explainability for transformer next-activity
prediction on process event logs."""

from .eventlog import (
    EventLog,
    LogStats,
    Prefix,
    Trace,
    build_log,
    extract_prefixes,
    parse_csv,
    parse_xes,
    split,
    write_csv,
)
from .explain import (
    ExplanationGraph,
    Thresholds,
    attention_exploration_explain,
    backward_explain,
)
from .metrics import MetricReport, Rule, evaluate_all, graph_to_rules
from .synthlog import SynthSpec, and_split, loop, sequence, synth_log, xor
from .transformer import ModelConfig, TransformerModel, gradient_check, train

__all__ = [
    "EventLog", "LogStats", "Prefix", "Trace",
    "build_log", "extract_prefixes", "parse_csv", "parse_xes", "split", "write_csv",
    "ExplanationGraph", "Thresholds",
    "attention_exploration_explain", "backward_explain",
    "MetricReport", "Rule", "evaluate_all", "graph_to_rules",
    "SynthSpec", "and_split", "loop", "sequence", "synth_log", "xor",
    "ModelConfig", "TransformerModel", "gradient_check", "train",
]

__version__ = "0.1.0"
