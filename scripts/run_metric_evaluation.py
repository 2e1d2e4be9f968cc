#!/usr/bin/env python3
"""Five-metric evaluation of both explainers on a synthetic log.

Trains one model per run, evaluates correctness, completeness,
continuity, contrastivity, and compactness for the backward and the
attention exploration explainer, and prints the report tables.
"""

import argparse
from pathlib import Path

from attnexplain.explain import Explainer
from attnexplain.eventlog import split
from attnexplain.metrics import evaluate_all
from attnexplain.synthlog import synth_log
from attnexplain.transformer import ModelConfig, train

from structures import STRUCTURES


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--structure", choices=sorted(STRUCTURES), default="xor")
    parser.add_argument("--n-traces", type=int, default=1000)
    parser.add_argument("--epochs", type=int, default=30)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--sample-frac", type=float, default=0.05)
    parser.add_argument("--out-dir", default="metric_results")
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    logobj, _ = synth_log(STRUCTURES[args.structure], args.n_traces, seed=1)
    train_log, test_log = split(logobj, 0.7, seed=42)
    model = train(train_log, ModelConfig(epochs=args.epochs, seed=args.seed, max_len=16))

    for name, method in (("backward", "backward"),
                         ("attention_exploration", "attention-exploration")):
        report = evaluate_all(model, Explainer(method, seed=7), test_log,
                              sample_frac=args.sample_frac, seed=7)
        (out / f"report_{name}.json").write_text(report.to_json())
        print(f"--- {name} ({report.num_rules} rules, "
              f"precision {report.precision:.2f}, recall {report.recall:.2f})")
        print(report.to_table())
    print(f"wrote reports to {out}/")


if __name__ == "__main__":
    main()
