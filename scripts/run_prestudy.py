#!/usr/bin/env python3
"""Reliability pre-study on a synthetic log.

Experiment 1 compares normally trained models against frozen-uniform
attention twins (JSD of attention distributions, TVD of predictions).
Experiment 2 compares input masking against attention masking per prefix
position. Results land as CSV/JSON in the output directory.
"""

import argparse
from pathlib import Path

from attnexplain.eventlog import extract_prefixes, split
from attnexplain.prestudy import experiment1, experiment2
from attnexplain.synthlog import synth_log
from attnexplain.transformer import ModelConfig, train

from structures import STRUCTURES


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--structure", choices=sorted(STRUCTURES), default="xor")
    parser.add_argument("--n-traces", type=int, default=1000)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--epochs", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scope", choices=["all_heads", "per_head"], default="all_heads")
    parser.add_argument("--out-dir", default="prestudy_results")
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    logobj, _ = synth_log(STRUCTURES[args.structure], args.n_traces, seed=1)
    config = ModelConfig(epochs=args.epochs, seed=args.seed, max_len=16)

    exp1 = experiment1(logobj, repeats=args.repeats, config=config, scope=args.scope)
    (out / "exp1.csv").write_text(exp1.to_csv())
    (out / "exp1.json").write_text(exp1.to_json())
    for pt in exp1.points:
        print(f"exp1 pair seed={pt.baseline_seed}: "
              f"JSD={pt.mean_jsd:.4f} TVD={pt.mean_tvd:.4f} (n={pt.n_samples})")

    train_log, test_log = split(logobj, 0.7, seed=42)
    model = train(train_log, config)
    prefixes = extract_prefixes(test_log)
    exp2 = experiment2(model, prefixes)
    (out / "exp2.csv").write_text(exp2.to_csv())
    (out / "exp2.json").write_text(exp2.to_json())
    print(f"exp2: {len(exp2.tvd)} TVD values, histogram {list(exp2.histogram)}")
    print(f"wrote results to {out}/")


if __name__ == "__main__":
    main()
