#!/usr/bin/env python3
"""Ground-truth recovery study on the three synthetic structures.

Trains a model per structure, runs both explainers on the unique test
prefixes, and reports deterministic-transition accuracy plus edge-set
precision/recall/F1 against the generator's directly-follows edges.
"""

import argparse
import json
import time
from pathlib import Path

import numpy as np

from attnexplain.eventlog import extract_prefixes, split, unique_prefixes
from attnexplain.explain import Thresholds, attention_exploration_explain, backward_explain
from attnexplain.metrics import precision_recall_f1
from attnexplain.synthlog import deterministic_continuations, synth_log
from attnexplain.transformer import ModelConfig, train

from structures import STRUCTURES


def edge_scores(predicted, truth):
    prec, rec, f1 = precision_recall_f1(len(predicted & truth), len(predicted - truth),
                                        len(truth - predicted))
    return {"precision": prec, "recall": rec, "f1": f1}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-traces", type=int, default=1000)
    parser.add_argument("--epochs", type=int, default=30)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--split-seed", type=int, default=42)
    parser.add_argument("--explainer-seed", type=int, default=7)
    parser.add_argument("--out", default="recovery_results.json")
    args = parser.parse_args()
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)

    results = {}
    for name, spec in STRUCTURES.items():
        start = time.monotonic()
        logobj, truth = synth_log(spec, args.n_traces, seed=1)
        train_log, test_log = split(logobj, 0.7, seed=args.split_seed)
        model = train(train_log, ModelConfig(epochs=args.epochs, seed=args.seed, max_len=16))
        prefixes = unique_prefixes(extract_prefixes(test_log))

        continuations = deterministic_continuations(spec)
        hits = total = 0
        for p in prefixes:
            labels = tuple(logobj.label(a) for a in p.activities)
            if labels in continuations:
                total += 1
                hits += model.predict_label(np.asarray(p.activities)) == continuations[labels]

        thresholds = Thresholds()
        graphs = {
            "backward": backward_explain(model, prefixes, thresholds,
                                         seed=args.explainer_seed),
            "attention_exploration": attention_exploration_explain(
                model, prefixes, thresholds, seed=args.explainer_seed),
        }
        entry = {
            "deterministic_accuracy": hits / total if total else None,
            "ground_truth_edges": sorted(map(list, truth)),
            "runtime_s": round(time.monotonic() - start, 1),
        }
        for method, graph in graphs.items():
            entry[method] = {
                "edges": sorted(map(list, graph.edges)),
                **edge_scores(set(graph.edges), truth),
            }
        results[name] = entry
        print(f"{name}: det-acc={entry['deterministic_accuracy']:.3f} "
              + " ".join(f"{m}-F1={entry[m]['f1']:.2f}" for m in graphs))

    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
