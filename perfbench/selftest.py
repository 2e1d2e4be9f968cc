#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. A deliberately perturbed forward pass must be caught: a recover run
   with every forward's probabilities shifted reads ``correct: false``
   with ``failed > 0``.
2. Two traced runs of each workload at one seed, each in its own
   process, must report identical per-layer counts.

Exits 0 when both hold, 1 otherwise.
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins the BLAS threads before numpy is imported)
from spans import COUNT_METRICS  # noqa: E402

SEED = 0
WORKLOADS = ("recover", "explore_long")


def perturb_forward(model_cls):
    """Make every forward return slightly wrong probabilities."""
    original = model_cls._forward_batch

    def shifted(self, ids, keep_cache=False, masked_positions=None):
        probs, att, cache = original(self, ids, keep_cache, masked_positions)
        probs = probs.copy()
        probs[..., 0] += 1e-4
        return probs / probs.sum(axis=-1, keepdims=True), att, cache

    model_cls._forward_batch = shifted


def args(workload, trace):
    return ["--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]


def perturbed_run():
    """A recover run in this process, with the forward perturbed."""
    perturb_forward(run.import_package().transformer.TransformerModel)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.main(args("recover", 0))
    return json.loads(out.getvalue().strip().splitlines()[-1])


def traced_run(workload):
    cmd = [sys.executable, str(HERE / "run.py"), *args(workload, 1)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ok = True
    result = perturbed_run()
    caught = not result["correct"] and result["failed"] > 0
    print(f"perturbed forward: failed {result['failed']} of {result['attempted']} "
          f"-> {'caught' if caught else 'NOT caught'}")
    ok &= caught

    for workload in WORKLOADS:
        first, second = traced_run(workload), traced_run(workload)
        counts = [{k: r["metrics"][k]["value"] for k in COUNT_METRICS} for r in (first, second)]
        same = counts[0] == counts[1] and first["correct"] and second["correct"]
        print(f"{workload}: per-layer counts {'identical' if same else 'DIFFER'} across two traced runs")
        if not same:
            for k in COUNT_METRICS:
                if counts[0][k] != counts[1][k]:
                    print(f"  {k}: {counts[0][k]} vs {counts[1][k]}")
        ok &= same
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
