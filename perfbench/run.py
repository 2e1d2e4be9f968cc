#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload recover --seed 1 --seconds 56 --trace 0

Runs one workload from the repository root's ``src/`` tree: set-up
(repeated, for ``setup_s``), then the workload's job repeatedly for
about ``--seconds`` seconds, then correctness checks. The last line of
standard output is the result object; the line before it holds the
seeds, the environment and per-rep detail. ``--trace 1`` alternates
untraced and traced reps and reports the per-layer metrics instead.
"""

import os

# Pin BLAS/OpenMP pools before numpy is imported anywhere in the process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MIN_REPS = 3


def declared_units():
    """``(end-to-end, per-layer)`` metric name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [{m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")]


def import_package():
    """Import ``attnexplain`` from this checkout's ``src/``, never from an
    installed copy."""
    src = ROOT / "src"
    if not (src / "attnexplain" / "__init__.py").is_file():
        sys.exit(f"perfbench: no attnexplain sources under {src}")
    sys.path.insert(0, str(src))
    import attnexplain
    from attnexplain import (attnstats, cli, eventlog, explain, metrics,  # noqa: F401
                             prestudy, synthlog, transformer)
    if Path(attnexplain.__file__).resolve().parent != (src / "attnexplain").resolve():
        sys.exit(f"perfbench: imported attnexplain from {attnexplain.__file__}, not {src}")
    return attnexplain


def environment(load_at_start):
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_start": load_at_start,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def rep_loop(run_rep, seconds, traced_rep=None, between=None):
    """Run reps until the next one would end past ``seconds``, at least
    ``MIN_REPS`` of them; with ``traced_rep``, alternate untraced and
    traced reps instead. ``between`` runs after each round."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(run_rep())
        if traced_rep is not None:
            traced.append(traced_rep())
        if between is not None:
            between()
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(plain)
        enough = len(plain) >= (2 if traced_rep is not None else MIN_REPS)
        if enough and elapsed + per_round > seconds:
            return plain, traced


def main(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_at_start = os.getloadavg()
    package = import_package()
    import spans

    end_to_end_units, per_layer_units = declared_units()
    seeds = workloads.derive_seeds(args.seed)
    checks = workloads.Checks()
    bench = workloads.WORKLOADS[args.workload](package, checks, seeds)
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    tracer = spans.Tracer()
    reps = []
    detail = {"workload": args.workload, "seed": args.seed, "seeds": seeds,
              "fixed_seeds": workloads.derive_seeds(workloads.FIXED_ROOT_SEED),
              "env": environment(load_at_start)}
    try:
        if args.trace:
            # One traced set-up; each traced rep is paired with it.
            with spans.patched(tracer, package):
                state = bench.setup(scratch / "setup0")
            setup_spans = tracer.spans

            def traced_rep():
                tracer.reset()
                with spans.patched(tracer, package):
                    result = bench.rep(state)
                result.layers = spans.layer_metrics(setup_spans + _shift(tracer.spans, len(setup_spans)))
                return result

            plain, traced = rep_loop(lambda: bench.rep(state), args.seconds, traced_rep)
            reps = plain + traced
        else:
            # Later set-ups run between reps, so that they sample the
            # host's speed over the same window as the reps.
            setups = [bench.setup(scratch / "setup0")]
            state = setups[0]

            def more_setups():
                for _ in range(bench.SETUPS_PER_ROUND):
                    if len(setups) < bench.SETUPS:
                        setups.append(bench.setup(scratch / f"setup{len(setups)}"))

            plain, traced = rep_loop(lambda: bench.rep(state), args.seconds, between=more_setups)
            while len(setups) < bench.SETUPS:
                more_setups()
            reps = plain
        bench.check(state, reps)
        if args.trace:
            counts = [{k: r.layers[k] for k in spans.COUNT_METRICS} for r in traced]
            checks.check(all(c == counts[0] for c in counts), "per-layer counts differ between traced reps")
            metrics = spans.median_metrics([r.layers for r in traced])
            metrics["trace.wall_ratio"] = (statistics.median(r.wall for r in traced)
                                           / statistics.median(r.wall for r in plain))
            units = per_layer_units
        else:
            metrics = bench.end_to_end(setups, plain)
            detail["setups"] = [{"setup_s": s["setup_s"], "train": s.get("train")} for s in setups]
            metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            units = end_to_end_units
    except workloads.StageFailed:
        metrics, units = {}, {}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if metrics and set(metrics) != set(units):
        sys.exit("perfbench: computed and declared metrics differ: "
                 f"{sorted(set(metrics) ^ set(units))}")

    detail["reps"] = [r.summary() for r in reps]
    detail["failures"] = checks.failures[:20]
    print(json.dumps(detail, sort_keys=True, default=float))
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


def _shift(span_list, offset):
    return [[n, s, e, p + offset if p >= 0 else p, a] for n, s, e, p, a in span_list]


if __name__ == "__main__":
    sys.exit(main())
