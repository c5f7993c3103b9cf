"""Benchmark for instruct-forge: tune, score and decode workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tune|score|decode --seed N --seconds S --trace 0|1

The run generates its inputs from ``--seed``, sets up (several times, the
median is reported), then repeats rounds of operations for about ``--seconds``
and checks the outputs. With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` every operation runs twice, untraced
and traced back to back, and the last line carries the per-layer metrics from
the traced runs plus the tracing overhead. Earlier stdout lines give the environment, why the
workload exists, its input properties, every check, and each workload's
named metrics with units. Details and spans go under ``.perfbench/out/``.

Exit code 0 means every operation and check passed; 1 means one failed
(the result line is still printed); 2 means the run could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Limit BLAS threads to the CPUs this process may use; must run before numpy loads."""
    ncpu = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
    for var in BLAS_THREAD_VARS:
        try:
            current = int(os.environ.get(var, ncpu))
        except ValueError:
            current = ncpu
        os.environ[var] = str(max(1, min(current, ncpu)))
    return ncpu


def environment(ncpu: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": ncpu,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "machine": platform.machine(),
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("tune", "score", "decode"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    ncpu = cap_blas_threads()
    if not (ROOT / "src" / "instruct_forge" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

    from tracer import Instrumentation, Recorder
    from workloads import WORKLOADS

    out_dir = ROOT / ".perfbench" / "out"
    work = ROOT / ".perfbench" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = {w["name"]: w["why"] for w in bench["workloads"]}[args.workload]
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        instrumentation = None
        if args.trace:
            recorder = Recorder()
            instrumentation = Instrumentation(recorder)
        setups = []
        for i in range(SETUP_REPEATS):
            traced = instrumentation is not None and i == SETUP_REPEATS - 1
            if traced:
                instrumentation.install()
            try:
                setups.append(wl.setup())
            finally:
                if traced:
                    instrumentation.remove()

        walls = {False: 0.0, True: 0.0}
        if instrumentation is not None:
            pairs = Counter()

            def execute_pair(operation):
                # back to back, and for each kind of operation alternating
                # which goes first, so drift and warm caches cancel out
                kind = getattr(operation, "func", operation).__name__
                pairs[kind] += 1
                for traced in ((False, True) if pairs[kind] % 2 else (True, False)):
                    if traced:
                        recorder.request = len(wl.ops)
                        instrumentation.install()
                    t = perf_counter()
                    try:
                        operation()
                    finally:
                        walls[traced] += perf_counter() - t
                        instrumentation.remove()

            wl.execute = execute_pair
        rounds, start = 0, perf_counter()
        while True:
            began = perf_counter()
            wl.run_round()
            rounds += 1
            now = perf_counter()
            if now - start + (now - began) > args.seconds:
                break
        measured_s = perf_counter() - start

        checks = wl.checks()
        found = wl.metrics()
        properties = wl.properties()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # each operation and each check counts once; a failed check is a failure
    bad_ops = [(f"operation {i} ({o['kind']})", False, o["error"]) for i, o in enumerate(wl.ops) if not o["ok"]]
    attempted = len(wl.ops) + len(checks)
    failed = len(bad_ops) + sum(not ok for _, ok, _ in checks)
    checks = bad_ops + checks
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = statistics.median(setups)

    named = {"setup_s": (setup_s, "s"), **found["named"], "peak_rss_mb": (peak_rss_mb, "MB"),
             "ops.failed_share": (failed / attempted if attempted else 0.0, "share")}
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "why": why,
        "environment": environment(ncpu), "rounds": rounds, "operations": len(wl.ops),
        "measured_s": measured_s, "setup_runs_s": setups, "inputs": properties,
        "operation_walls_s": [[o["kind"], o["wall"]] for o in wl.ops],
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "named_metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "attempted": attempted, "failed": failed,
    }
    if args.trace:
        overhead = walls[True] / walls[False] - 1.0
        per_layer = instrumentation.summarize(rounds, overhead)
        ranked = instrumentation.ranked_ops
        if ranked:
            details["trace_sanity"] = {"op_share_of_train_step": per_layer["trace.op_share_of_step"],
                                       "ops_by_time_in_steps": ranked,
                                       "top3_is_gelu_matmul_softmax": set(ranked[:3]) == {"gelu", "matmul", "softmax"}}
        recorder.write(out_dir / f"spans-{tag}.jsonl")
        values, wanted = per_layer, bench["per_layer"]
    else:
        values, wanted = {"setup_s": setup_s, **found["generic"], "peak_rss_mb": peak_rss_mb}, bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    details["metrics"] = metrics
    (out_dir / f"details-{tag}.json").write_text(json.dumps(details, indent=2), encoding="utf-8")

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={rounds} operations={len(wl.ops)} measured_s={measured_s:.2f}")
    print(f"why: {why}")
    print("environment: " + json.dumps(details["environment"]))
    print("inputs: " + json.dumps(properties))
    for name, ok, detail in checks:
        print(f"check {'PASS' if ok else 'FAIL'} {name}" + ("" if ok else f": {detail}"))
    for name, (value, unit) in named.items():
        extra = f" ({failed} failed of {attempted} attempted)" if name == "ops.failed_share" else ""
        print(f"metric {name} = {value:.6g} {unit}{extra}")
    if "trace_sanity" in details:
        print("trace-sanity: " + json.dumps(details["trace_sanity"]))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
