#!/usr/bin/env python3
"""Run one workload of the chromacc benchmark and print its metrics.

    python3 perfbench/run.py --workload train --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout: it imports chromacc from the
checkout's src/ and nothing else.  It sets up the workload several times
(setup_s is the median), warms up, then runs units of work until --seconds
have passed.  With --trace 0 the last line of output is a JSON object with
every end-to-end metric of BENCHMARK.json; with --trace 1 it runs the
workload again under the tracer and reports every per-layer metric instead.
Human-readable lines, the environment, and the names the workload's metrics
go by (synth_stacks_per_s and so on) come before it, and the same record is
written to perfbench/results/.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_MIN_S = 1.0     # set up again until this much time is spent ...
SETUP_MAX = 1000      # ... or this many set-ups are done
TAIL_MAX = 95         # highest percentile reported as the tail

# what each workload's generic metrics are called where one name fits
ALIASES = {
    "synth": {"ops_per_s": "synth_stacks_per_s"},
    "train": {"ops_per_s": "train_samples_per_s"},
    "eval": {"ops_per_s": "eval_queries_per_s", "err_deg": "c5_err_deg"},
    "infer": {"op_ms_p50": "infer_ms_p50", "op_ms_tail": "infer_ms_tail"},
}


def cap_blas_threads() -> int:
    """At most one BLAS thread per usable CPU; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            want = int(os.environ.get(var, nproc))
        except ValueError:
            want = nproc
        os.environ[var] = str(max(1, min(want, nproc)))
    return nproc


def import_package():
    """Import chromacc from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "chromacc" / "__init__.py").is_file():
        raise SystemExit(f"no chromacc sources under {src}")
    sys.path.insert(0, str(src))
    import chromacc
    if Path(chromacc.__file__).resolve().parent != src / "chromacc":
        raise SystemExit(f"imported chromacc from {chromacc.__file__}, "
                         f"not from {src}")
    return chromacc


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(nproc: int) -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    src = ROOT / "src" / "chromacc"
    lines = sum(len(p.read_text().splitlines()) for p in src.rglob("*.py"))
    return {
        "machine": platform.machine(), "processor": platform.processor(),
        "system": platform.platform(), "nproc": nproc,
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": git_commit(), "src_chromacc_lines": lines,
        "load": "one process, one caller (closed loop), at most nproc BLAS threads",
    }


def tail(latencies):
    """(percentile, value): the highest whole percentile with at least ten
    samples beyond it, or the median when there are fewer than 20.  It stops
    at p95: beyond that, eval's 1600 queries a run measure the host's
    hiccups, and their p99 swings by a third between runs."""
    import numpy as np
    n = len(latencies)
    pct = min(TAIL_MAX, max(50, math.floor(100 * (1 - 10 / n)))) if n >= 20 else 50
    return pct, float(np.percentile(latencies, pct))


def measure(wl, seconds: float):
    """Units until `seconds` have passed and the workload's minimum is met."""
    units = []
    t0 = perf_counter()
    while len(units) < wl.min_units or perf_counter() - t0 < seconds:
        units.append(wl.unit(len(units)))
    return units, perf_counter() - t0


def end_to_end(wl, units, setup_times) -> tuple[dict, dict]:
    """Every end-to-end metric, plus details for the human-readable record."""
    ops = sum(u.ops for u in units)
    failed = sum(u.failed for u in units)
    lat = [x for u in units for x in u.latencies_ms]
    pct, tail_ms = tail(lat)
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": (ops - failed) / sum(u.busy_s for u in units),
        "op_ms_p50": statistics.median(lat),
        "op_ms_tail": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": (ops - failed) / ops,
    }
    acc = wl.accuracy(units)
    values["err_deg"] = acc.pop("err_deg")
    values["gray_world_err_deg"] = acc.pop("gray_world_err_deg")
    details = dict(acc, op=wl.op, op_ms_tail_percentile=pct,
                   latency_samples=len(lat), units=len(units),
                   setups=len(setup_times),
                   setup_range_s=[min(setup_times), max(setup_times)],
                   setup_failed=wl.setup_failed, failed_frac=failed / ops)
    return values, details


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: str = "full") -> dict:
    """One benchmark run; returns the result record (see main)."""
    from workloads import SIZES, WORKLOADS
    from tracing import Tracer, layer_metrics

    wl = WORKLOADS[workload](seed, SIZES[size])
    setup_times = []
    digests = set()
    # a cheap set-up is repeated more, so its median is steady
    while len(setup_times) < wl.size.setup_repeats or (
            sum(setup_times) < SETUP_MIN_S and len(setup_times) < SETUP_MAX):
        t0 = perf_counter()
        wl.setup()
        setup_times.append(perf_counter() - t0)
        digests.add(wl.setup_digest())
    wl.warm_up()
    units, wall = measure(wl, seconds)
    values, details = end_to_end(wl, units, setup_times)
    details["wall_s"] = wall
    problems = []
    if len(digests) != 1:
        problems.append("set-ups at one seed built different inputs")
    # every train and eval unit repeats the same work
    if workload in ("train", "eval") and len({u.digest for u in units}) != 1:
        problems.append("repeated units gave different results")

    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "size": size}
    if trace:
        tracer = Tracer()
        with tracer.phase("setup"):
            wl.setup()
        if wl.setup_digest() not in digests:
            problems.append("the traced set-up built different inputs")
        replay = units[:wl.trace_units]
        with tracer.phase("measure"):
            traced = []
            for i in range(len(replay)):
                tracer.op += 1
                traced.append(wl.unit(i))
        if [u.digest for u in traced] != [u.digest for u in replay]:
            problems.append("traced units gave different results")
        metrics = layer_metrics(tracer)
        untraced_s = sum(u.busy_s for u in replay)
        metrics["trace.overhead_frac"] = (
            sum(u.busy_s for u in traced) / untraced_s - 1.0)
        details["traced_units"] = len(traced)
        details["trace_file"] = str(RESULTS / f"trace-{workload}-seed{seed}.json")
        RESULTS.mkdir(exist_ok=True)
        tracer.write(details["trace_file"], record)
    else:
        metrics = values
    for k, v in metrics.items():
        if not (isinstance(v, (int, float)) and math.isfinite(v)):
            problems.append(f"metric {k} is {v!r}")
    record.update(correct=not problems, problems=problems,
                  attempted=sum(u.ops for u in units),
                  failed=sum(u.failed for u in units),
                  metrics={k: float(v) for k, v in metrics.items()},
                  end_to_end=values, details=details)
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("synth", "train", "eval", "infer"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke runs every workload in seconds (for tests)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    nproc = cap_blas_threads()
    import_package()
    env = environment(nproc)
    from workloads import BenchError

    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.size)
    except BenchError as exc:
        print(f"incorrect output: {exc}", file=sys.stderr)
        return 1
    record["env"] = env
    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in record["metrics"]]
    if missing:
        raise SystemExit(f"metrics not measured: {missing}")
    units = {m["name"]: m["unit"] for m in declared}

    aliases = ALIASES[args.workload]
    print(f"workload {args.workload} ({record['details']['op']} per operation), "
          f"seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for name, value in record["end_to_end"].items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"  {name:<20} {value:12.6g}{alias}")
    for name, value in record["details"].items():
        print(f"  {name:<20} {value}")
    if args.trace:
        for name, value in record["metrics"].items():
            print(f"  {name:<44} {value:.6g} {units[name]}")
    for p in record["problems"]:
        print(f"  PROBLEM: {p}")
    print("env " + json.dumps(env))
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))

    result = {"correct": record["correct"], "attempted": record["attempted"],
              "failed": record["failed"],
              "metrics": {m["name"]: {"value": record["metrics"][m["name"]],
                                      "unit": m["unit"]} for m in declared}}
    print(json.dumps(result))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
