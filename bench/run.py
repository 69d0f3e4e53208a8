#!/usr/bin/env python3
"""latshell benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports latshell from its
`src/`.  A run repeats passes over the workload's ops while the next pass,
at the mean length of those before it, is expected to end within
`--seconds` of wall time, and makes at least MIN_PASSES of them.  Before
every pass latshell is imported afresh and the pass's inputs are generated
from the seed and the pass number, so no input repeats within a run and no
process-global state (such as the complex module's vertex-decomposition
memo) carries from one pass to the next.  That set-up is timed as
`setup_s` and kept out of `run_s`.

With `--trace 0` the last line of stdout is a JSON object holding the
end-to-end metrics listed in BENCHMARK.json; with `--trace 1` it holds the
per-layer metrics, from passes that alternate between untraced and traced
(wrappers installed by `tracer.py`).  The lines before it print every
metric with its unit and sample count, and every failed op.
"""

from __future__ import annotations

import argparse
import collections
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from tracer import LAYERS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Set-ups run before the first pass, on top of the one before each pass, so
# that setup_s is a median of at least WARM_SETUPS + MIN_PASSES samples.
WARM_SETUPS = 6
MIN_PASSES = 3


def fresh_import():
    """Import latshell from the checkout, dropping any earlier import."""
    for name in [n for n in sys.modules
                 if n == "latshell" or n.startswith("latshell.")]:
        del sys.modules[name]
    ls = importlib.import_module("latshell")
    importlib.import_module("latshell.cli")
    if SRC.resolve() not in Path(ls.__file__).resolve().parents:
        raise ImportError(f"latshell was imported from {ls.__file__}, not {SRC}")
    return ls


def setup(workload, seed, tag, workdir):
    """Import latshell and build one pass's ops; returns (ops, seconds)."""
    start = time.perf_counter()
    ls = fresh_import()
    pass_dir = workdir / f"pass-{tag}"
    pass_dir.mkdir()
    ops = WORKLOADS[workload](ls, random.Random(f"{seed}:{workload}:{tag}"),
                              str(pass_dir))
    return ops, time.perf_counter() - start


def run_op(op):
    """Run one op; returns None when its facts match, else the reason."""
    try:
        got = op.call()
    except Exception as exc:  # any crash is a failed op, not a failed run
        return f"raised {type(exc).__name__}: {exc}"
    if got != op.expected:
        return f"got {got}, expected {op.expected}"
    return None


def is_known(op, reason) -> bool:
    """Whether a failed op failed with the exception of its known defect."""
    return (op.known_defect is not None
            and reason.startswith(f"raised {op.known_defect}:"))


def run_pass(ops, latencies, failures):
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        reason = run_op(op)
        latencies.append(time.perf_counter() - t0)
        if reason is not None:
            failures.append((op.label, is_known(op, reason), reason))
    return time.perf_counter() - start


def layer_metrics(tracer, names, traced_times, untraced_times):
    """Per-layer values per traced pass, from the tracer's spans."""
    seconds, calls = tracer.self_times()
    n = len(traced_times)
    wall = sum(traced_times)
    values = {}
    for name in names:
        base, _, suffix = name.rpartition(".")
        if suffix == "s":
            values[name] = seconds.get(base, 0.0) / n
        elif suffix == "calls":
            values[name] = calls.get(base, 0) / n
        elif suffix == "share" and base in LAYERS:
            values[name] = sum(v for k, v in seconds.items()
                               if k.split(".")[0] == base) / wall
        elif name == "trace.overhead_s":
            values[name] = (statistics.median(traced_times)
                            - statistics.median(untraced_times))
        else:
            values[name] = tracer.counts.get(name, 0) / n
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "latshell" / "__init__.py").is_file():
        print(f"no latshell sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metric_specs = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        setup_times = []
        for k in range(WARM_SETUPS):
            setup_times.append(setup(args.workload, args.seed, f"w{k}", workdir)[1])

        tracer = Tracer()
        pass_times = {False: [], True: []}
        latencies, failures = [], []
        attempted = 0
        start = time.perf_counter()
        k = 0
        while (k < MIN_PASSES
               or (time.perf_counter() - start) * (k + 1) / k <= args.seconds):
            ops, seconds = setup(args.workload, args.seed, k, workdir)
            setup_times.append(seconds)
            traced = bool(args.trace and k % 2)
            if traced:
                tracer.install()
            try:
                pass_times[traced].append(run_pass(ops, latencies, failures))
            finally:
                tracer.uninstall()
            attempted += len(ops)
            k += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = collections.Counter(
        ("known defect" if known else "FAILED", label, reason)
        for label, known, reason in failures)
    for (tag, label, reason), times in tally.items():
        print(f"[{tag}] {label}: {reason} (x{times})")
    failed = len(failures)
    correct = all(known for _, known, _ in failures)
    untraced = pass_times[False]
    print(f"# {args.workload} seed={args.seed} passes={k} ops/pass={attempted // k}"
          f" python={platform.python_version()} nproc={os.cpu_count()}")
    print("# pass seconds: " + " ".join(
        f"{t:.4g}" for t in pass_times[False] + pass_times[True]))
    print(f"fail_frac {failed / attempted:.6f} ratio"
          f" (failed={failed} attempted={attempted})")

    if args.trace:
        names = [m["name"] for m in metric_specs]
        values = layer_metrics(tracer, names, pass_times[True], untraced)
        samples = {name: len(pass_times[True]) for name in names}
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        print(f"# spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "run_s": statistics.median(untraced),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": (attempted - failed) / attempted,
        }
        samples = {"setup_s": len(setup_times), "run_s": len(untraced),
                   "peak_rss_mib": 1, "ok_frac": attempted}
        # Per-op latency percentiles are printed but not reported: only
        # cli-small-reports has the >= 100 ops per run they need, and on the
        # other workloads they fall between ops of very different cost.
        print(f"op_s.p50 {statistics.median(latencies):.6g} s"
              f" (samples={len(latencies)})")
        print(f"op_s.p90 {statistics.quantiles(latencies, n=10)[8]:.6g} s"
              f" (samples={len(latencies)})")
    metrics = {}
    for m in metric_specs:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} {value:.6g} {m['unit']} (samples={samples[m['name']]})")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
