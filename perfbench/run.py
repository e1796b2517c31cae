"""Benchmark of the ``cwnn`` command line.

One caller runs a workload's CLI commands in-process, one at a time
(a closed loop), each with ``--seed <workload seed>`` and a run
directory under a throw-away root inside the checkout.  Passes over the
workload repeat for ``--seconds``; every command's output is checked.

    python3 perfbench/run.py --workload presets --seed 1 --seconds 30 --trace 0

The first pass is a warm-up, checked but left out of every median.  A
set-up probe in a fresh interpreter follows every pass, so the probes
sample the whole run.  With ``--trace 0`` the last line holds the
end-to-end metrics; with ``--trace 1`` untraced and traced passes
alternate after the warm-up and the last line holds the per-layer
metrics.  Earlier lines are a readable report.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from layers import PER_LAYER, TARGETS, layer_of, pass_metrics
from spans import (Recorder, concurrent_overlap, self_times, summarize,
                   traced)
from workloads import STREAM_ROWS, WORKLOADS, figures, read_summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)
# fewest set-up probes in a run; one follows every pass, and a run with
# fewer passes tops the count up at its end
SETUP_PROBES = 5


# -- statistics -----------------------------------------------------------


def percentile(values, q: float) -> float:
    """``q``-th percentile (0..100) with linear interpolation between the
    closest ranks."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def latency_summary(values) -> dict:
    """Median and 99th percentile, the sample count, and how many samples
    lie above the 99th percentile (at least ten should back it)."""
    p99 = percentile(values, 99.0)
    return {"n": len(values), "p50": percentile(values, 50.0), "p99": p99,
            "beyond_p99": sum(1 for v in values if v > p99)}


# -- one operation and one pass -------------------------------------------


@dataclass
class OpResult:
    label: str
    seconds: float
    exit_code: int | None
    problems: list
    figures: dict = field(default_factory=dict)
    step_gaps_ms: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def step_gaps_ms(out: str) -> list:
    """Gaps between consecutive ``elapsed_ms`` values of every train log
    the command wrote: one per training update (a gradient iteration, or
    one window of a streaming run)."""
    gaps = []
    pattern = os.path.join(out, "**", "*train_log.csv")
    for path in sorted(glob.glob(pattern, recursive=True)):
        with open(path) as fh:
            next(fh)
            stamps = [float(line.rsplit(",", 1)[1])
                      for line in fh if line.strip()]
        gaps += [b - a for a, b in zip(stamps, stamps[1:])]
    return gaps


def run_op(cli_main, op, seed: int, out: str, recorder=None) -> OpResult:
    """Run one CLI command; a nonzero exit, an exception or a failed output
    check marks it failed and the caller carries on."""
    argv = list(op.argv) + ["--seed", str(seed + op.seed_offset),
                            "--out", out]
    root = (recorder.root_span("cli.main") if recorder is not None
            else contextlib.nullcontext())
    problems = []
    exit_code = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), root:
            exit_code = cli_main(argv)
    except SystemExit as exc:
        # argparse rejects bad arguments by exiting
        exit_code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc(file=sys.stderr)
        last = traceback.format_exc().strip().splitlines()[-1]
        problems.append(f"raised {last}")
    seconds = time.perf_counter() - t0
    result = OpResult(op.label, seconds, exit_code, problems)
    if problems:
        return result
    if exit_code != 0:
        result.problems.append(f"exit code {exit_code}")
        return result
    try:
        summary = read_summary(out)
        result.problems += op.check(summary)
        result.figures = figures(summary)
        if op.steps:
            result.step_gaps_ms = step_gaps_ms(out)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        result.problems.append(f"output check failed: {exc!r}")
    return result


@dataclass
class PassResult:
    ops: list
    traced: bool
    spans: list = field(default_factory=list)
    warmup: bool = False
    unresolved: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(op.seconds for op in self.ops)


def run_pass(cli_main, ops, seed: int, root: str, recorder=None) -> PassResult:
    """Run every op of a workload once, in order, then delete its run
    directories."""
    pass_dir = tempfile.mkdtemp(prefix="pass-", dir=root)
    try:
        results = [run_op(cli_main, op, seed, os.path.join(pass_dir, op.label),
                          recorder)
                   for op in ops]
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)
    return PassResult(results, recorder is not None,
                      list(recorder.spans) if recorder is not None else [])


def measure(seconds: float, next_pass, min_passes: int = 1) -> list:
    """Repeat passes until ``seconds`` are used, starting no pass that the
    average pass so far says would end past the limit.  ``next_pass``
    gets the pass number and does its own bookkeeping between passes."""
    passes = []
    t0 = time.perf_counter()
    while True:
        gc.collect()
        passes.append(next_pass(len(passes)))
        elapsed = time.perf_counter() - t0
        if (len(passes) >= min_passes
                and elapsed + elapsed / len(passes) > seconds):
            return passes


# -- set-up probe and environment -----------------------------------------


def setup_probe() -> dict:
    """One run of the set-up probe in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30,
                              check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip()


def _blas_threads() -> str:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var):
            return f"{var}={os.environ[var]}"
    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return f"{fn()} (library default)"
    return "unknown"


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


# -- report ---------------------------------------------------------------


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _report_ops(passes, log) -> None:
    by_label = defaultdict(list)
    for p in passes:
        for op in p.ops:
            by_label[op.label].append((op, p.warmup))
    for label, pairs in by_label.items():
        ops = [op for op, _ in pairs]
        timed = [op.seconds for op, warmup in pairs if not warmup]
        log(f"op {label:<9} {label}_s={_median(timed):.4f} s (median of "
            f"{len(timed)})  figures={json.dumps(ops[-1].figures)}")
        for op in ops:
            for problem in op.problems:
                log(f"  FAILED {label}: {problem}")


def _layer_table(traced, log) -> None:
    """Self time by module across traced passes, against their wall time."""
    by_layer = defaultdict(float)
    overlap = 0.0
    for p in traced:
        by_id = {sp.sid: sp for sp in p.spans}
        for sid, s in self_times(p.spans).items():
            by_layer[layer_of(by_id[sid].name)] += s
        overlap += concurrent_overlap(p.spans)
    wall = sum(p.wall_s for p in traced)
    total = sum(by_layer.values())
    log(f"self time by layer over {len(traced)} traced passes "
        f"({wall:.3f} s wall):")
    for layer, s in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        log(f"  {layer:<12} {s:9.3f} s  {100.0 * s / wall:5.1f}%")
    log(f"  {'sum':<12} {total:9.3f} s  {100.0 * total / wall:5.1f}%; less "
        f"{overlap:.3f} s where worker threads ran at once: "
        f"{100.0 * (total - overlap) / wall:.1f}% of wall")


def _write_results(name: str, payload: dict) -> None:
    with open(WORK / name, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _spans_payload(spans) -> list:
    t0 = min((sp.start for sp in spans), default=0.0)
    return [[sp.sid, sp.name, sp.parent, sp.start - t0, sp.end - t0,
             dict(sp.counts)] for sp in spans]


# -- main -----------------------------------------------------------------


def _end_to_end(passes, probes, workload: str, log) -> dict:
    passes = [p for p in passes if not p.warmup]
    wall = _median([p.wall_s for p in passes])
    # training-update latencies: percentiles of each pass, median over
    # passes; reported, not gated (see README.md)
    per_pass = [latency_summary(gaps) for gaps in
                ([g for op in p.ops for g in op.step_gaps_ms] for p in passes)
                if gaps]
    steps = {key: _median([s[key] for s in per_pass])
             for key in ("n", "p50", "p99", "beyond_p99")}
    name = "window" if workload == "stream" else "step"
    log(f"{name}_p50_ms={steps['p50']:.4f} ms, {name}_p99_ms="
        f"{steps['p99']:.4f} ms (n={steps['n']:g} a pass, "
        f"{steps['beyond_p99']:g} beyond p99; medians over {len(per_pass)} "
        f"passes)")
    if workload == "stream":
        log(f"samples_per_s={STREAM_ROWS / wall:.1f}")
    values = {
        "setup_s": _median([p["import_s"] + p["mother_setup_s"]
                            for p in probes]),
        "wall_s": wall,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def overhead_pairs(passes) -> list:
    """``(untraced, traced)`` wall times: each traced pass against the mean
    of the untraced passes just before and after it, the warm-up left
    out, so that a machine speeding up or slowing down through the run
    shifts both sides of a difference alike."""
    pairs = []
    for i, p in enumerate(passes):
        near = [passes[j].wall_s for j in (i - 1, i + 1)
                if 0 <= j < len(passes) and not passes[j].traced
                and not passes[j].warmup]
        if p.traced and near:
            pairs.append((statistics.fmean(near), p.wall_s))
    return pairs


def _per_layer(passes, probes, log) -> dict:
    traced_passes = [p for p in passes if p.traced]
    per_pass = [pass_metrics(summarize(p.spans)) for p in traced_passes]
    values = {name: _median([m[name] for m in per_pass])
              for name in per_pass[0]}
    values["cli.import_s"] = _median([p["import_s"] for p in probes])
    values["wavelets.mother_setup_s"] = _median(
        [p["mother_setup_s"] for p in probes])
    pairs = overhead_pairs(passes)
    values["trace.overhead_s"] = _median([t - u for u, t in pairs])
    log(f"traced wall_s={_median([t for _, t in pairs]):.4f} s, untraced "
        f"wall_s={_median([u for u, _ in pairs]):.4f} s (medians over "
        f"{len(pairs)} traced passes and their neighbours)")
    unresolved = sorted({name for p in traced_passes for name in p.unresolved})
    if unresolved:
        log(f"UNRESOLVED trace targets, their metrics read 0: "
            f"{', '.join(unresolved)}")
        print(f"perfbench: trace targets not found in cwnn: "
              f"{', '.join(unresolved)}", file=sys.stderr)
    _layer_table(traced_passes, log)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cwnn" / "cli.py").is_file():
        print(f"perfbench: no cwnn sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    ops = WORKLOADS[args.workload]

    def log(line: str) -> None:
        print(line, flush=True)

    import cwnn
    import cwnn.cli

    if Path(cwnn.__file__).resolve().parent != SRC / "cwnn":
        print(f"perfbench: imported cwnn from {cwnn.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    env = environment(args.workload, args.seed)
    log(f"perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}")
    log("env " + json.dumps(env, sort_keys=True))

    probes = []

    def next_pass(i):
        # pass 0 warms up; with tracing, odd passes run untraced and each
        # even pass after them traced
        if not args.trace or i % 2 == 1 or i == 0:
            result = run_pass(cwnn.cli.main, ops, args.seed, root)
        else:
            recorder = Recorder()
            with traced(recorder, TARGETS) as unresolved:
                result = run_pass(cwnn.cli.main, ops, args.seed, root,
                                  recorder)
            result.unresolved = unresolved
        result.warmup = i == 0
        probes.append(setup_probe())
        return result

    WORK.mkdir(exist_ok=True)
    root = tempfile.mkdtemp(prefix=f"runs-{args.workload}-", dir=WORK)
    try:
        passes = measure(args.seconds, next_pass,
                         min_passes=3 if args.trace else 2)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe())
    all_ops = [op for p in passes for op in p.ops]
    attempted = len(all_ops)
    failed = sum(op.failed for op in all_ops)
    log(f"passes={len(passes)} (the first a warm-up)")
    _report_ops(passes, log)
    log(f"setup probe (median of {len(probes)} fresh interpreters, one "
        f"after each pass): "
        f"import {_median([p['import_s'] for p in probes]):.4f} s + "
        f"mother {_median([p['mother_setup_s'] for p in probes]):.4f} s")
    log(f"failed_share={failed / attempted:.4g} ({failed} failed of "
        f"{attempted} attempted)")
    unresolved = sorted({name for p in passes for name in p.unresolved})
    if args.trace:
        metrics = _per_layer(passes, probes, log)
        spans_out = _spans_payload([p for p in passes if p.traced][-1].spans)
    else:
        metrics = _end_to_end(passes, probes, args.workload, log)
        spans_out = []
    for name, m in metrics.items():
        log(f"metric {name} = {m['value']:.6g} {m['unit']}")

    _write_results(
        f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
        {"env": env, "setup_probes": probes, "metrics": metrics,
         "attempted": attempted, "failed": failed,
         "unresolved_targets": unresolved,
         "passes": [{"traced": p.traced, "warmup": p.warmup,
                     "wall_s": p.wall_s,
                     "ops": [{"label": o.label, "seconds": o.seconds,
                              "exit_code": o.exit_code,
                              "problems": o.problems, "figures": o.figures}
                             for o in p.ops]} for p in passes],
         "spans": spans_out})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
