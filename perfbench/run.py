#!/usr/bin/env python3
"""Benchmark of the latss command line, run in-process through ``latss.cli.main``.

    python3 perfbench/run.py --workload cwd-small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the package is imported from ``src/``.
One op is one ``latss ...`` command with the argv a user would type,
from reading its document to the emitted JSON result (closed loop, one
client, one process).  Every answer is checked; see ``workloads.py``.

``--trace 0`` measures the end-to-end metrics, at the reference speed of
``gauge.py``.  ``--trace 1`` runs whole
passes over the workload's ops, each op untraced and then traced, and
reports per-layer metrics from the traced runs (see ``tracing.py``)
together with the tracing overhead.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--smoke`` runs the self-test in ``selftest.py``.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import workloads
from gauge import REF_S, gauge

T0 = perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# setup_s is the median of this many set-ups per run: the run's own, and
# the others in fresh child interpreters started one after another.
SETUP_SAMPLES = 3
# Gauge readings taken before and after a set-up, to scale its time.
SETUP_GAUGES = 3
# No op starts this long after the run began, so a run whose ops have
# slowed down still ends within 180 s, even before a whole pass is done.
HARD_STOP_S = 140


class OpLimit(Exception):
    """Raised by SIGALRM when an op outlives the workload's per-op limit."""


def _alarm(signum, frame):
    raise OpLimit


def set_up(workload: str, seed: int, workdir: str, size: str):
    """Import latss, write the documents and compute the references.

    Returns the workload and the set-up's wall time, raw and scaled to
    the reference speed by gauge readings taken just before and after.
    """
    gauge()  # warm-up
    readings = [gauge() for _ in range(SETUP_GAUGES)]
    start = perf_counter()
    sys.path.insert(0, SRC)
    import latss.cli  # noqa: F401  (the import is part of set-up)

    wl = workloads.build(workload, seed, workdir, size)
    raw = perf_counter() - start
    readings += [gauge() for _ in range(SETUP_GAUGES)]
    return wl, raw, raw * REF_S / statistics.mean(readings)


def run_op(op, limit: float) -> tuple[float, str | None]:
    """Run one op; return its wall time and None, or a failure reason."""
    from latss import cli

    out, err = io.StringIO(), io.StringIO()
    reason = None
    signal.setitimer(signal.ITIMER_REAL, limit)
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(op.argv)
    except OpLimit:
        reason = f"over the {limit:g} s per-op limit"
    except SystemExit as exc:
        reason = f"SystemExit({exc.code}): {err.getvalue().strip()[-200:]}"
    except Exception:
        reason = "traceback: " + traceback.format_exc().strip().splitlines()[-1]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = perf_counter() - start
    if reason is None:
        try:
            reason = op.check(rc, out.getvalue())
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            reason = f"unreadable result ({type(exc).__name__}: {exc})"
        if reason and err.getvalue():
            reason += f"; stderr: {err.getvalue().strip()[-200:]}"
    return elapsed, reason


class HardStop(Exception):
    """The run reached HARD_STOP_S."""


class Runner:
    """Runs ops, records their times and failures."""

    def __init__(self, wl, limit: float, hard_stop: float) -> None:
        self.wl = wl
        self.limit = limit
        self.hard_stop = hard_stop
        self.failures: list[str] = []
        self.attempted = 0

    def op(self, op, tracer=None) -> float:
        if perf_counter() > self.hard_stop:
            raise HardStop
        if tracer is not None:
            tracer.begin(self.attempted)
        try:
            elapsed, reason = run_op(op, self.limit)
        finally:
            if tracer is not None:
                tracer.end()
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{op.kind} {' '.join(op.argv)}: {reason}")
        return elapsed


def harrell_davis(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile of sorted ``values``.

    A weighted mean of every order statistic, weighted by how likely each
    is to be the ``p`` quantile (a Beta((n+1)p, (n+1)(1-p)) density over
    the ranks).  It leans on the ops next to the percentile's rank as well
    as on the one at it, so the figure does not jump with a single op.
    """
    n = len(values)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x: float) -> float:
        if not 0 < x < 1:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    steps = 64  # trapezoids per rank
    weights = []
    for i in range(n):
        lo, h = i / n, 1 / (n * steps)
        inner = sum(density(lo + k * h) for k in range(1, steps))
        weights.append(h * (inner + (density(lo) + density(lo + steps * h)) / 2))
    return sum(w * v for w, v in zip(weights, values)) / sum(weights)


def tail_percentile(count: int) -> int:
    """The highest whole percentile of ``count`` values with ten beyond it."""
    return max(p for p in range(1, 100) if count - math.ceil(count * p / 100) >= 10)


def measure(runner: Runner, seconds: float) -> dict:
    """End-to-end metrics over the whole passes run in ``seconds``, at least one.

    The gauge runs between every two ops, and each op's time is scaled to
    the reference speed by the mean of the readings on either side of it
    (see ``gauge.py``).  The ops of an unfinished last pass are checked
    but not measured, so every run measures each op of the pass equally
    often and a run's median and tail do not hang on where the time ran
    out.
    """
    ops = runner.wl.ops
    deadline = perf_counter() + seconds
    raw: list[float] = []
    times: list[float] = []
    gauge()  # warm-up
    before = gauge()
    try:
        while len(times) < len(ops) or perf_counter() < deadline:
            elapsed = runner.op(ops[len(times) % len(ops)])
            after = gauge()
            raw.append(elapsed)
            times.append(elapsed * REF_S / ((before + after) / 2))
            before = after
    except HardStop:
        print(f"hard stop after {len(times)} ops")
    whole = len(ops) * (len(times) // len(ops)) or len(times)
    raw, times = raw[:whole], sorted(times[:whole])
    # fixed by the pass, so that one pass has ten ops beyond it
    pct = tail_percentile(len(ops))
    rank = math.ceil(len(times) * pct / 100)
    print(f"ops: {len(times)} measured in {sum(raw):.2f} s of op time, "
          f"{len(times) / len(ops):g} passes of {len(ops)} ops")
    print(f"op_tail_ms is p{pct} of {len(times)} ops; {len(times) - rank} ops beyond it; "
          "p50 and tail are Harrell-Davis estimates")
    if len(times) - rank < 10:
        print("WARNING: op_tail_ms has fewer than ten ops beyond it")
    raw.sort()
    print(f"unscaled: ops_per_s {len(raw) / sum(raw):.6g} 1/s, "
          f"op_p50_ms {harrell_davis(raw, 0.5) * 1000:.6g} ms, "
          f"op_tail_ms {harrell_davis(raw, pct / 100) * 1000:.6g} ms")
    return {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_ms": (harrell_davis(times, 0.5) * 1000, "ms"),
        "op_tail_ms": (harrell_davis(times, pct / 100) * 1000, "ms"),
    }


def measure_traced(runner: Runner, seconds: float, spans_path: str) -> dict:
    """Per-layer metrics from whole passes; each op runs untraced, then traced.

    Running the two back to back pairs them under the same conditions,
    so their ratio is the tracing overhead; whole passes keep every count
    per op identical between runs of one seed.
    """
    from tracing import Tracer

    tracer = Tracer()
    plain: list[float] = []
    traced: list[float] = []
    start = perf_counter()
    try:
        while not traced or perf_counter() - start < seconds:
            for op in runner.wl.ops:
                plain.append(runner.op(op))
                tracer.install()
                try:
                    traced.append(runner.op(op, tracer))
                finally:
                    tracer.uninstall()
    except HardStop:
        print(f"hard stop after {len(traced)} traced ops")
    tracer.write(spans_path)
    print(f"spans: {spans_path} ({len(tracer.spans)} spans, {len(traced)} traced ops)")
    metrics = tracer.layer_metrics(len(traced), runner.wl.oracle_s)
    plain_rate = len(plain) / sum(plain) if plain else 0.0
    traced_rate = len(traced) / sum(traced) if traced else 0.0
    metrics["trace.untraced_ops_per_s"] = (plain_rate, "1/s")
    metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.slowdown"] = (plain_rate / traced_rate if traced_rate else 0.0, "ratio")
    return metrics


def setup_samples(args) -> list[float]:
    """Scaled set-up times of SETUP_SAMPLES - 1 fresh interpreters, one after another."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    if args.tiny:
        argv.append("--tiny")
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=40)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up sample failed: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def run(args) -> int:
    size = "tiny" if args.tiny else "full"
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.setup_only:
            _, _, setup_s = set_up(args.workload, args.seed, workdir, size)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        samples = [] if args.trace else setup_samples(args)
        wl, raw_setup_s, setup_s = set_up(args.workload, args.seed, workdir, size)
        samples.append(setup_s)
        print(f"workload {args.workload}, seed {args.seed}, {len(wl.ops)} ops per pass")
        print(f"docs_sha256 {wl.digest}")
        signal.signal(signal.SIGALRM, _alarm)
        runner = Runner(wl, workloads.OP_LIMIT_S[args.workload], T0 + HARD_STOP_S)
        if args.trace:
            spans = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.jsonl")
            metrics = measure_traced(runner, args.seconds, spans)
        else:
            metrics = measure(runner, args.seconds)
            metrics["setup_s"] = (statistics.median(samples), "s")
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(runner.failures)
    for line in runner.failures[:20]:
        print(f"FAILED {line}")
    print(f"fail_ratio {failed / max(1, runner.attempted):.6g} ratio ({failed} of {runner.attempted} ops)")
    print(f"setup_s samples {', '.join(f'{s:.4f}' for s in samples)}; "
          f"this run's unscaled {raw_setup_s:.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the self-test")
    # internal: tiny sizes for the self-test, and the set-up-only child
    # processes that give setup_s its samples
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        import selftest

        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "latss", "cli.py")):
        print(f"error: no latss sources under {SRC}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
