"""Self-test of the benchmark: every op kind of every workload, in seconds.

For each workload, at tiny sizes and a fixed seed, it runs one untraced
and two traced runs, each in a fresh interpreter, and checks that

* every run exits 0 and ends with the result object, all answers correct;
* the untraced run reports every end-to-end metric of BENCHMARK.json,
  and the traced runs every per-layer metric, each with its unit;
* every op kind of the workload ran;
* the traced runs wrote well-formed spans with valid parent links;
* the same seed gave byte-identical documents and identical counts.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

import workloads
from tracing import SPAN_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
COUNTS = (
    "cliquewidth.memo_entries_per_op",
    "cliquewidth.solvers_per_op",
    "kexpr.evaluate_calls_per_op",
    "kexpr.lift_calls_per_op",
    "graphs.forest_check_calls_per_op",
    "graphs.simulate_calls_per_op",
)


def _run(workload: str, trace: int) -> tuple[list[str], dict]:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(
            f"{workload} --trace {trace} exited {proc.returncode}:\n"
            f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        raise AssertionError(f"{workload}: {result}")
    return lines, result


def _field(lines: list[str], prefix: str) -> str:
    return next(line for line in lines if line.startswith(prefix)).split()[1]


def _check_units(result: dict, wanted: list[dict], what: str) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in wanted}
    if got != want:
        raise AssertionError(f"{what} metrics {got} != {want}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)):
            raise AssertionError(f"{name} is not a number")


def _check_spans(path: str) -> int:
    with open(path) as fh:
        spans = [json.loads(line) for line in fh]
    if not spans:
        raise AssertionError("no spans")
    for i, (sid, name, start, end, parent, op) in enumerate(spans):
        if sid != i or name not in SPAN_NAMES or not start <= end:
            raise AssertionError(f"bad span {spans[i]}")
        if parent is None:
            if name != "cli.main":
                raise AssertionError(f"root span {name} is not cli.main")
            continue
        p = spans[parent]
        if not (parent < sid and p[5] == op and p[2] <= start and end <= p[3]):
            raise AssertionError(f"span {spans[i]} is not inside its parent {p}")
    return len(spans)


def _pass(workload: str) -> list:
    """The ops of one pass, as the runs under test build them."""
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        return workloads.build(workload, SEED, tmp, "tiny").ops


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for workload in (w["name"] for w in bench["workloads"]):
        ops = _pass(workload)
        kinds = {op.kind for op in ops}
        lines, plain = _run(workload, 0)
        _check_units(plain, bench["end_to_end"], "end-to-end")
        if plain["attempted"] < len(ops):
            raise AssertionError(f"{workload}: not every op of the pass ran")
        traced = [_run(workload, 1) for _ in range(2)]
        digests = {_field(out, "docs_sha256") for out, _ in [(lines, plain), *traced]}
        if len(digests) != 1:
            raise AssertionError(f"{workload}: seed {SEED} gave different documents")
        counts = []
        for out, result in traced:
            _check_units(result, bench["per_layer"], "per-layer")
            spans = _check_spans(_field(out, "spans:"))
            counts.append({c: result["metrics"][c]["value"] for c in COUNTS})
        if counts[0] != counts[1]:
            raise AssertionError(f"{workload}: counts differ between runs: {counts}")
        print(f"ok {workload}: {len(kinds)} op kinds, {plain['attempted']} ops, "
              f"{spans} spans, counts {counts[0]}")
    print("self-test passed")
    return 0
