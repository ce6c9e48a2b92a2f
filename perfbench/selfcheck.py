"""Checks of the benchmark itself; exits non-zero if any fails.

    python3 perfbench/selfcheck.py

1. A run_faqua op whose tamper hook drops one unit of mass counts as failed.
2. A corrupted output file of a pinned CLI op fails the digest check.
3. Every metric named in BENCHMARK.json appears, with its unit, in the
   output of every workload, traced and untraced.
4. Without the quagd sources beside it the benchmark exits non-zero and
   prints no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run

run._import_quagd()
os.chdir(run.ROOT)

from workloads import WORK_DIR, WORKLOADS, Op, ring_inputs, ring_op  # noqa: E402


def drop_one_unit(lam, outbox):
    if lam == 1 and outbox:
        outbox[0].c_y -= 1
    return outbox


def check_tamper_counts_as_failed() -> str | None:
    g, q, calls_inputs = ring_inputs(run.DEFAULT_SEED, 1)
    for tamper, want_failed in ((None, 0), (drop_one_unit, 1)):
        runner = run.Runner([[ring_op("call0", g, q, *calls_inputs[0], tamper=tamper)]])
        runner.run_pass()
        if runner.failed != want_failed:
            return f"tamper={tamper}: {runner.failed} failed ops, expected {want_failed}"
    print(f"ok: tampered op failed with {runner.errors[0]}")
    return None


def check_corrupt_file_fails_digest() -> str | None:
    with open(run.DIGESTS) as fh:
        pinned = json.load(fh)["ref_cli"]
    op = WORKLOADS["ref_cli"].setup(run.DEFAULT_SEED)[0][2]
    svg = os.path.join(os.path.dirname(op.trace_file), "residual.svg")

    def corrupted():
        result = op.run()
        with open(svg, "r+b") as fh:
            first = fh.read(1)
            fh.seek(0)
            fh.write(bytes([first[0] ^ 1]))
        return result

    runner = run.Runner([[op]], pinned)
    runner.run_pass()
    if runner.failed:
        return f"pinned op failed before corruption: {runner.errors}"
    runner = run.Runner([[Op(op.label, corrupted, op.verify, op.prepare)]], pinned)
    runner.run_pass()
    if runner.failed != 1 or "digests differ" not in runner.errors[0]:
        return f"a corrupted residual.svg passed: {runner.errors}"
    print("ok: corrupted residual.svg failed the digest check")
    return None


def _bench(args: list[str], cwd) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True
    )


def check_metric_names() -> str | None:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for workload in spec["workloads"]:
            name = workload["name"]
            proc = _bench(["--workload", name, "--seconds", "1", "--trace", trace], run.ROOT)
            if proc.returncode:
                return f"{name} --trace {trace} exited {proc.returncode}: {proc.stderr[-500:]}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted or not result["correct"] or result["attempted"] < 1:
                return f"{name} --trace {trace}: metrics {got} correct={result['correct']}"
            print(f"ok: {name} --trace {trace} reports all {len(wanted)} {key} metrics")
    return None


def check_fails_without_sources() -> str | None:
    bare = os.path.join(WORK_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = _bench(["--workload", "ring_consensus", "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip().endswith("}"):
        return "the benchmark ran without the quagd sources"
    print(f"ok: without sources it exits {proc.returncode}: {proc.stderr.strip()}")
    return None


def main() -> int:
    failures = []
    for check in (
        check_tamper_counts_as_failed,
        check_corrupt_file_fails_digest,
        check_fails_without_sources,
        check_metric_names,
    ):
        error = check()
        if error:
            failures.append(f"{check.__name__}: {error}")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
