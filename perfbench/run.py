"""quagd benchmark: one workload per invocation, in one process, no threads.

    python3 perfbench/run.py --workload ring_consensus --seed 0 --seconds 25 --trace 0

Run it from anywhere; it imports quagd from the ``src/`` directory beside
its own directory and fails if that is missing.  It builds the workload's
jobs from ``--seed`` (the set-up, repeated and timed as ``setup_s``), then
runs every job ``round(seconds / nominal_pass_s)`` times, so that a run takes
about ``--seconds`` at the commit that defined the benchmark and does the
same work on every commit.  Every op's outputs are checked, and for the
default seed compared with the digests pinned in ``digests.json``.

``--trace 0`` prints the end-to-end metrics, with times scaled to the
machine's nominal speed by a calibration loop timed in the same run (see
``calibration_loop``); the raw times are printed beside them.

``--trace 1`` runs every job once without the tracer, then installs the span
tracer, repeats the set-up and one pass, and prints the per-layer metrics of
that traced set-up and pass, unscaled; the spans go to ``.perfbench_work/``.

The last line of stdout is always one JSON object: correct, attempted,
failed and metrics.

Regenerate the pinned digests, only when an output change is intended, with
``--seed 0 --pin`` for each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
# Set-up is repeated at least SETUP_REPEATS times and for SETUP_MIN_S seconds,
# so that millisecond set-ups are not read from one noisy sample.
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0
TAIL_BEYOND = 10  # the tail percentile keeps at least this many ops above it
# Seconds calibration_loop takes on the 2-core Xeon VM where the benchmark was
# defined, when that machine was otherwise quiet.
CALIBRATION_NOMINAL_S = 0.0050


def calibration_loop() -> int:
    """Fixed pure-Python work that shares no code with quagd.

    Other tenants of a shared machine slow every instruction for minutes at
    a time, which moves whole runs by 20-60%.  The runner times this loop
    before every op, and end-to-end times are scaled by CALIBRATION_NOMINAL_S
    over its median, i.e. reported at the machine's nominal speed.  A change
    to quagd cannot move the loop, so it cannot move the scale either.
    """
    table = list(range(4096))
    acc = 0
    for i in range(40000):
        acc = (acc * 31 + table[(acc ^ i) & 4095]) % 1000003
    return acc


def time_calibration() -> float:
    t0 = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - t0


def speed(calibration: list[float]) -> float:
    """The machine's speed relative to nominal, from calibration samples."""
    return CALIBRATION_NOMINAL_S / statistics.median(calibration)


def run_setups(workload, seed: int) -> tuple[list, list[float], list[float]]:
    """Repeat the set-up; returns the last jobs, the set-up times and about
    ten calibration samples spread over the phase."""
    times, calibration = [], []
    total = next_sample = 0.0
    while len(times) < SETUP_REPEATS or total < SETUP_MIN_S:
        if total >= next_sample:
            calibration.append(time_calibration())
            next_sample += SETUP_MIN_S / 10
        t0 = time.perf_counter()
        jobs = workload.setup(seed)
        times.append(time.perf_counter() - t0)
        total += times[-1]
    return jobs, times, calibration


def _import_quagd():
    src = ROOT / "src"
    if not (src / "quagd" / "__init__.py").is_file():
        sys.exit(f"perfbench: no quagd sources under {src}")
    sys.path.insert(0, str(src))
    import quagd

    if Path(quagd.__file__).resolve().parent != (src / "quagd").resolve():
        sys.exit(f"perfbench: imported quagd from {quagd.__file__}, not {src}")


def machine_note() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    load = ",".join(f"{v:.2f}" for v in os.getloadavg())
    return (
        f"machine: python={platform.python_version()} "
        f"nproc={len(os.sched_getaffinity(0))} cpu={cpu!r} loadavg={load}"
    )


class Runner:
    """Runs passes over a workload's jobs, timing each op and checking its
    outputs.

    The first run of each op is checked in full and fixes its digests; later
    runs must reproduce them.  With pinned digests (the default seed), the
    first run must match those too.
    """

    def __init__(self, jobs, pinned=None):
        self.jobs = jobs
        self.pinned = pinned
        self.reference: dict[str, dict] = {}
        self.latencies: list[float] = []
        self.calibration: list[float] = []
        self.job_times: list[float] = []
        self.job_rounds: list[int] = []
        self.node_rounds = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run_pass(self, tracer=None) -> float:
        """Run every job once; returns the summed op time."""
        for job in self.jobs:
            job_time = 0.0
            rounds = 0
            for op in job:
                dt, op_rounds = self._run_op(op, tracer)
                job_time += dt
                rounds += op_rounds
            self.job_times.append(job_time)
            self.job_rounds.append(rounds)
        return sum(self.job_times[-len(self.jobs):])

    def _run_op(self, op, tracer) -> tuple[float, int]:
        op.prepare()
        self.calibration.append(time_calibration())
        if tracer is not None:
            tracer.op_id = self.attempted
            frame = tracer.begin()
        t0 = time.perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:  # a failed op is counted, not fatal
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end(tracer.name_id("op"), frame)
        self.latencies.append(dt)
        self.attempted += 1
        if error is None:
            error, outcome = self._check(op, result)
        if error is not None:
            self.failed += 1
            self.errors.append(f"{op.label}: {error}")
            return dt, 0
        self.node_rounds += outcome.node_rounds
        return dt, outcome.rounds

    def _check(self, op, result):
        first = op.label not in self.reference
        try:
            outcome = op.verify(result, first)
        except Exception as exc:  # e.g. an output file that was never written
            return f"check raised {type(exc).__name__}: {exc}", None
        if outcome.error is not None:
            return outcome.error, outcome
        if first:
            self.reference[op.label] = outcome.digests
            if self.pinned is not None and self.pinned.get(op.label) != outcome.digests:
                return f"digests differ from pinned: {outcome.digests}", outcome
        elif self.reference[op.label] != outcome.digests:
            return "outputs differ from the first run of the same op", outcome
        return None, outcome


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples above it; the maximum if there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(runner: Runner, setup_times, setup_calibration) -> tuple[dict, list[str]]:
    """Times are scaled to the machine's nominal speed (see calibration_loop);
    the raw figures are printed in the notes."""
    op_speed = speed(runner.calibration)
    setup_speed = speed(setup_calibration)
    raw = {
        "wall_s": statistics.median(runner.job_times),
        "op_p50_s": statistics.median(runner.latencies),
        "op_tail_s": tail(runner.latencies)[0],
    }
    metrics = {"setup_s": (statistics.median(setup_times) * setup_speed, "s")}
    metrics.update((name, (value * op_speed, "s")) for name, value in raw.items())
    metrics["node_rounds_per_s"] = (runner.node_rounds / sum(runner.latencies) / op_speed, "1/s")
    metrics["inner_rounds"] = (statistics.median(runner.job_rounds), "count")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    notes = [
        f"{len(runner.job_times)} job runs of {len(runner.jobs[0])} ops; "
        f"raw job_s={[round(t, 4) for t in runner.job_times]}",
        f"op_tail_s is p{tail(runner.latencies)[1]:.1f} of {len(runner.latencies)} ops; "
        f"wall_s and inner_rounds are medians over job runs; setup_s is the median "
        f"of {len(setup_times)} set-ups",
        f"speed {op_speed:.4f} in ops, {setup_speed:.4f} in set-up; raw times: "
        f"setup_s={statistics.median(setup_times):.6g} s, "
        + ", ".join(f"{name}={value:.6g} s" for name, value in raw.items()),
    ]
    return metrics, notes


# Per-layer spans reported as .calls and .s; the ones marked True also get
# .self_s, their time minus that of traced callees.
LAYER_SPANS = {
    "graph.diameter": False,
    "graph.find_unreachable_pair": False,
    "graph.generate_random_strongly_connected": False,
    "quantizer.quantize_floor": False,
    "rng.node_streams": True,
    "consensus.run_faqua": True,
    "consensus.minmax_window_round": False,
    "consensus.split_mass": False,
    "consensus.merge_masses": False,
    "consensus.init_consensus": True,
    "optimizer.quagd_run": True,
    "optimizer.gradient_step": False,
    "optimizer.compute_theta_and_floor": True,
    "optimizer.step_size_interval": False,
    "trace.residual_error": False,
    "harness.delta_sweep": True,
    "harness.default_theory": True,
    "harness.write_trace_csv": False,
    "harness.write_sweep_csv": False,
    "svgplot.write_line_plot": True,
    "cli.EffectiveConfig": True,
    "cli.main": True,
}


def per_layer(tracer, traced_s: float, untraced_s: float, trace_bytes: int) -> dict:
    metrics = {}
    for name, has_self in LAYER_SPANS.items():
        calls, total, self_s = tracer.layer(name)
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.s"] = (total, "s")
        if has_self:
            metrics[f"{name}.self_s"] = (self_s, "s")
    faqua_self = tracer.layer("consensus.run_faqua")[2]
    per_node_round = faqua_self / tracer.node_rounds * 1e6 if tracer.node_rounds else 0.0
    metrics["consensus.us_per_node_round"] = (per_node_round, "us")
    metrics["consensus.messages"] = (tracer.messages, "count")
    metrics["consensus.payload_bits"] = (tracer.payload_bits, "bit")
    metrics["consensus.trace_bytes"] = (trace_bytes, "B")
    metrics["trace_overhead_s"] = (traced_s - untraced_s, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--pin",
        action="store_true",
        help="record this run's digests in digests.json (default seed only)",
    )
    args = parser.parse_args(argv)

    _import_quagd()
    os.chdir(ROOT)
    from tracer import Tracer
    from workloads import WORK_DIR, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.pin and args.seed != DEFAULT_SEED:
        parser.error("--pin records digests for the default seed only")
    workload = WORKLOADS[args.workload]
    print(machine_note())

    pinned = None
    if args.seed == DEFAULT_SEED and not args.pin:
        with open(DIGESTS) as fh:
            pinned = json.load(fh).get(args.workload, {})

    jobs, setup_times, setup_calibration = run_setups(workload, args.seed)
    runner = Runner(jobs, pinned)
    if args.trace:
        untraced_s = runner.run_pass()
        tracer = Tracer()
        tracer.install()
        try:
            tracer.op_id = -1
            frame = tracer.begin()
            runner.jobs = workload.setup(args.seed)
            tracer.end(tracer.name_id("setup"), frame)
            traced_s = runner.run_pass(tracer)
        finally:
            tracer.uninstall()
        trace_bytes = sum(
            os.path.getsize(op.trace_file)
            for job in runner.jobs
            for op in job
            if op.trace_file and os.path.exists(op.trace_file)
        )
        metrics = per_layer(tracer, traced_s, untraced_s, trace_bytes)
        os.makedirs(WORK_DIR, exist_ok=True)
        spans_path = os.path.join(WORK_DIR, f"spans-{args.workload}-seed{args.seed}.tsv")
        tracer.write_spans(spans_path)
        notes = [f"untraced pass {untraced_s:.4f} s, traced pass {traced_s:.4f} s",
                 f"spans written to {spans_path}"]
    else:
        passes = max(1, round(args.seconds / workload.nominal_pass_s))
        for _ in range(passes):
            runner.run_pass()
        metrics, notes = end_to_end(runner, setup_times, setup_calibration)

    if args.pin:
        with open(DIGESTS) as fh:
            all_digests = json.load(fh)
        all_digests[args.workload] = runner.reference
        with open(DIGESTS, "w") as fh:
            json.dump(all_digests, fh, indent=1, sort_keys=True)
            fh.write("\n")
        notes.append(f"pinned {len(runner.reference)} op digests in {DIGESTS.name}")

    for error in runner.errors[:20]:
        print(f"FAILED {error}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value} {unit}")
    for note in notes:
        print(note)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
