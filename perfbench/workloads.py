"""The benchmark's workloads: inputs built from the workload seed, the timed
public call of each op, and the untimed check of each op's outputs.

Every workload is a closed loop with one caller: the next op starts when the
previous one returns.  An op is one top-level public call into quagd; a job
is the ops a user waits for together.  A workload's ``setup`` returns its
jobs; the runner times ``Op.run`` and then calls ``Op.verify``, which checks
the outputs and returns their digests.
Ops look their quagd function up on the module at call time, so the traced
run's wrappers are the ones that get called.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
from dataclasses import dataclass, field
from typing import Callable, Optional

import quagd.cli
import quagd.consensus
import quagd.graph
import quagd.harness
import quagd.optimizer
from quagd.quantizer import QuantizationLevel

WORK_DIR = ".perfbench_work"


@dataclass
class Outcome:
    digests: dict[str, str] = field(default_factory=dict)
    rounds: int = 0  # consensus rounds the op ran
    node_rounds: int = 0  # sum over consensus calls of rounds * n
    error: Optional[str] = None


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    # verify(result, full): full=False may skip checks whose inputs are
    # pinned by the digests of an earlier, fully checked run of the same op.
    verify: Callable[[object, bool], Outcome]
    prepare: Callable[[], None] = lambda: None
    trace_file: Optional[str] = None  # the op's faqua_trace.txt, if any


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _rng(workload: str, seed: int, index: int = 0) -> random.Random:
    # str seeds go through sha512, so streams are stable across processes.
    return random.Random(f"{workload}:{seed}:{index}")


# --- ref_cli --------------------------------------------------------------

REF_NODES = 20
REF_EDGE_PROB = 0.2
REF_ITERS = 60
SWEEP_DELTAS = ("0.1", "0.01", "0.001")
# The README's documented run uses 0.01; a 0.001 run would repeat the
# sweep's finest level and double the weight of its rare very long calls.
RUN_DELTA = "0.01"


def _ini_text(centers: list[float], x0: list[float]) -> str:
    """The reference network (graph and protocol seed 0) with the given
    problem data; the CLI generates the graph itself."""
    lines = [
        "[graph]",
        f"nodes = {REF_NODES}",
        f"edge_prob = {REF_EDGE_PROB!r}",
        "",
        "[optimizer]",
        f"max_iters = {REF_ITERS}",
        "x0 = " + ",".join(repr(x) for x in x0),
        "",
        "[costs]",
        *(f"{j} = quadratic beta=1.0 center={c!r}" for j, c in enumerate(centers)),
        "",
        "[run]",
        "seed = 0",
    ]
    return "\n".join(lines) + "\n"


def _call_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = quagd.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def _file_digests(out_dir: str, names: list[str]) -> dict[str, str]:
    digests = {}
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = _sha(fh.read())
    return digests


def _delta_slug(delta: str) -> str:
    return repr(float(delta)).replace(".", "p").replace("-", "m")


def _check_trace_csv(path: str, delta: float) -> tuple[int, Optional[str]]:
    """Row count and the observer bounds audit_invariants applies:
    centroid error <= 2*delta, max node deviation <= 4*delta."""
    with open(path) as fh:
        rows = [line.rstrip("\n").split(",") for line in fh]
    if rows[0] != ["k", "residual", "inner_rounds", "centroid_err", "max_node_dev"]:
        return 0, f"{path}: unexpected header {rows[0]}"
    body = rows[1:]
    if [int(r[0]) for r in body] != list(range(REF_ITERS + 1)):
        return 0, f"{path}: expected rows k=0..{REF_ITERS}"
    slack = 1e-9 * delta + 1e-15
    rounds = 0
    for r in body[1:]:
        rounds += int(r[2])
        if float(r[3]) > 2 * delta + slack or float(r[4]) > 4 * delta + slack:
            return rounds, f"{path}: k={r[0]} breaks the 2*delta/4*delta observer bounds"
    return rounds, None


def _check_faqua_trace(path: str) -> Optional[str]:
    """From the per-round state log: the mass totals never change within an
    outer step, and in the round that stops every node holds the same m."""
    outer = results = 0
    totals = None
    stop_ms: set[int] = set()
    rows: list[list[str]] = []
    with open(path) as fh:
        for line in fh:
            parts = line.split("\t")
            if parts[0] in ("OUTER", "RESULT"):
                if rows:
                    return f"{path}: partial round before {parts[0]} line"
                if parts[0] == "OUTER":
                    outer += 1
                    totals = None
                else:
                    results += 1
                    if len(stop_ms) != 1:
                        return f"{path}: nodes disagree at the end of outer step {outer - 1}"
                continue
            rows.append(parts)
            if len(rows) < REF_NODES:
                continue
            y = sum(int(r[2]) for r in rows)
            z = sum(int(r[3]) for r in rows)
            if totals is None:
                totals = (y, z)
            if (y, z) != totals or z != 2 * REF_NODES:
                return f"{path}: mass not conserved in outer step {outer - 1}"
            stop_ms = {int(r[7]) for r in rows}
            rows = []
    if outer != REF_ITERS or results != REF_ITERS:
        return f"{path}: {outer} outer steps and {results} results, expected {REF_ITERS}"
    return None


def _ref_cli_jobs(seed: int, instances: int) -> list[list[Op]]:
    """One job per problem: theory, sweep and traced run, as a user would."""
    jobs = []
    for i in range(instances):
        rng = _rng("ref_cli", seed, i)
        centers = [rng.uniform(0.0, 10.0) for _ in range(REF_NODES)]
        x0 = [rng.uniform(0.0, 10.0) for _ in range(REF_NODES)]
        base = os.path.join(WORK_DIR, "ref_cli", f"i{i}")
        config = (os.path.join(base, "config.ini"), _ini_text(centers, x0))
        jobs.append([
            _theory_op(f"i{i}.theory", config),
            _sweep_op(f"i{i}.sweep", config, os.path.join(base, "sweep")),
            _run_op(f"i{i}.run", config, os.path.join(base, "run")),
        ])
    return jobs


def _prepare(config: tuple[str, str], out_dir: Optional[str] = None) -> Callable[[], None]:
    """Write the op's config file and empty its output directory.  File
    writes happen here rather than in the set-up: the filesystem's latency
    swings by 2x between runs, and nothing of quagd runs in ref_cli's set-up
    for setup_s to measure."""

    def prepare():
        path, text = config
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)
        if out_dir is not None:
            shutil.rmtree(out_dir, ignore_errors=True)

    return prepare


def _theory_op(label: str, config: tuple[str, str]) -> Op:
    argv = ["theory", "--config", config[0], "--delta", RUN_DELTA]

    def verify(result, full):
        code, out, err = result
        if code != 0:
            return Outcome(error=f"exit code {code}: {err.strip()}")
        record = json.loads(out.strip().splitlines()[-1])
        if not record["interval_nonempty"] or not 0 < record["theta"] < 1:
            return Outcome(error=f"theory constants out of range: {record}")
        return Outcome(digests={"stdout": _sha(out.encode())})

    return Op(label, lambda: _call_cli(argv), verify, _prepare(config))


def _sweep_op(label: str, config: tuple[str, str], out_dir: str) -> Op:
    argv = ["sweep", "--config", config[0], "--deltas", ",".join(SWEEP_DELTAS), "--output-dir", out_dir]
    level_csvs = [f"trace_delta_{_delta_slug(d)}.csv" for d in SWEEP_DELTAS]
    files = [*level_csvs, "sweep.csv", "sweep.svg", "effective_config.ini"]

    def verify(result, full):
        code, _, err = result
        if code != 0:
            return Outcome(error=f"exit code {code}: {err.strip()}")
        rounds = 0
        for name, delta in zip(level_csvs, SWEEP_DELTAS):
            r, error = _check_trace_csv(os.path.join(out_dir, name), float(delta))
            if error:
                return Outcome(error=error)
            rounds += r
        with open(os.path.join(out_dir, "sweep.csv")) as fh:
            rows = fh.read().splitlines()[1:]
        if len(rows) != len(SWEEP_DELTAS) or any(row.split(",")[1] == "" for row in rows):
            return Outcome(error=f"sweep.csv records a failed level: {rows}")
        return Outcome(_file_digests(out_dir, files), rounds, rounds * REF_NODES)

    return Op(label, lambda: _call_cli(argv), verify, _prepare(config, out_dir))


def _run_op(label: str, config: tuple[str, str], out_dir: str) -> Op:
    argv = ["run", "--config", config[0], "--delta", RUN_DELTA, "--trace", "--output-dir", out_dir]
    files = ["trace.csv", "residual.svg", "faqua_trace.txt", "effective_config.ini"]
    trace_file = os.path.join(out_dir, "faqua_trace.txt")

    def verify(result, full):
        code, _, err = result
        if code != 0:
            return Outcome(error=f"exit code {code}: {err.strip()}")
        rounds, error = _check_trace_csv(os.path.join(out_dir, "trace.csv"), float(RUN_DELTA))
        if error is None and full:
            error = _check_faqua_trace(trace_file)
        if error:
            return Outcome(error=error)
        return Outcome(_file_digests(out_dir, files), rounds, rounds * REF_NODES)

    return Op(label, lambda: _call_cli(argv), verify, _prepare(config, out_dir), trace_file)


# --- ring_consensus -------------------------------------------------------

RING_NODES = 40
RING_DELTA = "0.01"


def consensus_outcome(res) -> Outcome:
    """Checks every run_faqua result gets: agreement, the one-level accuracy
    contract and per-round mass conservation."""
    if len(set(res.per_node_values)) != 1:
        return Outcome(error="per-node values disagree")
    if not res.within_accuracy_contract():
        return Outcome(error="output breaks the one-level accuracy contract")
    bad = [a.round_index for a in res.audits if not (a.y_conserved and a.z_conserved)]
    if bad:
        return Outcome(error=f"mass not conserved in rounds {bad[:5]}")
    text = f"{res.value_count},{res.rounds_used}"
    return Outcome({"result": _sha(text.encode())}, res.rounds_used, res.rounds_used * res.n)


def ring_graph(n: int):
    return quagd.graph.Digraph(n, [((j + 1) % n, j) for j in range(n)])


def ring_inputs(seed: int, calls: int):
    """The directed ring, its quantization level, and one (inputs, protocol
    seed) pair per call."""
    g = ring_graph(RING_NODES)
    calls_inputs = []
    for i in range(calls):
        rng = _rng("ring_consensus", seed, i)
        x = [rng.uniform(0.0, 10.0) for _ in range(RING_NODES)]
        calls_inputs.append((x, rng.getrandbits(32)))
    return g, QuantizationLevel(RING_DELTA), calls_inputs


def ring_op(label: str, g, q, x, stream_seed: int, tamper=None) -> Op:
    def run():
        return quagd.consensus.run_faqua(x, g, g.n - 1, q, stream_seed, tamper=tamper)

    return Op(label, run, lambda res, full: consensus_outcome(res))


def _ring_jobs(seed: int, calls: int) -> list[list[Op]]:
    g, q, calls_inputs = ring_inputs(seed, calls)
    return [[ring_op(f"call{i}", g, q, x, s) for i, (x, s) in enumerate(calls_inputs)]]


# --- large_graph ----------------------------------------------------------

LARGE_NODES = 600
LARGE_EDGE_PROB = 0.006
LARGE_DELTA = "5"
LARGE_OUTER = 2


def _run_outcome(trace, n: int) -> Outcome:
    report = quagd.harness.audit_invariants(trace)
    if not report.clean:
        v = report.violations[0]
        return Outcome(error=f"audit: {v.kind} at step {v.step}: {v.detail}")
    lines = [
        f"{s.k},{s.residual!r},{s.inner_rounds},{s.estimates[0]!r}" for s in trace.steps
    ]
    rounds = sum(s.inner_rounds for s in trace.steps)
    return Outcome({"result": _sha("\n".join(lines).encode())}, rounds, rounds * n)


def _large_graph_jobs(seed: int, graphs: int) -> list[list[Op]]:
    ops = []
    for i in range(graphs):
        instance_seed = _rng("large_graph", seed, i).getrandbits(32)
        cfg = quagd.harness.reference_instance(
            n=LARGE_NODES,
            edge_prob=LARGE_EDGE_PROB,
            seed=instance_seed,
            delta=LARGE_DELTA,
            max_outer=LARGE_OUTER,
        )
        x_star = quagd.optimizer.quadratic_optimum(cfg.costs)

        def run(cfg=cfg, x_star=x_star):
            return quagd.optimizer.quagd_run(cfg, x_star=x_star)

        ops.append(Op(f"g{i}", run, lambda trace, full: _run_outcome(trace, LARGE_NODES)))
    return [ops]


@dataclass
class Workload:
    setup: Callable[[int], list[list[Op]]]
    # Seconds one pass over all jobs took on a 2-core Xeon at the commit that
    # defined the benchmark; sets how many passes a run makes.
    nominal_pass_s: float


# Sizes: ref_cli's per-problem work is heavy-tailed (a few problems need
# several times the usual rounds), so it runs many problems once and reports
# medians over them; ring and large_graph inputs vary little, so they repeat
# one job and report the median repetition.
WORKLOADS = {
    "ref_cli": Workload(lambda seed: _ref_cli_jobs(seed, 12), 26.0),
    "ring_consensus": Workload(lambda seed: _ring_jobs(seed, 32), 9.0),
    "large_graph": Workload(lambda seed: _large_graph_jobs(seed, 4), 3.3),
}
