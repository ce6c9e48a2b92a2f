"""A run of several levels splits them round-robin into groups, one per
process (optimizer._run_levels): group 0 runs in the calling process, each
other group in a forked child.  The outputs must not depend on the split:
every file a sweep writes, every level's trace and every failure are those
of one process; a child that fails or dies is rerun in the parent; and no
child outlives the call.  The group count is forced by replacing
optimizer._group_count; the child's side is also run in this process, with
os.fork and os._exit replaced, so its lines count as reached.
"""

import errno
import hashlib
import marshal
import os
import pickle
import signal
import subprocess
import sys
import threading
from dataclasses import astuple, replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from quagd import optimizer
from quagd.cli import main
from quagd.consensus import ConsensusNodeState, ConsensusNonterminationError
from quagd.graph import NotStronglyConnectedError
from quagd.harness import delta_sweep, reference_instance
from quagd.optimizer import DivergenceError, quadratic_optimum, quagd_run

ROOT = Path(__file__).resolve().parent.parent
SRC_PATH = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
SWEEP = ["sweep", "--nodes", "8", "--seed", "2", "--deltas", "0.1,0.01,0.001",
         "--max-iters", "12", "--output-dir", "out"]
# every file SWEEP writes, as one process wrote them before runs were split
SWEEP_GOLDEN = {
    "effective_config.ini": "a2fb5885f1c8e0f0c7b089e6f645cf04652b757169dff6eff1f5ccbbd99d2c09",
    "sweep.csv": "a2c9eed2bd9d9e72b218a7697c70b023367fbade341cde4b3bae16fc94d201f9",
    "sweep.svg": "d075e0383db46a0b5d1c0cb8c5984c10161685e44ebb47ee3317084519cce209",
    "trace_delta_0p001.csv": "448cc01e13f73fda5c309f70c5c70081bbfbdf1e9361a5b12e4bb6549b754688",
    "trace_delta_0p01.csv": "ee57e585be7176606e3e7f56a8c0a2ddb0b19ab142a5a75a2220c4f847575ba7",
    "trace_delta_0p1.csv": "baea13f8606ccb5b4e1653162ece59cd80a3b3ea41078e1573be94a589344547",
}
LEVELS = ["1", "0.1", "0.01", "0.001", "0.0001"]


def force_groups(monkeypatch, groups):
    monkeypatch.setattr(optimizer, "_group_count", lambda cfg, levels: min(levels, groups))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def outcome(entry):
    """A sweep entry's trace steps, or its failure's type, message, outer
    step, snapshot and cause."""
    exc = entry.exception
    if exc is None:
        return entry.trace.steps
    cause = exc.__cause__
    return (type(exc), str(exc), getattr(exc, "outer_step", None),
            getattr(exc, "states", None), type(cause), str(cause))


@pytest.mark.parametrize("groups", [1, 2, 3])
def test_cli_sweep_writes_the_same_bytes_in_any_split(groups, tmp_path, monkeypatch, capsys):
    printed = []
    for split in (1, groups):
        (tmp_path / str(split)).mkdir(exist_ok=True)
        monkeypatch.chdir(tmp_path / str(split))
        force_groups(monkeypatch, split)
        assert main(SWEEP) == 0
        printed.append(capsys.readouterr())
        written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in Path("out").iterdir()}
        assert written == SWEEP_GOLDEN
    assert printed[0] == printed[1]
    assert_no_child_left()


@pytest.mark.parametrize("groups", [1, 2, 3])
def test_each_level_equals_its_solo_run(groups, monkeypatch):
    cfg = reference_instance(n=8, seed=4, max_outer=8)
    forks = []
    real_fork = os.fork

    def counted_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    force_groups(monkeypatch, groups)
    report = delta_sweep(cfg, LEVELS)
    assert len(forks) == groups - 1  # with this process, one per group
    x_star = quadratic_optimum(cfg.costs)
    for level, entry in zip(LEVELS, report.entries):
        assert entry.exception is None
        assert entry.trace.steps == quagd_run(replace(cfg, delta=level), x_star).steps
    assert_no_child_left()


def failing_in_children(parent):
    """The 6-node reference instance whose gradient fails from outer step 2,
    in a forked child only: the parent's rerun of a child's group succeeds."""
    cfg = reference_instance(n=6, seed=1, max_outer=5)
    calls = []

    def gradient(x, c):
        calls.append(x)
        if os.getpid() != parent and len(calls) > 2 * 6:
            raise ZeroDivisionError("division by zero")
        return x - c

    return replace(cfg, costs=[replace(c, gradient=lambda x, c=c.center: gradient(x, c))
                               for c in cfg.costs])


def test_failed_and_dead_children_are_rerun_here(monkeypatch):
    parent = os.getpid()
    force_groups(monkeypatch, 1)
    expected = [outcome(e) for e in delta_sweep(failing_in_children(parent), LEVELS).entries]
    force_groups(monkeypatch, 3)
    report = delta_sweep(failing_in_children(parent), LEVELS)
    assert [outcome(e) for e in report.entries] == expected
    assert all(e.exception is None for e in report.entries)

    cfg = reference_instance(n=6, seed=1, max_outer=5)
    dying = replace(cfg, costs=[replace(c, gradient=lambda x, c=c: (
        os.kill(os.getpid(), signal.SIGKILL) if os.getpid() != parent else c.gradient(x)))
        for c in cfg.costs])
    report = delta_sweep(dying, LEVELS)
    force_groups(monkeypatch, 1)
    assert [outcome(e) for e in report.entries] == [
        outcome(e) for e in delta_sweep(cfg, LEVELS).entries]

    exact = replace(cfg, x0=[Fraction(x) for x in cfg.x0])  # steps[0] marshal cannot carry
    expected = [outcome(e) for e in delta_sweep(exact, LEVELS).entries]
    force_groups(monkeypatch, 3)
    assert [outcome(e) for e in delta_sweep(exact, LEVELS).entries] == expected
    assert_no_child_left()


@pytest.mark.parametrize("groups", [2, 3])
def test_failures_keep_their_cause_and_snapshot(groups, monkeypatch):
    cfg = reference_instance(n=6, seed=0, max_outer=5)
    cfg.max_rounds = 40  # the coarsest level settles within it, the others do not
    force_groups(monkeypatch, 1)
    expected = [outcome(e) for e in delta_sweep(cfg, ["1", "0.1", "0.001"]).entries]
    force_groups(monkeypatch, groups)
    report = delta_sweep(cfg, ["1", "0.1", "0.001"])
    assert [outcome(e) for e in report.entries] == expected
    assert isinstance(report.entries[2].exception, ConsensusNonterminationError)
    assert_no_child_left()


def test_interrupt_kills_and_reaps_every_child(monkeypatch):
    """Group 0 stops here at outer step 3 while the children still run."""
    parent = os.getpid()
    cfg = reference_instance(n=8, seed=0, max_outer=400)
    steps = []

    def gradient(x, c):
        if os.getpid() == parent:
            steps.append(x)
            if len(steps) > 3 * 8:
                raise KeyboardInterrupt
        return x - c

    cfg = replace(cfg, costs=[replace(c, gradient=lambda x, c=c.center: gradient(x, c))
                              for c in cfg.costs])
    force_groups(monkeypatch, 3)
    with pytest.raises(KeyboardInterrupt):
        delta_sweep(cfg, ["0.1", "0.01", "0.001"])
    assert_no_child_left()


class ChildExit(Exception):
    def __init__(self, status):
        self.status = status


def rounds_short(cfg):
    """cfg with a round budget none of LEVELS[1:4] settles within: their
    failures carry a snapshot, and no cause."""
    return replace(cfg, max_rounds=40)


def numpy_gradients(cfg):
    """cfg with every gradient a numpy float, a float subclass that marshal
    would write as bytes: each step's stepped size and centroid error is one."""
    np = pytest.importorskip("numpy", exc_type=ImportError)  # absent or unloadable
    return replace(cfg, costs=[replace(c, gradient=lambda x, g=c.gradient: np.float64(g(x)))
                               for c in cfg.costs])


# per case: the config, and what the child sends for each of its levels
CHILD_CASES = {
    "traces": (lambda: reference_instance(n=5, seed=3, max_outer=3), list),
    "failing-gradient": (lambda: failing_in_children(-1), type(None)),
    "nontermination": (lambda: rounds_short(reference_instance(n=6, seed=0, max_outer=5)),
                       bytes),
    "numpy-floats": (lambda: numpy_gradients(reference_instance(n=5, seed=3, max_outer=3)),
                     type(None)),
}


@pytest.mark.parametrize("case", CHILD_CASES.values(), ids=CHILD_CASES.keys())
def test_child_side_run_in_process(case, monkeypatch):
    """os.fork returns 0, so this process takes the child's branch for group
    1 and stops at os._exit; what it sent is read from a copy of the pipe.
    A level's steps go as rows, a failure that pickles as itself as bytes,
    and a failure with a cause, or steps marshal would change, as None."""
    make, kind = case
    cfg = make()
    parent = os.getpid()
    reads, real_pipe = [], os.pipe

    def pipe():
        read, write = real_pipe()
        reads.append(os.dup(read))
        return read, write

    def exit_(status):
        raise ChildExit(status)

    monkeypatch.setattr(os, "pipe", pipe)
    monkeypatch.setattr(os, "fork", lambda: 0)
    monkeypatch.setattr(os, "_exit", exit_)
    force_groups(monkeypatch, 2)
    with pytest.raises(ChildExit) as exited:
        delta_sweep(cfg, LEVELS[1:4])
    with open(reads[0], "rb") as fh:
        [sent] = marshal.loads(fh.read())
    assert os.getpid() == parent
    assert exited.value.status == 0
    assert type(sent) is kind
    monkeypatch.undo()
    force_groups(monkeypatch, 1)
    [_, entry, _] = delta_sweep(cfg, LEVELS[1:4]).entries
    if kind is list:
        assert sent == list(map(astuple, entry.trace.steps))
    elif kind is bytes:
        assert outcome(SimpleNamespace(exception=pickle.loads(sent))) == outcome(entry)


def test_a_child_that_raises_sends_nothing(monkeypatch):
    """A child whose run raises leaves with status 1 and sends nothing."""
    cfg = reference_instance(n=5, seed=3, max_outer=3)
    reads, real_pipe = [], os.pipe

    def pipe():
        read, write = real_pipe()
        reads.append(os.dup(read))
        return read, write

    def exit_(status):
        raise ChildExit(status)

    def broken(*args):
        raise TypeError("bug in a level")

    monkeypatch.setattr(os, "pipe", pipe)
    monkeypatch.setattr(os, "fork", lambda: 0)
    monkeypatch.setattr(os, "_exit", exit_)
    monkeypatch.setattr("quagd.optimizer._run_lanes", broken)
    force_groups(monkeypatch, 2)
    with pytest.raises(ChildExit) as exited:
        delta_sweep(cfg, LEVELS[1:4])
    with open(reads[0], "rb") as fh:
        assert (exited.value.status, fh.read()) == (1, b"")


def test_child_failures_are_sent_not_rerun(monkeypatch):
    """A child's nontermination comes back pickled: the parent runs only its
    own group, and the failures match one process's."""
    cfg = rounds_short(reference_instance(n=6, seed=0, max_outer=5))
    force_groups(monkeypatch, 1)
    expected = [outcome(e) for e in delta_sweep(cfg, LEVELS[1:4]).entries]
    runs = []
    real = optimizer._lockstep

    def counted(*args, **kwargs):
        runs.append([q.delta for q in args[6]])
        return real(*args, **kwargs)

    monkeypatch.setattr(optimizer, "_lockstep", counted)
    force_groups(monkeypatch, 3)
    report = delta_sweep(cfg, LEVELS[1:4])
    assert [outcome(e) for e in report.entries] == expected
    assert all(isinstance(e.exception, ConsensusNonterminationError) for e in report.entries)
    assert runs == [[report.entries[0].delta]]  # group 0 alone ran here
    assert_no_child_left()


def test_numpy_floats_are_rerun_here_as_they_are(monkeypatch):
    """marshal would send a numpy float back as bytes: such a level runs
    again here, and every value keeps the type one process gives it."""
    cfg = numpy_gradients(reference_instance(n=10, seed=2, max_outer=12))
    force_groups(monkeypatch, 1)
    expected = delta_sweep(cfg, LEVELS[:3]).entries
    force_groups(monkeypatch, 2)
    report = delta_sweep(cfg, LEVELS[:3])
    for got, want in zip(report.entries, expected):
        assert got.trace.steps == want.trace.steps
        assert ([list(map(type, astuple(s))) for s in got.trace.steps]
                == [list(map(type, astuple(s))) for s in want.trace.steps])
    assert type(report.entries[1].trace.steps[-1].stepped_size).__module__ == "numpy"
    assert_no_child_left()


@pytest.mark.parametrize("call", ["pipe", "fork"])
def test_a_group_that_cannot_fork_runs_here(call, monkeypatch):
    """EMFILE from os.pipe or EAGAIN from os.fork: the group joins group 0,
    and the report is one process's."""
    cfg = reference_instance(n=8, seed=4, max_outer=8)
    force_groups(monkeypatch, 1)
    expected = [outcome(e) for e in delta_sweep(cfg, LEVELS).entries]
    code = errno.EMFILE if call == "pipe" else errno.EAGAIN
    real, calls = getattr(os, call), []

    def refused():
        calls.append(call)
        if len(calls) > 1:  # the first group forks, the second cannot
            raise OSError(code, os.strerror(code))
        return real()

    monkeypatch.setattr(os, call, refused)
    force_groups(monkeypatch, 3)
    assert [outcome(e) for e in delta_sweep(cfg, LEVELS).entries] == expected
    assert len(calls) == 2
    assert_no_child_left()


def test_what_a_child_sends():
    assert optimizer._marshals([(1, [2.0, None], True)])
    assert not optimizer._marshals([(1, [Fraction(2)])])
    assert not optimizer._marshals([(1, [bytearray(b"x")])])
    assert optimizer._pickled(DivergenceError(3, "x")) is not None
    caused = ConsensusNonterminationError(5, [])
    caused.__cause__ = ZeroDivisionError("division by zero")
    assert optimizer._pickled(caused) is None

    class TwoArgs(Exception):  # unpickling calls it with one argument
        def __init__(self, a, b):
            super().__init__(a)

    assert optimizer._pickled(TwoArgs(1, 2)) is None


def test_group_count():
    big = reference_instance(n=20, seed=0, max_outer=5)
    cpus = len(os.sched_getaffinity(0))
    assert optimizer._group_count(big, 1) == 1
    assert optimizer._group_count(big, 3) == min(3, cpus)
    small = replace(big, max_outer=4)  # 80 node-steps do not pay for a fork
    assert optimizer._group_count(small, 3) == 1


def test_cpu_count_stands_in_for_the_affinity(monkeypatch):
    big = reference_instance(n=20, seed=0, max_outer=5)
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert optimizer._group_count(big, 3) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert optimizer._group_count(big, 3) == 3


def test_one_process_without_fork_or_with_another_thread(monkeypatch):
    big = reference_instance(n=20, seed=0, max_outer=5)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert optimizer._group_count(big, 3) == 1
    finally:
        release.set()
        thread.join()
    monkeypatch.delattr(os, "fork")
    assert optimizer._group_count(big, 3) == 1


ERRORS = {
    "divergence": lambda: DivergenceError(3, "x"),
    "nontermination": lambda: ConsensusNonterminationError(
        5, [ConsensusNodeState(j, 2, j, 2, 9, 0) for j in range(10)]),
    "not-strongly-connected": lambda: NotStronglyConnectedError((0, 1)),
}


@pytest.mark.parametrize("make", ERRORS.values(), ids=ERRORS.keys())
def test_typed_errors_survive_pickling(make):
    err = make()
    if not hasattr(err, "outer_step"):  # as the outer loop sets it
        err.outer_step = 4
    back = pickle.loads(pickle.dumps(err))
    assert (type(back), str(back), back.args) == (type(err), str(err), err.args)
    for name in ("outer_step", "pair", "rounds", "states"):
        assert getattr(back, name, None) == getattr(err, name, None)


def test_runs_load_no_module():
    """A split sweep sends its steps by marshal, which is always loaded."""
    code = ("import sys\n"
            "from quagd import optimizer\n"
            "from quagd.harness import delta_sweep, reference_instance\n"
            "cfg = reference_instance(n=20, seed=0, max_outer=5)\n"
            "loaded = set(sys.modules)\n"
            "optimizer.quagd_run(cfg)\n"
            "optimizer._group_count = lambda cfg, levels: min(levels, 3)\n"
            "delta_sweep(cfg, ['0.1', '0.01', '0.001'])\n"
            "print(sorted(set(sys.modules) - loaded))\n")
    env = dict(os.environ, PYTHONPATH=SRC_PATH)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


# test_inline_split_passes_on_while_a_third_lane_replays spies on the kernel
# calls of this process, which see group 0's levels only once a run is split.
FORCED = ("import sys\n"
          "from quagd import optimizer\n"
          "optimizer._group_count = lambda cfg, levels: min(levels, {groups})\n"
          "import pytest\n"
          "sys.exit(pytest.main(sys.argv[1:]))\n")


@pytest.mark.parametrize("groups", [2, 3])
def test_lockstep_and_general_cost_tests_pass_split(groups):
    argv = [sys.executable, "-c", FORCED.format(groups=groups), "-q", "-p", "no:cacheprovider",
            "tests/test_general_cost.py", "tests/test_lockstep.py", "--deselect",
            "tests/test_lockstep.py::test_inline_split_passes_on_while_a_third_lane_replays"]
    env = dict(os.environ, PYTHONPATH=SRC_PATH, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout[-3000:]
    assert " passed" in done.stdout and "1 deselected" in done.stdout
