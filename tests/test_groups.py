"""A run of several levels, or a traced run, splits by outer step over P
processes (optimizer._run_levels): the calling process runs the steps
from the front, while forked child p runs the steps that the quantized map
predicts (optimizer._predict) from the back, K - p, K - p - (P - 1), ...,
and stops before a step the calling process has reached.  That process
takes a level's step from a frame that has come whole where its input is
the predicted one, runs it here otherwise, and never waits.  Every file,
trace and failure must be one process's, also where a prediction misses,
a child is slow, fails or dies, or a fork is refused, and no child or pipe
outlives the call.  The process count is forced (force_groups); where a
test asserts which steps run here, children_first has the calling process
wait at step 0 for what the children send.  The child's side also runs in
this process, with os.fork and os._exit replaced (child_side).
"""

import copy
import errno
import hashlib
import io
import marshal
import os
import pickle
import signal
import subprocess
import sys
import threading
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from quagd import optimizer
from quagd.cli import main
from quagd.consensus import ConsensusNodeState, ConsensusNonterminationError
from quagd.graph import NotStronglyConnectedError
from quagd.harness import delta_sweep, reference_instance, write_trace_csv
from quagd.optimizer import ConfigError, DivergenceError, quadratic_optimum, quagd_run
from quagd.rng import NodeStreams

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


def force_groups(monkeypatch, groups, first=False):
    """Split every run over `groups` processes from now on (first: with
    children_first)."""
    monkeypatch.setattr(optimizer, "_group_count", lambda cfg, levels: min(levels, groups))
    if first:
        children_first(monkeypatch)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def counted_forks(monkeypatch):
    """The pid of each child this process forks from now on."""
    forks, real = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(real()) or forks[-1])
    return forks  # in a child, its own copy, holding a 0


def stepped_here(monkeypatch, where=lambda k, child: False, act=None):
    """The (outer step, level) pairs whose consensus this process runs from
    now on, in order (a forked child's are its own).  In any process, the
    consensus of each outer step k for which where(k, child) holds (child:
    a forked child runs it) is act(levels) instead: act may raise, leave
    the process, or give each level's outcome, as optimizer._step does."""
    pairs, real, parent = [], optimizer._step, os.getpid()

    def step(g, d_bound, max_rounds, lone, streams, k, x_halves, qs, trace=None):
        if where(k, os.getpid() != parent):
            return act(qs)
        pairs.extend((k, q.delta) for q in qs)
        return real(g, d_bound, max_rounds, lone, streams, k, x_halves, qs, trace)

    monkeypatch.setattr(optimizer, "_step", step)
    return pairs


def missing(monkeypatch, delta, step):
    """From now on the quantized map misses by one count at outer step
    `step` of level delta: the predicted lo there is one too high, and the
    later steps are predicted from it."""
    real = optimizer._predict

    def predict(cfg, alpha, level):
        steps = real(cfg, alpha, level)
        if level.delta != Fraction(delta) or len(steps) <= step:
            return steps
        lo = steps[step][1] + 1
        later = replace(cfg, x0=[float(lo * level.delta)] * cfg.graph.n,
                        max_outer=cfg.max_outer - step - 1)
        return steps[:step] + [(steps[step][0], lo)] + real(later, alpha, level)

    monkeypatch.setattr(optimizer, "_predict", predict)


def children_first(monkeypatch):
    """From now on this process, at its step 0, reads what the children send
    until each child's pipe ends or holds more than optimizer._HOLD_BYTES."""
    real = optimizer._frame

    def frame(shared, pipes, held, k):
        for read in pipes:  # read blocking at step 0 alone
            os.set_blocking(read, k == 0)
        with alarm():
            return real(shared, pipes, held, k)

    monkeypatch.setattr(optimizer, "_frame", frame)


@contextmanager
def alarm(seconds=60):
    """Raise TimeoutError in this process should the block last `seconds`."""

    def ring(signum, frame):
        raise TimeoutError(f"still waiting after {seconds} s")

    previous = signal.signal(signal.SIGALRM, ring)
    outer = signal.alarm(seconds)  # an enclosing alarm's seconds left, or 0
    try:
        yield
    finally:
        signal.alarm(outer)
        signal.signal(signal.SIGALRM, previous)


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
    forks = counted_forks(monkeypatch)
    force_groups(monkeypatch, groups)
    report = delta_sweep(cfg, LEVELS)
    assert len(forks) == groups - 1  # with this process, one per group
    x_star = quadratic_optimum(cfg.costs)
    for level, entry in zip(LEVELS, report.entries):
        assert entry.exception is None
        assert entry.trace.steps == quagd_run(replace(cfg, delta=level), x_star).steps
    assert_no_child_left()


def exact_x0(cfg):
    """cfg with its initial estimates as Fractions, which steps[0] keeps."""
    return replace(cfg, x0=[Fraction(x) for x in cfg.x0])


def failing_gradient(cfg, step):
    """cfg with every gradient failing at outer step `step` at each of
    LEVELS[1:4], known by its input, the estimate one process reaches there
    (no earlier step's input, which decrease on these instances)."""
    doomed = {entry.trace.steps[step].estimates[0]
              for entry in delta_sweep(cfg, LEVELS[1:4]).entries}

    def gradient(x, g):
        if x in doomed:
            raise ZeroDivisionError("division by zero")
        return g(x)

    return replace(cfg, costs=[replace(c, gradient=lambda x, g=c.gradient: gradient(x, g))
                               for c in cfg.costs])


def test_failed_and_dead_children_are_rerun_here(monkeypatch):
    """Below step 4, each child's consensus fails where one process's does
    not, or the child dies: those steps run here, and the report is one
    process's, steps[0] included."""
    cfg = reference_instance(n=6, seed=1, max_outer=8)
    exact = exact_x0(cfg)  # steps[0], which no child sends
    force_groups(monkeypatch, 1)
    expected = [[outcome(e) for e in delta_sweep(c, LEVELS).entries] for c in (cfg, exact)]
    assert all(type(got) is list for got in expected[0])  # no level fails
    force_groups(monkeypatch, 3)
    for act in (lambda qs: [ConsensusNonterminationError(1, [])] * len(qs),
                lambda qs: os.kill(os.getpid(), signal.SIGKILL)):
        with monkeypatch.context() as patch:
            stepped_here(patch, lambda k, child: child and k < 4, act)
            got = [[outcome(e) for e in delta_sweep(c, LEVELS).entries] for c in (cfg, exact)]
        assert got == expected
    assert_no_child_left()


def test_a_child_that_dies_midway_keeps_the_steps_it_sent(monkeypatch):
    """A child that dies after sending the first of its seven steps, step 7:
    that step is taken from its frame, every other step runs here, and the
    report is one process's."""
    cfg = reference_instance(n=8, seed=4, max_outer=8)
    force_groups(monkeypatch, 1)
    expected = [outcome(e) for e in delta_sweep(cfg, LEVELS).entries]
    here = stepped_here(monkeypatch, lambda k, child: child and k < 7, lambda qs: os._exit(0))
    force_groups(monkeypatch, 2, first=True)
    report = delta_sweep(cfg, LEVELS)
    assert [outcome(e) for e in report.entries] == expected
    assert here == [(k, e.delta) for k in range(7) for e in report.entries]
    assert_no_child_left()


def test_a_gradients_own_divergence_is_its_failure(monkeypatch):
    """A DivergenceError that a custom gradient raises is its failure like
    any other, a ConfigError chained from it, in a split too: gradients
    run in the calling process alone."""
    def gradient(x):
        raise DivergenceError(0, "from the gradient") from ZeroDivisionError("division by zero")

    cfg = reference_instance(n=6, seed=1, max_outer=5)
    cfg = replace(cfg, costs=[replace(c, gradient=gradient) for c in cfg.costs])
    force_groups(monkeypatch, 1)
    expected = [outcome(e) for e in delta_sweep(cfg, LEVELS[1:4]).entries]
    assert expected[0][0] is ConfigError and expected[0][2] == 0
    assert expected[0][4] is DivergenceError
    force_groups(monkeypatch, 3)
    assert [outcome(e) for e in delta_sweep(cfg, LEVELS[1:4]).entries] == expected
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


def interrupt(qs):
    raise KeyboardInterrupt


def test_interrupt_kills_and_reaps_every_child(monkeypatch):
    """This process stops at its outer step 3 while the children still run."""
    cfg = reference_instance(n=8, seed=0, max_outer=400)
    stepped_here(monkeypatch, lambda k, child: not child and k == 3, interrupt)
    force_groups(monkeypatch, 3)
    with pytest.raises(KeyboardInterrupt):
        delta_sweep(cfg, ["0.1", "0.01", "0.001"])
    assert_no_child_left()


class ChildExit(Exception):
    """os._exit, called in this process by a child's side run here."""


class Wrapped(float):
    """A float that stays one through + - * / and abs, as numpy.float64
    does, with a repr of its own."""

    def __repr__(self):
        return f"F({float(self)!r})"

    def _keep(method):
        return lambda *args: Wrapped(method(*args))

    __add__, __radd__ = _keep(float.__add__), _keep(float.__radd__)
    __sub__, __rsub__ = _keep(float.__sub__), _keep(float.__rsub__)
    __mul__, __rmul__ = _keep(float.__mul__), _keep(float.__rmul__)
    __truediv__, __rtruediv__ = _keep(float.__truediv__), _keep(float.__rtruediv__)
    __abs__ = _keep(float.__abs__)
    del _keep


def test_float_subclasses_are_recorded_as_plain_floats(tmp_path, monkeypatch):
    """A cost's number type does not reach the records: trace.csv holds
    plain float reprs, and a split run takes every step as it is."""
    cfg = reference_instance(n=5, seed=3, max_outer=3)  # Wrapped stepped values, sizes, errors
    cfg = replace(cfg, costs=[replace(c, gradient=lambda x, g=c.gradient: Wrapped(g(x)))
                              for c in cfg.costs])
    assert type(abs(Wrapped(2) - 1 * Wrapped(3) / 2)) is Wrapped
    trace = quagd_run(cfg, quadratic_optimum(cfg.costs))
    write_trace_csv(trace, tmp_path / "trace.csv")
    rows = (tmp_path / "trace.csv").read_text().splitlines()
    assert rows[2] == "1,0.1472434701235439,36,0.0032179795948472645,0.0"
    assert all(type(s.centroid_err) is type(s.stepped_size) is float for s in trace.steps[1:])

    force_groups(monkeypatch, 1)
    expected = [outcome(e) for e in delta_sweep(cfg, LEVELS[1:4]).entries]
    here = stepped_here(monkeypatch)
    force_groups(monkeypatch, 3, first=True)
    report = delta_sweep(cfg, LEVELS[1:4])
    assert [outcome(e) for e in report.entries] == expected
    assert {k for k, _ in here} == {0}  # the children's steps taken as they are
    assert_no_child_left()


def numpy_gradients(cfg):
    """cfg with every gradient a numpy float, a float subclass that marshal
    would write as bytes: each step's stepped values are numpy floats."""
    np = pytest.importorskip("numpy", exc_type=ImportError)  # absent or unloadable
    return replace(cfg, costs=[replace(c, gradient=lambda x, g=c.gradient: np.float64(g(x)))
                               for c in cfg.costs])


# per case: the config, and how many steps the child of a sweep of
# LEVELS[1:4] split in two runs (its steps from the longest prediction down)
CHILD_CASES = {
    "traces": (lambda: reference_instance(n=5, seed=3, max_outer=5), 4),
    "fraction-x0": (lambda: exact_x0(reference_instance(n=5, seed=3, max_outer=5)), 4),
    # the map stops before the gradients fail, at step 2
    "failing-gradient": (lambda: failing_gradient(reference_instance(n=6, seed=1, max_outer=5),
                                                  2), 1),
    # a round budget none settles within: every level fails at step 0 or 1, with
    # a snapshot and no cause; the child runs every step all the same
    "nontermination": (lambda: replace(reference_instance(n=6, seed=0, max_outer=5),
                                       max_rounds=40), 4),
    "numpy-floats": (lambda: numpy_gradients(reference_instance(n=5, seed=3, max_outer=5)), 4),
}


def child_side(monkeypatch, front=0):
    """Run the first child's side in this process from now on: os.fork
    returns 0, os._exit raises ChildExit, os.sched_setaffinity does nothing
    and the published step reads `front`.  Returns sent(): the frames sent
    down the pipe, decoded (a thread reads a copy of its read end)."""
    got, real_pipe, shared = [], os.pipe, optimizer.mmap.mmap(-1, 8)
    shared[:8] = front.to_bytes(8, "little")

    def pipe():
        read, write = real_pipe()
        copy = open(os.dup(read), "rb")
        got.append(threading.Thread(target=lambda: got.append(copy.read()) or copy.close()))
        got[0].start()
        return read, write

    def sent():
        got[0].join()
        data, frames = got[1], []
        while data:
            size = int.from_bytes(data[:8], "little")
            assert len(data) >= 8 + size, "a frame cut short"
            frames.append(marshal.loads(data[8:8 + size]))
            data = data[8 + size:]
        return frames

    def exit_(status):
        raise ChildExit(status)

    monkeypatch.setattr(os, "pipe", pipe)
    monkeypatch.setattr(os, "fork", lambda: 0)
    monkeypatch.setattr(os, "_exit", exit_)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None, raising=False)
    monkeypatch.setattr(optimizer, "mmap", SimpleNamespace(mmap=lambda *args: shared))
    return sent


@pytest.mark.parametrize("case", CHILD_CASES.values(), ids=CHILD_CASES.keys())
def test_child_side_run_in_process(case, monkeypatch):
    """os.fork returns 0, so this process takes the first child's branch,
    runs its steps from the back down to 1 and stops at os._exit; what it
    sent is read from a copy of the pipe.  Each frame holds its step and the
    step's row per level, as one process takes it (None for a failure),
    and no trace text."""
    make, count = case
    cfg = make()
    force_groups(monkeypatch, 1)
    expected, take = {}, optimizer._take  # (step, level) -> the row one process takes

    def taken(cfg, x_star, out, lane, k, x_half, q, row):
        expected[k, q.delta] = row if isinstance(row, tuple) else None  # None: a failure
        return take(cfg, x_star, out, lane, k, x_half, q, row)

    monkeypatch.setattr(optimizer, "_take", taken)
    delta_sweep(cfg, LEVELS[1:4])
    monkeypatch.undo()
    parent = os.getpid()
    sent = child_side(monkeypatch)
    force_groups(monkeypatch, 2)
    with pytest.raises(ChildExit):
        delta_sweep(cfg, LEVELS[1:4])
    sent = sent()
    assert os.getpid() == parent
    assert [k for k, _, _ in sent] == list(range(count, 0, -1))
    for k, rows, text in sent:
        assert text is None
        for level, row in zip(LEVELS[1:4], rows):
            if (k, Fraction(level)) in expected:  # else one process ended the level before
                assert row == expected[k, Fraction(level)]


def test_a_child_that_raises_sends_nothing(monkeypatch):
    """A child whose run raises leaves, and sends no frame."""
    cfg = reference_instance(n=5, seed=3, max_outer=3)
    def broken(*args):
        raise TypeError("bug in a level")

    sent = child_side(monkeypatch)
    monkeypatch.setattr("quagd.optimizer._run_lanes", broken)
    force_groups(monkeypatch, 2)
    with pytest.raises(ChildExit):
        delta_sweep(cfg, LEVELS[1:4])
    assert sent() == []


def test_child_failures_run_again_here(monkeypatch):
    """A level's nontermination in a child's step comes back as None: this
    process runs that step again, and no other of the child's (steps 1 to
    7), and the failures match one process's."""
    cfg = replace(reference_instance(n=6, seed=1, max_outer=8), max_rounds=60)
    force_groups(monkeypatch, 1)
    expected = [outcome(e) for e in delta_sweep(cfg, LEVELS[:4]).entries]
    here = stepped_here(monkeypatch)
    force_groups(monkeypatch, 2, first=True)
    report = delta_sweep(cfg, LEVELS[:4])
    assert [outcome(e) for e in report.entries] == expected
    failed = {e.delta: e.exception.outer_step for e in report.entries if e.exception}
    assert failed == {Fraction("0.01"): 5, Fraction("0.001"): 3}  # both a child's steps
    assert all(isinstance(e.exception, ConsensusNonterminationError)
               for e in report.entries if e.exception)
    assert [pair for pair in here if pair[0]] == sorted((k, d) for d, k in failed.items())
    assert_no_child_left()


def test_numpy_floats_come_back_as_plain_floats(monkeypatch):
    """A level whose gradients are numpy floats takes its children's steps
    as they are, with no step run again here, and its diagnostics are
    plain floats, as in one process."""
    cfg = numpy_gradients(reference_instance(n=10, seed=2, max_outer=12))
    force_groups(monkeypatch, 1)
    expected = delta_sweep(cfg, LEVELS[:3]).entries
    here = stepped_here(monkeypatch)
    force_groups(monkeypatch, 2, first=True)
    report = delta_sweep(cfg, LEVELS[:3])
    assert all(k == 0 for k, _ in here)
    for got, want in zip(report.entries, expected):
        assert got.trace.steps == want.trace.steps
        for steps in (got.trace.steps, want.trace.steps):
            assert all(type(s.centroid_err) is type(s.stepped_size) is float for s in steps[1:])
    assert_no_child_left()


@pytest.mark.parametrize("call", ["pipe", "fork"])
def test_a_group_that_cannot_fork_runs_here(call, monkeypatch):
    """EMFILE from os.pipe or EAGAIN from os.fork for the second child of
    three: its steps (6, 4, 2) run here with this process's own, each once,
    and the report is one process's."""
    cfg = reference_instance(n=8, seed=4, max_outer=8)
    force_groups(monkeypatch, 1)
    expected = [outcome(e) for e in delta_sweep(cfg, LEVELS).entries]
    calls = refused(monkeypatch, call, lambda count: count > 1)
    here = stepped_here(monkeypatch)
    force_groups(monkeypatch, 3, first=True)
    assert [outcome(e) for e in delta_sweep(cfg, LEVELS).entries] == expected
    assert len(calls) == 2
    assert here == [(k, Fraction(level)) for k in range(0, 8, 2) for level in LEVELS]
    assert_no_child_left()


def refused(monkeypatch, call, when):
    """The calls of os.pipe or os.fork (call) from now on, the count-th
    failing with EMFILE or EAGAIN where when(count) holds."""
    code = errno.EMFILE if call == "pipe" else errno.EAGAIN
    real, calls = getattr(os, call), []

    def refusing():
        calls.append(call)
        if when(len(calls)):
            raise OSError(code, os.strerror(code))
        return real()

    monkeypatch.setattr(os, call, refusing)
    return calls


@pytest.mark.parametrize("groups", [2, 3])
def test_an_untraced_run_never_forks(groups, monkeypatch):
    cfg = reference_instance(n=8, seed=4, max_outer=8)
    forks = counted_forks(monkeypatch)
    force_groups(monkeypatch, groups)
    quagd_run(cfg)
    assert forks == []


# per case: the level of a traced run (None: a sweep of LEVELS[:4]), the level
# and outer step at which the map misses, and a later child's step whose input
# is predicted right again (None: none before the level ends).  On MISSED,
# levels 1 and 0.1 run all 8 steps, 0.01 fails at step 5 and 0.001 at step 3.
MISSED = replace(reference_instance(n=6, seed=1, max_outer=8), max_rounds=60)
MISSES = {
    "sweep": (None, "1", 1, 5),
    "sweep-then-failure": (None, "0.01", 4, None),
    "traced": ("0.1", "0.1", 4, 7),
    "traced-then-failure": ("0.01", "0.01", 1, None),
}


def outputs(cfg, run):
    """outcome() per level of a sweep of LEVELS[:4], or for a traced run at
    level `run`, with its trace text."""
    if run is None:
        return list(map(outcome, delta_sweep(cfg, LEVELS[:4]).entries))
    stream, entry = io.StringIO(), SimpleNamespace(exception=None)
    try:
        entry.trace = quagd_run(replace(cfg, delta=run), quadratic_optimum(cfg.costs),
                                inner_trace=stream)
    except Exception as exc:
        entry.exception = exc
    return outcome(entry), stream.getvalue()


@pytest.mark.parametrize("parts", [2, 3])
@pytest.mark.parametrize("case", MISSES.values(), ids=MISSES.keys())
def test_a_missed_prediction_leaves_one_process_outputs(case, parts, monkeypatch):
    """The map misses by one count at one step of one level, so the next
    step's predicted input is wrong: that step runs here, while the level's
    children's steps before it are taken, and a later one whose input is
    right again; every record, failure and trace byte is one process's."""
    run, level, step, rejoined = case
    force_groups(monkeypatch, 1)
    expected = outputs(MISSED, run)
    missing(monkeypatch, level, step)
    here = stepped_here(monkeypatch)
    force_groups(monkeypatch, parts, first=True)
    assert outputs(MISSED, run) == expected
    mine = {k for k, d in here if d == Fraction(level)}
    assert step + 1 in mine and all(k == 0 for k in mine if k <= step)
    assert rejoined not in mine
    assert_no_child_left()


def test_what_a_child_sends(monkeypatch):
    """One marshal frame per step, from the back down to the step after the
    published one (2): the step, per level a row (count, rounds, two flags)
    or None, then the trace text (None untraced).  A level gets None at its
    failing step and a row before it, and a row at every step past a miss."""
    missing(monkeypatch, "0.1", 1)
    sent = child_side(monkeypatch, front=2)
    force_groups(monkeypatch, 2)
    with pytest.raises(ChildExit):
        delta_sweep(MISSED, LEVELS[:4])
    sent = sent()
    assert [k for k, _, _ in sent] == [7, 6, 5, 4, 3]
    failed = {2: 5, 3: 3}  # per lane, its failing step, as in one process
    for k, rows, text in sent:
        assert text is None and len(rows) == 4
        for lane, row in enumerate(rows):
            if k == failed.get(lane):
                assert row is None
            elif k < failed.get(lane, 8):
                assert list(map(type, row)) == [int, int, bool, bool]


def test_a_frame_is_taken_whole_and_never_waited_for():
    """_frame publishes the step and reads a real pipe without blocking: a
    frame cut short is taken once whole, a passed step's is dropped, a later
    one kept, and an empty frame ends the pipe."""
    read, write = os.pipe()
    os.set_blocking(read, False)
    shared, pipes, held = bytearray(8), {read: [bytearray(), 0]}, {}
    sent = b"".join(len(data).to_bytes(8, "little") + data
                    for data in (marshal.dumps((k, [k], None)) for k in (3, 1, 2)))
    os.write(write, sent[:-1])
    with alarm():
        assert optimizer._frame(shared, pipes, held, 2) is None
        assert (shared, list(held), pipes[read][1]) == ((2).to_bytes(8, "little"), [3],
                                                       len(sent) // 3 * 2 - 1)
        os.write(write, sent[-1:] + bytes(8))
        assert optimizer._frame(shared, pipes, held, 2) == ([2], None)
        assert pipes == {} and optimizer._frame(shared, pipes, held, 3) == ([3], None)
    os.close(write)
    os.close(read)


def test_group_count():
    big = reference_instance(n=20, seed=0, max_outer=8)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)  # as _group_count counts them
    assert optimizer._group_count(big, 1) == 1
    assert optimizer._group_count(big, 3) == min(3, cpus)
    assert optimizer._group_count(big, big.max_outer) == min(8, cpus)  # a traced run's
    small = replace(big, max_outer=7)  # 140 node-steps do not pay for a fork
    assert optimizer._group_count(small, 3) == 1


def test_cpu_count_stands_in_for_the_affinity(monkeypatch):
    big = reference_instance(n=20, seed=0, max_outer=8)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # absent on macOS
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert optimizer._group_count(big, 3) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert optimizer._group_count(big, 3) == 3


def test_one_process_without_fork_or_with_another_thread(monkeypatch):
    big = reference_instance(n=20, seed=0, max_outer=8)
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
# calls of this process, which see only this process's steps once a run is split.
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


# --- a traced run, split by outer step

RUN = ["run", "--nodes", "20", "--seed", "2", "--max-iters", "60", "--output-dir", "out",
       "--trace"]


def traced(cfg, stream=None):
    """A traced quagd_run's trace text, and its records or else its
    failure's type, message and outer step."""
    stream = io.StringIO() if stream is None else stream
    try:
        got = quagd_run(cfg, quadratic_optimum(cfg.costs), inner_trace=stream).steps
    except Exception as exc:
        got = type(exc), str(exc), getattr(exc, "outer_step", None)
    return stream.getvalue(), got


@pytest.mark.parametrize("parts", [1, 2, 3])
def test_traced_run_writes_the_same_trace_in_any_split(parts, monkeypatch):
    cfg = reference_instance(n=20, seed=5, max_outer=60)
    force_groups(monkeypatch, 1)
    expected = traced(cfg)
    forks = counted_forks(monkeypatch)
    force_groups(monkeypatch, parts)
    assert traced(cfg) == expected
    assert len(forks) == parts - 1  # with this process, one per part
    assert_no_child_left()


@pytest.mark.parametrize("parts", [1, 2, 3])
def test_cli_traced_run_writes_the_same_bytes_in_any_split(parts, tmp_path, monkeypatch,
                                                          capsys):
    written = []
    for split in (1, parts):
        (tmp_path / str(split)).mkdir(exist_ok=True)
        monkeypatch.chdir(tmp_path / str(split))
        force_groups(monkeypatch, split)
        assert main(RUN) == 0
        files = {path.name: path.read_bytes() for path in Path("out").iterdir()}
        written.append((capsys.readouterr(), files))
    assert written[0] == written[1]
    assert written[0][1]["faqua_trace.txt"].count(b"RESULT") == 60
    assert_no_child_left()


FAILING_RUNS = {  # each fails at outer step 5, which neither split traces here
    "nontermination": lambda: replace(reference_instance(n=6, seed=1, max_outer=8),
                                      max_rounds=60),
    "divergence": lambda: replace(reference_instance(n=6, seed=0, max_outer=8), alpha=1e30),
}


@pytest.mark.filterwarnings("ignore:alpha=1e.30 outside")
@pytest.mark.parametrize("parts", [2, 3])
@pytest.mark.parametrize("make", FAILING_RUNS.values(), ids=FAILING_RUNS.keys())
def test_a_failing_traced_run_leaves_one_process_trace(make, parts, monkeypatch):
    force_groups(monkeypatch, 1)
    expected = traced(make())
    assert expected[1][2] == 5
    force_groups(monkeypatch, parts, first=True)
    assert traced(make()) == expected
    assert_no_child_left()


def test_the_steps_of_a_child_that_dies_are_traced_here(monkeypatch):
    """A child that leaves at its first step at or below step 5: this
    process traces every step from there down, and the trace is the same."""
    cfg = reference_instance(n=8, seed=4, max_outer=12)
    force_groups(monkeypatch, 1)
    expected = traced(cfg)
    stepped_here(monkeypatch, lambda k, child: child and k <= 5,
                  lambda qs: os._exit(0))
    for parts in (2, 3):
        force_groups(monkeypatch, parts)
        assert traced(cfg) == expected
    assert_no_child_left()


@pytest.mark.parametrize("call", ["pipe", "fork"])
def test_the_steps_of_a_child_that_cannot_fork_are_traced_here(call, monkeypatch):
    """EMFILE from os.pipe or EAGAIN from os.fork for the second child of
    three: its steps are traced here, and the trace is one process's."""
    cfg = reference_instance(n=8, seed=4, max_outer=12)
    force_groups(monkeypatch, 1)
    expected = traced(cfg)
    calls = refused(monkeypatch, call, lambda count: count > 1)
    force_groups(monkeypatch, 3)
    assert traced(cfg) == expected
    assert len(calls) == 2
    assert_no_child_left()


def flood_check_fails_at(cfg, step, monkeypatch):
    """From now on the trace writer's flood reaches no neighbour in cfg's
    outer step `step` (known by its node streams), so its check raises
    RuntimeError at the first window's end; the kernel runs as ever."""
    state = NodeStreams(cfg.master_seed, cfg.graph.n).at(step)[0].getstate()
    broken = copy.copy(cfg.graph)
    broken._closed_in = [lambda values, j=j: (values[j],) for j in range(cfg.graph.n)]
    real = optimizer.run_faqua

    def run_faqua(x_half, g, d_bound, q, rng, max_rounds=None, *, trace=None):
        if trace is not None and rng[0].getstate() == state:
            g = broken
        return real(x_half, g, d_bound, q, rng, max_rounds, trace=trace)

    monkeypatch.setattr(optimizer, "run_faqua", run_faqua)


def test_a_flood_check_failure_in_a_childs_step_is_raised_here(monkeypatch):
    """The child sends nothing for the step and leaves; this process traces
    the step again and raises what one process raises, after its text."""
    cfg = reference_instance(n=8, seed=4, max_outer=6)
    flood_check_fails_at(cfg, 3, monkeypatch)
    force_groups(monkeypatch, 1)
    expected = traced(cfg)
    assert expected[1][:3:2] == (RuntimeError, 3)
    force_groups(monkeypatch, 2)
    assert traced(cfg) == expected
    assert_no_child_left()


@pytest.mark.parametrize("parts", [2, 3])
@pytest.mark.parametrize("case", ["traces", "nontermination", "flood-check"])
def test_traced_child_side_run_in_process(case, parts, monkeypatch):
    """The first child traces steps K - 1, K - parts, ... down to 1, each into
    a new buffer, and sends its text, also a nontermination's partial text
    (step 5, after which it runs on), but nothing from a step that raises
    what the loop does not catch (flood-check), and nothing to the caller's
    stream."""
    cfg = reference_instance(n=8, seed=4, max_outer=7)
    if case == "nontermination":
        cfg = FAILING_RUNS["nontermination"]()
    force_groups(monkeypatch, 1)
    texts = ["OUTER" + part for part in traced(cfg)[0].split("OUTER")[1:]]  # per step
    mine = list(range(cfg.max_outer - 1, 0, 1 - parts))
    if case == "flood-check":
        flood_check_fails_at(cfg, mine[1], monkeypatch)
        mine = mine[:1]
    sent = child_side(monkeypatch)
    force_groups(monkeypatch, parts)
    stream = FullAt(-1)  # which keeps every write
    with pytest.raises(ChildExit):
        quagd_run(cfg, inner_trace=stream)
    sent = sent()
    assert stream.writes == []
    assert [k for k, _, _ in sent] == mine
    assert all(text == texts[k] for k, _, text in sent if k < len(texts))


class FullAt(io.StringIO):
    """A text stream whose write number `full` (from 0) raises ENOSPC."""

    def __init__(self, full):
        super().__init__()
        self.full, self.writes = full, []

    def write(self, text):
        if len(self.writes) == self.full:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.writes.append(text)
        return super().write(text)


def full_writes(writes):
    """Where in a two-process run's writes, its child's steps taken
    (children_first), a full disk is tried: a row of this process's step
    0, its RESULT line, and the copy of the child's step 1."""
    copy_ = next(i for i, w in enumerate(writes) if w.startswith("OUTER\t1\n"))
    assert writes[1].startswith("1\t0\t") and writes[copy_ - 1].startswith("RESULT")
    assert writes[copy_].count("RESULT") == 1 and writes[copy_].endswith("\n")
    return [1, copy_ - 1, copy_]


def test_a_full_disk_is_raised_as_by_one_process(monkeypatch):
    cfg = reference_instance(n=8, seed=4, max_outer=6)
    force_groups(monkeypatch, 2, first=True)
    recorded = FullAt(-1)
    traced(cfg, recorded)
    for full in full_writes(recorded.writes):
        for parts in (1, 2):
            force_groups(monkeypatch, parts)
            _, (kind, message, _) = traced(cfg, FullAt(full))
            assert (kind, message) == (OSError, f"[Errno {errno.ENOSPC}] "
                                                f"{os.strerror(errno.ENOSPC)}")
            assert_no_child_left()


def test_a_full_disk_in_a_traced_cli_run_exits_2(tmp_path, monkeypatch, capsys):
    """The CLI run's trace file fills up at a copied child text: exit code 2
    and a one-line message, no traceback, and no child left."""
    from quagd import cli

    monkeypatch.chdir(tmp_path)
    streams = []
    monkeypatch.setattr(cli, "open", lambda path, *args, **kwargs: streams.pop(0) if str(
        path).endswith("faqua_trace.txt") else open(path, *args, **kwargs), raising=False)
    force_groups(monkeypatch, 2, first=True)
    streams.append(FullAt(-1))
    recorded = streams[0]
    assert main(RUN) == 0
    capsys.readouterr()
    for full in full_writes(recorded.writes):
        streams.append(FullAt(full))
        assert main(RUN) == 2
        err = capsys.readouterr().err
        assert err == f"config error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
        assert_no_child_left()


def test_an_interrupt_in_a_traced_run_kills_and_reaps_every_child(monkeypatch):
    """This process stops at its outer step 3 while the children still run."""
    cfg = reference_instance(n=8, seed=0, max_outer=400)
    stepped_here(monkeypatch, lambda k, child: not child and k == 3, interrupt)
    force_groups(monkeypatch, 3)
    with pytest.raises(KeyboardInterrupt):
        quagd_run(cfg, inner_trace=io.StringIO())
    assert_no_child_left()


def test_children_stop_once_the_run_here_ends(monkeypatch):
    """A nontermination here alone, at this process's outer step 3, ends
    the run while the children would trace 400 steps: they are killed and
    reaped (an alarm bounds the wait, should one block for good)."""
    cfg = reference_instance(n=8, seed=0, max_outer=400)
    stepped_here(monkeypatch, lambda k, child: not child and k == 3,
                 lambda qs: [ConsensusNonterminationError(1, [])] * len(qs))
    force_groups(monkeypatch, 3)
    with alarm(), pytest.raises(ConsensusNonterminationError) as failed:
        quagd_run(cfg, inner_trace=io.StringIO())
    assert failed.value.outer_step == 3
    assert_no_child_left()


@pytest.mark.parametrize("run", [None, "0.1"], ids=["sweep", "traced"])
def test_a_slow_childs_steps_run_here(run, monkeypatch):
    """The second child of three stops for good at its first step (6): this
    process never waits for its frames and runs its steps 6, 4 and 2 itself;
    every record, failure and trace byte is one process's."""
    force_groups(monkeypatch, 1)
    expected = outputs(MISSED, run)
    here = stepped_here(monkeypatch, lambda k, child: child and k % 2 == 0,
                        lambda qs: signal.pause())
    force_groups(monkeypatch, 3)
    with alarm():
        assert outputs(MISSED, run) == expected
    assert {2, 4, 6} <= {k for k, _ in here}
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or optimizer._cpu() is None
                    or len(os.sched_getaffinity(0)) < 2, reason="needs Linux and 2 CPUs")
def test_a_child_moves_off_the_cpu_this_process_ran_on(tmp_path, monkeypatch):
    """A child's affinity at its first step is this process's less the CPU
    this process ran on at the fork (/proc/self/stat), and the outputs are
    the same."""
    cpus, real = [], optimizer._cpu
    monkeypatch.setattr(optimizer, "_cpu", lambda: cpus.append(real()) or cpus[-1])
    force_groups(monkeypatch, 1)
    expected = outputs(MISSED, None)

    def report(qs):
        (tmp_path / "affinity").write_text(" ".join(map(str, os.sched_getaffinity(0))))
        os._exit(0)

    stepped_here(monkeypatch, lambda k, child: child, report)
    force_groups(monkeypatch, 2)
    assert outputs(MISSED, None) == expected
    affinity = set(map(int, (tmp_path / "affinity").read_text().split()))
    assert cpus[0] is not None and affinity == os.sched_getaffinity(0) - {cpus[0]}
    assert_no_child_left()


def test_what_this_process_holds_of_a_child_is_bounded(monkeypatch):
    """With _HOLD_BYTES set below one step's text, this process holds at
    most that much of the child's frames plus one frame, after reading as
    far as it may at step 0; the trace is one process's."""
    cfg = reference_instance(n=8, seed=4, max_outer=12)
    force_groups(monkeypatch, 1)
    expected = traced(cfg)
    monkeypatch.setattr(optimizer, "_HOLD_BYTES", 3000)
    held_bytes, real = [], optimizer._frame

    def frame(shared, pipes, held, k):
        got = real(shared, pipes, held, k)
        sizes = [8 + len(marshal.dumps((k, *got)))] if got else []
        sizes += [size for _, size, _, _ in held.values()] + [len(b) for b, _ in pipes.values()]
        held_bytes.append((sum(sizes), max(sizes, default=0)))
        return got

    monkeypatch.setattr(optimizer, "_frame", frame)
    force_groups(monkeypatch, 2, first=True)
    with alarm():
        assert traced(cfg) == expected
    assert all(size <= 3000 + largest for size, largest in held_bytes)
    assert max(size for size, _ in held_bytes) > 3000  # the child got as far ahead as it may
    assert_no_child_left()


def open_descriptors():
    """How many descriptors this process has open, or skip where it cannot
    list them."""
    for listing in ("/proc/self/fd", "/dev/fd"):
        if os.path.isdir(listing):
            return len(os.listdir(listing))
    pytest.skip("no descriptor listing")


@pytest.mark.parametrize("call", [None, "pipe", "fork"])
def test_no_descriptor_left_open(call, monkeypatch):
    """A split sweep and a split traced run close every pipe end they open,
    also where the second of two os.pipe or os.fork calls is refused."""
    cfg = reference_instance(n=8, seed=4, max_outer=8)
    before = open_descriptors()
    if call is not None:
        calls = refused(monkeypatch, call, lambda count: count % 2 == 0)
    force_groups(monkeypatch, 3)
    delta_sweep(cfg, LEVELS)
    traced(cfg)
    assert open_descriptors() == before
    assert call is None or len(calls) == 4
    assert_no_child_left()
