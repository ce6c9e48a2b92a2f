"""Outputs are the same on every supported CPython, not only on this one.

Runs test_golden's flag-only `run` (several outer steps, so node streams are
reseeded in C) and its graph-gen cases under each python3.10 ... python3.13
found on PATH or installed by pyenv, and compares their digests with GOLDEN
and GRAPH_GOLDEN.  A version with no interpreter that starts, or that is the
running interpreter's, is skipped.
"""

import glob
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import GOLDEN, GRAPH_GOLDEN, graph_gen_id

SRC = Path(__file__).resolve().parent.parent / "src"
RUN = next(argv for argv in GOLDEN if argv[0] == "run")
MINORS = [10, 11, 12, 13]


def candidates(minor):
    """python3.<minor> on PATH, then pyenv's installs of 3.<minor> (under
    $PYENV_ROOT, ~/.pyenv by default), whose PATH shims may not start."""
    exe = shutil.which(f"python3.{minor}")
    if exe is not None:
        yield exe
    root = os.environ.get("PYENV_ROOT") or os.path.expanduser("~/.pyenv")
    yield from sorted(glob.glob(
        os.path.join(root, "versions", f"3.{minor}.*", "bin", f"python3.{minor}")
    ))


def other_interpreter(minor):
    """The first candidate that starts as 3.<minor>, or skip if none does or
    3.<minor> is the running interpreter's version."""
    if sys.version_info[:2] == (3, minor):
        pytest.skip("the running interpreter's version")
    for exe in candidates(minor):
        probe = subprocess.run(
            [exe, "-c", "import sys; print(*sys.version_info[:2])"],
            capture_output=True, text=True, timeout=60,
        )
        if probe.returncode == 0 and probe.stdout.split() == ["3", str(minor)]:
            return exe
    pytest.skip(f"no python3.{minor} that starts, on PATH or under pyenv")


def run_cli(exe, argv, cwd):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run(
        [exe, "-m", "quagd.cli", *argv],
        cwd=cwd, env=env, capture_output=True, timeout=300, check=True,
    )


@pytest.mark.parametrize("minor", MINORS)
def test_golden_run_matches_under(minor, tmp_path):
    run_cli(other_interpreter(minor), RUN, tmp_path)
    digests = {
        name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
        for name in GOLDEN[RUN]
    }
    assert digests == GOLDEN[RUN]


# The generator draws its coins in bulk through getrandbits, so it leans on
# how each CPython builds random() from two words and orders getrandbits' words.
@pytest.mark.parametrize("argv", list(GRAPH_GOLDEN), ids=graph_gen_id)
@pytest.mark.parametrize("minor", MINORS)
def test_golden_graph_gen_matches_under(minor, argv, tmp_path):
    run_cli(other_interpreter(minor), [*argv, "--output", "g.txt"], tmp_path)
    digest = hashlib.sha256((tmp_path / "g.txt").read_bytes()).hexdigest()
    assert digest == GRAPH_GOLDEN[argv]
