"""Outputs are the same on every supported CPython, not only on this one.

Runs test_golden's flag-only `run` and its graph-gen cases under each
python3.10 ... python3.13 found on PATH and compares their digests with
GOLDEN and GRAPH_GOLDEN.  An interpreter that does not start, or that is the
running interpreter's version, is skipped.
"""

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


def other_interpreter(minor):
    """python3.<minor> on PATH, or skip if it is missing, does not start, or
    is the running interpreter's version."""
    exe = shutil.which(f"python3.{minor}")
    if exe is None:
        pytest.skip(f"python3.{minor} not on PATH")
    probe = subprocess.run(
        [exe, "-c", "import sys; print(*sys.version_info[:2])"],
        capture_output=True, text=True, timeout=60,
    )
    if probe.returncode != 0:
        pytest.skip(f"python3.{minor} does not start")
    if probe.stdout.split() == [str(v) for v in sys.version_info[:2]]:
        pytest.skip("the running interpreter's version")
    return exe


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
