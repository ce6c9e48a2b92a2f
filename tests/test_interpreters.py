"""Outputs are the same on every supported CPython, not only on this one.

Runs test_golden's flag-only `run` under each python3.10 ... python3.13 found
on PATH and compares its digests with GOLDEN.  An interpreter that does not
start, or that is the running interpreter's version, is skipped.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import GOLDEN

SRC = Path(__file__).resolve().parent.parent / "src"
RUN = next(argv for argv in GOLDEN if argv[0] == "run")


@pytest.mark.parametrize("minor", [10, 11, 12, 13])
def test_golden_run_matches_under(minor, tmp_path):
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
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run(
        [exe, "-m", "quagd.cli", *RUN],
        cwd=tmp_path, env=env, capture_output=True, timeout=300, check=True,
    )
    digests = {
        name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
        for name in GOLDEN[RUN]
    }
    assert digests == GOLDEN[RUN]
