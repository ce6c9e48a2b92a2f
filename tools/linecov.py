"""Line-coverage gate: run tier-1 in-process and fail on any executable line
of src/quagd that no test reaches.

    python tools/linecov.py

The line check needs CPython 3.12 or later for sys.monitoring; below that
the tests still run, the check is skipped with a note, and the exit code
is pytest's.  A LINE callback records the lines run in src/quagd
and disables each code location after its first event, so the tests run
at close to their usual speed.  An executable line is one that a code
object compiled from the module lists in co_lines(), line 0 (a code
object's entry) aside.  Lines reached only in a subprocess do not count.

ALLOWED names, by file and source text, the lines that are unreachable on
purpose.  An entry that matches no unreached line fails the gate too, so
the list stays exact.  The exit code is pytest's if the tests fail, else 1
for a stray or a stale line, else 0.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "quagd"
PYTEST_ARGS = ["-q", "--continue-on-collection-errors"]  # the tier-1 command's

ALLOWED = {  # (file name, stripped source line)
    # the module run as a script; the tests call main() itself
    ("cli.py", "sys.exit(main())"),
    # a safety check: theta < 1 exactly when the Young parameter is below its
    # bound, and alpha < 2n/(mu+L) gives theta > 0
    ("optimizer.py",
     'raise ConfigError(f"contraction factor {float(theta)} not in (0, 1)")'),
}


def executable_lines(path: Path) -> set[int]:
    """The lines on which some code object compiled from path has code."""
    todo = [compile(path.read_text(), str(path), "exec", dont_inherit=True)]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None, 0: no line
        todo.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


def run_tier1(monitor: bool) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code for the tier-1 command run here, and, if monitor,
    the lines of src/quagd it reached, by file name."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    hits: dict[str, set[int]] = {}

    # as `PYTHONPATH=src python -m pytest` run from the repository root
    os.chdir(ROOT)
    env_path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = "src" + (f"{os.pathsep}{env_path}" if env_path else "")
    sys.path[0:1] = [str(ROOT), str(SRC)]
    if not monitor:
        return int(pytest.main(PYTEST_ARGS)), hits

    mon, tool = sys.monitoring, sys.monitoring.COVERAGE_ID

    def on_line(code, line):
        if code.co_filename.startswith(prefix):
            hits.setdefault(code.co_filename, set()).add(line)
        return mon.DISABLE

    mon.use_tool_id(tool, "linecov")
    mon.register_callback(tool, mon.events.LINE, on_line)
    mon.set_events(tool, mon.events.LINE)
    try:
        status = pytest.main(PYTEST_ARGS)
    finally:
        mon.set_events(tool, mon.events.NO_EVENTS)
        mon.free_tool_id(tool)
    return int(status), hits


def main() -> int:
    monitor = sys.version_info >= (3, 12)
    status, hits = run_tier1(monitor)
    if not monitor:
        print(f"linecov: line check skipped, sys.monitoring needs CPython 3.12 "
              f"or later (this is {platform.python_version()})")
        return status
    if status != 0:
        print(f"linecov: the tests failed (pytest exit code {status})")
        return status
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - hits.get(str(path), set())):
            unreached.append((path.name, line, source[line - 1].strip()))
    stray = [(name, line, text) for name, line, text in unreached
             if (name, text) not in ALLOWED]
    stale = ALLOWED - {(name, text) for name, _, text in unreached}
    for name, line, text in stray:
        print(f"src/quagd/{name}:{line}: no test reaches this line: {text}")
    for name, text in sorted(stale):
        print(f"src/quagd/{name}: allowlisted but not an unreached line: {text}")
    if stray or stale:
        return 1
    print(f"linecov: every executable line of src/quagd is reached, "
          f"but the {len(ALLOWED)} allowlisted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
