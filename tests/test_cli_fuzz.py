"""Fuzz of the CLI's exit-code contract.

Whatever the argv and INI file, `main` returns a documented exit code
(0, 2, 3, 4 or 5), and the only exception that escapes it is argparse's own
SystemExit(2) for an unparsable command line.  `theory` given only one of
--mu/--lipschitz, or either of them with --config, --seed or --edge-prob,
is a config error.
"""

import contextlib
import io
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from quagd.cli import main  # noqa: E402
from quagd.graph import (  # noqa: E402
    generate_random_strongly_connected,
    write_edge_list,
)

DELTAS = ["0", "-1", "abc", "inf", "1e-3", "0.1"]
ALPHAS = ["-1", "0", "0.5", "50", "inf", "nan"]
# theory's --mu/--lipschitz/--young-delta; 1e-320 puts the step-size
# interval beyond the float range
CONSTANTS = ["4", "6", "-1", "inf", "1e-320"]
# a strongly connected graph, one that is not, and a file that does not exist
GRAPH_FILES = ["g.txt", "path.txt", "missing.txt"]
OUTPUT_DIRS = ["out", "out/nested", "g.txt/out"]  # the last is unwritable


@st.composite
def cli_inputs(draw):
    """(argv, INI text or None) for one of the four subcommands."""
    command = draw(st.sampled_from(["run", "sweep", "theory", "graph-gen"]))
    argv = [command]
    if command == "graph-gen":
        argv += ["--nodes", str(draw(st.integers(2, 6)))]
        argv += ["--seed", str(draw(st.integers(0, 3)))]
        argv += ["--output", draw(st.sampled_from(["g2.txt", "nodir/g.txt"]))]
        return argv, None
    if command == "theory" and draw(st.booleans()):
        # valid constants and node count, but with a flag theory does not read
        argv += ["--mu", draw(st.sampled_from(["4", "6"]))]
        argv += ["--lipschitz", draw(st.sampled_from(["4", "6"]))]
        argv += ["--nodes", str(draw(st.integers(2, 6)))]
        unread = draw(st.sampled_from(
            [["--seed"], ["--edge-prob"], ["--seed", "--edge-prob"]]))
        if "--seed" in unread:
            argv += ["--seed", str(draw(st.integers(0, 3)))]
        if "--edge-prob" in unread:
            argv += ["--edge-prob", draw(st.sampled_from(["0", "0.3", "1"]))]
        return argv, None

    ini: dict[str, list[str]] = {}

    def option(flag, section, values):
        """Set the option by flag, in the INI, both, or not at all."""
        key = flag[2:].replace("-", "_")
        where = draw(st.sampled_from(["flag", "ini", "both", "unset", "unset"]))
        if where in ("flag", "both"):
            argv.extend([flag, draw(values)])
        if where in ("ini", "both"):
            ini.setdefault(section, []).append(f"{key} = {draw(values)}")

    option("--nodes", "graph", st.integers(2, 6).map(str))
    option("--max-iters", "optimizer", st.integers(0, 3).map(str))
    option("--alpha", "optimizer", st.sampled_from(ALPHAS))
    option("--seed", "run", st.integers(0, 3).map(str))
    if command == "sweep":
        option("--deltas", "optimizer", st.lists(
            st.sampled_from(DELTAS), min_size=1, max_size=2).map(",".join))
    else:
        option("--delta", "optimizer", st.sampled_from(DELTAS))
    if command == "theory":
        for flag in ("--mu", "--lipschitz", "--young-delta"):
            if draw(st.booleans()):
                argv += [flag, draw(st.sampled_from(CONSTANTS))]
        if draw(st.booleans()):
            argv += ["--edge-prob", draw(st.sampled_from(["0.3", "2"]))]
    else:
        option("--graph-file", "graph", st.sampled_from(GRAPH_FILES))
        option("--output-dir", "run", st.sampled_from(OUTPUT_DIRS))
    if command == "run" and draw(st.booleans()):
        argv.append("--trace")

    if not ini and not draw(st.booleans()):
        return argv, None
    argv += ["--config", draw(st.sampled_from(["cfg.ini", "missing.ini"]))]
    text = "".join(
        f"[{section}]\n" + "".join(line + "\n" for line in lines)
        for section, lines in ini.items()
    )
    return argv, text


@pytest.mark.filterwarnings("ignore:alpha=.* outside the admissible interval")
@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(cli_inputs())
def test_exit_code_is_documented(case):
    argv, ini = case
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            write_edge_list(generate_random_strongly_connected(4, 0.3, 1), "g.txt")
            with open("path.txt", "w") as fh:
                fh.write("n 3\n1 0\n2 1\n")
            if ini is not None:
                with open("cfg.ini", "w") as fh:
                    fh.write(ini)
            err = io.StringIO()
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse rejects its input this way
                    code = exc.code
                    assert code == 2, (argv, ini)
        finally:
            os.chdir(cwd)
    assert code in (0, 2, 3, 4, 5), (argv, ini, err.getvalue())
    given_constants = {"--mu", "--lipschitz"} & set(argv)
    unread = {"--config", "--seed", "--edge-prob"} & set(argv)
    if argv[0] == "theory" and given_constants and (
        unread or len(given_constants) == 1
    ):
        assert code == 2, (argv, ini)  # never silently ignored
