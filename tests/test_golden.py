"""Golden sha256 digests of flag-only CLI runs.

These pin the CLI's default-draw path (graph, unit-quadratic centers and x0
drawn from the seed) byte for byte, so a refactor that changes any output
fails here even when two runs of the new build agree with each other.
Output directories are relative because effective_config.ini echoes them.
"""

import hashlib

import pytest

from quagd.cli import main

GOLDEN = {
    (
        "run", "--nodes", "12", "--seed", "3", "--delta", "0.01",
        "--max-iters", "10", "--trace", "--output-dir", "out",
    ): {
        "trace.csv": "c20487b3d19fc8b9d6dcd037779f69387682a122cbe4595b8b05877f81f78167",
        "faqua_trace.txt": "da58ae423ebcd21ef9781f90bc8c896314f9ed16ceb40c1bb1c301e3d3409692",
        "effective_config.ini": "e85fb67da50bd3a170e128be095ac20abf3d9c2d599c25a7ea94629726083e97",
    },
    (
        "sweep", "--nodes", "8", "--seed", "2", "--deltas", "0.1,0.01",
        "--max-iters", "10", "--output-dir", "out",
    ): {
        "sweep.csv": "88875b02f2848e0298cd88575c3e09822531a99038790a56c14dea04ff377538",
    },
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=lambda argv: argv[0])
def test_cli_outputs_match_golden_digests(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(list(argv)) == 0
    digests = {
        name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
        for name in GOLDEN[argv]
    }
    assert digests == GOLDEN[argv]


# An INI that exercises the echo paths the flag-only runs above leave out:
# graph_file, d_bound, alpha, delta, deltas, output_dir, trace = yes, x0 and
# explicit [costs] (one beta=2, echoed as 2.0).  alpha = 0.6 lies inside the
# admissible interval (0.4375, 0.875) for n = 7, mu = L = 8.
ECHO_INI = """\
[graph]
graph_file = g.txt
d_bound = 6

[optimizer]
alpha = 0.6
delta = 0.05
deltas = 0.1,0.01
max_iters = 8
x0 = 1.0,2.5,3.0,4.25,5.0,6.0,7.5

[costs]
0 = quadratic beta=2 center=1.5
1 = quadratic beta=1.0 center=2.0
2 = quadratic beta=1.0 center=9.0
3 = quadratic beta=1.0 center=0.5
4 = quadratic beta=1.0 center=4.0
5 = quadratic beta=1.0 center=7.0
6 = quadratic beta=1.0 center=3.3

[run]
seed = 9
output_dir = out
trace = yes
"""

ECHO_GOLDEN = {
    "out/effective_config.ini": "b0ae25388037321c26352136f346cebd99e5df8fef401262131a6b5fdd798cce",
    "out/trace.csv": "b02a355f41f53b0c86ef0f2315af46649019e398b1c5a5372dbb616fb48fb204",
    "out/sweep/effective_config.ini": "9128cd1d86402cde15f9ab07eb214a94720d8ab8e75ed394a1ecc9c6948846b8",
}


def test_ini_config_echo_matches_golden_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["graph-gen", "--nodes", "7", "--edge-prob", "0.3", "--seed", "4"]
    assert main([*argv, "--output", "g.txt"]) == 0
    (tmp_path / "cfg.ini").write_text(ECHO_INI)
    assert main(["run", "--config", "cfg.ini"]) == 0
    assert main(["sweep", "--config", "cfg.ini", "--output-dir", "out/sweep"]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ECHO_GOLDEN
    }
    assert digests == ECHO_GOLDEN
