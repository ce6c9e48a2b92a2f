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
