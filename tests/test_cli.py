import json
import runpy
import sys
from pathlib import Path

import pytest

from quagd.cli import EffectiveConfig, build_parser, main
from quagd.graph import diameter, read_edge_list
from quagd.harness import reference_instance


def run_cli(*argv):
    return main(list(argv))


class TestRun:
    def test_smoke_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(
            "run", "--nodes", "6", "--delta", "0.01", "--seed", "42",
            "--max-iters", "8", "--output-dir", str(out),
        )
        assert code == 0
        assert (out / "trace.csv").exists()
        assert (out / "residual.svg").exists()
        assert (out / "effective_config.ini").exists()
        lines = (out / "trace.csv").read_text().splitlines()
        assert len(lines) == 1 + 8 + 1  # header + K + initial row

    def test_zero_delta_is_config_error(self, tmp_path, capsys):
        assert run_cli("run", "--delta", "0", "--output-dir", str(tmp_path)) == 2

    def test_non_strongly_connected_graph_names_pair(self, tmp_path, capsys):
        gfile = tmp_path / "path.txt"
        gfile.write_text("n 3\n1 0\n2 1\n")
        code = run_cli(
            "run", "--graph-file", str(gfile), "--output-dir", str(tmp_path / "o")
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "no directed path" in err and "node" in err

    def test_byte_identical_reruns(self, tmp_path, capsys):
        traces = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli(
                "run", "--nodes", "8", "--delta", "0.05", "--seed", "7",
                "--max-iters", "10", "--output-dir", str(out),
            ) == 0
            traces.append((out / "trace.csv").read_bytes())
        assert traces[0] == traces[1]

    def test_rerun_from_effective_config_reproduces(self, tmp_path, capsys):
        out1 = tmp_path / "one"
        assert run_cli(
            "run", "--nodes", "5", "--delta", "0.02", "--seed", "3",
            "--max-iters", "6", "--output-dir", str(out1),
        ) == 0
        out2 = tmp_path / "two"
        assert run_cli(
            "run", "--config", str(out1 / "effective_config.ini"),
            "--output-dir", str(out2),
        ) == 0
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()

    def test_trace_flag_writes_inner_rounds(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(
            "run", "--nodes", "4", "--delta", "0.1", "--seed", "1",
            "--max-iters", "2", "--output-dir", str(out), "--trace",
        ) == 0
        text = (out / "faqua_trace.txt").read_text()
        assert text.startswith("OUTER\t0\n")
        assert "RESULT\t" in text

    @pytest.mark.filterwarnings("ignore:alpha=50.0 outside")
    def test_divergence_exit_code(self, tmp_path, capsys):
        code = run_cli(
            "run", "--nodes", "10", "--alpha", "50", "--max-iters", "200",
            "--output-dir", str(tmp_path / "o"),
        )
        assert code == 5
        assert "divergence at outer step 91" in capsys.readouterr().err

    def test_nontermination_exit_code(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.ini"
        cfgfile.write_text(
            "[graph]\nnodes = 4\nedge_prob = 0.2\n"
            "[optimizer]\ndelta = 0.01\nmax_iters = 3\n"
            "[run]\nseed = 1\n"
        )
        # no way to set max_rounds from the CLI; shrink the budget via patching
        from quagd.consensus import run_faqua as real_run

        def tiny_budget(*args, **kwargs):
            kwargs.pop("trace", None)
            return real_run(*args[:5], 1, **kwargs)

        monkey = pytest.MonkeyPatch()
        monkey.setattr("quagd.optimizer.run_faqua", tiny_budget)
        try:
            code = run_cli(
                "run", "--config", str(cfgfile), "--output-dir", str(tmp_path / "o")
            )
        finally:
            monkey.undo()
        assert code == 4
        assert "nontermination" in capsys.readouterr().err


TWO_COSTS = (
    "[graph]\nnodes = 2\n[costs]\n"
    "0 = quadratic {}\n1 = quadratic beta=1.0 center=2.0\n"
)


def two_betas(beta):
    return (
        f"[graph]\nnodes = 2\n[costs]\n0 = quadratic beta={beta} center=1.0\n"
        f"1 = quadratic beta={beta} center=2.0\n"
    )


NON_INTEGER_COST_KEY = (
    "[graph]\nnodes = 2\n[costs]\n"
    "a = quadratic beta=1.0 center=1.0\n1 = quadratic beta=1.0 center=2.0\n"
)


# 2n/(mu+L) and n(mu+L)/(4 mu L) exceed the largest float
TINY_BETAS = two_betas("1e-320")

# levels whose float is infinite or zero; the last one is slow to convert exactly
LEVEL_FLAGS = [("run", "--delta"), ("sweep", "--deltas"), ("theory", "--delta")]
BAD_LEVELS = ["1e400", "1e-400", "1e999999999"]

# INI entries that nothing reads, by test id: (INI text, the entry named)
UNREAD_INI = {
    "misspelled-graph-key": ("[graph]\nnodez = 7\n", "[graph] nodez"),
    "misspelled-optimizer-key": ("[optimizer]\nalpah = 0.6\n", "[optimizer] alpah"),
    "misspelled-run-key": ("[run]\nmax_iter = 2\n", "[run] max_iter"),
    "unknown-section": ("[graph]\nnodes = 7\n[grpah]\nnodes = 5\n", "[grpah]"),
    "default-section": ("[DEFAULT]\nnodes = 7\n", "[DEFAULT]"),
    "cost-parameter-twice": (TWO_COSTS.format("beta=1 center=2 beta=3"), "[costs] 0"),
    "non-numeric-cost-parameter": (TWO_COSTS.format("beta=abc center=2"),
                                   "[costs] 0: beta"),
}


@pytest.mark.parametrize(
    "argv, ini",
    [
        (["run", "--graph-file", "missing.txt"], None),
        (["graph-gen", "--output", "nodir/g.txt"], None),
        (["run", "--config", "cfg.ini"], TWO_COSTS.format("beta=1.0 center=1.0 foo=2")),
        (["run", "--alpha", "inf"], None),
        (["run", "--config", "cfg.ini"], "[optimizer]\nalpha = 5%\n"),
        (["run", "--config", "cfg.ini"], TWO_COSTS.format("beta=inf center=1.0")),
        (["run", "--config", "cfg.ini"], TWO_COSTS.format("beta=1.0 center=nan")),
        (["run", "--config", "cfg.ini"],
         "[graph]\nnodes = 2\n[optimizer]\nx0 = 1e200,1.0\n"),
        (["theory", "--mu", "inf", "--lipschitz", "20", "--nodes", "20"], None),
        (["theory", "--mu", "20", "--lipschitz", "1e400", "--nodes", "20"], None),
        (["theory", "--mu", "20", "--lipschitz", "20", "--nodes", "20",
          "--alpha", "inf"], None),
        (["theory", "--mu", "20", "--lipschitz", "20", "--nodes", "20",
          "--young-delta", "inf"], None),
        (["theory", "--nodes", "20", "--young-delta", "inf"], None),
        (["theory", "--config", "cfg.ini", "--mu", "5", "--lipschitz", "5"],
         "[graph]\nnodes = 20\n[optimizer]\nalpha = 0.6\n"),
        (["theory", "--mu", "5", "--nodes", "20"], None),
        (["theory", "--mu", "1e-320", "--lipschitz", "1e-320", "--nodes", "2"], None),
        (["theory", "--mu", "1e-320", "--lipschitz", "1", "--nodes", "2"], None),
        (["theory", "--config", "cfg.ini"], TINY_BETAS),
        (["run", "--config", "cfg.ini"], TINY_BETAS),
        (["run", "--config", "cfg.ini", "--alpha", "1.0"], TINY_BETAS),
        (["sweep", "--config", "cfg.ini", "--deltas", "0.1"], TINY_BETAS),
        (["run", "--config", "cfg.ini"], two_betas("1e308")),
        (["theory", "--mu", "1e300", "--lipschitz", "1e300", "--nodes", "2",
          "--alpha", "1.9999999999999998e-300"], None),
        (["theory", "--mu", "1e300", "--lipschitz", "1e300", "--nodes", "2",
          "--young-delta", "1e-300", "--delta", "0.01"], None),
        (["run", "--config", "cfg.ini"],
         "[graph]\nnodes = 2\n[costs]\n0 =\n1 = quadratic beta=1.0 center=2.0\n"),
        (["run", "--config", "cfg.ini"], TWO_COSTS.format("beta=1.0 center")),
        (["run", "--config", "cfg.ini"], "nodes = 2\n"),
        (["run", "--config", "cfg.ini"],
         "[graph]\nnodes = 3\n[costs]\n0 = quadratic beta=1.0 center=1.0\n"),
        (["theory", "--mu", "5", "--lipschitz", "5"], None),
        (["sweep", "--nodes", "4", "--deltas", "0.1,0.1000000000000000000001",
          "--max-iters", "3"], None),
        (["run", "--config", "cfg.ini"],
         "[graph]\nnodes = 3\n[costs]\n0 = quadratic beta=1.0 center=1.0\n"
         "1 = quadratic beta=1.0 center=2.0\n2 = quadratic beta=1.0 center=3.0\n"
         "7 = quadratic beta=1.0 center=4.0\n-1 = quadratic beta=1.0 center=5.0\n"),
        (["run", "--config", "cfg.ini"],
         TWO_COSTS.format("beta=1.0 center=1.0")
         + "01 = quadratic beta=3.0 center=2.0\n"),
        (["run", "--config", "cfg.ini"], NON_INTEGER_COST_KEY),
        (["theory", "--config", "cfg.ini", "--mu", "20", "--lipschitz", "20",
          "--nodes", "20"], "[graph]\nnodes = 20\n"),
        (["run", "--nodes", "abc"], None),
        (["run", "--max-iters", "-1"], None),
        (["theory", "--mu", "-1", "--lipschitz", "5", "--nodes", "3"], None),
        (["theory", "--mu", "", "--lipschitz", "5", "--nodes", "3"], None),
        (["theory", "--mu", "abc", "--lipschitz", "5", "--nodes", "3"], None),
        (["theory", "--mu", "5", "--lipschitz", "5", "--nodes", "3",
          "--young-delta", "abc"], None),
        (["theory", "--nodes", "20", "--young-delta", "abc"], None),
        (["theory", "--mu", "1", "--lipschitz", "10", "--nodes", "-3"], None),
        (["theory", "--mu", "1", "--lipschitz", "10", "--nodes", "0"], None),
        (["run", "--nodes", "5", "--alpha", "-1", "--max-iters", "0"], None),
        (["run", "--alpha", "0"], None),
        (["run", "--config", "cfg.ini"], "[optimizer]\nalpha = 0\n"),
        (["run", "--seed", "-1"], None),
        (["graph-gen", "--nodes", "5", "--edge-prob", "0.3", "--seed", "-3",
          "--output", "g.txt"], None),
        (["sweep", "--seed", "18446744073709551616"], None),
        (["run", "--graph-file", "g.txt", "--nodes", "99", "--edge-prob", "0.9"], None),
        (["run", "--graph-file", "g.txt", "--nodes", "20"], None),
        (["run", "--config", "cfg.ini"], "[graph]\ngraph_file = g.txt\nnodes = 50\n"),
        (["sweep", "--config", "cfg.ini", "--edge-prob", "0.5", "--deltas", "0.1"],
         "[graph]\ngraph_file = g.txt\n"),
        (["run", "--config", "cfg.ini"], "[run]\ntrace = ture\n"),
        (["run", "--config", "cfg.ini"], "[run]\ntrace = 2\n"),
        *[([cmd, flag, level], None) for cmd, flag in LEVEL_FLAGS for level in BAD_LEVELS],
        *[(["run", "--config", "cfg.ini"], ini) for ini, _ in UNREAD_INI.values()],
    ],
    ids=["missing-graph-file", "unwritable-output", "bad-cost-key", "inf-alpha",
         "percent-sign", "inf-beta", "nan-center", "huge-x0", "theory-inf-mu",
         "theory-overflowing-lipschitz", "theory-inf-alpha",
         "theory-inf-young-delta", "theory-config-inf-young-delta",
         "theory-mu-lipschitz-with-config", "theory-mu-without-lipschitz",
         "theory-interval-beyond-floats", "theory-lower-bound-beyond-floats",
         "theory-config-interval-beyond-floats", "run-interval-beyond-floats",
         "run-alpha-interval-beyond-floats", "sweep-interval-beyond-floats",
         "run-infinite-sum-of-betas", "theory-young-upper-beyond-floats",
         "theory-error-floor-beyond-floats", "empty-cost-entry",
         "cost-item-without-equals", "ini-syntax-error", "costs-missing-a-node",
         "theory-mu-lipschitz-without-nodes", "levels-sharing-a-name",
         "costs-naming-other-nodes", "costs-naming-a-node-twice",
         "costs-naming-a-non-integer-key", "theory-mu-lipschitz-nodes-with-config",
         "non-integer-nodes-flag",
         "negative-max-iters", "theory-negative-mu", "theory-empty-mu-is-unset",
         "theory-malformed-mu", "theory-malformed-young-delta",
         "theory-config-malformed-young-delta", "theory-negative-nodes",
         "theory-zero-nodes", "negative-alpha-without-iterations", "zero-alpha",
         "ini-zero-alpha", "run-negative-seed", "graph-gen-negative-seed",
         "sweep-seed-of-2-to-the-64", "graph-file-with-nodes-and-edge-prob-flags",
         "graph-file-with-nodes-flag-at-its-default",
         "ini-graph-file-with-nodes", "ini-graph-file-with-edge-prob-flag",
         "misspelled-ini-boolean", "ini-boolean-of-2",
         *[f"{cmd}-level-{level}" for cmd, _ in LEVEL_FLAGS for level in BAD_LEVELS],
         *UNREAD_INI],
)
def test_bad_input_is_config_error(argv, ini, tmp_path, monkeypatch, capsys, recwarn):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.txt").write_text("n 3\n1 0\n2 1\n0 2\n")  # a valid graph file
    if ini is not None:
        (tmp_path / "cfg.ini").write_text(ini)
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "UserWarning" not in err  # the input is rejected before any warning
    assert not [w for w in recwarn if issubclass(w.category, UserWarning)]


@pytest.mark.parametrize("text, traced", [("no", False), ("0", False), (" OFF ", False),
                                          ("false", False), ("yes", True), ("On", True)])
def test_ini_boolean_vocabulary(text, traced, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.ini").write_text(
        f"[graph]\nnodes = 4\n[optimizer]\nmax_iters = 1\n[run]\ntrace = {text}\n")
    assert run_cli("run", "--config", "cfg.ini") == 0
    assert (tmp_path / "out" / "faqua_trace.txt").exists() is traced
    assert f"trace = {str(traced).lower()}\n" in capsys.readouterr().out


def test_malformed_ini_boolean_names_its_entry(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.ini").write_text("[run]\ntrace = ture\n")
    assert run_cli("run", "--config", "cfg.ini") == 2
    assert capsys.readouterr().err == (
        "config error: [run] trace: not 1/true/yes/on or 0/false/no/off: 'ture'\n")


@pytest.mark.parametrize("command", ["run", "sweep", "theory", "graph-gen"])
@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_seed_outside_64_bits_names_the_option(command, seed, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # theory reads a seed from an INI only
    (tmp_path / "cfg.ini").write_text(f"[run]\nseed = {seed}\n")
    given = ["--config", "cfg.ini"] if command == "theory" else ["--seed", seed]
    extra = ["--output", "g.txt"] if command == "graph-gen" else []
    assert run_cli(command, *given, *extra) == 2
    assert capsys.readouterr().err == (
        f"config error: [run] seed: must be in [0, 2**64), got {seed}\n"
    )
    assert not (tmp_path / "g.txt").exists()


@pytest.mark.parametrize("nodes", ["-3", "0"])
def test_node_count_below_one_prints_no_interval(nodes, capsys):
    assert run_cli("theory", "--mu", "1", "--lipschitz", "10", "--nodes", nodes) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"config error: need at least 1 node, got n={nodes}\n"


@pytest.mark.parametrize(
    "text",
    ["n x\n1 0\n0 1\n", "n 1\n", "n 2\n0 a\n1 0\n", "n 2\n1 0\n2 1\n",
     "n 3 junk trailing\n1 0\n2 1\n0 2\n"],
    ids=["header-without-a-count", "one-node", "non-integer-node-id",
         "node-id-out-of-range", "header-with-extra-tokens"],
)
def test_malformed_graph_file_is_config_error(text, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.txt").write_text(text)
    assert run_cli("run", "--graph-file", "g.txt") == 2
    assert capsys.readouterr().err.startswith("config error: g.txt")


@pytest.mark.parametrize("ini, named", UNREAD_INI.values(), ids=list(UNREAD_INI))
def test_unread_ini_entry_is_named(ini, named, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.ini").write_text(ini)
    assert run_cli("run", "--config", "cfg.ini") == 2
    assert capsys.readouterr().err.startswith(f"config error: {named}")


@pytest.mark.parametrize("cmd, flag", LEVEL_FLAGS, ids=[cmd for cmd, _ in LEVEL_FLAGS])
def test_level_outside_the_float_range_is_named(cmd, flag, tmp_path, monkeypatch,
                                                capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli(cmd, flag, "1e400") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"config error: [optimizer] {flag[2:]}: ")


def test_non_integer_cost_key_names_the_section(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.ini").write_text(NON_INTEGER_COST_KEY)
    assert run_cli("run", "--config", "cfg.ini") == 2
    assert "[costs] must name nodes 0..1 once" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["run"], ["sweep", "--deltas", "0.1"]],
                         ids=["run", "sweep"])
def test_initial_estimate_at_the_optimum_is_config_error(argv, tmp_path, monkeypatch,
                                                         capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.ini").write_text(
        TWO_COSTS.format("beta=1.0 center=2.0") + "[optimizer]\nx0 = 2.0,3.0\n")
    assert run_cli(*argv, "--config", "cfg.ini") == 2
    assert capsys.readouterr().err.endswith(
        "config error: node 0: initial estimate equals the optimum, residual undefined\n")


def test_module_runs_as_a_script(tmp_path, monkeypatch):
    out = tmp_path / "g.txt"
    monkeypatch.setattr(sys, "argv", ["quagd", "graph-gen", "--output", str(out)])
    # runpy warns that quagd.cli is run a second time, after its import here
    with pytest.warns(RuntimeWarning, match="quagd.cli"), pytest.raises(SystemExit) as exc:
        runpy.run_module("quagd.cli", run_name="__main__")
    assert exc.value.code == 0
    assert read_edge_list(str(out)).n == 20


class TestEffectiveConfig:
    def test_flag_only_config_is_reference_instance(self):
        args = build_parser().parse_args(["run", "--nodes", "7", "--seed", "5"])
        cfg = EffectiveConfig(args).cfg
        ref = reference_instance(n=7, seed=5)
        assert cfg.graph == ref.graph
        assert [c.center for c in cfg.costs] == [c.center for c in ref.costs]
        assert cfg.x0 == ref.x0

    def test_no_flags_resolve_to_reference_instance(self):
        cfg = EffectiveConfig(build_parser().parse_args(["run"])).cfg
        ref = reference_instance()
        assert cfg.graph == ref.graph
        assert [(c.beta, c.center) for c in cfg.costs] == [
            (c.beta, c.center) for c in ref.costs
        ]
        assert (cfg.x0, cfg.delta, cfg.max_outer, cfg.master_seed) == (
            ref.x0, ref.delta, ref.max_outer, ref.master_seed
        )


class TestSweep:
    def test_overlay_svg_has_one_polyline_per_level(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(
            "sweep", "--nodes", "6", "--deltas", "0.1,0.01,0.001", "--seed", "2",
            "--max-iters", "12", "--output-dir", str(out),
        )
        assert code == 0
        svg = (out / "sweep.svg").read_text()
        assert svg.count("<polyline") == 3
        assert (out / "sweep.csv").exists()
        csvs = list(out.glob("trace_delta_*.csv"))
        assert len(csvs) == 3

    def test_single_level_degenerates(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(
            "sweep", "--nodes", "4", "--deltas", "0.1", "--seed", "2",
            "--max-iters", "6", "--output-dir", str(out),
        ) == 0
        assert (out / "sweep.svg").read_text().count("<polyline") == 1

    def test_duplicate_levels_rejected(self, tmp_path, capsys):
        assert run_cli(
            "sweep", "--deltas", "0.1,0.1", "--output-dir", str(tmp_path)
        ) == 2

    def test_missing_levels_rejected(self, tmp_path, capsys):
        assert run_cli("sweep", "--output-dir", str(tmp_path)) == 2

    @pytest.mark.filterwarnings("ignore:alpha=0.5 outside")
    def test_alpha_at_interval_end_runs_every_level(self, tmp_path, capsys):
        # 0.5 is the closed lower end of (0.5, 1.0): no theory bound applies
        out = tmp_path / "out"
        assert run_cli(
            "sweep", "--nodes", "10", "--deltas", "0.1,0.01", "--alpha", "0.5",
            "--max-iters", "20", "--output-dir", str(out),
        ) == 0
        assert (out / "trace_delta_0p1.csv").exists()
        assert (out / "trace_delta_0p01.csv").exists()
        assert (out / "sweep.svg").read_text().count("<polyline") == 2
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert [row.split(",")[3] for row in rows] == ["", ""]
        assert all(row.split(",")[1] for row in rows)

    @pytest.mark.filterwarnings("ignore:alpha=50.0 outside")
    def test_all_failed_exits_with_the_failure_code(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(
            "sweep", "--nodes", "10", "--deltas", "0.1", "--alpha", "50",
            "--max-iters", "200", "--output-dir", str(out),
        ) == 5
        assert "divergence at outer step 91" in capsys.readouterr().err
        assert (out / "sweep.csv").exists()
        assert (out / "effective_config.ini").exists()


class TestTheory:
    def test_reference_interval_printed(self, capsys):
        code = run_cli(
            "theory", "--mu", "20", "--lipschitz", "20", "--nodes", "20",
            "--alpha", "0.75", "--young-delta", "1",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "(0.5, 1.0)" in out
        assert "theta = 0.51875" in out
        record = json.loads(out.splitlines()[-1])
        assert record["theta"] == 0.51875

    def test_empty_interval_nonzero_exit(self, capsys):
        code = run_cli("theory", "--mu", "1", "--lipschitz", "6", "--nodes", "1")
        assert code != 0
        out = capsys.readouterr().out
        assert "EMPTY" in out

    def test_config_alpha_is_used(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.ini"
        cfgfile.write_text("[graph]\nnodes = 20\n[optimizer]\nalpha = 0.6\n")
        records = []
        for extra in ([], ["--alpha", "0.6"]):
            assert run_cli("theory", "--config", str(cfgfile), *extra) == 0
            records.append(json.loads(capsys.readouterr().out.splitlines()[-1]))
        assert records[0] == records[1]
        assert (records[0]["alpha"], records[0]["theta"]) == (0.6, 0.9)

    @pytest.mark.parametrize("alpha", ["0.55", "0.6", "0.7", "0.9"])
    def test_flag_and_config_paths_agree(self, alpha, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.ini"
        cfgfile.write_text(f"[graph]\nnodes = 20\n[optimizer]\nalpha = {alpha}\n")
        records = []
        for argv in (
            ["--mu", "20", "--lipschitz", "20", "--nodes", "20", "--alpha", alpha],
            ["--config", str(cfgfile)],
        ):
            assert run_cli("theory", *argv, "--delta", "0.01") == 0
            records.append(json.loads(capsys.readouterr().out.splitlines()[-1]))
        assert records[0] == records[1]

    def test_zero_quantization_gives_zero_floor(self, capsys):
        code = run_cli(
            "theory", "--mu", "20", "--lipschitz", "20", "--nodes", "20"
        )
        assert code == 0
        record = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert record["error_floor"] == 0.0

    def test_config_seed_and_edge_prob_do_not_change_the_output(self, tmp_path, capsys):
        # they draw the graph and the centers, and the guarantees read neither
        outputs = []
        for seed, edge_prob in (("0", "0.2"), ("7", "0.0"), ("99", "1.0")):
            cfgfile = tmp_path / f"cfg{seed}.ini"
            cfgfile.write_text(f"[graph]\nnodes = 12\nedge_prob = {edge_prob}\n"
                               f"[run]\nseed = {seed}\n")
            assert run_cli("theory", "--config", str(cfgfile)) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]


class TestGraphGen:
    def test_writes_readable_strongly_connected_graph(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        code = run_cli(
            "graph-gen", "--nodes", "12", "--edge-prob", "0.3", "--seed", "5",
            "--output", str(out),
        )
        assert code == 0
        g = read_edge_list(str(out))
        assert g.n == 12
        assert diameter(g) >= 1  # raises unless strongly connected


class TestFlags:
    """Every table option's flag is text resolved like its INI entry, and a
    subcommand takes only the flags it reads."""

    def test_bad_flag_value_names_its_option(self, tmp_path, capsys):
        assert run_cli("run", "--nodes", "abc", "--output-dir", str(tmp_path)) == 2
        assert "config error: [graph] nodes: " in capsys.readouterr().err

    def test_empty_flag_counts_as_unset(self, tmp_path, capsys):
        # a blank one too: its text is trimmed, as an INI entry's is
        for name, extra in (("a", ["--nodes", ""]), ("b", []), ("c", ["--nodes", "  "])):
            argv = ["run", *extra, "--max-iters", "1", "--output-dir"]
            assert run_cli(*argv, str(tmp_path / name)) == 0
        traces = [(tmp_path / name / "trace.csv").read_bytes() for name in "abc"]
        assert traces[0] == traces[1] == traces[2]

    def test_padded_flags_read_as_their_ini_entries(self, tmp_path, monkeypatch, capsys):
        # configparser trims an entry, so a flag's text is trimmed too, and
        # a run reproduces its own effective_config.ini
        monkeypatch.chdir(tmp_path)
        argv = ["--nodes", "6", "--max-iters", "2", "--delta", " 0.01"]
        assert run_cli("run", *argv, "--output-dir", " out") == 0
        echo = (tmp_path / "out" / "effective_config.ini").read_bytes()
        assert b"delta = 0.01\n" in echo
        assert run_cli("run", "--config", "out/effective_config.ini") == 0
        assert (tmp_path / "out" / "effective_config.ini").read_bytes() == echo

    def test_empty_theory_constant_counts_as_unset(self, capsys):
        assert run_cli("theory", "--nodes", "20") == 0
        plain = capsys.readouterr().out
        empty = ["--mu", "", "--lipschitz", "", "--young-delta", ""]
        assert run_cli("theory", "--nodes", "20", *empty) == 0
        assert capsys.readouterr().out == plain

    def test_bad_theory_constant_names_its_flag(self, capsys):
        argv = ["--mu", "5", "--lipschitz", "5", "--nodes", "3", "--young-delta", "x"]
        assert run_cli("theory", *argv) == 2
        assert "config error: [theory] young_delta: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", ["--max-iters", "--d-bound", "--output-dir", "--seed", "--edge-prob"])
    def test_theory_rejects_flags_it_does_not_read(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("theory", "--nodes", "20", flag, "3")
        assert exc.value.code == 2

    def test_graph_gen_defaults_to_the_reference_size(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        assert run_cli("graph-gen", "--output", str(out)) == 0
        assert read_edge_list(str(out)).n == 20


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line.split() for line in block.splitlines() if line.strip()]
    assert len(commands) == 4 and all(argv[0] == "quagd" for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert run_cli(*argv[1:]) == 0, argv
