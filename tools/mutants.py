"""Mutation runner: every listed mutant must make its named test fail.

    python tools/mutants.py

MUTANTS holds (file, old text, new text, pytest node id) rows.  Each old
text must occur exactly once in its file.  The runner copies the repository
to a temporary directory, checks that the named tests pass there unmutated,
then applies one mutant at a time and runs only its node id with the
current interpreter, with hypothesis set to report a failing example
without shrinking it (the tests' own settings are left as they are).  A
mutant is killed when that run reports a failing test (pytest's exit code
1).  The exit code is 1 if an old text matches zero times or more than
once, if a named test fails unmutated, or if a mutant survives; else 0.
Only the standard library is used (pytest runs as a subprocess).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPY_IGNORE = shutil.ignore_patterns(
    ".git", ".perfbench_work", "__pycache__", ".pytest_cache", ".hypothesis")

CLI_CASE = "tests/test_cli.py::test_bad_input_is_config_error[{}]"
OBSERVER_BOUND = "tests/test_harness.py::TestAuditInvariants::test_observer_bound_is_exact"
MANUFACTURED = ("tests/test_harness.py::TestAuditInvariants::"
                "test_manufactured_violations_reported")
TRACE_WRITER = "tests/test_consensus.py::TestTraceWriter::{}"
STEPPED_SLACK = ("tests/test_harness.py::TestAuditInvariants::"
                 "test_roundoff_slack_sees_the_stepped_values")
PLAIN_FLOATS = "tests/test_groups.py::test_float_subclasses_are_recorded_as_plain_floats"
SPLIT_TRACE = "tests/test_groups.py::{}"

MUTANTS = [
    # the accuracy contract, the conservation flag and the observer bounds
    ("src/quagd/consensus.py", "self.quantized_sum) <= self.n",
     "self.quantized_sum) <= 2 * self.n",
     "tests/test_consensus.py::TestRunFaqua::"
     "test_accuracy_contract_allows_exactly_n_counts"),
    ("src/quagd/optimizer.py", "a.y_conserved and a.z_conserved for a",
     "a.y_conserved for a",
     "tests/test_optimizer.py::TestQuagdRun::test_a_z_leak_alone_fails_conservation"),
    ("src/quagd/harness.py", "centroid > 2 * delta + slack", "centroid > 3 * delta + slack",
     OBSERVER_BOUND),
    ("src/quagd/harness.py", "dev > 4 * delta + slack", "dev > 5 * delta + slack",
     OBSERVER_BOUND),
    ("src/quagd/harness.py", '("accuracy", not step.accuracy_ok,', '("accuracy", False,',
     MANUFACTURED),
    ("src/quagd/harness.py", '("conservation", not step.conservation_ok,',
     '("conservation", False,', MANUFACTURED),
    # the kernel's round audit and its default round budget
    ("src/quagd/consensus.py", "z_ok.append(sum(zs) == 2 * n)", "z_ok.append(True)",
     "tests/test_kernel_properties.py"),
    ("src/quagd/consensus.py", "max_rounds = 200 * d_bound * n",
     "max_rounds = 100 * d_bound * n", "tests/test_kernel_properties.py"),
    # the seam: every argument check before the encode, then the decode; and the
    # integer kernel's split, on counts alone
    ("src/quagd/consensus.py", "    if observer is not None and len(levels) > 1:",
     "    [_counts(x, g, q) for x, q in zip(x_halves, levels)]\n"
     "    if observer is not None and len(levels) > 1:",
     "tests/test_consensus.py::TestRunFaqua::test_argument_checks_come_before_encoding"),
    ("src/quagd/consensus.py", "[value] * n, sum(counts),", "[value] * n, sum(counts) + 1,",
     "tests/test_kernel_properties.py::test_untraced_traced_and_tamper_paths_agree"),
    ("src/quagd/consensus.py", "dest, half = tj[i], (y + 1) >> 1",
     "dest, half = tj[i], (y + (y > 0)) >> 1",
     "tests/test_consensus.py::TestIntegerKernel::test_contract_and_shift_equivariance"),
    # the trace writer: no draws recorded for it, one digit cache per stream
    ("src/quagd/consensus.py", "draws_read or len(live) > 1",
     "observer is not None or len(live) > 1",
     TRACE_WRITER.format("test_writer_gets_no_split_records")),
    ("src/quagd/consensus.py", "_Rows.streams.setdefault(out, _Digits())",
     'globals().setdefault("_ONE_DIGITS", _Digits())',
     TRACE_WRITER.format("test_digit_cache_lives_as_long_as_its_stream")),
    # the audit's roundoff slack scales with finite values only
    ("src/quagd/harness.py",
     "2 * len(step.estimates) * math.ulp(size) if math.isfinite(size) else 0.0", "1e-15",
     "tests/test_harness.py::TestAuditInvariants::test_roundoff_slack_scales_with_the_values"),
    ("src/quagd/harness.py", " if math.isfinite(size) else 0.0", "",
     "tests/test_harness.py::TestAuditInvariants::test_non_finite_estimate_keeps_the_check"),
    # ... and with the stepped values, which the estimates can be far smaller than
    ("src/quagd/harness.py",
     "max(step.stepped_size, *map(abs, before.estimates + step.estimates))",
     "max(map(abs, before.estimates + step.estimates))", STEPPED_SLACK),
    ("src/quagd/optimizer.py",
     "            stepped_size=float(max(map(abs, x_half))),\n", "", STEPPED_SLACK),
    # flag text is trimmed as INI text is
    ("src/quagd/cli.py", "candidates = (flag.strip(), entry)", "candidates = (flag, entry)",
     "tests/test_cli.py::TestFlags::test_padded_flags_read_as_their_ini_entries"),
    # which options count as set
    ("src/quagd/cli.py", "        else:\n            given.add(key)",
     '        elif getattr(args, key, None) not in (None, ""):\n            given.add(key)',
     CLI_CASE.format("ini-graph-file-with-nodes")),
    ("src/quagd/cli.py", "    return resolved, given",
     "        if value == default:\n            given.discard(key)\n"
     "    return resolved, given",
     CLI_CASE.format("graph-file-with-nodes-flag-at-its-default")),
    ("src/quagd/cli.py", 'if given & {"nodes", "edge_prob"}:', 'if given & {"nodes"}:',
     CLI_CASE.format("ini-graph-file-with-edge-prob-flag")),
    # theory's flag path
    ("src/quagd/cli.py", 'None in (mu, big_l) or "nodes" not in given:',
     "None in (mu, big_l):", CLI_CASE.format("theory-mu-lipschitz-without-nodes")),
    ("src/quagd/cli.py", "if args.config or None in (mu, big_l)", "if None in (mu, big_l)",
     CLI_CASE.format("theory-mu-lipschitz-nodes-with-config")),
    ("src/quagd/cli.py", 'delta = opt["delta"] if "delta" in given else 0',
     'delta = opt["delta"]',
     "tests/test_cli.py::TestTheory::test_zero_quantization_gives_zero_floor"),
    ("src/quagd/cli.py", 'delta = opt["delta"] if "delta" in given else 0', "delta = 0",
     "tests/test_cli.py::TestTheory::test_flag_and_config_paths_agree"),
    # the quantized map that a split predicts each step's input with floors
    # the count sum over n
    ("src/quagd/optimizer.py", "lo = sum(quantize_floor(v, level) for v in x_half) // n",
     "lo = -(-sum(quantize_floor(v, level) for v in x_half) // n)",
     "tests/test_optimizer.py::test_quagd_run_follows_the_quantized_map[0.01]"),
    # a split: process p runs the steps k = p (mod parts), and a child stops a
    # level only at its failure there; only a sweep or a traced run splits; a
    # level takes a child's row only where its input is the predicted one
    ("src/quagd/optimizer.py", "range(part, cfg.max_outer, parts)",
     "range(parts - part, cfg.max_outer, parts)",
     "tests/test_groups.py::test_cli_sweep_writes_the_same_bytes_in_any_split[3]"),
    ("src/quagd/optimizer.py",
     "            lanes = [lane for lane in lanes if rows[lane] is not None]\n", "",
     "tests/test_groups.py::test_traced_child_side_run_in_process[nontermination-2]"),
    ("src/quagd/optimizer.py", "split = len(levels) > 1 or inner_trace is not None",
     "split = True", "tests/test_groups.py::test_an_untraced_run_never_forks[2]"),
    ("src/quagd/optimizer.py",
     "k == 0 or x[0] == float(preds[lane][k - 1][1] * levels[lane].delta)", "True",
     "tests/test_groups.py::test_a_missed_prediction_leaves_one_process_outputs[traced-2]"),
    # a frame is None where it is empty or does not arrive whole
    ("src/quagd/optimizer.py", "return data if size and len(data) == size else None",
     "return data if len(data) == size else None",
     "tests/test_groups.py::test_failed_and_dead_children_are_rerun_here"),
    ("src/quagd/optimizer.py", "return data if size and len(data) == size else None",
     "return data if size else None",
     "tests/test_groups.py::test_recv_gives_none_for_what_does_not_arrive_whole"),
    ("src/quagd/optimizer.py", "    except Exception as exc:  # a custom cost's own failure,",
     "    except DivergenceError:\n        raise\n"
     "    except Exception as exc:  # a custom cost's own failure,",
     "tests/test_groups.py::test_a_gradients_own_divergence_is_its_failure"),
    # a split traced run: the parent copies in the text of each child step it
    # takes, not of one it runs here (it traces that one again), and a child
    # traces each step into a buffer of its own, emptied after each send
    ("src/quagd/optimizer.py", "                stepped[lane] = _stepped(cfg, alpha, x, k)\n",
     "                stepped[lane] = _stepped(cfg, alpha, x, k)\n"
     "                if text is not None:\n                    inner_trace.write(text)\n",
     SPLIT_TRACE.format("test_a_failing_traced_run_leaves_one_process_trace[nontermination-2]")),
    ("src/quagd/optimizer.py", "trace = None if inner_trace is None else io.StringIO()",
     "trace = inner_trace",
     SPLIT_TRACE.format("test_traced_child_side_run_in_process[traces-2]")),
    ("src/quagd/optimizer.py", "                trace.seek(0)\n                trace.truncate()\n",
     "                pass\n",
     SPLIT_TRACE.format("test_traced_run_writes_the_same_trace_in_any_split[2]")),
    # the records hold plain floats, whatever number type a cost returns
    ("src/quagd/optimizer.py", "centroid_err=float(abs(x_hat - _sum(x_half) / n)),",
     "centroid_err=abs(x_hat - _sum(x_half) / n),", PLAIN_FLOATS),
    ("src/quagd/optimizer.py", "stepped_size=float(max(map(abs, x_half))),",
     "stepped_size=max(map(abs, x_half)),", PLAIN_FLOATS),
    # an undefined initial residual is a ConfigError
    ("src/quagd/optimizer.py",
     "    except ValueError as exc:\n        raise ConfigError(str(exc)) from None\n", "",
     "tests/test_harness.py::test_initial_estimate_at_the_optimum_is_config_error"),
]


# pytest run under a hypothesis profile without the shrink phase, loaded at
# configure time, before any test module makes its settings: a mutant needs
# one failing example, and shrinking the kernel tests' 10^300-sized counts
# took 45 s of a 171 s run.
NO_SHRINK_PYTEST = """\
import sys
import pytest

class NoShrink:
    def pytest_configure(self, config):
        try:
            import hypothesis
        except ImportError:
            return
        phases = [p for p in hypothesis.Phase if p is not hypothesis.Phase.shrink]
        hypothesis.settings.register_profile("mutants", phases=phases)
        hypothesis.settings.load_profile("mutants")

sys.exit(pytest.main(sys.argv[1:], plugins=[NoShrink()]))
"""


def pytest_status(tree: Path, node_ids: list[str]) -> int:
    """pytest's exit code for node_ids run in tree (pyproject.toml puts src
    on its path), without shrinking and without bytecode caches: a restored
    file can share a mutant's size and mtime."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-c", NO_SHRINK_PYTEST, "-q", "-x", "-p", "no:cacheprovider"]
    return subprocess.run(argv + node_ids, cwd=tree, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main() -> int:
    counts = [(path, old, (ROOT / path).read_text().count(old))
              for path, old, _, _ in MUTANTS]
    ambiguous = [(path, old, count) for path, old, count in counts if count != 1]
    for path, old, count in ambiguous:
        print(f"mutants: {path}: old text matches {count} times: {old!r}")
    if ambiguous:
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=COPY_IGNORE)
        node_ids = list(dict.fromkeys(node_id for *_, node_id in MUTANTS))
        if pytest_status(tree, node_ids) != 0:
            print("mutants: the named tests do not all pass on the unmutated tree")
            return 1
        survivors = 0
        for path, old, new, node_id in MUTANTS:
            target = tree / path
            original = target.read_text()
            target.write_text(original.replace(old, new))
            killed = pytest_status(tree, [node_id]) == 1
            target.write_text(original)
            survivors += not killed
            print(f"{'killed' if killed else 'SURVIVED'}: {path}: {old.strip()!r} -> "
                  f"{new.strip()!r} ({node_id})")
    print(f"mutants: {len(MUTANTS) - survivors} of {len(MUTANTS)} killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
