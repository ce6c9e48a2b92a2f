"""The benchmark's pinned seed-0 outputs, checked in tier-1.

perfbench/digests.json pins the sha256 digests of every seed-0 benchmark
op's outputs.  This runs a subset of those ops through perfbench's own
workload definitions (imported, not modified) and compares their digests,
so an output drift fails the tests and not only the benchmark run.
"""

import functools
import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
PINNED = json.loads((PERFBENCH / "digests.json").read_text())


@functools.lru_cache(maxsize=None)
def _seed0_ops(workload: str) -> dict:
    jobs = workloads.WORKLOADS[workload].setup(0)
    return {op.label: op for job in jobs for op in job}


@pytest.mark.parametrize(
    "workload, label",
    [
        *(("ring_consensus", f"call{i}") for i in range(4)),
        ("large_graph", "g0"),
        ("ref_cli", "i0.theory"),
        ("ref_cli", "i0.sweep"),
        ("ref_cli", "i0.run"),
    ],
)
def test_seed0_op_matches_pinned_digests(workload, label, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # ops write under a relative work directory
    op = _seed0_ops(workload)[label]
    op.prepare()
    outcome = op.verify(op.run(), True)
    assert outcome.error is None
    assert outcome.digests == PINNED[workload][label]
