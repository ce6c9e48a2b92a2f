"""The benchmark's traced mode (perfbench/run.py --trace 1), checked in tier-1.

perfbench/tracer.py rebinds the package's public functions by name and
counts messages through an identity tamper hook it adds to every run_faqua
call.  This loads the tracer as the benchmark does (imported, not
modified), traces a short run and a two-level sweep, and checks that the
spans and counters it reports are not blind, and that uninstall puts every
rebinding back.
"""

import importlib
import importlib.util
import io
from pathlib import Path

import quagd
from quagd.harness import reference_instance

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer_module = _load_tracer()


def _namespaces():
    """Every namespace the tracer rebinds in, with its attributes."""
    mods = [quagd, *(importlib.import_module(f"quagd.{layer}")
                     for layer in tracer_module.LAYERS)]
    return {mod.__name__: dict(vars(mod)) for mod in mods}


def test_traced_run_and_sweep_report_spans_and_counters():
    before = _namespaces()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        from quagd import consensus, harness, optimizer  # the rebound namespaces

        assert optimizer.run_faqua is not before["quagd.optimizer"]["run_faqua"]
        inner = io.StringIO()
        trace = optimizer.quagd_run(reference_instance(n=8, seed=0, max_outer=3),
                                    inner_trace=inner)
        report = harness.delta_sweep(reference_instance(n=8, seed=0, max_outer=3),
                                     ["0.1", "0.01"])
    finally:
        tracer.uninstall()
    assert len(trace.steps) == 4 and inner.getvalue().count("RESULT") == 3
    assert all(entry.exception is None for entry in report.entries)
    calls = {name: tracer.layer(name)[0] for name in (
        "consensus.run_faqua", "optimizer.quagd_run", "harness.delta_sweep")}
    # the sweep's two levels run in one kernel call, not through run_faqua
    assert calls == {"consensus.run_faqua": 3, "optimizer.quagd_run": 1,
                     "harness.delta_sweep": 1}
    # seed 0's counts: the identity tamper saw every round's messages
    assert (tracer.messages, tracer.payload_bits, tracer.node_rounds) == (912, 10350, 1504)
    assert consensus.run_faqua is before["quagd.consensus"]["run_faqua"]
    after = _namespaces()
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        assert after[name].keys() == attrs.keys()
        assert all(after[name][attr] is obj for attr, obj in attrs.items()), name
