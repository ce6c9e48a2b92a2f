"""In-memory span tracer that wraps quagd's public functions by name.

quagd's modules import each other's functions by name (``from .graph import
diameter``), so patching ``quagd.graph.diameter`` alone would miss most
calls.  ``Tracer.install`` instead rebinds every public function in every
quagd namespace that holds it, and ``Tracer.uninstall`` puts the originals
back.  A call site that no longer exists simply reads 0 calls.

Each span records name, start, end, parent span and op id.  Spans live in
compact arrays and are written out by ``write_spans`` when the run ends; past
``MAX_STORED_SPANS`` only the per-name aggregates (calls, total time, self
time) are kept, so memory stays bounded on round-heavy workloads.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from time import perf_counter

# The package's modules, which are also the per-layer metric prefixes.
LAYERS = (
    "graph",
    "quantizer",
    "rng",
    "consensus",
    "optimizer",
    "trace",
    "harness",
    "cli",
    "svgplot",
)

# Classes traced like functions: constructing one is a unit of work and
# nothing type-checks against the name.  Other classes are left alone
# because quagd uses isinstance() on them.
TRACED_CLASSES = {("cli", "EffectiveConfig")}

# In the CLI only the entry point and the config resolver are traced; the
# subcommand helpers stay unwrapped so that cli.main.self_s is the time the
# CLI layer itself spends, not argparse glue alone.
CLI_TRACED = {"main", "EffectiveConfig"}

MAX_STORED_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        # Open spans: [span_id, start, child_time].
        self._stack: list[list] = []
        self._next_span = 0
        self.op_id = -1
        self.dropped = 0
        self._span_id = array("q")
        self._span_parent = array("q")
        self._span_name = array("i")
        self._span_op = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._patched: list[tuple[object, str, object]] = []
        # Counters fed by the consensus wrapper.
        self.node_rounds = 0
        self.messages = 0
        self.payload_bits = 0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return nid

    def begin(self) -> list:
        frame = [self._next_span, perf_counter(), 0.0]
        self._next_span += 1
        self._stack.append(frame)
        return frame

    def end(self, nid: int, frame: list) -> None:
        t1 = perf_counter()
        stack = self._stack
        stack.pop()
        span_id, t0, child = frame
        d = t1 - t0
        self.calls[nid] += 1
        self.total[nid] += d
        self.self_time[nid] += d - child
        parent = -1
        if stack:
            stack[-1][2] += d
            parent = stack[-1][0]
        if len(self._span_id) < MAX_STORED_SPANS:
            self._span_id.append(span_id)
            self._span_parent.append(parent)
            self._span_name.append(nid)
            self._span_op.append(self.op_id)
            self._span_start.append(t0)
            self._span_end.append(t1)
        else:
            self.dropped += 1

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = begin()
            try:
                return fn(*args, **kwargs)
            finally:
                end(nid, frame)

        return traced

    def _wrap_run_faqua(self, fn):
        """run_faqua gets an identity tamper hook that counts messages and
        payload bits (sign + bit_length|c_y| + bit_length c_z), and its
        result adds rounds * n to the node-round counter."""
        nid = self.name_id("consensus.run_faqua")
        hook_nid = self.name_id("perfbench.count_messages")
        begin, end = self.begin, self.end
        tracer = self

        def count_messages(lam, outbox):
            frame = begin()
            bits = 0
            for msg in outbox:
                bits += 1 + abs(msg.c_y).bit_length() + msg.c_z.bit_length()
            tracer.messages += len(outbox)
            tracer.payload_bits += bits
            end(hook_nid, frame)
            return outbox

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if kwargs.get("tamper") is None:
                kwargs["tamper"] = count_messages
            frame = begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                end(nid, frame)
            tracer.node_rounds += result.rounds_used * result.n
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced callable in every quagd namespace."""
        modules = {layer: importlib.import_module(f"quagd.{layer}") for layer in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or (layer == "cli" and attr not in CLI_TRACED):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) or (layer, attr) in TRACED_CLASSES:
                    if attr == "run_faqua":
                        wrappers[id(obj)] = self._wrap_run_faqua(obj)
                    else:
                        wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        namespaces = [importlib.import_module("quagd"), *modules.values()]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def layer(self, name: str) -> tuple[int, float, float]:
        """(calls, total seconds, self seconds) for a traced name."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.total[nid], self.self_time[nid]

    def write_spans(self, path: str) -> None:
        names = self.names
        with open(path, "w") as fh:
            fh.write(f"# spans stored {len(self._span_id)} dropped {self.dropped}\n")
            fh.write("span\tparent\top\tname\tstart_s\tend_s\n")
            for row in zip(
                self._span_id,
                self._span_parent,
                self._span_op,
                self._span_name,
                self._span_start,
                self._span_end,
            ):
                sid, parent, op, nid, t0, t1 = row
                fh.write(f"{sid}\t{parent}\t{op}\t{names[nid]}\t{t0:.9f}\t{t1:.9f}\n")
