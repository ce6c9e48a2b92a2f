"""Command-line entry point.

Subcommands: run (one optimization run), sweep (several quantization
levels), theory (step-size interval / contraction constants), graph-gen
(random strongly connected digraph to an edge-list file).

Each option is declared once, as an _OPTIONS row naming the subcommands
whose --flag sets it (theory's flag-only constants as _CONSTANTS rows),
and no subcommand takes a flag it does not read.
Every option is resolved from its flag, else its INI entry, else its
default, an empty value counting as unset; effective_config.ini lists
every option.  The library checks the resolved values, including a
sweep's levels (named by harness.level_name) and the theory inputs.

Exit codes: 0 success, 2 configuration error (including an unreadable or
unwritable path), 3 assumption violation (e.g. graph not strongly
connected), 4 consensus nontermination, 5 divergence (a stepped value or
the residual stopped being finite); a sweep whose every level failed exits
with its first level's code.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import json
import os
import sys

from .consensus import ConsensusNonterminationError
from .graph import (
    NotStronglyConnectedError,
    diameter,
    generate_random_strongly_connected,
    read_edge_list,
    write_edge_list,
)
from .harness import (
    REFERENCE_DELTA,
    REFERENCE_EDGE_PROB,
    REFERENCE_NODES,
    REFERENCE_OUTER,
    delta_sweep,
    level_name,
    level_slug,
    reference_graph,
    reference_problem,
    write_sweep_csv,
    write_trace_csv,
)
from .optimizer import (
    ConfigError,
    DivergenceError,
    OptRunConfig,
    build_cost,
    quadratic_optimum,
    quagd_run,
    step_size_interval,
    compute_theta_and_floor,
)
from .quantizer import QuantizationLevel
from .svgplot import write_line_plot

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ASSUMPTION = 3
EXIT_NONTERMINATION = 4
EXIT_DIVERGENCE = 5


def _flag(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ValueError(f"not 1/true/yes/on or 0/false/no/off: {text!r}") from None


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _levels(text: str) -> list[QuantizationLevel]:
    return [QuantizationLevel(tok) for tok in text.split(",") if tok.strip()]


def _seed(text: str) -> int:
    seed = int(text)
    if not 0 <= seed < 2**64:
        raise ValueError(f"must be in [0, 2**64), got {seed}")
    return seed


# One row per option, in echo order: (INI section, key, parser, default,
# subcommands taking its --flag, help).  The key is the flag's dest.  Each
# value is taken from the flag, else the INI, else the default (the
# reference instance's, where it has one); text goes through the parser,
# and an empty value counts as unset.
_OPTIONS = [
    ("graph", "graph_file", str, None, "run sweep", "edge-list file"),
    ("graph", "nodes", int, REFERENCE_NODES, "run sweep theory graph-gen", None),
    ("graph", "edge_prob", float, REFERENCE_EDGE_PROB, "run sweep theory graph-gen", None),
    ("graph", "d_bound", int, None, "run sweep", None),
    ("optimizer", "alpha", float, None, "run sweep theory", None),
    ("optimizer", "delta", QuantizationLevel, REFERENCE_DELTA, "run theory",
     "quantization level (decimal string)"),
    ("optimizer", "deltas", _levels, None, "sweep",
     "comma-separated quantization levels"),
    ("optimizer", "max_iters", int, REFERENCE_OUTER, "run sweep", None),
    ("optimizer", "x0", _floats, None, "", None),
    ("run", "seed", _seed, 0, "run sweep theory graph-gen", None),
    ("run", "output_dir", str, "out", "run sweep", None),
    ("run", "trace", _flag, False, "run", "write inner-round trace"),
]


# theory's own constants, flags only and parsed like the options above
_CONSTANTS = [
    ("theory", "mu", float, None, "theory", "total strong convexity"),
    ("theory", "lipschitz", float, None, "theory", "total smoothness"),
    ("theory", "young_delta", float, None, "theory", None),
]


def _resolve(args, ini=None, rows=_OPTIONS) -> tuple[dict, set]:
    """Every rows value by key (its flag, else its INI entry, else its
    default), and the set of keys that a flag or INI entry set."""
    resolved, given = {}, set()
    for section, key, parse, default, _, _ in rows:
        entry = ini.get(section, key, fallback=None) if ini is not None else None
        candidates = (getattr(args, key, None), entry)
        value = next((v for v in candidates if v not in (None, "")), None)
        if value is None:
            value = default
        else:
            given.add(key)
        if isinstance(value, str):
            try:
                value = parse(value)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from None
        resolved[key] = value
    return resolved, given


def _echo(value) -> str:
    if isinstance(value, list):
        return ",".join(_echo(v) for v in value)
    if isinstance(value, bool):
        return str(value).lower()
    return repr(value) if isinstance(value, float) else str(value)


def _parse_cost_line(node: int, text: str):
    """Parse a `[costs]` entry like `quadratic beta=1.0 center=3.2`."""
    parts = text.split()
    if not parts:
        raise ConfigError(f"[costs] {node}: the entry is empty")
    spec = {"type": parts[0]}
    for item in parts[1:]:
        key, eq, value = item.partition("=")
        if not eq or key in spec:
            raise ConfigError(
                f"[costs] {node}: expected distinct key=value items, got {item!r}"
            )
        try:
            spec[key] = float(value)
        except ValueError as exc:
            raise ConfigError(f"[costs] {node}: {key}: {exc}") from None
    return spec


def _load_ini(path: str) -> configparser.ConfigParser:
    # no interpolation: values are read, and echoed, verbatim; no default
    # section, so [DEFAULT] is an unknown section like any other
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    with open(path) as fh:
        try:
            parser.read_file(fh)
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from None
    known = {(section, key) for section, key, *_ in _OPTIONS}
    for section in parser.sections():
        if section == "costs":  # its keys are nodes, checked with the costs
            continue
        if not any(s == section for s, _ in known):
            raise ConfigError(f"[{section}]: unknown section")
        for key in parser.options(section):
            if (section, key) not in known:
                raise ConfigError(f"[{section}] {key}: unknown key")
    return parser


class EffectiveConfig:
    """Fully resolved run configuration, reproducible from its own echo; .cfg
    is the validated OptRunConfig it describes."""

    def __init__(self, args):
        ini = _load_ini(args.config) if args.config else configparser.ConfigParser()
        resolved, given = _resolve(args, ini)
        vars(self).update(resolved)

        if self.graph_file:
            if given & {"nodes", "edge_prob"}:
                raise ConfigError(
                    "[graph] graph_file fixes the graph; nodes and edge_prob must be unset"
                )
            self.graph = read_edge_list(self.graph_file)
            self.nodes = self.edge_prob = None  # fixed by the file, not echoed
        else:
            self.graph = reference_graph(self.nodes, self.edge_prob, self.seed)
        diameter(self.graph)  # raises NotStronglyConnectedError with a witness

        # costs and initial estimates: explicit entries win; otherwise the
        # reference instance's seeded draws
        n = self.graph.n
        self.cost_specs, x0 = reference_problem(n, self.seed)
        if ini.has_section("costs") and ini.options("costs"):
            keys = ini.options("costs")
            if sorted(int(k) if k.isdecimal() else -1 for k in keys) != list(range(n)):
                raise ConfigError(f"[costs] must name nodes 0..{n - 1} once: {keys}")
            specs = {int(k): _parse_cost_line(int(k), ini["costs"][k]) for k in keys}
            self.cost_specs = [specs[j] for j in range(n)]
        self.costs = [build_cost(spec) for spec in self.cost_specs]
        if self.x0 is None:
            self.x0 = x0
        self.cfg = OptRunConfig(
            graph=self.graph,
            costs=self.costs,
            delta=self.delta,
            x0=self.x0,
            max_outer=self.max_iters,
            master_seed=self.seed,
            alpha=self.alpha,
            d_bound=self.d_bound,
        )
        self.cfg.validate()

    def echo_text(self) -> str:
        """Resolved configuration as an ini document; rerunning from this
        reproduces byte-identical outputs."""
        costs = [  # "type" is each spec's first key
            f"{j} = "
            + " ".join(v if k == "type" else f"{k}={v!r}" for k, v in spec.items())
            for j, spec in enumerate(self.cost_specs)
        ]
        sections = {"graph": [], "optimizer": [], "costs": costs, "run": []}
        for section, key, *_ in _OPTIONS:
            value = getattr(self, key)
            if value is not None:
                sections[section].append(f"{key} = {_echo(value)}")
        return "\n\n".join(
            "\n".join([f"[{name}]", *lines]) for name, lines in sections.items()
        ) + "\n"

    def write_echo(self) -> str:
        path = os.path.join(self.output_dir, "effective_config.ini")
        with open(path, "w") as fh:
            fh.write(self.echo_text())
        return path


def _plot_residuals(path: str, traces, title: str) -> None:
    """One residual curve per RunTrace, labelled with its level, on shared axes."""
    labelled = [(f"delta={level_name(t.delta)}", t.residuals) for t in traces]
    write_line_plot(path, labelled, title)


def cmd_run(args) -> int:
    eff = EffectiveConfig(args)
    os.makedirs(eff.output_dir, exist_ok=True)
    x_star = quadratic_optimum(eff.cfg.costs)
    trace_path = os.path.join(eff.output_dir, "faqua_trace.txt") if eff.trace else None
    with open(trace_path, "w") if trace_path else contextlib.nullcontext() as fh:
        trace = quagd_run(eff.cfg, x_star=x_star, inner_trace=fh)
    csv_path = os.path.join(eff.output_dir, "trace.csv")
    write_trace_csv(trace, csv_path)
    svg_path = None
    if x_star is not None:
        svg_path = os.path.join(eff.output_dir, "residual.svg")
        _plot_residuals(svg_path, [trace], "residual vs outer iteration")
    echo_path = eff.write_echo()
    print(eff.echo_text(), end="")
    for path in (csv_path, svg_path, trace_path, echo_path):
        if path:
            print(f"wrote {path}")
    final = trace.steps[-1]
    print(f"final estimates: {final.estimates}")
    if final.residual is not None:
        print(f"final residual: {final.residual!r}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    eff = EffectiveConfig(args)
    os.makedirs(eff.output_dir, exist_ok=True)
    report = delta_sweep(eff.cfg, eff.deltas or [])
    traces = []
    for entry in report.entries:
        name = level_name(entry.delta)
        if entry.error is not None:
            print(f"delta={name}: FAILED: {entry.error}")
            continue
        csv_path = os.path.join(eff.output_dir, f"trace_delta_{level_slug(name)}.csv")
        write_trace_csv(entry.trace, csv_path)
        print(f"wrote {csv_path}")
        traces.append(entry.trace)
    sweep_csv = os.path.join(eff.output_dir, "sweep.csv")
    write_sweep_csv(report, sweep_csv)
    print(f"wrote {sweep_csv}")
    if traces:
        svg_path = os.path.join(eff.output_dir, "sweep.svg")
        _plot_residuals(
            svg_path, traces, "residual vs outer iteration per quantization level"
        )
        print(f"wrote {svg_path}")
    echo_path = eff.write_echo()
    print(f"wrote {echo_path}")
    if report.all_failed:
        print("all quantization levels failed", file=sys.stderr)
        raise report.entries[0].exception
    return EXIT_OK


def cmd_theory(args) -> int:
    # the same floats a run uses; the theory takes their exact values
    mu, big_l, young = _resolve(args, rows=_CONSTANTS)[0].values()
    if mu is None and big_l is None:
        cfg = EffectiveConfig(args).cfg
        n, mu, big_l, alpha, delta = cfg.graph.n, cfg.mu, cfg.L, cfg.alpha, cfg.delta
    else:
        opt, given = _resolve(args)
        unread = args.config or given & {"seed", "edge_prob"}
        if unread or None in (mu, big_l) or "nodes" not in given:
            raise ConfigError(
                "theory takes --mu, --lipschitz and --nodes together, without "
                "--config, --seed or --edge-prob"
            )
        n, alpha = opt["nodes"], opt["alpha"]
        delta = opt["delta"] if "delta" in given else 0  # else no quantization

    interval = step_size_interval(big_l, mu, n)
    record = {
        "n": n,
        "mu": float(mu),
        "L": float(big_l),
        "alpha_lower": float(interval.lower),
        "alpha_upper": float(interval.upper),
        "interval_nonempty": interval.nonempty,
        "sufficient_condition_L_lt_3mu": interval.sufficient_condition,
    }
    print(f"n = {n}, mu = {record['mu']!r}, L = {record['L']!r}")
    print(
        f"step-size interval: ({record['alpha_lower']!r}, {record['alpha_upper']!r})"
        f" [{'nonempty' if interval.nonempty else 'EMPTY'}]"
    )
    print(
        "sufficient condition L < 3*mu: "
        + ("holds" if interval.sufficient_condition else "does not hold")
    )
    if not interval.nonempty:
        print(json.dumps(record, sort_keys=True))
        print("step-size interval is empty", file=sys.stderr)
        return EXIT_CONFIG
    if alpha is None:
        alpha = interval.default_alpha()
    consts = compute_theta_and_floor(alpha, young, big_l, mu, n, delta)
    rows = [  # (JSON key, exact value, its printed line or None)
        ("alpha", alpha, "alpha = {!r}"),
        ("young_upper", consts.young_upper, "young-parameter interval: (0, {!r})"),
        ("young_delta", consts.delta_young, "young parameter = {!r}"),
        ("theta", consts.theta, "theta = {!r}"),
        ("error_floor", consts.error_floor, "error floor = {!r}"),
        ("asymptotic_bound", consts.asymptotic_bound, "asymptotic bound = {!r}"),
        ("delta", delta, None),
    ]
    try:
        record.update((key, float(value)) for key, value, _ in rows)
    except OverflowError:
        raise ConfigError("a theory constant lies beyond the float range") from None
    print("\n".join(line.format(record[key]) for key, _, line in rows if line))
    print(json.dumps(record, sort_keys=True))
    return EXIT_OK


def cmd_graph_gen(args) -> int:
    opt = _resolve(args)[0]
    g = generate_random_strongly_connected(opt["nodes"], opt["edge_prob"], opt["seed"])
    edges = write_edge_list(g, args.output)
    print(f"wrote {args.output}: n={g.n} edges={edges} diameter={diameter(g)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quagd",
        description="Distributed gradient descent with finite-time quantized "
        "average consensus on directed graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, func, text in (
        ("run", cmd_run, "one optimization run"),
        ("sweep", cmd_sweep, "run several quantization levels"),
        ("theory", cmd_theory, "step-size interval and constants"),
        ("graph-gen", cmd_graph_gen, "generate a random digraph file"),
    ):
        commands[name] = sub.add_parser(name, help=text)
        commands[name].set_defaults(func=func)
        if name != "graph-gen":
            commands[name].add_argument("--config", help="ini config file")
    for _, key, parse, _, names, text in _OPTIONS + _CONSTANTS:
        # a bare --trace; every other flag takes its value as text
        bare = {"action": "store_const", "const": "true"} if parse is _flag else {}
        for name in names.split():
            flag = "--" + key.replace("_", "-")
            commands[name].add_argument(flag, dest=key, help=text, **bare)
    theory = commands["theory"]
    theory.description = (
        "--delta is the quantization level; default 0 (no quantization, error "
        "floor 0) with --mu/--lipschitz, else the config's level (0.01 if unset)"
    )
    commands["graph-gen"].add_argument("--output", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NotStronglyConnectedError as exc:
        print(f"assumption violation: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except ConsensusNonterminationError as exc:
        step = getattr(exc, "outer_step", None)
        where = f" at outer step {step}" if step is not None else ""
        print(f"consensus nontermination{where}: {exc}", file=sys.stderr)
        return EXIT_NONTERMINATION
    except DivergenceError as exc:
        print(exc, file=sys.stderr)
        return EXIT_DIVERGENCE
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
