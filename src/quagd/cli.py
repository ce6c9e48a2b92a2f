"""Command-line entry point.

Subcommands: run (one optimization run), sweep (several quantization
levels), theory (step-size interval / contraction constants), graph-gen
(random strongly connected digraph to an edge-list file).

Each option is declared once, as an _OPTIONS row naming the subcommands
whose --flag sets it, and no subcommand takes a flag it does not read.
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
    delta_sweep,
    level_name,
    reference_draws,
    reference_graph,
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
    return text.strip().lower() in ("1", "true", "yes", "on")


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _levels(text: str) -> list[QuantizationLevel]:
    return [QuantizationLevel(tok) for tok in text.split(",") if tok.strip()]


# One row per option, in echo order: (INI section, key, parser, default,
# subcommands taking its --flag, help).  The key is the flag's dest.  Each
# value is taken from the flag, else the INI, else the default; text goes
# through the parser, and an empty value counts as unset.
_OPTIONS = [
    ("graph", "graph_file", str, None, "run sweep", "edge-list file"),
    ("graph", "nodes", int, 20, "run sweep theory graph-gen", None),
    ("graph", "edge_prob", float, 0.2, "run sweep theory graph-gen", None),
    ("graph", "d_bound", int, None, "run sweep", None),
    ("optimizer", "alpha", float, None, "run sweep theory", None),
    ("optimizer", "delta", QuantizationLevel, "0.01", "run theory",
     "quantization level (decimal string)"),
    ("optimizer", "deltas", _levels, None, "sweep",
     "comma-separated quantization levels"),
    ("optimizer", "max_iters", int, 60, "run sweep", None),
    ("optimizer", "x0", _floats, None, "", None),
    ("run", "seed", int, 0, "run sweep theory graph-gen", None),
    ("run", "output_dir", str, "out", "run sweep", None),
    ("run", "trace", _flag, False, "run", "write inner-round trace"),
]


def _resolve(args, ini=None, defaults=True) -> dict:
    """Every _OPTIONS value by key: its flag, else its INI entry, else (with
    defaults) its default, else None."""
    resolved = {}
    for section, key, parse, default, _, _ in _OPTIONS:
        entry = ini.get(section, key, fallback=None) if ini is not None else None
        candidates = (getattr(args, key, None), entry, default if defaults else None)
        value = next((v for v in candidates if v not in (None, "")), None)
        if isinstance(value, str):
            try:
                value = parse(value)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from None
        resolved[key] = value
    return resolved


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
        raise ConfigError(f"cost entry for node {node} is empty")
    spec = {"type": parts[0]}
    for item in parts[1:]:
        if "=" not in item:
            raise ConfigError(
                f"cost entry for node {node}: expected key=value, got {item!r}"
            )
        key, value = item.split("=", 1)
        spec[key] = float(value)
    return spec


def _load_ini(path: str) -> configparser.ConfigParser:
    # no interpolation: values are read, and echoed, verbatim
    parser = configparser.ConfigParser(interpolation=None)
    with open(path) as fh:
        try:
            parser.read_file(fh)
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from None
    return parser


class EffectiveConfig:
    """Fully resolved run configuration, reproducible from its own echo."""

    def __init__(self, args):
        ini = _load_ini(args.config) if args.config else configparser.ConfigParser()
        vars(self).update(_resolve(args, ini))

        if self.graph_file:
            self.graph = read_edge_list(self.graph_file)
            self.nodes = self.edge_prob = None  # fixed by the file, not echoed
        else:
            self.graph = reference_graph(self.nodes, self.edge_prob, self.seed)
        diameter(self.graph)  # raises NotStronglyConnectedError with a witness

        # costs and initial estimates: explicit entries win; otherwise the
        # reference instance's seeded draws
        n = self.graph.n
        centers, x0 = reference_draws(n, self.seed)
        if ini.has_section("costs") and ini.options("costs"):
            keys = ini.options("costs")
            if sorted(int(k) if k.isdecimal() else -1 for k in keys) != list(range(n)):
                raise ConfigError(f"[costs] must name nodes 0..{n - 1} once: {keys}")
            specs = {int(k): _parse_cost_line(int(k), ini["costs"][k]) for k in keys}
            self.cost_specs = [specs[j] for j in range(n)]
        else:
            self.cost_specs = [
                {"type": "quadratic", "beta": 1.0, "center": c} for c in centers
            ]
        self.costs = [build_cost(spec) for spec in self.cost_specs]
        if self.x0 is None:
            self.x0 = x0

    def to_opt_config(self) -> OptRunConfig:
        cfg = OptRunConfig(
            graph=self.graph,
            costs=self.costs,
            delta=self.delta,
            x0=self.x0,
            max_outer=self.max_iters,
            master_seed=self.seed,
            alpha=self.alpha,
            d_bound=self.d_bound,
        )
        cfg.validate()
        return cfg

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
    write_line_plot(
        path, labelled, title=title, xlabel="outer iteration k", ylabel="residual"
    )


def cmd_run(args) -> int:
    eff = EffectiveConfig(args)
    cfg = eff.to_opt_config()
    os.makedirs(eff.output_dir, exist_ok=True)
    x_star = quadratic_optimum(cfg.costs)
    trace_path = os.path.join(eff.output_dir, "faqua_trace.txt") if eff.trace else None
    with open(trace_path, "w") if trace_path else contextlib.nullcontext() as fh:
        trace = quagd_run(cfg, x_star=x_star, inner_trace=fh)
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
    cfg = eff.to_opt_config()
    os.makedirs(eff.output_dir, exist_ok=True)
    report = delta_sweep(cfg, eff.deltas or [])
    traces = []
    for entry in report.entries:
        name = level_name(entry.delta)
        if entry.error is not None:
            print(f"delta={name}: FAILED: {entry.error}")
            continue
        slug = name.replace(".", "p").replace("-", "m")
        csv_path = os.path.join(eff.output_dir, f"trace_delta_{slug}.csv")
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
    if args.mu is None and args.lipschitz is None:
        cfg = EffectiveConfig(args).to_opt_config()
        n, mu, big_l, alpha, delta = cfg.graph.n, cfg.mu, cfg.L, cfg.alpha, cfg.delta
    else:
        given = _resolve(args, defaults=False)
        unread = (given["seed"], given["edge_prob"]) != (None, None) or args.config
        if unread or None in (args.mu, args.lipschitz, given["nodes"]):
            raise ConfigError(
                "theory takes --mu, --lipschitz and --nodes together, without "
                "--config, --seed or --edge-prob"
            )
        n, mu, big_l, alpha = given["nodes"], args.mu, args.lipschitz, given["alpha"]
        delta = given["delta"] or 0  # no quantization

    interval = step_size_interval(big_l, mu, n)
    print(f"n = {n}, mu = {float(mu)!r}, L = {float(big_l)!r}")
    print(
        f"step-size interval: ({float(interval.lower)!r}, {float(interval.upper)!r})"
        f" [{'nonempty' if interval.nonempty else 'EMPTY'}]"
    )
    print(
        "sufficient condition L < 3*mu: "
        + ("holds" if interval.sufficient_condition else "does not hold")
    )
    record = {
        "n": n,
        "mu": float(mu),
        "L": float(big_l),
        "alpha_lower": float(interval.lower),
        "alpha_upper": float(interval.upper),
        "interval_nonempty": interval.nonempty,
        "sufficient_condition_L_lt_3mu": interval.sufficient_condition,
    }
    if not interval.nonempty:
        print(json.dumps(record, sort_keys=True))
        print("step-size interval is empty", file=sys.stderr)
        return EXIT_CONFIG
    if alpha is None:
        alpha = interval.default_alpha()
    consts = compute_theta_and_floor(alpha, args.young_delta, big_l, mu, n, delta)
    try:
        record.update(
            {
                "alpha": float(alpha),
                "young_upper": float(consts.young_upper),
                "young_delta": float(consts.delta_young),
                "theta": float(consts.theta),
                "error_floor": float(consts.error_floor),
                "asymptotic_bound": float(consts.asymptotic_bound),
                "delta": float(delta),
            }
        )
    except OverflowError:
        raise ConfigError("a theory constant lies beyond the float range") from None
    print(f"alpha = {record['alpha']!r}")
    print(f"young-parameter interval: (0, {record['young_upper']!r})")
    print(f"young parameter = {record['young_delta']!r}")
    print(f"theta = {record['theta']!r}")
    print(f"error floor = {record['error_floor']!r}")
    print(f"asymptotic bound = {record['asymptotic_bound']!r}")
    print(json.dumps(record, sort_keys=True))
    return EXIT_OK


def cmd_graph_gen(args) -> int:
    opt = _resolve(args)
    g = generate_random_strongly_connected(opt["nodes"], opt["edge_prob"], opt["seed"])
    write_edge_list(g, args.output)
    print(f"wrote {args.output}: n={g.n} edges={len(g.edges)} diameter={diameter(g)}")
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
    for _, key, parse, _, names, text in _OPTIONS:
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
    theory.add_argument("--mu", type=float, help="total strong convexity")
    theory.add_argument("--lipschitz", type=float, help="total smoothness")
    theory.add_argument("--young-delta", type=float, dest="young_delta")
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
