"""Command-line front end.

One job per invocation; all outputs are CSV files with 17-significant-digit
floats so runs round-trip losslessly. Exit codes: 0 ok, 1 failed check,
2 usage or config error.
"""

import argparse
import csv
import functools
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bsde import solve_bsde
from .chain import _CELLS, draw_paths
from .config import load_config
from .errors import ConfigError, MarkovBsdeError, MissingInputsError
from .hedge import (contraction_report, extract_hedge, price_american,
                    replicate_forward)
from .market import stock_curves
from .montecarlo import verify_checks
from .rbsde import penalization_limit, solve_reflected


def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def _write_csv(path, header, rows):
    """Write the header and rows as ``csv.writer`` writes ``_fmt`` of each
    cell."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(x) for x in row] for row in rows)


def _texts(a):
    """``%.17g`` of each value of ``a``, as an object array of its shape."""
    return np.fromiter(map("%.17g".__mod__, a.ravel().tolist()), dtype=object,
                       count=a.size).reshape(a.shape)


def _write_grid(path, header, grid, *columns, labels=None):
    """Write the rows (time, label, value in each column) of arrays on
    ``grid``, node by node and entry by entry, as ``_write_csv`` writes
    them. ``labels`` holds the text of a node's M entries, by default the
    state numbers of the first column; each column is a (K+1, M) array, or
    (K+1, 1) for one value per node, the same in every entry. The file is
    written in blocks of nodes of at most ``chain._CELLS`` fields: each
    distinct array of a block (an array passed twice once) is formatted
    once, its texts gathered node by node into one object array, and the
    block's lines made by one ``%`` of a per-node template over it."""
    if labels is None:
        labels = [str(i) for i in range(columns[0].shape[1])]
    m, width = len(labels), len(columns) + 1  # an entry's time and column texts
    node = "".join("%s," + label + ",%s" * len(columns) + "\r\n" for label in labels)
    size = max(1, _CELLS // max(1, m * (width + 1)))  # an entry's fields: its label too
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, grid.size, size):
            times = grid[lo:lo + size]
            cells = np.empty((times.size, m, width), dtype=object)
            cells[:, :, 0] = _texts(times)[:, None]
            texts = {}
            for j, c in enumerate(columns, 1):
                if id(c) not in texts:
                    texts[id(c)] = _texts(c[lo:lo + size])
                # a (K+1, 1) column broadcasts over the node's entries
                cells[:, :, j] = texts[id(c)]
            fh.write(node * times.size % tuple(cells.ravel().tolist()))


def path_rows(paths, p):
    """(jump_index, time, state) rows of path p of the batch, including the
    start point at index -1."""
    a, b = paths.offsets[p], paths.offsets[p + 1]
    times = [0.0, *paths.jump_times[a:b].tolist()]
    return zip(range(-1, b - a), times, paths.states[a + p:b + p + 1].tolist())


def report_rows(named_reports):
    """(check_name, lhs, rhs, std_error, pass) rows from a dict of reports."""
    for name, rep in named_reports.items():
        yield (name, float(rep["lhs"]), float(rep["rhs"]),
               float(rep["std_error"]), bool(rep["pass"]))


def _cmd_validate(config, out):
    rep = {"holds": True, "worst_margin": 1.0, "worst_time_state": (0.0, 0)}
    rows = [("config_valid", 1.0, 1.0, 0.0, True)]
    if config.market is not None:
        rep = contraction_report(config.market)
        rows.append(("contraction", rep["worst_margin"], 0.0, 0.0, rep["holds"]))
        for key in ("c1", "c4", "c5", "c6", "m"):
            rows.append((key, rep[key], 0.0, 0.0, True))
    _write_csv(out / "validation_report.csv",
               ("check_name", "lhs", "rhs", "std_error", "pass"), rows)
    return 0 if rep["holds"] else 1


def _cmd_simulate(config, out):
    seed, n_paths = config.solver.seed, min(config.solver.n_paths, 100)
    paths = draw_paths(config.chain, seed, n_paths)
    for p in range(n_paths):
        _write_csv(out / f"path_{p:04d}.csv", ("jump_index", "time", "state"),
                   path_rows(paths, p))
    return 0


def _cmd_solve_bsde(config, out):
    driver = config.build_driver()
    if config.terminal is None:
        raise ConfigError("solve-bsde needs a 'terminal' vector")
    sol = solve_bsde(config.chain, driver, config.terminal, config.solver.steps,
                     scheme=config.solver.scheme,
                     strict_contraction=config.solver.strict_contraction)
    _write_grid(out / "bsde_solution.csv", ("time", "state", "y_value"),
                sol.grid, sol.values)
    return 0


def _cmd_solve_rbsde(config, out):
    driver = config.build_driver()
    payoff = config.build_payoff()
    if payoff is None:
        raise ConfigError("solve-rbsde needs a 'payoff' section as the obstacle")
    terminal = config.terminal
    if terminal is None:
        terminal = payoff.terminal(config.chain.horizon, config.chain.n_states)
    sol = solve_reflected(config.chain, driver, terminal, payoff,
                          config.solver.steps)
    _write_grid(out / "rbsde_solution.csv", ("time", "state", "v", "z", "k"),
                sol.grid, sol.values, sol.values, sol.k.values)
    limit = penalization_limit(config.chain, driver, terminal, payoff,
                               min(config.solver.steps, 400),
                               config.solver.penalization_tol)
    _write_csv(out / "penalization_trace.csv", ("n", "sup_distance"),
               limit.penalization_trace)
    return 0


def _cmd_price_american(config, out):
    payoff = config.build_payoff()
    if payoff is None:
        raise ConfigError("price-american needs a 'payoff' section")
    if config.market is None:
        raise ConfigError("price-american needs a 'market' section")
    sol = price_american(config.market, payoff, config.solver.steps,
                         strict_contraction=config.solver.strict_contraction)
    _write_grid(out / "american_solution.csv", ("time", "state", "v", "z", "k"),
                sol.grid, sol.values, sol.values, sol.k.values)
    _write_grid(out / "payoff_surface.csv", ("time", "state", "g"), sol.grid, sol.g)
    return 0


def _cmd_hedge(config, out):
    if config.payoff is None or config.market is None:
        raise ConfigError("hedge needs 'payoff' and 'market' sections")
    curves = stock_curves(config.market, steps=config.solver.steps)
    payoff = config.build_payoff(curves=curves)
    sol = price_american(config.market, payoff, config.solver.steps,
                         strict_contraction=config.solver.strict_contraction)
    strat = extract_hedge(config.market, curves, sol)
    n, s = config.market.n_stocks, curves.s
    # each stock holding is one number per node, the same in every state
    _write_grid(out / "hedge.csv",
                ("time", "state", "V", "K", *[f"h_{j + 1}" for j in range(n)], "h0"),
                sol.grid, sol.values, sol.k.values, *[strat.h[:, [j]] for j in range(n)],
                strat.h0)
    # node-major rows: each node's prices stock by stock, state by state
    _write_grid(out / "stock_curves.csv", ("time", "stock", "state", "price"),
                curves.grid, s.transpose(1, 0, 2).reshape(s.shape[1], -1),
                labels=[f"{j},{i}" for j in range(n) for i in range(s.shape[2])])
    seed, n_paths = config.solver.seed, min(config.solver.n_paths, 20)
    paths = draw_paths(config.chain, seed, n_paths)
    rep = replicate_forward(strat, sol, paths)
    _write_csv(out / "replication_report.csv",
               ("path", "max_gap", "terminal_gap", "dominates"),
               zip(range(n_paths), rep["max_gap"], rep["terminal_gap"], rep["dominates"]))
    return 0 if np.all(rep["dominates"] & (rep["max_gap"] < 1e-6)) else 1


def _cmd_verify(config, out):
    solver = config.solver
    z = np.zeros(config.chain.n_states)
    z[0] = 1.0
    if solver.n_paths < 2:
        raise ConfigError(f"verify needs at least 2 paths, got {solver.n_paths}")
    claim = config.terminal
    if claim is None:
        claim = np.ones(config.chain.n_states)
    # both checks walk the paths seed .. seed + n_paths - 1 of draw_paths
    # once, each batch cut once per distinct starts tuple
    reports = verify_checks(config.chain, z, solver.n_paths, solver.seed,
                            market=config.market, claim=claim,
                            steps=min(solver.steps, 400))
    _write_csv(out / "verify_report.csv",
               ("check_name", "lhs", "rhs", "std_error", "pass"),
               report_rows(reports))
    return 0 if all(r["pass"] for r in reports.values()) else 1


def emit_plot_data(result_dir):
    """Derive tidy plot-ready CSVs from a previous run's outputs."""
    result_dir = Path(result_dir)
    produced = []
    names = ("american_solution.csv", "rbsde_solution.csv", "bsde_solution.csv")
    value_file = next((result_dir / n for n in names if (result_dir / n).exists()), None)
    if value_file is not None:
        with open(value_file) as fh:
            vrows = list(csv.DictReader(fh))
        val_key = "v" if "v" in vrows[0] else "y_value"
        tidy = [(r["time"], r["state"], r[val_key]) for r in vrows]
        _write_csv(result_dir / "value_vs_time.csv", ("time", "state", "value"), tidy)
        produced.append("value_vs_time.csv")
    payoff_file = result_dir / "payoff_surface.csv"
    if value_file is not None and payoff_file.exists():
        with open(payoff_file) as fh:
            gmap = {(r["time"], r["state"]): float(r["g"]) for r in csv.DictReader(fh)}
        boundary = {}
        for r in vrows:
            key = (r["time"], r["state"])
            if key in gmap and float(r["v"]) <= gmap[key] + 1e-9:
                state = int(r["state"])
                t = float(r["time"])
                boundary[state] = min(boundary.get(state, t), t)
        states = sorted({int(r["state"]) for r in vrows})
        horizon = max(float(r["time"]) for r in vrows)
        rows = [(s, boundary.get(s, horizon)) for s in states]
        _write_csv(result_dir / "exercise_boundary.csv",
                   ("state", "first_exercise_time"), rows)
        produced.append("exercise_boundary.csv")
    trace_file = result_dir / "penalization_trace.csv"
    if trace_file.exists():
        with open(trace_file) as fh:
            rows = [(r["n"], r["sup_distance"]) for r in csv.DictReader(fh)]
        _write_csv(result_dir / "penalization_convergence.csv",
                   ("n", "sup_distance"), rows)
        produced.append("penalization_convergence.csv")
    if not produced:
        raise MissingInputsError(f"no solver outputs found in {result_dir}")
    return produced


# the jobs on a config by subcommand, in command-line order; plot-data has none
_JOBS = {
    "validate": _cmd_validate,
    "simulate": _cmd_simulate,
    "solve-bsde": _cmd_solve_bsde,
    "solve-rbsde": _cmd_solve_rbsde,
    "price-american": _cmd_price_american,
    "hedge": _cmd_hedge,
    "verify": _cmd_verify,
}
SUBCOMMANDS = (*_JOBS, "plot-data")


def run(config_path, subcommand, out_dir=None, seed=None, steps=None,
        paths=None, strict_contraction=False):
    """Load the config, dispatch one job and return the exit code."""
    if subcommand not in SUBCOMMANDS:
        raise ValueError(f"unknown subcommand {subcommand!r}")
    if subcommand == "plot-data":
        emit_plot_data(out_dir or ".")
        return 0
    overrides = {key: value for key, value in
                 (("seed", seed), ("steps", steps), ("n_paths", paths))
                 if value is not None}
    if strict_contraction:
        overrides["strict_contraction"] = True
    config = load_config(config_path, overrides)
    out = Path(out_dir) if out_dir is not None else Path(config.output_dir)
    return _JOBS[subcommand](config, out)


@functools.cache
def _parser():
    """The command line's parser, built once per process: ``parse_args``
    leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="markovbsde",
        description="BSDE/RBSDE solvers and American-option superhedging "
                    "for finite-state Markov-chain markets.")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=False, help="run configuration file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--steps", type=int, default=None)
    parser.add_argument("--paths", type=int, default=None)
    parser.add_argument("--strict-contraction", action="store_true")
    return parser


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    if args.subcommand != "plot-data" and not args.config:
        parser.error("--config is required for this subcommand")
    try:
        return run(args.config, args.subcommand, out_dir=args.out,
                   seed=args.seed, steps=args.steps, paths=args.paths,
                   strict_contraction=args.strict_contraction)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MissingInputsError as exc:
        print(f"missing inputs: {exc}", file=sys.stderr)
        return 1
    except MarkovBsdeError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
