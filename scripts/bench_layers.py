"""Time each pricing and path layer at fixed sizes, and each CLI job end
to end, and write the record as JSON.

For each bundled market config with a put payoff, times (best of 3):

- at each grid size K = 1e3 and 1e4: ``stock_curves``, ``solve_bsde``
  under both schemes, ``solve_reflected``, ``penalization_limit``,
  ``price_american``, ``extract_hedge`` and ``replicate_forward`` on 100
  paths, all with the config's pricing driver and payoff;
- at each path count P = 1e4 and 1e5, on the paths 0 .. P - 1:
  ``simulate_paths`` (the per-seed stream) and ``draw_paths`` (the
  uniformized stream of the Monte Carlo checks); on the batch
  ``draw_paths`` drew, ``sdf_path`` on a grid of 201 nodes, over the batch
  cut into batches of 1e4 paths (one table of 1e5 paths by 201 nodes
  would take 160 MB); ``terminal_sdf`` and ``stochastic_integral``
  (z = e_0) on the whole batch; ``isometry_check`` (z = e_0) on the drawn
  batch; and ``discounted_value_check`` of the put priced at K = 200,
  which draws its own paths;
- end to end, on every bundled config at ``--steps 250`` and the
  config's own seed and path count: each CLI subcommand through
  ``cli.main``, writing to a temporary directory, and ``plot-data`` on
  the output of ``solve-bsde``. A job that exits non-zero (a config
  without the sections it needs) is left out;
- the Tier-1 test suite's wall time, one run of ``python -m pytest -q``
  from the repository root in a child process.

Each time is given in seconds and in units of
``benchmark/run.py``'s ``reference_kernel`` (the median of its runs before
and after the layers), which cancels part of the CPU's changes of speed.
The record also holds the machine, the versions and the git revision.

    python scripts/bench_layers.py --out BENCH.json [--compare OLD.json]

With ``--compare`` it prints, per layer, the ratio of the new time to the
one in OLD.json, in seconds and in kernel units, and keeps OLD.json's
record in the new one as its ``baseline``. The package is imported from
``src/`` next to this script.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmark"))

import numpy as np  # noqa: E402
import yaml  # noqa: E402

from markovbsde import (PathBatch, cli, discounted_value_check, draw_paths,  # noqa: E402
                        extract_hedge, isometry_check, penalization_limit, price_american,
                        replicate_forward, simulate_paths, solve_bsde,
                        solve_reflected, stock_curves)
from markovbsde.config import load_config  # noqa: E402
from markovbsde.hedge import make_hedge_driver  # noqa: E402
from markovbsde.market import sdf_path, terminal_sdf  # noqa: E402
from markovbsde.montecarlo import stochastic_integral  # noqa: E402
from run import reference_kernel  # noqa: E402

CONFIGS = ("market_put", "market_pieces")
SIZES = (1000, 10000)
PATHS = 100
MC_PATHS = (10_000, 100_000)
MC_STEPS = 200
SDF_BATCH = 10_000
CLI_STEPS = 250
REPEATS = 3


def layers(cfg, steps):
    """(name, call) of each layer on the config at ``steps`` grid steps;
    the inputs of each call are made before it is timed."""
    market, chain = cfg.market, cfg.chain
    driver = make_hedge_driver(market)
    curves = stock_curves(market, steps=steps)
    payoff = cfg.build_payoff(curves=curves)
    terminal = payoff.terminal(chain.horizon, chain.n_states)
    priced = price_american(market, payoff, steps)
    strategy = extract_hedge(market, curves, priced)
    paths = simulate_paths(chain, range(PATHS))
    return [
        ("stock_curves", lambda: stock_curves(market, steps=steps)),
        ("solve_bsde explicit_rk4",
         lambda: solve_bsde(chain, driver, cfg.terminal, steps)),
        ("solve_bsde implicit_euler",
         lambda: solve_bsde(chain, driver, cfg.terminal, steps, scheme="implicit_euler")),
        ("solve_reflected", lambda: solve_reflected(chain, driver, terminal, payoff, steps)),
        ("penalization_limit",
         lambda: penalization_limit(chain, driver, terminal, payoff, steps,
                                    cfg.solver.penalization_tol)),
        ("price_american", lambda: price_american(market, payoff, steps)),
        ("extract_hedge", lambda: extract_hedge(market, curves, priced)),
        (f"replicate_forward {PATHS} paths",
         lambda: replicate_forward(strategy, priced, paths)),
    ]


def batches(paths, size):
    """The batch cut into consecutive batches of ``size`` paths."""
    for lo in range(0, paths.n_paths, size):
        hi = min(lo + size, paths.n_paths)
        a, b = paths.offsets[lo], paths.offsets[hi]
        yield PathBatch(paths.offsets[lo:hi + 1] - a, paths.jump_times[a:b],
                        paths.states[a + lo:b + hi], paths.horizon, paths.seeds[lo:hi])


def path_layers(cfg, n_paths):
    """(name, call) of each path layer on the config at ``n_paths`` paths;
    the inputs of each call are made before it is timed."""
    market, chain = cfg.market, cfg.chain
    curves = stock_curves(market, steps=MC_STEPS)
    payoff = cfg.build_payoff(curves=curves)
    priced = price_american(market, payoff, MC_STEPS)
    grid = np.linspace(0.0, chain.horizon, MC_STEPS + 1)
    z = np.eye(chain.n_states)[0]
    paths = draw_paths(chain, 0, n_paths)
    return [
        ("simulate_paths", lambda: simulate_paths(chain, range(n_paths))),
        ("draw_paths", lambda: draw_paths(chain, 0, n_paths)),
        (f"sdf_path {grid.size} nodes",
         lambda: [sdf_path(market, batch, grid) for batch in batches(paths, SDF_BATCH)]),
        ("terminal_sdf", lambda: terminal_sdf(market, paths)),
        ("stochastic_integral", lambda: stochastic_integral(chain, z, paths)),
        ("isometry_check", lambda: isometry_check(chain, z, n_paths, paths=paths)),
        (f"discounted_value_check K={MC_STEPS}",
         lambda: discounted_value_check(market, payoff, priced, n_paths)),
    ]


def cli_jobs(config, out):
    """(name, argv) of each CLI job on the config file ``config``, writing
    under ``out``: every subcommand, then plot-data on solve-bsde's output."""
    jobs = []
    for job in cli.SUBCOMMANDS:
        if job == "plot-data":
            jobs.append((f"cli {job}", [job, "--out", str(out / "solve-bsde")]))
        else:
            jobs.append((f"cli {job}", [job, "--config", str(config), "--out",
                                        str(out / job), "--steps", str(CLI_STEPS)]))
    return jobs


def run_cli(argv):
    """cli.main(argv) with its messages to standard error dropped."""
    with contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def best_time(call):
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        call()
        times.append(perf_counter() - t0)
    return min(times)


def kernel_time(runs=30):
    times = []
    for _ in range(runs):
        t0 = perf_counter()
        reference_kernel(np)
        times.append(perf_counter() - t0)
    return times


def tier1_time():
    """Wall time of one run of the Tier-1 tests, or None if they fail."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    elapsed = perf_counter() - t0
    print(done.stdout.strip().splitlines()[-1], file=sys.stderr)
    return elapsed if done.returncode == 0 else None


def revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                             capture_output=True, text=True)
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                               check=True, capture_output=True, text=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip() + ("+modified" if dirty.stdout.strip() else "")


def measure():
    warnings.simplefilter("ignore", RuntimeWarning)
    kernel = kernel_time()
    times = {}
    for name in CONFIGS:
        cfg = load_config(ROOT / "configs" / f"{name}.yaml")
        sizes = [(f"K={steps}", layers, steps) for steps in SIZES]
        sizes += [(f"P={n}", path_layers, n) for n in MC_PATHS]
        for size, build, arg in sizes:
            for layer, call in build(cfg, arg):
                key = f"{name} {size} {layer}"
                times[key] = best_time(call)
                print(f"{times[key]:10.6f} s  {key}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        for config in sorted((ROOT / "configs").glob("*.yaml")):
            for job, argv in cli_jobs(config, Path(tmp) / config.stem):
                key = f"{config.stem} K={CLI_STEPS} {job}"
                code = run_cli(argv)
                if code != 0:
                    print(f"  skipped, exit {code}  {key}", file=sys.stderr)
                    continue
                times[key] = best_time(lambda: run_cli(argv))
                print(f"{times[key]:10.6f} s  {key}", file=sys.stderr)
    tier1 = tier1_time()
    if tier1 is not None:
        times["tier-1 tests"] = tier1
        print(f"{tier1:10.6f} s  tier-1 tests", file=sys.stderr)
    kernel += kernel_time()
    unit = statistics.median(kernel)
    return {
        "machine": {"platform": platform.platform(), "processor": platform.processor(),
                    "cpus": os.cpu_count()},
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "pyyaml": yaml.__version__},
        "revision": revision(),
        "repeats": REPEATS,
        "kernel_s": unit,
        "layers": {key: {"s": t, "ref": t / unit} for key, t in times.items()},
    }


def compare(new, old):
    print(f"{'layer':50s} {'new/old s':>10s} {'new/old ref':>12s}")
    for key, rec in new["layers"].items():
        if key in old["layers"]:
            base = old["layers"][key]
            print(f"{key:50s} {rec['s'] / base['s']:10.3f} {rec['ref'] / base['ref']:12.3f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH.json", help="record to write")
    parser.add_argument("--compare", default=None, help="earlier record to compare with")
    args = parser.parse_args(argv)
    record = measure()
    if args.compare:
        old = json.loads(Path(args.compare).read_text())
        old.pop("baseline", None)
        compare(record, old)
        record["baseline"] = old
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
