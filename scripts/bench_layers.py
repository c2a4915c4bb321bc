"""Time each pricing and path layer at fixed sizes, and each CLI job end
to end, and write the record as JSON.

For each bundled market config with a put payoff, times (best of 3):

- at each grid size K = 1e3 and 1e4: ``stock_curves``, ``solve_bsde``
  under both schemes, ``solve_reflected``, ``penalization_limit``,
  ``price_american``, ``extract_hedge`` and ``replicate_forward`` on 100
  paths, all with the config's pricing driver and payoff;
- on ``market_pieces`` at K = 1e3, the step-by-step walk of a driver
  without an affine form: ``solve_bsde`` under both schemes,
  ``solve_reflected`` and ``penalization_limit``, all with the callback
  driver ``discount_driver(0.05)`` and the config's put as obstacle;
- at each path count P = 1e4 and 1e5, on the paths 0 .. P - 1:
  ``draw_paths``; on the batch it drew, ``PathBatch.stretches`` on the
  market's pieces, alone and cut at a grid of 201 nodes too, on the
  whole batch; ``sdf_path`` and ``martingale_path`` on that grid, over
  the batch cut into batches of 1e4 paths (one table of 1e5 paths by 201
  nodes would take 160 MB); ``terminal_sdf`` and ``stochastic_integral``
  (z = e_0) on the whole batch; ``isometry_check`` (z = e_0) on the drawn
  batch; and ``discounted_value_check`` of the put priced at K = 200,
  which draws its own paths. Beside each of these rows, the tracemalloc
  peak of one more call, in MB (``peak_mb``): a record, not a gate;
- ``PathBatch.stretches`` on the market's pieces of the first batch that
  ``discounted_value_check`` of that put cuts of the paths 0 .. 999, the
  benchmark's path count, as the best of 3 runs of 1000 cuts, per cut;
- ``draw_paths`` of 1e4 paths on a two-state chain with both rates 1e3 on
  [0, 1], about 1000 jumps a path;
- end to end, on every bundled config at ``--steps 250`` and the
  config's own seed and path count: each CLI subcommand through
  ``cli.main``, writing to a temporary directory, and ``plot-data`` on
  the output of ``solve-bsde``. A job that exits non-zero (a config
  without the sections it needs) is left out;
- the CLI's own input and output: ``load_config`` of every bundled
  config (the mean of ``LOAD_CALLS`` loads; the load does no work that
  depends on the steps), and on each market config above at K = 250 and
  1e4 the time the ``hedge`` and ``price-american`` jobs spend in
  ``cli._write_grid`` writing their grid files;
- the Tier-1 test suite's wall time, one run of ``python -m pytest -q``
  from the repository root in a child process.

Each time is given in seconds and in units of
``benchmark/run.py``'s ``reference_kernel``: the row's time over the mean
of the kernel's times just before and just after that row (each the best
of 3 runs, as the row is), as ``benchmark/run.py`` reads each operation,
which cancels part of the CPU's changes of speed where the row ran. The
record also holds the machine, the versions and the git revision.

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
import tracemalloc
import warnings
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmark"))

import numpy as np  # noqa: E402
import yaml  # noqa: E402

from markovbsde import (PathBatch, build_chain_spec, cli, hedge,  # noqa: E402
                        discount_driver, discounted_value_check, draw_paths, extract_hedge,
                        isometry_check, martingale_path, penalization_limit,
                        price_american, replicate_forward, solve_bsde, solve_reflected,
                        stock_curves)
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
FAST_RATE = 1e3
SDF_BATCH = 10_000
CHECK_PATHS = 1000
CUT_CALLS = 1000
CLI_STEPS = 250
CALLBACK_CONFIG, CALLBACK_STEPS, CALLBACK_RATE = "market_pieces", 1000, 0.05
LOAD_CALLS = 20
WRITE_SIZES = (CLI_STEPS, 10000)
WRITE_JOBS = ("hedge", "price-american")
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
    paths = draw_paths(chain, 0, PATHS)
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


def callback_layers(cfg, steps):
    """(name, call) of each solve of the callback driver
    ``discount_driver(CALLBACK_RATE)`` on the config's chain at ``steps``
    grid steps, with the config's put as obstacle; the inputs of each call
    are made before it is timed."""
    chain = cfg.chain
    driver = discount_driver(CALLBACK_RATE)
    payoff = cfg.build_payoff(curves=stock_curves(cfg.market, steps=steps))
    terminal = payoff.terminal(chain.horizon, chain.n_states)
    return [
        ("callback solve_bsde explicit_rk4", lambda: solve_bsde(chain, driver, terminal, steps)),
        ("callback solve_bsde implicit_euler",
         lambda: solve_bsde(chain, driver, terminal, steps, scheme="implicit_euler")),
        ("callback solve_reflected",
         lambda: solve_reflected(chain, driver, terminal, payoff, steps)),
        ("callback penalization_limit",
         lambda: penalization_limit(chain, driver, terminal, payoff, steps,
                                    cfg.solver.penalization_tol)),
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
        ("draw_paths", lambda: draw_paths(chain, 0, n_paths)),
        ("stretches", lambda: paths.stretches(market.piece_starts)),
        (f"stretches {grid.size} nodes", lambda: paths.stretches(market.piece_starts, grid)),
        (f"sdf_path {grid.size} nodes",
         lambda: [sdf_path(market, batch, grid) for batch in batches(paths, SDF_BATCH)]),
        (f"martingale_path {grid.size} nodes",
         lambda: [martingale_path(batch, chain, MC_STEPS)
                  for batch in batches(paths, SDF_BATCH)]),
        ("terminal_sdf", lambda: terminal_sdf(market, paths)),
        ("stochastic_integral", lambda: stochastic_integral(chain, z, paths)),
        ("isometry_check", lambda: isometry_check(chain, z, n_paths, paths=paths)),
        (f"discounted_value_check K={MC_STEPS}",
         lambda: discounted_value_check(market, payoff, priced, n_paths)),
    ]


def check_batch(cfg, n_paths):
    """The first batch that ``discounted_value_check`` of the config's put,
    priced at K = ``MC_STEPS``, cuts of the paths 0 .. n_paths - 1: the one
    its first call of ``sdf_stretches`` receives."""
    payoff = cfg.build_payoff(curves=stock_curves(cfg.market, steps=MC_STEPS))
    priced = price_american(cfg.market, payoff, MC_STEPS)
    seen, cut = [], hedge.sdf_stretches
    hedge.sdf_stretches = lambda market, batch: seen.append(batch) or cut(market, batch)
    try:
        discounted_value_check(cfg.market, payoff, priced, n_paths)
    finally:
        hedge.sdf_stretches = cut
    return seen[0]


def cut_layers(cfg, n_paths):
    """The one layer timed per call: ``CUT_CALLS`` cuts on the market's
    pieces of ``check_batch(cfg, n_paths)``, whose time ``measure``
    divides by ``CUT_CALLS``."""
    paths = check_batch(cfg, n_paths)
    starts = cfg.market.piece_starts
    return [(f"stretches of its first check batch, {paths.n_paths} paths",
             lambda: [paths.stretches(starts) for _ in range(CUT_CALLS)])]


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


def write_time(argv):
    """The best of ``REPEATS`` runs of the CLI job ``argv`` of the seconds
    it spends in ``cli._write_grid``."""
    write, spent = cli._write_grid, []

    def timed(*args, **kwargs):
        t0 = perf_counter()
        write(*args, **kwargs)
        spent[-1] += perf_counter() - t0

    cli._write_grid = timed
    try:
        for _ in range(REPEATS):
            spent.append(0.0)
            run_cli(argv)
    finally:
        cli._write_grid = write
    return min(spent)


def best_time(call):
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        call()
        times.append(perf_counter() - t0)
    return min(times)


def peak_mb(call):
    """The tracemalloc peak of one ``call()``, in MB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def kernel_time():
    """The best of ``REPEATS`` runs of the reference kernel."""
    return best_time(lambda: reference_kernel(np))


def with_kernel(measure_row):
    """(seconds, kernel): the time ``measure_row()`` returns and the mean
    of the kernel's times just before and just after it."""
    before = kernel_time()
    seconds = measure_row()
    return seconds, 0.5 * (before + kernel_time())


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
    rows = {}

    def record(key, measure_row, peak=None):
        """Time the row; with ``peak``, record ``peak_mb(peak)`` beside it."""
        seconds, kernel = with_kernel(measure_row)
        if seconds is not None:
            rows[key] = {"s": seconds, "ref": seconds / kernel, "kernel_s": kernel}
            if peak is not None:
                rows[key]["peak_mb"] = peak_mb(peak)
            print(f"{seconds:10.6f} s {seconds / kernel:9.3f} ref  {key}", file=sys.stderr)

    for name in CONFIGS:
        cfg = load_config(ROOT / "configs" / f"{name}.yaml")
        sizes = [(f"K={steps}", layers, steps) for steps in SIZES]
        if name == CALLBACK_CONFIG:
            sizes += [(f"K={CALLBACK_STEPS}", callback_layers, CALLBACK_STEPS)]
        sizes += [(f"P={n}", path_layers, n) for n in MC_PATHS]
        sizes += [(f"P={CHECK_PATHS}", cut_layers, CHECK_PATHS)]
        for size, build, arg in sizes:
            per = CUT_CALLS if build is cut_layers else 1
            for layer, call in build(cfg, arg):
                record(f"{name} {size} {layer}", lambda: best_time(call) / per,
                       peak=call if build is path_layers else None)
    fast = build_chain_spec(2, FAST_RATE * np.array([[-1.0, 1.0], [1.0, -1.0]]), 0, 1.0)
    record(f"two_state rate={FAST_RATE:g} P={MC_PATHS[0]} draw_paths",
           lambda: best_time(lambda: draw_paths(fast, 0, MC_PATHS[0])))
    with tempfile.TemporaryDirectory() as tmp:
        for config in sorted((ROOT / "configs").glob("*.yaml")):
            for job, argv in cli_jobs(config, Path(tmp) / config.stem):
                key = f"{config.stem} K={CLI_STEPS} {job}"
                code = run_cli(argv)
                if code != 0:
                    print(f"  skipped, exit {code}  {key}", file=sys.stderr)
                    continue
                record(key, lambda: best_time(lambda: run_cli(argv)))
        for config in sorted((ROOT / "configs").glob("*.yaml")):
            record(f"{config.stem} load_config", lambda: best_time(
                lambda: [load_config(config) for _ in range(LOAD_CALLS)]) / LOAD_CALLS)
        for name in CONFIGS:
            config = ROOT / "configs" / f"{name}.yaml"
            for steps in WRITE_SIZES:
                for job in WRITE_JOBS:
                    argv = [job, "--config", str(config), "--out",
                            str(Path(tmp) / "write" / name / job), "--steps", str(steps)]
                    record(f"{name} K={steps} {job} _write_grid", lambda: write_time(argv))
    record("tier-1 tests", tier1_time)
    return {
        "machine": {"platform": platform.platform(), "processor": platform.processor(),
                    "cpus": os.cpu_count()},
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "pyyaml": yaml.__version__},
        "revision": revision(),
        "repeats": REPEATS,
        "kernel_s": statistics.median(row["kernel_s"] for row in rows.values()),
        "layers": rows,
    }


def compare(new, old):
    print(f"{'layer':50s} {'new/old s':>10s} {'new/old ref':>12s} {'new/old peak':>13s}")
    for key, rec in new["layers"].items():
        if key in old["layers"]:
            base = old["layers"][key]
            peak = (f"{rec['peak_mb'] / base['peak_mb']:13.3f}"
                    if "peak_mb" in rec and "peak_mb" in base else f"{'-':>13s}")
            print(f"{key:50s} {rec['s'] / base['s']:10.3f} {rec['ref'] / base['ref']:12.3f} "
                  f"{peak}")


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
