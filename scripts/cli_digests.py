"""Digest every CLI output on the bundled configs.

Runs each subcommand, then ``plot-data`` on that job's output directory,
on every config in ``configs/`` at a fixed seed, grid and path count, in a
temporary directory. Prints one ``<sha256>  <config>/<job>/<file>`` line
per CSV written and one ``exit <code>  <config>/<job>`` line per run, and
one ``<report>  market_put/discounted_value_check`` line: the ``repr`` of
that check's report on the config's put, priced at ``CHECK_STEPS`` steps,
over ``CHECK_PATHS`` paths from the fixed seed, which no CSV holds. All
lines are sorted. The output is a fixed function of the source tree: two
runs of one checkout print the same lines, and so do two checkouts whose
CSVs and check reports are bit for bit the same.

    python scripts/cli_digests.py > digests.txt

The package is imported from ``src/`` next to this script.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from markovbsde import cli, discounted_value_check, price_american, stock_curves  # noqa: E402
from markovbsde.config import load_config  # noqa: E402

SEED, STEPS, PATHS = 0, 250, 500
CHECK_STEPS, CHECK_PATHS = 200, 2000


def digest_lines(configs, out_root):
    """Run every subcommand and ``plot-data`` after it on each (name, path)
    of ``configs``, writing under ``out_root``; returns the sorted lines."""
    lines = []
    for name, config in configs:
        for job in cli.SUBCOMMANDS:
            if job == "plot-data":
                continue
            out = Path(out_root) / name / job
            argv = [job, "--config", str(config), "--out", str(out),
                    "--seed", str(SEED), "--steps", str(STEPS), "--paths", str(PATHS)]
            for label, args in ((job, argv), (f"{job}/plot-data",
                                              ["plot-data", "--out", str(out)])):
                with contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(args)
                lines.append(f"exit {code}  {name}/{label}")
            if out.is_dir():
                for csv in out.rglob("*.csv"):
                    digest = hashlib.sha256(csv.read_bytes()).hexdigest()
                    lines.append(f"{digest}  {name}/{job}/{csv.relative_to(out)}")
    return sorted(lines)


def check_line(config):
    """The line of ``discounted_value_check``'s report on the put of the
    market config ``config``."""
    cfg = load_config(config)
    payoff = cfg.build_payoff(curves=stock_curves(cfg.market, steps=CHECK_STEPS))
    solution = price_american(cfg.market, payoff, CHECK_STEPS)
    report = discounted_value_check(cfg.market, payoff, solution, CHECK_PATHS, seed_base=SEED)
    return f"{report!r}  {config.stem}/discounted_value_check"


def main():
    configs = [(p.stem, p) for p in sorted((ROOT / "configs").glob("*.yaml"))]
    with tempfile.TemporaryDirectory() as tmp:
        lines = digest_lines(configs, tmp)
    for line in sorted(lines + [check_line(ROOT / "configs" / "market_put.yaml")]):
        print(line)


if __name__ == "__main__":
    main()
