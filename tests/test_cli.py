"""Config loading and the command-line pipeline: exit codes, output files,
determinism and the plot-data derivations."""

import csv
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from markovbsde.chain import _CELLS
from markovbsde.cli import _fmt, _write_csv, _write_grid, main, report_rows
from markovbsde.config import load_config
from markovbsde.errors import ConfigError
from markovbsde.montecarlo import european_consistency, isometry_check

import csv_reference as ref

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def write_yaml(tmp_path, text, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


MINIMAL = """\
schema_version: 1
chain:
  n_states: 2
  horizon: 1.0
  initial_state: 0
  generator_schedule:
    - start: 0.0
      matrix: [[-1.0, 1.0], [1.0, -1.0]]
terminal: [1.0, 0.0]
solver: {steps: 100, n_paths: 50, seed: 0}
"""


# ------------------------------------------------------------------- config

def test_load_bundled_configs():
    for name in ("twostate.yaml", "market_put.yaml", "market_regime.yaml"):
        cfg = load_config(str(CONFIGS / name))
        assert cfg.chain.n_states == 2
        assert cfg.solver.steps == 1000


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="libyaml is not built")
@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.stem)
def test_libyaml_and_python_loaders_agree(path, monkeypatch):
    fast, text = yaml.CSafeLoader, path.read_bytes()
    assert yaml.load(text, Loader=fast) == yaml.load(text, Loader=yaml.SafeLoader)
    used = []
    load = yaml.load

    def spy(stream, Loader):
        used.append(Loader)
        return load(stream, Loader=Loader)

    monkeypatch.setattr(yaml, "load", spy)
    load_config(path)
    monkeypatch.delattr(yaml, "CSafeLoader")
    load_config(path)
    assert used == [fast, yaml.SafeLoader]


def test_non_utf8_config_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.yaml"
    path.write_bytes((CONFIGS / "twostate.yaml").read_bytes() + b"# caf\xe9\n")
    assert main(["validate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_config_rejects_wrong_schema_version(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_yaml(tmp_path,
                               MINIMAL.replace("schema_version: 1",
                                               "schema_version: 2")))


def test_config_rejects_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "nope.yaml"))


def test_config_rejects_bad_chain(tmp_path):
    bad = MINIMAL.replace("[[-1.0, 1.0], [1.0, -1.0]]",
                          "[[-1.0, 1.0], [0.5, -1.0]]")
    with pytest.raises(ConfigError):
        load_config(write_yaml(tmp_path, bad))


def test_config_rejects_bad_terminal_length(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_yaml(tmp_path,
                               MINIMAL.replace("[1.0, 0.0]", "[1.0, 0.0, 2.0]")))


def test_config_rejects_unknown_driver(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_yaml(tmp_path, MINIMAL + "driver: {kind: fancy}\n"))


def test_config_rejects_payoff_without_market(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_yaml(
            tmp_path, MINIMAL + "payoff: {kind: put_on_stock, strike: 30.0}\n"))


MARKET = MINIMAL + """\
market:
  D_schedule: [{start: 0.0, vector: [0.05, 0.05]}]
  dividends: [[1.0, 2.0], [2.0, 1.0]]
"""

# field -> (the job that reads it, a config with that field malformed)
MALFORMED = {
    "driver.rate": ("solve-bsde", MINIMAL + "driver: {kind: discount, rate: abc}\n"),
    "driver.value": ("solve-bsde", MINIMAL + "driver: {kind: constant, value: x}\n"),
    "driver.a": ("solve-bsde", MINIMAL + "driver: {kind: affine, a: x}\n"),
    "driver.b": ("solve-bsde", MINIMAL + "driver: {kind: affine, a: 0.1, b: x}\n"),
    "driver not a mapping": ("solve-bsde", MINIMAL + "driver: hedge\n"),
    "payoff.value": ("solve-rbsde", MINIMAL + "payoff: {kind: constant, value: x}\n"),
    "payoff.a": ("solve-rbsde", MINIMAL + "payoff: {kind: affine, a: x}\n"),
    "payoff.b": ("solve-rbsde", MINIMAL + "payoff: {kind: affine, a: 0.1, b: x}\n"),
    "payoff.b length": ("solve-rbsde",
                        MINIMAL + "payoff: {kind: affine, a: 0.1, b: [0.1, 0.2, 0.3]}\n"),
    "payoff.strike": ("price-american",
                      MARKET + "payoff: {kind: put_on_stock, strike: abc}\n"),
    "payoff.stock": ("price-american",
                     MARKET + "payoff: {kind: put_on_stock, strike: 30.0, stock: abc}\n"),
    "solver not a mapping": ("solve-bsde", MINIMAL.replace(
        "solver: {steps: 100, n_paths: 50, seed: 0}", "solver: [1, 2]")),
    "solver.steps": ("solve-bsde", MINIMAL.replace("steps: 100", "steps: abc")),
    "solver.n_paths": ("simulate", MINIMAL.replace("n_paths: 50", "n_paths: 0")),
    "solver.seed": ("simulate", MINIMAL.replace("seed: 0", "seed: -1")),
    # integer fields take integers and integral floats, never a truncation
    "solver.steps fraction": ("solve-bsde", MINIMAL.replace("steps: 100",
                                                            "steps: 250.9")),
    "solver.n_paths bool": ("simulate", MINIMAL.replace("n_paths: 50", "n_paths: true")),
    "payoff.stock fraction": ("price-american", MARKET + (
        "payoff: {kind: put_on_stock, strike: 30.0, stock: 0.9}\n")),
    "chain.n_states fraction": ("solve-bsde", MINIMAL.replace("n_states: 2",
                                                              "n_states: 2.5")),
    "chain.initial_state fraction": ("solve-bsde", MINIMAL.replace(
        "initial_state: 0", "initial_state: 0.5")),
    "chain.initial_state bool": ("solve-bsde", MINIMAL.replace(
        "initial_state: 0", "initial_state: true")),
    "terminal": ("solve-bsde", MINIMAL.replace("[1.0, 0.0]", "[a, b]")),
}


def test_integer_fields_take_integral_floats(tmp_path):
    cfg = load_config(write_yaml(tmp_path, MINIMAL.replace("steps: 100", "steps: 250.0")
                                 .replace("n_states: 2", "n_states: 2.0")))
    assert cfg.solver.steps == 250 and type(cfg.solver.steps) is int
    assert cfg.chain.n_states == 2


@pytest.mark.parametrize("field", MALFORMED)
def test_malformed_field_exits_2_at_load(tmp_path, capsys, field):
    # every field is read once, at load, into a ConfigError: validate and
    # the job that uses the field both exit 2
    job, text = MALFORMED[field]
    path = write_yaml(tmp_path, text)
    with pytest.raises(ConfigError):
        load_config(path)
    for subcommand in ("validate", job):
        assert run_cli(subcommand, "--config", path,
                       "--out", str(tmp_path / subcommand)) == 2
        assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("job, config, flags", [
    ("solve-bsde", "twostate.yaml", ["--steps", "1"]),
    ("price-american", "market_put.yaml", ["--steps", "1"]),
    ("validate", "market_put.yaml", ["--steps", "1"]),
    ("simulate", "twostate.yaml", ["--paths", "0"]),
    ("verify", "twostate.yaml", ["--paths", "0"]),
    ("verify", "twostate.yaml", ["--paths", "1"]),
    ("verify", "twostate.yaml", ["--paths", "-3"]),
    ("verify", "twostate.yaml", ["--seed", "-1"]),
    ("simulate", "twostate.yaml", ["--seed", "-1"]),
    ("hedge", "market_put.yaml", ["--seed", "-1"]),
    ("solve-bsde", "twostate.yaml", ["--seed", "-1"]),
])
def test_bad_override_exits_2(tmp_path, capsys, job, config, flags):
    # a command-line override passes the checks the same value in the file
    # passes, and verify needs two paths for a standard error
    out = tmp_path / "out"
    assert run_cli(job, "--config", str(CONFIGS / config), "--out", str(out),
                   *flags) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------- CLI runs

def run_cli(*args):
    return main(list(args))


def test_validate_and_exit_codes(tmp_path):
    out = tmp_path / "v"
    assert run_cli("validate", "--config", str(CONFIGS / "market_put.yaml"),
                   "--out", str(out)) == 0
    rows = read_csv(out / "validation_report.csv")
    names = [r["check_name"] for r in rows]
    assert "contraction" in names and "c6" in names


def test_bad_config_exits_2(tmp_path):
    bad = write_yaml(tmp_path, "schema_version: 7\n")
    assert run_cli("validate", "--config", bad) == 2


def test_simulate_is_deterministic(tmp_path):
    cfg = str(CONFIGS / "twostate.yaml")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("simulate", "--config", cfg, "--out", str(out1),
                   "--paths", "5") == 0
    assert run_cli("simulate", "--config", cfg, "--out", str(out2),
                   "--paths", "5") == 0
    files = sorted(p.name for p in out1.glob("path_*.csv"))
    assert len(files) == 5
    for name in files:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_solve_bsde_round_trip(tmp_path):
    out = tmp_path / "s"
    assert run_cli("solve-bsde", "--config", str(CONFIGS / "twostate.yaml"),
                   "--out", str(out), "--steps", "200") == 0
    rows = read_csv(out / "bsde_solution.csv")
    assert len(rows) == 201 * 2
    first = [r for r in rows if r["time"] == "0"]
    assert float(first[0]["y_value"]) == pytest.approx(np.exp(-0.1), abs=1e-8)


def test_solve_rbsde_outputs(tmp_path):
    cfg = write_yaml(tmp_path, """\
schema_version: 1
chain:
  n_states: 2
  horizon: 1.0
  initial_state: 0
  generator_schedule:
    - start: 0.0
      matrix: [[-1.0, 1.0], [1.0, -1.0]]
terminal: [1.0, 1.0]
driver: {kind: discount, rate: 0.5}
payoff: {kind: affine, a: 0.8, b: 0.0}
solver: {steps: 100, n_paths: 50, seed: 0}
""")
    out = tmp_path / "r"
    assert run_cli("solve-rbsde", "--config", cfg, "--out", str(out)) == 0
    rows = read_csv(out / "rbsde_solution.csv")
    assert {"time", "state", "v", "z", "k"} <= set(rows[0])
    trace = read_csv(out / "penalization_trace.csv")
    dists = [float(r["sup_distance"]) for r in trace]
    assert all(b < a for a, b in zip(dists, dists[1:]))


def test_price_american_and_plot_data(tmp_path):
    out = tmp_path / "am"
    assert run_cli("price-american", "--config",
                   str(CONFIGS / "market_put.yaml"), "--out", str(out),
                   "--steps", "200") == 0
    assert (out / "american_solution.csv").exists()
    assert (out / "payoff_surface.csv").exists()
    assert run_cli("plot-data", "--out", str(out)) == 0
    boundary = read_csv(out / "exercise_boundary.csv")
    assert len(boundary) == 2  # one row per state
    assert (out / "value_vs_time.csv").exists()


@pytest.mark.parametrize("subcommand", ["solve-rbsde", "price-american", "hedge"])
def test_payoff_jobs_without_payoff_exit_2(tmp_path, capsys, subcommand):
    # twostate.yaml has no payoff section
    rc = run_cli(subcommand, "--config", str(CONFIGS / "twostate.yaml"),
                 "--out", str(tmp_path / "o"), "--steps", "20")
    assert rc == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["C_schedule", "D_schedule"])
def test_empty_discount_schedule_exits_2(tmp_path, capsys, key):
    cfg = MINIMAL + f"market:\n  {key}: []\n"
    rc = run_cli("validate", "--config", write_yaml(tmp_path, cfg),
                 "--out", str(tmp_path / "o"))
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_hedge_without_stocks_is_a_typed_error(tmp_path, capsys):
    # a market without dividends has no stocks to hedge with: the job ends
    # with the hedge extraction's dimension check, not a traceback
    cfg = MINIMAL + """\
market:
  D_schedule: [{start: 0.0, vector: [0.05, 0.05]}]
payoff: {kind: constant, value: 0.5}
"""
    rc = run_cli("hedge", "--config", write_yaml(tmp_path, cfg),
                 "--out", str(tmp_path / "o"), "--steps", "20")
    assert rc == 1
    assert "DimensionMismatchError" in capsys.readouterr().err


def test_plot_data_empty_dir_exits_1(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_cli("plot-data", "--out", str(empty)) == 1


def test_hedge_pipeline(tmp_path):
    out = tmp_path / "h"
    assert run_cli("hedge", "--config", str(CONFIGS / "market_put.yaml"),
                   "--out", str(out), "--steps", "300", "--paths", "5") == 0
    rep = read_csv(out / "replication_report.csv")
    assert len(rep) == 5
    assert all(r["dominates"] == "True" for r in rep)
    assert all(float(r["max_gap"]) < 1e-6 for r in rep)
    hedge = read_csv(out / "hedge.csv")
    assert {"time", "state", "V", "K", "h_1", "h_2", "h0"} <= set(hedge[0])
    assert (out / "stock_curves.csv").exists()


def test_verify_subcommand(tmp_path):
    out = tmp_path / "ver"
    assert run_cli("verify", "--config", str(CONFIGS / "market_put.yaml"),
                   "--out", str(out), "--paths", "3000") == 0
    rows = read_csv(out / "verify_report.csv")
    names = {r["check_name"] for r in rows}
    assert names == {"isometry", "european_consistency"}
    assert all(r["pass"] == "True" for r in rows)


def test_verify_report_equals_separate_checks(tmp_path):
    # verify draws each path once for both checks; the report must equal
    # the two checks run apart, each drawing the same seeds itself
    out = tmp_path / "ver"
    assert run_cli("verify", "--config", str(CONFIGS / "market_regime.yaml"),
                   "--out", str(out), "--paths", "400", "--seed", "7",
                   "--steps", "100") == 0
    cfg = load_config(str(CONFIGS / "market_regime.yaml"))
    z = np.zeros(cfg.chain.n_states)
    z[0] = 1.0
    reports = {
        "isometry": isometry_check(cfg.chain, z, 400, seed_base=7),
        "european_consistency": european_consistency(
            cfg.market, cfg.terminal, 400, steps=100, seed_base=7)}
    want = [(name, lhs, rhs, se, str(ok))
            for name, lhs, rhs, se, ok in report_rows(reports)]
    got = [(r["check_name"], float(r["lhs"]), float(r["rhs"]),
            float(r["std_error"]), r["pass"])
           for r in read_csv(out / "verify_report.csv")]
    assert got == want


def test_cli_requires_config(capsys):
    with pytest.raises(SystemExit):
        main(["solve-bsde"])


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_csv_writer_matches_csv_module(tmp_path):
    header = ("time", "state, quoted", 'say "x"')
    rows = [(-0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e300),
            (np.float64(0.1), np.int64(-7), np.bool_(True), np.bool_(False), True, 3),
            ("a,b", 'say "hi"', "plain", "line\nbreak", "", 2.5),
            (np.float32(0.1), None, np.str_("x,y"), 0, False, -1e-300),
            ("",), (), [1.0, 2]]
    _write_csv(tmp_path / "new.csv", header, iter(rows))
    ref.write_rows(tmp_path / "rows.csv", header, iter(rows))
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


SPECIAL = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300])


def grid_values(rng, shape):
    """Floats over the whole exponent range, a fifth of them special."""
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    special = rng.uniform(size=shape) < 0.2
    x[special] = rng.choice(SPECIAL, size=int(special.sum()))
    return x


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 6), stocks=st.integers(0, 3),
       edge=st.sampled_from([-1, 0, 1, None]), seed=st.integers(0, 2 ** 32 - 1))
def test_grid_writer_matches_row_writer(n, stocks, edge, seed):
    """The column writer writes the bytes of the row writer over the rows
    of ``grid_rows`` and ``curve_rows``: for K + 1 one node below, at and
    one node above the edge of a writer's block of nodes (or a few nodes),
    with an array passed twice and (K+1, 1) columns, as hedge.csv and
    rbsde_solution.csv pass them, and with the stock-major prices of
    stock_curves.csv."""
    rng = np.random.default_rng(seed)

    def nodes(m, n_columns):
        block = _CELLS // max(1, 128 * m * (n_columns + 2))
        return int(rng.integers(1, 9)) if edge is None else block + edge

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        n_columns = 4 + stocks
        size = nodes(n, n_columns)
        grid = np.linspace(0.0, rng.uniform(0.1, 10.0), size)
        v, k, h0 = (grid_values(rng, (size, n)) for _ in range(3))
        holdings = [grid_values(rng, (size, 1)) for _ in range(stocks)]
        header = ("time", "state", "v", "z", "k", *[f"h_{j}" for j in range(stocks)], "h0")
        _write_grid(tmp / "new.csv", header, grid, v, v, k, *holdings, h0)
        ref.write_rows(tmp / "ref.csv", header, ref.grid_rows(
            grid, v, v, k, *[np.repeat(h, n, axis=1) for h in holdings], h0))
        assert (tmp / "new.csv").read_bytes() == (tmp / "ref.csv").read_bytes()

        size = nodes(stocks * n, 1)
        grid = np.linspace(0.0, 1.0, size)
        s = grid_values(rng, (stocks, size, n))
        header = ("time", "stock", "state", "price")
        _write_grid(tmp / "new.csv", header, grid,
                    s.transpose(1, 0, 2).reshape(size, -1),
                    labels=[f"{j},{i}" for j in range(stocks) for i in range(n)])
        ref.write_rows(tmp / "ref.csv", header, ref.curve_rows(grid, s))
        assert (tmp / "new.csv").read_bytes() == (tmp / "ref.csv").read_bytes()
