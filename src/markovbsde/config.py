"""Declarative run configuration: one YAML file per experiment.

Top-level keys: schema_version, chain, market (optional), driver, payoff,
terminal, solver, output_dir. Driver and payoff selectors name built-ins.
One reader per section converts and checks each field as it reads it, so
a malformed value raises ``ConfigError`` at load, before any job starts.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
import yaml

from .bsde import AffineForm, MarkovDriver, discount_driver, zero_driver
from .chain import build_chain_spec
from .errors import ConfigError, MarkovBsdeError
from .grids import interp
from .hedge import make_hedge_driver
from .market import build_market_spec, stock_curves
from .rbsde import Obstacle, constant_obstacle

SCHEMA_VERSION = 1


@dataclass
class SolverSettings:
    steps: int = 1000
    scheme: str = "explicit_rk4"
    penalization_tol: float = 1e-3
    n_paths: int = 20000
    seed: int = 0
    strict_contraction: bool = False


@dataclass
class RunConfig:
    """A loaded run. ``driver`` builds the MarkovDriver; ``payoff`` builds
    the payoff Obstacle from stock curves and a step count, or is None
    without a payoff section."""

    chain: object
    market: object
    driver: object
    payoff: object
    terminal: np.ndarray
    solver: SolverSettings
    output_dir: str

    def build_driver(self):
        return self.driver()

    def build_payoff(self, curves=None):
        """The payoff as an Obstacle, or None. A payoff on a stock price
        reads ``curves``; without them it computes them at ``solver.steps``."""
        if self.payoff is None:
            return None
        return self.payoff(curves, self.solver.steps)


def _require(cond, msg, *args):
    """Raise ``ConfigError(msg % args)`` unless ``cond``: a message is
    formatted only on failure, so a load that passes formats none."""
    if not cond:
        raise ConfigError(msg % args)


def _section(raw, key):
    """raw[key] as a mapping; None when the key is missing or null."""
    value = raw.get(key)
    _require(value is None or isinstance(value, dict),
             "'%s' must be a mapping, got %r", key, value)
    return value


def _float(value, what):
    """One finite number; a missing field reads as None and fails here, and
    an integer beyond the float range is not finite."""
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be a number, got {value!r}") from None
    except OverflowError:
        out = math.inf
    _require(math.isfinite(out), "%s must be finite, got %r", what, value)
    return out


def _integer(value, what):
    """One integer: an int that is not a bool, or a float of integral value."""
    _require((isinstance(value, (int, np.integer)) and not isinstance(value, bool))
             or (isinstance(value, float) and value.is_integer()),
             "%s must be an integer, got %r", what, value)
    return int(value)


def _vector(value, n, what, broadcast=False):
    """A list of n numbers as a float vector. With ``broadcast``, a single
    number or a one-entry list applies to every state."""
    if broadcast and not isinstance(value, list):
        value = [value]
    sizes = (1, n) if broadcast else (n,)
    _require(isinstance(value, list) and len(value) in sizes,
             "%s must be %sa list of %s numbers, got %r",
             what, "a number or " if broadcast else "", n, value)
    vec = np.array([_float(x, what) for x in value])
    return np.full(n, vec[0]) if vec.size != n else vec


def _parse_schedule(entries, key_name):
    out = []
    for entry in entries:
        _require(isinstance(entry, dict) and "start" in entry,
                 "schedule entries need a 'start' key in %s", key_name)
        val = entry.get("matrix", entry.get("vector"))
        _require(val is not None, "schedule entry in %s needs matrix/vector", key_name)
        out.append((float(entry["start"]), val))
    return out


def _read_driver(spec, n, market):
    """The driver section, as a builder of its MarkovDriver."""
    kind = spec.get("kind")
    if kind == "zero":
        return zero_driver
    if kind == "constant":
        value = _float(spec.get("value"), "driver.value")
        return lambda: MarkovDriver(affine=AffineForm(beta=value))
    if kind == "discount":
        return partial(discount_driver, _float(spec.get("rate"), "driver.rate"))
    if kind == "affine":
        a = _vector(spec.get("a", 0.0), n, "driver.a", broadcast=True)
        b = _float(spec.get("b", 0.0), "driver.b")
        return lambda: MarkovDriver(lipschitz_y=abs(b),
                                    affine=AffineForm(alpha=b, beta=a))
    if kind == "hedge":
        _require(market is not None, "hedge driver needs a market section")
        return partial(make_hedge_driver, market)
    raise ConfigError(f"unknown driver kind {kind!r}")


def _read_payoff(spec, n, market):
    """The payoff section, as a builder (curves, steps) -> Obstacle."""
    kind = spec.get("kind")
    if kind == "constant":
        value = _float(spec.get("value"), "payoff.value")
        return lambda curves, steps: constant_obstacle(value)
    if kind == "affine":
        a = _vector(spec.get("a", 0.0), n, "payoff.a", broadcast=True)
        b = _vector(spec.get("b", 0.0), n, "payoff.b", broadcast=True)
        return lambda curves, steps: Obstacle(values=lambda times: a + b * times[:, None])
    if kind == "put_on_stock":
        _require(market is not None, "put_on_stock payoff needs a market section")
        strike = _float(spec.get("strike"), "payoff.strike")
        stock = _integer(spec.get("stock", 0), "payoff.stock")
        _require(0 <= stock < market.n_stocks,
                 "stock index %s outside [0, %s)", stock, market.n_stocks)

        def build(curves, steps):
            if curves is None:
                curves = stock_curves(market, steps=steps)
            grid, curve = curves.grid, curves.s[stock]

            def values(times):
                # the curve's rows on its grid, interpolated off it
                on_grid = np.array_equal(times, grid)
                prices = curve if on_grid else interp(grid, curve, times)
                return np.maximum(strike - prices, 0.0)

            return Obstacle(values=values)
        return build
    raise ConfigError(f"unknown payoff kind {kind!r}")


def _read_solver(raw):
    """The solver section over the defaults of ``SolverSettings``."""
    solver = SolverSettings()
    for key, read in (("steps", _integer), ("penalization_tol", _float),
                      ("n_paths", _integer), ("seed", _integer)):
        if key in raw:
            setattr(solver, key, read(raw[key], f"solver.{key}"))
    solver.scheme = raw.get("scheme", solver.scheme)
    solver.strict_contraction = raw.get("strict_contraction", solver.strict_contraction)
    _require(solver.steps >= 2, "solver.steps must be >= 2")
    _require(solver.n_paths >= 1, "solver.n_paths must be >= 1")
    size_max = np.iinfo(np.int64).max  # numpy takes sizes as int64
    for key in ("steps", "n_paths"):
        _require(getattr(solver, key) <= size_max, "solver.%s must be at most %s", key, size_max)
    _require(solver.penalization_tol > 0, "solver.penalization_tol must be > 0, got %r",
             solver.penalization_tol)
    _require(solver.seed >= 0, "solver.seed must be >= 0")
    _require(solver.scheme in ("explicit_rk4", "implicit_euler"),
             "unknown scheme %r", solver.scheme)
    _require(isinstance(solver.strict_contraction, bool),
             "solver.strict_contraction must be true or false, got %r",
             solver.strict_contraction)
    return solver


def load_config(path, overrides=None):
    """Read and check the run configuration at ``path``. ``overrides``
    maps solver fields to values that replace the file's; they pass the
    same checks."""
    # bytes, so that the parser reports a bad encoding as a YAMLError; the
    # libyaml loader where it is built, else the pure-Python one
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        with open(path, "rb") as fh:
            raw = yaml.load(fh, Loader=loader)
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    _require(isinstance(raw, dict), "config must be a mapping")
    version = raw.get("schema_version")
    _require(version == SCHEMA_VERSION,
             "schema_version must be %s, got %r", SCHEMA_VERSION, version)

    chain_raw = _section(raw, "chain")
    _require(chain_raw is not None, "config needs a 'chain' section")
    try:
        chain = build_chain_spec(
            n_states=_integer(chain_raw.get("n_states"), "chain.n_states"),
            generator_schedule=_parse_schedule(
                chain_raw.get("generator_schedule", []), "chain"),
            initial_state=_integer(chain_raw.get("initial_state", 0),
                                   "chain.initial_state"),
            horizon=chain_raw.get("horizon"),
        )
    except (MarkovBsdeError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid chain section: {exc}") from exc
    n = chain.n_states

    market = None
    mk = _section(raw, "market")
    if mk is not None:
        try:
            market = build_market_spec(
                chain,
                c_schedule=_parse_schedule(mk["C_schedule"], "market.C_schedule")
                if "C_schedule" in mk else None,
                d_schedule=_parse_schedule(mk["D_schedule"], "market.D_schedule")
                if "D_schedule" in mk else None,
                dividends=mk.get("dividends", ()),
                r_max=mk.get("r_max", 1.0),
            )
        except (MarkovBsdeError, TypeError, ValueError, KeyError, OverflowError) as exc:
            raise ConfigError(f"invalid market section: {exc}") from exc

    solver = _read_solver({**(_section(raw, "solver") or {}), **(overrides or {})})
    terminal = raw.get("terminal")
    if terminal is not None:
        terminal = _vector(terminal, n, "terminal")
    driver = _read_driver(_section(raw, "driver") or {"kind": "zero"}, n, market)
    payoff = _section(raw, "payoff")
    if payoff is not None:
        payoff = _read_payoff(payoff, n, market)

    return RunConfig(chain=chain, market=market, driver=driver, payoff=payoff,
                     terminal=terminal, solver=solver,
                     output_dir=str(raw.get("output_dir", "out")))
