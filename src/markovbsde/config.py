"""Declarative run configuration: one YAML file per experiment.

Top-level keys: schema_version, chain, market (optional), driver, payoff,
terminal, solver, output_dir. Driver and payoff selectors name built-ins;
all cross-field dimension checks run before any job starts.
"""

from dataclasses import dataclass

import numpy as np
import yaml

from .bsde import MarkovDriver, discount_driver, zero_driver
from .chain import build_chain_spec
from .errors import ConfigError, MarkovBsdeError
from .hedge import make_hedge_driver
from .market import build_market_spec
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
    chain: object
    market: object
    driver_spec: dict
    payoff_spec: dict
    terminal: np.ndarray
    solver: SolverSettings
    output_dir: str

    def build_driver(self):
        return _build_driver(self.driver_spec, self.market)

    def build_payoff(self, curves=None):
        return _build_payoff(self.payoff_spec, self.chain, curves)


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _parse_schedule(entries, key_name):
    out = []
    for entry in entries:
        _require(isinstance(entry, dict) and "start" in entry,
                 f"schedule entries need a 'start' key in {key_name}")
        val = entry.get("matrix", entry.get("vector"))
        _require(val is not None, f"schedule entry in {key_name} needs matrix/vector")
        out.append((float(entry["start"]), val))
    return out


def load_config(path):
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    _require(isinstance(raw, dict), "config must be a mapping")
    version = raw.get("schema_version")
    _require(version == SCHEMA_VERSION,
             f"schema_version must be {SCHEMA_VERSION}, got {version!r}")

    chain_raw = raw.get("chain")
    _require(isinstance(chain_raw, dict), "config needs a 'chain' section")
    try:
        chain = build_chain_spec(
            n_states=chain_raw.get("n_states"),
            generator_schedule=_parse_schedule(
                chain_raw.get("generator_schedule", []), "chain"),
            initial_state=chain_raw.get("initial_state", 0),
            horizon=chain_raw.get("horizon"),
        )
    except (MarkovBsdeError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid chain section: {exc}") from exc

    market = None
    if "market" in raw and raw["market"] is not None:
        mk = raw["market"]
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
        except (MarkovBsdeError, TypeError, ValueError, KeyError) as exc:
            raise ConfigError(f"invalid market section: {exc}") from exc

    solver_raw = raw.get("solver", {}) or {}
    solver = SolverSettings(
        steps=int(solver_raw.get("steps", 1000)),
        scheme=str(solver_raw.get("scheme", "explicit_rk4")),
        penalization_tol=float(solver_raw.get("penalization_tol", 1e-3)),
        n_paths=int(solver_raw.get("n_paths", 20000)),
        seed=int(solver_raw.get("seed", 0)),
        strict_contraction=bool(solver_raw.get("strict_contraction", False)),
    )
    _require(solver.steps >= 2, "solver.steps must be >= 2")
    _require(solver.scheme in ("explicit_rk4", "implicit_euler"),
             f"unknown scheme {solver.scheme!r}")

    terminal = raw.get("terminal")
    if terminal is not None:
        terminal = np.asarray(terminal, dtype=float)
        _require(terminal.shape == (chain.n_states,),
                 f"terminal must have {chain.n_states} entries")

    driver_spec = raw.get("driver", {"kind": "zero"}) or {"kind": "zero"}
    payoff_spec = raw.get("payoff")
    _validate_driver_spec(driver_spec, chain, market)
    if payoff_spec is not None:
        _validate_payoff_spec(payoff_spec, chain, market)

    return RunConfig(chain=chain, market=market, driver_spec=driver_spec,
                     payoff_spec=payoff_spec, terminal=terminal, solver=solver,
                     output_dir=str(raw.get("output_dir", "out")))


def _validate_driver_spec(spec, chain, market):
    kind = spec.get("kind")
    _require(kind in ("zero", "constant", "discount", "affine", "hedge"),
             f"unknown driver kind {kind!r}")
    if kind == "constant":
        _require("value" in spec, "constant driver needs 'value'")
    if kind == "discount":
        _require("rate" in spec, "discount driver needs 'rate'")
    if kind == "affine":
        a = np.atleast_1d(np.asarray(spec.get("a", 0.0), dtype=float))
        _require(a.size in (1, chain.n_states),
                 "affine driver 'a' must be scalar or length-N")
    if kind == "hedge":
        _require(market is not None, "hedge driver needs a market section")


def _validate_payoff_spec(spec, chain, market):
    kind = spec.get("kind")
    _require(kind in ("constant", "affine", "put_on_stock"),
             f"unknown payoff kind {kind!r}")
    if kind == "constant":
        _require("value" in spec, "constant payoff needs 'value'")
    if kind == "affine":
        a = np.atleast_1d(np.asarray(spec.get("a", 0.0), dtype=float))
        _require(a.size in (1, chain.n_states),
                 "affine payoff 'a' must be scalar or length-N")
    if kind == "put_on_stock":
        _require(market is not None, "put_on_stock payoff needs a market section")
        _require("strike" in spec, "put_on_stock payoff needs 'strike'")
        stock = int(spec.get("stock", 0))
        _require(0 <= stock < market.n_stocks,
                 f"stock index {stock} outside [0, {market.n_stocks})")


def _build_driver(spec, market):
    kind = spec["kind"]
    if kind == "zero":
        return zero_driver()
    if kind == "constant":
        val = float(spec["value"])
        return MarkovDriver(evaluate=lambda t, i, y, z: val)
    if kind == "discount":
        return discount_driver(spec["rate"])
    if kind == "affine":
        a = np.atleast_1d(np.asarray(spec.get("a", 0.0), dtype=float))
        b = float(spec.get("b", 0.0))
        get_a = (lambda i: float(a[0])) if a.size == 1 else (lambda i: float(a[i]))
        return MarkovDriver(evaluate=lambda t, i, y, z: get_a(i) + b * y,
                            lipschitz_y=abs(b))
    if kind == "hedge":
        return make_hedge_driver(market)
    raise ConfigError(f"unknown driver kind {kind!r}")


def _build_payoff(spec, chain, curves=None):
    if spec is None:
        return None
    kind = spec["kind"]
    if kind == "constant":
        return constant_obstacle(spec["value"])
    if kind == "affine":
        a = np.atleast_1d(np.asarray(spec.get("a", 0.0), dtype=float))
        b = np.atleast_1d(np.asarray(spec.get("b", 0.0), dtype=float))
        if a.size == 1:
            a = np.full(chain.n_states, a[0])
        if b.size == 1:
            b = np.full(chain.n_states, b[0])
        return Obstacle(g=lambda t, i: float(a[i] + b[i] * t))
    if kind == "put_on_stock":
        if curves is None:
            raise ConfigError("put_on_stock payoff needs stock curves")
        strike = float(spec["strike"])
        stock = int(spec.get("stock", 0))
        curve = curves.curve(stock)
        return Obstacle(g=lambda t, i: max(strike - float(curve.interp(t)[i]), 0.0))
    raise ConfigError(f"unknown payoff kind {kind!r}")
