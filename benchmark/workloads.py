"""The benchmark's workloads: inputs made from a seed, the fixed list of
operations one cycle runs, and the check of every operation.

An operation has a timed ``call`` (one CLI job through
``markovbsde.cli.main``, or one library call), an untimed ``capture`` of
what it produced, and a ``check`` of that capture against the exact
references in ``reference.py``. The references (and scipy) are imported
only inside the checks, after the timed cycles, so they add nothing to
the measured process's memory.

Building a workload (``build``) is the set-up that ``setup_s`` times: it
imports the package and makes the inputs, and nothing else.
"""

import csv
import io
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np
import yaml

import markovbsde.cli
from markovbsde import bsde, chain, config, hedge, market, rbsde
from markovbsde.errors import MarkovBsdeError

# Steps of the CLI jobs in american_cli (K of the pricing grid).
AMERICAN_STEPS = 250
# Monte Carlo paths per verify job and per discounted-value check. Each
# runs twice, on path seeds from 0 and from MC_PATHS, so that the
# operations stay short and the reference kernel between them reads the
# CPU's speed often.
MC_PATHS = 1000
# Grid of the verify job's one BSDE solve, kept small so that path
# simulation and the path functionals dominate mc_verify.
MC_VERIFY_STEPS = 100
# Grid of the discounted-value check's price.
MC_CHECK_STEPS = 200
# The generated mc_verify config is fixed: its 3-SE Monte Carlo gates
# would fail on about 0.3% of random instances each, so varying it with
# --seed would make the failed count depend on the seed.
MC_INPUT_SEED = 1404
# Rounding allowance of a 3-SE gate, as the package's own checks use: a
# deterministic functional (C = 0, flat claim) has a standard error of 0.
MC_FLOOR = 1e-12
# Grid of the solver_family instances (dt = 0.01 on [0, 1]).
SOLVER_STEPS = 100
PENALIZATION_TOL = 1e-3


@dataclass
class Op:
    """One operation of a cycle.

    ``may_raise``: a typed MarkovBsdeError is an acceptable outcome.
    ``known_fault``: the program fault this operation is known to hit; a
    failure of such an operation leaves the run's verdict correct.
    """

    label: str
    call: Callable[[], object]
    capture: Callable[[object], object]
    check: Callable[[object], Optional[str]]
    may_raise: bool = False
    known_fault: str = ""


@dataclass
class Workload:
    ops: list
    out_dir: Path


def build(name, root, work, seed, steps=None):
    """Make the inputs of workload ``name`` of the checkout at ``root``;
    files go under the directory ``work``, which is emptied first."""
    root, work = Path(root), Path(work)
    if work.exists():
        shutil.rmtree(work)
    (work / "inputs").mkdir(parents=True)
    if name == "american_cli":
        ops = _american_cli(root, work, seed, steps or AMERICAN_STEPS)
    elif name == "mc_verify":
        ops = _mc_verify(root, work)
    elif name == "solver_family":
        ops = _solver_family(seed)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(ops=ops, out_dir=work)


# ---------------------------------------------------------------- captures


@dataclass(frozen=True)
class Raised:
    """Capture of an operation that raised; ``typed`` if the exception is
    a MarkovBsdeError."""

    name: str
    typed: bool
    message: str

    @classmethod
    def of(cls, exc):
        return cls(type(exc).__name__, isinstance(exc, MarkovBsdeError), str(exc))


def same(a, b):
    """Exact equality of two captures (NaN equal to NaN)."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (np.shape(a) == np.shape(b)
                and bool(np.array_equal(a, b, equal_nan=True)))
    return a == b or (a != a and b != b)


def read_csv(data):
    """Columns of a CSV written by the CLI: floats, booleans or strings."""
    rows = list(csv.reader(io.StringIO(data.decode())))
    cols = {}
    for j, name in enumerate(rows[0]):
        vals = [r[j] for r in rows[1:]]
        try:
            cols[name] = np.array([float(v) for v in vals])
        except ValueError:
            if set(vals) <= {"True", "False"}:
                cols[name] = np.array([v == "True" for v in vals])
            else:
                cols[name] = vals
    return cols


def node_values(cols, key, n):
    """(K+1, N) array of a (time, state, key) column."""
    return cols[key].reshape(-1, n)


def max_error(name, got, want, tol):
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    if not err <= tol:
        return f"{name}: max error {err:.3g} exceeds tolerance {tol:.3g}"
    return None


def reflection_properties(v, k, g, slack=0.0):
    """American value above the obstacle, k(0) = 0 and k nondecreasing."""
    if np.any(v < g - slack):
        return f"value below the obstacle by {float(np.max(g - v)):.3g}"
    if np.any(k[0] != 0.0):
        return f"k(0) = {k[0]} is not zero"
    if np.any(np.diff(k, axis=0) < 0.0):
        return "k decreases"
    return None


def first_failure(*messages):
    return next((m for m in messages if m), None)


# ------------------------------------------------------------ model inputs


def random_generator(rng, n, absorbing=False):
    """Generator with off-diagonal rates in [0.3, 1.5] * min(1, 2/(N-1));
    with ``absorbing`` the last state has no exit."""
    a = rng.uniform(0.3, 1.5, size=(n, n)) * min(1.0, 2.0 / max(n - 1, 1))
    np.fill_diagonal(a, 0.0)
    if absorbing and n > 1:
        a[:, -1] = 0.0
    np.fill_diagonal(a, -a.sum(axis=0))
    return a


def off_grid_starts(rng, n_pieces, steps, lo=0.1, hi=0.9):
    """Piece starts 0 < s_1 < ... in (lo, hi), each at least a fifth of a
    step from a grid node and 0.05 from its neighbours."""
    while True:
        pts = np.sort(rng.uniform(lo, hi, n_pieces - 1))
        frac = pts * steps - np.round(pts * steps)
        if np.all(np.abs(frac) > 0.2) and np.all(np.diff(pts) > 0.05):
            return [0.0] + [float(p) for p in pts]


def discount_market(rng, gens, rate=None, c_scale=0.03):
    """C with small nonnegative off-diagonal entries, and a D piece per
    generator piece that makes every short rate ``rate`` (by default
    drawn per piece and state from [0.03, 0.08])."""
    n = gens[0].shape[0]
    c = rng.uniform(0.0, c_scale, size=(n, n))
    np.fill_diagonal(c, 0.0)
    sig = np.exp(np.diag(c)[:, None] - c) - 1.0
    ds = []
    for a in gens:
        r = rng.uniform(0.03, 0.08, n) if rate is None else np.full(n, rate)
        # r_i = D_i - sum_j sig_ij A_ji
        ds.append(r + (sig * a.T).sum(axis=1))
    return c, ds


def market_config(starts, gens, c, ds, dividends, **extra):
    cfg = {
        "schema_version": 1,
        "chain": {"n_states": int(gens[0].shape[0]), "horizon": 1.0,
                  "initial_state": 0,
                  "generator_schedule": [{"start": s, "matrix": a.tolist()}
                                         for s, a in zip(starts, gens)]},
        "market": {"C_schedule": [{"start": 0.0, "matrix": c.tolist()}],
                   "D_schedule": [{"start": s, "vector": d.tolist()}
                                  for s, d in zip(starts, ds)],
                   "dividends": [d.tolist() for d in dividends],
                   "r_max": 1.0},
        "driver": {"kind": "hedge"},
        "solver": {"steps": 1000, "scheme": "explicit_rk4", "n_paths": 20000,
                   "seed": 0},
        "output_dir": "out",
    }
    cfg.update(extra)
    return cfg


def write_yaml(path, cfg):
    path.write_text(yaml.safe_dump(cfg, sort_keys=False))
    return path


@dataclass
class MarketData:
    """A config's market as plain arrays, read by the benchmark itself."""

    raw: dict
    n: int
    horizon: float
    x0: int
    starts: list    # merged piece starts of A, C and D
    gens: list      # per merged piece
    cs: list
    ds: list

    @classmethod
    def read(cls, path):
        raw = yaml.safe_load(Path(path).read_text())
        ch = raw["chain"]
        n = int(ch["n_states"])
        mk = raw.get("market") or {}

        def sched(entries, key, default):
            if not entries:
                return [0.0], [default]
            return ([float(e["start"]) for e in entries],
                    [np.asarray(e[key], dtype=float) for e in entries])

        from reference import merge_schedules
        starts, vals = merge_schedules(
            sched(ch["generator_schedule"], "matrix", None),
            sched(mk.get("C_schedule"), "matrix", np.zeros((n, n))),
            sched(mk.get("D_schedule"), "vector", np.zeros(n)))
        return cls(raw=raw, n=n, horizon=float(ch["horizon"]),
                   x0=int(ch.get("initial_state", 0)), starts=starts,
                   gens=[v[0] for v in vals], cs=[v[1] for v in vals],
                   ds=[v[2] for v in vals])

    def pricing_mats(self):
        """Gamma' per piece: the pricing BSDE is y' = -Gamma' y."""
        from reference import gamma
        return [gamma(a, c, d).T for a, c, d in zip(self.gens, self.cs, self.ds)]

    def curves(self, grid):
        """Exact stock components, (n_stocks, K+1, N)."""
        from reference import gamma, stock_curves
        gammas = [gamma(a, c, d) for a, c, d in zip(self.gens, self.cs, self.ds)]
        return np.array([stock_curves(grid, self.starts, gammas, delta)
                         for delta in self.raw["market"]["dividends"]])

    def payoff(self, grid):
        """Exercise value g at the grid nodes, from exact curves."""
        spec = self.raw["payoff"]
        if spec["kind"] == "put_on_stock":
            s = self.curves(grid)[int(spec.get("stock", 0))]
            return np.maximum(float(spec["strike"]) - s, 0.0)
        if spec["kind"] == "affine":
            a = np.broadcast_to(np.asarray(spec.get("a", 0.0), float), (self.n,))
            b = np.broadcast_to(np.asarray(spec.get("b", 0.0), float), (self.n,))
            return a[None, :] + b[None, :] * grid[:, None]
        raise ValueError(f"unknown payoff {spec['kind']!r}")


# ------------------------------------------------------------ american_cli


def american_n3_config(rng):
    """A three-state market with three stocks, three generator pieces with
    off-grid breakpoints, a nonzero C, a flat short rate of 0.05 and a put
    on stock 0 struck at the mean of its stationary prices, so that early
    exercise happens on every seed."""
    from reference import gamma
    n = 3
    starts = off_grid_starts(rng, 3, AMERICAN_STEPS, lo=0.2, hi=0.8)
    gens = [random_generator(rng, n) for _ in starts]
    c, ds = discount_market(rng, gens, rate=0.05)
    dividends = [1.0 + 0.3 * rng.uniform(size=n) + np.eye(n)[j] for j in range(n)]
    stationary = np.linalg.solve(-gamma(gens[-1], c, ds[-1]).T, dividends[0])
    return market_config(starts, gens, c, ds, dividends,
                         payoff={"kind": "put_on_stock",
                                 "strike": float(stationary.mean()), "stock": 0})


def _cli_op(label, argv, out, files, check):
    def call():
        if out.exists():
            shutil.rmtree(out)
        return markovbsde.cli.main(argv)

    def capture(rc):
        cap = {"rc": rc}
        for f in files:
            path = out / f
            cap[f] = path.read_bytes() if path.exists() else None
        return cap

    def checked(cap):
        if cap.get("rc") != 0:
            return f"exit code {cap.get('rc')}"
        missing = [f for f in files if cap[f] is None]
        if missing:
            return f"missing outputs {missing}"
        return check(cap)

    return Op(label=label, call=call, capture=capture, check=checked)


def _american_reference(data, grid, terminal=None):
    """Bermudan value with exact continuation e^{Gamma' dt}, its stated
    tolerance and the exact obstacle."""
    from reference import bermudan, first_order_tol
    g = data.payoff(grid)
    mats = data.pricing_mats()
    if terminal is None:
        terminal = g[-1]
    ref = bermudan(grid, data.starts, mats, terminal, g, data.n)
    scale = max(1.0, float(np.abs(ref).max()))
    return ref, first_order_tol(grid, data.starts, mats, ref), g, scale


def _check_price(data, cap):
    sol = read_csv(cap["american_solution.csv"])
    surf = read_csv(cap["payoff_surface.csv"])
    n = data.n
    grid = sol["time"][::n]
    v, k = node_values(sol, "v", n), node_values(sol, "k", n)
    ref, tol, _, _ = _american_reference(data, grid)
    return first_failure(
        max_error("American value vs Bermudan", v, ref, tol),
        reflection_properties(v, k, node_values(surf, "g", n)))


def _check_hedge(data, cap):
    from reference import first_order_tol
    n = data.n
    sol = read_csv(cap["hedge.csv"])
    grid = sol["time"][::n]
    v, k = node_values(sol, "V", n), node_values(sol, "K", n)
    ref, tol, g, scale = _american_reference(data, grid)
    exact = data.curves(grid)
    got = read_csv(cap["stock_curves.csv"])["price"]
    got = got.reshape(grid.size, exact.shape[0], n).transpose(1, 0, 2)
    curve_msgs = []
    for j, delta in enumerate(data.raw["market"]["dividends"]):
        # s' = -Gamma' s - delta in the affine form acting on [s; 1]
        mats = [np.block([[m, np.asarray(delta)[:, None]], [np.zeros((1, n + 1))]])
                for m in data.pricing_mats()]
        curve_msgs.append(max_error(f"stock {j} curve vs exact", got[j], exact[j],
                                    first_order_tol(grid, data.starts, mats,
                                                    exact[j])))
    rep = read_csv(cap["replication_report.csv"])
    gap = float(rep["max_gap"].max())
    return first_failure(
        max_error("hedge value vs Bermudan", v, ref, tol),
        reflection_properties(v, k, g, slack=1e-8 * scale),
        *curve_msgs,
        None if gap < 1e-6 else f"replication gap {gap:.3g} >= 1e-6",
        None if rep["dominates"].all() else "wealth fails to dominate")


def _check_rbsde(data, cap):
    n = data.n
    sol = read_csv(cap["rbsde_solution.csv"])
    grid = sol["time"][::n]
    v, k = node_values(sol, "v", n), node_values(sol, "k", n)
    terminal = data.raw.get("terminal")
    if terminal is None:
        terminal = data.payoff(grid)[-1]
    ref, tol, g, scale = _american_reference(data, grid,
                                             np.asarray(terminal, float))
    trace = read_csv(cap["penalization_trace.csv"])
    tol_pen = float(data.raw.get("solver", {}).get("penalization_tol",
                                                   PENALIZATION_TOL))
    last = float(trace["sup_distance"][-1])
    return first_failure(
        max_error("reflected value vs Bermudan", v, ref, tol),
        reflection_properties(v, k, g, slack=1e-8 * scale),
        None if last < tol_pen else
        f"penalization stopped at distance {last:.3g} >= {tol_pen}",
        None if np.all(np.diff(trace["n"]) == trace["n"][:-1]) else
        "penalty levels do not double")


def _american_cli(root, work, seed, steps):
    rng = np.random.default_rng(seed)
    configs = {
        "market_put": root / "configs" / "market_put.yaml",
        "market_regime": root / "configs" / "market_regime.yaml",
        "market_n3": write_yaml(work / "inputs" / "market_n3.yaml",
                                american_n3_config(rng)),
    }
    jobs = {
        "price-american": (("american_solution.csv", "payoff_surface.csv"),
                           _check_price),
        "hedge": (("hedge.csv", "stock_curves.csv", "replication_report.csv"),
                  _check_hedge),
        "solve-rbsde": (("rbsde_solution.csv", "penalization_trace.csv"),
                        _check_rbsde),
    }
    ops = []
    for name, path in configs.items():
        for job, (files, check) in jobs.items():
            out = work / "out" / f"{name}-{job}"
            argv = [job, "--config", str(path), "--out", str(out),
                    "--steps", str(steps)]
            ops.append(_cli_op(f"{job} {name}", argv, out, files,
                               _with_market(check, path)))
    return ops


def _with_market(check, path):
    """check(data, cap), with the config's market read only when checking."""
    return lambda cap: check(MarketData.read(path), cap)


# --------------------------------------------------------------- mc_verify


def mc_multi_piece_config():
    """A three-state market with four generator pieces, off-grid
    breakpoints and a nonzero C, so path simulation restarts at three
    schedule boundaries."""
    rng = np.random.default_rng(MC_INPUT_SEED)
    starts = off_grid_starts(rng, 4, MC_VERIFY_STEPS, lo=0.15, hi=0.85)
    gens = [random_generator(rng, 3) for _ in starts]
    c, ds = discount_market(rng, gens)
    return market_config(starts, gens, c, ds, [],
                         terminal=[float(x) for x in rng.uniform(0.8, 1.2, 3)])


def _check_verify(data, cap):
    from reference import first_order_tol, isometry_expectation, linear_bsde
    rows = read_csv(cap["verify_report.csv"])
    by_name = {name: {k: rows[k][j] for k in ("lhs", "rhs", "std_error")}
               for j, name in enumerate(rows["check_name"])}
    msgs = [None if all(rows["pass"]) else "a verify check failed"]
    z = np.zeros(data.n)
    z[0] = 1.0
    exact, top = isometry_expectation(data.starts, data.gens, data.horizon,
                                      data.x0, z)
    iso = by_name["isometry"]
    # the time integral lies in [0, T top]: its SE is at most T top / 2 sqrt(P)
    se_rhs = data.horizon * top / (2.0 * np.sqrt(MC_PATHS))
    msgs.append(max_error("isometry E int ||z||^2 du", iso["rhs"], exact,
                          3.0 * se_rhs + MC_FLOOR))
    msgs.append(max_error("isometry E (int z dM)^2", iso["lhs"], exact,
                          3.0 * (iso["std_error"] + se_rhs) + MC_FLOOR))
    if "european_consistency" in by_name:
        eur = by_name["european_consistency"]
        claim = np.asarray(data.raw.get("terminal") or np.ones(data.n), float)
        grid = np.linspace(0.0, data.horizon, MC_VERIFY_STEPS + 1)
        mats = data.pricing_mats()
        exact_y = linear_bsde(grid, data.starts, mats, claim)
        value = exact_y[0, data.x0]
        tol = first_order_tol(grid, data.starts, mats, exact_y)
        msgs.append(max_error("European BSDE value", eur["lhs"], value, tol))
        msgs.append(max_error("European Monte Carlo mean", eur["rhs"], value,
                              3.0 * eur["std_error"] + MC_FLOOR))
    return first_failure(*msgs)


def _discounted_check_ops(root):
    """Price the bundled put (set-up), then time the discounted
    optimal-stopping Monte Carlo check on it."""
    path = root / "configs" / "market_put.yaml"
    cfg = config.load_config(path)
    curves = market.stock_curves(cfg.market, steps=MC_CHECK_STEPS)
    payoff = cfg.build_payoff(curves=curves)
    sol = hedge.price_american(cfg.market, payoff, MC_CHECK_STEPS)
    return [_discounted_check_op(path, cfg, payoff, sol, seed_base)
            for seed_base in (0, MC_PATHS)]


def _discounted_check_op(path, cfg, payoff, sol, seed_base):
    def call():
        return hedge.discounted_value_check(cfg.market, payoff, sol, MC_PATHS,
                                            seed_base=seed_base)

    def check(rep):
        data = MarketData.read(path)
        grid = np.linspace(0.0, data.horizon, MC_CHECK_STEPS + 1)
        ref, tol, _, _ = _american_reference(data, grid)
        value = float(ref[0, data.x0])
        return first_failure(
            None if rep["pass"] else "3-SE check against the solver failed",
            None if rep["dominates"] else "deflated value fails to dominate",
            max_error("solver value vs Bermudan", rep["solver_value"], value, tol),
            max_error("discounted Monte Carlo mean vs Bermudan",
                      rep["mc_value"], value,
                      3.0 * rep["std_error"] + tol + MC_FLOOR))

    return Op(label=f"discounted_value_check market_put seed {seed_base}",
              call=call, capture=dict, check=check)


def _mc_verify(root, work):
    configs = {
        "market_put": root / "configs" / "market_put.yaml",
        "market_regime": root / "configs" / "market_regime.yaml",
        "twostate": root / "configs" / "twostate.yaml",
        "multi_piece": write_yaml(work / "inputs" / "multi_piece.yaml",
                                  mc_multi_piece_config()),
    }
    ops = []
    for name, path in configs.items():
        for seed in (0, MC_PATHS):
            out = work / "out" / f"{name}-verify-{seed}"
            argv = ["verify", "--config", str(path), "--out", str(out),
                    "--paths", str(MC_PATHS), "--seed", str(seed),
                    "--steps", str(MC_VERIFY_STEPS)]
            ops.append(_cli_op(f"verify {name} seed {seed}", argv, out,
                               ("verify_report.csv",),
                               _with_market(_check_verify, path)))
    return ops + _discounted_check_ops(root)


# ----------------------------------------------------------- solver_family


@dataclass
class Instance:
    """One seeded solver instance, as plain data plus the package's specs."""

    label: str
    n: int
    starts: list
    gens: list
    driver: tuple        # ("discount", r) | ("affine", a, b) | ("pricing",)
    terminal: np.ndarray
    slope: np.ndarray    # obstacle g(t, i) = terminal_i (1 - slope_i t)
    spec: object
    market: object = None
    cs: list = None
    ds: list = None

    def mats(self):
        """Per-piece matrices of y' = -M y, for the references."""
        from reference import bsde_matrix, gamma
        if self.driver[0] == "pricing":
            return [bsde_matrix(a, ("pricing", gamma(a, c, d)))
                    for a, c, d in zip(self.gens, self.cs, self.ds)]
        return [bsde_matrix(a, self.driver) for a in self.gens]

    def terminal_aug(self):
        from reference import augment
        return augment(self.terminal, self.driver)

    def obstacle_values(self, grid):
        return self.terminal[None, :] * (1.0 - self.slope[None, :] * grid[:, None])


def _make_driver(inst):
    """The package driver of an instance, built inside the timed call."""
    kind = inst.driver[0]
    if kind == "discount":
        return bsde.discount_driver(inst.driver[1])
    if kind == "affine":
        a, b = inst.driver[1], inst.driver[2]
        return bsde.MarkovDriver(evaluate=lambda t, i, y, z: a[i] + b * y,
                                 lipschitz_y=abs(b))
    return hedge.make_hedge_driver(inst.market)


def _make_obstacle(inst):
    term, slope = inst.terminal, inst.slope
    return rbsde.Obstacle(g=lambda t, i: term[i] * (1.0 - slope[i] * t))


def solver_instances(rng):
    """Six instances, N = 1..6, 1-4 pieces with off-grid breakpoints,
    absorbing last states on even N, and discount, affine and pricing
    drivers in turn."""
    out = []
    for idx in range(6):
        n = idx + 1
        n_pieces = 1 + idx % 4
        starts = off_grid_starts(rng, n_pieces, SOLVER_STEPS)
        gens = [random_generator(rng, n, absorbing=idx % 2 == 1)
                for _ in starts]
        kind = ("discount", "affine", "pricing")[idx % 3]
        terminal = rng.uniform(0.98, 1.02, n)
        slope = np.full(n, 0.06)
        spec = chain.build_chain_spec(n, list(zip(starts, gens)), 0, 1.0)
        inst = Instance(label=f"N{n}-{n_pieces}p-{kind}", n=n, starts=starts,
                        gens=gens, driver=(kind,), terminal=terminal,
                        slope=slope, spec=spec)
        if kind == "discount":
            inst.driver = ("discount", float(rng.uniform(0.09, 0.11)))
        elif kind == "affine":
            inst.driver = ("affine", rng.uniform(-0.02, 0.02, n),
                           float(rng.uniform(-0.11, -0.09)))
        else:
            c, ds = discount_market(rng, gens, rate=0.05)
            inst.cs, inst.ds = [c] * len(gens), ds
            inst.market = market.build_market_spec(
                spec, c_schedule=[(0.0, c)], d_schedule=list(zip(starts, ds)))
        out.append(inst)
    return out


def stiff_instance():
    """Two states with rates 1e4 on 100 steps (dt * rate = 100), a
    discount driver, terminal (1, 0) and the obstacle (1 - t, 0)."""
    a = np.array([[-1e4, 1e4], [1e4, -1e4]])
    spec = chain.build_chain_spec(2, a, 0, 1.0)
    return Instance(label="stiff", n=2, starts=[0.0], gens=[a],
                    driver=("discount", 0.1), terminal=np.array([1.0, 0.0]),
                    slope=np.array([1.0, 1.0]), spec=spec)


def _grid():
    return np.linspace(0.0, 1.0, SOLVER_STEPS + 1)


def _bsde_ops(inst, **kw):
    def check(values):
        from reference import first_order_tol, linear_bsde
        grid = _grid()
        mats = inst.mats()
        ref = linear_bsde(grid, inst.starts, mats, inst.terminal_aug())
        return max_error("BSDE vs exact", values, ref[:, :inst.n],
                         first_order_tol(grid, inst.starts, mats, ref))

    ops = []
    for scheme in ("explicit_rk4", "implicit_euler"):
        def call(scheme=scheme):
            return bsde.solve_bsde(inst.spec, _make_driver(inst), inst.terminal,
                                   SOLVER_STEPS, scheme=scheme)
        ops.append(Op(f"solve_bsde {scheme} {inst.label}", call,
                      lambda sol: sol.values.copy(), check, **kw))
    return ops


def _bermudan_ref(inst):
    from reference import bermudan, first_order_tol
    grid = _grid()
    mats = inst.mats()
    ref = bermudan(grid, inst.starts, mats, inst.terminal_aug(),
                   inst.obstacle_values(grid), inst.n)
    return ref, first_order_tol(grid, inst.starts, mats, ref), grid


def _reflected_op(inst, **kw):
    def call():
        return rbsde.solve_reflected(inst.spec, _make_driver(inst), inst.terminal,
                                     _make_obstacle(inst), SOLVER_STEPS)

    def check(cap):
        ref, tol, grid = _bermudan_ref(inst)
        return first_failure(
            max_error("reflected vs Bermudan", cap["v"], ref, tol),
            reflection_properties(cap["v"], cap["k"], inst.obstacle_values(grid)))

    return Op(f"solve_reflected {inst.label}", call,
              lambda sol: {"v": sol.values.copy(), "k": sol.k.values.copy()},
              check, **kw)


def _penalization_op(inst):
    def call():
        return rbsde.penalization_limit(inst.spec, _make_driver(inst),
                                        inst.terminal, _make_obstacle(inst),
                                        SOLVER_STEPS, PENALIZATION_TOL)

    def capture(sol):
        return {"v": sol.values.copy(), "k": sol.k.values.copy(),
                "trace": np.array(sol.penalization_trace)}

    def check(cap):
        ref, tol, _ = _bermudan_ref(inst)
        k = cap["k"]
        return first_failure(
            max_error("penalization vs Bermudan", cap["v"], ref,
                      tol + 4.0 * PENALIZATION_TOL),
            None if cap["trace"][-1, 1] < PENALIZATION_TOL else
            "penalization stopped above tolerance",
            None if np.all(k[0] == 0.0) and np.all(np.diff(k, axis=0) >= 0.0)
            else "k(0) != 0 or k decreases")

    return Op(f"penalization_limit {inst.label}", call, capture, check)


def _comparison_op(inst, rng):
    """Two ordered affine drivers f1 <= f2 and terminals xi1 <= xi2."""
    n = inst.n
    a1 = rng.uniform(-0.2, 0.2, n)
    a2 = a1 + rng.uniform(0.0, 0.1, n)
    b = float(rng.uniform(-0.3, 0.1))
    t1 = inst.terminal
    t2 = t1 + rng.uniform(0.0, 0.1, n)

    def call():
        d1 = bsde.MarkovDriver(evaluate=lambda t, i, y, z: a1[i] + b * y,
                               lipschitz_y=abs(b))
        d2 = bsde.MarkovDriver(evaluate=lambda t, i, y, z: a2[i] + b * y,
                               lipschitz_y=abs(b))
        return bsde.comparison_check(inst.spec, d1, t1, d2, t2, SOLVER_STEPS)

    def check(rep):
        from reference import augment, bsde_matrix, linear_bsde
        grid = _grid()
        ys = [linear_bsde(grid, inst.starts,
                          [bsde_matrix(g, ("affine", a, b)) for g in inst.gens],
                          augment(t, ("affine", a, b)))[:, :n]
              for a, t in ((a1, t1), (a2, t2))]
        return first_failure(
            None if np.all(ys[0] <= ys[1] + 1e-12) else
            "exact solutions are not ordered",
            None if rep["holds"] and rep["max_violation"] <= 1e-9 else
            f"comparison fails, violation {rep['max_violation']:.3g}")

    return Op(f"comparison_check {inst.label}", call, dict, check)


STIFF_FAULT = ("a stiff chain (dt * rate = 100) returns a huge finite value "
               "instead of raising")


def _solver_family(seed):
    rng = np.random.default_rng(seed)
    ops = []
    for inst in solver_instances(rng):
        ops += _bsde_ops(inst)
        ops.append(_reflected_op(inst))
        ops.append(_penalization_op(inst))
        ops.append(_comparison_op(inst, rng))
    stiff = stiff_instance()
    rk4, implicit = _bsde_ops(stiff, may_raise=True)
    implicit.known_fault = STIFF_FAULT
    ops += [rk4, implicit,
            _reflected_op(stiff, may_raise=True, known_fault=STIFF_FAULT)]
    return ops
