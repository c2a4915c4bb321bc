"""The linear pricing path: drivers with an affine form are stepped by
per-piece matrices and closed-form implicit steps. Checked against the
callback path of the same driver and against exact per-piece matrix
exponentials computed here from the model's equations."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from markovbsde import (MarkovDriver, Obstacle, build_chain_spec, build_market_spec,
                        penalization_limit, solve_bsde, solve_reflected)
from markovbsde.bsde import (AffineForm, _callback_step, _linear_implicit,
                            _linear_pieces, _scalar_implicit, zero_driver)
from markovbsde.chain import affine_rk4, sweep
from markovbsde.config import load_config
from markovbsde.errors import NonFiniteError
from markovbsde.grids import interp, uniform_grid
from markovbsde.hedge import hedge_driver, make_hedge_driver
from markovbsde.market import stock_curves
from markovbsde.rbsde import penalized_driver

import step_reference as ref
from conftest import expm

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
PIECES = CONFIGS / "market_pieces.yaml"


def gamma_t(a, c, d):
    """Gamma' entry by entry: Gamma_ii = A_ii - D_i, Gamma_ij = A_ij e^(C_jj - C_ji)."""
    n = a.shape[0]
    gamma = np.array([[a[i, j] - d[i] if i == j else a[i, j] * np.exp(c[j, j] - c[j, i])
                       for j in range(n)] for i in range(n)])
    return gamma.T


def exact_pricing(grid, schedules, terminal):
    """y' = -Gamma'(t) y backward from y(T) = terminal, exactly: per grid
    step, the product of e^(Gamma'_p h) over the pieces p it meets. Each
    schedule is (starts, values) for A, C and D."""
    starts = sorted({s for st_, _ in schedules for s in st_})

    def in_force(t):
        return [vals[max(i for i, s in enumerate(st_) if s <= t)] for st_, vals in schedules]

    out = np.empty((grid.size, len(terminal)))
    out[-1] = terminal
    for k in range(grid.size - 2, -1, -1):
        cuts = [grid[k], *[s for s in starts if grid[k] < s < grid[k + 1]], grid[k + 1]]
        y = out[k + 1]
        for j in range(len(cuts) - 2, -1, -1):
            a, b = cuts[j], cuts[j + 1]
            y = expm(gamma_t(*in_force(a)) * (b - a)) @ y
        out[k] = y
    return out


def config_schedules(path):
    """The A, C and D schedules of a config file as (starts, values)."""
    raw = yaml.safe_load(Path(path).read_text())
    out = []
    for section, key, field in (("chain", "generator_schedule", "matrix"),
                                ("market", "C_schedule", "matrix"),
                                ("market", "D_schedule", "vector")):
        entries = raw[section][key]
        out.append(([e["start"] for e in entries],
                    [np.array(e[field], dtype=float) for e in entries]))
    return out, np.array(raw["terminal"], dtype=float)


@pytest.mark.filterwarnings("ignore:z-Lipschitz contraction fails")
def test_pricing_bsde_is_fourth_order_across_market_breakpoints():
    cfg = load_config(PIECES)
    schedules, terminal = config_schedules(PIECES)
    errs = []
    for steps in (50, 100, 200):
        sol = solve_bsde(cfg.chain, make_hedge_driver(cfg.market), terminal, steps)
        exact = exact_pricing(sol.grid, schedules, terminal)
        errs.append(float(np.abs(sol.values - exact).max()))
    assert errs[0] / errs[1] >= 12.0 and errs[1] / errs[2] >= 12.0, errs


def random_market(rng, n, starts=(0.0,), c_starts=(0.0,), d_starts=(0.0,), stocks=0):
    """A market on an n-state chain with absorbing states, one generator per
    entry of ``starts``, C and D schedules on their own starts, and
    ``stocks`` dividend vectors. As C >= 0 off the diagonal, every short
    rate is at least its D entry."""
    gens = []
    for _ in starts:
        a = rng.uniform(0.2, 2.0, size=(n, n))
        a[:, rng.uniform(size=n) < 0.3] = 0.0  # absorbing states
        np.fill_diagonal(a, 0.0)
        np.fill_diagonal(a, -a.sum(axis=0))
        gens.append(a)
    cs = []
    for _ in c_starts:
        c = rng.uniform(0.0, 0.03, size=(n, n))
        np.fill_diagonal(c, 0.0)
        cs.append(c)
    ds = [rng.uniform(0.01, 0.1, n) for _ in d_starts]
    chain = build_chain_spec(n, list(zip(starts, gens)), 0, 1.0)
    market = build_market_spec(chain, c_schedule=list(zip(c_starts, cs)),
                               d_schedule=list(zip(d_starts, ds)), r_max=10.0,
                               dividends=rng.uniform(0.5, 2.0, (stocks, n)) if stocks else ())
    return market, [(list(starts), gens), (list(c_starts), cs), (list(d_starts), ds)]


def sup_rel(a, b):
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))


@pytest.mark.filterwarnings("ignore:z-Lipschitz contraction fails")
@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 5), pieces=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_affine_path_equals_callback_path(n, pieces, seed):
    """On one piece, or with off-grid A, C and D breakpoints for the schemes
    that take each step's coefficients at a node (implicit Euler, the
    reflected sweep and penalization); the callback path's RK4 reads the
    pricing driver at its stage times, which is only right on one piece."""
    rng = np.random.default_rng(seed)
    starts = [off_grid(rng, 1, 40) if pieces else (0.0,) for _ in "ACD"]
    market, _ = random_market(rng, n, *starts)
    driver = make_hedge_driver(market)
    callback = replace(driver, affine=None)
    terminal = rng.uniform(0.8, 1.2, n)
    level, slope = terminal * rng.uniform(0.7, 1.0, n), rng.uniform(0.0, 0.3, n)
    obstacle = Obstacle(g=lambda t, i: level[i] * (1.0 - slope[i] * t))
    schemes = ["implicit_euler"] if pieces else ["explicit_rk4", "implicit_euler"]
    for scheme in schemes:
        a, b = (solve_bsde(market.chain, d, terminal, 40, scheme=scheme).values
                for d in (driver, callback))
        assert sup_rel(a, b) <= 1e-12
    a, b = (solve_reflected(market.chain, d, terminal, obstacle, 40).values
            for d in (driver, callback))
    assert sup_rel(a, b) <= 1e-12
    a, b = (penalization_limit(market.chain, d, terminal, obstacle, 40, 1e-3)
            for d in (driver, callback))
    assert [m for m, _ in a.penalization_trace] == [m for m, _ in b.penalization_trace]
    assert sup_rel(a.values, b.values) <= 1e-12


def off_grid(rng, count, steps):
    """0.0 and ``count`` sorted starts in (0.1, 0.9), each at least a fifth
    of a step from a grid node."""
    while True:
        pts = np.sort(rng.uniform(0.1, 0.9, count))
        frac = pts * steps - np.round(pts * steps)
        if np.all(np.abs(frac) > 0.2) and np.all(np.diff(pts) > 0.02):
            return (0.0, *pts.tolist())


@pytest.mark.filterwarnings("ignore:z-Lipschitz contraction fails")
@settings(max_examples=15, deadline=None)
@given(n=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_piecewise_market_matches_exponential_reference(n, seed):
    rng = np.random.default_rng(seed)
    steps = 60
    market, schedules = random_market(rng, n, off_grid(rng, 2, steps),
                                      off_grid(rng, 1, steps), off_grid(rng, 1, steps))
    terminal = rng.uniform(0.5, 1.5, n)
    sol = solve_bsde(market.chain, make_hedge_driver(market), terminal, steps)
    exact = exact_pricing(sol.grid, schedules, terminal)
    # RK4's local error is the Taylor remainder (h Gamma')^5 / 5! y
    lip = max(np.linalg.norm(p.gamma, 2) for p in market.pieces)
    tol = (1.0 / steps) ** 4 * lip ** 5 / 120.0 * np.abs(exact).max() + 1e-13
    assert np.abs(sol.values - exact).max() <= tol


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5), penalized=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_closed_form_implicit_step_matches_scalar_solve(n, penalized, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 2.0, size=(n, n))
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, -a.sum(axis=0))
    spec = build_chain_spec(n, a, 0, 1.0)
    h = float(rng.uniform(0.001, 0.2))
    form = AffineForm(alpha=rng.uniform(-3.0, 2.0, (1, n)),
                      gz=rng.normal(size=(1, n, n)), beta=rng.normal(size=(1, n)))
    driver = MarkovDriver(evaluate=lambda t, i, y, z: float(
        form.alpha[0, i] * y + form.gz[0, i] @ z + form.beta[0, i]), affine=form)
    if penalized:
        g = rng.normal(size=n)
        obstacle = Obstacle(g=lambda t, i: g[i],
                            values=lambda times: np.tile(g, (times.size, 1)))
        driver = penalized_driver(driver, obstacle, float(rng.uniform(1.0, 1e4)))
    y = rng.normal(size=n)
    got = _linear_implicit(spec, driver.affine, uniform_grid(h, 1))(0, y)
    b = y + h * (a.T @ y)
    want = [_scalar_implicit(driver.evaluate, 0.0, i, b[i], h, y, 1.0) for i in range(n)]
    assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())


# where chain_starts puts each chain breakpoint
KINDS = st.lists(st.sampled_from(["node", "inside", "pair", "last"]), min_size=1, max_size=4)


def chain_starts(rng, kinds, grid):
    """0.0 and a chain breakpoint per kind: on a node, strictly inside a
    step, two strictly inside one step, or strictly inside the last step."""
    steps = grid.size - 1
    starts = {0.0}
    for kind in kinds:
        k = steps - 1 if kind == "last" else int(rng.integers(1, steps - 1))
        if kind == "node":
            starts.add(float(grid[k]))
        else:
            for u in rng.uniform(0.05, 0.95, 2 if kind == "pair" else 1):
                starts.add(float(grid[k] + u * (grid[k + 1] - grid[k])))
    return sorted(starts)


@pytest.mark.filterwarnings("ignore:z-Lipschitz contraction fails")
@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 4), steps=st.integers(3, 30), kinds=KINDS,
       obstacle=st.sampled_from([None, "g", "values"]), seed=st.integers(0, 2 ** 32 - 1))
def test_tabled_implicit_sweep_equals_sub_step_loop(n, steps, kinds, obstacle, seed):
    """The implicit Euler sweep on its sub-step table equals the loop that
    cuts and looks up each sub-step as it goes, bit for bit, plain and
    penalized, with chain breakpoints on nodes, inside steps, two in one
    step and in the last step, and C and D breakpoints of their own."""
    rng = np.random.default_rng(seed)
    grid = uniform_grid(1.0, steps)
    market, _ = random_market(rng, n, chain_starts(rng, kinds, grid),
                              off_grid(rng, 1, steps), off_grid(rng, 1, steps))
    driver = make_hedge_driver(market)
    if obstacle is not None:
        level, slope = rng.uniform(0.5, 1.5, n), rng.uniform(0.0, 0.5, n)
        values = lambda times: level * (1.0 - slope * np.asarray(times)[:, None])
        g = Obstacle(g=lambda t, i: level[i] * (1.0 - slope[i] * t)) if obstacle == "g" \
            else Obstacle(values=values)
        driver = penalized_driver(driver, g, float(rng.integers(4, 2 ** 20)))
    tabled = _linear_implicit(market.chain, driver.affine, grid)
    looped = ref.linear_implicit(market.chain, driver.affine, grid)
    y = z = rng.uniform(0.5, 1.5, n)
    for k in range(steps - 1, -1, -1):
        y, z = tabled(k, y), looped(k, z)
        assert np.array_equal(y, z), k


@pytest.mark.filterwarnings("ignore:z-Lipschitz contraction fails")
@settings(max_examples=15, deadline=None)
@given(n=st.integers(1, 4), steps=st.integers(3, 30), kinds=KINDS,
       seed=st.integers(0, 2 ** 32 - 1))
def test_penalization_levels_on_one_table_equal_a_solve_per_level(n, steps, kinds, seed):
    """``penalization_limit`` tables an affine driver's implicit steps once
    for all its levels; each level's values, the trace and the result
    equal those of one implicit Euler ``solve_bsde`` per level, bit for
    bit, with chain breakpoints on and off the nodes."""
    rng = np.random.default_rng(seed)
    grid = uniform_grid(1.0, steps)
    market, _ = random_market(rng, n, chain_starts(rng, kinds, grid),
                              off_grid(rng, 1, steps), off_grid(rng, 1, steps))
    driver, terminal = make_hedge_driver(market), rng.uniform(0.8, 1.2, n)
    obstacle = penalty_obstacle(rng, n)
    got = penalization_limit(market.chain, driver, terminal, obstacle, steps, 1e-3)
    prev = None
    for level, dist in [(got.penalization_trace[0][0] // 2, None), *got.penalization_trace]:
        cur = solve_bsde(market.chain, penalized_driver(driver, obstacle, level), terminal,
                         steps, scheme="implicit_euler").values
        if dist is not None:
            assert float(np.abs(cur - prev).max()) == dist
        prev = cur
    assert np.array_equal(got.values, prev)


def penalty_obstacle(rng, n):
    """A callback obstacle below a terminal of about 1, falling in t."""
    level, slope = rng.uniform(0.5, 1.0, n), rng.uniform(0.0, 0.5, n)
    return Obstacle(g=lambda t, i: level[i] * (1.0 - slope[i] * t))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 4), steps=st.integers(3, 20), kinds=KINDS,
       scheme=st.sampled_from(["explicit_rk4", "implicit_euler"]),
       penalized=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_callback_step_on_the_table_equals_sub_step_loop(n, steps, kinds, scheme,
                                                         penalized, seed):
    """The callback RK4 and implicit Euler steps on ``chain.substeps``
    equal the steps that cut and look up each sub-step as they go, bit
    for bit, with chain breakpoints on nodes, inside steps, two in one step
    and in the last step, and C and D breakpoints of the driver's own."""
    rng = np.random.default_rng(seed)
    grid = uniform_grid(1.0, steps)
    market, _ = random_market(rng, n, chain_starts(rng, kinds, grid),
                              off_grid(rng, 1, steps), off_grid(rng, 1, steps))
    driver = replace(make_hedge_driver(market), affine=None)
    if penalized:
        driver = penalized_driver(driver, penalty_obstacle(rng, n), float(rng.integers(1, 50)))
    tabled = _callback_step(market.chain, driver, scheme, grid)
    looped = ref.callback_step(market.chain, driver, scheme, grid)
    y = z = rng.uniform(0.5, 1.5, n)
    for k in range(steps - 1, -1, -1):
        y, z = tabled(k, y), looped(k, z)
        assert np.array_equal(y, z), k


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 4), steps=st.integers(3, 30), kinds=KINDS,
       stocks=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_affine_rk4_equals_rk4_maps(n, steps, kinds, stocks, seed):
    """``chain.affine_rk4`` equals the ``rk4_maps`` matrices on [y; 1] bit
    for bit: with a vector right-hand side, the affine form's steps cut at
    the chain's breakpoints and the form's own off-grid ones; with a matrix
    one, the stock curves cut at the market's."""
    rng = np.random.default_rng(seed)
    grid = uniform_grid(1.0, steps)
    market, _ = random_market(rng, n, chain_starts(rng, kinds, grid),
                              off_grid(rng, 1, steps), off_grid(rng, 1, steps), stocks)
    form = make_hedge_driver(market).affine
    form = replace(form, beta=rng.normal(size=(len(form.starts), n)))
    starts, a_g, alpha, beta = _linear_pieces(market.chain, form)
    mapped = affine_rk4(starts, a_g + alpha[:, :, None] * np.eye(n), beta, grid)
    looped = ref.linear_rk4(market.chain, form, grid)
    y = z = rng.uniform(0.5, 1.5, n)
    for k in range(steps - 1, -1, -1):
        y, z = mapped(k, y), looped(k, z)
        assert np.array_equal(y, z), k
    curves = stock_curves(market, steps=steps).s.transpose(1, 2, 0)
    assert np.array_equal(curves, ref.stock_loop(market, grid, curves[-1]))


@pytest.mark.filterwarnings("ignore:z-Lipschitz contraction fails")
@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 4), steps=st.integers(3, 20), kinds=KINDS,
       driver=st.sampled_from(["affine", "penalized", "callback"]),
       scheme=st.sampled_from(["explicit_rk4", "implicit_euler"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sweep_equals_the_hand_written_loops(n, steps, kinds, driver, scheme, seed):
    """``solve_bsde`` on ``chain.sweep`` equals the loop that checked every
    step, over the reference step of each driver and scheme, and a sweep
    with a floor equals the reflected loop, values and pushes, bit for bit."""
    rng = np.random.default_rng(seed)
    grid = uniform_grid(1.0, steps)
    market, _ = random_market(rng, n, chain_starts(rng, kinds, grid),
                              off_grid(rng, 1, steps), off_grid(rng, 1, steps))
    drv = make_hedge_driver(market)
    if driver == "callback":
        drv = replace(drv, affine=None)
    elif driver == "penalized":
        drv = penalized_driver(drv, penalty_obstacle(rng, n), float(rng.integers(1, 50)))
    chain = market.chain
    if drv.affine is not None and scheme == "implicit_euler":
        step = ref.linear_implicit(chain, drv.affine, grid)
    elif driver == "affine":
        step = ref.linear_rk4(chain, drv.affine, grid)
    else:
        step = ref.callback_step(chain, drv, scheme, grid)
    terminal = rng.uniform(0.8, 1.2, n)
    got = solve_bsde(chain, drv, terminal, steps, scheme=scheme).values
    assert np.array_equal(got, ref.bsde_loop(step, terminal, grid))
    floor = rng.uniform(0.5, 1.5, (steps + 1, n))
    got = sweep(step, terminal, grid, "blow-up", floor=floor)
    want = ref.reflected_loop(step, terminal, floor, grid)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_closed_form_implicit_step_rejects_non_positive_denominator():
    spec = build_chain_spec(1, [[0.0]], 0, 1.0)
    driver = MarkovDriver(evaluate=lambda t, i, y, z: 20.0 * y,
                          affine=AffineForm(alpha=20.0))
    with pytest.raises(NonFiniteError):
        solve_bsde(spec, driver, np.ones(1), 10, scheme="implicit_euler")


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_evaluate_read_off_the_form_is_the_pricing_driver(n, seed):
    """A driver given only its affine form evaluates f from it: for the
    pricing driver's form that is the paper's -r v + r z_i - ((A' - Gamma') z)_i,
    on every piece and at the breakpoints themselves."""
    rng = np.random.default_rng(seed)
    market, _ = random_market(rng, n, *(off_grid(rng, 1, 40) for _ in "ACD"))
    driver = MarkovDriver(affine=make_hedge_driver(market).affine)
    times = [*market.piece_starts, *rng.uniform(0.0, 1.0, 10)]
    for t in times:
        i = int(rng.integers(n))
        y, z = rng.normal(), rng.normal(size=n)
        want = hedge_driver(market, t, i, y, z)
        assert abs(driver.evaluate(t, i, y, z) - want) <= 1e-13 * (1.0 + abs(want))
    assert zero_driver().evaluate(0.5, 0, 2.0, np.ones(n)) == 0.0


def test_config_kinds_read_f_and_g_off_their_array_forms(tmp_path):
    """The config's constant and affine drivers evaluate the YAML's f, and
    its affine and put payoffs sample the YAML's g, one time at a time."""
    raw = yaml.safe_load((CONFIGS / "market_regime.yaml").read_text())
    cfg = load_config(CONFIGS / "market_regime.yaml")
    z = np.array([0.3, -0.2])
    for driver, f in (({"kind": "constant", "value": 0.7}, lambda i, y: 0.7),
                      ({"kind": "affine", "a": [0.1, -0.2], "b": -0.5},
                       lambda i, y: [0.1, -0.2][i] - 0.5 * y)):
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump({**raw, "driver": driver}))
        built = load_config(path).build_driver()
        for t, i, y in ((0.0, 0, 1.5), (0.4, 1, -2.0), (1.0, 1, 0.25)):
            assert built.evaluate(t, i, y, z) == f(i, y)
    affine = cfg.build_payoff()
    put = load_config(CONFIGS / "market_put.yaml")
    curves = stock_curves(put.market, steps=50)
    put_payoff = put.build_payoff(curves)
    strike = yaml.safe_load((CONFIGS / "market_put.yaml").read_text())["payoff"]["strike"]
    for t in (0.0, 0.013, 0.5, 1.0):
        for i in range(2):
            assert affine.g(t, i) == [0.4, 0.6][i]
            assert put_payoff.g(t, i) == max(strike - float(interp(curves.grid, curves.s[0], [t])[0, i]), 0.0)


def test_replace_reads_f_and_g_off_the_new_form():
    """A copy made by dataclasses.replace with a new form or new values
    evaluates f or g from them; a callback given by the user stays."""
    z = np.array([0.5, -1.0])
    driver = MarkovDriver(affine=AffineForm(beta=1.0))
    moved = replace(driver, affine=AffineForm(alpha=[0.5, 0.25], beta=2.0))
    assert driver.evaluate(0.3, 1, 4.0, z) == 1.0
    assert moved.evaluate(0.3, 1, 4.0, z) == 0.25 * 4.0 + 2.0
    assert replace(moved, lipschitz_y=1.0).evaluate(0.3, 0, 4.0, z) == 4.0
    own = replace(MarkovDriver(evaluate=lambda t, i, y, z: -y, affine=AffineForm(beta=1.0)),
                  affine=AffineForm(beta=2.0))
    assert own.evaluate(0.3, 0, 4.0, z) == -4.0
    obstacle = Obstacle(values=lambda times: np.full((times.size, 2), 1.0))
    raised = replace(obstacle, values=lambda times: np.column_stack([times, 2.0 * times]))
    assert obstacle.g(0.5, 1) == 1.0
    assert raised.g(0.5, 1) == 1.0 and raised.g(0.25, 0) == 0.25
    assert raised.sample([0.25], 2).tolist() == [[0.25, 0.5]]
    kept = replace(Obstacle(g=lambda t, i: 3.0, values=obstacle.values),
                   values=raised.values)
    assert kept.g(0.5, 1) == 3.0
