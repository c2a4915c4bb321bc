"""The linear pricing path: drivers with an affine form are stepped by
per-piece matrices and closed-form implicit steps. Checked against the
callback path of the same driver and against exact per-piece matrix
exponentials computed here from the model's equations."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from markovbsde import (MarkovDriver, Obstacle, bsde, build_chain_spec, build_market_spec,
                        chain, penalization_limit, solve_bsde, solve_reflected)
from markovbsde.bsde import (AffineForm, _callback_step, _form_maps, _levels, _linear_pieces,
                            _obstacle_rows, _scalar_implicit, zero_driver)
from markovbsde.chain import (_POLICIES, _steady, affine_rk4, check_contraction,
                              pseudoinverse, rate_bound_m, solve_floored, substeps, sweep)
from markovbsde.config import load_config
from markovbsde.errors import NonFiniteError
from markovbsde.grids import interp, uniform_grid
from markovbsde.hedge import driver_constants, make_hedge_driver
from markovbsde.market import gamma_matrix, sigma_matrix, stock_curves
from markovbsde.rbsde import solve_penalized

import step_reference as ref
from conftest import expm, pricing_callback, pricing_f

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


def random_market(rng, n, starts=(0.0,), c_starts=(0.0,), d_starts=(0.0,), stocks=0,
                  c_high=0.03):
    """A market on an n-state chain with absorbing states, one generator per
    entry of ``starts``, C and D schedules on their own starts, C off the
    diagonal up to ``c_high``, and ``stocks`` dividend vectors. As C >= 0
    off the diagonal, every short rate is at least its D entry; with
    ``c_high`` up to 1 it stays below 10, the market's r_max."""
    gens = []
    for _ in starts:
        a = rng.uniform(0.2, 2.0, size=(n, n))
        a[:, rng.uniform(size=n) < 0.3] = 0.0  # absorbing states
        np.fill_diagonal(a, 0.0)
        np.fill_diagonal(a, -a.sum(axis=0))
        gens.append(a)
    cs = []
    for _ in c_starts:
        c = rng.uniform(0.0, c_high, size=(n, n))
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


def rounding_bound(steps, values):
    """The bound on the gap between an affine solve on maps (``chain.scan``,
    and the policy solve of ``chain.solve_floored``) and the loop over the
    same steps: 32 ceil(log2(K + 1)) eps times the largest |value|. The
    scan groups its products of maps in about 2 log2 K levels, each adding
    rounding of a few eps of that scale; the loop adds its own, which grows
    like sqrt(K) eps. Over 300 random instances of
    ``test_scan_and_policy_solves_equal_the_loops`` the gap stayed below
    12 log2(K) eps times that scale."""
    return 32 * np.ceil(np.log2(steps + 1)) * np.finfo(float).eps * np.abs(values).max()


def implicit_maps(chain, form, grid, obstacle):
    """(times, first, maps): the sub-step table of ``grid`` at the chain's
    breakpoints and ``bsde._form_maps``' implicit Euler maps on it, with the
    obstacle's rows there if given."""
    times, first = substeps(chain.breakpoints(), grid)
    rows = None if obstacle is None else _obstacle_rows(obstacle, chain.n_states, times, first,
                                                        obstacle.sample(grid, chain.n_states))
    return times, first, _form_maps(chain, form, "implicit_euler", times, rows)


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
    callback = pricing_callback(market)
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
    lip = max(np.linalg.norm(gamma, 2) for gamma in market.gamma)
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
    h = float(rng.uniform(0.001, 0.2))
    spec = build_chain_spec(n, a, 0, 2 * h)
    form = AffineForm(alpha=rng.uniform(-3.0, 2.0, (1, n)),
                      gz=rng.normal(size=(1, n, n)), beta=rng.normal(size=(1, n)))
    driver = MarkovDriver(evaluate=lambda t, i, y, z: float(
        form.alpha[0, i] * y + form.gz[0, i] @ z + form.beta[0, i]), affine=form)
    obstacle, level = None, 0.0
    if penalized:
        g = rng.normal(size=n)
        obstacle = Obstacle(g=lambda t, i: g[i],
                            values=lambda times: np.tile(g, (times.size, 1)))
        level = float(rng.uniform(1.0, 1e4))
        driver = ref.penalized_driver(driver, obstacle, level)
    y = rng.normal(size=n)
    # the step from y at 2h of two steps on [0, 2h], under g below the horizon and an
    # obstacle no higher than y at it, which the step does not read
    if penalized:
        obstacle = Obstacle(values=lambda times: np.where(times[:, None] < 2 * h, g,
                                                          np.minimum(g, y)))
    got = _levels(spec, MarkovDriver(affine=form), "implicit_euler", y, 2,
                  obstacle)[2](level)[0][1]
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
       obstacle=st.sampled_from([None, "g", "values"]),
       scheme=st.sampled_from(["implicit_euler", "reflected"]), seed=st.integers(0, 2 ** 32 - 1))
def test_tabled_implicit_sweep_equals_sub_step_loop(n, steps, kinds, obstacle, scheme, seed):
    """The implicit Euler solve on the maps of its sub-step table equals the
    loop that cuts and looks up each sub-step as it goes, to the
    ``rounding_bound``, plain and penalized, with chain breakpoints on
    nodes, inside steps, two in one step and in the last step, and C and D
    breakpoints of their own. Step by step, each table step's map (the
    larger of its pair, penalized) on the loop's value at its top equals
    the loop's step to 4 (N + 1) eps times the larger |value| of the two
    ends: a few roundings of a product of N + 1 terms on either side (over
    3000 random draws the gap stayed below 2 eps times that scale). The
    same holds for the reflected scheme on the grid, always under an
    obstacle: its solve against ``reflected_loop``, values and pushes, and
    each step's predictor map, raised to g, against the loop's step (over
    600 draws the gap stayed below (N + 1) eps / 2 times that scale)."""
    rng = np.random.default_rng(seed)
    grid = uniform_grid(1.0, steps)
    market, _ = random_market(rng, n, chain_starts(rng, kinds, grid),
                              off_grid(rng, 1, steps), off_grid(rng, 1, steps))
    form, g, penalty = make_hedge_driver(market).affine, None, 0.0
    if obstacle is not None or scheme == "reflected":
        level, slope = rng.uniform(0.5, 1.5, n), rng.uniform(0.0, 0.5, n)
        values = lambda times: level * (1.0 - slope * np.asarray(times)[:, None])
        g = Obstacle(g=lambda t, i: level[i] * (1.0 - slope[i] * t)) if obstacle == "g" \
            else Obstacle(values=values)
        penalty = float(rng.integers(4, 2 ** 20))
    top = rng.uniform(0.5, 1.5, n)
    eps = np.finfo(float).eps
    if scheme == "reflected":
        rows = g.sample(grid, n)
        top = np.maximum(top, rows[-1])
        sol = solve_reflected(market.chain, MarkovDriver(affine=form), top, g, steps)
        want, pushes = ref.reflected_loop(ref.linear_euler(market.chain, form, grid), top, rows,
                                          grid)
        bound = rounding_bound(steps, want)
        assert np.abs(sol.values - want).max() <= bound
        assert np.abs(sol.step_pushes - pushes).max() <= bound
        pred = _form_maps(market.chain, form, "reflected", grid, rows)(np.arange(grid.size))[0]
        stepped = np.maximum((pred[..., :n] @ want[1:, :, None])[..., 0] + pred[..., n], rows[:-1])
        scale = np.maximum(np.abs(want[1:]), np.abs(want[:-1])).max(axis=1, keepdims=True)
        assert np.all(np.abs(stepped - want[:-1]) <= 4 * (n + 1) * eps * scale)
        return
    if g is not None:  # the terminal no lower than the obstacle at the horizon
        top = np.maximum(top, g.terminal(1.0, n))
    got = _levels(market.chain, MarkovDriver(affine=form), "implicit_euler", top, steps,
                  g)[2](penalty)[0]
    want = ref.bsde_loop(ref.linear_implicit(market.chain, form, grid, g, penalty), top, grid)
    assert np.abs(got - want).max() <= rounding_bound(steps, want)

    # the loop on the table times makes one sub-step per table step
    times, _, maps = implicit_maps(market.chain, form, grid, g)
    each = np.arange(times.size)
    table = ref.bsde_loop(ref.linear_implicit(market.chain, form, times, g, penalty), top, times)
    pair = maps(each)[None] if g is None else maps(each, penalty)
    stepped = ((pair[..., :n] @ table[1:, :, None])[..., 0] + pair[..., n]).max(axis=0)
    scale = np.maximum(np.abs(table[1:]), np.abs(table[:-1])).max(axis=1, keepdims=True)
    assert np.all(np.abs(stepped - table[:-1]) <= 4 * (n + 1) * eps * scale)


@pytest.mark.filterwarnings("ignore:z-Lipschitz contraction fails")
@settings(max_examples=15, deadline=None)
@given(n=st.integers(1, 4), steps=st.integers(3, 30), kinds=KINDS,
       seed=st.integers(0, 2 ** 32 - 1))
def test_penalization_levels_on_one_table_equal_a_solve_per_level(n, steps, kinds, seed):
    """``penalization_limit`` tables an affine driver's implicit steps once
    for all its levels; each level's values, the trace and the result
    equal those of one implicit Euler ``solve_penalized`` per level, bit
    for bit, with chain breakpoints on and off the nodes."""
    rng = np.random.default_rng(seed)
    grid = uniform_grid(1.0, steps)
    market, _ = random_market(rng, n, chain_starts(rng, kinds, grid),
                              off_grid(rng, 1, steps), off_grid(rng, 1, steps))
    driver, terminal = make_hedge_driver(market), rng.uniform(0.8, 1.2, n)
    obstacle = penalty_obstacle(rng, n)
    terminal = np.maximum(terminal, obstacle.terminal(1.0, n))  # g(T) at most the terminal
    got = penalization_limit(market.chain, driver, terminal, obstacle, steps, 1e-3)
    prev = None
    for level, dist in [(got.penalization_trace[0][0] // 2, None), *got.penalization_trace]:
        sol = solve_penalized(market.chain, driver, terminal, obstacle, level, steps)
        assert sol.scheme == "implicit_euler"
        cur = sol.values
        if dist is not None:
            assert float(np.abs(cur - prev).max()) == dist
        prev = cur
    assert np.array_equal(got.values, prev)


def test_penalization_limit_checks_contraction_once(monkeypatch):
    """The tabled levels share one run of ``solve_bsde``'s checks, whose
    contraction warning is issued once."""
    rng = np.random.default_rng(3)
    market, _ = random_market(rng, 3, [0.0, 0.4], [0.0], [0.0])
    obstacle = penalty_obstacle(rng, 3)
    calls = []

    def counted(*args):
        calls.append(args)
        return {"holds": False, "worst_margin": -1.0, "worst_time_state": (0.0, 0)}

    monkeypatch.setattr(bsde, "check_contraction", counted)
    with pytest.warns(RuntimeWarning, match="contraction fails") as caught:
        got = penalization_limit(market.chain, make_hedge_driver(market),
                                 obstacle.terminal(1.0, 3), obstacle, 40, 1e-3)
    assert len(got.penalization_trace) > 1 and len(calls) == 1 and len(caught) == 1


def penalty_obstacle(rng, n):
    """A callback obstacle below a terminal of about 1, falling in t."""
    level, slope = rng.uniform(0.5, 1.0, n), rng.uniform(0.0, 0.5, n)
    return Obstacle(g=lambda t, i: level[i] * (1.0 - slope[i] * t))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 4), steps=st.integers(3, 20), kinds=KINDS,
       case=st.sampled_from([("explicit_rk4", False), ("implicit_euler", False),
                             ("implicit_euler", True)]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_callback_step_on_the_table_equals_sub_step_loop(n, steps, kinds, case, seed):
    """The callback RK4 and implicit Euler steps of ``chain.substeps``'
    table, one ``chain.sweep`` call each, equal at every node the steps
    that cut and look up each sub-step as they go, bit for bit, with chain
    breakpoints on nodes, inside steps, two in one step and in the last
    step, and C and D breakpoints of the driver's own; penalized, under
    implicit Euler, the scheme of every penalized solve, as the reference's
    plain step solved again below the obstacle."""
    scheme, penalized = case
    rng = np.random.default_rng(seed)
    grid = uniform_grid(1.0, steps)
    market, _ = random_market(rng, n, chain_starts(rng, kinds, grid),
                              off_grid(rng, 1, steps), off_grid(rng, 1, steps))
    driver = pricing_callback(market)
    obstacle, level = None, 0.0
    if penalized:
        obstacle, level = penalty_obstacle(rng, n), float(rng.integers(1, 50))
    times, first = substeps(market.chain.breakpoints(), grid)
    tabled = _callback_step(market.chain, driver, scheme, times,
                            None if obstacle is None else
                            _obstacle_rows(obstacle, n, times, first, obstacle.sample(grid, n)),
                            level)
    looped = ref.callback_step(market.chain, driver, scheme, grid, obstacle, level)
    top = rng.uniform(0.5, 1.5, n)
    got = sweep(tabled, top, times, first, "blow-up")[first]
    assert np.array_equal(got, ref.bsde_loop(looped, top, grid))


@pytest.mark.filterwarnings("ignore:z-Lipschitz contraction fails")
@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 4), steps=st.integers(3, 20), kinds=KINDS,
       log_level=st.floats(0.0, 4.0), seed=st.integers(0, 2 ** 32 - 1))
def test_penalized_callback_solve_is_the_penalized_driver_solve(n, steps, kinds, log_level,
                                                                 seed):
    """A callback ``solve_penalized`` at a level from 1 to 1e4, whose steps
    are the plain step solved again below g, agrees within 1e-12 with the
    implicit Euler loop of f + n (g - y)^+ as one callback
    (``penalized_driver``), with chain breakpoints on and between nodes,
    off-grid C and D pieces and an obstacle that crosses the values. From
    the same top value, each penalized step is the plain step, bit for bit,
    where that is at or above the obstacle's row, and lies between the
    plain step and the row below it."""
    rng = np.random.default_rng(seed)
    grid = uniform_grid(1.0, steps)
    market, _ = random_market(rng, n, chain_starts(rng, kinds, grid),
                              off_grid(rng, 1, steps), off_grid(rng, 1, steps))
    driver, level = pricing_callback(market), 10.0 ** log_level
    base, slope = rng.uniform(0.3, 1.5, n), rng.uniform(-0.8, 0.8, n)
    obstacle = Obstacle(g=lambda t, i: base[i] + slope[i] * t)
    terminal = np.maximum(rng.uniform(0.5, 1.5, n), obstacle.terminal(1.0, n))
    got = solve_penalized(market.chain, driver, terminal, obstacle, level, steps).values
    want = ref.bsde_loop(ref.callback_step(market.chain, ref.penalized_driver(
        driver, obstacle, level), "implicit_euler", grid), terminal, grid)
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
    times, first = substeps(market.chain.breakpoints(), grid)
    rows = _obstacle_rows(obstacle, n, times, first, obstacle.sample(grid, n))
    penalized = _callback_step(market.chain, driver, "implicit_euler", times, rows, level)
    plain = _callback_step(market.chain, driver, "implicit_euler", times)
    table = sweep(penalized, terminal, times, first, "blow-up")
    for s in range(times.size - 1):
        v0, v = np.array(plain(s, table[s + 1])), np.array(penalized(s, table[s + 1]))
        above = v0 >= rows[s]
        assert np.array_equal(v[above], v0[above])
        assert np.all(((v0 <= v) & (v <= rows[s]))[~above])


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 4), steps=st.integers(3, 30), kinds=KINDS,
       stocks=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_affine_rk4_equals_rk4_maps(n, steps, kinds, stocks, seed):
    """``chain.affine_rk4`` equals the ``rk4_maps`` matrices on [y; 1] bit
    for bit, for the affine form's steps cut at the chain's breakpoints and
    the form's own off-grid ones; its solves on ``chain.scan`` equal the
    loops over those matrices to the ``rounding_bound``: with a vector
    right-hand side, the affine BSDE, and with a matrix one, the stock
    curves cut at the market's breakpoints."""
    rng = np.random.default_rng(seed)
    grid = uniform_grid(1.0, steps)
    market, _ = random_market(rng, n, chain_starts(rng, kinds, grid),
                              off_grid(rng, 1, steps), off_grid(rng, 1, steps), stocks)
    form = make_hedge_driver(market).affine
    form = replace(form, beta=rng.normal(size=(len(form.starts), n)))
    starts, a_g, alpha, beta = _linear_pieces(market.chain, form)
    mapped = affine_rk4(starts, a_g + alpha[:, :, None] * np.eye(n), beta, grid)
    aug = np.zeros((len(starts), n + 1, n + 1))
    aug[:, :n, :n] = a_g + alpha[:, :, None] * np.eye(n)
    aug[:, :n, n] = beta
    maps, which = ref.rk4_maps(starts, aug, grid)
    assert np.array_equal(mapped, maps[which, :n])
    top = rng.uniform(0.5, 1.5, n)
    got = solve_bsde(market.chain, MarkovDriver(affine=form), top, steps).values
    want = ref.bsde_loop(ref.linear_rk4(market.chain, form, grid), top, grid)
    assert np.abs(got - want).max() <= rounding_bound(steps, want)
    curves = stock_curves(market, steps=steps).s.transpose(1, 2, 0)
    want = ref.stock_loop(market, grid, curves[-1])
    assert np.abs(curves - want).max() <= rounding_bound(steps, want)


@pytest.mark.filterwarnings("ignore:z-Lipschitz contraction fails")
@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 4), steps=st.integers(3, 20), kinds=KINDS,
       case=st.sampled_from([("affine", "explicit_rk4"), ("affine", "implicit_euler"),
                             ("penalized", "implicit_euler"), ("callback", "explicit_rk4"),
                             ("callback", "implicit_euler")]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sweep_equals_the_hand_written_loops(n, steps, kinds, case, seed):
    """``solve_bsde`` equals the loop that checked every step, over the
    reference step of each driver and scheme (a penalized one solved by
    ``bsde._levels`` under implicit Euler, as ``solve_penalized`` is): bit
    for bit where a callback is swept by ``chain.sweep``, to the
    ``rounding_bound`` where an affine form is solved on its maps. The
    reflected sweep of a callback driver equals the reflected loop of its
    explicit Euler predictor, values and pushes, bit for bit."""
    driver, scheme = case
    rng = np.random.default_rng(seed)
    grid = uniform_grid(1.0, steps)
    market, _ = random_market(rng, n, chain_starts(rng, kinds, grid),
                              off_grid(rng, 1, steps), off_grid(rng, 1, steps))
    drv, obstacle, level = make_hedge_driver(market), None, 0.0
    if driver == "callback":
        drv = pricing_callback(market)
    elif driver == "penalized":
        obstacle, level = penalty_obstacle(rng, n), float(rng.integers(1, 50))
    chain = market.chain
    if drv.affine is not None and scheme == "implicit_euler":
        step = ref.linear_implicit(chain, drv.affine, grid, obstacle, level)
    elif driver == "affine":
        step = ref.linear_rk4(chain, drv.affine, grid)
    else:
        step = ref.callback_step(chain, drv, scheme, grid)
    terminal = rng.uniform(0.8, 1.2, n)
    if obstacle is None:
        got = solve_bsde(chain, drv, terminal, steps, scheme=scheme).values
    else:  # the terminal no lower than the obstacle at the horizon
        terminal = np.maximum(terminal, obstacle.terminal(1.0, n))
        got = bsde._levels(chain, drv, scheme, terminal, steps, obstacle)[2](level)[0]
    want = ref.bsde_loop(step, terminal, grid)
    if drv.affine is not None:
        assert np.abs(got - want).max() <= rounding_bound(steps, want)
    else:
        assert np.array_equal(got, want)
    callback, obstacle = pricing_callback(market), penalty_obstacle(rng, n)
    top = np.maximum(terminal, obstacle.terminal(1.0, n))
    sol = solve_reflected(chain, callback, top, obstacle, steps)
    values, pushes = ref.reflected_loop(ref.callback_euler(chain, callback, grid), top,
                                        sol.g, grid)
    assert np.array_equal(sol.values, values) and np.array_equal(sol.step_pushes, pushes)


def test_closed_form_implicit_step_rejects_non_positive_denominator():
    spec = build_chain_spec(1, [[0.0]], 0, 1.0)
    driver = MarkovDriver(evaluate=lambda t, i, y, z: 20.0 * y,
                          affine=AffineForm(alpha=20.0))
    with pytest.raises(NonFiniteError):
        solve_bsde(spec, driver, np.ones(1), 10, scheme="implicit_euler")


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_tables_equal_the_per_piece_loops(n, seed):
    """The market's rate tables, the driver constants, the rate bound and
    the contraction check, each computed over the stacks of pieces at
    once, equal the loops over pieces and states that took one matrix or
    vector at a time, bit for bit."""
    rng = np.random.default_rng(seed)
    market, _ = random_market(rng, n, *(off_grid(rng, 2, 40) for _ in "ACD"), c_high=1.0)
    for k, (a, c, d) in enumerate(zip(market.a, market.c, market.d)):
        sig, gamma = sigma_matrix(c), gamma_matrix(a, c, d)
        assert np.array_equal(market.sigma[k], sig) and np.array_equal(market.gamma[k], gamma)
        assert np.array_equal(market.drift[k], a.T - gamma.T)
        assert market.rates[k].tolist() == [d[i] - sig[i, :] @ a[:, i] for i in range(n)]
    c1 = c4 = c5 = 0.0
    for drift, rates in zip(market.drift, market.rates):
        diff = drift.T  # A - Gamma
        for i, r in enumerate(rates.tolist()):
            vec = diff[:, i].copy()
            vec[i] -= r
            c1, c4 = max(c1, float(np.linalg.norm(diff[:, i]))), max(c4, abs(r))
            c5 = max(c5, float(np.linalg.norm(vec)))
    consts = driver_constants(market)
    assert (consts["c1"], consts["c4"], consts["c5"]) == (c1, c4, c5)
    chain, lip = market.chain, float(rng.uniform(0.0, 0.2))
    m = max(float(np.sqrt(np.trace(a.T @ a))) for a in chain.gens)
    assert rate_bound_m(chain) == m
    margins = [(1.0 - lip * float(np.sqrt(np.trace(p.T @ p))) * np.sqrt(6.0 * m), (start, i))
               for start, psis in zip(chain.starts, chain.psi)
               for i, p in enumerate(pseudoinverse(psi) for psi in psis)]
    report = check_contraction(chain, lip)
    assert (report["worst_margin"], report["worst_time_state"]) == min(margins,
                                                                      key=lambda x: x[0])


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
        want = pricing_f(market, t, i, y, z)
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


def test_driver_and_obstacle_without_f_or_g_are_rejected():
    """A driver with neither f nor a form to read it off, and an obstacle
    with neither g nor values, raise ValueError when made, as does a copy
    that drops the form or the values its f or g was read off."""
    form_only = MarkovDriver(affine=AffineForm(beta=1.0))
    values_only = Obstacle(values=lambda times: np.ones((times.size, 2)))
    for make in (MarkovDriver, Obstacle, lambda: replace(form_only, affine=None),
                 lambda: replace(values_only, values=None)):
        with pytest.raises(ValueError):
            make()


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


@pytest.mark.filterwarnings("ignore:z-Lipschitz contraction fails")
@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), steps=st.integers(3, 300), kinds=KINDS,
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=6, steps=256, kinds=["last", "node", "inside", "last"], seed=6)
def test_scan_and_policy_solves_equal_the_loops(n, steps, kinds, seed):
    """The affine solves on ``chain.scan`` and the floored ones by policy
    iteration equal the loops of ``step_reference`` to the
    ``rounding_bound``, with N = 1..6, absorbing states and
    chain breakpoints on nodes, inside steps, two in one step and in the
    last step: the BSDE under both schemes, the stock curves, the reflected
    sweep (values and pushes) and a penalty level, with a drift beta that
    moves the values across the obstacle. The reflected values are at
    least g and the pushes at least 0 exactly, and each policy solve on
    ``chain._steady`` maps converges within the cap (on the others, as
    at K = 3 with fast rates, it is the sweep: 0 policies)."""
    rng = np.random.default_rng(seed)
    grid = uniform_grid(1.0, steps)
    market, _ = random_market(rng, n, chain_starts(rng, kinds, grid),
                              off_grid(rng, 1, steps), off_grid(rng, 1, steps), stocks=2)
    chain = market.chain
    form = replace(make_hedge_driver(market).affine,
                   beta=rng.normal(size=(len(market.piece_starts), n)))
    driver, terminal = MarkovDriver(affine=form), rng.uniform(0.8, 1.2, n)
    for scheme, step in (("explicit_rk4", ref.linear_rk4(chain, form, grid)),
                         ("implicit_euler", ref.linear_implicit(chain, form, grid))):
        got = solve_bsde(chain, driver, terminal, steps, scheme=scheme).values
        want = ref.bsde_loop(step, terminal, grid)
        assert np.abs(got - want).max() <= rounding_bound(steps, want)
    curves = stock_curves(market, steps=steps).s.transpose(1, 2, 0)
    want = ref.stock_loop(market, grid, curves[-1])
    assert np.abs(curves - want).max() <= rounding_bound(steps, want)

    obstacle = penalty_obstacle(rng, n)
    g = obstacle.sample(grid, n)
    top = np.maximum(terminal, g[-1])
    sol = solve_reflected(chain, driver, top, obstacle, steps)
    values, pushes = ref.reflected_loop(ref.linear_euler(chain, form, grid), top, g, grid)
    bound = rounding_bound(steps, values)
    assert np.abs(sol.values - values).max() <= bound
    assert np.abs(sol.step_pushes - pushes).max() <= bound
    assert np.all(sol.values >= g) and np.all(sol.step_pushes >= 0.0)
    level = float(rng.integers(steps, 64 * steps))
    got = solve_penalized(chain, driver, top, obstacle, level, steps).values
    want = ref.bsde_loop(ref.linear_implicit(chain, form, grid, obstacle, level), top, grid)
    assert np.abs(got - want).max() <= rounding_bound(steps, want)

    times, first, level_maps = implicit_maps(chain, form, grid, obstacle)
    for maps, tops, table, at in (
            (_form_maps(chain, form, "reflected", grid, g), top, grid, np.arange(grid.size)),
            (lambda nodes: level_maps(nodes, level), terminal, times, first)):
        policies = solve_floored(maps, tops, table, at, "blow-up")[3]
        steady = _steady(maps(np.arange(table.size)))
        assert 1 <= policies <= _POLICIES if steady else policies == 0


def test_solves_on_maps_that_are_not_steady_are_the_sweep():
    """On the stiff chain (rates 1e4, 100 steps, discount 0.1 as an affine
    form) a step map has infinity norm 199: the reflected solve is the
    reflected loop and the implicit Euler BSDE ``chain.sweep`` on the same
    maps, values and pushes bit for bit, with no policy iteration."""
    spec = build_chain_spec(2, [[-1e4, 1e4], [1e4, -1e4]], 0, 1.0)
    driver = MarkovDriver(lipschitz_y=0.1, affine=AffineForm(alpha=-0.1))
    top = np.array([1.0, 0.0])
    obstacle = Obstacle(g=lambda t, i: 1.0 - t)
    sol = solve_reflected(spec, driver, top, obstacle, 100)
    grid, each = sol.grid, np.arange(sol.grid.size)
    maps = _form_maps(spec, driver.affine, "reflected", grid, sol.g)
    assert solve_floored(maps, top, grid, each, "blow-up")[3] == 0
    p, c = np.ascontiguousarray(maps(each)[0, ..., :2]), maps(each)[0, ..., 2].copy()
    values, pushes = ref.reflected_loop(lambda k, v: p[k] @ v + c[k], top, sol.g, grid)
    assert np.array_equal(sol.values, values) and np.array_equal(sol.step_pushes, pushes)
    times, first, plain = implicit_maps(spec, driver.affine, grid, None)
    p, c = np.ascontiguousarray(plain(each)[..., :2]), plain(each)[..., 2].copy()
    values = solve_bsde(spec, driver, top, 100, scheme="implicit_euler").values
    assert np.array_equal(values, sweep(lambda k, v: p[k] @ v + c[k], top, grid, each,
                                        "blow-up"))


def test_policy_solve_past_the_cap_is_the_sweep(monkeypatch):
    """Past ``chain._POLICIES`` policies the floored solve is the sweep on
    the same maps, with 0 policies: capped at 1, the American price of
    market_pieces' put at K = 250, which takes 2, is the reflected loop,
    values and pushes bit for bit."""
    cfg = load_config(PIECES)
    steps, n = 250, cfg.chain.n_states
    grid, each = uniform_grid(cfg.chain.horizon, steps), np.arange(steps + 1)
    g = cfg.build_payoff(stock_curves(cfg.market, steps)).sample(grid, n)
    maps = _form_maps(cfg.chain, make_hedge_driver(cfg.market).affine, "reflected", grid, g)
    assert solve_floored(maps, g[-1], grid, each, "blow-up")[3] == 2
    monkeypatch.setattr(chain, "_POLICIES", 1)
    values, preds, _, policies = solve_floored(maps, g[-1], grid, each, "blow-up")
    p, c = np.ascontiguousarray(maps(each)[0, ..., :n]), maps(each)[0, ..., n].copy()
    want, pushes = ref.reflected_loop(lambda k, v: p[k] @ v + c[k], g[-1], g, grid)
    assert policies == 0
    assert np.array_equal(values, want) and np.array_equal(values[:-1] - preds, pushes)


def test_implicit_step_bisects_where_newton_has_no_slope():
    """f = min(y, c) / h is flat at the start of ``_scalar_implicit``'s
    Newton iteration, 2 b < c, so the implicit step brackets and bisects
    for the root b + c: with no generator, b is the top value. The same
    with a penalty n (g - y)^+ under g = 0.5 < b: the plain root is above
    g, so the penalized step is the plain one, whose bracket the hint
    lipschitz_y + lipschitz_z + 1 sizes at every n, and it ends on the bits
    of the reference's split step."""
    h, c, top = 0.25, 5.0, np.array([1.0, 2.0])
    grid = np.array([0.0, h])
    spec = build_chain_spec(2, np.zeros((2, 2)), 0, 1.0)
    driver = MarkovDriver(lambda t, i, y, z: min(y, c) / h, lipschitz_y=1.0 / h)
    obstacle = Obstacle(g=lambda t, i: 0.5)
    for g, n in ((None, 0.0), (obstacle.g, 1.0), (obstacle.g, 10.0), (obstacle.g, 100.0)):
        step = _callback_step(spec, driver, "implicit_euler", grid,
                              None if g is None else obstacle.sample(grid, 2), n)
        assert np.abs(step(0, top) - (top + c)).max() <= 1e-13
        want = ref.callback_step(spec, driver, "implicit_euler", grid,
                                 None if g is None else obstacle, n)(0, top)
        assert np.array(step(0, top)).tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["market_put", "market_regime", "market_pieces"])
def test_bundled_markets_price_in_one_to_three_policies(name):
    """The policy solve starts close on every bundled market: the American
    price and a penalty level of its put each take 1 to 3 policies at
    K = 250 and 1000, the sizes the CLI and the benchmark run."""
    cfg = load_config(CONFIGS / f"{name}.yaml")
    driver = make_hedge_driver(cfg.market)
    for steps in (250, 1000):
        grid = uniform_grid(cfg.chain.horizon, steps)
        payoff = cfg.build_payoff(stock_curves(cfg.market, steps))
        g = payoff.sample(grid, cfg.chain.n_states)
        times, first, level_maps = implicit_maps(cfg.chain, driver.affine, grid, payoff)
        for maps, table, at in (
                (_form_maps(cfg.chain, driver.affine, "reflected", grid, g), grid,
                 np.arange(grid.size)),
                (lambda nodes: level_maps(nodes, 2.0 * steps), times, first)):
            assert 1 <= solve_floored(maps, g[-1], table, at, "blow-up")[3] <= 3


def test_penalty_levels_by_policy_iteration_equal_a_solve_per_level():
    """Each level of ``penalization_limit`` starts its policy iteration from the level before, and
    ``solve_penalized`` from the coarse solve: both end at the one
    self-consistent choice, so the trace and the values are those of one
    solve per level, bit for bit (market_pieces, K = 250, eleven levels)."""
    cfg = load_config(PIECES)
    steps = 250
    payoff = cfg.build_payoff(stock_curves(cfg.market, steps))
    driver = make_hedge_driver(cfg.market)
    terminal = payoff.terminal(cfg.chain.horizon, cfg.chain.n_states)
    got = penalization_limit(cfg.chain, driver, terminal, payoff, steps, 1e-6)
    assert len(got.penalization_trace) > 8
    prev = solve_penalized(cfg.chain, driver, terminal, payoff,
                           got.penalization_trace[0][0] // 2, steps).values
    for level, dist in got.penalization_trace:
        cur = solve_penalized(cfg.chain, driver, terminal, payoff, level, steps).values
        assert float(np.abs(cur - prev).max()) == dist
        prev = cur
    assert np.array_equal(got.values, prev)
