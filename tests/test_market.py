"""Market model: sigma/Gamma matrices, short rate, discount-factor paths,
stock curves and pathwise SDE residuals."""

import numpy as np
import pytest

from markovbsde import (build_chain_spec, build_market_spec, constant_obstacle, draw_paths,
                        gamma_matrix, martingale_path, penalization_limit, sdf_dynamics_residual,
                        sdf_path, short_rate, sigma_matrix, simulate_path, solve_bsde,
                        solve_reflected, stock_curves, stock_sde_residual, terminal_sdf,
                        zero_driver)
from markovbsde.cli import _write_grid
from markovbsde.grids import interp, uniform_grid
from markovbsde.rbsde import solve_penalized
from markovbsde.errors import (BadScheduleError, NonFiniteError, RateBoundViolatedError,
                               UnstableGammaError)

import path_reference as ref
from csv_reference import read_rows
from conftest import expm, one_path, piece_of

SYM = np.array([[-1.0, 1.0], [1.0, -1.0]])


def chain(initial=0, horizon=1.0, a=None):
    return build_chain_spec(2, SYM if a is None else a, initial, horizon)


# --------------------------------------------------------- matrix identities

def test_sigma_matrix_values():
    c = np.array([[0.1, 0.3], [0.2, 0.4]])
    sig = sigma_matrix(c)
    assert sig[0, 1] == pytest.approx(np.exp(0.1 - 0.3) - 1.0, abs=1e-15)
    assert sig[1, 0] == pytest.approx(np.exp(0.4 - 0.2) - 1.0, abs=1e-15)
    assert sig[0, 0] == 0.0 and sig[1, 1] == 0.0


def test_sigma_zero_for_flat_c():
    assert np.array_equal(sigma_matrix(np.zeros((2, 2))), np.zeros((2, 2)))
    # constant rows also collapse: C_ii - C_ij = 0 when C has constant rows
    c = np.array([[0.4, 0.4], [0.7, 0.7]])
    assert np.allclose(sigma_matrix(c), 0.0, atol=1e-15)


def test_gamma_matrix_c0_collapse_exact():
    d = np.array([0.05, 0.07])
    gamma = gamma_matrix(SYM, np.zeros((2, 2)), d)
    assert np.array_equal(gamma, SYM - np.diag(d))


def test_gamma_matrix_general():
    c = np.array([[0.1, 0.3], [0.2, 0.4]])
    d = np.array([0.05, 0.07])
    gamma = gamma_matrix(SYM, c, d)
    # off-diagonal (i, j): A_ij exp(C_jj - C_ji)
    assert gamma[0, 1] == pytest.approx(1.0 * np.exp(0.4 - 0.2), abs=1e-15)
    assert gamma[1, 0] == pytest.approx(1.0 * np.exp(0.1 - 0.3), abs=1e-15)
    assert gamma[0, 0] == -1.0 - 0.05 and gamma[1, 1] == -1.0 - 0.07


# ---------------------------------------------------------------- short rate

def test_short_rate_c0_is_d():
    mkt = build_market_spec(chain(), d_schedule=[0.05, 0.07],
                            dividends=[[1.0, 1.0]])
    assert short_rate(mkt, 0.0, 0) == 0.05
    assert short_rate(mkt, 0.0, 1) == 0.07


def test_short_rate_with_jump_risk_premium():
    c = np.array([[0.0, 0.02], [0.03, 0.0]])
    mkt = build_market_spec(chain(), c_schedule=c, d_schedule=[0.05, 0.06],
                            dividends=[[1.0, 1.0]])
    sig = sigma_matrix(c)
    expected = 0.05 - sig[0, 1] * 1.0   # a[1, 0] = 1
    assert short_rate(mkt, 0.0, 0) == pytest.approx(expected, abs=1e-15)


def test_build_rejects_negative_short_rate():
    # C making the jump compensator positive with D = 0 drives r below 0
    c = np.array([[0.0, -1.0], [0.0, 0.0]])
    with pytest.raises(RateBoundViolatedError):
        build_market_spec(chain(), c_schedule=c, dividends=[[1.0, 1.0]])


def test_build_rejects_rate_above_cap():
    with pytest.raises(RateBoundViolatedError):
        build_market_spec(chain(), d_schedule=[0.5, 0.5],
                          dividends=[[1.0, 1.0]], r_max=0.1)


def test_build_rejects_nonpositive_dividends():
    with pytest.raises(BadScheduleError):
        build_market_spec(chain(), d_schedule=[0.05, 0.05],
                          dividends=[[1.0, 0.0]])


def test_schedule_shape_validation():
    with pytest.raises(BadScheduleError):
        build_market_spec(chain(), c_schedule=np.zeros((3, 3)),
                          dividends=[[1.0, 1.0]])
    with pytest.raises(BadScheduleError):
        build_market_spec(chain(), d_schedule=[(0.5, [0.05, 0.05])],
                          dividends=[[1.0, 1.0]])
    with pytest.raises(BadScheduleError):
        build_market_spec(chain(), c_schedule=[(0.0, np.zeros((2, 2))),
                                               (0.5, np.zeros((3, 3)))])
    with pytest.raises(BadScheduleError):
        build_market_spec(chain(), d_schedule=[(0.0, [0.05, 0.05]),
                                               (0.5, [0.05, 0.05, 0.05])])
    with pytest.raises(BadScheduleError):
        build_market_spec(chain(), d_schedule=[(0.0, [0.05, np.nan])])


def test_build_rejects_empty_and_nonfinite_discount_schedules():
    nan = float("nan")
    d = [0.05, 0.05]
    for kw in [{"c_schedule": []}, {"d_schedule": []},
               {"d_schedule": [(0.0, d), (nan, d)]},
               {"c_schedule": [(nan, np.zeros((2, 2)))]}]:
        with pytest.raises(BadScheduleError):
            build_market_spec(chain(), **kw)


def test_discount_start_near_zero_is_stored_as_zero():
    c = np.array([[0.0, 0.01], [0.02, 0.0]])
    mkt = build_market_spec(chain(), c_schedule=[(-1e-13, c)],
                            d_schedule=[(1e-13, [0.05, 0.05]),
                                        (0.5, [0.06, 0.06])])
    assert mkt.c_schedule[0][0] == 0.0
    assert mkt.d_schedule[0][0] == 0.0
    assert mkt.piece_starts == (0.0, 0.5)
    assert mkt.breakpoints() == (0.5,)


# ----------------------------------------------------------- discount factor

def test_sdf_path_c0_is_pure_discount():
    mkt = build_market_spec(chain(), d_schedule=[0.05, 0.08],
                            dividends=[[1.0, 1.0]])
    path = simulate_path(mkt.chain, 4)
    grid = np.linspace(0.0, 1.0, 101)
    pi = sdf_path(mkt, path, grid)[0]
    # independent accumulation of exp(-int D'X du)
    d = np.array([0.05, 0.08])
    _, t0s, t1s, states, _, _ = path.stretches((0.0,))
    expected = np.array([
        np.exp(-sum(d[s] * (min(t1, t) - min(t0, t))
                    for t0, t1, s in zip(t0s.tolist(), t1s.tolist(), states.tolist())))
        for t in grid])
    assert np.abs(pi - expected).max() < 1e-13


def test_sdf_jump_factor_is_exact():
    c = np.array([[0.0, 0.2], [0.5, 0.0]])
    mkt = build_market_spec(chain(), c_schedule=c, d_schedule=[0.3, 0.1],
                            dividends=[[1.0, 1.0]])
    path = one_path([0.5], [0, 1])
    pi_t = terminal_sdf(mkt, path)[0]
    expected = np.exp(-0.3 * 0.5) * np.exp(c[0, 0] - c[0, 1]) * np.exp(-0.1 * 0.5)
    assert pi_t == pytest.approx(expected, abs=1e-15)
    pi = sdf_path(mkt, path, np.linspace(0.0, 1.0, 11))[0]
    assert pi[0] == 1.0
    assert pi[-1] == pytest.approx(pi_t, abs=1e-15)
    # right-continuity at the jump node
    assert pi[5] == pytest.approx(np.exp(-0.3 * 0.5) * np.exp(-0.2), abs=1e-14)


def test_sdf_path_matches_terminal_on_simulated_paths():
    c = np.array([[0.0, 0.02], [0.03, 0.0]])
    mkt = build_market_spec(chain(), c_schedule=[(0.0, np.zeros((2, 2))), (0.4, c)],
                            d_schedule=[(0.0, [0.05, 0.06]), (0.5, [0.07, 0.04])],
                            dividends=[[1.0, 1.0]])
    paths = draw_paths(mkt.chain, 0, 30)
    pi = sdf_path(mkt, paths, np.linspace(0.0, 1.0, 58))
    assert pi[:, -1] == pytest.approx(terminal_sdf(mkt, paths), abs=1e-13)


def test_sdf_dynamics_residual_zero_when_c0():
    mkt = build_market_spec(chain(), d_schedule=[0.05, 0.08],
                            dividends=[[1.0, 1.0]])
    path = simulate_path(mkt.chain, 7)
    assert sdf_dynamics_residual(mkt, path, 500)[0] < 1e-13


def test_sdf_dynamics_residual_first_order():
    c = np.array([[0.0, 0.02], [0.03, 0.0]])
    mkt = build_market_spec(chain(), c_schedule=c, d_schedule=[0.05, 0.05],
                            dividends=[[1.0, 1.0]])
    path = simulate_path(mkt.chain, 7)
    r1 = sdf_dynamics_residual(mkt, path, 1000)[0]
    r2 = sdf_dynamics_residual(mkt, path, 2000)[0]
    assert r1 / r2 == pytest.approx(2.0, rel=0.2)


def test_path_functionals_reject_a_grid_of_no_steps():
    """The martingale path and both SDE residuals build their grids alike,
    and reject 0 and -1 steps alike."""
    mkt = build_market_spec(chain(), d_schedule=[0.05, 0.05], dividends=[[1.0, 1.0]])
    curves = stock_curves(mkt, steps=10)
    path = simulate_path(mkt.chain, 7)
    for steps in (0, -1):
        for functional in (lambda: martingale_path(path, mkt.chain, steps),
                           lambda: sdf_dynamics_residual(mkt, path, steps),
                           lambda: stock_sde_residual(mkt, curves, path, steps)):
            with pytest.raises(ValueError, match="^steps must be >= 1$"):
                functional()


@pytest.mark.parametrize("steps", [2.7, True, "10"])
def test_every_grid_rejects_a_step_count_that_is_no_integer(steps):
    """``uniform_grid`` and each of its callers raise ``ValueError`` for a
    step count outside the config's integer rule, where int() cut 2.7 to 2
    and read True as 1, and "10" raised a bare ``TypeError``."""
    mkt = build_market_spec(chain(), d_schedule=[0.05, 0.05], dividends=[[1.0, 1.0]])
    spec, curves, path = mkt.chain, stock_curves(mkt, steps=10), simulate_path(mkt.chain, 7)
    drv, xi, obs = zero_driver(), np.ones(2), constant_obstacle(0.0)
    for call in (lambda: uniform_grid(1.0, steps),
                 lambda: stock_curves(mkt, steps),
                 lambda: martingale_path(path, spec, steps),
                 lambda: sdf_dynamics_residual(mkt, path, steps),
                 lambda: stock_sde_residual(mkt, curves, path, steps),
                 lambda: solve_bsde(spec, drv, xi, steps),
                 lambda: solve_reflected(spec, drv, xi, obs, steps),
                 lambda: solve_penalized(spec, drv, xi, obs, 8, steps),
                 lambda: penalization_limit(spec, drv, xi, obs, steps, 1e-3)):
        with pytest.raises(ValueError, match="^steps must be an integer, got "):
            call()


def test_an_integral_float_step_count_builds_its_grid():
    """2.0 steps build the 2-step grid, in the grid and in a solve."""
    assert np.array_equal(uniform_grid(1.0, 2.0), [0.0, 0.5, 1.0])
    sol = solve_bsde(chain(), zero_driver(), np.ones(2), np.float64(2.0))
    assert np.array_equal(sol.grid, [0.0, 0.5, 1.0]) and sol.steps == 2


# ---------------------------------------------------------------- stock ODE

def test_stationary_stock_curve_exact():
    mkt = build_market_spec(chain(), d_schedule=[0.05, 0.05],
                            dividends=[[1.0, 2.0], [2.0, 1.0]])
    curves = stock_curves(mkt, steps=500)
    gamma_t = mkt.gamma[0].T
    for j, delta in enumerate(([1.0, 2.0], [2.0, 1.0])):
        target = np.linalg.solve(gamma_t, -np.asarray(delta))
        assert np.abs(curves.s[j] - target[None, :]).max() < 1e-12
        # algebraic residual of the stationary equation
        assert np.abs(gamma_t @ curves.s[j, 0] + np.asarray(delta)).max() < 1e-12
    # the known price levels for dividends (1, 2) at D = 0.05
    assert curves.s[0, 0, 0] == pytest.approx(29.7560975609756, abs=1e-9)
    assert curves.s[0, 0, 1] == pytest.approx(30.2439024390244, abs=1e-9)


def test_stock_curves_require_stable_gamma():
    # D = 0 leaves Gamma = A with a zero eigenvalue
    mkt = build_market_spec(chain(), dividends=[[1.0, 1.0]])
    with pytest.raises(UnstableGammaError):
        stock_curves(mkt, steps=100)


def test_stock_curves_raise_on_non_finite_prices():
    # the stationary seed 1e308 / 0.5 overflows; inf is not <= 0, so only
    # the sweep's finiteness check stops it
    mkt = build_market_spec(chain(), d_schedule=[0.5, 0.5], dividends=[[1e308, 1e308]],
                            r_max=10.0)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError, match="t=1$"):
        stock_curves(mkt, steps=10)


def test_stock_curves_without_stocks_are_empty():
    # no dividends, no stocks: there is no price to check, so no error
    mkt = build_market_spec(chain(), d_schedule=[0.05, 0.05])
    curves = stock_curves(mkt, steps=10)
    assert curves.s.shape == (0, 11, 2)
    assert curves.n_stocks == 0
    assert stock_sde_residual(mkt, curves, simulate_path(mkt.chain, 0), 10).tolist() == [0.0]


def test_interp_equals_the_scalar_formula():
    # before, on, between and after the nodes, for slices of one and of
    # two axes: bit for bit the one-time formula of path_reference
    rng = np.random.default_rng(4)
    for steps in (1, 2, 7, 50, 333, 1000):
        grid = uniform_grid(rng.uniform(0.5, 3.0), steps)
        times = np.concatenate([[-1.0, -1e-300, grid[-1] + 1e-12, grid[-1] + 2.0], grid,
                                rng.uniform(grid[0], grid[-1], 50)])
        for shape in ((3,), (2, 4)):
            values = rng.normal(size=(grid.size, *shape))
            want = np.array([ref.interp_at(grid, values, t) for t in times])
            assert np.array_equal(interp(grid, values, times), want)


def test_stock_sde_residual_stationary_machine_precision():
    mkt = build_market_spec(chain(), d_schedule=[0.05, 0.05],
                            dividends=[[1.0, 2.0]])
    curves = stock_curves(mkt, steps=400)
    path = simulate_path(mkt.chain, 5)
    assert stock_sde_residual(mkt, curves, path, 400)[0] < 1e-12


def test_stock_sde_residual_first_order_decay():
    mkt = build_market_spec(chain(),
                            d_schedule=[(0.0, [0.05, 0.05]),
                                        (0.5, [0.08, 0.06])],
                            dividends=[[1.0, 2.0]])
    curves = stock_curves(mkt, steps=4000)
    path = simulate_path(mkt.chain, 7)
    r1 = stock_sde_residual(mkt, curves, path, 1000)[0]
    r2 = stock_sde_residual(mkt, curves, path, 2000)[0]
    assert r1 / r2 == pytest.approx(2.0, rel=0.2)


# --------------------------------------------------- off-grid piece markets

G1 = np.array([[-1.0, 0.5, 0.3], [0.6, -0.9, 0.4], [0.4, 0.4, -0.7]])
G2 = np.array([[-0.5, 1.2, 0.2], [0.2, -1.5, 0.6], [0.3, 0.3, -0.8]])
G3 = np.array([[-1.4, 0.3, 0.9], [0.7, -0.6, 0.5], [0.7, 0.3, -1.4]])
C1 = np.array([[0.0, 0.02, 0.01], [0.03, 0.0, 0.02], [0.01, 0.04, 0.0]])
C2 = np.array([[0.0, 0.01, 0.03], [0.02, 0.0, 0.01], [0.02, 0.01, 0.0]])
DIVS3 = [[1.0, 1.5, 2.0], [2.0, 1.0, 1.2], [1.3, 2.2, 0.9]]
# A, C and D each break at their own off-grid times
A_SCHED = [(0.0, G1), (0.31, G2), (0.67, G3)]
C_SCHED = [(0.0, C1), (0.4537, C2)]
D_SCHED = [(0.0, [0.04, 0.06, 0.05]), (0.2129, [0.07, 0.03, 0.05]),
           (0.8123, [0.05, 0.08, 0.02])]


def value_at(schedule, t):
    """The last piece starting at or before t, else the first piece."""
    val = schedule[0][1]
    for start, v in schedule:
        if start <= t:
            val = v
    return np.asarray(val, dtype=float)


def test_rate_table_matches_direct_formulas():
    mkt = build_market_spec(build_chain_spec(3, A_SCHED, 0, 1.0),
                            c_schedule=C_SCHED, d_schedule=D_SCHED,
                            dividends=DIVS3)
    starts = sorted({s for sched in (A_SCHED, C_SCHED, D_SCHED)
                     for s, _ in sched})
    assert mkt.piece_starts == tuple(starts)
    assert mkt.breakpoints() == tuple(starts[1:])
    ends = starts[1:] + [1.0]
    probes = (starts + [0.5 * (a + b) for a, b in zip(starts, ends)]
              + [s - 1e-12 for s in starts[1:]] + [-0.5, -1e-12, 1.0, 1.5])
    for t in probes:
        a, c, d = (value_at(s, t) for s in (A_SCHED, C_SCHED, D_SCHED))
        assert np.array_equal(mkt.chain.generator_at(t), a)
        k = piece_of(mkt.piece_starts, t)
        assert np.array_equal(mkt.a[k], a)
        assert np.array_equal(mkt.c[k], c) and np.array_equal(mkt.d[k], d)
        assert np.array_equal(mkt.gamma[k], gamma_matrix(a, c, d))
        sig = sigma_matrix(c)
        for i in range(3):
            assert short_rate(mkt, t, i) == float(d[i] - sig[i, :] @ a[:, i])
        for i in range(3):
            for j in range(3):
                assert mkt.log_jump[k, i, j] == c[i, i] - c[i, j]
        for arr in (mkt.a, mkt.c, mkt.d, mkt.sigma, mkt.gamma, mkt.drift, mkt.rates,
                    mkt.log_jump):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            mkt.gamma[k, 0, 0] = 0.0


def test_terminal_sdf_sums_over_off_grid_stretches():
    mkt = build_market_spec(build_chain_spec(3, A_SCHED, 0, 1.0),
                            c_schedule=C_SCHED, d_schedule=D_SCHED,
                            dividends=DIVS3)
    # jumps 0 -> 2 -> 1 at 0.1 and 0.4537, the second one exactly where C
    # changes (C2 applies, right-continuity); D and A change in between
    path = one_path([0.1, 0.4537], [0, 2, 1])
    d1, d2, d3 = (np.asarray(d) for _, d in D_SCHED)
    drift = (d1[0] * 0.1 + d1[2] * (0.2129 - 0.1) + d2[2] * (0.4537 - 0.2129)
             + d2[1] * (0.8123 - 0.4537) + d3[1] * (1.0 - 0.8123))
    jumps = (C1[0, 0] - C1[0, 2]) + (C2[2, 2] - C2[2, 1])
    assert terminal_sdf(mkt, path)[0] == pytest.approx(np.exp(jumps - drift), rel=1e-14)
    pi = sdf_path(mkt, path, np.linspace(0.0, 1.0, 8))[0]
    assert pi[-1] == pytest.approx(np.exp(jumps - drift), rel=1e-14)


def _gamma_entrywise(a, c, d):
    n = a.shape[0]
    return np.array([[a[i, j] - d[i] if i == j else a[i, j] * np.exp(c[j, j] - c[j, i])
                      for j in range(n)] for i in range(n)])


def test_stock_curves_match_exact_piecewise_solution():
    starts = [0.0, 0.3137, 0.6871]  # off the 200-step grid
    d = np.array([0.04, 0.06, 0.05])
    mkt = build_market_spec(
        build_chain_spec(3, list(zip(starts, [G1, G2, G3])), 0, 1.0),
        c_schedule=C1, d_schedule=d, dividends=DIVS3)
    steps = 200
    curves = stock_curves(mkt, steps=steps)
    grid = curves.grid
    gts = [_gamma_entrywise(g, C1, d).T for g in (G1, G2, G3)]
    ends = starts[1:] + [1.0]
    for j, delta in enumerate(np.asarray(DIVS3)):
        # seed: the stationary point of the last piece
        assert np.array_equal(
            curves.s[j, -1],
            np.linalg.solve(gamma_matrix(G3, C1, d).T, -delta))
        # per piece, backward from its end: s* + e^{Gamma'(end - t)}(s_end - s*)
        exact = np.empty((grid.size, 3))
        s_end = np.linalg.solve(gts[-1], -delta)
        dev = 0.0
        for k in range(2, -1, -1):
            star = np.linalg.solve(gts[k], -delta)
            for idx in np.nonzero((grid >= starts[k]) & (grid <= ends[k]))[0]:
                exact[idx] = star + expm(gts[k] * (ends[k] - grid[idx])) @ (s_end - star)
                dev = max(dev, float(np.abs(exact[idx] - star).max()))
            s_end = star + expm(gts[k] * (ends[k] - starts[k])) @ (s_end - star)
        # RK4 on s' = -Gamma'(s - s*): the local error is the Taylor
        # remainder (h Gamma')^5 / 5! (s - s*), so the global error is at
        # most T dt^4 |Gamma'|^5 / 120 max|s - s*|
        lip = max(np.linalg.norm(g, 2) for g in gts)
        tol = mkt.chain.horizon * (1.0 / steps) ** 4 * lip ** 5 / 120.0 * dev
        assert dev > 0.1  # the pieces move the curves
        assert np.abs(curves.s[j] - exact).max() < tol


def test_curves_csv_rows(tmp_path):
    # the CLI's stock_curves.csv rows: (time, stock, state, price)
    mkt = build_market_spec(chain(), d_schedule=[0.05, 0.05],
                            dividends=[[1.0, 2.0], [2.0, 1.0]])
    curves = stock_curves(mkt, steps=10)
    _write_grid(tmp_path / "s.csv", ("time", "stock", "state", "price"), curves.grid,
                curves.s.transpose(1, 0, 2).reshape(11, 4),
                labels=["0,0", "0,1", "1,0", "1,1"])
    rows = read_rows(tmp_path / "s.csv")
    assert len(rows) == 11 * 2 * 2
    assert all(r[3] > 0 for r in rows)
    assert [r[1:3] for r in rows[:4]] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert rows[5] == (curves.grid[1], 0, 1, curves.s[0, 1, 1])
