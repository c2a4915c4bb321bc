"""Reflected BSDEs: exact cases, a hand-written Snell dynamic program,
penalization and the Skorokhod flatness condition."""

import numpy as np
import pytest

from markovbsde import (MarkovDriver, Obstacle, build_chain_spec, constant_obstacle,
                        discount_driver, optimal_stop_time,
                        penalization_limit, simulate_path, skorokhod_integral,
                        solve_bsde, solve_reflected, zero_driver)
from markovbsde.bsde import AffineForm
from markovbsde.cli import _write_grid
from markovbsde.rbsde import solve_penalized
from markovbsde.errors import (NoConvergenceError, NonFiniteError,
                               ObstacleIncompatibleError)

from conftest import random_chain, snell_dp
from csv_reference import read_rows
from test_linear import rounding_bound

SYM = np.array([[-1.0, 1.0], [1.0, -1.0]])


def decreasing_obstacle(horizon):
    return Obstacle(g=lambda t, i: horizon - t)


def test_callback_reflected_step_takes_its_own_length():
    """With no generator and a constant driver c, each predictor of the
    callback reflected sweep adds its own step's (t_{k+1} - t_k) c, bit for
    bit, above an obstacle that never binds: at K = 10, 8 of the uniform
    grid's steps differ from grid[1] - grid[0] in their last bits."""
    spec = build_chain_spec(2, np.zeros((2, 2)), 0, 1.0)
    c = 3.0
    sol = solve_reflected(spec, MarkovDriver(evaluate=lambda t, i, y, z: c), np.zeros(2),
                          constant_obstacle(-1.0), 10)
    assert np.array_equal(sol.values[:-1], sol.values[1:] + np.diff(sol.grid)[:, None] * c)
    assert not sol.step_pushes.any()


def test_decreasing_obstacle_exact(two_state_chain):
    # g = T - t, xi = 0, f = 0: V = T - t and K = t exactly
    sol = solve_reflected(two_state_chain, zero_driver(), np.zeros(2),
                          decreasing_obstacle(1.0), 500)
    expected_v = (1.0 - sol.grid)[:, None] * np.ones((1, 2))
    expected_k = sol.grid[:, None] * np.ones((1, 2))
    assert np.abs(sol.values - expected_v).max() < 1e-12
    assert np.abs(sol.k.values - expected_k).max() < 1e-12


def test_reflection_is_nonnegative_and_k_starts_at_zero(two_state_chain):
    sol = solve_reflected(two_state_chain, discount_driver(0.1),
                          np.array([0.5, 0.8]),
                          Obstacle(g=lambda t, i: 0.6 - 0.3 * t), 300)
    assert np.array_equal(sol.k.values[0], np.zeros(2))
    assert np.all(sol.step_pushes >= 0.0)
    assert np.all(np.diff(sol.k.values, axis=0) >= -1e-15)
    # the value dominates the obstacle at every node
    g = np.array([[0.6 - 0.3 * t] * 2 for t in sol.grid])
    assert (sol.values - g).min() >= -1e-12
    # the solution carries the obstacle it was solved against
    assert np.array_equal(sol.g, g)


def test_reflected_scheme_equals_a_hand_written_snell_dp(two_state_chain):
    drv = discount_driver(0.2)
    xi = np.array([0.5, 0.9])
    obs = Obstacle(g=lambda t, i: 0.7 - 0.4 * t + 0.05 * i)
    sol = solve_reflected(two_state_chain, drv, xi, obs, 250)
    oracle = snell_dp(two_state_chain, 0.2, xi, obs.g, sol.grid)
    assert np.abs(sol.values - oracle).max() <= 1e-13


def test_inactive_obstacle_reduces_to_bsde(two_state_chain):
    drv = discount_driver(0.1)
    xi = np.array([1.0, 2.0])
    sol = solve_reflected(two_state_chain, drv, xi, constant_obstacle(-10.0), 800)
    assert np.abs(sol.k.values).max() == 0.0
    ref = solve_bsde(two_state_chain, drv, xi, 800)
    # Euler vs RK4: agreement to scheme accuracy
    assert np.abs(sol.values - ref.values).max() < 5e-4


def test_obstacle_values_of_the_wrong_shape_raise(two_state_chain):
    # one value per time, not per time and state: no solve returns it
    flat = Obstacle(values=lambda t: 0.5 * np.ones(t.size))
    with pytest.raises(ValueError, match="shape"):
        flat.sample([0.0, 0.5], 2)
    with pytest.raises(ValueError, match="shape"):
        solve_reflected(two_state_chain, zero_driver(), np.ones(2), flat, 10)


def test_terminal_incompatible_obstacle_raises(two_state_chain):
    # every reflected entry point: none solves under an obstacle above the
    # terminal at the horizon
    for solve in (solve_reflected, lambda *args: penalization_limit(*args, tol=1e-3),
                  lambda spec, d, xi, ob, steps: solve_penalized(spec, d, xi, ob, 8, steps)):
        with pytest.raises(ObstacleIncompatibleError):
            solve(two_state_chain, zero_driver(), np.zeros(2), constant_obstacle(2.0), 100)


# the four backward solves, each as (spec, driver, terminal, obstacle, steps)
SOLVES = {
    "solve_bsde": lambda spec, drv, xi, obs, steps: solve_bsde(spec, drv, xi, steps),
    "solve_reflected": solve_reflected,
    "solve_penalized": lambda spec, drv, xi, obs, steps: solve_penalized(spec, drv, xi, obs,
                                                                         8, steps),
    "penalization_limit": lambda spec, drv, xi, obs, steps: penalization_limit(
        spec, drv, xi, obs, steps, 1e-3),
}


@pytest.mark.parametrize("name", SOLVES)
def test_every_solve_makes_the_same_checks(two_state_chain, name):
    """Every solve rejects a wrong-length terminal and 1 step, every
    obstacle solve an obstacle above the terminal at the horizon, and each
    warns once, with one message and at its caller, under a driver that
    fails the contraction check (margin -85.6 on this chain)."""
    solve, spec, obs = SOLVES[name], two_state_chain, constant_obstacle(0.0)
    with pytest.raises(ValueError, match="length-N"):
        solve(spec, zero_driver(), np.ones(3), obs, 10)
    with pytest.raises(ValueError, match="^steps must be >= 2$"):
        solve(spec, zero_driver(), np.ones(2), obs, 1)
    if name != "solve_bsde":
        with pytest.raises(ObstacleIncompatibleError):
            solve(spec, zero_driver(), np.zeros(2), constant_obstacle(0.5), 10)
    stiff = MarkovDriver(lambda t, i, y, z: 0.0, lipschitz_z=50.0)
    with pytest.warns(RuntimeWarning) as caught:
        solve(spec, stiff, np.ones(2), obs, 10)
    assert [str(w.message) for w in caught] == [
        "z-Lipschitz contraction fails, margin -85.6 at (0.0, 0)"]
    assert caught[0].filename == __file__


@pytest.mark.parametrize("n", [float("nan"), float("inf"), 0.5])
def test_penalized_solve_rejects_a_level_that_is_no_finite_number_of_at_least_1(
        two_state_chain, n):
    """nan and inf raise ``ValueError``, under an obstacle that binds (where
    a solve raised a driver blow-up) and one that never does (where it
    returned the unpenalized solve), with a callback and an affine driver."""
    for drv in (discount_driver(0.1), MarkovDriver(affine=AffineForm(alpha=-0.1))):
        for level in (0.95, 0.5):
            with pytest.raises(ValueError, match="penalty level must be a finite number"):
                solve_penalized(two_state_chain, drv, np.ones(2), constant_obstacle(level),
                                n, 50)


def test_penalization_limit_rejects_a_tol_that_is_not_positive(two_state_chain):
    """A tol of nan raises ``ValueError`` as 0 and -1 do, where nan ran every
    level to the cap; an infinite tol stops at the first distance."""
    args = two_state_chain, discount_driver(0.1), np.ones(2), constant_obstacle(0.95), 50
    for tol in (float("nan"), 0.0, -1.0):
        with pytest.raises(ValueError, match="tol must be positive"):
            penalization_limit(*args, tol)
    assert len(penalization_limit(*args, float("inf")).penalization_trace) == 1


def test_penalized_solutions_increase_in_n(two_state_chain):
    """The penalized values increase with n, with n dt from 2/150 to 1024/150,
    for a callback driver and for its affine form twin, which agree within
    ``rounding_bound``."""
    twin = MarkovDriver(lipschitz_y=0.1, affine=AffineForm(alpha=-0.1))
    xi = np.array([0.5, 0.8])
    obs = Obstacle(g=lambda t, i: 0.6 - 0.3 * t)
    prev = None
    for n in 2 ** np.arange(1, 11):
        cur, affine = (solve_penalized(two_state_chain, drv, xi, obs, n, 150).values
                       for drv in (discount_driver(0.1), twin))
        assert np.abs(cur - affine).max() <= rounding_bound(150, affine)
        if prev is not None:
            assert np.all(cur >= prev - 1e-12)
        prev = cur


def test_penalized_is_implicit_euler_at_every_n(two_state_chain):
    drv = zero_driver()
    obs = constant_obstacle(0.0)
    for n in (4, 4096):
        sol = solve_penalized(two_state_chain, drv, np.ones(2), obs, n, 100)
        assert sol.scheme == "implicit_euler"


def test_penalization_limit_approximates_reflection(two_state_chain):
    drv = discount_driver(0.1)
    xi = np.array([0.5, 0.8])
    obs = Obstacle(g=lambda t, i: 0.6 - 0.3 * t + 0.1 * i)
    refl = solve_reflected(two_state_chain, drv, xi, obs, 200)
    pen = penalization_limit(two_state_chain, drv, xi, obs, 200, 2.5e-4)
    assert np.abs(pen.values - refl.values).max() < 1e-3
    dists = [d for _, d in pen.penalization_trace]
    assert all(b < a for a, b in zip(dists, dists[1:]))
    assert np.all(pen.step_pushes >= 0.0)


def test_penalization_limit_cap_raises_with_trace(two_state_chain):
    drv = zero_driver()
    obs = decreasing_obstacle(1.0)
    with pytest.raises(NoConvergenceError) as exc:
        penalization_limit(two_state_chain, drv, np.zeros(2), obs, 100, 1e-12)
    assert len(exc.value.trace) >= 1


def test_skorokhod_integral_vanishes_on_exact_solutions(two_state_chain):
    cases = [
        (zero_driver(), np.zeros(2), decreasing_obstacle(1.0)),
        (discount_driver(0.1), np.array([1.0, 2.0]), constant_obstacle(-5.0)),
        (zero_driver(), np.full(2, 1.0), Obstacle(g=lambda t, i: 2.0 - t)),
    ]
    for drv, xi, obs in cases:
        sol = solve_reflected(two_state_chain, drv, xi, obs, 400)
        assert skorokhod_integral(sol) < 1e-9


def test_optimal_stop_time(two_state_chain):
    path = simulate_path(two_state_chain, 1)
    # inactive obstacle: never touches, stop at the horizon
    drv = discount_driver(0.1)
    sol = solve_reflected(two_state_chain, drv, np.array([1.0, 2.0]),
                          constant_obstacle(-10.0), 100)
    assert optimal_stop_time(sol, path).tolist() == [1.0]
    # fully active obstacle: touches immediately
    obs = decreasing_obstacle(1.0)
    sol = solve_reflected(two_state_chain, zero_driver(), np.zeros(2), obs, 100)
    assert optimal_stop_time(sol, path).tolist() == [0.0]


def test_rbsde_csv_rows(two_state_chain, tmp_path):
    sol = solve_reflected(two_state_chain, zero_driver(), np.zeros(2),
                          decreasing_obstacle(1.0), 10)
    # the CLI's rbsde_solution.csv rows: (time, state, v, z, k)
    _write_grid(tmp_path / "v.csv", ("time", "state", "v", "z", "k"), sol.grid,
                sol.values, sol.values, sol.k.values)
    rows = read_rows(tmp_path / "v.csv")
    assert len(rows) == 11 * 2
    assert rows[0][2] == pytest.approx(1.0, abs=1e-12)   # V(0) = T
    assert rows[-1][4] == sol.k.values[-1, 1]


def test_reflected_on_random_chains_dominates_obstacle():
    rng = np.random.default_rng(23)
    for _ in range(10):
        spec = random_chain(rng)
        lvl = float(rng.uniform(-0.5, 0.5))
        xi = rng.uniform(lvl, lvl + 1.0, size=spec.n_states)
        obs = constant_obstacle(lvl)
        sol = solve_reflected(spec, zero_driver(), xi, obs, 120)
        assert sol.values.min() >= lvl - 1e-12
        assert np.all(sol.step_pushes >= 0.0)


def test_reflected_sweep_names_the_first_node_that_blows_up(two_state_chain):
    """A sweep that overflows raises at the first non-finite node down from
    the horizon, for a callback and an affine driver alike, and names a
    node where a breakpoint falls strictly inside the step that overflows.
    So does the policy solve of steady maps whose values overflow: it hands
    them to the sweep."""
    square = MarkovDriver(lambda t, i, y, z: 50.0 * y * y, lipschitz_y=1.0)
    cut = build_chain_spec(2, [(0.0, SYM), (0.57, 3.0 * SYM)], 0, 1.0)
    for chain in (two_state_chain, cut):
        with np.errstate(all="ignore"), pytest.raises(
                NonFiniteError, match="^reflected sweep blew up at t=0.55$"):
            solve_reflected(chain, square, np.full(2, 5.0), constant_obstacle(0.0), 20)
    # the predictor multiplies by about 1 + 5e198 per step: inf two nodes down
    steep = MarkovDriver(affine=AffineForm(alpha=1e200))
    with np.errstate(all="ignore"), pytest.raises(
            NonFiniteError, match="^reflected sweep blew up at t=0.9$"):
        solve_reflected(two_state_chain, steep, np.ones(2), constant_obstacle(0.0), 20)
    # each step map has infinity norm 1.95, at most 2, and multiplies by
    # 1.95: 1.95^1063 overflows at node 37 of 1100
    doubling = MarkovDriver(affine=AffineForm(alpha=0.95 * 1100))
    with np.errstate(all="ignore"), pytest.raises(
            NonFiniteError, match="^reflected sweep blew up at t=0.0336364$"):
        solve_reflected(two_state_chain, doubling, np.ones(2), constant_obstacle(0.0), 1100)


def test_an_affine_prediction_of_minus_inf_raises_at_its_node(two_state_chain):
    """An affine form whose beta is -inf on a piece that holds only the
    node t = 0.6 predicts -inf there, which the obstacle 0.5 raises to a
    finite value: ``chain.solve_floored`` hands the maps to its sweep, and
    the solve raises ``NonFiniteError`` at that node, not an untyped error
    for its push. (A callback driver's -inf is a case of
    ``test_bsde.test_a_driver_not_finite_at_one_node_raises_there``.)"""
    sunk = MarkovDriver(affine=AffineForm(starts=(0.0, 0.58, 0.62),
                                          beta=[[0.0], [-np.inf], [0.0]]))
    with np.errstate(all="ignore"), pytest.raises(
            NonFiniteError, match="^reflected sweep blew up at t=0.6$"):
        solve_reflected(two_state_chain, sunk, np.ones(2), constant_obstacle(0.5), 20)
