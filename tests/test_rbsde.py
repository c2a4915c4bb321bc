"""Reflected BSDEs: exact cases, the Snell oracle, penalization and the
Skorokhod flatness condition."""

import numpy as np
import pytest

from markovbsde import (MarkovDriver, Obstacle, constant_obstacle,
                        discount_driver, optimal_stop_time,
                        penalization_limit, simulate_path, skorokhod_integral,
                        snell_oracle, solve_bsde, solve_reflected,
                        zero_driver)
from markovbsde.cli import grid_rows
from markovbsde.rbsde import solve_penalized
from markovbsde.errors import (NoConvergenceError, ObstacleIncompatibleError)

from conftest import random_chain


def decreasing_obstacle(horizon):
    return Obstacle(g=lambda t, i: horizon - t)


def test_decreasing_obstacle_exact(two_state_chain):
    # g = T - t, xi = 0, f = 0: V = T - t and K = t exactly
    sol = solve_reflected(two_state_chain, zero_driver(), np.zeros(2),
                          decreasing_obstacle(1.0), 500)
    expected_v = (1.0 - sol.grid)[:, None] * np.ones((1, 2))
    expected_k = sol.grid[:, None] * np.ones((1, 2))
    assert np.abs(sol.v.values - expected_v).max() < 1e-12
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
    assert (sol.v.values - g).min() >= -1e-12
    # the solution carries the obstacle it was solved against
    assert np.array_equal(sol.g, g)
    # the canonical integrand z = v wraps the value array, not a copy
    assert sol.z.values is sol.v.values


def test_snell_oracle_agrees_exactly(two_state_chain):
    drv = discount_driver(0.2)
    xi = np.array([0.5, 0.9])
    obs = Obstacle(g=lambda t, i: 0.7 - 0.4 * t + 0.05 * i)
    sol = solve_reflected(two_state_chain, drv, xi, obs, 250)
    oracle = snell_oracle(two_state_chain, drv, xi, obs, 250)
    assert np.abs(sol.v.values - oracle.values).max() == 0.0


def test_inactive_obstacle_reduces_to_bsde(two_state_chain):
    drv = discount_driver(0.1)
    xi = np.array([1.0, 2.0])
    sol = solve_reflected(two_state_chain, drv, xi, constant_obstacle(-10.0), 800)
    assert np.abs(sol.k.values).max() == 0.0
    ref = solve_bsde(two_state_chain, drv, xi, 800)
    # Euler vs RK4: agreement to scheme accuracy
    assert np.abs(sol.v.values - ref.values).max() < 5e-4


def test_terminal_incompatible_obstacle_raises(two_state_chain):
    with pytest.raises(ObstacleIncompatibleError):
        solve_reflected(two_state_chain, zero_driver(), np.zeros(2),
                        constant_obstacle(1.0), 100)


def test_penalized_solutions_increase_in_n(two_state_chain):
    drv = discount_driver(0.1)
    xi = np.array([0.5, 0.8])
    obs = Obstacle(g=lambda t, i: 0.6 - 0.3 * t)
    prev = solve_penalized(two_state_chain, drv, xi, obs, 2, 150)
    for n in (4, 8, 16, 32):
        cur = solve_penalized(two_state_chain, drv, xi, obs, n, 150)
        assert np.all(cur.values >= prev.values - 1e-12)
        prev = cur


def test_penalized_forces_implicit_when_stiff(two_state_chain):
    drv = zero_driver()
    obs = constant_obstacle(0.0)
    sol = solve_penalized(two_state_chain, drv, np.ones(2), obs, 4096, 100)
    assert sol.scheme == "implicit_euler"
    sol = solve_penalized(two_state_chain, drv, np.ones(2), obs, 4, 100)
    assert sol.scheme == "explicit_rk4"


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
        penalization_limit(two_state_chain, drv, np.zeros(2), obs, 100,
                           1e-12, n_start=1, n_cap=16)
    assert len(exc.value.trace) >= 1
    with pytest.raises(ValueError):
        penalization_limit(two_state_chain, drv, np.zeros(2), obs, 100, 1e-3,
                           n_start=0)


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


def test_rbsde_csv_rows(two_state_chain):
    sol = solve_reflected(two_state_chain, zero_driver(), np.zeros(2),
                          decreasing_obstacle(1.0), 10)
    # the CLI's rbsde_solution.csv rows: (time, state, v, z, k)
    rows = list(grid_rows(sol.grid, sol.v.values, sol.z.values, sol.k.values))
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
