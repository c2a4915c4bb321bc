"""BSDE solver: closed forms, scheme behavior, pathwise residuals and the
comparison theorem."""

import numpy as np
import pytest

from markovbsde import (MarkovDriver, build_chain_spec, comparison_check,
                        discount_driver, pathwise_residual, simulate_path,
                        simulate_paths, solve_bsde, zero_driver)
from markovbsde.bsde import AffineForm
from markovbsde.cli import _write_grid
from markovbsde.errors import (ContractionViolatedError, NonFiniteError,
                               PreconditionUnmetError)

from conftest import random_chain
from csv_reference import read_rows

SYM = np.array([[-1.0, 1.0], [1.0, -1.0]])


def test_exponential_discount_closed_form(two_state_chain):
    sol = solve_bsde(two_state_chain, discount_driver(0.1), np.ones(2), 1000)
    expected = np.exp(-0.1 * (1.0 - sol.grid))[:, None] * np.ones((1, 2))
    assert np.abs(sol.values - expected).max() < 1e-8


def test_occupancy_closed_form(two_state_chain):
    # zero driver, terminal (1, 0): y_0(0) = 1/2 + 1/2 e^{-2T}
    sol = solve_bsde(two_state_chain, zero_driver(), np.array([1.0, 0.0]), 1000)
    assert sol.values[0, 0] == pytest.approx(0.5 + 0.5 * np.exp(-2.0), abs=1e-10)
    assert sol.values[0, 1] == pytest.approx(0.5 - 0.5 * np.exp(-2.0), abs=1e-10)


def test_terminal_node_is_exact(two_state_chain):
    xi = np.array([0.3, -1.7])
    sol = solve_bsde(two_state_chain, discount_driver(0.2), xi, 50)
    assert np.array_equal(sol.values[-1], xi)


def test_implicit_euler_converges_first_order(two_state_chain):
    xi = np.ones(2)
    errs = []
    for steps in (100, 200, 400):
        sol = solve_bsde(two_state_chain, discount_driver(0.1), xi, steps,
                         scheme="implicit_euler")
        errs.append(abs(sol.values[0, 0] - np.exp(-0.1)))
    assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.15)
    assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.15)


def test_schemes_agree_to_scheme_accuracy(two_state_chain):
    xi = np.array([1.0, 2.0])
    drv = MarkovDriver(evaluate=lambda t, i, y, z: -0.3 * y + 0.1 * np.sin(y),
                       lipschitz_y=0.4)
    a = solve_bsde(two_state_chain, drv, xi, 800)
    b = solve_bsde(two_state_chain, drv, xi, 800, scheme="implicit_euler")
    assert np.abs(a.values - b.values).max() < 5e-3


def test_linearity_in_terminal(two_state_chain):
    drv = zero_driver()
    xi1, xi2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    s1 = solve_bsde(two_state_chain, drv, xi1, 200)
    s2 = solve_bsde(two_state_chain, drv, xi2, 200)
    s3 = solve_bsde(two_state_chain, drv, 2.0 * xi1 + 3.0 * xi2, 200)
    assert np.allclose(s3.values, 2.0 * s1.values + 3.0 * s2.values, atol=1e-12)


def test_schedule_breakpoints_are_honored():
    # piecewise generator: occupancy solvable piece by piece
    fast = 3.0 * SYM
    spec = build_chain_spec(2, [(0.0, SYM), (0.5, fast)], 0, 1.0)
    sol = solve_bsde(spec, zero_driver(), np.array([1.0, 0.0]), 640)
    # P(X_1 = 0 | X_{0.5} = i) from the fast piece, then the slow piece
    p_fast = 0.5 + 0.5 * np.exp(-2.0 * 3.0 * 0.5)
    y_half = np.array([p_fast, 1.0 - p_fast])
    mean = 0.5 * (y_half[0] + y_half[1])
    dev = 0.5 * (y_half[0] - y_half[1]) * np.exp(-2.0 * 0.5)
    assert sol.values[0, 0] == pytest.approx(mean + dev, abs=1e-10)


def test_contraction_warns_and_strict_raises(two_state_chain):
    drv = MarkovDriver(evaluate=lambda t, i, y, z: 0.0, lipschitz_z=0.9)
    with pytest.warns(RuntimeWarning):
        solve_bsde(two_state_chain, drv, np.ones(2), 50)
    with pytest.raises(ContractionViolatedError):
        solve_bsde(two_state_chain, drv, np.ones(2), 50, strict_contraction=True)


def test_strict_contraction_sees_a_short_piece():
    # the violating piece [0.51, 0.56) holds no node of a 16-step grid
    spec = build_chain_spec(2, [(0.0, SYM), (0.51, 0.05 * SYM), (0.56, SYM)],
                            0, 1.0)
    drv = MarkovDriver(evaluate=lambda t, i, y, z: 0.0, lipschitz_z=0.1)
    with pytest.warns(RuntimeWarning, match=r"-2\.46 at \(0\.51, 0\)"):
        solve_bsde(spec, drv, np.ones(2), 50)
    with pytest.raises(ContractionViolatedError):
        solve_bsde(spec, drv, np.ones(2), 50, strict_contraction=True)


def test_solver_input_validation(two_state_chain):
    with pytest.raises(ValueError):
        solve_bsde(two_state_chain, zero_driver(), np.ones(3), 50)
    with pytest.raises(ValueError):
        solve_bsde(two_state_chain, zero_driver(), np.ones(2), 1)
    with pytest.raises(ValueError):
        solve_bsde(two_state_chain, zero_driver(), np.ones(2), 50, scheme="magic")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_driver_blow_up_raises(two_state_chain):
    drv = MarkovDriver(evaluate=lambda t, i, y, z: y * y * 1e6)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError):
        solve_bsde(two_state_chain, drv, np.array([10.0, 10.0]), 10)


def test_bsde_sweep_names_the_first_node_that_blows_up(two_state_chain):
    """One finiteness check after the sweep names the first non-finite node
    down from the horizon, for a callback and an affine driver alike, and
    for a callback implicit step without a root: 2.5 v^2 - v + 5 = 0 has
    none, so the first step down from the horizon fails."""
    square = MarkovDriver(lambda t, i, y, z: 50.0 * y * y, lipschitz_y=1.0)
    steep = MarkovDriver(affine=AffineForm(alpha=1e200))
    for driver, node, scheme in ((square, "0.85", "explicit_rk4"),
                                 (steep, "0.95", "explicit_rk4"),
                                 (square, "0.95", "implicit_euler")):
        with np.errstate(all="ignore"), pytest.raises(NonFiniteError, match=f"t={node}$"):
            solve_bsde(two_state_chain, driver, np.full(2, 5.0), 20, scheme=scheme)


def test_pathwise_residual_small_and_decaying(two_state_chain):
    xi = np.array([1.0, 0.4])
    drv = discount_driver(0.2)
    path = simulate_path(two_state_chain, 11)
    res = []
    for steps in (100, 400):
        sol = solve_bsde(two_state_chain, drv, xi, steps)
        res.append(pathwise_residual(sol, path, two_state_chain, drv, xi)[0])
    assert res[0] < 1e-8
    assert res[1] < res[0]


def test_pathwise_residual_converges_across_a_breakpoint():
    # the generator triples at t = 0.3, a grid node; each stretch integrates
    # with its own piece and each step's Hermite curve takes its own piece's
    # slopes, so the residual decays at fourth order, not second
    chain = build_chain_spec(2, [(0.0, SYM), (0.3, 3.0 * SYM)], 0, 1.0)
    drv = discount_driver(0.1)
    xi = np.array([1.0, 0.4])
    res = []
    for steps in (50, 100, 200, 400):
        sol = solve_bsde(chain, drv, xi, steps)
        res.append(pathwise_residual(sol, simulate_paths(chain, range(5)), chain,
                                     drv, xi).max())
    assert all(a >= 8.0 * b for a, b in zip(res, res[1:])), res


def test_comparison_holds_on_ordered_instance(two_state_chain):
    d1 = MarkovDriver(evaluate=lambda t, i, y, z: -0.2 * y, lipschitz_y=0.2)
    d2 = MarkovDriver(evaluate=lambda t, i, y, z: -0.2 * y + 0.3, lipschitz_y=0.2)
    rep = comparison_check(two_state_chain, d1, np.array([0.5, 1.0]),
                           d2, np.array([0.7, 1.0]), 100)
    assert rep["holds"]
    assert rep["max_violation"] <= 1e-9


def test_comparison_rejects_unordered_terminal(two_state_chain):
    d = zero_driver()
    with pytest.raises(PreconditionUnmetError):
        comparison_check(two_state_chain, d, np.array([1.0, 0.0]),
                         d, np.array([0.0, 1.0]), 50)


def test_comparison_rejects_unordered_drivers(two_state_chain):
    d1 = MarkovDriver(evaluate=lambda t, i, y, z: 1.0)
    d2 = MarkovDriver(evaluate=lambda t, i, y, z: -1.0)
    with pytest.raises(PreconditionUnmetError):
        comparison_check(two_state_chain, d1, np.zeros(2), d2, np.zeros(2), 50)


def test_comparison_requires_contraction_for_driver1(two_state_chain):
    d1 = MarkovDriver(evaluate=lambda t, i, y, z: 0.0, lipschitz_z=0.9)
    d2 = MarkovDriver(evaluate=lambda t, i, y, z: 1.0, lipschitz_z=0.9)
    with pytest.raises(ContractionViolatedError):
        comparison_check(two_state_chain, d1, np.zeros(2), d2, np.ones(2), 50)


def test_solution_csv_rows(two_state_chain, tmp_path):
    # the CLI's bsde_solution.csv rows: (time, state, y_value)
    sol = solve_bsde(two_state_chain, zero_driver(), np.ones(2), 10)
    _write_grid(tmp_path / "y.csv", ("time", "state", "y_value"), sol.grid, sol.values)
    rows = read_rows(tmp_path / "y.csv")
    assert len(rows) == 11 * 2
    assert rows[0][0] == 0.0 and rows[-1][2] == 1.0
    assert [r[1] for r in rows[:4]] == [0, 1, 0, 1]


def test_random_chains_preserve_constants():
    # for any chain, zero driver and constant terminal give a constant value
    rng = np.random.default_rng(17)
    for _ in range(10):
        spec = random_chain(rng)
        sol = solve_bsde(spec, zero_driver(),
                         np.full(spec.n_states, 0.7), 100)
        assert np.abs(sol.values - 0.7).max() < 1e-12
