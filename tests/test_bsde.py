"""BSDE solver: closed forms, scheme behavior, pathwise residuals and the
comparison theorem."""

import numpy as np
import pytest

from markovbsde import (MarkovDriver, Obstacle, build_chain_spec, comparison_check,
                        constant_obstacle, discount_driver, draw_paths,
                        pathwise_residual, penalization_limit, simulate_path,
                        solve_bsde, solve_penalized, solve_reflected, zero_driver)
from markovbsde.bsde import AffineForm
from markovbsde.cli import _write_grid
from markovbsde.errors import (BadScheduleError, ContractionViolatedError, NonFiniteError,
                               PreconditionUnmetError)
from markovbsde.grids import StateGridFunction, sample_on_grid, uniform_grid

import step_reference as ref
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


def test_state_grid_function_checks_its_grid():
    """A grid must have two nodes or more, increase strictly and have every
    step within 1e-9 max(h, 1) of its first step h; values need one finite
    slice per node."""
    grid = np.linspace(0.0, 1.0, 11)
    values = np.ones((11, 2))
    nudged = grid.copy()
    nudged[5] += 9e-10  # two steps move by 9e-10, within 1e-9 of the first
    assert StateGridFunction(grid=nudged, values=values).grid[5] == nudged[5]
    nudged[5] += 2e-10
    for bad_grid, bad_values in ((grid[:1], values[:1]), (grid[::-1], values), (nudged, values),
                                 (grid, values[1:]), (grid, np.full((11, 2), np.nan))):
        with pytest.raises(ValueError):
            StateGridFunction(grid=bad_grid, values=bad_values)


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
    # the reflected entry points make solve_bsde's checks of the terminal
    # and the steps
    spec, drv, obs = two_state_chain, zero_driver(), constant_obstacle(0.0)
    for solve in (lambda xi, steps: solve_bsde(spec, drv, xi, steps),
                  lambda xi, steps: solve_reflected(spec, drv, xi, obs, steps),
                  lambda xi, steps: penalization_limit(spec, drv, xi, obs, steps, 1e-3)):
        with pytest.raises(ValueError, match="length-N"):
            solve(np.ones(3), 50)
        with pytest.raises(ValueError):
            solve(np.ones(2), 1)
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
    none, so the first step down from the horizon fails. It reads only the
    nodes: with the rates tripled from a breakpoint strictly inside the
    step where the values overflow, the sub-step down to the breakpoint
    overflows first, and the message still names the node below it."""
    square = MarkovDriver(lambda t, i, y, z: 50.0 * y * y, lipschitz_y=1.0)
    steep = MarkovDriver(affine=AffineForm(alpha=1e200))
    for driver, node, scheme, breakpoint in ((square, "0.85", "explicit_rk4", None),
                                             (steep, "0.95", "explicit_rk4", None),
                                             (square, "0.95", "implicit_euler", None),
                                             (square, "0.85", "explicit_rk4", 0.87),
                                             (square, "0.95", "implicit_euler", 0.97)):
        chain = two_state_chain if breakpoint is None else build_chain_spec(
            2, [(0.0, SYM), (breakpoint, 3.0 * SYM)], 0, 1.0)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteError, match=f"t={node}$"):
            solve_bsde(chain, driver, np.full(2, 5.0), 20, scheme=scheme)


def spike(value, node=0.6):
    """A callback driver that is 0 but at the node t = ``node`` of state 0,
    where it is ``value``."""
    return MarkovDriver(lambda t, i, y, z: value if i == 0 and abs(t - node) < 1e-9 else 0.0)


SPIKE_SOLVES = {
    "explicit_rk4": lambda spec, d: solve_bsde(spec, d, np.ones(2), 20),
    "implicit_euler": lambda spec, d: solve_bsde(spec, d, np.ones(2), 20,
                                                 scheme="implicit_euler"),
    "solve_reflected": lambda spec, d: solve_reflected(spec, d, np.ones(2),
                                                       constant_obstacle(0.5), 20),
    "penalization_limit": lambda spec, d: penalization_limit(
        spec, d, np.ones(2), constant_obstacle(0.5), 20, 1e-3),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("solve", SPIKE_SOLVES)
def test_a_driver_not_finite_at_one_node_raises_there(two_state_chain, solve, value):
    """f = nan, +inf or -inf at the one node t = 0.6 of state 0 raises
    ``NonFiniteError`` naming that node under RK4, implicit Euler, the
    reflected sweep and the penalty levels. The reflected sweep raises a
    prediction of -inf to the obstacle 0.5, a finite value, and still
    raises there: the push from -inf is not finite."""
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError, match="at t=0.6$"):
        SPIKE_SOLVES[solve](two_state_chain, spike(value))


def test_sample_on_grid_equals_the_per_element_loop():
    """``sample_on_grid`` gives the bits of setting each element in turn,
    from calls of g at the same (t, i) in the same order: the grid's own
    numpy times and int states. g returns a float, a numpy scalar, an
    int, a 0-d array and a signed zero."""
    grid = np.linspace(0.0, 0.9, 8) ** 2
    kinds = (float, np.float64, lambda x: int(10 * x), np.array, lambda x: -0.0)

    def recorder(calls):
        def g(t, i):
            calls.append((t, type(t), i, type(i)))
            return kinds[i](np.sin(3.0 * t + i))
        return g

    got_calls, want_calls = [], []
    got = sample_on_grid(recorder(got_calls), grid, 5)
    g = recorder(want_calls)
    want = np.empty((grid.size, 5))
    for k, t in enumerate(grid):
        for i in range(5):
            want[k, i] = g(t, i)
    assert got.tobytes() == want.tobytes() and got.shape == want.shape
    assert got_calls == want_calls


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
        res.append(pathwise_residual(sol, draw_paths(chain, 0, 5), chain,
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
    with pytest.raises(PreconditionUnmetError, match=r"at t=[0-9.e-]+, state=[01]$"):
        comparison_check(two_state_chain, d1, np.zeros(2), d2, np.zeros(2), 50)


def test_comparison_requires_contraction_for_driver1(two_state_chain):
    d1 = MarkovDriver(evaluate=lambda t, i, y, z: 0.0, lipschitz_z=0.9)
    d2 = MarkovDriver(evaluate=lambda t, i, y, z: 1.0, lipschitz_z=0.9)
    with pytest.raises(ContractionViolatedError):
        comparison_check(two_state_chain, d1, np.zeros(2), d2, np.ones(2), 50)


# every solve and check that calls a callback driver back, on a 3-state
# chain with a breakpoint between two nodes and an obstacle g = 0.9 - 0.1 t
CALLBACK_SOLVES = {
    "explicit_rk4": lambda spec, d, xi, ob: solve_bsde(spec, d, xi, 10).values,
    "implicit_euler": lambda spec, d, xi, ob: solve_bsde(
        spec, d, xi, 10, scheme="implicit_euler").values,
    "solve_reflected": lambda spec, d, xi, ob: solve_reflected(spec, d, xi, ob, 10).values,
    "solve_penalized": lambda spec, d, xi, ob: solve_penalized(
        spec, d, xi, ob, 5, 10).values,
    "penalization_limit": lambda spec, d, xi, ob: penalization_limit(
        spec, d, xi, ob, 10, 1e-3).values,
    "pathwise_residual": lambda spec, d, xi, ob: pathwise_residual(
        solve_bsde(spec, d, xi, 10), draw_paths(spec, 0, 4), spec, d, xi),
    "comparison_check": lambda spec, d, xi, ob: np.array(
        comparison_check(spec, d, xi, d, xi, 10)["max_violation"]),
}


def callback_instance():
    a = np.array([[-1.0, 0.5, 0.2], [0.6, -0.9, 0.3], [0.4, 0.4, -0.5]])
    spec = build_chain_spec(3, [(0.0, a), (0.43, 2.0 * a)], 0, 1.0)
    return spec, np.array([1.0, 0.95, 1.05]), Obstacle(g=lambda t, i: 0.9 - 0.1 * t)


@pytest.mark.parametrize("solve", CALLBACK_SOLVES)
def test_callback_driver_sees_float_t_and_y_and_a_float64_z(solve):
    """The driver protocol: f(t, i, y, z) gets t and y as Python floats,
    the state as an int and z as a float64 array of shape (N,), under each
    scheme, the reflected sweep, both penalized solves, the pathwise
    residual and the comparison check's spot checks."""
    spec, xi, obstacle = callback_instance()
    seen = set()

    def evaluate(t, i, y, z):
        seen.add((type(t), type(i), type(y), type(z), z.dtype, z.shape))
        return -0.1 * y + 0.05 * z[-1]

    CALLBACK_SOLVES[solve](spec, MarkovDriver(evaluate=evaluate, lipschitz_y=0.1), xi, obstacle)
    assert seen == {(float, int, float, np.ndarray, np.dtype(float), (3,))}


def test_no_solve_calls_back_an_affine_driver():
    """A driver that carries its ``AffineForm`` is solved on the form by
    every solve that calls a callback driver back, and by a penalized
    solve at n dt = 0.5 and 4: its ``evaluate`` is never called."""
    spec, xi, obstacle = callback_instance()

    def evaluate(t, i, y, z):
        raise AssertionError("an affine driver was called back")

    driver = MarkovDriver(evaluate=evaluate, lipschitz_y=0.1,
                          affine=AffineForm(alpha=-0.1, beta=0.05))
    for name, solve in CALLBACK_SOLVES.items():
        if name != "comparison_check":  # its spot checks call both drivers
            solve(spec, driver, xi, obstacle)
    solve_penalized(spec, driver, xi, obstacle, 40, 10)


@pytest.mark.parametrize("kind", ["numpy scalar", "0-d array", "int"])
def test_callback_driver_values_are_read_as_floats(kind):
    """f's value is read with float(): a driver that returns a numpy
    scalar, a 0-d array or an int gives every solve the bits of its twin
    that returns the same value as a float."""
    spec, xi, obstacle = callback_instance()

    def base(t, i, y, z):
        return i - 1 if kind == "int" else -0.3 * y + 0.1 * z[-1] + 0.05 * t

    wrap = {"numpy scalar": np.float64, "0-d array": np.array, "int": int}[kind]
    as_float = MarkovDriver(evaluate=lambda t, i, y, z: float(base(t, i, y, z)),
                            lipschitz_y=0.3)
    wrapped = MarkovDriver(evaluate=lambda t, i, y, z: wrap(base(t, i, y, z)),
                           lipschitz_y=0.3)
    for solve in CALLBACK_SOLVES.values():
        assert (solve(spec, wrapped, xi, obstacle).tobytes()
                == solve(spec, as_float, xi, obstacle).tobytes())


def test_callback_driver_divides_as_python_floats(two_state_chain):
    """y reaches f as a Python float, so a division by y = 0 inside f
    raises ZeroDivisionError, as it does on floats."""
    inverse = MarkovDriver(evaluate=lambda t, i, y, z: 1.0 / y)
    for scheme in ("explicit_rk4", "implicit_euler"):
        with pytest.raises(ZeroDivisionError):
            solve_bsde(two_state_chain, inverse, np.zeros(2), 4, scheme=scheme)


def test_affine_form_starts_partition_time(two_state_chain):
    """An ``AffineForm`` takes its piece starts as a schedule does: out of
    order, repeated, not finite or not starting at 0 they raise
    ``BadScheduleError``. A first start within 1e-12 of 0 is stored as
    0.0, so beta 1 then 3 from t = 0.5 integrates to 2 under both schemes,
    and a start at or past the horizon, a piece never in force, is legal."""
    z = np.zeros(2)
    for starts in ((0.5, 0.0), (0.0, 0.5, 0.5), (0.0, float("nan")), (-1.0, 0.5)):
        with pytest.raises(BadScheduleError):
            AffineForm(starts=starts, beta=np.ones((len(starts), 1)))
    form = AffineForm(starts=(1e-13, 0.5), beta=[[1.0], [3.0]])
    assert form.starts == (0.0, 0.5)
    driver = MarkovDriver(affine=form)
    assert driver.evaluate(0.75, 0, 0.0, z) == 3.0
    for scheme in ("explicit_rk4", "implicit_euler"):
        v0 = solve_bsde(two_state_chain, driver, z, 100, scheme=scheme).values[0]
        assert np.abs(v0 - 2.0).max() <= 1e-12
    late = MarkovDriver(affine=AffineForm(starts=(0.0, 1.0, 2.0), beta=[[1.0], [5.0], [7.0]]))
    assert np.abs(solve_bsde(two_state_chain, late, z, 100).values[0] - 1.0).max() <= 1e-12


def test_penalized_callback_steps_keep_the_sign_of_zero():
    """The penalized implicit Euler steps at n = 1 and 4 equal the reference
    steps of f + n (g - y)^+ byte for byte where every value is a signed
    zero: no generator, terminals of +0 and -0, g = +0 or -0 and f = -y, y
    or a signed zero."""
    spec = build_chain_spec(2, np.zeros((2, 2)), 0, 1.0)
    grid = uniform_grid(1.0, 2)
    for sign in (0.0, -0.0):
        obstacle = Obstacle(g=lambda t, i, sign=sign: sign)
        for f in (lambda t, i, y, z: -y, lambda t, i, y, z: y,
                  lambda t, i, y, z: 0.0, lambda t, i, y, z: -0.0):
            driver = MarkovDriver(evaluate=f)
            for xi in ([0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0]):
                xi = np.array(xi)
                for n in (1, 4):
                    got = solve_penalized(spec, driver, xi, obstacle, n, 2).values
                    penalized = ref.penalized_driver(driver, obstacle, n)
                    want = ref.bsde_loop(
                        ref.callback_step(spec, penalized, "implicit_euler", grid), xi, grid)
                    assert got.tobytes() == want.tobytes()


def test_reflected_callback_step_keeps_the_sign_of_zero():
    """The callback reflected sweep raises its prediction to the obstacle
    as ``np.maximum(g, prediction)`` does, byte for byte where every value
    is a signed zero, so a tie gives the prediction: no generator,
    terminals of +0 and -0, g = +0 or -0 and f = -y, y or a signed zero."""
    spec = build_chain_spec(2, np.zeros((2, 2)), 0, 1.0)
    grid = uniform_grid(1.0, 2)
    for sign in (0.0, -0.0):
        obstacle = Obstacle(g=lambda t, i, sign=sign: sign)
        for f in (lambda t, i, y, z: -y, lambda t, i, y, z: y,
                  lambda t, i, y, z: 0.0, lambda t, i, y, z: -0.0):
            driver = MarkovDriver(evaluate=f)
            for xi in ([0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0]):
                xi = np.array(xi)
                got = solve_reflected(spec, driver, xi, obstacle, 2)
                want, pushes = ref.reflected_loop(ref.callback_euler(spec, driver, grid), xi,
                                                  obstacle.sample(grid, 2), grid)
                assert got.values.tobytes() == want.tobytes()
                assert got.step_pushes.tobytes() == pushes.tobytes()


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
