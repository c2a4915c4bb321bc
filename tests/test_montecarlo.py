"""Monte Carlo engine and the statistical consistency checks."""

import numpy as np
import pytest

from markovbsde import (build_chain_spec, build_market_spec, draw_paths,
                        european_consistency, isometry_check, mc_estimate)
from markovbsde.cli import report_rows
from markovbsde.montecarlo import seminorm_time_integral, stochastic_integral
from markovbsde.errors import NonFiniteError

from conftest import one_path


def n_jumps(batch):
    return np.diff(batch.offsets)


def test_mc_estimate_is_deterministic(two_state_chain):
    a = mc_estimate(two_state_chain, n_jumps, 500, seed_base=9)
    b = mc_estimate(two_state_chain, n_jumps, 500, seed_base=9)
    assert a == b
    c = mc_estimate(two_state_chain, n_jumps, 500, seed_base=10)
    assert a.mean != c.mean


def test_mc_estimate_validates_inputs(two_state_chain):
    zeros = lambda b: np.zeros(b.n_paths)
    with pytest.raises(ValueError):
        mc_estimate(two_state_chain, zeros, 1)
    with pytest.raises(NonFiniteError):
        mc_estimate(two_state_chain, lambda b: np.full(b.n_paths, np.nan), 10)
    with pytest.raises(TypeError):
        mc_estimate("not a chain", zeros, 10)
    with pytest.raises(TypeError):  # a market's paths are its chain's
        mc_estimate(build_market_spec(two_state_chain), zeros, 10)
    with pytest.raises(ValueError):  # one value per path
        mc_estimate(two_state_chain, lambda b: 0.0, 10)


def test_mc_estimate_names_the_seed_of_a_bad_path(two_state_chain):
    # the first path after seed 100 that jumps twice or more, in its chunk
    def functional(b):
        return np.where(n_jumps(b) >= 2, np.inf, 1.0)
    counts = [draw_paths(two_state_chain, s, 1).jump_times.size
              for s in range(100, 200)]
    first = 100 + next(k for k, c in enumerate(counts) if c >= 2)
    with pytest.raises(NonFiniteError, match=f"inf for seed {first}$"):
        mc_estimate(two_state_chain, functional, 100, seed_base=100)


def test_jump_count_mean(two_state_chain):
    # rate-1 chain: jumps arrive at rate 1 regardless of state, E[N_T] = T
    est = mc_estimate(two_state_chain, n_jumps, 20000)
    assert abs(est.mean - 1.0) <= 4.0 * est.std_error


def test_stochastic_integral_on_manual_path(two_state_chain):
    z = np.array([2.0, 5.0])
    path = one_path([0.25], [0, 1])
    # jump part: z_1 - z_0 = 3; compensator: int z'A X du
    # = 0.25 * z'(-1, 1) + 0.75 * z'(1, -1) = 0.25*3 + 0.75*(-3)
    expected = 3.0 - (0.25 * 3.0 + 0.75 * (-3.0))
    got = stochastic_integral(two_state_chain, z, path)[0]
    assert got == pytest.approx(expected, abs=1e-14)


def test_seminorm_time_integral_on_manual_path(two_state_chain):
    # Psi is the same at both states: z' Psi z = (z_0 - z_1)^2
    z = np.array([2.0, 5.0])
    got = seminorm_time_integral(two_state_chain, z, one_path([0.25], [0, 1]))[0]
    assert got == pytest.approx(9.0, abs=1e-14)


# a three-state chain whose generator changes at two off-grid times
A_SCHED = [(0.0, np.array([[-1.0, 0.5, 0.3], [0.6, -0.9, 0.4], [0.4, 0.4, -0.7]])),
           (0.3137, np.array([[-0.5, 1.2, 0.2], [0.2, -1.5, 0.6], [0.3, 0.3, -0.8]])),
           (0.6871, np.array([[-1.4, 0.3, 0.9], [0.7, -0.6, 0.5], [0.7, 0.3, -1.4]]))]
# jumps 0 -> 2 -> 1 at 0.2 and 0.5: five stretches of constant state and
# generator, as (duration, state, piece)
HAND_PATH = one_path([0.2, 0.5], [0, 2, 1])
HAND_STRETCHES = [(0.2, 0, 0), (0.3137 - 0.2, 2, 0), (0.5 - 0.3137, 2, 1),
                  (0.6871 - 0.5, 1, 1), (1.0 - 0.6871, 1, 2)]


def test_functionals_sum_over_off_grid_stretches():
    spec = build_chain_spec(3, A_SCHED, 0, 1.0)
    z = np.array([2.0, -1.0, 0.5])
    # int z'dM: jump increments minus the compensator sum of z'A e_i du
    jumps = (z[2] - z[0]) + (z[1] - z[2])
    compensator = sum(dt * sum(z[j] * A_SCHED[k][1][j, i] for j in range(3))
                      for dt, i, k in HAND_STRETCHES)
    assert stochastic_integral(spec, z, HAND_PATH)[0] == pytest.approx(
        jumps - compensator, abs=1e-14)
    # ||z||^2 at state i is sum_{j != i} A_ji (z_j - z_i)^2
    seminorm = sum(dt * sum(A_SCHED[k][1][j, i] * (z[j] - z[i]) ** 2
                            for j in range(3) if j != i)
                   for dt, i, k in HAND_STRETCHES)
    assert seminorm_time_integral(spec, z, HAND_PATH)[0] == pytest.approx(
        seminorm, abs=1e-14)


def test_checks_take_the_drawn_paths(market_c0):
    chain = market_c0.chain
    z = np.array([1.0, 0.0])
    paths = draw_paths(chain, 40, 300)
    assert isometry_check(chain, z, 300, seed_base=40, paths=paths) == \
        isometry_check(chain, z, 300, seed_base=40)
    claim = np.array([1.0, 2.0])
    assert european_consistency(market_c0, claim, 300, steps=50, seed_base=40,
                                paths=paths) == \
        european_consistency(market_c0, claim, 300, steps=50, seed_base=40)
    with pytest.raises(ValueError):
        isometry_check(chain, z, 300, seed_base=41, paths=paths)
    with pytest.raises(ValueError):
        isometry_check(chain, z, 299, seed_base=40, paths=paths)


def test_martingale_integral_has_zero_mean(two_state_chain):
    z = np.array([1.0, -1.0])
    est = mc_estimate(two_state_chain,
                      lambda b: stochastic_integral(two_state_chain, z, b),
                      n_paths=5000, seed_base=77)
    assert abs(est.mean) <= 4.0 * est.std_error


def test_isometry_check_passes(two_state_chain):
    rep = isometry_check(two_state_chain, np.array([1.0, 0.0]), n_paths=5000)
    assert rep["pass"]
    assert rep["rhs"] == pytest.approx(1.0, abs=1e-12)  # analytic value


def test_european_consistency_c0(market_c0):
    rep = european_consistency(market_c0, np.array([1.0, 2.0]), n_paths=5000,
                               steps=300)
    assert rep["pass"]
    assert rep["std_error"] > 0.0


def test_european_consistency_c_nonzero(two_state_chain):
    c = np.array([[0.0, 0.02], [0.03, 0.0]])
    mkt = build_market_spec(two_state_chain, c_schedule=c,
                            d_schedule=[0.05, 0.06], dividends=[[1.0, 2.0]])
    rep = european_consistency(mkt, np.array([1.0, 2.0]), n_paths=5000,
                               steps=300)
    assert rep["pass"]


def test_report_csv_rows():
    # the CLI's verify_report.csv rows: (check_name, lhs, rhs, std_error, pass)
    rows = list(report_rows({
        "a": {"lhs": 1.0, "rhs": 1.1, "std_error": 0.05, "pass": True},
        "b": {"lhs": 2.0, "rhs": 1.9, "std_error": 0.04, "pass": np.False_,
              "n_paths": 10},
    }))
    assert rows[0] == ("a", 1.0, 1.1, 0.05, True)
    assert rows[1] == ("b", 2.0, 1.9, 0.04, False)
