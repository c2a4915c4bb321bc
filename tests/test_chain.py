"""Chain core: validation, simulation, the martingale decomposition, the
Psi calculus, the pseudoinverse and the contraction check."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovbsde import (build_chain_spec, check_contraction, draw_paths,
                        martingale_path, mc_estimate, pseudoinverse,
                        psi_matrix, rate_bound_m, seminorm_sq, simulate_path)
from markovbsde.chain import path_sums
from markovbsde.cli import path_rows
from markovbsde.errors import (BadScheduleError, BadStateError,
                               NonGeneratorError)

from conftest import one_path, random_chain, random_generator
from path_reference import path_of

SYM = np.array([[-1.0, 1.0], [1.0, -1.0]])


# ---------------------------------------------------------------- validation

def test_build_rejects_negative_off_diagonal():
    with pytest.raises(NonGeneratorError):
        build_chain_spec(2, [[-1.0, -0.5], [1.0, 0.5]], 0, 1.0)


def test_build_rejects_nonzero_column_sums():
    with pytest.raises(NonGeneratorError):
        build_chain_spec(2, [[-1.0, 1.0], [0.5, -1.0]], 0, 1.0)


def test_build_rejects_wrong_shape():
    with pytest.raises(NonGeneratorError):
        build_chain_spec(3, SYM, 0, 1.0)
    with pytest.raises(NonGeneratorError):
        build_chain_spec(2, [(0.0, SYM), (0.5, np.eye(3))], 0, 1.0)


def test_build_rejects_bad_initial_state():
    with pytest.raises(BadStateError):
        build_chain_spec(2, SYM, 2, 1.0)


def test_build_rejects_bad_schedule():
    with pytest.raises(BadScheduleError):
        build_chain_spec(2, [(0.5, SYM)], 0, 1.0)  # does not start at 0
    with pytest.raises(BadScheduleError):
        build_chain_spec(2, [(0.0, SYM), (1.5, SYM)], 0, 1.0)  # past horizon
    with pytest.raises(BadScheduleError):
        build_chain_spec(2, SYM, 0, -1.0)
    nan, inf = float("nan"), float("inf")
    for sched, horizon in [([], 1.0),
                           ([(0.0, SYM), (nan, 2.0 * SYM)], 1.0),
                           ([(0.0, SYM), (inf, 2.0 * SYM)], 1.0),
                           ([(nan, SYM)], 1.0),
                           (SYM, inf), (SYM, nan)]:
        with pytest.raises(BadScheduleError):
            build_chain_spec(2, sched, 0, horizon)


def test_first_start_near_zero_is_stored_as_zero():
    for first in (1e-13, -1e-13):
        spec = build_chain_spec(2, [(0.5, 2.0 * SYM), (first, SYM)], 0, 1.0)
        assert spec.starts == (0.0, 0.5)
        assert spec.breakpoints() == (0.5,)


def test_schedule_lookup_is_right_continuous():
    b = 2.0 * SYM
    spec = build_chain_spec(2, [(0.0, SYM), (0.5, b)], 0, 1.0)
    assert np.array_equal(spec.generator_at(0.3), SYM)
    assert np.array_equal(spec.generator_at(0.5), b)
    assert np.array_equal(spec.generator_at(0.9), b)
    assert spec.breakpoints() == (0.5,)


def test_rate_bound_is_max_frobenius_over_schedule():
    spec = build_chain_spec(2, [(0.0, SYM), (0.5, 2.0 * SYM)], 0, 1.0)
    assert rate_bound_m(spec) == pytest.approx(4.0, abs=1e-14)


# ---------------------------------------------------------------- simulation

def test_simulate_is_deterministic_per_seed(two_state_chain):
    p1 = simulate_path(two_state_chain, 42)
    p2 = simulate_path(two_state_chain, 42)
    assert np.array_equal(p1.jump_times, p2.jump_times)
    assert np.array_equal(p1.states, p2.states)
    p3 = simulate_path(two_state_chain, 43)
    assert not (np.array_equal(p1.jump_times, p3.jump_times)
                and np.array_equal(p1.states, p3.states))


def test_simulated_paths_are_well_formed(two_state_chain):
    paths = draw_paths(two_state_chain, 0, 50)
    for p in range(50):
        times, states = path_of(paths, p)
        assert states[0] == two_state_chain.initial_state
        if times.size:
            assert np.all(np.diff(times) > 0)
            assert times[0] > 0 and times[-1] <= paths.horizon
        assert np.all(states[1:] != states[:-1])
        assert np.all((0 <= states) & (states < 2))


@pytest.mark.parametrize("a, horizon", [
    # off-diagonal -5e-13 out of state 0, inside the validation tolerance
    ([[-1.0, 0.5, 0.5], [1.0 + 5e-13, -1.0, 0.5], [-5e-13, 0.5, -1.0]], 1.0),
    # column 0 sums to 5e-9, inside the tolerance 1e-12 * max|A|
    ([[-1e-3, 1e4], [1e-3 + 5e-9, -1e4]], 3000.0),
])
def test_simulate_path_on_tolerated_generators(a, horizon):
    spec = build_chain_spec(len(a), a, 0, horizon)
    paths = draw_paths(spec, 0, 200)
    from_zero = 0
    for p in range(200):
        _, states = path_of(paths, p)
        after_zero = states[1:][states[:-1] == 0]
        assert np.all(after_zero == 1)  # never along the zero rate 0 -> 2
        from_zero += after_zero.size
    assert from_zero > 100


def walk_rows(path, starts, grid=()):
    """The stretches of a path as (t0, t1, state, piece, to) tuples."""
    _, *walk = path.stretches(starts, grid)
    return list(zip(*(a.tolist() for a in walk)))


def test_path_state_lookup_is_right_continuous():
    p = one_path([0.25, 0.5], [0, 1, 0])
    assert p.states_at([0.0, 0.25, 0.49, 0.5]).tolist() == [[0, 1, 1, 0]]
    # each stretch names the state a jump at its end enters, or -1
    assert walk_rows(p, (0.0,)) == [
        (0.0, 0.25, 0, 0, 1), (0.25, 0.5, 1, 0, 0), (0.5, 1.0, 0, 0, -1)]
    # pieces start at 0 and 0.4; grid times at 0.4 and 0.5 (a jump time
    # already) cut nothing more
    assert walk_rows(p, (0.0, 0.4), [0.4, 0.5]) == [
        (0.0, 0.25, 0, 0, 1), (0.25, 0.4, 1, 0, -1), (0.4, 0.5, 1, 1, 0),
        (0.5, 1.0, 0, 1, -1)]
    # a jump at the horizon ends the last stretch
    p = one_path([0.25, 1.0], [0, 1, 0])
    assert walk_rows(p, (0.0,)) == [(0.0, 0.25, 0, 0, 1), (0.25, 1.0, 1, 0, 0)]


def test_path_rejects_malformed_data():
    with pytest.raises(ValueError):
        one_path([0.5], [0])
    with pytest.raises(ValueError):
        one_path([0.5, 0.4], [0, 1, 0])
    with pytest.raises(ValueError):
        one_path([0.5], [0, 0])


def test_mean_occupancy_matches_closed_form(two_state_chain):
    # P(X_T = 0 | X_0 = 0) = 1/2 + 1/2 e^{-2T} for the symmetric rate-1 chain
    est = mc_estimate(two_state_chain, lambda b: b.states_at([1.0])[:, 0] == 0,
                      n_paths=20000, seed_base=0)
    target = 0.5 + 0.5 * np.exp(-2.0)
    assert abs(est.mean - target) <= 4.0 * est.std_error


# ------------------------------------------------------- martingale part

def test_martingale_path_on_a_known_path(two_state_chain):
    # one jump 0 -> 1 at t = 0.5: M_t = X_t - X_0 - int A X du piecewise
    m = martingale_path(one_path([0.5], [0, 1]), two_state_chain, grid_steps=4)[0]
    # before the jump (t = 0.25): drift integral = t * A e_0 = t * (-1, 1)
    assert np.allclose(m[1], np.array([0.0, 0.0]) - 0.25 * np.array([-1.0, 1.0]),
                       atol=1e-14)
    # at t = 0.75: X jumped at 0.5, drift = 0.5 A e_0 + 0.25 A e_1
    drift = 0.5 * np.array([-1.0, 1.0]) + 0.25 * np.array([1.0, -1.0])
    assert np.allclose(m[3], np.array([-1.0, 1.0]) - drift, atol=1e-14)


def test_martingale_path_across_an_off_grid_breakpoint():
    # generator SYM on [0, 0.3), 2 SYM after; one jump 0 -> 1 at t = 0.5
    spec = build_chain_spec(2, [(0.0, SYM), (0.3, 2.0 * SYM)], 0, 1.0)
    m = martingale_path(one_path([0.5], [0, 1]), spec, grid_steps=4)[0]
    e0, e1 = np.array([-1.0, 1.0]), np.array([1.0, -1.0])  # SYM e_0, SYM e_1
    assert np.allclose(m[1], -0.25 * e0, atol=1e-14)
    # X jumps at t = 0.5 itself, so M_{0.5} = e_1 - e_0 - drift
    assert np.allclose(m[2], np.array([-1.0, 1.0]) - (0.3 * e0 + 0.2 * 2.0 * e0),
                       atol=1e-14)
    drift = 0.3 * e0 + 0.2 * 2.0 * e0 + 0.25 * 2.0 * e1
    assert np.allclose(m[3], np.array([-1.0, 1.0]) - drift, atol=1e-14)


def test_martingale_terminal_mean_is_zero(two_state_chain):
    # E[M_T] = 0 componentwise
    for comp in range(2):
        est = mc_estimate(
            two_state_chain,
            lambda b: martingale_path(b, two_state_chain, grid_steps=1)[:, -1, comp],
            n_paths=5000, seed_base=100)
        assert abs(est.mean) <= 4.0 * est.std_error + 1e-12


# ------------------------------------------------------------- Psi calculus

def test_psi_two_state_example(two_state_chain):
    psi = psi_matrix(two_state_chain, 0.0, 0)
    assert np.allclose(psi, np.array([[1.0, -1.0], [-1.0, 1.0]]), atol=1e-14)


def test_seminorm_example(two_state_chain):
    psi = psi_matrix(two_state_chain, 0.0, 0)
    assert seminorm_sq(np.array([1.0, 0.0]), psi) == pytest.approx(1.0, abs=1e-14)
    # the all-ones vector is a null direction
    assert seminorm_sq(np.array([1.0, 1.0]), psi) == pytest.approx(0.0, abs=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6))
def test_psi_structure_random(seed, n):
    rng = np.random.default_rng(seed)
    a = random_generator(rng, n)
    spec = build_chain_spec(n, a, 0, 1.0)
    i = int(rng.integers(n))
    psi = psi_matrix(spec, 0.0, i)
    assert np.allclose(psi, psi.T, atol=1e-12)
    assert np.all(np.linalg.eigvalsh(psi) >= -1e-10)
    assert np.allclose(psi.sum(axis=0), 0.0, atol=1e-10)
    assert np.allclose(psi.sum(axis=1), 0.0, atol=1e-10)
    # seminorm bound against the Frobenius rate bound
    c = rng.normal(size=n)
    m = rate_bound_m(spec)
    assert seminorm_sq(c, psi) <= 3.0 * m * float(c @ c) + 1e-10


# ------------------------------------------------------------ pseudoinverse

def test_pseudoinverse_two_state_example():
    psi = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(pseudoinverse(psi), 0.25 * psi, atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 8))
def test_pseudoinverse_penrose_identities(seed, n):
    rng = np.random.default_rng(seed)
    # random symmetric PSD with deliberately deficient rank
    rank = int(rng.integers(0, n + 1))
    b = rng.normal(size=(n, max(rank, 1)))
    q = b @ b.T if rank else np.zeros((n, n))
    p = pseudoinverse(q)
    # tolerances scale with the conditioning of the random instance; the
    # fixed 1e-10 bound for the bounded-conditioning Psi case is exercised
    # in the acceptance suite
    scale = max(1.0, np.abs(q).max() * max(1.0, np.abs(p).max()))
    assert np.allclose(q @ p @ q, q, atol=1e-10 * scale)
    assert np.allclose(p @ q @ p, p, atol=1e-10 * scale * max(1.0, np.abs(p).max()))
    assert np.allclose((q @ p).T, q @ p, atol=1e-10 * scale)
    assert np.allclose((p @ q).T, p @ q, atol=1e-10 * scale)


def test_pseudoinverse_rejects_asymmetric():
    with pytest.raises(ValueError):
        pseudoinverse(np.array([[0.0, 1.0], [0.0, 0.0]]))


# --------------------------------------------------------------- contraction

def test_contraction_margin_example(two_state_chain):
    # ||Psi^+||_F = 1/2, m = 2: margin = 1 - l2 * 0.5 * sqrt(12)
    rep = check_contraction(two_state_chain, 0.5)
    assert rep["holds"]
    assert rep["worst_margin"] == pytest.approx(1.0 - 0.25 * np.sqrt(12.0),
                                                abs=1e-12)
    rep = check_contraction(two_state_chain, 0.6)
    assert not rep["holds"]
    assert rep["worst_margin"] < 0


def test_contraction_is_checked_on_every_piece():
    # the slow piece [0.51, 0.56) has ||Psi^+||_F = 10 against 1/2 on the
    # others; m = ||SYM||_F = 2, so its margin is 1 - 0.1 * 10 * sqrt(12)
    spec = build_chain_spec(2, [(0.0, SYM), (0.51, 0.05 * SYM), (0.56, SYM)],
                            0, 1.0)
    rep = check_contraction(spec, 0.1)
    assert not rep["holds"]
    assert rep["worst_margin"] == pytest.approx(1.0 - np.sqrt(12.0), abs=1e-12)
    assert rep["worst_time_state"] == (0.51, 0)


def test_contraction_rejects_negative_lipschitz(two_state_chain):
    with pytest.raises(ValueError):
        check_contraction(two_state_chain, -0.1)


def test_random_chain_builder_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(20):
        spec = random_chain(rng)
        a = spec.generator_at(0.0)
        assert np.allclose(a.sum(axis=0), 0.0, atol=1e-12)


def test_path_csv_rows(two_state_chain):
    p = simulate_path(two_state_chain, 3)
    rows = list(path_rows(p, 0))
    assert rows[0] == (-1, 0.0, two_state_chain.initial_state)
    assert len(rows) == p.jump_times.size + 1


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n_paths=st.integers(1, 6),
       width=st.sampled_from([(), (1,), (3,)]), product=st.booleans())
def test_path_sums_equal_a_loop_over_each_path(seed, n_paths, width, product):
    """Running sums and products of terms given path by path equal a loop
    over each path's terms, bit for bit, padded with the path's total;
    paths without a term hold the start value throughout."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 6, n_paths)
    counts[rng.integers(n_paths)] = 0
    rows = np.repeat(np.arange(n_paths), counts)
    terms = rng.normal(size=(rows.size, *width))
    op, start = (np.multiply, 1.0) if product else (np.add, 0.0)
    got = path_sums(n_paths, rows, terms, op)
    assert got.shape == (n_paths, 1 + counts.max(), *width)
    for p in range(n_paths):
        run = np.full(width, start)
        want = [run]
        for term in terms[rows == p]:
            run = op(run, term)
            want.append(run)
        want += [run] * (got.shape[1] - len(want))
        assert np.array_equal(got[p], np.array(want))
