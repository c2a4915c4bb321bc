"""The benchmark's references against closed forms worked out by hand.

Run from the repository root: python3 -m pytest benchmark
"""

import numpy as np
import pytest

import reference as ref

SYM = np.array([[-1.0, 1.0], [1.0, -1.0]])


def sym_exp(t, rate=1.0):
    """e^{rate A t} for the symmetric two-state chain."""
    e = np.exp(-2.0 * rate * t)
    return 0.5 * np.array([[1 + e, 1 - e], [1 - e, 1 + e]])


def test_symmetric_chain_exponential():
    prop = ref.Propagator([0.0], [SYM])
    for t in (0.0, 0.1, 0.7, 3.0):
        assert np.allclose(prop.exp(0, t), sym_exp(t), atol=1e-14)


def test_zero_and_discount_drivers():
    grid = np.linspace(0.0, 1.0, 11)
    yt = np.array([1.0, 0.0])
    zero = ref.linear_bsde(grid, [0.0], [ref.bsde_matrix(SYM, ("discount", 0.0))],
                           yt)
    for k, t in enumerate(grid):
        assert np.allclose(zero[k], sym_exp(1.0 - t).T @ yt, atol=1e-14)
    disc = ref.linear_bsde(grid, [0.0], [ref.bsde_matrix(SYM, ("discount", 0.3))],
                           np.ones(2))
    assert np.allclose(disc, np.exp(-0.3 * (1.0 - grid))[:, None], atol=1e-14)


def test_affine_driver_one_state():
    a, b, yt = 0.4, -0.7, 2.0
    grid = np.linspace(0.0, 1.5, 7)
    mat = ref.bsde_matrix(np.zeros((1, 1)), ("affine", np.array([a]), b))
    got = ref.linear_bsde(grid, [0.0], [mat],
                          ref.augment([yt], ("affine", None, b)))[:, 0]
    want = (yt + a / b) * np.exp(b * (1.5 - grid)) - a / b
    assert np.allclose(got, want, atol=1e-13)


def test_pieces_split_off_grid_steps():
    # rate 1 on [0, 0.37), rate 3 on [0.37, 1]: the sum is kept, the
    # difference decays by exp(-2 rate length) on each piece
    grid = np.linspace(0.0, 1.0, 5)
    yt = np.array([2.0, 0.5])
    vals = ref.linear_bsde(grid, [0.0, 0.37], [SYM.T, 3.0 * SYM.T], yt)
    diff0 = (yt[0] - yt[1]) * np.exp(-2 * 3.0 * 0.63) * np.exp(-2 * 1.0 * 0.37)
    assert np.isclose(vals[0].sum(), yt.sum(), atol=1e-14)
    assert np.isclose(vals[0, 0] - vals[0, 1], diff0, atol=1e-14)
    assert ref.piece_cuts([0.0, 0.37], 0.25, 0.5) == [(0.25, 0.37, 0), (0.37, 0.5, 1)]


def test_merge_schedules():
    starts, vals = ref.merge_schedules(([0.0, 0.5], ["a0", "a1"]),
                                       ([0.0, 0.2], ["c0", "c1"]))
    assert starts == [0.0, 0.2, 0.5]
    assert vals == [("a0", "c0"), ("a0", "c1"), ("a1", "c1")]


def test_gamma():
    a = np.array([[-1.0, 2.0], [1.0, -2.0]])
    c = np.array([[0.0, 0.1], [0.3, 0.0]])
    d = np.array([0.2, 0.5])
    g = ref.gamma(a, c, d)
    assert np.allclose(g, [[-1.2, 2.0 * np.exp(-0.3)], [np.exp(-0.1), -2.5]])
    # the columns of Gamma sum to minus the short rate
    # r_i = D_i - sum_j (exp(C_ii - C_ij) - 1) A_ji
    r = [0.2 - (np.exp(-0.1) - 1.0), 0.5 - 2.0 * (np.exp(-0.3) - 1.0)]
    assert np.allclose(g.sum(axis=0), np.negative(r))


def sym_stationary(delta, d):
    """s* of the symmetric chain with C = 0 and flat D = d: the mean of
    the components is mean(delta) / d, half their difference
    (delta_0 - delta_1) / (2 (d + 2))."""
    m = np.mean(delta) / d
    h = (delta[0] - delta[1]) / (2.0 * (d + 2.0))
    return m, h


def test_stock_curves_two_pieces():
    delta = np.array([1.0, 2.0])
    d1, d2, brk = 0.05, 0.1, 0.43
    gammas = [ref.gamma(SYM, np.zeros((2, 2)), np.full(2, d)) for d in (d1, d2)]
    grid = np.linspace(0.0, 1.0, 9)
    s = ref.stock_curves(grid, [0.0, brk], gammas, delta)
    m1, h1 = sym_stationary(delta, d1)
    m2, h2 = sym_stationary(delta, d2)
    for k, t in enumerate(grid):
        tau = max(brk - t, 0.0)
        m = m1 + np.exp(-d1 * tau) * (m2 - m1) if t < brk else m2
        h = h1 + np.exp(-(d1 + 2.0) * tau) * (h2 - h1) if t < brk else h2
        assert np.allclose(s[k], [m + h, m - h], rtol=1e-13)


def test_european_value_flat_discount():
    gam = ref.gamma(SYM, np.zeros((2, 2)), np.full(2, 0.05))
    grid = np.linspace(0.0, 2.0, 3)
    claim = np.array([1.0, 3.0])
    y0 = ref.linear_bsde(grid, [0.0], [gam.T], claim)[0]
    assert np.allclose(y0, np.exp(-0.1) * sym_exp(2.0) @ claim, atol=1e-14)


def test_isometry_expectation_two_states():
    a, b, horizon = 0.7, 2.0, 1.3
    gen = np.array([[-a, b], [a, -b]])
    got, top = ref.isometry_expectation([0.0], [gen], horizon, 0,
                                        np.array([1.0, 0.0]))
    occ0 = (b * horizon / (a + b)
            + a / (a + b) ** 2 * (1.0 - np.exp(-(a + b) * horizon)))
    assert np.isclose(got, b * horizon + (a - b) * occ0, rtol=1e-13)
    assert top == b


def test_bermudan_constant_obstacle():
    r, g = 0.4, 0.9
    grid = np.linspace(0.0, 1.0, 51)
    vals = ref.bermudan(grid, [0.0], [ref.bsde_matrix(np.zeros((1, 1)),
                                                      ("discount", r))],
                        np.ones(1), np.full((grid.size, 1), g), 1)
    want = np.maximum(g, np.exp(-r * (1.0 - grid)))
    want[-1] = 1.0
    assert np.allclose(vals[:, 0], want, atol=1e-14)


@pytest.mark.parametrize("steps", [100, 400])
def test_first_order_tol_bounds_euler(steps):
    rng = np.random.default_rng(7)
    mats = []
    for _ in range(3):
        a = rng.uniform(0.2, 1.0, (3, 3))
        np.fill_diagonal(a, 0.0)
        np.fill_diagonal(a, -a.sum(axis=0))
        mats.append(a.T - 0.1 * np.eye(3))
    starts = [0.0, 0.311, 0.737]
    grid = np.linspace(0.0, 1.0, steps + 1)
    yt = np.array([1.0, -0.5, 2.0])
    exact = ref.linear_bsde(grid, starts, mats, yt)
    y = yt.copy()
    for k in range(steps - 1, -1, -1):
        m = mats[max(i for i, s in enumerate(starts) if s <= grid[k])]
        y = y + (grid[1] - grid[0]) * m @ y
    err = float(np.abs(y - exact[0]).max())
    tol = ref.first_order_tol(grid, starts, mats, exact)
    assert 0.0 < err <= tol < 0.1 * float(np.abs(exact).max())


def test_first_order_tol_capped_by_scale():
    stiff = 1e4 * SYM.T
    grid = np.linspace(0.0, 1.0, 101)
    exact = ref.linear_bsde(grid, [0.0], [stiff], np.array([2.0, 0.0]))
    assert ref.first_order_tol(grid, [0.0], [stiff], exact) == 2.0
