"""Shared fixtures and random-instance builders for the test suite."""

import numpy as np
import pytest

from markovbsde import (Obstacle, PathBatch, build_chain_spec,
                        build_market_spec, stock_curves)
from markovbsde.grids import interp


def random_generator(rng, n, scale=2.0):
    """Random rate matrix in the column convention: nonnegative
    off-diagonals, columns summing to zero."""
    a = rng.uniform(0.0, scale, size=(n, n))
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, -a.sum(axis=0))
    return a


def expm(m):
    """Matrix exponential by scaling and squaring of a 20-term Taylor sum."""
    norm = np.abs(m).sum(axis=0).max()
    squarings = max(0, int(np.ceil(np.log2(norm / 0.25)))) if norm > 0 else 0
    x = m / 2.0 ** squarings
    out = term = np.eye(m.shape[0])
    for k in range(1, 20):
        term = term @ x / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def put_on(curves, strike):
    """The put max(strike - s_0(t), 0) on stock 0 of ``curves``, linear in t
    between their nodes, as a callback obstacle."""
    return Obstacle(g=lambda t, i: max(
        strike - float(interp(curves.grid, curves.s[0], [t])[0, i]), 0.0))


def one_path(jump_times, states):
    """The hand-built path (jump times, visited states) on [0, 1] as a
    PathBatch of one."""
    return PathBatch(offsets=[0, len(jump_times)], jump_times=jump_times,
                     states=states, horizon=1.0, seeds=(0,))


def random_chain(rng, n_low=2, n_high=4, horizon=1.0, scale=2.0):
    n = int(rng.integers(n_low, n_high + 1))
    a = random_generator(rng, n, scale)
    x0 = int(rng.integers(n))
    return build_chain_spec(n, a, x0, horizon)


@pytest.fixture(scope="session")
def two_state_chain():
    a = np.array([[-1.0, 1.0], [1.0, -1.0]])
    return build_chain_spec(2, a, 0, 1.0)


@pytest.fixture(scope="session")
def two_state_chain_s1():
    a = np.array([[-1.0, 1.0], [1.0, -1.0]])
    return build_chain_spec(2, a, 1, 1.0)


@pytest.fixture(scope="session")
def market_c0(two_state_chain):
    """Flat discount function, two stocks with swapped dividend profiles."""
    return build_market_spec(two_state_chain, d_schedule=[0.05, 0.05],
                             dividends=[[1.0, 2.0], [2.0, 1.0]])


@pytest.fixture(scope="session")
def market_c0_s1(two_state_chain_s1):
    return build_market_spec(two_state_chain_s1, d_schedule=[0.05, 0.05],
                             dividends=[[1.0, 2.0], [2.0, 1.0]])


@pytest.fixture(scope="session")
def curves_c0(market_c0):
    return stock_curves(market_c0, steps=1000)


@pytest.fixture(scope="session")
def put_payoff(curves_c0):
    """Strike-30 put on stock 0 (prices 29.76 / 30.24 by state)."""
    return put_on(curves_c0, 30.0)
