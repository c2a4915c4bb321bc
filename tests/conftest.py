"""Shared fixtures and random-instance builders for the test suite."""

import numpy as np
import pytest

from markovbsde import (Obstacle, PathBatch, build_chain_spec,
                        build_market_spec, stock_curves)


def random_generator(rng, n, scale=2.0):
    """Random rate matrix in the column convention: nonnegative
    off-diagonals, columns summing to zero."""
    a = rng.uniform(0.0, scale, size=(n, n))
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, -a.sum(axis=0))
    return a


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
    curve = curves_c0.curve(0)
    return Obstacle(g=lambda t, i: max(30.0 - float(curve.interp(t)[i]), 0.0))
