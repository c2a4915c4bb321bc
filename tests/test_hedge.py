"""American pricing and superhedging: the pricing driver, contraction
constants, hedge extraction, forward replication and the discounted
optimal-stopping check."""

import csv
from pathlib import Path

import numpy as np
import pytest

from markovbsde import (Obstacle, build_chain_spec, build_market_spec,
                        discounted_value_check, draw_paths, extract_hedge,
                        make_hedge_driver, price_american,
                        replicate_forward, solve_bsde, stock_curves)
from markovbsde.cli import main
from markovbsde.hedge import contraction_report, driver_constants
from markovbsde.errors import (ContractionViolatedError, DimensionMismatchError,
                               SingularPhiError)

from conftest import piece_of, pricing_f, put_on

SYM = np.array([[-1.0, 1.0], [1.0, -1.0]])
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_driver_collapses_to_discounting_when_c0(market_c0):
    # with C = 0, A' - Gamma' = diag(D) and r = D_i, so f = -r v exactly:
    # the paper's formula and the f read off the driver's affine form
    rng = np.random.default_rng(0)
    driver = make_hedge_driver(market_c0)
    for _ in range(20):
        t = float(rng.uniform(0.0, 1.0))
        i = int(rng.integers(2))
        v = float(rng.normal())
        z = rng.normal(size=2)
        for f in (pricing_f(market_c0, t, i, v, z), driver.evaluate(t, i, v, z)):
            assert f == pytest.approx(-0.05 * v, abs=1e-14)


def test_driver_constants_single_state():
    # one-state market: no jumps, m = 0, c6 reduces to the short rate
    one = build_chain_spec(1, [[0.0]], 0, 1.0)
    mkt = build_market_spec(one, d_schedule=[0.05], dividends=[[1.0]])
    consts = driver_constants(mkt)
    assert consts["m"] == 0.0
    assert consts["c4"] == pytest.approx(0.05, abs=1e-15)
    assert consts["c6"] == pytest.approx(0.05, abs=1e-15)


def test_driver_constants_bound_two_state(market_c0):
    consts = driver_constants(market_c0)
    # A - Gamma = diag(D): c1 = 0.05, c4 = 0.05
    assert consts["c1"] == pytest.approx(0.05, abs=1e-14)
    assert consts["c4"] == pytest.approx(0.05, abs=1e-14)
    assert consts["m"] == pytest.approx(2.0, abs=1e-14)
    assert consts["c6"] == pytest.approx(max(consts["c4"],
                                             consts["c5"] * np.sqrt(6.0)),
                                         abs=1e-14)


def test_driver_constants_cover_short_pieces(two_state_chain):
    # the rate 0.5 on [0.51, 0.52) falls between the nodes of a 32-step grid
    mkt = build_market_spec(two_state_chain,
                            d_schedule=[(0.0, [0.05, 0.05]), (0.51, [0.5, 0.5]),
                                        (0.52, [0.05, 0.05])],
                            dividends=[[1.0, 2.0], [2.0, 1.0]])
    assert driver_constants(mkt)["c4"] == 0.5
    assert contraction_report(mkt)["c4"] == 0.5


def test_contraction_holds_for_mild_market(market_c0):
    rep = contraction_report(market_c0)
    assert rep["holds"]
    assert rep["worst_margin"] > 0.5


def test_strict_pricing_checks_the_pricing_driver(two_state_chain, market_c0,
                                                  put_payoff):
    # r = 0.9: c6 ||Psi^+||_F sqrt(6m) = 0.9 * 0.5 * sqrt(12) > 1
    mkt = build_market_spec(two_state_chain, d_schedule=[0.9, 0.9],
                            dividends=[[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ContractionViolatedError):
        price_american(mkt, Obstacle(g=lambda t, i: 0.1), 50,
                       strict_contraction=True)
    sol = price_american(market_c0, put_payoff, 50, strict_contraction=True)
    assert np.array_equal(sol.values,
                          price_american(market_c0, put_payoff, 50).values)


def test_price_matches_independent_discounted_dp(market_c0, put_payoff):
    steps = 400
    sol = price_american(market_c0, put_payoff, steps)
    # independent dynamic program written from the stopping viewpoint:
    # continue via a one-step discounted Euler expectation, or exercise
    grid = sol.grid
    dt = grid[1] - grid[0]
    a = market_c0.chain.generator_at(0.0)
    d = np.array([0.05, 0.05])
    g = np.array([[put_payoff.g(t, i) for i in range(2)] for t in grid])
    v = g[-1].copy()
    for k in range(steps - 1, -1, -1):
        cont = v + dt * (a.T @ v) - dt * d * v
        v = np.maximum(g[k], cont)
        assert np.abs(sol.values[k] - v).max() < 1e-9


def test_inactive_obstacle_matches_european(market_c0):
    claim = np.array([1.0, 2.0])
    payoff = Obstacle(g=lambda t, i: claim[i] if t >= 1.0 else -10.0)
    sol = price_american(market_c0, payoff, 800)
    assert np.abs(sol.k.values).max() == 0.0
    ref = solve_bsde(market_c0.chain, make_hedge_driver(market_c0), claim, 800)
    assert np.abs(sol.values - ref.values).max() < 5e-4


def test_extract_hedge_solves_phi_h_equals_z(market_c0, curves_c0, put_payoff):
    sol = price_american(market_c0, put_payoff, 1000)
    strat = extract_hedge(market_c0, curves_c0, sol)
    phis = curves_c0.phi_all()
    resid = np.einsum("knj,kj->kn", phis, strat.h) - sol.values
    assert np.abs(resid).max() < 1e-12
    # accounting identity V = h0 B + sum h_j S_j holds by construction
    stock_leg = np.einsum("knj,kj->kn", phis, strat.h)
    recon = strat.h0 * strat.bond + stock_leg
    assert np.abs(recon - sol.values).max() < 1e-12


def test_extract_hedge_equals_the_per_node_loops(two_state_chain):
    # the batched solve, the per-step piece lookup and the bond's one exp of
    # the running sum of r dt repeat the per-node arithmetic exactly; the
    # short rate changes at 0.5123, between two nodes of the 200-step grid,
    # where the bond's step adds the rate of each side over its part of the
    # step, and every other step the rate times dt; C moves the rates off
    # round values
    mkt = build_market_spec(two_state_chain, c_schedule=[[0.0, 0.02], [0.03, 0.0]],
                            d_schedule=[(0.0, [0.05, 0.05]), (0.5123, [0.2, 0.1])],
                            dividends=[[1.0, 2.0], [2.0, 1.0]])
    curves = stock_curves(mkt, steps=200)
    put = put_on(curves, 30.0)
    sol = price_american(mkt, put, 200)
    strat = extract_hedge(mkt, curves, sol)
    grid = sol.grid
    dt = grid[1] - grid[0]
    h = np.empty_like(strat.h)
    bond = np.ones_like(strat.bond)
    log_bond = np.zeros(2)
    for k, t in enumerate(grid):
        h[k] = np.linalg.solve(curves.phi_all()[k], sol.values[k])
        if k:
            cuts = [grid[k - 1], *(b for b in mkt.breakpoints() if grid[k - 1] < b < t), t]
            r_dt = mkt.rates[piece_of(mkt.piece_starts, grid[k - 1])] * dt
            if len(cuts) > 2:
                r_dt = sum(mkt.rates[piece_of(mkt.piece_starts, a)] * (b - a)
                           for a, b in zip(cuts[:-1], cuts[1:]))
            log_bond = log_bond + r_dt
            bond[k] = np.exp(log_bond)
    assert np.array_equal(strat.h, h)
    assert np.array_equal(strat.bond, bond)
    assert not np.array_equal(bond[:, 0], bond[:, 1])


def test_bond_account_is_the_closed_form_across_an_off_grid_breakpoint(two_state_chain):
    # with C = 0 the short rate is D: 0.05 before 0.5123 and (0.2, 0.1)
    # after, so B_i(t) = exp(0.05 t) before and exp(0.05 b + D_i (t - b))
    # after; the breakpoint lies strictly inside a step of the 200-step and
    # of the 1000-step grid, and the relative error holds over both
    b = 0.5123
    mkt = build_market_spec(two_state_chain,
                            d_schedule=[(0.0, [0.05, 0.05]), (b, [0.2, 0.1])],
                            dividends=[[1.0, 2.0], [2.0, 1.0]])
    for steps in (200, 1000):
        curves = stock_curves(mkt, steps=steps)
        strat = extract_hedge(mkt, curves, price_american(mkt, put_on(curves, 30.0), steps))
        t = strat.grid[:, None]
        exact = np.exp(np.where(t < b, 0.05 * t, 0.05 * b + np.array([0.2, 0.1]) * (t - b)))
        assert np.abs(strat.bond / exact - 1.0).max() <= 1e-14, steps


def test_extract_hedge_requires_square_system(two_state_chain):
    mkt = build_market_spec(two_state_chain, d_schedule=[0.05, 0.05],
                            dividends=[[1.0, 2.0]])
    curves = stock_curves(mkt, steps=100)
    payoff = Obstacle(g=lambda t, i: 0.1)
    sol = price_american(mkt, payoff, 100)
    with pytest.raises(DimensionMismatchError):
        extract_hedge(mkt, curves, sol)


def test_extract_hedge_rejects_singular_phi(two_state_chain):
    # two identical stocks give a rank-one phi matrix
    mkt = build_market_spec(two_state_chain, d_schedule=[0.05, 0.05],
                            dividends=[[1.0, 2.0], [1.0, 2.0]])
    curves = stock_curves(mkt, steps=100)
    payoff = Obstacle(g=lambda t, i: 0.1)
    sol = price_american(mkt, payoff, 100)
    with pytest.raises(SingularPhiError):
        extract_hedge(mkt, curves, sol)


def test_replication_tracks_value_to_machine_precision(market_c0, curves_c0,
                                                       put_payoff):
    sol = price_american(market_c0, put_payoff, 1000)
    strat = extract_hedge(market_c0, curves_c0, sol)
    rep = replicate_forward(strat, sol, draw_paths(market_c0.chain, 0, 10))
    assert rep["max_gap"].shape == (10,)
    assert np.all(rep["max_gap"] < 1e-10)
    assert np.all(rep["dominates"])
    assert np.all(rep["terminal_gap"] < 1e-10)


def test_replication_reads_the_piece_of_each_left_node():
    # a piece start 5e-13 above the node t = 0.5: the backward scheme reads
    # the first piece at that node and the second piece from the next one
    chain = build_chain_spec(2, [(0.0, SYM), (0.5 + 5e-13, 3.0 * SYM)], 0, 1.0)
    mkt = build_market_spec(chain, d_schedule=[0.05, 0.05],
                            dividends=[[1.0, 2.0], [2.0, 1.0]])
    curves = stock_curves(mkt, steps=200)
    put = put_on(curves, 30.0)
    sol = price_american(mkt, put, 200)
    strat = extract_hedge(mkt, curves, sol)
    rep = replicate_forward(strat, sol, draw_paths(chain, 0, 20))
    assert np.all(rep["max_gap"] < 1e-10)


def test_discounted_value_check_passes(market_c0_s1):
    curves = stock_curves(market_c0_s1, steps=200)
    payoff = put_on(curves, 30.0)
    sol = price_american(market_c0_s1, payoff, 200)
    rep = discounted_value_check(market_c0_s1, payoff, sol, n_paths=5000,
                                 seed_base=0)
    assert rep["pass"]
    assert rep["dominates"]
    assert rep["std_error"] > 0.0


def test_hedge_csv_rows(tmp_path):
    # the CLI's hedge.csv: (time, state, V, K, h_1..h_n, h0) per node and
    # state, each stock holding repeated across the states of its node
    out = tmp_path / "h"
    assert main(["hedge", "--config", str(CONFIGS / "market_put.yaml"),
                 "--out", str(out), "--steps", "1000", "--paths", "1"]) == 0
    with open(out / "hedge.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["time", "state", "V", "K", "h_1", "h_2", "h0"]
    assert len(rows) == 1 + 1001 * 2
    assert all(len(r) == 4 + 2 + 1 for r in rows)
    for a, b in zip(rows[1::2], rows[2::2]):
        assert a[0] == b[0] and (a[1], b[1]) == ("0", "1")
        assert a[4:6] == b[4:6]
