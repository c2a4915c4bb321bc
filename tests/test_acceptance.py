"""Acceptance suite: twelve numbered criteria, one printed pass/fail line
each. Tolerances are fixed; instances are constructed so every quantity has
an independent oracle (closed form, hand calculation or a test-local
re-derivation)."""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from markovbsde import (MarkovDriver, Obstacle, build_chain_spec,
                        build_market_spec, comparison_check, constant_obstacle,
                        discount_driver, discounted_value_check, extract_hedge,
                        gamma_matrix, isometry_check, penalization_limit,
                        price_american, pseudoinverse, psi_matrix,
                        rate_bound_m, replicate_forward, sdf_dynamics_residual,
                        seminorm_sq, short_rate, sigma_matrix, simulate_path,
                        simulate_paths, skorokhod_integral, snell_oracle,
                        solve_bsde, solve_reflected, stock_curves,
                        stock_sde_residual, zero_driver)
from markovbsde.hedge import make_hedge_driver
from markovbsde.montecarlo import european_consistency
from markovbsde.rbsde import solve_penalized

from conftest import put_on, random_chain, random_generator

ROOT = Path(__file__).resolve().parent.parent
SYM = np.array([[-1.0, 1.0], [1.0, -1.0]])


def report(capsys, num, name, ok, detail=""):
    with capsys.disabled():
        tail = f"  [{detail}]" if detail else ""
        print(f"acceptance {num:2d} {'PASS' if ok else 'FAIL'}  {name}{tail}")
    assert ok, f"acceptance criterion {num} failed: {name} {detail}"


def test_criterion_01_psi_calculus_suite(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        spec = build_chain_spec(n, random_generator(rng, n), 0, 1.0)
        i = int(rng.integers(n))
        psi = psi_matrix(spec, float(rng.uniform(0.0, 1.0)), i)
        ok = (np.abs(psi - psi.T).max() <= 1e-10
              and np.linalg.eigvalsh(psi).min() >= -1e-10
              and np.abs(psi.sum(axis=0)).max() <= 1e-10
              and np.abs(psi.sum(axis=1)).max() <= 1e-10)
        c = rng.normal(size=n)
        m = rate_bound_m(spec)
        ok = ok and seminorm_sq(c, psi) <= 3.0 * m * float(c @ c) + 1e-10
        p = pseudoinverse(psi)
        ok = (ok and np.abs(psi @ p @ psi - psi).max() <= 1e-10
              and np.abs(p @ psi @ p - p).max() <= 1e-10
              and np.abs((psi @ p) - (psi @ p).T).max() <= 1e-10
              and np.abs((p @ psi) - (p @ psi).T).max() <= 1e-10)
        violations += 0 if ok else 1
    elapsed = time.perf_counter() - t0
    report(capsys, 1, "Psi calculus suite (1000 random specs)",
           violations == 0 and elapsed < 10.0,
           f"violations={violations}, {elapsed:.1f}s")


def test_criterion_02_isometry(capsys):
    spec = build_chain_spec(2, SYM, 0, 1.0)
    t0 = time.perf_counter()
    rep = isometry_check(spec, np.array([1.0, 0.0]), n_paths=100_000,
                         seed_base=0)
    elapsed = time.perf_counter() - t0
    ok = (abs(rep["rhs"] - 1.0) <= 1e-12 and rep["pass"] and elapsed < 30.0)
    report(capsys, 2, "martingale isometry at 1e5 paths", ok,
           f"lhs={rep['lhs']:.4f}, rhs={rep['rhs']:.12f}, "
           f"|diff|={abs(rep['diff']):.2e} vs 3se={3 * rep['std_error']:.2e}, "
           f"{elapsed:.1f}s")


def test_criterion_03_bsde_closed_forms(capsys):
    spec = build_chain_spec(2, SYM, 0, 1.0)
    sol = solve_bsde(spec, discount_driver(0.1), np.ones(2), 1000)
    exp_err = np.abs(sol.values
                     - np.exp(-0.1 * (1.0 - sol.grid))[:, None]).max()
    occ = solve_bsde(spec, zero_driver(), np.array([1.0, 0.0]), 1000)
    occ_err = abs(occ.values[0, 0] - (0.5 + 0.5 * np.exp(-2.0)))
    ok = exp_err < 1e-8 and occ_err < 1e-8
    report(capsys, 3, "BSDE closed forms (discount, occupancy)", ok,
           f"errors {exp_err:.2e}, {occ_err:.2e}")


def test_criterion_04_comparison_theorem(capsys):
    rng = np.random.default_rng(4)
    worst = 0.0
    violations = 0
    for _ in range(200):
        spec = random_chain(rng, scale=1.5)
        n = spec.n_states
        a1 = rng.normal(scale=0.5, size=n)
        b = float(rng.uniform(-0.5, 0.5))
        bump_f = rng.uniform(0.0, 1.0, size=n)
        d1 = MarkovDriver(
            evaluate=lambda t, i, y, z, a1=a1, b=b: float(a1[i]) + b * y,
            lipschitz_y=abs(b))
        d2 = MarkovDriver(
            evaluate=lambda t, i, y, z, a1=a1, b=b, e=bump_f:
                float(a1[i] + e[i]) + b * y,
            lipschitz_y=abs(b))
        xi1 = rng.normal(size=n)
        xi2 = xi1 + rng.uniform(0.0, 1.0, size=n)
        rep = comparison_check(spec, d1, xi1, d2, xi2, 60,
                               rng_seed=int(rng.integers(1 << 30)))
        worst = max(worst, rep["max_violation"])
        violations += 0 if rep["holds"] else 1
    report(capsys, 4, "comparison theorem on 200 ordered instances",
           violations == 0, f"worst violation {worst:.2e}")


def test_criterion_05_rbsde_triple_consistency(capsys):
    spec = build_chain_spec(2, SYM, 0, 1.0)
    rng = np.random.default_rng(5)

    # (a) reflected scheme vs Snell dynamic program, identical grids
    snell_gap = 0.0
    for _ in range(20):
        inst = random_chain(rng, scale=1.5)
        n = inst.n_states
        rate = float(rng.uniform(0.0, 0.5))
        drv = discount_driver(rate)
        lvl = float(rng.uniform(-0.5, 0.5))
        xi = rng.uniform(lvl, lvl + 1.0, size=n)
        obs = constant_obstacle(lvl)
        sol = solve_reflected(inst, drv, xi, obs, 150)
        oracle = snell_oracle(inst, drv, xi, obs, 150)
        snell_gap = max(snell_gap, float(np.abs(sol.values
                                                - oracle.values).max()))

    # (b) penalization limit within 1e-3 of the reflected solution
    drv = discount_driver(0.1)
    xi = np.array([0.5, 0.8])
    obs = Obstacle(g=lambda t, i: 0.6 - 0.3 * t + 0.1 * i)
    refl = solve_reflected(spec, drv, xi, obs, 200)
    pen = penalization_limit(spec, drv, xi, obs, 200, 2.5e-4)
    pen_gap = float(np.abs(pen.values - refl.values).max())

    # (c) penalized solutions monotone in n, 200 random instances
    mono_violations = 0
    for _ in range(200):
        inst = random_chain(rng, scale=1.5)
        n = inst.n_states
        rate = float(rng.uniform(0.0, 0.5))
        lvl = float(rng.uniform(-0.5, 0.5))
        xi_i = rng.uniform(lvl, lvl + 1.0, size=n)
        slope = float(rng.uniform(0.0, 0.5))
        obs_i = Obstacle(g=lambda t, i, lvl=lvl, s=slope: lvl + s * (1.0 - t))
        lo = solve_penalized(inst, discount_driver(rate), xi_i, obs_i, 8, 80)
        hi = solve_penalized(inst, discount_driver(rate), xi_i, obs_i, 16, 80)
        if not np.all(hi.values >= lo.values - 1e-12):
            mono_violations += 1

    # (d) Skorokhod flatness on solutions whose contact set is resolved
    # exactly by the scheme
    sk_worst = 0.0
    cases = [
        (zero_driver(), np.zeros(2), Obstacle(g=lambda t, i: 1.0 - t)),
        (discount_driver(0.1), np.array([1.0, 2.0]), constant_obstacle(-5.0)),
        (zero_driver(), np.ones(2), Obstacle(g=lambda t, i: 2.0 - t)),
    ]
    mkt = build_market_spec(build_chain_spec(2, SYM, 1, 1.0),
                            d_schedule=[0.05, 0.05],
                            dividends=[[1.0, 2.0], [2.0, 1.0]])
    curves = stock_curves(mkt, steps=400)
    put = put_on(curves, 30.0)
    psol = price_american(mkt, put, 400)
    sk_worst = max(sk_worst, skorokhod_integral(psol))
    for drv_i, xi_i, obs_i in cases:
        sol = solve_reflected(spec, drv_i, xi_i, obs_i, 400)
        sk_worst = max(sk_worst, skorokhod_integral(sol))

    ok = (snell_gap <= 1e-12 and pen_gap < 1e-3 and mono_violations == 0
          and sk_worst < 1e-9)
    report(capsys, 5, "RBSDE triple consistency", ok,
           f"snell gap {snell_gap:.1e}, penalization gap {pen_gap:.1e}, "
           f"monotone violations {mono_violations}, skorokhod {sk_worst:.1e}")


def test_criterion_06_decreasing_obstacle_exact(capsys):
    rng = np.random.default_rng(6)
    chains = [build_chain_spec(2, SYM, 0, 1.0)]
    chains += [random_chain(rng, n_low=2, n_high=5) for _ in range(3)]
    worst = 0.0
    for spec in chains:
        obs = Obstacle(g=lambda t, i: spec.horizon - t)
        sol = solve_reflected(spec, zero_driver(), np.zeros(spec.n_states),
                              obs, 500)
        v_err = np.abs(sol.values
                       - (spec.horizon - sol.grid)[:, None]).max()
        k_err = np.abs(sol.k.values - sol.grid[:, None]).max()
        worst = max(worst, float(v_err), float(k_err))
    report(capsys, 6, "decreasing-obstacle exact case (V=T-t, K=t)",
           worst < 1e-10, f"max error {worst:.1e}")


def test_criterion_07_market_identities(capsys):
    chain = build_chain_spec(2, SYM, 0, 1.0)
    d = np.array([0.05, 0.07])
    mkt = build_market_spec(chain, d_schedule=d, dividends=[[1.0, 2.0]])
    # C = 0 collapse, all exact
    collapse_ok = (np.array_equal(sigma_matrix(np.zeros((2, 2))),
                                  np.zeros((2, 2)))
                   and short_rate(mkt, 0.3, 0) == 0.05
                   and short_rate(mkt, 0.3, 1) == 0.07
                   and np.array_equal(gamma_matrix(SYM, np.zeros((2, 2)), d),
                                      SYM - np.diag(d)))
    # stationary stock solve
    mkt_s = build_market_spec(chain, d_schedule=[0.05, 0.05],
                              dividends=[[1.0, 2.0], [2.0, 1.0]])
    curves = stock_curves(mkt_s, steps=500)
    gamma_t = mkt_s.piece_at(0.0).gamma.T
    stat_res = max(
        float(np.abs(gamma_t @ curves.s[j, 0] + np.asarray(dv)).max())
        for j, dv in enumerate(([1.0, 2.0], [2.0, 1.0])))

    # discount-factor SDE residual: small C, first-order decay
    c = np.array([[0.0, 0.002], [0.001, 0.0]])
    mkt_c = build_market_spec(chain, c_schedule=c, d_schedule=[0.05, 0.05],
                              dividends=[[1.0, 2.0]])
    path = simulate_path(chain, 7)
    pi_half = sdf_dynamics_residual(mkt_c, path, 5000)[0]
    pi_full = sdf_dynamics_residual(mkt_c, path, 10_000)[0]
    pi_ok = pi_full < 1e-8 and 1.6 < pi_half / pi_full < 2.4

    # stock SDE residual: gently time-varying dividends, first-order decay
    mkt_t = build_market_spec(
        chain,
        d_schedule=[(0.0, [0.05, 0.05]), (0.5, [0.05 + 2e-5, 0.05 + 1e-5])],
        dividends=[[1.0, 2.0]])
    curves_t = stock_curves(mkt_t, steps=10_000)
    s_half = stock_sde_residual(mkt_t, curves_t, path, 5000)[0]
    s_full = stock_sde_residual(mkt_t, curves_t, path, 10_000)[0]
    s_ok = s_full < 1e-8 and 1.6 < s_half / s_full < 2.4

    ok = collapse_ok and stat_res < 1e-12 and pi_ok and s_ok
    report(capsys, 7, "market identities and SDE residuals", ok,
           f"stationary {stat_res:.1e}, pi {pi_full:.1e} (x{pi_half / pi_full:.2f}), "
           f"stock {s_full:.1e} (x{s_half / s_full:.2f})")


def test_criterion_08_american_vs_oracle(capsys, market_c0, put_payoff):
    steps = 400
    sol = price_american(market_c0, put_payoff, steps)
    # independent discounted Snell dynamic program
    grid = sol.grid
    dt = grid[1] - grid[0]
    a = market_c0.chain.generator_at(0.0)
    d = np.array([0.05, 0.05])
    g = np.array([[put_payoff.g(t, i) for i in range(2)] for t in grid])
    v = g[-1].copy()
    dp_gap = 0.0
    for k in range(steps - 1, -1, -1):
        v = np.maximum(g[k], v + dt * (a.T @ v) - dt * d * v)
        dp_gap = max(dp_gap, float(np.abs(sol.values[k] - v).max()))
    # inactive obstacle: European value and no reflection
    claim = np.array([1.0, 2.0])
    payoff = Obstacle(g=lambda t, i: claim[i] if t >= 1.0 else -10.0)
    am = price_american(market_c0, payoff, 800)
    k_mass = float(np.abs(am.k.values).max())
    eur = solve_bsde(market_c0.chain, make_hedge_driver(market_c0), claim, 800)
    eur_gap = float(np.abs(am.values - eur.values).max())
    ok = dp_gap <= 1e-9 and k_mass == 0.0 and eur_gap < 5e-4
    report(capsys, 8, "American price vs discounted Snell oracle", ok,
           f"dp gap {dp_gap:.1e}, K mass {k_mass:.1e}, "
           f"european gap {eur_gap:.1e}")


def test_criterion_09_hedging(capsys, market_c0):
    steps = 10_000
    curves = stock_curves(market_c0, steps=steps)
    put = put_on(curves, 30.0)
    sol = price_american(market_c0, put, steps)
    strat = extract_hedge(market_c0, curves, sol)
    phi_res = float(np.abs(np.einsum("knj,kj->kn", curves.phi_all(), strat.h)
                           - sol.values).max())
    rep = replicate_forward(strat, sol, simulate_paths(market_c0.chain, range(100)))
    max_gap = float(rep["max_gap"].max())
    term_gap = float(rep["terminal_gap"].max())
    dominated = bool(np.all(rep["dominates"]))
    ok = phi_res < 1e-12 and max_gap < 1e-6 and dominated and term_gap < 1e-9
    report(capsys, 9, "hedging and forward replication (100 paths)", ok,
           f"phi-h residual {phi_res:.1e}, max gap {max_gap:.1e}, "
           f"terminal gap {term_gap:.1e}, dominates={dominated}")


def test_criterion_10_discounted_representation(capsys, market_c0_s1):
    curves = stock_curves(market_c0_s1, steps=200)
    put = put_on(curves, 30.0)
    sol = price_american(market_c0_s1, put, 200)
    rep = discounted_value_check(market_c0_s1, put, sol, n_paths=100_000,
                                 seed_base=0)
    ok = rep["pass"] and rep["dominates"] and rep["std_error"] > 0.0
    report(capsys, 10, "discounted stopping representation at 1e5 paths", ok,
           f"mc {rep['mc_value']:.6f} vs solver {rep['solver_value']:.6f}, "
           f"3se {3 * rep['std_error']:.1e}")


# random chains routinely have tiny rates, which blow up the pseudoinverse
# norm in the sufficient contraction condition; the pricing reduction is
# linear and does not rely on the fixed-point argument, so the advisory
# warning is silenced for these instances
@pytest.mark.filterwarnings("ignore:z-Lipschitz contraction")
def test_criterion_11_european_consistency(capsys):
    rng = np.random.default_rng(11)
    failures = 0
    worst_sig = 0.0
    for trial in range(25):
        with_c = trial >= 20
        n = int(rng.integers(2, 4))
        a = random_generator(rng, n, scale=0.8)
        chain = build_chain_spec(n, a, int(rng.integers(n)), 1.0)
        d = rng.uniform(0.15, 0.3, size=n) if with_c else \
            rng.uniform(0.01, 0.15, size=n)
        c = rng.uniform(-0.03, 0.03, size=(n, n)) if with_c else None
        mkt = build_market_spec(chain, c_schedule=c, d_schedule=d,
                                dividends=[rng.uniform(0.5, 2.0, size=n)])
        claim = rng.uniform(0.5, 2.0, size=n)
        rep = european_consistency(mkt, claim, n_paths=4000, steps=400,
                                   seed_base=1000 * trial)
        sig = abs(rep["lhs"] - rep["rhs"]) / max(rep["std_error"], 1e-300)
        worst_sig = max(worst_sig, sig)
        failures += 0 if rep["pass"] else 1
    report(capsys, 11, "European consistency (20 C=0 + 5 C!=0 markets)",
           failures == 0, f"failures {failures}, worst {worst_sig:.2f} se")


def test_criterion_12_end_to_end_verify(capsys, tmp_path):
    t0 = time.perf_counter()
    codes = []
    for cfg in ("market_put.yaml", "market_regime.yaml"):
        proc = subprocess.run(
            [sys.executable, "-m", "markovbsde.cli", "verify",
             "--config", str(ROOT / "configs" / cfg),
             "--out", str(tmp_path / cfg.split(".")[0])],
            capture_output=True, text=True)
        codes.append(proc.returncode)
    elapsed = time.perf_counter() - t0
    ok = codes == [0, 0] and elapsed < 300.0
    report(capsys, 12, "end-to-end verify on bundled fixtures", ok,
           f"exit codes {codes}, {elapsed:.1f}s")
