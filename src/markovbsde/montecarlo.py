"""Monte Carlo estimation engine and the statistical checks tying pathwise
simulation to the analytic solvers.

Functionals receive exact jump paths, so stochastic integrals against the
chain martingale carry no time-discretization bias; only dt integrals use
quadrature. All estimates are deterministic given (seed_base, n_paths),
with path p drawn from seed_base + p.
"""

from dataclasses import dataclass

import numpy as np

from .bsde import solve_bsde
from .chain import ChainSpec, seminorm_sq, simulate_path
from .errors import NonFiniteError
from .hedge import make_hedge_driver
from .market import terminal_sdf


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    n_paths: int
    seed_base: int


def mc_estimate(chain, functional, n_paths, seed_base=0):
    """Sample mean and standard error of a path functional of ``chain``."""
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2")
    if not isinstance(chain, ChainSpec):
        raise TypeError(f"expected ChainSpec, got {type(chain)}")
    samples = np.empty(n_paths)
    for p in range(n_paths):
        seed = seed_base + p
        val = float(functional(simulate_path(chain, seed)))
        if not np.isfinite(val):
            raise NonFiniteError(f"functional returned {val} for seed {seed}")
        samples[p] = val
    return McEstimate(mean=float(samples.mean()),
                      std_error=float(samples.std(ddof=1) / np.sqrt(n_paths)),
                      n_paths=int(n_paths), seed_base=int(seed_base))


def _paths(chain, n_paths, seed_base, paths):
    """The paths of seeds seed_base .. seed_base + n_paths - 1: ``paths``
    when given (checked against those seeds), else drawn one at a time."""
    if paths is None:
        return (simulate_path(chain, seed_base + p) for p in range(n_paths))
    if [path.seed for path in paths] != list(range(seed_base, seed_base + n_paths)):
        raise ValueError(f"paths must be those of seeds {seed_base} .. "
                         f"{seed_base + n_paths - 1}")
    return paths


def stochastic_integral(spec, z, path):
    """Exact pathwise int z' dM for a constant vector z: jump increments
    minus the drift compensator z'A e_i, per stretch of constant state i
    and constant generator A."""
    z = np.asarray(z, dtype=float)
    total = 0.0
    for idx in range(path.n_jumps):
        old, new = int(path.states[idx]), int(path.states[idx + 1])
        total += z[new] - z[old]
    for t0, t1, state, piece, _ in path.stretches(spec.breakpoints(), spec.starts):
        total -= float(z @ spec.schedule[piece][1][:, state]) * (t1 - t0)
    return total


def seminorm_time_integral(spec, z, path):
    """Exact pathwise int ||z||^2_{X_u} du for a constant vector z, from
    the per-piece Psi matrices of ``spec.psi``."""
    total = 0.0
    for t0, t1, state, piece, _ in path.stretches(spec.breakpoints(), spec.starts):
        total += seminorm_sq(z, spec.psi[piece][state]) * (t1 - t0)
    return total


def isometry_check(spec, z, n_paths, seed_base=0, *, paths=None):
    """Check E[(int z'dM)^2] against E[int ||z||^2 du] on shared paths.

    The per-path difference of the two functionals must have mean within 3
    standard errors of zero. ``paths``, when given, are the already drawn
    paths of seeds seed_base .. seed_base + n_paths - 1.
    """
    z = np.asarray(z, dtype=float)
    lhs = np.empty(n_paths)
    rhs = np.empty(n_paths)
    for p, path in enumerate(_paths(spec, n_paths, seed_base, paths)):
        lhs[p] = stochastic_integral(spec, z, path) ** 2
        rhs[p] = seminorm_time_integral(spec, z, path)
    diff = lhs - rhs
    se = float(diff.std(ddof=1) / np.sqrt(n_paths))
    passed = abs(float(diff.mean())) <= 3.0 * se + 1e-12
    return {"lhs": float(lhs.mean()), "rhs": float(rhs.mean()),
            "diff": float(diff.mean()), "std_error": se,
            "pass": bool(passed), "n_paths": int(n_paths)}


def european_consistency(market, terminal_claim, n_paths, steps=400,
                         seed_base=0, *, paths=None):
    """Compare the BSDE value of a terminal claim under the pricing driver
    with the Monte Carlo deflated expectation E[pi_T claim'X_T].

    ``paths``, when given, are the already drawn paths of seeds
    seed_base .. seed_base + n_paths - 1.
    """
    claim = np.asarray(terminal_claim, dtype=float)
    driver = make_hedge_driver(market)
    sol = solve_bsde(market.chain, driver, claim, steps)
    bsde_value = float(sol.values[0, market.chain.initial_state])
    samples = np.empty(n_paths)
    for p, path in enumerate(_paths(market.chain, n_paths, seed_base, paths)):
        samples[p] = terminal_sdf(market, path) * claim[path.states[-1]]
    mean = float(samples.mean())
    se = float(samples.std(ddof=1) / np.sqrt(n_paths))
    passed = abs(mean - bsde_value) <= 3.0 * se + 1e-12
    return {"lhs": bsde_value, "rhs": mean, "std_error": se,
            "pass": bool(passed), "n_paths": int(n_paths)}
