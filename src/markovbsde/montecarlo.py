"""Monte Carlo estimation engine and the statistical checks tying pathwise
simulation to the analytic solvers.

Functionals receive exact jump paths, so stochastic integrals against the
chain martingale carry no time-discretization bias; only dt integrals use
quadrature. They take a ``PathBatch`` and return one value per path, each
summed left to right as a loop over the path would. All estimates are
deterministic given (seed_base, n_paths): path p is the path seed_base + p
of the uniformized stream of ``chain.draw_paths``. Each check draws its
paths in one pass and runs its
functionals batch by batch, each batch as many paths as its widest
per-path table fits in ``chain._CELLS`` cells: the padded ``path_sums``
row of the stretch functionals, a few dozen columns, gives batches of
hundreds of paths; a functional ``mc_estimate`` cannot see into gets 64.
"""

from dataclasses import dataclass

import numpy as np

from .bsde import solve_bsde
from .chain import ChainSpec, path_chunks, path_totals, seminorm_sq
from .errors import NonFiniteError
from .hedge import make_hedge_driver
from .market import terminal_sdf

# Columns taken for the tables of a functional that ``mc_estimate`` cannot
# see into: batches of 64 paths within ``chain._CELLS``.
_OPAQUE_WIDTH = 256


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    n_paths: int
    seed_base: int


def mc_estimate(chain, functional, n_paths, seed_base=0):
    """Sample mean and standard error of a path functional of ``chain``,
    called on each batch of paths and returning one value per path."""
    if not isinstance(chain, ChainSpec):
        raise TypeError(f"expected ChainSpec, got {type(chain)}")
    samples = []
    for batch in path_chunks(chain, seed_base, n_paths, lambda paths: _OPAQUE_WIDTH):
        vals = np.asarray(functional(batch), dtype=float)
        if vals.shape != (batch.n_paths,):
            raise ValueError(f"functional returned shape {vals.shape} for "
                             f"{batch.n_paths} paths")
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            raise NonFiniteError(f"functional returned {vals[bad[0]]} for seed "
                                 f"{batch.seeds[bad[0]]}")
        samples.append(vals)
    samples = np.concatenate(samples)
    return McEstimate(mean=float(samples.mean()),
                      std_error=float(samples.std(ddof=1) / np.sqrt(n_paths)),
                      n_paths=int(n_paths), seed_base=int(seed_base))


def stochastic_integral(spec, z, paths):
    """Exact pathwise int z' dM for a constant vector z, per path of the
    batch: the jump increments, then minus the drift compensator z'A e_i
    of each stretch of constant state i and constant generator A."""
    z = np.asarray(z, dtype=float)
    za = np.array([[z @ a[:, i] for i in range(spec.n_states)]
                   for _, a in spec.schedule])
    path, t0, t1, state, piece, to = paths.stretches(spec.breakpoints(), spec.starts)
    jump = to >= 0
    rows = np.concatenate([path[jump], path])
    terms = np.concatenate([z[to[jump]] - z[state[jump]],
                            -(za[piece, state] * (t1 - t0))])
    return path_totals(paths.n_paths, rows, terms)


def seminorm_time_integral(spec, z, paths):
    """Exact pathwise int ||z||^2_{X_u} du for a constant vector z, per
    path of the batch, from the per-piece Psi matrices of ``spec.psi``."""
    sq = np.array([[seminorm_sq(z, psi) for psi in psis] for psis in spec.psi])
    path, t0, t1, state, piece, _ = paths.stretches(spec.breakpoints(), spec.starts)
    return path_totals(paths.n_paths, path, sq[piece, state] * (t1 - t0))


def isometry_check(spec, z, n_paths, seed_base=0, *, paths=None):
    """Check E[(int z'dM)^2] against E[int ||z||^2 du] on shared paths.

    The per-path difference of the two functionals must have mean within 3
    standard errors of zero. ``paths``, when given, is the already drawn
    ``draw_paths(spec, seed_base, n_paths)``.
    """
    z = np.asarray(z, dtype=float)
    chunks = path_chunks(spec, seed_base, n_paths,
                         lambda batch: batch.sum_width(len(spec.breakpoints())), paths)
    parts = [(stochastic_integral(spec, z, batch), seminorm_time_integral(spec, z, batch))
             for batch in chunks]
    lhs, rhs = (np.concatenate(column) for column in zip(*parts))
    # squared with the C library's pow, as float ** 2 squares
    lhs = np.float_power(lhs, 2)
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

    ``paths``, when given, is the already drawn
    ``draw_paths(market.chain, seed_base, n_paths)``.
    """
    chunks = path_chunks(market.chain, seed_base, n_paths,
                         lambda batch: batch.sum_width(len(market.breakpoints())), paths)
    claim = np.asarray(terminal_claim, dtype=float)
    driver = make_hedge_driver(market)
    sol = solve_bsde(market.chain, driver, claim, steps)
    bsde_value = float(sol.values[0, market.chain.initial_state])
    horizon = np.array([market.chain.horizon])
    samples = np.concatenate([
        terminal_sdf(market, batch) * claim[batch.states_at(horizon)[:, 0]]
        for batch in chunks])
    mean = float(samples.mean())
    se = float(samples.std(ddof=1) / np.sqrt(n_paths))
    passed = abs(mean - bsde_value) <= 3.0 * se + 1e-12
    return {"lhs": bsde_value, "rhs": mean, "std_error": se,
            "pass": bool(passed), "n_paths": int(n_paths)}
