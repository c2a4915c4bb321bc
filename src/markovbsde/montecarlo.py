"""Monte Carlo estimation engine and the statistical checks tying pathwise
simulation to the analytic solvers.

Functionals receive exact jump paths, so stochastic integrals against the
chain martingale carry no time-discretization bias; only dt integrals use
quadrature. They take a ``PathBatch`` and return one value per path, each
summed left to right as a loop over the path would. All estimates are
deterministic given (seed_base, n_paths): path p is the path seed_base + p
of ``chain.draw_paths``. Each check draws its paths in one pass and runs
its functionals batch by batch, each batch as many paths as its widest
per-path table fits in ``chain._CELLS`` cells: the stretch functionals,
whose per-path arrays hold a few dozen stretches and jumps
(``PathBatch.sum_width``), get batches of hundreds of paths; a functional
``mc_estimate`` cannot see into gets 64. The checks of ``verify_checks``
(the ``verify`` job, ``isometry_check`` and ``european_consistency``) walk
the batches once: each batch is cut once per distinct starts tuple, and
the stretch functionals of both checks read that cut.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .bsde import solve_bsde
from .chain import ChainSpec, dots, gate, path_chunks, seminorm_sq
from .errors import NonFiniteError
from .hedge import make_hedge_driver
from .market import _terminal_sdf

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
    mean, se, _ = gate(np.concatenate(samples), 0.0)
    return McEstimate(mean=mean, std_error=se, n_paths=int(n_paths), seed_base=int(seed_base))


def stochastic_integral(spec, z, paths):
    """Exact pathwise int z' dM for a constant vector z, per path of the
    batch: the jump increments, then minus the drift compensator z'A e_i
    of each stretch of constant state i and constant generator A."""
    return _stochastic_integral(spec, z, paths.n_paths, paths.stretches(spec.starts))


def _stochastic_integral(spec, z, n, cut):
    """``stochastic_integral`` of the n paths whose ``stretches`` on the
    chain's pieces are ``cut``."""
    z = np.asarray(z, dtype=float)
    za = dots(z, spec.gens.transpose(0, 2, 1))  # z'A e_i per piece and state
    path, t0, t1, state, piece, to = cut
    jump = to >= 0
    rows = np.concatenate([path[jump], path])
    terms = np.concatenate([z[to[jump]] - z[state[jump]],
                            -(za[piece, state] * (t1 - t0))])
    return np.bincount(rows, weights=terms, minlength=n)


def seminorm_time_integral(spec, z, paths):
    """Exact pathwise int ||z||^2_{X_u} du for a constant vector z, per
    path of the batch, from the per-piece Psi matrices of ``spec.psi``."""
    return _seminorm_time_integral(spec, z, paths.n_paths, paths.stretches(spec.starts))


def _seminorm_time_integral(spec, z, n, cut):
    """``seminorm_time_integral`` of the n paths whose ``stretches`` on
    the chain's pieces are ``cut``."""
    path, t0, t1, state, piece, _ = cut
    return np.bincount(path, weights=seminorm_sq(z, spec.psi)[piece, state] * (t1 - t0),
                       minlength=n)


def verify_checks(chain, z, n_paths, seed_base=0, *, market=None, claim=None,
                  steps=400, paths=None):
    """The checks of the ``verify`` job by name, on one walk of the paths
    seed_base .. seed_base + n_paths - 1 of the chain: "isometry", the
    report of ``isometry_check`` of z (none when z is None), and with a
    market on the chain, "european_consistency", that of
    ``european_consistency`` of the claim, its BSDE solved at ``steps``.
    ``paths``, when given, is the already drawn ``draw_paths(chain,
    seed_base, n_paths)``.

    Each batch is cut once per distinct starts tuple: once where the
    market's pieces are the chain's, else once on each. Every per-path
    value is that of the functional on the path alone, so the reports
    are those of the two checks run apart.
    """
    starts = ([chain.starts] if z is not None else []) + (
        [market.piece_starts] if market is not None else [])
    chunks = path_chunks(chain, seed_base, n_paths,
                         lambda batch: batch.sum_width(max(map(len, starts)) - 1), paths)
    if market is not None:
        claim = np.asarray(claim, dtype=float)
        sol = solve_bsde(market.chain, make_hedge_driver(market), claim, steps)
        bsde_value = float(sol.values[0, market.chain.initial_state])
        horizon = np.array([market.chain.horizon])
    parts = []
    for batch in chunks:
        # the batch's cuts, made once per distinct starts tuple
        cut, n = functools.cache(batch.stretches), batch.n_paths
        part = []
        if z is not None:
            part += [_stochastic_integral(chain, z, n, cut(chain.starts)),
                     _seminorm_time_integral(chain, z, n, cut(chain.starts))]
        if market is not None:
            part.append(_terminal_sdf(market, n, cut(market.piece_starts))
                        * claim[batch.states_at(horizon)[:, 0]])
        parts.append(part)
    columns = (np.concatenate(column) for column in zip(*parts))
    reports = {}
    if z is not None:
        # squared with the C library's pow, as float ** 2 squares
        lhs, rhs = np.float_power(next(columns), 2), next(columns)
        diff, se, passed = gate(lhs - rhs, 0.0)
        reports["isometry"] = {"lhs": float(lhs.mean()), "rhs": float(rhs.mean()),
                               "diff": diff, "std_error": se, "pass": passed,
                               "n_paths": int(n_paths)}
    if market is not None:
        mean, se, passed = gate(next(columns), bsde_value)
        reports["european_consistency"] = {"lhs": bsde_value, "rhs": mean, "std_error": se,
                                           "pass": passed, "n_paths": int(n_paths)}
    return reports


def isometry_check(spec, z, n_paths, seed_base=0, *, paths=None):
    """Check E[(int z'dM)^2] against E[int ||z||^2 du] on shared paths.

    The per-path difference of the two functionals must have mean within 3
    standard errors of zero. ``paths``, when given, is the already drawn
    ``draw_paths(spec, seed_base, n_paths)``.
    """
    return verify_checks(spec, z, n_paths, seed_base, paths=paths)["isometry"]


def european_consistency(market, terminal_claim, n_paths, steps=400,
                         seed_base=0, *, paths=None):
    """Compare the BSDE value of a terminal claim under the pricing driver
    with the Monte Carlo deflated expectation E[pi_T claim'X_T].

    ``paths``, when given, is the already drawn
    ``draw_paths(market.chain, seed_base, n_paths)``.
    """
    return verify_checks(market.chain, None, n_paths, seed_base, market=market,
                         claim=terminal_claim, steps=steps,
                         paths=paths)["european_consistency"]
