"""Sub-step-at-a-time reference for the closed-form implicit Euler sweep.

This is the step function ``bsde._linear_implicit`` ran before it tabled
its sub-steps once per solve: each step is cut at the chain breakpoints
strictly inside it (``chain.split_down``), and each sub-step looks up its
piece, forms its denominators and samples its obstacle row as it goes. The
tabled sweep does the same arithmetic in the same order and must
reproduce it bit for bit.
"""

import numpy as np

from markovbsde.bsde import _linear_pieces
from markovbsde.chain import piece_index, split_down


def linear_implicit(spec, form, grid):
    """step(k, y): the implicit Euler step of the affine form ``form`` from
    grid[k + 1] down to grid[k], one sub-step at a time."""
    starts, a_g, alpha, beta = _linear_pieces(spec, form)
    if form.obstacle is not None:
        g_grid = form.obstacle.sample(grid, spec.n_states)

    def step(k, y):
        cuts = split_down(spec.breakpoints(), grid[k], grid[k + 1])
        for a_t, b_t in zip(cuts[:-1], cuts[1:]):
            h = a_t - b_t
            p = piece_index(starts, b_t)
            num = y + h * (a_g[p] @ y + beta[p])
            den = 1.0 - h * alpha[p]
            y = num / den
            if form.obstacle is not None:
                if b_t == grid[k]:
                    g = g_grid[k]
                else:
                    g = form.obstacle.sample([b_t], y.size)[0]
                y = np.where(y < g, (num + h * form.n * g) / (den + h * form.n), y)
        return y

    return step
