"""The tracer's wrapping, self-time accounting and clean removal.

Run from the repository root: python3 -m pytest benchmark
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import markovbsde  # noqa: E402
from markovbsde import bsde, cli, hedge, rbsde  # noqa: E402

import tracing  # noqa: E402


def test_spans_self_time_and_uninstall():
    orig = (hedge.price_american, cli.price_american, rbsde.sample_on_grid)
    spec = markovbsde.build_chain_spec(2, [[-1.0, 1.0], [1.0, -1.0]], 0, 1.0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.price_american is hedge.price_american is not orig[0]
        sol = rbsde.solve_reflected(spec, bsde.discount_driver(0.1), np.ones(2),
                                    rbsde.constant_obstacle(0.95), 20)
    finally:
        tracer.uninstall()
    assert (hedge.price_american, cli.price_american, rbsde.sample_on_grid) == orig
    assert sol.values.shape == (21, 2)

    calls, self_s, evals = tracer.totals()
    idx = {name: i for i, name in enumerate(tracing.LAYERS)}
    assert calls[idx["rbsde.solve_reflected"]] == 1
    assert calls[idx["grids.sample_on_grid"]] == 1
    assert evals == 20 * 2
    # the child span is inside its parent, and self times add up to it
    start, end = np.array(tracer.span_start), np.array(tracer.span_end)
    parent = np.array(tracer.span_parent)
    child = int(np.nonzero(parent == 0)[0][0])
    assert start[0] <= start[child] <= end[child] <= end[0]
    total = self_s[idx["rbsde.solve_reflected"]] + self_s[idx["grids.sample_on_grid"]]
    assert np.isclose(total, end[0] - start[0], rtol=1e-9)
