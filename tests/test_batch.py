"""The batched path layer against the per-path reference loops of
``path_reference``: every batched functional must equal its loop bit for
bit, on random chains and markets and on hand-made edge paths; and every
path consumer must give each path of a batch what it gives that path
alone."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import path_reference as ref
from markovbsde import (MarkovDriver, Obstacle, PathBatch, build_chain_spec,
                        build_market_spec, chain, discount_driver, discounted_value_check,
                        draw_paths, european_consistency, hedge, isometry_check,
                        martingale_path, mc_estimate, optimal_stop_time, pathwise_residual,
                        price_american, replicate_forward, sdf_dynamics_residual,
                        simulate_path, solve_bsde, stock_curves,
                        stock_sde_residual, uniform_grid)
from markovbsde.bsde import AffineForm, _hermite_curve
from markovbsde.chain import counts_at
from markovbsde.errors import MarkovBsdeError, NonPositivePricesError
from markovbsde.hedge import _discounted_h_matrix
from markovbsde.market import sdf_path, terminal_sdf
from markovbsde.montecarlo import seminorm_time_integral, stochastic_integral

from conftest import one_path, put_on, random_generator


def random_market(rng):
    """N = 1..5, 1-4 generator pieces starting off any grid, some absorbing
    states, and C and D schedules with breakpoints of their own."""
    n = int(rng.integers(1, 6))
    starts = [0.0] + sorted(rng.uniform(0.05, 0.95, int(rng.integers(0, 4))).tolist())
    pieces = []
    for start in starts:
        a = random_generator(rng, n, scale=float(rng.choice([0.5, 3.0])))
        if n > 1 and rng.random() < 0.5:
            a[:, rng.integers(n)] = 0.0  # an absorbing state
        pieces.append((start, a))
    chain = build_chain_spec(n, pieces, int(rng.integers(n)), 1.0)
    c = [(s, rng.uniform(-0.03, 0.03, (n, n))) for s in (0.0, rng.uniform(0.05, 0.95))]
    d = [(s, rng.uniform(1.5, 2.0, n)) for s in (0.0, rng.uniform(0.05, 0.95))]
    return build_market_spec(chain, c_schedule=c, d_schedule=d, r_max=10.0)


def edge_paths(market, grid):
    """As (jump times, states): no jump; one jump exactly at a breakpoint of
    the market and of the chain, at a grid node and at the horizon; one
    path with all of them."""
    x0, n = market.chain.initial_state, market.chain.n_states
    paths = [([], [x0])]
    if n > 1:
        y = (x0 + 1) % n
        times = sorted({market.breakpoints()[0], *market.chain.breakpoints()[:1],
                        float(grid[grid.size // 2]), 1.0})
        paths += [([t], [x0, y]) for t in times]
        paths.append((times, [(x0, y)[k % 2] for k in range(len(times) + 1)]))
    return paths


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_batched_functionals_equal_the_path_loops(seed):
    rng = np.random.default_rng(seed)
    market = random_market(rng)
    spec = market.chain
    grid = np.linspace(0.0, 1.0, int(rng.integers(1, 40)) + 1)
    paths = edge_paths(market, grid) + ref.draws(spec, 15)
    batch = ref.batch_of(paths)
    z = rng.normal(size=spec.n_states)
    cuts = sorted(set(grid.tolist()) | set(market.breakpoints()))
    path, *walk = batch.stretches(market.piece_starts, grid)
    for p, (times, states) in enumerate(paths):
        assert list(zip(*(a[path == p].tolist() for a in walk))) == \
            list(ref.stretches(times, states, 1.0, cuts, market.piece_starts))
    for got, want in [
            (stochastic_integral(spec, z, batch),
             [ref.stochastic_integral(spec, z, *p) for p in paths]),
            (seminorm_time_integral(spec, z, batch),
             [ref.seminorm_time_integral(spec, z, *p) for p in paths]),
            (terminal_sdf(market, batch), [ref.terminal_sdf(market, *p) for p in paths]),
            (sdf_path(market, batch, grid),
             [ref.sdf_path(market, *p, grid) for p in paths]),
            (batch.states_at(grid), [ref.states_at(*p, grid) for p in paths])]:
        assert np.array_equal(got, np.array(want))
    # the discounted driver table of discounted_value_check, node by node
    sol = SimpleNamespace(grid=grid, values=rng.normal(size=(grid.size, spec.n_states)))
    assert np.array_equal(_discounted_h_matrix(market, sol),
                          ref.discounted_h_matrix(market, sol))
    # times that no linspace grid has: sorted draws in [0, T] with ties,
    # every jump time of the edge paths, and T
    draws = rng.uniform(0.0, 1.0, int(rng.integers(0, 30)))
    jumps = [t for times, _ in edge_paths(market, grid) for t in times]
    odd = np.sort(np.concatenate([draws, draws[:3], jumps, [1.0]]))
    assert np.array_equal(sdf_path(market, batch, odd),
                          np.array([ref.sdf_path(market, *p, odd) for p in paths]))
    assert np.array_equal(batch.states_at(odd), np.array([ref.states_at(*p, odd) for p in paths]))


CUT_DTYPES = [np.intp, float, float, np.intp, np.intp, np.intp]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_stretches_equal_the_path_loop_on_tied_times(data):
    # jump times from a pool of every grid time, every breakpoint and the
    # horizon, plus a few times off them all, so that jumps fall on cuts,
    # at T and several between two cuts; breakpoints on grid times too
    n = data.draw(st.integers(1, 4), label="states")
    grid = np.linspace(0.0, 1.0, data.draw(st.integers(1, 8)) + 1)
    if data.draw(st.booleans(), label="no grid"):
        grid = np.zeros(0)
    nodes = np.linspace(0.0, 1.0, 9)[1:-1].tolist()
    breaks = data.draw(st.lists(st.sampled_from([*nodes, 0.3, 0.55]), unique=True,
                                max_size=4), label="breakpoints")
    starts = (0.0, *sorted(breaks))
    off = data.draw(st.lists(st.floats(0.01, 0.99), max_size=4), label="off the cuts")
    pool = sorted({*grid[1:].tolist(), *breaks, 1.0, *off})
    paths = []
    for _ in range(data.draw(st.integers(1, 5), label="paths")):
        times = sorted(data.draw(st.lists(st.sampled_from(pool), unique=True,
                                          max_size=8 if n > 1 else 0)))
        states = [data.draw(st.integers(0, n - 1))]
        for _ in times:  # no jump keeps the state
            states.append((states[-1] + data.draw(st.integers(1, max(n - 1, 1)))) % n)
        paths.append((times, states))
    got = ref.batch_of(paths).stretches(starts, grid)
    assert [a.dtype for a in got] == CUT_DTYPES
    assert {a.shape for a in got} == {got[0].shape}
    cuts = sorted({*grid.tolist(), *breaks})
    want = [(p, *row) for p, (times, states) in enumerate(paths)
            for row in ref.stretches(times, states, 1.0, cuts, starts)]
    assert list(zip(*(a.tolist() for a in got))) == want


def test_stretches_of_a_batch_without_paths(two_state_chain):
    batch = next(draw_paths(two_state_chain, 0, 0).chunks(50))
    assert batch.n_paths == 0
    got = batch.stretches((0.0, 0.25, 0.5), np.linspace(0.0, 1.0, 11))
    assert [a.dtype for a in got] == CUT_DTYPES
    assert [a.shape for a in got] == [(0,)] * 6


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_discounted_value_check_equals_the_path_loop(seed):
    # values at, above and pushed below a random obstacle at random cells,
    # on the edge paths and drawn ones, cut into batches of a random size
    rng = np.random.default_rng(seed)
    market = random_market(rng)
    n, x0 = market.chain.n_states, market.chain.initial_state
    grid = uniform_grid(1.0, int(rng.integers(2, 40)))
    paths = edge_paths(market, grid) + ref.draws(market.chain, 20)
    batch = ref.batch_of(paths)
    g = rng.uniform(0.0, 1.0, (grid.size, n))
    cell = rng.choice(4, size=g.shape, p=rng.dirichlet(np.ones(4)))
    v = g + np.choose(cell, [0.0, 1e-9, rng.uniform(0.1, 1.0, g.shape),
                             -rng.uniform(1e-12, 0.5, g.shape)])
    if rng.random() < 0.25:
        v[0, x0] = g[0, x0]  # every path stops at node 0
    sol = SimpleNamespace(grid=grid, values=v)
    payoff = Obstacle(values=lambda times: g[np.searchsorted(grid, times)])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chain, "_CELLS", int(rng.integers(1, 3000)))
        patch.setattr(hedge, "path_chunks",
                      lambda *args: chain.path_chunks(*args, paths=batch))
        got = discounted_value_check(market, payoff, sol, batch.n_paths)
    assert got == ref.discounted_value_check(market, payoff, sol, batch)


def row_market(absorbing=False, breakpoint=None):
    """Three states, x0 = 1, absorbing or not; D on one piece, or on two
    with a breakpoint at ``breakpoint``."""
    rng = np.random.default_rng(11)
    a = random_generator(rng, 3)
    if absorbing:
        a[:, 1] = 0.0
    d = [1.0, 1.1, 1.2]
    if breakpoint is not None:
        d = [(0.0, d), (breakpoint, [1.2, 1.0, 1.1])]
    return build_market_spec(build_chain_spec(3, a, 1, 1.0),
                             c_schedule=rng.uniform(-0.03, 0.03, (3, 3)), d_schedule=d,
                             r_max=10.0)


def row_values(touch=None, below=0.0):
    """(grid, v, g) on 120 steps of [0, 1]: v = g + 0.5, but v touches g at
    node K, in the initial state also at node ``touch``, and lies ``below``
    under g (and so touches it) at node 100 in the initial state and at
    node 60 in state 0."""
    grid = uniform_grid(1.0, 120)
    g = np.random.default_rng(3).uniform(0.0, 1.0, (grid.size, 3))
    v = g + 0.5
    v[-1] = g[-1]
    if touch is not None:
        v[touch, 1] = g[touch, 1]
    v[100, 1] = g[100, 1] - below
    v[60, 0] = g[60, 0] - below
    return grid, v, g


def check_on_the_row(market, values, paths, monkeypatch):
    """discounted_value_check of ``values`` on the given paths, at a budget
    of 300 cells, against the path loop; returns the report and, per cut
    into parts, the cells of each part, which must hold at most 300."""
    grid, v, g = values
    batch = ref.batch_of(paths)
    sol = SimpleNamespace(grid=grid, values=v)
    payoff = Obstacle(values=lambda times: g[np.searchsorted(grid, times)])
    monkeypatch.setattr(chain, "_CELLS", 300)
    monkeypatch.setattr(hedge, "path_chunks",
                        lambda *args: chain.path_chunks(*args, paths=batch))
    parts = []

    def cell_parts(cells):
        cut = list(chain.cell_parts(cells))
        assert [a for a, _ in cut] == [0] + [b for _, b in cut[:-1]] and cut[-1][1] == cells.size
        parts.append([int(cells[a:b].sum()) for a, b in cut])
        return iter(cut)

    monkeypatch.setattr(hedge, "cell_parts", cell_parts)
    got = discounted_value_check(market, payoff, sol, batch.n_paths)
    assert got == ref.discounted_value_check(market, payoff, sol, batch)
    assert parts and max(map(max, parts)) <= 300
    return got, parts


def test_cell_parts_hold_whole_paths_within_the_budget(monkeypatch):
    monkeypatch.setattr(chain, "_CELLS", 300)
    cells = np.array([500, 0, 10, 290, 0, 0, 300, 1])
    # a path above the budget alone; a part filled to the budget exactly
    assert list(chain.cell_parts(cells)) == [(0, 1), (1, 6), (6, 7), (7, 8)]
    assert list(chain.cell_parts(np.zeros(3, dtype=int))) == [(0, 3)]
    assert list(chain.cell_parts(np.zeros(0, dtype=int))) == []


@pytest.mark.parametrize("touch", [None, 0, 12])
@pytest.mark.parametrize("below", [0.0, 1e-12, 0.1])
def test_paths_that_never_leave_the_row_read_it_to_node_k(touch, below, monkeypatch):
    # x0 absorbing: every path is one stretch to the horizon
    market = row_market(absorbing=True)
    paths = ref.draws(market.chain, 40)
    assert all(len(times) == 0 for times, _ in paths)
    got, _ = check_on_the_row(market, row_values(touch, below), paths, monkeypatch)
    assert got["dominates"] == (below < 1e-9)
    assert got["std_error"] == 0.0


def test_every_path_exercises_at_node_0(monkeypatch):
    market = row_market()
    paths = ref.draws(market.chain, 40)
    got, _ = check_on_the_row(market, row_values(touch=0), paths, monkeypatch)
    assert got["std_error"] == 0.0 and got["mc_value"] == got["solver_value"]


@pytest.mark.parametrize("below", [0.0, 1e-12, 0.1])
def test_a_breakpoint_between_nodes_ends_the_row(below, monkeypatch):
    # the market breakpoint lies between nodes 49 and 50, before the first
    # touch in x0 at node 80: every path leaves the row there at the latest
    market = row_market(breakpoint=0.4137)
    paths = ref.draws(market.chain, 40)
    got, parts = check_on_the_row(market, row_values(80, below), paths, monkeypatch)
    assert got["dominates"] == (below < 1e-9)
    assert max(map(len, parts)) > 1


@pytest.mark.parametrize("touch", [None, 80])
@pytest.mark.parametrize("below", [1e-12, 0.1])
def test_jumps_on_a_node_and_at_the_horizon_leave_the_row(touch, below, monkeypatch):
    market = row_market()
    grid, *_ = values = row_values(touch, below)
    node, x0 = float(grid[7]), 1
    paths = [([], [x0]), ([node], [x0, 0]), ([1.0], [x0, 2]), ([node, 1.0], [x0, 0, x0]),
             ([float(grid[3]), float(grid[9])], [x0, 2, x0])] + ref.draws(market.chain, 40)
    got, parts = check_on_the_row(market, values, paths, monkeypatch)
    assert got["dominates"] == (below < 1e-9)
    assert max(map(len, parts)) > 1


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
@example(seed=2326)
def test_batched_residuals_equal_the_path_loops(seed):
    # the residuals are differences of values of order 1 to 40, summed in
    # another order than the loops sum them: an absolute bound
    rng = np.random.default_rng(seed)
    market = random_market(rng)
    n = market.chain.n_states
    steps = int(rng.integers(2, 40))
    grid = uniform_grid(1.0, steps)
    # one more generator piece, starting on a node: there the Hermite curve
    # takes the left limit of the slope below and the right limit above
    pieces = dict(zip(market.chain.starts, market.chain.gens))
    pieces[float(grid[int(rng.integers(1, steps))])] = random_generator(rng, n)
    spec = build_chain_spec(n, list(pieces.items()), market.chain.initial_state, 1.0)
    market = build_market_spec(spec, c_schedule=list(zip(*market.c_schedule)),
                               d_schedule=list(zip(*market.d_schedule)), r_max=10.0,
                               dividends=rng.uniform(1.0, 2.0, (2, n)))
    paths = edge_paths(market, grid) + ref.draws(spec, 10)
    batch = ref.batch_of(paths)
    try:
        curves = stock_curves(market, steps=int(rng.integers(3, 100)))
    except NonPositivePricesError:
        # RK4 at a few steps is unstable for some Gamma (seed 2326: three
        # steps, a component below zero): a typed error, and no curves
        curves = None
    b = rng.normal(size=n)
    driver = MarkovDriver(evaluate=lambda t, i, y, z: b[i] * t - 0.3 * y + np.sin(z.sum()),
                          lipschitz_y=0.3)
    xi = rng.uniform(0.5, 1.5, n)
    sol = solve_bsde(spec, driver, xi, steps)
    times = np.concatenate([grid, rng.uniform(0.0, 1.0, 30), spec.breakpoints()])
    want = ref.hermite_curve(spec, driver, sol)
    assert np.abs(_hermite_curve(spec, driver, sol)(times)
                  - np.array([want(t) for t in times])).max() <= 1e-12
    pairs = [(pathwise_residual(sol, batch, spec, driver, xi),
              [ref.pathwise_residual(sol, spec, driver, xi, *p) for p in paths]),
             (sdf_dynamics_residual(market, batch, steps),
              [ref.sdf_dynamics_residual(market, steps, *p) for p in paths])]
    if curves is not None:
        pairs.append((stock_sde_residual(market, curves, batch, steps),
                      [ref.stock_sde_residual(market, curves, steps, *p) for p in paths]))
    for got, want in pairs:
        assert got.shape == (len(paths),)
        assert np.abs(got - np.array(want)).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_states_at_equals_the_counts_form(seed):
    # the jumps at or below each time, counted per path, index the states
    rng = np.random.default_rng(seed)
    market = random_market(rng)
    grid = uniform_grid(1.0, int(rng.integers(1, 20)))
    drawn = draw_paths(market.chain, int(rng.integers(0, 10_000)), 10)
    paths = edge_paths(market, grid) + [ref.path_of(drawn, p) for p in range(10)]
    paths = [paths[k] for k in rng.permutation(len(paths))]
    batch = ref.batch_of(paths)
    # no times; then times on jumps, on each other, at 0 and at the horizon
    picks = rng.choice(batch.jump_times, min(batch.jump_times.size, 5), replace=False)
    for times in (np.empty(0), np.sort(np.concatenate(
            [grid, picks, picks[:2], rng.uniform(0.0, 1.0, int(rng.integers(0, 30)))]))):
        p = np.arange(batch.n_paths)
        jumps = counts_at(np.repeat(p, np.diff(batch.offsets)), batch.jump_times,
                          batch.n_paths, times)
        want = batch.states[jumps + (batch.offsets[:-1] + p)[:, None]]
        assert np.array_equal(batch.states_at(times), want)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_path_consumers_give_each_path_what_it_gets_alone(seed):
    # paths without a jump next to jumps at the horizon, at breakpoints and
    # at a grid node, in random order: a consumer whose per-path state
    # leaked into the next path would differ from its one-path batch
    rng = np.random.default_rng(seed)
    market = random_market(rng)
    spec, n = market.chain, market.chain.n_states
    steps = int(rng.integers(4, 30))
    grid = uniform_grid(1.0, steps)
    paths = edge_paths(market, grid) + ref.draws(spec, 8)
    paths = [paths[k] for k in rng.permutation(len(paths))]
    stocked = build_market_spec(spec, c_schedule=list(zip(*market.c_schedule)),
                                d_schedule=list(zip(*market.d_schedule)), r_max=10.0,
                                dividends=[rng.uniform(1.0, 2.0, n)])
    curves = stock_curves(stocked, steps=200)
    driver, xi = discount_driver(0.3), rng.uniform(0.5, 1.5, n)
    sol = solve_bsde(spec, driver, xi, steps)
    # replication and stopping only gather these along the paths
    values = rng.normal(size=(steps + 1, n))
    surface = SimpleNamespace(grid=grid, values=values,
                              g=rng.normal(size=(steps + 1, n)) - 0.5)
    strategy = SimpleNamespace(carry=rng.normal(size=(steps, n)),
                               stock_leg=rng.normal(size=(steps + 1, n)))
    consumers = [
        lambda b: martingale_path(b, spec, steps),
        lambda b: pathwise_residual(sol, b, spec, driver, xi),
        lambda b: sdf_dynamics_residual(market, b, steps),
        lambda b: stock_sde_residual(stocked, curves, b, steps),
        lambda b: np.column_stack([*replicate_forward(strategy, surface, b).values()]),
        lambda b: optimal_stop_time(surface, b)]
    for consumer in consumers:
        got = consumer(ref.batch_of(paths))
        assert len(got) == len(paths)
        for p, path in enumerate(paths):
            assert np.array_equal(got[p], consumer(ref.batch_of([path]))[0])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_affine_driver_residual_equals_its_callback_twin(seed):
    # f read off the form as arrays, against the same f called per point
    rng = np.random.default_rng(seed)
    market = random_market(rng)
    spec, n = market.chain, market.chain.n_states
    steps = int(rng.integers(2, 40))
    # pieces of the form's own, one of them starting on a node
    starts = sorted({0.0, float(uniform_grid(1.0, steps)[rng.integers(1, steps)]),
                     *rng.uniform(0.05, 0.95, int(rng.integers(0, 3))).tolist()})
    size = (len(starts), n)
    form = AffineForm(starts=tuple(starts),
                      alpha=rng.normal(size=size) if rng.random() < 0.5 else -0.3,
                      gz=rng.normal(size=size + (n,)) if rng.random() < 0.5 else 0.0,
                      beta=rng.normal(size=size))
    driver = MarkovDriver(affine=form)
    twin = MarkovDriver(evaluate=lambda t, i, y, z: driver.evaluate(t, i, y, z))
    xi = rng.uniform(0.5, 1.5, n)
    sol = solve_bsde(spec, driver, xi, steps)
    times = np.concatenate([sol.grid, rng.uniform(0.0, 1.0, 30), starts])
    assert np.array_equal(_hermite_curve(spec, driver, sol)(times),
                          _hermite_curve(spec, twin, sol)(times))
    batch = ref.batch_of(edge_paths(market, sol.grid) + ref.draws(spec, 10))
    assert np.array_equal(pathwise_residual(sol, batch, spec, driver, xi),
                          pathwise_residual(sol, batch, spec, twin, xi))


def put_market():
    """A three-state, two-piece market with C != 0 and a put on a stock
    that is exercised early in some states only."""
    rng = np.random.default_rng(7)
    chain = build_chain_spec(3, [(0.0, random_generator(rng, 3)),
                                 (0.4137, random_generator(rng, 3))], 1, 1.0)
    c = rng.uniform(-0.03, 0.03, (3, 3))
    market = build_market_spec(chain, c_schedule=c, d_schedule=[1.0, 1.1, 1.2],
                               dividends=[[1.0, 1.3, 1.6]], r_max=10.0)
    curves = stock_curves(market, steps=50)
    put = put_on(curves, 1.05 * float(curves.s[0, 0].max()))
    return market, put, price_american(market, put, 50)


@pytest.fixture
def batch_counts(monkeypatch):
    """A cell budget of a few hundred, so that every check cuts its paths
    into several batches; the list of how many batches each cut gave."""
    monkeypatch.setattr(chain, "_CELLS", 300)
    counts = []
    cut = PathBatch.chunks

    def chunks(batch, width):
        pieces = list(cut(batch, width))
        counts.append(len(pieces))
        return iter(pieces)

    monkeypatch.setattr(PathBatch, "chunks", chunks)
    return counts


# the put market's rates break the sufficient contraction condition; the
# checks compared here do not rely on it
@pytest.mark.filterwarnings("ignore:z-Lipschitz contraction")
def test_checks_equal_the_path_loops_across_a_chunk_boundary(batch_counts):
    market, put, sol = put_market()
    spec, n_paths = market.chain, 67
    paths = draw_paths(spec, 5, n_paths)  # the paths every check below draws
    got = discounted_value_check(market, put, sol, n_paths, seed_base=5)
    assert got == ref.discounted_value_check(market, put, sol, paths)
    assert got["dominates"] and got["std_error"] > 0.0
    z = np.array([1.0, -0.5, 2.0])
    assert isometry_check(spec, z, n_paths, seed_base=5) == ref.isometry_check(spec, z, paths)
    claim = np.array([1.0, 2.0, 0.5])
    rep = european_consistency(market, claim, n_paths, steps=50, seed_base=5)
    samples = ref.european_samples(market, claim, paths)
    assert rep["rhs"] == float(samples.mean())
    assert rep["std_error"] == float(samples.std(ddof=1) / np.sqrt(n_paths))
    est = mc_estimate(spec, lambda b: stochastic_integral(spec, z, b), n_paths,
                      seed_base=5)
    samples = np.array([ref.stochastic_integral(spec, z, *ref.path_of(paths, p))
                        for p in range(n_paths)])
    assert est.mean == float(samples.mean())
    assert est.std_error == float(samples.std(ddof=1) / np.sqrt(n_paths))
    assert len(batch_counts) == 4 and min(batch_counts) > 1


@pytest.mark.filterwarnings("ignore:z-Lipschitz contraction")
def test_replication_in_batches_equals_one_batch(batch_counts, monkeypatch):
    market, _, sol = put_market()
    rng = np.random.default_rng(9)
    # replication only gathers the strategy's terms along the paths
    strategy = SimpleNamespace(carry=rng.normal(size=(50, 3)),
                               stock_leg=rng.normal(size=(51, 3)))
    paths = draw_paths(market.chain, 0, 23)
    cut = replicate_forward(strategy, sol, paths)
    monkeypatch.setattr(chain, "_CELLS", 10 ** 6)
    whole = replicate_forward(strategy, sol, paths)
    assert batch_counts == [5, 1]  # 300 cells hold 5 paths of 51 nodes
    for key, value in whole.items():
        assert value.shape == (23,)
        assert np.array_equal(cut[key], value)
    empty = replicate_forward(strategy, sol, draw_paths(market.chain, 0, 0))
    assert [value.shape for value in empty.values()] == [(0,)] * 3


@pytest.mark.parametrize("n_paths", [-3, 0, 1])
def test_checks_refuse_fewer_than_two_paths(n_paths):
    market, put, sol = put_market()
    with pytest.raises(MarkovBsdeError):
        isometry_check(market.chain, np.ones(3), n_paths)
    with pytest.raises(MarkovBsdeError):
        european_consistency(market, np.ones(3), n_paths, steps=50)
    with pytest.raises(MarkovBsdeError):
        discounted_value_check(market, put, sol, n_paths)


def test_batches_draw_seed_by_seed(monkeypatch):
    monkeypatch.setattr(chain, "_CELLS", 16 * 20)  # 16 paths of width 20
    size = 16
    market, _, _ = put_market()
    spec = market.chain
    seeds = range(100, 100 + 2 * size + 3)
    batch = draw_paths(spec, seeds[0], len(seeds))
    chunks = list(batch.chunks(20))
    assert batch.seeds == tuple(seeds)
    assert [c.seeds for c in chunks] == [tuple(seeds[:size]), tuple(seeds[size:2 * size]),
                                         tuple(seeds[2 * size:])]
    # path p of the batch, of its chunk and simulate_path of its seed
    for p in (0, 1, size - 1, size, 2 * size + 2):
        one = simulate_path(spec, seeds[p])
        assert one.seeds == (seeds[p],)
        for times, states in (ref.path_of(batch, p),
                              ref.path_of(chunks[p // size], p % size)):
            assert np.array_equal(times, one.jump_times)
            assert np.array_equal(states, one.states)


GOOD = ([0.2, 0.7], [0, 1, 0])
MALFORMED = [
    ([0.5], [0]),                 # one state too few
    ([0.5], [0, 1, 0]),           # one state too many
    ([0.5, 0.4], [0, 1, 0]),      # decreasing jump times
    ([0.5, 0.5], [0, 1, 0]),      # a repeated jump time
    ([0.0], [0, 1]),              # a jump at time 0
    ([1.5], [0, 1]),              # a jump after the horizon
    ([np.nan], [0, 1]),           # a jump at no time
    ([0.5], [0, 0]),              # a self-jump
]


@pytest.mark.parametrize("jump_times, states", MALFORMED)
def test_batch_rejects_what_a_path_rejects(jump_times, states):
    with pytest.raises(ValueError):
        one_path(jump_times, states)
    for first, second in ((GOOD, (jump_times, states)), ((jump_times, states), GOOD)):
        with pytest.raises(ValueError):
            PathBatch(offsets=[0, len(first[0]), len(first[0]) + len(second[0])],
                      jump_times=first[0] + second[0], states=first[1] + second[1],
                      horizon=1.0, seeds=(0, 1))


def test_batch_accepts_what_only_looks_wrong_across_paths():
    # path 1 starts in the state path 0 ends in, at an earlier time
    batch = PathBatch(offsets=[0, 2, 3], jump_times=[0.2, 0.7, 0.1],
                      states=[0, 1, 0, 0, 1], horizon=1.0, seeds=(0, 1))
    assert ref.path_of(batch, 1)[1].tolist() == [0, 1]
    assert batch.states_at([0.05, 0.15]).tolist() == [[0, 0], [0, 1]]
    with pytest.raises(ValueError):  # offsets that miss a jump time
        PathBatch(offsets=[0, 2, 2], jump_times=[0.2, 0.7, 0.1],
                  states=[0, 1, 0, 0, 1], horizon=1.0, seeds=(0, 1))
    with pytest.raises(ValueError):  # one seed per path
        PathBatch(offsets=[0, 2, 3], jump_times=[0.2, 0.7, 0.1],
                  states=[0, 1, 0, 0, 1], horizon=1.0, seeds=(0,))
