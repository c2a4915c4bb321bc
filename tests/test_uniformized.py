"""The uniformized path stream of ``draw_paths`` against independent
references, and the batches it cuts into.

The law of the drawn paths is checked against expm of the generator pieces
(the occupation law and the mean jump count) and against the closed-form
law of the first jump, on random piecewise chains with absorbing states,
one state, and breakpoints off any grid. Each check allows K standard
errors of the fixed path count, with a floor of K / n_paths for laws whose
standard error is near zero; Hypothesis runs derandomized, so each run
draws the same instances.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import path_reference as ref
from markovbsde import PathBatch, build_chain_spec, draw_paths, simulate_paths
from markovbsde.chain import _BLOCK
from markovbsde.montecarlo import stochastic_integral

from conftest import expm, random_generator

K = 5.0
N_PATHS = 10_000


def piecewise_chain(seed, n, pieces, horizon):
    """A chain of n states whose generator changes at pieces - 1 random
    times; each state is absorbing on a piece with probability 0.3."""
    rng = np.random.default_rng(seed)
    starts = [0.0, *np.sort(rng.uniform(0.05, 0.95, pieces - 1)) * horizon]
    schedule = []
    for start in starts:
        a = random_generator(rng, n, scale=rng.uniform(0.5, 4.0))
        a[:, rng.random(n) < 0.3] = 0.0
        schedule.append((start, a))
    return build_chain_spec(n, schedule, int(rng.integers(n)), horizon)


def pieces(spec):
    """(start, end, generator) of each schedule piece."""
    ends = spec.starts[1:] + (spec.horizon,)
    return [(s, e, a) for (s, a), e in zip(spec.schedule, ends)]


def propagate(spec, mats, x, t):
    """x carried from 0 to t by expm(mats[k] (length of piece k on [0, t]))."""
    for (start, end, _), m in zip(pieces(spec), mats):
        if t > start:
            x = expm(m * (min(t, end) - start)) @ x
    return x


def occupation(spec, t):
    """P(X_t = i) for each state i: dp/dt = A p in the column convention."""
    return propagate(spec, [a for _, _, a in pieces(spec)],
                     np.eye(spec.n_states)[spec.initial_state], t)


def mean_jumps(spec):
    """E[jumps on [0, T]] = int sum_i p_i q_i du, q_i the exit rate, as the
    last entry of [p; count] under the generator [[A, 0], [q', 0]]."""
    n = spec.n_states
    mats = []
    for _, _, a in pieces(spec):
        m = np.zeros((n + 1, n + 1))
        m[:n, :n] = a
        m[n, :n] = -np.diag(a)
        mats.append(m)
    start = np.zeros(n + 1)
    start[spec.initial_state] = 1.0
    return propagate(spec, mats, start, spec.horizon)[n]


def first_jump_law(spec, times):
    """(P(no jump by t) for each of ``times``, P(the first jump is by T and
    enters j) for each state j), piece by piece in closed form."""
    x0 = spec.initial_state

    def survival(t):
        return np.exp(-sum(-a[x0, x0] * (min(t, e) - s) for s, e, a in pieces(spec) if t > s))

    enters = np.zeros(spec.n_states)
    for s, e, a in pieces(spec):
        q = -a[x0, x0]
        if q > 0.0:
            enters += survival(s) * a[:, x0] / q * (1.0 - np.exp(-q * (e - s)))
    enters[x0] = 0.0
    return np.array([survival(t) for t in times]), enters


def assert_frequencies(freq, prob, what):
    """Frequencies of N_PATHS draws within K binomial standard errors."""
    tol = K * np.sqrt(prob * (1.0 - prob) / N_PATHS) + K / N_PATHS
    bad = np.abs(freq - prob) > tol
    assert not bad.any(), f"{what}: {freq[bad]} against {prob[bad]}"


chains = st.builds(piecewise_chain, st.integers(0, 2 ** 32 - 1), st.integers(1, 4),
                   st.integers(1, 4), st.sampled_from([0.5, 1.0, 2.0]))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(chains, st.integers(0, 5 * _BLOCK))
def test_draw_matches_the_occupation_law_and_mean_jumps(spec, seed_base):
    paths = draw_paths(spec, seed_base, N_PATHS)
    times = spec.horizon * np.array([0.2, 0.5, 0.8, 1.0])
    states = paths.states_at(times)
    for k, t in enumerate(times):
        freq = np.bincount(states[:, k], minlength=spec.n_states) / N_PATHS
        assert_frequencies(freq, occupation(spec, t), f"occupation at t={t}")
    counts = np.diff(paths.offsets)
    se = counts.std(ddof=1) / np.sqrt(N_PATHS)
    assert abs(counts.mean() - mean_jumps(spec)) <= K * (se + 1.0 / N_PATHS)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(chains, st.integers(0, 5 * _BLOCK))
def test_draw_matches_the_first_jump_law(spec, seed_base):
    paths = draw_paths(spec, seed_base, N_PATHS)
    times = spec.horizon * np.array([0.1, 0.4, 0.7, 1.0])
    survival, enters = first_jump_law(spec, times)
    jumped = np.diff(paths.offsets) > 0
    first = paths.offsets[:-1][jumped]
    first_time = paths.jump_times[first]
    no_jump = [np.count_nonzero(~jumped) + np.count_nonzero(first_time > t) for t in times]
    assert_frequencies(np.array(no_jump) / N_PATHS, survival, "no jump by t")
    entered = paths.states[first + np.flatnonzero(jumped) + 1]
    assert_frequencies(np.bincount(entered, minlength=spec.n_states) / N_PATHS, enters,
                       "first jump enters j")


def test_the_two_streams_agree_within_their_combined_standard_error():
    """The uniformized and the per-seed stream estimate the same mean jump
    count, terminal law and E[(int z'dM)^2] on a chain with absorbing
    states and off-grid breakpoints."""
    spec = piecewise_chain(21, 3, 3, 1.0)
    z = np.array([1.0, -0.5, 2.0])
    samples = []
    for paths in (draw_paths(spec, 0, N_PATHS), simulate_paths(spec, range(N_PATHS))):
        end = paths.states_at(np.array([spec.horizon]))[:, 0]
        samples.append(np.column_stack([np.diff(paths.offsets), end == 0, end == 1,
                                        stochastic_integral(spec, z, paths) ** 2]))
    a, b = samples
    se = np.hypot(a.std(axis=0, ddof=1), b.std(axis=0, ddof=1)) / np.sqrt(N_PATHS)
    assert np.all(np.abs(a.mean(axis=0) - b.mean(axis=0)) <= K * se)


def test_a_draw_is_the_same_paths_as_a_wider_draw():
    """Paths cut from the middle of a block and across a block boundary
    equal the same paths in a call that starts in an earlier block."""
    spec = piecewise_chain(3, 3, 3, 1.0)
    wide = draw_paths(spec, 100, 2 * _BLOCK)
    for lo, n in ((700, 5), (_BLOCK - 10, 30), (2 * _BLOCK - 1, 2)):
        part = draw_paths(spec, lo, n)
        assert part.seeds == tuple(range(lo, lo + n))
        for p in range(n):
            for got, want in zip(ref.path_of(part, p), ref.path_of(wide, lo - 100 + p)):
                assert np.array_equal(got, want)
    again = draw_paths(spec, 100, 2 * _BLOCK)
    for name in ("offsets", "jump_times", "states"):
        assert np.array_equal(getattr(again, name), getattr(wide, name))


def test_draw_edge_cases():
    one = build_chain_spec(1, [[0.0]], 0, 1.0)
    paths = draw_paths(one, 7, 3)
    assert paths.seeds == (7, 8, 9) and paths.jump_times.size == 0
    assert paths.states.tolist() == [0, 0, 0]
    spec = piecewise_chain(5, 2, 2, 1.0)
    empty = draw_paths(spec, 11, 0)
    assert empty.n_paths == 0 and empty.states.size == 0
    with pytest.raises(ValueError):
        draw_paths(spec, -1, 3)
    with pytest.raises(TypeError):
        draw_paths(spec, 1.5, 3)


@pytest.mark.parametrize("a, horizon, start, after", [
    # off-diagonal -5e-13 out of state 0, inside the validation tolerance:
    # a jump from 0 always enters 1
    ([[-1.0, 0.5, 0.5], [1.0 + 5e-13, -1.0, 0.5], [-5e-13, 0.5, -1.0]], 1.0, 0, 1),
    # state 1 has the largest exit rate, 5e-13, but no positive off-diagonal
    # rate, so it is absorbing; the events come at state 0's rate 1e-14
    ([[-1e-14, -2.5e-13, 0.0], [1e-14, -5e-13, 0.0], [0.0, -2.5e-13, 0.0]], 1e14, 1, None),
])
def test_draw_on_tolerated_generators(a, horizon, start, after):
    spec = build_chain_spec(len(a), a, start, horizon)
    paths = draw_paths(spec, 0, 2000)
    jump = np.ones(paths.states.size, dtype=bool)
    jump[paths.offsets[:-1] + np.arange(paths.n_paths)] = False  # a path's start
    after_start = paths.states[jump][paths.states[np.roll(jump, -1)] == start]
    if after is None:
        assert paths.jump_times.size == 0
    else:
        assert after_start.size > 100 and np.all(after_start == after)


def test_chunks_equal_fully_validated_batches():
    spec = piecewise_chain(8, 3, 3, 1.0)
    batch = draw_paths(spec, 40, 300)
    chunks = list(batch.chunks(1000))  # 16 paths a chunk
    assert [c.n_paths for c in chunks] == [16] * 18 + [12]
    for chunk in chunks:
        full = PathBatch(offsets=chunk.offsets, jump_times=chunk.jump_times,
                         states=chunk.states, horizon=chunk.horizon, seeds=chunk.seeds)
        assert full.seeds == chunk.seeds and full.horizon == chunk.horizon
        for name in ("offsets", "jump_times", "states"):
            got, want = getattr(chunk, name), getattr(full, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)
