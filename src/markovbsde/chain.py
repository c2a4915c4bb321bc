"""Finite-state Markov chain core: generator schedules, the backward RK4
stepper for piecewise-constant coefficients, simulation into batches of
paths, the batched path walk by stretches, martingale decomposition, the
quadratic-variation matrix calculus and the pseudoinverse-based
contraction check.

Convention: rate matrices act on indicator columns, dX = A X dt + dM, so
A[i, j] is the rate of jumping j -> i and every column of A sums to zero.
Most textbooks use the transposed (row) convention; everything in this
package is written in the column convention.
"""

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import (BadScheduleError, BadStateError, NonGeneratorError,
                     TooFewPathsError)

_GEN_TOL = 1e-12
# Paths per batch of the Monte Carlo checks, which bounds the size of their
# (paths x terms) and (paths x grid nodes) tables.
_CHUNK = 64


def piece_index(starts, t):
    """Index of the schedule piece in force at time t, for sorted piece
    starts: right-continuous, and clamped to the first piece before it
    starts and to the last piece after it."""
    return max(bisect_right(starts, t) - 1, 0)


def split_down(breakpoints, t_lo, t_hi):
    """[t_lo, t_hi] cut at the sorted ``breakpoints`` strictly inside it:
    the ends of its constant-piece sub-steps, in decreasing time."""
    return [t_hi, *[b for b in reversed(breakpoints) if t_lo < b < t_hi], t_lo]


def rk4_down(breakpoints, t_hi, t_lo, y, field):
    """One classical RK4 step of dy/dt = f(t, y) backward from t_hi to t_lo
    for piecewise-constant coefficients: the step is cut by ``split_down``,
    and each sub-step integrates ``field(t_mid)``, the f of the piece that
    holds the sub-step's midpoint t_mid."""
    cuts = split_down(breakpoints, t_lo, t_hi)
    for a, b in zip(cuts[:-1], cuts[1:]):
        h = a - b
        f = field(0.5 * (a + b))
        k1 = f(a, y)
        k2 = f(a - 0.5 * h, y - 0.5 * h * k1)
        k3 = f(a - 0.5 * h, y - 0.5 * h * k2)
        k4 = f(b, y - h * k3)
        y = y - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def freeze_schedule(entries, shape, horizon, what, check):
    """Validate and freeze a piecewise-constant schedule on [0, horizon).

    ``entries`` is a bare value of the given shape or (start, value) pairs.
    The rules, shared by A, C and D, else ``BadScheduleError``: a positive,
    finite horizon; at least one piece; finite, distinct starts, the first
    within 1e-12 of 0 (stored as 0.0), the last below the horizon.
    ``check(value)`` validates one value, raising the caller's error type,
    and returns it as a float array. Returns a tuple of (start, read-only
    array) pairs sorted by start.
    """
    if not 0.0 < horizon < np.inf:
        raise BadScheduleError(f"horizon must be positive and finite, got {horizon}")
    try:
        arr = np.asarray(entries, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is not None and arr.shape == shape:
        # a bare value means a constant schedule
        entries = [(0.0, arr)]
    pieces = []
    for entry in entries:
        try:
            start, value = entry
        except (TypeError, ValueError) as exc:
            raise BadScheduleError(
                f"{what} schedule entry {entry!r} is not (start, value)") from exc
        pieces.append((float(start), check(value).copy()))
    if not pieces:
        raise BadScheduleError(f"empty {what} schedule")
    pieces.sort(key=lambda p: p[0])
    starts = [s for s, _ in pieces]
    if not (np.all(np.isfinite(starts)) and abs(starts[0]) <= _GEN_TOL
            and all(a < b for a, b in zip(starts, starts[1:]))
            and starts[-1] < horizon):
        raise BadScheduleError(
            f"{what} schedule starts {starts} do not partition [0, {horizon})")
    for _, value in pieces:
        value.setflags(write=False)
    return ((0.0, pieces[0][1]), *pieces[1:])


@dataclass(frozen=True)
class ChainSpec:
    """A finite-state chain on [0, horizon] with a piecewise-constant
    generator schedule.

    ``schedule`` is a tuple of (start_time, matrix) pairs from
    ``freeze_schedule``: piece k applies on [start_k, start_{k+1}), and
    start_0 = 0.0. ``starts`` holds the start times. Per piece k and state
    i, computed once: ``jumps[k][i]`` is the jump table that
    ``simulate_paths`` reads, (1 / exit rate, jump CDF), or None when state i
    is absorbing there (see ``_jump_table``); ``psi[k][i]`` is the read-only
    quadratic-variation density with X frozen at state i.
    """

    n_states: int
    schedule: tuple
    initial_state: int
    horizon: float
    starts: tuple = field(init=False, repr=False, compare=False)
    jumps: tuple = field(init=False, repr=False, compare=False)
    psi: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "starts", tuple(s for s, _ in self.schedule))
        for name, build in (("jumps", _jump_table), ("psi", _psi)):
            object.__setattr__(self, name, tuple(
                tuple(build(a, i) for i in range(self.n_states))
                for _, a in self.schedule))

    def generator_at(self, t):
        """Generator in force at time t (right-continuous pieces)."""
        return self.schedule[piece_index(self.starts, t)][1]

    def breakpoints(self):
        """Interior schedule boundaries: the piece starts after the first."""
        return self.starts[1:]


def _jump_table(a, state):
    """(1 / exit rate, jump CDF) of ``state`` under generator ``a``, or None
    when the state is absorbing.

    The CDF is built as ``Generator.choice`` builds it from the jump
    probabilities A[:, state] / exit rate: cumulative sum, then division by
    the last entry. Off-diagonal rates in the validation tolerance below
    zero count as zero, and the division normalises a column whose sum is
    off by a tolerated amount. A state whose exit rate -A[state, state] is
    not positive, or which has no positive off-diagonal rate, is absorbing.
    """
    rate = -a[state, state]
    if rate <= 0.0:
        return None
    probs = np.maximum(a[:, state], 0.0)
    probs[state] = 0.0
    probs /= rate
    cdf = probs.cumsum()
    if cdf[-1] <= 0.0:
        return None
    cdf /= cdf[-1]
    return float(1.0 / rate), tuple(cdf.tolist())


def counts_at(rows, values, n_rows, times):
    """(n_rows, len(times)) counts of each row's ``values`` at or below
    each of the sorted ``times``; ``rows`` names each value's row."""
    width = times.size + 1
    hist = np.bincount(rows * width + np.searchsorted(times, values),
                       minlength=n_rows * width)
    return np.cumsum(hist.reshape(n_rows, width), axis=1)[:, :-1]


def path_sums(n_paths, rows, terms):
    """Running sums 0.0, 0.0 + t_1, (0.0 + t_1) + t_2, ... of each path's
    ``terms`` (numbers, or rows added entry by entry) in their given order
    (``rows`` names each term's path), padded with the total: ``np.cumsum``
    adds left to right, as a loop over the terms does."""
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    counts = np.bincount(rows, minlength=n_paths)
    cols = 1 + np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    table = np.zeros((n_paths, 1 + counts.max(initial=0), *terms.shape[1:]))
    table[rows, cols] = terms[order]
    return np.cumsum(table, axis=1)


@dataclass(frozen=True)
class PathBatch:
    """Many trajectories in one ragged store: path p, drawn from seeds[p],
    jumps at the times jump_times[offsets[p]:offsets[p + 1]] through the
    states states[offsets[p] + p:offsets[p + 1] + p + 1]. Its jump times
    must increase strictly in (0, horizon], and no jump may keep the
    state."""

    offsets: np.ndarray
    jump_times: np.ndarray
    states: np.ndarray
    horizon: float
    seeds: tuple

    def __post_init__(self):
        offsets = np.asarray(self.offsets, dtype=np.intp)
        times = np.asarray(self.jump_times, dtype=float)
        states = np.asarray(self.states, dtype=np.intp)
        n = len(self.seeds)
        if (offsets.shape != (n + 1,) or offsets[0] != 0 or offsets[-1] != times.size
                or states.size != times.size + n
                or np.count_nonzero(offsets[1:] < offsets[:-1])):
            raise ValueError("states must have one more entry than jump_times")
        before = np.empty(times.size + 1)  # the path's previous jump time, or 0
        before[1:] = times
        before[offsets[:-1]] = 0.0
        if np.count_nonzero((times > before[:-1]) & (times <= self.horizon)) < times.size:
            raise ValueError("jump times must be strictly increasing in (0, T]")
        same = states[1:] == states[:-1]
        same[offsets[1:-1] + np.arange(n - 1)] = False  # one path's end, the next's start
        if np.count_nonzero(same):
            raise ValueError("self-jumps are not representable")
        for name, value in (("offsets", offsets), ("jump_times", times),
                            ("states", states), ("seeds", tuple(map(int, self.seeds)))):
            object.__setattr__(self, name, value)

    @property
    def n_paths(self):
        return len(self.seeds)

    def chunks(self):
        """The batch as consecutive batches of at most ``_CHUNK`` paths."""
        for lo in range(0, self.n_paths, _CHUNK):
            hi = min(lo + _CHUNK, self.n_paths)
            a, b = self.offsets[lo], self.offsets[hi]
            yield PathBatch(self.offsets[lo:hi + 1] - a, self.jump_times[a:b],
                            self.states[a + lo:b + hi], self.horizon, self.seeds[lo:hi])

    def states_at(self, times):
        """(paths, len(times)) states occupied at the sorted ``times``
        (right-continuous)."""
        paths = np.arange(self.n_paths)
        jumps = counts_at(np.repeat(paths, np.diff(self.offsets)), self.jump_times,
                          self.n_paths, np.asarray(times, dtype=float))
        return self.states[jumps + (self.offsets[:-1] + paths)[:, None]]

    def stretches(self, cuts, starts):
        """Stretches of constant state and constant schedule piece of every
        path, as flat arrays (path, t0, t1, state, piece, to) in path, then
        time order. Each segment between jumps is cut at the ``cuts``
        strictly inside it; ``piece`` is ``piece_index(starts, t0)``, and
        ``to`` is the state entered by a jump at t1, or -1 without one.
        """
        n = self.n_paths
        paths = np.arange(n)
        cuts = np.asarray(cuts, dtype=float)
        cuts = cuts[(cuts > 0.0) & (cuts < self.horizon)]
        # every path's events, sorted: its start, jumps, cuts and horizon;
        # at equal times the jump comes first and the others are dropped
        path = np.concatenate([paths, np.repeat(paths, np.diff(self.offsets)),
                               np.repeat(paths, cuts.size), paths])
        time = np.concatenate([np.zeros(n), self.jump_times, np.tile(cuts, n),
                               np.full(n, self.horizon)])
        kind = np.repeat([0, 1, 2, 3], [n, self.jump_times.size, n * cuts.size, n])
        order = np.lexsort((kind, time, path))
        path, time, kind = path[order], time[order], kind[order]
        keep = np.ones(path.size, dtype=bool)
        keep[1:] = (path[1:] != path[:-1]) | (time[1:] != time[:-1])
        path, time, jump = path[keep], time[keep], kind[keep] == 1
        state = self.states[np.cumsum(jump) + path]  # jumps so far, past the path's start
        inner = path[1:] == path[:-1]
        t0 = time[:-1][inner]
        piece = np.maximum(np.searchsorted(starts, t0, side="right") - 1, 0)
        return (path[:-1][inner], t0, time[1:][inner], state[:-1][inner], piece,
                np.where(jump[1:], state[1:], -1)[inner])


def _validate_generator(a, n_states):
    a = np.asarray(a, dtype=float)
    if a.shape != (n_states, n_states):
        raise NonGeneratorError(f"generator must be {n_states}x{n_states}, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonGeneratorError("generator has non-finite entries")
    off = a - np.diag(np.diag(a))
    if np.any(off < -_GEN_TOL):
        raise NonGeneratorError("negative off-diagonal rate")
    colsums = a.sum(axis=0)
    if np.any(np.abs(colsums) > _GEN_TOL * max(1.0, np.abs(a).max())):
        raise NonGeneratorError(f"columns must sum to zero, got {colsums}")
    return a


def build_chain_spec(n_states, generator_schedule, initial_state, horizon):
    """Validate and freeze a chain specification.

    ``generator_schedule`` is either a single matrix (constant generator) or
    a list of (start_time, matrix) pairs under the rules of
    ``freeze_schedule``; a matrix that is no generator raises
    ``NonGeneratorError``.
    """
    n_states = int(n_states)
    if n_states < 1:
        raise BadStateError("need at least one state")
    if not 0 <= int(initial_state) < n_states:
        raise BadStateError(f"initial state {initial_state} outside [0, {n_states})")
    schedule = freeze_schedule(generator_schedule, (n_states, n_states), float(horizon),
                               "generator", lambda a: _validate_generator(a, n_states))
    return ChainSpec(n_states=n_states, schedule=schedule,
                     initial_state=int(initial_state), horizon=float(horizon))


def rate_bound_m(spec):
    """Frobenius-norm bound of the generator over the whole schedule."""
    return max(float(np.sqrt(np.trace(a.T @ a))) for _, a in spec.schedule)


def simulate_paths(spec, seeds):
    """Draw one trajectory per seed into a PathBatch, exact in
    distribution.

    Holding times are exponential at the current diagonal rate; a holding
    time reaching a schedule boundary is resampled from the boundary on
    (memorylessness). The state after a jump is drawn from the jump table
    of ``spec.jumps`` with one ``rng.random()`` and a right-sided search of
    the CDF, which is how ``Generator.choice`` samples: for any generator
    ``choice`` accepts, the path and the stream position after each draw
    equal those of ``rng.choice(n_states, p=A[:, i] / rate)``.

    Determinism contract: path p is a fixed function of (spec, seeds[p]),
    drawn from its own ``Generator(PCG64(seeds[p]))``, the generator
    ``numpy.random.default_rng(seeds[p])`` builds; the CLI's CSVs rest on
    this stream, and a batch draws the same paths as its seeds one at a
    time. Off-diagonal rates within the validation tolerance below zero
    never carry a jump, and states without a positive off-diagonal rate are
    absorbing (see ``_jump_table``).
    """
    seeds = tuple(seeds)
    boundaries = spec.starts[1:] + (spec.horizon,)
    last = len(boundaries) - 1
    offsets = [0]
    jump_times = []
    states = []
    for seed in seeds:
        rng = np.random.Generator(np.random.PCG64(seed))
        t = 0.0
        piece = 0
        state = spec.initial_state
        states.append(state)
        while t < spec.horizon:
            table = spec.jumps[piece][state]
            end = boundaries[piece]
            hold = np.inf if table is None else rng.exponential(table[0])
            if t + hold >= end:
                t = end
                if piece < last:
                    piece += 1
                    continue
                break
            t += hold
            state = bisect_right(table[1], rng.random())
            jump_times.append(t)
            states.append(state)
        offsets.append(len(jump_times))
    return PathBatch(offsets=offsets, jump_times=jump_times, states=states,
                     horizon=spec.horizon, seeds=seeds)


def simulate_path(spec, seed):
    """One trajectory, as the PathBatch ``simulate_paths(spec, [seed])``."""
    return simulate_paths(spec, [seed])


def path_chunks(spec, seeds, paths=None):
    """The paths of ``seeds``, at least two as a standard error needs, in
    consecutive batches of at most ``_CHUNK`` paths: cut from ``paths``
    when given, which must hold exactly those seeds, else drawn batch by
    batch."""
    seeds = tuple(seeds)
    if len(seeds) < 2:
        raise TooFewPathsError(f"a Monte Carlo estimate needs at least 2 paths, "
                               f"got {len(seeds)}")
    if paths is None:
        return (simulate_paths(spec, seeds[lo:lo + _CHUNK])
                for lo in range(0, len(seeds), _CHUNK))
    if paths.seeds != seeds:
        raise ValueError(f"paths must be those of seeds {seeds[0]} .. {seeds[-1]}")
    return paths.chunks()


def martingale_path(paths, spec, grid_steps):
    """Martingale part M_t = X_t - X_0 - int A_u X_u du of each path of the
    batch on a uniform grid, as a (paths, grid_steps+1, N) array.

    The drift integral is closed form on each stretch of constant state and
    constant generator piece, cut at the grid nodes; within-step jump times
    are honored exactly. Its running sum over a path's stretches is read at
    each node after the stretch that ends there.
    """
    grid = np.linspace(0.0, spec.horizon, int(grid_steps) + 1)
    cuts = sorted(set(grid.tolist()) | set(spec.breakpoints()))
    path, t0, t1, state, piece, _ = paths.stretches(cuts, spec.starts)
    columns = np.array([a for _, a in spec.schedule])[piece, :, state]
    drift = path_sums(paths.n_paths, path, columns * (t1 - t0)[:, None])
    reach = counts_at(path, t1, paths.n_paths, grid)
    eye = np.eye(spec.n_states)
    out = (eye[paths.states_at(grid)] - eye[spec.initial_state]
           - drift[np.arange(paths.n_paths)[:, None], reach])
    out[:, 0] = 0.0
    return out


def _psi(a, state):
    """Quadratic-variation density under generator ``a`` with X frozen at
    the given state; read-only."""
    x = np.zeros(a.shape[0])
    x[state] = 1.0
    psi = np.diag(a @ x) - np.outer(x, a[:, state]) - np.outer(a[:, state], x)
    # diag(x) A' has row `state` equal to column `state` of A; A diag(x)
    # mirrors it in the column. Written with outer products for symmetry.
    psi[state, state] = -a[state, state]
    psi.setflags(write=False)
    return psi


def psi_matrix(spec, t, state):
    """Quadratic-variation density d<X,X> = Psi dt at time t with X frozen
    at the given state: the read-only matrix of ``spec.psi``."""
    if not 0 <= state < spec.n_states:
        raise BadStateError(f"state {state} outside [0, {spec.n_states})")
    return spec.psi[piece_index(spec.starts, t)][state]


def seminorm_sq(c, psi):
    """Squared seminorm c' Psi c (instantaneous variance of c' dM)."""
    c = np.asarray(c, dtype=float)
    val = float(c @ np.asarray(psi, dtype=float) @ c)
    return max(val, 0.0)


def pseudoinverse(q, tol=1e-10):
    """Moore-Penrose pseudoinverse of a symmetric matrix.

    Symmetric eigendecomposition; eigenvalues with magnitude at most
    tol * max|eigenvalue| are treated as exact zeros.
    """
    q = np.asarray(q, dtype=float)
    if not np.allclose(q, q.T, atol=1e-10 * max(1.0, np.abs(q).max())):
        raise ValueError("pseudoinverse expects a symmetric matrix")
    w, v = np.linalg.eigh(0.5 * (q + q.T))
    top = np.abs(w).max() if w.size else 0.0
    if top == 0.0:
        return np.zeros_like(q)
    inv = np.where(np.abs(w) > tol * top, 1.0 / np.where(w == 0.0, 1.0, w), 0.0)
    return (v * inv) @ v.T


def check_contraction(spec, lipschitz_z):
    """Evaluate the fixed-point condition l2 * ||Psi^+||_F * sqrt(6m) < 1
    on every schedule piece and state (Psi is constant on each piece).

    Returns a dict with the overall verdict, the worst margin
    1 - l2 ||Psi^+|| sqrt(6m), and the (piece start, state) attaining it.
    """
    if lipschitz_z < 0:
        raise ValueError("lipschitz_z must be nonnegative")
    m = rate_bound_m(spec)
    worst = np.inf
    worst_at = (0.0, 0)
    for start, psis in zip(spec.starts, spec.psi):
        for i, psi in enumerate(psis):
            pinv = pseudoinverse(psi)
            norm = float(np.sqrt(np.trace(pinv.T @ pinv)))
            margin = 1.0 - lipschitz_z * norm * np.sqrt(6.0 * m)
            if margin < worst:
                worst = margin
                worst_at = (start, i)
    return {"holds": bool(worst > 0.0), "worst_margin": float(worst),
            "worst_time_state": worst_at}
