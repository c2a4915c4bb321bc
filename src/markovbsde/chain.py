"""Finite-state Markov chain core: generator schedules, the backward RK4
stepper for piecewise-constant coefficients, simulation, the path walk by
stretches, martingale decomposition, the quadratic-variation matrix
calculus and the pseudoinverse-based contraction check.

Convention: rate matrices act on indicator columns, dX = A X dt + dM, so
A[i, j] is the rate of jumping j -> i and every column of A sums to zero.
Most textbooks use the transposed (row) convention; everything in this
package is written in the column convention.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import BadScheduleError, BadStateError, NonGeneratorError

_GEN_TOL = 1e-12


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
    ``simulate_path`` reads, (1 / exit rate, jump CDF), or None when state i
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


@dataclass(frozen=True)
class ChainPath:
    """One realized trajectory: jump times in (0, T] and visited states."""

    jump_times: np.ndarray
    states: np.ndarray
    horizon: float
    seed: int

    def __post_init__(self):
        jt = np.asarray(self.jump_times, dtype=float)
        st = np.asarray(self.states, dtype=int)
        if st.size != jt.size + 1:
            raise ValueError("states must have one more entry than jump_times")
        if jt.size and ((jt[1:] <= jt[:-1]).any() or not 0 < jt[0]
                        or not jt[-1] <= self.horizon):
            raise ValueError("jump times must be strictly increasing in (0, T]")
        if (st[1:] == st[:-1]).any():
            raise ValueError("self-jumps are not representable")
        object.__setattr__(self, "jump_times", jt)
        object.__setattr__(self, "states", st)

    @property
    def n_jumps(self):
        return self.jump_times.size

    def state_at(self, t):
        """State occupied at time t (right-continuous)."""
        return int(self.states[np.searchsorted(self.jump_times, t, side="right")])

    def states_at(self, times):
        """Vectorized state_at."""
        return self.states[np.searchsorted(self.jump_times, times, side="right")]

    def stretches(self, cuts, starts):
        """Stretches of constant state and constant schedule piece, in time
        order, as (t0, t1, state, piece, to) tuples covering [0, T].

        Each constant-state segment between jumps is cut at the times of the
        sorted ``cuts`` strictly inside it; ``piece`` is
        ``piece_index(starts, t0)``, and ``to`` is the state the path jumps
        to at t1, or None when it does not jump there.
        """
        edges = [0.0, *self.jump_times.tolist(), self.horizon]
        states = self.states.tolist()
        targets = [*states[1:], None]
        for t0, t1, state, to in zip(edges[:-1], edges[1:], states, targets):
            if t1 <= t0:  # a jump at the horizon
                continue
            inner = cuts[bisect_right(cuts, t0):bisect_left(cuts, t1)]
            for a, b in zip([t0, *inner], [*inner, t1]):
                yield a, b, state, piece_index(starts, a), to if b == t1 else None


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


def simulate_path(spec, seed):
    """Draw one trajectory, exact in distribution.

    Holding times are exponential at the current diagonal rate; a holding
    time reaching a schedule boundary is resampled from the boundary on
    (memorylessness). The state after a jump is drawn from the jump table
    of ``spec.jumps`` with one ``rng.random()`` and a right-sided search of
    the CDF, which is how ``Generator.choice`` samples: for any generator
    ``choice`` accepts, the path and the stream position after each draw
    equal those of ``rng.choice(n_states, p=A[:, i] / rate)``.

    Determinism contract: the path is a fixed function of (spec, seed),
    drawn from ``numpy.random.default_rng(seed)``; the CLI's CSVs rest on
    this stream. Off-diagonal rates within the validation tolerance below
    zero never carry a jump, and states without a positive off-diagonal
    rate are absorbing (see ``_jump_table``).
    """
    rng = np.random.default_rng(seed)
    boundaries = spec.starts[1:] + (spec.horizon,)
    last = len(boundaries) - 1
    jump_times = []
    states = [spec.initial_state]
    t = 0.0
    piece = 0
    state = spec.initial_state
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
    return ChainPath(jump_times=np.array(jump_times), states=np.array(states, dtype=int),
                     horizon=spec.horizon, seed=int(seed))


def martingale_path(path, spec, grid_steps):
    """Martingale part M_t = X_t - X_0 - int A_u X_u du on a uniform grid.

    The drift integral is closed form on each stretch of constant state and
    constant generator piece; within-step jump times are honored exactly.
    Returns a (grid_steps+1, N) array.
    """
    grid = np.linspace(0.0, spec.horizon, int(grid_steps) + 1)
    n = spec.n_states
    out = np.zeros((grid.size, n))
    drift = np.zeros(n)
    x0 = np.zeros(n)
    x0[spec.initial_state] = 1.0
    grid_idx = 1
    cuts = sorted(set(grid.tolist()) | set(spec.breakpoints()))
    for t0, t1, state, piece, _ in path.stretches(cuts, spec.starts):
        drift = drift + spec.schedule[piece][1][:, state] * (t1 - t0)
        while grid_idx < grid.size and grid[grid_idx] <= t1 + 1e-15:
            x = np.zeros(n)
            x[path.state_at(grid[grid_idx])] = 1.0
            out[grid_idx] = x - x0 - drift
            grid_idx += 1
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
