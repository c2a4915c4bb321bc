"""Finite-state Markov chain core: generator schedules, the backward sweep
of every solver with its sub-step table and RK4 step maps, simulation into
batches of paths (per seed, and by uniformization a block of paths at a
time), the batched path walk by stretches, martingale
decomposition, the quadratic-variation matrix calculus and the
pseudoinverse-based contraction check.

Convention: rate matrices act on indicator columns, dX = A X dt + dM, so
A[i, j] is the rate of jumping j -> i and every column of A sums to zero.
Most textbooks use the transposed (row) convention; everything in this
package is written in the column convention.
"""

import operator
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import (BadScheduleError, BadStateError, NonFiniteError,
                     NonGeneratorError, TooFewPathsError)
from .seeding import pcg64_states

_GEN_TOL = 1e-12
# Table cells per batch: the Monte Carlo checks cut their paths into batches
# whose widest (paths x columns) table holds at most this many, as 64 paths
# of 256 columns do; the CLI writes its grid files in blocks of nodes of at
# most this many bytes, about 128 a field of text.
_CELLS = 64 * 256
# ``draw_paths`` draws paths in blocks of this many path indices, block b
# from the generator of SeedSequence((_STREAM, b)): a fixed tag, so that no
# block shares its key with the plain seed of a ``simulate_paths`` stream.
_BLOCK = 1024
_STREAM = 1953


def piece_index(starts, t):
    """Index of the schedule piece in force at time t, for sorted piece
    starts: right-continuous, and clamped to the first piece before it
    starts and to the last piece after it."""
    return max(bisect_right(starts, t) - 1, 0)


def pieces_at(starts, times, side="right"):
    """``piece_index`` of each of ``times``, as an array; with
    ``side="left"``, the piece in force just before each time."""
    return np.maximum(np.searchsorted(starts, times, side=side) - 1, 0)


def substeps(breaks, grid):
    """(times, first): the grid nodes and the sorted ``breaks`` strictly
    between two nodes, in increasing time, and the index of each node in
    times. Step k down from grid[k + 1] runs the sub-steps s = first[k + 1]
    - 1 down to first[k], from times[s + 1] to times[s] under the piece in
    force at times[s]."""
    breaks = np.asarray(breaks, dtype=float)
    inner = breaks[(grid[0] < breaks) & (breaks < grid[-1])]
    inner = inner[grid[np.searchsorted(grid, inner)] != inner]  # off the nodes
    times = np.sort(np.concatenate([grid, inner]))
    return times, np.searchsorted(times, grid)


def rk4_down(f, t_hi, t_lo, y):
    """One classical RK4 step of dy/dt = f(t, y) backward from t_hi to t_lo,
    for an f that is smooth in t on the whole step."""
    h = t_hi - t_lo
    k1 = f(t_hi, y)
    k2 = f(t_hi - 0.5 * h, y - 0.5 * h * k1)
    k3 = f(t_hi - 0.5 * h, y - 0.5 * h * k2)
    k4 = f(t_lo, y - h * k3)
    return y - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def affine_rk4(starts, mats, rhs, grid):
    """step(k, y) -> P y + c, the RK4 step of y' = -M y - B from grid[k + 1]
    down to grid[k], for M = mats[p] and B = rhs[p] on the piece p from
    starts[p]; ``rhs`` is (pieces, N) for a vector y, (pieces, N, m) for an
    N x m matrix y. Each map is the RK4 sub-steps of ``substeps`` run once
    on the identity of [y; 1]: the steps inside one piece share the map of
    the first of them, and a step that holds a breakpoint has its own."""
    times, first = substeps(starts[1:], grid)
    piece = pieces_at(starts, times[:-1])
    n = mats.shape[-1]
    b = rhs.reshape(len(starts), n, -1)
    aug = np.zeros((len(starts), n + b.shape[-1], n + b.shape[-1]))
    aug[:, :n, :n] = mats
    aug[:, :n, n:] = b
    cut = np.diff(first) > 1
    which = np.where(cut, len(starts) + np.cumsum(cut) - 1, piece[first[:-1]])
    maps = []
    for m in range(len(starts) + np.count_nonzero(cut)):
        z = np.eye(aug.shape[-1])  # the map of a piece that holds no whole step
        for k in np.flatnonzero(which == m)[:1]:
            for s in range(first[k + 1] - 1, first[k] - 1, -1):
                z = rk4_down(lambda t, z: -(aug[piece[s]] @ z), times[s + 1], times[s], z)
        maps.append(z)
    maps = np.array(maps)
    # a vector y takes an offset vector, so that P y + c adds as vectors
    p, c = maps[:, :n, :n], (maps[:, :n, n] if rhs.ndim == 2 else maps[:, :n, n:])
    return lambda k, y: p[which[k]] @ y + c[which[k]]


def sweep(step, top, grid, what, floor=None):
    """values[k] = step(k, values[k + 1]) down the ``grid`` from values[-1] =
    ``top``, as a (len(grid), *top.shape) array. With a ``floor``, each row
    is raised to at least floor[k] after its step, and the sweep returns
    (values, pushes), pushes[k] what row k was raised by. One check after
    the loop raises ``NonFiniteError`` "{what} at t=..." at the highest
    node that is not finite: the first the sweep reached."""
    values = np.empty((grid.size, *np.shape(top)))
    values[-1] = top
    # without a floor each step writes its row of values itself
    preds = values[:-1] if floor is None else np.empty_like(values[:-1])
    for k in range(grid.size - 2, -1, -1):
        preds[k] = step(k, values[k + 1])
        if floor is not None:
            np.maximum(floor[k], preds[k], out=values[k])
    bad = np.flatnonzero(~np.isfinite(values.reshape(grid.size, -1)).all(axis=1))
    if bad.size:
        raise NonFiniteError(f"{what} at t={grid[bad[-1]]:.6g}")
    return values if floor is None else (values, values[:-1] - preds)


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
    quadratic-variation density with X frozen at state i. Per piece k,
    ``uniformized[k]`` is the event table that ``draw_paths`` reads (see
    ``_uniformized``).
    """

    n_states: int
    schedule: tuple
    initial_state: int
    horizon: float
    starts: tuple = field(init=False, repr=False, compare=False)
    jumps: tuple = field(init=False, repr=False, compare=False)
    psi: tuple = field(init=False, repr=False, compare=False)
    uniformized: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "starts", tuple(s for s, _ in self.schedule))
        for name, build in (("jumps", _jump_table), ("psi", _psi)):
            object.__setattr__(self, name, tuple(
                tuple(build(a, i) for i in range(self.n_states))
                for _, a in self.schedule))
        object.__setattr__(self, "uniformized", tuple(
            _uniformized(a, jumps) for (_, a), jumps in zip(self.schedule, self.jumps)))

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


def _uniformized(a, jumps):
    """(rate, thresholds) of the uniformized chain under generator ``a``:
    events at ``rate``, the largest exit rate of a state that can jump
    (``jumps[i]`` not None); after an event in state i, the next state is
    the number of thresholds[:, i] that a uniform reaches. Column i is the
    CDF, less its last entry, of column i of I + A / rate with the rates
    ``_jump_table`` drops taken as zero, normalised by its sum; an absorbing
    state keeps its state. Without a state that can jump, None."""
    can_jump = np.array([table is not None for table in jumps])
    if not can_jump.any():
        return None
    rate = float(np.max(-np.diag(a)[can_jump]))
    eye = np.eye(a.shape[0])
    cdf = np.where(can_jump, np.maximum(eye + a / rate, 0.0), eye).cumsum(axis=0)
    return rate, np.ascontiguousarray((cdf / cdf[-1])[:-1])


def counts_at(rows, values, n_rows, times):
    """(n_rows, len(times)) counts of each row's ``values`` at or below
    each of the sorted ``times``; ``rows`` names each value's row."""
    width = times.size + 1
    hist = np.bincount(rows * width + np.searchsorted(times, values),
                       minlength=n_rows * width)
    return np.cumsum(hist.reshape(n_rows, width), axis=1)[:, :-1]


def path_totals(n_paths, rows, terms):
    """Each path's total of ``path_sums``, in an array of its own: the
    table goes when this returns."""
    return path_sums(n_paths, rows, terms)[:, -1].copy()


def path_sums(n_paths, rows, terms, op=np.add):
    """Running sums 0.0, 0.0 + t_1, (0.0 + t_1) + t_2, ... of each path's
    ``terms`` (numbers, or rows added entry by entry) in their given order
    (``rows`` names each term's path), padded with the total: ``accumulate``
    adds left to right, as a loop over the terms does. With
    ``op=np.multiply``, running products from 1.0."""
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    counts = np.bincount(rows, minlength=n_paths)
    cols = 1 + np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    shape = (n_paths, 1 + counts.max(initial=0), *terms.shape[1:])
    # np.zeros leaves the pages of a large table untouched until written
    table = np.zeros(shape) if op is np.add else np.ones(shape)
    table[rows, cols] = terms[order]
    return op.accumulate(table, axis=1)


def sums_at(n_paths, rows, terms, ends, times, op=np.add):
    """(n_paths, len(times), ...) running sums (or products) of ``path_sums``
    read at the sorted ``times``: at each, the sum over the path's terms
    whose ``ends`` are at or below it, for terms in time order."""
    reach = counts_at(rows, ends, n_paths, times)
    return path_sums(n_paths, rows, terms, op)[np.arange(n_paths)[:, None], reach]


@dataclass(frozen=True)
class PathBatch:
    """Many trajectories in one ragged store: path p, the path of seeds[p]
    in the stream it was drawn from, jumps at the times
    jump_times[offsets[p]:offsets[p + 1]] through the states
    states[offsets[p] + p:offsets[p + 1] + p + 1]. Its jump times must
    increase strictly in (0, horizon], and no jump may keep the state."""

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

    def chunks(self, width):
        """The batch as consecutive batches of as many paths as tables
        ``width`` columns wide can have within ``_CELLS`` cells, at least
        one; a batch without paths as one batch without paths."""
        size = max(1, _CELLS // width)
        for lo in range(0, max(self.n_paths, 1), size):
            hi = min(lo + size, self.n_paths)
            a, b = self.offsets[lo], self.offsets[hi]
            # slices of a validated batch: set, not checked again
            part = object.__new__(PathBatch)
            for name, value in (("offsets", self.offsets[lo:hi + 1] - a),
                                ("jump_times", self.jump_times[a:b]),
                                ("states", self.states[a + lo:b + hi]),
                                ("horizon", self.horizon), ("seeds", self.seeds[lo:hi])):
                object.__setattr__(part, name, value)
            yield part

    def sum_width(self, n_cuts):
        """Columns of a ``path_sums`` table over this batch with up to one
        term per jump and one per stretch, the stretches cut at ``n_cuts``
        times: 2 + n_cuts + twice the most jumps of a path."""
        return 2 + n_cuts + 2 * int(np.diff(self.offsets).max(initial=0))

    def states_at(self, times):
        """(paths, len(times)) states occupied at the sorted ``times``
        (right-continuous): each state repeated for the times from its
        jump, or the path's start, to the path's next jump."""
        times = np.asarray(times, dtype=float)
        paths = np.arange(self.n_paths)
        first = self.offsets[:-1] + paths  # each path's start in ``states``
        start = np.zeros(self.states.size, dtype=np.intp)
        jumped = np.ones(self.states.size, dtype=bool)
        jumped[first] = False
        start[jumped] = np.searchsorted(times, self.jump_times)
        end = np.roll(start, -1)
        end[self.offsets[1:] + paths] = times.size  # each path's last state
        return np.repeat(self.states, end - start).reshape(self.n_paths, times.size)

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
        return (path[:-1][inner], t0, time[1:][inner], state[:-1][inner],
                pieces_at(starts, t0),
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

    Holding times are exponential at the current diagonal rate, drawn as
    the mean times ``rng.standard_exponential()``, which is
    ``rng.exponential(mean)`` bit for bit; a holding time reaching a
    schedule boundary is resampled from the boundary on (memorylessness). The state after a jump is drawn from the jump table
    of ``spec.jumps`` with one ``rng.random()`` and a right-sided search of
    the CDF, which is how ``Generator.choice`` samples: for any generator
    ``choice`` accepts, the path and the stream position after each draw
    equal those of ``rng.choice(n_states, p=A[:, i] / rate)``.

    Determinism contract: path p is a fixed function of (spec, seeds[p]),
    drawn from the stream of ``Generator(PCG64(seeds[p]))``, the generator
    ``numpy.random.default_rng(seeds[p])`` builds; the CLI's CSVs rest on
    this stream, and a batch draws the same paths as its seeds one at a
    time. The seeds' PCG64 states are computed in one pass
    (``seeding.pcg64_states``), and one generator draws every path from its
    seed's state; a seed numpy refuses raises numpy's error. Off-diagonal
    rates within the validation tolerance below zero never carry a jump,
    and states without a positive off-diagonal rate are absorbing (see
    ``_jump_table``).
    """
    seeds = tuple(seeds)
    bitgen = np.random.PCG64(0)  # put in each seed's state below
    rng = np.random.Generator(bitgen)
    exponential, uniform = rng.standard_exponential, rng.random
    jumps = spec.jumps
    boundaries = spec.starts[1:] + (spec.horizon,)
    last = len(boundaries) - 1
    offsets = [0]
    jump_times = []
    states = []
    for seeded in pcg64_states(seeds):
        bitgen.state = seeded
        t = 0.0
        piece = 0
        state = spec.initial_state
        states.append(state)
        while True:  # until the last piece's boundary, the horizon
            table = jumps[piece][state]
            end = boundaries[piece]
            hold = np.inf if table is None else table[0] * exponential()
            if t + hold >= end:
                t = end
                if piece < last:
                    piece += 1
                    continue
                break
            t += hold
            state = bisect_right(table[1], uniform())
            jump_times.append(t)
            states.append(state)
        offsets.append(len(jump_times))
    return PathBatch(offsets=offsets, jump_times=jump_times, states=states,
                     horizon=spec.horizon, seeds=seeds)


def simulate_path(spec, seed):
    """One trajectory, as the PathBatch ``simulate_paths(spec, [seed])``."""
    return simulate_paths(spec, [seed])


def _uniformized_block(spec, block):
    """(counts, times, states) of the ``_BLOCK`` paths of ``block``, drawn
    from the generator of SeedSequence((_STREAM, block)): each path's jump
    count, and the times of the jumps and the states they enter, path by
    path in time order.

    On each schedule piece [start, end) with an event table (rate,
    thresholds): Poisson(rate (end - start)) event counts of all paths,
    then, for a group of paths whose (most events x paths) tables fit in
    ``_CELLS`` cells (the whole block unless a path has more than 16
    events), their event times end - u (end - start), u uniform in [0, 1),
    so that no time is the start, sorted; then one uniform per event, which
    picks the next state, event rank by event rank. Events that keep the
    state are dropped."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((_STREAM, block))))
    state = np.full(_BLOCK, spec.initial_state, dtype=np.intp)
    rows, times, entered = [np.zeros(0, np.intp)], [np.zeros(0)], [np.zeros(0, np.intp)]
    ends = spec.starts[1:] + (spec.horizon,)
    for start, end, table in zip(spec.starts, ends, spec.uniformized):
        if table is None:
            continue
        rate, thresholds = table
        length = end - start
        counts = rng.poisson(rate * length, _BLOCK)
        size = max(1, _CELLS // max(int(counts.max()), 1))
        for lo in range(0, _BLOCK, size):
            n = counts[lo:lo + size]
            live = np.arange(n.max())[:, None] < n  # (rank, path)
            t = np.where(live, end - rng.random(live.shape) * length, np.inf)
            t.sort(axis=0)
            u = rng.random(live.shape)
            walk = np.zeros((live.shape[0] + 1, n.size), dtype=np.intp)
            walk[0] = state[lo:lo + size]
            for r in range(live.shape[0]):
                for row in thresholds:  # the next state: the thresholds u reaches
                    walk[r + 1] += u[r] >= row.take(walk[r])
            state[lo:lo + size] = walk[n, np.arange(n.size)]
            rank, path = np.nonzero(live & (walk[1:] != walk[:-1]))
            rows.append(path + lo)
            times.append(t[rank, path])
            entered.append(walk[rank + 1, path])
    rows = np.concatenate(rows)
    order = np.argsort(rows, kind="stable")  # by path; pieces and ranks in time order
    return (np.bincount(rows, minlength=_BLOCK), np.concatenate(times)[order],
            np.concatenate(entered)[order])


def draw_paths(spec, seed_base, n_paths):
    """The paths seed_base .. seed_base + n_paths - 1 of the uniformized
    stream as a PathBatch with those seeds, exact in distribution
    (uniformization: Jensen, Skand. Aktuarietidskr. 36, 1953).

    Determinism contract: paths come in blocks of ``_BLOCK`` path indices,
    block b drawn whole by ``_uniformized_block`` from the generator of
    SeedSequence((_STREAM, b)); a call draws every block it touches and
    keeps the paths asked for. Path i is thus a fixed function of (spec,
    i), whichever call draws it; a negative index raises numpy's
    ``ValueError``, and a non-integer one ``TypeError``. This is not the
    stream of ``simulate_paths``."""
    lo = operator.index(seed_base)
    hi = lo + max(operator.index(n_paths), 0)
    counts, times, entered = [np.zeros(0, np.intp)], [np.zeros(0)], [np.zeros(0, np.intp)]
    for block in range(lo // _BLOCK, -(-hi // _BLOCK)) if hi > lo else ():
        n, t, s = _uniformized_block(spec, block)
        a, b = max(lo - block * _BLOCK, 0), min(hi - block * _BLOCK, _BLOCK)
        edges = np.concatenate([[0], np.cumsum(n)])
        counts.append(n[a:b])
        times.append(t[edges[a]:edges[b]])
        entered.append(s[edges[a]:edges[b]])
    counts = np.concatenate(counts)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    states = np.full(offsets[-1] + counts.size, spec.initial_state, dtype=np.intp)
    jumped = np.ones(states.size, dtype=bool)
    jumped[offsets[:-1] + np.arange(counts.size)] = False  # each path's start
    states[jumped] = np.concatenate(entered)
    return PathBatch(offsets=offsets, jump_times=np.concatenate(times), states=states,
                     horizon=spec.horizon, seeds=range(lo, hi))


def path_chunks(spec, seed_base, n_paths, width, paths=None):
    """The paths seed_base .. seed_base + n_paths - 1, at least two as a
    standard error needs, as the consecutive batches
    ``batch.chunks(width(batch))`` of the batch of them all: ``paths`` when
    given, which must hold exactly those seeds, else drawn by
    ``draw_paths``. ``width(batch)`` is the column count of the caller's
    widest per-path table."""
    if n_paths < 2:
        raise TooFewPathsError(f"a Monte Carlo estimate needs at least 2 paths, "
                               f"got {n_paths}")
    if paths is None:
        paths = draw_paths(spec, seed_base, n_paths)
    elif paths.seeds != tuple(range(seed_base, seed_base + n_paths)):
        raise ValueError(f"paths must be those of seeds {seed_base} .. "
                         f"{seed_base + n_paths - 1}")
    return paths.chunks(width(paths))


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
    drift = sums_at(paths.n_paths, path, columns * (t1 - t0)[:, None], t1, grid)
    eye = np.eye(spec.n_states)
    out = eye[paths.states_at(grid)] - eye[spec.initial_state] - drift
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


def pseudoinverse(q):
    """Moore-Penrose pseudoinverse of a symmetric matrix.

    Symmetric eigendecomposition; eigenvalues with magnitude at most
    1e-10 * max|eigenvalue| are treated as exact zeros.
    """
    q = np.asarray(q, dtype=float)
    if not np.allclose(q, q.T, atol=1e-10 * max(1.0, np.abs(q).max())):
        raise ValueError("pseudoinverse expects a symmetric matrix")
    w, v = np.linalg.eigh(0.5 * (q + q.T))
    top = np.abs(w).max() if w.size else 0.0
    if top == 0.0:
        return np.zeros_like(q)
    inv = np.where(np.abs(w) > 1e-10 * top, 1.0 / np.where(w == 0.0, 1.0, w), 0.0)
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
