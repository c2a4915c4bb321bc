"""Finite-state Markov chain core: generator schedules, the backward solves
of every solver (the step-by-step sweep, the scan of affine step maps and
the policy solve of floored ones) with their sub-step table and RK4 step
maps, simulation of
the jump chain into batches of paths, a block of paths at a time, the
batched path walk by stretches, martingale decomposition, the
quadratic-variation matrix calculus and the pseudoinverse-based
contraction check.

Convention: rate matrices act on indicator columns, dX = A X dt + dM, so
A[i, j] is the rate of jumping j -> i and every column of A sums to zero.
Most textbooks use the transposed (row) convention; everything in this
package is written in the column convention.
"""

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import (BadScheduleError, BadStateError, NonFiniteError,
                     NonGeneratorError, TooFewPathsError)
from .grids import integral, uniform_grid

_GEN_TOL = 1e-12
# Table cells per batch: the Monte Carlo checks cut their paths into batches
# whose widest (paths x columns) table holds at most this many, as 64 paths
# of 256 columns do; the CLI writes its grid files in blocks of nodes of at
# most this many fields.
_CELLS = 64 * 256
# ``draw_paths`` draws paths in blocks of this many path indices, block b
# from the generator of SeedSequence((_STREAM, b)), _STREAM a fixed tag.
_BLOCK = 1024
_STREAM = 1953
# ``solve_floored`` starts from the solve on every _COARSE-th node, and
# sweeps step by step after _POLICIES policies. The repair after policy p
# runs on until the choice has stood _COARSE 2^(p - 1) steps: a stand of
# _COARSE at every policy took 9 policies, one past the cap, on a 256-step
# instance whose coarse start is far off; the doubling stand takes 5 there,
# and its first repair costs what it did.
_COARSE = 8
_POLICIES = 8


def pieces_at(starts, times, side="right"):
    """Index of the schedule piece in force at each of ``times`` (or at one
    time), for sorted piece starts: right-continuous, clamped to the first
    piece before it starts and to the last after it; with ``side="left"``,
    the piece in force just before each time: the count of the starts
    after the first at or below each time (below it, with "left")."""
    return np.searchsorted(starts[1:], times, side=side)


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


def affine_rk4(starts, mats, rhs, grid):
    """The RK4 steps of y' = -M y - B from grid[k + 1] down to grid[k], for
    M = mats[p] and B = rhs[p] on the piece p from starts[p], as the
    (steps, N, N + m) stack of the rows [P c] of each step's augmented map
    [P c; 0 I] on [y; 1]: ``rhs`` is (pieces, N) for a vector y (m = 1),
    (pieces, N, m) for an N x m matrix y. Each map is the classical RK4
    steps of z' = -[M B; 0 0] z down the sub-steps of ``substeps``, run
    once on the identity of [y; 1]: the steps inside one piece share the
    map of the first of them, and a step that holds a breakpoint has its
    own."""
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
                mat, h = aug[piece[s]], times[s + 1] - times[s]
                k1 = -(mat @ z)
                k2 = -(mat @ (z - 0.5 * h * k1))
                k3 = -(mat @ (z - 0.5 * h * k2))
                k4 = -(mat @ (z - h * k3))
                z = z - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        maps.append(z[:n])
    return np.array(maps)[which]


def sweep(step, top, times, first, what):
    """values[s] = step(s, values[s + 1]) down the table ``times`` from
    values[-1] = ``top``, one call per table step, as a (len(times),
    *top.shape) array. One check after the loop raises ``NonFiniteError``
    "{what} at t=..." at the highest of the nodes times[first] that is not
    finite: the first node the sweep reached."""
    values = np.empty((times.size, *np.shape(top)))
    values[-1] = top
    for s in range(times.size - 2, -1, -1):
        values[s] = step(s, values[s + 1])
    if np.isfinite(values).all():
        return values
    bad = np.flatnonzero(~np.isfinite(values[first].reshape(first.size, -1)).all(axis=1))
    if bad.size:
        raise NonFiniteError(f"{what} at t={times[first[bad[-1]]]:.6g}")
    return values


def scan(maps, top):
    """values[s] = P_s values[s + 1] + c_s down from values[-1] = ``top`` (a
    vector, or an N x m matrix), for the rows maps[s] = [P_s c_s] of the
    augmented maps [P_s c_s; 0 I], as a (len(maps) + 1, *top.shape) array.

    Composing affine maps is associative, so a work-efficient scan
    (Blelloch, CMU-CS-90-190, 1990) solves the recursion in 2 ceil(log2 S)
    stacked matmuls of about 2 S products in all: going up, each level
    composes the pairs of adjacent blocks of the level below (a last block
    without a pair goes up as it is); going down, each level applies the
    map of every second block to [value; I] at its end, known from the
    level above, for the value at its start. The value at node s reads
    only the maps from s on, grouped by their positions, so two stacks
    that share their maps from s on give the nodes from s on the same
    bits."""
    steps, n, d = maps.shape
    top = np.asarray(top, dtype=float)
    aug = np.zeros((steps, d, d))
    aug[:, :n] = maps
    aug[:, n:, n:] = np.eye(d - n)
    levels = [aug]
    while len(levels[-1]) > 1:
        below = levels[-1]
        pairs = below[0:len(below) - 1:2] @ below[1::2]
        levels.append(np.concatenate([pairs, below[-1:]]) if len(below) % 2 else pairs)
    # [value; I] at the start of each block of a level, and at the end
    end = np.concatenate([top.reshape(n, -1), np.eye(d - n)])
    values = np.stack([levels[-1][0] @ end, end])
    for blocks in reversed(levels[:-1]):
        above, values = values, np.empty((len(blocks) + 1, d, d - n))
        values[-1] = end
        values[0:-1:2] = above[:-1]
        values[1:-1:2] = blocks[1::2] @ values[2::2]
    return values[:, :n].reshape(steps + 1, *top.shape)


def _mapped_sweep(lo, hi, top, times, first, what):
    """``sweep`` down the table steps of ``lo``: step s maps y to P y + c of
    lo[s], and with ``hi``, raised row by row to that of hi[s] where it is
    above. Returns the values at every table time and lo's value at each
    table step."""
    n = lo.shape[1]
    preds = np.empty((lo.shape[0], *np.shape(top)))
    # C order, as the steps read them
    p_lo, c_lo = np.ascontiguousarray(lo[..., :n]), lo[..., n:].reshape(preds.shape).copy()
    if hi is not None:
        p_hi, c_hi = np.ascontiguousarray(hi[..., :n]), hi[..., n].copy()

    def step(s, y):
        preds[s] = p_lo[s] @ y + c_lo[s]
        return preds[s] if hi is None else np.maximum(preds[s], p_hi[s] @ y + c_hi[s])

    return sweep(step, top, times, first, what), preds


def _steady(maps):
    """Whether no step of the augmented ``maps`` more than doubles a vector
    (each P's infinity norm is at most 2). A step past that, as the
    explicit Euler map is past h * rate = 1.5 and the stiff chain's maps
    (norm 199) are, amplifies rounding at every step, and the sweep stays
    the reference for what it returns."""
    n = maps.shape[-2]
    # column by column: a sum over a short last axis is slow
    return sum(np.abs(maps[..., j]) for j in range(n)).max(initial=0.0) <= 2.0


def solve_affine(maps, top, times, first, what):
    """The values at the nodes times[first] of the table recursion
    values[s] = P_s values[s + 1] + c_s of ``scan``, or of ``sweep`` on the
    same maps (``_mapped_sweep``) where they are not ``_steady`` or the
    scan is not finite: the sweep raises at the first node that is not, or
    returns its values if all are."""
    if _steady(maps):
        values = scan(maps, top)[first]
        if np.isfinite(values).all():
            return values
    return _mapped_sweep(maps, None, top, times, first, what)[0][first]


def solve_floored(maps, top, times, first, what, start=None):
    """values[s] = max(lo_s(values[s + 1]), hi_s(values[s + 1])) row by row
    down the table ``times`` from values[-1] = ``top``, for the two affine
    maps of each step between consecutive table ``nodes``, the rows [P c]
    of maps(nodes) = (lo, hi) stacked. Returns (values at every table time,
    lo's value at each step, choice, policies): choice[s, i] tells where hi
    is above lo, and values[s] is the larger of the two.

    With the choice of every (step, state) fixed, the recursion is affine,
    so ``scan`` solves it; one vectorised pass takes both maps of every
    step at the scanned values, and where a choice disagrees, it is made
    again (Howard's policy iteration). Row s of a scan reads only the
    choices from s on, so the highest step that disagrees takes the choice
    of the exact recursion for good: a solve ends at the one
    self-consistent choice, whatever ``start``, in at most as many
    policies as steps. ``_recurse`` makes the choices below that step
    again one at a time, until they have stood ``_COARSE`` steps in a row
    after the first policy, twice as many after each next one. ``start``
    defaults to the choice of the same solve on every ``_COARSE``-th table
    node (``_coarse_start``). Past ``_POLICIES`` policies, on values that are
    not finite and on maps that are not ``_steady``, it is
    ``_mapped_sweep`` on the same maps (0 policies), whose check names the
    first node that is not finite."""
    nodes = np.arange(times.size)
    pair = maps(nodes)
    got = _policies(maps, nodes, top, start, pair) if _steady(pair) else None
    if got is None:
        table, preds = _mapped_sweep(pair[0], pair[1], top, times, first, what)
        got = table, preds, table[:-1] > preds, 0
    return got


def _policies(maps, nodes, top, start=None, pair=None):
    """(values, preds, choice, policies) of ``solve_floored``'s policy
    iteration on the steps between the table ``nodes``, or None past the
    cap or on values that are not finite; ``pair`` is maps(nodes) if made."""
    if start is None:
        start = _coarse_start(maps, nodes, top)
    if pair is None:
        pair = maps(nodes)
    n = pair.shape[2]
    choice = start
    for count in range(1, _POLICIES + 1):
        values = scan(np.where(choice[:, :, None], pair[1], pair[0]), top)
        # both maps of every step at the scanned values
        both = (pair[..., :n] @ values[1:, :, None])[..., 0] + pair[..., n]
        if not np.isfinite(both).all():
            return None
        again = both[1] > both[0]
        wrong = np.flatnonzero((again != choice).any(axis=1))
        if not wrong.size:
            np.maximum(both[0], both[1], out=values[:-1])
            return values, both[0], choice, count
        _recurse(pair, values[wrong[-1] + 1], again, wrong[-1], _COARSE << (count - 1))
        choice = again
    return None


def _recurse(pair, top, choice, last, stand=None):
    """Make ``choice`` of the steps from ``last`` down again one at a time,
    as the recursion does from ``top``, the values at step last + 1: to the
    first step, or, with ``stand``, until the choice has stood at that many
    steps in a row. Run from the highest step that disagrees, it makes the
    choices below it at once where a policy moves them one step, as it does
    the edge of a region that stops too early."""
    n = pair.shape[2]
    p, c = pair[..., :n], pair[..., n]
    stood = 0
    for s in range(last, -1, -1):
        lo, hi = p[:, s] @ top + c[:, s]
        exact = hi > lo
        if (exact == choice[s]).all():
            stood += 1
            if stood == stand:
                return
        else:
            stood = 0
            choice[s] = exact
        top = np.maximum(lo, hi)


def _coarse_start(maps, nodes, top):
    """The choice of each step between ``nodes`` under the solve on every
    ``_COARSE``-th of them: that of the coarse step that holds it. The
    coarse solve is ``_policies``, started in turn from a coarser grid, and
    on a coarse grid of at most ``_COARSE`` steps, where coarsening ends,
    the recursion itself (``_recurse``); where it fails, the start is lo
    everywhere."""
    steps = nodes.size - 1
    coarse = nodes[::_COARSE]
    if coarse[-1] != nodes[-1]:
        coarse = np.append(coarse, nodes[-1])
    choice = np.zeros((coarse.size - 1, top.size), dtype=bool)
    with np.errstate(all="ignore"):  # a coarse step may be far from steady
        if coarse.size - 1 > _COARSE:
            got = _policies(maps, coarse, top)
            choice = got[2] if got is not None else choice
        else:
            _recurse(maps(coarse), top, choice, coarse.size - 2)
    return choice[np.arange(steps) // _COARSE]


def frozen_starts(starts, what, horizon=np.inf):
    """The piece ``starts`` of a schedule, the first stored as 0.0, if they
    are at least one, finite and strictly increasing, the first within
    1e-12 of 0 and the last below ``horizon``; else ``BadScheduleError``."""
    starts = [float(s) for s in starts]
    if not (starts and np.all(np.isfinite(starts)) and abs(starts[0]) <= _GEN_TOL
            and all(a < b for a, b in zip(starts, starts[1:])) and starts[-1] < horizon):
        raise BadScheduleError(f"{what} starts {starts} do not partition [0, {horizon})")
    return (0.0, *starts[1:])


def freeze_schedule(entries, shape, horizon, what, check):
    """Validate and freeze a piecewise-constant schedule on [0, horizon).

    ``entries`` is a bare value of the given shape or (start, value) pairs.
    The rules, shared by A, C and D, else ``BadScheduleError``: a positive,
    finite horizon, and distinct starts that sorted pass ``frozen_starts``.
    ``check(value)`` validates one value, raising the caller's error type,
    and returns it as a float array. Returns (starts, values): the sorted
    starts as a tuple, and the read-only (pieces, *shape) stack of the
    values in their order.
    """
    if not 0.0 < horizon < np.inf:
        raise BadScheduleError(f"horizon must be positive and finite, got {horizon}")
    try:
        arr = np.asarray(entries, dtype=float)
    except (TypeError, ValueError, OverflowError):
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
        pieces.append((float(start), check(value)))
    pieces.sort(key=lambda p: p[0])
    values = np.array([v for _, v in pieces])
    values.setflags(write=False)
    return frozen_starts([s for s, _ in pieces], f"{what} schedule", horizon), values


@dataclass(frozen=True)
class ChainSpec:
    """A finite-state chain on [0, horizon] with a piecewise-constant
    generator schedule.

    ``starts`` and ``gens`` are the schedule of ``freeze_schedule``: the
    generator gens[k] applies on [starts[k], starts[k + 1]), and starts[0]
    = 0.0. Per piece k, computed once as read-only stacks:
    ``jump_chain`` = (mean, thresholds), the (pieces, N) mean holding times
    and (pieces, N - 1, N) jump thresholds that ``draw_paths`` reads (see
    ``_jump_chain``), and ``psi[k, i]`` the quadratic-variation density
    with X frozen at state i.
    """

    n_states: int
    starts: tuple
    gens: np.ndarray
    initial_state: int
    horizon: float
    jump_chain: tuple = field(init=False, repr=False, compare=False)
    psi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        psi = _psi(self.gens)
        jump_chain = _jump_chain(self.gens)
        for arr in (psi, *jump_chain):
            arr.setflags(write=False)
        object.__setattr__(self, "jump_chain", jump_chain)
        object.__setattr__(self, "psi", psi)

    def generator_at(self, t):
        """Generator in force at time t (right-continuous pieces)."""
        return self.gens[pieces_at(self.starts, t)]

    def breakpoints(self):
        """Interior schedule boundaries: the piece starts after the first."""
        return self.starts[1:]


def _jump_chain(gens):
    """(mean, thresholds) of the jump chain under each generator of the
    (pieces, N, N) stack ``gens``: mean[k, i] is state i's mean holding
    time 1 / -A[i, i], inf where it is absorbing; after a jump from state
    i, the next state is the number of thresholds[k, :, i] that a uniform
    reaches. Column i is the jump CDF of state i less its last entry: the
    cumulative sum of the off-diagonal rates A[:, i] divided by their
    total. Off-diagonal rates in the validation tolerance below zero count
    as zero. A state whose exit rate is not positive, or which has no
    positive off-diagonal rate, is absorbing."""
    diag = np.arange(gens.shape[-1])
    rates = np.maximum(gens, 0.0)
    rates[:, diag, diag] = 0.0
    cdf = rates.cumsum(axis=1)
    exit_rate = -gens[:, diag, diag]
    can_jump = (exit_rate > 0.0) & (cdf[:, -1] > 0.0)
    mean = np.full(exit_rate.shape, np.inf)
    mean[can_jump] = 1.0 / exit_rate[can_jump]
    total = np.where(can_jump, cdf[:, -1], 1.0)
    return mean, np.ascontiguousarray((cdf / total[:, None, :])[:, :-1])


def counts_at(rows, values, n_rows, times):
    """(n_rows, len(times)) counts of each row's ``values`` at or below
    each of the sorted ``times``; ``rows`` names each value's row."""
    width = times.size + 1
    hist = np.bincount(rows * width + np.searchsorted(times, values),
                       minlength=n_rows * width)
    return np.cumsum(hist.reshape(n_rows, width), axis=1)[:, :-1]


def runs(times, t0, first):
    """(lo, hi): segment j holds the sorted ``times`` [lo[j], hi[j]),
    right-continuously, for segments given path by path in time order,
    segment j from t0[j]. Path p's segments are first[p] .. first[p + 1] - 1;
    its first also holds the times before it, its last every time after it."""
    lo = np.searchsorted(times, t0)
    lo[first[:-1]] = 0
    hi = np.concatenate([lo[1:], lo[:1]])  # the next segment's lo
    hi[first[1:] - 1] = times.size
    return lo, hi


def path_sums(n_paths, rows, terms, op=np.add):
    """Running sums 0.0, 0.0 + t_1, (0.0 + t_1) + t_2, ... of each path's
    ``terms`` (numbers, or rows added entry by entry) in their given order,
    padded with the total: ``accumulate`` adds left to right, as a loop
    over the terms does. ``rows`` names each term's path and must not
    decrease, as the rows of ``PathBatch.stretches`` do: the terms come path
    by path. With ``op=np.multiply``, running products from 1.0."""
    counts = np.bincount(rows, minlength=n_paths)
    cols = 1 + np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    shape = (n_paths, 1 + counts.max(initial=0), *terms.shape[1:])
    # np.zeros leaves the pages of a large table untouched until written
    table = np.zeros(shape) if op is np.add else np.ones(shape)
    table[rows, cols] = terms
    return op.accumulate(table, axis=1)


def sums_at(n_paths, rows, terms, ends, times, op=np.add):
    """(n_paths, len(times), ...) running sums (or products) of ``path_sums``
    read at the sorted ``times``: at each, the sum over the path's terms
    whose ``ends`` are at or below it, for terms path by path and in time
    order."""
    reach = counts_at(rows, ends, n_paths, times)
    return path_sums(n_paths, rows, terms, op)[np.arange(n_paths)[:, None], reach]


@dataclass(frozen=True)
class PathBatch:
    """Many trajectories in one ragged store: path p, the path of index
    seeds[p] of ``draw_paths`` (or given by hand), jumps at the times
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
        (right-continuous): each state repeated over the times it holds
        (``runs``), from its jump, or the path's start, to the next jump."""
        times = np.asarray(times, dtype=float)
        first = self.offsets + np.arange(self.n_paths + 1)  # each path's first state, and the end
        t0 = np.zeros(self.states.size)
        jumped = np.ones(self.states.size, dtype=bool)
        jumped[first[:-1]] = False
        np.place(t0, jumped, self.jump_times)
        lo, hi = runs(times, t0, first)
        return np.repeat(self.states, hi - lo).reshape(self.n_paths, times.size)

    def stretches(self, starts, grid=()):
        """Stretches of constant state and constant schedule piece of every
        path, as flat arrays (path, t0, t1, state, piece, to) in path, then
        time order. Each segment between jumps is cut at the breakpoints
        starts[1:] of the schedule and at the ``grid`` times strictly
        inside it; ``piece`` is ``pieces_at(starts, t0)``, and ``to`` is
        the state entered by a jump at t1, or -1 without one.

        A merge with no sort, O(stretches): the cuts and the horizon are
        one sorted, deduplicated row of ends that every path shares. Each
        jump is placed among them by ``searchsorted``; a jump on an end
        (a cut, or the horizon) takes its place, and any other is one row
        more, so a path's rows are the ends with its other jumps inserted,
        and each row's index follows from the jumps before it. ``np.place``
        writes the ends' times and pieces into their rows, path after path,
        and ``np.repeat`` each state over its run of rows.
        """
        n, times, horizon = self.n_paths, self.jump_times, self.horizon
        ends = np.sort(np.concatenate([grid, starts[1:], [horizon]]))
        keep = (ends > 0.0) & (ends <= horizon)
        keep[1:] &= ends[1:] != ends[:-1]  # a grid time on a breakpoint counts once
        ends = ends[keep]
        width = ends.size
        paths, jumps = np.arange(n), np.arange(times.size)
        owner = np.repeat(paths, self.offsets[1:] - self.offsets[:-1])
        below = np.searchsorted(ends, times)  # the ends before each jump
        inside = ends[below] != times  # a jump off the ends: a row of its own
        before = np.concatenate([[0], inside.cumsum()])  # off-end jumps before each
        # each jump's row, ending there: the rows of the paths before its
        # own, then its path's ends and off-end jumps before it
        row = owner * width + below + before[:-1]
        first = before[self.offsets] + np.arange(n + 1) * width  # each path's first row
        size = first[-1]
        on_end = np.ones(size, dtype=bool)
        on_end[row[inside]] = False
        # the rows of the ends, path by path: each path's ends in order
        t1 = np.empty(size)
        np.place(t1, on_end, ends)
        t1[row] = times
        t0 = np.empty(size)
        t0[1:] = t1[:-1]
        t0[first[:-1]] = 0.0
        # the piece of each end's row, in force just before the end
        lookup = pieces_at(starts, ends, side="left")
        piece = np.empty(size, dtype=np.intp)
        np.place(piece, on_end, lookup)
        piece[row] = lookup[below]
        entered = jumps + owner + 1  # in ``states``
        to = np.full(size, -1, dtype=np.intp)
        to[row] = self.states[entered]
        # each state holds from its path's first row, or the row after
        # its jump, to the next such row
        begin = np.empty(self.states.size + 1, dtype=np.intp)
        begin[self.offsets[:-1] + paths] = first[:-1]
        begin[entered] = row + 1
        begin[-1] = size
        return (np.repeat(paths, first[1:] - first[:-1]), t0, t1,
                np.repeat(self.states, begin[1:] - begin[:-1]), piece, to)


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
    ``NonGeneratorError``, and a size or initial state that is not
    integral (2.0 is) raises ``BadStateError``.
    """
    for what, size in (("n_states", n_states), ("initial state", initial_state)):
        if not integral(size):
            raise BadStateError(f"{what} must be an integer, got {size!r}")
    n_states = int(n_states)
    if n_states < 1:
        raise BadStateError("need at least one state")
    if not 0 <= int(initial_state) < n_states:
        raise BadStateError(f"initial state {initial_state} outside [0, {n_states})")
    starts, gens = freeze_schedule(generator_schedule, (n_states, n_states), float(horizon),
                                   "generator", lambda a: _validate_generator(a, n_states))
    return ChainSpec(n_states=n_states, starts=starts, gens=gens,
                     initial_state=int(initial_state), horizon=float(horizon))


def rate_bound_m(spec):
    """Frobenius-norm bound of the generator over the whole schedule."""
    gens = spec.gens
    return float(np.sqrt(np.trace(gens.transpose(0, 2, 1) @ gens, axis1=1, axis2=2)).max())


def _jump_block(spec, block):
    """(counts, times, states) of the ``_BLOCK`` paths of ``block``, drawn
    from the generator of SeedSequence((_STREAM, block)): each path's jump
    count, and the times of the jumps and the states they enter, path by
    path in time order.

    On each schedule piece [start, end) every path starts live. Each round
    draws one holding time for every live path, its state's mean times a
    standard exponential; a path whose time reaches the piece end stops
    there and, by memorylessness, starts the next piece afresh, and a path
    in an absorbing state, whose mean is inf, always does. Each other path
    jumps: one uniform against its state's column of the piece's
    thresholds picks the next state."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((_STREAM, block))))
    state = np.full(_BLOCK, spec.initial_state, dtype=np.intp)
    rows, times, entered = [np.zeros(0, np.intp)], [np.zeros(0)], [np.zeros(0, np.intp)]
    ends = spec.starts[1:] + (spec.horizon,)
    for start, end, mean, thresholds in zip(spec.starts, ends, *spec.jump_chain):
        live, t = np.arange(_BLOCK), np.full(_BLOCK, start)
        while live.size:
            t = t + mean[state[live]] * rng.standard_exponential(live.size)
            jumped = t < end
            live, t = live[jumped], t[jumped]
            u, at = rng.random(live.size), state[live]
            to = np.zeros(live.size, dtype=np.intp)
            for row in thresholds:  # the next state: the thresholds u reaches
                to += u >= row[at]
            state[live] = to
            rows.append(live)
            times.append(t)
            entered.append(to)
    rows = np.concatenate(rows)
    order = np.argsort(rows, kind="stable")  # by path; pieces and rounds in time order
    return (np.bincount(rows, minlength=_BLOCK), np.concatenate(times)[order],
            np.concatenate(entered)[order])


def draw_paths(spec, seed_base, n_paths):
    """The paths seed_base .. seed_base + n_paths - 1 of the chain as a
    PathBatch with those seeds, exact in distribution: the jump chain with
    exponential holding times (Gillespie, J. Phys. Chem. 81(25), 1977),
    drawn for a block of paths at a time by ``_jump_block``.

    Determinism contract: paths come in blocks of ``_BLOCK`` path indices,
    block b drawn whole from the generator of SeedSequence((_STREAM, b));
    a call draws every block it touches and keeps the paths asked for.
    Path i is thus a fixed function of (spec, i), whichever call draws it;
    a negative index raises numpy's ``ValueError``, and a non-integer one
    ``TypeError``. Off-diagonal rates within the validation tolerance
    below zero never carry a jump, and states without a positive
    off-diagonal rate are absorbing (see ``_jump_chain``)."""
    lo = operator.index(seed_base)
    hi = lo + max(operator.index(n_paths), 0)
    counts, times, entered = [np.zeros(0, np.intp)], [np.zeros(0)], [np.zeros(0, np.intp)]
    for block in range(lo // _BLOCK, -(-hi // _BLOCK)) if hi > lo else ():
        n, t, s = _jump_block(spec, block)
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


def simulate_path(spec, seed):
    """One trajectory, as the PathBatch ``draw_paths(spec, seed, 1)``."""
    return draw_paths(spec, seed, 1)


def gate(samples, target):
    """(mean, standard error, pass) of the Monte Carlo ``samples`` against
    ``target``: pass when the mean lies within 3 standard errors (and
    1e-12) of it."""
    mean = float(samples.mean())
    se = float(samples.std(ddof=1) / np.sqrt(samples.size))
    return mean, se, abs(mean - target) <= 3.0 * se + 1e-12


def path_chunks(spec, seed_base, n_paths, width, paths=None):
    """The paths seed_base .. seed_base + n_paths - 1, at least two as a
    standard error needs, as the consecutive batches
    ``batch.chunks(width(batch))`` of the batch of them all: ``paths`` when
    given, which must hold exactly those seeds, else drawn by
    ``draw_paths``. ``width(batch)`` is the column count of the caller's
    widest per-path table; a caller whose flat cells per path vary cuts
    each batch further by ``cell_parts``."""
    if n_paths < 2:
        raise TooFewPathsError(f"a Monte Carlo estimate needs at least 2 paths, "
                               f"got {n_paths}")
    if paths is None:
        paths = draw_paths(spec, seed_base, n_paths)
    elif paths.seeds != tuple(range(seed_base, seed_base + n_paths)):
        raise ValueError(f"paths must be those of seeds {seed_base} .. "
                         f"{seed_base + n_paths - 1}")
    return paths.chunks(width(paths))


def cell_parts(cells):
    """Consecutive runs [a, b) of whole paths, one path's flat cells
    ``cells[p]``: as many paths as fit in ``_CELLS`` cells, at least one."""
    ends = np.cumsum(cells)
    a = 0
    while a < ends.size:
        b = max(int(np.searchsorted(ends, ends[a] - cells[a] + _CELLS, side="right")), a + 1)
        yield a, b
        a = b


def martingale_path(paths, spec, grid_steps):
    """Martingale part M_t = X_t - X_0 - int A_u X_u du of each path of the
    batch on ``uniform_grid``'s grid of at least 1 step, as a
    (paths, grid_steps+1, N) array.

    The drift integral is closed form on each stretch of constant state and
    constant generator piece, cut at the grid nodes; within-step jump times
    are honored exactly. Its running sum over a path's stretches is read at
    each node after the stretch that ends there.
    """
    grid = uniform_grid(spec.horizon, grid_steps)
    path, t0, t1, state, piece, _ = paths.stretches(spec.starts, grid)
    columns = spec.gens[piece, :, state]
    drift = sums_at(paths.n_paths, path, columns * (t1 - t0)[:, None], t1, grid)
    eye = np.eye(spec.n_states)
    out = eye[paths.states_at(grid)] - eye[spec.initial_state] - drift
    out[:, 0] = 0.0
    return out


def _psi(gens):
    """The (pieces, N, N, N) quadratic-variation densities of the
    (pieces, N, N) generator stack ``gens``: psi[k, i] = diag(A x) -
    x (A x)' - (A x) x' under A = gens[k] with X frozen at x = e_i, whose
    [i, i] entry is -A_ii. diag(x) A' has row i equal to column i of A, and
    A diag(x) mirrors it in the column."""
    n = gens.shape[-1]
    x, d = np.eye(n), np.arange(n)
    cols = gens.transpose(0, 2, 1)  # cols[k, i] = A e_i under gens[k]
    psi = np.zeros((len(gens), n, n, n))
    psi[:, :, d, d] = cols
    psi -= x[:, :, None] * cols[:, :, None, :]
    psi -= cols[:, :, :, None] * x[:, None, :]
    psi[:, d, d, d] = -gens[:, d, d]
    return psi


def psi_matrix(spec, t, state):
    """Quadratic-variation density d<X,X> = Psi dt at time t with X frozen
    at the given state: the read-only matrix of ``spec.psi``."""
    if not 0 <= state < spec.n_states:
        raise BadStateError(f"state {state} outside [0, {spec.n_states})")
    return spec.psi[pieces_at(spec.starts, t), state]


def dots(x, y):
    """Dot products of ``x`` and ``y`` along their last axis, broadcast over
    the others: each a one-row by one-column product, which ``np.matmul``
    rounds as ``np.dot`` of the two vectors does."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def seminorm_sq(c, psi):
    """Squared seminorm c' Psi c (instantaneous variance of c' dM), of one
    Psi or of each of a stack of them."""
    c = np.asarray(c, dtype=float)
    return np.maximum(dots(c @ np.asarray(psi, dtype=float), c), 0.0)


def pseudoinverse(q):
    """Moore-Penrose pseudoinverse of a symmetric matrix, or of each of a
    stack of them.

    Symmetric eigendecomposition; eigenvalues with magnitude at most
    1e-10 * max|eigenvalue| of their matrix are treated as exact zeros.
    """
    q = np.asarray(q, dtype=float)
    qt = np.swapaxes(q, -1, -2)
    if not np.allclose(q, qt, atol=1e-10 * max(1.0, np.abs(q).max())):
        raise ValueError("pseudoinverse expects a symmetric matrix")
    w, v = np.linalg.eigh(0.5 * (q + qt))
    top = np.abs(w).max(axis=-1, keepdims=True)
    inv = np.where(np.abs(w) > 1e-10 * top, 1.0 / np.where(w == 0.0, 1.0, w), 0.0)
    return (v * inv[..., None, :]) @ np.swapaxes(v, -1, -2)


def check_contraction(spec, lipschitz_z):
    """Evaluate the fixed-point condition l2 * ||Psi^+||_F * sqrt(6m) < 1
    on every schedule piece and state (Psi is constant on each piece).

    Returns a dict with the overall verdict, the worst margin
    1 - l2 ||Psi^+|| sqrt(6m), and the (piece start, state) attaining it,
    the first in piece, then state order.
    """
    if lipschitz_z < 0:
        raise ValueError("lipschitz_z must be nonnegative")
    m = rate_bound_m(spec)
    pinv = pseudoinverse(spec.psi)
    norm = np.sqrt(np.trace(np.swapaxes(pinv, -1, -2) @ pinv, axis1=-2, axis2=-1))
    margin = 1.0 - lipschitz_z * norm * np.sqrt(6.0 * m)
    k, i = np.unravel_index(np.argmin(margin), margin.shape)
    return {"holds": bool(margin[k, i] > 0.0), "worst_margin": float(margin[k, i]),
            "worst_time_state": (spec.starts[k], int(i))}
