"""Grid covers of near-level sets and their iterated scaled intersections.

Everything lives on an M x M bitmap over [0,1]^2 with half-open cells
[i/M,(i+1)/M) x [j/M,(j+1)/M), stored in image order: bits[j, i] covers
y-cell j and x-cell i, so the rows run along x as a PBM's rows do.  Every
operation here treats both axes alike.  Sets are conservative outer
approximations (center test plus one-cell dilation where stated); measures
are cell counts over M^2, so every inequality checked here sees an upper
bound on the true set, matching the direction of the decay estimates being
verified.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .fn_core import BaseFunction, FunctionSpec, fit_line, reduced_arguments, write_rows

# Levels with fewer than this many grid cells per oscillation are noise.
CELLS_PER_OSCILLATION = 4

# Cells per block of rows in the bitmap kernels and in the rank block behind
# every m x m threshold mask (at most 2 bytes a cell below m = 65536, so
# 128 KiB), so the buffers stay in L2 and no m x m temporary beyond the mask
# itself is ever built.
_MASK_BLOCK = 1 << 16

# first_hit_sets updates the whole square level by level while more than
# this share of its cells lacks a second hit, then walks only those cells,
# this many at a time: a step's two float64 gathers and the intp copies of
# their indices then take about 1 MiB.
_OPEN_SHARE = 0.125
_OPEN_CHUNK = _MASK_BLOCK // 2


# ---------------------------------------------------------------------------
# bitmap sets
# ---------------------------------------------------------------------------

@dataclass
class GridSet:
    """Boolean mask over the unit square in image order: bits[j, i] covers y-cell j, x-cell i."""

    bits: np.ndarray

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=bool)
        if self.bits.ndim != 2 or self.bits.shape[0] != self.bits.shape[1]:
            raise ValueError(f"bits must be a square 2-D mask, got {self.bits.shape}")

    @property
    def resolution(self) -> int:
        return self.bits.shape[0]

    def measure(self) -> float:
        return float(np.count_nonzero(self.bits)) / float(self.bits.size)

    def __xor__(self, other: "GridSet") -> "GridSet":
        return GridSet(self.bits ^ other.bits)

    def __eq__(self, other) -> bool:
        return isinstance(other, GridSet) and np.array_equal(self.bits, other.bits)

    def dilate(self) -> "GridSet":
        """Chebyshev dilation by one cell with periodic wrap (the sets are torus-periodic).

        The 3 x 3 window is separable.  The shifted rows of the untouched
        source are ORed into one copy, then the shifted columns of that copy
        are ORed in place from a saved block of rows, so a dilation holds two
        m x m bitmaps and one block.
        """
        src = self.bits
        m = src.shape[0]
        rows = max(1, _MASK_BLOCK // m)
        buf = np.empty((min(rows, m), m), dtype=bool)
        out = src.copy()
        out[1:] |= src[:-1]
        out[0] |= src[-1]
        out[:-1] |= src[1:]
        out[-1] |= src[0]
        for lo in range(0, m, rows):
            blk = out[lo:lo + rows]
            saved = buf[:blk.shape[0]]
            saved[...] = blk
            blk[:, 1:] |= saved[:, :-1]
            blk[:, 0] |= saved[:, -1]
            blk[:, :-1] |= saved[:, 1:]
            blk[:, -1] |= saved[:, 0]
        return GridSet(out)

    def contains_within(self, other: "GridSet") -> bool:
        """True when every cell of self lies within one cell of other."""
        return not np.any(self.bits & ~other.dilate().bits)

    def write_pbm(self, path) -> None:
        """Plain PBM (P1); rows are y top-to-bottom for visual inspection."""
        m = self.resolution
        rows = np.full((m, m + 1), ord("\n"), dtype=np.uint8)
        # row 0 is the top of the square: PBM row r is bits[m - 1 - r]
        np.add(self.bits[::-1], np.uint8(ord("0")), out=rows[:, :m])
        with open(path, "wb") as fh:
            fh.write(f"P1\n{m} {m}\n".encode())
            fh.write(rows.data)


def cell_centers(resolution: int) -> np.ndarray:
    return (np.arange(resolution, dtype=np.float64) + 0.5) / float(resolution)


def _rank_count(s: np.ndarray, test) -> np.ndarray:
    """Per row i, the length of the leading run of sorted s on which test(w)[i] holds.

    The run must be a prefix of s for every row, and test must fail on
    +inf, which pads s past its end; the run is found by bisection, one
    vectorised step per bit of s.size.
    """
    m = s.size
    step = 1 << (m.bit_length() - 1)
    padded = np.full(2 * step - 1, np.inf)
    padded[:m] = s
    n = np.zeros(m, dtype=np.intp)
    while step:
        np.add(n, step, out=n, where=test(np.take(padded, n + (step - 1))))
        step >>= 1
    return n


def _far_mask(v: np.ndarray, epsilon: float) -> np.ndarray:
    """Bool mask |v_i - v_j| >= epsilon over finite v, built from the ranks of v.

    Rounded subtraction is monotone, so for a fixed v_i, v_i - w does not
    increase as w grows: in sorted order the w with v_i - w >= epsilon form a
    prefix and those with v_i - w <= -epsilon a suffix.  Row i is near on
    exactly one run of ranks [lo_i, hi_i), each bound counted by bisection on
    that very test, and far everywhere else; ties (and +-0.0) lie in one
    run.  A block of rows is then rank_j - lo_i >= hi_i - lo_i in the
    narrowest unsigned dtype holding m, where a rank below lo_i wraps to at
    least 2^B - lo_i >= hi_i - lo_i, since hi_i <= m < 2^B, and so is far.
    Each cell gets the bit of the float test, so the mask is symmetric bit
    for bit: v_j - v_i is exactly -(v_i - v_j).  g at reduced cell centres
    is always finite.
    """
    assert np.isfinite(v).all(), "far masks are built over finite values"
    m = v.size
    order = np.argsort(v)
    s = v[order]
    dtype = np.min_scalar_type(m)
    rank = np.empty(m, dtype=dtype)
    rank[order] = np.arange(m, dtype=dtype)
    lo = _rank_count(s, lambda w: v - w >= epsilon)
    width = (_rank_count(s, lambda w: v - w > -epsilon) - lo).astype(dtype)
    lo = lo.astype(dtype)
    rows = max(1, _MASK_BLOCK // m)
    buf = np.empty((min(rows, m), m), dtype=dtype)
    out = np.empty((m, m), dtype=bool)
    for a in range(0, m, rows):
        b = min(a + rows, m)
        blk = buf[:b - a]
        np.subtract(rank[None, :], lo[a:b, None], out=blk)
        np.greater_equal(blk, width[a:b, None], out=out[a:b])
    return out


def _tiled_rows(blk: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """blk's rows repeated across buf's width: column c of row i is blk[i, c mod p], p = blk.shape[1].

    blk itself when p is the width already, else the first len(blk) rows of buf.
    """
    n, p = blk.shape
    m = buf.shape[1]
    if p == m:
        return blk
    out = buf[:n]
    out.reshape(n, m // p, p)[...] = blk[:, None, :]
    return out


def _period(v: np.ndarray) -> int:
    """Smallest p dividing v.size with v[i + p] == v[i] for every i, or v.size when there is none.

    Read off the values, never assumed: exact for ints and floats, and a
    nan equals nothing, so an array holding one has period v.size.
    """
    m = v.size
    for p in range(1, m // 2 + 1):
        if m % p == 0 and np.array_equal(v[p:], v[:-p]):
            return p
    return m


# ---------------------------------------------------------------------------
# near-level sets of the base function
# ---------------------------------------------------------------------------

def near_level_set(g: BaseFunction, epsilon: float, resolution: int) -> GridSet:
    """Outer grid cover of {(x, y): |g(x) - g(y)| < epsilon}: a center test, dilated by one cell."""
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    marked = _far_mask(g.sample(cell_centers(resolution)), epsilon)
    np.logical_not(marked, out=marked)
    return GridSet(marked).dilate()


def _level_values(spec: FunctionSpec, n: int, centers: np.ndarray) -> np.ndarray:
    """g at level n's reduced arguments of the cell centres."""
    return spec.g.sample(reduced_arguments(spec, n, centers))


# ---------------------------------------------------------------------------
# square-grid covers
# ---------------------------------------------------------------------------

def cover_count(s: GridSet, delta: float) -> int:
    """Number of delta-squares on the 0-anchored regular grid meeting the set.

    Counts squares of the fixed grid, which upper-bounds the minimal cover.
    A square counts for a marked cell when they overlap by more than
    1e-9 of a square's side, so a square edge that lands on a cell edge,
    up to the rounding of delta, adds no square on either side of it.
    delta below the bitmap cell size would pretend to sub-cell knowledge, and
    above 1 the squares outgrow the unit square, so both are errors, as is nan.
    """
    m = s.resolution
    if not 1.0 / m <= delta <= 1.0:
        raise ValueError(f"delta must lie in [1/{m}, 1], from the grid resolution to the "
                         f"unit square, got {delta}")
    iy, ix = np.divmod(np.flatnonzero(s.bits), m)   # one flat scan: the order of np.nonzero
    if len(ix) == 0:
        return 0
    slack = 1e-9
    n_squares = int(math.ceil(1.0 / delta - slack))
    # Cell i = [i/m, (i + 1)/m) meets squares floor(r_i + slack) through
    # ceil(r_(i+1) - slack) - 1, with r_i = i / (m delta) in squares; a cell
    # is no wider than a square, so those are at most two.
    r = np.arange(m + 1) / (m * delta)
    lo = np.floor(r[:-1] + slack).astype(np.intp)
    hi = np.minimum(np.ceil(r[1:] - slack).astype(np.intp) - 1, n_squares - 1)
    hit = np.zeros((n_squares, n_squares), dtype=bool)
    for ky in (lo[iy], hi[iy]):
        for kx in (lo[ix], hi[ix]):
            hit[ky, kx] = True
    return int(np.count_nonzero(hit))


# ---------------------------------------------------------------------------
# iterated scaled intersections
# ---------------------------------------------------------------------------

def _membership_index(spec: FunctionSpec, level: int, centers: np.ndarray,
                      resolution: int) -> np.ndarray:
    t = reduced_arguments(spec, level, centers)
    idx = (t * resolution).astype(np.int64)
    return np.minimum(idx, resolution - 1)


def _level_cap(spec: FunctionSpec, n: int, resolution: int) -> int:
    """Largest level <= n with at least CELLS_PER_OSCILLATION cells per wave; warns if below n."""
    cap = min(n, spec.freq.max_order - 1)
    for j in range(1, cap + 1):
        if spec.freq.value(j) > resolution / CELLS_PER_OSCILLATION:
            cap = j - 1
            break
    if cap < n:
        warnings.warn(
            f"capping at level {cap} of {n}: finer levels oscillate faster than "
            f"{CELLS_PER_OSCILLATION} cells per wave at resolution {resolution}",
            UserWarning,
            stacklevel=3,
        )
    return cap


def intersection_sequence(a: GridSet, spec: FunctionSpec, n_max: int, on_level=None):
    """Iterated intersections of A with its rescaled, phase-shifted periodic copies.

    Set n keeps a cell iff its center (x, y) has, for every 1 <= j <= n,
    (b_j x + theta_j, b_j y + theta_j) mod 1 landing in a marked cell of A,
    with theta_j the spec's phase; the mod-1 wrap realizes the
    translation-periodized extension of A.  Built for n = 0..n_max, capped
    to usable levels, in place in one bitmap: consecutive sets are nested by
    construction, so the measures are nonincreasing.  Level j's membership
    index has a period p dividing m, read off the index itself, so the level
    is its p x p block tiled: only the p distinct rows are gathered, each at
    its p distinct columns, tiled across the row and ANDed into the m / p
    rows that repeat it, with the same bits as a gather of every cell.

    ``on_level(n, s)``, if given, is called once per level in order
    n = 0..n_effective.  The GridSet it receives is overwritten by the next
    level, so a caller that keeps it must copy its bits.  Returns
    (deepest set, measures, n_effective).
    """
    m = a.resolution
    n_eff = _level_cap(spec, n_max, m)
    centers = cell_centers(m)
    level = GridSet(a.bits.copy())
    bits = level.bits
    rows = max(1, _MASK_BLOCK // m)
    row_buf = np.empty((min(rows, m), m), dtype=bool)
    measures = []
    for j in range(n_eff + 1):
        if j:
            idx = _membership_index(spec, j, centers, m)
            p = _period(idx)
            tiles = bits.reshape(m // p, p, m)   # tiles[t, r] is row t p + r, whose index is idx[r]
            assert np.shares_memory(tiles, bits)
            for lo in range(0, p, rows):
                blk = np.take(np.take(a.bits, idx[lo:min(lo + rows, p)], axis=0), idx[:p], axis=1)
                tiles[:, lo:lo + rows] &= _tiled_rows(blk, row_buf)
        measures.append(level.measure())
        if on_level is not None:
            on_level(j, level)
    return level, measures, n_eff


# ---------------------------------------------------------------------------
# covering-rate bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverParams:
    """Per-step shrink rate of the iterated intersection's cover measure."""

    delta: float
    n_squares: int
    depth: int
    rate: float
    valid: bool


def _power(ratio: float, k: int) -> float:
    """ratio ** k, or inf past the float range."""
    try:
        return ratio ** k
    except OverflowError:
        return math.inf


def shrink_rate_bound(n_squares: int, delta: float, spec: FunctionSpec) -> CoverParams:
    """Rate with measure(iterate n) < C * rate^n, from an N-square cover.

    With spec.b_integer_theta_zero (integer b, zero phases) no grid square
    straddles a cover square, giving exactly N delta^2 at depth 1.  Else,
    with ratio = spec.freq.b, the depth k is the least with ratio^k > 2/delta
    (a power past the float range is larger; a 2/delta past it is a
    ValueError), and the rate is (N (delta + 2/ratio^k)^2)^(1/k).  N is
    taken as a float, so an N past the float range is a ValueError.  A rate
    >= 1 is flagged, not an error.
    """
    if n_squares < 1:
        raise ValueError(f"n_squares must be >= 1, got {n_squares}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    try:
        n = float(n_squares)
    except OverflowError:
        raise ValueError("n_squares is past the float range") from None
    if spec.b_integer_theta_zero:
        rate = n * delta ** 2
        depth = 1
    else:
        ratio, bound = spec.freq.b, 2.0 / delta
        if bound == math.inf:
            raise ValueError(f"delta {delta} is too small: 2/delta is past the float range")
        # the least depth >= 1 with ratio^depth > 2/delta: from logarithms, then settled
        # by that float comparison, with no step per power of a ratio near 1
        depth = max(1, math.floor(math.log(bound) / math.log(ratio)) + 1)
        while depth > 1 and _power(ratio, depth - 1) > bound:
            depth -= 1
        while _power(ratio, depth) <= bound:
            depth += 1
        rate = (n * (delta + 2.0 / _power(ratio, depth)) ** 2) ** (1.0 / depth)
    valid = rate < 1.0
    if not valid:
        warnings.warn(
            f"shrink rate {rate:g} >= 1: delta too large for the bound to bite",
            UserWarning,
            stacklevel=2,
        )
    return CoverParams(delta=float(delta), n_squares=int(n_squares), depth=depth,
                       rate=float(rate), valid=valid)


# ---------------------------------------------------------------------------
# decay fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayFit:
    rate: float
    r2: float


def decay_fit(measures) -> DecayFit:
    """Least-squares fit of log(measure) against the index; rate = exp(slope).

    Only the longest positive prefix is fit (a zero measure means the grid
    resolved the set to nothing); fitting fewer than 3 points is an error.
    """
    arr = np.asarray(list(measures), dtype=np.float64)
    n_pos = 0
    while n_pos < len(arr) and arr[n_pos] > 0.0:
        n_pos += 1
    if n_pos < 3:
        raise ValueError(f"need >= 3 positive leading measures, got {n_pos}")
    if n_pos < len(arr):
        warnings.warn(
            f"fitting the {n_pos}-entry positive prefix of {len(arr)} measures",
            UserWarning,
            stacklevel=2,
        )
    slope, _, r2 = fit_line(np.arange(n_pos), np.log(arr[:n_pos]))
    return DecayFit(rate=float(np.exp(slope)), r2=r2)


# ---------------------------------------------------------------------------
# first-hit decomposition
# ---------------------------------------------------------------------------

@dataclass
class FirstHitDecomposition:
    """First- and second-hit partition of the square by the oscillation sets.

    first[j, i] (image order, as in GridSet) is the first index n with
    |g(b_n x) - g(b_n y)| >= epsilon at the center of y-cell j, x-cell i
    (-1 if none up to the cap), and sets[n] the cells with first index n;
    pair_measures[n0, n1] is the measure of the cells hitting
    first at n0 and next at n1.  partial_sums[k] accumulates
    sum_{n0 < n1 <= k} measure / (a^n0 a^n1), the series whose convergence
    drives the occupation-density argument.
    """

    resolution: int
    n_max_effective: int
    first: np.ndarray = field(repr=False)
    pair_measures: np.ndarray = field(repr=False)
    partial_sums: list = field(default_factory=list)
    residual_first: float = 0.0
    residual_pair: float = 0.0

    @functools.cached_property
    def sets(self) -> list:
        return [GridSet(self.first == n) for n in range(self.n_max_effective + 1)]

    def increments(self) -> list:
        return [b - a for a, b in zip(self.partial_sums, self.partial_sums[1:])]

    def write_measures_csv(self, path) -> None:
        k = self.pair_measures.shape[0]
        write_rows(path, ("n0", "n1", "measure"),
                   ((n0, n1, self.pair_measures[n0, n1]) for n0 in range(k) for n1 in range(n0 + 1, k)))


def _add_pairs(counts: np.ndarray, n: int, f: np.ndarray, paired: np.ndarray) -> int:
    """Add the cells marked in paired, first hit at f and next at n, to counts[f, n]; return their number."""
    n_paired = np.count_nonzero(paired)
    if n == 1:
        counts[0, 1] += n_paired   # a second hit at 1 follows a first at 0
    elif n_paired:
        counts[:, n] += np.bincount(np.compress(paired.ravel(), f.ravel()), minlength=counts.shape[0])
    return n_paired


def _open_cells_level(c: np.ndarray, flat: np.ndarray, m: int, v: np.ndarray, epsilon: float,
                      n: int, counts: np.ndarray) -> tuple[np.ndarray, int]:
    """Level n's test of the open cells with flat indices c, v being g at its reduced cell centres.

    Cell (i, j) is hit when |v[i] - v[j]| >= epsilon.  Writes the first
    hits into the flat first-hit map, adds the new pairs to counts, and
    returns the cells still open and the number of first hits.  A function
    of its own, so that one chunk's temporaries are freed before the next.
    """
    i = c // m
    d = np.take(v, i)
    d -= np.take(v, c - i * m)
    hit = np.abs(d, out=d) >= epsilon
    f = np.take(flat, c)
    paired = f >= 0
    paired &= hit
    hit ^= paired
    _add_pairs(counts, n, f, paired)
    flat[np.compress(hit, c)] = n
    return np.compress(~paired, c), np.count_nonzero(hit)


def first_hit_sets(spec: FunctionSpec, epsilon: float, n_max: int,
                   resolution: int) -> FirstHitDecomposition:
    """Build the first/second-hit decomposition up to n_max on the grid.

    Levels oscillating faster than the grid can resolve are dropped and the
    effective cap reported in the result.  While more than an eighth of the
    cells lack a second hit, a level updates the whole square, testing only
    its p x p block of distinct cells: cell (i, j) is cell (i mod p, j mod p),
    p the period of g at the level's reduced cell centres, read off the
    values, whose centres have the same g values and so the same bits.
    Level 0 pairs nothing, so its hits are copied straight into the
    first-hit map.  Later levels test only the open
    cells, kept as a list of flat indices that drops each cell once it is
    paired: cell (i, j) is hit when |v[i] - v[j]| >= epsilon, v being g at
    the reduced centres, the very subtraction of the row test since
    v[i] == v[i mod p].  Either way the maps have the bits of a test of
    every cell.  Pairs are counted as they are found.
    """
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    m = resolution
    n_eff = _level_cap(spec, n_max, m)
    k = n_eff + 1
    centers = cell_centers(m)
    rows = max(1, _MASK_BLOCK // m)
    first = np.full((m, m), -1, dtype=np.int16)
    counts = np.zeros((k, k), dtype=np.int64)   # counts[n0, n1]: first hit at n0, next at n1
    n_unhit = n_open = m * m
    is_open = np.ones((m, m), dtype=bool)   # no second hit yet
    hit_buf = np.empty((min(rows, m), m), dtype=bool)
    mask_buf = np.empty_like(hit_buf)
    n = 0
    while n < k and n_open > _OPEN_SHARE * m * m:
        v = _level_values(spec, n, centers)
        p = _period(v)
        hits = _far_mask(v[:p], epsilon)   # the level is this p x p block, tiled
        if n == 0:
            # Nothing is hit before level 0, so its hits are first hits and pair nothing.
            np.copyto(first.reshape(m // p, p, m // p, p), 0, where=hits[:, None, :])
            n_unhit -= np.count_nonzero(hits) * (m // p) ** 2
        else:
            row_of = np.arange(m) % p
            for lo in range(0, m, rows):
                f, o = first[lo:lo + rows], is_open[lo:lo + rows]
                mask = mask_buf[:f.shape[0]]
                hit = _tiled_rows(np.take(hits, row_of[lo:lo + rows], axis=0), hit_buf)
                # The open cells hit here split into those with f >= 0, paired
                # at n, and those with f < 0, whose first hit is n.
                np.logical_and(o, hit, out=mask)
                np.greater_equal(f, 0, out=hit)
                hit &= mask
                n_open -= _add_pairs(counts, n, f, hit)
                o ^= hit
                mask ^= hit
                np.copyto(f, n, where=mask)
                n_unhit -= np.count_nonzero(mask)
        del hits   # before the next level's rows are built
        n += 1

    if n < k:
        # The open cells' flat indices, in int32 wherever it holds m^2 - 1.
        cells = np.flatnonzero(is_open).astype(np.int32 if m * m <= 1 << 31 else np.intp)
        del is_open
        flat = first.reshape(-1)
        for n in range(n, k):
            v = _level_values(spec, n, centers)
            kept = 0
            for lo in range(0, cells.size, _OPEN_CHUNK):
                c, n_first = _open_cells_level(cells[lo:lo + _OPEN_CHUNK], flat, m, v, epsilon, n, counts)
                n_unhit -= n_first
                cells[kept:kept + c.size] = c
                kept += c.size
            cells = cells[:kept]
        n_open = cells.size
    pair_measures = counts.astype(np.float64) / float(m * m)

    a = spec.a
    partial_sums = []
    total = 0.0
    for n1 in range(1, k):
        for n0 in range(n1):
            total += float(pair_measures[n0, n1]) / (a ** n0 * a ** n1)
        partial_sums.append(total)

    return FirstHitDecomposition(
        resolution=m,
        n_max_effective=n_eff,
        first=first,
        pair_measures=pair_measures,
        partial_sums=partial_sums,
        residual_first=float(n_unhit) / float(m * m),
        residual_pair=float(n_open) / float(m * m),
    )


def write_measures_csv(path, measures) -> None:
    """(n, measure) rows for an intersection sequence."""
    write_rows(path, ("n", "measure"), ((n, float(v)) for n, v in enumerate(measures)))
