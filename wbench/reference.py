"""Independent computations that wlab's outputs are checked against.

Nothing here imports wlab.  Series values come from mpmath with enough
binary precision that every product b_n x is exact.  Grid sets and
first-hit maps come from exact integer index arithmetic: every benchmark
grid has a power-of-two resolution m, every frequency on it is an integer
and every phase a multiple of 1/(2m), so the reduced argument of a cell
centre is exactly j/(2m) for an integer j.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
import numpy as np

# wlab's fixed-point reduction is exact for 0 < x mod 1 only above this.
SMALL_X = 2.0 ** -11

# A g difference closer than this to epsilon could be decided either way by
# two correct implementations; grids where one occurs are refused.
AMBIGUITY_TOL = 1e-9


class AmbiguousGrid(ValueError):
    """Some difference of g values on the grid lies within rounding of epsilon."""


# ---------------------------------------------------------------------------
# the series at high precision
# ---------------------------------------------------------------------------

def truncation_order(a: float) -> int:
    """Terms kept at wlab's default tolerance: the smallest K with 2 a^K <= 1e-9.

    The tail bound 2 sup|g| a^K / (1 - a) meets the default tolerance
    1e-9 sup|g| / (1 - a) exactly when 2 a^K <= 1e-9.
    """
    return math.ceil(math.log(5e-10) / math.log(a))


def geometric_frequencies(b: float, order: int) -> list:
    return [Fraction(b) ** n for n in range(order)]


def _mp_g(kind: str, t):
    if kind == "cos":
        return mp.cos(2 * mp.pi * t)
    if kind == "cos2":
        return mp.cos(2 * mp.pi * t) + mp.cos(4 * mp.pi * t) / 2
    raise ValueError(f"unknown base function {kind!r}")


def series_values(coeffs, freqs, phases, kind: str, xs) -> np.ndarray:
    """sum_n coeffs[n] g(freqs[n] x + phases[n]) at each x, in mpmath.

    ``freqs`` are exact Fractions and ``phases`` floats (missing phases are
    0).  The working precision holds every b_n x exactly, so the argument
    is reduced mod 1 without error before g is evaluated.
    """
    freqs = [Fraction(f) for f in freqs]
    phases = list(phases) + [0.0] * (len(coeffs) - len(phases))
    top_bits = max(f.numerator.bit_length() + f.denominator.bit_length() for f in freqs)
    out = np.empty(len(xs))
    with mp.workprec(top_bits + 53 + 128):
        bs = [mp.mpf(f.numerator) / f.denominator for f in freqs]
        for i, x in enumerate(xs):
            total = mp.mpf(0)
            for c, bn, th in zip(coeffs, bs, phases):
                arg = bn * mp.mpf(float(x)) + mp.mpf(th)
                total += mp.mpf(c) * _mp_g(kind, arg - mp.floor(arg))
            out[i] = float(total)
    return out


# ---------------------------------------------------------------------------
# exact grid arithmetic
# ---------------------------------------------------------------------------

def g_table(kind: str, m: int) -> np.ndarray:
    """g(j / 2m) for j = 0 .. 2m - 1: every reduced argument of a cell centre."""
    t = np.arange(2 * m, dtype=np.float64) / (2 * m)
    if kind == "cos":
        return np.cos(2.0 * np.pi * t)
    if kind == "cos2":
        return np.cos(2.0 * np.pi * t) + 0.5 * np.cos(4.0 * np.pi * t)
    raise ValueError(f"unknown base function {kind!r}")


def require_unambiguous(table: np.ndarray, eps: float) -> None:
    """Refuse grids where some |g_i - g_j| lies within AMBIGUITY_TOL of eps."""
    vals = np.unique(table)
    idx = np.clip(np.searchsorted(vals, vals + eps), 1, len(vals) - 1)
    gap = np.minimum(np.abs(vals[idx] - vals - eps), np.abs(vals[idx - 1] - vals - eps))
    if gap.min() < AMBIGUITY_TOL:
        raise AmbiguousGrid(f"a g difference lies within {gap.min():.3g} of {eps}")


def centre_numerators(freq: int, phase, m: int) -> np.ndarray:
    """2m ((freq x + phase) mod 1) at the cell centres x = (i + 1/2)/m, as integers."""
    shift = Fraction(phase) * 2 * m
    if shift.denominator != 1:
        raise ValueError(f"phase {phase} is not a multiple of 1/{2 * m}")
    i = np.arange(m, dtype=np.int64)
    return ((freq % (2 * m)) * (2 * i + 1) + int(shift)) % (2 * m)


def far_pairs(gv: np.ndarray, eps: float, rows: int = 256) -> np.ndarray:
    """bits[i, j] = |gv[i] - gv[j]| >= eps, built in row blocks to bound memory."""
    m = len(gv)
    out = np.empty((m, m), dtype=bool)
    for r in range(0, m, rows):
        out[r:r + rows] = np.abs(gv[r:r + rows, None] - gv[None, :]) >= eps
    return out


def dilate3(bits: np.ndarray) -> np.ndarray:
    """Periodic 3x3 dilation as the union of the nine shifted copies."""
    out = np.zeros_like(bits)
    for dx in (-1, 0, 1):
        shifted = np.roll(bits, dx, axis=0)
        for dy in (-1, 0, 1):
            out |= np.roll(shifted, dy, axis=1)
    return out


def near_level_bits(kind: str, eps: float, m: int) -> np.ndarray:
    """Level 0: cells whose centre has |g(x) - g(y)| < eps, dilated by one cell."""
    table = g_table(kind, m)
    require_unambiguous(table, eps)
    gv = table[2 * np.arange(m) + 1]
    return dilate3(~far_pairs(gv, eps))


def iterated_levels(a_bits: np.ndarray, freqs, phases, n_max: int):
    """Yield the level-n sets, n = 0 .. n_max, of the iterated intersection.

    A cell stays at level n iff it stayed at level n - 1 and the cell holding
    ((b_n x + th_n) mod 1, (b_n y + th_n) mod 1) is marked in A.
    """
    m = a_bits.shape[0]
    bits = a_bits.copy()
    yield bits
    for n in range(1, n_max + 1):
        idx = centre_numerators(freqs[n], phases[n], m) // 2
        bits = bits & a_bits[np.ix_(idx, idx)]
        yield bits


def first_hit_maps(kind: str, freqs, phases, eps: float, n_max: int, m: int):
    """(first, second): per cell the first and second level n with |dg_n| >= eps.

    -1 where there is none.  The levels are found by counting hits so far,
    so level n is a first hit where the count was 0 and a second hit where
    it was 1.
    """
    table = g_table(kind, m)
    require_unambiguous(table, eps)
    first = np.full((m, m), -1, dtype=np.int8)
    second = np.full((m, m), -1, dtype=np.int8)
    hits = np.zeros((m, m), dtype=np.int8)
    for n in range(n_max + 1):
        hit = far_pairs(table[centre_numerators(freqs[n], phases[n], m)], eps)
        first[hit & (hits == 0)] = n
        second[hit & (hits == 1)] = n
        hits += hit & (hits < 2)
    return first, second


def pair_counts(first: np.ndarray, second: np.ndarray, levels: int) -> np.ndarray:
    """counts[n0, n1] of cells hitting first at n0 and next at n1."""
    paired = second >= 0
    codes = first[paired].astype(np.int64) * levels + second[paired]
    return np.bincount(codes, minlength=levels * levels).reshape(levels, levels)


def cover_count_blocks(bits: np.ndarray, delta: float) -> int:
    """delta-squares meeting the set, for delta = 2^-k: each square is a block of cells."""
    m = bits.shape[0]
    side = Fraction(delta) * m
    if side.denominator != 1 or m % int(side):
        raise ValueError(f"delta {delta} does not tile the {m}-cell grid")
    s = int(side)
    return int(bits.reshape(m // s, s, m // s, s).any(axis=(1, 3)).sum())


# ---------------------------------------------------------------------------
# box counting, densities, fits
# ---------------------------------------------------------------------------

def hashed_box_counts(xs: np.ndarray, ys: np.ndarray, eps: float):
    """(column-span count, distinct-box count) from the set of hit boxes.

    Boxes are eps-squares anchored at x = 0 and y = floor(min y / eps) eps.
    The distinct count is the boxes holding a sample; the span count fills
    each column from its lowest to its highest hit box, which is the count
    of a continuous graph through the samples.
    """
    y0 = math.floor(float(ys.min()) / eps) * eps
    cols = np.floor(xs / eps).astype(np.int64)
    rows = np.floor((ys - y0) / eps).astype(np.int64)
    height = int(rows.max()) + 1
    boxes = np.unique(cols * height + rows)
    box_cols = boxes // height
    starts = np.r_[0, np.nonzero(np.diff(box_cols))[0] + 1]
    lo = boxes[starts] % height
    hi = boxes[np.r_[starts[1:], len(boxes)] - 1] % height
    return int(np.sum(hi - lo + 1)), len(boxes)


def histogram_counts(ys: np.ndarray, bins: int):
    """(lo, width, counts) with the range padded one bin beyond the extremes."""
    ymin, ymax = float(ys.min()), float(ys.max())
    width = (ymax - ymin) / (bins - 2)
    lo = ymin - width
    edges = lo + width * np.arange(bins + 1)
    counts = np.histogram(ys, bins=edges)[0]
    return lo, width, counts


def l2_norm_sq(counts: np.ndarray, width: float) -> float:
    density = counts / (counts.sum() * width)
    return float(np.sum(density ** 2) * width)


def least_squares_slope(x, y) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    dx = x - x.mean()
    return float(np.sum(dx * (y - y.mean())) / np.sum(dx * dx))


def sinc_ratio(hw: np.ndarray, u: float, bound: float) -> float:
    """|prod sin(u h)/(u h)| / bound for one pair's half-widths."""
    z = u * hw
    safe = np.where(z == 0.0, 1.0, z)
    factors = np.where(z == 0.0, 1.0, np.sin(safe) / safe)
    return abs(float(np.prod(factors))) / bound
