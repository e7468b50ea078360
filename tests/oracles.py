"""Independent reference implementations used to pin expected values.

Everything here deliberately avoids the library's optimized code paths:
high-precision series summation via mpmath, plain-loop grid constructions,
and set-based box hashing.  Tests freeze values computed by these oracles
or call them directly for cross-checks.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np

from wlab import dimension, fn_core
from wlab.occupation import FourierProfile


def mp_eval_series(spec, values, x, order, dps=None):
    """High-precision sum of values[n] * g(b_n x + theta_n), n < order."""
    if dps is None:
        dps = max(60, int(order * math.log10(max(spec.freq.b, 2.0))) + 30)
    with mp.workdps(dps):
        total = mp.mpf(0)
        for n in range(order):
            bn = spec.freq.value(n)
            if isinstance(bn, Fraction):
                bn = mp.mpf(bn.numerator) / mp.mpf(bn.denominator)
            else:
                bn = mp.mpf(bn)
            arg = bn * mp.mpf(x) + mp.mpf(spec.phase(n))
            gval = sum(mp.mpf(alpha) * mp.cos(2 * k * mp.pi * arg) for k, alpha in spec.g.terms)
            total += mp.mpf(values[n]) * gval
        return float(total)


def g_reference(g, t):
    """g at t by the series formula, each product and cos a fresh array, summed in k order."""
    t = np.asarray(t, dtype=np.float64)
    total = None
    for k, alpha in g.terms:
        term = alpha * np.cos((k * fn_core.TWO_PI) * t)
        total = term if total is None else total + term
    return total


def oscillation_bits(spec, n, epsilon, resolution):
    """|g(b_n x + theta_n) - g(b_n y + theta_n)| >= epsilon at every pair of cell centres, as one m x m test."""
    centers = (np.arange(resolution) + 0.5) / resolution
    v = spec.g.sample(fn_core.reduced_arguments(spec, n, centers))
    return np.abs(v[:, None] - v[None, :]) >= epsilon


def evaluate_levels(spec, draw, xs, order):
    """The series sum over the whole array at once, one reduction call per level.

    The unblocked, single-threaded form of fn_core.evaluate_many, which must
    match it bit for bit.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    acc = np.zeros_like(xs)
    for n in range(order):
        c = draw.values[n]
        if c == 0.0:
            continue
        acc += c * spec.g.sample(fn_core.reduced_arguments(spec, n, xs))
    return acc


def brute_near_level_bits(g_callable, eps, resolution):
    """Center test plus 8-neighbor periodic dilation, built with explicit rolls."""
    centers = (np.arange(resolution) + 0.5) / resolution
    gv = np.asarray(g_callable(centers), dtype=float)
    marked = np.abs(gv[:, None] - gv[None, :]) < eps
    dil = marked.copy()
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            dil |= np.roll(np.roll(marked, dx, 0), dy, 1)
    return dil


def brute_dilate_bits(bits, steps):
    """Cells with a marked cell in their (2 steps + 1)^2 periodic window, by plain loops."""
    m = bits.shape[0]
    window = range(-steps, steps + 1)
    out = np.zeros_like(bits)
    for i in range(m):
        for j in range(m):
            out[i, j] = any(bits[(i + dx) % m, (j + dy) % m] for dx in window for dy in window)
    return out


def tiled_pbm_bytes(bits, tile=128):
    """A plain PBM of bits[x, y] by a tiled transpose: rows[r, c] = bits[c, m - 1 - r].

    For a symmetric set, whose bits read the same in either order, these are
    the bytes GridSet.write_pbm writes from its image-order bits.
    """
    m = bits.shape[0]
    rows = np.full((m, m + 1), ord("\n"), dtype=np.uint8)
    flipped = bits[:, ::-1]
    for r in range(0, m, tile):
        for c in range(0, m, tile):
            rows[r:r + tile, c:min(c + tile, m)] = flipped[c:c + tile, r:r + tile].T
    rows[:, :m] += ord("0")
    return f"P1\n{m} {m}\n".encode() + rows.tobytes()


def exact_reduced(frequency, phase, xs):
    """(frequency x + phase) mod 1 for each float x, in Fractions, rounded to float once; 1.0 becomes 0.0."""
    b, t = Fraction(frequency), Fraction(phase)
    out = np.array([float((b * Fraction(float(x)) + t) % 1) for x in xs])
    out[out == 1.0] = 0.0
    return out


def brute_iterated_bits(a_bits, frequencies, phase_pairs, n):
    """Row by row, membership of the exactly reduced, rescaled cell centres in a_bits."""
    m = a_bits.shape[0]
    centers = [(i + 0.5) / m for i in range(m)]
    bits = a_bits.copy()
    for level in range(1, n + 1):
        tx, ty = phase_pairs[level - 1] if phase_pairs else (0.0, 0.0)
        ix, iy = (np.minimum((exact_reduced(frequencies[level], t, centers) * m).astype(np.int64), m - 1)
                  for t in (tx, ty))
        for i in range(m):
            bits[i] &= a_bits[ix[i], iy]
    return bits


def brute_first_hits(level_values, eps):
    """(first, second) from the whole outer difference of each level.

    level_values[n, i] is g at the level-n argument of cell centre i; cell
    (i, j) is hit at n when |level_values[n, i] - level_values[n, j]| >= eps,
    and first and second are the first two levels hitting each cell (-1
    where there are fewer).
    """
    k, m = level_values.shape
    hits = np.abs(level_values[:, :, None] - level_values[:, None, :]) >= eps
    first = np.full((m, m), -1, dtype=np.int16)
    second = np.full((m, m), -1, dtype=np.int16)
    for n in range(k):
        second[(first >= 0) & (second < 0) & hits[n]] = n
        first[(first < 0) & hits[n]] = n
    return first, second


def brute_pair_counts(level_values, eps):
    """Per-cell loop over levels: counts[n0, n1] of cells first hit at n0, next at n1.

    level_values[n, i] is g at the level-n argument of cell centre i; a cell
    (i, j) is hit at n when |level_values[n, i] - level_values[n, j]| >= eps.
    """
    k, m = level_values.shape
    counts = np.zeros((k, k), dtype=np.int64)
    for i in range(m):
        for j in range(m):
            hits = [n for n in range(k) if abs(level_values[n, i] - level_values[n, j]) >= eps]
            if len(hits) >= 2:
                counts[hits[0], hits[1]] += 1
    return counts


def brute_cover_count(bits, delta):
    """Enumerate delta-squares and scan every grid cell for an overlap, in exact rationals.

    Square k = [k delta, (k + 1) delta) counts for cell i = [i/m, (i + 1)/m)
    when they overlap by more than 1e-9 delta, delta taken at its binary
    value, so a square edge on a cell edge up to rounding counts no square.
    """
    m = bits.shape[0]
    d = Fraction(delta)
    slack = d / 10 ** 9

    def squares(i):
        lo, hi = Fraction(i, m), Fraction(i + 1, m)
        return [k for k in range(math.floor(lo / d) - 1, math.floor(hi / d) + 2)
                if min((k + 1) * d, hi) - max(k * d, lo) > slack]

    per_cell = [squares(i) for i in range(m)]
    hit = set()
    for i, j in zip(*np.nonzero(bits)):
        for kx in per_cell[i]:
            for ky in per_cell[j]:
                hit.add((kx, ky))
    return len(hit)


def box_hash_count(xs, ys, eps):
    """Distinct (column, row) boxes containing sample points; anchor as production."""
    y0 = math.floor(float(np.min(ys)) / eps) * eps
    cols = np.floor(np.asarray(xs) / eps).astype(np.int64)
    rows = np.floor((np.asarray(ys) - y0) / eps).astype(np.int64)
    return len(set(zip(cols.tolist(), rows.tolist())))


def pooled_hill_scan(spec, t_grid, n_pairs, seeds, order):
    """The energy scan with a separate pooled Hill fit per t.

    For every t the top + 1 largest of each seed's terms w = d2^(-t/2) are
    pooled; the Hill index 1 / mean(log(w_i / w_min)) over the pool's top + 1
    largest is that t's tail index.  Returns (t, value, std_error, growth,
    tail_index, verdict) per t.
    """
    top = dimension._HILL_TOP
    k = len(seeds)
    nq = n_pairs // 4
    d2_all = [
        dimension._pair_distances_sq(
            spec, fn_core.draw_coefficients(spec, s, order), order, n_pairs, s, "scanpairs")
        for s in seeds
    ]
    out = []
    for t in t_grid:
        fulls = np.empty(k)
        quarters = np.empty(k)
        blocks = []
        for i, d2 in enumerate(d2_all):
            w = d2 ** (-0.5 * t)
            fulls[i] = w.mean()
            quarters[i] = w[:nq].mean()
            blocks.append(np.sort(w)[-(top + 1):])
        pooled = np.sort(np.concatenate(blocks))
        kk = min(top, pooled.size - 1)
        hill = pooled[-kk - 1:]
        tail_index = float(1.0 / np.mean(np.log(hill[1:] / hill[0])))
        value = float(fulls.mean())
        se = float(fulls.std(ddof=1) / math.sqrt(k)) if k > 1 else math.nan
        log_growth = np.log(fulls / quarters)
        growth = float(log_growth.mean())
        growth_se = float(log_growth.std(ddof=1) / math.sqrt(k)) if k > 1 else 0.0
        verdict = dimension._energy_verdict(tail_index, growth, growth_se)
        out.append((t, value, se, growth, tail_index, verdict))
    return out


def flat_energy_closed_form(t):
    """Double integral of |x - y|^(-t) over the unit square, t < 1."""
    return 2.0 / ((1.0 - t) * (2.0 - t))


def fourier_transform(sample, us):
    """Rectangle-rule transform (1/m) sum_j exp(i u ys[j]) at each requested u."""
    us = np.asarray(list(us), dtype=np.float64)
    if us.size == 0:
        raise ValueError("need a nonempty frequency list")
    ys = sample.ys
    values = np.empty(us.size, dtype=np.complex128)
    chunk = max(1, (1 << 22) // max(1, ys.size))
    for start in range(0, us.size, chunk):
        block = us[start:start + chunk]
        values[start:start + chunk] = np.exp(1j * np.outer(block, ys)).mean(axis=1)
    return FourierProfile(us=us, values=values)


def identity_char_function(u):
    """Characteristic function of Lebesgue measure on [0, 1]."""
    if u == 0:
        return 1.0 + 0.0j
    return (np.exp(1j * u) - 1.0) / (1j * u)


def half_widths_levels(spec, x, y, order):
    """a^n (g(b_n x + theta_n) - g(b_n y + theta_n)) for n < order, shape (x.size, order).

    x and y are reduced together over the whole arrays at once, one
    reduction call per level: the unblocked, single-threaded form of
    occupation.increment_half_widths, which must match it bit for bit.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    k = x.size
    xy = np.concatenate([x, np.asarray(y, dtype=np.float64).ravel()])
    out = np.empty((k, order))
    for n in range(order):
        g = spec.g.sample(fn_core.reduced_arguments(spec, n, xy))
        out[:, n] = spec.a ** n * (g[:k] - g[k:])
    return out
