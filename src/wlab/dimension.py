"""Box-counting dimension of sampled graphs and Monte Carlo energy integrals.

The box counter walks columns of width eps and counts the vertical boxes an
anchored grid needs for each column's value range: O(samples) per scale, and
provably identical to hashing every sample point's box whenever consecutive
samples move less than eps vertically.  The energy side estimates
mean((dx^2 + df^2)^(-t/2)) over uniform pairs on 2^-36; the integrand's
singularity on the diagonal defeats fixed quadrature grids, so Monte Carlo
with explicit standard errors is the tool.  Each pair point is a Philox
double truncated to 36 fraction bits, so it moves by less than 2^-36, and
for b = 2 levels 36 and up are constant, 19-35 table lookups, and only 0-18
reach np.cos (see fn_core._level_pass).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fn_core import (
    CoefficientDraw,
    FunctionSpec,
    GraphSample,
    dimension_formula,
    draw_coefficients,
    effective_order,
    evaluate_many,
    fit_line,
    sample_graphs,
    write_rows,
)
from .rng import substream


class DensityError(ValueError):
    """Sample too sparse for the requested box scale (undercounting risk)."""


# ---------------------------------------------------------------------------
# box counting
# ---------------------------------------------------------------------------

def _column_starts(xs: np.ndarray, scales, min_points_per_column: int) -> list:
    """Per scale eps, the index of the first sample in each eps-wide column of xs.

    DensityError unless xs holds at least 2 samples and every eps spans at
    least min_points_per_column of its largest spacing; ValueError unless
    xs is strictly increasing.
    """
    if len(xs) < 2:
        raise DensityError("need at least 2 samples")
    steps = np.diff(xs)
    if not np.all(steps > 0):
        raise ValueError("xs must be strictly increasing")
    h = float(np.max(steps))
    starts = []
    for eps in scales:
        if eps * (1.0 + 1e-9) < min_points_per_column * h:
            raise DensityError(
                f"eps {eps:g} below {min_points_per_column} sample spacings ({h:g} each); "
                "densify the sample or relax min_points_per_column"
            )
        cols = np.floor(xs / eps).astype(np.int64)
        starts.append(np.r_[0, np.nonzero(np.diff(cols))[0] + 1])
    return starts


def _box_counts(ys: np.ndarray, scales, starts) -> list:
    """Boxes hit at each scale eps by the columns that start at starts (see _column_starts).

    The vertical grid of each scale is anchored at min(ys) floored to eps,
    and each column needs the boxes from its lowest to its highest value.
    """
    ymin = float(ys.min())
    counts = []
    for eps, col_starts in zip(scales, starts):
        y0 = math.floor(ymin / eps) * eps
        k_lo = np.floor((np.minimum.reduceat(ys, col_starts) - y0) / eps).astype(np.int64)
        k_hi = np.floor((np.maximum.reduceat(ys, col_starts) - y0) / eps).astype(np.int64)
        counts.append(int(np.sum(k_hi - k_lo + 1)))
    return counts


def box_count(sample: GraphSample, eps: float, min_points_per_column: int = 8) -> int:
    """Count eps x eps boxes (grid anchored at x=0, y=ymin floored to eps) hit.

    min_points_per_column * (grid spacing) must not exceed eps, otherwise a
    column's oscillation may be unresolved and the count too low; relax the
    parameter only for samples whose per-step movement is known to be small.
    """
    starts = _column_starts(sample.xs, [eps], min_points_per_column)
    return _box_counts(sample.ys, [eps], starts)[0]


def _scan_counts(samples, scales) -> list:
    """[[box_count(s, eps) for eps in scales] for s in samples].

    Samples that share one xs array (as sample_graphs yields them) share
    its spacing check and column starts, found once for each scale.
    """
    xs = starts = None
    counts = []
    for sample in samples:
        if sample.xs is not xs:
            xs = sample.xs
            starts = _column_starts(xs, scales, 8)
        counts.append(_box_counts(sample.ys, scales, starts))
    return counts


@dataclass(frozen=True)
class DimensionEstimate:
    """log N(eps) vs -log eps fit with the predicted dimension alongside."""

    scales: tuple
    counts: tuple
    slope: float
    r2: float
    predicted_d: float
    intercept: float
    seed_slopes: tuple

    def to_json_dict(self) -> dict:
        return {
            "scales": list(self.scales),
            "counts": list(self.counts),
            "slope": self.slope,
            "r2": self.r2,
            "predicted_d": self.predicted_d,
            "intercept": self.intercept,
            "seed_slopes": list(self.seed_slopes),
        }

    def write_counts_csv(self, path) -> None:
        write_rows(path, ("eps", "count"),
                   ((float(e), float(c)) for e, c in zip(self.scales, self.counts)))


def _check_scales(scales) -> np.ndarray:
    arr = np.sort(np.asarray(list(scales), dtype=np.float64))[::-1]
    if len(arr) < 4:
        raise ValueError(f"need >= 4 scales, got {len(arr)}")
    if arr[0] / arr[-1] < 4.0:
        raise ValueError("scales must span at least 2 octaves")
    return arr


def box_dimension_scan(spec: FunctionSpec, seeds, scales, m: int | None = None) -> DimensionEstimate:
    """Seed-averaged box dimension: fit the mean of log N(eps) over draws.

    Each draw is truncated at the spec's effective order and sampled at m
    points, by default box_count's 8 per column of the finest scale, through
    sample_graphs.  The least-squares slope is linear in log N, so this
    equals the mean of the per-seed slopes; both are reported.
    """
    arr = _check_scales(scales)
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    if m is None:
        m = int(round(8 / float(arr[-1]))) + 1
    order = effective_order(spec)
    draws = (draw_coefficients(spec, s, order) for s in seeds)
    counts = _scan_counts(sample_graphs(spec, draws, m), arr)
    log_counts = np.log(np.asarray(counts, dtype=np.float64))
    mean_logs = log_counts.mean(axis=0)
    x = -np.log(arr)
    slope, intercept, r2 = fit_line(x, mean_logs)
    seed_slopes = tuple(fit_line(x, row)[0] for row in log_counts)
    return DimensionEstimate(
        scales=tuple(arr),
        counts=tuple(np.exp(mean_logs)),  # geometric-mean counts
        slope=slope,
        r2=r2,
        predicted_d=dimension_formula(spec),
        intercept=intercept,
        seed_slopes=seed_slopes,
    )


# ---------------------------------------------------------------------------
# t-energy Monte Carlo
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyEstimate:
    """Monte Carlo t-energy with its standard error and scan diagnostics."""

    t: float
    value: float
    std_error: float
    n_pairs: int
    growth: float | None = None
    tail_index: float | None = None
    correlation_dim: float | None = None
    verdict: str | None = None


_CHUNK = 1 << 16
_MIN_PAIRS = 1000
_LATTICE_BITS = 36   # fraction bits of every Monte Carlo pair point


def _to_lattice(u: np.ndarray) -> np.ndarray:
    """u set in place to floor(u 2^36) 2^-36, and returned.

    Exact: the scalings are by powers of 2, and each u in [0, 1) moves
    down by less than 2^-36.
    """
    u *= 2.0 ** _LATTICE_BITS
    np.floor(u, out=u)
    u *= 2.0 ** -_LATTICE_BITS
    return u


def _lattice_pairs(seed: int, label: str, chunk_idx: int, k: int) -> np.ndarray:
    """k i.i.d. uniform pairs on 2^-36 as one array xy, x = xy[:k] and y = xy[k:], with x != y.

    xy is one draw of 2k doubles from the substream (seed, label,
    chunk_idx), truncated in place to 2^-36; pairs with x == y after the
    truncation are redrawn from the same stream and truncated too, up to
    100 times before a RuntimeError.
    """
    gen = substream(seed, label, chunk_idx)
    xy = _to_lattice(gen.random(2 * k))
    x, y = xy[:k], xy[k:]
    for _ in range(100):
        equal = x == y
        if not equal.any():
            return xy
        n_eq = int(equal.sum())
        x[equal] = _to_lattice(gen.random(n_eq))
        y[equal] = _to_lattice(gen.random(n_eq))
    raise RuntimeError(f"x == y after 100 redraws in chunk {chunk_idx} of seed {seed}")


def _pair_distances_sq(spec: FunctionSpec, draw: CoefficientDraw, order: int,
                       n_pairs: int, seed: int, label: str) -> np.ndarray:
    """(x-y)^2 + (f(x)-f(y))^2 for i.i.d. uniform pairs on 2^-36 (_lattice_pairs).

    Chunk i of at most 2^16 pairs draws from the substream (seed, label, i),
    and its distances are built in place in the output.
    """
    out = np.empty(n_pairs, dtype=np.float64)
    done = 0
    chunk_idx = 0
    while done < n_pairs:
        k = min(_CHUNK, n_pairs - done)
        xy = _lattice_pairs(seed, label, chunk_idx, k)
        x, y = xy[:k], xy[k:]
        f = evaluate_many(spec, draw, xy, order)
        d, df = out[done:done + k], f[:k]
        np.subtract(x, y, out=d)
        np.square(d, out=d)
        np.subtract(df, f[k:], out=df)
        np.square(df, out=df)
        d += df
        done += k
        chunk_idx += 1
    return out


def energy_estimate(spec: FunctionSpec, draw: CoefficientDraw, t: float,
                    n_pairs: int, seed: int) -> EnergyEstimate:
    """Monte Carlo mean of ((x-y)^2 + (f(x)-f(y))^2)^(-t/2) over uniform pairs on 2^-36.

    f sums all draw.order terms of the draw.  Integrable singularities near
    the diagonal surface as heavy-tailed standard errors; they are reported,
    never clipped.
    """
    if not 0.0 <= t < 2.0:
        raise ValueError(f"t must lie in [0, 2), got {t}")
    if n_pairs < _MIN_PAIRS:
        raise ValueError(f"need >= {_MIN_PAIRS} pairs, got {n_pairs}")
    w = _pair_distances_sq(spec, draw, draw.order, n_pairs, seed, "energy")
    w **= -0.5 * t   # in place, and the same scalar-power paths as **
    mean = w.mean()
    # w.std(ddof=1) with numpy's own ops, in place, so no second n-double array is made
    w -= mean
    np.square(w, out=w)
    se = float(np.sqrt(w.sum() / (n_pairs - 1)) / math.sqrt(n_pairs))
    value = float(mean)
    return EnergyEstimate(t=t, value=value, std_error=se, n_pairs=n_pairs)


# Divergence rule: the integrand's tail obeys P(w > s) ~ s^(-alpha) with
# alpha = dim/t, so the energy has finite mean exactly when alpha > 1.  The
# pooled Hill estimate of alpha from the top _HILL_TOP terms of all seeds,
# D_c/t by _correlation_dimension, is the primary signal; its standard error
# alpha/sqrt(k) ~ 0.03 keeps the stable/diverging cases 4+ errors from the
# boundary for the (0.8, 2) family.  The growth of the running mean between
# n_pairs/4 and n_pairs, the spec'd symptom of an infinite mean, stays in as
# a secondary trigger for blatant cases, and only while the tail index is not
# 3 errors above 1: a significantly finite mean outweighs a noisy running mean.
_GROWTH_THRESHOLD = 0.05
_GROWTH_TSTAT = 2.0
_HILL_TOP = 2000
_HILL_FINITE_MEAN = 1.0 / (1.0 - 3.0 / math.sqrt(_HILL_TOP))


def _energy_verdict(tail_index: float, growth: float, growth_se: float) -> str:
    """Verdict for one t: diverging for a tail index below 1, or for significant
    growth while the tail index is not significantly above 1; else stable."""
    grows = growth > _GROWTH_THRESHOLD and (
        growth_se == 0.0 or growth > _GROWTH_TSTAT * growth_se
    )
    if tail_index < 1.0 or (grows and tail_index < _HILL_FINITE_MEAN):
        return "diverging"
    return "stable"


def _correlation_dimension(d2: np.ndarray, k: int) -> tuple:
    """Takens' estimate D = 2 / mean(log(d2_base / d2_i)) and its error D / sqrt(k).

    d2_i are the k smallest squared distances and d2_base the (k + 1)-th.  The
    terms w = d2^(-t/2) fall as d2 grows, so the Hill index of their top k + 1
    is exactly D / t for every t.
    """
    k = min(k, d2.size - 1)
    near = np.partition(d2, k)[:k + 1]
    dim = float(2.0 / np.mean(np.log(near[k] / near[:k])))
    return dim, dim / math.sqrt(k)


def energy_threshold_scan(spec: FunctionSpec, t_grid, n_pairs: int, seeds,
                          order: int | None = None) -> list:
    """Seed-averaged energy profile with a stable/diverging verdict per t.

    Each seed draws its own uniform pairs on 2^-36 (_pair_distances_sq).

    Diagnostics per t: the growth of the estimate from n_pairs/4 pairs (a
    prefix of the same stream) to n_pairs, and a pooled Hill tail index D_c/t,
    D_c the correlation dimension.  A tail index below 1 (infinite mean) marks
    t as diverging, and so does systematic significant growth unless the tail
    index is significantly above 1.  Needs at least 1000 pairs and one seed.
    """
    t_grid = [float(t) for t in t_grid]
    for t in t_grid:
        if not 1.0 < t < 2.0:
            raise ValueError(f"scan t values must lie in (1, 2), got {t}")
    if n_pairs < _MIN_PAIRS:
        raise ValueError(f"need >= {_MIN_PAIRS} pairs, got {n_pairs}")
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    if not t_grid:
        return []
    order = effective_order(spec) if order is None else order
    nq = n_pairs // 4
    k = len(seeds)

    fulls = np.empty((len(t_grid), k))
    quarters = np.empty_like(fulls)
    tops = []
    w = np.empty(n_pairs)
    keep = min(_HILL_TOP + 1, n_pairs)
    for i, seed in enumerate(seeds):
        draw = draw_coefficients(spec, seed, order)
        d2 = _pair_distances_sq(spec, draw, order, n_pairs, seed, "scanpairs")
        for j, t in enumerate(t_grid):
            np.power(d2, -0.5 * t, out=w)  # what d2 ** (-t/2) calls: no fast path for t in (1, 2)
            fulls[j, i] = w.mean()
            quarters[j, i] = w[:nq].mean()
        # partitioned only now: the quarter means read the stream-order prefix
        d2.partition(keep - 1)
        tops.append(d2[:keep].copy())
        del d2  # before the next seed's array is allocated
    dim, _ = _correlation_dimension(np.concatenate(tops), _HILL_TOP)

    out = []
    for t, full, quarter in zip(t_grid, fulls, quarters):
        value = float(full.mean())
        se = float(full.std(ddof=1) / math.sqrt(k)) if k > 1 else math.nan
        log_growth = np.log(full / quarter)
        growth = float(log_growth.mean())
        growth_se = float(log_growth.std(ddof=1) / math.sqrt(k)) if k > 1 else 0.0
        tail_index = dim / t
        out.append(EnergyEstimate(
            t=t, value=value, std_error=se, n_pairs=n_pairs,
            growth=growth, tail_index=tail_index, correlation_dim=dim,
            verdict=_energy_verdict(tail_index, growth, growth_se),
        ))
    return out


def write_scan_csv(path, entries) -> None:
    write_rows(path, ("t", "value", "std_error", "verdict"),
               ((float(e.t), float(e.value), float(e.std_error), e.verdict) for e in entries))
