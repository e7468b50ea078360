"""Occupation measure of f: density, L2 norm, Fourier side, sinc products.

The occupation measure pushes Lebesgue measure on [0, 1] forward through f.
J = [0, 1] is fixed unconditionally; for non-integer frequency ratios or
nonzero phases f need not be 1-periodic, so this is the window convention,
not a periodicity claim.  Its characteristic function under the coefficient
randomness factorizes into sin(u a_n dg_n)/(u a_n dg_n) terms, which is what
links the first-hit series in `covering` to the L2 density statement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fn_core import (
    FunctionSpec,
    GraphSample,
    _level_pass,
    fit_line,
    write_rows,
)
from .rng import substream


class AliasingError(ValueError):
    """Fourier grid too coarse for the density's support width."""


# ---------------------------------------------------------------------------
# histogram density
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OccupationDensity:
    """Histogram density of f-values; weights integrate to 1 by construction."""

    lo: float
    hi: float
    bins: int
    weights: np.ndarray
    l2_sq: float
    degenerate: bool

    @property
    def bin_width(self) -> float:
        return (self.hi - self.lo) / self.bins

    def bin_centers(self) -> np.ndarray:
        return self.lo + (np.arange(self.bins) + 0.5) * self.bin_width

    def write_csv(self, path) -> None:
        write_rows(path, ("bin_center", "density"), zip(self.bin_centers(), self.weights))


def occupation_histogram(sample: GraphSample, bins: int) -> OccupationDensity:
    """Histogram of f over the sample; each point carries mass 1/len(xs).

    The value range is the sampled min/max padded by one bin width on each
    side, so at least 3 bins are needed.  A bin holding over half the mass
    flags a degenerate (near-atomic) measure; the result is still returned.
    """
    if bins < 3:
        raise ValueError(f"need >= 3 bins, got {bins}")
    m = len(sample)
    if m < 100 * bins:
        raise ValueError(f"need >= {100 * bins} samples for {bins} bins, got {m}")
    ys = sample.ys
    ymin, ymax = float(ys.min()), float(ys.max())
    span = ymax - ymin
    if span == 0.0:
        bw = 1.0 / bins
        lo = ymin - 0.5
    else:
        bw = span / (bins - 2)
        lo = ymin - bw
    hi = lo + bins * bw
    idx = np.clip(((ys - lo) / bw).astype(np.int64), 0, bins - 1)
    counts = np.bincount(idx, minlength=bins)
    weights = counts / (m * bw)
    l2_sq = float(np.sum(weights ** 2) * bw)
    degenerate = bool(counts.max() * 2 > m)
    return OccupationDensity(lo=lo, hi=hi, bins=bins, weights=weights,
                             l2_sq=l2_sq, degenerate=degenerate)


# ---------------------------------------------------------------------------
# Fourier transform of the occupation measure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FourierProfile:
    """Empirical characteristic function mean(exp(i u f(x))) on a u-grid."""

    us: np.ndarray
    values: np.ndarray

    def abs_sq(self) -> np.ndarray:
        return np.abs(self.values) ** 2

    def write_csv(self, path) -> None:
        write_rows(path, ("u", "re", "im", "abs2"),
                   ((u, v.real, v.imag, v.real**2 + v.imag**2) for u, v in zip(self.us, self.values)))


def _extend(z: np.ndarray, w: np.ndarray, pos: list, steps: int) -> None:
    """Advance z = exp(i k du y) by one factor w per step, appending mean(z) each time."""
    for _ in range(steps):
        z *= w
        pos.append(z.mean())


def _symmetric_profile(pos: list, du: float) -> FourierProfile:
    """Profile on u = -K du..K du from its K positive values; mu_hat(-u) = conj(mu_hat(u))."""
    pos = np.asarray(pos, dtype=np.complex128)
    us = du * np.arange(-len(pos), len(pos) + 1)
    values = np.concatenate([np.conj(pos[::-1]), [1.0 + 0.0j], pos])
    return FourierProfile(us=us, values=values)


def _check_finite_positive(name: str, value: float) -> None:
    """ValueError naming a du or u_max that is not finite and positive."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")


def char_function_profile(sample: GraphSample, du: float, u_max: float) -> FourierProfile:
    """Symmetric uniform-grid profile via the recurrence exp(i k du y) = z^k.

    One complex multiply per sample per step instead of a transcendental;
    drift is ~ steps * eps.  Negative frequencies are the exact conjugates
    (same quadrature nodes), so only u >= 0 is computed.
    """
    _check_finite_positive("du", du)
    _check_finite_positive("u_max", u_max)
    n_steps = int(math.ceil(u_max / du - 1e-12))
    w = np.exp(1j * du * sample.ys)
    pos = []
    _extend(np.ones_like(w), w, pos, n_steps)
    return _symmetric_profile(pos, du)


_U_START = 64.0   # the adaptive profile's first range, doubled up to _U_CAP
_U_CAP = 4096.0


def check_decay_target(decay_target: float) -> None:
    """ValueError for a decay target that is nan or not positive: no profile can meet it."""
    if not decay_target > 0.0:
        raise ValueError(f"decay target must be positive, got {decay_target}")


def adaptive_char_profile(sample: GraphSample, du: float, decay_target: float = 1e-4):
    """Grow the profile in octaves until the last octave's |mu|^2 dips below target.

    The range starts at u = 64 and doubles up to 4096.  Returns (profile,
    reached: bool); reached is False when 4096 was hit with the tail still
    above the target.  A target that check_decay_target rejects, or a du
    that is not finite and positive, is a ValueError.
    """
    check_decay_target(decay_target)
    _check_finite_positive("du", du)
    n_steps = int(math.ceil(_U_START / du))
    w = np.exp(1j * du * sample.ys)
    z = np.ones_like(w)
    pos = []
    _extend(z, w, pos, n_steps)
    while not max(abs(v) ** 2 for v in pos[len(pos) // 2:]) < decay_target:
        if len(pos) * du >= _U_CAP:
            return _symmetric_profile(pos, du), False
        _extend(z, w, pos, len(pos))  # double the range
    return _symmetric_profile(pos, du), True


# ---------------------------------------------------------------------------
# Parseval cross-check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParsevalReport:
    """Comparison of (1/2pi) integral |mu_hat|^2 du against the histogram L2 norm."""

    discrepancy: float
    fourier_integral: float
    l2_sq: float
    u_max: float
    tail_estimate: float
    tail_exponent: float
    degenerate: bool

    def to_json_dict(self) -> dict:
        # a diverging tail estimate serializes as null (strict JSON has no inf)
        return {
            "discrepancy": self.discrepancy,
            "fourier_integral": self.fourier_integral,
            "l2_sq": self.l2_sq,
            "u_max": self.u_max,
            "tail_estimate": self.tail_estimate if math.isfinite(self.tail_estimate) else None,
            "tail_exponent": self.tail_exponent,
            "degenerate": self.degenerate,
        }


def fourier_step(density: OccupationDensity) -> float:
    """Frequency spacing 0.9 pi/(hi - lo), under the bound pi/(hi - lo) of parseval_check."""
    return 0.9 * math.pi / (density.hi - density.lo)


def parseval_check(density: OccupationDensity, profile: FourierProfile) -> ParsevalReport:
    """Relative gap between the truncated Fourier L2 mass and the density's.

    Convention mu_hat(u) = int exp(iut) dmu implies int |mu_hat|^2 du =
    2 pi int rho^2.  The profile's last frequency is u_max; the tail beyond
    it is estimated from the decay exponent fitted on the last octave and
    reported, not added in.
    """
    us = profile.us
    du = float(us[1] - us[0]) if len(us) > 1 else math.inf
    if not np.allclose(np.diff(us), du, rtol=1e-9, atol=0.0):
        raise AliasingError("profile frequencies must form a uniform grid")
    nyquist = math.pi / (density.hi - density.lo)
    if du > nyquist * (1.0 + 1e-12):
        raise AliasingError(
            f"grid spacing {du:g} exceeds pi/(hi-lo) = {nyquist:g}; the density "
            "cannot be resolved at this sampling"
        )
    u_max = float(us[-1])
    vv = profile.abs_sq()
    integral = float(np.trapezoid(vv, us) / (2.0 * math.pi))
    discrepancy = abs(integral - density.l2_sq) / density.l2_sq

    # last-octave decay fit for the omitted tail, |mu|^2 ~ C u^p
    octave = (np.abs(us) >= u_max / 2.0) & (np.abs(us) > 0.0)
    lu = np.log(np.abs(us[octave]))
    lv = np.log(np.maximum(vv[octave], 1e-300))
    p, logc, _ = fit_line(lu, lv)
    if p < -1.0:
        tail = math.exp(logc) * u_max ** (p + 1.0) / (-(p + 1.0)) / math.pi
    else:
        tail = math.inf
    return ParsevalReport(
        discrepancy=float(discrepancy),
        fourier_integral=integral,
        l2_sq=density.l2_sq,
        u_max=u_max,
        tail_estimate=float(tail),
        tail_exponent=float(p),
        degenerate=density.degenerate,
    )


# ---------------------------------------------------------------------------
# sinc products and the coefficient-average identity
# ---------------------------------------------------------------------------

def _sinc(z: np.ndarray) -> np.ndarray:
    """sin(z)/z with the removable singularity filled by its series."""
    z = np.asarray(z, dtype=np.float64)
    small = np.abs(z) < 1e-8
    safe = np.where(small, 1.0, z)
    out = np.sin(safe) / safe
    return np.where(small, 1.0 - z * z / 6.0, out)


@dataclass(frozen=True)
class SincFactors:
    """Factors sin(u h_n)/(u h_n) for the increment half-widths h_n = a^n dg_n."""

    half_widths: np.ndarray
    factors: np.ndarray
    product: float
    tail_lower_bound: float


def increment_half_widths(spec: FunctionSpec, x, y, order: int) -> np.ndarray:
    """a^n (g(b_n x + th_n) - g(b_n y + th_n)) for n < order, shape x.shape + (order,).

    x and y are scalars or arrays of one shape.  They are laid out
    interleaved (x0, y0, x1, y1, ...) and walked in one fn_core._level_pass,
    so every block holds whole pairs and the pass's memory does not grow
    with the pair count.  A level constant on a block gives 0.0 there.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"x and y must have one shape, got {x.shape} and {y.shape}")
    xy = np.empty(x.shape + (2,))
    xy[..., 0] = x
    xy[..., 1] = y
    out = np.empty((x.size, order), dtype=np.float64)

    def half_width(start: int, stop: int, n: int, s) -> None:
        out[start // 2:stop // 2, n] = spec.a ** n * (s[0::2] - s[1::2]) if np.ndim(s) else 0.0

    _level_pass(spec, xy.reshape(-1), list(range(order)), half_width)
    return out.reshape(x.shape + (order,))


def sinc_product(spec: FunctionSpec, x: float, y: float, u: float, order: int) -> SincFactors:
    """Product over n < order of sin(u h_n)/(u h_n).

    This is the characteristic function at u of sum Z_n for independent
    uniform Z_n on (-h_n, h_n), i.e. of f(x) - f(y) truncated at ``order``
    under the coefficient law.  The omitted tail's product is bounded below
    by 1 - (2 u sup|g| a^order)^2 / (6 (1 - a^2)); the bound is reported and
    is informative when positive.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    hw = increment_half_widths(spec, x, y, order)
    factors = _sinc(u * hw)
    zt = abs(u) * 2.0 * spec.g.sup_abs * spec.a ** order
    tail_lb = 1.0 - zt * zt / (6.0 * (1.0 - spec.a ** 2))
    return SincFactors(half_widths=hw, factors=factors, product=float(np.prod(factors)),
                       tail_lower_bound=float(tail_lb))


@dataclass(frozen=True)
class DrawAverage:
    """Monte Carlo average of exp(i u (f(x) - f(y))) over coefficient draws."""

    mean_real: float
    std_error: float
    mean_imag: float
    n_draws: int


def char_function_mc(spec: FunctionSpec, x: float, y: float, u: float,
                     n_draws: int, seed: int, order: int) -> DrawAverage:
    """Average cos(u (f(x) - f(y))) over independent coefficient draws.

    The imaginary part averages to zero by the symmetry of the coefficient
    law; it is returned as a diagnostic rather than assumed away (a nonzero
    value beyond noise means an RNG or sign bug).  The draws are those of
    draw_average at the pair's increment half-widths.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    return draw_average(increment_half_widths(spec, x, y, order), u, n_draws, seed)


def draw_average(half_widths, u: float, n_draws: int, seed: int) -> DrawAverage:
    """Average exp(i u sum_n s_n h_n) over n_draws draws of independent s_n ~ U(-1, 1).

    half_widths is the 1-D array (h_0, ..., h_{order-1}) of one pair, as
    increment_half_widths gives it, so sum_n s_n h_n is f(x) - f(y) under
    the coefficient law.  The signs come from the (seed, "char_mc", chunk)
    substreams in chunks of 2^14 draws.
    """
    hw = np.asarray(half_widths, dtype=np.float64)
    if n_draws < 1000:
        raise ValueError(f"need >= 1000 draws, got {n_draws}")
    if hw.ndim != 1:
        raise ValueError(f"half_widths must be 1-D, got shape {hw.shape}")
    order = hw.size
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    cos_sum = 0.0
    cos_sq = 0.0
    sin_sum = 0.0
    done = 0
    chunk_idx = 0
    chunk = 1 << 14
    while done < n_draws:
        k = min(chunk, n_draws - done)
        gen = substream(seed, "char_mc", chunk_idx)
        signs = gen.random((k, order))
        signs *= 2.0   # in place: the bits of 2 u - 1 without two more (k, order) arrays
        signs -= 1.0
        df = signs @ hw
        c = np.cos(u * df)
        cos_sum += float(c.sum())
        cos_sq += float((c * c).sum())
        sin_sum += float(np.sin(u * df).sum())
        done += k
        chunk_idx += 1
    mean = cos_sum / n_draws
    var = max(cos_sq / n_draws - mean * mean, 0.0)
    return DrawAverage(
        mean_real=mean,
        std_error=math.sqrt(var / n_draws),
        mean_imag=sin_sum / n_draws,
        n_draws=n_draws,
    )


# ---------------------------------------------------------------------------
# pointwise product bound on doubly-oscillating pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProductBoundReport:
    """Pointwise check of |prod factors| <= 1/(eps^2 u^2 a^(n0+n1)) on pairs."""

    max_ratio: float
    n_checked: int
    n_invalid: int
    passed: bool


def pair_product_bound(spec: FunctionSpec, epsilon: float, u: float, pairs,
                       n0: int, n1: int, order: int | None = None) -> ProductBoundReport:
    """Verify the sinc-product bound on pairs drawn from both oscillation sets.

    ``pairs`` is an iterable of (x, y) with |g(b_i x) - g(b_i y)| >= epsilon
    for i in {n0, n1}; pairs violating that premise are counted as invalid
    and excluded.  An empty pair set passes vacuously.
    """
    if n0 == n1:
        raise ValueError("indices n0 and n1 must differ")
    if order is None:
        order = max(n0, n1) + 1
    if order <= max(n0, n1):
        raise ValueError("order must include both cited factors")
    bound = 1.0 / (epsilon ** 2 * u ** 2 * spec.a ** (n0 + n1))
    xy = np.asarray(list(pairs), dtype=np.float64).reshape(-1, 2)
    hw = increment_half_widths(spec, xy[:, 0], xy[:, 1], order)
    invalid = ((np.abs(hw[:, n0]) < epsilon * spec.a ** n0)
               | (np.abs(hw[:, n1]) < epsilon * spec.a ** n1))
    # each row of the C-contiguous (pairs, order) array multiplies in the 1-D order
    products = np.prod(_sinc(u * hw[~invalid]), axis=1)
    max_ratio = float(np.max(np.abs(products) / bound, initial=0.0))
    return ProductBoundReport(
        max_ratio=max_ratio,
        n_checked=len(products),
        n_invalid=int(np.count_nonzero(invalid)),
        passed=max_ratio <= 1.0 + 1e-12,
    )
