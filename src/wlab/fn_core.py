"""Random high-frequency trigonometric series: specs, coefficient draws, evaluation.

The object of study is f(x) = sum_n c_n g(b_n x + theta_n) with |c_n| <= a^n
drawn uniformly, frequencies growing at least geometrically, and g a smooth
periodic base function.  Everything here is a pure function of (spec, seed,
inputs).  Every float b_n, theta_n and x is dyadic, so one integer rule
reduces b_n x + theta_n modulo 1 for every spec: the phase is added exactly
and the result is rounded to float once, before g is evaluated.  A float
product would have no correct bits left past n ~ 50, since b_n grows
geometrically.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import math
import warnings
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .rng import substream

TWO_PI = 2.0 * math.pi

# Dense grid used to certify sup|g'| and related constants at import time.
_CONSTANT_GRID = (1 << 18) + 1


# ---------------------------------------------------------------------------
# base functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BaseFunction:
    """1-periodic carrier of every series term, with certified constants.

    ``lipschitz`` and ``sup_abs`` are bounds valid on the whole line:
    |g(x) - g(y)| <= lipschitz * |x - y| and |g(x)| <= sup_abs.
    """

    kind: str
    lipschitz: float
    sup_abs: float

    def sample(self, t):
        """Evaluate g at reduced arguments t in [0, 1], leaving t as it is.

        g is computed in place on one product array (scalar out for a 0-d
        t), with the bits of np.cos(TWO_PI * t) for cos and of
        np.cos(TWO_PI * t) + 0.5 * np.cos(2.0 * TWO_PI * t) for cos2.
        """
        t = np.asarray(t, dtype=np.float64)
        if self.kind not in ("cos", "cos2"):
            raise ValueError(f"unknown base function kind {self.kind!r}")
        out = np.multiply(TWO_PI, t, out=np.empty_like(t))
        np.cos(out, out=out)
        if self.kind == "cos2":
            c2 = np.multiply(2.0 * TWO_PI, t, out=np.empty_like(t))
            np.cos(c2, out=c2)
            c2 *= 0.5
            out += c2
        return out if out.ndim else out[()]


def _certified_sup(values: np.ndarray) -> float:
    # Grid max padded upward so the stored constant is a usable bound.
    return float(np.max(np.abs(values))) * (1.0 + 1e-6)


def _build_base_function(kind: str) -> BaseFunction:
    xs = np.linspace(0.0, 1.0, _CONSTANT_GRID)
    if kind == "cos":
        deriv = -TWO_PI * np.sin(TWO_PI * xs)
        sup_abs = 1.0
    elif kind == "cos2":
        deriv = -TWO_PI * np.sin(TWO_PI * xs) - TWO_PI * np.sin(2.0 * TWO_PI * xs)
        sup_abs = 1.5
    else:
        raise ValueError(f"unknown base function kind {kind!r}")
    return BaseFunction(kind=kind, lipschitz=_certified_sup(deriv), sup_abs=sup_abs)


COS = _build_base_function("cos")
COS_PLUS_HALF = _build_base_function("cos2")
BUILTIN_BASE_FUNCTIONS = {"cos": COS, "cos2": COS_PLUS_HALF}


def base_function(name: str) -> BaseFunction:
    try:
        return BUILTIN_BASE_FUNCTIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown base function {name!r}; available: {sorted(BUILTIN_BASE_FUNCTIONS)}"
        ) from None


# ---------------------------------------------------------------------------
# frequency sequences
# ---------------------------------------------------------------------------

def _finite(name: str, values) -> tuple:
    """values as a tuple of floats; ValueError naming the first inf or nan among them."""
    values = tuple(float(v) for v in values)
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    return values


@lru_cache(maxsize=None)
def _rational_power(b: float, n: int) -> Fraction:
    return Fraction(b) ** n


@dataclass(frozen=True)
class GeometricFrequencies:
    """b_n = b^n for a fixed ratio b > 1."""

    b: float

    def __post_init__(self):
        if not 1.0 < self.b < math.inf:
            raise ValueError(f"frequency ratio must be finite and exceed 1, got {self.b}")

    @property
    def is_integer(self) -> bool:
        return float(self.b).is_integer()

    @property
    def max_order(self):
        return None

    def value(self, n: int):
        """Exact b_n (int for integer b, Fraction otherwise)."""
        if self.is_integer:
            return int(self.b) ** n
        return _rational_power(self.b, n)


@dataclass(frozen=True)
class ExplicitFrequencies:
    """User-supplied b_0 = 1 < b_1 < ... with consecutive ratios >= b > 1."""

    b_seq: tuple
    b: float

    def __post_init__(self):
        seq = _finite("b_seq entries", self.b_seq)
        object.__setattr__(self, "b_seq", seq)
        if not 1.0 < self.b < math.inf:
            raise ValueError(f"ratio lower bound must be finite and exceed 1, got {self.b}")
        if not seq:
            raise ValueError("b_seq must be nonempty")
        if seq[0] != 1.0:
            raise ValueError(f"b_seq must start at 1, got {seq[0]}")
        for n in range(len(seq) - 1):
            if not seq[n + 1] >= self.b * seq[n]:
                raise ValueError(
                    f"b_seq ratio {seq[n + 1]}/{seq[n]} at index {n} below bound {self.b}"
                )

    @property
    def max_order(self) -> int:
        return len(self.b_seq)

    def value(self, n: int):
        """Exact b_n (int or Fraction); ValueError past the explicit frequencies."""
        if not 0 <= n < len(self.b_seq):
            raise ValueError(f"level {n} is past the {len(self.b_seq)} explicit frequencies")
        v = self.b_seq[n]
        return int(v) if v.is_integer() else Fraction(v)


def geometric(b: float) -> GeometricFrequencies:
    return GeometricFrequencies(b=float(b))


def explicit(b_seq, b: float) -> ExplicitFrequencies:
    return ExplicitFrequencies(b_seq=tuple(b_seq), b=float(b))


# ---------------------------------------------------------------------------
# function specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionSpec:
    """Deterministic skeleton of the random series (law of the coefficients excluded).

    Flags are recomputed from (a, frequencies, phases) on construction and are
    never user-settable.
    """

    a: float
    freq: GeometricFrequencies | ExplicitFrequencies
    phases: tuple = ()
    g: BaseFunction = COS
    ab_gt1: bool = field(init=False, default=False)
    a2b_gt1: bool = field(init=False, default=False)
    b_integer_theta_zero: bool = field(init=False, default=False)

    def __post_init__(self):
        if not 0.0 < self.a < 1.0:
            raise ValueError(f"amplitude base a must lie in (0, 1), got {self.a}")
        object.__setattr__(self, "phases", _finite("phases", self.phases))
        b = self.freq.b
        theta_zero = all(t == 0.0 for t in self.phases)
        object.__setattr__(self, "ab_gt1", self.a * b > 1.0)
        object.__setattr__(self, "a2b_gt1", self.a * self.a * b > 1.0)
        object.__setattr__(
            self,
            "b_integer_theta_zero",
            isinstance(self.freq, GeometricFrequencies) and self.freq.is_integer and theta_zero,
        )

    def phase(self, n: int) -> float:
        return self.phases[n] if n < len(self.phases) else 0.0

    def to_dict(self) -> dict:
        d = {
            "a": self.a,
            "b": self.freq.b,
            "g": self.g.kind,
            "phases": list(self.phases),
            "ab_gt1": self.ab_gt1,
            "a2b_gt1": self.a2b_gt1,
            "b_integer_theta_zero": self.b_integer_theta_zero,
        }
        if isinstance(self.freq, GeometricFrequencies):
            d["freq_mode"] = "geometric"
        else:
            d["freq_mode"] = "explicit"
            d["b_seq"] = list(self.freq.b_seq)
        return d


def build_spec(a: float, freq, phases=(), g: BaseFunction = COS) -> FunctionSpec:
    """Validate parameters and compute the hypothesis flags.

    a*b <= 1 is allowed (evaluation is still defined) but warned about, since
    the dimension and occupation statements need a*b > 1.
    """
    spec = FunctionSpec(a=float(a), freq=freq, phases=tuple(phases), g=g)
    if not spec.ab_gt1:
        warnings.warn(
            f"a*b = {spec.a * spec.freq.b:g} <= 1: evaluation is defined but the "
            "dimension/occupation hypotheses fail",
            UserWarning,
            stacklevel=2,
        )
    return spec


# ---------------------------------------------------------------------------
# coefficient draws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientDraw:
    """One realization of the random amplitudes, |values[n]| <= a^n.

    Coefficient n comes from its own (seed, n)-keyed stream, so any prefix is
    reproducible no matter how many terms were requested.
    """

    seed: int
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    @property
    def order(self) -> int:
        return len(self.values)


def draw_coefficients(spec: FunctionSpec, seed: int, order: int) -> CoefficientDraw:
    """Draw values[n] = a^n (2u_n - 1) with u_n from the (seed, n) substream."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    values = [
        (spec.a ** n) * (2.0 * substream(seed, "coeff", n).random() - 1.0)
        for n in range(order)
    ]
    return CoefficientDraw(seed=int(seed), values=tuple(values))


def zero_draw(order: int = 1) -> CoefficientDraw:
    """All-zero coefficients (f identically zero); handy as a null model."""
    return CoefficientDraw(seed=0, values=(0.0,) * order)


# ---------------------------------------------------------------------------
# truncation control
# ---------------------------------------------------------------------------

def truncation_order(spec: FunctionSpec, tol: float) -> int:
    """Number of terms K after which the worst-case tail is below tol.

    Keeping terms 0..K-1 leaves a tail bounded (over all draws, all x, and
    differences f(x) - f(y)) by 2 * sup|g| * a^K / (1 - a); the returned K is
    the smallest with that bound <= tol.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    worst = 2.0 * spec.g.sup_abs / (1.0 - spec.a)
    k = 0
    bound = worst
    while bound > tol:
        k += 1
        bound = worst * spec.a ** k
    return k


def default_tolerance(spec: FunctionSpec) -> float:
    # Far below any plotting or box resolution used here.
    return 1e-9 * spec.g.sup_abs / (1.0 - spec.a)


def effective_order(spec: FunctionSpec, tol: float | None = None) -> int:
    """Truncation order for tol (default: default_tolerance), capped at freq.max_order."""
    order = truncation_order(spec, default_tolerance(spec) if tol is None else tol)
    max_order = spec.freq.max_order
    return order if max_order is None else min(order, max_order)


def tail_bound(spec: FunctionSpec, order: int) -> float:
    """Guaranteed |f - f_truncated| bound after keeping ``order`` terms."""
    return spec.g.sup_abs * spec.a ** order / (1.0 - spec.a)


# ---------------------------------------------------------------------------
# exact argument reduction
# ---------------------------------------------------------------------------

_BITS = 63  # fraction bits of the uint64 lane
_MASK = (1 << _BITS) - 1


def _wide_lane(m, e, b_num: int, k: int, t_num: int, kt: int) -> np.ndarray:
    """The reduction rule on Python ints, with S = max(k - e, kt) fraction bits per point."""
    s = np.maximum(k - e.astype(np.int64), kt)
    num = m.astype(object) * b_num << (s - k + e).astype(object)
    num += t_num << (s - kt).astype(object)
    den = 1 << s.astype(object)
    return ((num % den) / den).astype(np.float64)  # int / int rounds once


def _ratios(spec: FunctionSpec, n: int) -> tuple:
    """b_n = B / 2^k and theta_n = t / 2^kt as ((B, k), (t, kt))."""
    b_num, b_den = spec.freq.value(n).as_integer_ratio()
    t_num, t_den = spec.phase(n).as_integer_ratio()
    return (b_num, b_den.bit_length() - 1), (t_num, t_den.bit_length() - 1)


def _clamp(v: np.ndarray, hi: int) -> np.ndarray:
    # np.clip's Python wrapper costs microseconds a call, on 2-point arrays too
    return np.minimum(np.maximum(v, 0), hi)


def reduced_arguments(spec: FunctionSpec, n: int, xs) -> np.ndarray:
    """((b_n x + theta_n) mod 1) for an array of x, exact for every finite x, rounded once.

    theta_n is the spec's phase for level n; the result lies in [0, 1), and
    is nan where x is nan or infinite, as g(x) is.  With b_n = B / 2^k,
    theta_n = T / 2^kt and x = M 2^e (every float is dyadic), the result is
    ((B X + T') mod 2^S) / 2^S for integers X and T' on S fraction bits,
    rounded once; a result that rounds to 1.0 is 0.0.  Points whose X fits
    S = 63 bits (e >= k - 63, kt <= 63) take a wrapping uint64 lane; the
    rest take the same rule on Python ints.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    bad = ~np.isfinite(xs)
    if bad.any():  # their mantissas have no int64 cast: reduce 0 there, then give nan
        xs = np.where(bad, 0.0, xs)
    (b_num, k), (t_num, kt) = _ratios(spec, n)
    m, e = np.frexp(xs)
    m = (m * 2.0 ** 53).astype(np.int64)  # x = m 2^e exactly, |m| < 2^53
    e -= 53
    if kt > _BITS:
        t = _wide_lane(m, e, b_num, k, t_num, kt)
    else:  # X = m 2^(e + 63 - k) mod 2^63, in place
        u = m.view(np.uint64) << _clamp(e + (_BITS - k), _BITS).astype(np.uint64)
        u *= np.uint64(b_num & _MASK)
        u += np.uint64((t_num << (_BITS - kt)) & _MASK)
        u &= np.uint64(_MASK)
        t = u * 2.0 ** -_BITS
        wide = e < k - _BITS
        if wide.any():
            t[wide] = _wide_lane(m[wide], e[wide], b_num, k, t_num, kt)
    t[t == 1.0] = 0.0
    t[bad] = np.nan
    return t


def _fraction_bits(xs: np.ndarray) -> float:
    """The most binary fraction digits of any x in xs: 0 for integers, +-0 and no x, inf with a nan or inf.

    So b_n x is an integer for every x in xs exactly when 2^fraction_bits divides b_n.
    """
    if not np.isfinite(xs).all():
        return math.inf
    if not xs.size:
        return 0
    m, e = np.frexp(xs)
    m *= 2.0 ** 53
    mant = m.astype(np.int64).view(np.uint64)   # x = mant 2^(e - 53)
    del m
    mant ^= mant - np.uint64(1)                 # trailing zeros + 1 low bits set; all 64 for x = 0
    return max(0, 54 - int((np.bitwise_count(mant) + e).min()))


def _lattice_digits(xs: np.ndarray, bits: int, width: int) -> np.ndarray:
    """X = x 2^bits mod 2^width as int64 for each x of xs, where no x has more than bits fraction digits.

    width is at most 63.  Exact for every finite x: x 2^bits = d 2^e with d
    the integer mantissa, and d's low zero bits cover a right shift, so the
    arithmetic shift of a negative d is exact too; a left shift by width or
    more leaves 0.
    """
    m, e = np.frexp(xs)
    m *= 2.0 ** 53
    d = m.astype(np.int64)
    del m
    e += bits - 53
    d >>= _clamp(-e, 63)
    mask = np.uint64((1 << width) - 1)
    u = d.view(np.uint64)       # two's complement: the residue of a negative d too
    u &= mask
    u <<= _clamp(e, width).view(np.uintc)   # frexp's exponents are C ints
    u &= mask
    return d


def _lattice_step(b_ratio: tuple, t_ratio: tuple, bits, width: int) -> tuple | None:
    """(F, T) with (b_n x + theta_n) mod 1 = ((X F + T) mod 2^width) / 2^width, or None.

    b_n = B / 2^k and theta_n = t / 2^kt are given as (B, k) and (t, kt),
    and X = x 2^bits mod 2^width (see _lattice_digits) for an x with at
    most bits fraction digits.  The reduced arguments of such x lie on the
    lattice 2^-max(bits - v2(b_n), kt); where that lattice divides
    2^-width, F and T are integers, and None is returned where it does not.
    At bits = width = 63 that is every integer b_n with kt <= 63, and
    (F, T) = (B, t 2^(63 - kt)) mod 2^63 are the factor and offset of the
    uint64 lane of reduced_arguments.
    """
    (b_num, k), (t_num, kt) = b_ratio, t_ratio
    v2 = (b_num & -b_num).bit_length() - 1 - k
    if bits - v2 > width or kt > width:
        return None
    shift = width - bits - k         # F = B 2^shift, an integer since bits - v2 <= width
    factor = b_num << shift if shift >= 0 else b_num >> -shift
    mask = (1 << width) - 1
    return factor & mask, (t_num << (width - kt)) & mask


@lru_cache(maxsize=None)
def _g_table(g: BaseFunction, size: int) -> np.ndarray:
    """g at i / size for i < size: g on every lattice level of _evaluate_rows (256 KiB at 2^15).

    Read-only, since every worker thread of every later call shares it.
    """
    table = g.sample(np.arange(size) * (1.0 / size))
    table.flags.writeable = False
    return table


def _lattice_g(g: BaseFunction, digits: np.ndarray, step: tuple) -> np.ndarray:
    """g(b_n x + theta_n) on a lattice level: a lookup, with the bits of g at the reduced argument."""
    factor, offset = step
    idx = digits * factor
    idx += offset
    idx &= _BLOCK - 1
    return _g_table(g, _BLOCK)[idx]


def _lane_arguments(digits: np.ndarray, step: tuple) -> np.ndarray:
    """reduced_arguments on a lane level, from X = x 2^63 mod 2^63 and step = (B, T).

    The uint64 lane rule itself: ((X B + T) mod 2^63) 2^-63, rounded once,
    with a result of 1.0 set to 0.0, so the bits are those of the reduction.
    """
    factor, offset = step
    u = digits.view(np.uint64) * np.uint64(factor)
    u += np.uint64(offset)
    u &= np.uint64(_MASK)
    t = u * 2.0 ** -_BITS
    t[t == 1.0] = 0.0
    return t


@lru_cache(maxsize=1 << 12)
def _level_steps(spec: FunctionSpec, n: int) -> tuple:
    """(v2, b_ratio, t_ratio, lane) of level n, worked out once per (spec, n).

    b_ratio and t_ratio are _ratios(spec, n), v2 is the 2-adic valuation of
    b_n, and lane is the level's 63-bit _lattice_step (None where it has no
    lane).  They depend on the level alone, where the calls that use them
    (a two-point reduced_levels call, say) can be many and small.
    """
    b_ratio, t_ratio = _ratios(spec, n)
    b_num, k = b_ratio
    v2 = (b_num & -b_num).bit_length() - 1 - k
    return v2, b_ratio, t_ratio, _lattice_step(b_ratio, t_ratio, _BITS, _BITS)


def reduced_levels(spec: FunctionSpec, xs: np.ndarray, order: int) -> Iterator[np.ndarray]:
    """reduced_arguments(spec, n, xs) for n = 0, 1, ..., order - 1, with the same bits.

    Where no x of the flat array xs has over 63 fraction digits, x is split
    once, and each level with an integer b_n and theta_n = t / 2^kt,
    kt <= 63, takes the lane rule (_lane_arguments); every other level is
    one reduced_arguments call.
    """
    digits = _lattice_digits(xs, _BITS, _BITS) if _fraction_bits(xs) <= _BITS else None
    for n in range(order):
        step = None if digits is None else _level_steps(spec, n)[3]
        yield reduced_arguments(spec, n, xs) if step is None else _lane_arguments(digits, step)


# ---------------------------------------------------------------------------
# evaluation and sampling
# ---------------------------------------------------------------------------

_WORKER_THREADS = contextvars.ContextVar("wlab_worker_threads", default=1)
_MIN_CHUNK = 1 << 14   # fewest points worth a thread of their own
_BLOCK = 1 << 15       # most points one level pass of the shared kernel touches
_GROUP_DOUBLES = 1 << 22   # most output doubles (rows x points) sample_graphs keeps alive


@contextlib.contextmanager
def worker_threads(n: int):
    """Let evaluate_many and sample_graphs use up to n threads inside this context (default 1).

    The setting is a context variable, so it is restored on exit and does not
    leak into later calls or other threads.
    """
    if n < 1:
        raise ValueError(f"worker thread count must be >= 1, got {n}")
    token = _WORKER_THREADS.set(int(n))
    try:
        yield
    finally:
        _WORKER_THREADS.reset(token)


def _evaluate_rows(spec: FunctionSpec, draws, xs: np.ndarray, order: int) -> list:
    """Per draw, the partial sum over n < order of values[n] * g(b_n x + theta_n) at each x.

    xs is flat, and each draw gets its own row of xs.size doubles.

    The kernel behind evaluate_many and sample_graphs.  The points are cut
    into one contiguous chunk per worker thread (see worker_threads), with
    fewer threads when a chunk would hold under 2^14 points; a single chunk
    runs on the calling thread.  Each chunk is walked in blocks of at most
    2^15 points.  Per block and level, g(b_n x + theta_n) is found once for
    every draw whose coefficient is nonzero, and each such draw adds
    values[n] * g into its slice of its row, in order n = 0, 1, ...  With p
    the block's most binary fraction digits, a level is the first of four
    kinds that applies:

    - constant, where 2^p divides b_n, so b_n x is an integer at every x
      of the block (as for even b from some n on): g at the reduced phase,
      computed once per call, and each draw adds one product to its slice;
    - lattice, where every reduced argument is i / 2^15 for an integer i
      (max(p - v2(b_n), kt) <= 15 for theta_n = t / 2^kt): i comes from
      x 2^p mod 2^15, split once per block, and g is looked up in a table
      of g at i / 2^15, built once per base function;
    - lane, where p <= 63, b_n is an integer and kt <= 63: the reduced
      argument is the uint64 lane rule of reduced_arguments on
      x 2^63 mod 2^63, split once per block, and g is one g.sample;
    - general: one reduced_arguments call on the block and one g.sample.

    The lookup gives the bits of g.sample(reduced_arguments(...)), since
    the reduced argument is exactly i / 2^15 and g is elementwise, and the
    lane computes the reduction's own integers.  So every point of every
    draw sums the same products in the same order, and each row has the
    same bits for any thread count, block size and number of draws.  At
    most one block of split digits is alive at a time.  Draws with no
    nonzero coefficient walk no block.
    """
    if not draws:
        raise ValueError("need at least one draw")
    for draw in draws:
        if order > draw.order:
            raise ValueError(f"order {order} exceeds draw.order {draw.order}: "
                             "the draw has too few coefficients")
    max_order = spec.freq.max_order
    if max_order is not None and order > max_order:
        raise ValueError(f"order {order} exceeds the {max_order} explicit frequencies")
    rows = [np.zeros(xs.size) for _ in draws]
    levels = []
    for n in range(order):
        terms = [(row, d.values[n]) for row, d in zip(rows, draws) if d.values[n] != 0.0]
        if terms:   # a level no draw adds to is not reduced
            levels.append((n, *_level_steps(spec, n), terms))
    if not levels:
        return rows
    g_phase = {}

    def constant(n: int) -> float:
        # g(b_n x + theta_n) where b_n x is an integer: g at the reduced phase
        if n not in g_phase:
            g_phase[n] = spec.g.sample(reduced_arguments(spec, n, np.zeros(1)))[0]
        return g_phase[n]

    def run(lo: int, hi: int) -> None:
        tmp = np.empty(min(_BLOCK, hi - lo))
        size = _BLOCK.bit_length() - 1
        for start in range(lo, hi, _BLOCK):
            stop = min(start + _BLOCK, hi)
            block, prod = xs[start:stop], tmp[:stop - start]
            bits = _fraction_bits(block)
            width, digits = None, None   # x 2^bits mod 2^width, split at need
            for n, v2, b_ratio, t_ratio, lane, terms in levels:
                if v2 >= bits:   # b_n x is an integer at every x of the block
                    s = constant(n)
                    for row, c in terms:
                        row[start:stop] += c * s
                    continue
                step = _lattice_step(b_ratio, t_ratio, bits, size)
                if step is not None:
                    if width != size:
                        digits = None   # drop a lane split before this one is made
                        width, digits = size, _lattice_digits(block, bits, size)
                    s = _lattice_g(spec.g, digits, step)
                elif lane is not None and bits <= _BITS:
                    if width != _BITS:
                        digits = None
                        width, digits = _BITS, _lattice_digits(block, _BITS, _BITS)
                    s = spec.g.sample(_lane_arguments(digits, lane))
                else:
                    width, digits = None, None   # no split lives through a general reduction
                    s = spec.g.sample(reduced_arguments(spec, n, block))
                for row, c in terms:
                    np.multiply(s, c, out=prod)
                    row[start:stop] += prod

    workers = min(_WORKER_THREADS.get(), xs.size // _MIN_CHUNK)
    if workers <= 1:
        run(0, xs.size)
    else:
        bounds = [i * xs.size // workers for i in range(workers + 1)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, bounds[:-1], bounds[1:]))
    return rows


def evaluate_many(spec: FunctionSpec, draw: CoefficientDraw, xs, order: int) -> np.ndarray:
    """Partial sum over n < order of values[n] * g(b_n x + theta_n) at each x.

    The one-draw call of the shared level kernel: the result has the same
    bits for any thread count (see worker_threads) and the shape of
    np.atleast_1d(xs).
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    return _evaluate_rows(spec, [draw], xs.ravel(), order)[0].reshape(xs.shape)


@dataclass(frozen=True)
class GraphSample:
    """Dense sampling of (x, f(x)) on [0, 1] with truncation metadata."""

    xs: np.ndarray
    ys: np.ndarray
    truncation_order: int
    tail_bound: float

    def __post_init__(self):
        object.__setattr__(self, "xs", np.asarray(self.xs, dtype=np.float64))
        object.__setattr__(self, "ys", np.asarray(self.ys, dtype=np.float64))
        if self.xs.shape != self.ys.shape:
            raise ValueError("xs and ys must have equal length")
        if len(self.xs) >= 2 and not np.all(np.diff(self.xs) > 0):
            raise ValueError("xs must be strictly increasing")

    def __len__(self) -> int:
        return len(self.xs)

    def write_csv(self, path) -> None:
        write_rows(path, ("x", "y"), zip(self.xs, self.ys))

    def to_json_dict(self, spec: FunctionSpec, seed: int) -> dict:
        return {
            "truncation_order": self.truncation_order,
            "tail_bound": self.tail_bound,
            "points": len(self.xs),
            "xs": self.xs.tolist(),
            "ys": self.ys.tolist(),
            "spec": spec.to_dict(),
            "seed": seed,
        }


def sample_graphs(spec: FunctionSpec, draws, m: int,
                  tol: float | None = None) -> Iterator[GraphSample]:
    """Yield f of each draw sampled on one uniform m-point grid over [0, 1], in draw order.

    The draws may be any iterable.  They are pulled a group at a time, at
    most 2^22 doubles of rows and at least one draw per group, and each group
    is sampled in one level pass, so a caller that consumes each sample
    before asking for the next keeps about one group's rows alive, whatever
    the number of draws.  The samples share one xs array, and each sample's
    ys has the bits that sample_graph gives for its draw alone.
    """
    if m < 2:
        raise ValueError(f"need at least 2 sample points, got {m}")
    order = effective_order(spec, tol)
    xs = np.linspace(0.0, 1.0, m)
    bound = tail_bound(spec, order)
    draws = iter(draws)
    per = max(1, _GROUP_DOUBLES // m)
    group = list(itertools.islice(draws, per))   # empty only without draws, which the kernel rejects
    while True:
        yield from (GraphSample(xs=xs, ys=ys, truncation_order=order, tail_bound=bound)
                    for ys in _evaluate_rows(spec, group, xs, order))
        group = list(itertools.islice(draws, per))
        if not group:
            return


def sample_graph(spec: FunctionSpec, draw: CoefficientDraw, m: int,
                 tol: float | None = None) -> GraphSample:
    """Sample f on the uniform m-point grid over [0, 1]."""
    return next(sample_graphs(spec, [draw], m, tol))


def dimension_formula(spec: FunctionSpec) -> float:
    """Predicted graph dimension 2 + log a / log b (meaningful when a*b > 1)."""
    if not spec.ab_gt1:
        warnings.warn(
            "a*b <= 1: the dimension formula is outside its hypotheses",
            UserWarning,
            stacklevel=2,
        )
    return 2.0 + math.log(spec.a) / math.log(spec.freq.b)


# ---------------------------------------------------------------------------
# shared output and fitting helpers
# ---------------------------------------------------------------------------

def write_rows(path, header, rows) -> None:
    """CSV with a header row and \n line endings; floats in shortest round-trip form.

    Floats (numpy's included) are written as repr(float(v)), everything else
    as str(v), so ints carry no ".0" and strings go out verbatim.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
                              for v in row) + "\n")


def fit_line(x, y):
    """Least-squares line y ~ slope * x + intercept of two arrays: (slope, intercept, r2)."""
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2
