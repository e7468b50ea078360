"""Random high-frequency trigonometric series: specs, coefficient draws, evaluation.

The object of study is f(x) = sum_n c_n g(b_n x + theta_n) with |c_n| <= a^n
drawn uniformly, frequencies with ratios b_(n+1) / b_n >= b > 1, and g a smooth
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
import sys
import warnings
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .rng import first_doubles

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# base functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BaseFunction:
    """1-periodic carrier of every series term: g(t) = sum_k alpha_k cos(2 pi k t).

    terms is ((k, alpha_k), ...) with k strictly increasing positive ints
    and alpha_k finite and nonzero; kind is the name to_dict writes.
    sup_abs, derived from the terms, is sum_k |alpha_k| exactly, rounded up
    to a float, so |g(x)| <= sup_abs on the whole line.
    """

    kind: str
    terms: tuple
    sup_abs: float = field(init=False)

    def __post_init__(self):
        terms = tuple((k, float(alpha)) for k, alpha in self.terms)
        if not terms:
            raise ValueError("a base function needs at least one term")
        last = 0
        for k, alpha in terms:
            if not (isinstance(k, int) and k > last):
                raise ValueError(f"frequencies k must be strictly increasing positive ints, got {k!r}")
            if not (math.isfinite(alpha) and alpha != 0.0):
                raise ValueError(f"coefficient of k = {k} must be finite and nonzero, got {alpha}")
            last = k
        total = sum(Fraction(abs(alpha)) for _, alpha in terms)
        if total > Fraction(sys.float_info.max):
            raise ValueError("sum of |coefficients| exceeds the largest float")
        sup = float(total)
        if sup < total:   # float() rounds to nearest; the bound must not be below the sum
            sup = math.nextafter(sup, math.inf)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "sup_abs", sup)

    def sample(self, t):
        """Evaluate g at reduced arguments t in [0, 1], leaving t as it is.

        The terms alpha_k cos((k 2 pi) t) are summed in place in k order
        (scalar out for a 0-d t): the first is built in the output array,
        each later one in one shared buffer, and the multiply is skipped
        where alpha_k = 1.
        """
        t = np.asarray(t, dtype=np.float64)
        (k, alpha), *rest = self.terms
        out = _cos_term(k, alpha, t, np.empty_like(t))
        if rest:
            buf = np.empty_like(t)
            for k, alpha in rest:
                out += _cos_term(k, alpha, t, buf)
        return out if out.ndim else out[()]


def _cos_term(k: int, alpha: float, t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """alpha cos((k 2 pi) t) written into out."""
    np.multiply(k * TWO_PI, t, out=out)
    np.cos(out, out=out)
    if alpha != 1.0:
        out *= alpha
    return out


COS = BaseFunction("cos", ((1, 1.0),))
COS_PLUS_HALF = BaseFunction("cos2", ((1, 1.0), (2, 0.5)))
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
class Frequencies:
    """b_n = b^n for an empty b_seq, else b_n = b_seq[n] for n < len(b_seq), as floats.

    A b_seq starts at 1 with ratios b_(n+1) / b_n >= b > 1, so b is its
    ratio floor; for b^n it is also the ratio limit the dimension theorem
    needs.  max_order, the number of b_n, is len(b_seq), or inf for b^n.
    """

    b: float
    b_seq: tuple = ()

    def __post_init__(self):
        b, seq = float(self.b), _finite("b_seq entries", self.b_seq)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "b_seq", seq)
        if not 1.0 < b < math.inf:
            raise ValueError(f"frequency ratio must be finite and exceed 1, got {b}")
        if seq and seq[0] != 1.0:
            raise ValueError(f"b_seq must start at 1, got {seq[0]}")
        for n in range(len(seq) - 1):
            if not seq[n + 1] >= b * seq[n]:
                raise ValueError(f"b_seq ratio {seq[n + 1]}/{seq[n]} at index {n} below bound {b}")

    @property
    def max_order(self) -> int | float:
        return len(self.b_seq) if self.b_seq else math.inf

    def value(self, n: int):
        """Exact b_n (int or Fraction); ValueError past the explicit frequencies."""
        if not self.b_seq:
            return int(self.b) ** n if self.b.is_integer() else _rational_power(self.b, n)
        if not 0 <= n < len(self.b_seq):
            raise ValueError(f"level {n} is past the {len(self.b_seq)} explicit frequencies")
        v = self.b_seq[n]
        return int(v) if v.is_integer() else Fraction(v)


def geometric(b: float) -> Frequencies:
    """b_n = b^n."""
    return Frequencies(b)


def explicit(b_seq, b: float) -> Frequencies:
    """b_n = b_seq[n], with ratios at least b; a ValueError for an empty b_seq."""
    b_seq = tuple(b_seq)
    if not b_seq:
        raise ValueError("b_seq must be nonempty")
    return Frequencies(b, b_seq)


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
    freq: Frequencies
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
        object.__setattr__(self, "b_integer_theta_zero",
                           not self.freq.b_seq and b.is_integer() and theta_zero)

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
        if self.freq.b_seq:
            d["freq_mode"] = "explicit"
            d["b_seq"] = list(self.freq.b_seq)
        else:
            d["freq_mode"] = "geometric"
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
    """Draw values[n] = a^n (2u_n - 1) with u_n the first double of the (seed, "coeff", n) substream."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if order > spec.freq.max_order:
        raise ValueError(f"order {order} exceeds the {spec.freq.max_order} explicit frequencies")
    values = [
        (spec.a ** n) * (2.0 * u - 1.0)
        for n, u in enumerate(first_doubles(seed, "coeff", order))
    ]
    return CoefficientDraw(seed=int(seed), values=tuple(values))


def zero_draw(order: int = 1) -> CoefficientDraw:
    """All-zero coefficients (f identically zero); handy as a null model."""
    return CoefficientDraw(seed=0, values=(0.0,) * order)


# ---------------------------------------------------------------------------
# truncation control
# ---------------------------------------------------------------------------

def effective_order(spec: FunctionSpec, tol: float | None = None) -> int:
    """The order rule: the fewest terms K whose tail bound 2 sup|g| a^K / (1 - a) is <= tol.

    The bound holds over all draws, all x and differences f(x) - f(y); tol
    defaults to 1e-9 sup|g| / (1 - a), far below any plotting or box
    resolution used here, and K stops at freq.max_order.  A draw of K
    coefficients carries the order: every sample of it sums all K terms.
    """
    if tol is None:
        tol = 1e-9 * spec.g.sup_abs / (1.0 - spec.a)
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    a, cap = spec.a, spec.freq.max_order
    worst = 2.0 * spec.g.sup_abs / (1.0 - a)

    def above(k):   # the tail bound after k terms is still above tol
        return worst * a ** k > tol

    # from logarithms, then settled by that float comparison, with no step
    # per term of an a near 1
    k = int(min(max(0.0, (math.log(tol) - math.log(worst)) / math.log(a)), cap))
    while k > 0 and not above(k - 1):
        k -= 1
    while k < cap and above(k):
        k += 1
    return k


def tail_bound(spec: FunctionSpec, order: int) -> float:
    """Guaranteed |f - f_truncated| bound after keeping ``order`` terms."""
    return spec.g.sup_abs * spec.a ** order / (1.0 - spec.a)


# ---------------------------------------------------------------------------
# exact argument reduction
# ---------------------------------------------------------------------------

_BITS = 63  # fraction bits of the uint64 lane
_MASK = (1 << _BITS) - 1
_TABLE_BITS = 17   # the table levels' lattice 2^-17, and the 2^17 entries of their g table


def _wide_lane(m, e, b_num: int, k: int, t_num: int, kt: int) -> np.ndarray:
    """The reduction rule on Python ints, with S = max(k - e, kt) fraction bits per point; 1.0 gives 0.0."""
    s = np.maximum(k - e.astype(np.int64), kt)
    num = m.astype(object) * b_num << (s - k + e).astype(object)
    num += t_num << (s - kt).astype(object)
    den = 1 << s.astype(object)
    t = ((num % den) / den).astype(np.float64)  # int / int rounds once
    t[t == 1.0] = 0.0
    return t


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
    S = 63 bits (e >= k - 63, kt <= 63) take the uint64 lane (_lane_arguments); the
    rest take the same rule on Python ints.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    bad = ~np.isfinite(xs)
    if bad.any():  # their mantissas have no int64 cast: reduce 0 there, then give nan
        xs = np.where(bad, 0.0, xs)
    ratios = _ratios(spec, n)
    (b_num, k), (t_num, kt) = ratios
    m, e = np.frexp(xs)
    m = (m * 2.0 ** 53).astype(np.int64)  # x = m 2^e exactly, |m| < 2^53
    e -= 53
    if kt > _BITS:
        t = _wide_lane(m, e, b_num, k, t_num, kt)
    else:   # the lane on X = m 2^(e + 63 - k) = x 2^(63 - k); its step exists for every b_n
        digits = m.view(np.uint64) << _clamp(e + (_BITS - k), _BITS).astype(np.uint64)
        t = _lane_arguments(digits, _lattice_step(*ratios, _BITS - k))
        # per point: 63 points of linspace(0, 1, 2^17)'s first block are wide, and the int
        # rule on the whole block made sample_graph 0.11 -> 0.71 s at b = 3 (2-vCPU Xeon)
        wide = e < k - _BITS
        if wide.any():
            t[wide] = _wide_lane(m[wide], e[wide], b_num, k, t_num, kt)
    t[bad] = np.nan
    return t


def _block_digits(xs: np.ndarray) -> tuple:
    """(p, X): the most binary fraction digits p of any x in xs, and X = x 2^p mod 2^63 as int64.

    p is 0 for integers, +-0 and no x, so b_n x is an integer for every x
    in xs exactly when 2^p divides b_n; with a nan or inf it is inf, and X
    is None.  One split of each x: x 2^p = d 2^e with d the integer
    mantissa, whose low zero bits give p and cover a right shift, so the
    arithmetic shift of a negative d is exact too; a left shift by 63 or
    more leaves 0.
    """
    if not np.isfinite(xs).all():
        return math.inf, None
    m, e = np.frexp(xs)
    m *= 2.0 ** 53
    d = m.astype(np.int64)      # x = d 2^(e - 53)
    del m
    u = d.view(np.uint64)       # two's complement: the residue of a negative d too
    low = u ^ (u - np.uint64(1))   # trailing zeros + 1 low bits set; all 64 for x = 0
    p = max(0, 54 - int((np.bitwise_count(low) + e).min())) if xs.size else 0
    e += p - 53
    d >>= _clamp(-e, 63)
    u <<= _clamp(e, _BITS).view(np.uintc)   # frexp's exponents are C ints
    u &= np.uint64(_MASK)
    return p, d


def _lattice_step(b_ratio: tuple, t_ratio: tuple, bits) -> tuple:
    """(F, T) with (b_n x + theta_n) mod 1 = ((X F + T) mod 2^63) / 2^63.

    b_n = B / 2^k and theta_n = t / 2^kt are given as (B, k) and (t, kt),
    and X = x 2^bits mod 2^63 for an x with at most bits fraction digits.
    F and T are integers where max(bits - v2(b_n), kt) <= 63, as the
    callers ensure: the table and lane levels of _level_pass, and the
    uint64 lane of reduced_arguments at bits = 63 - k and kt <= 63.
    """
    (b_num, k), (t_num, kt) = b_ratio, t_ratio
    shift = _BITS - bits - k         # F = B 2^shift, an integer since bits - v2(b_n) <= 63
    factor = b_num << shift if shift >= 0 else b_num >> -shift
    return factor & _MASK, (t_num << (_BITS - kt)) & _MASK


@lru_cache(maxsize=None)
def _g_table(g: BaseFunction) -> np.ndarray:
    """g at i / 2^17 for i < 2^17: g on every table level of _level_pass (1 MiB).

    Built on first use from a float arange scaled in place (i / 2^17 is
    exact), and read-only, since every worker thread of every later call
    shares it.
    """
    t = np.arange(1 << _TABLE_BITS, dtype=np.float64)
    t *= 2.0 ** -_TABLE_BITS
    table = g.sample(t)
    table.flags.writeable = False
    return table


def _lane_integer(digits: np.ndarray, step: tuple) -> np.ndarray:
    """The lane's integer u = (X F + T) mod 2^63 (uint64): u 2^-63 is the exact reduced argument."""
    factor, offset = step
    u = digits.view(np.uint64) * np.uint64(factor)
    u += np.uint64(offset)
    u &= np.uint64(_MASK)
    return u


def _lattice_g(g: BaseFunction, digits: np.ndarray, step: tuple) -> np.ndarray:
    """g(b_n x + theta_n) on a table level, where u = i 2^46: g at i / 2^17, looked up with its bits."""
    u = _lane_integer(digits, step)
    u >>= np.uint64(_BITS - _TABLE_BITS)
    return _g_table(g)[u.view(np.int64)]   # numpy indexes with int64 faster than with uint64


def _lane_arguments(digits: np.ndarray, step: tuple) -> np.ndarray:
    """reduced_arguments on a lane level: u 2^-63, rounded once, with a result of 1.0 set to 0.0."""
    t = _lane_integer(digits, step) * 2.0 ** -_BITS
    t[t == 1.0] = 0.0
    return t


# ---------------------------------------------------------------------------
# evaluation and sampling
# ---------------------------------------------------------------------------

_WORKER_THREADS = contextvars.ContextVar("wlab_worker_threads", default=1)
_MIN_CHUNK = 1 << 14   # fewest points worth a thread of their own
_BLOCK = 1 << 15       # most points one block of the level pass holds; even, so it holds whole pairs
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


@lru_cache(maxsize=1 << 12)
def _level_steps(spec: FunctionSpec, n: int, bits) -> tuple:
    """(kind, step) of level n on a block of x with at most bits fraction digits.

    With e = bits - v2(b_n), the fraction digits of b_n x, and
    L = max(e, kt) for theta_n = t / 2^kt, the reduced arguments lie on
    2^-L, and the kind (see _level_pass) is constant where e <= 0, table
    where L <= 17, lane where L <= 63 and general otherwise.  step is g at
    the reduced phase on a constant level, the level's _lattice_step on a
    table or lane level, and None on a general one.  Worked out once per
    (spec, n, bits), since the calls that use it (C8's two-point
    increment_half_widths calls, say) can be many and small.
    """
    b_ratio, t_ratio = _ratios(spec, n)
    (b_num, k), (_, kt) = b_ratio, t_ratio
    e = bits - ((b_num & -b_num).bit_length() - 1 - k)
    lattice = max(e, kt)
    if e <= 0:   # b_n x is an integer
        return "constant", spec.g.sample(reduced_arguments(spec, n, np.zeros(1)))[0]
    if lattice > _BITS:
        return "general", None
    return "table" if lattice <= _TABLE_BITS else "lane", _lattice_step(b_ratio, t_ratio, bits)


def _level_pass(spec: FunctionSpec, xs: np.ndarray, levels: list, consume) -> None:
    """Call consume(start, stop, n, s) with s = g(b_n x + theta_n) at the x of xs[start:stop].

    xs is flat and levels an increasing list of level indices.  The points
    are cut into one contiguous chunk per worker thread (see
    worker_threads), with fewer threads when a chunk would hold under 2^14
    points; a single chunk runs on the calling thread.  Chunk bounds are
    even, and each chunk is walked in blocks of at most 2^15 points, so a
    block holds whole pairs (xs[2i], xs[2i + 1]).  Per block, consume is
    called for each level of levels in order; s is a fresh array, or one
    float where the level is constant on the block.  With p the block's
    most binary fraction digits and X = x 2^p mod 2^63, both from one
    split of the block (_block_digits), a level is the first of four kinds
    that applies:

    - constant, where 2^p divides b_n, so b_n x is an integer at every x
      of the block (as for even b from some n on): s is g at the reduced
      phase, computed once per (spec, n, p);
    - table, where every reduced argument is i / 2^17 for an integer i
      (max(p - v2(b_n), kt) <= 17 for theta_n = t / 2^kt): i is the top
      17 bits of the lane's integer (_lane_integer), and g is looked up in
      a table of g at i / 2^17, built once per base function (every level
      of the grid j / 2^17 for odd integer b and zero phases, levels 36-52
      of random doubles for b = 2);
    - lane, where every reduced argument lies on 2^-63
      (max(p - v2(b_n), kt) <= 63): the uint64 lane rule of
      reduced_arguments on X (_lane_arguments), and one g.sample;
    - general: one reduced_arguments call on the block and one g.sample.

    The lookup gives the bits of g.sample(reduced_arguments(...)), since
    the reduced argument is exactly i / 2^17 and g is elementwise, and the
    lane computes the exact reduced argument and rounds it once.  So s has
    the same bits for any thread count and block size.
    """
    if not levels:
        return

    def run(lo: int, hi: int) -> None:
        for start in range(lo, hi, _BLOCK):
            stop = min(start + _BLOCK, hi)
            block = xs[start:stop]
            bits, digits = _block_digits(block)
            for n in levels:
                kind, step = _level_steps(spec, n, bits)
                if kind == "constant":
                    s = step
                elif kind == "table":
                    s = _lattice_g(spec.g, digits, step)
                elif kind == "lane":
                    s = spec.g.sample(_lane_arguments(digits, step))
                else:
                    s = spec.g.sample(reduced_arguments(spec, n, block))
                consume(start, stop, n, s)

    workers = min(_WORKER_THREADS.get(), xs.size // _MIN_CHUNK)
    if workers <= 1:
        run(0, xs.size)
    else:
        bounds = [i * xs.size // workers & ~1 for i in range(workers)] + [xs.size]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, bounds[:-1], bounds[1:]))


def _evaluate_rows(spec: FunctionSpec, coefficient_rows, xs: np.ndarray) -> list:
    """Per row of coefficients c, the partial sum over n < len(c) of c[n] * g(b_n x + theta_n) at each x.

    xs is flat, and each row c, of any length, gets its own output of
    xs.size doubles.  The kernel behind evaluate_many and sample_graphs:
    one _level_pass, in which each row adds c[n] * g into its output where
    c[n] != 0, so each output has the same bits for any thread count, block
    size and number of rows.  A level no row adds to is not reduced.
    """
    if not coefficient_rows:
        raise ValueError("need at least one draw")
    rows = [np.zeros(xs.size) for _ in coefficient_rows]
    terms = {n: [(row, c[n]) for row, c in zip(rows, coefficient_rows) if n < len(c) and c[n] != 0.0]
             for n in range(max(map(len, coefficient_rows)))}

    def add(start: int, stop: int, n: int, s) -> None:
        for row, c in terms[n]:
            row[start:stop] += c * s

    _level_pass(spec, xs, [n for n, level in terms.items() if level], add)
    return rows


def evaluate_many(spec: FunctionSpec, draw: CoefficientDraw, xs, order: int) -> np.ndarray:
    """Partial sum over n < order of values[n] * g(b_n x + theta_n) at each x.

    The one-draw call of the shared level kernel: the result has the same
    bits for any thread count (see worker_threads) and the shape of
    np.atleast_1d(xs).
    """
    if not 0 <= order <= draw.order:
        raise ValueError(f"order {order} must lie in [0, draw.order {draw.order}]")
    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    return _evaluate_rows(spec, [draw.values[:order]], xs.ravel())[0].reshape(xs.shape)


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


def sample_graphs(spec: FunctionSpec, draws, m: int) -> Iterator[GraphSample]:
    """Yield f of each draw sampled on one uniform m-point grid over [0, 1], in draw order.

    Each sample sums all draw.order terms of its draw and reports that order
    and its tail_bound, so draws of effective_order(spec, tol) terms give
    tol.  The draws may be any iterable.  They are pulled a group at a time,
    at most 2^22 doubles of rows and at least one draw per group, and each
    group is sampled in one level pass, so a caller that consumes each
    sample before asking for the next keeps about one group's rows alive,
    whatever the number of draws.  The samples share one xs array, and each
    sample's ys has the bits that sample_graph gives for its draw alone.
    """
    if m < 2:
        raise ValueError(f"need at least 2 sample points, got {m}")
    xs = np.linspace(0.0, 1.0, m)
    draws = iter(draws)
    per = max(1, _GROUP_DOUBLES // m)
    group = list(itertools.islice(draws, per))   # empty only without draws, which the kernel rejects
    while True:
        # the rows list lives only in this generator expression: it dies before the next group runs
        yield from (GraphSample(xs=xs, ys=ys, truncation_order=d.order,
                                tail_bound=tail_bound(spec, d.order))
                    for d, ys in zip(group, _evaluate_rows(spec, [d.values for d in group], xs)))
        group = list(itertools.islice(draws, per))
        if not group:
            return


def sample_graph(spec: FunctionSpec, draw: CoefficientDraw, m: int) -> GraphSample:
    """Sample f, summed over all draw.order terms, on the uniform m-point grid over [0, 1]."""
    return next(sample_graphs(spec, [draw], m))


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
