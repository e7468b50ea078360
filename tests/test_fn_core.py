import math
import re
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wlab import fn_core
from wlab.fn_core import (
    COS,
    COS_PLUS_HALF,
    CoefficientDraw,
    build_spec,
    dimension_formula,
    draw_coefficients,
    effective_order,
    evaluate_many,
    explicit,
    geometric,
    sample_graph,
    sample_graphs,
    tail_bound,
    worker_threads,
    zero_draw,
)
from wlab.rng import substream

import oracles


def _evaluate(spec, draw, x, order):
    """f truncated at ``order`` at one point, through evaluate_many."""
    return float(evaluate_many(spec, draw, [x], order)[0])


# ---------------------------------------------------------------------------
# base functions
# ---------------------------------------------------------------------------

def _assert_sample_keeps_the_bits_of_the_formula(g, t):
    # g is summed in place: the bits of the formula, for 1-d, 2-d and 0-d
    # t, and t itself is left as it was
    before = t.copy()
    for arg in (t, t[:1000].reshape(10, 100)):
        got, want = g.sample(arg), oracles.g_reference(g, arg)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(t.view(np.uint64), before.view(np.uint64))
    for t0 in (0.25, 0.1, np.float64(0.375), np.array(2.0 ** -63)):
        got, want = g.sample(t0), oracles.g_reference(g, t0)
        assert np.ndim(got) == 0
        assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)


def _sample_points(seed):
    return np.concatenate([np.random.default_rng(seed).random(1000),
                           [0.0, 0.25, 0.5, 1.0 - 2.0 ** -53, 2.0 ** -63, 5e-324]])


@pytest.mark.parametrize("g", [COS, COS_PLUS_HALF], ids=["cos", "cos2"])
class TestBaseFunction:
    def test_sup_bound_on_grid(self, g):
        xs = np.linspace(0.0, 1.0, 10_000)
        assert np.all(np.abs(g.sample(xs)) <= g.sup_abs + 1e-12)

    def test_sample_keeps_the_bits_of_the_formula(self, g):
        _assert_sample_keeps_the_bits_of_the_formula(g, _sample_points(7))


def test_builtin_base_functions_keep_their_terms_and_names():
    assert COS.terms == ((1, 1.0),) and COS.sup_abs == 1.0
    assert COS_PLUS_HALF.terms == ((1, 1.0), (2, 0.5)) and COS_PLUS_HALF.sup_abs == 1.5
    assert fn_core.base_function("cos") is COS and fn_core.base_function("cos2") is COS_PLUS_HALF
    assert build_spec(0.8, geometric(2.0)).to_dict()["g"] == "cos"
    assert build_spec(0.8, geometric(2.0), g=COS_PLUS_HALF).to_dict()["g"] == "cos2"


def test_sup_abs_rounds_the_exact_sum_up():
    # fsum gives 1.2 here, below the exact 1 + 0.2000000000000000111
    g = fn_core.BaseFunction("series", ((1, 1.0), (7, 0.2)))
    assert g.sup_abs == math.nextafter(1.2, 2.0)
    assert fn_core.BaseFunction("series", ((3, -0.75), (5, 0.25))).sup_abs == 1.0
    with pytest.raises(TypeError):
        fn_core.BaseFunction("cos", ((1, 1.0),), sup_abs=math.inf)


@pytest.mark.parametrize("terms, named", [
    ((), "at least one term"),
    (((0, 1.0),), "positive ints, got 0"),
    (((-1, 1.0),), "positive ints, got -1"),
    (((1.0, 1.0),), "positive ints, got 1.0"),
    (((2, 1.0), (1, 0.5)), "strictly increasing positive ints, got 1"),
    (((1, 1.0), (1, 0.5)), "strictly increasing positive ints, got 1"),
    (((1, 0.0),), "finite and nonzero, got 0.0"),
    (((1, 1.0), (2, -0.0)), "k = 2 must be finite and nonzero, got -0.0"),
    (((1, math.inf),), "got inf"),
    (((1, math.nan),), "got nan"),
    (((1, sys.float_info.max), (2, 5e-324)), "exceeds the largest float"),
])
def test_bad_series_rejected(terms, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        fn_core.BaseFunction("series", terms)


# 1 to 4 cosines with k <= 8 and |alpha| <= 2; alpha = 1 takes the multiply-free path
_SERIES = st.lists(
    st.tuples(st.integers(1, 8),
              st.one_of(st.just(1.0), st.floats(-2.0, 2.0).filter(lambda a: a != 0.0))),
    min_size=1, max_size=4, unique_by=lambda term: term[0],
).map(lambda terms: fn_core.BaseFunction("series", tuple(sorted(terms))))


@given(g=_SERIES, seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_random_series_sample_keeps_the_bits_of_the_formula(g, seed):
    _assert_sample_keeps_the_bits_of_the_formula(g, _sample_points(seed))


@given(g=_SERIES)
@settings(max_examples=40, deadline=None)
def test_random_series_stay_within_sup_abs(g):
    # sup_abs is the least float not below the exact sum of |alpha|; the
    # float sum of up to 4 terms may round a few ulps past the exact g
    exact = sum(Fraction(abs(alpha)) for _, alpha in g.terms)
    assert Fraction(g.sup_abs) >= exact > Fraction(math.nextafter(g.sup_abs, 0.0))
    xs = np.linspace(0.0, 1.0, 1 << 14)
    assert np.all(np.abs(g.sample(xs)) <= g.sup_abs + 4 * math.ulp(g.sup_abs))


@given(g=_SERIES, b=st.sampled_from([2.0, 2.5]), phased=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=12, deadline=None)
def test_random_series_evaluate_like_the_mpmath_oracle(g, b, phased, seed):
    # j / 256 takes the table (and for b = 2 the constant) levels, Philox x
    # the lane, and for b = 2.5 the general levels past level 10
    spec = build_spec(0.8, geometric(b), phases=(0.25, 0.5, 0.125) if phased else (), g=g)
    order = 30
    draw = draw_coefficients(spec, seed, order)
    for xs in (np.arange(0, 257, 17) / 256.0, substream(seed, "series-x").random(8)):
        got = evaluate_many(spec, draw, xs, order)
        want = [oracles.mp_eval_series(spec, draw.values, x, order) for x in xs]
        assert np.max(np.abs(got - want)) <= 1e-12


def test_unknown_base_function_rejected():
    with pytest.raises(ValueError):
        fn_core.base_function("tanh")


# ---------------------------------------------------------------------------
# build_spec
# ---------------------------------------------------------------------------

def test_build_spec_flags_figure_parameters():
    spec = build_spec(0.8, geometric(2.0))
    assert spec.ab_gt1 and spec.a2b_gt1 and spec.b_integer_theta_zero


def test_build_spec_boundary_warns():
    with pytest.warns(UserWarning, match="hypotheses fail"):
        spec = build_spec(0.5, geometric(2.0))
    assert not spec.ab_gt1
    assert not spec.a2b_gt1  # a^2 b = 0.5


def test_build_spec_rejects_bad_amplitude():
    with pytest.raises(ValueError):
        build_spec(1.2, geometric(2.0))
    with pytest.raises(ValueError):
        build_spec(0.0, geometric(2.0))


def test_explicit_frequencies_validated():
    with pytest.raises(ValueError, match="b_seq must be nonempty"):
        explicit([], 2.0)   # Frequencies(2.0, ()) is b^n
    with pytest.raises(ValueError, match="start at 1"):
        explicit([2.0, 4.0], 2.0)
    with pytest.raises(ValueError, match="below bound"):
        explicit([1.0, 2.0, 3.0], 2.0)
    freq = explicit([1.0, 2.0, 4.5, 9.0], 2.0)
    assert freq.max_order == 4


@pytest.mark.parametrize("make, named", [
    (lambda: geometric(math.inf), "frequency ratio must be finite and exceed 1, got inf"),
    (lambda: geometric(math.nan), "got nan"),
    (lambda: explicit([1.0, math.inf], 2.0), "b_seq entries must be finite, got inf"),
    (lambda: explicit([1.0, 2.0, math.nan], 2.0), "b_seq entries must be finite, got nan"),
    (lambda: explicit([1.0, 4.0], math.inf), "frequency ratio must be finite and exceed 1, got inf"),
    (lambda: build_spec(0.8, geometric(2.0), phases=(0.1, -math.inf)),
     "phases must be finite, got -inf"),
    (lambda: build_spec(0.8, geometric(2.0), phases=(math.nan,)), "phases must be finite, got nan"),
], ids=["b-inf", "b-nan", "b_seq-inf", "b_seq-nan", "b-bound-inf", "phase-inf", "phase-nan"])
def test_non_finite_spec_values_rejected(make, named):
    with pytest.raises(ValueError, match=named):
        make()


def test_flags_not_user_settable():
    spec = fn_core.FunctionSpec(a=0.9, freq=geometric(1.5))
    # a*b = 1.35 > 1 but a^2 b = 1.215 > 1; both recomputed in __post_init__
    assert spec.ab_gt1 and spec.a2b_gt1
    assert not fn_core.FunctionSpec(a=0.5, freq=geometric(1.5)).ab_gt1


def test_nonzero_phases_clear_integer_flag():
    spec = build_spec(0.8, geometric(2.0), phases=(0.0, 0.3))
    assert not spec.b_integer_theta_zero


def test_to_dict_pins_every_key_of_both_frequency_kinds():
    # b is written as a float, whatever number type it was given as
    geo = build_spec(0.8, geometric(3)).to_dict()
    assert geo == {"a": 0.8, "b": 3.0, "g": "cos", "phases": [], "ab_gt1": True,
                   "a2b_gt1": True, "b_integer_theta_zero": True, "freq_mode": "geometric"}
    assert type(geo["b"]) is float
    seq = build_spec(0.5, explicit([1, 3, 9.5], 3), phases=(0.25, 0.0),
                     g=COS_PLUS_HALF).to_dict()
    assert seq == {"a": 0.5, "b": 3.0, "g": "cos2", "phases": [0.25, 0.0], "ab_gt1": True,
                   "a2b_gt1": False, "b_integer_theta_zero": False, "freq_mode": "explicit",
                   "b_seq": [1.0, 3.0, 9.5]}
    assert [type(v) for v in seq["b_seq"]] == [float] * 3
    # an integer b_seq without phases is still no b^n with integer b
    integer_seq = build_spec(0.8, explicit([1, 3, 9], 3)).to_dict()
    assert integer_seq["b_integer_theta_zero"] is False
    assert integer_seq["freq_mode"] == "explicit" and integer_seq["b_seq"] == [1.0, 3.0, 9.0]


# ---------------------------------------------------------------------------
# coefficient draws
# ---------------------------------------------------------------------------

def test_draw_support_bound():
    spec = build_spec(0.5, geometric(4.0))
    draw = draw_coefficients(spec, 99, 5)
    assert all(abs(v) <= 0.5 ** n for n, v in enumerate(draw.values))


def test_draw_deterministic_and_prefix_stable():
    spec = build_spec(0.8, geometric(2.0))
    d1 = draw_coefficients(spec, 7, 9)
    d2 = draw_coefficients(spec, 7, 9)
    d3 = draw_coefficients(spec, 7, 4)
    assert d1.values == d2.values
    assert d1.values[:4] == d3.values


def test_draw_frozen_regression_values():
    # frozen from the Philox substream contract; any change breaks reproducibility
    spec = build_spec(0.8, geometric(2.0))
    draw = draw_coefficients(spec, 12345, 4)
    assert draw.values == (
        -0.6732821195579097,
        0.23870344418549794,
        -0.22434660940378084,
        -0.24610469902459847,
    )


def test_draw_rejects_zero_order():
    spec = build_spec(0.8, geometric(2.0))
    with pytest.raises(ValueError):
        draw_coefficients(spec, 1, 0)


def test_draw_stops_at_the_explicit_frequencies():
    spec = build_spec(0.8, explicit([1, 2, 4], 2.0))
    assert draw_coefficients(spec, 1, 3).order == 3
    with pytest.raises(ValueError, match="order 4 exceeds the 3 explicit frequencies"):
        draw_coefficients(spec, 1, 4)


def test_first_coefficient_mean_near_zero():
    # values[0] = 2u - 1 has mean 0 and sd 1/sqrt(3); CLT band over fixed seeds
    spec = build_spec(0.8, geometric(2.0))
    n = 10 ** 5
    total = sum(draw_coefficients(spec, seed, 1).values[0] for seed in range(n))
    band = 3.0 * (1.0 / math.sqrt(3.0)) / math.sqrt(n)
    assert abs(total / n) <= band


@given(seed=st.integers(min_value=0, max_value=2 ** 60),
       order=st.integers(min_value=1, max_value=12),
       a=st.floats(min_value=0.1, max_value=0.95))
@settings(max_examples=40, deadline=None)
def test_draw_support_property(seed, order, a):
    spec = fn_core.FunctionSpec(a=a, freq=geometric(3.0))
    draw = draw_coefficients(spec, seed, order)
    assert all(abs(v) <= a ** n for n, v in enumerate(draw.values))


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------

def _smallest_order(a, sup_abs, tol):
    # direct while-loop oracle on the tail bound 2 M a^K / (1 - a)
    k = 0
    while 2.0 * sup_abs * a ** k / (1.0 - a) > tol:
        k += 1
    return k


def test_truncation_order_examples():
    spec5 = fn_core.FunctionSpec(a=0.5, freq=geometric(4.0))
    assert effective_order(spec5, 1e-6) == _smallest_order(0.5, 1.0, 1e-6) == 22
    spec8 = fn_core.FunctionSpec(a=0.8, freq=geometric(2.0))
    assert effective_order(spec8, 1e-6) == _smallest_order(0.8, 1.0, 1e-6) == 73


def test_truncation_order_whole_series_below_tol():
    spec = fn_core.FunctionSpec(a=0.5, freq=geometric(4.0))
    assert effective_order(spec, 2.0 * 1.0 / 0.5) == 0
    assert effective_order(spec, 100.0) == 0


def test_truncation_order_rejects_nonpositive_tol():
    spec = fn_core.FunctionSpec(a=0.5, freq=geometric(4.0))
    with pytest.raises(ValueError):
        effective_order(spec, 0.0)


@given(o1=st.integers(min_value=0, max_value=30),
       o2=st.integers(min_value=0, max_value=30),
       seed=st.integers(min_value=0, max_value=10 ** 6),
       x=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=40, deadline=None)
def test_truncation_soundness(o1, o2, seed, x):
    spec = fn_core.FunctionSpec(a=0.7, freq=geometric(2.0))
    draw = draw_coefficients(spec, seed, 31)
    lo = min(o1, o2)
    gap = abs(_evaluate(spec, draw, x, o1) - _evaluate(spec, draw, x, o2))
    assert gap <= 2.0 * spec.g.sup_abs * spec.a ** lo / (1.0 - spec.a) + 1e-12


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_zero_draw_evaluates_to_zero(monkeypatch):
    # no level has a nonzero coefficient, so no block is walked
    spec = build_spec(0.8, geometric(2.0))
    xs = np.linspace(0, 1, 17)
    monkeypatch.setattr(fn_core, "_block_digits", None)
    assert np.all(evaluate_many(spec, zero_draw(5), xs, 5) == 0.0)


def test_cosine_at_origin_sums_coefficients():
    spec = build_spec(0.8, geometric(2.0))
    draw = draw_coefficients(spec, 3, 12)
    assert _evaluate(spec, draw, 0.0, 12) == pytest.approx(sum(draw.values), abs=1e-14)


def test_order_beyond_draw_rejected():
    spec = build_spec(0.8, geometric(2.0))
    draw = draw_coefficients(spec, 3, 4)
    with pytest.raises(ValueError):
        _evaluate(spec, draw, 0.5, 5)


def test_high_precision_oracle_agreement_integer_b():
    spec = build_spec(0.8, geometric(2.0))
    draw = draw_coefficients(spec, 42, 100)
    for x in [0.3, 0.123456789, 1e-13, 0.9999999999, 0.5]:
        ours = _evaluate(spec, draw, x, 100)
        ref = oracles.mp_eval_series(spec, draw.values, x, 100)
        assert ours == pytest.approx(ref, abs=1e-10)


def test_high_precision_oracle_agreement_rational_b():
    spec = build_spec(0.6, geometric(2.5))
    draw = draw_coefficients(spec, 5, 40)
    for x in [0.3, 0.77]:
        ours = _evaluate(spec, draw, x, 40)
        ref = oracles.mp_eval_series(spec, draw.values, x, 40)
        assert ours == pytest.approx(ref, abs=1e-10)


def test_high_precision_oracle_agreement_explicit_with_phases():
    spec = build_spec(0.6, explicit([1, 3, 7.5, 20, 60], 2.0),
                      phases=(0.1, 0.7, 0.3, 0.9, 0.2))
    draw = draw_coefficients(spec, 9, 5)
    for x in [0.25, 0.8]:
        ours = _evaluate(spec, draw, x, 5)
        ref = oracles.mp_eval_series(spec, draw.values, x, 5)
        assert ours == pytest.approx(ref, abs=1e-12)


def test_periodicity_bit_stable_for_integer_b():
    # x chosen dyadic so x + 1 is exact in floating point
    spec = build_spec(0.8, geometric(2.0))
    draw = draw_coefficients(spec, 11, 60)
    for k in [1, 5, 999_999]:
        x = k / 2.0 ** 20
        assert _evaluate(spec, draw, x, 60) == _evaluate(spec, draw, x + 1.0, 60)


def _mixed_b_seq(length):
    # ratios alternate 2.5 and 2: 1, 2.5, 5, 12.5, 25, ..., so integer and
    # half-integer b_n interleave until the half-integers pass 2^53
    seq = [1.0]
    for n in range(length - 1):
        seq.append(seq[-1] * (2.5 if n % 2 == 0 else 2.0))
    return seq


_REDUCTION_FREQS = [geometric(b) for b in (2, 3, 5, 2.5, 1.25)] + [explicit(_mixed_b_seq(97), 2.0)]


@given(xs=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6),
       freq=st.sampled_from(_REDUCTION_FREQS),
       n=st.integers(min_value=0, max_value=96),
       theta=st.one_of(st.just(0.0), st.floats(allow_nan=False, allow_infinity=False)))
@settings(max_examples=500, deadline=None)
@example(xs=[-1e-20, -1e-9, -0.3, -5e-324, 5e-324, -2.5], freq=geometric(3), n=1, theta=0.0)
@example(xs=[-1e-20, 0.25, 1e-300, -7.125, 3.0e15], freq=geometric(2), n=96, theta=0.0)
@example(xs=[0.6369616873214543], freq=geometric(3), n=5, theta=0.37)
@example(xs=[0.3, -1e-300, 1e308], freq=geometric(2.5), n=96, theta=-1e-30)
@example(xs=[0.6369616873214543, -0.3, 1e-300], freq=_REDUCTION_FREQS[-1], n=3, theta=0.37)
@example(xs=[0.6369616873214543, -7.125, 5e-324], freq=_REDUCTION_FREQS[-1], n=4, theta=-5.5)
def test_reduction_exact_for_every_finite_x(xs, freq, n, theta):
    # negative, |x| > 1 and subnormal x, non-integer b_n and any finite phase
    # all reduce to the exact (b_n x + theta) mod 1, rounded once, in [0, 1)
    spec = build_spec(0.9, freq, phases=[0.0] * n + [theta])
    got = fn_core.reduced_arguments(spec, n, xs)
    b = Fraction(freq.b_seq[n]) if freq.b_seq else Fraction(freq.b) ** n
    for x, r in zip(xs, got):
        want = float((b * Fraction(x) + Fraction(theta)) % 1)
        assert r == want % 1.0, (x, r, want)


@pytest.mark.parametrize("freq, phases", [(geometric(2.0), ()), (geometric(2.5), (0.1, 0.7))],
                         ids=["b2", "b2.5-phased"])
def test_non_finite_x_gives_nan(freq, phases):
    # nan and +-inf have no reduced argument: f is nan there, as g(x) is,
    # and the finite points of the same array are unaffected
    spec = build_spec(0.8, freq, phases=phases)
    draw = draw_coefficients(spec, 1, 10)
    xs = np.array([np.nan, 0.3, np.inf, -7.125, -np.inf, 1e-300])
    finite = np.isfinite(xs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ys = evaluate_many(spec, draw, xs, 10)
    assert np.isnan(ys[~finite]).all()
    assert np.array_equal(ys[finite], evaluate_many(spec, draw, xs[finite], 10))
    for x, y in zip(xs[finite], ys[finite]):
        assert y == pytest.approx(oracles.mp_eval_series(spec, draw.values, x, 10), abs=1e-13)


def _kernel_inputs(shape, seed):
    # uniform x in [0, 1) with a few tiny x (wide lane), negative x, nan and
    # +-inf mixed in
    rng = np.random.default_rng(seed)
    xs = rng.random(shape)
    flat = xs.reshape(-1)
    special = rng.permutation(flat.size)[:min(flat.size, 80)]
    flat[special[:40]] *= 2.0 ** -12
    flat[special[:40:4]] *= -1.0
    flat[special[40:60:3]] = np.nan
    flat[special[41:60:3]] = np.inf
    flat[special[42:60:3]] = -np.inf
    flat[special[60:80]] -= 3.0
    return xs


_KERNEL_CASES = [
    pytest.param(build_spec(0.8, geometric(2.0)), 24, size, id=f"b2-{size}")
    for size in (0, 1, (1 << 14) - 1, (1 << 15) + 1, 2 * (1 << 14) + 3, 3 * (1 << 15) + 7)
] + [
    pytest.param(build_spec(0.8, geometric(2.0)), 24, (96, 512), id="b2-2d"),
    pytest.param(build_spec(0.8, geometric(2.5)), 14, 2 * (1 << 14) + 3, id="b2.5"),
    pytest.param(build_spec(0.8, explicit([2.0 ** n for n in range(20)], 2.0),
                            phases=(0.1, 0.25, 0.4, 0.7, 0.05, 0.9), g=COS_PLUS_HALF),
                 20, 3 * (1 << 15) + 7, id="cos2-bseq-phased"),
]


@pytest.mark.parametrize("spec, order, shape", _KERNEL_CASES)
def test_evaluate_many_matches_whole_array_levels_bit_for_bit(spec, order, shape):
    draw = draw_coefficients(spec, 3, order)
    xs = _kernel_inputs(shape, 11)
    want = oracles.evaluate_levels(spec, draw, xs, order).view(np.uint64)
    for threads in (1, 2, 3):
        with worker_threads(threads):
            got = evaluate_many(spec, draw, xs, order)
        assert got.shape == xs.shape
        assert np.array_equal(got.view(np.uint64), want), threads


@pytest.mark.parametrize("spec, order, shape", _KERNEL_CASES)
def test_draw_rows_match_whole_array_levels_bit_for_bit(spec, order, shape):
    # three draws in one level pass, one of them shorter than the others:
    # each row has the bits of its draw alone at its own order, and the zero
    # draw's row is exact zeros, nan and infinite x included
    draws = [draw_coefficients(spec, 3, order), zero_draw(order),
             draw_coefficients(spec, 5, order - 7)]
    xs = _kernel_inputs(shape, 11)
    wants = [oracles.evaluate_levels(spec, d, xs, d.order).ravel().view(np.uint64) for d in draws]
    for threads in (1, 2, 3):
        with worker_threads(threads):
            rows = fn_core._evaluate_rows(spec, [d.values for d in draws], xs.ravel())
        assert len(rows) == 3
        for i, (row, want) in enumerate(zip(rows, wants)):
            assert np.array_equal(row.view(np.uint64), want), (threads, i)
        assert np.all(rows[1] == 0.0)


def test_draw_rows_need_a_draw_and_enough_terms():
    spec = build_spec(0.8, geometric(2.0))
    xs = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="at least one draw"):
        fn_core._evaluate_rows(spec, [], xs)
    for order in (4, -1):   # a negative order would slice off the last terms
        with pytest.raises(ValueError, match=r"\[0, draw.order 3\]"):
            evaluate_many(spec, draw_coefficients(spec, 2, 3), xs, order)


def test_worker_threads_is_restored_and_checked():
    assert fn_core._WORKER_THREADS.get() == 1
    with worker_threads(3):
        assert fn_core._WORKER_THREADS.get() == 3
        with worker_threads(2):
            assert fn_core._WORKER_THREADS.get() == 2
        assert fn_core._WORKER_THREADS.get() == 3
    assert fn_core._WORKER_THREADS.get() == 1
    with pytest.raises(ValueError, match=">= 1"):
        with worker_threads(0):
            pass


def test_evaluate_many_temporaries_stay_below_two_outputs():
    # levels run over blocks of at most 2^15 points, so besides the output
    # array only block-sized temporaries are live
    spec = build_spec(0.8, geometric(2.0))
    draw = draw_coefficients(spec, 1, 8)
    xs = np.random.default_rng(0).random(1 << 18)
    tracemalloc.start()
    try:
        evaluate_many(spec, draw, xs, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * xs.nbytes, peak / xs.nbytes


def test_evaluate_many_temporaries_stay_below_two_outputs_on_a_dyadic_grid():
    # x = j / 2^18 and b = 2: levels 18.. are constant on every block and
    # add one product per point, with no block-sized temporary of their own
    spec = build_spec(0.8, geometric(2.0))
    draw = draw_coefficients(spec, 1, 24)
    xs = np.linspace(0.0, 1.0, (1 << 18) + 1)
    tracemalloc.start()
    try:
        evaluate_many(spec, draw, xs, 24)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * xs.nbytes, peak / xs.nbytes


def _assert_block_digits(xs):
    # p is the most fraction digits of any x, and X = x 2^p mod 2^63 (its
    # uint64 view), both against Fractions
    p, digits = fn_core._block_digits(np.array(xs, dtype=np.float64))
    assert p == max((Fraction(x).denominator.bit_length() - 1 for x in xs), default=0)
    assert digits.dtype == np.int64
    assert digits.view(np.uint64).tolist() == [int(Fraction(x) * 2 ** p) % 2 ** 63 for x in xs]


@given(xs=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
@example(xs=[0.0, -0.0, 1.0, -7.0, 2.0 ** 60, 1e308])
@example(xs=[5e-324, 0.5])
@example(xs=[-0.375, 3.0 * 2.0 ** -1074, 0.1])
@example(xs=[-1e308, -(2.0 ** -1074), 2.0 ** -1022])
def test_fraction_bits_match_the_dyadic_denominator(xs):
    _assert_block_digits(xs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fraction_bits_are_infinite_with_a_non_finite_x(bad):
    assert fn_core._block_digits(np.array([0.5, bad, 2.0])) == (math.inf, None)


def test_fraction_bits_of_no_x_are_zero():
    _assert_block_digits([])


def _constant_blocks_b_seq(length):
    # integer b_n with ratios alternating 2 and 3: 1, 2, 6, 12, 36, ...
    seq = [1.0]
    for n in range(length - 1):
        seq.append(seq[-1] * (2.0 if n % 2 == 0 else 3.0))
    return seq


_BLOCK_KINDS = ("grid", "philox", "negative", "zeros", "integers", "tiny", "non-finite")


def _constant_block(kind, p, rng, size):
    # one block of x that turns constant at a level set by its kind and p
    if kind == "grid":
        return rng.integers(0, 1 << p, size) / 2.0 ** p
    if kind == "philox":
        return rng.random(size)
    if kind == "negative":
        return -rng.integers(0, 1 << p, size) / 2.0 ** p - rng.integers(0, 5, size)
    if kind == "zeros":
        return np.where(rng.random(size) < 0.5, 0.0, -0.0)
    if kind == "integers":
        return rng.integers(-1000, 1000, size).astype(np.float64)
    if kind == "tiny":
        return rng.random(size) * 2.0 ** -(10 + p)
    xs = rng.integers(0, 1 << p, size) / 2.0 ** p
    xs[rng.permutation(size)[:3]] = [np.nan, np.inf, -np.inf]
    return xs


@given(freq=st.sampled_from([geometric(b) for b in (2, 3, 4, 6, 2.5)]
                            + [explicit(_constant_blocks_b_seq(60), 2.0)]),
       phases=st.lists(st.sampled_from([0.0, 0.1, 0.375, -5.5, 2.0 ** -70, 0.3 + 2.0 ** -66]),
                       max_size=5),
       blocks=st.lists(st.tuples(st.sampled_from(_BLOCK_KINDS), st.integers(0, 60)),
                       min_size=1, max_size=5),
       m=st.sampled_from([2, 17, 33, 65, 100, 129]),
       threads=st.sampled_from([1, 2, 3]),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_constant_levels_keep_the_bits_of_whole_array_levels(freq, phases, blocks, m, threads,
                                                              seed):
    # blocks of 16 points (threads from 8 points each), so each block of xs
    # turns constant at its own level, or never; evaluate_many and
    # sample_graphs (three draws on the grid j / (m - 1)) must give the bits
    # of one reduction per level over the whole array
    spec = build_spec(0.8, freq, phases=phases)
    order = fn_core.effective_order(spec, 1e-3)
    rng = np.random.default_rng(seed)
    xs = np.concatenate([_constant_block(kind, p, rng, 16) for kind, p in blocks])
    draws = [draw_coefficients(spec, s, order) for s in (seed, seed + 1, seed + 2)]
    grid = np.linspace(0.0, 1.0, m)
    with pytest.MonkeyPatch.context() as patch, worker_threads(threads), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        patch.setattr(fn_core, "_BLOCK", 16)
        patch.setattr(fn_core, "_MIN_CHUNK", 8)
        got = evaluate_many(spec, draws[0], xs, order)
        samples = list(sample_graphs(spec, draws, m))
    want = oracles.evaluate_levels(spec, draws[0], xs, order)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    for draw, s in zip(draws, samples):
        want = oracles.evaluate_levels(spec, draw, grid, order)
        assert np.array_equal(s.ys.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("b, order, per_block", [(2.0, 96, 0), (3.0, 96, 0), (2.5, 24, 0)])
def test_constant_levels_skip_the_block_reduction(monkeypatch, b, order, per_block):
    # x = j / 2^17: for b = 2 the levels n >= 17 are constant on every block
    # and levels 0..16 look g up on the 2^-17 lattice, so no level reduces a
    # block; for b = 3 every level looks g up; for b = 2.5 = 5 / 2 the
    # reduced arguments of level n lie on 2^-(17 + n), so level 0 looks g up
    # and levels 1 <= n <= 46 take the lane (order 24 keeps the case quick)
    spec = build_spec(0.8, geometric(b))
    draw = draw_coefficients(spec, 1, order)
    xs = np.linspace(0.0, 1.0, (1 << 17) + 1)
    sizes = []
    reduce = fn_core.reduced_arguments

    def counted(spec, n, xs):
        sizes.append(np.size(xs))
        return reduce(spec, n, xs)

    monkeypatch.setattr(fn_core, "reduced_arguments", counted)
    evaluate_many(spec, draw, xs, order)
    blocks = xs.size // fn_core._BLOCK   # the last block is x = 1 alone
    block_calls = sum(size > 1 for size in sizes)
    assert block_calls == per_block * blocks


def test_a_block_holding_a_fine_x_is_reduced_once_per_level(monkeypatch):
    # x = 1e-5 has 69 binary fraction digits, so on b = 3 no level of its
    # block is constant or on the 2^-17 lattice: each of the 5 levels reduces
    # the whole block once.  Without it the block has 2 fraction digits and
    # every level looks g up in the table instead.
    spec = build_spec(0.5, geometric(3.0))
    draw = draw_coefficients(spec, 1, 5)
    calls = []
    reduce = fn_core.reduced_arguments

    def counted(spec, n, xs):
        calls.append((n, np.size(xs)))
        return reduce(spec, n, xs)

    monkeypatch.setattr(fn_core, "reduced_arguments", counted)
    evaluate_many(spec, draw, np.array([0.0, 1e-5, 0.25, 0.5]), 5)
    assert calls == [(n, 4) for n in range(5)]
    calls.clear()
    evaluate_many(spec, draw, np.array([0.0, 0.25, 0.5]), 5)
    assert calls == []


def _lattice_xs(kind, p, rng):
    # 16 x with (up to rounding to subnormals) at most p binary fraction digits
    j = rng.integers(-(1 << 20), 1 << 20, 16)
    if kind == "grid":
        j = np.abs(j) % (1 << min(p, 20))
    xs = j * 2.0 ** -p
    if kind == "negative":   # x 2^p = -1 and -3: an arithmetic shift by 52 and 51 bits
        xs[:2] = [-(2.0 ** -p), -3.0 * 2.0 ** -p]
    if kind == "huge":       # x 2^p with 13 to 15 low zero bits, or far more
        xs[:6] = [1e308, -1e308, -0.0, (2 ** 53 - 1) * 2.0 ** (13 - p),
                  -(2 ** 52 + 1) * 2.0 ** (14 - p), 3.0 * 2.0 ** (15 - p)]
    return xs


@given(freq=st.sampled_from([geometric(b) for b in (2, 3, 4, 6, 2.5)]
                            + [explicit(_constant_blocks_b_seq(60), 2.0)]),
       phases=st.lists(st.sampled_from([0.0, 0.375, -5.5, 0.1, 2.0 ** -70]), max_size=5),
       g=st.sampled_from([COS, COS_PLUS_HALF]),
       kind=st.sampled_from(["grid", "negative", "huge"]),
       p=st.one_of(st.integers(0, 24), st.integers(1040, 1074)),
       threads=st.sampled_from([1, 2, 3]),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
@example(freq=geometric(2.0), phases=[0.375], g=COS, kind="negative", p=1074, threads=1, seed=1)
@example(freq=geometric(2.0), phases=[], g=COS, kind="huge", p=20, threads=2, seed=1)
@example(freq=geometric(2.5), phases=[0.375, -5.5], g=COS_PLUS_HALF, kind="huge", p=3,
         threads=3, seed=2)
def test_lattice_lookup_keeps_the_bits_of_the_reduction(freq, phases, g, kind, p, threads, seed):
    # on every level whose reduced arguments lie on the table's lattice (a
    # Fraction check), the table lookup must give the bits of g at the
    # reduced arguments; negative, subnormal and +-1e308 x included
    spec = build_spec(0.8, freq, phases=phases, g=g)
    xs = _lattice_xs(kind, p, np.random.default_rng(seed))
    bits, digits = fn_core._block_digits(xs)
    max_order = len(freq.b_seq) or bits + 3
    for n in sorted(set(range(24)) | set(range(max(0, bits - 20), bits + 3))):
        if n >= max_order:
            continue
        b_n, theta_n = Fraction(freq.value(n)), Fraction(spec.phase(n))
        on = ((b_n * Fraction(2) ** (fn_core._TABLE_BITS - bits)).denominator == 1
              and (theta_n * 2 ** fn_core._TABLE_BITS).denominator == 1)
        b_num, b_den = b_n.as_integer_ratio()
        t_num, t_den = theta_n.as_integer_ratio()
        step = fn_core._lattice_step((b_num, b_den.bit_length() - 1),
                                     (t_num, t_den.bit_length() - 1), bits, fn_core._TABLE_BITS)
        assert (step is not None) == on, n
        if on:
            got = fn_core._lattice_g(g, digits, step)
            want = g.sample(fn_core.reduced_arguments(spec, n, xs))
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), n
    # and through the kernel, on up to three threads of at least 4 points
    order = min(max_order, 40)
    draw = draw_coefficients(spec, seed, order)
    with pytest.MonkeyPatch.context() as patch, worker_threads(threads):
        patch.setattr(fn_core, "_MIN_CHUNK", 4)
        got = evaluate_many(spec, draw, xs, order)
    want = oracles.evaluate_levels(spec, draw, xs, order)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("a, b, general", [(0.5, 3.0, 31), (0.8, 2.0, 5)])
def test_general_levels_take_the_int_rule_only_where_x_needs_it(monkeypatch, a, b, general):
    # the first block of linspace(0, 1, 2^17) has 68 fraction digits, so all
    # 31 levels of (0.5, 3) and levels 0-4 of (0.8, 2) reduce it in full;
    # there only the 63 points past the uint64 lane take the rule on Python
    # ints, never the whole block, and the sample keeps the oracle's bits
    spec = build_spec(a, geometric(b))
    order = fn_core.effective_order(spec)
    draw = draw_coefficients(spec, 1, order)
    xs = np.linspace(0.0, 1.0, 1 << 17)
    bits, _ = fn_core._block_digits(xs[:fn_core._BLOCK])
    assert bits == 68
    kinds = [fn_core._level_steps(spec, n, bits)[0] for n in range(order)]
    assert kinds[:general] == ["general"] * general and "general" not in kinds[general:]
    wide = []
    wide_lane = fn_core._wide_lane

    def counted(m, *args):
        wide.append(m.size)
        return wide_lane(m, *args)

    with monkeypatch.context() as patch:
        patch.setattr(fn_core, "_wide_lane", counted)
        ys = sample_graph(spec, draw, xs.size).ys
    assert wide == [63] * general
    want = oracles.evaluate_levels(spec, draw, xs, order)
    assert np.array_equal(ys.view(np.uint64), want.view(np.uint64))


def test_grid_levels_of_odd_b_are_lookups(monkeypatch):
    # on j / 2^17 the reduced arguments of every level of b = 3 lie on the
    # 2^-17 lattice, so once the table (and the constant levels of the block
    # holding x = 1 alone) is built, sampling draws evaluates g on no point,
    # and each row keeps the bits of one reduction per level
    spec = build_spec(0.5, geometric(3.0))
    order = fn_core.effective_order(spec)
    m = (1 << 17) + 1
    draws = [draw_coefficients(spec, s, order) for s in (1, 2)]
    list(sample_graphs(spec, draws[:1], m))
    points = []
    sample = fn_core.BaseFunction.sample

    def counted(self, t):
        points.append(np.size(t))
        return sample(self, t)

    with monkeypatch.context() as patch:
        patch.setattr(fn_core.BaseFunction, "sample", counted)
        samples = list(sample_graphs(spec, draws, m))
    assert sum(points) == 0
    grid = np.linspace(0.0, 1.0, m)
    for draw, s in zip(draws, samples):
        want = oracles.evaluate_levels(spec, draw, grid, order)
        assert np.array_equal(s.ys.view(np.uint64), want.view(np.uint64))


@given(seed=st.integers(min_value=0, max_value=10 ** 6),
       order=st.integers(min_value=1, max_value=40),
       x=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=40, deadline=None)
def test_boundedness_property(seed, order, x):
    spec = fn_core.FunctionSpec(a=0.8, freq=geometric(2.0))
    draw = draw_coefficients(spec, seed, order)
    bound = spec.g.sup_abs * (1.0 - spec.a ** order) / (1.0 - spec.a)
    assert abs(_evaluate(spec, draw, x, order)) <= bound + 1e-12


# ---------------------------------------------------------------------------
# graph sampling
# ---------------------------------------------------------------------------

def test_sample_graph_endpoints():
    spec = build_spec(0.8, geometric(2.0))
    draw = draw_coefficients(spec, 1, 96)
    s = sample_graph(spec, draw, 2)
    assert s.xs.tolist() == [0.0, 1.0]


def test_sample_graph_zero_draw():
    spec = build_spec(0.8, geometric(2.0))
    s = sample_graph(spec, zero_draw(200), 8)
    assert np.all(s.ys == 0.0)


def test_sample_graph_periodic_closure():
    # integer b, zero phases: every term has period 1, endpoints match exactly
    spec = build_spec(0.8, geometric(2.0))
    draw = draw_coefficients(spec, 7, 120)
    s = sample_graph(spec, draw, 257)
    assert s.ys[0] == s.ys[-1]
    assert abs(s.ys[0]) <= spec.g.sup_abs / (1 - spec.a) + s.tail_bound


def test_sample_graph_y_bound():
    spec = build_spec(0.8, geometric(2.0))
    draw = draw_coefficients(spec, 5, 120)
    s = sample_graph(spec, draw, 4097)
    assert np.all(np.abs(s.ys) <= spec.g.sup_abs / (1 - spec.a) + s.tail_bound)


def test_sample_graph_sums_every_term_of_its_draw():
    # the draw's length is the truncation order: all 120 terms of a draw at
    # (0.8, 2), whose default order is 96, and all 3 of a short draw, alone
    # and in one group, each reporting its own order and tail bound
    spec = build_spec(0.8, geometric(2.0))
    long, short = draw_coefficients(spec, 7, 120), draw_coefficients(spec, 7, 3)
    alone = [sample_graph(spec, long, 257), sample_graph(spec, short, 257)]
    grouped = list(sample_graphs(spec, [long, short], 257))
    for draw, s, g in zip((long, short), alone, grouped):
        want = oracles.evaluate_levels(spec, draw, s.xs, draw.order).view(np.uint64)
        for sample in (s, g):
            assert (sample.truncation_order, sample.tail_bound) == (draw.order,
                                                                    tail_bound(spec, draw.order))
            assert np.array_equal(sample.ys.view(np.uint64), want), draw.order
    assert alone[0].truncation_order == 120 and alone[1].tail_bound == tail_bound(spec, 3)


def test_sample_graph_needs_two_points_and_enough_coefficients():
    spec = build_spec(0.8, geometric(2.0))
    with pytest.raises(ValueError):
        sample_graph(spec, zero_draw(), 1)


def test_sample_graphs_share_xs_and_keep_each_draws_bits():
    spec = build_spec(0.8, geometric(2.0))
    draws = [draw_coefficients(spec, seed, 96) for seed in (1, 2, 3)]
    samples = list(sample_graphs(spec, draws, 4097))
    assert len(samples) == 3
    for draw, s in zip(draws, samples):
        assert s.xs is samples[0].xs
        assert np.array_equal(s.ys.view(np.uint64),
                              sample_graph(spec, draw, 4097).ys.view(np.uint64))


@pytest.mark.parametrize("rows, per", [(3, 3), (0.5, 1)], ids=["groups-of-3", "row-over-budget"])
def test_sample_graphs_pull_draws_one_group_at_a_time(monkeypatch, rows, per):
    # a budget of `rows` rows of m doubles: groups of `per` draws, at least one
    spec = build_spec(0.8, geometric(2.0))
    m = 1025
    monkeypatch.setattr(fn_core, "_GROUP_DOUBLES", int(rows * m))
    pulled = []

    def draws():
        for seed in range(7):
            pulled.append(seed)
            yield draw_coefficients(spec, seed, 96)

    n = 0
    for i, s in enumerate(sample_graphs(spec, draws(), m)):
        assert pulled == list(range(min(7, (i // per + 1) * per))), i
        alone = sample_graph(spec, draw_coefficients(spec, i, 96), m)
        assert np.array_equal(s.ys.view(np.uint64), alone.ys.view(np.uint64)), i
        n += 1
    assert n == 7
    with pytest.raises(ValueError, match="at least one draw"):
        list(sample_graphs(spec, iter([]), m))


def test_sample_graph_csv_round_trip(tmp_path):
    spec = build_spec(0.8, geometric(2.0))
    draw = draw_coefficients(spec, 7, 96)
    s = sample_graph(spec, draw, 64)
    path = tmp_path / "sample.csv"
    s.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == 65
    xs, ys = zip(*(map(float, line.split(",")) for line in lines[1:]))
    assert np.array_equal(np.asarray(xs), s.xs)
    assert np.array_equal(np.asarray(ys), s.ys)


def test_sample_graph_json_metadata():
    spec = build_spec(0.8, geometric(2.0))
    draw = draw_coefficients(spec, 7, 96)
    s = sample_graph(spec, draw, 16)
    d = s.to_json_dict(spec=spec, seed=7)
    assert d["seed"] == 7
    assert d["spec"]["freq_mode"] == "geometric"
    assert d["truncation_order"] == s.truncation_order
    assert len(d["xs"]) == 16


# ---------------------------------------------------------------------------
# dimension formula
# ---------------------------------------------------------------------------

def test_dimension_formula_exact_case():
    spec = fn_core.FunctionSpec(a=0.5, freq=geometric(4.0))
    assert dimension_formula(spec) == pytest.approx(1.5, abs=1e-12)


def test_dimension_formula_derived_values():
    import mpmath as mp
    with mp.workdps(40):
        d82 = float(2 + mp.log(mp.mpf("0.8")) / mp.log(2))
        d53 = float(2 + mp.log(mp.mpf("0.5")) / mp.log(3))
    spec = build_spec(0.8, geometric(2.0))
    assert dimension_formula(spec) == pytest.approx(d82, abs=1e-12)
    assert d82 == pytest.approx(1.6781, abs=1e-4)
    spec2 = build_spec(0.5, geometric(3.0))
    assert dimension_formula(spec2) == pytest.approx(d53, abs=1e-12)
    assert d53 == pytest.approx(1.3691, abs=1e-4)


def test_dimension_formula_warns_outside_hypotheses():
    with pytest.warns(UserWarning):
        spec = build_spec(0.4, geometric(2.0))
    with pytest.warns(UserWarning, match="outside its hypotheses"):
        dimension_formula(spec)


def test_default_tolerance_scale():
    # the default tolerance is 1e-9 sup|g| / (1 - a) = 5e-9 here
    spec = build_spec(0.8, geometric(2.0))
    assert effective_order(spec) == effective_order(spec, 1e-9 / 0.2) == _smallest_order(0.8, 1.0, 5e-9)
    assert effective_order(spec) == 96
    assert effective_order(spec, 7e-9) == 95


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def test_write_rows_formats_each_type(tmp_path):
    path = tmp_path / "rows.csv"
    fn_core.write_rows(path, ("v", "k", "s"), [
        (np.float64(0.1), 3, "stable"),
        (np.float64(1.0) / 3.0, np.int64(7), "diverging"),
        (2.0, 0, "None"),
    ])
    assert path.read_bytes() == (
        b"v,k,s\n0.1,3,stable\n0.3333333333333333,7,diverging\n2.0,0,None\n"
    )


def test_fit_line_exact_and_noisy():
    slope, intercept, r2 = fn_core.fit_line(np.arange(5.0), 3.0 * np.arange(5.0) - 1.0)
    assert (slope, intercept, r2) == (pytest.approx(3.0), pytest.approx(-1.0), pytest.approx(1.0))
    _, _, r2 = fn_core.fit_line(np.arange(4.0), np.array([0.0, 1.0, 0.0, 1.0]))
    assert 0.0 <= r2 < 1.0


def test_effective_order_caps_at_explicit_frequencies():
    spec = build_spec(0.8, explicit([1, 2, 4, 8], 2.0))
    assert fn_core.effective_order(spec) == 4
    assert fn_core.effective_order(spec, 1e-3) == 4
    assert fn_core.effective_order(spec, 6.0) == _smallest_order(0.8, 1.0, 6.0) == 3
    geo = build_spec(0.8, geometric(2.0))
    assert fn_core.effective_order(geo, 1e-3) == _smallest_order(0.8, 1.0, 1e-3)


def _lane_xs(kind, p, seed):
    # 16 x with at most p <= 63 binary fraction digits, but for one x of a "fine" block
    rng = np.random.default_rng(seed)
    if kind == "philox":
        return np.random.Generator(np.random.Philox(seed)).random(16)
    xs = rng.integers(0, 1 << min(p, 53), 16) * 2.0 ** -p
    if kind == "negative":
        xs = -xs - rng.integers(0, 5, 16)
    if kind == "huge":
        xs[:4] = [1e308, -1e308, -0.0, -(2.0 ** -p)]
    if kind == "fine":
        xs[rng.integers(16)] = rng.choice([1e-5, 0.1 * 2.0 ** -20, 2.0 ** -64, 3.0 * 2.0 ** -1074])
    return xs


@given(freq=st.sampled_from([geometric(b) for b in (2, 3, 4, 6, 2.5)]
                            + [explicit(_constant_blocks_b_seq(60), 2.0)]),
       phases=st.lists(st.sampled_from([0.0, 0.375, -5.5, 0.1, 2.0 ** -63, 2.0 ** -70]),
                       max_size=5),
       g=st.sampled_from([COS, COS_PLUS_HALF]),
       kind=st.sampled_from(["philox", "grid", "negative", "huge", "fine"]),
       p=st.integers(0, 63),
       threads=st.sampled_from([1, 2, 3]),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
@example(freq=geometric(3.0), phases=[2.0 ** -70, 0.1, -5.5], g=COS, kind="huge", p=63,
         threads=2, seed=1)
@example(freq=geometric(2.0), phases=[0.375], g=COS_PLUS_HALF, kind="fine", p=53, threads=3,
         seed=2)
@example(freq=geometric(2.5), phases=[2.0 ** -63], g=COS, kind="philox", p=0, threads=1, seed=3)
def test_lane_levels_keep_the_bits_of_the_reduction(freq, phases, g, kind, p, threads, seed):
    # with p the most fraction digits of any x, a level is constant where 2^p
    # divides b_n, takes the table or the lane where every reduced argument
    # lies on 2^-63, and is one reduced_arguments call on the block
    # otherwise (a Fraction check of which is which); every level must give
    # the bits of g at reduced_arguments
    spec = build_spec(0.8, freq, phases=phases, g=g)
    xs = _lane_xs(kind, p, seed)
    bits, _ = fn_core._block_digits(xs)
    assert (bits <= 63) == (kind != "fine")
    assert bits == max((Fraction(x).denominator.bit_length() - 1 for x in xs), default=0)
    order = len(freq.b_seq) or 96
    reduce, general, levels = fn_core.reduced_arguments, [], {}

    def counted(spec, n, xs):
        if np.size(xs) > 1:   # not the one-point phase reduction of a constant level
            general.append(n)
        return reduce(spec, n, xs)

    def keep(start, stop, n, s):
        levels[n] = np.broadcast_to(s, (stop - start,))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fn_core, "reduced_arguments", counted)
        fn_core._level_pass(spec, xs, list(range(order)), keep)
    want_general = []
    for n in range(order):
        b_n, theta_n = Fraction(freq.value(n)), Fraction(spec.phase(n))
        constant = (b_n / 2 ** bits).denominator == 1
        lattice = ((b_n * Fraction(2) ** (63 - bits)).denominator == 1
                   and (theta_n * 2 ** 63).denominator == 1)
        if not constant and not lattice:
            want_general.append(n)
        want = g.sample(reduce(spec, n, xs))
        assert np.array_equal(levels[n].view(np.uint64), want.view(np.uint64)), n
    assert general == want_general
    # and through the kernel, on up to three threads of at least 4 points
    draw = draw_coefficients(spec, seed, order)
    with pytest.MonkeyPatch.context() as patch, worker_threads(threads):
        patch.setattr(fn_core, "_MIN_CHUNK", 4)
        got = evaluate_many(spec, draw, xs, order)
    want = oracles.evaluate_levels(spec, draw, xs, order)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
