import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wlab import acceptance, fn_core, occupation
from wlab.fn_core import (
    COS,
    COS_PLUS_HALF,
    GraphSample,
    build_spec,
    draw_coefficients,
    effective_order,
    geometric,
    sample_graph,
    worker_threads,
)
from wlab.occupation import (
    AliasingError,
    adaptive_char_profile,
    char_function_mc,
    char_function_profile,
    draw_average,
    fourier_step,
    increment_half_widths,
    occupation_histogram,
    pair_product_bound,
    parseval_check,
    sinc_product,
)
from wlab.rng import substream

import oracles


def _line_sample(m=30_000):
    xs = np.linspace(0.0, 1.0, m)
    return GraphSample(xs=xs, ys=xs.copy(), truncation_order=0, tail_bound=0.0)


def _const_sample(c=0.25, m=10_000):
    xs = np.linspace(0.0, 1.0, m)
    return GraphSample(xs=xs, ys=np.full(m, c), truncation_order=0, tail_bound=0.0)


def _weier_sample(seed=3, m=2 ** 16):
    spec = build_spec(0.8, geometric(2.0))
    draw = draw_coefficients(spec, seed, 96)
    return spec, sample_graph(spec, draw, m)


# ---------------------------------------------------------------------------
# occupation histogram
# ---------------------------------------------------------------------------

def test_histogram_of_identity_is_flat():
    d = occupation_histogram(_line_sample(), 10)
    # padded edge bins are empty, interior density is 1
    assert d.weights[0] == 0.0
    inner = d.weights[1:-1]
    assert np.all(np.abs(inner - 1.0) < 0.02)
    assert d.l2_sq == pytest.approx(1.0, rel=0.02)
    assert not d.degenerate


def test_histogram_mass_sums_to_one():
    d = occupation_histogram(_line_sample(), 64)
    assert float(np.sum(d.weights) * d.bin_width) == pytest.approx(1.0, abs=1e-9)


def test_histogram_constant_is_degenerate():
    d = occupation_histogram(_const_sample(), 10)
    assert d.degenerate
    assert float(np.sum(d.weights) * d.bin_width) == pytest.approx(1.0, abs=1e-9)


def test_histogram_validation():
    with pytest.raises(ValueError):
        occupation_histogram(_line_sample(), 1)
    with pytest.raises(ValueError, match="3 bins"):
        occupation_histogram(_line_sample(), 2)  # both bins would be padding
    with pytest.raises(ValueError, match="samples"):
        occupation_histogram(_line_sample(m=500), 10)


def test_histogram_weierstrass_refinement_stability():
    _, s = _weier_sample(seed=1, m=10 ** 5)
    l128 = occupation_histogram(s, 128).l2_sq
    l256 = occupation_histogram(s, 256).l2_sq
    assert abs(l256 - l128) / l128 < 0.05


@given(st.integers(min_value=0, max_value=10 ** 5))
@settings(max_examples=10, deadline=None)
def test_histogram_mass_property(seed):
    rng = substream(seed, "hist")
    m = 2000
    xs = np.linspace(0, 1, m)
    ys = rng.normal(size=m)
    s = GraphSample(xs=xs, ys=ys, truncation_order=0, tail_bound=0.0)
    d = occupation_histogram(s, 16)
    assert float(np.sum(d.weights) * d.bin_width) == pytest.approx(1.0, abs=1e-9)
    assert np.all(d.weights >= 0.0)


# ---------------------------------------------------------------------------
# Fourier transform (the direct reference in oracles, and the recurrence)
# ---------------------------------------------------------------------------

def test_fourier_at_zero_is_one():
    prof = oracles.fourier_transform(_line_sample(), [0.0])
    assert prof.values[0] == 1.0 + 0.0j


def test_fourier_identity_closed_form():
    prof = oracles.fourier_transform(_line_sample(200_000), [math.pi, 2.0, -math.pi])
    for u, v in zip(prof.us, prof.values):
        assert v == pytest.approx(oracles.identity_char_function(u), abs=1e-4)
    assert abs(prof.values[0]) == pytest.approx(2.0 / math.pi, abs=1e-4)


def test_fourier_constant_function():
    prof = oracles.fourier_transform(_const_sample(0.0), [0.5, 3.0, 10.0])
    assert np.allclose(prof.values, 1.0)


def test_fourier_hermitian_exact():
    _, s = _weier_sample(m=20_000)
    us = [-7.0, -2.5, 2.5, 7.0]
    prof = oracles.fourier_transform(s, us)
    assert prof.values[0] == np.conj(prof.values[3])
    assert prof.values[1] == np.conj(prof.values[2])


def test_fourier_needs_frequencies():
    with pytest.raises(ValueError):
        oracles.fourier_transform(_line_sample(), [])


def test_char_profile_matches_direct_transform():
    _, s = _weier_sample(m=20_000)
    prof = char_function_profile(s, du=0.5, u_max=8.0)
    direct = oracles.fourier_transform(s, prof.us)
    assert np.allclose(prof.values, direct.values, atol=1e-10)
    assert prof.values[len(prof.us) // 2] == 1.0 + 0.0j


def test_adaptive_profile_reaches_decay():
    # the decay target must sit above the empirical noise floor ~ log(n)/m
    _, s = _weier_sample(m=2 ** 16)
    dens = occupation_histogram(s, 256)
    prof, reached = adaptive_char_profile(s, du=fourier_step(dens), decay_target=1e-3)
    assert reached
    half = len(prof.us) // 2
    tail = prof.abs_sq()[int(half * 1.5):]
    assert tail.max() < 1e-3


def test_adaptive_profile_reports_unreachable_target():
    _, s = _weier_sample(m=2 ** 14)
    prof, reached = adaptive_char_profile(s, du=0.5, decay_target=1e-7)
    assert not reached
    assert prof.us[-1] >= 4096.0


@pytest.mark.parametrize("target", [math.nan, 0.0, -1.0])
def test_adaptive_profile_rejects_a_target_it_cannot_meet(target):
    _, s = _weier_sample(m=2 ** 10)
    with pytest.raises(ValueError, match=f"decay target must be positive, got {target}"):
        adaptive_char_profile(s, du=0.5, decay_target=target)


@pytest.mark.parametrize("du", [0.0, -1.0, math.inf, math.nan])
def test_profiles_reject_a_step_that_is_not_finite_and_positive(du):
    s = _line_sample(1000)
    for build in (lambda: adaptive_char_profile(s, du=du),
                  lambda: char_function_profile(s, du=du, u_max=8.0)):
        with pytest.raises(ValueError, match=f"du must be finite and positive, got {du}"):
            build()


@pytest.mark.parametrize("u_max", [0.0, math.inf, math.nan])
def test_uniform_profile_rejects_a_range_that_is_not_finite_and_positive(u_max):
    with pytest.raises(ValueError, match=f"u_max must be finite and positive, got {u_max}"):
        char_function_profile(_line_sample(1000), du=0.5, u_max=u_max)


# ---------------------------------------------------------------------------
# Parseval
# ---------------------------------------------------------------------------

def test_parseval_identity_map():
    s = _line_sample(200_000)
    dens = occupation_histogram(s, 256)
    prof = char_function_profile(s, du=0.2, u_max=200.0)
    rep = parseval_check(dens, prof)
    assert rep.discrepancy < 0.01
    # omitted tail of (2 - 2cos u)/u^2 beyond 200 is ~ 1/(100 pi)
    assert rep.tail_estimate == pytest.approx(1.0 / (100.0 * math.pi), rel=0.5)
    assert not rep.degenerate


def test_parseval_degenerate_flagged():
    s = _const_sample(0.0)
    dens = occupation_histogram(s, 16)
    prof = char_function_profile(s, du=0.05, u_max=50.0)
    rep = parseval_check(dens, prof)
    assert rep.degenerate
    assert rep.tail_estimate == math.inf  # |mu|^2 = 1 never decays


def test_parseval_spacing_guard():
    s = _line_sample(30_000)
    dens = occupation_histogram(s, 64)  # support width ~ 1
    prof = char_function_profile(s, du=4.0, u_max=40.0)
    with pytest.raises(AliasingError):
        parseval_check(dens, prof)


def test_parseval_weierstrass_draw():
    _, s = _weier_sample(m=2 ** 17)
    dens = occupation_histogram(s, 256)
    prof, reached = adaptive_char_profile(s, du=fourier_step(dens), decay_target=1e-4)
    rep = parseval_check(dens, prof)
    assert reached
    assert rep.discrepancy < 0.10


# ---------------------------------------------------------------------------
# sinc products
# ---------------------------------------------------------------------------

def test_sinc_product_u_zero():
    spec = build_spec(0.8, geometric(2.0))
    assert sinc_product(spec, 0.1, 0.7, 0.0, 8).product == 1.0


def test_sinc_product_equal_points():
    spec = build_spec(0.8, geometric(2.0))
    sp = sinc_product(spec, 0.3, 0.3, 7.0, 8)
    assert np.all(sp.half_widths == 0.0)
    assert sp.product == 1.0


def test_sinc_single_factor_oracle():
    # a=0.5, b=2, x=0, y=1/4, u=2: half-width cos(0) - cos(pi/2) = 1,
    # so the factor is sin(2)/2
    with pytest.warns(UserWarning):
        spec = build_spec(0.5, geometric(2.0))
    sp = sinc_product(spec, 0.0, 0.25, 2.0, 1)
    assert sp.half_widths[0] == pytest.approx(1.0, abs=1e-15)
    assert sp.product == pytest.approx(math.sin(2.0) / 2.0, abs=1e-14)


def test_sinc_factor_bounds():
    spec = build_spec(0.8, geometric(2.0))
    rng = substream(17, "factors")
    for _ in range(50):
        x, y = rng.random(), rng.random()
        u = float(rng.uniform(0.1, 50.0))
        sp = sinc_product(spec, x, y, u, 12)
        assert np.all(np.abs(sp.factors) <= 1.0 + 1e-15)
        big = np.abs(u * sp.half_widths) >= 1.0
        assert np.all(np.abs(sp.factors[big]) <= 1.0 / np.abs(u * sp.half_widths[big]) + 1e-15)
        assert -1.0 <= sp.product <= 1.0


def test_sinc_tail_bound_observed():
    spec = build_spec(0.8, geometric(2.0))
    x, y, u = 0.13, 0.77, 3.0
    short = sinc_product(spec, x, y, u, 12)
    long = sinc_product(spec, x, y, u, 80)
    assert short.tail_lower_bound > 0.0
    # the omitted tail's true product stays above the reported bound
    assert long.product / short.product >= short.tail_lower_bound - 1e-12


def test_sinc_order_validation():
    spec = build_spec(0.8, geometric(2.0))
    with pytest.raises(ValueError):
        sinc_product(spec, 0.1, 0.2, 1.0, 0)


# ---------------------------------------------------------------------------
# draw-average identity
# ---------------------------------------------------------------------------

def test_char_mc_u_zero():
    spec = build_spec(0.8, geometric(2.0))
    est = char_function_mc(spec, 0.1, 0.7, 0.0, 2000, seed=1, order=10)
    assert est.mean_real == 1.0
    assert est.std_error == 0.0


def test_char_mc_equal_points():
    spec = build_spec(0.8, geometric(2.0))
    est = char_function_mc(spec, 0.4, 0.4, 9.0, 2000, seed=1, order=10)
    assert est.mean_real == 1.0
    assert est.mean_imag == 0.0


def test_char_mc_matches_sinc_product():
    spec = build_spec(0.8, geometric(2.0))
    sp = sinc_product(spec, 0.1, 0.7, 5.0, 24)
    mc = char_function_mc(spec, 0.1, 0.7, 5.0, 10 ** 5, seed=12, order=24)
    assert abs(mc.mean_real - sp.product) <= 4.0 * mc.std_error
    assert abs(mc.mean_imag) <= 4.0 * mc.std_error + 1e-12


def test_char_mc_deterministic():
    spec = build_spec(0.8, geometric(2.0))
    a = char_function_mc(spec, 0.2, 0.9, 3.0, 5000, seed=4, order=12)
    b = char_function_mc(spec, 0.2, 0.9, 3.0, 5000, seed=4, order=12)
    assert a == b


def test_char_mc_validation():
    spec = build_spec(0.8, geometric(2.0))
    with pytest.raises(ValueError):
        char_function_mc(spec, 0.1, 0.2, 1.0, 10, seed=1, order=10)


@pytest.mark.parametrize("order", [0, -2])
def test_char_mc_rejects_order_below_one(order):
    spec = build_spec(0.8, geometric(2.0))
    with pytest.raises(ValueError, match=f"order must be >= 1, got {order}"):
        char_function_mc(spec, 0.1, 0.2, 1.0, 2000, seed=1, order=order)


@pytest.mark.parametrize("half_widths, message", [(np.zeros(0), "order must be >= 1, got 0"),
                                                   (np.zeros((2, 3)), "must be 1-D")])
def test_draw_average_validation(half_widths, message):
    with pytest.raises(ValueError, match=message):
        draw_average(half_widths, 1.0, 2000, seed=1)


def test_criterion_8_computes_each_tuples_half_widths_once(monkeypatch):
    # sinc_product's half-widths feed the draw average and its rerun too
    calls = []
    half_widths = occupation.increment_half_widths

    def counted(*args):
        calls.append(args)
        return half_widths(*args)

    monkeypatch.setattr(occupation, "increment_half_widths", counted)
    acceptance.criterion_8(acceptance.QUICK)
    assert len(calls) == acceptance.QUICK.sinc_tuples == 20


# ---------------------------------------------------------------------------
# pairwise product bound
# ---------------------------------------------------------------------------

def test_pair_bound_trivial_when_scales_large():
    # with eps * u * a^n >= 1 for both cited indices the bound exceeds 1,
    # and every sinc product is <= 1 in absolute value anyway
    spec = build_spec(0.8, geometric(2.0))
    rep = pair_product_bound(spec, 0.9, 10.0, [(0.1, 0.6), (0.2, 0.9)], 0, 1,
                             order=10)
    bound = 1.0 / (0.9 ** 2 * 10.0 ** 2 * 0.8 ** 1)
    assert bound < 1.0 or rep.max_ratio <= 1.0
    assert rep.n_checked + rep.n_invalid == 2


def _level_set_pairs(spec, eps, k):
    # centres of k marked cells of the level-0 and level-1 intersection, drawn with replacement
    inter = oracles.oscillation_bits(spec, 0, eps, 512) & oracles.oscillation_bits(spec, 1, eps, 512)
    ix, iy = np.nonzero(inter)
    pick = substream(5, "pairs").integers(0, len(ix), size=k)
    return (ix[pick] + 0.5) / 512.0, (iy[pick] + 0.5) / 512.0


def test_pair_bound_on_level_set_pairs():
    spec = build_spec(0.8, geometric(2.0))
    eps, u = 0.05, 100.0
    xs, ys = _level_set_pairs(spec, eps, 1000)
    rep = pair_product_bound(spec, eps, u, list(zip(xs, ys)), 0, 1, order=30)
    assert rep.n_checked == 1000
    assert rep.n_invalid == 0
    assert rep.passed
    assert rep.max_ratio <= 1.0


def test_pair_bound_empty_is_vacuous_pass():
    spec = build_spec(0.8, geometric(2.0))
    rep = pair_product_bound(spec, 0.05, 10.0, [], 0, 1)
    assert rep.passed
    assert rep.n_checked == 0


def test_pair_bound_counts_invalid_pairs():
    spec = build_spec(0.8, geometric(2.0))
    # x = y fails the oscillation premise at every level
    rep = pair_product_bound(spec, 0.05, 10.0, [(0.3, 0.3)], 0, 1)
    assert rep.n_invalid == 1
    assert rep.n_checked == 0


def test_increment_half_widths_arrays_match_scalar_calls():
    spec = build_spec(0.8, geometric(2.0), phases=(0.1, 0.7, 0.3))
    xs, ys = _level_set_pairs(spec, 0.05, 20)
    hw = increment_half_widths(spec, xs, ys, 30)
    assert hw.shape == (20, 30)
    stacked = np.stack([increment_half_widths(spec, x, y, 30) for x, y in zip(xs, ys)])
    assert np.array_equal(hw, stacked)
    assert increment_half_widths(spec, xs.reshape(4, 5), ys.reshape(4, 5), 30).shape == (4, 5, 30)
    with pytest.raises(ValueError):
        increment_half_widths(spec, xs, ys[:3], 30)


def _pair_group(kind, p, count, rng):
    # x and y of count pairs: both on j / 2^p, Philox doubles, or on j / 2^p
    # with one x = 1e-5 (69 fraction digits) or one nan among them
    if kind == "philox":
        return np.random.Generator(np.random.Philox(int(rng.integers(1 << 32)))).random((2, count))
    xy = rng.integers(0, 1 << min(p, 53), (2, count)) * 2.0 ** -p
    if kind == "fine":
        xy[rng.integers(2), rng.integers(count)] = 1e-5
    if kind == "nan":
        xy[rng.integers(2), rng.integers(count)] = np.nan
    return xy


@given(freq=st.sampled_from([geometric(b) for b in (2, 3, 2.5, 4)]),
       phases=st.lists(st.sampled_from([0.0, 0.375, -5.5, 0.1, 2.0 ** -70]), max_size=4),
       g=st.sampled_from([COS, COS_PLUS_HALF]),
       groups=st.lists(st.tuples(st.sampled_from(["grid", "philox", "fine", "nan"]),
                                 st.integers(0, 60), st.integers(1, 11)),
                       min_size=1, max_size=5),
       threads=st.sampled_from([1, 2, 3]),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
@example(freq=geometric(2.0), phases=[0.375], g=COS, groups=[("grid", 3, 5), ("philox", 0, 6)],
         threads=3, seed=1)
@example(freq=geometric(2.5), phases=[2.0 ** -70], g=COS_PLUS_HALF,
         groups=[("grid", 17, 7), ("fine", 20, 4), ("nan", 2, 3)], threads=2, seed=2)
def test_increment_half_widths_match_whole_array_levels(freq, phases, g, groups, threads, seed):
    # blocks of 8 pairs and threads from 3 pairs each, so a group of pairs
    # straddles block and chunk bounds, and its blocks run constant, table,
    # lane and general levels; the half-widths must have the bits of one
    # reduction per level over the whole arrays
    spec = build_spec(0.8, freq, phases=phases, g=g)
    rng = np.random.default_rng(seed)
    x, y = np.concatenate([_pair_group(kind, p, count, rng) for kind, p, count in groups], axis=1)
    order = effective_order(spec, 1e-3)
    with pytest.MonkeyPatch.context() as patch, worker_threads(threads), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        patch.setattr(fn_core, "_BLOCK", 16)
        patch.setattr(fn_core, "_MIN_CHUNK", 6)
        got = increment_half_widths(spec, x, y, order)
    want = oracles.half_widths_levels(spec, x, y, order)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_increment_half_widths_memory_does_not_grow_with_the_pairs():
    # beside its (pairs, order) output, the pass holds the interleaved pairs
    # (16 bytes a pair) and a few blocks of 2^15 doubles, not a (pairs,
    # order) array of its own
    spec = build_spec(0.5, geometric(3.0))
    x, y = np.random.Generator(np.random.Philox(1)).random((2, 1 << 18))
    tracemalloc.start()
    try:
        hw = increment_half_widths(spec, x, y, 24)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - hw.nbytes <= 16 * x.size + 8 * (1 << 15) * 8, (peak - hw.nbytes) / x.size


def test_pair_bound_matches_sinc_product_loop():
    spec = build_spec(0.8, geometric(2.0), phases=(0.1, 0.7, 0.3))
    eps, u, n0, n1 = 0.05, 100.0, 0, 1
    xs, ys = _level_set_pairs(spec, eps, 20)
    pairs = list(zip(xs, ys)) + [(0.3, 0.3), (0.1, 0.6)]  # the last two fail the premise
    rep = pair_product_bound(spec, eps, u, pairs, n0, n1, order=30)
    bound = 1.0 / (eps ** 2 * u ** 2 * spec.a ** (n0 + n1))
    ratios, n_invalid = [], 0
    for x, y in pairs:
        sp = sinc_product(spec, x, y, u, 30)
        hw = sp.half_widths
        if abs(hw[n0]) < eps * spec.a ** n0 or abs(hw[n1]) < eps * spec.a ** n1:
            n_invalid += 1
        else:
            ratios.append(abs(sp.product) / bound)
    assert (rep.n_checked, rep.n_invalid) == (len(ratios), n_invalid)
    assert n_invalid == 2
    assert rep.max_ratio == pytest.approx(max(ratios), rel=1e-12)


def test_pair_bound_validation():
    spec = build_spec(0.8, geometric(2.0))
    with pytest.raises(ValueError):
        pair_product_bound(spec, 0.05, 10.0, [], 1, 1)
    with pytest.raises(ValueError):
        pair_product_bound(spec, 0.05, 10.0, [], 0, 3, order=2)


# ---------------------------------------------------------------------------
# csv emitters
# ---------------------------------------------------------------------------

def test_density_and_profile_csv(tmp_path):
    _, s = _weier_sample(m=20_000)
    dens = occupation_histogram(s, 32)
    p1 = tmp_path / "density.csv"
    dens.write_csv(p1)
    lines = p1.read_text().splitlines()
    assert lines[0] == "bin_center,density"
    assert len(lines) == 33

    prof = char_function_profile(s, du=1.0, u_max=4.0)
    p2 = tmp_path / "profile.csv"
    prof.write_csv(p2)
    lines = p2.read_text().splitlines()
    assert lines[0] == "u,re,im,abs2"
    assert len(lines) == 10  # us = -4..4 in unit steps


def test_increment_half_widths_alternate_access():
    spec = build_spec(0.8, geometric(2.0))
    hw = increment_half_widths(spec, 0.0, 0.25, 3)
    assert hw[0] == pytest.approx(math.cos(0.0) - math.cos(math.pi / 2), abs=1e-15)


def test_reports_json_serializable(tmp_path):
    import json

    _, s = _weier_sample(m=2 ** 14)
    dens = occupation_histogram(s, 64)
    prof = char_function_profile(s, du=fourier_step(dens), u_max=40.0)
    parseval = parseval_check(dens, prof)
    doc = json.loads(json.dumps(parseval.to_json_dict()))
    assert "discrepancy" in doc and "tail_estimate" in doc
