import math
import time
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wlab.covering import (
    CoverParams,
    GridSet,
    _far_mask,
    _membership_index,
    _period,
    cell_centers,
    cover_count,
    decay_fit,
    first_hit_sets,
    intersection_sequence,
    near_level_set,
    shrink_rate_bound,
)
from wlab.fn_core import (
    COS,
    COS_PLUS_HALF,
    FunctionSpec,
    build_spec,
    explicit,
    geometric,
    reduced_arguments,
)
from wlab.rng import substream

import oracles


def _spec_08_2():
    return build_spec(0.8, geometric(2.0))


def _full(m):
    return GridSet(np.ones((m, m), dtype=bool))


def _empty(m):
    return GridSet(np.zeros((m, m), dtype=bool))


# ---------------------------------------------------------------------------
# GridSet algebra
# ---------------------------------------------------------------------------

def test_measure_full_empty_half():
    assert _full(32).measure() == 1.0
    assert _empty(32).measure() == 0.0
    bits = np.zeros((32, 32), dtype=bool)
    bits[:16, :] = True
    assert GridSet(bits).measure() == 0.5


def test_gridset_requires_square():
    with pytest.raises(ValueError):
        GridSet(np.zeros((4, 5), dtype=bool))


def test_pbm_round_trip(tmp_path):
    bits = substream(3, "pbm").random((16, 16)) < 0.4
    s = GridSet(bits)
    path = tmp_path / "set.pbm"
    s.write_pbm(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "P1"
    assert lines[1] == "16 16"
    img = np.array([[c == "1" for c in row] for row in lines[2:]])
    assert np.array_equal(img, s.bits[::-1])


def test_pbm_orientation(tmp_path):
    # bits[j, i] is y-cell j, x-cell i; PBM rows run from the top y row down,
    # so row r is bits[m - 1 - r]
    bits = np.zeros((3, 3), dtype=bool)
    bits[0, 0] = bits[0, 1] = bits[2, 0] = bits[1, 2] = True
    path = tmp_path / "set.pbm"
    GridSet(bits).write_pbm(path)
    assert path.read_bytes() == b"P1\n3 3\n100\n001\n110\n"


@pytest.mark.parametrize("steps", [1, 2, 3])
def test_dilate_matches_periodic_window(steps):
    bits = substream(6, "dilate").random((16, 16)) < 0.04
    bits[0, 15] = bits[15, 0] = True  # exercise the wrap on both axes
    ours = GridSet(bits)
    for _ in range(steps):
        ours = ours.dilate()
    assert np.array_equal(ours.bits, oracles.brute_dilate_bits(bits, steps))


@pytest.mark.parametrize("steps", [1, 2, 3])
def test_dilate_matches_rolls_on_ragged_row_blocks(steps):
    # m = 300 does not divide the row block, so the last block is short
    m = 300
    bits = substream(6, "dilate-ragged").random((m, m)) < 0.01
    bits[0, m - 1] = bits[m - 1, 0] = True
    want = bits
    for _ in range(steps):
        for axis in (0, 1):
            want = want | np.roll(want, 1, axis=axis) | np.roll(want, -1, axis=axis)
    before = bits.copy()
    ours = GridSet(bits)
    for _ in range(steps):
        ours = ours.dilate()
    assert np.array_equal(ours.bits, want)
    assert np.array_equal(bits, before)


# ---------------------------------------------------------------------------
# near-level sets
# ---------------------------------------------------------------------------

def test_near_level_full_when_eps_dominates():
    for g in (COS, COS_PLUS_HALF):
        s = near_level_set(g, 2.0 * g.sup_abs + 0.01, 64)
        assert s.measure() == 1.0


def test_near_level_monotone_in_eps():
    prev = None
    diag = np.arange(256)
    for eps in [1.6, 0.8, 0.4, 0.2, 0.1, 0.05, 0.01]:
        s = near_level_set(COS, eps, 256)
        if prev is not None:
            assert s.measure() <= prev
        prev = s.measure()
        # the diagonal band never empties: |g(x) - g(x)| = 0 < eps
        assert np.all(s.bits[diag, diag])


def test_near_level_brute_force_fixture():
    # frozen value computed with the plain-loop oracle at M=1024, eps=0.05
    s = near_level_set(COS, 0.05, 1024)
    assert s.measure() == 0.06871795654296875
    brute = oracles.brute_near_level_bits(lambda c: np.cos(2 * np.pi * c), 0.05, 256)
    ours = near_level_set(COS, 0.05, 256)
    assert np.array_equal(ours.bits, brute)


def test_far_mask_matches_outer_difference_with_ties():
    # m = 1500 leaves a ragged last row block; the eighth-multiples tie exactly
    m = 1500
    rng = substream(5, "far-mask", 0)
    v = np.where(rng.random(m) < 0.5, rng.integers(-8, 8, m) * 0.125, rng.normal(size=m))
    eps = 0.25
    diff = np.abs(v[:, None] - v[None, :])
    assert np.any(diff == eps)
    assert np.array_equal(_far_mask(v, eps), diff >= eps)


@pytest.mark.parametrize("eps", [5e-324, 0.25, 2.9, math.inf])
@pytest.mark.parametrize("m", [1, 2, 255, 256, 257, 1500])
def test_far_mask_from_ranks_at_its_edges(m, eps):
    # m = 255/256 are the uint8/uint16 rank edges and 257 and 1500 end in a
    # ragged row block; values sit at exactly 0 +- eps and one step either
    # side of it, in runs of duplicates, at +-0.0, and for eps = inf at
    # +-1.5e308, whose difference overflows to inf and so is far
    rng = substream(7, "far-mask-ranks", m)
    v = np.where(rng.random(m) < 0.5, rng.integers(-8, 8, m) * 0.125, rng.normal(size=m))
    if eps < math.inf:
        edges = [eps, -eps]
        planted = [0.0] + edges + [math.nextafter(e, d) for e in edges for d in (-math.inf, math.inf)]
    else:
        planted = [1.5e308, -1.5e308, 0.0]
    planted += [-0.0, 0.0, -0.0]
    k = min(m, len(planted))
    v[rng.permutation(m)[:k]] = planted[:k]
    with np.errstate(over="ignore"):
        diff = np.abs(v[:, None] - v[None, :])
        got = _far_mask(v, eps)
    if m > 1:
        assert np.any(diff == eps)
    assert np.array_equal(got, diff >= eps)
    assert np.array_equal(got, got.T)


@settings(max_examples=200, deadline=None)
@given(v=arrays(np.float64, st.integers(1, 300),
                elements=st.floats(allow_nan=False, allow_infinity=False, width=64)),
       eps=st.floats(min_value=5e-324, allow_nan=False))
def test_far_mask_matches_outer_difference_on_any_finite_values(v, eps):
    with np.errstate(over="ignore"):
        want = np.abs(v[:, None] - v[None, :]) >= eps
        assert np.array_equal(_far_mask(v, eps), want)


def test_far_mask_rejects_values_that_are_not_finite():
    for bad in (math.nan, math.inf):
        with pytest.raises(AssertionError):
            _far_mask(np.array([0.0, bad, 1.0]), 0.1)


def test_far_mask_holds_no_float_block():
    # the mask's m^2 bytes plus a block of ranks of at most 2 bytes a cell
    m = 1024
    v = COS.sample(cell_centers(m))
    tracemalloc.start()
    try:
        _far_mask(v, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * m * m


@pytest.mark.parametrize("eps", [0.01, 0.05, 0.1])
@pytest.mark.parametrize("m", [256, 1458, 1500])
def test_near_level_paths_match_outer_difference_expressions(m, eps):
    # the plain cosine marks exactly the cells of its closed form
    # 2|sin^2(pi x) - sin^2(pi y)|, which equals |cos 2pi x - cos 2pi y| up to rounding
    centers = cell_centers(m)
    gv = COS_PLUS_HALF.sample(centers)
    want = GridSet(np.abs(gv[:, None] - gv[None, :]) < eps).dilate()
    assert near_level_set(COS_PLUS_HALF, eps, m) == want
    s2 = np.sin(math.pi * centers) ** 2
    want = GridSet(2.0 * np.abs(s2[:, None] - s2[None, :]) < eps).dilate()
    assert near_level_set(COS, eps, m) == want


def test_level_set_masks_build_no_float_square():
    # the traced peak stays below one float64 m x m array, and the bitmap
    # stages hold at most about one working bitmap each (bounds in m^2 bytes);
    # a larger eps leaves more cells open for longer before first_hit_sets
    # walks them as a list
    m = 1024
    spec = build_spec(0.8, geometric(2.0), g=COS_PLUS_HALF)
    a = near_level_set(COS, 0.05, m)
    # b = 2.5 has no period on the grid, so every row of every level is built
    aperiodic = build_spec(0.8, geometric(2.5), g=COS_PLUS_HALF)
    for build, bound in ((lambda: near_level_set(COS_PLUS_HALF, 0.05, m), 2.5),
                         (lambda: a.dilate(), 1.5),
                         (lambda: intersection_sequence(a, _spec_08_2(), 6), 1.5),
                         (lambda: intersection_sequence(a, aperiodic, 6), 1.5),
                         *((lambda eps=eps: first_hit_sets(spec, eps, 8, m), 6) for eps in (0.05, 0.4, 1.2)),
                         *((lambda eps=eps: first_hit_sets(aperiodic, eps, 6, m), 6) for eps in (0.05, 0.4, 1.2))):
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * m * m


def test_near_level_parameter_validation():
    with pytest.raises(ValueError):
        near_level_set(COS, 0.0, 64)
    with pytest.raises(ValueError):
        near_level_set(COS, 0.1, 1)


# ---------------------------------------------------------------------------
# cover counting
# ---------------------------------------------------------------------------

def test_cover_count_full_square():
    assert cover_count(_full(64), 0.25) == 16


def test_cover_count_empty():
    assert cover_count(_empty(64), 0.25) == 0


def test_cover_count_diagonal_band():
    # cells meeting {|x - y| < 1/M} form the tridiagonal mask
    m = 64
    idx = np.arange(m)
    bits = np.abs(idx[:, None] - idx[None, :]) <= 1
    assert cover_count(GridSet(bits), 1.0 / 8.0) == 22  # 8 diagonal + 2 * 7 neighbors


def test_cover_count_rejects_subcell_delta():
    with pytest.raises(ValueError):
        cover_count(_full(16), 1.0 / 32.0)


@pytest.mark.parametrize("delta", [2.0, 1e10, math.inf, math.nan])
def test_cover_count_rejects_delta_past_the_unit_square(delta):
    # a square wider than 1e9 got a 0 x 0 hit array and an IndexError
    assert cover_count(_full(16), 1.0) == 1
    with pytest.raises(ValueError, match=f"delta must lie in \\[1/16, 1\\].*got {delta}"):
        cover_count(_full(16), delta)


@pytest.mark.parametrize("m, cell, delta", [(100, 29, 0.3), (100, 89, 0.3), (1458, 729, 0.25), (24, 23, 1.0 / 3)])
def test_cover_count_square_edge_on_a_cell_edge(m, cell, delta):
    # the cell ends (or starts) where a square does, up to the rounding of
    # delta or of cell / (m delta), so it lies in one square
    bits = np.zeros((m, m), dtype=bool)
    bits[cell, cell] = True
    assert cover_count(GridSet(bits), delta) == 1
    assert oracles.brute_cover_count(bits, delta) == 1


@given(st.sampled_from([16, 24, 100]).flatmap(lambda m: arrays(bool, (m, m))),
       st.sampled_from([1.0 / 4, 1.0 / 8, 1.0 / 16, 0.3]))
@settings(max_examples=40, deadline=None)
def test_cover_count_matches_brute_force(bits, delta):
    # cover_count splits flat cell indices by m, so m need not be a power of two
    s = GridSet(bits)
    assert cover_count(s, delta) == oracles.brute_cover_count(bits, delta)


@given(arrays(bool, (16, 16)), st.sampled_from([1.0 / 4, 1.0 / 8, 1.0 / 16]))
@settings(max_examples=40, deadline=None)
def test_cover_consistency(bits, delta):
    s = GridSet(bits)
    assert cover_count(s, delta) * delta ** 2 >= s.measure() - 1e-12


# ---------------------------------------------------------------------------
# iterated intersections
# ---------------------------------------------------------------------------

def _levels(a, spec, n_max):
    """intersection_sequence with a copy of every level its on_level callback sees."""
    seen = []
    deepest, measures, n_eff = intersection_sequence(
        a, spec, n_max, on_level=lambda n, s: seen.append((n, GridSet(s.bits.copy()))))
    assert [n for n, _ in seen] == list(range(n_eff + 1))
    assert deepest == seen[-1][1]
    return [s for _, s in seen], measures, n_eff


def test_iterated_intersection_n0_is_identity():
    spec = _spec_08_2()
    a = near_level_set(COS, 0.05, 128)
    sets, measures, n_eff = _levels(a, spec, 0)
    assert n_eff == 0
    assert sets == [a]
    assert measures == [a.measure()]


def test_iterated_intersection_full_square_fixed_point():
    spec = _spec_08_2()
    a = _full(64)
    sets, measures, _ = _levels(a, spec, 4)
    assert sets == [a] * 5
    assert measures == [1.0] * 5


def test_iterated_intersection_brute_force_zero_phase():
    spec = _spec_08_2()
    a = near_level_set(COS, 0.05, 128)
    ours = _levels(a, spec, 3)[0][3]
    brute = oracles.brute_iterated_bits(a.bits, [1, 2, 4, 8], None, 3)
    assert np.array_equal(ours.bits, brute)
    assert ours.measure() == 0.01806640625  # frozen from the loop oracle


def test_iterated_intersection_brute_force_random_phases():
    # b = 2.5 maps cell centres to indices that are no strided tiling of the grid
    phases = (0.0, 0.37, 0.81, 0.13)
    a = near_level_set(COS, 0.08, 64)
    for b in (2.0, 2.5):
        sets = _levels(a, build_spec(0.8, geometric(b), phases=phases), 3)[0]
        for n in range(4):
            brute = oracles.brute_iterated_bits(a.bits, [b ** j for j in range(4)], [(t, t) for t in phases[1:]], n)
            assert np.array_equal(sets[n].bits, brute)


def test_intersection_sequence_blocked_gather_matches_fancy_index():
    # m = 1500 leaves a ragged last row block; b = 2.5 with phases maps cell
    # centres to indices that do not tile the grid
    m = 1500
    phases = (0.0, 0.37, 0.81, 0.13, 0.55)
    spec = build_spec(0.8, geometric(2.5), phases=phases)
    a = near_level_set(COS, 0.05, m)
    sets, measures, n_eff = _levels(a, spec, 4)
    assert n_eff == 4
    bits = a.bits.copy()
    for j in range(n_eff + 1):
        if j:
            idx = np.minimum((reduced_arguments(spec, j, cell_centers(m)) * m).astype(np.int64), m - 1)
            bits = bits & a.bits[np.ix_(idx, idx)]
        assert np.array_equal(sets[j].bits, bits)
        assert measures[j] == np.count_nonzero(bits) / m ** 2


def test_intersection_sequence_monotone_and_frozen():
    spec = _spec_08_2()
    a = near_level_set(COS, 0.05, 2048)
    sets, measures, n_eff = _levels(a, spec, 6)
    assert n_eff == 6
    assert len(sets) == 7
    assert all(m2 < m1 for m1, m2 in zip(measures, measures[1:]))
    assert all(not np.any(s.bits & ~prev.bits) for prev, s in zip(sets, sets[1:]))
    # regression fixture computed by the bitmap construction itself
    assert measures == [
        0.06508445739746094,
        0.02960491180419922,
        0.014947891235351562,
        0.007781982421875,
        0.0042781829833984375,
        0.0019855499267578125,
        0.0012521743774414062,
    ]


def test_intersection_sequence_caps_noisy_levels():
    spec = _spec_08_2()
    a = near_level_set(COS, 0.05, 64)
    with pytest.warns(UserWarning, match="capping"):
        _, measures, n_eff = intersection_sequence(a, spec, 10)
    assert n_eff == 4  # 2^4 = 16 = 64/4 allowed; 2^5 = 32 > 16 dropped
    assert len(measures) == n_eff + 1


def test_refinement_moves_measure_slightly():
    # doubling the resolution moves each level measure by < 0.02 absolute
    # (the one-cell dilation contributes a perimeter/M layer that halves)
    spec = _spec_08_2()
    m1 = intersection_sequence(near_level_set(COS, 0.05, 1024), spec, 3)[1]
    m2 = intersection_sequence(near_level_set(COS, 0.05, 2048), spec, 3)[1]
    for a, b in zip(m1, m2):
        assert b <= a  # finer grid only sheds conservative margin
        assert abs(a - b) < 0.02


# ---------------------------------------------------------------------------
# periodic levels
# ---------------------------------------------------------------------------

def test_period_of_a_tiled_array():
    tile = substream(8, "period").random(12)
    assert _period(np.tile(tile, 8)) == 12
    assert _period(np.tile([3, 1, 4, 1, 5], 3)) == 5
    assert _period(np.tile(np.arange(6), 4)) == 6
    assert _period(np.zeros(7)) == 1


def test_period_is_the_size_without_a_repeat():
    assert _period(substream(8, "period-none").random(96)) == 96
    assert _period(np.array([1, 2, 1, 2, 1])) == 5   # repeats every 2, but 2 does not divide 5
    assert _period(np.array([1.0, 2.0, 1.0, 2.0, 1.0, 2.5])) == 6
    assert _period(np.array([3])) == 1


def test_period_with_a_nan_is_the_size():
    v = np.tile([0.25, 0.5], 4)
    v[5] = np.nan
    assert _period(v) == 8
    assert _period(np.full(4, np.nan)) == 4


def test_period_takes_signed_zeros_as_equal():
    # -0.0 == 0.0, and |v_i - v_j| is the same for either, so no mask sees the sign
    assert _period(np.array([0.0, 1.0, -0.0, 1.0])) == 2


@pytest.mark.parametrize("b, m, phases, want", [
    (2.0, 2048, [0.0, 0.25, 0.5, 0.75], [2048, 1024, 512, 256, 128, 64, 32]),
    (3.0, 162, [], [162, 54, 18, 6, 2]),
    (3.0, 1458, [], [1458, 486, 162, 54, 18, 6]),
    (3.0, 1536, [], [1536, 512, 512, 512]),   # 1536 / 9 is no integer
    (2.0, 96, [], [96, 96, 96]),   # rounded centres whose images fall on cell edges
    (2.5, 256, [], [256, 256, 256, 256]),
])
def test_membership_index_periods_are_read_off_the_data(b, m, phases, want):
    spec = build_spec(0.8, geometric(b), phases=phases)
    centers = cell_centers(m)
    assert [_period(_membership_index(spec, j, centers, m)) for j in range(len(want))] == want


def test_g_at_rounded_cell_centres_has_no_period():
    # b = 3 at m = 1536: the index repeats every 512 cells, but the centres
    # (i + 0.5) / 1536 are rounded, so g at 3 x does not repeat exactly
    spec = build_spec(0.8, geometric(3.0))
    centers = cell_centers(1536)
    assert _period(_membership_index(spec, 1, centers, 1536)) == 512
    assert _period(COS.sample(reduced_arguments(spec, 1, centers))) == 1536


@pytest.mark.filterwarnings("ignore:capping")
@given(b=st.sampled_from([2.0, 3.0, 4.0, 2.5]),
       g=st.sampled_from([COS, COS_PLUS_HALF]),
       m=st.sampled_from([64, 96, 100, 162, 256]),
       on_lattice=st.booleans(),
       eps=st.sampled_from([1e-9, 0.05, 0.4, 1.2, 3.5]),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_periodic_levels_keep_the_bits_of_every_cell(b, g, m, on_lattice, eps, seed):
    # phases on the 1/m lattice keep the index periodic, and off it they
    # move the cell centres' images off the grid; first_hit_sets walks the
    # open cells as a list from level 2 on at eps = 1e-9, later or never at
    # the larger eps, and at 3.5 > |g(x) - g(y)| no cell is ever hit
    rng = substream(seed, "periodic-levels")
    n_max = 6
    phases = rng.integers(0, m, n_max + 1) / m if on_lattice else rng.random(n_max + 1)
    spec = build_spec(0.8, geometric(b), phases=phases, g=g)
    freqs = [spec.freq.value(n) for n in range(n_max + 1)]

    a = GridSet(rng.random((m, m)) < 0.9)
    sets, measures, n_eff = _levels(a, spec, n_max)
    for n in range(n_eff + 1):
        want = oracles.brute_iterated_bits(a.bits, freqs, [(t, t) for t in phases[1:]], n)
        assert np.array_equal(sets[n].bits, want)
        assert measures[n] == np.count_nonzero(want) / m ** 2

    d = first_hit_sets(spec, eps, n_max, m)
    k = d.n_max_effective + 1
    centers = cell_centers(m)
    values = np.array([oracles.g_reference(g, oracles.exact_reduced(freqs[n], phases[n], centers))
                       for n in range(k)])
    first, second = oracles.brute_first_hits(values, eps)
    assert np.array_equal(d.first, first)
    pair_measures = np.zeros((k, k))
    for n0 in range(k):
        for n1 in range(n0 + 1, k):
            pair_measures[n0, n1] = np.count_nonzero((first == n0) & (second == n1)) / float(m * m)
    assert np.array_equal(d.pair_measures, pair_measures)
    total, partial_sums = 0.0, []
    for n1 in range(1, k):
        for n0 in range(n1):
            total += pair_measures[n0, n1] / (spec.a ** n0 * spec.a ** n1)
        partial_sums.append(total)
    assert d.partial_sums == partial_sums
    assert d.residual_first == np.count_nonzero(first < 0) / float(m * m)
    assert d.residual_pair == np.count_nonzero(second < 0) / float(m * m)
    if eps > 2 * g.sup_abs:
        assert d.residual_first == d.residual_pair == 1.0


def _written_pbm(s, path):
    s.write_pbm(path)
    return path.read_bytes()


@pytest.mark.filterwarnings("ignore:capping")
@given(b=st.sampled_from([2.0, 3.0, 4.0, 2.5]),
       g=st.sampled_from([COS, COS_PLUS_HALF]),
       m=st.sampled_from([64, 96, 100, 162, 256]),
       on_lattice=st.booleans(),
       eps=st.sampled_from([0.05, 0.4]),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_library_sets_are_symmetric_and_write_the_tiled_pbm(tmp_path_factory, b, g, m, on_lattice, eps, seed):
    # near-level sets, their dilations and intersection levels, and first-hit
    # sets equal their transpose, and their PBM, a row flip, has the bytes of
    # the tiled-transpose reference writer; every operation commutes with
    # the transpose, so the image order of the bits changes no result
    path = tmp_path_factory.mktemp("pbm") / "set.pbm"

    def check(s):
        assert np.array_equal(s.bits, s.bits.T)
        assert _written_pbm(s, path) == oracles.tiled_pbm_bytes(s.bits)

    def levels(s):
        seen = []
        intersection_sequence(s, spec, n_max, on_level=lambda n, t: seen.append(t.bits.copy()))
        return seen

    rng = substream(seed, "symmetric-sets")
    n_max = 6
    phases = rng.integers(0, m, n_max + 1) / m if on_lattice else rng.random(n_max + 1)
    spec = build_spec(0.8, geometric(b), phases=phases, g=g)
    a = near_level_set(g, eps, m)
    check(a)
    check(a.dilate())
    intersection_sequence(a, spec, n_max, on_level=lambda n, s: check(s))
    for s in first_hit_sets(spec, eps, n_max, m).sets:
        check(s)
    asymmetric = GridSet(rng.random((m, m)) < 0.9)
    transposed = GridSet(asymmetric.bits.T)
    assert asymmetric != transposed
    assert np.array_equal(transposed.dilate().bits, asymmetric.dilate().bits.T)
    pairs = list(zip(levels(asymmetric), levels(transposed), strict=True))
    for bits, bits_t in pairs:
        assert np.array_equal(bits_t, bits.T)
    for bits, bits_t in [(asymmetric.bits, transposed.bits), pairs[-1]]:
        s, t = GridSet(bits), GridSet(bits_t)
        assert s.measure() == t.measure()
        for delta in (2.5 / m, 0.1):
            assert cover_count(s, delta) == cover_count(t, delta)


# ---------------------------------------------------------------------------
# shrink rate
# ---------------------------------------------------------------------------

def _phased(ratio):
    # b^n with a nonzero phase: the general rule, at ratio b
    return FunctionSpec(a=0.8, freq=geometric(ratio), phases=(0.25,))


def test_shrink_rate_integer_mode_exact():
    p = shrink_rate_bound(100, 0.01, build_spec(0.8, geometric(2.0)))
    assert p.rate == 0.01 and p.depth == 1 and p.valid


def test_shrink_rate_general_example():
    p = shrink_rate_bound(20, 0.05, _phased(2.0))
    assert p.depth == 6
    with mp.workdps(40):
        expected = float((20 * (mp.mpf("0.05") + mp.mpf(2) / 64) ** 2) ** (mp.mpf(1) / 6))
    assert p.rate == pytest.approx(expected, abs=1e-12)
    assert p.rate == pytest.approx(0.7136, abs=1e-4)


@pytest.mark.filterwarnings("ignore:shrink rate")
def test_shrink_rate_rule_follows_the_spec():
    # the integer rule N delta^2 at depth 1 exactly where spec.b_integer_theta_zero
    # holds; the general rule at ratio spec.freq.b everywhere else, b_seq included
    integer = build_spec(0.8, geometric(2.0))
    assert integer.b_integer_theta_zero
    p = shrink_rate_bound(10, 0.1, integer)
    assert (p.depth, p.rate) == (1, 10 * 0.1 ** 2)
    general = [_phased(2.0), build_spec(0.8, geometric(2.5)),
               build_spec(0.8, explicit([1, 2, 4, 8], 2.0))]
    for spec in general:
        assert not spec.b_integer_theta_zero
        ratio = spec.freq.b
        depth = _loop_depth(0.1, ratio)
        p = shrink_rate_bound(10, 0.1, spec)
        assert (p.depth, p.rate) == (depth, (10 * (0.1 + 2.0 / ratio ** depth) ** 2) ** (1.0 / depth))
    assert shrink_rate_bound(10, 0.1, general[1]).rate == pytest.approx(0.691, abs=1e-3)


@pytest.mark.filterwarnings("ignore:shrink rate")
@given(delta=st.floats(min_value=1e-4, max_value=0.9),
       ratio=st.floats(min_value=1.01, max_value=8.0))
@settings(max_examples=60, deadline=None)
def test_shrink_rate_depth_condition(delta, ratio):
    p = shrink_rate_bound(5, delta, _phased(ratio))
    assert 2.0 / (delta * ratio ** p.depth) < 1.0
    assert p.depth == 1 or 1.0 <= 2.0 / (delta * ratio ** (p.depth - 1))


def _loop_depth(delta, ratio):
    # the depth rule as one step per power of the ratio
    depth = 1
    while ratio ** depth <= 2.0 / delta:
        depth += 1
    return depth


@pytest.mark.filterwarnings("ignore:shrink rate")
def test_shrink_rate_depth_and_rate_match_the_power_loop():
    # exact powers included: ratio 2 against delta 2^-j puts 2/delta on a power of the ratio
    ratios = [2.0, 4.0, 3.0, 1.5, 2.5, 10.0, 1.01, 1.001, 1.0 + 2.0 ** -10, 1e300]
    deltas = [2.0 ** -j for j in range(1, 40)] + [0.1, 0.05, 0.3, 0.999, 1e-9, 1e-100]
    for ratio in ratios:
        for delta in deltas:
            depth = _loop_depth(delta, ratio)
            want = (5 * (delta + 2.0 / ratio ** depth) ** 2) ** (1.0 / depth)
            p = shrink_rate_bound(5, delta, _phased(ratio))
            assert (p.depth, p.rate) == (depth, want), (ratio, delta)


@pytest.mark.filterwarnings("ignore:shrink rate")
def test_shrink_rate_powers_past_the_float_range_are_larger():
    # ratio^depth past the float range exceeds 2/delta, and 2/ratio^depth is 0 there:
    # 1e300^2 against 2e300, (1.5e154)^2 against 2e154, and 1e120^3 against 2e250
    for ratio, delta, depth in ((1e300, 1e-300, 2), (1.5e154, 1e-154, 2), (1e120, 1e-250, 3)):
        p = shrink_rate_bound(5, delta, _phased(ratio))
        assert (p.depth, p.rate) == (depth, (5 * delta ** 2) ** (1.0 / depth)), ratio
    assert shrink_rate_bound(5, 1e-154, _phased(1.5e154)).rate > 0.0


def test_shrink_rate_delta_with_an_infinite_two_over_delta_is_a_value_error():
    for delta in (1e-309, 5e-324):
        assert 2.0 / delta == math.inf
        with pytest.raises(ValueError, match=f"delta {delta} is too small"):
            shrink_rate_bound(5, delta, _phased(2.0))
    # the integer rule never forms 2/delta
    assert shrink_rate_bound(5, 1e-309, build_spec(0.8, geometric(2.0))).depth == 1


@pytest.mark.filterwarnings("ignore:shrink rate")
def test_shrink_rate_depth_near_one_returns_at_once():
    # the loop took 2.8 s at 1 + 1e-7 (depth 29,957,325), and did not end in 20 s at 1 + 1e-12
    start = time.perf_counter()
    p = shrink_rate_bound(5, 0.1, _phased(1.0 + 1e-7))
    assert time.perf_counter() - start < 0.5
    assert p.depth == 29_957_325
    for ratio in (1.0 + 1e-7, 1.0 + 1e-12, 1.0 + 2.0 ** -52):
        p = shrink_rate_bound(5, 0.1, _phased(ratio))
        assert ratio ** p.depth > 2.0 / 0.1 >= ratio ** (p.depth - 1)


def test_shrink_rate_small_delta_limit():
    # along N ~ C/delta (a curve-like cover) the rate tends to 1/ratio from above
    gaps = [shrink_rate_bound(int(math.ceil(1.0 / d)), d, _phased(2.0)).rate - 0.5
            for d in (1e-2, 1e-4, 1e-6, 1e-8)]
    assert all(g > 0 for g in gaps)
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < 0.06


def test_shrink_rate_flags_useless_delta():
    with pytest.warns(UserWarning, match=">= 1"):
        p = shrink_rate_bound(100, 0.5, build_spec(0.8, geometric(2.0)))
    assert not p.valid


def test_shrink_rate_n_squares_past_the_float_range_is_a_value_error():
    integer, general = build_spec(0.8, geometric(2.0)), _phased(2.5)
    for spec in (integer, general):
        for n in (10 ** 400, 2 ** 1024):
            with pytest.raises(ValueError, match="n_squares"):
                shrink_rate_bound(n, 0.1, spec)
    # ints up to the largest float keep the bits of the rate computed on the int itself
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for n in (3, 10 ** 17 + 1, 10 ** 300, 2 ** 1024 - 2 ** 971, np.int64(2 ** 62 + 1)):
            assert shrink_rate_bound(n, 0.1, integer).rate == n * 0.1 ** 2
            p = shrink_rate_bound(n, 0.1, general)
            assert p.rate == (n * (0.1 + 2.0 / 2.5 ** p.depth) ** 2) ** (1.0 / p.depth)


def test_shrink_rate_validation():
    spec = build_spec(0.8, geometric(2.0))
    with pytest.raises(ValueError):
        shrink_rate_bound(0, 0.1, spec)
    with pytest.raises(ValueError):
        shrink_rate_bound(5, 1.5, spec)


# ---------------------------------------------------------------------------
# decay fitting
# ---------------------------------------------------------------------------

def test_decay_fit_exact_geometric():
    fit = decay_fit([1.0, 0.5, 0.25, 0.125])
    assert fit.rate == pytest.approx(0.5, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)


def test_decay_fit_constant():
    fit = decay_fit([0.25, 0.25, 0.25, 0.25])
    assert fit.rate == pytest.approx(1.0, abs=1e-12)
    assert fit.r2 == 1.0


def test_decay_fit_positive_prefix_with_warning():
    with pytest.warns(UserWarning, match="prefix"):
        fit = decay_fit([1.0, 0.5, 0.25, 0.0, 0.125])
    assert fit.rate == pytest.approx(0.5, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)  # the 0.125 past the zero is not fit


def test_decay_fit_too_short():
    with pytest.raises(ValueError):
        decay_fit([1.0, 0.5])
    with pytest.raises(ValueError):
        decay_fit([0.0, 1.0, 0.5, 0.25])


def test_decay_fit_acceptance_scale_rate():
    spec = _spec_08_2()
    a = near_level_set(COS, 0.05, 2048)
    _, measures, _ = intersection_sequence(a, spec, 6)
    assert decay_fit(measures).rate <= 0.65  # 1/b + 0.15


# ---------------------------------------------------------------------------
# first-hit decomposition
# ---------------------------------------------------------------------------

def test_first_hit_level_zero_is_the_level_set():
    # the first-hit set at 0 is the level-0 oscillation set itself, and no
    # deeper first-hit set touches it; with a full A_0 all others would empty
    spec = _spec_08_2()
    eps = 1e-9
    d = first_hit_sets(spec, eps, 3, 64)
    a0 = oracles.oscillation_bits(spec, 0, eps, 64)
    assert np.array_equal(d.sets[0].bits, a0)
    for s in d.sets[1:]:
        assert not np.any(s.bits & a0)
    # only the two symmetry diagonals of the cosine escape level 0 here
    assert d.sets[0].measure() == 1.0 - 2.0 * 64 / 64 ** 2


def test_first_hit_partition():
    spec = _spec_08_2()
    d = first_hit_sets(spec, 0.05, 5, 128)
    total = np.zeros((128, 128), dtype=int)
    for s in d.sets:
        total += s.bits.astype(int)
    assert total.max() <= 1  # pairwise disjoint
    assert total.sum() / 128 ** 2 + d.residual_first == pytest.approx(1.0)


def test_first_hit_measures_match_sets():
    spec = _spec_08_2()
    d = first_hit_sets(spec, 0.05, 4, 128)
    # pair measures sum to the measure of cells with a recorded second hit
    assert d.pair_measures.sum() == pytest.approx(1.0 - d.residual_pair)
    k = d.pair_measures.shape[0]
    lower = np.tril_indices(k)
    assert np.all(d.pair_measures[lower] == 0.0)  # only n0 < n1 populated


def test_first_hit_pair_measures_match_loop_oracle():
    # b = 1.01 keeps 279 levels at m = 64, so pair codes n0 * k + n1 reach 63561
    m, eps = 64, 0.5
    spec = build_spec(0.995, geometric(1.01))
    d = first_hit_sets(spec, eps, 278, m)
    k = d.n_max_effective + 1
    assert k == 279
    values = np.array([spec.g.sample(reduced_arguments(spec, n, cell_centers(m))) for n in range(k)])
    counts = oracles.brute_pair_counts(values, eps)
    assert np.nonzero(counts)[0].max() * k > np.iinfo(np.int16).max
    assert np.array_equal(d.pair_measures, counts / float(m * m))


def test_first_hit_residual_shrinks():
    spec = _spec_08_2()
    r3 = first_hit_sets(spec, 0.05, 3, 512).residual_first
    r10 = first_hit_sets(spec, 0.05, 10, 4096).residual_first
    assert r10 < r3


def test_first_hit_partial_sums_increase_and_flatten():
    spec = _spec_08_2()
    d = first_hit_sets(spec, 0.05, 8, 1024)
    ps = d.partial_sums
    assert all(b >= a for a, b in zip(ps, ps[1:]))
    incs = d.increments()
    assert all(b <= a + 1e-9 for a, b in zip(incs[2:], incs[3:]))


def test_first_hit_caps_and_reports():
    spec = _spec_08_2()
    with pytest.warns(UserWarning, match="capping"):
        d = first_hit_sets(spec, 0.05, 12, 256)
    assert d.n_max_effective == 6  # 2^6 = 64 = 256/4
    assert len(d.sets) == 7


@pytest.mark.parametrize("eps", [0.0, -1.0, math.nan])
def test_first_hit_rejects_a_non_positive_epsilon(eps):
    with pytest.raises(ValueError, match="epsilon must be positive"):
        first_hit_sets(_spec_08_2(), eps, 3, 64)


@pytest.mark.parametrize("resolution", [0, 1])
def test_first_hit_rejects_a_resolution_below_2(resolution):
    with pytest.raises(ValueError, match="resolution must be >= 2"):
        first_hit_sets(_spec_08_2(), 0.05, 3, resolution)


def test_first_hit_measures_csv(tmp_path):
    spec = _spec_08_2()
    d = first_hit_sets(spec, 0.05, 3, 64)
    path = tmp_path / "pairs.csv"
    d.write_measures_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n0,n1,measure"
    assert len(lines) == 1 + 3 + 2 + 1  # pairs (0,1..3), (1,2..3), (2,3)


def test_explicit_sequence_caps_at_available_levels():
    from wlab.fn_core import explicit

    spec = build_spec(0.75, explicit([1, 2, 4, 8, 16], 2.0))
    a = near_level_set(COS, 0.1, 256)
    with pytest.warns(UserWarning, match="capping"):
        _, measures, n_eff = intersection_sequence(a, spec, 10)
    assert n_eff == 4  # only 5 frequencies exist
    assert len(measures) == 5


def test_levels_past_explicit_frequencies_are_value_errors():
    from wlab.fn_core import explicit
    from wlab.occupation import sinc_product

    spec = build_spec(0.75, explicit([1, 2, 4, 8, 16], 2.0))
    with pytest.raises(ValueError, match="5 explicit frequencies"):
        sinc_product(spec, 0.1, 0.3, 1.0, 7)
