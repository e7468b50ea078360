import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wlab import dimension, fn_core
from wlab.dimension import (
    DensityError,
    _correlation_dimension,
    _energy_verdict,
    _pair_distances_sq,
    box_count,
    box_dimension_scan,
    energy_estimate,
    energy_threshold_scan,
    write_scan_csv,
)
from wlab.fn_core import (
    GraphSample,
    build_spec,
    draw_coefficients,
    effective_order,
    fit_line,
    geometric,
    sample_graph,
    sample_graphs,
    worker_threads,
    zero_draw,
)
from wlab.rng import substream

import oracles


def _flat_sample(m):
    xs = np.arange(m) / m
    return GraphSample(xs=xs, ys=np.zeros(m), truncation_order=0, tail_bound=0.0)


def _line_sample(m):
    xs = np.arange(m) / m
    return GraphSample(xs=xs, ys=xs.copy(), truncation_order=0, tail_bound=0.0)


def _box_slope(sample, scales):
    """Box counts at the scales and the slope of log N(eps) against -log eps."""
    counts = [box_count(sample, e) for e in scales]
    return counts, fit_line(-np.log(scales), np.log(counts))[0]


def _walk_sample(rng, n, eps):
    xs = np.unique(np.sort(rng.random(n)))
    steps = rng.uniform(-0.9 * eps, 0.9 * eps, size=len(xs))
    return GraphSample(xs=xs, ys=np.cumsum(steps), truncation_order=0, tail_bound=0.0)


# ---------------------------------------------------------------------------
# box counting
# ---------------------------------------------------------------------------

def test_flat_graph_one_box_per_column():
    # dyadic m keeps the column flooring exact in floating point
    for m in [16, 128, 1024]:
        s = _flat_sample(m)
        assert box_count(s, 1.0 / m, min_points_per_column=1) == m


def test_flat_graph_nondyadic_matches_hash_oracle():
    # at m=100 float flooring merges a few columns; both paths agree exactly
    s = _flat_sample(100)
    ours = box_count(s, 0.01, min_points_per_column=1)
    assert ours == oracles.box_hash_count(s.xs, s.ys, 0.01)


def test_line_one_box_per_column():
    # half-open boxes: the diagonal enters exactly one box per column
    for m in [16, 128]:
        s = _line_sample(m)
        assert box_count(s, 1.0 / m, min_points_per_column=1) == m


def test_density_guard():
    s = _flat_sample(64)
    with pytest.raises(DensityError):
        box_count(s, 4.0 / 64)  # default needs 8 points per column
    assert box_count(s, 8.0 / 64) == 8


def test_box_count_matches_hash_oracle_on_walks():
    rng = substream(10, "box-oracle-samples")
    for _ in range(20):
        n = int(rng.integers(200, 2000))
        eps = float(rng.uniform(0.02, 0.2))
        s = _walk_sample(rng, n, eps)
        ours = box_count(s, eps, min_points_per_column=1)
        assert ours == oracles.box_hash_count(s.xs, s.ys, eps)


def test_box_count_weierstrass_matches_hash_oracle():
    # dense enough that consecutive samples cannot skip a box row
    spec = build_spec(0.8, geometric(2.0))
    draw = draw_coefficients(spec, 3, 96)
    s = sample_graph(spec, draw, 2 ** 20 + 1)
    eps = 2.0 ** -7
    ours = box_count(s, eps)
    assert ours == oracles.box_hash_count(s.xs, s.ys, eps) == 17331  # frozen


@pytest.mark.parametrize("a, b", [(0.5, 3.0), (0.8, 2.0)])
def test_scan_counts_equal_box_count_per_sample(a, b):
    # the scan finds each scale's columns once for draws sharing one xs,
    # and again for a sample on another grid; every count is box_count's
    spec = build_spec(a, geometric(b))
    order = effective_order(spec)
    scales = 2.0 ** -np.arange(3, 9)
    draws = [draw_coefficients(spec, s, order) for s in range(3)]
    samples = list(sample_graphs(spec, draws, 8 * 256 + 1))
    samples.append(sample_graph(spec, draws[0], 3001))
    want = [[box_count(s, e) for e in scales] for s in samples]
    assert dimension._scan_counts(samples, scales) == want


@pytest.mark.parametrize("xs", [[0.0, 0.5, 0.25, 0.75], [0.0, 0.25, 0.25, 0.75]],
                         ids=["unsorted", "repeated"])
def test_box_counts_reject_xs_not_strictly_increasing(xs):
    # box_count and the scan's shared-grid path check the order of xs
    s = GraphSample(xs=np.array(xs), ys=np.zeros(4), truncation_order=0, tail_bound=0.0)
    with pytest.raises(ValueError, match="xs must be strictly increasing"):
        box_count(s, 0.5, min_points_per_column=1)
    with pytest.raises(ValueError, match="xs must be strictly increasing"):
        dimension._scan_counts([s], [0.5])


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=15, deadline=None)
def test_box_count_scale_halving_property(seed):
    rng = substream(seed, "walks")
    eps = 0.1
    s = _walk_sample(rng, 3000, eps / 2)
    big = box_count(s, eps, min_points_per_column=1)
    small = box_count(s, eps / 2, min_points_per_column=1)
    assert small >= big  # refining the grid can only add boxes


def test_box_slope_line_and_flat():
    scales = [2.0 ** -k for k in range(3, 9)]
    m = 2 ** 15
    for s in (_line_sample(m), _flat_sample(m)):
        assert _box_slope(s, scales)[1] == pytest.approx(1.0, abs=0.02)


def test_box_dimension_counts_monotone_in_scale():
    spec = build_spec(0.8, geometric(2.0))
    draw = draw_coefficients(spec, 5, 96)
    s = sample_graph(spec, draw, 2 ** 15 + 1)
    counts, slope = _box_slope(s, [2.0 ** -k for k in range(4, 12)])
    assert counts == sorted(counts)  # scales descending, counts ascending
    assert all(c > 0 for c in counts)
    assert 1.0 - 0.05 <= slope <= 2.0 + 0.05


def test_box_dimension_scaling_self_consistency():
    # N(eps) within a factor 4 of N(eps/2) / 2^slope
    spec = build_spec(0.8, geometric(2.0))
    draw = draw_coefficients(spec, 5, 96)
    s = sample_graph(spec, draw, 2 ** 15 + 1)
    counts, slope = _box_slope(s, [2.0 ** -k for k in range(5, 12)])
    for c_big, c_small in zip(counts, counts[1:]):
        ratio = c_small / 2.0 ** slope
        assert c_big / 4.0 <= ratio <= c_big * 4.0


def test_doubling_density_changes_counts_little():
    # holds once columns are well resolved (hundreds of points), not at the
    # 8-point floor where the observed oscillation still grows with density
    spec = build_spec(0.8, geometric(2.0))
    eps = 2.0 ** -5
    counts = []
    for m in (2 ** 14 + 1, 2 ** 15 + 1):
        draw = draw_coefficients(spec, 9, 96)
        s = sample_graph(spec, draw, m)
        counts.append(box_count(s, eps))
    assert abs(counts[1] - counts[0]) <= 0.02 * counts[0]


def test_scales_validation():
    spec = build_spec(0.8, geometric(2.0))
    with pytest.raises(ValueError, match="octaves"):
        box_dimension_scan(spec, seeds=[1], scales=[0.5, 0.4, 0.3, 0.25])
    with pytest.raises(ValueError, match="4 scales"):
        box_dimension_scan(spec, seeds=[1], scales=[0.5, 0.25, 0.125])


def test_scan_threads_deterministic():
    # 3 * 2^14 + 1 samples: three worker threads each get a chunk
    spec = build_spec(0.8, geometric(2.0))
    scales = [2.0 ** -k for k in range(4, 8)]
    m = 3 * (1 << 14) + 1
    with worker_threads(1):
        a = box_dimension_scan(spec, seeds=[1, 2, 3], scales=scales, m=m)
    with worker_threads(3):
        b = box_dimension_scan(spec, seeds=[1, 2, 3], scales=scales, m=m)
    assert a == b


def test_scan_keeps_one_group_of_rows_alive(monkeypatch):
    # 20 draws in groups of 8 rows: besides one group's rows only xs and
    # block- or sample-sized temporaries are live, so the traced peak stays
    # below two groups' rows (20 rows alive at once would exceed it)
    spec = build_spec(0.8, geometric(2.0))
    scales = [2.0 ** -k for k in range(7, 13)]
    m = (1 << 17) + 1
    full = box_dimension_scan(spec, seeds=range(20), scales=scales, m=m)
    monkeypatch.setattr(fn_core, "_GROUP_DOUBLES", 8 * m)
    tracemalloc.start()
    try:
        grouped = box_dimension_scan(spec, seeds=range(20), scales=scales, m=m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grouped == full
    assert peak < 2 * 8 * m * 8, peak / (8 * m)


# ---------------------------------------------------------------------------
# energy estimates
# ---------------------------------------------------------------------------

def test_energy_t_zero_exact():
    spec = build_spec(0.8, geometric(2.0))
    est = energy_estimate(spec, zero_draw(), 0.0, 10 ** 4, seed=3)
    assert est.value == 1.0
    assert est.std_error == 0.0


def test_energy_estimate_temporaries():
    # the pair distances are raised to -t/2 and their standard error taken
    # in place, so only the pair draw's per-chunk temporaries come on top of
    # them; numpy's w.std would add a second n-double array.  A chunk holds
    # its x, y buffer, f at both halves and evaluate_many's own temporaries
    # (about 6 chunk arrays); concatenating x and y and building the sum
    # from fresh squares took about 8.  The small warm-up call keeps numpy's
    # one-time lazy imports on the first substream out of the traced peak.
    n = 1 << 20
    spec = build_spec(0.8, geometric(2.0))
    energy_estimate(spec, zero_draw(), 0.5, 1000, seed=5)
    tracemalloc.start()
    try:
        energy_estimate(spec, zero_draw(), 0.5, n, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n + 7 * 8 * dimension._CHUNK, peak / n


@pytest.mark.parametrize("n", [1000, 1001, 4097, 70_000])
@pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 1.5, 1.9])
def test_energy_estimate_keeps_the_bits_of_numpy_std(n, t):
    # value and std_error are w.mean() and w.std(ddof=1) / sqrt(n) of the
    # whole array of terms w, bit for bit
    spec = build_spec(0.8, geometric(2.0))
    draw = draw_coefficients(spec, 4, 12)
    est = energy_estimate(spec, draw, t, n, seed=n)
    w = _pair_distances_sq(spec, draw, n, n, "energy") ** (-0.5 * t)
    assert est.value == float(w.mean())
    assert est.std_error == float(w.std(ddof=1) / math.sqrt(n))


def test_energy_flat_closed_form():
    spec = build_spec(0.8, geometric(2.0))
    est = energy_estimate(spec, zero_draw(), 0.5, 10 ** 5, seed=7)
    target = oracles.flat_energy_closed_form(0.5)
    assert target == pytest.approx(8.0 / 3.0)
    assert abs(est.value - target) <= 3.0 * est.std_error


def test_energy_monotone_in_t():
    spec = build_spec(0.8, geometric(2.0))
    draw = draw_coefficients(spec, 5, 60)
    lo = energy_estimate(spec, draw, 0.5, 10 ** 5, seed=11)
    hi = energy_estimate(spec, draw, 1.5, 10 ** 5, seed=11)
    assert hi.value > lo.value


def test_energy_deterministic():
    spec = build_spec(0.8, geometric(2.0))
    a = energy_estimate(spec, zero_draw(), 0.5, 10 ** 4, seed=3)
    b = energy_estimate(spec, zero_draw(), 0.5, 10 ** 4, seed=3)
    assert a == b


def test_pair_redraw_gives_up_loudly(monkeypatch):
    class Zeros:
        def random(self, k):
            return np.zeros(k)

    monkeypatch.setattr(dimension, "substream", lambda *key: Zeros())
    spec = build_spec(0.8, geometric(2.0))
    with pytest.raises(RuntimeError, match="after 100 redraws"):
        energy_estimate(spec, zero_draw(), 0.5, 1000, seed=1)


@given(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=64))
@settings(max_examples=200, deadline=None)
def test_lattice_truncation_is_exact_and_in_place(us):
    # floor(u 2^36) 2^-36 against Fractions: each point moves down by less
    # than 2^-36, and no point keeps more than 36 fraction digits
    u = np.array(us)
    out = dimension._to_lattice(u)
    assert out is u
    step = Fraction(1, 2 ** 36)
    for v, w in zip(us, u.tolist(), strict=True):
        assert Fraction(w) == math.floor(Fraction(v) / step) * step
        assert 0 <= Fraction(v) - Fraction(w) < step
    assert fn_core._block_digits(u)[0] <= 36


def test_lattice_pairs_are_the_truncated_stream():
    # without a pair equal on the lattice, the pairs are the chunk's one
    # draw of 2k doubles, truncated
    xy = dimension._lattice_pairs(5, "energy", 3, 1000)
    u = substream(5, "energy", 3).random(2000)
    assert np.array_equal(xy, np.floor(u * 2.0 ** 36) * 2.0 ** -36)
    assert fn_core._block_digits(xy)[0] == 36


class _Scripted:
    """A stand-in generator whose random(k) returns the next scripted array of k doubles."""

    def __init__(self, draws):
        self.draws = [np.asarray(d, dtype=np.float64) for d in draws]

    def random(self, k):
        out = self.draws.pop(0)
        assert out.size == k
        return out.copy()


@given(j=st.integers(0, 2 ** 36 - 1),
       low=st.lists(st.integers(0, 2 ** 17 - 1), min_size=2, max_size=2, unique=True),
       redraw=st.lists(st.integers(0, 2 ** 53 - 1), min_size=2, max_size=2))
@settings(max_examples=100, deadline=None)
def test_pairs_equal_on_the_lattice_are_redrawn(j, low, redraw):
    # x and y of pair 0 are distinct doubles in one cell [j, j + 1) 2^-36, so
    # they are equal after the truncation: the pair is redrawn, and the
    # redraws land on the lattice too
    assume(redraw[0] >> 17 != redraw[1] >> 17)
    x0, y0 = ((j << 17) + lo for lo in low)
    gen = _Scripted([np.array([x0, 1 << 51, y0, 3 << 51]) * 2.0 ** -53,
                     [redraw[0] * 2.0 ** -53], [redraw[1] * 2.0 ** -53]])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dimension, "substream", lambda *key: gen)
        xy = dimension._lattice_pairs(1, "energy", 0, 2)
    assert not gen.draws
    want = [(redraw[0] >> 17) * 2.0 ** -36, 0.25, (redraw[1] >> 17) * 2.0 ** -36, 0.75]
    assert xy.tolist() == want
    assert fn_core._block_digits(xy)[0] <= 36


def test_pair_points_sample_g_at_19_levels_on_b2(monkeypatch):
    # the pair points have 36 fraction digits, so for b = 2 at order 96 the
    # levels 36 and up are constant and 19-35 table lookups: only levels
    # 0-18 evaluate g, once per point (36 levels on 53-digit doubles).  The
    # distances keep the bits of one reduction per level over the whole draw.
    spec = build_spec(0.8, geometric(2.0))
    draw = draw_coefficients(spec, 1, 96)
    n = 1 << 15
    _pair_distances_sq(spec, draw, n, 2, "energy")   # builds the table and constant levels
    points = []
    sample = fn_core.BaseFunction.sample

    def counted(self, t):
        points.append(np.size(t))
        return sample(self, t)

    with monkeypatch.context() as patch:
        patch.setattr(fn_core.BaseFunction, "sample", counted)
        d2 = _pair_distances_sq(spec, draw, n, 2, "energy")
    assert sum(points) == 19 * 2 * n
    xy = dimension._lattice_pairs(2, "energy", 0, n)
    f = oracles.evaluate_levels(spec, draw, xy, 96)
    want = (xy[:n] - xy[n:]) ** 2 + (f[:n] - f[n:]) ** 2
    assert np.array_equal(d2.view(np.uint64), want.view(np.uint64))


def test_pair_points_take_the_lane_on_b25(monkeypatch):
    # b_n = 5^n / 2^n puts level n of a 36-digit point on 2^-(36 + n), so
    # levels 0-27 take the uint64 lane and level 28 is the first to reduce
    # in full (on 53-digit doubles the lane ended at level 10)
    spec = build_spec(0.8, geometric(2.5))
    bits, _ = fn_core._block_digits(dimension._lattice_pairs(1, "energy", 0, 1 << 15))
    kinds = [fn_core._level_steps(spec, n, bits)[0] for n in range(29)]
    assert kinds == ["lane"] * 28 + ["general"]
    wide = []
    wide_lane = fn_core._wide_lane

    def counted(m, *args):
        wide.append(m.size)
        return wide_lane(m, *args)

    monkeypatch.setattr(fn_core, "_wide_lane", counted)
    _pair_distances_sq(spec, draw_coefficients(spec, 1, 28), 1 << 14, 1, "energy")
    assert wide == []


def test_energy_validation():
    spec = build_spec(0.8, geometric(2.0))
    with pytest.raises(ValueError):
        energy_estimate(spec, zero_draw(), 2.0, 10 ** 4, seed=1)
    with pytest.raises(ValueError):
        energy_estimate(spec, zero_draw(), 0.5, 10, seed=1)


def test_scan_empty_grid():
    spec = build_spec(0.8, geometric(2.0))
    assert energy_threshold_scan(spec, [], 10 ** 4, seeds=[1]) == []


def test_scan_rejects_out_of_range_t():
    spec = build_spec(0.8, geometric(2.0))
    with pytest.raises(ValueError):
        energy_threshold_scan(spec, [0.5], 10 ** 4, seeds=[1])
    with pytest.raises(ValueError):
        energy_threshold_scan(spec, [2.0], 10 ** 4, seeds=[1])


def test_scan_temporaries():
    # one n-pair array of squared distances and one working array of terms,
    # whatever the seed count: each seed's closest pairs are copied out and
    # its distances dropped before the next seed's are drawn
    n = 1 << 20
    spec = build_spec(0.8, geometric(2.0))
    for seeds in ([1, 2], [1, 2, 3, 4]):
        tracemalloc.start()
        try:
            energy_threshold_scan(spec, [1.2, 1.9], n, seeds=seeds, order=8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.0 * 8 * n, (len(seeds), peak / (8 * n))


@pytest.mark.parametrize("n_pairs, seeds", [(50_000, [1, 2, 3]), (1500, [4])])
def test_scan_matches_per_t_pooled_hill(n_pairs, seeds):
    # one Takens fit serves every t: the per-t pooled Hill index is D_c / t
    spec = build_spec(0.8, geometric(2.0))
    t_grid = [1.2, 1.4, 1.6, 1.9]
    entries = energy_threshold_scan(spec, t_grid, n_pairs, seeds=seeds, order=30)
    ref = oracles.pooled_hill_scan(spec, t_grid, n_pairs, seeds, order=30)
    for e, (t, value, se, growth, tail_index, verdict) in zip(entries, ref, strict=True):
        assert (e.t, e.value, e.growth, e.verdict) == (t, value, growth, verdict)
        assert e.std_error == se or (math.isnan(e.std_error) and math.isnan(se))
        assert e.tail_index == pytest.approx(tail_index, rel=1e-12, abs=0.0)
        assert e.t * e.tail_index == pytest.approx(e.correlation_dim, rel=1e-12, abs=0.0)
    assert len({e.correlation_dim for e in entries}) == 1


def _torus_d2(gen, n):
    d = np.abs(gen.random((2, n)) - gen.random((2, n)))
    return (np.minimum(d, 1.0 - d) ** 2).sum(axis=0)


@pytest.mark.parametrize("case, want", [("segment", 1.0), ("torus", 2.0)])
def test_correlation_dimension_known_cases(case, want):
    # the zero draw's graph is the unit segment; pairs on the flat torus have
    # P(d < r) = pi r^2 exactly for r < 1/2
    n = 10 ** 6
    if case == "segment":
        spec = build_spec(0.8, geometric(2.0))
        d2 = _pair_distances_sq(spec, zero_draw(), n, 3, "takens")
    else:
        d2 = _torus_d2(substream(3, "takens-torus"), n)
    dim, se = _correlation_dimension(d2, 2000)
    assert se == pytest.approx(dim / math.sqrt(2000))
    assert abs(dim - want) <= 3.0 * se, (dim, se)


def test_scan_verdicts_small_scale():
    # reduced-size rehearsal of the acceptance pattern
    spec = build_spec(0.8, geometric(2.0))
    entries = energy_threshold_scan(spec, [1.2, 1.9], 50_000, seeds=[1, 2, 3])
    verdicts = {e.t: e.verdict for e in entries}
    assert verdicts[1.2] == "stable"
    assert verdicts[1.9] == "diverging"
    for e in entries:
        assert e.value > 0
        assert math.isfinite(e.std_error)
        assert e.tail_index is not None


@pytest.mark.parametrize("tail_index, growth, growth_se, want", [
    (1.214, 0.079, 0.01, "stable"),      # draws 20..25 at t = 1.4: index 7 errors above 1
    (0.894, 0.0, 0.0, "diverging"),      # t = 1.9: infinite mean whatever the growth
    (0.894, 0.604, 0.05, "diverging"),
    (1.062, 0.218, 0.02, "diverging"),   # t = 1.6: index within 3 errors of 1, growth significant
    (1.062, 0.218, 0.2, "stable"),       # same growth, not significant
])
def test_energy_verdict_rule(tail_index, growth, growth_se, want):
    assert _energy_verdict(tail_index, growth, growth_se) == want


def test_scan_handles_explicit_frequencies():
    # a finite smooth sum has a dimension-1 graph, so t = 1.5 energy diverges
    from wlab.fn_core import explicit

    spec = build_spec(0.75, explicit([1, 2, 4, 8, 16], 2.0))
    entries = energy_threshold_scan(spec, [1.5], 10_000, seeds=[1, 2])
    assert entries[0].verdict == "diverging"


def test_scan_csv(tmp_path):
    spec = build_spec(0.8, geometric(2.0))
    entries = energy_threshold_scan(spec, [1.2], 10 ** 4, seeds=[1, 2])
    path = tmp_path / "scan.csv"
    write_scan_csv(path, entries)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,value,std_error,verdict"
    assert len(lines) == 2
    assert lines[1].startswith("1.2,")
