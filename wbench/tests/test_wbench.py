"""The benchmark's checks accept wlab's outputs and reject planted faults.

Run with `python3 -m pytest wbench/tests -q` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from wlab import covering, dimension, fn_core, occupation

import checks
import reference as ref
import run
import spans
import workloads
from workloads import run_cli

M = 64
EPS = 0.05
PHASES = [Fraction(k, M) for k in (0, 5, 17, 40, 63, 9)]
FREQS = [2 ** n for n in range(8)]


def phase_arg():
    return ",".join(repr(float(p)) for p in PHASES)


def test_pbm_check_rejects_one_flipped_cell(tmp_path):
    res = run_cli(tmp_path, ["cover", "--resolution", M, "--n-max", 3, "--phases", phase_arg(),
                             "--pbm", "--output", tmp_path / "cover.csv"])
    assert res.code == 0
    levels = list(ref.iterated_levels(ref.near_level_bits("cos", EPS, M), FREQS, PHASES, 3))
    checks.measures(checks.read_csv(tmp_path / "cover.csv", "n,measure"),
                    [int(b.sum()) for b in levels], M)
    pbm = tmp_path / "cover_level3.pbm"
    checks.same_bits(checks.read_pbm(pbm), levels[3], "level 3")

    raw = bytearray(pbm.read_bytes())
    cell = raw.index(b"\n", raw.index(b"\n") + 1) + 1 + 7 * (M + 1) + 11
    raw[cell] = ord("1") if raw[cell] == ord("0") else ord("0")
    pbm.write_bytes(bytes(raw))
    with pytest.raises(checks.CheckFailed, match="1 cells differ"):
        checks.same_bits(checks.read_pbm(pbm), levels[3], "level 3")


def test_density_check_rejects_one_moved_bin(tmp_path):
    samples, bins, seed = 30_000, 64, 3
    res = run_cli(tmp_path, ["occ", "--samples", samples, "--bins", bins, "--seed", seed,
                             "--decay-target", "1e-3", "--output", tmp_path / "density.csv"])
    assert res.code == 0
    spec = fn_core.build_spec(0.8, fn_core.geometric(2.0))
    draw = fn_core.draw_coefficients(spec, seed, ref.truncation_order(0.8))
    ys = fn_core.sample_graph(spec, draw, samples).ys
    lo, width, counts = ref.histogram_counts(ys, bins)
    rows = checks.read_csv(tmp_path / "density.csv", "bin_center,density")
    checks.density(rows, samples, lo, width, counts)

    k = int(np.argmax(counts))
    moved = [list(r) for r in rows]
    moved[k + 1][1] = repr(float(moved[k + 1][1]) + float(moved[k][1]))
    moved[k][1] = "0.0"
    with pytest.raises(checks.CheckFailed, match=f"bin {k} "):
        checks.density(moved, samples, lo, width, counts)


def test_series_check_rejects_f_off_by_1e9(tmp_path):
    res = run_cli(tmp_path, ["gen", "--b", "2.5", "--points", 256, "--seed", 11,
                             "--output", tmp_path / "sample.csv"])
    assert res.code == 0
    xs, ys = checks.grid_csv(checks.read_csv(tmp_path / "sample.csv", "x,y"), 256)
    idx = checks.sample_points(256, np.random.default_rng(0))
    order = ref.truncation_order(0.8)
    draw = fn_core.draw_coefficients(fn_core.build_spec(0.8, fn_core.geometric(2.5)), 11, order)
    want = ref.series_values(draw.values, ref.geometric_frequencies(2.5, order), (), "cos", xs[idx])
    checks.series(xs[idx], ys[idx], want)

    off = ys[idx].copy()
    off[5] += 1e-9
    with pytest.raises(checks.CheckFailed):
        checks.series(xs[idx], off, want)


def test_first_hit_check_rejects_swapped_levels():
    spec = fn_core.build_spec(0.8, fn_core.geometric(2.0), phases=[float(p) for p in PHASES])
    decomp = covering.first_hit_sets(spec, EPS, 4, M)
    first, second = ref.first_hit_maps("cos", FREQS, PHASES, EPS, 4, M)
    checks.first_hit(decomp, first, second, 0.8, 4)

    decomp.sets[1], decomp.sets[2] = decomp.sets[2], decomp.sets[1]
    with pytest.raises(checks.CheckFailed, match="first-hit level 1"):
        checks.first_hit(decomp, first, second, 0.8, 4)


def test_first_hit_check_rejects_growing_increments():
    # With these phases the increments from level 4 grow, so C9 must reject them.
    m = 256
    phases = [Fraction(k, m) for k in (190, 45, 143, 101, 128, 1, 162)]
    spec = fn_core.build_spec(0.8, fn_core.geometric(2.0), phases=[float(p) for p in phases])
    decomp = covering.first_hit_sets(spec, EPS, 6, m)
    first, second = ref.first_hit_maps("cos", [2 ** n for n in range(7)], phases, EPS, 6, m)
    checks.first_hit(decomp, first, second, 0.8, 6)
    with pytest.raises(checks.CheckFailed, match="increments from level 4 grow"):
        checks.first_hit(decomp, first, second, 0.8, 6, monotone=True)


def test_only_a_failed_check_counts_as_the_known_fault():
    def fail(exc):
        raise exc

    tally = run.Tally()
    wrong = workloads.Op("wrong", None, lambda: 1, lambda out: fail(checks.CheckFailed("off")), known_fault="named")
    run.run_round([wrong], tally, None, lambda msg: None)
    assert (tally.attempted, tally.failed, tally.correct) == (1, 1, True)
    crash = workloads.Op("crash", None, lambda: fail(TypeError("changed API")), lambda out: None,
                         known_fault="named")
    run.run_round([crash], tally, None, lambda msg: None)
    assert (tally.attempted, tally.failed, tally.correct) == (2, 2, False)


def test_product_bound_check_uses_exact_half_widths():
    first, second = ref.first_hit_maps("cos", FREQS, [0] * 8, EPS, 4, M)
    ij = np.argwhere((first == 1) & (second == 2))[:16]
    pairs = [((i + 0.5) / M, (j + 0.5) / M) for i, j in ij.tolist()]
    spec = fn_core.build_spec(0.8, fn_core.geometric(2.0))
    report = occupation.pair_product_bound(spec, EPS, 9.0, pairs, 1, 2, order=8)
    table = ref.g_table("cos", M)
    bound = 1.0 / (EPS ** 2 * 81.0 * 0.8 ** 3)
    ratios = []
    for i, j in ij.tolist():
        hw = np.array([0.8 ** n * (table[ref.centre_numerators(2 ** n, 0, M)[i]]
                                   - table[ref.centre_numerators(2 ** n, 0, M)[j]]) for n in range(8)])
        ratios.append(ref.sinc_ratio(hw, 9.0, bound))
    checks.product_bound(report, len(pairs), max(ratios))
    with pytest.raises(checks.CheckFailed):
        checks.product_bound(report, len(pairs), max(ratios) * (1 + 1e-6))


def test_hashed_box_counts_match_a_slow_walk():
    rng = np.random.default_rng(5)
    xs = np.sort(rng.random(500))
    ys = np.cumsum(rng.uniform(-0.09, 0.09, 500))
    span, distinct = ref.hashed_box_counts(xs, ys, 0.1)
    assert span == distinct   # steps below eps leave no gaps in a column
    sample = fn_core.GraphSample(xs=xs, ys=ys, truncation_order=0, tail_bound=0.0)
    assert span == dimension.box_count(sample, 0.1, min_points_per_column=1)


def test_tracer_counts_and_restores():
    spec = fn_core.build_spec(0.5, fn_core.geometric(3.0))
    draw = fn_core.draw_coefficients(spec, 1, 5)
    original = fn_core.evaluate_many
    tracer = spans.Tracer()
    tracer.install()
    tracer.recording = True
    try:
        fn_core.evaluate_many(spec, draw, np.array([0.0, 1e-5, 0.25, 0.5]), 5)
    finally:
        tracer.uninstall()
    assert fn_core.evaluate_many is original
    values = tracer.round_metrics()[0]
    assert values["fn_core.evaluate_many.point_terms"] == 20
    assert values["fn_core.reduced_arguments.calls"] == 5
    assert values["fn_core.reduced_arguments.scalar_points"] == 5   # x = 1e-5 at each level
    assert values["fn_core.evaluate_many.self_s"] >= 0.0
    assert set(values) <= {name for name, _ in spans.layer_metrics()}


def test_benchmark_json_lists_what_the_runner_reports():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mib"]
    per_layer = list(run.STEPS) + ["trace.overhead_s"] + [n for n, _ in spans.layer_metrics()]
    assert [m["name"] for m in doc["per_layer"]] == per_layer
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)


def test_runner_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "wbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "wbench/run.py", "--workload", "grid-cover", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
