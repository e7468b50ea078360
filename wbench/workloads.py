"""The benchmark's workloads: inputs made from the seed, timed steps, checks.

A workload is a list of operations.  Each operation is one CLI command run
in-process through `wlab.cli.main`, or one public library call, together
with the check of its output.  Independent values that checks compare
against are computed once per process and reused by every round, since
each round repeats the same inputs.
"""

from __future__ import annotations

import collections
import contextlib
import io
import shutil
import zlib
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import wlab.cli
from wlab import covering, dimension, fn_core, occupation

import checks
import reference as ref

MASK64 = (1 << 64) - 1


@dataclass
class Op:
    """One timed step and the check of its output."""

    name: str
    step: str | None           # the per-step time it adds to, if any
    run: Callable[[], object]
    check: Callable[[object], None]
    prepare: Callable[[], None] | None = None   # untimed, before each run
    known_fault: str | None = None              # fails until this fault is fixed


@dataclass
class CliRun:
    command: str
    code: int
    stdout: str
    outdir: Path

    def artifact_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.outdir.iterdir())


def run_cli(outdir: Path, args) -> CliRun:
    """Invoke the `wlab` entry point in this process, capturing its output."""
    args = [str(a) for a in args]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            wlab.cli.main.main(args=args, prog_name="wlab", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return CliRun(args[0], code, buf.getvalue(), outdir)


def fresh_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


def spec_params(a, b, g="cos", b_seq=(), phases=()) -> dict:
    return {"a": a, "b": b, "g": g, "b_seq": list(b_seq), "phases": list(phases)}


def build_spec(p: dict) -> fn_core.FunctionSpec:
    freq = fn_core.explicit(p["b_seq"], p["b"]) if p["b_seq"] else fn_core.geometric(p["b"])
    return fn_core.build_spec(p["a"], freq, phases=p["phases"], g=fn_core.base_function(p["g"]))


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng([seed & MASK64, zlib.crc32(self.name.encode())])
        self.workdir = workdir
        self._cache = {}

    def cached(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def cli_op(self, name: str, step: str, args, check) -> Op:
        """An operation running `wlab <args>` with artifacts in a fresh directory."""
        outdir = self.workdir / name

        def run():
            return run_cli(outdir, [a(outdir) if callable(a) else a for a in args])

        def check_run(res: CliRun):
            checks.require(res.code == 0, f"wlab {res.command} exited {res.code}")
            check(res)

        return Op(name, step, run, check_run, prepare=lambda: fresh_dir(outdir))

    def spec_params(self) -> list:
        raise NotImplementedError

    def ops(self) -> list:
        raise NotImplementedError


def verified_sample(a: float, b: float, seed: int, m: int, idx: np.ndarray) -> fn_core.GraphSample:
    """The library's sample of one draw, its values checked against mpmath at idx."""
    spec = fn_core.build_spec(a, fn_core.geometric(b))
    order = ref.truncation_order(a)
    draw = fn_core.draw_coefficients(spec, seed, order)
    checks.coefficients(draw.values, a)
    sample = fn_core.sample_graph(spec, draw, m)
    checks.require(sample.truncation_order == order, f"order {sample.truncation_order}, want {order}")
    want = ref.series_values(draw.values, ref.geometric_frequencies(b, order), (), "cos", sample.xs[idx])
    checks.series(sample.xs[idx], sample.ys[idx], want)
    return sample


# ---------------------------------------------------------------------------
# series: fn_core on integer and non-integer frequencies
# ---------------------------------------------------------------------------

BOX_FAMILIES = ((0.8, 2.0), (0.5, 3.0))
BOX_M = (1 << 17) + 1
BOX_SEEDS = 2
BOX_SCALES = [2.0 ** -k for k in range(6, 13)]   # the CLI's default scale exponents
OCC_SAMPLES = 1 << 17
OCC_BINS = 256
ENERGY_PAIRS = 50_000
ENERGY_SEEDS = 2
ZERO_PAIRS = 10 ** 6
NEGATIVE_XS = (-1e-20, -1e-9, -0.3, -1.0, -2.5, -7.125)

GEN_POINTS = 256
RATIONAL_B = 2.5
B_SEQ = [RATIONAL_B ** n for n in range(23)]     # exact floats: 5^22 < 2^53
PAIR_CELLS = ((0, 1), (1, 2), (2, 3), (3, 5), (4, 7), (6, 7), (7, 8))
PAIRS_PER_CELL = 32
PAIR_ORDER = 24
FIRST_HIT_M = 2048
FIRST_HIT_LEVELS = 8
EPSILON = 0.05
FREQS = [2 ** n for n in range(24)]


class Series(Workload):
    """fn_core through both of its paths, and the modules that call it.

    On integer b, evaluate_many runs its fixed-point path over large sorted
    grids and random pairs: argument reduction, g, box counting and the
    profile recurrence.  On b = 2.5 and a non-integer b-seq it runs the
    scalar Fraction path, and occupation makes many one-point calls, so a
    kernel that speeds large batches but adds per-call cost shows too.
    """

    name = "series"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.box_seed, self.occ_seed, self.energy_seed, self.zero_seed, self.zero_rerun = (
            int(v) for v in self.rng.integers(1, 2 ** 31, 5))
        self.box_idx = {fam: checks.sample_points(BOX_M, self.rng) for fam in BOX_FAMILIES}
        self.occ_idx = checks.sample_points(OCC_SAMPLES, self.rng)
        self.gen_seed, self.seq_seed = (int(v) for v in self.rng.integers(1, 2 ** 31, 2))
        self.seq_phases = [float(v) for v in self.rng.random(len(B_SEQ))]
        self.gen_idx = checks.sample_points(GEN_POINTS, self.rng)
        self.seq_idx = checks.sample_points(GEN_POINTS, self.rng)
        self.us = [float(v) for v in self.rng.uniform(5.0, 40.0, len(PAIR_CELLS))]
        self.pair_seed = int(self.rng.integers(0, 2 ** 31))

    def gen_params(self) -> list:
        return [spec_params(0.8, RATIONAL_B),
                spec_params(0.8, RATIONAL_B, g="cos2", b_seq=B_SEQ, phases=self.seq_phases)]

    def spec_params(self):
        return [spec_params(a, b) for a, b in BOX_FAMILIES] + self.gen_params()

    def ops(self):
        ops = [self.cli_op(
            f"boxdim-{a}-{b:g}", "boxdim_s",
            ["boxdim", "--a", a, "--b", b, "--seed", self.box_seed, "--seeds", BOX_SEEDS,
             "--m", BOX_M, "--threads", 2, "--output", lambda d: d / "boxdim.json"],
            lambda res, a=a, b=b: self.check_boxdim(res, a, b)) for a, b in BOX_FAMILIES]
        ops.append(self.threads_op())
        ops.append(self.cli_op(
            "occ", "occ_s",
            ["occ", "--seed", self.occ_seed, "--samples", OCC_SAMPLES, "--bins", OCC_BINS,
             "--threads", 2, "--output", lambda d: d / "density.csv"],
            self.check_occ))
        ops.append(self.cli_op(
            "energy", "energy_s",
            ["energy", "--seed", self.energy_seed, "--pairs", ENERGY_PAIRS, "--seeds", ENERGY_SEEDS,
             "--threads", 2, "--output", lambda d: d / "energy.csv"],
            lambda res: checks.energy_scan(
                checks.read_csv(res.outdir / "energy.csv", "t,value,std_error,verdict"),
                [1.2, 1.4, 1.6, 1.9])))
        spec = fn_core.build_spec(0.8, fn_core.geometric(2.0))
        ops.append(Op(
            "energy-zero-draw", None,
            lambda: dimension.energy_estimate(spec, fn_core.zero_draw(), 0.5, ZERO_PAIRS, seed=self.zero_seed),
            lambda est: self.check_zero_energy(spec, est)))
        ops.append(self.negative_x_op())
        gen, seq = self.gen_params()
        ops += [
            self.cli_op("gen-b2.5", "gen_s",
                        ["gen", "--b", RATIONAL_B, "--seed", self.gen_seed, "--points", GEN_POINTS,
                         "--output", lambda d: d / "sample.csv"],
                        lambda res: self.check_gen(res, gen, self.gen_seed, self.gen_idx)),
            self.cli_op("gen-cos2-bseq", "gen_s",
                        ["gen", "--g", "cos2", "--b", RATIONAL_B, "--b-seq", ",".join(map(repr, B_SEQ)),
                         "--phases", ",".join(map(repr, self.seq_phases)), "--seed", self.seq_seed,
                         "--points", GEN_POINTS, "--output", lambda d: d / "sample.csv"],
                        lambda res: self.check_gen(res, seq, self.seq_seed, self.seq_idx)),
            self.cli_op("verify-c8", "sinc_s",
                        ["verify-all", "--profile", "quick", "--criteria", 8,
                         "--report", lambda d: d / "report.json"],
                        self.check_c8),
            self.product_bound_op(),
        ]
        return ops

    def check_boxdim(self, res: CliRun, a: float, b: float):
        def first_seed_counts():
            sample = verified_sample(a, b, self.box_seed, BOX_M, self.box_idx[(a, b)])
            spans = []
            for eps in BOX_SCALES:
                span, distinct = ref.hashed_box_counts(sample.xs, sample.ys, eps)
                checks.require(distinct <= span, f"{distinct} hashed boxes exceed the {span} column span")
                spans.append(span)
            return spans

        checks.boxdim(checks.read_json(res.outdir / "boxdim.json"),
                      checks.read_csv(res.outdir / "boxdim.csv", "eps,count"),
                      a, b, BOX_SEEDS, BOX_SCALES, self.cached(("box", a, b), first_seed_counts))

    def threads_op(self) -> Op:
        """A reduced boxdim must give byte-identical artifacts on 1 and 2 threads."""
        dirs = [self.workdir / f"boxdim-threads{t}" for t in (1, 2)]
        args = ["boxdim", "--seed", self.box_seed, "--seeds", 4, "--m", (1 << 13) + 1,
                "--min-scale-exp", 4, "--max-scale-exp", 8]

        def prepare():
            for d in dirs:
                fresh_dir(d)

        def check(runs):
            for r in runs:
                checks.require(r.code == 0, f"wlab boxdim exited {r.code}")
            checks.identical_files([(dirs[0] / f, dirs[1] / f) for f in ("boxdim.json", "boxdim.csv")])

        return Op("boxdim-threads", "boxdim_s",
                  lambda: [run_cli(d, args + ["--threads", t, "--output", d / "boxdim.json"])
                           for t, d in zip((1, 2), dirs)],
                  check, prepare=prepare)

    def check_occ(self, res: CliRun):
        def histogram():
            sample = verified_sample(0.8, 2.0, self.occ_seed, OCC_SAMPLES, self.occ_idx)
            lo, width, counts = ref.histogram_counts(sample.ys, OCC_BINS)
            _, fine_width, fine = ref.histogram_counts(sample.ys, 2 * OCC_BINS)
            return lo, width, counts, ref.l2_norm_sq(counts, width), ref.l2_norm_sq(fine, fine_width)

        lo, width, counts, l2, l2_fine = self.cached("occ", histogram)
        rows = checks.read_csv(res.outdir / "density.csv", "bin_center,density")
        checks.density(rows, OCC_SAMPLES, lo, width, counts)
        checks.parseval(checks.read_json(res.outdir / "density_parseval.json"), rows, l2)
        checks.l2_refinement(l2, l2_fine)

    def check_zero_energy(self, spec, est):
        """Within 3 standard errors of 8/3, or else on one independent rerun.

        The integrand |x - y|^(-1/2) has infinite variance, so its standard
        error is itself noisy and a single 3-error test fails on about 1% of
        seeds; a rerun on a fresh stream makes a false alarm rare.
        """
        checks.require(est.n_pairs == ZERO_PAIRS, f"{est.n_pairs} pairs")
        if checks.within_errors(est.value, est.std_error, 8.0 / 3.0):
            return
        again = dimension.energy_estimate(spec, fn_core.zero_draw(), 0.5, ZERO_PAIRS, seed=self.zero_rerun)
        checks.require(checks.within_errors(again.value, again.std_error, 8.0 / 3.0),
                       f"zero-draw energy {est.value} and {again.value}, want 8/3 within 3 errors")

    def negative_x_op(self) -> Op:
        """f of one fixed b = 3 draw at negative x, against mpmath; inputs do not use the seed."""
        spec = fn_core.build_spec(0.5, fn_core.geometric(3.0))
        order = ref.truncation_order(0.5)
        draw = fn_core.draw_coefficients(spec, 1, order)
        want = ref.series_values(draw.values, ref.geometric_frequencies(3.0, order), (), "cos", NEGATIVE_XS)
        return Op("negative-x", None,
                  lambda: fn_core.evaluate_many(spec, draw, np.array(NEGATIVE_XS), order),
                  lambda got: checks.series(NEGATIVE_XS, got, want),
                  known_fault="reduced_arguments gives 0.5 instead of 0 at x = -1e-20: "
                              "xs - floor(xs) rounds to 1.0")

    def check_gen(self, res: CliRun, params: dict, seed: int, idx: np.ndarray):
        order = ref.truncation_order(params["a"])
        if params["b_seq"]:
            order = min(order, len(params["b_seq"]))
        checks.require(f"order {order})" in res.stdout, f"order not {order}: {res.stdout.strip()!r}")
        xs, ys = checks.grid_csv(checks.read_csv(res.outdir / "sample.csv", "x,y"), GEN_POINTS)

        def expected():
            draw = fn_core.draw_coefficients(build_spec(params), seed, order)
            checks.coefficients(draw.values, params["a"])
            freqs = params["b_seq"] or ref.geometric_frequencies(params["b"], order)
            return ref.series_values(draw.values, freqs[:order], params["phases"], params["g"], xs[idx])

        checks.series(xs[idx], ys[idx], self.cached(("gen", seed), expected))

    def check_c8(self, res: CliRun):
        doc = checks.read_json(res.outdir / "report.json")
        checks.criterion_report(res.stdout, doc, 8)
        checks.sinc_report(doc["criteria"][0]["details"], tuples=20)

    def pairs(self) -> dict:
        """(n0, n1) -> (cell indices, centre pairs) drawn from that first-hit cell set at 2048."""
        def build():
            m = FIRST_HIT_M
            first, second = ref.first_hit_maps("cos", FREQS, [0] * len(FREQS), EPSILON, FIRST_HIT_LEVELS, m)
            rng = np.random.default_rng(self.pair_seed)
            out = {}
            for n0, n1 in PAIR_CELLS:
                cells = np.flatnonzero((first == n0) & (second == n1))
                checks.require(len(cells) > 0, f"no cells first hit at {n0} and next at {n1}")
                ij = np.column_stack(np.divmod(cells[rng.integers(0, len(cells), PAIRS_PER_CELL)], m))
                out[(n0, n1)] = ij, [((i + 0.5) / m, (j + 0.5) / m) for i, j in ij.tolist()]
            return out
        return self.cached("pairs", build)

    def expected_ratios(self) -> list:
        """max over pairs of |prod sinc(u h_n)| / bound, with h_n from exact indices."""
        def build():
            m, a = FIRST_HIT_M, 0.8
            table = ref.g_table("cos", m)
            nums = np.array([ref.centre_numerators(FREQS[n], 0, m) for n in range(PAIR_ORDER)])
            powers = np.array([a ** n for n in range(PAIR_ORDER)])
            out = []
            for (n0, n1), u in zip(PAIR_CELLS, self.us):
                ij = self.pairs()[(n0, n1)][0]
                hw = powers * (table[nums[:, ij[:, 0]]] - table[nums[:, ij[:, 1]]]).T
                bound = 1.0 / (EPSILON ** 2 * u ** 2 * a ** (n0 + n1))
                out.append(max(ref.sinc_ratio(row, u, bound) for row in hw))
            return out
        return self.cached("ratios", build)

    def product_bound_op(self) -> Op:
        spec = fn_core.build_spec(0.8, fn_core.geometric(2.0))

        def run():
            return [occupation.pair_product_bound(spec, EPSILON, u, self.pairs()[(n0, n1)][1], n0, n1,
                                                  order=PAIR_ORDER)
                    for (n0, n1), u in zip(PAIR_CELLS, self.us)]

        def check(reports):
            for report, want in zip(reports, self.expected_ratios()):
                checks.product_bound(report, PAIRS_PER_CELL, want)

        return Op("product-bound", "sinc_s", run, check, prepare=self.pairs)


# ---------------------------------------------------------------------------
# grid-cover
# ---------------------------------------------------------------------------

COVER_M = 2048
COVER2_M = 4096
COVER_LEVELS = 6     # the CLI's default --n-max
COUNT_DELTAS = (1 / 8, 1 / 64, 1 / 512)


class GridCover(Workload):
    """Bitmap covers, intersections, first-hit maps and PBM writing.

    f is only sampled at a few thousand cell centres, so a change to the
    reduction kernel should not move this workload.
    """

    name = "grid-cover"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # Phases on the 1/2048 lattice keep every reduced cell centre on the grid.
        self.phases = [Fraction(int(k), COVER_M) for k in self.rng.integers(0, COVER_M, FIRST_HIT_LEVELS + 1)]
        self.phase_arg = ",".join(repr(float(p)) for p in self.phases)

    def spec(self, g: str) -> dict:
        return spec_params(0.8, 2.0, g=g, phases=[float(p) for p in self.phases])

    def spec_params(self):
        return [self.spec("cos"), self.spec("cos2")]

    def levels(self, g: str, m: int) -> list:
        def build():
            a_bits = ref.near_level_bits(g, EPSILON, m)
            return list(ref.iterated_levels(a_bits, FREQS, self.phases, COVER_LEVELS))
        return self.cached(("levels", g, m), build)

    def level_counts(self, g: str, m: int) -> list:
        def build():
            a_bits = ref.near_level_bits(g, EPSILON, m)
            return [int(np.count_nonzero(b)) for b in ref.iterated_levels(a_bits, FREQS, self.phases, COVER_LEVELS)]
        return self.cached(("counts", g, m), build)

    def first_hit_maps(self, g: str, phases: list):
        return self.cached(("first-hit", g), lambda: ref.first_hit_maps(
            g, FREQS, phases, EPSILON, FIRST_HIT_LEVELS, FIRST_HIT_M))

    def ops(self):
        cover_args = ["cover", "--epsilon", EPSILON, "--phases", self.phase_arg]
        ops = [
            self.cli_op("cover-cos", "cover_s",
                        cover_args + ["--g", "cos", "--resolution", COVER_M, "--pbm",
                                      "--output", lambda d: d / "cover.csv"],
                        self.check_cover_pbm),
            self.cli_op("cover-cos2", "cover_s",
                        cover_args + ["--g", "cos2", "--resolution", COVER2_M,
                                      "--output", lambda d: d / "cover.csv"],
                        lambda res: checks.measures(checks.read_csv(res.outdir / "cover.csv", "n,measure"),
                                                    self.level_counts("cos2", COVER2_M), COVER2_M)),
        ]
        # cos without phases is the function of C9, whose increments must shrink;
        # with seeded phases they need not (2 of 100 seeds break it).
        for g, phases in (("cos", [0] * (FIRST_HIT_LEVELS + 1)), ("cos2", self.phases)):
            spec = build_spec(spec_params(0.8, 2.0, g=g, phases=[float(p) for p in phases]))
            ops.append(Op(f"first-hit-{g}", "first_hit_s",
                          lambda spec=spec: covering.first_hit_sets(spec, EPSILON, FIRST_HIT_LEVELS, FIRST_HIT_M),
                          lambda res, g=g, phases=phases: checks.first_hit(
                              res, *self.first_hit_maps(g, phases), 0.8, FIRST_HIT_LEVELS,
                              monotone=not any(phases))))
        ops.append(self.cover_count_op())
        return ops

    def check_cover_pbm(self, res: CliRun):
        levels = self.levels("cos", COVER_M)
        rows = checks.read_csv(res.outdir / "cover.csv", "n,measure")
        checks.measures(rows, [int(np.count_nonzero(b)) for b in levels], COVER_M)
        for n, bits in enumerate(levels):
            checks.same_bits(checks.read_pbm(res.outdir / f"cover_level{n}.pbm"), bits, f"level {n} PBM")
        checks.require(not (res.outdir / f"cover_level{len(levels)}.pbm").exists(), "extra PBM level")

    def cover_count_op(self) -> Op:
        """cover_count on the deepest cos level, against whole-block counts."""
        def grid_set():
            def build():
                levels = ref.iterated_levels(ref.near_level_bits("cos", EPSILON, COVER_M), FREQS, self.phases,
                                             COVER_LEVELS)
                return covering.GridSet(collections.deque(levels, maxlen=1)[0])
            return self.cached("count-set", build)

        def check(counts):
            bits = grid_set().bits
            want = [ref.cover_count_blocks(bits, d) for d in COUNT_DELTAS]
            checks.require(counts == want, f"cover counts {counts}, want {want}")

        return Op("cover-count", None,
                  lambda: [covering.cover_count(grid_set(), d) for d in COUNT_DELTAS],
                  check, prepare=grid_set)


WORKLOADS = {w.name: w for w in (Series, GridCover)}
