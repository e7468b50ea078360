"""One-shot verification suite: every exit criterion as an executable check.

Each criterion function returns a CriterionResult with the measured numbers
so failures are diagnosable; `run_all` drives them in order.  The `desk`
profile is the official gate; `quick` shrinks sizes for smoke runs and is
not a substitute.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import covering, dimension, fn_core, occupation
from .rng import substream


@dataclass(frozen=True)
class AcceptanceProfile:
    name: str
    dim_seeds: int = 8
    dim_scale_exps: tuple = (6, 12)
    dim_samples: int = (1 << 17) + 1
    cover_resolution: int = 2048
    cover_n_max: int = 6
    energy_pairs: int = 10 ** 6
    scan_pairs: int = 400_000
    scan_seeds: int = 6
    l2_samples: int = 10 ** 6
    l2_seeds: int = 4
    parseval_m: int = 200_001
    parseval_weier_m: int = 1 << 17
    parseval_decay_target: float = 1e-4
    sinc_tuples: int = 100
    sinc_draws: int = 60_000
    series_n_max: int = 8
    oracle_samples: int = 20


DESK = AcceptanceProfile(name="desk")
QUICK = AcceptanceProfile(
    name="quick",
    dim_seeds=2,
    dim_scale_exps=(4, 8),
    dim_samples=(1 << 13) + 1,
    cover_resolution=512,
    cover_n_max=5,
    energy_pairs=10 ** 5,
    scan_pairs=100_000,
    scan_seeds=3,
    l2_samples=10 ** 5,
    l2_seeds=2,
    parseval_m=50_001,
    parseval_weier_m=1 << 15,
    parseval_decay_target=1e-3,
    sinc_tuples=20,
    sinc_draws=20_000,
    series_n_max=6,
    oracle_samples=8,
)

PROFILES = {"desk": DESK, "quick": QUICK}


@dataclass
class CriterionResult:
    cid: int
    title: str
    passed: bool
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        info = " ".join(f"{k}={v}" for k, v in self.details.items())
        return f"{status} C{self.cid} {self.title}: {info}"

    def to_json_dict(self) -> dict:
        # wall-clock time deliberately excluded: reports from identical
        # configurations must be byte-identical
        return {
            "criterion": self.cid,
            "title": self.title,
            "passed": self.passed,
            "details": self.details,
        }


def _weierstrass_spec(a: float = 0.8, b: float = 2.0) -> fn_core.FunctionSpec:
    return fn_core.build_spec(a, fn_core.geometric(b))


def criterion_1(profile: AcceptanceProfile) -> CriterionResult:
    """Box-dimension slope within 0.10 of the predicted value for two families.

    Each family's run also carries a 60 s budget.
    """
    lo, hi = profile.dim_scale_exps
    scales = [2.0 ** -k for k in range(lo, hi + 1)]
    details = {}
    passed = True
    for a, b in [(0.8, 2.0), (0.5, 3.0)]:
        t_set = time.time()
        spec = _weierstrass_spec(a, b)
        est = dimension.box_dimension_scan(
            spec, seeds=range(1, profile.dim_seeds + 1), scales=scales,
            m=profile.dim_samples,
        )
        elapsed = time.time() - t_set
        err = abs(est.slope - est.predicted_d)
        details[f"slope_{a}_{b}"] = round(est.slope, 4)
        details[f"predicted_{a}_{b}"] = round(est.predicted_d, 4)
        details[f"err_{a}_{b}"] = round(err, 4)
        passed &= err <= 0.10 and elapsed <= 60.0
    return CriterionResult(1, "dimension reproduction", passed, details)


def criterion_2(profile: AcceptanceProfile) -> CriterionResult:
    """Iterated-intersection measures strictly decreasing with decay rate <= 0.65."""
    t0 = time.time()
    spec = _weierstrass_spec()
    a_set = covering.near_level_set(spec.g, 0.05, profile.cover_resolution)
    _, measures, n_eff = covering.intersection_sequence(a_set, spec, profile.cover_n_max)
    strict = all(m2 < m1 for m1, m2 in zip(measures, measures[1:]))
    fit = covering.decay_fit(measures)
    passed = (strict and n_eff == profile.cover_n_max and fit.rate <= 0.65
              and time.time() - t0 <= 30.0)
    return CriterionResult(
        2, "covering decay", passed,
        {
            "measures": [round(m, 6) for m in measures],
            "strictly_decreasing": strict,
            "rate": round(fit.rate, 4),
            "rate_limit": 0.65,
        },
    )


def criterion_3(profile: AcceptanceProfile) -> CriterionResult:
    """Integer-ratio shrink rate equals N * delta^2 exactly on random inputs."""
    rng = substream(3, "shrink-rate-inputs")
    exact = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # rate >= 1 is in-scope here
        for _ in range(100):
            n = int(rng.integers(1, 1000))
            delta = float(rng.uniform(1e-3, 0.5))
            params = covering.shrink_rate_bound(n, delta, 2.0, mode="integer_b")
            if params.rate == n * delta ** 2 and params.depth == 1:
                exact += 1
    return CriterionResult(
        3, "integer-ratio rate reduction", exact == 100,
        {"exact_matches": exact, "of": 100},
    )


def criterion_4(profile: AcceptanceProfile) -> CriterionResult:
    """Energy of the zero function at t = 0.5 within 3 errors of 8/3 (uniform pairs on 2^-36)."""
    t0 = time.time()
    spec = _weierstrass_spec()
    est = dimension.energy_estimate(spec, fn_core.zero_draw(), 0.5,
                                    profile.energy_pairs, seed=7)
    target = 8.0 / 3.0
    dev = abs(est.value - target)
    passed = dev <= 3.0 * est.std_error and time.time() - t0 <= 10.0
    return CriterionResult(
        4, "energy closed-form oracle", passed,
        {
            "value": round(est.value, 5),
            "target": round(target, 5),
            "std_error": round(est.std_error, 6),
            "deviation_in_errors": round(dev / est.std_error, 2),
        },
    )


def criterion_5(profile: AcceptanceProfile) -> CriterionResult:
    """Scan verdicts over uniform pairs on 2^-36: t = 1.2 and 1.4 stable, t = 1.9 diverging."""
    spec = _weierstrass_spec()
    entries = dimension.energy_threshold_scan(
        spec, [1.2, 1.4, 1.6, 1.9], profile.scan_pairs,
        seeds=range(1, profile.scan_seeds + 1),
    )
    verdicts = {e.t: e.verdict for e in entries}
    passed = (
        verdicts[1.2] == "stable"
        and verdicts[1.4] == "stable"
        and verdicts[1.9] == "diverging"
    )
    return CriterionResult(
        5, "energy threshold behavior", passed,
        {
            "verdicts": verdicts,
            "tail_indices": {e.t: round(e.tail_index, 3) for e in entries},
            "correlation_dim": round(entries[0].correlation_dim, 3),
        },
    )


def criterion_6(profile: AcceptanceProfile) -> CriterionResult:
    """Occupation L2 norm moves < 5% under bin refinement, for each seed."""
    spec = _weierstrass_spec()
    order = fn_core.effective_order(spec)
    draws = [fn_core.draw_coefficients(spec, seed, order)
             for seed in range(1, profile.l2_seeds + 1)]
    changes = {}
    passed = True
    for draw, sample in zip(draws, fn_core.sample_graphs(spec, draws, profile.l2_samples)):
        l_coarse = occupation.occupation_histogram(sample, 256).l2_sq
        l_fine = occupation.occupation_histogram(sample, 512).l2_sq
        change = abs(l_fine - l_coarse) / l_coarse
        changes[draw.seed] = round(change, 5)
        passed &= change < 0.05
    return CriterionResult(
        6, "occupation L2 refinement stability", passed,
        {"rel_changes_256_to_512": changes, "limit": 0.05},
    )


def criterion_7(profile: AcceptanceProfile) -> CriterionResult:
    """Parseval: < 1% for the identity map at u_max = 200, < 10% for a draw."""
    xs = np.linspace(0.0, 1.0, profile.parseval_m)
    line = fn_core.GraphSample(xs=xs, ys=xs.copy(), truncation_order=0, tail_bound=0.0)
    dens = occupation.occupation_histogram(line, 256)
    prof = occupation.char_function_profile(line, du=0.2, u_max=200.0)
    rep_line = occupation.parseval_check(dens, prof)

    spec = _weierstrass_spec()
    order = fn_core.effective_order(spec)
    draw = fn_core.draw_coefficients(spec, 3, order)
    sample = fn_core.sample_graph(spec, draw, profile.parseval_weier_m)
    densw = occupation.occupation_histogram(sample, 256)
    profw, reached = occupation.adaptive_char_profile(
        sample, du=occupation.fourier_step(densw), decay_target=profile.parseval_decay_target)
    rep_weier = occupation.parseval_check(densw, profw)

    passed = rep_line.discrepancy < 0.01 and reached and rep_weier.discrepancy < 0.10
    return CriterionResult(
        7, "Parseval cross-check", passed,
        {
            "line_discrepancy": round(rep_line.discrepancy, 5),
            "weier_discrepancy": round(rep_weier.discrepancy, 5),
            "weier_u_max": float(profw.us[-1]),
            "decay_target_reached": reached,
        },
    )


def criterion_8(profile: AcceptanceProfile) -> CriterionResult:
    """Sinc product equals the draw average within 4 errors, rare reruns allowed."""
    rng = substream(2024, "sinc-tuples")
    failures = 0
    rerun_failures = 0
    order = 24
    for i in range(profile.sinc_tuples):
        b = float(rng.choice([2.0, 2.5, 3.0, 4.0]))
        a = float(rng.uniform(max(0.35, 1.05 / b), 0.9))
        x, y = float(rng.random()), float(rng.random())
        u = float(rng.uniform(0.5, 25.0))
        spec = fn_core.build_spec(a, fn_core.geometric(b))
        sp = occupation.sinc_product(spec, x, y, u, order)
        # char_function_mc on the half-widths sinc_product already has
        mc = occupation.draw_average(sp.half_widths, u, profile.sinc_draws, seed=9000 + i)
        if abs(mc.mean_real - sp.product) > 4.0 * mc.std_error:
            failures += 1
            retry = occupation.draw_average(sp.half_widths, u, profile.sinc_draws, seed=90_000 + i)
            if abs(retry.mean_real - sp.product) > 4.0 * retry.std_error:
                rerun_failures += 1
    passed = failures <= 2 and rerun_failures == 0
    return CriterionResult(
        8, "sinc identity vs draw average", passed,
        {
            "tuples": profile.sinc_tuples,
            "first_pass_failures": failures,
            "rerun_failures": rerun_failures,
        },
    )


def criterion_9(profile: AcceptanceProfile) -> CriterionResult:
    """First-hit series increments shrink monotonically from n_max 4 to 8."""
    spec = _weierstrass_spec()
    decomp = covering.first_hit_sets(spec, 0.05, profile.series_n_max,
                                     profile.cover_resolution)
    # increments()[j] is the contribution of second-hit level n1 = j + 2
    incs = decomp.increments()
    lo = min(4, decomp.n_max_effective)
    window = incs[lo - 2:]
    mono = all(b <= a for a, b in zip(window, window[1:]))
    passed = mono and decomp.n_max_effective == profile.series_n_max
    return CriterionResult(
        9, "first-hit series convergence", passed,
        {
            "partial_sums": [round(v, 5) for v in decomp.partial_sums],
            "increments_from_4": [round(v, 6) for v in window],
            "monotone": mono,
        },
    )


def criterion_10(profile: AcceptanceProfile) -> CriterionResult:
    """Column counting matches the box-hash oracle; the cosine near-level set matches its closed form."""
    rng = substream(10, "box-oracle-samples")
    matches = 0
    for _ in range(profile.oracle_samples):
        n = int(rng.integers(200, 2000))
        eps = float(rng.uniform(0.02, 0.2))
        xs = np.sort(rng.random(n))
        xs = np.unique(xs)
        steps = rng.uniform(-0.9 * eps, 0.9 * eps, size=len(xs))
        ys = np.cumsum(steps)
        sample = fn_core.GraphSample(xs=xs, ys=ys, truncation_order=0, tail_bound=0.0)
        fast = dimension.box_count(sample, eps, min_points_per_column=1)
        y0 = math.floor(float(ys.min()) / eps) * eps
        boxes = {(math.floor(x / eps), math.floor((y - y0) / eps))
                 for x, y in zip(xs, ys)}
        if fast == len(boxes):
            matches += 1

    # cos 2pi x - cos 2pi y == 2 (sin^2 pi y - sin^2 pi x) identically
    s2 = np.sin(math.pi * covering.cell_centers(256)) ** 2
    closed = covering.GridSet(2.0 * np.abs(s2[:, None] - s2[None, :]) < 0.05).dilate()
    lib_set = covering.near_level_set(fn_core.COS, 0.05, 256)
    within = lib_set.contains_within(closed) and closed.contains_within(lib_set)
    sym_diff = (lib_set ^ closed).measure()
    passed = matches == profile.oracle_samples and within
    return CriterionResult(
        10, "oracle equivalence", passed,
        {
            "box_hash_matches": matches,
            "of": profile.oracle_samples,
            "paths_within_fringe": within,
            "sym_diff_measure": sym_diff,
        },
    )


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
}


def run_all(profile: AcceptanceProfile = DESK, criteria=None) -> list:
    """Run the requested criteria (all by default) and return their results."""
    selected = sorted(CRITERIA) if criteria is None else sorted(criteria)
    results = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for cid in selected:
            results.append(CRITERIA[cid](profile))
    return results
