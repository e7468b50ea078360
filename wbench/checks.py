"""Output checks: each compares one wlab output with an independent value.

Every check raises CheckFailed with a one-line reason, so the operation it
belongs to is counted as failed on its own.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import reference as ref

SERIES_TOL = 1e-11   # |f_wlab - f_mpmath|; wlab agrees to ~1e-15
COUNT_TOL = 2        # histogram bin counts may differ by edge rounding


class CheckFailed(Exception):
    """An output disagrees with its independent computation."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def read_csv(path: Path, header: str) -> list:
    text = Path(path).read_text()
    require("\r" not in text, f"{path.name}: CR line endings")
    lines = text.split("\n")
    require(lines[-1] == "", f"{path.name}: no final newline")
    require(lines[0] == header, f"{path.name}: header {lines[0]!r}, want {header!r}")
    return [line.split(",") for line in lines[1:-1]]


def read_json(path: Path) -> dict:
    return json.loads(Path(path).read_text())


def close(x: float, y: float, rel: float) -> bool:
    return abs(x - y) <= rel * max(abs(x), abs(y), 1e-300)


# ---------------------------------------------------------------------------
# series values
# ---------------------------------------------------------------------------

def coefficients(values, a: float) -> None:
    bad = [n for n, c in enumerate(values) if not abs(c) <= a ** n]
    require(not bad, f"coefficients {bad[:3]} exceed a^n")


def series(xs, got, expected, tol: float = SERIES_TOL) -> None:
    err = np.abs(np.asarray(got, dtype=np.float64) - expected)
    worst = int(np.argmax(err))
    require(err[worst] <= tol,
            f"f({float(xs[worst])!r}) = {float(got[worst])!r}, mpmath gives {float(expected[worst])!r}")


def sample_points(m: int, rng: np.random.Generator, count: int = 32) -> np.ndarray:
    """Grid indices to check: x = 0, x = 1, points below 2^-11, then random ones."""
    small = [i for i in (1, int(rng.integers(2, 64))) if i / (m - 1) < ref.SMALL_X]
    idx = {0, m - 1, *small}
    while len(idx) < min(count, m):
        idx.add(int(rng.integers(1, m - 1)))
    return np.array(sorted(idx))


def grid_csv(rows: list, m: int):
    """x,y rows of a uniform m-point grid on [0, 1]; returns (xs, ys)."""
    require(len(rows) == m, f"{len(rows)} rows, want {m}")
    xs = np.array([float(r[0]) for r in rows])
    ys = np.array([float(r[1]) for r in rows])
    require(xs[0] == 0.0 and xs[-1] == 1.0, "grid does not span [0, 1]")
    require(np.all(np.abs(xs - np.arange(m) / (m - 1)) <= 2.0 ** -52), "grid not uniform")
    return xs, ys


# ---------------------------------------------------------------------------
# box dimension
# ---------------------------------------------------------------------------

def boxdim(doc: dict, csv_rows: list, a: float, b: float, seeds: int, scales,
           first_seed_counts) -> None:
    """Artifacts of `wlab boxdim` against the fit rules and one re-counted draw.

    ``first_seed_counts`` are the column-span counts of the first seed's
    sample from hashed boxes, one per scale.
    """
    require(doc["schema"] == "wlab.boxdim/1", f"schema {doc['schema']!r}")
    require(doc["scales"] == list(scales), f"scales {doc['scales']}")
    require(len(doc["seed_slopes"]) == seeds, f"{len(doc['seed_slopes'])} seed slopes")
    predicted = 2.0 + math.log(a) / math.log(b)
    require(close(doc["predicted_d"], predicted, 1e-12), f"predicted_d {doc['predicted_d']}")
    x = -np.log(np.asarray(scales))
    counts = np.asarray(doc["counts"], dtype=np.float64)
    require(np.all(np.diff(counts) > 0), "counts do not grow as eps shrinks")
    require(close(doc["slope"], ref.least_squares_slope(x, np.log(counts)), 1e-9),
            f"slope {doc['slope']} is not the fit of the counts")
    require(close(doc["slope"], float(np.mean(doc["seed_slopes"])), 1e-9),
            "slope is not the mean of the seed slopes")
    require([[float(e), float(c)] for e, c in csv_rows] == [[e, c] for e, c in zip(scales, counts)],
            "counts CSV differs from the JSON")
    own = ref.least_squares_slope(x, np.log(np.asarray(first_seed_counts, dtype=np.float64)))
    require(close(doc["seed_slopes"][0], own, 1e-9),
            f"first seed slope {doc['seed_slopes'][0]}, hashed boxes give {own}")


def identical_files(pairs) -> None:
    for p, q in pairs:
        require(Path(p).read_bytes() == Path(q).read_bytes(), f"{Path(p).name} differs across thread counts")


# ---------------------------------------------------------------------------
# occupation density
# ---------------------------------------------------------------------------

def density(rows: list, samples: int, lo: float, width: float, counts: np.ndarray) -> None:
    """Density CSV against an independent histogram of the same sample."""
    require(len(rows) == len(counts), f"{len(rows)} bins, want {len(counts)}")
    centres = np.array([float(r[0]) for r in rows])
    dens = np.array([float(r[1]) for r in rows])
    want = lo + (np.arange(len(counts)) + 0.5) * width
    require(np.allclose(centres, want, rtol=0.0, atol=1e-9 * width), "bin centres misplaced")
    step = (centres[-1] - centres[0]) / (len(centres) - 1)
    require(abs(float(np.sum(dens)) * step - 1.0) <= 1e-9, "density does not integrate to 1")
    off = np.abs(dens * samples * width - counts)
    worst = int(np.argmax(off))
    require(off[worst] <= COUNT_TOL, f"bin {worst} holds {dens[worst] * samples * width:.1f} samples, "
                                     f"want {counts[worst]}")


def parseval(doc: dict, rows: list, l2_ref: float) -> None:
    require(doc["schema"] == "wlab.parseval/1", f"schema {doc['schema']!r}")
    require(doc["decay_target_reached"] is True, "profile did not reach its decay target")
    dens = np.array([float(r[1]) for r in rows])
    centres = np.array([float(r[0]) for r in rows])
    step = (centres[-1] - centres[0]) / (len(centres) - 1)
    require(close(doc["l2_sq"], float(np.sum(dens ** 2)) * step, 1e-9), "l2_sq differs from the density CSV")
    require(close(doc["l2_sq"], l2_ref, 1e-3), f"l2_sq {doc['l2_sq']}, histogram gives {l2_ref}")
    gap = abs(doc["fourier_integral"] - doc["l2_sq"]) / doc["l2_sq"]
    require(close(doc["discrepancy"], gap, 1e-9), "discrepancy is not |integral - l2| / l2")
    require(doc["discrepancy"] < 0.10, f"Parseval discrepancy {doc['discrepancy']:.4f} >= 0.10")


def l2_refinement(l2_coarse: float, l2_fine: float) -> None:
    change = abs(l2_fine - l2_coarse) / l2_coarse
    require(change < 0.05, f"L2 norm moves {change:.4f} from 256 to 512 bins")


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

def energy_scan(rows: list, t_grid) -> None:
    require([float(r[0]) for r in rows] == list(t_grid), "t column differs from the grid")
    for t, value, se, verdict in rows:
        require(math.isfinite(float(value)) and float(value) > 0.0, f"energy at t={t} is {value}")
        require(math.isfinite(float(se)) and float(se) > 0.0, f"std error at t={t} is {se}")
        require(verdict in ("stable", "diverging"), f"verdict {verdict!r}")
    require(rows[-1][3] == "diverging", f"t={rows[-1][0]} judged {rows[-1][3]}")


def within_errors(value: float, se: float, target: float, k: float = 3.0) -> bool:
    return abs(value - target) <= k * se


# ---------------------------------------------------------------------------
# grid sets
# ---------------------------------------------------------------------------

def read_pbm(path: Path) -> np.ndarray:
    """bits[i, j] of a plain PBM written with y rows from the top."""
    raw = Path(path).read_bytes()
    magic, dims, body = raw.split(b"\n", 2)
    require(magic == b"P1", f"{Path(path).name}: magic {magic!r}")
    w, h = (int(v) for v in dims.split())
    require(w == h and len(body) == h * (w + 1), f"{Path(path).name}: size")
    img = np.frombuffer(body, dtype=np.uint8).reshape(h, w + 1)
    require(np.all(img[:, -1] == ord("\n")), f"{Path(path).name}: row ends")
    pixels = img[:, :-1]
    require(np.all((pixels == ord("0")) | (pixels == ord("1"))), f"{Path(path).name}: pixel values")
    return (pixels == ord("1"))[::-1].T


def same_bits(got: np.ndarray, want: np.ndarray, what: str) -> None:
    require(got.shape == want.shape, f"{what}: shape {got.shape}")
    diff = np.argwhere(got != want)
    require(len(diff) == 0, f"{what}: {len(diff)} cells differ, first at {tuple(diff[0]) if len(diff) else ()}")


def measures(rows: list, counts, m: int) -> None:
    require([int(r[0]) for r in rows] == list(range(len(counts))), "level column")
    got = [float(r[1]) for r in rows]
    want = [float(c) / float(m * m) for c in counts]
    require(got == want, f"measures {got}, want {want}")
    require(all(q < p for p, q in zip(got, got[1:])), "measures not strictly decreasing")


def first_hit(decomp, first: np.ndarray, second: np.ndarray, a: float, n_max: int,
              monotone: bool = False) -> None:
    """A first-hit decomposition against exact maps; with ``monotone`` also C9:
    the partial-sum increments do not grow from second-hit level 4 on."""
    m = first.shape[0]
    levels = n_max + 1
    require(decomp.n_max_effective == n_max, f"n_max_effective {decomp.n_max_effective}")
    require(len(decomp.sets) == levels, f"{len(decomp.sets)} first-hit sets")
    for n, s in enumerate(decomp.sets):
        same_bits(s.bits, first == n, f"first-hit level {n}")
    counts = ref.pair_counts(first, second, levels)
    require(np.array_equal(decomp.pair_measures, counts / float(m * m)), "pair measures")
    require(decomp.residual_first == np.count_nonzero(first < 0) / float(m * m), "residual_first")
    require(decomp.residual_pair == np.count_nonzero(second < 0) / float(m * m), "residual_pair")
    sums, total = [], 0.0
    for n1 in range(1, levels):
        total += sum(counts[n0, n1] / float(m * m) / a ** (n0 + n1) for n0 in range(n1))
        sums.append(total)
    require(np.allclose(decomp.partial_sums, sums, rtol=1e-12, atol=0.0), "partial sums")
    if monotone:
        window = decomp.increments()[2:]   # increments()[j] belongs to level j + 2
        require(all(q <= p for p, q in zip(window, window[1:])),
                f"increments from level 4 grow: {[round(v, 6) for v in window]}")


# ---------------------------------------------------------------------------
# acceptance and product bounds
# ---------------------------------------------------------------------------

def criterion_report(stdout: str, doc: dict, cid: int) -> None:
    require(any(line.startswith(f"PASS C{cid} ") for line in stdout.splitlines()), f"no PASS line for C{cid}")
    require(doc["schema"] == "wlab.verify/1" and doc["passed"] is True, "report not passed")
    (entry,) = doc["criteria"]
    require(entry["criterion"] == cid and entry["passed"] is True, f"criterion {entry['criterion']}")


def sinc_report(details: dict, tuples: int) -> None:
    require(details["tuples"] == tuples, f"{details['tuples']} tuples")
    require(details["first_pass_failures"] <= 2, f"{details['first_pass_failures']} first-pass failures")
    require(details["rerun_failures"] == 0, f"{details['rerun_failures']} rerun failures")


def product_bound(report, n_pairs: int, max_ratio: float) -> None:
    require(report.n_invalid == 0, f"{report.n_invalid} first-hit pairs judged invalid")
    require(report.n_checked == n_pairs, f"{report.n_checked} of {n_pairs} pairs checked")
    require(report.passed and max_ratio <= 1.0, f"bound fails, max ratio {report.max_ratio}")
    require(close(report.max_ratio, max_ratio, 1e-9), f"max ratio {report.max_ratio}, want {max_ratio}")
