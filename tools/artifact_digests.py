"""Print a SHA-256 digest of every artifact wlab writes, for byte-identity checks.

Runs each CLI command at its defaults (plus a non-integer b, an explicit
frequency sequence with phases, as a CSV and as JSON, whose spec dict holds
freq_mode "explicit" and the b_seq, a phased gen on integer b, a phased cover,
a phased cover on b = 2.5 with PBMs, whose cell indices do not tile the
grid, a cos2 cover with PBMs,
a boxdim of 40 draws at m = 2^17 + 1, whose rows span two draw groups,
a gen whose points, b, phases and g come from a --config file, and gens
on the dyadic grid j / 4096 for b = 4 with phases and for b = 6, whose
levels turn constant once 2^12 divides b_n, and a gen on j / 256 for
b = 2.5 with phases on the 2^-15 lattice, whose levels 0-9 look g up in
its table, and a gen on the integer --b-seq 1,3,10,...,1000 with phases,
whose levels 1-6 reduce on the uint64 lane split once per block, while
level 0, whose phase 1e-30 has over 63 fraction digits, reduces in full,
and a cover with PBMs on b = 3 at m = 1458 = 2 3^6, whose membership
indices at levels 1-5 repeat every 486, 162, 54, 18 and 6 rows)
into a temporary directory, then calls the writers only the library
reaches (first-hit decompositions for zero-phase cos and phased cos2,
both on b = 2, whose levels repeat every m / 2^n rows, and for b = 3 at
m = 1458, whose g values at the rounded cell centres do not repeat, so
every row of every level is tested; each writes its pair measures to
``<case>.csv`` and the bytes of its whole m x m first-hit map, int16
little-endian in row-major order, to ``<case>.first.i16``; the phased
cos2 case also writes the PBM of its first-hit set at level 1 to
``first_hit_cos2.set1.pbm``, a PBM from a second constructor of
symmetric sets besides the cover's near-level sets and levels; a
characteristic-function profile; and the sample_graph CSV of the base
function cos + 0.2 cos(7 .), which no CLI option names, on j / 256 for
b = 2.5 with phases on the 2^-15 lattice, so that its levels 0-9 look
it up in its own table; and the raw little-endian float64 ys of a
sample_graph of a = 0.5, b = 3 on j / 2^17 with phases on the 2^-17
lattice, every level of which looks g up in the table, to
``sample_b3_lattice.ys.f64``).  Prints one ``sha256 path`` line per
artifact, paths relative to that directory, so two source trees can be
compared with ``diff``.  Run it from a checkout's root:

    PYTHONPATH=src python3 tools/artifact_digests.py

To compare two trees, run this same script file from each tree's root and
diff the outputs.  To check that the thread count changes no byte, run it
twice in one tree and diff:

    WLAB_THREADS=1 PYTHONPATH=src python3 tools/artifact_digests.py > t1.txt
    WLAB_THREADS=2 PYTHONPATH=src python3 tools/artifact_digests.py > t2.txt
    diff t1.txt t2.txt

`WLAB_THREADS` sets `--threads` of every command run here, `verify-all`
included; the library-only writers run on one thread.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import tempfile
from pathlib import Path

from wlab import cli, covering, fn_core, occupation

B_SEQ = "1,2.5,6.25,16,40,100,250,625,1600,4000"
PHASES = "0.1,0.25,0.4,0.7,0.05,0.9"
CONFIG = "# one gen run's defaults\npoints = 1000\nb = 3\nphases = 0.1,0.25,0.4\ng = cos2\n"

RUNS = [
    ["gen", "--output", "gen.csv"],
    ["gen", "--format", "json", "--output", "gen.json"],
    ["gen", "--b", "2.5", "--output", "gen_b2.5.csv"],
    ["gen", "--g", "cos2", "--b-seq", B_SEQ, "--b", "2.5", "--phases", PHASES,
     "--output", "gen_bseq.csv"],
    ["gen", "--format", "json", "--g", "cos2", "--b-seq", B_SEQ, "--b", "2.5", "--phases", PHASES,
     "--output", "gen_bseq.json"],
    ["gen", "--phases", PHASES, "--output", "gen_phases.csv"],
    ["boxdim", "--output", "boxdim.json"],
    ["boxdim", "--seeds", "40", "--m", "131073", "--output", "boxdim_groups.json"],
    ["energy", "--output", "energy.csv"],
    ["occ", "--output", "density.csv"],
    ["cover", "--pbm", "--output", "cover.csv"],
    ["cover", "--phases", PHASES, "--output", "cover_phases.csv"],
    ["cover", "--b", "2.5", "--phases", PHASES, "--pbm", "--output", "cover_b2.5.csv"],
    ["cover", "--g", "cos2", "--pbm", "--output", "cover_cos2.csv"],
    ["gen", "--config", "gen.cfg", "--output", "gen_config.csv"],
    ["gen", "--b", "4", "--phases", PHASES, "--points", "4097", "--output", "gen_b4.csv"],
    ["gen", "--b", "6", "--points", "4097", "--output", "gen_b6.csv"],
    ["gen", "--b", "2.5", "--phases", "0.25,0.5,0.125", "--points", "257",
     "--output", "gen_b2.5_lattice.csv"],
    ["gen", "--b", "3", "--b-seq", "1,3,10,31,100,310,1000", "--phases", "1e-30,0.1,0.375",
     "--points", "1001", "--output", "gen_bseq_lane.csv"],
    ["cover", "--b", "3", "--resolution", "1458", "--n-max", "5", "--pbm", "--output", "cover_b3.csv"],
    ["verify-all", "--profile", "desk", "--report", "verify.json"],
]


def run_cli(args) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main.main(args=args, prog_name="wlab", standalone_mode=False)
        except SystemExit as exc:
            if exc.code not in (0, None):
                raise RuntimeError(f"wlab {' '.join(args)} exited {exc.code}") from None


def write_first_hits(spec, n_max: int, resolution: int, path: Path) -> covering.FirstHitDecomposition:
    """A first-hit decomposition's pair measures (CSV) and its first-hit map (raw little-endian int16)."""
    d = covering.first_hit_sets(spec, 0.05, n_max, resolution)
    d.write_measures_csv(path.with_suffix(".csv"))
    path.with_suffix(".first.i16").write_bytes(d.first.astype("<i2").tobytes())
    return d


def library_writers(out: Path) -> None:
    spec = fn_core.build_spec(0.8, fn_core.geometric(2.0))
    write_first_hits(spec, 6, 512, out / "first_hit")
    phased = fn_core.build_spec(0.8, fn_core.geometric(2.0), phases=[float(t) for t in PHASES.split(",")],
                                g=fn_core.COS_PLUS_HALF)
    write_first_hits(phased, 6, 1024, out / "first_hit_cos2").sets[1].write_pbm(out / "first_hit_cos2.set1.pbm")
    b3 = fn_core.build_spec(0.8, fn_core.geometric(3.0))
    write_first_hits(b3, 5, 1458, out / "first_hit_b3")
    order = fn_core.truncation_order(spec, fn_core.default_tolerance(spec))
    sample = fn_core.sample_graph(spec, fn_core.draw_coefficients(spec, 3, order), 1 << 15)
    occupation.char_function_profile(sample, du=0.5, u_max=64.0).write_csv(out / "profile.csv")
    g7 = fn_core.BaseFunction("cos+0.2cos7", ((1, 1.0), (7, 0.2)))
    series = fn_core.build_spec(0.8, fn_core.geometric(2.5), phases=[0.25, 0.5, 0.125], g=g7)
    order = fn_core.effective_order(series)
    fn_core.sample_graph(series, fn_core.draw_coefficients(series, 1, order), 257).write_csv(out / "gen_g7.csv")
    lattice = fn_core.build_spec(0.5, fn_core.geometric(3.0), phases=[0.25, 3 * 2.0 ** -17, 0.5 + 2.0 ** -17])
    order = fn_core.effective_order(lattice)
    ys = fn_core.sample_graph(lattice, fn_core.draw_coefficients(lattice, 5, order), (1 << 17) + 1).ys
    (out / "sample_b3_lattice.ys.f64").write_bytes(ys.astype("<f8").tobytes())


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        cwd = os.getcwd()
        os.chdir(out)
        try:
            Path("gen.cfg").write_text(CONFIG)
            for args in RUNS:
                run_cli(args)
            os.remove("gen.cfg")  # an input, not an artifact
            library_writers(out)
        finally:
            os.chdir(cwd)
        for path in sorted(out.iterdir()):
            print(hashlib.sha256(path.read_bytes()).hexdigest(), path.name)


if __name__ == "__main__":
    main()
