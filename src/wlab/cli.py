"""Command-line front end: deterministic experiments with CSV/JSON artifacts.

All randomness flows from one --seed; sub-seeds derive from fixed labels, so
a run with an identical configuration produces byte-identical output files.
A flat key=value config file supplies defaults; click resolves each value as
flag > WLAB_THREADS > config file > default.
Exit codes: 2 for configuration errors, 3 for precondition failures inside a
module, and for verify-all 0/1 for pass/fail.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys

import click

from . import acceptance, covering, dimension, fn_core, occupation

CONFIG_EXIT = 2
PRECONDITION_EXIT = 3


@contextlib.contextmanager
def _preconditions(written=()):
    """Turn a module's ValueError or TypeError into one error: line and exit 3.

    The files named in written (a list the block may still extend) are
    removed first, so a failed command leaves none of its artifacts.
    """
    try:
        yield
    except (ValueError, TypeError) as exc:
        for path in written:
            os.remove(path)
        click.echo(f"error: {exc}", err=True)
        sys.exit(PRECONDITION_EXIT)


def _load_config(ctx: click.Context, param, path: str | None) -> None:
    """Eager: the key=value file becomes this command's default_map, so click takes
    each value from the flag, then WLAB_THREADS, then the file, then the default."""
    if path is None:
        return
    values = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise click.UsageError(
                        f"{path}:{lineno}: expected key=value, got {line!r}"
                    )
                key, value = line.split("=", 1)
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise click.UsageError(f"cannot read config {path}: {exc}") from exc
    unknown = set(values) - {p.name for p in ctx.command.params if p is not param}
    if unknown:
        raise click.UsageError(f"unknown config keys: {sorted(unknown)}")
    ctx.default_map = values


def _config_error(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(CONFIG_EXIT)


def _check_output_dir(ctx: click.Context, param, path: str | None) -> str | None:
    """Exit 2 before any work when an output path is a directory or its directory is missing."""
    if path is not None:
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            _config_error(f"output directory {parent} does not exist")
        if os.path.isdir(path):
            _config_error(f"output {path} is a directory")
    return path


def _enter_threads(ctx: click.Context, param, n: int) -> None:
    """Hold the thread count until the command ends.  The root context owns it: when a
    later option fails to parse, click closes only the root, and that still undoes it."""
    ctx.find_root().with_resource(fn_core.worker_threads(n))


def _spec(a, b, b_seq, phases, g, **_) -> fn_core.FunctionSpec:
    return fn_core.build_spec(a, fn_core.Frequencies(b, b_seq or ()), phases=phases or (),
                              g=fn_core.base_function(g))


class NumberList(click.ParamType):
    """Comma-separated numbers read by cast; an entry it rejects is a usage error (exit 2)."""

    def __init__(self, cast):
        self.cast = cast
        self.name = "integers" if cast is int else "numbers"

    def convert(self, value, param, ctx):
        try:  # an empty value is no numbers, so `phases=` in a config file means none
            return tuple(self.cast(v) for v in value.split(",")) if value.strip() else ()
        except ValueError:
            self.fail(f"{value!r} is not a comma-separated list of {self.name}", param, ctx)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def spec_options(fn):
    fn = click.option("--g", default="cos", show_default=True,
                      type=click.Choice(sorted(fn_core.BUILTIN_BASE_FUNCTIONS)),
                      help="Built-in base function.")(fn)
    fn = click.option("--phases", type=NumberList(float), default=None,
                      help="Comma-separated phase offsets (default all 0).")(fn)
    fn = click.option("--b-seq", type=NumberList(float), default=None,
                      help="Explicit comma-separated frequency sequence (b0 must be 1).")(fn)
    fn = click.option("--b", default=2.0, show_default=True,
                      help="Frequency ratio (or ratio lower bound with --b-seq).")(fn)
    fn = click.option("--a", default=0.8, show_default=True,
                      help="Amplitude base in (0, 1).")(fn)
    return fn


threads_option = click.option(
    "--threads", type=click.IntRange(min=1), default=1, show_default=True,
    envvar="WLAB_THREADS", show_envvar=True, callback=_enter_threads, expose_value=False,
    help="Threads that evaluate f; results are the same for any count.")


def common_options(fn):
    fn = threads_option(fn)
    fn = click.option("--config", type=click.Path(), default=None, is_eager=True,
                      callback=_load_config, expose_value=False,
                      help="key=value file of defaults for this command.")(fn)
    fn = click.option("--seed", default=7, show_default=True, help="Master seed.")(fn)
    return fn


def output_option(default):
    return click.option("--output", default=default, show_default=True,
                        callback=_check_output_dir)


@click.group()
@click.version_option(version="0.1.0", prog_name="wlab")
def main():
    """Random high-frequency series: graphs, covers, energies, occupation."""


@main.command()
@spec_options
@common_options
@click.option("--points", default=4096, show_default=True, help="Samples on [0, 1].")
@click.option("--tol", type=float, default=None, help="Truncation tolerance.")
@output_option("sample.csv")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
def gen(**p):
    """Sample one random draw of f on a uniform grid."""
    with _preconditions():
        spec = _spec(**p)
        order = fn_core.effective_order(spec, p["tol"])
        draw = fn_core.draw_coefficients(spec, p["seed"], max(order, 1))
        sample = fn_core.sample_graph(spec, draw, p["points"], p["tol"])
    if p["fmt"] == "csv":
        sample.write_csv(p["output"])
    else:
        _write_json(p["output"], sample.to_json_dict(spec, p["seed"]))
    click.echo(f"wrote {p['output']} ({p['points']} points, order {sample.truncation_order})")


@main.command()
@spec_options
@common_options
@click.option("--seeds", default=8, show_default=True, help="Number of draws averaged.")
@click.option("--min-scale-exp", default=6, show_default=True,
              help="Coarsest scale 2^-k.")
@click.option("--max-scale-exp", default=12, show_default=True,
              help="Finest scale 2^-k.")
@click.option("--m", type=int, default=None, help="Samples (default: from finest scale).")
@output_option("boxdim.json")
def boxdim(**p):
    """Box-counting dimension of graph(f) against the predicted value."""
    csv_path = os.path.splitext(p["output"])[0] + ".csv"
    if csv_path == p["output"]:
        _config_error(f"output {csv_path} is also the path of the counts CSV; "
                      "give the JSON another suffix")
    with _preconditions():
        spec = _spec(**p)
        scales = [2.0 ** -k for k in range(p["min_scale_exp"], p["max_scale_exp"] + 1)]
        est = dimension.box_dimension_scan(
            spec,
            seeds=[p["seed"] + i for i in range(p["seeds"])],
            scales=scales,
            m=p["m"],
        )
    payload = {"schema": "wlab.boxdim/1", "spec": spec.to_dict(),
               "seed": p["seed"], "seeds": p["seeds"]}
    payload.update(est.to_json_dict())
    _write_json(p["output"], payload)
    est.write_counts_csv(csv_path)
    click.echo(f"slope {est.slope:.4f} vs predicted {est.predicted_d:.4f}; "
               f"wrote {p['output']} and {csv_path}")


@main.command()
@spec_options
@common_options
@click.option("--t-grid", type=NumberList(float), default="1.2,1.4,1.6,1.9",
              show_default=True, help="Comma-separated exponents in (1, 2).")
@click.option("--pairs", default=400_000, show_default=True)
@click.option("--seeds", default=6, show_default=True)
@output_option("energy.csv")
def energy(**p):
    """Monte Carlo t-energy scan with stability verdicts."""
    with _preconditions():
        entries = dimension.energy_threshold_scan(
            _spec(**p), p["t_grid"], p["pairs"],
            seeds=[p["seed"] + i for i in range(p["seeds"])],
        )
    dimension.write_scan_csv(p["output"], entries)
    for e in entries:
        click.echo(f"t={e.t}: value={e.value:.4f} se={e.std_error:.4f} -> {e.verdict}")
    click.echo(f"wrote {p['output']}")


@main.command()
@spec_options
@common_options
@click.option("--samples", default=10 ** 6, show_default=True)
@click.option("--bins", default=256, show_default=True)
@click.option("--decay-target", default=1e-4, show_default=True,
              help="Grow u_max until the last octave of |mu|^2 dips below this.")
@output_option("density.csv")
def occ(**p):
    """Occupation density, its L2 norm, and the Parseval cross-check."""
    with _preconditions():
        spec = _spec(**p)
        occupation.check_decay_target(p["decay_target"])   # before the sampling, not after it
        draw = fn_core.draw_coefficients(spec, p["seed"], max(fn_core.effective_order(spec), 1))
        sample = fn_core.sample_graph(spec, draw, p["samples"])
        dens = occupation.occupation_histogram(sample, p["bins"])
        profile, reached = occupation.adaptive_char_profile(
            sample, du=occupation.fourier_step(dens), decay_target=p["decay_target"])
        report = occupation.parseval_check(dens, profile)
    dens.write_csv(p["output"])
    base = os.path.splitext(p["output"])[0]
    _write_json(base + "_parseval.json", {
        "schema": "wlab.parseval/1",
        "spec": spec.to_dict(),
        "seed": p["seed"],
        "decay_target_reached": reached,
        **report.to_json_dict(),
    })
    click.echo(f"l2_sq={dens.l2_sq:.5f} parseval_discrepancy={report.discrepancy:.4f}; "
               f"wrote {p['output']} and {base}_parseval.json")


@main.command()
@spec_options
@common_options
@click.option("--epsilon", default=0.05, show_default=True)
@click.option("--n-max", default=6, show_default=True)
@click.option("--resolution", default=2048, show_default=True)
@click.option("--pbm/--no-pbm", default=False, show_default=True,
              help="Also write PBM bitmaps of each intersection level.")
@output_option("cover.csv")
def cover(**p):
    """Near-level set of g, its iterated intersections, and their decay."""
    base = os.path.splitext(p["output"])[0]
    written = []

    def write_level(n, s):
        # Levels are streamed, so each PBM is written before the fit is known.
        written.append(f"{base}_level{n}.pbm")
        s.write_pbm(written[-1])

    with _preconditions(written):
        spec = _spec(**p)
        a_set = covering.near_level_set(spec.g, p["epsilon"], p["resolution"])
        _, measures, n_eff = covering.intersection_sequence(
            a_set, spec, p["n_max"], write_level if p["pbm"] else None)
        fit = covering.decay_fit(measures)
    covering.write_measures_csv(p["output"], measures)
    click.echo(f"levels 0..{n_eff}: rate={fit.rate:.4f} r2={fit.r2:.4f}; "
               f"wrote {p['output']}")


@main.command(name="verify-all")
@click.option("--profile", default="desk", show_default=True,
              type=click.Choice(sorted(acceptance.PROFILES)))
@click.option("--criteria", type=NumberList(int), default=None,
              help="Comma-separated subset, e.g. 1,4,10 (default: all).")
@click.option("--report", default=None, type=click.Path(), callback=_check_output_dir,
              help="Also write a JSON report here.")
@threads_option
def verify_all(profile, criteria, report):
    """Run the acceptance criteria; exit 0 iff every one passes."""
    unknown = set(criteria or ()) - set(acceptance.CRITERIA)
    if unknown:
        raise click.UsageError(f"unknown criteria {sorted(unknown)}")
    results = acceptance.run_all(acceptance.PROFILES[profile], criteria or None)
    for r in results:
        click.echo(r.line())
    if report:
        _write_json(report, {
            "schema": "wlab.verify/1",
            "profile": profile,
            "passed": all(r.passed for r in results),
            "criteria": [r.to_json_dict() for r in results],
        })
    sys.exit(0 if all(r.passed for r in results) else 1)


if __name__ == "__main__":
    main()
