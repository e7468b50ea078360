"""Run one wlab benchmark workload and print its metrics.

    python3 wbench/run.py --workload series --seed 1 --seconds 40 --trace 0

Run from the repository root.  The workload repeats whole rounds of its
operations until --seconds have passed.  Every operation's output is
checked.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.

Times are the shortest over a run's rounds, taken per operation: on a
shared virtual machine the same work runs at speeds up to 1.5x apart from
one second to the next, and the fastest repetition is far steadier from
run to run than the median (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from checks import CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".wbench"

STEPS = ("boxdim_s", "occ_s", "energy_s", "cover_s", "first_hit_s", "gen_s", "sinc_s")
SETUP_RUNS = 15

# What every CLI call pays: a fresh interpreter importing the CLI module and
# building the workload's function specs.
SETUP_CODE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import wlab.cli
from wlab import fn_core
for p in json.loads(sys.argv[2]):
    freq = fn_core.explicit(p["b_seq"], p["b"]) if p["b_seq"] else fn_core.geometric(p["b"])
    fn_core.build_spec(p["a"], freq, phases=p["phases"], g=fn_core.base_function(p["g"]))
"""


def setup_seconds(params: list) -> float:
    """Median wall time of SETUP_RUNS fresh processes, after one warm-up."""
    times = []
    for _ in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), json.dumps(params)], check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times[1:])


def peak_rss_mib(workload: str, seed: int, workdir: Path) -> float:
    """Peak RSS of a fresh process that runs one round without the checks."""
    proc = subprocess.run([sys.executable, str(HERE / "peak_rss.py"), workload, str(seed), str(workdir)],
                          check=True, capture_output=True, text=True, timeout=150)
    return int(proc.stdout.split()[-1]) / 1024.0


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.known = set()


def run_round(ops, tally: Tally, tracer, log) -> dict:
    """Run and check every operation once; returns {operation name: seconds}."""
    times = {}
    for op in ops:
        tally.attempted += 1
        out = None   # drop the previous output before the next operation runs
        try:
            if op.prepare:
                op.prepare()
            if tracer is not None:
                tracer.recording = True
            start = time.perf_counter()
            try:
                out = op.run()
            finally:
                times[op.name] = time.perf_counter() - start
                if tracer is not None:
                    tracer.recording = False
            if tracer is not None:
                for r in out if isinstance(out, list) else [out]:
                    if hasattr(r, "artifact_bytes"):
                        tracer.add(f"cli.{r.command}.artifact_bytes", r.artifact_bytes())
            op.check(out)
        except Exception as exc:  # one operation's failure must not stop the round
            tally.failed += 1
            # Only the named fault, seen as a failed check, leaves the run correct.
            if op.known_fault and isinstance(exc, CheckFailed):
                if op.name not in tally.known:
                    log(f"known fault in {op.name}: {op.known_fault} ({exc})")
                tally.known.add(op.name)
                continue
            tally.correct = False
            log(f"FAILED {op.name}: {exc}")
            if not isinstance(exc, CheckFailed):
                traceback.print_exc(file=sys.stderr)
    return times


def fastest(rounds: list) -> dict:
    """Per operation, the shortest time over the rounds."""
    return {name: min(r[name] for r in rounds) for name in rounds[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wlab" / "__init__.py").is_file():
        print(f"error: no wlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    tracer = spans.Tracer() if args.trace else None
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if tracer is None:
            setup = setup_seconds(workload.spec_params())
            rss_mib = peak_rss_mib(args.workload, args.seed, workdir / "peak-rss")
        ops = workload.ops()
        step_of = {op.name: op.step for op in ops}
        tally = Tally()
        plain, traced = [], []
        start = time.perf_counter()
        # With --trace 1, untraced and traced rounds alternate, untraced first.
        while True:
            traced_round = tracer is not None and len(plain) > len(traced)
            if traced_round:
                tracer.round = len(traced)
                if not traced:
                    tracer.install()
            times = run_round(ops, tally, tracer if traced_round else None, log)
            (traced if traced_round else plain).append(times)
            print(f"round {len(plain) + len(traced)}{' traced' if traced_round else ''}: "
                  f"{sum(times.values()):.3f} s", flush=True)
            if time.perf_counter() - start >= args.seconds and (tracer is None or traced_round):
                break
        if tracer is not None:
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    best = fastest(plain)
    wall = sum(best.values())
    steps = {s: sum(t for name, t in best.items() if step_of[name] == s) for s in STEPS}
    print("steps: " + ", ".join(f"{n} {v:.4f} s" for n, v in steps.items()), flush=True)
    if tracer is not None:
        per_round = tracer.round_metrics()
        metrics = {n: (v, "s") for n, v in steps.items()}
        metrics["trace.overhead_s"] = (sum(fastest(traced).values()) - wall, "s")
        for name, unit in spans.layer_metrics():
            metrics[name] = (min(per_round[r].get(name, 0) for r in range(len(traced))), unit)
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps(tracer.to_json()))
        print(f"trace: {len(tracer.spans)} spans in {trace_path.relative_to(ROOT)}", flush=True)
    else:
        metrics = {"wall_s": (wall, "s"), "setup_s": (setup, "s"), "peak_rss_mib": (rss_mib, "MiB")}
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
