"""Peak resident memory of one round of a workload's operations, without checks.

    python3 wbench/peak_rss.py <workload> <seed> <workdir>

Builds the workload's inputs from the seed, then forks a process that runs
each operation once and prints that process's peak resident set size in
KiB.  A forked process starts its peak at the resident size at the fork,
so neither the reference values that the checks keep (run.py starts this
script in a fresh process) nor the transient memory of building the inputs
(the first-hit maps that `series` draws its pairs from) is counted.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv) -> int:
    name, seed, workdir = argv[0], int(argv[1]), Path(argv[2])
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads

    try:
        ops = workloads.WORKLOADS[name](seed, workdir).ops()
        for op in ops:
            if op.prepare:
                op.prepare()
        gc.collect()
        sys.stdout.flush()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                for op in ops:
                    try:
                        op.run()
                    except Exception:   # the timed rounds check and report every operation
                        pass
                print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, flush=True)
                code = 0
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        return os.waitstatus_to_exitcode(status)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
