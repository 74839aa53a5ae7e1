"""Launcher of the repository benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload zoo --seed 1 --seconds 20 --trace 0

The launcher imports nothing from the program.  It pins every BLAS /
OpenMP pool to one thread, turns off NumPy's huge-page advice, points
``PYTHONPATH`` at ``src/``, and runs
the measurement in a fresh worker process (``perfbench/worker.py``), so
no run inherits warm state from another.  The worker's standard output
is passed through unchanged; its last line is the JSON result.  The
launcher owns the run's scratch directory (``.bench_tmp/``, fresh
artifact stores) and removes it when the worker ends.  It exits with
the worker's code, or nonzero if the program's sources are missing or
the worker overruns its time limit.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: environment variables that size the native thread pools
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: the worker is killed (and the run fails) past this many seconds
WORKER_TIMEOUT_S = 175


def main(argv: list) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: program sources not found under {ROOT / 'src'}",
            file=sys.stderr,
        )
        return 2
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    # NumPy advises transparent huge pages for large arrays; faulting
    # them in can stall on memory compaction, which depends on the whole
    # machine's memory state rather than on the program
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=ROOT / ".bench_tmp")
    cmd = [sys.executable, str(HERE / "worker.py"), *argv, "--tmp", tmp]
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(
            f"perfbench: worker exceeded {WORKER_TIMEOUT_S}s and was killed",
            file=sys.stderr,
        )
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
