"""One benchmark run in a fresh process (started by ``perfbench/run.py``).

Prints a human-readable table (every metric with its unit, sample
count and plane), one ``{"env": ...}`` line, and as its last line the
JSON result ``{"correct", "attempted", "failed", "metrics"}``.  Exits 1
when any output check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: modeled metrics per (program fingerprint, workload, seed) — a later
#: run with the same code and seed must reproduce them exactly
LEDGER_DIR = ROOT / ".bench_state"

#: fresh interpreters timed for the import part of ``setup_s``, half
#: before and half after the timed part: the host's throughput swings
#: by a third within seconds, and a median over the whole run moves less
IMPORT_REPEATS = 6
#: in-process repeats of the build part of ``setup_s``
BUILD_REPEATS = 3


def env_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def import_seconds(statement: str, repeats: int) -> list:
    """CPU seconds from interpreter start to ``statement`` done, each in
    a fresh interpreter."""
    probe = f"import time\n{statement}\nprint(time.process_time())"
    out = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, check=True, cwd=ROOT,
        )
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def src_fingerprint() -> str:
    """Content hash of the program and the benchmark."""
    h = hashlib.blake2b(digest_size=12)
    for base in (ROOT / "src", Path(__file__).resolve().parent):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def check_ledger(workload: str, seed: int, modeled: dict) -> str | None:
    """Compare this run's modeled metrics with an earlier run of the same
    code and seed; record them when none exists.  Returns a failure
    message on mismatch."""
    path = LEDGER_DIR / src_fingerprint() / f"{workload}-seed{seed}.json"
    if path.exists():
        before = json.loads(path.read_text())
        diff = sorted(k for k in modeled if before.get(k) != modeled[k])
        if diff:
            return f"modeled metrics differ from an earlier same-seed run: {diff}"
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(modeled, sort_keys=True))
    os.replace(tmp, path)
    return None


def main(argv: list) -> int:
    p = argparse.ArgumentParser(prog="perfbench")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tmp", type=Path, required=True,
                   help="empty scratch directory of this run")
    args = p.parse_args(argv)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; expected one of "
                f"{sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tmp)
    imports = import_seconds(wl.imports, IMPORT_REPEATS // 2)
    builds = []
    for _ in range(BUILD_REPEATS):
        t = time.process_time()
        wl.setup()
        builds.append(time.process_time() - t)
    if args.trace:
        result = wl.traced()
    else:
        result = wl.measure(args.seconds)
        imports += import_seconds(wl.imports, IMPORT_REPEATS - len(imports))
        result.put("setup_s", statistics.median(imports) + statistics.median(builds),
                   "s", IMPORT_REPEATS, "host")
        if not result.failed_ops:
            modeled = {k: m.value for k, m in result.metrics.items() if m.plane == "modeled"}
            problem = check_ledger(args.workload, args.seed, modeled)
            if problem:
                result.fail(0, problem)

    info = env_info()
    info.update(workload=args.workload, seed=args.seed, trace=args.trace)
    print(result.table(args.workload))
    for msg in result.failures:
        print(f"FAILED: {msg}")
    print(json.dumps({"env": info}, sort_keys=True))
    failed = len(result.failed_ops)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result.attempted,
        "failed": failed,
        "metrics": {
            k: {"value": m.value, "unit": m.unit}
            for k, m in result.metrics.items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
