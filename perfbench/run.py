#!/usr/bin/env python3
"""Benchmark of the polycd package: one command, one workload per call.

    python3 perfbench/run.py --workload lasso-away --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  The launcher fixes the BLAS thread count
and the kernel backend in its own environment before numpy loads, puts the
checkout's ``src`` first on the import path (nothing is installed), runs
the workload as a closed loop in this one process, prints every metric by
name with its unit and sample count, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The full record (provenance, samples,
spans) is written to ``.perfbench/records/`` in the checkout.  See
README.md beside this file for the metrics and workloads.
"""

import argparse
import os
import sys
from pathlib import Path

# BLAS threads of the measured process: one, which is at most nproc on any
# machine; the solvers' per-step work is single-threaded anyway, and on a
# VM whose cores are shared with other tenants a second BLAS thread only
# adds contention
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _configure_env():
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in _THREAD_VARS:
        os.environ[var] = str(threads)
    # measure the numpy backend whether or not numba is installed
    os.environ["POLYCD_NUMBA"] = "0"
    return threads


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("lasso-away", "kde-away", "bench-logistic"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    threads = _configure_env()
    src = ROOT / "src"
    if not (src / "polycd" / "__init__.py").is_file():
        print(f"error: no package source at {src}/polycd; run from the root "
              f"of a polycd checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import report  # noqa: E402 - needs the environment and path set above
    return report.main(args, ROOT, threads)


if __name__ == "__main__":
    sys.exit(main())
