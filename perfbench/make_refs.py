#!/usr/bin/env python3
"""Compute the stored reference values of a workload's instance pool and
merge them into refs.json.

    python3 perfbench/make_refs.py --workload lasso-away
    python3 perfbench/make_refs.py --workload kde-away --seeds 0 1 2

Each entry holds f_ref, its Frank-Wolfe certificate (an upper bound on
f_ref - f*), the hash of the generated instance and how it was computed.
The kde-away oracle takes one to two minutes per instance on one core.
"""

import argparse
import json
import sys

import run


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("lasso-away", "kde-away", "bench-logistic"))
    p.add_argument("--seeds", type=int, nargs="*", default=None,
                   help="generator seeds (default: the workload's pool)")
    args = p.parse_args(argv)
    run._configure_env()
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads as wl

    workload = wl.WORKLOADS[args.workload]
    seeds = args.seeds if args.seeds is not None else workload.pool
    refs = wl.load_refs()
    refs.setdefault(workload.name, {}).update(
        wl.compute_refs(workload, seeds, log=lambda m: print(m, flush=True)))
    wl.REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
