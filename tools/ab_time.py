"""Time two revisions of the package against each other in one process.

    python3 tools/ab_time.py REV_A REV_B --case C [--rounds N]

Each revision is anything `git archive` accepts (a commit, a branch, or the
commit `git stash create` prints for uncommitted changes).  Its src/polycd
is archived into a temporary directory and loaded as its own package, pa
for REV_A and pb for REV_B, so both trees run in the same process on the
same data.  The data, and the start weights of the pass cases, come from
pa.

A case is a solve on the instances of one benchmark workload:

    lasso-away      polycdwa, line search, 16 passes, on gen_lasso(n = d =
                    1000, r = 50, snr = 10) over the l1 ball of radius
                    ||x*||_1, seeds 0-7
    kde-away        polycdwa, line search, 7 passes, on KdeHuber(gen_kde(n =
                    1000, d = 2), bandwidth 1, Huber threshold 0.4), seeds
                    0-1
    bench-logistic  the polycdwa cell of `polycd bench` (line search, at
                    most 100 passes, relative-improvement stop 1e-8) on
                    gen_logistic(n = d = 200, r = 20) over the l1 ball of
                    radius ||x*||_1, seeds 0-1
    ls-pass         4 passes of polycdwa, line search, on the lasso-away
                    instances, from the weights that a 4-pass lasso-away
                    solve by pa leaves (lam0): the ls_cycle kernel's
                    passes, timed through the public solver
    logistic-pass   the same on the bench-logistic instances: the
                    logistic_cycle kernel's line-search passes
    bench-experiment
                    the whole harness.run_experiment of perfbench's
                    bench-logistic workload (the logistic preset at n = d =
                    200, r = 20, its six solver cells, one repetition)
                    into a temporary directory, seeds 0-1; the time
                    compared is the setup, wall minus each trace's last
                    seconds, and each tree generates its own instance
    kde-build       the construction KdeHuber(X, 1, 0.4) alone on the
                    kde-away instances, seeds 0-1: its cache u = K w0 is
                    one dense kernel product, and the two trees' u are
                    compared in place of an f-trace

A round times one solve of each tree on every seed, alternately, and flips
which tree goes first every round; each objective is built, untimed, just
before its solve.  The report gives the median and the interquartile range
of the per-pair ratios B/A, the number of pairs B won, and how far apart
the two trees' f-traces are ("bitwise" where they are equal; for
bench-experiment, the f_value columns of all trace files; for kde-build,
the built u, by the largest elementwise relative difference).  The record,
with both revisions, the per-pair times and ratios and the provenance, is
written as JSON to .ab_time/<case>-<A>-<B>.json in the checkout.
"""

import argparse
import gc
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _lasso(pkg, seed):
    A, b, _, C = pkg.problems.gen_lasso(pkg.problems.LassoSpec(
        n=1000, d=1000, r=50, snr=10.0, seed=seed))
    return A, b, C


def _kde(pkg, seed):
    X, _ = pkg.problems.gen_kde(pkg.problems.KdeSpec(n=1000, d=2, seed=seed))
    return X


def _logistic(pkg, seed):
    A, labels, _, C = pkg.problems.gen_logistic(pkg.problems.LogisticSpec(
        n=200, d=200, r=20, seed=seed))
    return A, labels, C


def _lasso_obj(pkg, d):
    return pkg.LeastSquares(d[0], d[1], pkg.L1Ball(d[0].shape[1], d[2]))


def _logistic_obj(pkg, d):
    return pkg.Logistic(d[0], d[1], pkg.L1Ball(d[0].shape[1], d[2]))


def _mid(gen, make):
    """The data of a pass case: gen's instance and the weights a 4-pass
    polycdwa solve on it leaves."""
    def data(pkg, seed):
        d = gen(pkg, seed)
        obj = make(pkg, d)
        _, state, _ = pkg.polycdwa_solve(obj, obj.poly, pkg.SolveConfig(
            max_outer=4, rel_improve_tol=0.0))
        return (*d, state.lam.copy())
    return data


def _passes(d):
    return {"max_outer": 4, "rel_improve_tol": 0.0, "lam0": d[3]}


# name: (seeds, data(pkg, seed), objective(pkg, data), SolveConfig kwargs
# of the data, default rounds)
CASES = {
    "lasso-away": (
        range(8), _lasso, _lasso_obj,
        lambda d: {"max_outer": 16, "rel_improve_tol": 0.0}, 3),
    "kde-away": (
        range(2), _kde, lambda pkg, X: pkg.KdeHuber(X, 1.0, 0.4),
        lambda d: {"max_outer": 7, "rel_improve_tol": 0.0}, 12),
    "bench-logistic": (
        range(2), _logistic, _logistic_obj,
        lambda d: {"max_outer": 100, "rel_improve_tol": 1e-8}, 12),
    "ls-pass": (range(8), _mid(_lasso, _lasso_obj), _lasso_obj, _passes, 12),
    "logistic-pass": (
        range(2), _mid(_logistic, _logistic_obj), _logistic_obj, _passes, 24),
}

EXPERIMENT = "bench-experiment"
# perfbench's BENCH_SOLVERS and LogisticL1.params
EXPERIMENT_CELLS = (
    {"name": "polycdwa", "step_rule": "line_search"},
    {"name": "polycd", "step_rule": "grad"},
    {"name": "fw"}, {"name": "afw"}, {"name": "fista"}, {"name": "2cd"})
EXPERIMENT_PROBLEM = {"n": 200, "d": 200, "r": 20}
EXPERIMENT_SEEDS, EXPERIMENT_ROUNDS = range(2), 6

BUILD = "kde-build"
BUILD_ROUNDS = 20


def _git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def load_tree(rev, name, into):
    """Archive rev's src/polycd under into/name and import it as the
    package name."""
    dest = Path(into) / name
    dest.mkdir()
    archive = dest / "src.tar"
    archive.write_bytes(_git("archive", rev, "src/polycd"))
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    pkg_dir = dest / "src" / "polycd"
    spec = importlib.util.spec_from_file_location(
        name, pkg_dir / "__init__.py",
        submodule_search_locations=[str(pkg_dir)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    importlib.import_module(f"{name}.problems")
    importlib.import_module(f"{name}.harness")
    return pkg


def timed_solve(pkg, make, data, cfg_kw):
    """(seconds, f-trace) of one polycdwa solve on a fresh objective."""
    obj = make(pkg, data)
    cfg = pkg.SolveConfig(**cfg_kw(data))
    gc.collect()
    t0 = time.perf_counter()
    _, _, trace = pkg.polycdwa_solve(obj, obj.poly, cfg)
    dt = time.perf_counter() - t0
    return dt, np.array([r.f_value for r in trace])


def timed_experiment(pkg, seed):
    """(setup seconds, f_value columns) of one run_experiment of the
    bench-logistic preset; setup is the wall time less each trace's last
    seconds."""
    with tempfile.TemporaryDirectory() as out:
        cfg = pkg.harness.ExperimentConfig(
            preset="logistic", problem=dict(EXPERIMENT_PROBLEM),
            solvers=[dict(c) for c in EXPERIMENT_CELLS], repetitions=1,
            seeds=[seed], out_dir=out)
        gc.collect()
        t0 = time.perf_counter()
        pkg.harness.run_experiment(cfg, quiet=True)
        wall = time.perf_counter() - t0
        clocks, f = 0.0, []
        for path in sorted(Path(out).glob("trace_*.csv")):
            rows = [r.split(",") for r in path.read_text().splitlines()[1:]]
            clocks += float(rows[-1][3])
            f += [float(r[4]) for r in rows]
    return wall - clocks, np.array(f)


def timed_build(pkg, X):
    """(seconds, u) of one KdeHuber construction on the points X; u = K w0
    is positive, so the two trees' u compare by relative difference."""
    gc.collect()
    t0 = time.perf_counter()
    obj = pkg.KdeHuber(X, 1.0, 0.4)
    return time.perf_counter() - t0, obj.u


def trace_difference(fa, fb, floor=1.0):
    """"bitwise", or the largest |f_A - f_B| / max(|f_A|, floor) over the
    records both traces have, with the lengths where they differ."""
    if fa.shape == fb.shape and fa.tobytes() == fb.tobytes():
        return "bitwise"
    k = min(len(fa), len(fb))
    rel = float(np.max(np.abs(fa[:k] - fb[:k]) / np.maximum(np.abs(fa[:k]),
                                                           floor)))
    if len(fa) != len(fb):
        return f"{rel:.3e} (records {len(fa)} vs {len(fb)})"
    return f"{rel:.3e}"


def provenance():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "date": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("rev_a")
    ap.add_argument("rev_b")
    ap.add_argument("--case", required=True,
                    choices=sorted([*CASES, EXPERIMENT, BUILD]))
    ap.add_argument("--rounds", type=int, default=None,
                    help="rounds over the case's seeds (default per case)")
    args = ap.parse_args(argv)
    if args.case == EXPERIMENT:
        seeds, rounds = EXPERIMENT_SEEDS, EXPERIMENT_ROUNDS
        solve = {"run_experiment": "logistic", **EXPERIMENT_PROBLEM,
                 "cells": list(EXPERIMENT_CELLS), "timed": "setup_s"}
    elif args.case == BUILD:
        seeds, rounds = CASES["kde-away"][0], BUILD_ROUNDS
        solve = {"construct": "KdeHuber", "bandwidth": 1.0, "huber_mu": 0.4,
                 "compared": "u"}
    else:
        seeds, gen, make, cfg_kw, rounds = CASES[args.case]
    rounds = args.rounds if args.rounds is not None else rounds
    if rounds < 1:
        ap.error("--rounds must be >= 1")
    commits = [_git("rev-parse", "--verify", f"{r}^{{commit}}").decode()
               .strip() for r in (args.rev_a, args.rev_b)]

    with tempfile.TemporaryDirectory() as tmp:
        pa = load_tree(commits[0], "pa", tmp)
        pb = load_tree(commits[1], "pb", tmp)
        trees = {"A": pa, "B": pb}
        if args.case == EXPERIMENT:
            run = timed_experiment
        elif args.case == BUILD:
            data = {s: _kde(pa, s) for s in seeds}

            def run(pkg, s):
                return timed_build(pkg, data[s])
        else:
            data = {s: gen(pa, s) for s in seeds}
            solve = {"solver": "polycdwa_solve", **{
                k: "per seed" if isinstance(v, np.ndarray) else v
                for k, v in cfg_kw(data[seeds[0]]).items()}}

            def run(pkg, s):
                return timed_solve(pkg, make, data[s], cfg_kw)
        pairs, diffs = [], {}
        for rnd in range(rounds):
            sides = ("A", "B") if rnd % 2 == 0 else ("B", "A")
            for s in seeds:
                got = {}
                for side in sides:
                    got[side] = run(trees[side], s)
                pairs.append({"round": rnd, "seed": s, "first": sides[0],
                              "t_a": got["A"][0], "t_b": got["B"][0],
                              "ratio": got["B"][0] / got["A"][0]})
                if rnd == 0:
                    diffs[s] = trace_difference(
                        got["A"][1], got["B"][1],
                        0.0 if args.case == BUILD else 1.0)

    ratios = [p["ratio"] for p in pairs]
    # every case has at least two seeds, so at least two pairs
    q1, med, q3 = statistics.quantiles(ratios, n=4)
    won = sum(r < 1.0 for r in ratios)
    record = {
        "case": args.case, "rev_a": args.rev_a, "rev_b": args.rev_b,
        "commit_a": commits[0], "commit_b": commits[1],
        "solve": solve,
        "seeds": list(seeds), "rounds": rounds,
        "median_ratio": med, "iqr": [q1, q3], "b_won": won,
        "pairs_total": len(pairs),
        "median_t_a": statistics.median(p["t_a"] for p in pairs),
        "median_t_b": statistics.median(p["t_b"] for p in pairs),
        "f_trace_difference": {str(s): d for s, d in diffs.items()},
        "pairs": pairs, "provenance": provenance(),
    }
    out = (ROOT / ".ab_time"
           / f"{args.case}-{commits[0][:7]}-{commits[1][:7]}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    timed = {EXPERIMENT: "setup", BUILD: "build"}.get(args.case, "solve")
    print(f"{args.case}: B/A median {med:.3f}, IQR {q1:.3f}-{q3:.3f}, "
          f"B faster in {won}/{len(pairs)} pairs; median {timed} "
          f"A {record['median_t_a']:.4f} s, B {record['median_t_b']:.4f} s")
    print(f"{'u' if args.case == BUILD else 'f-trace'} A vs B: " + ", ".join(
        f"seed {s} {d}" for s, d in diffs.items()))
    print(f"record: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
