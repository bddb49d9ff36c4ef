"""Print a SHA-256 digest of the solvers' trajectories, one line per case,
to check that a change leaves every trajectory bitwise unchanged.

The cyclic cases are polycd and polycdwa with both step rules on a lasso, a
logistic and a KDE instance, each on the kernel path and on the per-step
path (which a no-op inner_callback selects).  A digest covers the bytes of
the f-trace, the final x and, for polycdwa, the final weights.

The baseline cases are FW, AFW, FISTA and 2cd on the same instances (2cd on
the lifted simplex form of the l1-ball problems), each with the default
config, with window=None, record_every=7, and with window=20,
window_tol=1e-6, record_every=3.  A digest covers (t, f, inner_steps, nnz)
of every record and the final x.  Each line ends with the case's final f
(repr), so a changed digest shows how far the trajectory moved.

Run it on two checkouts, then compare the outputs:

    PYTHONPATH=src python3 tools/trajectory_digest.py > after.txt
    PYTHONPATH=src python3 tools/trajectory_digest.py before.txt after.txt

The second form prints each case whose digest differs, with the relative
change of its final f, the number of cases unchanged and the largest
relative change.  It exits with status 1 when that change exceeds
F_CHANGE_LIMIT (1e-11): a change that only reorders rounding moves a final
f by far less, so a larger move is a change of behaviour.
"""

import hashlib
import itertools
import sys

import numpy as np

from polycd import (GRAD_1D, LINE_SEARCH, KdeHuber, L1Ball, LeastSquares,
                    Logistic, SolveConfig, StandardSimplex, polycd_solve,
                    polycdwa_solve)
from polycd.baselines import (BaselineConfig, afw_solve, fista_solve,
                              fw_solve, twocd_solve)
from polycd.problems import (KdeSpec, LassoSpec, LogisticSpec, gen_kde,
                             gen_lasso, gen_logistic)

PASSES = 30

# the largest relative change of a case's final f that the compare form
# accepts
F_CHANGE_LIMIT = 1e-11

BASELINES = (("fw", fw_solve), ("afw", afw_solve), ("fista", fista_solve),
             ("2cd", twocd_solve))
BASELINE_CONFIGS = (
    ("default", {}),
    ("every7", {"window": None, "record_every": 7}),
    ("window20", {"window": 20, "window_tol": 1e-6, "record_every": 3}),
)


def instances():
    """(name, objective factory, lifted-simplex objective factory)."""
    A, b, _, C = gen_lasso(LassoSpec(n=200, d=200, r=20, seed=1))
    yield ("lasso", lambda: LeastSquares(A, b, L1Ball(200, C)),
           lambda: LeastSquares(np.hstack([A, -A]) * C, b,
                                StandardSimplex(400)))
    A2, labels, _, C2 = gen_logistic(LogisticSpec(n=200, d=200, r=20, seed=2))
    yield ("logistic", lambda: Logistic(A2, labels, L1Ball(200, C2)),
           lambda: Logistic(np.hstack([A2, -A2]) * C2, labels,
                            StandardSimplex(400)))
    spec = KdeSpec(n=600, seed=3)
    X, _ = gen_kde(spec)

    def kde():
        return KdeHuber(X, spec.sigma_kernel, spec.mu_huber)
    yield "kde", kde, kde


def cyclic_cases(insts):
    cases = itertools.product(insts, (polycd_solve, polycdwa_solve),
                              (LINE_SEARCH, GRAD_1D), (True, False))
    for (name, make, _), solve, rule, use_k in cases:
        obj = make()
        out = solve(obj, obj.poly,
                    SolveConfig(step_rule=rule, max_outer=PASSES,
                                rel_improve_tol=0.0),
                    inner_callback=None if use_k else lambda t, i, a: None)
        f = np.array([r.f_value for r in out[-1]])
        h = hashlib.sha256(f.tobytes())
        h.update(out[0].tobytes())
        if solve is polycdwa_solve:
            h.update(out[1].lam.tobytes())
        path = "kernel" if use_k else "per-step"
        print(f"{name:8s} {solve.__name__:14s} {rule:11s} {path:8s} "
              f"{h.hexdigest()[:16]} f={float(f[-1])!r}")
        sys.stdout.flush()


def baseline_cases(insts):
    cases = itertools.product(insts, BASELINES, BASELINE_CONFIGS)
    for (name, make, make_lifted), (label, solve), (cname, kw) in cases:
        obj = make_lifted() if label == "2cd" else make()
        x, trace = solve(obj, obj.poly, BaselineConfig(**kw))
        rows = np.array([(r.t, r.f_value, r.inner_steps, r.nnz)
                         for r in trace], dtype=np.float64)
        h = hashlib.sha256(rows.tobytes())
        h.update(x.tobytes())
        print(f"{name:8s} {label:14s} {cname:11s} {len(trace):8d} "
              f"{h.hexdigest()[:16]} f={float(trace[-1].f_value)!r}")
        sys.stdout.flush()


def compare(before, after):
    """Print each case whose digest differs between two outputs of this
    tool, with the relative change of its final f, then the number of
    cases unchanged and the largest relative change.  Returns that
    largest change."""
    with open(before) as fb, open(after) as fa:
        pairs = list(zip(fb.read().splitlines(), fa.read().splitlines(),
                         strict=True))
    same = 0
    worst = 0.0
    for old, new in pairs:
        *case, dig_old, f_old = old.split()
        *_, dig_new, f_new = new.split()
        if dig_old == dig_new:
            same += 1
            continue
        f0, f1 = float(f_old[2:]), float(f_new[2:])
        rel = abs(f1 - f0) / abs(f0)
        worst = max(worst, rel)
        print(f"{' '.join(case)}: f {f0!r} -> {f1!r}, "
              f"relative change {rel:.2e}")
    print(f"{same} of {len(pairs)} cases unchanged")
    print(f"largest relative change of final f: {worst:.2e} "
          f"(limit {F_CHANGE_LIMIT:.0e})")
    return worst


def main():
    if len(sys.argv) == 3:
        if compare(*sys.argv[1:]) > F_CHANGE_LIMIT:
            sys.exit(1)
        return
    insts = list(instances())
    cyclic_cases(insts)
    baseline_cases(insts)


if __name__ == "__main__":
    main()
