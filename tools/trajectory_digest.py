"""Print a SHA-256 digest of the cyclic solvers' trajectories, one line per
case, to check that a change leaves every trajectory bitwise unchanged.

The cases are polycd and polycdwa with both step rules on a lasso, a
logistic and a KDE instance, each on the kernel path and on the per-step
path.  A digest covers the bytes of the f-trace, the final x and, for
polycdwa, the final weights.  Run it on two checkouts and diff the output:

    PYTHONPATH=src python3 tools/trajectory_digest.py > after.txt
"""

import hashlib
import itertools
import sys

import numpy as np

from polycd import (GRAD_1D, LINE_SEARCH, KdeHuber, L1Ball, LeastSquares,
                    Logistic, SolveConfig, polycd_solve, polycdwa_solve)
from polycd.problems import (KdeSpec, LassoSpec, LogisticSpec, gen_kde,
                             gen_lasso, gen_logistic)

PASSES = 30


def instances():
    A, b, _, C = gen_lasso(LassoSpec(n=200, d=200, r=20, seed=1))
    yield "lasso", lambda: LeastSquares(A, b, L1Ball(200, C))
    A2, labels, _, C2 = gen_logistic(LogisticSpec(n=200, d=200, r=20, seed=2))
    yield "logistic", lambda: Logistic(A2, labels, L1Ball(200, C2))
    spec = KdeSpec(n=600, seed=3)
    X, _ = gen_kde(spec)
    yield "kde", lambda: KdeHuber(X, spec.sigma_kernel, spec.mu_huber)


def main():
    cases = itertools.product(instances(), (polycd_solve, polycdwa_solve),
                              (LINE_SEARCH, GRAD_1D), (True, False))
    for (name, make), solve, rule, use_k in cases:
        obj = make()
        out = solve(obj, obj.poly,
                    SolveConfig(step_rule=rule, max_outer=PASSES,
                                rel_improve_tol=0.0, use_kernels=use_k))
        f = np.array([r.f_value for r in out[-1]])
        h = hashlib.sha256(f.tobytes())
        h.update(out[0].tobytes())
        if solve is polycdwa_solve:
            h.update(out[1].lam.tobytes())
        path = "kernel" if use_k else "per-step"
        print(f"{name:8s} {solve.__name__:14s} {rule:11s} {path:8s} "
              f"{h.hexdigest()[:16]} f={float(f[-1])!r}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
