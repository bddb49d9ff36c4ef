"""Print a SHA-256 digest of the solvers' trajectories, one line per case,
to check that a change leaves every trajectory bitwise unchanged.

The cyclic cases are polycd and polycdwa with both step rules on a lasso, a
logistic and a KDE instance, each on the kernel path and on the per-step
path (which a no-op inner_callback selects).  The same lasso and logistic
data also run over the l1 ball given as a vertex list (ExplicitVertices),
which no kernel serves, so those cases take the per-step path only.  A
digest covers the bytes of the f-trace, the final x and, for polycdwa, the
final weights.

The baseline cases are FW, AFW, FISTA and 2cd on the same instances (2cd on
the lifted simplex form of the l1-ball problems), each with the default
config, with window=None, record_every=7, and with window=20,
window_tol=1e-6, record_every=3.  A digest covers (t, f, inner_steps, nnz)
of every record and the final x.  Each line ends with the case's f at
record 0 (f0) and its final f (repr), so a changed digest shows how far
the trajectory moved.  AFW also runs with the default config and a cap on
the away step that binds (gamma_cap=0.05 on lasso and logistic, 1e-3 on
KDE), so its capped steps are digested too.

Two crafted lasso families run polycd and polycdwa with the line search
on both paths.  In the full-step cases (n=30, d=12, seeds 0-5, 3 passes)
b = A v_5 on L1Ball(12, 1.7), so the step toward v_5 can be a full step.
In the duplicate-column cases (seeds 0-4, 5 passes, polycdwa only)
A[:, 3] = A[:, 1] and A[:, 5] = 0 on L1Ball(6, 2), and the run starts at
weights 1/2 on vertices 2 and 6 (C e_1 and C e_3, whose images agree),
visiting them first: the step toward vertex 2 then has w = 0, which the
kernel's closed form meets through cancellation.

A crafted logistic family (seeds 0-2, 5 passes) runs polycd and polycdwa
with both step rules on both paths.  Feature 2 separates the labels with a
margin of 2 on L1Ball(6, 20), and the run starts at weights 1/3 on
vertices 0, 1 and 5 (-C e_2), visiting vertex 5 first.  Under the line
search the away step from vertex 5 drops it, and the step toward vertex 4
(C e_2) is a full step mid-pass, so the cases digest the moves whose next
start the logistic kernel recomputes.

A permuted-order lasso family runs polycd and polycdwa with both step
rules on both paths, on the lasso instance with a fixed random visit
order, so that ls_cycle reads its blocks as gathers.

The last cases are the benchmarks' shapes, on the kernel path with the
line search and with the gradient rule: the kde-away solve (polycdwa on
gen_kde(n=1000) seed 0, for 5 passes) and the lasso-away solve (polycdwa
on gen_lasso(n=d=1000, r=50, snr=10) seed 0 over the l1 ball of radius
||x*||_1, for 16 passes).

Run it on two checkouts, then compare the outputs:

    PYTHONPATH=src python3 tools/trajectory_digest.py > after.txt
    PYTHONPATH=src python3 tools/trajectory_digest.py before.txt after.txt

The second form prints each case whose digest differs, with the relative
change of its final f: |f_after - f_before| / max(|f_before|, 2^-52 |f0|),
so a final f at the rounding level of the start's, as at a crafted exact
minimizer, counts relative to that level (where neither output gives f0,
the change is absolute where f_before is 0).  It also prints each case
that only the second output has (new), the number of cases unchanged and
the largest relative change.  It also
checks the second output on its own: the kernel and per-step paths of each
of the 16 Logistic cyclic pairs (4 `logistic`, 12 `sep0`-`sep2`) must print
the same digest, since the per-step path is a bitwise spec of
logistic_cycle.  It exits with status 1 when the largest change exceeds
F_CHANGE_LIMIT (1e-11), when a case of the first output is missing from the
second, or when a Logistic pair differs.  A change that only reorders
rounding moves a final f by far less than the limit, so a larger move is a
change of behaviour.
"""

import hashlib
import itertools
import sys

import numpy as np

from polycd import (GRAD_1D, LINE_SEARCH, ExplicitVertices, KdeHuber, L1Ball,
                    LeastSquares, Logistic, SolveConfig, StandardSimplex,
                    polycd_solve, polycdwa_solve)
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

# the instances whose cyclic cases the compare form checks for equal
# kernel and per-step digests
LOGISTIC_PAIRS = ("logistic", "sep0", "sep1", "sep2")

# the away-step cap of the capped AFW cases, by instance, small enough to
# bind: the KDE run starts at weights 1/600, whose gamma_i is 1/599
CAPPED_AFW = {"lasso": 0.05, "logistic": 0.05, "kde": 1e-3}


def listed_ball(C):
    """The l1 ball of radius C in R^200 as a vertex list."""
    return ExplicitVertices(L1Ball(200, C).vertex_matrix())


def instances():
    """(name, objective factory, lifted-simplex objective factory,
    listed-vertex objective factory or None)."""
    A, b, _, C = gen_lasso(LassoSpec(n=200, d=200, r=20, seed=1))
    yield ("lasso", lambda: LeastSquares(A, b, L1Ball(200, C)),
           lambda: LeastSquares(np.hstack([A, -A]) * C, b,
                                StandardSimplex(400)),
           lambda: LeastSquares(A, b, listed_ball(C)))
    A2, labels, _, C2 = gen_logistic(LogisticSpec(n=200, d=200, r=20, seed=2))
    yield ("logistic", lambda: Logistic(A2, labels, L1Ball(200, C2)),
           lambda: Logistic(np.hstack([A2, -A2]) * C2, labels,
                            StandardSimplex(400)),
           lambda: Logistic(A2, labels, listed_ball(C2)))
    spec = KdeSpec(n=600, seed=3)
    X, _ = gen_kde(spec)

    def kde():
        return KdeHuber(X, spec.sigma_kernel, spec.mu_huber)
    yield "kde", kde, kde, None


def print_case(fields, digest, f0, f):
    print(f"{' '.join(fields)} {digest.hexdigest()[:16]} f0={float(f0)!r} "
          f"f={float(f)!r}")
    sys.stdout.flush()


def cyclic_case(name, obj, solve, rule, passes, use_k, **cfg):
    """Run one cyclic solve, with further SolveConfig fields cfg, and print
    its digest line."""
    out = solve(obj, obj.poly,
                SolveConfig(step_rule=rule, max_outer=passes,
                            rel_improve_tol=0.0, **cfg),
                inner_callback=None if use_k else lambda t, i, a: None)
    f = np.array([r.f_value for r in out[-1]])
    h = hashlib.sha256(f.tobytes())
    h.update(out[0].tobytes())
    if solve is polycdwa_solve:
        h.update(out[1].lam.tobytes())
    path = "kernel" if use_k else "per-step"
    print_case((f"{name:8s}", f"{solve.__name__:14s}", f"{rule:11s}",
                f"{path:8s}"), h, f[0], f[-1])


def cyclic_cases(insts):
    cases = itertools.product(insts, (polycd_solve, polycdwa_solve),
                              (LINE_SEARCH, GRAD_1D), (True, False))
    for (name, make, _, _), solve, rule, use_k in cases:
        cyclic_case(name, make(), solve, rule, PASSES, use_k)


def listed_cases(insts):
    """The composite instances over the l1 ball as a vertex list, on the
    per-step path (no kernel serves listed vertices)."""
    cases = itertools.product([i for i in insts if i[3] is not None],
                              (polycd_solve, polycdwa_solve),
                              (LINE_SEARCH, GRAD_1D))
    for (name, _, _, make_listed), solve, rule in cases:
        cyclic_case(f"{name}-ev", make_listed(), solve, rule, PASSES, False)


def baseline_case(name, label, cname, obj, solve, cfg, **kw):
    """Run one baseline solve, with further keyword arguments kw, and print
    its digest line."""
    x, trace = solve(obj, obj.poly, cfg, **kw)
    rows = np.array([(r.t, r.f_value, r.inner_steps, r.nnz)
                     for r in trace], dtype=np.float64)
    h = hashlib.sha256(rows.tobytes())
    h.update(x.tobytes())
    print_case((f"{name:8s}", f"{label:14s}", f"{cname:11s}",
                f"{len(trace):8d}"), h, trace[0].f_value, trace[-1].f_value)


def baseline_cases(insts):
    cases = itertools.product(insts, BASELINES, BASELINE_CONFIGS)
    for (name, make, make_lifted, _), (label, solve), (cname, kw) in cases:
        obj = make_lifted() if label == "2cd" else make()
        baseline_case(name, label, cname, obj, solve, BaselineConfig(**kw))


def capped_afw_cases(insts):
    """AFW with a binding cap CAPPED_AFW on each instance, so that capped
    away steps, which are never drops, are digested."""
    for name, make, _, _ in insts:
        baseline_case(name, "afw-capped", "default", make(), afw_solve,
                      BaselineConfig(), gamma_cap=CAPPED_AFW[name])


def crafted_cases():
    """The full-step and duplicate-column lasso cases, on both paths."""
    for seed, solve, use_k in itertools.product(
            range(6), (polycd_solve, polycdwa_solve), (True, False)):
        A = np.random.default_rng(seed).standard_normal((30, 12))
        poly = L1Ball(12, 1.7)
        cyclic_case(f"full{seed}", LeastSquares(A, A @ poly.vertex(5), poly),
                    solve, LINE_SEARCH, 3, use_k)
    lam0 = np.zeros(12)
    lam0[[2, 6]] = 0.5
    order = np.r_[2, 6, np.delete(np.arange(12), [2, 6])]
    for seed, use_k in itertools.product(range(5), (True, False)):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((20, 6))
        A[:, 3] = A[:, 1]
        A[:, 5] = 0.0
        b = 2.0 * A[:, 1] + 0.01 * rng.standard_normal(20)
        cyclic_case(f"dup{seed}", LeastSquares(A, b, L1Ball(6, 2.0)),
                    polycdwa_solve, LINE_SEARCH, 5, use_k, lam0=lam0,
                    visit_order=order)


def separable_logistic_cases():
    """The crafted logistic cases: a drop and a full step in pass 1."""
    lam0 = np.zeros(12)
    lam0[[0, 1, 5]] = 1.0 / 3.0
    order = np.r_[5, np.delete(np.arange(12), 5)]
    for seed in range(3):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((40, 6))
        labels = np.where(rng.random(40) < 0.5, 1.0, -1.0)
        A[:, 2] = labels * (2.0 + np.abs(rng.standard_normal(40)))
        for solve, rule, use_k in itertools.product(
                (polycd_solve, polycdwa_solve), (LINE_SEARCH, GRAD_1D),
                (True, False)):
            cyclic_case(f"sep{seed}", Logistic(A, labels, L1Ball(6, 20.0)),
                        solve, rule, 5, use_k, lam0=lam0, visit_order=order)


def permuted_lasso_cases(insts):
    """The lasso instance with a fixed random visit order, on both paths:
    every block of ls_cycle is a gather."""
    make = insts[0][1]
    order = np.random.default_rng(7).permutation(make().poly.M)
    cases = itertools.product((polycd_solve, polycdwa_solve),
                              (LINE_SEARCH, GRAD_1D), (True, False))
    for solve, rule, use_k in cases:
        cyclic_case("lasso-perm", make(), solve, rule, PASSES, use_k,
                    visit_order=order)


def lasso_away_cases():
    """The lasso-away benchmark's solve at its size, under both step
    rules, so that ls_cycle's block plan and carried scores are digested
    where the benchmark runs them."""
    A, b, _, C = gen_lasso(LassoSpec(n=1000, d=1000, r=50, snr=10.0, seed=0))
    for rule in (LINE_SEARCH, GRAD_1D):
        cyclic_case("lasso-away", LeastSquares(A, b, L1Ball(1000, C)),
                    polycdwa_solve, rule, 16, True)


def kde_away_cases():
    """The kde-away benchmark's solve at its size, for fewer passes, so
    that the kernel pass's cache rebuild, row-set swaps and block
    write-backs are digested where the benchmark runs them, under both
    step rules."""
    spec = KdeSpec(n=1000, seed=0)
    X, _ = gen_kde(spec)
    for rule in (LINE_SEARCH, GRAD_1D):
        cyclic_case("kde-away",
                    KdeHuber(X, spec.sigma_kernel, spec.mu_huber),
                    polycdwa_solve, rule, 5, True)


def read_cases(path):
    """{case: (digest, final f, f0 or None)} of an output of this tool
    (f0 is None in an output that does not print it).  A baseline case's
    record count is not part of its name: a change may move it."""
    cases = {}
    with open(path) as fh:
        for line in fh.read().splitlines():
            words = line.split()
            f0 = (float(words.pop(-2)[3:]) if words[-2].startswith("f0=")
                  else None)
            *fields, digest, f = words
            name = " ".join(w for w in fields if not w.isdigit())
            cases[name] = (digest, float(f[2:]), f0)
    return cases


def relative_change(f_before, f_after, f0):
    """|f_after - f_before| / max(|f_before|, 2^-52 |f0|); without f0, the
    absolute change where f_before is 0."""
    scale = abs(f_before) if f0 is None else max(abs(f_before),
                                                 2.0 ** -52 * abs(f0))
    return abs(f_after - f_before) / scale if scale else abs(f_after)


def compare(before, after):
    """Print each case whose digest differs between two outputs of this
    tool, with the relative change of its final f, and each case that only
    one of them has, then the number of cases unchanged and the largest
    relative change.  Returns that largest change and the number of cases
    missing from the second output."""
    old, new = read_cases(before), read_cases(after)
    same = 0
    worst = 0.0
    for case, (dig_old, f_old, start_old) in old.items():
        if case not in new:
            continue
        dig_new, f_new, start_new = new[case]
        if dig_old == dig_new:
            same += 1
            continue
        rel = relative_change(f_old, f_new,
                              start_old if start_new is None else start_new)
        worst = max(worst, rel)
        print(f"{case}: f {f_old!r} -> {f_new!r}, relative change {rel:.2e}")
    missing = [case for case in old if case not in new]
    for case in missing:
        print(f"{case}: missing")
    for case in new:
        if case not in old:
            print(f"{case}: new, f {new[case][1]!r}")
    print(f"{same} of {len(old)} cases unchanged")
    print(f"largest relative change of final f: {worst:.2e} "
          f"(limit {F_CHANGE_LIMIT:.0e})")
    return worst, len(missing)


def logistic_pairs(path):
    """Print each Logistic cyclic case of an output of this tool whose
    kernel and per-step digests differ, then the number of pairs that
    agree.  Returns the number that differ."""
    cases = read_cases(path)
    kernel = [case for case in cases if case.endswith(" kernel")
              and case.split()[0] in LOGISTIC_PAIRS]
    differ = 0
    for case in kernel:
        step = case[:-len("kernel")] + "per-step"
        if cases[case][0] != cases.get(step, (None,))[0]:
            differ += 1
            print(f"{case}: the per-step path gives another digest")
    print(f"{len(kernel) - differ} of {len(kernel)} Logistic kernel/per-step "
          f"pairs agree")
    return differ


def main():
    if len(sys.argv) == 3:
        worst, missing = compare(*sys.argv[1:])
        if (logistic_pairs(sys.argv[2]) or worst > F_CHANGE_LIMIT
                or missing):
            sys.exit(1)
        return
    insts = list(instances())
    cyclic_cases(insts)
    listed_cases(insts)
    baseline_cases(insts)
    capped_afw_cases(insts)
    crafted_cases()
    separable_logistic_cases()
    permuted_lasso_cases(insts)
    kde_away_cases()
    lasso_away_cases()


if __name__ == "__main__":
    main()
