"""Test oracles: independent recomputations and the rate-bound checks.

Everything here recomputes from first principles (stateless evaluations,
exhaustive grids, fixed-step projected gradient), so the incremental-cache
solver path is never on both sides of a comparison.  The module also holds
executable forms of the algebraic identities behind the convergence rates,
and the checks of a solver trace against the two rate bounds.  The
certified references that the benchmark reads as well (``certify_fw_gap``
and ``reference_solve_kde``) live in ``polycd.verify``.
"""

from dataclasses import dataclass
import itertools

import numpy as np

from polycd import LINE_SEARCH, L1Ball, StandardSimplex
from polycd.verify import RefSolution, certify_fw_gap


def finite_diff_gradient(obj, x, h=1e-5):
    """Central finite differences of obj.eval_at around x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.empty_like(x)
    for k in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[k] += h
        xm[k] -= h
        g[k] = (obj.eval_at(xp) - obj.eval_at(xm)) / (2.0 * h)
    return g


def golden_section_min(g, lo, hi, tol=1e-8, max_iter=500):
    """Golden-section search on a unimodal function; test oracle for the
    derivative-based (safeguarded Newton) line searches."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = g(c), g(d)
    it = 0
    while b - a > tol and it < max_iter:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = g(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = g(d)
        it += 1
    return 0.5 * (a + b)


def grid_line_min(g, lo, hi, levels=3, pts=100):
    """Multilevel grid minimizer of a 1D convex function; each level zooms
    into the bracket around the best grid point, leaving a final bracket of
    width (hi-lo) * (2/pts)**levels around the minimizer."""
    a, b = lo, hi
    for _ in range(levels):
        alphas = np.linspace(a, b, pts + 1)
        vals = np.array([g(al) for al in alphas])
        k = int(np.argmin(vals))
        a = alphas[max(k - 1, 0)]
        b = alphas[min(k + 1, pts)]
    return 0.5 * (a + b)

# ---------------------------------------------------------------------------
# projected-gradient reference and grid cross-check
# ---------------------------------------------------------------------------


def reference_solve(obj, poly=None, tol=1e-12, max_iter=1_000_000):
    """Projected gradient with fixed step 1/L run to a small relative
    residual; the returned certificate bounds the remaining gap.  On a
    simplex of dimension <= 3 or an l1 ball of dimension <= 2 the result is
    also cross-checked against an exhaustive refined grid, and an
    AssertionError reports a grid point better than the resolution allows.
    """
    poly = poly if poly is not None else obj.poly
    L = obj.L
    x = poly.project(poly.vertex(0))
    res = np.inf
    k = 0
    while k < max_iter:
        x_new = poly.project(x - obj.grad_at(x) / L)
        res = np.linalg.norm(x_new - x) / max(1.0, np.linalg.norm(x))
        x = x_new
        k += 1
        if res <= tol:
            break
    f = float(obj.eval_at(x))
    if ((isinstance(poly, StandardSimplex) and poly.d <= 3)
            or (isinstance(poly, L1Ball) and poly.d <= 2)):
        f_grid = grid_search_min(obj, poly)
        # the grid never beats a converged reference by more than its resolution
        if f_grid < f - 1e-6 * max(1.0, abs(f)):
            raise AssertionError(
                f"grid search found a better point: {f_grid} < {f}")
    return RefSolution(x=x, f=f, fw_gap=certify_fw_gap(obj, poly, x),
                       iterations=k, converged=res <= tol)


def _simplex_grid(d, k):
    """Barycentric grid with denominator k on the (d-1)-simplex, d <= 3."""
    if d == 1:
        return np.array([[1.0]])
    if d == 2:
        a = np.arange(k + 1)
        return np.stack([a, k - a], axis=1) / k
    if d == 3:
        pts = [(a, b, k - a - b)
               for a in range(k + 1) for b in range(k + 1 - a)]
        return np.array(pts, dtype=np.float64) / k
    raise ValueError("grid cross-check supports simplex dimension <= 3")


def grid_search_min(obj, poly, base=40, refine=8, levels=2):
    """Coarse grid over the polytope followed by local refinements around
    the incumbent; a sanity cross-check for tiny instances, not a precision
    oracle."""
    if isinstance(poly, StandardSimplex) and poly.d <= 3:
        pts = _simplex_grid(poly.d, base)
    elif isinstance(poly, L1Ball) and poly.d <= 2:
        r = poly.radius
        if poly.d == 1:
            pts = np.linspace(-r, r, 2 * base + 1)[:, None]
        else:
            g = np.linspace(-r, r, 2 * base + 1)
            xx, yy = np.meshgrid(g, g)
            pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
            pts = pts[np.abs(pts).sum(axis=1) <= r + 1e-12]
    else:
        raise ValueError("grid cross-check supports tiny simplex/l1-ball only")
    vals = np.array([obj.eval_at(p) for p in pts])
    best = pts[int(np.argmin(vals))]
    f_best = float(vals.min())
    step = poly.diameter() / base
    for _ in range(levels):
        step /= refine
        offsets = np.array(list(itertools.product((-4, -3, -2, -1, 0, 1, 2, 3, 4),
                                                  repeat=poly.d)), dtype=np.float64)
        cand = best[None, :] + step * offsets
        cand = np.stack([poly.project(c) for c in cand])
        vals = np.array([obj.eval_at(c) for c in cand])
        k = int(np.argmin(vals))
        if vals[k] < f_best:
            f_best = float(vals[k])
            best = cand[k]
    return f_best


# ---------------------------------------------------------------------------
# executable algebraic identities
# ---------------------------------------------------------------------------


def simplex_decompose(a, b, tol=1e-12):
    """Split a - b into (eta/2)(p - q) with p, q on the simplex and
    supp(p) inside supp(a); eta = ||a - b||_1.  Returns (p, q, eta)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    for name, v in (("a", a), ("b", b)):
        if v.min() < -tol or abs(v.sum() - 1.0) > tol:
            raise ValueError(f"{name} is not on the simplex (tol {tol})")
    diff = a - b
    eta = float(np.abs(diff).sum())
    if eta == 0.0:
        return a.copy(), a.copy(), 0.0
    p = 2.0 * np.maximum(diff, 0.0) / eta
    q = 2.0 * np.maximum(-diff, 0.0) / eta
    return p, q, eta


@dataclass
class SequenceLemmaResult:
    status: str  # "ok" | "premise" | "conclusion"
    index: int | None = None
    detail: str = ""

    def __bool__(self):
        return self.status == "ok"


def check_sequence_lemma(seq, lam, rtol=1e-9):
    """For a positive decreasing sequence with a_k - a_{k+1} >= lam a_{k+1}^2,
    verify a_k <= max(a_1, 2/lam) / k.  Premise violations are reported
    separately from conclusion violations so proof-machinery regressions are
    distinguishable from implementation bugs."""
    a = np.asarray(seq, dtype=np.float64)
    if a.size == 0:
        raise ValueError("empty sequence")
    slack = rtol * max(abs(a[0]), 1.0)
    if np.any(a <= 0.0):
        k = int(np.argmax(a <= 0.0))
        return SequenceLemmaResult("premise", k, f"a[{k}] = {a[k]} not positive")
    for k in range(a.size - 1):
        if a[k + 1] > a[k] + slack:
            return SequenceLemmaResult("premise", k, "not decreasing")
        if a[k] - a[k + 1] < lam * a[k + 1] ** 2 - slack:
            return SequenceLemmaResult(
                "premise", k,
                f"recursion fails: drop {a[k] - a[k+1]:.3e} < "
                f"lam*a^2 {lam * a[k+1]**2:.3e}")
    c = max(a[0], 2.0 / lam)
    for k in range(a.size):
        if a[k] > c / (k + 1) * (1.0 + rtol) + slack:
            return SequenceLemmaResult("conclusion", k,
                                       f"a[{k}] = {a[k]} > {c / (k + 1)}")
    return SequenceLemmaResult("ok")


def reduction_sequences_from_steps(obj, poly, steps, rng):
    """Drive the objective through random feasible vertex steps, collecting
    the iterate and stateless-gradient sequences the telescoping identities
    quantify over."""
    xs = [obj.x.copy()]
    gs = [obj.grad_at(obj.x)]
    for _ in range(steps):
        i = int(rng.integers(poly.M))
        alpha = float(rng.random())
        obj.apply_step(i, alpha)
        xs.append(obj.x.copy())
        gs.append(obj.grad_at(obj.x))
    return gs, xs


def check_reduction_identity(grad_seq, x_seq, z):
    """Evaluate both telescoping identities on the given gradient/iterate
    sequences for every index pair and return the largest absolute
    discrepancy between their two sides."""
    G = [np.asarray(g, dtype=np.float64) for g in grad_seq]
    X = [np.asarray(x, dtype=np.float64) for x in x_seq]
    if len(G) != len(X):
        raise ValueError("gradient and iterate sequences differ in length")
    z = np.asarray(z, dtype=np.float64)
    K = len(X) - 1
    worst = 0.0
    for i in range(K):
        for j in range(i + 1, K + 1):
            lhs = float(G[j] @ (X[j] - z)) - float(G[i] @ (X[i] - z))
            rhs = sum(float(G[k] @ (X[k] - X[k - 1]))
                      + float((G[k] - G[k - 1]) @ (X[k - 1] - z))
                      for k in range(i + 1, j + 1))
            worst = max(worst, abs(lhs - rhs))
            if i >= 1:
                lhs2 = float(G[j] @ (X[j] - z)) - float(G[i - 1] @ (X[i] - z))
                rhs2 = (sum(float(G[k - 1] @ (X[k] - X[k - 1]))
                            for k in range(i + 1, j + 1))
                        + sum(float((G[k] - G[k - 1]) @ (X[k] - z))
                              for k in range(i, j + 1)))
                worst = max(worst, abs(lhs2 - rhs2))
    return worst


# ---------------------------------------------------------------------------
# empirical rate-bound checks
# ---------------------------------------------------------------------------


@dataclass
class BoundReport:
    ok: bool
    ts: np.ndarray
    gaps: np.ndarray
    bounds: np.ndarray
    first_violation: int | None = None

    @property
    def margins(self):
        return self.bounds - self.gaps


def _bound_report(recs, f_star, bound):
    """The BoundReport of the records recs against bound(ts), with a
    relative slack of 1e-9 and an absolute one of 1e-12 max(1, |f_star|)."""
    ts = np.array([r.t for r in recs])
    gaps = np.array([r.f_value - f_star for r in recs])
    bounds = bound(ts)
    viol = gaps > bounds * (1.0 + 1e-9) + 1e-12 * max(1.0, abs(f_star))
    first = int(ts[viol][0]) if viol.any() else None
    return BoundReport(ok=not viol.any(), ts=ts, gaps=gaps, bounds=bounds,
                       first_violation=first)


def check_sublinear_bound(trace, f_star, M, L, D, rule):
    """Check gap(t) <= max(gap(1), K M L D^2) / t for t >= 1, with K = 4
    under exact line search and K = 16 under the 1D gradient rule."""
    K = 4.0 if rule == LINE_SEARCH else 16.0
    recs = [r for r in trace if r.t >= 1]
    if not recs:
        raise ValueError("trace has no records with t >= 1")
    gap1 = trace[1].f_value - f_star if trace[0].t == 0 else recs[0].f_value - f_star
    const = max(gap1, K * M * L * D * D)
    return _bound_report(recs, f_star, lambda ts: const / ts)


def check_linear_bound(trace, f_star, M, L, D, mu, psi, rule):
    """Check gap(t) <= (G/(1+G))^t gap(0) with G = 1 + 9 M L D^2/(mu psi^2)
    under exact line search, and the G' = 2 + 16 M L D^2/(mu psi^2) analogue
    under the 1D gradient rule."""
    if not (mu > 0 and psi > 0):
        raise ValueError("needs mu > 0 and psi > 0")
    base = M * L * D * D / (mu * psi * psi)
    G = 1.0 + 9.0 * base if rule == LINE_SEARCH else 2.0 + 16.0 * base
    rho = G / (1.0 + G)
    if trace[0].t != 0:
        raise ValueError("trace must start at t = 0")
    gap0 = trace[0].f_value - f_star
    return _bound_report(trace, f_star, lambda ts: gap0 * rho ** ts)
