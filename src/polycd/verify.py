"""Independent oracles and property checkers.

Everything here recomputes from first principles (stateless evaluations,
dense matrices, exhaustive grids) so the incremental-cache solver path is
never on both sides of a comparison.  The module also packages executable
forms of the supporting algebraic identities behind the convergence rates,
used both on synthetic sequences and on real solver traces.
"""

from dataclasses import dataclass
import itertools

import numpy as np

from .baselines import BaselineConfig, afw_solve
from .objectives import KdeHuber, kde_scales
from .polytope import L1Ball, StandardSimplex


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
# high-accuracy reference solutions
# ---------------------------------------------------------------------------


@dataclass
class RefSolution:
    x: np.ndarray
    f: float
    residual: float  # final projected-gradient residual (relative)
    fw_gap: float    # linearization certificate: upper bound on f(x) - f*
    iterations: int
    converged: bool


def certify_fw_gap(obj, poly, x):
    """max_v <grad f(x), x - v> over the vertices: a computable upper bound
    on the optimality gap of x."""
    g = obj.grad_at(x)
    scores = poly.vertex_scores(g)
    return float(g @ x - scores.min())


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
    return RefSolution(x=x, f=f, residual=float(res),
                       fw_gap=certify_fw_gap(obj, poly, x),
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


class DenseKdeHuber(KdeHuber):
    """Kernel-weight objective with the kernel matrix held densely.

    Oracle-only twin of the production objective: the production class
    recomputes kernel columns on demand, this one materializes K once, so
    comparing the two exercises genuinely different code paths (and the
    dense matvec makes long reference runs affordable)."""

    def __init__(self, points, bandwidth, huber_mu, poly=None, x0=None, L=None):
        X = np.ascontiguousarray(np.atleast_2d(points), dtype=np.float64)
        xsq = np.sum(X * X, axis=1)
        dim = X.shape[1]
        kappa0, _ = kde_scales(float(bandwidth), float(huber_mu), dim)
        sq = np.maximum(xsq[:, None] - 2.0 * (X @ X.T) + xsq[None, :], 0.0)
        self._K = kappa0 * np.exp(-sq / (2.0 * bandwidth ** 2))
        super().__init__(points, bandwidth, huber_mu, poly=poly, x0=x0, L=L)

    def start_weights(self):
        """Vertex 0: reference_solve_kde's AFW localizes the active set by
        growing it from one vertex, and from the weights 1/n it would keep
        all n."""
        return self.poly.vertex_weights(0)

    def matvec(self, v):
        return self._K @ np.asarray(v, dtype=np.float64)

    def kernel_column(self, j):
        return self._K[:, j].copy()

    def kernel_name(self):
        return None  # oracle path stays off the cycle kernels


def reference_solve_kde(points, bandwidth, huber_mu, afw_iters=800,
                        rounds=40, cert_tol=1e-9, grow=16):
    """Certified reference for the density objective.

    Fixed-step projected gradient stalls on this family (its certified
    smoothness bound is enormous), so the reference works on a
    dense-matrix twin of the objective: away-step Frank-Wolfe localizes
    the active vertex set, then each corrective round solves over the
    weights of that set with a primal active-set Newton method (the
    restricted Hessian has an explicit low-structure form) and admits the
    worst linearization vertices, until the Frank-Wolfe certificate bounds
    the remaining gap below cert_tol (relative) or `rounds` rounds are
    done.  No wall clock is read, so a given input always gives the same
    result.  The certificate ships with the solution, so callers can score
    against the certified interval [f - fw_gap, f] rather than trusting f
    blindly."""
    obj = DenseKdeHuber(points, bandwidth, huber_mu)
    poly = obj.poly
    n = obj.n
    K = obj._K
    kappa0 = obj.kappa0
    mu = obj.mu_h

    cfg = BaselineConfig(max_iter=afw_iters, window=50, window_tol=1e-13,
                         fw_gap_tol=0.0)
    x, trace = afw_solve(obj, poly, cfg)
    support = list(np.flatnonzero(x > 1e-12))
    if not support:
        support = [int(np.argmax(x))]

    def face_solve(support, lam, iters=200):
        """Primal active-set Newton on the face conv{e_j : j in support}
        (Bertsekas 1982; Nocedal & Wright ch. 16): KKT steps on the free
        weights under the sum constraint, a ratio test to the first weight
        that reaches 0 (fixed there at exactly 0) with Armijo backtracking
        below it, and, once the free weights are optimal, the release of
        the fixed weight with the most negative reduced gradient g_j - nu,
        until none is negative or after iters steps."""
        S = np.asarray(support)
        KS = K[:, S]
        KSS = KS[S, :]

        def pieces(lam):
            u = KS @ lam
            t = np.sqrt(np.maximum(float(lam @ u[S]) - 2.0 * u + kappa0, 0.0))
            tm = np.maximum(t, mu)  # huber'(t) / t = mu / tm
            f = float(np.where(t <= mu, 0.5 * t * t,
                               mu * t - 0.5 * mu * mu).sum())
            return u, t, tm, f

        free = lam > 0.0
        u, t, tm, f = pieces(lam)
        scale = max(abs(f), 1.0)
        for it in range(1, iters + 1):
            ratio = mu / tm
            g = float(ratio.sum()) * u[S] - KS.T @ ratio
            # Hessian on the face: sum_i ratio_i K_SS minus the rank-one
            # Huber corrections of the far terms, c2_i = mu / tm_i^3 and
            # row i of Y = K(w - e_i) on the face
            far = t > mu
            Y = (KS[far] - u[S]) * np.sqrt(mu / tm[far] ** 3)[:, None]
            F = np.flatnonzero(free)
            H = (float(ratio.sum()) * KSS - Y.T @ Y)[np.ix_(F, F)]
            m = F.size
            M = np.ones((m + 1, m + 1))
            M[m, m] = 0.0
            M[:m, :m] = H + (1e-12 * max(1.0, float(np.abs(H).max()))) * np.eye(m)
            sol = np.linalg.solve(M, np.append(-g[F], 0.0))
            d, nu = sol[:m], -sol[m]
            dec = -float(g[F] @ d)  # Newton decrement squared
            moved = False
            if dec > 1e-20 * scale:
                # ratio test: the first free weight to reach 0 blocks
                ratios = np.divide(lam[F], -d, out=np.full(m, np.inf),
                                   where=d < 0.0)
                k = int(np.argmin(ratios))
                step, block = ((float(ratios[k]), int(F[k])) if ratios[k] <= 1.0
                               else (1.0, -1))
                for _ in range(40):
                    trial = lam.copy()
                    trial[F] = np.maximum(lam[F] + step * d, 0.0)
                    if block >= 0:
                        trial[block] = 0.0
                    u2, t2, tm2, f2 = pieces(trial)
                    # a blocked step may leave f unchanged: it still
                    # shrinks the free set
                    if f2 <= f - 1e-4 * step * dec and (f2 < f or block >= 0):
                        lam, u, t, tm, f = trial, u2, t2, tm2, f2
                        free &= lam > 0.0
                        moved = True
                        break
                    step *= 0.5
                    block = -1
            if moved:
                continue
            # the free weights are optimal, or admit no further descent:
            # release the fixed weight whose reduced gradient is most negative
            fixed = np.flatnonzero(~free)
            if fixed.size == 0:
                break
            r = g[fixed] - nu
            j = int(np.argmin(r))
            if r[j] >= -1e-12 * scale:
                break
            free[fixed[j]] = True
        return lam / lam.sum(), it

    total_iters = trace[-1].t
    cert = np.inf
    w = x
    f = float(obj.eval_at(w))
    for _ in range(rounds):
        k = len(support)
        lam0 = np.maximum(w[support], 0.0)
        lam0 = lam0 / lam0.sum() if lam0.sum() > 0 else np.full(k, 1.0 / k)
        lam, nit = face_solve(support, lam0)
        w = np.zeros(n)
        w[support] = lam
        f = float(obj.eval_at(w))
        total_iters += nit
        g = obj.grad_at(w)
        cert = float(g @ w - g.min())
        if cert <= cert_tol * max(abs(f), 1.0):
            break
        worst = np.argsort(g)[:grow]
        support = sorted(set(np.flatnonzero(w > 1e-14)) | set(int(v) for v in worst))
    return RefSolution(x=w, f=f, residual=np.nan,
                       fw_gap=cert, iterations=total_iters,
                       converged=cert <= cert_tol * max(abs(f), 1.0))


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
