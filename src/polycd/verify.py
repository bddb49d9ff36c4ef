"""Certified reference solutions.

A reference recomputes from first principles (stateless evaluations and a
dense kernel matrix), so the incremental-cache solver path is never on both
sides of a comparison, and it ships a Frank-Wolfe certificate that bounds
its remaining gap.
"""

from dataclasses import dataclass

import numpy as np

from .baselines import BaselineConfig, afw_solve
from .objectives import KdeHuber, kde_points, kde_scales


@dataclass
class RefSolution:
    x: np.ndarray
    f: float
    fw_gap: float    # linearization certificate: upper bound on f(x) - f*
    iterations: int
    converged: bool


def certify_fw_gap(obj, poly, x):
    """max_v <grad f(x), x - v> over the vertices: a computable upper bound
    on the optimality gap of x."""
    g = obj.grad_at(x)
    scores = poly.vertex_scores(g)
    return float(g @ x - scores.min())


class DenseKdeHuber(KdeHuber):
    """Kernel-weight objective with the kernel matrix held densely.

    Oracle-only twin of the production objective: the production class
    recomputes kernel columns on demand, this one materializes K once, so
    comparing the two exercises genuinely different code paths (and the
    dense matvec makes long reference runs affordable)."""

    def __init__(self, points, bandwidth, huber_mu, poly=None, L=None):
        X = kde_points(points)
        xsq = np.sum(X * X, axis=1)
        dim = X.shape[1]
        kappa0, _ = kde_scales(float(bandwidth), float(huber_mu), dim)
        sq = np.maximum(xsq[:, None] - 2.0 * (X @ X.T) + xsq[None, :], 0.0)
        self._K = kappa0 * np.exp(-sq / (2.0 * bandwidth ** 2))
        super().__init__(points, bandwidth, huber_mu, poly=poly, L=L)

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
    return RefSolution(x=w, f=f, fw_gap=cert, iterations=total_iters,
                       converged=cert <= cert_tol * max(abs(f), 1.0))
