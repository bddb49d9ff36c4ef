"""Smooth convex objectives bound to a polytope iterate, with cached state
so that a segment query toward any vertex costs O(n + d).

Every objective keeps its iterate ``x`` plus objective-specific caches (the
product A x for the composite losses, the kernel products for the density
objective) that are updated incrementally by ``apply_step`` and rebuilt from
scratch by one rule that both cyclic paths and the baselines share.  A
rebuild falls only at a pass end (a multiple of M steps), once the passes
since the last one reach an interval: first the fewest passes that hold
``REFRESH_EVERY`` steps, then doubled at each rebuild up to
``REBUILD_CAP`` passes, and restarted by ``reset``.  Each rebuild measures
how far the carried product (A x, K w or Q x) drifted from the fresh one,
relative to the largest |entry| of the family's data times the largest
||v_i||_1 of the polytope; it raises ``CacheConsistencyError`` past
``DRIFT_TOL`` and halves the interval instead of doubling it past
``DRIFT_WARN``.  A density kernel pass rebuilds the caches from its kernel
columns (``_kernels.kde_cycle``) and checks them against ``DRIFT_TOL``.
``eval_at``/``grad_at`` are stateless recomputations used by the oracles, so
they share no code path with the incremental caches.

Each step quantity and update has one source: ``BoundObjective`` applies
every step over a family's cache moves, the composite losses share one body
over a few family hooks, and every density step, per step or in a kernel
pass and under either step rule, starts from ``_kernels.kde_seg0``.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .polytope import StandardSimplex

# the first interval between two rebuilds of an objective's caches is the
# fewest whole passes that hold REFRESH_EVERY steps; each rebuild doubles
# the interval, up to REBUILD_CAP passes
REFRESH_EVERY = 1000
REBUILD_CAP = 64

# rows of the kernel matrix that KdeHuber.matvec builds at a time
KDE_MATVEC_BLOCK = 128

# how far what an objective carries may drift from its rebuild, relative to
# the scale of the terms it is built from: at a rebuild, the carried A x,
# K w or Q x from the fresh one; in kde_cycle, the cache u = K w at the
# start of a pass from the K w that the pass sums from its own kernel
# columns, and the squared distances P carried from move to move (with q
# and ||w||^2) by the end of the pass from their rebuild from q and the u
# that the pass carries per block and writes back with w
# (_kernels.kde_drift).  A rebuild that finds more than DRIFT_WARN halves
# the interval to the next one.
DRIFT_TOL = 1e-10
DRIFT_WARN = DRIFT_TOL / 100


class CacheConsistencyError(RuntimeError):
    """A quantity carried from step to step has drifted from its rebuild
    past DRIFT_TOL."""


@dataclass
class SegmentQuery:
    """Directional data for a step toward one vertex: b = <grad f(x), v - x>
    and c = ||v - x||^2."""

    b: float
    c: float


def grad_step_alpha(b, c, L, lo, hi):
    """Minimizer of alpha*b + (L/2) * alpha^2 * c over [lo, hi].

    Degenerate segment (c = 0): the model is linear, so the minimizer sits
    at the boundary pointed to by the sign of b (lo when b >= 0, hi
    otherwise).
    """
    if hi < lo:
        raise ValueError(f"empty step interval [{lo}, {hi}]")
    if c <= 0.0:
        return lo if b >= 0.0 else hi
    return _kernels.grad_step(b, c, L, lo, hi)


def bisect_line_min(fn, lo, hi, third=None):
    """Minimize a convex 1D function phi on [lo, hi]; fn(alpha) returns
    (phi'(alpha), phi''(alpha)), and third, if given, is phi'''(0).

    ``_kernels.line_min``, the kernels' line search: safeguarded Newton on
    phi', which takes a Newton step only when it lands strictly inside the
    bracket [a, b] with phi'(a) < 0 <= phi'(b) and bisects otherwise.  It
    evaluates fn first at the current point alpha = 0 (clipped to
    [lo, hi]), and the sign of phi' there picks the side of it that it
    searches; a zero or NaN phi'(0) returns 0, which does not move.  It
    stops when the bracket is at most LS_TOL wide or a Newton step at most
    LS_TOL / 4 long, after at most LS_MAX_ITER evaluations besides the one
    at the start and one end test.  Flat stretches of phi' resolve to the
    smallest minimizer on the side searched.  The end of that side is
    tested last, where ``_kernels.end_test_due`` says, and only if the
    search has not moved the bracket off it by then.  Given third, a
    search that starts at 0 takes line_min's Halley first step, so a short
    step costs one evaluation besides the one at the start.

    The name is kept from the derivative-bisection version: it is public,
    and profiling wrappers hook this module attribute by name to count
    the evaluations of each line search.
    """
    if hi < lo:
        raise ValueError(f"empty step interval [{lo}, {hi}]")
    x0 = min(max(0.0, lo), hi)
    d, h = fn(x0)
    return _kernels.line_min(lambda a, curv: fn(a), lo, hi, x0, d, h,
                             _kernels.LS_TOL, _kernels.LS_MAX_ITER,
                             third if x0 == 0.0 else None)


def _power_sigma_sq(matvec, rmatvec, dim, iters=100, seed=0):
    """Largest eigenvalue of A'A via power iteration (A given as matvec pair)."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(iters):
        w = rmatvec(matvec(v))
        nw = np.linalg.norm(w)
        if nw <= 0.0:
            return 0.0
        v = w / nw
        est = nw
    return float(est)


def _require_finite(name, arr):
    """The largest |entry| of the contiguous array arr (0.0 if it is
    empty); ValueError unless every entry is finite.  One scan, block by
    block, so no full-size temporary is made."""
    flat = arr.reshape(-1)
    block = 1 << 16
    top = 0.0
    for lo in range(0, flat.size, block):
        part = flat[lo:lo + block]
        low, high = float(part.min()), float(part.max())
        # a NaN fails both comparisons
        if not (-np.inf < low and high < np.inf):
            raise ValueError(f"{name} has non-finite entries")
        top = max(top, high, -low)
    return top


def _l1_radius(poly):
    """The largest ||v_i||_1 over the polytope's vertices, which bounds
    ||x||_1 at every point of it."""
    if poly.structured:
        return float(np.abs(poly.vertex_scales).max())
    return float(np.abs(poly.vertex_matrix()).sum(axis=1).max())


def smoothness_override(L, name="L"):
    """float(L), or None where L is None and the family's bound is to be
    estimated; ValueError naming the override unless it is finite and
    positive (a zero, negative or infinite L freezes the step rule, and a
    NaN one poisons the weights)."""
    if L is None:
        return None
    L = float(L)
    if not 0.0 < L < np.inf:
        raise ValueError(f"{name} must be finite and positive, got {L!r}")
    return L


class BoundObjective:
    """Shared iterate/cache bookkeeping for all objective families.

    A zero step only counts toward the rebuild; any other step calls the
    family's _move, or for a pair move its _pair_move, which moves the
    caches before x_i, x_j and ||x||^2 (sq_x) are written here.  _steps
    counts the steps since the last rebuild, and _bump rebuilds at the pass
    end (a multiple of M) where they reach _interval passes.  reset sets
    _interval to the fewest passes that hold REFRESH_EVERY steps, and each
    rebuild (_rebuild) doubles it up to REBUILD_CAP, or halves it where the
    drift it measures, in drift, exceeds DRIFT_WARN.  A family names its
    carried product vector in _PRODUCT and gives _init_state the largest
    |entry| of the data that builds it, from the construction's finiteness
    scan."""

    _PRODUCT = "z"

    def _init_state(self, poly, x0, data_max):
        self.poly = poly
        # the drift scale: |(A x)_i| <= max|A| ||x||_1 <= max|A| max||v||_1
        self._drift_scale = data_max * _l1_radius(poly)
        self.drift = 0.0  # measured by the last rebuild
        self._steps = 0
        self._rebuilt_at = None  # the bytes of the x of reset's last rebuild
        self.reset(x0)

    def start_weights(self):
        """The vertex weights of the default start of every solver and of
        reset() without a point: vertex 0."""
        return self.poly.vertex_weights(0)

    def reset(self, x0=None):
        """Start at the finite point x0 (default: the combination of
        start_weights()).  The caches are kept when no step followed their
        last rebuild, reset's last was at x0 bitwise and x still holds x0."""
        if x0 is None:
            x0 = self.poly.combination(self.start_weights())
        x = np.array(x0, dtype=np.float64)
        if x.shape != (self.poly.d,):
            raise ValueError("start point dimension mismatch")
        _require_finite("x0", x)
        keep = (self._steps == 0
                and self._rebuilt_at == x.tobytes() == self.x.tobytes())
        self.x = x
        self._steps = 0
        self._interval = -(-REFRESH_EVERY // self.poly.M)
        if not keep:
            self.refresh_cache()
            self._rebuilt_at = x.tobytes()

    def refresh_cache(self):
        raise NotImplementedError

    def _bump(self, k=1):
        self._steps += k
        M = self.poly.M
        if self._steps >= self._interval * M and self._steps % M == 0:
            self._rebuild()

    def _rebuild(self):
        # refresh_cache, checking the carried product it replaces against
        # the fresh one; the next interval doubles, or halves on a warning
        carried = getattr(self, self._PRODUCT)
        self.refresh_cache()
        gap = float(np.max(np.abs(carried - getattr(self, self._PRODUCT)),
                           initial=0.0))
        scale = self._drift_scale
        self.drift = gap / scale if scale > 0.0 else gap
        if not gap <= DRIFT_TOL * scale:
            raise CacheConsistencyError(
                f"the carried {self._PRODUCT} drifted {self.drift:.2e} from "
                f"its rebuild, past {DRIFT_TOL:.0e}")
        self._steps = 0
        self._interval = (max(self._interval // 2, 1)
                          if gap > DRIFT_WARN * scale
                          else min(2 * self._interval, REBUILD_CAP))

    def apply_step(self, i, alpha):
        """Move x by the step alpha toward vertex i."""
        if alpha != 0.0:
            self._move(i, alpha)
        self._bump()

    def apply_pair_step(self, i, j, theta):
        """Move x by theta (e_i - e_j), a coordinate-pair move on a simplex
        domain (the two-coordinate baseline)."""
        if theta != 0.0:
            self._pair_move(i, j, theta)
            xi, xj = self.x[i], self.x[j]
            self.x[i] += theta
            self.x[j] -= theta
            self.sq_x += 2.0 * theta * (xi - xj) + 2.0 * theta * theta
        self._bump()

    @property
    def L(self):
        """The smoothness bound, estimated on first use unless given."""
        if self._L_cached is None:
            self._L_cached = self.estimate_smoothness()
        return self._L_cached

    def _seg_c(self, i):
        """(c, scale): c = ||v_i - x||^2 and scale = ||x||^2 + ||v_i||^2."""
        v = self.poly.vertex(i)
        dv = v - self.x
        return float(dv @ dv), self.sq_x + float(v @ v)

    def segment_is_degenerate(self, i):
        # v_i coincides with x up to float cancellation; the solvers skip
        # such steps (any step size leaves x unchanged)
        return _kernels.is_degenerate(*self._seg_c(i))

    # kernel hooks; overridden where a cycle kernel exists
    def kernel_name(self):
        return None

    def run_cycle(self, fn, order, lam, grad_rule, away,
                  gamma_cap, drop_tol, ls_tol, ls_max_iter):
        raise NotImplementedError


class _CompositeObjective(BoundObjective):
    """g(A x) losses: caches z = A x and ||x||^2 for O(n + d) steps.

    A family supplies its loss g (_g_of), the gradient of g at a point
    (_resid_grad_at), the slope <grad g(z), w> at the cached z
    (_dir_deriv), the argmin over [lo, hi] of g(z + alpha w) along the move
    `key` names, a vertex i or a pair (i, j) (_argmin), a bound G2 on g''
    that sets L = G2 sigma_max(A)^2, the name of its cycle kernel over
    coordinate vertices (KERNEL) and the terms that kernel reads per block
    of its plan (_block_terms)."""

    def __init__(self, A, poly, x0=None, L=None):
        A = np.ascontiguousarray(A, dtype=np.float64)
        if A.ndim != 2:
            raise ValueError("A must be 2-dimensional")
        a_max = _require_finite("A", A)
        if A.shape[1] != poly.d:
            raise ValueError(
                f"objective/polytope dimension mismatch: A has {A.shape[1]} "
                f"columns, polytope lives in R^{poly.d}")
        self.A = A
        self.A_cols = np.ascontiguousarray(A.T)
        self.n, self.d = A.shape
        if poly.structured:
            self._pv_cols = None
        else:
            # effective data column per listed vertex, A v_i
            self._pv_cols = np.ascontiguousarray((A @ poly.vertex_matrix().T).T)
        self._L_cached = smoothness_override(L)
        self._plan = None  # (key of an order, its plan), for the kernel
        self._init_state(poly, x0, a_max)

    def refresh_cache(self):
        self.z = self.A @ self.x
        self.sq_x = float(self.x @ self.x)

    def _order_plan(self, order):
        """_kernels.block_plan of the visit order with the family's
        _block_terms, kept for the last order run (keyed by its bytes)."""
        key = (_kernels.LS_BLOCK, order.tobytes())
        if self._plan is None or self._plan[0] != key:
            self._plan = key, [self._block_terms(*block) for block in
                               _kernels.block_plan(order,
                                                   self.poly.vertex_coords,
                                                   self.poly.vertex_scales)]
        return self._plan[1]

    def _col_scale(self, i):
        if self._pv_cols is None:
            return (self.A_cols[self.poly.vertex_coords[i]],
                    float(self.poly.vertex_scales[i]))
        return self._pv_cols[i], 1.0

    def _seg_c(self, i):
        if self._pv_cols is not None:
            return super()._seg_c(i)
        j = self.poly.vertex_coords[i]
        s = self.poly.vertex_scales[i]
        return self.sq_x - 2.0 * s * self.x[j] + s * s, self.sq_x + s * s

    def segment_query(self, i):
        col, s = self._col_scale(i)
        return SegmentQuery(b=self._dir_deriv(s * col - self.z),
                            c=max(self._seg_c(i)[0], 0.0))

    def line_search(self, i, lo, hi):
        """argmin over [lo, hi] of f along the segment toward vertex i."""
        col, s = self._col_scale(i)
        return self._argmin(s * col - self.z, lo, hi, i)

    def _move(self, i, alpha):
        col, s = self._col_scale(i)
        zv = s * col
        if self._pv_cols is None:
            self.sq_x = _kernels.vertex_move(
                self.x, self.poly.vertex_coords[i], s, alpha, self.sq_x,
                self.z, zv, zv - self.z)
        else:
            v = self.poly.vertex(i)
            if alpha == 1.0:
                self.z = zv
                self.x = v
            else:
                self.z += alpha * (zv - self.z)
                self.x += alpha * (v - self.x)
            self.sq_x = float(self.x @ self.x)

    def _resid_grad(self):
        # the gradient of g at the cached z
        return self._resid_grad_at(self.z)

    def full_gradient(self):
        return self.A_cols @ self._resid_grad()

    def grad_at(self, y):
        return self.A.T @ self._resid_grad_at(self.A @ np.asarray(y, dtype=np.float64))

    def eval_at(self, y):
        return self._g_of(self.A @ np.asarray(y, dtype=np.float64))

    def eval(self):
        return self._g_of(self.z)

    # coordinate-pair moves x <- x + theta (e_i - e_j) act on the
    # coordinates x_i, x_j, so their image is theta (A e_i - A e_j)
    # whatever the polytope's vertex list
    def _pair_dir(self, i, j):
        return self.A_cols[i] - self.A_cols[j]

    def pair_line_search(self, i, j, lo, hi):
        return self._argmin(self._pair_dir(i, j), lo, hi, (i, j))

    def _pair_move(self, i, j, theta):
        self.z += theta * self._pair_dir(i, j)

    def estimate_smoothness(self):
        sig = _power_sigma_sq(lambda v: self.A @ v, lambda w: self.A.T @ w, self.d)
        return max(self.G2 * sig * 1.01, 1e-12)

    def kernel_name(self):
        return self.KERNEL if self._pv_cols is None else None


class LeastSquares(_CompositeObjective):
    """f(x) = ||A x - b||^2 with cached residual products."""

    G2 = 2.0
    KERNEL = "ls_cycle"

    def __init__(self, A, b, poly, x0=None, L=None):
        self.bvec = np.ascontiguousarray(b, dtype=np.float64)
        _require_finite("b", self.bvec)
        super().__init__(A, poly, x0, L)
        if self.bvec.shape != (self.n,):
            raise ValueError("b must have one entry per row of A")

    def _g_of(self, z):
        r = z - self.bvec
        return float(r @ r)

    def _resid_grad_at(self, z):
        return 2.0 * (z - self.bvec)

    def _dir_deriv(self, w):
        return 2.0 * (float(w @ self.z) - float(w @ self.bvec))

    def _argmin(self, w, lo, hi, key):
        # closed form: phi(alpha) = f(z + alpha w) has phi'(0) =
        # _dir_deriv(w) and phi'' = 2 w.w
        return grad_step_alpha(self._dir_deriv(w), float(w @ w), 2.0, lo, hi)

    def _block_terms(self, rows, R, V, J, S):
        # ls_cycle's block: the b-terms s col.b come from one call over the
        # block, the call shape of its scores, so they cancel against them
        # exactly where z = b; the Grams hold at most M LS_BLOCK floats
        Ab = self.A_cols[rows]
        return rows, np.dot(Ab, Ab.T), list(zip(
            R.tolist(), S.tolist(), (S * np.dot(Ab, self.bvec)[R]).tolist(),
            V.tolist(), J.tolist(), np.einsum("ij,ij->i", Ab, Ab)[R].tolist()))

    def run_cycle(self, fn, order, lam, grad_rule, away,
                  gamma_cap, drop_tol, ls_tol, ls_max_iter):
        L = self.L if grad_rule else 1.0
        self.sq_x = fn(self.A_cols, self.bvec, self._order_plan(order),
                       self.z, self.x, lam, grad_rule, away, L, self.sq_x,
                       gamma_cap, drop_tol)
        self._bump(len(order))


class Logistic(_CompositeObjective):
    """f(x) = sum_i log(1 + exp(-y_i a_i' x)) with cached margins A x.

    It also keeps ym = y z and sig = sigmoid_neg(ym) at the cached z, once
    read: the gradient, the segment slopes and the start of each line
    search read them.  As in logistic_cycle, a move by the step at which
    its line search evaluated last takes that evaluation's (ym, sig),
    except a full step, which copies the vertex's column into z; any other
    change to z drops them."""

    G2 = 0.25
    KERNEL = "logistic_cycle"

    def __init__(self, A, labels, poly, x0=None, L=None):
        self.labels = np.ascontiguousarray(labels, dtype=np.float64)
        if not np.all(np.abs(self.labels) == 1.0):
            raise ValueError("labels must be +/-1")
        super().__init__(A, poly, x0, L)
        if self.labels.shape != (self.n,):
            raise ValueError("labels must have one entry per row of A")

    def refresh_cache(self):
        super().refresh_cache()
        self._ms = None  # (ym, sig) at z, once read
        self._last = None  # (key, alpha, ym, sig) of the last evaluation

    def _margins(self):
        if self._ms is None:
            ym = self.labels * self.z
            self._ms = ym, _kernels.sigmoid_neg(ym)
        return self._ms

    def _g_of(self, z):
        return float(np.logaddexp(0.0, -self.labels * z).sum())

    def _resid_grad_at(self, z):
        return -self.labels * _kernels.sigmoid_neg(self.labels * z)

    def _resid_grad(self):
        return -self.labels * self._margins()[1]

    def _dir_deriv(self, w):
        return float(self._resid_grad() @ w)

    def _argmin(self, w, lo, hi, key):
        # bisect_line_min on (phi', phi'') of phi(a) = f(z + a w)
        ym, sig = self._margins()
        yw = self.labels * w
        yw2 = yw * yw

        def fn(a):
            if a == 0.0:
                m, sa, sga = ym, sig, None
            else:
                m, sa, sga = _kernels.logistic_at(ym, yw, a, True)
            self._last = key, a, m, sa
            return _kernels.logistic_seg(sa, yw, yw2, True, sga)
        return bisect_line_min(fn, lo, hi)

    def _adopt(self, key, step, exact):
        # after z moved by step along the move key, as z + fl(step w) where
        # exact: the margins of the last evaluation if it was there
        last, self._last = self._last, None
        self._ms = (last[2:] if exact and last is not None
                    and last[:2] == (key, step) else None)

    def _move(self, i, alpha):
        super()._move(i, alpha)
        self._adopt(i, alpha, alpha != 1.0)

    def _pair_move(self, i, j, theta):
        super()._pair_move(i, j, theta)
        self._adopt((i, j), theta, True)

    def _block_terms(self, rows, R, V, J, S):
        # logistic_cycle's screen margin term |s| ||col||_1 per position
        return (rows, R, V, J, S,
                np.abs(S) * np.abs(self.A_cols[rows]).sum(axis=1)[R])

    def run_cycle(self, fn, order, lam, grad_rule, away,
                  gamma_cap, drop_tol, ls_tol, ls_max_iter):
        L = self.L if grad_rule else 1.0
        self.sq_x = fn(self.A_cols, self.labels, self._order_plan(order),
                       self.z, self.x, lam, grad_rule, away, L, self.sq_x,
                       gamma_cap, drop_tol, ls_tol, ls_max_iter)
        self._ms = self._last = None
        self._bump(len(order))


def huber(t, mu):
    t = np.asarray(t, dtype=np.float64)
    return np.where(t <= mu, 0.5 * t * t, mu * t - 0.5 * mu * mu)


def kde_scales(bandwidth, huber_mu, dim):
    """(kappa0, 1/(2 bandwidth^2)): the scale and the exponent factor of the
    Gaussian kernel of the given bandwidth in dimension dim, for float
    parameters.  ValueError, naming the parameter at fault, unless both
    parameters are positive, kappa0 and 1/(2 bandwidth^2) are finite and
    positive, and huber_mu^2 is a normal number."""
    if not bandwidth > 0:
        raise ValueError("bandwidth must be positive")
    if not huber_mu > 0:
        raise ValueError("huber_mu must be positive")
    # kde_seg relies on sqrt(fl(mu^2)) == mu, which holds while mu^2 is a
    # normal number
    if not np.finfo(np.float64).tiny <= huber_mu * huber_mu < np.inf:
        raise ValueError(f"huber_mu {huber_mu!r} is not finite or its square "
                         "overflows or underflows")
    try:
        var = bandwidth ** 2
        kappa0 = (2.0 * np.pi * var) ** (-dim / 2.0)
        inv2s2 = 1.0 / (2.0 * var)
    except (OverflowError, ZeroDivisionError):
        kappa0 = inv2s2 = 0.0
    if not (0.0 < kappa0 < np.inf and 0.0 < inv2s2 < np.inf):
        raise ValueError(
            f"bandwidth {bandwidth!r} gives a kernel scale kappa0 or exponent "
            f"1/(2 bandwidth^2) that is not finite and positive for points "
            f"in dimension {dim}")
    return kappa0, inv2s2


def kde_points(points):
    """The sample points as a contiguous float64 (n, dim) array; ValueError
    naming points unless they are 2-D and finite.  A 1-D array of n samples
    is rejected, not read as one point in dimension n."""
    X = np.ascontiguousarray(points, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"points must be a 2-D (n, dim) array, got "
                         f"{X.ndim}-D shape {X.shape}")
    _require_finite("points", X)
    return X


class KdeHuber(BoundObjective):
    """Robust kernel-weight objective over the simplex of sample weights.

    f(w) = sum_i huber(sqrt(w'Kw - 2 e_i'Kw + K_ii)) for the Gaussian kernel
    matrix K of the sample points, which are rejected unless they form a
    2-D (n, dim) array (kde_points).  K is never materialized: columns are
    recomputed on demand, and a dense product builds each block of rows of
    K once, only on and right of its diagonal (matvec).  Caches the vector
    u = K w, the scalar q = w'Kw and ||w||^2.
    """

    _PRODUCT = "u"

    def __init__(self, points, bandwidth, huber_mu, poly=None, x0=None, L=None):
        X = kde_points(points)
        self.X = X
        self.n, self.dim_pts = X.shape
        self.bandwidth = float(bandwidth)
        self.mu_h = float(huber_mu)
        self.kappa0, self.inv2s2 = kde_scales(self.bandwidth, self.mu_h,
                                              self.dim_pts)
        self.xsq = np.sum(X * X, axis=1)
        if poly is None:
            poly = StandardSimplex(self.n)
        if not (isinstance(poly, StandardSimplex) and poly.d == self.n):
            raise ValueError("weight vector must live on the simplex of the samples")
        self._L_cached = smoothness_override(L)
        self._cols = {}
        self._work = _kernels.kde_work(self.n)  # the per-step searches' rows
        self._init_state(poly, x0, self.kappa0)  # K's largest entry

    def kernel_column(self, j):
        return _kernels.kde_columns(self.X, self.xsq, np.array([j]),
                                    self.kappa0, self.inv2s2)[0]

    def _column(self, j):
        # the last two columns built, by index and read-only: a line search
        # and the step it chooses (one column, or a pair move's two) share
        # them
        kcol = self._cols.get(j)
        if kcol is None:
            if len(self._cols) == 2:
                del self._cols[next(iter(self._cols))]
            kcol = self._cols[j] = self.kernel_column(j)
            kcol.flags.writeable = False
        return kcol

    def matvec(self, v):
        """K @ v by the symmetry of K: for each block of KDE_MATVEC_BLOCK
        rows [lo, hi), one kde_columns call on the suffix X[lo:] builds
        only K[lo:hi, lo:], which gives out[lo:hi] its part K[lo:hi, lo:]
        v[lo:] and, transposed, out[hi:] its part K[hi:, lo:hi] v[lo:hi].
        So sum (hi - lo)(n - lo), about n (n + KDE_MATVEC_BLOCK) / 2, of
        the n^2 entries are built, all into one buffer of
        KDE_MATVEC_BLOCK n floats."""
        v = np.asarray(v, dtype=np.float64)
        n = self.n
        out = np.zeros(n)
        buf = np.empty(min(KDE_MATVEC_BLOCK, n) * n)
        for lo in range(0, n, KDE_MATVEC_BLOCK):
            hi = min(lo + KDE_MATVEC_BLOCK, n)
            Kb = _kernels.kde_columns(self.X[lo:], self.xsq[lo:],
                                      np.arange(hi - lo), self.kappa0,
                                      self.inv2s2, buf)
            out[lo:hi] += Kb @ v[lo:]
            out[hi:] += v[lo:hi] @ Kb[:, hi - lo:]
        return out

    def refresh_cache(self):
        self.u = self.matvec(self.x)
        self.q = float(self.x @ self.u)
        self.sq_x = float(self.x @ self.x)

    def _dist(self, u, q):
        # the distances t_i at the weights w with u = K w and q = w'Kw
        return np.sqrt(np.maximum(q - 2.0 * u + self.kappa0, 0.0))

    def _caches_at(self, y):
        y = np.asarray(y, dtype=np.float64)
        uy = self.matvec(y)
        return uy, float(y @ uy)

    def _grad(self, u, q):
        ratio = _kernels.huber_ratio(self._dist(u, q), self.mu_h)
        return float(ratio.sum()) * u - self.matvec(ratio)

    def eval(self):
        return float(huber(self._dist(self.u, self.q), self.mu_h).sum())

    def eval_at(self, y):
        return float(huber(self._dist(*self._caches_at(y)), self.mu_h).sum())

    def grad_at(self, y):
        return self._grad(*self._caches_at(y))

    def full_gradient(self):
        return self._grad(self.u, self.q)

    def _seg_c(self, i):
        return self.sq_x - 2.0 * self.x[i] + 1.0, self.sq_x + 1.0

    def _start(self, ka, kb, b, C):
        """(phi'(0), phi''(0), sums) of the move with t_i^2 = P_i + a R_i
        + a^2 C, P = q - 2u + kappa0 and R = b - 2 (ka - kb), from the
        objective's start set, as each move of kde_cycle starts."""
        S0 = self._work[0]
        _kernels.kde_start(self.u, self.q, self.kappa0, self.mu_h, S0)
        np.subtract(ka, kb, S0[1])
        return _kernels.kde_seg0(S0[1], b, C, S0)

    def _vertex_start(self, i):
        # _start's arguments for the move toward e_i
        ui = float(self.u[i])
        return (self._column(i), self.u, 2.0 * (ui - self.q),
                self.q - 2.0 * ui + self.kappa0)

    def start_weights(self):
        """The ordinary KDE weights 1/n.  The robust KDE reweights them, and
        Kim & Scott (JMLR 2012) start their KIRWLS iteration there."""
        return np.full(self.n, 1.0 / self.n)

    def segment_query(self, i):
        return SegmentQuery(b=self._start(*self._vertex_start(i))[0],
                            c=max(self._seg_c(i)[0], 0.0))

    def _line_min(self, ka, kb, b, C, lo, hi):
        # bisect_line_min along the move _start describes, with phi'''(0),
        # in the objective's row sets: it allocates no n-length array
        S0, S1, S2 = self._work
        d, h, sums = self._start(ka, kb, b, C)
        third = _kernels.kde_third(C, sums, S0, S2[0])

        def fn(a):
            if a == 0.0:
                return d, h
            return _kernels.kde_seg(a, S0, S1, C, self.mu_h, True)
        return bisect_line_min(fn, lo, hi, third=third)

    def line_search(self, i, lo, hi):
        if hi < lo:
            raise ValueError(f"empty step interval [{lo}, {hi}]")
        if self._seg_c(i)[0] <= 0.0:
            return lo
        return self._line_min(*self._vertex_start(i), lo, hi)

    def _move(self, i, alpha):
        kcol = self._column(i)
        self.q, self.sq_x = _kernels.kde_move(
            self.u, kcol, kcol - self.u, self.x, i, alpha, self.q, self.sq_x,
            self.kappa0)

    def pair_line_search(self, i, j, lo, hi):
        ki = self._column(i)
        kj = self._column(j)
        curv = float(ki[i] - 2.0 * ki[j] + kj[j])
        return self._line_min(ki, kj, 2.0 * (self.u[i] - self.u[j]), curv,
                              lo, hi)

    def _pair_move(self, i, j, theta):
        ki = self._column(i)
        kj = self._column(j)
        curv = ki[i] - 2.0 * ki[j] + kj[j]
        self.q += 2.0 * theta * (self.u[i] - self.u[j]) + theta * theta * curv
        self.u += theta * (ki - kj)

    def estimate_smoothness(self):
        # each huber-of-distance term is 1-smooth in the K^(1/2) metric, so
        # the sum of n terms is bounded by n * sigma_max(K); K is symmetric
        # PSD, so the power iteration yields sigma_max(K) directly
        sig = _power_sigma_sq(self.matvec, lambda v: v, self.n, iters=30)
        return max(1.01 * self.n * sig, 1e-12)

    def kernel_name(self):
        return "kde_cycle"

    def run_cycle(self, fn, order, lam, grad_rule, away,
                  gamma_cap, drop_tol, ls_tol, ls_max_iter):
        L = self.L if grad_rule else 1.0
        self.q, self.sq_x, drift = fn(
            self.X, self.xsq, self.u, self.x, lam, order, grad_rule, away, L,
            self.kappa0, self.inv2s2, self.mu_h, self.q, self.sq_x,
            gamma_cap, drop_tol, ls_tol, ls_max_iter)
        self.drift = drift
        if not drift <= DRIFT_TOL:
            raise CacheConsistencyError(
                f"the caches kde_cycle carries drifted {drift:.2e} from "
                f"their rebuild, past {DRIFT_TOL:.0e}")
        # the pass rebuilt the caches, to other bits than refresh_cache's
        self._steps = 0
        self._rebuilt_at = None


class Quadratic(BoundObjective):
    """f(x) = 0.5 x'Qx + q'x + c0 on a small polytope; exact constants.

    Used by the rate-bound suites: L and the strong-convexity modulus mu are
    the extreme eigenvalues of Q, computed exactly.
    """

    _PRODUCT = "g"

    def __init__(self, Q, qlin=None, c0=0.0, poly=None, x0=None):
        Q = np.ascontiguousarray(Q, dtype=np.float64)
        q_max = _require_finite("Q", Q)
        Q = 0.5 * (Q + Q.T)
        self.Q = Q
        self.d = Q.shape[0]
        self.qlin = (np.zeros(self.d) if qlin is None
                     else np.ascontiguousarray(qlin, dtype=np.float64))
        _require_finite("q", self.qlin)
        self.c0 = float(c0)
        if poly is None:
            raise ValueError("Quadratic needs an explicit polytope")
        if poly.d != self.d:
            raise ValueError("objective/polytope dimension mismatch")
        evals = np.linalg.eigvalsh(Q)
        self._L_cached = max(float(np.abs(evals).max()), 1e-12)
        self.mu = float(evals.min())
        self._QV = poly.vertex_matrix() @ Q  # row i = (Q v_i)'
        # max|Q| bounds the entries of its symmetric part too
        self._init_state(poly, x0, q_max)

    def refresh_cache(self):
        self.g = self.Q @ self.x
        self.sq_x = float(self.x @ self.x)

    def eval(self):
        return float(0.5 * (self.x @ self.g) + self.qlin @ self.x + self.c0)

    def eval_at(self, y):
        y = np.asarray(y, dtype=np.float64)
        return float(0.5 * (y @ (self.Q @ y)) + self.qlin @ y + self.c0)

    def grad_at(self, y):
        return self.Q @ np.asarray(y, dtype=np.float64) + self.qlin

    def full_gradient(self):
        return self.g + self.qlin

    def estimate_smoothness(self):
        return self.L

    def segment_query(self, i):
        dv = self.poly.vertex(i) - self.x
        b = float((self.g + self.qlin) @ dv)
        return SegmentQuery(b=b, c=float(dv @ dv))

    def line_search(self, i, lo, hi):
        # exact: the gradient rule with the segment's curvature and L = 1
        dv = self.poly.vertex(i) - self.x
        b = float((self.g + self.qlin) @ dv)
        curv = float((self._QV[i] - self.g) @ dv)
        return grad_step_alpha(b, curv, 1.0, lo, hi)

    def _move(self, i, alpha):
        if alpha == 1.0:
            self.x = self.poly.vertex(i)
            self.g = self._QV[i].copy()
        else:
            v = self.poly.vertex(i)
            self.x += alpha * (v - self.x)
            self.g += alpha * (self._QV[i] - self.g)
        self.sq_x = float(self.x @ self.x)

    def pair_line_search(self, i, j, lo, hi):
        b = float(self.g[i] - self.g[j] + self.qlin[i] - self.qlin[j])
        curv = float(self.Q[i, i] - 2.0 * self.Q[i, j] + self.Q[j, j])
        return grad_step_alpha(b, curv, 1.0, lo, hi)

    def _pair_move(self, i, j, theta):
        self.g += theta * (self.Q[:, i] - self.Q[:, j])
