"""Vertex-enumerated polytopes: standard simplex, l1 ball, explicit vertex lists.

All solvers in this package see the feasible set only through its vertex
list.  The two structured kinds keep vertices in signed one-hot form
(``vertex_coords``/``vertex_scales``) so that a vertex never has to be
materialized as a dense vector on the hot path.
"""

import itertools
import operator

import numpy as np


class PolytopeError(ValueError):
    pass


class UnsupportedSizeError(PolytopeError):
    pass


def _dimension(d, what):
    """d as an int; PolytopeError, naming d, unless d is an integer >= 1."""
    try:
        d = operator.index(d)
    except TypeError:
        raise PolytopeError(
            f"{what} dimension d must be an integer, not {d!r}") from None
    if d < 1:
        raise PolytopeError(f"{what} dimension d must be >= 1")
    return d


def project_simplex(y):
    """Euclidean projection of y onto {x >= 0, sum(x) = 1} (sort + threshold)."""
    y = np.asarray(y, dtype=np.float64)
    u = np.sort(y)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, y.size + 1)
    cond = u - css / ks > 0
    rho = ks[cond][-1]
    tau = css[rho - 1] / rho
    return np.maximum(y - tau, 0.0)


def project_l1_ball(y, radius):
    """Euclidean projection onto {||x||_1 <= radius}, by reduction to a
    simplex projection on |y| when y is outside the ball."""
    y = np.asarray(y, dtype=np.float64)
    a = np.abs(y)
    if a.sum() <= radius:
        return y.copy()
    w = radius * project_simplex(a / radius)
    return np.sign(y) * w


def _simplex_qp(B, y, sizes, tol, max_iter=200_000):
    """argmin ||B @ u - y||^2 over u in a product of simplices, one for each
    block of consecutive entries of u with the given sizes, by accelerated
    projected gradient with monotone restarts."""
    G = 2.0 * (B.T @ B)
    c = -2.0 * (B.T @ y)
    L = np.linalg.norm(G, 2)
    ends = np.cumsum(sizes)[:-1]

    def proj(u):
        return np.concatenate([project_simplex(p) for p in np.split(u, ends)])

    u = proj(np.full(B.shape[1], 0.5))
    if L <= 0:
        return u
    step = 1.0 / L
    v = u.copy()
    theta = 1.0
    f_u = u @ G @ u / 2.0 + c @ u
    for _ in range(max_iter):
        u_new = proj(v - step * (G @ v + c))
        f_new = u_new @ G @ u_new / 2.0 + c @ u_new
        if f_new > f_u:  # restart momentum, fall back to a plain PG step
            u_new = proj(u - step * (G @ u + c))
            f_new = u_new @ G @ u_new / 2.0 + c @ u_new
            theta = 1.0
        theta_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta * theta))
        v = u_new + ((theta - 1.0) / theta_new) * (u_new - u)
        theta = theta_new
        moved = np.max(np.abs(u_new - u))
        u, f_u = u_new, f_new
        if moved <= tol:
            # stationarity of the projected-gradient map at u itself
            if np.max(np.abs(u - proj(u - step * (G @ u + c)))) <= tol:
                break
    return u


class VertexPolytope:
    """Base class: a bounded polytope given by M vertices in R^d."""

    kind = "abstract"
    structured = False  # True when vertices are signed one-hot vectors

    M: int
    d: int

    def vertex(self, i):
        """Dense d-vector for vertex i (0-based)."""
        self._check_index(i)
        return self._vertex_dense(i)

    def vertex_weights(self, i):
        """The weights e_i, an (M,) array, of vertex i alone."""
        self._check_index(i)
        lam = np.zeros(self.M)
        lam[i] = 1.0
        return lam

    def _check_index(self, i):
        if not 0 <= i < self.M:
            raise PolytopeError(f"vertex index {i} out of range [0, {self.M})")

    def _vertex_dense(self, i):
        raise NotImplementedError

    def vertex_matrix(self):
        """All vertices stacked as an (M, d) array."""
        return np.stack([self._vertex_dense(i) for i in range(self.M)])

    def vertex_scores(self, g):
        """<g, v_i> for every vertex i, as an (M,) array."""
        raise NotImplementedError

    def combination(self, lam):
        """sum_j lam_j v_j as a dense d-vector."""
        raise NotImplementedError

    def contains(self, x, tol=1e-10):
        raise NotImplementedError

    def project(self, y):
        """Euclidean projection of y onto the polytope."""
        raise NotImplementedError

    # -- geometric constants -------------------------------------------------

    DIAMETER_PAIR_CAP = 4096

    def diameter(self):
        """max_{i,j} ||v_i - v_j||.

        Exact (pairwise enumeration, or the structured closed form which
        pairwise enumeration attains) for M <= DIAMETER_PAIR_CAP; beyond
        the cap a certified upper bound 2 * max_i ||v_i - centroid|| is
        returned and ``diameter_exact`` is set False.  The convergence
        bounds only ever need an upper bound.
        """
        if getattr(self, "_diam", None) is None:
            self._diam, self.diameter_exact = self._compute_diameter()
        return self._diam

    def _compute_diameter(self):
        V = self.vertex_matrix()
        if self.M <= self.DIAMETER_PAIR_CAP:
            sq = np.sum(V * V, axis=1)
            d2 = sq[:, None] + sq[None, :] - 2.0 * (V @ V.T)
            return float(np.sqrt(max(d2.max(), 0.0))), True
        c = V.mean(axis=0)
        return float(2.0 * np.sqrt(np.max(np.sum((V - c) ** 2, axis=1)))), False

    # -- facial distance -----------------------------------------------------

    FACE_ENUM_CAP = 12

    def facial_distance(self):
        """Smallest distance between a proper face and the hull of the
        remaining vertices.  Face enumeration is exponential in M, so this
        is guarded by a hard cap and intended for tiny instances only."""
        if self.M > self.FACE_ENUM_CAP:
            raise UnsupportedSizeError(
                f"facial distance needs face enumeration; M={self.M} exceeds "
                f"cap {self.FACE_ENUM_CAP}"
            )
        faces = self._proper_faces()
        if not faces:
            raise PolytopeError("polytope has no proper nonempty face")
        V = self.vertex_matrix()
        best = np.inf
        for T in faces:
            U = [i for i in range(self.M) if i not in T]
            B = np.hstack([V[list(T)].T, -V[U].T])
            r = B @ _simplex_qp(B, np.zeros(self.d), (len(T), len(U)),
                                tol=1e-10)
            best = min(best, float(np.sqrt(max(r @ r, 0.0))))
        if not best > 0:
            raise PolytopeError("degenerate polytope: zero facial distance")
        return float(best)

    def _proper_faces(self):
        """Vertex-index sets of every proper nonempty face."""
        V = self.vertex_matrix()
        faces = []
        idx = range(self.M)
        for r in range(1, self.M):
            for T in itertools.combinations(idx, r):
                if self._is_face(V, T):
                    faces.append(frozenset(T))
        return faces

    def _is_face(self, V, T):
        """LP test: is conv(V[T]) exposed by some supporting hyperplane?"""
        from scipy.optimize import linprog

        U = [i for i in range(self.M) if i not in T]
        if not U:
            return False
        d = self.d
        # variables: c (d), offset v, margin t; maximize t
        n_var = d + 2
        cost = np.zeros(n_var)
        cost[-1] = -1.0
        A_eq = np.hstack([V[list(T)], -np.ones((len(T), 1)), np.zeros((len(T), 1))])
        b_eq = np.zeros(len(T))
        A_ub = np.hstack([V[U], -np.ones((len(U), 1)), np.ones((len(U), 1))])
        b_ub = np.zeros(len(U))
        bounds = [(-1, 1)] * d + [(None, None), (0, None)]
        res = linprog(cost, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                      bounds=bounds, method="highs")
        return res.success and -res.fun > 1e-9


class StandardSimplex(VertexPolytope):
    """{x >= 0, sum(x) = 1}; vertex i is the canonical basis vector e_i."""

    kind = "simplex"
    structured = True

    def __init__(self, d):
        d = _dimension(d, "simplex")
        self.d = self.M = d
        self.vertex_coords = np.arange(d, dtype=np.int64)
        self.vertex_scales = np.ones(d)
        self._diam = None

    def _vertex_dense(self, i):
        v = np.zeros(self.d)
        v[i] = 1.0
        return v

    def vertex_scores(self, g):
        return np.asarray(g, dtype=np.float64).copy()

    def combination(self, lam):
        return np.asarray(lam, dtype=np.float64).copy()

    def contains(self, x, tol=1e-10):
        x = np.asarray(x)
        return bool(x.min() >= -tol and abs(x.sum() - 1.0) <= tol)

    def project(self, y):
        return project_simplex(y)

    def _compute_diameter(self):
        return (float(np.sqrt(2.0)) if self.d >= 2 else 0.0), True

    def _proper_faces(self):
        # every nonempty proper vertex subset spans a face
        faces = []
        for r in range(1, self.M):
            faces.extend(frozenset(T) for T in
                         itertools.combinations(range(self.M), r))
        return faces


class L1Ball(VertexPolytope):
    """{||x||_1 <= radius}; vertices in the fixed interleaved order
    (+r e_1, -r e_1, +r e_2, -r e_2, ...).  The cyclic visit order of the
    solvers follows this index order unless a permutation is supplied."""

    kind = "l1ball"
    structured = True

    def __init__(self, d, radius):
        d = _dimension(d, "l1 ball")
        if not (np.isfinite(radius) and radius > 0):
            raise PolytopeError("l1 ball radius must be positive and finite")
        self.d = d
        self.radius = float(radius)
        self.M = 2 * d
        self.vertex_coords = np.repeat(np.arange(d, dtype=np.int64), 2)
        self.vertex_scales = np.tile(np.array([radius, -radius]), d)
        self._diam = None

    def _vertex_dense(self, i):
        v = np.zeros(self.d)
        v[i // 2] = self.radius if i % 2 == 0 else -self.radius
        return v

    def vertex_scores(self, g):
        g = np.asarray(g, dtype=np.float64)
        return g[self.vertex_coords] * self.vertex_scales

    def combination(self, lam):
        out = np.zeros(self.d)
        np.add.at(out, self.vertex_coords, np.asarray(lam) * self.vertex_scales)
        return out

    def contains(self, x, tol=1e-10):
        return bool(np.abs(x).sum() <= self.radius + tol)

    def project(self, y):
        return project_l1_ball(y, self.radius)

    def _compute_diameter(self):
        return float(2.0 * self.radius), True

    def _proper_faces(self):
        # faces are the sign-consistent vertex subsets: at most one of
        # {+e_k, -e_k} per coordinate
        faces = []
        pairs = [(2 * k, 2 * k + 1) for k in range(self.d)]
        for choice in itertools.product((None, 0, 1), repeat=self.d):
            T = [pairs[k][c] for k, c in enumerate(choice) if c is not None]
            if T:
                faces.append(frozenset(T))
        return faces


class ExplicitVertices(VertexPolytope):
    """Polytope given by an explicit (possibly redundant) list of points.

    The convex hull is well-defined even when some listed points are not
    extreme; the solvers then simply cycle over the full list and the
    convergence constants use the list length as M."""

    kind = "explicit"
    structured = False

    def __init__(self, vertices):
        V = np.atleast_2d(np.asarray(vertices, dtype=np.float64))
        if V.ndim != 2 or V.shape[0] < 1:
            raise PolytopeError("need a nonempty (M, d) vertex array")
        if not np.all(np.isfinite(V)):
            raise PolytopeError("vertices must be finite")
        self.V = V
        self.M, self.d = V.shape
        self._diam = None

    def _vertex_dense(self, i):
        return self.V[i].copy()

    def vertex_matrix(self):
        return self.V.copy()

    def vertex_scores(self, g):
        return self.V @ np.asarray(g, dtype=np.float64)

    def combination(self, lam):
        return self.V.T @ np.asarray(lam, dtype=np.float64)

    def contains(self, x, tol=1e-10):
        return bool(np.linalg.norm(self.project(x) - x) <= tol * (1.0 + np.linalg.norm(x)))

    def project(self, y):
        """Projection via the weight-space QP min_{lam in simplex} ||V' lam - y||^2."""
        y = np.asarray(y, dtype=np.float64)
        return self.V.T @ _simplex_qp(self.V.T, y, (self.M,), tol=1e-13)
