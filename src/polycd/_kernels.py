"""Hot inner-loop kernels, one per objective family, in plain numpy.

Each kernel runs one full outer pass (one sweep over the vertex visit
order) of the cyclic solver for one objective family, mutating the iterate
and its cached quantities in place.  The density kernel also rebuilds its
caches from the kernel columns it builds, so its pass needs no separate
refresh.  The least-squares and logistic kernels run over a plan of
their visit order (block_plan) with per-block terms, such as the blocks'
Grams that carry the least-squares scores, which their objective adds
once per order.

The step math that every vertex step shares is written once, as the
helpers below: the step interval (step_interval), the away-step weight
update with its drop snap (away_update), which carries the weights'
rescale as one scalar that a pass folds in when it ends (carry_scale),
the 1D gradient rule, the
safeguarded Newton line search (newton_step, end_test_due and the loop
line_min, which starts at the current point alpha = 0 and can take its
first step to third order; defaults LS_TOL and LS_MAX_ITER), the segment
derivatives of the logistic and kernel-density losses and their values at
alpha = 0 (logistic_start, kde_start, kde_seg0, kde_third, which serve
both step rules) or along a logistic move (logistic_at), the move of the
iterate toward a coordinate vertex (coord_move, with a cache vertex_move)
and its scalar updates (step_sq), and the range of a scale a pass carries
unapplied (scale_in_range).  The kernels, the per-step path of the
solvers (which a run given an inner_callback takes), the away-step
Frank-Wolfe baseline and the objective methods all call them.
"""

import numpy as np

# provenance that run records report: the kernels run as plain numpy
HAVE_NUMBA = False


def active_backend():
    return "numpy"


def kernel(name):
    """Return the cycle kernel called name."""
    return _KERNELS[name]


# ---------------------------------------------------------------------------
# shared step conventions
#
# Every kernel visits vertices in the given order.  For vertex index i the
# admissible step interval is [0, 1], or [-gamma_i, 1] in away mode with
# gamma_i = lam_i / (1 - lam_i) capped at gamma_cap (step_interval).  A step
# landing within drop_tol of an uncapped -gamma_i is snapped to it and the
# weight is written as an exact zero (away_update).
#
# Degenerate segments (v_i == x up to float cancellation, detected by
# ||v - x||^2 falling below a relative floor: is_degenerate) are skipped
# with alpha = 0: every step size leaves x unchanged there, and any other
# choice would only rescale the weights and amplify last-bit cache noise --
# with lam_i = 1 the admissible interval is formally unbounded below, so
# this is also the only numerically safe reading of that convention.
# ---------------------------------------------------------------------------

_DEGENERATE_REL = 1e-13

# snap-to-drop tolerance around alpha = -gamma_i
DROP_TOL = 1e-14

# the cap on the away-step length gamma_i (step_interval)
GAMMA_CAP = 1e12

# the line searches' stopping width and evaluation budget (line_min)
LS_TOL = 1e-12
LS_MAX_ITER = 200

def is_degenerate(c, scale):
    """Whether a segment with c = ||v - x||^2 counts as degenerate, where
    scale = ||x||^2 + ||v||^2."""
    return c <= _DEGENERATE_REL * scale


def step_interval(away, lam, scale, i, gamma_cap):
    """(lo, capped): the step toward vertex i ranges over [lo, 1].  Plain
    mode gives [0, 1]; away mode gives lo = -min(gamma_i, gamma_cap) with
    gamma_i = lam_i / (1 - lam_i), where lam_i = scale * lam[i] (the scale
    that away_update carries), and capped says whether the cap binds."""
    if not away:
        return 0.0, False
    lam_i = scale * float(lam[i])
    if lam_i >= 1.0:
        return -gamma_cap, True
    gma = lam_i / (1.0 - lam_i)
    if gma > gamma_cap:
        return -gamma_cap, True
    return -gma, False


def carry_scale(v, scale, beta):
    """The scale that v carries unapplied (v stands for scale * v), times
    beta; where that product leaves scale_in_range it is folded into v,
    which then carries the scale 1."""
    scale *= beta
    if scale_in_range(scale):
        return scale
    v *= scale
    return 1.0


def away_update(lam, scale, i, alpha, lo, capped, drop_tol):
    """Update the weights scale * lam in place for the step alpha toward
    vertex i on [lo, 1] and return (the step taken, the new scale).  Every
    weight scales by 1 - alpha, which the returned scale carries
    (carry_scale), so a step writes only lam[i]; the caller folds the scale
    into lam (lam *= scale) when its pass ends.  The scale is folded before
    alpha / scale is added, so a full step, whose scale 0 is folded, writes
    lam = e_i exactly.  A step within drop_tol of an uncapped lo = -gamma_i
    is the drop step alpha = lo, after which the weight is an exact zero; a
    capped step stops short of -gamma_i and is never a drop.  alpha = 0
    leaves the weights and the scale as they are: a drop to alpha = 0
    means lo = 0, so lam_i is zero already."""
    if not capped and abs(alpha - lo) <= drop_tol * max(1.0, -lo):
        if lo != 0.0:
            scale = carry_scale(lam, scale, 1.0 - lo)
            lam[i] = 0.0
        return lo, scale
    if alpha != 0.0:
        scale = carry_scale(lam, scale, 1.0 - alpha)
        lam[i] += alpha / scale
    return alpha, scale


def grad_step(b, c, L, lo, hi):
    """The 1D gradient rule: the minimizer over [lo, hi] of
    alpha b + (L/2) alpha^2 c, for c > 0."""
    alpha = -b / (L * c)
    if alpha < lo:
        alpha = lo
    if alpha > hi:
        alpha = hi
    return alpha


def newton_step(a, b, x, d, h, tol, more):
    """One step of the safeguarded Newton line search ("rtsafe", Numerical
    Recipes 9.4) on phi' of a convex phi.

    x is the point evaluated last, with phi'(x) = d and phi''(x) = h; it
    becomes the end of the bracket [a, b], phi'(a) < 0 <= phi'(b), that the
    sign of d picks.  Returns (a, b, x, done).  With done, x is the
    minimizer: the bracket is at most tol wide or more is False (the
    evaluation budget is spent), giving its midpoint, or the Newton step is
    at most tol / 4 long, giving x itself, the point just evaluated, which
    that step puts within about tol / 4 of the root.  So a caller that
    keeps what it computed at its last evaluation can reuse it for the
    step it accepts.  Otherwise x is the next point to evaluate: the
    Newton step if it lands strictly inside the bracket, the midpoint if
    not.  Its caller line_min starts from x = x0, the point at
    which phi' was given, with [a, b] = [lo, hi], so the first step keeps
    the side of x0 that the sign of phi'(x0) picks, and it tests the far
    end of that side where end_test_due says.
    """
    if d >= 0.0:
        b = x
    else:
        a = x
    if not (b - a > tol and more):
        return a, b, 0.5 * (a + b), True
    step = d / h if h > 0.0 else np.inf
    # tested before the bracket: a Newton step from a root found exactly
    # lands on the bracket end it became
    if abs(step) <= 0.25 * tol:
        return a, b, x, True
    if a < x - step < b:
        return a, b, x - step, False
    return a, b, 0.5 * (a + b), False


# a line search that defers its test of the interval end on its side of the
# start makes it at the latest after this many evaluations inside the
# interval have left the bracket at that end
END_TEST_AFTER = 3


def end_test_due(a, b, x, done, end, it):
    """Whether a line search that runs newton_step toward the interval end
    `end` without testing it must test it now, before it evaluates or
    returns x; it counts the evaluations inside the interval so far.

    The search takes on trust that phi' changes sign before end (phi'(hi)
    > 0, or phi'(lo) < 0), and first relies on it where it ends or bisects
    with the bracket still at end; there the other sign makes end the
    minimizer.  Until then it evaluates only points that a search testing
    end first evaluates too, so the result is the same, except where phi'
    is exactly 0 on a stretch that ends at hi.  END_TEST_AFTER caps what a
    search whose minimizer is end pays over testing it first.  The caller
    tests end at most once.
    """
    return ((a == end or b == end)
            and (done or x == 0.5 * (a + b) or it >= END_TEST_AFTER))


def line_min(seg, lo, hi, x0, d, h, tol, max_iter, t=None):
    """Minimize a convex phi on [lo, hi] by safeguarded Newton on phi',
    given d = phi'(x0) and h = phi''(x0) at a point x0 in [lo, hi];
    seg(alpha, curv) returns phi' and, if curv, phi'' at alpha (else 0).

    The sign of d picks the side of x0 that holds the minimizer: (x0, hi]
    where d < 0 and [lo, x0) where d > 0.  Where d is 0 or NaN, or x0 is
    the end of that side, the minimizer is x0.  Otherwise newton_step runs
    from x0 on the bracket between x0 and the side's end for at most
    max_iter evaluations inside it, and the end is tested at most once,
    with curv False, where end_test_due says: phi'(hi) <= 0 makes hi the
    minimizer, and phi'(lo) >= 0 makes lo the minimizer.  With x0 = lo this
    is a search that tests lo first.  Flat stretches of phi' resolve to the
    smallest minimizer on the side searched.

    Given t = phi'''(x0), the first point is the Halley point
    x0 - d / (h - d t / (2 h)) in place of the Newton point x0 - d / h,
    where newton_step took a Newton step from x0, h > 0 and the corrected
    curvature h - d t / (2 h) lies in [h / 2, 2 h].  It is moved tol / 8
    further toward the end of the side searched, and used only if it then
    lies strictly inside the bracket.  For a short step the Halley point
    lands within tol / 4 of the minimizer, so the next Newton step is at
    most tol / 4 long and the search returns the one point it evaluated;
    moved past the predicted root, that point also takes the bracket off
    the end, so the end is not tested.  Only the first point changes: each
    iteration still makes one evaluation, within the max_iter + 2 budget.
    """
    if d < 0.0:
        end, sgn = hi, -1.0
    elif d > 0.0:
        end, sgn = lo, 1.0
    else:
        return x0
    if x0 == end:
        return x0
    it = 0
    end_open = True
    a, b, x, done = newton_step(lo, hi, x0, d, h, tol, max_iter > 0)
    if t is not None and not done and h > 0.0 and x == x0 - d / h:
        hc = h - d * t / (2.0 * h)
        if 0.5 * h <= hc <= 2.0 * h:
            xh = x0 - d / hc - sgn * (0.125 * tol)
            if a < xh < b:
                x = xh
    while True:
        if end_open and end_test_due(a, b, x, done, end, it):
            end_open = False
            if sgn * seg(end, False)[0] >= 0.0:
                return end
        if done:
            return x
        d, h = seg(x, True)
        it += 1
        a, b, x, done = newton_step(a, b, x, d, h, tol, it < max_iter)


def sigmoid_neg(m):
    """1 / (1 + exp(m)) for an array m, saturating instead of overflowing,
    computed in the one new array it returns."""
    e = np.minimum(m, 700.0)
    np.exp(e, e)
    e += 1.0
    return np.divide(1.0, e, e)


def logistic_start(ym, curv):
    """(sig, sg) at the current z, where ym = y z: sig = sigmoid_neg(ym)
    and, if curv, sg = sig (1 - sig) (else None), the weights of phi' and
    phi'' at alpha = 0 that every step from z shares (logistic_seg)."""
    sig = sigmoid_neg(ym)
    if not curv:
        return sig, None
    sg = 1.0 - sig
    sg *= sig
    return sig, sg


def logistic_at(ym, yw, a, curv):
    """(m, sig, sg) at alpha = a along the move with yw = y w from the
    margins ym = y z: m = ym + a yw and its logistic_start rows.  Labels
    are +-1, so m is y (z + fl(a w)), the margins of the moved z, bit for
    bit up to the sign of an exact zero, which no sigmoid or sum reads."""
    m = a * yw
    m += ym
    return (m, *logistic_start(m, curv))


def logistic_seg(sig, yw, yw2, curv, sg=None):
    """phi' and, if curv, phi'' of phi(alpha) = f(z + alpha w) for the
    logistic loss, at the alpha where sig = sigmoid_neg(y (z + alpha w));
    yw = y w and yw2 = yw^2.  sg = sig (1 - sig) is computed unless the
    caller passes it from logistic_start."""
    if not curv:
        return -np.dot(sig, yw), 0.0
    if sg is None:
        sg = sig * (1.0 - sig)
    return -np.dot(sig, yw), np.dot(sg, yw2)


def huber_ratio(t, mu_h):
    """huber'(t) / t for t >= 0: 1 on [0, mu_h], mu_h / t beyond."""
    return mu_h / np.maximum(t, mu_h)


def kde_columns(X, xsq, J, kappa0, inv2s2, out=None):
    """Rows J of the Gaussian kernel matrix K of the points X, whose row
    square norms are xsq, as a (len(J), n) block; K is symmetric, so row j
    is column j.  One gemm, then the squared distances
    (|x_j|^2 - 2 x_j.x_i) + |x_i|^2, floored at 0, and the kernel, all in
    place.  X may be a suffix X[lo:] of the points (with xsq[lo:]): the
    block is then K[lo + J, lo:], the part of those rows on and right of
    column lo.  out, a flat float64 buffer of at least len(J) n entries,
    receives the block in its leading entries, so one buffer serves every
    block of a loop; by default the block is a new array."""
    if out is not None:
        out = out[:len(J) * len(X)].reshape(len(J), len(X))
    B = np.dot(X[J], X.T, out=out)
    B *= -2.0
    B += xsq[J].reshape(-1, 1)
    B += xsq
    np.fmax(B, 0.0, B)
    B *= -inv2s2
    np.exp(B, B)
    B *= kappa0
    return B


def kde_work(n):
    """The three row sets of the density line search, for n sample points:
    zero-initialised (7, n) arrays S whose rows are

        S[0]  T_i, unclamped: P_i = T_i(0) in a start set
        S[1]  R_i = T_i'(0), in a start set
        S[2]  ones
        S[3]  R_i^2, in a start set
        S[4]  m_i = max(T_i, mu^2)
        S[5]  r_i = huber_ratio(t_i) = mu / sqrt(m_i)
        S[6]  G_i = (r_i - floor(r_i)) / m_i, the far-side factor

    A start set holds these rows at alpha = 0 for the current weights
    (kde_start or the last step's evaluation, then R and R^2 from
    kde_seg0).  An evaluation at alpha reads P, R, 1 and R^2 from the
    start set and writes T, m, r and G into
    another set: T is the one product [1, alpha, alpha^2 C] [P; R; 1], and
    the sums are the one 2 x 3 product [r; G] [R; 1; R^2]' (kde_sums).
    The third set is scratch: end tests evaluate into it."""
    S = np.zeros((3, 7, n))
    S[:, 2] = 1.0
    return S[0], S[1], S[2]


def kde_sums(S0, S1):
    """The 2 x 3 product [r; G] [R; 1; R^2]' of the rows r and G of S1 and
    R, 1 and R^2 of the start set S0:
    [[r.R, sum r, r.R^2], [G.R, sum G, G.R^2]]."""
    return np.dot(S1[5:7], S0[1:4].T)


def kde_derivs(alpha, C, sums, curv):
    """phi' and, if curv, phi'' (else 0) at alpha, from the kde_sums of the
    evaluation there, where T' = R + 2 alpha C:
    phi' = 1/2 (r.R + 2 alpha C sum r) and
    phi'' = C sum r - 1/4 (G.R^2 + 4 alpha C G.R + 4 alpha^2 C^2 sum G).
    Returns Python floats."""
    (rR, sr, _), (gR, sg, gR2) = sums.tolist()
    ac = alpha * C
    d = 0.5 * (rR + 2.0 * ac * sr)
    if not curv:
        return d, 0.0
    return d, C * sr - 0.25 * (gR2 + 4.0 * ac * gR + 4.0 * ac * ac * sg)


def kde_seg(alpha, S0, S1, C, mu_h, curv):
    """phi' and, if curv, phi'' of the kernel-weight objective along a move
    on which t_i^2 is the quadratic T_i(alpha) = P_i + alpha R_i
    + alpha^2 C, with P, R and R^2 read from the start set S0 (kde_work).
    With r_i = huber_ratio(t_i): phi' = 1/2 sum r_i T_i' and
    phi'' = C sum r_i - 1/4 sum_{t_i > mu} r_i T_i'^2 / T_i (kde_derivs).
    Returns Python floats.

    Every array operation writes into the rows of S1: T is the one
    product [1, alpha, alpha (alpha C)] [P; R; 1] with the rows of S0 and
    the sums are one kde_sums product, so an evaluation allocates no
    n-length array.  With curv False the G row is left as it was: phi'
    reads only the r row of the product, so it is the same with and
    without curvature.  Written with m_i = max(T_i, mu^2): the square root
    of a rounded mu^2 is mu while mu^2 is a normal number (kde_scales
    checks it), so sqrt(m_i) = max(t_i, mu) bit for bit, and
    r_i = mu / sqrt(m_i) is exactly 1 where t_i <= mu and below 1 where
    t_i > mu (mu over a larger number rounds to at most 1 - 2^-53).  So
    r_i - floor(r_i) is r_i on the far side and 0 on the near side, with
    no mask, and G_i = r_i / T_i there."""
    T, m, r, G = S1[0], S1[4], S1[5], S1[6]
    np.dot(np.array((1.0, alpha, alpha * (alpha * C))), S0[:3], T)
    np.fmax(T, mu_h * mu_h, m)
    np.sqrt(m, r)
    np.divide(mu_h, r, r)
    if curv:
        np.floor(r, G)
        np.subtract(r, G, G)
        np.divide(G, m, G)
    return kde_derivs(alpha, C, kde_sums(S0, S1), curv)


def kde_start(u, q, kappa0, mu_h, S):
    """Write into the start set S (kde_work) the rows that every move from
    the weights with caches u = K w and q = w'Kw shares at alpha = 0:
    P = q - 2u + kappa0, m = max(P, mu^2), r = mu / sqrt(m) and
    G = (r - floor(r)) / m, by the operations kde_seg uses.  A step then
    calls kde_seg0."""
    P, m, r, G = S[0], S[4], S[5], S[6]
    np.multiply(u, -2.0, P)
    np.add(P, q + kappa0, P)
    np.fmax(P, mu_h * mu_h, m)
    np.sqrt(m, r)
    np.divide(mu_h, r, r)
    np.floor(r, G)
    np.subtract(r, G, G)
    np.divide(G, m, G)


def kde_seg0(dvec, b, C, S, from_p=False):
    """(phi'(0), phi''(0), sums) of the move from the start set S whose
    T'(0) is R = b - 2 dvec (from_p: R = (dvec - P) + b, P the row of S):
    writes R and R^2 into S and reads the derivatives from sums =
    kde_sums(S, S).  At alpha = 0 an evaluation's T row is P, so they
    equal kde_seg(0.0, S, ..., C, mu_h, True) bit for bit; kde_third takes
    its sum G.R from the same product.  dvec may be the R row of S."""
    R = S[1]
    if from_p:
        np.subtract(dvec, S[0], R)
    else:
        np.multiply(dvec, -2.0, R)
    np.add(R, b, R)
    np.multiply(R, R, S[3])
    sums = kde_sums(S, S)
    return (*kde_derivs(0.0, C, sums, True), sums)


def kde_third(C, sums, S, out):
    """phi'''(0) of the move that kde_seg0 has just read from the start set
    S, given its sums:
    phi''' = -3/2 C sum_{t_i > mu} r_i T_i' / T_i
             + 3/8 sum_{t_i > mu} r_i T_i'^3 / T_i^2,
    which at alpha = 0 is -3/2 C G.R + 3/8 (G R / m).R^2.  Writes into the
    n-length scratch row out."""
    np.multiply(S[6], S[1], out)
    np.divide(out, S[4], out)
    return -1.5 * C * float(sums[1, 0]) + 0.375 * float(np.dot(out, S[3]))


def step_sq(sq, s, cross, end, alpha):
    """The square norm of (1 - alpha) a + alpha b, in some inner product,
    from sq = |a|^2, s cross = a.b and s end = |b|^2.  A step toward s e_j
    gives ||x||^2 from (||x||^2, s, x_j, s) and, for the density, w'Kw
    from (w'Kw, 1, (K w)_j, kappa0), which alpha = 1 makes kappa0."""
    return ((1.0 - alpha) ** 2 * sq + 2.0 * alpha * (1.0 - alpha) * s * cross
            + alpha * alpha * s * end)


def coord_move(x, j, s, alpha, sq_x):
    """Move x by the step alpha toward the coordinate vertex s e_j, in
    place, and return the new ||x||^2.  A full step writes the vertex."""
    if alpha == 1.0:
        x[:] = 0.0
        x[j] = s
        return s * s
    xj = float(x[j])
    x *= 1.0 - alpha
    x[j] += alpha * s
    return step_sq(sq_x, s, xj, s, alpha)


def vertex_move(x, j, s, alpha, sq_x, z, zv, w):
    """coord_move, and with it the cache z of x toward zv, the cache at the
    vertex, along w = zv - z, which it overwrites with alpha w, so the move
    allocates no n-length array.  A full step copies zv, since
    z + (zv - z) need not round to zv."""
    if alpha == 1.0:
        z[:] = zv
    else:
        w *= alpha
        z += w
    return coord_move(x, j, s, alpha, sq_x)


def kde_move(u, kcol, dvec, wv, j, alpha, q, sq_w, kappa0):
    """vertex_move for the kernel-weight objective, toward e_j: the caches
    are u = K w (kcol = K e_j, dvec = kcol - u, which it overwrites) and
    q = w'Kw.  Returns (q, ||w||^2)."""
    q = step_sq(q, 1.0, float(u[j]), kappa0, alpha)
    return q, vertex_move(wv, j, 1.0, alpha, sq_w, u, kcol, dvec)


def scale_in_range(b):
    """Whether a scale b that a pass carries unapplied may stay so, where
    products with it neither overflow nor underflow: 0 and NaN may not."""
    return 1e-100 < abs(b) < 1e100


# Length of the scan-ahead blocks of ls_cycle and logistic_cycle, and of the
# blocks of their plans (block_plan).  ls_cycle makes one read per block
# per pass: one small matvec gives col.z for every position of the block,
# and the block's Gram carries those scores through the block's moves with
# O(block) scalar work per move.  So a pass costs M / block reads, plus
# O(block) and the O(n) update of z per move: O(M (n + d)) for a fixed
# block.  logistic_cycle reads a screened block once and rescans it after
# each move; kde_cycle builds its kernel columns a block at a time.
LS_BLOCK = 32


def block_plan(order, vcoord, vscale):
    """The plan of a visit order over the vertices vscale[i] e_{vcoord[i]}:
    one (rows, R, V, J, S) per block of LS_BLOCK positions, with their
    vertices V, data columns J and scales S.  The block reads
    Ab = A_cols[rows], with Ab[R[k]] = A_cols[J[k]].  Where J is
    nondecreasing and spans no more columns than it has positions, as
    every cyclic block on the l1 ball (+-r e_j listed in turn) and the
    simplex is, rows is the slice of those columns, a view that reads each
    distinct column once, and R = J - J[0]; otherwise rows is J, a gather,
    and R = range(len(J))."""
    plan = []
    for p in range(0, order.shape[0], LS_BLOCK):
        V = order[p:p + LS_BLOCK].copy()
        J = vcoord[V]
        j0, j1 = int(J[0]), int(J[-1])
        if j1 - j0 < J.shape[0] and (J[1:] >= J[:-1]).all():
            rows, R = slice(j0, j1 + 1), J - j0
        else:
            rows, R = J, np.arange(J.shape[0])
        plan.append((rows, R, V, J, vscale[V]))
    return plan


# A closed-form denominator w.w = s^2 ||col||^2 - 2 s col.z + ||z||^2 below
# this fraction of its terms has lost its digits to cancellation; the step
# then recomputes w = s col - z and its dot products explicitly.
_LS_CANCEL = 1e-10

_EPS = float(np.finfo(np.float64).eps)


def ls_cycle(A_cols, bvec, plan, z, x, lam, grad_rule, away, L, sq_x,
             gamma_cap, drop_tol):
    """One outer pass on f(x) = ||A x - b||^2.

    A_cols is A transposed to (d, n) so that the data column of coordinate j
    is the contiguous row A_cols[j]; z caches A x; sq_x caches ||x||^2 and
    the updated value is returned.  lam is the convex-combination weight
    vector (ignored unless away).  plan is one (rows, G, visits) per block
    (LeastSquares._block_terms): the Gram G of Ab = A_cols[rows] and, per
    position, (r, s, s col.b, i, j, ||col||^2) for vertex i = s e_j, whose
    column is col = Ab[r].

    With w = s col - z for vertex s e_j and g = col.z, the step needs only
    w.(z - b) = s (g - col.b) - (||z||^2 - z.b) and
    w.w = s^2 ||col||^2 - 2 s g + ||z||^2, so ||z||^2 and z.b are carried
    as scalars.  A step can move the iterate only where w.(z - b) < 0 or,
    in away mode, where lam_i != 0; every other step is an exact no-op,
    which the pass tests from the scalars and skips.  Each block reads its
    columns once: one matvec gives the scores g of its rows, the call shape
    of the b-terms s col.b, so s g - s col.b cancels exactly where z = b.
    A move toward the row r by alpha updates the scores of rows r and
    beyond, the rows the block's later positions read, as
    g <- (1 - alpha) g + alpha s G[r] with Python floats, so no move
    rescans the block; a full step, and a step whose closed form lost its
    digits (_LS_CANCEL), reads the scores afresh.  z itself moves at every
    move.

    The iterate is xi * x while the pass runs: a step scales xi by 1 - alpha
    and writes only x_j, and xi is folded into x where it leaves
    scale_in_range and when the pass ends (carry_scale).  In away mode xi is
    also the scale of the weights (away_update), which every step scales by
    the same 1 - alpha, a drop by 1 - lo, and which are folded together
    with x.  A full step alpha = 1 is the same update: xi = 0 is folded,
    which zeroes x and lam before x_j = s and lam_i = 1 are written, and z
    and the scalars become the vertex's exactly.
    """
    # scalars as Python floats: arithmetic on them is several times faster
    # than on numpy scalars
    sq_x = float(sq_x)
    zz = float(np.dot(z, z))
    zb = float(np.dot(z, bvec))
    zr = zz - zb
    xi = 1.0
    for rows, G, visits in plan:
        Ab = A_cols[rows]
        g = np.dot(Ab, z).tolist()
        for r, s, sb, i, j, cs in visits:
            # t - zr = w.(z - b)
            t = s * g[r] - sb
            if not t < zr and not (away and lam[i] != 0.0):
                continue
            xj = xi * float(x[j])
            c = sq_x - 2.0 * s * xj + s * s
            if is_degenerate(c, sq_x + s * s):
                continue
            col = Ab[r]
            gr = g[r]
            num = t - zr
            lo, capped = step_interval(away, lam, xi, i, gamma_cap)
            fresh = False
            if grad_rule:
                alpha = grad_step(2.0 * num, c, L, lo, 1.0)
            else:
                ss = s * s * cs
                den = ss - 2.0 * s * gr + zz
                if den <= _LS_CANCEL * (ss + zz):
                    w = s * col - z
                    den = float(np.dot(w, w))
                    num = float(np.dot(w, z)) - float(np.dot(w, bvec))
                    fresh = True
                # exact: phi(alpha) = f(z + alpha w) is the quadratic with
                # phi'(0) = 2 num and phi'' = 2 den
                alpha = lo if den <= 0.0 else grad_step(2.0 * num, den, 2.0,
                                                        lo, 1.0)
            if away:
                # the weights' new scale is the xi carry_scale gives below
                alpha = away_update(lam, xi, i, alpha, lo, capped,
                                    drop_tol)[0]
            if alpha == 0.0:
                continue
            beta = 1.0 - alpha
            a_s = alpha * s
            z *= beta
            z += a_s * col
            xi = carry_scale(x, xi, beta)
            x[j] += a_s / xi
            sq_x = step_sq(sq_x, s, xj, s, alpha)
            zz = (beta * beta * zz + 2.0 * alpha * beta * s * gr
                  + alpha * alpha * s * s * cs)
            zb = beta * zb + alpha * sb
            zr = zz - zb
            if fresh or alpha == 1.0:
                g = np.dot(Ab, z).tolist()
            else:
                g[r:] = [beta * gk + a_s * hk
                         for gk, hk in zip(g[r:], G[r, r:].tolist())]
    if xi != 1.0:
        x *= xi
        if away:
            lam *= xi
    return sq_x


def logistic_cycle(A_cols, ylab, plan, z, x, lam, grad_rule, away, L, sq_x,
                   gamma_cap, drop_tol, ls_tol, ls_max_iter):
    """One outer pass on f(x) = sum_i log(1 + exp(-y_i a_i' x)); z caches A x.
    plan is the visit order's block_plan with the term Logistic adds: one
    (rows, R, V, J, S, |S| ||col||_1) per block.

    Along the step toward vertex s e_j, phi'(0) = z.(sig y) - s col.(sig y)
    with sig = 1 / (1 + exp(y z)).  A step can move the iterate only where
    phi'(0) < 0 or, in away mode, where lam_i != 0, so the pass screens a
    block of the plan with one read of its columns, A_cols[rows], and one
    small matvec and takes the exact step only at the candidates: phi'(0)
    below a margin that bounds the rounding difference between the
    screen's and the step's phi'(0), or lam_i != 0.  Every other position
    is an exact alpha = 0 step, so the iterates are bit for bit those of a
    visit to every vertex.  The screen is recomputed after each step that
    moves.

    The pass carries the margins ym = y z in place of z and writes z = y ym
    back when it ends; labels are +-1, so yw = y (s col - z) = s y col - ym
    and a move's ym + fl(alpha yw) are y times the values z would take.
    sig at the current z, and sig (1 - sig) for the line search
    (logistic_start), serve the screen, the gradient rule and the line
    search's start at alpha = 0, where phi'(0) and phi''(0) are two dot
    products.  A move whose step is the search's last curvature evaluation
    takes that evaluation's (ym, sig, sig (1 - sig)) as the next start
    (logistic_at); a full step (ym = s y col) and every other move
    recompute them.  So a visit that does not move costs a few array
    operations, a fraction of a rescan.  A block is therefore screened only
    when at most a third of the previous block's positions were candidates
    (a nonzero weight or a positive step): in a denser block the rescans,
    one per move, cost more than the visits they save.  The weights carry
    their rescale as one scalar (away_update), folded in when the pass
    ends.
    """
    # 4 (n + 2) rounding units: twice the bound on either phi'(0)'s error
    tie = 4.0 * (z.shape[0] + 2)
    ym = ylab * z
    sig, sg = logistic_start(ym, not grad_rule)
    last = None  # (alpha, ym, sig, sg) of the search's last curvature point
    lsc = 1.0  # the weights are lsc * lam until the pass ends

    def seg(a, curv):
        nonlocal last
        at = logistic_at(ym, yw, a, curv)
        if curv:
            last = (a, *at)
        return logistic_seg(at[1], yw, yw2, curv, at[2])

    # the screen's sy and zs hold for the current z while scr_ok
    scr_ok = False
    ncand = 0  # candidates of the previous block
    nprev = 0
    for rows, R, V, J, S, sl1 in plan:
        screen = 3 * ncand <= nprev
        nprev = len(V)
        ncand = 0
        if screen:
            Ab = A_cols[rows]
            cm = (tie * _EPS) * sl1
            if away:
                # the block's steps only rescale the weights ahead of them,
                # so this holds every weight that is nonzero at its visit
                held = lam[V] != 0.0
        rescan = screen
        k = 0
        while k < len(V):
            if screen:
                if rescan:
                    if not scr_ok:
                        sy = sig * ylab
                        # phi'(0) less the ||z||_1 part of the margin; the
                        # 5e-324 covers products that underflow.  z.sy and
                        # ym.sig are sums of the same products
                        zs = np.dot(ym, sig) - tie * (_EPS * np.abs(ym).sum()
                                                      + 5e-324)
                        scr_ok = True
                    phi = zs - S[k:] * np.dot(Ab, sy)[R[k:]]
                    # not >=: a NaN stays a candidate
                    cand = ~(phi >= cm[k:])
                    if away:
                        cand = cand | held[k:]
                    base = k
                    rescan = False
                m = cand[k - base:].argmax()
                if not cand[k - base + m]:
                    break
                k += m
            i = V[k]
            j = J[k]
            s = S[k]
            k += 1
            xj = x[j]
            c = sq_x - 2.0 * s * xj + s * s
            if is_degenerate(c, sq_x + s * s):
                continue
            ysc = ylab * A_cols[j]
            ysc *= s
            yw = ysc - ym
            lo, capped = step_interval(away, lam, lsc, i, gamma_cap)
            if grad_rule:
                alpha = grad_step(-np.dot(sig, yw), c, L, lo, 1.0)
            else:
                yw2 = yw * yw
                d, h = logistic_seg(sig, yw, yw2, True, sg)
                last = None
                alpha = line_min(seg, lo, 1.0, 0.0, d, h, ls_tol, ls_max_iter)
            if lo != 0.0 or alpha > 0.0:
                ncand += 1
            if away:
                alpha, lsc = away_update(lam, lsc, i, alpha, lo, capped,
                                         drop_tol)
            if alpha == 0.0:
                continue
            sq_x = coord_move(x, j, s, alpha, sq_x)
            # a full step takes the vertex's margins ysc, which ym + yw
            # need not round to
            if alpha != 1.0 and last is not None and alpha == last[0]:
                _, ym, sig, sg = last
            else:
                if alpha == 1.0:
                    ym = ysc
                else:
                    yw *= alpha
                    ym += yw
                sig, sg = logistic_start(ym, not grad_rule)
            scr_ok = False
            rescan = screen
    if lsc != 1.0:
        lam *= lsc
    np.multiply(ylab, ym, z)
    return sq_x


def kde_drift(P, u, q, kappa0):
    """max_i |P_i - (q - 2 u_i + kappa0)| / (q + kappa0): how far a carried
    row P of squared distances has moved from its rebuild from the caches
    u = K w and q = w'Kw, relative to the size of the terms it is built
    from."""
    return float(np.max(np.abs(P - ((q + kappa0) - 2.0 * u)))) / (q + kappa0)


def kde_write_back(u, wv, J, Kb, cb, beta):
    """u = beta (u + sum_s cb_s K e_{J_s}), by one gemv of the columns
    Kb = -2 K e_j (j in J), and w = beta (w + sum_s cb_s e_{J_s}); cb = 0."""
    u += np.dot(-0.5 * cb, Kb)
    u *= beta
    wv[J] += cb
    wv *= beta
    cb[:] = 0.0


def kde_cycle(X, xsq, u, wv, lam, order, grad_rule, away,
              L, kappa0, inv2s2, mu_h, q, sq_w, gamma_cap, drop_tol,
              ls_tol, ls_max_iter):
    """One outer pass on the kernel-weight objective over the simplex.

    wv holds the weights, u caches K wv and q caches wv' K wv; kernel-matrix
    columns are recomputed from the sample points X (row square norms in
    xsq), LS_BLOCK visit positions at a time with one kde_columns call
    that scales them by -2 (exactly), so K itself is never materialized.
    order is a permutation of the sample indices.

    A move carries q, ||w||^2 and the start set (kde_work) with its row
    P = q - 2u + kappa0, built by kde_start as the pass begins.  Its slope
    row is R = (2 kappa0 - P_j) - 2 K e_j - P, with C = P_j and
    u_j = (q + kappa0 - P_j) / 2.  The next start is the search's last
    curvature evaluation where the step is that point, else one kde_seg
    at the step (without G under the gradient rule); the first two row
    sets then swap.  u and w are carried per block as beta (their value
    at the block's start + sum_s cb_s column_s), beta the product of the
    moves' 1 - alpha, and written back (kde_write_back) when the block
    ends or before beta leaves scale_in_range; a full step writes
    u = K e_j and w = e_j exactly.  The weights lam carry their rescale as
    one scalar (away_update), folded in when the pass ends.

    The blocks also rebuild the caches: each adds its columns weighted by
    the weights w0 the pass started from, so they sum to K w0, and at the
    end u becomes K w0 plus the change the moves made to u, and q and
    ||w||^2 are recomputed.  Returns (q, sq_w, drift): drift is the larger
    of ||u - K w0||_inf / ||K w0||_inf at the start of the pass and
    kde_drift of the carried P against the carried q and written-back u.
    """
    M = order.shape[0]
    n = u.shape[0]
    q = float(q)
    sq_w = float(sq_w)
    S0, S1, S2 = kde_work(n)
    w0 = wv.copy()
    u0 = u.copy()
    kw = np.zeros(n)  # K w0, block by block
    kde_start(u, q, kappa0, mu_h, S0)
    at = None  # the alpha of S1's rows if a curvature evaluation wrote them
    lsc = 1.0  # the weights are lsc * lam until the pass ends

    def seg(a, curv):
        nonlocal at
        if not curv:
            return kde_seg(a, S0, S2, C, mu_h, False)
        at = a
        return kde_seg(a, S0, S1, C, mu_h, True)

    for p in range(0, M, LS_BLOCK):
        J = order[p:p + LS_BLOCK]
        Kb = kde_columns(X, xsq, J, -2.0 * kappa0, inv2s2)
        kw += np.dot(-0.5 * w0[J], Kb)
        cb = np.zeros(J.shape[0])
        beta = 1.0
        for k in range(J.shape[0]):
            j = J[k]
            # no earlier move of the block went toward e_j
            wj = beta * float(wv[j])
            c = sq_w - 2.0 * wj + 1.0
            if is_degenerate(c, sq_w + 1.0):
                continue
            C = float(S0[0, j])
            lo, capped = step_interval(away, lam, lsc, j, gamma_cap)
            d, h, sums = kde_seg0(Kb[k], 2.0 * kappa0 - C, C, S0, True)
            at = None
            if grad_rule:
                alpha = grad_step(d, c, L, lo, 1.0)
            else:
                # phi'''(0) only for a search that evaluates: from 0 it
                # searches (0, 1] where d < 0 and [lo, 0) where d > 0
                t = (kde_third(C, sums, S0, S2[0]) if d < 0.0 or lo < 0.0
                     else None)
                alpha = line_min(seg, lo, 1.0, 0.0, d, h, ls_tol,
                                 ls_max_iter, t)
            if away:
                alpha, lsc = away_update(lam, lsc, j, alpha, lo, capped,
                                         drop_tol)
            if alpha == 0.0:
                continue
            q = step_sq(q, 1.0, 0.5 * ((q + kappa0) - C), kappa0, alpha)
            sq_w = step_sq(sq_w, 1.0, wj, 1.0, alpha)
            if alpha != at:
                kde_seg(alpha, S0, S1, C, mu_h, not grad_rule)
            S0, S1 = S1, S0
            if alpha == 1.0:
                np.multiply(Kb[k], -0.5, u)
                wv[:] = 0.0
                wv[j] = 1.0
                cb[:] = 0.0
                beta = 1.0
                continue
            if not scale_in_range(beta * (1.0 - alpha)):
                kde_write_back(u, wv, J, Kb, cb, beta)
                beta = 1.0
            beta *= 1.0 - alpha
            cb[k] = alpha / beta
        kde_write_back(u, wv, J, Kb, cb, beta)
    if lsc != 1.0:
        lam *= lsc
    drift = kde_drift(S0[0], u, q, kappa0)
    # np.maximum, unlike max, keeps a NaN
    drift = float(np.maximum(
        float(np.max(np.abs(u0 - kw))) / float(np.max(kw)), drift))
    u -= u0
    u += kw
    return float(np.dot(wv, u)), float(np.dot(wv, wv)), drift


_KERNELS = {fn.__name__: fn for fn in (ls_cycle, logistic_cycle, kde_cycle)}
