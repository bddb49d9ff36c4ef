"""Hot inner-loop kernels, one per objective family, in plain numpy.

Each kernel runs one full outer pass (one sweep over the vertex visit
order) of the cyclic solver for one objective family, mutating the iterate
and its cached quantities in place.

The step math that every vertex step shares is written once, as the
helpers below: the step interval (step_interval), the away-step weight
update with its drop snap (away_update), the 1D gradient rule, the
safeguarded Newton line search (newton_step, end_test_due and the loop
line_min, which starts at the current point alpha = 0), the segment
derivatives of the logistic and kernel-density losses and their values
at alpha = 0 (logistic_start, kde_start, kde_seg0), and the move of the
iterate toward a coordinate vertex.  The kernels, the per-step path of
the solvers (which a run given an inner_callback takes), the away-step
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

def is_degenerate(c, scale):
    """Whether a segment with c = ||v - x||^2 counts as degenerate, where
    scale = ||x||^2 + ||v||^2."""
    return c <= _DEGENERATE_REL * scale


def step_interval(away, lam, i, gamma_cap):
    """(lo, capped): the step toward vertex i ranges over [lo, 1].  Plain
    mode gives [0, 1]; away mode gives lo = -min(gamma_i, gamma_cap) with
    gamma_i = lam_i / (1 - lam_i), and capped says whether the cap binds."""
    if not away:
        return 0.0, False
    lam_i = float(lam[i])
    if lam_i >= 1.0:
        return -gamma_cap, True
    gma = lam_i / (1.0 - lam_i)
    if gma > gamma_cap:
        return -gamma_cap, True
    return -gma, False


def away_update(lam, i, alpha, lo, capped, drop_tol):
    """Update the weights in place for the step alpha toward vertex i on
    [lo, 1] and return the step taken.  A step within drop_tol of an
    uncapped lo = -gamma_i is the drop step alpha = lo, after which the
    weight is an exact zero; a capped step stops short of -gamma_i and is
    never a drop.  alpha = 0 leaves the weights as they are: a drop to
    alpha = 0 means lo = 0, so lam_i is zero already."""
    if not capped and abs(alpha - lo) <= drop_tol * max(1.0, -lo):
        if lo != 0.0:
            lam *= 1.0 - lo
            lam[i] = 0.0
        return lo
    if alpha != 0.0:
        lam *= 1.0 - alpha
        lam[i] += alpha
    return alpha


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
    at most tol / 4 long, giving its end.  Otherwise x is the next point to
    evaluate: the Newton step if it lands strictly inside the bracket, the
    midpoint if not.  Its caller line_min starts from x = x0, the point at
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
        return a, b, x - step, True
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


def line_min(seg, lo, hi, x0, d, h, tol, max_iter):
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
    """1 / (1 + exp(m)), saturating instead of overflowing."""
    return 1.0 / (1.0 + np.exp(np.minimum(m, 700.0)))


def logistic_start(ym, curv):
    """(sig, sg) at the current z, where ym = y z: sig = sigmoid_neg(ym)
    and, if curv, sg = sig (1 - sig) (else None), the weights of phi' and
    phi'' at alpha = 0 that every step from z shares (logistic_seg)."""
    sig = sigmoid_neg(ym)
    return sig, sig * (1.0 - sig) if curv else None


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


def kde_columns(X, xsq, J, kappa0, inv2s2):
    """Rows J of the Gaussian kernel matrix K of the points X, whose row
    square norms are xsq, as a (len(J), n) block; K is symmetric, so row j
    is column j.  One gemm, then the squared distances
    (|x_j|^2 - 2 x_j.x_i) + |x_i|^2, floored at 0, and the kernel, all in
    place."""
    B = np.dot(X[J], X.T)
    B *= -2.0
    B += xsq[J].reshape(-1, 1)
    B += xsq
    np.fmax(B, 0.0, B)
    B *= -inv2s2
    np.exp(B, B)
    B *= kappa0
    return B


def kde_slope(u, dvec, q, uj, kappa0, mu_h):
    """b = <grad f(w), e_j - w> of the kernel-weight objective, where
    u = K w, q = w'Kw, uj = u_j and dvec = K e_j - u."""
    ratio = huber_ratio(np.sqrt(np.maximum(q - 2.0 * u + kappa0, 0.0)), mu_h)
    return (uj - q) * ratio.sum() - np.dot(ratio, dvec)


def kde_work(n):
    """The work rows that kde_seg writes into, for n sample points: T_i
    (then m_i), T_i', r_i, the far-side curvature factor, and ones, so
    that sum r_i is a dot product; then the four rows of kde_start."""
    W = np.empty((9, n))
    W[4] = 1.0
    return W


def kde_seg(alpha, P, R, C, mu_h, curv, W):
    """phi' and, if curv, phi'' of the kernel-weight objective along a move
    on which t_i^2 is the quadratic T_i(alpha) = P_i + alpha R_i
    + alpha^2 C.  With r_i = huber_ratio(t_i): phi' = 1/2 sum r_i T_i' and
    phi'' = C sum r_i - 1/4 sum_{t_i > mu} r_i T_i'^2 / T_i.  Returns
    Python floats.

    Every array operation writes into the rows of W (from kde_work) and
    the sums are dot products, so an evaluation allocates nothing.  Written
    with m_i = max(T_i, mu^2): the square root of a rounded mu^2 is mu
    while mu^2 is a normal number (kde_scales checks it), so
    sqrt(m_i) = max(t_i, mu) bit for bit, and r_i = mu / sqrt(m_i) is
    exactly 1 where t_i <= mu and below 1 where t_i > mu (mu over a larger
    number rounds to at most 1 - 2^-53).  So r_i - floor(r_i) is r_i on
    the far side and 0 on the near side, with no mask."""
    T = W[0]
    Tp = W[1]
    r = W[2]
    F = W[3]
    np.add(R, alpha * C, T)
    np.multiply(T, alpha, T)
    np.add(T, P, T)
    np.add(R, (2.0 * alpha) * C, Tp)
    np.fmax(T, mu_h * mu_h, T)
    np.sqrt(T, r)
    np.divide(mu_h, r, r)
    d = 0.5 * float(np.dot(r, Tp))
    if not curv:
        return d, 0.0
    np.floor(r, F)
    np.subtract(r, F, F)
    np.multiply(F, Tp, F)
    np.divide(F, T, F)
    return (d, C * float(np.dot(r, W[4])) - 0.25 * float(np.dot(F, Tp)))


def kde_start(u, q, kappa0, mu_h, W):
    """Write into rows 5-8 of W (from kde_work) what kde_seg reads at
    alpha = 0 on every move from the weights with caches u = K w and
    q = w'Kw: P = q - 2u + kappa0, m = max(P, mu^2), r = mu / sqrt(m) and
    the far-side factor r - floor(r).  Returns sum r_i.  Row 5, P, is the
    P that kde_seg takes."""
    P, m, r, F = W[5], W[6], W[7], W[8]
    np.multiply(u, -2.0, P)
    np.add(P, q + kappa0, P)
    np.fmax(P, mu_h * mu_h, m)
    np.sqrt(m, r)
    np.divide(mu_h, r, r)
    np.floor(r, F)
    np.subtract(r, F, F)
    return float(np.dot(r, W[4]))


def kde_seg0(R, C, sum_r, W):
    """kde_seg(0.0, W[5], R, C, mu_h, True, W) bit for bit, from the rows
    that kde_start wrote and its sum_r: T = P and T' = R at alpha = 0, so
    a step takes two dot products and one far-side product."""
    d = 0.5 * float(np.dot(W[7], R))
    F = W[3]
    np.multiply(W[8], R, F)
    np.divide(F, W[6], F)
    return d, C * sum_r - 0.25 * float(np.dot(F, R))


def vertex_move(x, j, s, alpha, sq_x, z, zv, w):
    """Move x by the step alpha toward the coordinate vertex s e_j, in
    place, and with it its cache z toward zv, the cache at the vertex,
    along w = zv - z.  Returns the new ||x||^2."""
    if alpha == 1.0:
        z[:] = zv
        x[:] = 0.0
        x[j] = s
        return s * s
    z += alpha * w
    xj = float(x[j])
    x *= 1.0 - alpha
    x[j] += alpha * s
    return ((1.0 - alpha) ** 2 * sq_x
            + 2.0 * alpha * (1.0 - alpha) * s * xj
            + alpha * alpha * s * s)


def kde_move(u, kcol, dvec, wv, j, alpha, q, sq_w, kappa0):
    """vertex_move for the kernel-weight objective, toward e_j: the caches
    are u = K w (kcol = K e_j, dvec = kcol - u) and q = w'Kw.  Returns
    (q, ||w||^2)."""
    if alpha == 1.0:
        q = kappa0
    else:
        q = ((1.0 - alpha) ** 2 * q
             + 2.0 * alpha * (1.0 - alpha) * float(u[j])
             + alpha * alpha * kappa0)
    return q, vertex_move(wv, j, 1.0, alpha, sq_w, u, kcol, dvec)


# Length of the scan-ahead blocks of ls_cycle and logistic_cycle.  One
# gathered (block, n) slice of A_cols and one small matvec give col.z (or
# col.(sig y)) for every step of the block; the block is rescanned (no new
# gather) after each step that may move the iterate, so a pass costs at
# most M / block gathers plus one block-sized matvec per such step:
# O(M (n + d)) for a fixed block.  kde_cycle builds its kernel columns a
# block at a time.
LS_BLOCK = 32

# A closed-form denominator w.w = s^2 ||col||^2 - 2 s col.z + ||z||^2 below
# this fraction of its terms has lost its digits to cancellation; the step
# then recomputes w = s col - z and its dot products explicitly.
_LS_CANCEL = 1e-10

_EPS = float(np.finfo(np.float64).eps)


def ls_cycle(A_cols, bvec, z, x, lam, order, vcoord, vscale,
             grad_rule, away, L, sq_x, gamma_cap, drop_tol, Atb, col_sq):
    """One outer pass on f(x) = ||A x - b||^2.

    A_cols is A transposed to (d, n) so that the data column of coordinate j
    is the contiguous row A_cols[j]; z caches A x; sq_x caches ||x||^2 and
    the updated value is returned.  lam is the convex-combination weight
    vector (ignored unless away).  Atb = A_cols @ bvec and col_sq holds the
    squared column norms.

    With w = s col - z for vertex s e_j and g = col.z, the step needs only
    w.(z - b) = s (g - col.b) - (||z||^2 - z.b) and
    w.w = s^2 ||col||^2 - 2 s g + ||z||^2, so ||z||^2 and z.b are carried
    as scalars.  A step can move the iterate only where w.(z - b) < 0 or,
    in away mode, where lam_i != 0; every other step is an exact no-op, so
    the pass scans ahead block by block to the next such step and touches
    the arrays only where alpha != 0.
    """
    M = order.shape[0]
    J = vcoord[order]
    S = vscale[order]
    SB = S * Atb[J]
    # scalars as Python floats: arithmetic on them is several times faster
    # than on numpy scalars
    sq_x = float(sq_x)
    zz = float(np.dot(z, z))
    zb = float(np.dot(z, bvec))
    xi = 1.0  # the iterate is xi * x until the pass ends: a step rescales xi
    p = 0
    while p < M:
        q = min(p + LS_BLOCK, M)
        Ab = A_cols[J[p:q]]
        k = p
        while k < q:
            # t - (zz - zb) = w.(z - b) for every step left in the block
            gb = np.dot(Ab[k - p:], z)
            t = S[k:q] * gb - SB[k:q]
            zr = zz - zb
            if away:
                cand = (t < zr) | (lam[order[k:q]] != 0.0)
            else:
                cand = t < zr
            m = cand.argmax()
            if not cand[m]:
                break
            pos = k + m
            k = pos + 1
            i = order[pos]
            j = J[pos]
            s = float(S[pos])
            xj = xi * float(x[j])
            c = sq_x - 2.0 * s * xj + s * s
            if is_degenerate(c, sq_x + s * s):
                continue
            col = Ab[pos - p]
            g = float(gb[m])
            num = float(t[m]) - zr
            lo, capped = step_interval(away, lam, i, gamma_cap)
            cs = float(col_sq[j])
            sb = float(SB[pos])
            if grad_rule:
                alpha = grad_step(2.0 * num, c, L, lo, 1.0)
            else:
                ss = s * s * cs
                den = ss - 2.0 * s * g + zz
                if den <= _LS_CANCEL * (ss + zz):
                    w = s * col - z
                    den = float(np.dot(w, w))
                    num = float(np.dot(w, z)) - float(np.dot(w, bvec))
                # exact: phi(alpha) = f(z + alpha w) is the quadratic with
                # phi'(0) = 2 num and phi'' = 2 den
                alpha = lo if den <= 0.0 else grad_step(2.0 * num, den, 2.0,
                                                        lo, 1.0)
            if away:
                alpha = away_update(lam, i, alpha, lo, capped, drop_tol)
            if alpha == 0.0:
                continue
            if alpha == 1.0:
                z[:] = s * col
                x[:] = 0.0
                x[j] = s
                xi = 1.0
                sq_x = s * s
                zz = s * s * cs
                zb = sb
            else:
                beta = 1.0 - alpha
                z *= beta
                z += (alpha * s) * col
                xi *= beta
                if not 1e-100 < xi < 1e100:
                    x *= xi
                    xi = 1.0
                x[j] += alpha * s / xi
                sq_x = (beta * beta * sq_x + 2.0 * alpha * beta * s * xj
                        + alpha * alpha * s * s)
                zz = (beta * beta * zz + 2.0 * alpha * beta * s * g
                      + alpha * alpha * s * s * cs)
                zb = beta * zb + alpha * sb
        p = q
    if xi != 1.0:
        x *= xi
    return sq_x


def logistic_cycle(A_cols, ylab, z, x, lam, order, vcoord, vscale,
                   grad_rule, away, L, sq_x, gamma_cap, drop_tol,
                   ls_tol, ls_max_iter):
    """One outer pass on f(x) = sum_i log(1 + exp(-y_i a_i' x)); z caches A x.

    Along the step toward vertex s e_j, phi'(0) = z.(sig y) - s col.(sig y)
    with sig = 1 / (1 + exp(y z)).  A step can move the iterate only where
    phi'(0) < 0 or, in away mode, where lam_i != 0, so the pass screens a
    block of LS_BLOCK visit positions with one gathered slice and one small
    matvec and takes the exact step only at the candidates: phi'(0) below
    a margin that bounds the rounding difference between the screen's and
    the step's phi'(0), or lam_i != 0.  Every other position is an exact
    alpha = 0 step, so the iterates are bit for bit those of a visit to
    every vertex.  The screen is recomputed after each step that moves.

    sig at the current z, and sig (1 - sig) for the line search, are
    computed once per move (logistic_start) and serve the screen, the
    gradient rule and the line search's start at alpha = 0, where phi'(0)
    and phi''(0) are two dot products.  So a visit that does not move
    costs a few array operations, a fraction of a rescan.  A block is
    therefore screened only when at most a third of the previous block's
    positions were candidates (a nonzero weight or a positive step): in a
    denser block the rescans, one per move, cost more than the visits
    they save.
    """
    M = order.shape[0]
    J = vcoord[order]
    S = vscale[order]
    # 4 (n + 2) rounding units: twice the bound on either phi'(0)'s error
    tie = 4.0 * (z.shape[0] + 2)
    ym = ylab * z
    sig, sg = logistic_start(ym, not grad_rule)
    # the screen's sy and zs hold for the current z while scr_ok
    scr_ok = False
    ncand = 0  # candidates of the previous block
    nprev = 0
    p = 0
    while p < M:
        q = min(p + LS_BLOCK, M)
        screen = 3 * ncand <= nprev
        nprev = q - p
        ncand = 0
        if screen:
            Ab = A_cols[J[p:q]]
            # the |s| ||col||_1 part of each position's margin
            cm = (tie * _EPS) * np.abs(S[p:q]) * np.abs(Ab).sum(axis=1)
            if away:
                # the block's steps only rescale the weights ahead of them,
                # so this holds every weight that is nonzero at its visit
                held = lam[order[p:q]] != 0.0
        rescan = screen
        pos = p
        while pos < q:
            if screen:
                if rescan:
                    if not scr_ok:
                        sy = sig * ylab
                        # phi'(0) less the ||z||_1 part of the margin; the
                        # 5e-324 covers products that underflow
                        zs = np.dot(z, sy) - tie * (_EPS * np.abs(z).sum()
                                                    + 5e-324)
                        scr_ok = True
                    phi = zs - S[pos:q] * np.dot(Ab[pos - p:], sy)
                    # not >=: a NaN stays a candidate
                    cand = ~(phi >= cm[pos - p:])
                    if away:
                        cand = cand | held[pos - p:]
                    base = pos
                    rescan = False
                m = cand[pos - base:].argmax()
                if not cand[pos - base + m]:
                    break
                pos += m
            i = order[pos]
            j = J[pos]
            s = S[pos]
            pos += 1
            xj = x[j]
            c = sq_x - 2.0 * s * xj + s * s
            if is_degenerate(c, sq_x + s * s):
                continue
            sc = s * A_cols[j]
            w = sc - z
            yw = ylab * w
            lo, capped = step_interval(away, lam, i, gamma_cap)
            if grad_rule:
                alpha = grad_step(-np.dot(sig, yw), c, L, lo, 1.0)
            else:
                yw2 = yw * yw
                # the search starts at alpha = 0, where ym + 0 yw is ym
                d, h = logistic_seg(sig, yw, yw2, True, sg)
                alpha = line_min(
                    lambda a, curv: logistic_seg(sigmoid_neg(ym + a * yw),
                                                 yw, yw2, curv),
                    lo, 1.0, 0.0, d, h, ls_tol, ls_max_iter)
            if lo != 0.0 or alpha > 0.0:
                ncand += 1
            if away:
                alpha = away_update(lam, i, alpha, lo, capped, drop_tol)
            if alpha == 0.0:
                continue
            sq_x = vertex_move(x, j, s, alpha, sq_x, z, sc, w)
            ym = ylab * z
            sig, sg = logistic_start(ym, not grad_rule)
            scr_ok = False
            rescan = screen
        p = q
    return sq_x


def kde_cycle(X, xsq, u, wv, lam, order, grad_rule, away,
              L, kappa0, inv2s2, mu_h, q, sq_w, gamma_cap, drop_tol,
              ls_tol, ls_max_iter):
    """One outer pass on the kernel-weight objective over the simplex.

    wv holds the weights, u caches K wv and q caches wv' K wv; kernel-matrix
    columns are recomputed from the sample points X (row square norms in
    xsq), LS_BLOCK visit positions at a time with one kde_columns call, so
    K itself is never materialized.  The line search's rows are allocated
    once per pass (kde_work), and a step reads its scalars as Python
    floats.  The search starts at alpha = 0: what kde_seg reads there
    that does not depend on the step's vertex (P, the Huber ratios, their
    sum and the far-side factor) is built once per move (kde_start), so a
    step builds R and takes phi'(0) and phi''(0) from kde_seg0.
    Returns (q, sq_w).
    """
    M = order.shape[0]
    n = u.shape[0]
    q = float(q)
    sq_w = float(sq_w)
    # rows for dvec = K e_j - u and R, built in place
    rows = np.empty((2, n))
    dvec = rows[0]
    R = rows[1]
    W = kde_work(n)
    P = W[5]
    start_ok = False  # kde_start's rows of W hold for the current weights
    for p in range(0, M, LS_BLOCK):
        Kb = kde_columns(X, xsq, order[p:p + LS_BLOCK], kappa0, inv2s2)
        for idx in range(p, min(p + LS_BLOCK, M)):
            j = order[idx]
            uj = float(u[j])
            c = sq_w - 2.0 * float(wv[j]) + 1.0
            if is_degenerate(c, sq_w + 1.0):
                continue
            kcol = Kb[idx - p]
            np.subtract(kcol, u, dvec)
            lo, capped = step_interval(away, lam, j, gamma_cap)
            if grad_rule:
                alpha = grad_step(kde_slope(u, dvec, q, uj, kappa0, mu_h), c,
                                  L, lo, 1.0)
            else:
                if not start_ok:
                    sum_r = kde_start(u, q, kappa0, mu_h, W)
                    start_ok = True
                np.multiply(dvec, -2.0, R)
                np.add(R, 2.0 * (uj - q), R)
                C = q - 2.0 * uj + kappa0
                d, h = kde_seg0(R, C, sum_r, W)
                alpha = line_min(
                    lambda a, curv: kde_seg(a, P, R, C, mu_h, curv, W),
                    lo, 1.0, 0.0, d, h, ls_tol, ls_max_iter)
            if away:
                alpha = away_update(lam, j, alpha, lo, capped, drop_tol)
            if alpha == 0.0:
                continue
            q, sq_w = kde_move(u, kcol, dvec, wv, j, alpha, q, sq_w, kappa0)
            start_ok = False
    return q, sq_w


_KERNELS = {fn.__name__: fn for fn in (ls_cycle, logistic_cycle, kde_cycle)}
