"""Hot inner-loop kernels with a numba backend and a pure-numpy fallback.

Each kernel runs one full outer pass (one sweep over the vertex visit
order) of the cyclic solver for one objective family, mutating the iterate
and its cached quantities in place.  The same source serves both backends:
the bodies are written in the numpy subset that numba's ``njit`` compiles,
so the fallback is simply the uncompiled function.

Backend selection: the environment variable ``POLYCD_NUMBA`` ("0"/"off" to
force the numpy path, "1"/"on" to require numba) sets the default at import
time; :func:`use_backend` switches it at runtime, which the kernel
benchmark and the backend-equivalence tests rely on.
"""

import os

import numpy as np

try:
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    numba = None
    HAVE_NUMBA = False

_TRUTHY = ("1", "true", "on", "yes")
_FALSY = ("0", "false", "off", "no")


def _default_backend():
    env = os.environ.get("POLYCD_NUMBA", "").strip().lower()
    if env in _FALSY:
        return "numpy"
    if env in _TRUTHY:
        if not HAVE_NUMBA:
            raise ImportError("POLYCD_NUMBA requests numba but numba is not installed")
        return "numba"
    return "numba" if HAVE_NUMBA else "numpy"


_BACKEND = _default_backend()
_PY_FUNCS = {}
_JIT_FUNCS = {}


def use_backend(name):
    """Select 'numba' or 'numpy' for all subsequent kernel lookups."""
    global _BACKEND
    if name not in ("numba", "numpy"):
        raise ValueError(f"unknown backend {name!r}")
    if name == "numba" and not HAVE_NUMBA:
        raise RuntimeError("numba backend requested but numba is not installed")
    _BACKEND = name


def active_backend():
    return _BACKEND


def _register(fn):
    _PY_FUNCS[fn.__name__] = fn
    return fn


def kernel(name, backend=None):
    """Return the kernel implementation for the active (or given) backend."""
    backend = backend or _BACKEND
    if backend == "numpy":
        return _PY_FUNCS[name]
    jit = _JIT_FUNCS.get(name)
    if jit is None:
        jit = numba.njit(cache=True)(_PY_FUNCS[name])
        _JIT_FUNCS[name] = jit
    return jit


def warmup(names=None):
    """Compile the named kernels (all by default) by running them on tiny
    synthetic inputs with the production argument types, so that timed
    sections never include JIT latency.  Compiled artifacts are disk-cached,
    making this near-instant after the first session."""
    if not HAVE_NUMBA:
        return
    n, d = 6, 3
    rng = np.random.default_rng(0)
    A_cols = rng.standard_normal((d, n))
    bvec = rng.standard_normal(n)
    ylab = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    X = rng.standard_normal((n, 2))
    xsq = np.sum(X * X, axis=1)
    coords = np.repeat(np.arange(d, dtype=np.int64), 2)
    scales = np.tile(np.array([1.0, -1.0]), d)
    order = np.arange(2 * d, dtype=np.int64)
    korder = np.arange(n, dtype=np.int64)
    for name in names or list(_PY_FUNCS):
        fn = kernel(name, backend="numba")
        for grad_rule in (False, True):
            for away in (False, True):
                lam = np.zeros(2 * d)
                lam[0] = 1.0
                x = np.zeros(d)
                x[0] = 1.0
                z = A_cols[0].copy()
                if name == "ls_cycle":
                    fn(A_cols, bvec, z, x, lam, order, coords, scales,
                       grad_rule, away, 1.0, 1.0, 1e12, 1e-14,
                       A_cols @ bvec, np.sum(A_cols * A_cols, axis=1))
                elif name == "logistic_cycle":
                    fn(A_cols, ylab, z, x, lam, order, coords, scales,
                       grad_rule, away, 1.0, 1.0, 1e12, 1e-14, 1e-12, 200)
                elif name == "kde_cycle":
                    kappa0, inv2s2 = 0.15, 0.5
                    u = kappa0 * np.exp(-(xsq - 2 * X @ X[0] + xsq[0]) * inv2s2)
                    wv = np.zeros(n)
                    wv[0] = 1.0
                    klam = np.zeros(n)
                    klam[0] = 1.0
                    fn(X, xsq, u, wv, klam, korder, grad_rule, away,
                       1.0, kappa0, inv2s2, 0.4, kappa0, 1.0,
                       1e12, 1e-14, 1e-12, 200)


# ---------------------------------------------------------------------------
# shared step conventions
#
# Every kernel visits vertices in the given order.  For vertex index i the
# admissible step interval is [0, 1], or [-gamma_i, 1] in away mode with
# gamma_i = lam_i / (1 - lam_i) capped at gamma_cap.  A step landing within
# drop_tol of -gamma_i is snapped to it and the weight is written as an
# exact zero.
#
# Degenerate segments (v_i == x up to float cancellation, detected by
# ||v - x||^2 falling below a relative floor) are skipped with alpha = 0:
# every step size leaves x unchanged there, and any other choice would only
# rescale the weights and amplify last-bit cache noise -- with lam_i = 1 the
# admissible interval is formally unbounded below, so this is also the only
# numerically safe reading of that convention.
# ---------------------------------------------------------------------------

_DEGENERATE_REL = 1e-13


# Length of the scan-ahead blocks of ls_cycle and logistic_cycle.  One
# gathered (block, n) slice of A_cols and one small matvec give col.z (or
# col.(sig y)) for every step of the block; the block is rescanned (no new
# gather) after each step that may move the iterate, so a pass costs at
# most M / block gathers plus one block-sized matvec per such step:
# O(M (n + d)) for a fixed block.
LS_BLOCK = 32

# A closed-form denominator w.w = s^2 ||col||^2 - 2 s col.z + ||z||^2 below
# this fraction of its terms has lost its digits to cancellation; the step
# then recomputes w = s col - z and its dot products explicitly.
_LS_CANCEL = 1e-10

_EPS = float(np.finfo(np.float64).eps)


@_register
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
    # scalars as Python floats: the numpy backend's scalar arithmetic is
    # several times faster on them (a no-op under numba)
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
            if c <= _DEGENERATE_REL * (sq_x + s * s):
                continue
            col = Ab[pos - p]
            g = float(gb[m])
            num = float(t[m]) - zr

            lo = 0.0
            capped = False
            if away:
                li = float(lam[i])
                if li >= 1.0:
                    lo = -gamma_cap
                    capped = True
                else:
                    gma = li / (1.0 - li)
                    if gma > gamma_cap:
                        gma = gamma_cap
                        capped = True
                    lo = -gma

            cs = float(col_sq[j])
            sb = float(SB[pos])
            if grad_rule:
                alpha = -2.0 * num / (L * c)
            else:
                ss = s * s * cs
                den = ss - 2.0 * s * g + zz
                if den <= _LS_CANCEL * (ss + zz):
                    w = s * col - z
                    den = float(np.dot(w, w))
                    num = float(np.dot(w, z)) - float(np.dot(w, bvec))
                if den <= 0.0:
                    alpha = lo
                else:
                    alpha = -num / den
            if alpha < lo:
                alpha = lo
            if alpha > 1.0:
                alpha = 1.0

            dropped = False
            if away and not capped and abs(alpha - lo) <= drop_tol * max(1.0, -lo):
                alpha = lo
                dropped = True

            # alpha = 0 leaves z, x and lam as they are: a drop to alpha = 0
            # means lo = 0, so lam_i is zero already
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
            if away:
                lam *= 1.0 - alpha
                if dropped:
                    lam[i] = 0.0
                else:
                    lam[i] += alpha
        p = q
    if xi != 1.0:
        x *= xi
    return sq_x


@_register
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

    sig at the current z is computed once per move and serves every step
    that reads it at alpha = 0, so a visit that does not move costs a few
    array operations, a fraction of a rescan.  A block is therefore
    screened only when at most a third of the previous block's positions
    were candidates (a nonzero weight or a positive step): in a denser
    block the rescans, one per move, cost more than the visits they save.
    """

    def seg(alpha, ym, yw, yw2, curv):
        # phi' and, if curv, phi'' along the segment at step alpha
        sig = 1.0 / (1.0 + np.exp(np.minimum(ym + alpha * yw, 700.0)))
        if not curv:
            return -np.dot(sig, yw), 0.0
        return -np.dot(sig, yw), np.dot(sig * (1.0 - sig), yw2)

    M = order.shape[0]
    J = vcoord[order]
    S = vscale[order]
    # 4 (n + 2) rounding units: twice the bound on either phi'(0)'s error
    tie = 4.0 * (z.shape[0] + 2)
    ym = ylab * z
    # sig and the screen's sy and zs hold for the current z while *_ok;
    # every variable is bound before the loop for numba's type inference
    sig = ym
    sig_ok = False
    sy = ym
    zs = 0.0
    scr_ok = False
    Ab = A_cols[J[:0]]
    cm = S[:0]
    held = S[:0] < 0.0
    cand = held
    base = 0
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
                    if not sig_ok:
                        sig = 1.0 / (1.0 + np.exp(np.minimum(ym, 700.0)))
                        sig_ok = True
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
            col = A_cols[j]
            xj = x[j]
            c = sq_x - 2.0 * s * xj + s * s
            if c <= _DEGENERATE_REL * (sq_x + s * s):
                continue
            w = s * col - z
            yw = ylab * w

            lo = 0.0
            capped = False
            if away:
                li = lam[i]
                if li >= 1.0:
                    lo = -gamma_cap
                    capped = True
                else:
                    gma = li / (1.0 - li)
                    if gma > gamma_cap:
                        gma = gamma_cap
                        capped = True
                    lo = -gma

            if (grad_rule or lo == 0.0) and not sig_ok:
                sig = 1.0 / (1.0 + np.exp(np.minimum(ym, 700.0)))
                sig_ok = True
            if grad_rule:
                alpha = np.dot(sig, yw) / (L * c)
                if alpha < lo:
                    alpha = lo
                if alpha > 1.0:
                    alpha = 1.0
            else:
                # safeguarded Newton, as objectives.bisect_line_min
                yw2 = yw * yw
                if lo == 0.0:
                    # seg(0) at this z: ym + 0 * yw is ym, so it is this sig
                    d = -np.dot(sig, yw)
                    h = np.dot(sig * (1.0 - sig), yw2)
                else:
                    d, h = seg(lo, ym, yw, yw2, True)
                if d >= 0.0:
                    alpha = lo
                elif seg(1.0, ym, yw, yw2, False)[0] <= 0.0:
                    alpha = 1.0
                else:
                    a = lo
                    b = 1.0
                    alpha = lo
                    it = 0
                    while b - a > ls_tol and it < ls_max_iter:
                        step = d / h if h > 0.0 else np.inf
                        if abs(step) <= 0.25 * ls_tol:
                            a = b = alpha - step  # converged: collapse the bracket
                            break
                        if a < alpha - step < b:
                            alpha -= step
                        else:
                            alpha = 0.5 * (a + b)
                        d, h = seg(alpha, ym, yw, yw2, True)
                        if d >= 0.0:
                            b = alpha
                        else:
                            a = alpha
                        it += 1
                    alpha = 0.5 * (a + b)
            if lo != 0.0 or alpha > 0.0:
                ncand += 1

            dropped = False
            if away and not capped and abs(alpha - lo) <= drop_tol * max(1.0, -lo):
                alpha = lo
                dropped = True

            # alpha = 0 leaves z, x and lam as they are (see ls_cycle)
            if alpha == 0.0:
                continue
            if alpha == 1.0:
                z[:] = s * col
                x[:] = 0.0
                x[j] = s
                sq_x = s * s
            else:
                z += alpha * w
                x *= 1.0 - alpha
                x[j] += alpha * s
                sq_x = ((1.0 - alpha) ** 2 * sq_x
                        + 2.0 * alpha * (1.0 - alpha) * s * xj
                        + alpha * alpha * s * s)
            if away:
                lam *= 1.0 - alpha
                if dropped:
                    lam[i] = 0.0
                else:
                    lam[i] += alpha
            ym = ylab * z
            sig_ok = False
            scr_ok = False
            rescan = screen
        p = q
    return sq_x


@_register
def kde_cycle(X, xsq, u, wv, lam, order, grad_rule, away,
              L, kappa0, inv2s2, mu_h, q, sq_w, gamma_cap, drop_tol,
              ls_tol, ls_max_iter):
    """One outer pass on the kernel-weight objective over the simplex.

    wv holds the weights, u caches K wv and q caches wv' K wv; kernel-matrix
    columns are recomputed on demand from the sample points X (row square
    norms in xsq), so K itself is never materialized.  Returns (q, sq_w).
    """

    def seg(alpha, P, R, C, mu_h, curv):
        # phi' and, if curv, phi'' along the segment at step alpha;
        # t_i^2 there is T_i = P_i + alpha R_i + alpha^2 C
        T = P + alpha * (R + alpha * C)
        Tp = R + (2.0 * alpha) * C
        t = np.sqrt(np.maximum(T, 0.0))
        ratio = mu_h / np.maximum(t, mu_h)  # huber'(t) / t
        rTp = ratio * Tp
        if not curv:
            return 0.5 * rTp.sum(), 0.0
        far = rTp * (t > mu_h)
        return (0.5 * rTp.sum(),
                C * ratio.sum()
                - 0.25 * np.dot(far, Tp / np.maximum(T, mu_h * mu_h)))

    for idx in range(order.shape[0]):
        j = order[idx]
        uj = u[j]
        wj = wv[j]
        c = sq_w - 2.0 * wj + 1.0
        if c <= _DEGENERATE_REL * (sq_w + 1.0):
            continue
        kcol = kappa0 * np.exp(-(xsq - 2.0 * np.dot(X, X[j]) + xsq[j]) * inv2s2)
        dvec = kcol - u

        lo = 0.0
        capped = False
        if away:
            li = lam[j]
            if li >= 1.0:
                lo = -gamma_cap
                capped = True
            else:
                gma = li / (1.0 - li)
                if gma > gamma_cap:
                    gma = gamma_cap
                    capped = True
                lo = -gma

        if grad_rule:
            t = np.sqrt(np.maximum(q - 2.0 * u + kappa0, 0.0))
            ratio = np.minimum(1.0, mu_h / np.maximum(t, 1e-300))
            bval = (uj - q) * ratio.sum() - np.dot(ratio, dvec)
            alpha = -bval / (L * c)
            if alpha < lo:
                alpha = lo
            if alpha > 1.0:
                alpha = 1.0
        else:
            # safeguarded Newton, as objectives.bisect_line_min
            P = (q + kappa0) - 2.0 * u
            R = 2.0 * (uj - q) - 2.0 * dvec
            C = q - 2.0 * uj + kappa0
            d, h = seg(lo, P, R, C, mu_h, True)
            if d >= 0.0:
                alpha = lo
            elif seg(1.0, P, R, C, mu_h, False)[0] <= 0.0:
                alpha = 1.0
            else:
                a = lo
                b = 1.0
                alpha = lo
                it = 0
                while b - a > ls_tol and it < ls_max_iter:
                    step = d / h if h > 0.0 else np.inf
                    if abs(step) <= 0.25 * ls_tol:
                        a = b = alpha - step  # converged: collapse the bracket
                        break
                    if a < alpha - step < b:
                        alpha -= step
                    else:
                        alpha = 0.5 * (a + b)
                    d, h = seg(alpha, P, R, C, mu_h, True)
                    if d >= 0.0:
                        b = alpha
                    else:
                        a = alpha
                    it += 1
                alpha = 0.5 * (a + b)

        dropped = False
        if away and not capped and abs(alpha - lo) <= drop_tol * max(1.0, -lo):
            alpha = lo
            dropped = True

        # alpha = 0 leaves u, q, wv and lam as they are (see ls_cycle)
        if alpha == 0.0:
            continue
        if alpha == 1.0:
            u[:] = kcol
            q = kappa0
            wv[:] = 0.0
            wv[j] = 1.0
            sq_w = 1.0
        else:
            u += alpha * dvec
            q = ((1.0 - alpha) ** 2 * q
                 + 2.0 * alpha * (1.0 - alpha) * uj
                 + alpha * alpha * kappa0)
            wv *= 1.0 - alpha
            wv[j] += alpha
            sq_w = ((1.0 - alpha) ** 2 * sq_w
                    + 2.0 * alpha * (1.0 - alpha) * wj
                    + alpha * alpha)
        if away:
            lam *= 1.0 - alpha
            if dropped:
                lam[j] = 0.0
            else:
                lam[j] += alpha
    return q, sq_w
