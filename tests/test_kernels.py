import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycd import _kernels


def test_backend_registry_and_switching():
    assert _kernels.active_backend() == "numpy"
    assert _kernels.kernel("ls_cycle") is _kernels.ls_cycle


def test_ls_cycle_single_pass_matches_manual_update():
    # one pass over a 2-vertex simplex with the exact line-search rule,
    # cross-checked against the hand-derived closed form
    from polycd import LeastSquares, StandardSimplex

    rng = np.random.default_rng(0)
    A = rng.standard_normal((6, 2))
    b = rng.standard_normal(6)
    A_cols = np.ascontiguousarray(A.T)
    x = np.array([1.0, 0.0])
    z = A @ x
    sq_x = 1.0
    order = np.arange(2, dtype=np.int64)
    fn = _kernels.kernel("ls_cycle")
    plan = LeastSquares(A, b, StandardSimplex(2))._order_plan(order)
    sq_out = fn(A_cols, b, plan, z, x, np.empty(0), False, False, 1.0, sq_x,
                1e12, 1e-14)
    # manual: step toward e_0 is degenerate; step toward e_1 has
    # alpha* = -<w, z-b>/<w, w> with w = A e_1 - A x
    x2 = np.array([1.0, 0.0])
    z2 = A @ x2
    w = A_cols[1] - z2
    alpha = min(max(-(w @ (z2 - b)) / (w @ w), 0.0), 1.0)
    x2 += alpha * (np.array([0.0, 1.0]) - x2)
    assert np.allclose(x, x2, atol=1e-15)
    assert sq_out == pytest.approx(float(x2 @ x2), rel=1e-12)


@pytest.mark.parametrize("poly", ["l1ball", "simplex"])
def test_block_plan_reads_a_cyclic_block_as_a_view(poly):
    # every cyclic block of visit positions, also one that starts between
    # the two vertices +-r e_j, reads its distinct columns once as a view;
    # a shuffled block is gathered
    from polycd import L1Ball, StandardSimplex

    d = 40
    P = L1Ball(d, 2.0) if poly == "l1ball" else StandardSimplex(d)
    A_cols = np.random.default_rng(1).standard_normal((d, 9))

    def only_block(order):
        plan = _kernels.block_plan(order, P.vertex_coords, P.vertex_scales)
        assert len(plan) == 1
        rows, R, V, J, S = plan[0]
        assert np.array_equal(V, order)
        assert np.array_equal(J, P.vertex_coords[order])
        assert np.array_equal(S, P.vertex_scales[order])
        return A_cols[rows], R, J

    for p, length in [(0, 32), (32, 32), (3, 7), (P.M - 5, 5), (6, 1)]:
        Ab, R, Jb = only_block(np.arange(p, min(p + length, P.M)))
        assert np.shares_memory(Ab, A_cols)
        assert Ab.shape[0] == len(np.unique(Jb))
        assert np.array_equal(Ab[R], A_cols[Jb])
    Ab, R, Jb = only_block(np.random.default_rng(2).permutation(32))
    assert not np.shares_memory(Ab, A_cols)
    assert np.array_equal(R, np.arange(32)) and np.array_equal(Ab, A_cols[Jb])


def test_lasso_order_plan_holds_a_block_diagonal_gram():
    # the plan's Grams hold at most ceil(M / LS_BLOCK) LS_BLOCK^2 floats,
    # not d^2, and it holds one visit per position, in order; it is built
    # in the first run_cycle for an order and kept for the next
    from polycd import L1Ball, LeastSquares, StandardSimplex

    rng = np.random.default_rng(4)
    A = rng.standard_normal((40, 200))
    b = rng.standard_normal(40)
    B = _kernels.LS_BLOCK
    for poly, order in ((L1Ball(200, 1.0), np.arange(400)),
                        (StandardSimplex(200), np.arange(200)),
                        (L1Ball(200, 1.0), rng.permutation(400))):
        obj = LeastSquares(A, b, poly)
        assert obj._plan is None
        lam = poly.vertex_weights(0)
        obj.run_cycle(_kernels.ls_cycle, order, lam, False, True, 1e12,
                      1e-14, 1e-12, 200)
        plan = obj._plan[1]
        obj.run_cycle(_kernels.ls_cycle, order, lam, False, True, 1e12,
                      1e-14, 1e-12, 200)
        assert obj._plan[1] is plan
        bound = -(-poly.M // B) * B * B
        grams = sum(G.size for _, G, _ in plan)
        assert grams <= bound
        assert [v[3] for *_, visits in plan for v in visits] == order.tolist()
        if order[1] == 1 and poly.kind == "l1ball":
            # a cyclic l1-ball block reads 16 or 17 columns, so the whole
            # plan takes under a third of the bound
            assert grams + poly.M <= bound / 3


def test_kde_columns_match_dense_kernel_rows():
    from polycd.verify import DenseKdeHuber

    rng = np.random.default_rng(4)
    X = rng.standard_normal((90, 2)) * 2.0
    X[10] = X[3]
    X[60] = X[3]
    xsq = np.sum(X * X, axis=1)
    for bw in (1.0, 0.6):
        dense = DenseKdeHuber(X, bw, 0.4)
        k0 = dense.kappa0
        for J in ([3], [10, 3, 60], list(range(0, 90, 7)), [89, 89]):
            J = np.array(J)
            B = _kernels.kde_columns(X, xsq, J, k0, dense.inv2s2)
            assert B.shape == (len(J), 90)
            assert np.max(np.abs(B - dense._K[J])) <= 1e-15 * k0


def _kde_seg_reference(alpha, P, R, C, mu_h):
    """phi' and phi'' of the kernel-weight objective along a move, written
    out with temporaries: t_i = sqrt(T_i), r_i = mu / max(t_i, mu)."""
    T = P + alpha * (R + alpha * C)
    Tp = R + 2.0 * alpha * C
    t = np.sqrt(np.maximum(T, 0.0))
    r = mu_h / np.maximum(t, mu_h)
    far = t > mu_h
    d = 0.5 * np.sum(r * Tp)
    h = C * np.sum(r) - 0.25 * np.sum(r[far] * Tp[far] ** 2 / T[far])
    return d, h, T


def _pin_to_mu_sq(P, R, k, alpha, C, mu_h):
    """Set R_k = 0 and P_k so that T_k = P_k + alpha (alpha C) is exactly
    mu^2, both in _kde_seg_reference and in kde_seg's product, whose last
    coefficient is alpha (alpha C)."""
    mu2 = mu_h * mu_h
    c2 = alpha * (alpha * C)
    R[k] = 0.0
    P[k] = mu2 - c2
    for _ in range(4):
        if P[k] + c2 == mu2:
            break
        P[k] = np.nextafter(P[k], np.inf if P[k] + c2 < mu2 else -np.inf)
    assert P[k] + c2 == mu2


def _kde_start_rows(S0, P, R):
    """Write P, R and R^2 into the start set S0 (kde_work)."""
    S0[0], S0[1], S0[3] = P, R, R * R


def _assert_kde_seg_rows(alpha, S0, S1, C, mu_h):
    """The rows kde_seg evaluated into S1 from the start set S0, exactly
    as kde_work defines them."""
    T, m = S1[0], S1[4]
    coef = np.array([1.0, alpha, alpha * (alpha * C)])
    assert np.array_equal(T, np.dot(coef, S0[:3]))
    assert np.array_equal(m, np.fmax(T, mu_h * mu_h))
    r = mu_h / np.sqrt(m)
    assert np.array_equal(S1[5], r)
    assert np.array_equal(S1[6], (r - np.floor(r)) / m)


def test_kde_seg_matches_reference_formula():
    import tracemalloc

    from polycd import KdeHuber

    rng = np.random.default_rng(7)
    X = rng.standard_normal((80, 2)) * 1.5
    j = 5
    X[11] = X[j]  # duplicates of the target point: T cancels at alpha = 1
    X[40] = X[j]
    obj = KdeHuber(X, 1.0, 0.4)
    w = rng.random(80) ** 4
    w[j] = 0.3
    obj.reset(w / w.sum())
    mu = obj.mu_h
    u, q, k0 = obj.u, obj.q, obj.kappa0
    P = (q + k0) - 2.0 * u
    R = 2.0 * (u[j] - q) - 2.0 * (obj.kernel_column(j) - u)
    C = float(q - 2.0 * u[j] + k0)
    lo = -0.3
    S0, S1, S2 = _kernels.kde_work(80)
    for alpha in (lo, 0.37, 1.0):
        Pa, Ra = P.copy(), R.copy()
        # a point with T exactly mu^2
        _pin_to_mu_sq(Pa, Ra, 0, alpha, C, mu)
        d_ref, h_ref, T = _kde_seg_reference(alpha, Pa, Ra, C, mu)
        assert T[0] == mu * mu
        assert np.any(T < mu * mu) and np.any(T > mu * mu)
        if alpha == 1.0:
            assert T[11] <= 0.0 or T[40] <= 0.0
        _kde_start_rows(S0, Pa, Ra)
        d, h = _kernels.kde_seg(alpha, S0, S1, C, mu, True)
        assert type(d) is float and type(h) is float
        assert abs(d - d_ref) <= 1e-13 * abs(d_ref)
        assert abs(h - h_ref) <= 1e-13 * abs(h_ref)
        # the evaluated set holds T = [1, alpha, alpha^2 C] [P; R; 1], its
        # clamp m, the ratios r and the far-side factor G
        _assert_kde_seg_rows(alpha, S0, S1, C, mu)
        assert S1[0][0] == mu * mu
        # phi' without curvature, evaluated into another set, is the same
        assert _kernels.kde_seg(alpha, S0, S2, C, mu, False) == (d, 0.0)
        for row in (0, 4, 5):
            assert np.array_equal(S2[row], S1[row])
    # an evaluation writes into the row sets and allocates no n-length array
    n = 4000
    S0, S1, S2 = _kernels.kde_work(n)
    _kde_start_rows(S0, np.tile(P, 50), np.tile(R, 50))
    _kernels.kde_seg(0.37, S0, S1, C, mu, True)
    # nor does a per-step search after its first call, which builds the
    # column it reads
    obj = KdeHuber(rng.standard_normal((n, 2)) * 1.5, 1.0, 0.4)
    obj.reset(rng.dirichlet(np.full(n, 0.3)))
    obj.line_search(j, -0.2, 1.0)
    # caches, a column, its direction and weights for one move of each kind
    u, kcol, dvec, wv = (rng.random(n) for _ in range(4))
    sq_w = float(wv @ wv)
    u0, d0 = u.copy(), dvec.copy()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _kernels.kde_seg(0.37, S0, S1, C, mu, True)
        _kernels.kde_seg(0.37, S0, S2, C, mu, False)
        _kernels.kde_start(S0[5], 0.3, 1.0, mu, S1)
        # the R row as dvec, as the per-step search passes it
        sums = _kernels.kde_seg0(S1[1], 0.2, C, S1)[2]
        _kernels.kde_third(C, sums, S1, S2[0])
        obj.line_search(j, -0.2, 1.0)
        # the moves scale the direction they are given in place
        _kernels.kde_move(u, kcol, dvec, wv, j, 0.3, 0.5, sq_w, 1.0)
        _kernels.vertex_move(wv, j, -2.0, 0.4, sq_w, u, kcol, dvec)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 8 * n
    # with the products and sums of the update written out of place
    assert np.array_equal(u, (u0 + 0.3 * d0) + 0.4 * (0.3 * d0))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(n=st.integers(2, 60), seed=st.integers(0, 2 ** 32 - 1),
       alpha=st.floats(-1.0, 1.0), C=st.floats(1e-3, 0.16),
       pins=st.integers(1, 3))
def test_kde_seg_matches_reference_property(n, seed, alpha, C, pins):
    # random P and R on both sides of mu^2, with 1 to 3 points pinned to
    # T exactly mu^2; phi' within 1e-13 of sum r_i |T_i'| and phi''
    # within 1e-13 of the sum of the magnitudes of its terms
    mu = 0.4
    rng = np.random.default_rng(seed)
    P = rng.random(n) * (3.0 * mu * mu)
    R = rng.standard_normal(n) * rng.choice([1e-3, 0.1, 1.0])
    for k in range(min(pins, n)):
        _pin_to_mu_sq(P, R, k, alpha, C, mu)
    d_ref, h_ref, T = _kde_seg_reference(alpha, P, R, C, mu)
    assert T[0] == mu * mu
    S0, S1, _ = _kernels.kde_work(n)
    _kde_start_rows(S0, P, R)
    d, h = _kernels.kde_seg(alpha, S0, S1, C, mu, True)
    assert S1[0][0] == mu * mu
    _assert_kde_seg_rows(alpha, S0, S1, C, mu)
    r = S1[5]
    assert abs(d - d_ref) <= 1e-13 * np.sum(r * np.abs(R + 2.0 * alpha * C))
    Tp = np.abs(R) + 2.0 * abs(alpha) * C
    assert abs(h - h_ref) <= 1e-13 * (C * np.sum(r)
                                      + 0.25 * np.sum(S1[6] * Tp * Tp))


def test_away_update_drops_scales_and_keeps():
    lam = np.array([0.2, 0.5, 0.3])
    tol = _kernels.DROP_TOL
    assert _kernels.step_interval(False, lam, 1.0, 0, 1e12) == (0.0, False)
    lo, capped = _kernels.step_interval(True, lam, 1.0, 0, 1e12)
    assert lo == -0.2 / 0.8 and not capped
    # gamma_i = lam_i / (1 - lam_i): 0 at lam_i = 0 and 1/3 at 0.25; at
    # lam_i = 1 it is unbounded, so the cap binds
    assert _kernels.step_interval(True, [0.0], 1.0, 0, 1e12) == (0.0, False)
    lo_q, capped_q = _kernels.step_interval(True, [0.25], 1.0, 0, 1e12)
    assert lo_q == -1.0 / 3.0 and not capped_q
    assert _kernels.step_interval(True, [1.0], 1.0, 0, 1e12) == (-1e12, True)
    # a step within DROP_TOL of an uncapped lo is the drop step lo: the
    # weight becomes an exact zero and the others scale by 1 - lo
    for alpha in (lo, lo + 0.5 * tol, lo - 0.5 * tol):
        w = lam.copy()
        step, sc = _kernels.away_update(w, 1.0, 0, alpha, lo, False, tol)
        assert step == lo
        assert w[0] == 0.0 and not np.signbit(w[0])
        assert np.array_equal(sc * w[1:], lam[1:] * (1.0 - lo))
    # a capped step stops short of -gamma_i and never drops
    lo_c, capped = _kernels.step_interval(True, lam, 1.0, 0, 0.1)
    assert lo_c == -0.1 and capped
    w = lam.copy()
    step, sc = _kernels.away_update(w, 1.0, 0, lo_c, lo_c, True, tol)
    assert step == lo_c and sc == 1.0 - lo_c
    expect = lam.copy()
    expect[0] += lo_c / sc
    assert np.array_equal(w, expect) and w[0] > 0.0
    # alpha = 0 leaves the weights as they are, bit for bit
    for i in range(3):
        lo_i, capped_i = _kernels.step_interval(True, lam, 1.0, i, 1e12)
        w = lam.copy()
        assert _kernels.away_update(w, 1.0, i, 0.0, lo_i, capped_i,
                                    tol) == (0.0, 1.0)
        assert w.tobytes() == lam.tobytes()


def _eager_away_update(lam, i, alpha, lo, capped):
    """The weight rule as it reads without a carried scale: every weight
    scales by 1 - alpha and lam_i gains alpha, or a drop writes 0."""
    if not capped and abs(alpha - lo) <= _kernels.DROP_TOL * max(1.0, -lo):
        if lo != 0.0:
            lam *= 1.0 - lo
            lam[i] = 0.0
        return lo
    if alpha != 0.0:
        lam *= 1.0 - alpha
        lam[i] += alpha
    return alpha


def _assert_close_to_eager(sc, lam, eager):
    carried = sc * lam
    assert np.array_equal(carried == 0.0, eager == 0.0)
    nz = eager != 0.0
    assert np.max(np.abs(carried[nz] - eager[nz]) / eager[nz]) <= 1e-15


def test_carried_weight_scale_folds_and_a_full_step_writes_the_vertex():
    # an away run on the weights of L1Ball(4): toward steps with
    # 1 - alpha = 1e-8 take the carried scale out of scale_in_range, where
    # away_update folds it in; then a full step, then away, drop and toward
    # steps, each against the eager rule
    from polycd import AwayState, L1Ball, weight_refresh

    ball = L1Ball(4, 1.0)
    rng = np.random.default_rng(3)
    lam = rng.random(ball.M)
    lam /= lam.sum()
    eager = lam.copy()
    sc = 1.0
    scales = []
    for k in range(14):
        i = k % ball.M
        lo, capped = _kernels.step_interval(True, lam, sc, i, 1e12)
        alpha, sc = _kernels.away_update(lam, sc, i, 1.0 - 1e-8, lo, capped,
                                         _kernels.DROP_TOL)
        _eager_away_update(eager, i, alpha, lo, capped)
        scales.append(sc)
    # (1e-8)^13 leaves the range: that step folds the scale in
    assert scales[12] == 1.0 and 0.0 < min(scales) < 1e-90
    _assert_close_to_eager(sc, lam, eager)
    lo, capped = _kernels.step_interval(True, lam, sc, 5, 1e12)
    assert _kernels.away_update(lam, sc, 5, 1.0, lo, capped,
                                _kernels.DROP_TOL) == (1.0, 1.0)
    assert lam.tobytes() == np.eye(ball.M)[5].tobytes()
    eager[:] = lam
    sc = 1.0
    for k in range(40):
        i = int(rng.integers(ball.M))
        lo, capped = _kernels.step_interval(True, lam, sc, i, 1e12)
        lo_e, capped_e = _kernels.step_interval(True, eager, 1.0, i, 1e12)
        assert capped == capped_e and lo == pytest.approx(lo_e, rel=1e-14)
        u = rng.random()
        if lo < 0.0 and not capped and u < 0.2:
            a, a_e = lo, lo_e  # a drop on both sides
        else:
            a = a_e = (u - 0.5) * min(1.0, -lo) if lo < 0.0 else 0.9 * u
        alpha, sc = _kernels.away_update(lam, sc, i, a, lo, capped,
                                         _kernels.DROP_TOL)
        assert alpha == a
        assert _eager_away_update(eager, i, a_e, lo_e, capped_e) == a_e
    lam *= sc
    _assert_close_to_eager(1.0, lam, eager)
    state = AwayState(lam=lam)
    weight_refresh(state, ball.combination(eager), ball)


def test_start_derivatives_match_segment_at_zero():
    # the kernels' line searches start at alpha = 0 from values cached per
    # move; phi'(0) and phi''(0) must be the segment helpers' bit for bit
    from polycd import KdeHuber

    rng = np.random.default_rng(11)
    for n in (37, 80, 201):
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        ym = y * rng.standard_normal(n) * 3.0
        for _ in range(3):
            yw = y * rng.standard_normal(n)
            yw2 = yw * yw
            sig, sg = _kernels.logistic_start(ym, True)
            got = _kernels.logistic_seg(sig, yw, yw2, True, sg)
            ref = _kernels.logistic_seg(_kernels.sigmoid_neg(ym), yw, yw2,
                                        True)
            assert np.array(got).tobytes() == np.array(ref).tobytes()
        assert _kernels.logistic_start(ym, False)[1] is None

        X = rng.standard_normal((n, 2)) * 1.5
        obj = KdeHuber(X, 1.0, 0.4)
        obj.reset(rng.dirichlet(np.full(n, 0.3)))
        u, q, k0, mu = obj.u, obj.q, obj.kappa0, obj.mu_h
        S0 = _kernels.kde_work(n)[0]
        _kernels.kde_start(u, q, k0, mu, S0)
        P = S0[0].copy()
        assert np.array_equal(P, (q + k0) - 2.0 * u)
        # points on both sides of mu, so the far-side term is not empty
        assert np.any(P < mu * mu) and np.any(P > mu * mu)
        for j in rng.choice(n, 4, replace=False):
            dvec = obj.kernel_column(j) - u
            b = 2.0 * (u[j] - q)
            C = float(q - 2.0 * u[j] + k0)
            got = _kernels.kde_seg0(dvec, b, C, S0)[:2]
            R = b - 2.0 * dvec
            assert np.array_equal(S0[1], R)
            assert np.array_equal(S0[3], R * R)
            S1 = _kernels.kde_work(n)[1]
            ref = _kernels.kde_seg(0.0, S0, S1, C, mu, True)
            assert np.array(got).tobytes() == np.array(ref).tobytes()
            # the evaluation at 0 writes the start's rows: those that a
            # kernel carries to the next move are the same at alpha = 0
            for row in (0, 4, 5, 6):
                assert S1[row].tobytes() == S0[row].tobytes()


def _kde_third_reference(P, R, C, mu_h):
    """phi''' at alpha = 0 of the kernel-weight objective along a move,
    written out over the far side t > mu, with r = mu / t, T = P and
    T' = R: -3/2 C sum r T' / T + 3/8 sum r T'^3 / T^2."""
    far = P > mu_h * mu_h
    T, Tp = P[far], R[far]
    r = mu_h / np.sqrt(T)
    return (-1.5 * C * np.sum(r * Tp / T)
            + 0.375 * np.sum(r * Tp ** 3 / T ** 2))


def test_kde_third_matches_closed_form_and_central_difference():
    from polycd import KdeHuber

    rng = np.random.default_rng(5)
    checked = 0
    for n in (60, 150):
        X = rng.standard_normal((n, 2)) * 1.5
        obj = KdeHuber(X, 1.0, 0.4)
        obj.reset(rng.dirichlet(np.full(n, 0.3)))
        u, q, k0, mu = obj.u, obj.q, obj.kappa0, obj.mu_h
        S0, S1, S2 = _kernels.kde_work(n)
        _kernels.kde_start(u, q, k0, mu, S0)
        P = S0[0].copy()
        # points on both sides of mu, so both sums of phi''' are exercised
        assert np.any(P < mu * mu) and np.any(P > mu * mu)
        for j in rng.choice(n, 5, replace=False):
            dvec = obj.kernel_column(j) - u
            R = 2.0 * (u[j] - q) - 2.0 * dvec
            C = float(q - 2.0 * u[j] + k0)
            sums = _kernels.kde_seg0(dvec, 2.0 * (u[j] - q), C, S0)[2]
            t = _kernels.kde_third(C, sums, S0, S2[0])
            ref = _kde_third_reference(P, R, C, mu)
            assert abs(t - ref) <= 1e-12 * max(abs(ref), 1.0)
            # a central difference of phi'', where no point crosses mu^2
            # within +-eps: phi'' jumps there
            eps = 1e-5
            if any(np.any((P + a * (R + a * C) > mu * mu) != (P > mu * mu))
                   for a in (-eps, eps)):
                continue
            h_lo = _kernels.kde_seg(-eps, S0, S1, C, mu, True)[1]
            h_hi = _kernels.kde_seg(eps, S0, S1, C, mu, True)[1]
            fd = (h_hi - h_lo) / (2.0 * eps)
            assert abs(fd - t) <= 1e-5 * max(abs(t), 1.0), (fd, t)
            checked += 1
    assert checked >= 5


def _kde_away_start(seed, n=300):
    """A KdeHuber instance at vertex 0, with its away weights and a visit
    order for kde_cycle."""
    from polycd import KdeHuber
    from polycd.problems import KdeSpec, gen_kde

    X, _ = gen_kde(KdeSpec(n=n, seed=seed))
    obj = KdeHuber(X, 1.0, 0.4)
    lam = np.zeros(n)
    lam[0] = 1.0
    return obj, lam, np.arange(n, dtype=np.int64)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kde_cycle_carried_start_stays_on_its_rebuild(seed):
    # kde_cycle carries P = q - 2u + kappa0 from move to move; at the end
    # of each pass it must still equal its rebuild from u and q
    obj, lam, order = _kde_away_start(seed)
    drifts = []
    for _ in range(4):
        obj.q, obj.sq_x, drift = _kernels.kde_cycle(
            obj.X, obj.xsq, obj.u, obj.x, lam, order, False, True, 1.0,
            obj.kappa0, obj.inv2s2, obj.mu_h, obj.q, obj.sq_x, 1e12,
            _kernels.DROP_TOL, 1e-12, 200)
        drifts.append(drift)
    assert all(0.0 <= d <= 1e-13 for d in drifts), drifts
    # some pass ends on a carried row, not on one just rebuilt
    assert max(drifts) > 0.0


def test_kde_run_cycle_raises_on_a_drifted_start(monkeypatch):
    from polycd.objectives import CacheConsistencyError

    obj, lam, order = _kde_away_start(0)
    seg = _kernels.kde_seg

    def drifted(alpha, S0, S1, C, mu_h, curv):
        out = seg(alpha, S0, S1, C, mu_h, curv)
        # the row a kernel carries to the next move, moved off T(alpha)
        S1[0] *= 1.0 + 1e-8
        return out

    monkeypatch.setattr(_kernels, "kde_seg", drifted)
    with pytest.raises(CacheConsistencyError):
        obj.run_cycle(_kernels.kde_cycle, order, lam, False, True, 1e12,
                      _kernels.DROP_TOL, 1e-12, 200)


def test_kde_run_cycle_rebuilds_the_caches_from_its_columns(monkeypatch):
    # the kernel pass leaves u = K w, q = w'u and ||w||^2 rebuilt from the
    # kernel columns it builds, with no refresh_cache or matvec
    from polycd import KdeHuber

    obj, lam, order = _kde_away_start(0)
    assert obj.L > 0.0  # estimated now, by power iteration on matvec
    calls = []
    for name in ("refresh_cache", "matvec"):
        monkeypatch.setattr(obj, name,
                            lambda *a, name=name: calls.append(name))
    for grad_rule in (False, False, True):
        obj.run_cycle(_kernels.kde_cycle, order, lam, grad_rule, True, 1e12,
                      _kernels.DROP_TOL, 1e-12, 200)
        x = obj.x
        ref = KdeHuber.matvec(obj, x)
        assert np.max(np.abs(obj.u - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert obj.q == x @ obj.u
        assert obj.sq_x == x @ x
    assert calls == []
    # so the step count restarts, and reset rebuilds the caches
    assert obj._steps == 0 and obj._rebuilt_at is None


def test_kde_run_cycle_raises_on_a_drifted_cache():
    from polycd.objectives import CacheConsistencyError

    obj, lam, order = _kde_away_start(0)
    obj.u *= 1.0 + 1e-8
    with pytest.raises(CacheConsistencyError):
        obj.run_cycle(_kernels.kde_cycle, order, lam, False, True, 1e12,
                      _kernels.DROP_TOL, 1e-12, 200)


def test_kde_move_full_step_lands_on_the_vertex():
    # at alpha = 1 the general update of q gives kappa0 exactly, and
    # vertex_move copies the vertex's column and weights
    rng = np.random.default_rng(8)
    X = rng.standard_normal((40, 2))
    xsq = np.sum(X * X, axis=1)
    kappa0, inv2s2 = 0.3, 0.5
    K = _kernels.kde_columns(X, xsq, np.arange(40), kappa0, inv2s2)
    w = rng.dirichlet(np.ones(40))
    u = K @ w
    j = 17
    kcol = K[j].copy()
    q, sq_w = _kernels.kde_move(u, kcol, kcol - u, w, j, 1.0, float(w @ u),
                                float(w @ w), kappa0)
    assert q == kappa0 and sq_w == 1.0
    assert u.tobytes() == kcol.tobytes()
    assert w.tobytes() == np.eye(40)[j].tobytes()


def _scripted_pass(monkeypatch, seed, steps):
    """One polycdwa pass under the gradient rule on 40 gen_kde points from
    Dirichlet weights, on the kernel path and on the per-step path: the
    first steps are the given ones, scripted through grad_step, which both
    paths call, and the rest are the rule's own.  Returns the kernel
    objective, each path's (f-trace, x, lam), the per-step path's steps
    and the scale beta of each kde_write_back of the kernel pass."""
    from polycd import GRAD_1D, KdeHuber, SolveConfig, polycdwa_solve
    from polycd.problems import KdeSpec, gen_kde

    X = gen_kde(KdeSpec(n=100, seed=seed))[0][:40]
    lam0 = np.random.default_rng(seed).dirichlet(np.ones(40))
    grad_step = _kernels.grad_step
    write_back = _kernels.kde_write_back
    script, backs = [], []

    def scripted(b, c, L, lo, hi):
        return script.pop() if script else grad_step(b, c, L, lo, hi)

    def logged(*args):
        backs.append(args[5])
        write_back(*args)
    monkeypatch.setattr(_kernels, "grad_step", scripted)
    monkeypatch.setattr(_kernels, "kde_write_back", logged)
    cfg = SolveConfig(step_rule=GRAD_1D, max_outer=1, rel_improve_tol=0.0,
                      lam0=lam0)
    runs, alphas = [], []
    for use_k in (True, False):
        script[:] = steps[::-1]
        obj = KdeHuber(X, 1.0, 0.4)
        x, state, trace = polycdwa_solve(
            obj, obj.poly, cfg,
            inner_callback=None if use_k else lambda t, i, a: alphas.append(a))
        runs.append((np.array([r.f_value for r in trace]), x, state.lam))
        if use_k:
            obj_k = obj
    assert alphas[:len(steps)] == steps
    # the caches of the weights the pass ended at, and the tolerance of
    # test_kernel_path_matches_generic_path between the two paths
    ref = KdeHuber.matvec(obj_k, obj_k.x)
    assert np.max(np.abs(obj_k.u - ref)) <= 1e-13 * np.max(np.abs(ref))
    for name, a, b in zip(("f-trace", "x", "lam"), *runs):
        scale = np.maximum(np.abs(a), 1.0)
        assert np.max(np.abs(a - b) / scale) <= 1e-9, name
    return obj_k, alphas, backs


def _carried_scale(steps):
    """beta = prod (1 - alpha) over the steps, as kde_cycle carries it."""
    beta = 1.0
    for alpha in steps:
        beta *= 1.0 - alpha
    return beta


def test_kde_cycle_full_step_mid_block_writes_the_vertex(monkeypatch):
    # a full step between carried moves of the first block writes
    # u = K e_j and w = e_j and drops what the block carried before it:
    # the block's write-back applies only the moves after it
    obj, alphas, backs = _scripted_pass(monkeypatch, 4,
                                        [0.3, 0.4, 1.0, 0.25, 0.5])
    assert len(backs) == 2
    # the per-step path's steps, which round a little differently
    assert backs[0] == pytest.approx(_carried_scale(alphas[3:32]), rel=1e-12)


def test_kde_cycle_flushes_a_scale_out_of_range_mid_block(monkeypatch):
    # steps of 1 - 2^-20 make the carried scale beta = prod (1 - alpha)
    # 2^-340 < 1e-100 at the 17th move of the first block: the moves so
    # far are written back there at beta = 2^-320, and the block goes on
    # from beta = 1, so its write-back comes from 2^-80 after the 20th
    obj, alphas, backs = _scripted_pass(monkeypatch, 5,
                                        [1.0 - 2.0 ** -20] * 20)
    assert len(backs) == 3 and backs[0] == 2.0 ** -320
    assert backs[1] == pytest.approx(_carried_scale(alphas[16:32]), rel=1e-12)
