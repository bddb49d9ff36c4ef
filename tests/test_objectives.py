import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycd import (KdeHuber, L1Ball, LeastSquares, Logistic, Quadratic,
                    StandardSimplex, _kernels, bisect_line_min,
                    grad_step_alpha, objectives)
from polycd.problems import KdeSpec, gen_kde
from polycd.verify import DenseKdeHuber

from oracles import finite_diff_gradient, golden_section_min


def motivating_setup():
    """f(x) = (x1-2)^2 + (x2-2)^2 over the unit l1 ball, iterate (0, 1)."""
    ball = L1Ball(2, 1.0)
    obj = LeastSquares(np.eye(2), np.array([2.0, 2.0]), ball,
                       x0=np.array([0.0, 1.0]))
    return ball, obj


def random_logistic(n=40, d=12, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, d))
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    return Logistic(A, labels, L1Ball(d, 2.0))


def random_kde(n=30, seed=0):
    rng = np.random.default_rng(seed)
    return KdeHuber(rng.standard_normal((n, 2)) * 2.0, 1.0, 0.4)


# -- eval ------------------------------------------------------------------


def test_eval_least_squares_identity():
    obj = LeastSquares(np.eye(2), np.zeros(2), L1Ball(2, 1.0),
                       x0=np.array([1.0, 0.0]))
    assert obj.eval() == pytest.approx(1.0)


def test_eval_logistic_zero_margin():
    obj = Logistic(np.zeros((1, 3)), [1.0], StandardSimplex(3))
    assert obj.eval() == pytest.approx(np.log(2.0))


def test_eval_kde_single_point_is_zero():
    obj = KdeHuber(np.zeros((1, 2)), 1.0, 0.4)
    # q - 2u + K00 = K00 - 2K00 + K00 = 0 at w = (1)
    assert obj.eval() == pytest.approx(0.0, abs=1e-15)


# -- segment_query ---------------------------------------------------------


def _with_nonfinite(shape, index, value):
    a = np.random.default_rng(0).standard_normal(shape)
    a[index] = value
    return a


@pytest.mark.parametrize("make", [
    lambda: LeastSquares(_with_nonfinite((6, 3), (2, 1), np.nan),
                         np.ones(6), L1Ball(3, 1.0)),
    lambda: LeastSquares(np.ones((6, 3)), _with_nonfinite(6, 4, np.inf),
                         L1Ball(3, 1.0)),
    lambda: Logistic(_with_nonfinite((6, 3), (0, 0), np.nan),
                     np.ones(6), L1Ball(3, 1.0)),
    lambda: KdeHuber(_with_nonfinite((5, 2), (3, 1), np.nan), 1.0, 0.4),
    lambda: Quadratic(_with_nonfinite((3, 3), (1, 2), np.nan), np.zeros(3),
                      poly=StandardSimplex(3)),
    lambda: Quadratic(np.eye(3), _with_nonfinite(3, 0, np.inf),
                      poly=StandardSimplex(3)),
], ids=["ls-A-nan", "ls-b-inf", "logistic-A-nan", "kde-points-nan",
        "quad-Q-nan", "quad-q-inf"])
def test_nonfinite_data_is_rejected(make):
    with pytest.raises(ValueError, match="non-finite"):
        make()


@pytest.mark.parametrize("cls", [KdeHuber, DenseKdeHuber])
@pytest.mark.parametrize("points", [
    np.linspace(-2.0, 2.0, 50), np.float64(1.5), np.ones((4, 3, 2)),
], ids=["1d", "0d", "3d"])
def test_kde_points_that_are_not_2d_are_rejected(cls, points):
    # 50 samples in a 1-D array were read as one point in dimension 50 (a
    # one-weight problem with f = 3.9e-35), and a 3-D array failed to
    # unpack its shape
    with pytest.raises(ValueError, match="points must be a 2-D"):
        cls(points, 1.0, 0.4)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("make", [
    lambda **kw: LeastSquares(np.ones((6, 6)), np.ones(6), L1Ball(6, 1.0),
                              **kw),
    lambda **kw: Logistic(np.ones((6, 6)), np.ones(6), L1Ball(6, 1.0), **kw),
    lambda **kw: KdeHuber(np.arange(24.0).reshape(12, 2), 1.0, 0.4, **kw),
    lambda **kw: Quadratic(np.eye(6), np.zeros(6), poly=StandardSimplex(6),
                           **kw),
], ids=["lasso", "logistic", "kde", "quad"])
def test_nonfinite_start_point_is_rejected(make, bad):
    # a NaN start gave f = nan (lasso), and an infinite one warned and gave
    # f = nan (KDE), from the constructor and from reset alike
    obj = make()
    x0 = np.full(obj.poly.d, bad)
    with pytest.raises(ValueError, match="x0 has non-finite entries"):
        make(x0=x0)
    x = obj.x.copy()
    with pytest.raises(ValueError, match="x0 has non-finite entries"):
        obj.reset(x0)
    assert np.array_equal(obj.x, x)


@pytest.mark.parametrize("bandwidth,huber_mu,dim,name", [
    (np.inf, 0.4, 2, "bandwidth"),
    (np.nan, 0.4, 2, "bandwidth"),
    (1e-300, 0.4, 2, "bandwidth"),  # bandwidth^2 underflows to 0
    (1e200, 0.4, 2, "bandwidth"),  # bandwidth^2 overflows
    (1.0, 0.4, 1000, "bandwidth"),  # kappa0 underflows in dimension 1000
    (1.0, np.inf, 2, "huber_mu"),
    (1.0, np.nan, 2, "huber_mu"),
    (1.0, 1e-160, 2, "huber_mu"),  # mu^2 underflows
], ids=["bw-inf", "bw-nan", "bw-tiny", "bw-huge", "bw-high-dim", "mu-inf",
        "mu-nan", "mu-tiny"])
def test_kde_parameters_are_rejected(bandwidth, huber_mu, dim, name):
    X, _ = gen_kde(KdeSpec(n=100, seed=0))
    if dim != X.shape[1]:
        X = np.random.default_rng(0).standard_normal((5, dim))
    for cls in (KdeHuber, DenseKdeHuber):
        with pytest.raises(ValueError, match=name):
            cls(X, bandwidth, huber_mu)


def test_segment_query_hand_gradient():
    ball, obj = motivating_setup()
    q = obj.segment_query(0)  # vertex +e1
    assert q.b == pytest.approx(-2.0, rel=1e-12)
    assert q.c == pytest.approx(2.0, rel=1e-12)


def test_segment_query_at_own_vertex_is_degenerate():
    obj = LeastSquares(np.eye(2), np.zeros(2), L1Ball(2, 1.0),
                       x0=np.array([1.0, 0.0]))
    q = obj.segment_query(0)
    assert q.b == pytest.approx(0.0, abs=1e-14)
    assert q.c == pytest.approx(0.0, abs=1e-14)


def test_segment_query_matches_full_gradient():
    rng = np.random.default_rng(1)
    ball = L1Ball(10, 1.5)
    A = rng.standard_normal((25, 10))
    objs = [LeastSquares(A, rng.standard_normal(25), ball),
            random_logistic(seed=2), random_kde(seed=3)]
    for obj in objs:
        poly = obj.poly
        x0 = poly.project(rng.standard_normal(poly.d))
        obj.reset(x0)
        g = obj.full_gradient()
        for i in range(0, poly.M, 3):
            q = obj.segment_query(i)
            want = float(g @ (poly.vertex(i) - obj.x))
            assert q.b == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_kde_segment_query_slope_is_the_line_search_start(monkeypatch):
    # the gradient rule and the line search read phi'(0) from one source:
    # segment_query(i).b is, bit for bit, the slope at 0 that the per-step
    # search starts from, and it is <grad f(w), e_i - w>
    spec = KdeSpec(n=200, seed=5)
    X, _ = gen_kde(spec)
    obj = KdeHuber(X, spec.sigma_kernel, spec.mu_huber)
    obj.reset(np.random.default_rng(8).dirichlet(np.full(200, 0.5)))
    starts = []
    search = objectives.bisect_line_min

    def spy(fn, lo, hi, **kw):
        starts.append(fn(0.0)[0])
        return search(fn, lo, hi, **kw)
    monkeypatch.setattr(objectives, "bisect_line_min", spy)
    g = obj.full_gradient()
    for i in range(200):
        b = obj.segment_query(i).b
        obj.line_search(i, 0.0, 1.0)
        assert len(starts) == i + 1 and b == starts[-1]
        want = float(g[i] - g @ obj.x)
        assert abs(b - want) <= 1e-12 * abs(want)


# -- apply_step ------------------------------------------------------------


def test_apply_step_zero_is_noop():
    _, obj = motivating_setup()
    x, z = obj.x.copy(), obj.z.copy()
    obj.apply_step(0, 0.0)
    assert np.array_equal(obj.x, x) and np.array_equal(obj.z, z)


def test_apply_step_one_lands_exactly_on_vertex():
    _, obj = motivating_setup()
    obj.apply_step(0, 1.0)
    assert np.array_equal(obj.x, [1.0, 0.0])
    # residual cache equals A v - b exactly
    assert np.array_equal(obj.z - obj.bvec, np.array([1.0, 0.0]) - obj.bvec)


def test_kde_apply_step_quadratic_form():
    # two points: q after stepping halfway toward e2 expands to
    # 0.25 k0 + 0.5 k1 + 0.25 k0
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    obj = KdeHuber(pts, 1.0, 0.4, x0=np.array([1.0, 0.0]))
    k0 = obj.kappa0
    k1 = obj.kernel_column(0)[1]
    obj.apply_step(1, 0.5)
    assert obj.q == pytest.approx(0.25 * k0 + 0.5 * k1 + 0.25 * k0, rel=1e-12)


def test_cache_consistency_after_many_steps():
    rng = np.random.default_rng(4)
    for obj in (LeastSquares(rng.standard_normal((30, 8)),
                             rng.standard_normal(30), L1Ball(8, 2.0)),
                random_logistic(seed=5), random_kde(n=20, seed=6)):
        poly = obj.poly
        for _ in range(10_000):
            i = int(rng.integers(poly.M))
            obj.apply_step(i, float(rng.random()) * 0.5)
        z_inc = obj.z.copy() if hasattr(obj, "z") else obj.u.copy()
        obj.refresh_cache()
        z_new = obj.z if hasattr(obj, "z") else obj.u
        scale = max(1.0, float(np.max(np.abs(z_new))))
        assert np.max(np.abs(z_inc - z_new)) <= 1e-6 * scale


# -- reset -----------------------------------------------------------------


def _reset_families():
    """(name, factory(**kwargs)) of a lasso and a KDE objective."""
    rng = np.random.default_rng(3)
    A = rng.standard_normal((30, 20))
    b = rng.standard_normal(30)
    X = rng.standard_normal((50, 2)) * 2.0
    return (("lasso", lambda **kw: LeastSquares(A, b, L1Ball(20, 1.5), **kw)),
            ("kde", lambda **kw: KdeHuber(X, 1.0, 0.4, **kw)))


def _cache_bytes(obj):
    names = ("u", "q", "sq_x") if isinstance(obj, KdeHuber) else ("z", "sq_x")
    return [np.asarray(getattr(obj, name)).tobytes() for name in names]


def _log_calls(monkeypatch, obj, events):
    """Log "refresh" for each refresh_cache call of obj and "step" for each
    apply_step or run_cycle call, then make the call."""
    for name, tag in (("refresh_cache", "refresh"), ("apply_step", "step"),
                      ("run_cycle", "step")):
        def logged(*args, orig=getattr(obj, name), tag=tag):
            events.append(tag)
            return orig(*args)
        monkeypatch.setattr(obj, name, logged)


@pytest.mark.parametrize("family", ["lasso", "kde"])
@pytest.mark.parametrize("solver", ["polycdwa", "fw", "afw"])
def test_solve_at_the_default_start_reuses_the_constructor_caches(
        monkeypatch, family, solver):
    from polycd import SolveConfig, polycdwa_solve
    from polycd.baselines import BaselineConfig, afw_solve, fw_solve

    obj = dict(_reset_families())[family]()
    events = []
    _log_calls(monkeypatch, obj, events)
    if solver == "polycdwa":
        polycdwa_solve(obj, obj.poly, SolveConfig(max_outer=2))
    else:
        solve = fw_solve if solver == "fw" else afw_solve
        solve(obj, obj.poly, BaselineConfig(max_iter=5))
    assert "step" in events
    assert events.index("step") == 0, events[:3]


@pytest.mark.parametrize("family", ["lasso", "kde"])
def test_reset_rebuilds_the_caches_unless_nothing_moved(monkeypatch, family):
    make = dict(_reset_families())[family]
    obj = make()
    x0 = obj.x.copy()
    x1 = obj.poly.combination(
        np.random.default_rng(1).dirichlet(np.ones(obj.poly.M)))
    fresh = {key: _cache_bytes(make(x0=x)) for key, x in (("x0", x0),
                                                          ("x1", x1))}
    kname = obj.kernel_name()
    order = np.arange(obj.poly.M, dtype=np.int64)

    def run_pass(o):
        o.run_cycle(_kernels.kernel(kname), order, np.empty(0), False,
                    False, 1e12, _kernels.DROP_TOL, 1e-12, 200)

    def write_x(o):
        o.x[0] += 0.25

    cases = (("nothing", lambda o: None, "x0", 0),
             ("apply_step", lambda o: o.apply_step(3, 0.3), "x0", 1),
             ("zero step", lambda o: o.apply_step(3, 0.0), "x0", 1),
             ("run_cycle", run_pass, "x0", 1),
             ("x written in place", write_x, "x0", 1),
             ("another x0", lambda o: None, "x1", 1))
    for what, act, at, rebuilds in cases:
        obj = make()
        events = []
        act(obj)
        _log_calls(monkeypatch, obj, events)
        obj.reset(x0 if at == "x0" else x1)
        assert events.count("refresh") == rebuilds, what
        assert _cache_bytes(obj) == fresh[at], what
        assert obj.x.tobytes() == (x0 if at == "x0" else x1).tobytes()
        # and a second reset at the same point keeps what the first built
        obj.reset(obj.x.copy())
        assert events.count("refresh") == rebuilds, what


# -- line search -----------------------------------------------------------


def test_line_search_motivating_example():
    _, obj = motivating_setup()
    # 1D slice: (alpha-2)^2 + (1-alpha-2)^2, derivative 4 alpha - 2
    alpha = obj.line_search(0, 0.0, 1.0)
    assert alpha == pytest.approx(0.5, rel=1e-12)
    obj.apply_step(0, alpha)
    assert np.allclose(obj.x, [0.5, 0.5])


def test_line_search_no_descent_returns_lo():
    obj = LeastSquares(np.eye(2), np.zeros(2), L1Ball(2, 1.0),
                       x0=np.array([0.2, 0.0]))
    # moving toward +e1 only increases ||x||^2
    assert obj.line_search(0, 0.0, 1.0) == 0.0


def test_line_search_rejects_empty_interval():
    _, obj = motivating_setup()
    with pytest.raises(ValueError):
        obj.line_search(0, 1.0, 0.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bisection_matches_golden_section(seed):
    for obj in (random_logistic(seed=seed), random_kde(seed=seed)):
        poly = obj.poly
        rng = np.random.default_rng(seed + 10)
        obj.reset(poly.project(rng.standard_normal(poly.d)))
        for i in range(0, poly.M, 5):
            a_bis = obj.line_search(i, 0.0, 1.0)
            x0 = obj.x.copy()
            v = poly.vertex(i)
            a_gold = golden_section_min(
                lambda a: obj.eval_at(x0 + a * (v - x0)), 0.0, 1.0, tol=1e-8)
            assert abs(a_bis - a_gold) <= 1e-7


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pair_line_search_matches_golden_section(seed):
    rng = np.random.default_rng(seed + 20)
    d = 12
    logistic = Logistic(rng.standard_normal((40, d)),
                        np.where(rng.random(40) < 0.5, 1.0, -1.0),
                        StandardSimplex(d))
    for obj in (logistic, random_kde(seed=seed)):
        obj.reset(obj.poly.project(rng.random(obj.poly.d)))
        for _ in range(8):
            i, j = (int(k) for k in rng.choice(obj.poly.d, 2, replace=False))
            lo, hi = -obj.x[i], obj.x[j]
            theta = obj.pair_line_search(i, j, lo, hi)
            x0 = obj.x.copy()
            e = np.zeros(obj.poly.d)
            e[i], e[j] = 1.0, -1.0
            t_gold = golden_section_min(
                lambda t: obj.eval_at(x0 + t * e), lo, hi, tol=1e-8)
            assert abs(theta - t_gold) <= 1e-7


def _counted(fn):
    calls = []

    def wrapped(a):
        calls.append(a)
        return fn(a)

    return wrapped, calls


def test_newton_line_min_flat_stretch_gives_smallest_minimizer():
    # phi' < 0 below 0.3, = 0 on [0.3, 0.7], > 0 above
    def fn(a):
        return min(a - 0.3, 0.0) + max(a - 0.7, 0.0), float(not 0.3 < a < 0.7)

    for lo, hi in ((0.0, 1.0), (-2.0, 0.9), (0.1, 5.0)):
        assert abs(bisect_line_min(fn, lo, hi) - 0.3) <= 1e-12
    # zero curvature everywhere: the iteration bisects
    assert abs(bisect_line_min(lambda a: (fn(a)[0], 0.0), 0.0, 1.0) - 0.3) <= 1e-12


def test_newton_line_min_stays_in_interval():
    rng = np.random.default_rng(3)
    for _ in range(200):
        root = rng.uniform(-3.0, 3.0)
        k = rng.uniform(0.1, 10.0)
        lo = rng.uniform(-2.0, 1.0)
        hi = lo + 10.0 ** rng.uniform(-14.0, 0.3)
        # phi' = expm1(k (a - root)) is convex: every Newton step from
        # the left overshoots the root
        a = bisect_line_min(
            lambda x: (np.expm1(k * (x - root)), k * np.exp(k * (x - root))),
            lo, hi)
        assert lo <= a <= hi
        assert abs(a - min(max(root, lo), hi)) <= 1e-9
    # an interval narrower than tol whose phi' jumps inside it: the Newton
    # step from lo (1e-14, short enough to pass as converged) leaves it
    a = bisect_line_min(lambda x: (x - 1e-14 + float(x > 5e-16), 1.0),
                        0.0, 1e-15)
    assert 0.0 <= a <= 1e-15


def test_newton_line_min_converges_across_huber_kink():
    # sum of Huber terms whose kinks surround the minimizer: phi'' jumps
    mu = 0.2
    c = np.array([0.1, 0.35, 0.5, 0.62, 0.8])

    def fn(a):
        t = a - c
        return (float(np.clip(t, -mu, mu).sum()) + 0.01 * (a - 0.9),
                float(np.sum(np.abs(t) <= mu)) + 0.01)

    counted, calls = _counted(fn)
    a = bisect_line_min(counted, 0.0, 1.0)
    # near 0.49 terms 2-4 are in their quadratic zone and the saturated
    # terms 1 and 5 cancel: phi' = 3.01 a - (0.35 + 0.5 + 0.62 + 0.009)
    root = (0.35 + 0.5 + 0.62 + 0.01 * 0.9) / 3.01
    assert abs(a - root) <= 1e-12
    assert len(calls) <= 10  # bisection alone needs about 40


def test_newton_line_min_evaluation_budget():
    # zero curvature forces bisection; from far off, Newton steps on
    # arctan leave the bracket and alternate with bisection
    fns = (lambda a: (a - 1.0 / 3.0, 0.0),
           lambda a: (np.arctan(10.0 * (a - 0.7)),
                      10.0 / (1.0 + 100.0 * (a - 0.7) ** 2)))
    for fn, max_iter in itertools.product(fns, (0, 1, 5, 30)):
        counted, calls = _counted(fn)
        d, h = counted(0.0)
        a = _kernels.line_min(lambda a, curv: counted(a), -5.0, 1.0, 0.0, d,
                              h, 1e-15, max_iter)
        assert len(calls) <= max_iter + 2
        assert -5.0 <= a <= 1.0


def _eager_line_min(fn, lo, hi, tol=1e-12, max_iter=200):
    """The same safeguarded Newton search from x0 = clip(0, lo, hi), with
    the end of the side that phi'(x0) picks tested right after phi'(x0),
    before any Newton step."""
    x0 = min(max(0.0, lo), hi)
    d, h = fn(x0)
    if d < 0.0:
        if x0 == hi or fn(hi)[0] <= 0.0:
            return hi
    elif d > 0.0:
        if x0 == lo or fn(lo)[0] >= 0.0:
            return lo
    else:
        return x0
    it = 0
    a, b, x, done = _kernels.newton_step(lo, hi, x0, d, h, tol, max_iter > 0)
    while not done:
        d, h = fn(x)
        it += 1
        a, b, x, done = _kernels.newton_step(a, b, x, d, h, tol, it < max_iter)
    return x


def _convex_phi(family, rng):
    """A seeded convex phi as alpha -> (phi'(alpha), phi''(alpha))."""
    if family == "huber-sum":
        c = rng.uniform(-1.5, 2.5, 6)
        w = rng.uniform(0.1, 2.0, 6)
        mu = rng.uniform(0.05, 1.0)
        return lambda a: (float(w @ np.clip(a - c, -mu, mu)),
                          float(w @ (np.abs(a - c) < mu)))
    if family == "logistic":
        y = np.where(rng.random(20) < 0.5, 1.0, -1.0)
        ym = y * rng.standard_normal(20)
        yw = y * rng.standard_normal(20) * rng.uniform(0.1, 5.0)
        return lambda a: _kernels.logistic_seg(
            _kernels.sigmoid_neg(ym + a * yw), yw, yw * yw, True)
    if family == "arctan":
        c = rng.uniform(-1.5, 2.5)
        k = 10.0 ** rng.uniform(-1.0, 2.0)
        return lambda a: (float(np.arctan(k * (a - c))),
                          k / (1.0 + (k * (a - c)) ** 2))
    s = rng.uniform(0.1, 3.0)
    k = 10.0 ** rng.uniform(-1.0, 1.5)
    if family == "positive":
        # the mirror image of "negative": phi' > 0 on the whole interval,
        # so the search runs toward lo
        return lambda a: (s * np.exp(k * a), s * k * np.exp(k * a))
    # phi' < 0 on the whole interval, concave: Newton steps fall short
    return lambda a: (-s * np.exp(-k * a), s * k * np.exp(-k * a))


def _interval(kind, rng):
    """A seeded step interval: around 0 (away mode), from 0 (plain mode),
    or wholly above or below 0, where the search starts at lo or hi."""
    if kind == 0:
        return -float(rng.uniform(0.0, 1.0)), 1.0
    if kind == 1:
        return 0.0, 1.0
    if kind == 2:
        return float(rng.uniform(0.05, 0.5)), 1.5
    return -1.5, -float(rng.uniform(0.05, 0.5))


@pytest.mark.parametrize(
    "family", ["huber-sum", "logistic", "arctan", "negative", "positive"])
def test_deferred_hi_test_matches_eager(family):
    rng = np.random.default_rng(31)
    at_end = 0
    evals = np.zeros(2, dtype=int)  # deferred, eager, where alpha != end
    for k in range(200):
        phi = _convex_phi(family, rng)
        lo, hi = _interval(k % 4, rng)
        x0 = min(max(0.0, lo), hi)
        # the end of the side of x0 that phi'(x0) picks
        end = hi if phi(x0)[0] < 0.0 else lo
        eager, seen_e = _counted(phi)
        deferred, seen_d = _counted(phi)
        alpha = bisect_line_min(deferred, lo, hi)
        assert alpha == _eager_line_min(eager, lo, hi)
        assert seen_d[0] == x0 and seen_d.count(end) <= 1
        # the kernels' entry point, handed phi at x0: the same points, and
        # the end at most once and without phi''
        seg_calls = []

        def seg(a, curv):
            seg_calls.append((a, curv))
            d, h = phi(a)
            return d, h if curv else 0.0

        d, h = phi(x0)
        assert _kernels.line_min(seg, lo, hi, x0, d, h, 1e-12, 200) == alpha
        assert [a for a, _ in seg_calls] == seen_d[1:]
        assert [c for a, c in seg_calls if a == end] in ([], [False])
        d_end = phi(end)[0]
        if d_end <= 0.0 if end == hi else d_end >= 0.0:
            at_end += 1
            assert alpha == end
            # the Newton steps taken before the test are capped
            assert len(seen_d) <= len(seen_e) + _kernels.END_TEST_AFTER
        else:
            # the eager loop's evaluations in its order, less the one at
            # the end where the bracket moved off it first
            assert ([a for a in seen_d if a != end]
                    == [a for a in seen_e if a != end])
            assert len(seen_d) <= len(seen_e)
            evals += len(seen_d), len(seen_e)
    if family in ("negative", "positive"):
        assert at_end == 200
    else:
        assert 0 < at_end < 200
        assert evals[0] < evals[1]


def test_line_min_nan_at_start_does_not_move():
    # a NaN phi' at the start point returns alpha = 0, which does not
    # move; returning lo would be a drop step in away mode
    nan = float("nan")
    for lo in (-0.5, 0.0):
        counted, calls = _counted(lambda a: (nan, nan))
        assert bisect_line_min(counted, lo, 1.0) == 0.0
        assert calls == [0.0]
        assert _kernels.line_min(lambda a, curv: (nan, nan), lo, 1.0, 0.0,
                                 nan, nan, 1e-12, 200) == 0.0


def _exp_convex(A, B, Cn, D, E, S):
    """seg(alpha, curv) and the third derivative of a convex phi with
    phi'(a) = A e^(B a) - Cn e^(-D a) + E + S a, which increases for
    A, Cn, S >= 0 and B, D > 0."""
    def seg(a, curv):
        ep, em = np.exp(B * a), np.exp(-D * a)
        d = A * ep - Cn * em + E + S * a
        return d, (A * B * ep + Cn * D * em + S) if curv else 0.0

    def third(a):
        return A * B * B * np.exp(B * a) - Cn * D * D * np.exp(-D * a)
    return seg, third


@settings(derandomize=True, max_examples=400, deadline=None)
@given(A=st.floats(0.0, 10.0), B=st.floats(0.1, 5.0),
       Cn=st.floats(0.0, 10.0), D=st.floats(0.1, 5.0),
       E=st.floats(-10.0, 10.0), S=st.floats(0.0, 5.0),
       lo=st.floats(-2.0, 0.0), hi=st.floats(0.0, 2.0),
       frac=st.floats(0.0, 1.0), max_iter=st.integers(0, 8))
def test_line_min_halley_start_properties(A, B, Cn, D, E, S, lo, hi, frac,
                                          max_iter):
    # for a random convex phi, the search given the third derivative at x0
    # stays in [lo, hi] and keeps the evaluation budget, as the search
    # without it does; given the full budget, the two return minimizers
    # within tol of each other
    seg, third = _exp_convex(A, B, Cn, D, E, S)
    x0 = min(max(lo + frac * (hi - lo), lo), hi)
    d, h = seg(x0, True)
    tol = 1e-12
    found = {}
    for t in (None, third(x0)):
        for budget in (max_iter, 200):
            calls = []

            def counted(a, curv):
                calls.append(a)
                return seg(a, curv)
            alpha = _kernels.line_min(counted, lo, hi, x0, d, h, tol,
                                      budget, t)
            assert lo <= alpha <= hi
            assert all(lo <= a <= hi for a in calls)
            # the evaluation at x0 that gave d and h, then the calls
            assert 1 + len(calls) <= budget + 2
            found[t is None, budget] = alpha
    assert abs(found[True, 200] - found[False, 200]) <= tol


def test_line_search_first_order_optimality():
    rng = np.random.default_rng(7)
    obj = random_logistic(seed=8)
    poly = obj.poly
    obj.reset(poly.project(rng.standard_normal(poly.d)))
    h = 1e-7
    for i in range(poly.M):
        alpha = obj.line_search(i, 0.0, 1.0)
        x0 = obj.x.copy()
        v = poly.vertex(i)
        g = lambda a: obj.eval_at(x0 + a * (v - x0))
        slope = (g(min(alpha + h, 1.0)) - g(max(alpha - h, 0.0))) / (2 * h)
        if 1e-6 < alpha < 1 - 1e-6:
            assert abs(slope) <= 1e-5 * max(1.0, abs(g(alpha)))
        elif alpha <= 1e-6:
            assert slope >= -1e-5
        else:
            assert slope <= 1e-5


def test_descent_per_line_search_step():
    rng = np.random.default_rng(9)
    for obj in (random_logistic(seed=11), random_kde(seed=12)):
        poly = obj.poly
        obj.reset(poly.project(rng.standard_normal(poly.d)))
        f = obj.eval()
        for i in range(poly.M):
            alpha = obj.line_search(i, 0.0, 1.0)
            obj.apply_step(i, alpha)
            f_new = obj.eval()
            assert f_new <= f + 1e-12 * max(1.0, abs(f))
            f = f_new


# -- one-dimensional gradient rule ------------------------------------------


def test_grad_step_alpha_examples():
    assert grad_step_alpha(-2.0, 2.0, 2.0, 0.0, 1.0) == pytest.approx(0.5)
    assert grad_step_alpha(3.0, 1.0, 1.0, 0.0, 1.0) == 0.0
    assert grad_step_alpha(-10.0, 1.0, 1.0, 0.0, 1.0) == 1.0


def test_grad_step_alpha_degenerate_segment():
    assert grad_step_alpha(0.5, 0.0, 1.0, -2.0, 1.0) == -2.0
    assert grad_step_alpha(-0.5, 0.0, 1.0, -2.0, 1.0) == 1.0


def test_grad_step_alpha_random_clamp_property():
    rng = np.random.default_rng(13)
    for _ in range(300):
        b = float(rng.standard_normal() * 5)
        c = float(abs(rng.standard_normal()) + 1e-3)
        L = float(abs(rng.standard_normal()) + 1e-3)
        lo = float(-abs(rng.standard_normal()))
        alpha = grad_step_alpha(b, c, L, lo, 1.0)
        assert lo <= alpha <= 1.0
        unc = -b / (L * c)
        assert alpha == pytest.approx(min(max(unc, lo), 1.0))


def test_grad_rule_one_step_inequality():
    # <grad f(x_old), x_new - x_old> <= -L ||x_new - x_old||^2
    rng = np.random.default_rng(14)
    obj = random_logistic(seed=15)
    poly = obj.poly
    L = obj.L
    obj.reset(poly.project(rng.standard_normal(poly.d)))
    for i in range(poly.M):
        q = obj.segment_query(i)
        alpha = grad_step_alpha(q.b, q.c, L, 0.0, 1.0)
        g_old = obj.full_gradient()
        x_old = obj.x.copy()
        obj.apply_step(i, alpha)
        step = obj.x - x_old
        lhs = float(g_old @ step)
        rhs = -L * float(step @ step)
        assert lhs <= rhs + 1e-10 * max(1.0, abs(lhs))


def test_grad_rule_descent():
    rng = np.random.default_rng(16)
    for obj in (random_logistic(seed=17), random_kde(seed=18)):
        poly = obj.poly
        L = obj.L
        obj.reset(poly.project(rng.standard_normal(poly.d)))
        f = obj.eval()
        for i in range(poly.M):
            q = obj.segment_query(i)
            obj.apply_step(i, grad_step_alpha(q.b, q.c, L, 0.0, 1.0))
            f_new = obj.eval()
            assert f_new <= f + 1e-12 * max(1.0, abs(f))
            f = f_new


# -- full gradient ----------------------------------------------------------


def test_full_gradient_identity_quadratic():
    obj = LeastSquares(np.eye(3), np.zeros(3), StandardSimplex(3),
                       x0=np.array([0.2, 0.3, 0.5]))
    assert np.allclose(obj.full_gradient(), 2 * obj.x)


def test_full_gradient_zero_matrix_logistic():
    obj = Logistic(np.zeros((4, 3)), [1.0, -1.0, 1.0, -1.0], StandardSimplex(3))
    assert np.allclose(obj.full_gradient(), 0.0)


@pytest.mark.parametrize("family,tol", [("ls", 1e-4), ("logistic", 1e-4),
                                        ("kde", 1e-3)])
def test_gradient_matches_finite_differences(family, tol):
    rng = np.random.default_rng(19)
    for rep in range(5):
        if family == "ls":
            obj = LeastSquares(rng.standard_normal((30, 10)),
                               rng.standard_normal(30), L1Ball(10, 2.0))
        elif family == "logistic":
            obj = random_logistic(seed=20 + rep)
        else:
            obj = random_kde(n=25, seed=21 + rep)
        x = obj.poly.project(rng.standard_normal(obj.poly.d))
        g = obj.grad_at(x)
        fd = finite_diff_gradient(obj, x, h=1e-5)
        err = np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(g))
        assert err <= tol


# -- smoothness estimates ----------------------------------------------------


def test_estimate_smoothness_identity():
    obj = LeastSquares(np.eye(5), np.zeros(5), StandardSimplex(5))
    assert obj.L == pytest.approx(2.02, rel=1e-6)


def test_estimate_smoothness_zero_matrix_floor():
    obj = LeastSquares(np.zeros((4, 3)), np.zeros(4), StandardSimplex(3))
    assert obj.L == pytest.approx(1e-12)


@pytest.mark.parametrize("L", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("make", [
    lambda L: LeastSquares(np.eye(3), np.zeros(3), StandardSimplex(3), L=L),
    lambda L: Logistic(np.eye(3), np.ones(3), L1Ball(3, 1.0), L=L),
    lambda L: KdeHuber(np.eye(3), 1.0, 0.4, L=L),
], ids=["lasso", "logistic", "kde"])
def test_smoothness_override_must_be_finite_and_positive(make, L):
    # L = 0 divided by zero partway through a pass, L < 0 and L = inf froze
    # the run at its start, and L = nan collapsed polycdwa's weights
    with pytest.raises(ValueError, match="L must be finite and positive"):
        make(L)


def test_estimate_smoothness_upper_bounds_dense_eig():
    rng = np.random.default_rng(22)
    A = rng.standard_normal((50, 20))
    lam_max = float(np.linalg.eigvalsh(A.T @ A).max())
    ls = LeastSquares(A, rng.standard_normal(50), L1Ball(20, 1.0))
    assert ls.L >= 2.0 * lam_max
    lg = Logistic(A, np.where(rng.random(50) < 0.5, 1.0, -1.0), L1Ball(20, 1.0))
    assert lg.L >= 0.25 * lam_max


def test_kde_smoothness_bounds_operator():
    obj = random_kde(n=40, seed=23)
    K = np.array([obj.kernel_column(j) for j in range(40)])
    lam_max = float(np.linalg.eigvalsh(K).max())
    assert obj.L >= 40 * lam_max  # sum of n huber terms, each K-smooth


# -- kde cache vs direct dense evaluation ------------------------------------


def test_kde_cache_matches_dense_direct_evaluation():
    rng = np.random.default_rng(24)
    pts = rng.standard_normal((120, 2)) * 3.0
    obj = KdeHuber(pts, 1.0, 0.4)
    dense = DenseKdeHuber(pts, 1.0, 0.4)
    w = obj.poly.project(rng.random(120))
    obj.reset(w)
    for _ in range(40):
        i = int(rng.integers(120))
        a = float(rng.random() * 0.3)
        obj.apply_step(i, a)
    f_cached = obj.eval()
    f_direct = dense.eval_at(obj.x)
    assert f_cached == pytest.approx(f_direct, rel=1e-9)
    # never materializes K: the production object has no dense attribute
    assert not hasattr(obj, "_K")


def test_kde_matvec_matches_dense_product():
    rng = np.random.default_rng(27)
    # 300 points: two full row blocks and a partial one
    pts = rng.standard_normal((300, 2)) * 2.0
    pts[7] = pts[250]
    obj = KdeHuber(pts, 0.8, 0.4)
    dense = DenseKdeHuber(pts, 0.8, 0.4)
    for v in (rng.random(300), rng.standard_normal(300), np.eye(300)[250]):
        # relative to the product without cancellation, |K| |v|
        scale = np.max(dense._K @ np.abs(v))
        assert np.max(np.abs(obj.matvec(v) - dense._K @ v)) <= 1e-14 * scale


@pytest.mark.parametrize("n", [1, 127, 128, 129, 300])
def test_kde_matvec_builds_each_block_once(monkeypatch, n):
    # K is symmetric: the block of rows [lo, hi) is built only on and right
    # of column lo, and serves rows lo:hi and, transposed, rows hi:
    rng = np.random.default_rng(28)
    pts = rng.standard_normal((n, 2)) * 2.0
    pts[n // 2] = pts[-1]
    obj = KdeHuber(pts, 0.8, 0.4)
    dense = DenseKdeHuber(pts, 0.8, 0.4)
    built = []
    kde_columns = _kernels.kde_columns

    def counted(*args, **kw):
        B = kde_columns(*args, **kw)
        built.append(B.size)
        return B
    monkeypatch.setattr(_kernels, "kde_columns", counted)
    block = objectives.KDE_MATVEC_BLOCK
    want = sum((min(lo + block, n) - lo) * (n - lo)
               for lo in range(0, n, block))
    for v in (rng.random(n), rng.standard_normal(n), np.eye(n)[n - 1]):
        built.clear()
        got = obj.matvec(v)
        assert sum(built) == want
        scale = np.max(dense._K @ np.abs(v))
        assert np.max(np.abs(got - dense._K @ v)) <= 1e-14 * scale


def test_kde_tsq_nonnegative_invariant():
    obj = random_kde(n=50, seed=25)
    rng = np.random.default_rng(26)
    obj.reset(obj.poly.project(rng.random(50)))
    for _ in range(200):
        obj.apply_step(int(rng.integers(50)), float(rng.random()))
        tsq_raw = obj.q - 2.0 * obj.u + obj.kappa0
        assert tsq_raw.min() >= -1e-12


# -- the logistic margins cache ----------------------------------------------


def _check_logistic_cache(obj, what, sig=_kernels.sigmoid_neg):
    # full_gradient and every segment slope, bit for bit their formulas on
    # the current z
    g = -obj.labels * sig(obj.labels * obj.z)
    assert obj.full_gradient().tobytes() == (obj.A_cols @ g).tobytes(), what
    poly = obj.poly
    for i in range(poly.M):
        w = (float(poly.vertex_scales[i]) * obj.A_cols[poly.vertex_coords[i]]
             - obj.z)
        assert obj.segment_query(i).b == float(g @ w), (what, i)


def test_logistic_margins_cache_follows_every_change_of_z(monkeypatch):
    # feature 2 separates the labels with a margin, so from x0 the line
    # search toward C e_2 (vertex 4) ends with its end test at alpha = 1,
    # where the margins y (z + 1 w) that it evaluated give another gradient
    # than those of the vertex, y (C A e_2)
    rng = np.random.default_rng(41)
    A = rng.standard_normal((30, 6))
    labels = np.where(rng.random(30) < 0.5, 1.0, -1.0)
    A[:, 2] = labels * (2.0 + np.abs(rng.standard_normal(30)))
    x0 = np.random.default_rng(0).standard_normal(6)
    x0 *= 5.0 / np.abs(x0).sum()
    obj = Logistic(A, labels, L1Ball(6, 20.0), x0=x0)
    ym, yv = labels * obj.z, labels * (20.0 * A[:, 2])
    assert not np.array_equal(
        A.T @ _kernels.sigmoid_neg(ym + 1.0 * (yv - ym)),
        A.T @ _kernels.sigmoid_neg(yv))
    calls = []
    sigmoid = _kernels.sigmoid_neg
    monkeypatch.setattr(_kernels, "sigmoid_neg",
                        lambda m: calls.append(1) or sigmoid(m))

    def adopted(act):
        # act moves z by the step its search evaluated last, so the next
        # reads compute no sigmoid
        act()
        calls.clear()
        obj.full_gradient()
        obj.segment_query(0)
        return not calls

    _check_logistic_cache(obj, "fresh")
    assert obj.line_search(4, 0.0, 1.0) == 1.0
    obj.apply_step(4, 1.0)
    _check_logistic_cache(obj, "full step")
    obj.full_gradient()
    obj.reset(obj.poly.project(rng.standard_normal(6)))
    _check_logistic_cache(obj, "reset to a new point")
    alpha = obj.line_search(0, 0.0, 1.0)
    assert 0.0 < alpha < 1.0
    assert adopted(lambda: obj.apply_step(0, alpha))
    _check_logistic_cache(obj, "search, then its step")
    alpha = obj.line_search(1, 0.0, 1.0)
    assert alpha != 0.0
    obj.apply_step(1, 0.5 * alpha)
    _check_logistic_cache(obj, "search, then another step")
    # the first pair whose search ends inside its interval; on the ball a
    # pair move need not stay feasible, which the caches do not rely on
    for i, j in itertools.permutations(range(6), 2):
        theta = obj.pair_line_search(i, j, -1.0, 1.0)
        if -1.0 < theta < 1.0:
            break
    assert adopted(lambda: obj.apply_pair_step(i, j, theta))
    _check_logistic_cache(obj, "pair search, then its step")
    # a step other than the one the search returns
    assert obj.pair_line_search(i, j, -1.0, 1.0) != 0.25
    obj.apply_pair_step(i, j, 0.25)
    _check_logistic_cache(obj, "pair search, then another step")
    # the next step ends the pass at which the schedule's first interval
    # runs out, and so rebuilds the caches, after taking the search's rows;
    # zero steps, which only count, bring it to that pass end
    while obj._steps + 1 < obj._interval * obj.poly.M:
        obj.apply_step(0, 0.0)
    alpha = obj.line_search(2, 0.0, 1.0)
    assert alpha != 0.0
    obj.apply_step(2, alpha)
    assert obj._steps == 0
    _check_logistic_cache(obj, "refresh")
    obj.full_gradient()
    obj.run_cycle(_kernels.kernel(obj.kernel_name()),
                  np.arange(obj.poly.M), np.empty(0), False, False, 1e12,
                  _kernels.DROP_TOL, _kernels.LS_TOL, _kernels.LS_MAX_ITER)
    _check_logistic_cache(obj, "run_cycle")


# -- pair moves (two-coordinate machinery) -----------------------------------


@pytest.mark.parametrize("family", ["ls", "logistic", "kde", "quad"])
def test_pair_step_matches_fresh_recompute(family):
    rng = np.random.default_rng(27)
    d = 8
    simp = StandardSimplex(d)
    if family == "ls":
        obj = LeastSquares(rng.standard_normal((20, d)), rng.standard_normal(20), simp)
    elif family == "logistic":
        obj = Logistic(rng.standard_normal((20, d)),
                       np.where(rng.random(20) < 0.5, 1.0, -1.0), simp)
    elif family == "kde":
        obj = KdeHuber(rng.standard_normal((d, 2)), 1.0, 0.4)
    else:
        B = rng.standard_normal((d, d))
        obj = Quadratic(B.T @ B, rng.standard_normal(d), poly=simp)
    poly = obj.poly
    obj.reset(np.full(poly.d, 1.0 / poly.d))
    for _ in range(30):
        i, j = rng.choice(poly.d, size=2, replace=False)
        lo, hi = -obj.x[i], obj.x[j]
        theta = obj.pair_line_search(int(i), int(j), lo, hi)
        assert lo - 1e-12 <= theta <= hi + 1e-12
        x_expect = obj.x.copy()
        x_expect[i] += theta
        x_expect[j] -= theta
        f_before = obj.eval()
        obj.apply_pair_step(int(i), int(j), theta)
        assert np.allclose(obj.x, x_expect, atol=1e-12)
        assert obj.eval() == pytest.approx(obj.eval_at(obj.x), rel=1e-9)
        assert obj.eval() <= f_before + 1e-10 * max(1.0, abs(f_before))
