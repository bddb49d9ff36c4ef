import time

import numpy as np
import pytest

from polycd import (KdeHuber, L1Ball, LeastSquares, Logistic, Quadratic,
                    StandardSimplex)
from polycd.baselines import (BaselineConfig, afw_solve, fista_solve,
                              fw_solve, pair_stream, twocd_solve)

from oracles import reference_solve


def strongly_convex_quadratic(M, seed, mu=0.5):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((M + 3, M))
    Q = B.T @ B / M + mu * np.eye(M)
    return Quadratic(Q, rng.standard_normal(M), poly=StandardSimplex(M))


def test_fw_first_vertex_choice_tie_break():
    # f = ||x||^2 from e_0: gradient 2 e_0, scores (2, 0, 0, ...);
    # the argmin tie resolves to the lowest index, vertex 1
    d = 4
    obj = LeastSquares(np.eye(d), np.zeros(d), StandardSimplex(d))
    picked = []
    orig = obj.line_search

    def spy(i, lo, hi, **kw):
        picked.append(i)
        return orig(i, lo, hi, **kw)

    obj.line_search = spy
    fw_solve(obj, None, BaselineConfig(max_iter=1))
    assert picked[0] == 1


def test_fw_linear_objective_one_iteration():
    rng = np.random.default_rng(0)
    poly = StandardSimplex(5)
    qlin = rng.standard_normal(5)
    obj = Quadratic(np.zeros((5, 5)), qlin, poly=poly)
    x, trace = fw_solve(obj, None, BaselineConfig(max_iter=50))
    assert np.array_equal(x, poly.vertex(int(np.argmin(qlin))))
    # one real move, then the gap certificate stops the loop
    assert trace[-1].t <= 2


def test_fw_classical_sublinear_envelope():
    quad = strongly_convex_quadratic(5, 1, mu=0.0)
    ref = reference_solve(quad, tol=1e-13, max_iter=200_000)
    quad.reset()
    x, trace = fw_solve(quad, None, BaselineConfig(max_iter=400, window=None))
    L, D = quad.L, quad.poly.diameter()
    for rec in trace:
        if rec.t >= 1:
            gap = rec.f_value - ref.f
            assert gap <= 2.0 * L * D * D / (rec.t + 2) * (1 + 1e-9) + 1e-12


def test_afw_terminates_at_vertex_optimum():
    # objective minimized exactly at the start vertex
    d = 4
    target = np.zeros(d)
    target[0] = 1.0
    obj = LeastSquares(np.eye(d), target, StandardSimplex(d))
    x, trace = afw_solve(obj, None, BaselineConfig(max_iter=100))
    assert np.allclose(x, target)
    assert trace[-1].t == 0  # stopped before any step


def test_afw_linear_convergence_on_strongly_convex():
    quad = strongly_convex_quadratic(8, 2, mu=0.05)
    ref = reference_solve(quad, tol=1e-13, max_iter=300_000)
    quad.reset()
    x, trace = afw_solve(quad, None, BaselineConfig(max_iter=400, window=None,
                                                    fw_gap_tol=1e-14))
    gaps = [max(r.f_value - ref.f, 1e-18) for r in trace]
    assert gaps[-1] <= 1e-9 * max(abs(ref.f), 1.0)
    # geometric decay over a 20-iteration window once past the burn-in
    # (vacuous when the line search lands on the optimum immediately)
    if len(gaps) > 30:
        k = min(10, len(gaps) - 21)
        assert gaps[k + 20] < gaps[k] * 0.9


def test_afw_feasible_and_monotone():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((30, 8))
    b = rng.standard_normal(30)
    ball = L1Ball(8, 1.0)
    obj = LeastSquares(A, b, ball)
    x, trace = afw_solve(obj, ball, BaselineConfig(max_iter=150))
    assert ball.contains(x, tol=1e-10)
    f = [r.f_value for r in trace]
    assert all(f[k + 1] <= f[k] + 1e-12 * max(1, abs(f[k])) for k in range(len(f) - 1))


def test_afw_capped_away_step_is_not_a_drop():
    # with gamma_cap = 0.05 the cap binds on away steps: such a step leaves
    # lam_i (1 + cap) - cap > 0, and writing it as a drop (lam_i = 0) would
    # break the weights' reconstruction of x, which weight_refresh rejects
    rng = np.random.default_rng(3)
    B = rng.standard_normal((6, 4))
    q = rng.standard_normal(4)
    obj = Quadratic(B.T @ B, 3 * q, poly=StandardSimplex(4))
    x, trace = afw_solve(obj, None, BaselineConfig(max_iter=200, window=None),
                         gamma_cap=0.05)
    assert obj.poly.contains(x, tol=1e-10)
    f = [r.f_value for r in trace]
    assert all(f[k + 1] <= f[k] + 1e-12 * max(1, abs(f[k]))
               for k in range(len(f) - 1))


@pytest.mark.parametrize("cap", [-1.0, 0.0, np.nan])
def test_afw_rejects_nonpositive_gamma_cap(cap):
    # -1 failed at the first away step with an empty step interval, and a
    # NaN cap ran as no cap at all
    start = np.full(3, 1.0 / 3.0)
    obj = LeastSquares(np.eye(3), np.zeros(3), StandardSimplex(3), x0=start)
    with pytest.raises(ValueError, match="gamma_cap"):
        afw_solve(obj, None, BaselineConfig(max_iter=10), gamma_cap=cap)
    assert np.array_equal(obj.x, start)  # rejected before the start reset


def test_fista_reaches_reference_on_small_lasso():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((40, 15))
    b = rng.standard_normal(40)
    ball = L1Ball(15, 1.0)
    obj = LeastSquares(A, b, ball)
    ref = reference_solve(obj, tol=1e-13, max_iter=400_000)
    x, trace = fista_solve(obj, ball, BaselineConfig(max_iter=5000,
                                                     window=200,
                                                     window_tol=1e-14))
    f_best = min(r.f_value for r in trace)
    assert (f_best - ref.f) / max(abs(ref.f), 1.0) <= 1e-8
    assert ball.contains(x, tol=1e-9)


def test_fista_iterates_feasible():
    rng = np.random.default_rng(5)
    obj = LeastSquares(rng.standard_normal((20, 6)), rng.standard_normal(20),
                       StandardSimplex(6))
    x, trace = fista_solve(obj, None, BaselineConfig(max_iter=200))
    assert x.min() >= -1e-12 and abs(x.sum() - 1) <= 1e-10


def test_twocd_hand_example():
    # ||u||^2 on the 2-simplex from (1, 0): swapping along e_0 - e_1 over
    # theta in [-1, 0] has its optimum at -1/2
    obj = LeastSquares(np.eye(2), np.zeros(2), StandardSimplex(2),
                       x0=np.array([1.0, 0.0]))
    theta = obj.pair_line_search(0, 1, -1.0, 0.0)
    assert theta == pytest.approx(-0.5, rel=1e-12)
    obj.apply_pair_step(0, 1, theta)
    assert np.allclose(obj.x, [0.5, 0.5])


def test_twocd_empty_interval_noop():
    obj = LeastSquares(np.eye(3), np.ones(3), StandardSimplex(3),
                       x0=np.array([1.0, 0.0, 0.0]))
    # pair (1, 2): both coordinates zero, theta interval is the point {0}
    theta = obj.pair_line_search(1, 2, -0.0, 0.0)
    assert theta == 0.0


def test_twocd_seeded_bitwise_reproducible():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((25, 10))
    b = rng.standard_normal(25)
    runs = []
    for _ in range(2):
        obj = LeastSquares(A, b, StandardSimplex(10))
        x, trace = twocd_solve(obj, None, BaselineConfig(max_iter=500,
                                                         rng_seed=42,
                                                         record_every=50))
        runs.append((x.copy(), [r.f_value for r in trace]))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]


def test_twocd_pair_draws_match_scalar_stream():
    # the 2cd iterates depend on the pair stream: a block of draws must equal
    # the scalar calls rng.integers(d), rng.integers(d - 1) per iteration
    d, m = 37, 10_000  # crosses two block boundaries of the stream
    stream = pair_stream(np.random.default_rng(5), d)
    blocked = [next(stream) for _ in range(m)]
    rng = np.random.default_rng(5)
    pairs = []
    for _ in range(m):
        i = int(rng.integers(d))
        j = int(rng.integers(d - 1))
        pairs.append((i, j + 1 if j >= i else j))
    assert blocked == pairs


def test_twocd_requires_simplex():
    obj = LeastSquares(np.eye(2), np.zeros(2), L1Ball(2, 1.0))
    with pytest.raises(ValueError):
        twocd_solve(obj, None, BaselineConfig(max_iter=10))


def test_twocd_one_coordinate_simplex_returns_start():
    # no coordinate pair exists, and e_1 is the only feasible point
    simp = StandardSimplex(1)
    obj = LeastSquares(np.array([[2.0]]), np.array([1.0]), simp)
    x, trace = twocd_solve(obj, simp, BaselineConfig(max_iter=10))
    assert np.array_equal(x, [1.0])
    assert len(trace) == 1
    assert trace[0].t == 0 and trace[0].f_value == pytest.approx(1.0)


def test_twocd_descends_and_stays_feasible():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((30, 12))
    b = rng.standard_normal(30)
    simp = StandardSimplex(12)
    obj = LeastSquares(A, b, simp)
    x, trace = twocd_solve(obj, simp, BaselineConfig(max_iter=1200,
                                                     rng_seed=1,
                                                     record_every=100))
    assert simp.contains(x, tol=1e-10)
    f = [r.f_value for r in trace]
    assert all(f[k + 1] <= f[k] + 1e-12 * max(1, abs(f[k]))
               for k in range(len(f) - 1))


def test_kde_baselines_build_each_column_once(monkeypatch):
    # a line search and the step it chooses share their kernel columns:
    # one column per FW or AFW iteration, at most two per 2cd pair search.
    # From the default weights 1/n AFW may revisit a vertex whose column
    # is still cached, so the runs start at vertex 0.
    pts = np.random.default_rng(9).standard_normal((30, 2)) * 2.0
    built, searches = [], []
    column, pair_search = KdeHuber.kernel_column, KdeHuber.pair_line_search
    monkeypatch.setattr(KdeHuber, "start_weights",
                        lambda self: self.poly.vertex_weights(0))
    monkeypatch.setattr(KdeHuber, "kernel_column",
                        lambda self, j: built.append(j) or column(self, j))
    monkeypatch.setattr(KdeHuber, "pair_line_search",
                        lambda self, *a: searches.append(a)
                        or pair_search(self, *a))
    for solve in (fw_solve, afw_solve, twocd_solve):
        built.clear()
        searches.clear()
        obj = KdeHuber(pts, 1.0, 0.4, L=1.0)
        trace = solve(obj, obj.poly, BaselineConfig(max_iter=40,
                                                    window=None))[-1]
        if solve is twocd_solve:
            assert 0 < len(built) <= 2 * len(searches)
        else:
            assert len(built) == trace[-1].t == 40, solve.__name__


def test_logistic_baselines_smoke():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((40, 8))
    labels = np.where(rng.random(40) < 0.5, 1.0, -1.0)
    ball = L1Ball(8, 1.0)
    ref = reference_solve(Logistic(A, labels, ball), tol=1e-12,
                          max_iter=200_000)
    fs = {}
    fs["afw"] = min(r.f_value for r in afw_solve(
        Logistic(A, labels, ball), ball, BaselineConfig(max_iter=2000,
                                                        window=200,
                                                        window_tol=1e-13))[1])
    fs["fista"] = min(r.f_value for r in fista_solve(
        Logistic(A, labels, ball), ball, BaselineConfig(max_iter=3000,
                                                        window=200,
                                                        window_tol=1e-13))[1])
    for name, f in fs.items():
        assert (f - ref.f) / max(abs(ref.f), 1.0) <= 1e-6, name


def test_stagnation_window_rule():
    # a method that stops moving triggers the window rule
    obj = LeastSquares(np.eye(3), np.zeros(3), StandardSimplex(3))
    x, trace = fw_solve(obj, None, BaselineConfig(max_iter=10_000, window=50,
                                                  window_tol=1e-8))
    assert trace[-1].t < 10_000


@pytest.mark.parametrize("field, value", [("record_every", 0),
                                          ("record_every", -3),
                                          ("window", 0), ("window", -1)])
def test_config_rejects_bad_record_every_and_window(field, value):
    # record_every=0 divided by zero at FW's first iteration, and window=0
    # stopped FW after one iteration
    with pytest.raises(ValueError, match=field):
        BaselineConfig(**{field: value})


@pytest.mark.parametrize("field, value", [("max_iter", 2.5), ("window", 2.5),
                                          ("record_every", 2.5),
                                          ("rng_seed", 0.5), ("rng_seed", -1)])
def test_config_rejects_non_integer_counts(field, value):
    # max_iter=2.5 and window=2.5 raised TypeError inside the run,
    # record_every=2.5 recorded every 5th iteration, and rng_seed=-1 failed
    # only in 2cd's run, with numpy's ValueError
    with pytest.raises(ValueError, match=field):
        BaselineConfig(**{field: value})
    BaselineConfig(**{field: np.int64(3)})


@pytest.mark.parametrize("field", ["window_tol", "time_budget",
                                   "fw_gap_tol"])
def test_config_rejects_a_nan_stop_setting(field):
    # a NaN window_tol, time_budget or fw_gap_tol silently switched its stop
    # rule off: FW ran all of max_iter
    with pytest.raises(ValueError, match=field):
        BaselineConfig(**{field: np.nan})


def test_time_budget_cap():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((60, 40))
    b = rng.standard_normal(60)
    obj = LeastSquares(A, b, L1Ball(40, 1.0))
    x, trace = fw_solve(obj, None, BaselineConfig(max_iter=10**7, window=None,
                                                  time_budget=0.3))
    assert trace[-1].elapsed <= 2.0


@pytest.mark.parametrize("solve", [fw_solve, afw_solve, fista_solve,
                                   twocd_solve])
def test_record_and_stop_protocol(solve):
    rng = np.random.default_rng(10)
    A = rng.standard_normal((40, 12))
    b = rng.standard_normal(40)
    simp = StandardSimplex(12)

    def run(**kw):
        # fw_gap_tol=-inf: FW and AFW must not end on a small gap here
        obj = LeastSquares(A, b, simp)
        evals = []
        orig = obj.eval
        obj.eval = lambda: evals.append(1) or orig()
        _, trace = solve(obj, simp, BaselineConfig(fw_gap_tol=-np.inf, **kw))
        return [r.t for r in trace], len(evals)

    # record 0, every record_every-th iteration and the last
    ts, evals = run(max_iter=400, window=None, record_every=7)
    assert ts == [0, *range(7, 400, 7), 400]
    if solve is not fista_solve:  # FISTA reads f every step for its best x
        assert evals == len(ts)   # f is read only for the records
    # a window stop at iteration 5 is recorded once, due there or not;
    # 2cd applies no window
    for every in (5, 7):
        ts, _ = run(max_iter=30, window=5, window_tol=np.inf,
                    record_every=every)
        if solve is twocd_solve:
            assert ts[-1] == 30
        else:
            assert ts == [0, 5]
    # the time budget ends a run
    t0 = time.perf_counter()
    ts, _ = run(max_iter=10**8, window=None, record_every=10**8,
                time_budget=0.05)
    assert time.perf_counter() - t0 < 5.0 and ts[-1] < 10**8
