import dataclasses
import itertools

import numpy as np
import pytest

from polycd import (GRAD_1D, LINE_SEARCH, ConsistencyError, ExplicitVertices,
                    KdeHuber, L1Ball, LeastSquares, Logistic, PolytopeError, Quadratic,
                    SolveConfig,
                    StandardSimplex, AwayState, polycd_solve,
                    polycdwa_solve, start_weights, weight_refresh)
from polycd import _kernels
from polycd.baselines import (BaselineConfig, afw_solve, fista_solve,
                              fw_solve, twocd_solve)
from polycd.objectives import (DRIFT_TOL, DRIFT_WARN, REBUILD_CAP,
                               REFRESH_EVERY, CacheConsistencyError)
from polycd.problems import LogisticSpec, gen_logistic

from oracles import check_linear_bound, check_sublinear_bound, reference_solve
from quadratics import random_quadratic


def motivating_objective():
    ball = L1Ball(2, 1.0)
    return LeastSquares(np.eye(2), np.array([2.0, 2.0]), ball), ball


def test_motivating_problem_converges():
    obj, ball = motivating_objective()
    # vertex 2 of the ball is (0, 1)
    cfg = SolveConfig(step_rule=LINE_SEARCH, max_outer=60, rel_improve_tol=0.0,
                      lam0=ball.vertex_weights(2))
    x, trace = polycd_solve(obj, ball, cfg)
    # optimum of (x1-2)^2 + (x2-2)^2 on the unit l1 ball sits at (1/2, 1/2)
    assert np.allclose(x, [0.5, 0.5], atol=1e-6)
    assert (trace[-1].f_value - 4.5) / max(4.5, 1.0) < 1e-8


def test_uniform_optimum_on_simplex():
    d = 6
    obj = LeastSquares(np.eye(d), np.zeros(d), StandardSimplex(d))
    x, trace = polycd_solve(obj, None, SolveConfig(max_outer=200,
                                                   rel_improve_tol=0.0))
    assert np.allclose(x, np.full(d, 1.0 / d), atol=1e-8)
    assert trace[-1].f_value == pytest.approx(1.0 / d, rel=1e-10)


def test_trace_semantics():
    obj, ball = motivating_objective()
    cfg = SolveConfig(max_outer=10, rel_improve_tol=0.0)
    x, trace = polycd_solve(obj, ball, cfg)
    assert [r.t for r in trace] == list(range(11))
    assert trace[0].inner_steps == 0
    assert trace[-1].inner_steps == 10 * ball.M
    assert all(trace[k + 1].elapsed >= trace[k].elapsed for k in range(10))


def test_early_stop_on_relative_improvement():
    obj, ball = motivating_objective()
    x, trace = polycd_solve(obj, ball, SolveConfig(max_outer=500,
                                                   rel_improve_tol=1e-8))
    assert trace[-1].t < 500


def test_bad_start_is_rejected_before_any_pass():
    obj, ball = motivating_objective()
    # a NaN start failed after a pass with a ConsistencyError
    with pytest.raises(ValueError, match="lam0"):
        polycdwa_solve(obj, ball,
                       SolveConfig(lam0=np.array([np.nan, 0.0, 0.0, 1.0])))
    # the weights of an out-of-range start vertex name it
    with pytest.raises(PolytopeError, match="out of range"):
        ball.vertex_weights(ball.M)


def test_lam0_is_the_one_start_and_the_step_constants_are_not_settings():
    # polycdwa_solve ignored x0, and polycd_solve ignored lam0 given x0
    for name in ("x0", "gamma_cap", "drop_tol", "ls_tol", "ls_max_iter"):
        with pytest.raises(TypeError, match=name):
            SolveConfig(**{name: 1.0})
    obj, ball = motivating_objective()
    with pytest.raises(TypeError, match="gamma_cap"):
        afw_solve(obj, ball, BaselineConfig(max_iter=1), gamma_cap=0.05)
    lam0 = np.array([0.125, 0.0, 0.5, 0.375])
    f0 = obj.eval_at(ball.combination(lam0))
    for solve in (polycd_solve, polycdwa_solve):
        trace = solve(obj, ball, SolveConfig(max_outer=1, lam0=lam0))[-1]
        assert trace[0].f_value == f0, solve.__name__
    # what perfbench's tracing._direct_passes hands to run_cycle
    cfg = SolveConfig()
    assert (cfg.gamma_cap, cfg.drop_tol, cfg.ls_tol, cfg.ls_max_iter) == (
        _kernels.GAMMA_CAP, _kernels.DROP_TOL, _kernels.LS_TOL,
        _kernels.LS_MAX_ITER)


def test_dimension_mismatch_rejected():
    obj, _ = motivating_objective()
    with pytest.raises(ValueError):
        polycd_solve(obj, L1Ball(3, 1.0), SolveConfig())


@pytest.mark.parametrize("order", [np.arange(4) + 0.9, [0.0, 1.0, 2.0, 2.5],
                                   [0, 1, 2, np.nan]])
def test_visit_order_rejects_entries_that_are_not_integers(order):
    # arange(4) + 0.9 ran as arange(4): the int64 cast truncated it
    obj, ball = motivating_objective()
    with pytest.raises(ValueError, match="visit_order"):
        polycd_solve(obj, ball, SolveConfig(visit_order=order))


@pytest.mark.parametrize("rule", [LINE_SEARCH, GRAD_1D])
def test_permuted_order_on_the_lasso_kernel_path(monkeypatch, rule):
    # a permuted visit order makes ls_cycle gather its blocks (block_plan);
    # the kernel path must still follow the per-step path
    rng = np.random.default_rng(11)
    A = rng.standard_normal((50, 30))
    b = rng.standard_normal(50)
    ball = L1Ball(30, 1.5)
    order = rng.permutation(ball.M)
    views = []
    block_plan = _kernels.block_plan

    def spy(*args):
        plan = block_plan(*args)
        views.extend(isinstance(rows, slice) for rows, *_ in plan)
        return plan

    monkeypatch.setattr(_kernels, "block_plan", spy)
    kern, step = _kernel_and_per_step(
        lambda: LeastSquares(A, b, ball), polycdwa_solve,
        SolveConfig(step_rule=rule, max_outer=10, rel_improve_tol=0.0,
                    visit_order=order))
    assert views and not any(views)
    scale = np.maximum(np.abs(_f_trace(step)), 1.0)
    assert np.max(np.abs(_f_trace(kern) - _f_trace(step)) / scale) <= 1e-12
    assert np.max(np.abs(kern[0] - step[0])) <= 1e-9
    assert np.max(np.abs(kern[1].lam - step[1].lam)) <= 1e-9


def test_visit_order_validation_and_permutation():
    obj, ball = motivating_objective()
    perm = np.array([2, 0, 3, 1])
    x, trace = polycd_solve(obj, ball, SolveConfig(max_outer=50,
                                                   visit_order=perm,
                                                   rel_improve_tol=0.0))
    assert np.allclose(x, [0.5, 0.5], atol=1e-6)
    with pytest.raises(ValueError):
        polycd_solve(obj, ball, SolveConfig(visit_order=np.array([0, 0, 1, 2])))


def test_determinism_bitwise():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((40, 12))
    b = rng.standard_normal(40)
    ball = L1Ball(12, 2.0)
    runs = []
    for _ in range(2):
        obj = LeastSquares(A, b, ball)
        _, _, tr = polycdwa_solve(obj, ball, SolveConfig(max_outer=25,
                                                         rel_improve_tol=0.0))
        runs.append([r.f_value for r in tr])
    assert runs[0] == runs[1]


def test_feasibility_along_run():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((30, 8))
    b = rng.standard_normal(30)
    for poly in (StandardSimplex(8), L1Ball(8, 1.5)):
        for rule in (LINE_SEARCH, GRAD_1D):
            obj = LeastSquares(A, b, poly)
            seen = []
            _, _, tr = polycdwa_solve(
                obj, poly, SolveConfig(step_rule=rule, max_outer=15,
                                       rel_improve_tol=0.0),
                inner_callback=lambda t, i, a: seen.append(obj.x.copy()))
            for x in seen[::7]:
                if poly.kind == "simplex":
                    assert x.min() >= -1e-12 and abs(x.sum() - 1.0) <= 1e-10
                else:
                    assert np.abs(x).sum() <= poly.radius + 1e-10


# -- away machinery -----------------------------------------------------------


def test_polycdwa_two_point_hand_example():
    # f = ||x||^2 on the 2-simplex from (1, 0): step toward e2 halves the mass
    obj = LeastSquares(np.eye(2), np.zeros(2), StandardSimplex(2))
    x, state, tr = polycdwa_solve(obj, None, SolveConfig(max_outer=1,
                                                         rel_improve_tol=0.0))
    assert np.allclose(x, [0.5, 0.5])
    assert np.allclose(state.lam, [0.5, 0.5])


def test_alpha_zero_keeps_weights():
    # optimum at a vertex: every later sweep is a fixed point of the update
    obj = LeastSquares(np.eye(2), np.array([2.0, 0.0]), L1Ball(2, 1.0))
    x, state, tr = polycdwa_solve(obj, None, SolveConfig(max_outer=5,
                                                         rel_improve_tol=0.0))
    assert np.allclose(x, [1.0, 0.0], atol=1e-12)
    assert np.allclose(state.lam, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_drop_step_writes_exact_zero_and_stays_until_revisit():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((25, 6))
    b = rng.standard_normal(25)
    ball = L1Ball(6, 1.0)
    obj = LeastSquares(A, b, ball)
    lam_at = []
    events = []

    def cb(t, i, alpha):
        lam_at.append((t, i, alpha))

    _, state, _ = polycdwa_solve(obj, ball,
                                 SolveConfig(max_outer=30, rel_improve_tol=0.0),
                                 inner_callback=cb)
    # the weights are sc * lam while a pass runs, as away_update carries
    # them: a step scales sc by 1 - alpha and writes lam_i alone, and sc is
    # folded into lam where it leaves scale_in_range and at the pass end
    lam = np.zeros(ball.M)
    lam[0] = 1.0
    sc = 1.0
    dropped_now = set()
    for k, (t, i, alpha) in enumerate(lam_at):
        li = sc * lam[i]
        gma = li / (1.0 - li) if li < 1.0 else np.inf
        sc *= 1.0 - alpha
        if not _kernels.scale_in_range(sc):
            lam *= sc
            sc = 1.0
        if np.isfinite(gma) and alpha == -gma and li > 0:
            lam[i] = 0.0
            dropped_now.add(i)
            events.append((t, i))
        else:
            lam[i] += alpha / sc
        if (k + 1) % ball.M == 0:
            lam *= sc
            sc = 1.0
            # weight_refresh
            np.maximum(lam, 0.0, out=lam)
            lam /= lam.sum()
        assert (sc * lam).min() >= -1e-12
    # replayed weights match the returned state
    assert np.allclose(lam, state.lam, atol=1e-10)
    assert events, "no drop step was exercised by this instance"


def test_lambda_invariants_and_support():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((40, 10))
    b = rng.standard_normal(40)
    ball = L1Ball(10, 1.0)
    obj = LeastSquares(A, b, ball)
    x, state, tr = polycdwa_solve(obj, ball, SolveConfig(max_outer=50,
                                                         rel_improve_tol=0.0))
    lam = state.lam
    assert lam.min() >= 0.0
    assert abs(lam.sum() - 1.0) <= 1e-10
    assert np.linalg.norm(ball.combination(lam) - x) <= 1e-8 * (1 + np.linalg.norm(x))
    assert set(state.support) == set(np.flatnonzero(lam > 0))
    assert lam.shape == (ball.M,)  # O(M) memory overhead


def test_weight_refresh_contracts():
    ball = L1Ball(2, 1.0)
    lam = np.array([0.5, 0.5 - 1e-14, 1e-14, 0.0])
    st = AwayState(lam=lam.copy())
    x = ball.combination(st.lam)
    weight_refresh(st, x, ball)
    assert st.lam.sum() == 1.0
    lam2 = np.array([0.5, 0.5, -1e-15, 0.0])
    st2 = AwayState(lam=lam2.copy())
    x2 = ball.combination(np.maximum(lam2, 0) / np.maximum(lam2, 0).sum())
    weight_refresh(st2, x2, ball)
    assert st2.lam.min() >= 0.0
    # diverged pair fails
    with pytest.raises(ConsistencyError):
        weight_refresh(AwayState(lam=np.array([1.0, 0.0, 0.0, 0.0])),
                       np.array([0.0, 1.0]), ball)


def test_weight_refresh_survives_long_random_walk():
    rng = np.random.default_rng(11)
    ball = L1Ball(8, 1.0)
    obj = LeastSquares(rng.standard_normal((30, 8)), rng.standard_normal(30), ball)
    lam = np.zeros(ball.M)
    lam[3] = 1.0
    obj.reset(ball.vertex(3))
    for _ in range(10_000):
        i = int(rng.integers(ball.M))
        li = lam[i]
        gma = li / (1.0 - li) if li < 1.0 else 1e12
        alpha = float(rng.uniform(-min(gma, 1.0), 1.0))
        obj.apply_step(i, alpha)
        lam *= 1.0 - alpha
        lam[i] += alpha
    st = AwayState(lam=lam)
    weight_refresh(st, obj.x, ball)  # must not raise
    assert abs(st.lam.sum() - 1.0) <= 1e-12


def test_polycdwa_line_search_dominates_polycd():
    # away steps enlarge the admissible interval; on these seeds the outer
    # trajectories dominate pointwise as well
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((50, 14))
        b = rng.standard_normal(50)
        ball = L1Ball(14, 1.0)
        cfg = SolveConfig(step_rule=LINE_SEARCH, max_outer=25,
                          rel_improve_tol=0.0)
        _, tr_plain = polycd_solve(LeastSquares(A, b, ball), ball, cfg)
        _, _, tr_away = polycdwa_solve(LeastSquares(A, b, ball), ball, cfg)
        for rp, ra in zip(tr_plain, tr_away):
            assert ra.f_value <= rp.f_value + 1e-9 * max(1.0, abs(rp.f_value))


# -- rate-bound checkers ------------------------------------------------------


def test_sublinear_bound_on_random_quadratics():
    for seed in range(4):
        quad = random_quadratic(5, seed)
        ref = reference_solve(quad, tol=1e-13, max_iter=200_000)
        D = quad.poly.diameter()
        for rule in (LINE_SEARCH, GRAD_1D):
            quad.reset()
            _, tr = polycd_solve(quad, None, SolveConfig(step_rule=rule,
                                                         max_outer=50,
                                                         rel_improve_tol=0.0))
            rep = check_sublinear_bound(tr, ref.f, 5, quad.L, D, rule)
            assert rep.ok, f"violated at t={rep.first_violation}"
            assert np.all(rep.margins >= -1e-9 * max(1.0, abs(ref.f)))


def test_sublinear_bound_constant_objective():
    quad = Quadratic(np.zeros((3, 3)), np.zeros(3), poly=StandardSimplex(3))
    _, tr = polycd_solve(quad, None, SolveConfig(max_outer=3,
                                                 rel_improve_tol=0.0))
    rep = check_sublinear_bound(tr, 0.0, 3, 1.0, np.sqrt(2), LINE_SEARCH)
    assert rep.ok


def test_sublinear_bound_t1_dominated_by_initial_gap():
    # huge gap(1) makes the max pick the first-iterate term
    quad = random_quadratic(4, 9)
    ref = reference_solve(quad, tol=1e-12, max_iter=100_000)
    _, tr = polycd_solve(quad, None, SolveConfig(max_outer=1,
                                                 rel_improve_tol=0.0))
    rep = check_sublinear_bound(tr, ref.f, 4, quad.L, quad.poly.diameter(),
                                LINE_SEARCH)
    assert rep.ok and rep.bounds[0] >= rep.gaps[0]


def test_polycdwa_satisfies_same_sublinear_bound():
    for seed in (3, 4):
        quad = random_quadratic(6, seed)
        ref = reference_solve(quad, tol=1e-13, max_iter=200_000)
        D = quad.poly.diameter()
        for rule in (LINE_SEARCH, GRAD_1D):
            quad.reset()
            _, _, tr = polycdwa_solve(quad, None,
                                      SolveConfig(step_rule=rule, max_outer=50,
                                                  rel_improve_tol=0.0))
            rep = check_sublinear_bound(tr, ref.f, 6, quad.L, D, rule)
            assert rep.ok


def test_linear_bound_on_strongly_convex():
    psi = StandardSimplex(3).facial_distance()
    for seed in range(3):
        quad = random_quadratic(3, seed, mu=0.4)
        assert quad.mu > 0
        ref = reference_solve(quad, tol=1e-13, max_iter=300_000)
        D = quad.poly.diameter()
        for rule in (LINE_SEARCH, GRAD_1D):
            quad.reset()
            _, _, tr = polycdwa_solve(quad, None,
                                      SolveConfig(step_rule=rule, max_outer=60,
                                                  rel_improve_tol=0.0))
            rep = check_linear_bound(tr, ref.f, 3, quad.L, D, quad.mu, psi, rule)
            assert rep.ok, f"violated at t={rep.first_violation}"


def test_linear_bound_trivial_cases():
    quad = random_quadratic(3, 1, mu=0.5)
    ref = reference_solve(quad, tol=1e-12, max_iter=200_000)
    _, _, tr = polycdwa_solve(quad, None, SolveConfig(max_outer=1,
                                                      rel_improve_tol=0.0))
    rep = check_linear_bound(tr, ref.f, 3, quad.L, quad.poly.diameter(),
                             quad.mu, 1.0, LINE_SEARCH)
    # bound at t=0 is the initial gap itself
    assert rep.bounds[0] == pytest.approx(rep.gaps[0])
    with pytest.raises(ValueError):
        check_linear_bound(tr, ref.f, 3, quad.L, 1.0, 0.0, 1.0, LINE_SEARCH)


def test_kernel_path_matches_generic_path():
    rng = np.random.default_rng(17)
    A = rng.standard_normal((50, 15))
    b = rng.standard_normal(50)
    labels = np.where(rng.random(50) < 0.5, 1.0, -1.0)
    points = rng.standard_normal((40, 2)) * 2.0
    ball = L1Ball(15, 2.0)
    makers = (lambda: LeastSquares(A, b, ball),
              lambda: Logistic(A, labels, ball),
              lambda: KdeHuber(points, 1.0, 0.4))
    for make, solve in itertools.product(makers, (polycdwa_solve, polycd_solve)):
        for rule in (LINE_SEARCH, GRAD_1D):
            runs = {}
            for use_k in (True, False):
                obj = make()
                # a callback selects the per-step path
                out = solve(obj, obj.poly,
                            SolveConfig(step_rule=rule, max_outer=20,
                                        rel_improve_tol=0.0),
                            inner_callback=None if use_k
                            else lambda t, i, a: None)
                lam = out[1].lam if solve is polycdwa_solve else np.zeros(0)
                runs[use_k] = (np.array([r.f_value for r in out[-1]]),
                               out[0], lam)
            case = f"{type(obj).__name__}, {solve.__name__}, {rule}"
            fk, fg = runs[True][0], runs[False][0]
            assert len(fk) == len(fg), (
                f"{case}: kernel {len(fk)} vs generic {len(fg)} records")
            # the weights rebuild x, so they must agree as closely as x does
            for name, u, v in zip(("f-trace", "x", "lam"), runs[True],
                                  runs[False]):
                scale = np.maximum(np.abs(u), 1.0)
                assert np.max(np.abs(u - v) / scale, initial=0.0) <= 1e-9, (
                    case, name)
                # the logistic paths round every move alike, so they agree
                # bitwise (LeastSquares and KdeHuber differ near 1e-16 and
                # 1e-13)
                if isinstance(obj, Logistic):
                    assert np.array_equal(u, v), (case, name)
    # past REFRESH_EVERY steps too: both paths rebuild the caches at the
    # same pass ends (M = 400, so the intervals are 3, 6, 12, ... passes
    # and the rebuilds fall after passes 3, 9 and 21)
    A, labels, _, C = gen_logistic(LogisticSpec(n=200, d=200, r=20, seed=0))
    big = L1Ball(200, C)
    assert 40 * big.M > REFRESH_EVERY
    for solve, rule in itertools.product((polycd_solve, polycdwa_solve),
                                         (LINE_SEARCH, GRAD_1D)):
        kern, step = _kernel_and_per_step(
            lambda: Logistic(A, labels, big), solve,
            SolveConfig(step_rule=rule, max_outer=40, rel_improve_tol=0.0))
        pairs = [("f-trace", _f_trace(kern), _f_trace(step)),
                 ("x", kern[0], step[0])]
        if solve is polycdwa_solve:
            pairs.append(("lam", kern[1].lam, step[1].lam))
        for name, u, v in pairs:
            assert len(u) == len(v) and np.array_equal(u, v), (
                solve.__name__, rule, name)


@pytest.mark.parametrize("rule", [LINE_SEARCH, GRAD_1D])
@pytest.mark.parametrize("solve", [polycd_solve, polycdwa_solve])
def test_per_step_path_rebuilds_the_caches_at_pass_ends(monkeypatch, solve,
                                                        rule):
    # M = 14 does not divide REFRESH_EVERY, so a cadence of REFRESH_EVERY
    # steps would rebuild mid-pass; the first rebuild falls at the first
    # pass end past it instead, after 72 passes, and the next one
    # REBUILD_CAP = 64 passes later, after 136, where doubling the first
    # interval is capped.  Each visit counts, the degenerate one to the
    # start vertex 0 included.  The labels are separable and the radius
    # large, so f falls in every pass.
    rng = np.random.default_rng(0)
    A = rng.standard_normal((30, 7))
    labels = np.sign(A @ rng.standard_normal(7))
    ball = L1Ball(7, 50.0)
    assert REFRESH_EVERY % ball.M and REBUILD_CAP == 64
    obj = Logistic(A, labels, ball)
    visits, rebuilds = [], []

    def spy(orig=obj.refresh_cache):
        # the visit that rebuilds has not been reported yet
        rebuilds.append(len(visits) + 1)
        orig()
    monkeypatch.setattr(obj, "refresh_cache", spy)
    trace = solve(obj, ball, SolveConfig(step_rule=rule, max_outer=150,
                                         rel_improve_tol=0.0),
                  inner_callback=lambda t, i, a: visits.append(i))[-1]
    assert len(trace) == 151 and len(visits) == 150 * ball.M
    assert rebuilds == [72 * ball.M, 136 * ball.M]


def _rebuild_instance(family):
    # an l1-ball instance with M = 100 vertices, so the schedule's first
    # interval is 10 passes; its drift scale is max|A| times the radius
    rng = np.random.default_rng(7)
    A = rng.standard_normal((40, 50))
    ball = L1Ball(50, 3.0)
    if family == "lasso":
        obj = LeastSquares(A, rng.standard_normal(40), ball)
    else:
        obj = Logistic(A, np.where(rng.random(40) < 0.5, 1.0, -1.0), ball)
    return obj, float(np.abs(A).max()) * 3.0


@pytest.mark.parametrize("family, path", [
    ("lasso", "kernel"), ("lasso", "per-step"), ("logistic", "kernel"),
    ("logistic", "per-step"), ("lasso", "fw")])
def test_a_corrupted_cache_raises_within_one_rebuild_interval(monkeypatch,
                                                              family, path):
    # z moves off A x by 1e-3 of the drift scale at the end of pass 1; the
    # next rebuild, at most one interval later, finds it
    obj, scale = _rebuild_instance(family)
    M = obj.poly.M
    assert -(-REFRESH_EVERY // M) == 10
    steps, due = [0], []

    def counted(n, call):
        # steps holds the count of the step that raised, if one does
        steps[0] += n
        call()
        if steps[0] == M:
            due.append(steps[0] + obj._interval * M - obj._steps)
            obj.z[0] += 1e-3 * scale
    if path == "kernel":
        def run_cycle(*args, orig=obj.run_cycle):
            counted(M, lambda: orig(*args))
        monkeypatch.setattr(obj, "run_cycle", run_cycle)
    else:
        def apply_step(i, alpha, orig=obj.apply_step):
            counted(1, lambda: orig(i, alpha))
        monkeypatch.setattr(obj, "apply_step", apply_step)
    with pytest.raises(CacheConsistencyError, match="drifted"):
        if path == "fw":
            fw_solve(obj, obj.poly, BaselineConfig(
                max_iter=40 * M, window=None, fw_gap_tol=-np.inf))
        else:
            # a callback selects the per-step path
            polycdwa_solve(obj, obj.poly,
                           SolveConfig(max_outer=40, rel_improve_tol=0.0),
                           inner_callback=None if path == "kernel"
                           else lambda t, i, a: None)
    # the step that raised ends the pass of the next rebuild
    assert due and steps[0] == due[0] <= M + 10 * M, (steps, due)


def test_rebuild_interval_doubles_to_the_cap_and_halves_on_a_warning():
    # zero steps only count, so z moves only where the test writes it: by
    # the given multiple of the drift scale just before a rebuild's step
    obj, scale = _rebuild_instance("lasso")
    M = obj.poly.M

    def rebuild_after_writing(shift):
        start = obj._interval
        while obj._steps + 1 < start * M:
            obj.apply_step(0, 0.0)
        obj.z[3] += shift * scale
        obj.apply_step(0, 0.0)
        assert obj._steps == 0
        return start

    intervals = [rebuild_after_writing(0.0) for _ in range(5)]
    assert intervals == [10, 20, 40, 64, 64] and obj.drift == 0.0
    # above DRIFT_WARN the next interval halves; below it, it doubles
    assert rebuild_after_writing(10 * DRIFT_WARN) == 64
    assert 9 * DRIFT_WARN < obj.drift < 11 * DRIFT_WARN
    assert rebuild_after_writing(0.1 * DRIFT_WARN) == 32
    assert rebuild_after_writing(0.0) == 64
    # reset restarts the schedule
    obj.reset(obj.x)
    assert rebuild_after_writing(0.0) == 10
    # past DRIFT_TOL the rebuild raises
    with pytest.raises(CacheConsistencyError):
        rebuild_after_writing(2 * DRIFT_TOL)


def test_composite_objectives_over_listed_vertices_match_the_l1_ball():
    # ExplicitVertices takes the listed-vertex branch of the composite
    # objectives (a stored A v_i per vertex): its per-step trajectory must
    # follow the l1 ball's coordinate-vertex kernel pass
    rng = np.random.default_rng(23)
    A = rng.standard_normal((30, 8))
    b = rng.standard_normal(30)
    labels = np.where(rng.random(30) < 0.5, 1.0, -1.0)
    ball = L1Ball(8, 1.5)
    listed = ExplicitVertices(ball.vertex_matrix())
    cases = itertools.product(((LeastSquares, b), (Logistic, labels)),
                              (polycd_solve, polycdwa_solve),
                              (LINE_SEARCH, GRAD_1D))
    for (cls, y), solve, rule in cases:
        runs = []
        for poly in (ball, listed):
            obj = cls(A, y, poly)
            out = solve(obj, poly, SolveConfig(step_rule=rule, max_outer=20,
                                               rel_improve_tol=0.0))
            runs.append((np.array([r.f_value for r in out[-1]]), out[0]))
        assert obj.kernel_name() is None
        case = f"{cls.__name__}, {solve.__name__}, {rule}"
        assert len(runs[0][0]) == len(runs[1][0]), case
        for name, u, v in zip(("f-trace", "x"), runs[0], runs[1]):
            scale = np.maximum(np.abs(u), 1.0)
            assert np.max(np.abs(u - v) / scale) <= 1e-9, (case, name)


@pytest.mark.parametrize("away", [False, True])
@pytest.mark.parametrize("rule", [LINE_SEARCH, GRAD_1D])
def test_ls_scan_ahead_independent_of_block_length(monkeypatch, rule, away):
    # the scan-ahead skips only exact no-op steps, so the pass is the same
    # whether it looks one step or several blocks ahead (M = 80 here)
    rng = np.random.default_rng(23)
    A = rng.standard_normal((60, 40))
    b = rng.standard_normal(60)
    ball = L1Ball(40, 1.5)
    solve = polycdwa_solve if away else polycd_solve
    fv = {}
    for block in (1, 7, 32, 100):
        monkeypatch.setattr(_kernels, "LS_BLOCK", block)
        tr = solve(LeastSquares(A, b, ball), ball,
                   SolveConfig(step_rule=rule, max_outer=25,
                               rel_improve_tol=0.0))[-1]
        fv[block] = np.array([r.f_value for r in tr])
    for block in (7, 32, 100):
        scale = np.maximum(np.abs(fv[1]), 1.0)
        assert np.max(np.abs(fv[block] - fv[1]) / scale) <= 1e-12


@pytest.mark.parametrize("away", [False, True])
@pytest.mark.parametrize("rule", [LINE_SEARCH, GRAD_1D])
def test_logistic_screen_is_bitwise_neutral(monkeypatch, rule, away):
    # the screen skips only exact no-op steps, so x, the weights and the
    # f-trace are bitwise those of a pass that visits every vertex; with a
    # rounding unit of 1 the screen's margin exceeds every |phi'(0)|, which
    # makes every position a candidate.  The second instance has a zero and
    # a duplicate column and runs to stationarity, where the support's
    # phi'(0) meets the screen at rounding-level ties.
    rng = np.random.default_rng(29)
    A = rng.standard_normal((60, 40))
    labels = np.where(rng.random(60) < 0.5, 1.0, -1.0)
    rng = np.random.default_rng(5)
    A_tie = rng.standard_normal((40, 12))
    A_tie[:, 3] = 0.0
    A_tie[:, 7] = A_tie[:, 1]
    labels_tie = np.where(rng.random(40) < 0.5, 1.0, -1.0)
    solve = polycdwa_solve if away else polycd_solve
    for data, labs, ball, passes in ((A, labels, L1Ball(40, 3.0), 25),
                                     (A_tie, labels_tie, L1Ball(12, 0.5),
                                      200)):
        runs = {}
        for block, eps in ((32, 1.0), (1, None), (7, None), (32, None),
                           (100, None)):
            monkeypatch.setattr(_kernels, "LS_BLOCK", block)
            if eps is not None:
                monkeypatch.setattr(_kernels, "_EPS", eps)
            out = solve(Logistic(data, labs, ball), ball,
                        SolveConfig(step_rule=rule, max_outer=passes,
                                    rel_improve_tol=0.0))
            monkeypatch.undo()
            lam = out[1].lam if away else np.zeros(0)
            runs[block, eps] = (out[0], lam,
                                np.array([r.f_value for r in out[-1]]))
        ref = runs.pop((32, 1.0))
        for key, got in runs.items():
            for name, u, v in zip(("x", "lam", "f-trace"), ref, got):
                assert np.array_equal(u, v), (key, name)


def _kernel_and_per_step(make, solve, cfg):
    """The runs of solve on fresh objectives from make, on the kernel path
    and on the per-step path (a no-op callback selects it)."""
    runs = []
    for callback in (None, lambda t, i, a: None):
        obj = make()
        runs.append(solve(obj, obj.poly, cfg, inner_callback=callback))
    return runs


def _f_trace(out):
    return np.array([r.f_value for r in out[-1]])


@pytest.mark.parametrize("seed", [0, 2, 3, 4, 5])
def test_full_step_to_the_minimizing_vertex_on_both_paths(seed):
    # b = A v_5 puts the minimizer at v_5, and the line search's step toward
    # it is a full step: the kernel takes it by its general update, which
    # zeroes x through its rescale, and the per-step path by vertex_move
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((30, 12))
    ball = L1Ball(12, 1.7)
    v = ball.vertex(5)
    for solve in (polycd_solve, polycdwa_solve):
        kern, step = _kernel_and_per_step(
            lambda: LeastSquares(A, A @ v, ball), solve,
            SolveConfig(max_outer=1, rel_improve_tol=0.0))
        for out in (kern, step):
            assert np.array_equal(out[0], v), solve.__name__
            if solve is polycdwa_solve:
                assert np.array_equal(out[1].lam, np.eye(ball.M)[5])
        assert np.array_equal(kern[0], step[0])
        assert np.max(np.abs(_f_trace(kern) - _f_trace(step))) <= 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_cancelled_closed_form_matches_the_per_step_path(seed):
    # A e_3 = A e_1, so from weights 1/2 on C e_1 and C e_3 (vertices 2 and
    # 6) the step toward vertex 2 has w = 0, whose w.w the kernel's scalar
    # form loses to cancellation and recomputes (_LS_CANCEL).  x and the
    # weights are not unique along e_1 - e_3, so only f and A x are compared.
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((20, 6))
    A[:, 3] = A[:, 1]
    A[:, 5] = 0.0
    b = 2.0 * A[:, 1] + 0.01 * rng.standard_normal(20)
    ball = L1Ball(6, 2.0)
    lam0 = np.zeros(ball.M)
    lam0[[2, 6]] = 0.5
    order = np.r_[2, 6, np.delete(np.arange(ball.M), [2, 6])]
    kern, step = _kernel_and_per_step(
        lambda: LeastSquares(A, b, ball), polycdwa_solve,
        SolveConfig(max_outer=5, rel_improve_tol=0.0, lam0=lam0,
                    visit_order=order))
    assert np.max(np.abs(_f_trace(kern) - _f_trace(step))) <= 1e-9
    assert np.max(np.abs(A @ kern[0] - A @ step[0])) <= 1e-9


@pytest.mark.parametrize("solve", [polycd_solve, polycdwa_solve])
def test_composite_plan_follows_the_visit_order(solve):
    # one objective run with order A, then B, then A again keeps the
    # trajectories of fresh objectives bitwise, for the lasso and the
    # logistic loss: the block plan of their kernels belongs to the order
    # it was built for
    rng = np.random.default_rng(7)
    A = rng.standard_normal((60, 30))
    b = rng.standard_normal(60)
    labels = np.where(b > 0.0, 1.0, -1.0)
    ball = L1Ball(30, 1.5)
    orders = (None, rng.permutation(ball.M), None)

    def run(obj, order):
        out = solve(obj, ball, SolveConfig(max_outer=10, rel_improve_tol=0.0,
                                           visit_order=order))
        lam = out[1].lam if solve is polycdwa_solve else np.zeros(0)
        return _f_trace(out), out[0], lam

    for make in (lambda: LeastSquares(A, b, ball),
                 lambda: Logistic(A, labels, ball)):
        shared = make()
        for order in orders:
            got = run(shared, order)
            want = run(make(), order)
            for name, u, v in zip(("f-trace", "x", "lam"), got, want):
                assert np.array_equal(u, v), name


@pytest.mark.parametrize("away", [False, True])
@pytest.mark.parametrize("rule", [LINE_SEARCH, GRAD_1D])
def test_ls_scores_carried_through_a_block_that_moves_at_every_position(
        rule, away):
    # b = A (1/d) puts the minimizer inside the simplex, and from vertex 0,
    # visited last, every step of pass 1 toward a vertex not yet visited
    # moves: the first block's 32 positions each carry the scores of the
    # ones after them
    d = 33
    rng = np.random.default_rng(3)
    A = np.vstack([np.eye(d), np.zeros((7, d))])
    A += 0.1 * rng.standard_normal((d + 7, d))
    simp = StandardSimplex(d)
    b = A @ np.full(d, 1.0 / d)
    solve = polycdwa_solve if away else polycd_solve
    cfg = SolveConfig(step_rule=rule, max_outer=6, rel_improve_tol=0.0,
                      visit_order=np.r_[1:d, 0], lam0=simp.vertex_weights(0))
    kern = solve(LeastSquares(A, b, simp), simp, cfg)
    alphas = []
    step = solve(LeastSquares(A, b, simp), simp, cfg,
                 inner_callback=lambda t, i, a: alphas.append(a))
    first = np.array(alphas[:_kernels.LS_BLOCK])
    assert np.all((first > 0.0) & (first < 1.0))
    scale = np.maximum(np.abs(_f_trace(step)), 1.0)
    assert np.max(np.abs(_f_trace(kern) - _f_trace(step)) / scale) <= 1e-12


def _separable_logistic(seed):
    """Labels that feature 2 separates with a margin of 2, on the l1 ball of
    radius 20, with weights 1/3 on vertices 0, 1 and 5 (-C e_2) and a visit
    order that starts at vertex 5."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((40, 6))
    labels = np.where(rng.random(40) < 0.5, 1.0, -1.0)
    A[:, 2] = labels * (2.0 + np.abs(rng.standard_normal(40)))
    lam0 = np.zeros(12)
    lam0[[0, 1, 5]] = 1.0 / 3.0
    order = np.r_[5, np.delete(np.arange(12), 5)]
    return A, labels, L1Ball(6, 20.0), lam0, order


@pytest.mark.parametrize("seed", range(3))
def test_logistic_full_step_and_drop_on_both_paths(seed):
    # the away step from vertex 5 drops it (its search ends at the interval
    # end, which it evaluates without curvature), and the step toward
    # vertex 4 (C e_2) is a full step mid-pass; the kernel recomputes its
    # start after both.  The callback replays pass 1's weights to see them.
    A, labels, ball, lam0, order = _separable_logistic(seed)
    lam = lam0.copy()
    sc = 1.0  # the scale the weights carry through the pass (away_update)
    events = []

    def replay(t, i, alpha):
        nonlocal sc
        if t == 1:
            lo, capped = _kernels.step_interval(True, lam, sc, i, 1e12)
            if alpha == 1.0:
                events.append(("full", i))
            elif alpha == lo != 0.0 and not capped:
                events.append(("drop", i))
            sc = _kernels.away_update(lam, sc, i, alpha, lo, capped,
                                      _kernels.DROP_TOL)[1]

    cfg = SolveConfig(max_outer=5, rel_improve_tol=0.0, lam0=lam0,
                      visit_order=order)
    kern = polycdwa_solve(Logistic(A, labels, ball), ball, cfg)
    step = polycdwa_solve(Logistic(A, labels, ball), ball, cfg,
                          inner_callback=replay)
    assert events == [("drop", 5), ("full", 4)]
    for name, u, v in (("x", kern[0], step[0]),
                       ("lam", kern[1].lam, step[1].lam),
                       ("f-trace", _f_trace(kern), _f_trace(step))):
        scale = np.maximum(np.abs(u), 1.0)
        assert np.max(np.abs(u - v) / scale) <= 1e-9, name
    # bitwise with either solver and step rule, as in
    # test_kernel_path_matches_generic_path: both paths take a full step's
    # margins from the vertex
    for solve, rule in itertools.product((polycd_solve, polycdwa_solve),
                                         (LINE_SEARCH, GRAD_1D)):
        kern, step = _kernel_and_per_step(
            lambda: Logistic(A, labels, ball), solve,
            dataclasses.replace(cfg, step_rule=rule))
        pairs = [("x", kern[0], step[0]),
                 ("f-trace", _f_trace(kern), _f_trace(step))]
        if solve is polycdwa_solve:
            pairs.append(("lam", kern[1].lam, step[1].lam))
        for name, u, v in pairs:
            assert np.array_equal(u, v), (solve.__name__, rule, name)


def _start_families():
    rng = np.random.default_rng(37)
    A = rng.standard_normal((40, 12))
    b = rng.standard_normal(40)
    labels = np.where(rng.random(40) < 0.5, 1.0, -1.0)
    points = rng.standard_normal((30, 2)) * 2.0
    ball = L1Ball(12, 2.0)
    return {"lasso": lambda: LeastSquares(A, b, ball),
            "logistic": lambda: Logistic(A, labels, ball),
            "kde": lambda: KdeHuber(points, 1.0, 0.4)}


@pytest.mark.parametrize("rule", [LINE_SEARCH, GRAD_1D])
@pytest.mark.parametrize("family", ["lasso", "logistic", "kde"])
def test_weights_lam0_starts_at_their_combination(family, rule):
    make = _start_families()[family]
    obj = make()
    lam0 = np.random.default_rng(41).dirichlet(np.ones(obj.poly.M))
    f0 = obj.eval_at(obj.poly.combination(lam0))
    kern, step = _kernel_and_per_step(
        make, polycdwa_solve,
        SolveConfig(step_rule=rule, max_outer=8, rel_improve_tol=0.0,
                    lam0=lam0))
    fk, fs = _f_trace(kern), _f_trace(step)
    assert fk[0] == f0 and fs[0] == f0
    assert len(fk) == len(fs) == 9
    assert np.max(np.abs(fk - fs) / np.maximum(np.abs(fk), 1.0)) <= 1e-9


def test_kde_solvers_start_at_the_ordinary_kde_weights():
    # KdeHuber's default start is the weights 1/n; all six solvers take it
    make = _start_families()["kde"]
    obj = make()
    assert np.array_equal(obj.x, np.full(obj.n, 1.0 / obj.n))
    f0 = [obj.eval()]
    for solve in (polycd_solve, polycdwa_solve):
        obj = make()
        f0.append(solve(obj, obj.poly, SolveConfig(max_outer=1))[-1][0]
                  .f_value)
    for solve in (fw_solve, afw_solve, fista_solve, twocd_solve):
        obj = make()
        f0.append(solve(obj, obj.poly, BaselineConfig(max_iter=1))[-1][0]
                  .f_value)
    assert f0 == [f0[0]] * 7, f0


@pytest.mark.parametrize("family", ["lasso", "logistic", "kde"])
def test_start_vertex_and_lam0_start_where_they_say(family):
    make = _start_families()[family]
    poly = make().poly
    lam0 = np.random.default_rng(43).dirichlet(np.ones(poly.M))
    # a start vertex is the lam0 of its weights
    for lam in (poly.vertex_weights(3), lam0):
        cfg = SolveConfig(max_outer=1, lam0=lam)
        assert np.array_equal(start_weights(make(), cfg), lam)
        f0 = make().eval_at(poly.combination(lam))
        for solve in (polycd_solve, polycdwa_solve):
            obj = make()
            assert solve(obj, obj.poly, cfg)[-1][0].f_value == f0, lam


@pytest.mark.parametrize("family", ["lasso", "logistic"])
def test_lasso_and_logistic_start_at_vertex_0_by_default(family):
    make = _start_families()[family]
    obj = make()
    assert np.array_equal(obj.start_weights(), obj.poly.vertex_weights(0))
    assert obj.x.tobytes() == obj.poly.vertex(0).tobytes()
    for solve in (polycd_solve, polycdwa_solve):
        runs = []
        for start in ({}, {"lam0": obj.poly.vertex_weights(0)}):
            obj = make()
            out = solve(obj, obj.poly, SolveConfig(max_outer=8,
                                                   rel_improve_tol=0.0,
                                                   **start))
            runs.append((_f_trace(out), out[0]))
        for name, u, v in zip(("f-trace", "x"), *runs):
            assert u.tobytes() == v.tobytes(), (solve.__name__, name)


@pytest.mark.parametrize("field, value", [
    ("max_outer", 2.5), ("max_outer", "10"), ("rel_improve_tol", np.nan)])
def test_config_rejects_non_integer_counts_and_a_nan_tolerance(field, value):
    # max_outer=2.5 raised TypeError from range inside the solve, and a NaN
    # rel_improve_tol silently switched the stop rule off
    with pytest.raises(ValueError, match=field):
        SolveConfig(**{field: value})


def test_config_accepts_numpy_integer_counts():
    cfg = SolveConfig(max_outer=np.int64(2))
    obj, ball = motivating_objective()
    _, trace = polycd_solve(obj, ball, cfg)
    assert len(trace) <= 3
