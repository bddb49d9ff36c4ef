import warnings

import numpy as np
import pytest

from polycd import (LINE_SEARCH, KdeHuber, L1Ball, LeastSquares, SolveConfig,
                    StandardSimplex, TraceRecord, polycd_solve, polycdwa_solve)
from polycd.polytope import project_simplex
from polycd.problems import KdeSpec, gen_kde
from polycd.verify import reference_solve_kde

from oracles import (check_linear_bound, check_reduction_identity,
                     check_sequence_lemma, check_sublinear_bound,
                     finite_diff_gradient, golden_section_min, grid_line_min,
                     grid_search_min, reduction_sequences_from_steps,
                     reference_solve, simplex_decompose)
from quadratics import random_quadratic


# -- reference solve ---------------------------------------------------------


def test_reference_solve_symmetric_optimum():
    obj = LeastSquares(np.eye(3), np.zeros(3), StandardSimplex(3))
    ref = reference_solve(obj, tol=1e-13, max_iter=200_000)
    assert ref.f == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert ref.converged
    assert ref.fw_gap <= 1e-10


def test_reference_solve_motivating_problem():
    ball = L1Ball(2, 1.0)
    obj = LeastSquares(np.eye(2), np.array([2.0, 2.0]), ball)
    ref = reference_solve(obj, tol=1e-13, max_iter=300_000)
    assert ref.f == pytest.approx(4.5, abs=1e-9)
    assert np.allclose(ref.x, [0.5, 0.5], atol=1e-7)


@pytest.mark.parametrize("A, b, poly", [
    (np.eye(3), np.zeros(3), StandardSimplex(3)),
    (np.eye(2), np.array([2.0, 2.0]), L1Ball(2, 1.0)),
], ids=["simplex3", "l1ball2"])
def test_reference_solve_grid_cross_check_catches_an_unconverged_point(A, b, poly):
    # one projected-gradient step leaves f above the optimum by more than
    # the grid's resolution, which the cross-check on these tiny polytopes
    # must report
    with pytest.raises(AssertionError, match="grid search found a better point"):
        reference_solve(LeastSquares(A, b, poly), max_iter=1)


def test_reference_solve_beats_random_envelope():
    quad = random_quadratic(5, 0)
    ref = reference_solve(quad, tol=1e-12, max_iter=300_000)
    rng = np.random.default_rng(1)
    draws = rng.exponential(size=(20_000, 5))
    draws /= draws.sum(axis=1, keepdims=True)
    envelope = min(quad.eval_at(p) for p in draws[::1])
    assert ref.f <= envelope + 1e-12


def test_grid_search_consistency():
    quad = random_quadratic(3, 2)
    ref = reference_solve(quad, tol=1e-12, max_iter=300_000)
    f_grid = grid_search_min(quad, quad.poly)
    assert f_grid >= ref.f - 1e-10
    assert f_grid - ref.f <= 1e-3 * max(1.0, abs(ref.f))


# -- simplex decomposition ----------------------------------------------------


def test_simplex_decompose_hand_example():
    p, q, eta = simplex_decompose(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert eta == pytest.approx(2.0)
    assert np.allclose(p, [1.0, 0.0]) and np.allclose(q, [0.0, 1.0])


def test_simplex_decompose_equal_inputs():
    a = np.array([0.3, 0.7])
    p, q, eta = simplex_decompose(a, a)
    assert eta == 0.0 and np.allclose(p, a) and np.allclose(q, a)


def test_simplex_decompose_random_reconstruction():
    rng = np.random.default_rng(3)
    for _ in range(10_000 // 20):
        for _ in range(20):
            a = project_simplex(rng.standard_normal(6))
            b = project_simplex(rng.standard_normal(6))
            p, q, eta = simplex_decompose(a, b)
            assert np.max(np.abs((a - b) - 0.5 * eta * (p - q))) <= 1e-14
            assert abs(p.sum() - 1) <= 1e-12 and abs(q.sum() - 1) <= 1e-12
            assert p.min() >= 0 and q.min() >= 0
            assert set(np.flatnonzero(p > 0)) <= set(np.flatnonzero(a > 0))


def test_simplex_decompose_rejects_off_simplex():
    with pytest.raises(ValueError):
        simplex_decompose(np.array([0.5, 0.6]), np.array([0.5, 0.5]))


# -- sequence lemma ------------------------------------------------------------


def test_sequence_lemma_harmonic():
    # a_k = 1/k with lam = 1: a_k - a_{k+1} = 1/(k(k+1)) >= 1/(k+1)^2
    seq = [1.0 / k for k in range(1, 500)]
    res = check_sequence_lemma(seq, 1.0)
    assert res.status == "ok" and bool(res)


def test_sequence_lemma_premise_failures():
    assert check_sequence_lemma([1.0, 1.0, 1.0], 1.0).status == "premise"
    assert check_sequence_lemma([1.0, 2.0], 1.0).status == "premise"
    assert check_sequence_lemma([1.0, 0.999999], 10.0).status == "premise"
    # conclusion failure needs a sequence passing the premise but exceeding
    # the bound; the bound is a theorem, so craft one with a huge head
    res = check_sequence_lemma([1.0, -1.0], 1.0)
    assert res.status == "premise"


def test_sequence_lemma_on_solver_gap_sequence():
    # gap sequence of a line-search run satisfies the recursion with
    # lam = 1 / (2 M L D^2); check premise and conclusion both hold on the
    # above-noise prefix
    quad = random_quadratic(5, 4)
    ref = reference_solve(quad, tol=1e-13, max_iter=300_000)
    quad.reset()
    _, tr = polycd_solve(quad, None, SolveConfig(max_outer=60,
                                                 rel_improve_tol=0.0))
    D = quad.poly.diameter()
    lam = 1.0 / (2.0 * 5 * quad.L * D * D)
    gaps = [r.f_value - ref.f for r in tr if r.t >= 1]
    floor = 1e-12 * max(1.0, abs(ref.f))
    prefix = []
    for g in gaps:
        if g <= floor:
            break
        prefix.append(g)
    assert len(prefix) >= 3
    res = check_sequence_lemma(prefix, lam)
    assert res.status == "ok", (res.status, res.index, res.detail)


# -- reduction identities -------------------------------------------------------


def test_reduction_identity_random_sequences():
    rng = np.random.default_rng(5)
    simp = StandardSimplex(4)
    for seed in range(20):
        quad = random_quadratic(4, 100 + seed)
        gs, xs = reduction_sequences_from_steps(quad, simp, 5, rng)
        z = simp.project(rng.standard_normal(4))
        err = check_reduction_identity(gs, xs, z)
        scale = max(max(np.linalg.norm(g) for g in gs), 1.0)
        assert err <= 1e-10 * scale


def test_reduction_identity_single_term():
    rng = np.random.default_rng(6)
    quad = random_quadratic(3, 7)
    gs, xs = reduction_sequences_from_steps(quad, quad.poly, 1, rng)
    err = check_reduction_identity(gs, xs, quad.poly.vertex(0))
    assert err <= 1e-12


def test_reduction_identity_z_at_an_iterate():
    rng = np.random.default_rng(7)
    quad = random_quadratic(4, 8)
    gs, xs = reduction_sequences_from_steps(quad, quad.poly, 4, rng)
    err = check_reduction_identity(gs, xs, xs[-1])
    assert np.isfinite(err) and err <= 1e-11


# -- rate-bound checks -----------------------------------------------------------

# each checker on M = 3 and L = 1 under the line search, with the bound it
# must apply at step t: max(gap(1), 4 M L D^2) / t = 24 / t with D = sqrt(2)
# and gap(1) = 24, and rho^t gap(0) = (28/29)^t with gap(0) = 1 and
# G = 1 + 9 M L D^2 / (mu psi^2) = 28 at D = mu = psi = 1
RATE_CHECKS = {
    "sublinear": (lambda tr, f: check_sublinear_bound(tr, f, 3, 1.0,
                                                      np.sqrt(2.0),
                                                      LINE_SEARCH),
                  lambda t: 24.0 / max(t, 1)),
    "linear": (lambda tr, f: check_linear_bound(tr, f, 3, 1.0, 1.0, 1.0, 1.0,
                                                LINE_SEARCH),
               lambda t: (28.0 / 29.0) ** t),
}


@pytest.mark.parametrize("kind", list(RATE_CHECKS))
@pytest.mark.parametrize("scale, shift, first", [
    (1.0 + 1e-9, 0.5e-12, None),  # inside both slacks, at steps 2 to 8
    (1.0 + 1e-9, 2e-12, 3),       # past the absolute slack at steps 3 and 5
    (1.0 + 2e-9, 0.0, 3),         # past the relative slack at steps 3 and 5
])
def test_rate_bound_checks_flag_the_first_step_above_the_bound(
        kind, scale, shift, first):
    check, bound = RATE_CHECKS[kind]
    f_star = 0.5
    # gap(1) stays on the bound: above it, it would set the sublinear constant
    raised = range(2, 9) if first is None else (3, 5)
    trace = [TraceRecord(t, f_star + (bound(t) * scale + shift if t in raised
                                      else bound(t)), 0.0, 0, 0)
             for t in range(9)]
    rep = check(trace, f_star)
    assert rep.ok is (first is None)
    assert rep.first_violation == first


# -- density reference ---------------------------------------------------------


def test_reference_solve_kde_deterministic_and_certified():
    X, _ = gen_kde(KdeSpec(n=100, seed=0))
    ref = reference_solve_kde(X, 1.0, 0.4, afw_iters=100, rounds=10,
                              cert_tol=1e-9)
    again = reference_solve_kde(X, 1.0, 0.4, afw_iters=100, rounds=10,
                                cert_tol=1e-9)
    # bounded by iteration counts only: a rerun is bitwise the same
    assert np.array_equal(ref.x, again.x)
    assert ref.f == again.f and ref.fw_gap == again.fw_gap
    assert ref.x.min() >= 0.0 and ref.x.sum() == pytest.approx(1.0, abs=1e-12)
    assert ref.converged
    assert ref.fw_gap <= 1e-9 * max(abs(ref.f), 1.0)
    # a long away-step run neither beats the certified interval nor ends
    # below the reference value
    obj = KdeHuber(X, 1.0, 0.4)
    _, _, tr = polycdwa_solve(obj, None, SolveConfig(max_outer=200,
                                                     rel_improve_tol=0.0))
    f_best = min(r.f_value for r in tr)
    assert ref.f <= f_best + 1e-12 * abs(f_best)
    assert f_best >= ref.f - ref.fw_gap


@pytest.mark.parametrize("case", ["one-point", "two-points", "triplicates"])
def test_reference_solve_kde_degenerate_points_warning_free(case):
    rng = np.random.default_rng(5)
    points = {"one-point": np.zeros((1, 2)),
              "two-points": rng.standard_normal((2, 2)),
              "triplicates": np.repeat(rng.standard_normal((6, 2)), 3,
                                       axis=0)}[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ref = reference_solve_kde(points, 1.0, 0.4, afw_iters=50, rounds=5)
    assert ref.x.shape == (len(points),)
    assert ref.x.min() >= 0.0 and ref.x.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.isfinite(ref.f) and np.isfinite(ref.fw_gap)


# -- 1D oracles -----------------------------------------------------------------


def test_golden_section_on_shifted_parabola():
    got = golden_section_min(lambda a: (a - 0.37) ** 2, 0.0, 1.0, tol=1e-10)
    assert got == pytest.approx(0.37, abs=1e-8)


def test_grid_line_min_resolution():
    got = grid_line_min(lambda a: (a - 0.123456) ** 2, 0.0, 1.0,
                        levels=3, pts=100)
    assert got == pytest.approx(0.123456, abs=1e-6)


def test_finite_diff_constant_function():
    class Const:
        def eval_at(self, x):
            return 7.0

    g = finite_diff_gradient(Const(), np.zeros(4))
    assert np.allclose(g, 0.0)
