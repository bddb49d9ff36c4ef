import itertools

import numpy as np
import pytest

from polycd import (ExplicitVertices, L1Ball, PolytopeError, StandardSimplex,
                    UnsupportedSizeError, project_l1_ball, project_simplex)


def simplex_split_psi_analytic(M):
    """Oracle for the simplex: conv(T) and conv(T^c) have disjoint
    coordinate supports, so ||p - q||^2 = ||p||^2 + ||q||^2 is minimized at
    the two centroids, giving dist = sqrt(1/|T| + 1/|T^c|) per split."""
    return min(np.sqrt(1.0 / k + 1.0 / (M - k)) for k in range(1, M))


def brute_force_split_psi(poly, faces=None):
    """Oracle: min over vertex-subset splits (restricted to the given face
    list when supplied) of the hull-to-hull distance, each split solved as
    an explicitly constrained QP by scipy's SLSQP."""
    from scipy.optimize import minimize

    V = poly.vertex_matrix()
    M = poly.M
    if faces is None:
        faces = [T for r in range(1, M)
                 for T in itertools.combinations(range(M), r)]
    best = np.inf
    for T in faces:
        T = list(T)
        U = [i for i in range(M) if i not in T]
        P, Q = V[T], V[U]
        nt = len(T)

        def dist2(u, P=P, Q=Q, nt=nt):
            r = P.T @ u[:nt] - Q.T @ u[nt:]
            return r @ r

        cons = [{"type": "eq", "fun": lambda u, nt=nt: u[:nt].sum() - 1.0},
                {"type": "eq", "fun": lambda u, nt=nt: u[nt:].sum() - 1.0}]
        u0 = np.concatenate([np.full(nt, 1.0 / nt),
                             np.full(len(U), 1.0 / len(U))])
        res = minimize(dist2, u0, method="SLSQP", constraints=cons,
                       bounds=[(0.0, 1.0)] * (nt + len(U)),
                       options={"maxiter": 500, "ftol": 1e-14})
        best = min(best, np.sqrt(max(res.fun, 0.0)))
    return best


def test_simplex_vertices_are_basis_vectors():
    p = StandardSimplex(3)
    assert p.M == 3 and p.d == 3
    assert np.array_equal(p.vertex(1), [0.0, 1.0, 0.0])
    for i in range(3):
        assert p.contains(p.vertex(i))


def test_l1ball_vertex_order_interleaved():
    p = L1Ball(2, 1.0)
    assert p.M == 4
    assert np.array_equal(p.vertex(0), [1.0, 0.0])
    assert np.array_equal(p.vertex(1), [-1.0, 0.0])
    assert np.array_equal(p.vertex(2), [0.0, 1.0])
    assert np.array_equal(p.vertex(3), [0.0, -1.0])
    for i in range(4):
        assert p.contains(p.vertex(i))


@pytest.mark.parametrize("radius", [np.inf, np.nan, 0.0, -1.0])
def test_l1ball_rejects_nonpositive_or_nonfinite_radius(radius):
    with pytest.raises(PolytopeError, match="radius"):
        L1Ball(3, radius)


@pytest.mark.parametrize("d", [2.5, np.float64(3.0), 0])
@pytest.mark.parametrize("make", [StandardSimplex, lambda d: L1Ball(d, 1.0)],
                         ids=["simplex", "l1ball"])
def test_polytopes_reject_a_dimension_that_is_not_a_positive_integer(make, d):
    # a float d used to fail inside numpy with a TypeError
    with pytest.raises(PolytopeError, match="dimension d"):
        make(d)


def test_explicit_vertices_passthrough():
    p = ExplicitVertices([(1.0, 1.0), (0.0, 2.0)])
    assert np.array_equal(p.vertex(0), [1.0, 1.0])
    assert p.M == 2 and p.d == 2


def test_vertex_index_out_of_range():
    p = StandardSimplex(3)
    with pytest.raises(PolytopeError):
        p.vertex(3)
    with pytest.raises(PolytopeError):
        p.vertex(-1)


@pytest.mark.parametrize("d", [2, 3, 7])
def test_simplex_diameter_matches_pair_enumeration(d):
    p = StandardSimplex(d)
    V = p.vertex_matrix()
    oracle = max(np.linalg.norm(V[i] - V[j])
                 for i in range(d) for j in range(d))
    assert p.diameter() == pytest.approx(oracle, abs=1e-14)
    assert p.diameter() == pytest.approx(np.sqrt(2.0))
    assert p.diameter_exact


def test_l1ball_diameter_matches_pair_enumeration():
    p = L1Ball(5, 3.0)
    V = p.vertex_matrix()
    oracle = max(np.linalg.norm(V[i] - V[j])
                 for i in range(p.M) for j in range(p.M))
    assert p.diameter() == pytest.approx(oracle) == pytest.approx(6.0)


def test_diameter_scales_linearly_and_permutation_invariant():
    assert L1Ball(4, 2.0).diameter() == pytest.approx(2 * L1Ball(4, 1.0).diameter())
    rng = np.random.default_rng(0)
    V = rng.standard_normal((6, 3))
    d1 = ExplicitVertices(V).diameter()
    d2 = ExplicitVertices(V[rng.permutation(6)]).diameter()
    assert d1 == pytest.approx(d2, abs=1e-14)


def test_single_point_diameter_zero():
    assert ExplicitVertices([(0.0, 0.0)]).diameter() == 0.0


def test_diameter_cap_gives_certified_upper_bound():
    rng = np.random.default_rng(1)
    V = rng.standard_normal((40, 3))
    p_exact = ExplicitVertices(V)
    exact = p_exact.diameter()
    assert p_exact.diameter_exact
    p_bound = ExplicitVertices(V)
    p_bound.DIAMETER_PAIR_CAP = 10
    bound = p_bound.diameter()
    assert not p_bound.diameter_exact
    assert bound >= exact - 1e-12


@pytest.mark.parametrize("d,expected", [(2, np.sqrt(2.0)), (3, np.sqrt(1.5))])
def test_facial_distance_simplex_known_values(d, expected):
    assert StandardSimplex(d).facial_distance() == pytest.approx(expected, rel=1e-8)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_facial_distance_simplex_vs_bruteforce_split(d):
    # all vertex subsets of a simplex are faces, so the split loop is exact
    got = StandardSimplex(d).facial_distance()
    assert got == pytest.approx(simplex_split_psi_analytic(d), rel=1e-8)
    assert got == pytest.approx(brute_force_split_psi(StandardSimplex(d)),
                                rel=1e-5)


def test_facial_distance_l1ball_vs_bruteforce():
    p = L1Ball(2, 1.0)
    faces = [tuple(sorted(T)) for T in p._proper_faces()]
    oracle = brute_force_split_psi(p, faces=faces)
    got = p.facial_distance()
    assert got == pytest.approx(oracle, rel=1e-5)
    # distance from a vertex face to the hull of the remaining three
    assert got == pytest.approx(1.0, rel=1e-8)


def test_facial_distance_explicit_matches_combinatorial():
    got = ExplicitVertices(np.eye(3)).facial_distance()
    assert got == pytest.approx(StandardSimplex(3).facial_distance(), rel=1e-8)


def test_facial_distance_caps_and_degenerate():
    with pytest.raises(UnsupportedSizeError):
        L1Ball(7, 1.0).facial_distance()  # M = 14 > cap
    with pytest.raises(PolytopeError):
        ExplicitVertices([(1.0, 1.0)]).facial_distance()  # no proper face


def test_membership_formulas():
    s = StandardSimplex(4)
    assert s.contains(np.full(4, 0.25))
    assert not s.contains([0.5, 0.6, -0.1, 0.0])
    b = L1Ball(3, 2.0)
    assert b.contains([1.0, -0.5, 0.5])
    assert not b.contains([1.5, -1.0, 0.0])


def test_simplex_projection_sort_threshold_example():
    # threshold tau = 0.3 leaves (0.5, 0.5)
    assert np.allclose(project_simplex([0.8, 0.8]), [0.5, 0.5])


def test_simplex_projection_idempotent_on_feasible():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.random(6)
        x /= x.sum()
        assert np.allclose(project_simplex(x), x, atol=1e-12)


def test_simplex_projection_variational_inequality():
    rng = np.random.default_rng(3)
    eye = np.eye(5)
    for _ in range(50):
        y = 3 * rng.standard_normal(5)
        p = project_simplex(y)
        assert p.min() >= 0 and abs(p.sum() - 1) < 1e-12
        # <y - p, z - p> <= 0 for all feasible z (checked at the vertices)
        assert max((y - p) @ (eye[i] - p) for i in range(5)) <= 1e-9


def test_l1_projection_kkt_example():
    assert np.allclose(project_l1_ball(np.array([2.0, 0.0]), 1.0), [1.0, 0.0])
    x = np.array([0.3, -0.4])
    assert np.allclose(project_l1_ball(x, 1.0), x)


def test_l1_projection_variational_inequality():
    rng = np.random.default_rng(4)
    b = L1Ball(4, 1.5)
    V = b.vertex_matrix()
    for _ in range(50):
        y = 3 * rng.standard_normal(4)
        p = b.project(y)
        assert b.contains(p, tol=1e-10)
        assert max((y - p) @ (V[i] - p) for i in range(b.M)) <= 1e-9


def test_combination_and_scores_consistent():
    rng = np.random.default_rng(5)
    for poly in (StandardSimplex(4), L1Ball(3, 2.0),
                 ExplicitVertices(rng.standard_normal((5, 3)))):
        lam = rng.random(poly.M)
        lam /= lam.sum()
        x = poly.combination(lam)
        V = poly.vertex_matrix()
        assert np.allclose(x, V.T @ lam, atol=1e-12)
        g = rng.standard_normal(poly.d)
        assert np.allclose(poly.vertex_scores(g), V @ g, atol=1e-12)


def test_simplex_and_l1ball_geometric_constants():
    s = StandardSimplex(3)
    assert s.diameter() == pytest.approx(np.sqrt(2.0)) and s.diameter_exact
    assert s.facial_distance() == pytest.approx(np.sqrt(1.5), rel=1e-8)
    assert L1Ball(4, 2.0).diameter() == 4.0


def test_explicit_vertices_project_and_contains_match_l1_ball():
    # the listed-vertex projection (a weight-space QP) and membership test
    # against the l1 ball's closed forms, on points well inside, well
    # outside and within 1e-6 of the boundary on either side
    ball = L1Ball(6, 1.3)
    listed = ExplicitVertices(ball.vertex_matrix())
    rng = np.random.default_rng(6)
    worst = 0.0
    for k in range(20):
        y = rng.standard_normal(6)
        y *= (0.3, 3.0, 1.0 - 1e-6, 1.0 + 1e-6)[k % 4] * 1.3 / np.abs(y).sum()
        worst = max(worst, np.max(np.abs(listed.project(y)
                                         - project_l1_ball(y, 1.3))))
        assert listed.contains(y) == ball.contains(y) == (k % 4 in (0, 2))
    assert worst <= 1e-12
