"""Random convex quadratics on the standard simplex, shared by the test
modules."""

import numpy as np

from polycd import Quadratic, StandardSimplex


def random_quadratic(M, seed, mu=0.0):
    """0.5 x'Qx + q'x on StandardSimplex(M), with Q = B'B / M + mu I for a
    standard normal (M + 2) x M matrix B and a standard normal q."""
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((M + 2, M))
    Q = B.T @ B / M + mu * np.eye(M)
    return Quadratic(Q, rng.standard_normal(M), poly=StandardSimplex(M))
