"""Synthetic problem generators for the three benchmark families and the
simplex quadratic.

All generation is driven by numpy's default PCG64 generator seeded from the
spec's seed field, so identical specs reproduce identical data bytes across
platforms.  The generator name is recorded in experiment summaries.
"""

from dataclasses import dataclass

import numpy as np

RNG_NAME = "numpy default_rng (PCG64)"


@dataclass
class LassoSpec:
    n: int
    d: int
    r: int  # support size of the planted binary coefficient vector
    snr: float = 1.0
    rho: float = 0.1  # common off-diagonal correlation of the design
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.r <= self.d:
            raise ValueError("need 0 < r <= d")
        if not self.snr > 0:
            raise ValueError("snr must be positive")


@dataclass
class LogisticSpec:
    n: int
    d: int
    r: int
    s: float = 1.0  # signal scale inside the sampling sigmoid
    rho: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.r <= self.d:
            raise ValueError("need 0 < r <= d")


@dataclass
class KdeSpec:
    n: int
    d: int = 2
    m: int = 10  # mixture components
    outlier_rate: float = 0.01
    sigma_kernel: float = 1.0
    mu_huber: float = 0.4
    seed: int = 0

    def __post_init__(self):
        if self.n < 100:
            raise ValueError("need n >= 100 so at least one outlier is drawn")
        if self.m < 1:
            raise ValueError("need m >= 1 mixture components")
        # not <: a NaN rate is rejected too
        if not 0 <= self.outlier_rate < 1:
            raise ValueError("outlier_rate must lie in [0, 1)")


@dataclass
class QuadraticSpec:
    """The custom-simplex-quadratic instance: 0.5 x'Qx + q'x on the simplex
    of R^d (gen_quadratic)."""

    d: int
    mu: float = 0.0  # strong-convexity shift
    seed: int = 0

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("need d >= 1")


def _design(rng, n, d, rho):
    """Rows ~ N(0, (1-rho) I + rho 11'): diagonal 1, off-diagonal rho,
    sampled via the one-factor decomposition sqrt(1-rho) z + sqrt(rho) g 1,
    built in place in z so that no second n x d array is made."""
    z = rng.standard_normal((n, d))
    g = rng.standard_normal(n)
    z *= np.sqrt(1.0 - rho)
    z += np.sqrt(rho) * g[:, None]
    return z


def _sparse_binary(rng, d, r):
    support = rng.choice(d, size=r, replace=False)
    x = np.zeros(d)
    x[support] = 1.0
    return x


def gen_lasso(spec):
    """Returns (A, b, x_star, C) with b = A x* + noise, the noise scale
    solved from the realized signal energy so that
    ||A x*||^2 / (n sigma^2) equals spec.snr exactly, and C = ||x*||_1."""
    rng = np.random.default_rng(spec.seed)
    A = _design(rng, spec.n, spec.d, spec.rho)
    x_star = _sparse_binary(rng, spec.d, spec.r)
    noise = rng.standard_normal(spec.n)
    signal = A @ x_star
    sigma = np.linalg.norm(signal) / np.sqrt(spec.n * spec.snr)
    b = signal + sigma * noise
    return A, b, x_star, float(np.abs(x_star).sum())


def gen_logistic(spec):
    """Returns (A, labels, x_star, C) with P(label=+1) = sigmoid(s a' x*)."""
    rng = np.random.default_rng(spec.seed)
    A = _design(rng, spec.n, spec.d, spec.rho)
    x_star = _sparse_binary(rng, spec.d, spec.r)
    margins = spec.s * (A @ x_star)
    prob_pos = 1.0 / (1.0 + np.exp(-margins))
    labels = np.where(rng.random(spec.n) < prob_pos, 1.0, -1.0)
    return A, labels, x_star, float(np.abs(x_star).sum())


def gen_kde(spec):
    """Sample points for the density experiment: a Gaussian mixture with
    uniformly random weights on the simplex, means ~ N(0, 16 I), component
    scales ~ U[0.2, 1.2]; floor(n * outlier_rate) points are replaced by
    far outliers from N(0, 2500 I).

    Returns (X, truth) where truth records the mixture parameters and the
    inlier/outlier split.
    """
    rng = np.random.default_rng(spec.seed)
    # uniform on the simplex via normalized unit exponentials
    weights = rng.exponential(size=spec.m)
    weights /= weights.sum()
    means = 4.0 * rng.standard_normal((spec.m, spec.d))
    comp_std = rng.uniform(0.2, 1.2, size=spec.m)
    n0 = int(np.floor(spec.n * spec.outlier_rate + 1e-12))
    n1 = spec.n - n0
    comps = rng.choice(spec.m, size=n1, p=weights)
    inliers = means[comps] + comp_std[comps, None] * rng.standard_normal((n1, spec.d))
    outliers = 50.0 * rng.standard_normal((n0, spec.d))
    X = np.vstack([inliers, outliers])
    truth = {
        "weights": weights,
        "means": means,
        "comp_std": comp_std,
        "n_inliers": n1,
        "n_outliers": n0,
    }
    return X, truth


def gen_quadratic(spec):
    """Returns (Q, q) with Q = B'B / d + mu I for a standard normal 2d x d
    matrix B and a standard normal q."""
    rng = np.random.default_rng(spec.seed)
    d = spec.d
    B = rng.standard_normal((2 * d, d))
    Q = B.T @ B / d + spec.mu * np.eye(d)
    return Q, rng.standard_normal(d)


def dump_tsv(path, arr):
    """Write an array as tab-separated text, one row per sample, at 17
    significant digits (round-trips float64 exactly)."""
    np.savetxt(path, np.atleast_2d(arr), fmt="%.17g", delimiter="\t")


def load_tsv(path):
    return np.loadtxt(path, delimiter="\t", ndmin=2)
