import numpy as np
import pytest

from polycd.problems import (KdeSpec, LassoSpec, LogisticSpec, _design,
                             dump_tsv, gen_kde, gen_lasso, gen_logistic,
                             load_tsv)


def test_lasso_snr_identity_exact():
    n, snr = 120, 3.5
    spec = LassoSpec(n=n, d=40, r=8, snr=snr, seed=1)
    A, b, x_star, C = gen_lasso(spec)
    signal = A @ x_star
    # the noise scale is solved from the realized signal energy, so the
    # ratio ||A x*||^2 / (n sigma^2) is exact per instance; the noise in b
    # must then be sigma times a standard normal draw (chi-square check)
    sigma = np.linalg.norm(signal) / np.sqrt(n * snr)
    assert np.linalg.norm(signal) ** 2 / (n * sigma ** 2) == pytest.approx(snr)
    z = (b - signal) / sigma
    assert abs(z @ z - n) <= 5 * np.sqrt(2 * n)


def test_lasso_shapes_support_and_radius():
    spec = LassoSpec(n=50, d=30, r=7, snr=1.0, seed=0)
    A, b, x_star, C = gen_lasso(spec)
    assert A.shape == (50, 30) and b.shape == (50,)
    assert set(np.unique(x_star)) <= {0.0, 1.0}
    assert int(x_star.sum()) == 7
    assert C == 7.0  # binary support of size r


def test_lasso_seed_determinism():
    spec = LassoSpec(n=30, d=20, r=4, snr=2.0, seed=11)
    A1, b1, x1, _ = gen_lasso(spec)
    A2, b2, x2, _ = gen_lasso(LassoSpec(n=30, d=20, r=4, snr=2.0, seed=11))
    assert np.array_equal(A1, A2) and np.array_equal(b1, b2)
    A3, _, _, _ = gen_lasso(LassoSpec(n=30, d=20, r=4, snr=2.0, seed=12))
    assert not np.array_equal(A1, A3)


def test_design_covariance_monte_carlo():
    # empirical covariance of many rows matches 0.9 I + 0.1 11'
    spec = LassoSpec(n=100_000, d=5, r=1, snr=1.0, seed=3)
    A, _, _, _ = gen_lasso(spec)
    emp = A.T @ A / A.shape[0]
    want = 0.9 * np.eye(5) + 0.1 * np.ones((5, 5))
    assert np.max(np.abs(emp - want)) <= 0.02


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_design_in_place_matches_two_temporary_form(seed):
    # _design scales and shifts its draw in place; the bytes must be those
    # of sqrt(1 - rho) z + sqrt(rho) g 1 written with temporaries
    n, d, rho = 60, 45, 0.1
    A = _design(np.random.default_rng(seed), n, d, rho)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, d))
    g = rng.standard_normal(n)
    ref = np.sqrt(1.0 - rho) * z + np.sqrt(rho) * g[:, None]
    assert A.dtype == ref.dtype and A.shape == ref.shape
    assert A.tobytes() == ref.tobytes()


def test_logistic_labels_and_sigmoid_frequency():
    spec = LogisticSpec(n=100_000, d=4, r=4, s=1.0, seed=4)
    A, labels, x_star, C = gen_logistic(spec)
    assert set(np.unique(labels)) <= {-1.0, 1.0}
    margins = A @ x_star
    sel = np.abs(margins - 1.0) < 0.05  # rows with margin about 1
    freq = np.mean(labels[sel] == 1.0)
    assert freq == pytest.approx(1.0 / (1.0 + np.exp(-1.0)), abs=0.01)


def test_logistic_validation():
    with pytest.raises(ValueError):
        LogisticSpec(n=10, d=5, r=9)


def test_kde_split_counts():
    X, truth = gen_kde(KdeSpec(n=100, d=2, seed=0))
    assert truth["n_outliers"] == 1 and truth["n_inliers"] == 99
    X2, truth2 = gen_kde(KdeSpec(n=2350, d=2, seed=0))
    assert truth2["n_outliers"] == 23
    assert X2.shape == (2350, 2)


def test_kde_mixture_weights_and_params():
    X, truth = gen_kde(KdeSpec(n=500, d=3, m=10, seed=5))
    w = truth["weights"]
    assert w.shape == (10,) and w.min() > 0
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all((0.2 <= truth["comp_std"]) & (truth["comp_std"] <= 1.2))


def test_kde_inlier_mean_lln():
    spec = KdeSpec(n=100_000, d=2, seed=6)
    X, truth = gen_kde(spec)
    inl = X[:truth["n_inliers"]]
    want = truth["weights"] @ truth["means"]
    assert np.max(np.abs(inl.mean(axis=0) - want)) <= 0.1


def test_kde_outliers_are_wild():
    X, truth = gen_kde(KdeSpec(n=5000, d=2, seed=7))
    out = X[truth["n_inliers"]:]
    # std 50 per coordinate: sample std over 50 points is nowhere near the
    # inlier scale (means within N(0,16), component std <= 1.2)
    assert out.std() > 20.0


def test_kde_requires_min_size():
    with pytest.raises(ValueError):
        KdeSpec(n=50)


def test_simplex_uniformity_of_mixture_weights():
    # the weight sampler is normalized unit exponentials (uniform on the
    # simplex); each coordinate has mean 1/m over many draws
    rng = np.random.default_rng(123)
    draws = rng.exponential(size=(100_000, 10))
    draws /= draws.sum(axis=1, keepdims=True)
    assert np.max(np.abs(draws.mean(axis=0) - 0.1)) <= 0.01
    # and the generator consumes exactly that construction
    _, truth = gen_kde(KdeSpec(n=100, d=2, m=10, seed=9))
    rng2 = np.random.default_rng(9)
    w = rng2.exponential(size=10)
    assert np.allclose(truth["weights"], w / w.sum())


def test_tsv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(8)
    arr = rng.standard_normal((17, 3)) * np.exp(rng.uniform(-20, 20, (17, 3)))
    path = tmp_path / "dump.tsv"
    dump_tsv(path, arr)
    back = load_tsv(path)
    assert np.array_equal(arr, back)  # 17 significant digits round-trip
