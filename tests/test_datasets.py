import inspect

import numpy as np
import pytest
from scipy.stats import norm

from gapshrink.datasets import gen_fused_probit, gen_lowrank_sparse, gen_sparse_regression


class TestSparseRegressionData:
    def test_shapes_and_support(self):
        X, y, theta0 = gen_sparse_regression(0)
        assert X.shape == (200, 500)
        assert y.shape == (200,)
        assert np.count_nonzero(theta0) == 5

    def test_nonzero_values_from_declared_set(self):
        for seed in range(5):
            _, _, theta0 = gen_sparse_regression(seed)
            vals = theta0[theta0 != 0]
            assert set(np.abs(vals)).issubset({2.0, 4.0})

    def test_design_is_standard_normal(self):
        X, _, _ = gen_sparse_regression(1)
        col_means = X.mean(axis=0)
        # column means sit near zero (sd 1/sqrt(200) each)
        assert np.mean(np.abs(col_means) < 0.2) > 0.99
        assert abs(col_means.mean()) < 0.01
        assert abs(X.std() - 1.0) < 0.05

    def test_deterministic(self):
        X1, y1, t1 = gen_sparse_regression(3)
        X2, y2, t2 = gen_sparse_regression(3)
        np.testing.assert_array_equal(X1, X2)
        np.testing.assert_array_equal(y1, y2)
        np.testing.assert_array_equal(t1, t2)


class TestLowRankSparseData:
    def test_frobenius_norm(self):
        _, theta0 = gen_lowrank_sparse(0)
        assert np.linalg.norm(theta0) == pytest.approx(12.85, abs=0.01)

    def test_sparsity_fraction_exact(self):
        _, theta0 = gen_lowrank_sparse(0)
        assert np.mean(theta0 == 0) == pytest.approx(1925 / 2000)

    def test_singular_values(self):
        _, theta0 = gen_lowrank_sparse(0)
        sv = np.linalg.svd(theta0, compute_uv=False)
        np.testing.assert_allclose(sv[:3], [10.0, 7.0, 4.0], atol=1e-10)
        np.testing.assert_allclose(sv[3:], 0.0, atol=1e-10)

    def test_stack_shape_and_noise(self):
        Y, theta0 = gen_lowrank_sparse(0)
        assert Y.shape == (100, 50, 40)
        resid = Y - theta0
        assert resid.std() == pytest.approx(0.3, abs=0.01)


class TestFusedProbitData:
    def test_department_constant_rows(self):
        _, _, deps, theta0 = gen_fused_probit(0, m=8, p=2, n=100)
        for g in deps:
            for j in g:
                np.testing.assert_array_equal(theta0[j], theta0[g[0]])

    def test_link_matches_empirical_rates(self):
        n = 40_000
        Y, X, _, theta0 = gen_fused_probit(1, m=4, p=2, n=n)
        probs = norm.cdf(X @ theta0.T)
        # cellwise binomial tolerance
        emp = Y.mean(axis=0)
        assert np.max(np.abs(emp - probs.mean(axis=0))) < 3.0 / np.sqrt(n) + 0.01

    def test_deviant_raises_pairwise_gaps(self):
        _, _, deps, theta0 = gen_fused_probit(2, m=8, p=2, n=100, deviant=0)
        group = [g for g in deps if 0 in g][0]
        others = [j for j in group if j != 0]
        gaps = [np.max(np.abs(theta0[0] - theta0[j])) for j in others]
        assert min(gaps) >= 1.0

    @pytest.mark.parametrize("deviant", [-1, 8, 1.0, True])
    def test_deviant_must_be_a_category_index(self, deviant):
        # -1 shifted the last category and True every category; 8 and 1.0
        # failed with a bare IndexError
        with pytest.raises(ValueError, match="deviant"):
            gen_fused_probit(0, m=8, p=2, n=10, deviant=deviant)

    def test_departments_are_the_halves(self):
        _, _, deps, _ = gen_fused_probit(0, m=5, p=2, n=10)
        assert deps == [[0, 1], [2, 3, 4]]


def test_generator_parameters():
    # the data sit at the paper's fixed settings; only exp3's category
    # count, covariate count, sample size and deviant are settable
    def params(f):
        return list(inspect.signature(f).parameters)

    assert params(gen_sparse_regression) == ["seed"]
    assert params(gen_lowrank_sparse) == ["seed"]
    assert params(gen_fused_probit) == ["seed", "m", "p", "n", "deviant"]
