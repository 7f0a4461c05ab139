import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from spherekern import (
    ConfidenceParams,
    ConfigurationError,
    DomainError,
    FittedRegressor,
    IllConditionedGramError,
    MaternSpec,
    ParameterError,
    SphericalDataset,
    confidence_band,
    effective_dimension,
    fit,
    greedy_max_variance,
    information_gain,
    make_kernel,
    make_synthetic,
    predict_mean,
    predict_variance,
    sample_sphere,
    variance_sum_check,
)
from spherekern import kernels, regression
from spherekern.regression import _chol_with_jitter

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])

_NT1 = make_kernel("nt", 1)
_DATA = SphericalDataset(np.eye(3), [1.0, 2.0, 3.0])

# Every library range check on a float parameter, as a call with the bad value.
_RANGE_CHECKS = {
    "MaternSpec.nu": lambda v: MaternSpec(nu=v, d=3),
    "MaternSpec.lengthscale": lambda v: MaternSpec(nu=1.5, d=3, lengthscale=v),
    "make_synthetic.ridge": lambda v: make_synthetic(_NT1, 3, n0=5, ridge=v,
                                                     range_sample=50),
    "FittedRegressor.empty.lam": lambda v: FittedRegressor.empty(_NT1, v),
    "fit.lam": lambda v: fit(_NT1, _DATA, v),
    "_infogain_summary.lam": lambda v: regression._infogain_summary(_NT1, np.eye(3), v),
    "information_gain.lam": lambda v: information_gain(_NT1, np.eye(3), v),
    "greedy_max_variance.lam": lambda v: greedy_max_variance(_NT1, np.eye(3), 2, v),
    "SphericalDataset.noise_scale":
        lambda v: SphericalDataset(np.eye(3), [1.0, 2.0, 3.0], noise_scale=v),
    "ConfidenceParams.noise_scale": lambda v: ConfidenceParams(1.0, v, 0.1),
    "ConfidenceParams.norm_bound": lambda v: ConfidenceParams(v, 0.1, 0.1),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("entry", sorted(_RANGE_CHECKS))
def test_range_checks_reject_nan_inf_and_negative(entry, value):
    """NaN and inf fail the same check as a negative value, with its message."""
    with pytest.raises(ParameterError, match="must be (positive|nonnegative)"):
        _RANGE_CHECKS[entry](value)


@pytest.mark.parametrize("lam", [1e-200, 1e-160, 1e154, 1e200])
@pytest.mark.parametrize("entry", sorted(e for e in _RANGE_CHECKS if e.endswith(".lam")))
def test_lam_square_must_be_a_normal_float(entry, lam):
    """lam^2 of 0 (1e-200), subnormal (1e-160) or inf (1e200), or 1/lam^2
    subnormal (1e154), is a ParameterError."""
    with pytest.raises(ParameterError, match=r"lam\^2 and 1/lam\^2 normal floats"):
        _RANGE_CHECKS[entry](lam)


def test_fit_at_the_top_of_the_lam_range_needs_no_jitter():
    """n lam^2 overflows at lam = 6e153, so the jitter scale trace/n is inf;
    a factor that succeeds on the first rung reports jitter 0.0, not 0 * inf."""
    model = fit(_NT1, SphericalDataset(sample_sphere(3, 8, 0), np.zeros(8)), 6e153)
    assert model.jitter == 0.0


class TestSphericalDataset:
    def test_holds_data(self):
        ds = SphericalDataset(np.eye(3), [1.0, 2.0, 3.0], noise_scale=0.2)
        assert len(ds) == 3
        assert ds.d == 3
        assert ds.noise_scale == 0.2

    def test_rejects_non_unit_input(self):
        with pytest.raises(DomainError, match="input 1"):
            SphericalDataset(np.array([[1.0, 0, 0], [0, 0.5, 0]]), [1.0, 2.0])
        with pytest.raises(DomainError, match="input 1"):
            SphericalDataset(np.array([[1.0, 0, 0], [0, np.nan, 0]]), [1.0, 2.0])

    def test_rejects_non_finite_values(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(DomainError, match="value 1"):
                SphericalDataset(np.eye(3), [1.0, bad, 0.0])

    def test_caller_arrays_stay_writable(self):
        X, Y = np.eye(3), np.array([1.0, 2.0, 3.0])
        ds = SphericalDataset(X, Y)
        assert X.flags.writeable and Y.flags.writeable
        assert not ds.X.flags.writeable and not ds.Y.flags.writeable
        X[0, 0] = 0.0
        assert ds.X[0, 0] == 1.0

    def test_rejects_length_mismatch(self):
        with pytest.raises(ParameterError):
            SphericalDataset(np.eye(3), [1.0, 2.0])

    def test_rejects_negative_noise(self):
        with pytest.raises(ParameterError):
            SphericalDataset(np.eye(2), [0.0, 0.0], noise_scale=-1.0)


class TestSampleSphere:
    def test_deterministic(self):
        assert_allclose(sample_sphere(3, 5, 7), sample_sphere(3, 5, 7), rtol=0)

    def test_unit_norm(self):
        X = sample_sphere(5, 200, 0)
        assert_allclose(np.linalg.norm(X, axis=1), 1.0, atol=1e-12)

    def test_coordinate_means_centered(self):
        """Uniform sphere coordinates are mean-zero (CLT scale check)."""
        X = sample_sphere(3, 10_000, 1)
        assert np.all(np.abs(X.mean(axis=0)) < 0.05)

    def test_single_point_d2(self):
        X = sample_sphere(2, 1, 3)
        assert X.shape == (1, 2)
        assert_allclose(np.linalg.norm(X[0]), 1.0, atol=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ParameterError):
            sample_sphere(1, 5, 0)
        with pytest.raises(ParameterError):
            sample_sphere(3, 0, 0)


class TestFit:
    def test_single_point_shrinkage(self):
        """n=1 prediction is y scaled by kappa(1)/(kappa(1) + lam^2)."""
        for fam, s, lam, y in [("nt", 1, 1.0, 1.5), ("rf", 2, 0.5, -2.0), ("nt", 3, 2.0, 0.7)]:
            k = make_kernel(fam, s)
            model = fit(k, SphericalDataset(E1[None, :], [y]), lam)
            expected = y * k.kappa_one / (k.kappa_one + lam * lam)
            assert_allclose(predict_mean(model, E1), expected, rtol=1e-12)

    def test_nt1_single_point_two_thirds(self):
        model = fit(make_kernel("nt", 1), SphericalDataset(E1[None, :], [1.0]), 1.0)
        assert_allclose(predict_mean(model, E1), 2.0 / 3.0, rtol=1e-12)

    def test_factor_reproduces_system(self):
        """L L^T recovers K + lam^2 I within 1e-8 relative Frobenius error."""
        k = make_kernel("nt", 1)
        X = sample_sphere(3, 30, 11)
        model = fit(k, SphericalDataset(X, np.zeros(30)), 0.1)
        from spherekern import gram

        A = gram(k, X) + 0.01 * np.eye(30)
        err = np.linalg.norm(model.L @ model.L.T - A) / np.linalg.norm(A)
        assert err < 1e-8

    def test_dual_weights_solve_system(self):
        """(K + lam^2 I) alpha = Y within 1e-8 relative residual."""
        k = make_kernel("rf", 1)
        rng = np.random.default_rng(5)
        X = sample_sphere(4, 25, 2)
        Y = rng.standard_normal(25)
        model = fit(k, SphericalDataset(X, Y), 0.3)
        from spherekern import gram

        A = gram(k, X) + 0.09 * np.eye(25)
        resid = np.linalg.norm(A @ model.alpha - Y) / np.linalg.norm(Y)
        assert resid < 1e-8

    def test_duplicate_point_matches_2x2_oracle(self):
        """Duplicated inputs fit fine and halve the effective regularization."""
        k = make_kernel("nt", 1)
        X = np.vstack([E1, E1])
        model = fit(k, SphericalDataset(X, [1.0, 1.0]), 1.0)
        A = np.array([[3.0, 2.0], [2.0, 3.0]])
        w = np.linalg.solve(A, np.ones(2))
        assert_allclose(predict_mean(model, E1), 2.0 * w.sum(), rtol=1e-10)
        single_halved = 2.0 / (2.0 + 0.5)  # kappa/(kappa + lam^2/2)
        assert_allclose(predict_mean(model, E1), single_halved, rtol=1e-10)

    def test_rejects_empty_dataset(self):
        ds = SphericalDataset(np.empty((0, 3)), [])
        with pytest.raises(ConfigurationError):
            fit(make_kernel("nt", 1), ds, 1.0)

    def test_rejects_nonpositive_lam(self):
        ds = SphericalDataset(E1[None, :], [1.0])
        with pytest.raises(ParameterError):
            fit(make_kernel("nt", 1), ds, 0.0)

    def test_indefinite_system_raises(self):
        """A matrix no ladder jitter can make positive definite fails cleanly."""
        with pytest.raises(IllConditionedGramError, match="diagonal ratio"):
            _chol_with_jitter(lambda: np.array([[1.0, 2.0], [2.0, 1.0]]))


def _copying_ladder(A):
    """The jitter ladder that shifts a copy of A on each rung (the reference)."""
    n = A.shape[0]
    scale = float(np.trace(A)) / max(n, 1)
    for level in regression.JITTER_LADDER:
        shifted = A if level == 0.0 else A + (level * scale) * np.eye(n)
        try:
            return regression.cholesky(shifted), level * scale
        except np.linalg.LinAlgError:
            continue
    raise AssertionError("the reference ladder failed")


class TestJitterLadder:
    """One ladder factors a fresh build() in place on each rung."""

    @staticmethod
    def _slightly_indefinite(n=40, seed=4):
        """Exactly symmetric, smallest eigenvalue -1e-11 * trace/n: rung 0 fails."""
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
        eig = np.linspace(1.0, 2.0, n)
        eig[0] = -1e-11 * eig.mean()
        A = (q * eig) @ q.T
        return (A + A.T) / 2.0

    def test_matches_the_copying_ladder_bitwise(self):
        A = self._slightly_indefinite()
        with pytest.raises(np.linalg.LinAlgError):
            scipy.linalg.cholesky(A, lower=True)
        L_ref, jitter_ref = _copying_ladder(A)
        L, jitter = _chol_with_jitter(A.copy)
        assert jitter == jitter_ref > 0.0
        assert L.tobytes(order="A") == L_ref.tobytes(order="A")
        assert L.flags.c_contiguous and L_ref.flags.c_contiguous

    def test_builds_once_per_rung(self):
        builds = []

        def build(A):
            builds.append(1)
            return A.copy()

        A = self._slightly_indefinite()
        _chol_with_jitter(lambda: build(A))
        assert len(builds) == 2
        builds.clear()
        with pytest.raises(IllConditionedGramError):
            _chol_with_jitter(lambda: build(np.array([[1.0, 3.0], [3.0, 2.0]])))
        assert len(builds) == len(regression.JITTER_LADDER)

    def test_failure_reports_the_original_diagonal(self):
        """The failed rungs overwrite the buffer; the message keeps diag(A)."""
        with pytest.raises(IllConditionedGramError, match=r"max/min 4\.000e\+00"):
            _chol_with_jitter(lambda: np.array([[1.0, 3.0], [3.0, 4.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("i, j", [(0, 1), (2, 3), (0, 0), (3, 3)])
    def test_non_finite_entry_never_returns_a_factor(self, bad, i, j):
        """LAPACK gets the buffer unchecked; a NaN or inf it reads, on or off the
        diagonal, fails every rung instead of coming back inside L."""
        def build():
            A = np.eye(4) + 0.25
            A[i, j] = A[j, i] = bad
            return A

        with pytest.raises(IllConditionedGramError):
            _chol_with_jitter(build)


def _ridge_gram(n, shift=0.1):
    """K + shift I of n random points for NT s = 2 on S^2; its condition
    number grows to about 5e3 at n = 1025.  n = 0 gives the empty system,
    which sample_sphere cannot draw."""
    if n == 0:
        return np.zeros((0, 0))
    A = kernels.gram(make_kernel("nt", 2), sample_sphere(3, n, n))
    A.flat[:: n + 1] += shift
    return A


# 0, the empty system; 1; 31, 32 and 33 on both sides of the solves' 32-row
# recursion leaf (33 splits unevenly, into 16 and 17 rows); 96, which splits
# twice, into leaves of 24; 63, 64, 65 and 3B + 5 for B = 64, the smallest
# factor block; and one n on each side of every change of the factor's
# regression._block_size (512 | 513, 1024 | 1025).
_FACTOR_SIZES = (0, 1, 31, 32, 33, 63, 64, 65, 96, 197, 512, 513, 1024, 1025)
# At condition numbers up to 5e3 both factors (and both solutions) lie within
# about cond * eps = 1e-12 of the exact ones; measured against scipy.linalg
# the differences stay below 1.5e-14 of the largest entry, so allow 3e-14.
_FACTOR_RTOL = 3e-14


def _max_gap(got, want):
    return np.abs(got - want).max(initial=0.0) / np.abs(want).max(initial=1.0)


class TestFactorization:
    """The numpy-only Cholesky factor and triangular solves against scipy.linalg."""

    @pytest.mark.parametrize("n", _FACTOR_SIZES)
    def test_cholesky_matches_scipy(self, n):
        A = _ridge_gram(n)
        before = A.copy()
        L = regression.cholesky(A)
        assert np.array_equal(A, before)
        assert _max_gap(L, scipy.linalg.cholesky(A, lower=True)) <= _FACTOR_RTOL
        assert not np.triu(L, 1).any()
        assert L.flags.c_contiguous

    def test_cholesky_in_place_reads_the_lower_triangle_only(self):
        A = _ridge_gram(197)
        L = regression.cholesky(A)
        garbled = A.copy()
        garbled[np.triu_indices(197, 1)] = np.nan
        assert regression.cholesky(garbled, overwrite_a=True) is garbled
        assert garbled.tobytes() == L.tobytes()
        fortran = np.asfortranarray(A)
        assert regression.cholesky(fortran, overwrite_a=True).tobytes() == L.tobytes()
        assert np.array_equal(fortran, A)  # a Fortran-ordered input is copied

    @pytest.mark.parametrize("block", range(4))
    def test_non_positive_definite_block_raises(self, block):
        """n = 197 has blocks at rows 0, 64, 128 and 192, the last one partial."""
        A = _ridge_gram(197)
        A[64 * block + 3, 64 * block + 3] = -1.0
        with pytest.raises(np.linalg.LinAlgError):
            regression.cholesky(A)

    @pytest.mark.parametrize("columns", [None, 7])
    @pytest.mark.parametrize("trans", ["N", "T"])
    @pytest.mark.parametrize("n", _FACTOR_SIZES)
    def test_solve_triangular_matches_scipy(self, n, trans, columns):
        L = regression.cholesky(_ridge_gram(n))
        b = np.random.default_rng(n).standard_normal(n if columns is None else (n, columns))
        want = scipy.linalg.solve_triangular(L, b, lower=True, trans=trans)
        before = b.copy()
        L_garbled = L.copy()
        L_garbled[np.triu_indices(n, 1)] = np.nan  # the strict upper triangle is not read
        x = regression.solve_triangular(L_garbled, b, trans=trans)
        assert np.array_equal(b, before) and x.shape == b.shape
        assert _max_gap(x, want) <= _FACTOR_RTOL
        assert regression.solve_triangular(L, b, trans=trans, overwrite_b=True) is b
        assert b.tobytes() == x.tobytes()

    def test_solve_triangular_rejects_other_shapes(self):
        """b is n or n x k: a 3-D b, whose non-contiguous copy the solve would
        not write back, a scalar and a b of the wrong length raise."""
        L = regression.cholesky(_ridge_gram(2))
        for b in (np.ones((3, 2, 2)).transpose(1, 0, 2), np.ones((2, 2, 2)), 1.0, np.ones(3)):
            with pytest.raises(ValueError):
                regression.solve_triangular(L, b)

    @pytest.mark.parametrize("n", [0, 1, 65, 1025])
    def test_cho_solve_matches_scipy(self, n):
        L = regression.cholesky(_ridge_gram(n))
        b = np.random.default_rng(n).standard_normal((n, 3))
        want = scipy.linalg.cho_solve((L, True), b)
        assert _max_gap(regression.cho_solve(L, b), want) <= _FACTOR_RTOL

    @pytest.mark.parametrize("n", _FACTOR_SIZES)
    def test_inverse_row_squares_match_the_full_inverse(self, n):
        """The effective dimension's row norms of L^{-1}, one column block at a
        time, against scipy's n x n inverse."""
        L = regression.cholesky(_ridge_gram(n))
        before = L.copy()
        want = regression._strict_row_squares(
            scipy.linalg.solve_triangular(L, np.eye(n), lower=True))
        got = regression._inverse_row_squares(L)
        assert np.array_equal(L, before)
        assert _max_gap(got, want) <= _FACTOR_RTOL


class TestMemoryCeilings:
    """One n x n buffer per point set: the Gram, its shift and its factor share it."""

    N = 1024

    def _peak(self, call):
        points = sample_sphere(3, self.N, 6)
        kernel = make_kernel("nt", 2)
        tracemalloc.start()
        try:
            call(kernel, points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / (8.0 * self.N * self.N)

    def test_gram(self):
        assert self._peak(kernels.gram) < 1.5

    def test_ridge_factor(self):
        assert self._peak(lambda k, x: regression._ridge_factor(k, x, 0.01)) < 1.5

    def test_infogain_summary_with_effective_dimension(self):
        assert self._peak(lambda k, x: regression._infogain_summary(k, x, 0.1)) < 2.5


class TestPredict:
    def test_empty_model_prior(self):
        model = FittedRegressor.empty(make_kernel("nt", 1), 1.0)
        assert predict_mean(model, E2) == 0.0
        assert predict_variance(model, E2) == 2.0

    def test_variance_pinned_values(self):
        model = fit(make_kernel("nt", 1), SphericalDataset(E1[None, :], [0.0]), 1.0)
        assert_allclose(predict_variance(model, E1), 2.0 - 4.0 / 3.0, rtol=1e-10)
        assert_allclose(
            predict_variance(model, E2), 2.0 - (1.0 / np.pi) ** 2 / 3.0, rtol=1e-10
        )

    def test_variance_at_training_point_bound(self):
        """For n=1 the training-point variance equals lam^2 kappa/(kappa+lam^2)."""
        for lam in (0.1, 1.0, 3.0):
            k = make_kernel("rf", 2)
            model = fit(k, SphericalDataset(E1[None, :], [1.0]), lam)
            bound = lam * lam * k.kappa_one / (k.kappa_one + lam * lam)
            assert predict_variance(model, E1) <= bound + 1e-8

    def test_mean_linear_in_values(self):
        """Scaling Y scales predictions; variance ignores Y entirely."""
        k = make_kernel("nt", 2)
        X = sample_sphere(3, 12, 4)
        rng = np.random.default_rng(9)
        Y = rng.standard_normal(12)
        t = sample_sphere(3, 20, 5)
        m1 = fit(k, SphericalDataset(X, Y), 0.5)
        m2 = fit(k, SphericalDataset(X, 2.0 * Y), 0.5)
        assert_allclose(predict_mean(m2, t), 2.0 * predict_mean(m1, t), rtol=1e-10)
        assert_allclose(predict_variance(m2, t), predict_variance(m1, t), rtol=0)

    def test_variance_within_prior_range(self):
        k = make_kernel("nt", 1)
        X = sample_sphere(3, 40, 8)
        model = fit(k, SphericalDataset(X, np.zeros(40)), 0.2)
        var = predict_variance(model, sample_sphere(3, 200, 9))
        assert var.min() >= 0.0
        assert var.max() <= k.kappa_one

    def test_interpolation_at_small_lam(self):
        """lam -> 0 recovers training values on well-conditioned Grams."""
        k = make_kernel("nt", 1)
        X = sample_sphere(3, 15, 21)
        rng = np.random.default_rng(22)
        Y = rng.standard_normal(15) + 2.0
        model = fit(k, SphericalDataset(X, Y), 1e-4)
        pred = predict_mean(model, X)
        assert np.max(np.abs(pred - Y) / np.abs(Y)) < 1e-2

    def test_monotone_variance_shrinkage(self):
        """Adding training points never raises posterior variance."""
        k = make_kernel("rf", 1)
        X = sample_sphere(3, 30, 13)
        t = sample_sphere(3, 50, 14)
        var_prev = np.full(50, k.kappa_one)
        for n in (5, 10, 20, 30):
            model = fit(k, SphericalDataset(X[:n], np.zeros(n)), 0.7)
            var = predict_variance(model, t)
            assert np.all(var <= var_prev + 1e-8)
            var_prev = var

    @pytest.mark.parametrize("predict", [predict_mean, predict_variance])
    def test_one_unit_check_per_prediction(self, monkeypatch, predict):
        """Test points are checked once; the training points were checked at fit time."""
        model = fit(make_kernel("nt", 1), SphericalDataset(sample_sphere(3, 6, 1), np.ones(6)),
                    1.0)
        calls = []
        real = kernels._check_unit_rows

        def counting(points, *args, **kwargs):
            calls.append(np.shape(points))
            return real(points, *args, **kwargs)

        monkeypatch.setattr(kernels, "_check_unit_rows", counting)
        monkeypatch.setattr(regression, "_check_unit_rows", counting)
        predict(model, sample_sphere(3, 4, 2))
        assert calls == [(4, 3)]

    @pytest.mark.parametrize("model", [fit(_NT1, _DATA, 1.0), FittedRegressor.empty(_NT1, 1.0)],
                             ids=["fitted", "empty"])
    def test_rejects_test_points_of_another_dimension(self, model):
        """A 4-d point against a 3-d model is a DomainError that names both
        dimensions, not numpy's shape error."""
        params = ConfidenceParams(1.0, 0.1, 0.1)
        for predict in (predict_mean, predict_variance,
                        lambda m, x: confidence_band(m, x, params)):
            with pytest.raises(DomainError, match="dimension 4, .* dimension 3"):
                predict(model, np.eye(4)[:1])

    def test_mean_streams_the_test_points(self):
        """20 000 test points against a 500-point model peak under 2 MB, where
        the whole 20 000 x 500 cross Gram would take 80 MB."""
        kernel = make_kernel("nt", 2)
        model = fit(kernel, SphericalDataset(sample_sphere(3, 500, 1), np.ones(500)), 0.5)
        points = sample_sphere(3, 20_000, 2)
        tracemalloc.start()
        try:
            predict_mean(model, points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_regressor_checks_its_training_points(self):
        with pytest.raises(DomainError, match="training point 1"):
            FittedRegressor(_NT1, np.array([E1, 2.0 * E2]), 1.0, np.eye(2), np.ones(2))

    def test_rejects_non_unit_test_point(self):
        model = fit(make_kernel("nt", 1), SphericalDataset(E1[None, :], [1.0]), 1.0)
        with pytest.raises(DomainError):
            predict_mean(model, np.array([1.0, 1.0, 0.0]))
        with pytest.raises(DomainError):
            predict_variance(model, np.array([0.0, 0.0, 0.5]))
        with pytest.raises(DomainError):
            predict_mean(model, np.array([np.nan, 0.0, 0.0]))
        with pytest.raises(DomainError):
            predict_variance(model, np.array([[1.0, 0.0, 0.0], [0.0, np.nan, 0.0]]))


class TestConfidenceBand:
    def test_beta_pinned(self):
        params = ConfidenceParams(norm_bound=1.0, noise_scale=1.0, delta=np.exp(-2.0))
        assert_allclose(params.beta(1.0), 3.0, rtol=1e-14)

    def test_noiseless_band_is_sigma(self):
        model = fit(make_kernel("nt", 1), SphericalDataset(E1[None, :], [1.0]), 1.0)
        params = ConfidenceParams(norm_bound=1.0, noise_scale=0.0, delta=0.3)
        assert_allclose(
            confidence_band(model, E2, params),
            np.sqrt(predict_variance(model, E2)),
            rtol=1e-12,
        )

    def test_empty_model_band(self):
        model = FittedRegressor.empty(make_kernel("nt", 1), 1.0)
        params = ConfidenceParams(norm_bound=1.0, noise_scale=0.0, delta=0.5)
        assert_allclose(confidence_band(model, E1, params), np.sqrt(2.0), rtol=1e-14)

    def test_monotone_in_parameters(self):
        model = fit(make_kernel("nt", 1), SphericalDataset(E1[None, :], [1.0]), 0.5)
        base = confidence_band(model, E2, ConfidenceParams(1.0, 1.0, 0.1))
        assert confidence_band(model, E2, ConfidenceParams(2.0, 1.0, 0.1)) > base
        assert confidence_band(model, E2, ConfidenceParams(1.0, 2.0, 0.1)) > base
        assert confidence_band(model, E2, ConfidenceParams(1.0, 1.0, 0.01)) > base

    def test_rejects_bad_delta(self):
        with pytest.raises(ParameterError):
            ConfidenceParams(1.0, 1.0, 0.0)
        with pytest.raises(ParameterError):
            ConfidenceParams(1.0, 1.0, 1.0)


class TestInformationGain:
    def test_single_point_pinned(self):
        assert_allclose(
            information_gain(make_kernel("nt", 1), E1[None, :], 1.0),
            0.5 * np.log(3.0),
            rtol=1e-12,
        )

    def test_antipodal_pair_pinned(self):
        pts = np.vstack([E1, -E1])
        assert_allclose(
            information_gain(make_kernel("rf", 1), pts, 1.0), np.log(2.0), rtol=1e-12
        )
        assert_allclose(
            effective_dimension(make_kernel("rf", 1), pts, 1.0), 1.0, rtol=1e-12
        )

    def test_vanishes_at_large_lam(self):
        pts = sample_sphere(3, 10, 1)
        assert information_gain(make_kernel("nt", 1), pts, 100.0) < 1e-3
        assert effective_dimension(make_kernel("nt", 1), pts, 100.0) < 1e-2

    def test_monotone_in_nested_sets(self):
        k = make_kernel("nt", 1)
        X = sample_sphere(3, 25, 17)
        gains = [information_gain(k, X[:n], 0.5) for n in (5, 10, 15, 25)]
        assert all(g >= 0 for g in gains)
        assert np.all(np.diff(gains) >= -1e-12)

    def test_matches_eigenvalue_identities(self):
        """Factor-based I and d_eff agree with their spectral definitions."""
        k = make_kernel("nt", 2)
        X = sample_sphere(4, 30, 19)
        lam = 0.4
        from spherekern import gram

        mu = np.linalg.eigvalsh(gram(k, X))
        mu = np.clip(mu, 0.0, None)
        I_spec = 0.5 * np.sum(np.log1p(mu / lam**2))
        d_spec = np.sum(mu / (mu + lam**2))
        assert_allclose(information_gain(k, X, lam), I_spec, rtol=1e-8)
        assert_allclose(effective_dimension(k, X, lam), d_spec, rtol=1e-8)

    def test_only_effective_dimension_forms_the_inverse_factor(self, monkeypatch):
        """The n x n triangular solve runs for the effective dimension alone."""
        real = regression.solve_triangular
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(regression, "solve_triangular", counting)
        k, X = make_kernel("nt", 2), sample_sphere(3, 20, 4)
        information_gain(k, X, 0.5)
        variance_sum_check(k, X, 0.5)
        assert not calls
        effective_dimension(k, X, 0.5)
        assert len(calls) == 1

    def test_effective_dim_at_most_n(self):
        k = make_kernel("rf", 1)
        for n in (3, 8, 20):
            X = sample_sphere(3, n, n)
            d_eff = effective_dimension(k, X, 0.1)
            assert 0.0 <= d_eff <= n


def _greedy_bruteforce(kernel, grid, n, lam):
    """Reference greedy: refit from scratch each step via the public API."""
    selected = []
    variances = []
    for _ in range(n):
        if selected:
            ds = SphericalDataset(grid[selected], np.zeros(len(selected)))
            model = fit(kernel, ds, lam)
            var = predict_variance(model, grid)
        else:
            var = np.full(grid.shape[0], kernel.kappa_one)
        j = int(np.argmax(var))
        selected.append(j)
        variances.append(var[j])
    return np.array(selected), np.array(variances)


class TestGreedyMaxVariance:
    def test_first_selection_is_index_zero(self):
        """sigma_0 is constant on the sphere, so ties break to index 0."""
        grid = sample_sphere(3, 30, 3)
        trace = greedy_max_variance(make_kernel("nt", 1), grid, 3, 1.0)
        assert trace.selected_indices[0] == 0
        assert_allclose(trace.selected_variance[0], 2.0, rtol=1e-12)

    def test_selected_variances_nonincreasing(self):
        grid = sample_sphere(3, 100, 6)
        trace = greedy_max_variance(make_kernel("nt", 1), grid, 32, 1.0)
        assert np.all(np.diff(trace.selected_variance) <= 1e-10)

    def test_matches_bruteforce_on_small_grids(self):
        """The incremental updates reproduce step-by-step refitting."""
        for seed in (0, 1, 2):
            grid = sample_sphere(3, 20, seed)
            for fam, s in [("nt", 1), ("rf", 2)]:
                k = make_kernel(fam, s)
                trace = greedy_max_variance(k, grid, 8, 0.8)
                sel, var = _greedy_bruteforce(k, grid, 8, 0.8)
                assert np.array_equal(trace.selected_indices, sel)
                assert_allclose(trace.selected_variance, var, rtol=1e-8)

    def test_prefix_consistency_with_direct_computation(self):
        """Incremental info gain and effective dimension match refits."""
        grid = sample_sphere(3, 60, 10)
        k = make_kernel("nt", 1)
        trace = greedy_max_variance(k, grid, 20, 1.0)
        pts = trace.selected_points
        for i in (0, 4, 19):
            I_direct = information_gain(k, pts[: i + 1], 1.0)
            d_direct = effective_dimension(k, pts[: i + 1], 1.0)
            assert_allclose(trace.info_gain[i], I_direct, rtol=1e-6, atol=1e-9)
            assert_allclose(trace.effective_dim[i], d_direct, rtol=1e-6, atol=1e-9)

    def test_trace_update_needs_no_triangular_solve(self, monkeypatch):
        """No greedy step solves: the trace of (K + lam^2 I)^{-1} comes from the
        finished factor, whose inverse is solved once per column block (one
        block of all 40 rows here)."""
        real = regression.solve_triangular
        rows = []

        def counting(a, *args, **kwargs):
            rows.append(a.shape[0])
            return real(a, *args, **kwargs)

        grid = sample_sphere(3, 200, 8)
        k = make_kernel("nt", 2)
        with monkeypatch.context() as m:
            m.setattr(regression, "solve_triangular", counting)
            trace = greedy_max_variance(k, grid, 40, 0.5)
        assert rows == [40]
        direct = [effective_dimension(k, trace.selected_points[:n], 0.5)
                  for n in range(1, 41)]
        assert_allclose(trace.effective_dim, direct, rtol=1e-12)

    def test_chain_rule_identity(self):
        """I(n) equals the sum of sequential half-log variance increments."""
        grid = sample_sphere(3, 80, 12)
        k = make_kernel("rf", 1)
        lam = 0.6
        trace = greedy_max_variance(k, grid, 24, lam)
        chain = np.cumsum(0.5 * np.log1p(trace.selected_variance / lam**2))
        assert_allclose(trace.info_gain, chain, rtol=1e-6)

    def test_variance_sum_bounded_per_prefix(self):
        grid = sample_sphere(3, 100, 15)
        for fam, s, lam in [("nt", 1, 1.0), ("rf", 1, 0.5), ("nt", 2, 0.25)]:
            trace = greedy_max_variance(make_kernel(fam, s), grid, 40, lam)
            assert np.all(trace.sum_variance <= trace.bound_rhs + 1e-10)

    def test_variance_sum_vs_half_logdet_bound_n64(self):
        """At n=64, NT s=1, lam=1 the sum is below (2/log 2) * info gain."""
        grid = sample_sphere(3, 512, 42)
        trace = greedy_max_variance(make_kernel("nt", 1), grid, 64, 1.0)
        bound = (2.0 / np.log(2.0)) * trace.info_gain[-1]
        assert trace.sum_variance[-1] <= bound

    def test_beats_random_sampling_on_most_seeds(self):
        """Greedy info gain dominates uniform sampling on >= 90% of seeds."""
        k = make_kernel("nt", 1)
        wins = 0
        seeds = range(10)
        for seed in seeds:
            grid = sample_sphere(3, 128, seed)
            trace = greedy_max_variance(k, grid, 16, 1.0)
            random_pts = sample_sphere(3, 16, 1000 + seed)
            if trace.info_gain[-1] >= information_gain(k, random_pts, 1.0):
                wins += 1
        assert wins >= 9

    def test_repetition_permitted(self):
        grid = sample_sphere(3, 3, 2)
        trace = greedy_max_variance(make_kernel("nt", 1), grid, 7, 1.0)
        assert trace.n == 7
        assert np.all(np.diff(trace.selected_variance) <= 1e-10)

    def test_rejects_empty_grid(self):
        with pytest.raises(ConfigurationError):
            greedy_max_variance(make_kernel("nt", 1), np.empty((0, 3)), 4, 1.0)

    def test_never_allocates_grid_gram(self):
        """Kernel rows come on demand: the peak stays far below one m x m array."""
        m = 4096
        grid = sample_sphere(3, m, 5)
        tracemalloc.start()
        try:
            greedy_max_variance(make_kernel("nt", 1), grid, 4, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * m * m / 16

    def test_rejects_non_unit_grid(self):
        for bad in ([0.0, 2.0, 0.0], [0.0, np.nan, 0.0]):
            grid = np.array([[1.0, 0.0, 0.0], bad])
            with pytest.raises(DomainError, match="point 1"):
                greedy_max_variance(make_kernel("nt", 1), grid, 1, 1.0)

    def test_trace_serialization(self):
        grid = sample_sphere(3, 20, 1)
        trace = greedy_max_variance(make_kernel("nt", 1), grid, 4, 1.0)
        lines = trace.to_csv().split("\r\n")
        assert lines[0] == "n,info_gain,effective_dim,sum_variance,bound_rhs"
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert_allclose(float(first[1]), trace.info_gain[0], rtol=0)
        import json

        doc = json.loads(trace.to_json(timestamp="MASKED"))
        assert doc["payload"]["n"] == 4
        assert "selected_points" not in doc["payload"]
        assert doc["meta"]["timestamp"] == "MASKED"


class TestVarianceSumCheck:
    def test_single_point_pinned_numbers(self):
        """lhs is sigma_0^2 = 2; rhs is (2/log 2) * log 3 = 3.1699..."""
        lhs, rhs = variance_sum_check(make_kernel("nt", 1), E1[None, :], 1.0)
        assert_allclose(lhs, 2.0, rtol=1e-12)
        assert_allclose(rhs, (2.0 / np.log(2.0)) * np.log(3.0), rtol=1e-12)
        assert_allclose(rhs, 3.169925001442312, rtol=1e-14)
        assert lhs <= rhs

    def test_holds_at_large_lam(self):
        pts = sample_sphere(3, 12, 7)
        lhs, rhs = variance_sum_check(make_kernel("nt", 1), pts, 100.0)
        assert lhs <= rhs

    def test_holds_for_arbitrary_sequences(self):
        """The bound is sequential-rule agnostic: uniform samples satisfy it."""
        for seed, (fam, s), lam in [
            (0, ("nt", 1), 1.0),
            (1, ("rf", 1), 0.5),
            (2, ("nt", 2), 0.1),
            (3, ("rf", 3), 2.0),
        ]:
            pts = sample_sphere(3, 48, seed)
            lhs, rhs = variance_sum_check(make_kernel(fam, s), pts, lam)
            assert lhs <= rhs

    def test_lhs_matches_sequential_variances(self):
        """The Cholesky shortcut equals explicit prefix-model variances."""
        k = make_kernel("nt", 1)
        pts = sample_sphere(3, 10, 33)
        lam = 0.7
        lhs, _ = variance_sum_check(k, pts, lam)
        total = k.kappa_one  # sigma_0^2(x_1)
        for i in range(1, 10):
            model = fit(k, SphericalDataset(pts[:i], np.zeros(i)), lam)
            total += predict_variance(model, pts[i])
        assert_allclose(lhs, total, rtol=1e-8)


def _mp_ledger(K, lam, kappa_one):
    """``(info_gain, effective_dim, sum_variance, bound_rhs)`` of the float
    matrix K at 60 digits beyond those of lam^2, from the definitions:
    1/2 log det(I + K/lam^2), n - lam^2 Tr((K + lam^2 I)^{-1}), the sum of
    L_ii^2 - lam^2 over the Cholesky factor L of K + lam^2 I, and
    c log det(I + K/lam^2) with c = max(2/log1p(1/lam^2),
    kappa(1)/log1p(kappa(1)/lam^2))."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 60 + max(0, int(2 * np.log10(lam)))
    n = K.shape[0]
    lam2 = mp.mpf(float(lam)) ** 2
    A = mp.matrix([[mp.mpf(float(v)) for v in row] for row in K]) + lam2 * mp.eye(n)
    L = mp.cholesky(A)
    variance = [L[i, i] ** 2 - lam2 for i in range(n)]
    logdet = mp.fsum(mp.log1p(v / lam2) for v in variance)
    A_inv = mp.inverse(A)
    eff = n - lam2 * mp.fsum(A_inv[i, i] for i in range(n))
    k1 = mp.mpf(float(kappa_one))
    c = max(2 / mp.log1p(1 / lam2), k1 / mp.log1p(k1 / lam2))
    return tuple(float(x) for x in (logdet / 2, eff, mp.fsum(variance), c * logdet))


def _greedy_gram(kernel, grid, selected):
    """The matrix greedy_max_variance factors: kappa(1) on the diagonal and,
    below it, entry (k, i) from the kernel row of selection i, whose own
    grid point has inner product 1."""
    n = len(selected)
    K = np.full((n, n), kernel.kappa_one)
    for i in range(n):
        u = np.clip(grid @ grid[selected[i]], -1.0, 1.0)
        u[selected[i]] = 1.0
        row = kernel(u)[selected]
        K[i + 1:, i] = K[i, i + 1:] = row[i + 1:]
    return K


_LEDGER_FIELDS = ("info_gain", "effective_dim", "sum_variance", "bound_rhs")
# NT s = 3 (kappa(1) = 2.8) at lam = 0.01 and 0.1: the bound's constant is
# kappa(1)/log1p(kappa(1)/lam^2) there, not 2/log1p(1/lam^2)
_LEDGER_KERNELS = [("nt", 1), ("nt", 2), ("rf", 3), ("nt", 3)]
_LEDGER_LAMS = [0.1, 1.0, 1e4, 1e7, 9e7, 1e8, 6e153, 0.01]


class TestLedger:
    """Information gain, effective dimension, variance sum and bound from one
    chain-rule ledger: exact to 1e-12 at every lam, also from lam = 1e7 on,
    where log det - n log lam and L_ii^2 - lam^2 would cancel every digit."""

    @pytest.mark.parametrize("lam", _LEDGER_LAMS)
    @pytest.mark.parametrize("family, s", _LEDGER_KERNELS)
    def test_point_set_matches_mpmath(self, family, s, lam):
        kernel = make_kernel(family, s)
        points = sample_sphere(3, 8, 21)
        report = regression._infogain_summary(kernel, points, lam)
        exact = _mp_ledger(kernels.gram(kernel, points), lam, kernel.kappa_one)
        for name, value in zip(_LEDGER_FIELDS, exact):
            assert_allclose(getattr(report, name), value, rtol=1e-12, err_msg=name)

    @pytest.mark.parametrize("lam", _LEDGER_LAMS)
    @pytest.mark.parametrize("family, s", _LEDGER_KERNELS)
    def test_greedy_last_prefix_matches_mpmath(self, family, s, lam):
        kernel = make_kernel(family, s)
        grid = sample_sphere(3, 64, 22)
        trace = greedy_max_variance(kernel, grid, 8, lam)
        exact = _mp_ledger(_greedy_gram(kernel, grid, trace.selected_indices), lam,
                           kernel.kappa_one)
        for name, value in zip(_LEDGER_FIELDS, exact):
            assert_allclose(getattr(trace, name)[-1], value, rtol=1e-12, err_msg=name)

    @pytest.mark.parametrize("family, s", _LEDGER_KERNELS)
    def test_greedy_reselection_matches_mpmath(self, family, s):
        """8 selections from 4 grid points: a point selected again has inner
        product 1 with its earlier copy, so greedy's matrix holds kappa(1)
        there.  Taken from the matrix-vector product instead, NT s = 1 would
        be off by about 1e-9 relative."""
        kernel = make_kernel(family, s)
        grid = sample_sphere(3, 4, 23)
        trace = greedy_max_variance(kernel, grid, 8, 1.0)
        assert np.unique(trace.selected_indices).size == 4
        exact = _mp_ledger(_greedy_gram(kernel, grid, trace.selected_indices), 1.0,
                           kernel.kappa_one)
        for name, value in zip(_LEDGER_FIELDS, exact):
            assert_allclose(getattr(trace, name)[-1], value, rtol=1e-12, err_msg=name)
