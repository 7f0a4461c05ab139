import concurrent.futures
import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import cho_solve

from spherekern import (
    DegenerateFunctionError,
    DomainError,
    ExperimentError,
    ParameterError,
    error_rate_experiment,
    gram,
    fit_loglog_slope,
    make_kernel,
    make_synthetic,
    mig_growth_experiment,
    sample_sphere,
    theoretical_error_exponent,
    theoretical_mig_exponent,
)
from spherekern import experiments as exp_mod
from spherekern import kernels, regression


class TestTheoreticalExponents:
    def test_error_exponent_pinned(self):
        assert_allclose(theoretical_error_exponent("nt", 1, 3), -1.0 / 6.0, rtol=1e-15)
        assert_allclose(theoretical_error_exponent("rf", 1, 3), -0.3, rtol=1e-15)
        assert_allclose(theoretical_error_exponent("nt", 3, 2), -5.0 / 12.0, rtol=1e-15)

    def test_mig_exponent_pinned(self):
        assert_allclose(theoretical_mig_exponent("nt", 1, 3), 2.0 / 3.0, rtol=1e-15)
        assert_allclose(theoretical_mig_exponent("rf", 2, 3), 2.0 / 7.0, rtol=1e-15)

    def test_mig_exponent_limit_in_d(self):
        """The NT growth exponent approaches 1 as d grows."""
        assert theoretical_mig_exponent("nt", 1, 10_000) > 0.999

    def test_error_exponent_orderings(self):
        """Steeper decay with s, flatter with d, for both families."""
        for fam in ("nt", "rf"):
            for d in (2, 3, 4):
                exps = [theoretical_error_exponent(fam, s, d) for s in (1, 2, 3)]
                assert exps[0] > exps[1] > exps[2]
            for s in (1, 2, 3):
                exps = [theoretical_error_exponent(fam, s, d) for d in (2, 3, 4)]
                assert exps[0] < exps[1] < exps[2]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ParameterError):
            theoretical_error_exponent("gauss", 1, 3)
        with pytest.raises(ParameterError):
            theoretical_mig_exponent("nt", 0, 3)
        with pytest.raises(ParameterError):
            theoretical_error_exponent("nt", 1, 1)


class TestFitLoglogSlope:
    def test_exact_power_law(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0])
        slope, _, r2 = fit_loglog_slope(xs, xs**-1.5)
        assert_allclose(slope, -1.5, atol=1e-12)
        assert_allclose(r2, 1.0, atol=1e-12)

    def test_constant_sequence(self):
        slope, _, _ = fit_loglog_slope([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
        assert_allclose(slope, 0.0, atol=1e-12)

    def test_intercept(self):
        xs = np.array([1.0, 2.0, 5.0, 10.0])
        slope, intercept, _ = fit_loglog_slope(xs, 3.0 * xs**2)
        assert_allclose(slope, 2.0, atol=1e-12)
        assert_allclose(intercept, np.log(3.0), atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("axis", ["xs", "ys"])
    def test_rejects_non_finite(self, axis, bad):
        """NaN and inf fail the domain check, in either coordinate."""
        pts = {"xs": [1.0, 2.0, 3.0, 4.0], "ys": [1.0, 2.0, 3.0, 4.0]}
        pts[axis][2] = bad
        with pytest.raises(DomainError, match="finite"):
            fit_loglog_slope(pts["xs"], pts["ys"])

    def test_rejects_short_or_nonpositive(self):
        with pytest.raises(ParameterError):
            fit_loglog_slope([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(DomainError):
            fit_loglog_slope([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])
        with pytest.raises(DomainError):
            fit_loglog_slope([0.0, 2.0, 3.0], [1.0, 2.0, 3.0])


class TestMakeSynthetic:
    def test_range_normalized_to_one(self):
        """f spans exactly [min, min+1] over the range-estimation sample."""
        k = make_kernel("nt", 1)
        f = make_synthetic(k, 3, seed=0)
        probe = sample_sphere(3, 10_000, [0, exp_mod.SALT_RANGE_SAMPLE])
        vals = f(probe)
        assert_allclose(vals.max() - vals.min(), 1.0, rtol=1e-12)

    def test_norm_chain_certified(self):
        """|g|^2 stays below |Y|^2/ridge across kernels and seeds."""
        for fam, s, seed in [("nt", 1, 0), ("rf", 2, 1), ("nt", 3, 2)]:
            k = make_kernel(fam, s)
            f = make_synthetic(k, 3, seed=seed)
            cap = float(f.anchor_values @ f.anchor_values) / f.ridge
            assert f.norm_bound <= cap + 1e-6

    def test_deterministic(self):
        k = make_kernel("rf", 1)
        f1 = make_synthetic(k, 4, seed=5)
        f2 = make_synthetic(k, 4, seed=5)
        assert_allclose(f1.anchors, f2.anchors, rtol=0)
        assert_allclose(f1.weights, f2.weights, rtol=0)
        x = sample_sphere(4, 7, 9)
        assert_allclose(f1(x), f2(x), rtol=0)

    def test_scalar_and_batch_agree(self):
        f = make_synthetic(make_kernel("nt", 1), 3, seed=3)
        x = sample_sphere(3, 4, 11)
        batch = f(x)
        for i in range(4):
            assert_allclose(f(x[i]), batch[i], rtol=1e-12)

    def test_points_and_anchors_checked(self):
        """A call rejects non-unit points; construction rejects non-unit anchors."""
        f = make_synthetic(make_kernel("nt", 1), 3, n0=20, seed=3, range_sample=100)
        with pytest.raises(DomainError, match="point 1"):
            f(np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))
        bad = f.anchors.copy()
        bad[4] *= 1.5
        with pytest.raises(DomainError, match="anchor 4"):
            dataclasses.replace(f, anchors=bad)

    def test_range_probe_streams(self):
        """The default target peaks under 2 MB: its 10 000-point range probe
        streams through the anchors in tiles, and the norm certificate takes
        no third anchor Gram."""
        kernel = make_kernel("nt", 2)
        make_synthetic(kernel, 3, n0=5, range_sample=10)  # first-use imports
        tracemalloc.start()
        try:
            make_synthetic(kernel, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_norm_certificate_is_the_quadratic_form(self):
        """The certified |g|^2 = w^T Y_hat - ridge |w|^2 is w^T K w: to 1e-12
        relative at ridge 0.01, and to a few ulps of the subtracted ridge |w|^2
        at a ridge far above K's spectrum."""
        for fam, s, d, seed, ridge in [("nt", 1, 3, 0, 0.01), ("rf", 2, 4, 1, 0.01),
                                       ("nt", 3, 5, 2, 0.01), ("nt", 2, 3, 3, 1e6)]:
            kernel = make_kernel(fam, s, d=d)
            f = make_synthetic(kernel, d, ridge=ridge, seed=seed, range_sample=100)
            quad = f.weights @ gram(kernel, f.anchors) @ f.weights
            assert_allclose(f.norm_bound, quad, rtol=1e-12,
                            atol=1e-14 * ridge * (f.weights @ f.weights))

    def test_norm_certificate_counts_the_jitter(self, monkeypatch):
        """A factorization that took jitter j solved (K + (ridge + j) I) w = Y_hat,
        and the certificate subtracts (ridge + j) |w|^2, so it stays w^T K w."""
        real = exp_mod._ridge_factor

        def jittered(kernel, points, shift):
            return (real(kernel, points, shift + 0.5)[0], 0.5) if shift else real(
                kernel, points, shift)

        monkeypatch.setattr(exp_mod, "_ridge_factor", jittered)
        kernel = make_kernel("nt", 2)
        f = make_synthetic(kernel, 3, range_sample=100)
        assert_allclose(f.norm_bound, f.weights @ gram(kernel, f.anchors) @ f.weights,
                        rtol=1e-12)

    def test_zero_values_degenerate(self):
        with pytest.raises(DegenerateFunctionError):
            make_synthetic(make_kernel("nt", 1), 3, seed=0, anchor_values=np.zeros(100))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            make_synthetic(make_kernel("nt", 1), 3, ridge=0.0)
        with pytest.raises(ParameterError):
            make_synthetic(make_kernel("nt", 1), 3, anchor_values=np.ones(7))


SMALL_GRID = 2 ** np.arange(1, 10)


@pytest.fixture(scope="module")
def small_report():
    return error_rate_experiment(
        "nt", 1, 3, n_grid=SMALL_GRID, repetitions=2, master_seed=0, eval_sample=2000
    )


def _must_not_run(*args, **kwargs):
    raise AssertionError("work started before the arguments were checked")


class TestErrorRateExperiment:
    def test_report_shape_and_signs(self, small_report):
        rep = small_report
        assert np.all(np.diff(rep.n_grid) > 0)
        assert np.all(rep.sup_errors >= 0)
        assert rep.sup_errors.shape == (2, SMALL_GRID.size)
        assert rep.mean_exponent < 0
        assert_allclose(rep.theoretical_exponent, -1.0 / 6.0, rtol=1e-15)

    def test_error_shrinks_across_the_grid(self, small_report):
        """Per repetition the largest-n error is below the n=8 error."""
        j8 = int(np.where(SMALL_GRID == 8)[0][0])
        assert np.all(small_report.sup_errors[:, -1] < small_report.sup_errors[:, j8])

    def test_deterministic(self, small_report):
        again = error_rate_experiment(
            "nt", 1, 3, n_grid=SMALL_GRID, repetitions=2, master_seed=0,
            eval_sample=2000,
        )
        assert np.array_equal(small_report.sup_errors, again.sup_errors)
        assert small_report.to_json(timestamp="X") == again.to_json(timestamp="X")

    def test_worker_count_invariance(self, small_report):
        parallel = error_rate_experiment(
            "nt", 1, 3, n_grid=SMALL_GRID, repetitions=2, master_seed=0,
            eval_sample=2000, workers=2,
        )
        assert np.array_equal(small_report.sup_errors, parallel.sup_errors)

    @pytest.mark.parametrize("workers, repetitions, started", [
        (64, 2, [2]), (2, 3, [2]), (64, 1, []), (1, 3, []), (None, 3, []),
    ])
    def test_no_more_workers_than_repetitions(self, monkeypatch, workers, repetitions,
                                              started):
        """The pool is capped at one process per repetition, and not made for one."""
        pools = []

        class SerialExecutor:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialExecutor)
        report = error_rate_experiment(
            "nt", 1, 3, n_grid=[2, 4, 8], repetitions=repetitions, eval_sample=50,
            n0=10, workers=workers,
        )
        assert pools == started
        assert report.sup_errors.shape == (repetitions, 3)

    def test_master_seed_changes_results(self, small_report):
        other = error_rate_experiment(
            "nt", 1, 3, n_grid=SMALL_GRID, repetitions=2, master_seed=100,
            eval_sample=2000,
        )
        assert not np.array_equal(small_report.sup_errors, other.sup_errors)

    def test_independent_resampling_mode(self):
        nested = error_rate_experiment(
            "nt", 1, 3, n_grid=2 ** np.arange(1, 6), repetitions=1,
            master_seed=0, eval_sample=500,
        )
        indep = error_rate_experiment(
            "nt", 1, 3, n_grid=2 ** np.arange(1, 6), repetitions=1,
            master_seed=0, eval_sample=500, nested=False,
        )
        assert not np.array_equal(nested.sup_errors, indep.sup_errors)
        assert indep.mean_exponent < 0

    def test_csv_layout(self, small_report):
        lines = small_report.to_csv().split("\r\n")
        assert lines[0] == "n,rep,sup_error"
        n, rep, err = lines[1].split(",")
        assert (int(n), int(rep)) == (2, 0)
        assert float(err) == small_report.sup_errors[0, 0]

    def test_failed_repetitions_are_recorded(self, monkeypatch):
        """A failing repetition is excluded when rare, fatal when common."""
        from spherekern.errors import IllConditionedGramError

        real = exp_mod._error_rate_rep

        def flaky(family, s, d, n_grid, rep_seed, *args):
            if rep_seed == 1:
                raise IllConditionedGramError("synthetic failure for testing")
            return real(family, s, d, n_grid, rep_seed, *args)

        monkeypatch.setattr(exp_mod, "_error_rate_rep", flaky)
        report = error_rate_experiment(
            "nt", 1, 3, n_grid=2 ** np.arange(1, 5), repetitions=10,
            master_seed=0, eval_sample=200,
        )
        assert len(report.failures) == 1
        assert report.failures[0][0] == 1
        assert report.sup_errors.shape[0] == 9
        with pytest.raises(ExperimentError):
            error_rate_experiment(
                "nt", 1, 3, n_grid=2 ** np.arange(1, 5), repetitions=2,
                master_seed=0, eval_sample=200,
            )

    def test_rejects_bad_grid(self):
        with pytest.raises(ParameterError):
            error_rate_experiment("nt", 1, 3, n_grid=[4, 4, 8], repetitions=1)
        with pytest.raises(ParameterError):
            error_rate_experiment("nt", 1, 3, n_grid=[2, 4], repetitions=0)

    def test_short_grid_rejected_before_any_repetition(self, monkeypatch):
        """A grid too short for the slope fit fails before the first repetition."""
        monkeypatch.setattr(exp_mod, "_error_rate_rep", _must_not_run)
        with pytest.raises(ParameterError, match=">= 3 entries"):
            error_rate_experiment("nt", 1, 3, n_grid=[2, 1024], repetitions=1)

    @pytest.mark.parametrize("kwargs, message", [
        ({"train_lam2": float("nan")}, "train_lam2 must be positive"),
        ({"train_lam2": float("inf")}, "train_lam2 must be positive"),
        ({"train_lam2": -1.0}, "train_lam2 must be positive"),
        ({"train_lam2": 0.0}, "train_lam2 must be positive"),
        ({"noise_scale": float("nan")}, "noise_scale must be nonnegative"),
        ({"noise_scale": float("inf")}, "noise_scale must be nonnegative"),
        ({"noise_scale": -1.0}, "noise_scale must be nonnegative"),
        ({"ridge": float("nan")}, "ridge must be positive"),
        ({"ridge": float("-inf")}, "ridge must be positive"),
        ({"ridge": 0.0}, "ridge must be positive"),
        ({"eval_sample": 0}, "eval_sample >= 1"),
        ({"n0": 0}, "n0 >= 1"),
    ])
    def test_bad_arguments_rejected_before_any_repetition(self, monkeypatch, kwargs,
                                                          message):
        """Bad float and size arguments fail before the first repetition."""
        monkeypatch.setattr(exp_mod, "_error_rate_rep", _must_not_run)
        with pytest.raises(ParameterError, match=message):
            error_rate_experiment("nt", 1, 3, n_grid=[2, 4, 8], repetitions=1, **kwargs)


class TestErrorRateRepetition:
    """One repetition of ``_error_rate_rep``: factorizations, memory, values."""

    @staticmethod
    def _rep(n_grid, nested, rep_seed=4, eval_sample=700, n0=100):
        return exp_mod._error_rate_rep(
            "nt", 2, 3, np.asarray(n_grid), rep_seed, eval_sample, 0.04, 0.2,
            n0, 0.01, nested,
        )

    def test_nested_repetition_factors_once(self, monkeypatch):
        """Two factorizations in make_synthetic, one for the whole pool."""
        real = regression.cholesky
        sizes = []

        def counting(a, *args, **kwargs):
            sizes.append(a.shape[0])
            return real(a, *args, **kwargs)

        monkeypatch.setattr(regression, "cholesky", counting)
        self._rep(SMALL_GRID, nested=True)
        assert sizes == [100, 100, SMALL_GRID[-1]]

    def test_nested_repetition_memory_ceiling(self):
        """Fitting every prefix adds little to the one N x N factor of the pool.

        The peak is 1.131 * 8N^2.  An N^2-byte finiteness mask in the
        triangular solves, beside the factor and the right-hand sides, would
        raise it to 1.141 * 8N^2.
        """
        grid = 2 ** np.arange(1, 11)
        tracemalloc.start()
        try:
            self._rep(grid, nested=True, eval_sample=300, n0=20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.135 * 8 * grid[-1] ** 2

    @staticmethod
    def _spied_rep(monkeypatch, grid, nested):
        """Run a repetition; return its ``solve_triangular`` calls as (args, kwargs,
        result) and the names of the functions that called ``cho_solve``."""
        solves, cho_callers = [], []
        real_tri, real_cho = exp_mod.solve_triangular, exp_mod.cho_solve

        def tri(*args, **kwargs):
            out = real_tri(*args, **kwargs)
            solves.append((args, kwargs, out))
            return out

        def cho(*args, **kwargs):
            cho_callers.append(sys._getframe(1).f_code.co_name)
            return real_cho(*args, **kwargs)

        monkeypatch.setattr(exp_mod, "solve_triangular", tri)
        monkeypatch.setattr(exp_mod, "cho_solve", cho)
        TestErrorRateRepetition._rep(grid, nested)
        return solves, cho_callers

    @pytest.mark.parametrize("nested", [True, False])
    def test_two_triangular_solves_per_pool(self, monkeypatch, nested):
        """No solve per n: a forward and a back solve per pool, cho_solve only for the target."""
        grid = 2 ** np.arange(1, 8)
        solves, cho_callers = self._spied_rep(monkeypatch, grid, nested)
        pools = 1 if nested else grid.size
        assert [kw.get("trans") for _, kw, _ in solves] == [None, "T"] * pools
        assert cho_callers == ["make_synthetic"]

    @pytest.mark.parametrize("nested", [True, False])
    def test_weight_columns_are_per_prefix_solves(self, monkeypatch, nested):
        """Column j is cho_solve on prefix n_j, to 1e-12 in norm, and exactly zero
        from row n_j on."""
        grid = 2 ** np.arange(1, 8)
        solves, _ = self._spied_rep(monkeypatch, grid, nested)
        columns = 0
        for ((L, Y), _, _), (_, _, A) in zip(solves[::2], solves[1::2]):
            sizes = grid if nested else [L.shape[0]]
            assert A.shape == (L.shape[0], len(sizes))
            for j, n in enumerate(sizes):
                want = cho_solve((L[:n, :n], True), Y[:n])
                # relative to the weight vector: a small weight carries the
                # rounding of the large ones
                assert np.linalg.norm(A[:n, j] - want) <= 1e-12 * np.linalg.norm(want)
                assert np.all(A[n:, j] == 0.0)
            columns += len(sizes)
        assert columns == grid.size

    def test_eval_gram_is_streamed(self):
        """The peak stays far below one eval_sample x max_n array, and each
        further evaluation point adds at most its 3 coordinates, the
        target's value and one residual per fit (one pool of all 8 fits),
        with one float to spare: the residuals are taken in place."""
        grid, peaks = 2 ** np.arange(1, 9), []
        for eval_sample in (30_000, 60_000):
            tracemalloc.start()
            try:
                # n0 = 20 keeps make_synthetic's 10_000 x n0 range probe small
                self._rep(grid, nested=True, eval_sample=eval_sample, n0=20)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < eval_sample * grid[-1] * 8 / 4
            peaks.append(peak)
        assert (peaks[1] - peaks[0]) / 30_000 <= 8 * (3 + 1 + len(grid) + 1)

    @pytest.mark.parametrize("nested", [True, False])
    def test_unit_checks_do_not_grow_with_tiles(self, monkeypatch, nested):
        """Rows are checked once per repetition, not once per evaluation tile."""
        calls = []
        real = kernels._check_unit_rows

        def counting(points, *args, **kwargs):
            calls.append(np.shape(points))
            return real(points, *args, **kwargs)

        monkeypatch.setattr(kernels, "_check_unit_rows", counting)
        monkeypatch.setattr(exp_mod, "_check_unit_rows", counting)
        counts = []
        for eval_sample in (300, 3000):  # ten times as many tiles
            calls.clear()
            self._rep(SMALL_GRID, nested, eval_sample=eval_sample)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_tile_path_is_bitwise_the_checked_path(self):
        """The unchecked tile evaluations give the bits of public gram and target calls."""
        kernel = make_kernel("nt", 2, d=3)
        target = make_synthetic(kernel, 3, n0=30, ridge=0.01, seed=2, range_sample=500)
        pts, X = sample_sphere(3, 50, 7), sample_sphere(3, 40, 8)
        checked = gram(kernel, pts, target.anchors) @ target.weights / target.range_normalizer
        assert np.array_equal(target._values(pts), checked)
        assert np.array_equal(target(pts), checked)
        assert np.array_equal(kernels._cross_gram(kernel, pts, X), gram(kernel, pts, X))

    @pytest.mark.parametrize("nested", [True, False])
    def test_matches_direct_refit_per_n(self, nested):
        grid, rep_seed, eval_sample = 2 ** np.arange(1, 8), 4, 700
        got = self._rep(grid, nested, rep_seed, eval_sample)

        kernel = make_kernel("nt", 2, d=3)
        target = make_synthetic(kernel, 3, n0=100, ridge=0.01, seed=rep_seed)
        eval_pts = sample_sphere(3, eval_sample, [rep_seed, exp_mod.SALT_EVAL])
        f_eval = target(eval_pts)
        pool = sample_sphere(3, grid[-1], [rep_seed, exp_mod.SALT_TRAIN])
        pool_noise = np.random.default_rng([rep_seed, exp_mod.SALT_NOISE]).standard_normal(
            grid[-1]) * 0.2
        want = []
        for n in grid:
            if nested:
                X, noise = pool[:n], pool_noise[:n]
            else:
                X = sample_sphere(3, n, [rep_seed, exp_mod.SALT_TRAIN, n])
                noise = np.random.default_rng(
                    [rep_seed, exp_mod.SALT_NOISE, n]).standard_normal(n) * 0.2
            alpha = np.linalg.solve(gram(kernel, X) + 0.04 * np.eye(n), target(X) + noise)
            want.append(np.max(np.abs(gram(kernel, eval_pts, X) @ alpha - f_eval)))
        assert_allclose(got, want, rtol=1e-9)


class TestMigGrowthExperiment:
    def test_info_gain_nondecreasing(self):
        rep = mig_growth_experiment(
            "nt", 1, 3, n_grid=2 ** np.arange(1, 8), candidate_grid_size=512, seed=0
        )
        assert np.all(np.diff(rep.info_gain) >= 0)
        assert rep.info_gain.min() >= 0

    def test_larger_lam_gains_less(self):
        grid = 2 ** np.arange(1, 7)
        low = mig_growth_experiment(
            "nt", 1, 3, n_grid=grid, lam=1.0, candidate_grid_size=256, seed=0
        )
        high = mig_growth_experiment(
            "nt", 1, 3, n_grid=grid, lam=2.0, candidate_grid_size=256, seed=0
        )
        assert np.all(high.info_gain < low.info_gain)

    def test_deterministic(self):
        grid = 2 ** np.arange(1, 7)
        a = mig_growth_experiment("rf", 1, 3, n_grid=grid, candidate_grid_size=256, seed=3)
        b = mig_growth_experiment("rf", 1, 3, n_grid=grid, candidate_grid_size=256, seed=3)
        assert np.array_equal(a.info_gain, b.info_gain)
        assert a.fitted_exponent == b.fitted_exponent

    def test_reports_theoretical_exponent(self):
        rep = mig_growth_experiment(
            "rf", 2, 3, n_grid=2 ** np.arange(1, 6), candidate_grid_size=128, seed=1
        )
        assert_allclose(rep.theoretical_exponent, 2.0 / 7.0, rtol=1e-15)
        assert rep.effective_dim.size == rep.n_grid.size

    def test_csv_layout(self):
        rep = mig_growth_experiment(
            "nt", 1, 3, n_grid=2 ** np.arange(1, 5), candidate_grid_size=64, seed=0
        )
        lines = rep.to_csv().split("\r\n")
        assert lines[0] == "n,info_gain"
        assert float(lines[1].split(",")[1]) == rep.info_gain[0]

    def test_short_grid_rejected_before_greedy(self, monkeypatch):
        """A grid too short for the slope fit fails before the greedy run."""
        monkeypatch.setattr(exp_mod, "greedy_max_variance", _must_not_run)
        with pytest.raises(ParameterError, match=">= 3 entries"):
            mig_growth_experiment("nt", 1, 3, n_grid=[2, 2048], candidate_grid_size=4096)

    def test_rejects_overlarge_n(self):
        with pytest.raises(ParameterError):
            mig_growth_experiment("nt", 1, 3, n_grid=[2, 4, 300], candidate_grid_size=128)
