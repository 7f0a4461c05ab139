import os
import subprocess
import sys
import tracemalloc
from math import sqrt

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spherekern import (
    ConfigurationError,
    DomainError,
    DotProductKernel,
    KernelSpec,
    McOracleConfig,
    UnsupportedSmoothnessError,
    gram,
    make_kernel,
    mc_estimate,
    nt_deep,
    nt_two_layer,
    rf_closed,
    rf_deep,
    rf_derivative,
    sample_sphere,
)
from spherekern import kernels
from spherekern.kernels import _BLOCK, _EVAL_BLOCK


class TestClosedForms:
    def test_pinned_values_at_zero(self):
        """Orthogonal inputs give the known constants for each power."""
        assert_allclose(rf_closed(0, 0.0), 0.5, rtol=1e-15)
        assert_allclose(rf_closed(1, 0.0), 1.0 / np.pi, rtol=1e-15)
        assert_allclose(rf_closed(2, 0.0), 1.0 / 6.0, rtol=1e-15)
        assert_allclose(rf_closed(3, 0.0), 4.0 / (15.0 * np.pi), rtol=1e-15)

    def test_endpoints(self):
        """Every power gives kappa(1) = 1 and kappa(-1) = 0."""
        for s in range(4):
            assert_allclose(rf_closed(s, 1.0), 1.0, atol=1e-15)
            assert_allclose(rf_closed(s, -1.0), 0.0, atol=1e-15)

    def test_monotone_and_bounded(self):
        """kappa_s is nondecreasing on [-1, 1] with values in [0, 1]."""
        u = np.linspace(-1.0, 1.0, 401)
        for s in range(4):
            vals = rf_closed(s, u)
            assert np.all(np.diff(vals) >= -1e-15)
            assert vals.min() >= -1e-15 and vals.max() <= 1.0 + 1e-15

    def test_vectorized_matches_scalar(self):
        """Array evaluation agrees with pointwise scalar evaluation."""
        rng = np.random.default_rng(42)
        u = rng.uniform(-1.0, 1.0, size=50)
        for s in range(4):
            vals = rf_closed(s, u)
            for ui, vi in zip(u, vals):
                assert_allclose(rf_closed(s, float(ui)), vi, rtol=1e-15)

    def test_scalar_returns_float(self):
        assert isinstance(rf_closed(1, 0.3), float)

    def test_matches_mpmath(self):
        """Every 2-layer closed form is within 2 eps kappa(1) of its exact value.

        The reference is Cho and Saul's arc-cosine form
        ``kappa_s = J_s(theta) / ((2s-1)!! pi)`` in sin and cos of
        ``theta = arccos(u)``, at 40 digits, with
        ``kappa_NT,s = u (s^2/(2s-1)) kappa_{s-1} + kappa_s``.  The grid adds
        points within 1e-16..1e-1 of both ends, where t or S vanishes.
        """
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 40
        delta = np.logspace(-16.0, -1.0, 100)
        u = np.concatenate([np.linspace(-1.0, 1.0, 801), -1.0 + delta, 1.0 - delta])

        def exact_rf(x):
            th = mp.acos(mp.mpf(x))
            c, sn, t = mp.cos(th), mp.sin(th), mp.pi - th
            J = (t, sn + t * c, 3 * sn * c + t * (1 + 2 * c * c),
                 4 * sn**3 + 15 * sn * c * c + t * (9 * sn * sn * c + 15 * c**3))
            return [j / (df * mp.pi) for j, df in zip(J, (1, 1, 3, 15))]

        rf = [exact_rf(x) for x in u]
        eps = np.finfo(float).eps
        for family, s in [("rf", 0), ("rf", 1), ("rf", 2), ("rf", 3),
                          ("nt", 1), ("nt", 2), ("nt", 3)]:
            if family == "rf":
                got, exact = rf_closed(s, u), [k[s] for k in rf]
            else:
                slope = mp.mpf(s * s) / (2 * s - 1)
                got = nt_two_layer(s, u)
                exact = [x * slope * k[s - 1] + k[s] for x, k in zip(u, rf)]
            err = max(abs(mp.mpf(g) - e) for g, e in zip(got, exact))
            bound = 2.0 * eps * (rf_closed(s, 1.0) if family == "rf" else nt_two_layer(s, 1.0))
            assert err <= bound, (family, s, float(err / bound))


class TestDerivative:
    def test_matches_finite_differences(self):
        """The kappa_{s-1} proportionality reproduces the numerical derivative."""
        rng = np.random.default_rng(7)
        h = 1e-6
        for s in (1, 2, 3):
            for u in rng.uniform(-0.9, 0.9, size=20):
                fd = (rf_closed(s, u + h) - rf_closed(s, u - h)) / (2.0 * h)
                assert_allclose(rf_derivative(s, u), fd, rtol=2e-5, atol=2e-7)

    def test_value_at_one(self):
        """kappa_s'(1) = s^2/(2s-1) since kappa_{s-1}(1) = 1."""
        for s in (1, 2, 3):
            assert_allclose(rf_derivative(s, 1.0), s * s / (2.0 * s - 1.0), rtol=1e-15)

    def test_requires_positive_power(self):
        for s in (0, 4):
            for u in (0.5, np.array([]), np.zeros((2, 3))):
                with pytest.raises(UnsupportedSmoothnessError):
                    rf_derivative(s, u)


class TestNeuralTangent:
    def test_definition(self):
        """NT kernel equals u * kappa_s'(u) + kappa_s(u) pointwise.

        The two sides round differently where the sum cancels, at negative u,
        so they agree to a few eps of kappa(1) there; ``test_matches_mpmath``
        pins the accuracy of each."""
        u = np.linspace(-1.0, 1.0, 101)
        for s in (1, 2, 3):
            expected = u * rf_derivative(s, u) + rf_closed(s, u)
            atol = 4.0 * np.finfo(float).eps * nt_two_layer(s, 1.0)
            assert_allclose(nt_two_layer(s, u), expected, rtol=1e-14, atol=atol)

    def test_pinned_values(self):
        assert_allclose(nt_two_layer(1, 1.0), 2.0, rtol=1e-15)
        assert_allclose(nt_two_layer(2, 1.0), 7.0 / 3.0, rtol=1e-15)
        assert_allclose(nt_two_layer(1, 0.0), 1.0 / np.pi, rtol=1e-15)
        assert_allclose(nt_two_layer(1, -1.0), 0.0, atol=1e-15)


class TestDepthRecursion:
    def test_depth_two_is_closed_form(self):
        u = np.linspace(-1.0, 1.0, 21)
        for s in (1, 2, 3):
            assert_allclose(rf_deep(s, 2, u), rf_closed(s, u), rtol=1e-15)
            assert_allclose(nt_deep(s, 2, u), nt_two_layer(s, u), rtol=1e-15)

    def test_rf_depth_three_is_composition(self):
        u = np.linspace(-1.0, 1.0, 21)
        for s in (1, 2, 3):
            assert_allclose(rf_deep(s, 3, u), rf_closed(s, rf_closed(s, u)), rtol=1e-14)

    def test_nt_depth_three_unrolled(self):
        """One recursion step matches the hand-unrolled layer update."""
        u = 0.3
        for s in (1, 2):
            c2 = 2.0 / np.prod(np.arange(1, 2 * s, 2))
            k2 = rf_closed(s, u)
            nt2 = nt_two_layer(s, u)
            expected = c2 * nt2 * rf_derivative(s, k2) + rf_closed(s, k2)
            assert_allclose(nt_deep(s, 3, u), expected, rtol=1e-14)

    def test_drop_c2_variant(self):
        """Dropping the c^2 factor changes depth >= 3 but not depth 2."""
        u = 0.3
        assert nt_deep(1, 2, u) == nt_deep(1, 2, u, drop_c2=True)
        with_c2 = nt_deep(1, 3, u)
        without = nt_deep(1, 3, u, drop_c2=True)
        assert with_c2 != without
        k2 = rf_closed(1, u)
        assert_allclose(
            without, nt_two_layer(1, u) * rf_derivative(1, k2) + rf_closed(1, k2),
            rtol=1e-14,
        )

    def test_depth_preserves_endpoint_at_one(self):
        """kappa^l(1) = 1 for RF at any depth."""
        for l in (2, 3, 5):
            assert_allclose(rf_deep(1, l, 1.0), 1.0, atol=1e-14)


class TestKernelSpec:
    def test_c_squared(self):
        assert KernelSpec("rf", 1).c_squared == 2.0
        assert_allclose(KernelSpec("nt", 2).c_squared, 2.0 / 3.0, rtol=1e-15)
        assert_allclose(KernelSpec("nt", 3).c_squared, 2.0 / 15.0, rtol=1e-15)

    def test_rejects_bad_family(self):
        with pytest.raises(ConfigurationError):
            KernelSpec("gauss", 1)

    def test_rejects_unsupported_power(self):
        with pytest.raises(UnsupportedSmoothnessError):
            KernelSpec("rf", 5)
        with pytest.raises(UnsupportedSmoothnessError):
            KernelSpec("nt", 0)

    def test_rejects_shallow_depth(self):
        with pytest.raises(ConfigurationError):
            KernelSpec("rf", 1, l=1)

    def test_kappa_one_cached(self):
        assert make_kernel("nt", 1).kappa_one == 2.0
        assert make_kernel("rf", 2).kappa_one == 1.0
        assert_allclose(make_kernel("nt", 2).kappa_one, 7.0 / 3.0, rtol=1e-15)

    def test_callable_on_arrays(self):
        k = make_kernel("nt", 1)
        u = np.array([[0.0, 1.0], [1.0, -1.0]])
        assert_allclose(k(u), [[1.0 / np.pi, 2.0], [2.0, 0.0]], atol=1e-15)


class TestGram:
    def test_orthonormal_pair_nt(self):
        """Two orthogonal unit vectors give [[2, 1/pi], [1/pi, 2]] for NT s=1."""
        X = np.eye(3)[:2]
        K = gram(make_kernel("nt", 1), X)
        assert_allclose(K, [[2.0, 1.0 / np.pi], [1.0 / np.pi, 2.0]], rtol=1e-15)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("n", [1, 7, 300, 1000, 2048])
    @pytest.mark.parametrize("d", [2, 3, 50])
    def test_symmetric_psd(self, layout, n, d):
        """Gram matrices are bitwise symmetric, bitwise ``_cross_gram(X, X)`` off
        the diagonal, bitwise ``kappa(1)`` on it, and positive semidefinite,
        for C-ordered, F-ordered and row-strided points.

        Past n = 300 one kernel is evaluated and the O(n^3) spectrum skipped:
        symmetry is a property of the inner products, which every kernel maps
        entry by entry.
        """
        rng = np.random.default_rng([n, d])
        X = rng.standard_normal((2 * n, d))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        X = X[::2] if layout == "strided" else np.asarray(X[:n], order=layout)
        families = [("rf", 1), ("nt", 1), ("rf", 2), ("nt", 3)]
        for fam, s in families if n <= 300 else families[:1]:
            kernel = make_kernel(fam, s, d=d)
            K = gram(kernel, X)
            assert _bits(K) == _bits(K.T)
            off = ~np.eye(n, dtype=bool)
            assert _bits(K[off]) == _bits(kernels._cross_gram(kernel, X, X)[off])
            assert _bits(K.diagonal()) == _bits(np.full(n, kernel.kappa_one))
            if n <= 300:
                w = np.linalg.eigvalsh(K)
                assert w.min() >= -1e-10 * w.max()

    def test_cross_gram(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((5, 3))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        Y = rng.standard_normal((7, 3))
        Y /= np.linalg.norm(Y, axis=1, keepdims=True)
        k = make_kernel("rf", 2)
        C = gram(k, X, Y)
        assert C.shape == (5, 7)
        assert_allclose(C[2, 4], k(float(np.clip(X[2] @ Y[4], -1, 1))), rtol=1e-15)

    def test_rejects_non_unit_point(self):
        X = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        with pytest.raises(DomainError, match="point 1"):
            gram(make_kernel("rf", 1), X)
        X[1] = [np.nan, 0.0, 0.0]
        with pytest.raises(DomainError, match="point 1"):
            gram(make_kernel("rf", 1), X)


class TestExpansion:
    """``_expansion``: kappa(X @ centers.T) @ coef in tiles of ``_block_rows`` rows."""

    def test_rows_per_tile(self):
        """The most power-of-two rows of ``width`` entries in one block, at least one."""
        widths = (1, 2, 3, 100, 500, 1024, _BLOCK, _BLOCK + 1)
        assert [kernels._block_rows(w) for w in widths] == [
            _BLOCK, _BLOCK // 2, _BLOCK // 4, 256, 64, 32, 1, 1]

    @pytest.mark.parametrize("k", range(11))
    def test_bits_of_the_error_rate_tiles(self, k):
        """For a pool of 2^k points, the bits of the tiles of _BLOCK // 2^k rows
        that the error-rate evaluation took, for one fit and for ten; for one
        fit also the bits of tiles of at least 128 rows, so one-vector
        products keep their bits at either tile height."""
        kernel = make_kernel("nt", 2)
        rng = np.random.default_rng(k)
        X, pool = sample_sphere(3, 5003, [k, 0]), sample_sphere(3, 2**k, [k, 1])
        rows = _BLOCK // 2**k
        for coef in (rng.standard_normal(2**k), rng.standard_normal((2**k, 10))):
            got = _bits(kernels._expansion(kernel, X, pool, coef))
            for tile in {rows, max(rows, 128) if coef.ndim == 1 else rows}:
                old = np.concatenate([kernel(np.clip(X[lo:lo + tile] @ pool.T, -1.0, 1.0)) @ coef
                                      for lo in range(0, len(X), tile)])
                assert got == _bits(old)

    @pytest.mark.parametrize("width, cols, rows", [(700, 2, 32), (700, 1, 32), (700, 0, 32),
                                                   (70, 0, 256)])
    def test_tiles_hold_a_block(self, monkeypatch, width, cols, rows):
        """Tiles have the most power-of-two rows whose cross Gram holds at
        most ``_BLOCK`` entries, for a 1-D coef (``cols`` 0) as for a 2-D
        one; no centers give zeros."""
        kernel = make_kernel("rf", 1)
        sizes = []
        real = kernels._cross_gram

        def recording(kappa, X, Y, *out):
            sizes.append(len(X) * len(Y))
            return real(kappa, X, Y, *out)

        monkeypatch.setattr(kernels, "_cross_gram", recording)
        X, centers = sample_sphere(3, 3000, 1), sample_sphere(3, width, 2)
        coef = np.ones((width, cols) if cols else width)
        out = kernels._expansion(kernel, X, centers, coef)
        assert out.shape == (3000,) + coef.shape[1:]
        assert sizes[:-1] == [rows * width] * (3000 // rows)
        assert sizes[-1] == 3000 % rows * width
        assert _bits(kernels._expansion(kernel, X, centers[:0], np.empty(0))) == _bits(
            np.zeros(3000))


class TestDomainValidation:
    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            rf_closed(1, 1.001)
        with pytest.raises(DomainError):
            nt_two_layer(2, np.array([0.0, -1.1]))
        # the minimum is the only out-of-range entry; the maximum is exactly 1
        below = np.array([[0.5, 1.0], [-1.0 - 1e-9, 0.0]])
        for bad, match in ((np.nan, "NaN"), (np.array([0.5, np.nan]), "NaN"),
                           (below, "outside")):
            for evaluate in (
                lambda u: rf_closed(1, u),
                lambda u: rf_derivative(2, u),
                lambda u: nt_two_layer(3, u),
                lambda u: rf_deep(1, 3, u),
                lambda u: nt_deep(2, 3, u),
                make_kernel("nt", 1),
            ):
                with pytest.raises(DomainError, match=match):
                    evaluate(bad)

    def test_input_not_modified(self):
        """In-range input is evaluated without a copy, so it must stay intact."""
        u = np.linspace(-1.0, 1.0, 101)
        before = u.copy()
        for s in (1, 2, 3):
            rf_closed(s, u)
            rf_derivative(s, u)
            nt_deep(s, 3, u)
            rf_deep(s, 3, u)
            make_kernel("nt", s)(u)
        assert_allclose(u, before, rtol=0, atol=0)

    def test_clamps_rounding_noise(self):
        assert_allclose(rf_closed(1, 1.0 + 1e-13), 1.0, atol=1e-15)
        assert_allclose(rf_closed(1, -1.0 - 1e-13), 0.0, atol=1e-15)

    def test_unsupported_power(self):
        with pytest.raises(UnsupportedSmoothnessError):
            rf_closed(4, 0.5)


def _bits(x):
    x = np.asarray(x)
    return x.dtype, x.shape, x.tobytes()


class TestBlockedEvaluation:
    """Evaluation in blocks of _EVAL_BLOCK entries gives the bits of one block."""

    @staticmethod
    def _inputs():
        rng = np.random.default_rng(3)
        flat = [rng.uniform(-1.0, 1.0, size)
                for size in (_EVAL_BLOCK - 1, _EVAL_BLOCK, _EVAL_BLOCK + 1, 2 * _EVAL_BLOCK + 3)]
        square = rng.uniform(-1.0, 1.0, (3, _EVAL_BLOCK // 2 + 5))
        square[0, :3] = (-1.0, 1.0, 1.0 + 1e-13)
        return flat + [square, square.T]

    @pytest.mark.parametrize("family", ["rf", "nt"])
    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("l", [2, 3])
    def test_bitwise_equal_to_one_block(self, monkeypatch, family, s, l):
        kernel = make_kernel(family, s, l)
        inputs = self._inputs()
        blocked = [kernel(u) for u in inputs]
        monkeypatch.setattr(kernels, "_EVAL_BLOCK", 1 << 40)
        for u, got in zip(inputs, blocked):
            assert _bits(got) == _bits(kernel(u))

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_derivative_runs_in_blocks(self, monkeypatch, s):
        """rf_derivative evaluates at most _EVAL_BLOCK entries at a time, to the bits
        of the slope row of the NT layer recursion."""
        u = np.random.default_rng(5).uniform(-1.0, 1.0, (2, _EVAL_BLOCK + 7))
        sizes = []
        real = kernels._layers

        def spy(block, *args):
            sizes.append(block.size)
            return real(block, *args)

        monkeypatch.setattr(kernels, "_layers", spy)
        got = rf_derivative(s, u)
        assert len(sizes) == 3 and max(sizes) <= _EVAL_BLOCK

        def one_block(x):
            slope = np.empty(x.size)
            kernels._rows(x.ravel(), s, ("slope",), np.empty((3, x.size)), slope)
            return slope.reshape(x.shape)

        assert _bits(got) == _bits(one_block(u))
        assert rf_derivative(s, 0.3) == one_block(np.array([0.3]))[0]

    def test_scalar_and_empty_inputs(self, monkeypatch):
        kernel = make_kernel("nt", 2, 3)
        value = kernel(0.3)
        empty, empty_rows = kernel(np.array([])), kernel(np.empty((0, 3)))
        monkeypatch.setattr(kernels, "_EVAL_BLOCK", 1 << 40)
        assert type(value) is float and value == kernel(0.3)
        assert empty.shape == (0,) and empty_rows.shape == (0, 3)
        with pytest.raises(UnsupportedSmoothnessError):
            rf_closed(4, np.array([]))

    def test_smoothness_checked_before_the_blocks(self, monkeypatch):
        """s is checked once per call, so an empty u runs no block at all."""
        calls = []
        monkeypatch.setattr(kernels, "_layers", lambda *args: calls.append(args))
        assert rf_closed(2, np.array([])).shape == (0,)
        with pytest.raises(UnsupportedSmoothnessError):
            rf_closed(4, np.array([0.5]))
        assert not calls

    def test_nan_in_last_block_raises_and_input_stays(self):
        u = np.linspace(-1.0, 1.0, 2 * _EVAL_BLOCK + 3)
        u[0] = 1.0 + 1e-13
        before = u.copy()
        make_kernel("nt", 3, 3)(u)
        assert _bits(u) == _bits(before)
        u[-1] = np.nan
        with pytest.raises(DomainError, match="NaN"):
            make_kernel("rf", 1)(u)


class TestInPlaceEvaluation:
    """``kernels._in_place``, the one in-place evaluator, gives the bits of the
    public call, which validates and clamps, on a 2-D array of several blocks."""

    @staticmethod
    def _inputs():
        rng = np.random.default_rng(8)
        several_blocks = rng.uniform(-1.0, 1.0, (5, _EVAL_BLOCK // 2 + 7))
        clamped = several_blocks.copy()
        clamped[0, :4] = (1.0 + 9e-13, 1.0 + 1e-13, -1.0 - 9e-13, np.nextafter(1.0, 2.0))
        clamped[-1, -1] = 1.0 + 5e-13
        return several_blocks, clamped

    @pytest.mark.parametrize("family", ["rf", "nt"])
    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("l", [2, 3])
    def test_bitwise_equal_to_allocating_call(self, family, s, l):
        kernel = make_kernel(family, s, l)
        for u in self._inputs():
            before = u.copy()
            expected = kernel(u)
            assert _bits(u) == _bits(before)
            U = np.clip(u, -1.0, 1.0)
            assert kernels._in_place(kernel, 100)(U) is U
            assert _bits(U) == _bits(expected)


def _reference_kappa(family, s, l, u, c2):
    """The layer recursion written out of place, a new array per step, with
    each closed form's operations in the order of ``_FORMS``' docstring."""
    def row(key, x):
        P, Q, D = kernels._FORMS[key, s]

        def times_poly(coefs, v):
            top, *rest = coefs[::-2]
            h = top
            for c in rest:
                h = h * (x * x) + c
            if len(coefs) % 2 == 0:
                h = h * x
            return h * v

        val = times_poly(P, np.pi - np.arccos(x))
        if Q:
            val = val + times_poly(Q, np.sqrt((1.0 - x) * (1.0 + x)))
        return val / (D * np.pi)

    if l == 2:
        return row(family, u)
    val, rf = row(family, u), row("rf", u)
    for _ in range(3, l + 1):
        x = np.clip(rf, -1.0, 1.0)
        rf = row("rf", x)
        val = val * c2 * row("slope", x) + rf if family == "nt" else rf
    return val


_CHURN = """
import resource
import numpy as np
from spherekern import kernels, make_kernel, sample_sphere
kernel = make_kernel("nt", 2)
pool, X = sample_sphere(3, 1024, 1), sample_sphere(3, 5000, 2)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
kernels._expansion(kernel, X, pool, np.ones((1024, 10)))
kernels.gram(kernel, pool)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestWorkspace:
    """Every kernel evaluation runs out of one workspace of block buffers."""

    @pytest.mark.parametrize("family, s, l, drop_c2", [
        (family, s, l, drop) for family in ("rf", "nt") for s in (1, 2, 3)
        for l in (2, 3, 4) for drop in ((False, True) if family == "nt" and l > 2 else (False,))
    ] + [("slope", s, 2, False) for s in (1, 2, 3)] + [("rf", 0, 2, False), ("rf", 0, 3, False)])
    def test_bits_of_the_out_of_place_recursion(self, family, s, l, drop_c2):
        """The public evaluators and the in-place evaluator of Gram matrices
        give the bits of a recursion that allocates every step, on a grid
        dense at u = +-1."""
        rng = np.random.default_rng([s, l])
        delta = np.logspace(-17.0, -1.0, 400)
        u = np.concatenate([rng.uniform(-1.0, 1.0, 3 * _EVAL_BLOCK + 5), -1.0 + delta,
                            1.0 - delta, np.linspace(-1.0, 1.0, 1001), [-0.0]])
        c2 = 1.0 if drop_c2 else 2.0 / kernels.double_factorial_odd(s)
        expected = _reference_kappa(family, s, l, u, c2)
        got = kernels._evaluate(u, s, l, family, drop_c2)
        assert _bits(got) == _bits(expected)
        if family != "slope" and s > 0:
            in_place = kernels._in_place(make_kernel(family, s, l, drop_c2=drop_c2), 100)
            assert _bits(in_place(u.copy())) == _bits(expected)

    def test_other_kernels_take_their_public_call(self):
        """A kernel that is not a DotProductKernel, a plain function u ->
        kappa(u), is called once on the clipped inner products, and its values
        are written over them."""
        kernel, shapes = make_kernel("nt", 2), []

        def custom(u):
            shapes.append(u.shape)
            return kernel(u)

        X = sample_sphere(3, 50, 0)
        assert _bits(gram(custom, X)) == _bits(gram(kernel, X))
        assert shapes == [(50, 50)]
        U = np.clip(X @ X.T, -1.0, 1.0)
        np.fill_diagonal(U, 1.0)
        assert _bits(gram(lambda u: np.exp(u), X)) == _bits(np.exp(U))

    @pytest.mark.parametrize("family", ["rf", "nt"])
    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("l", [2, 3])
    def test_scratch_is_the_workspace(self, family, s, l):
        """``kernels._in_place(kernel, u.size)(u)`` on 2^20 entries holds its
        workspace and nothing more: three buffers of ``_EVAL_BLOCK`` floats,
        five for NT from l = 3 on, plus 8 KiB for views and Python objects."""
        kernel = make_kernel(family, s, l)
        u = np.random.default_rng(0).uniform(-1.0, 1.0, 1 << 20)
        tracemalloc.start()
        try:
            kernels._in_place(kernel, u.size)(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        buffers = 5 if family == "nt" and l > 2 else 3
        assert peak <= 8 * _EVAL_BLOCK * buffers + 8192

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts minor page faults of Linux")
    def test_fresh_process_reuses_its_buffers(self):
        """In a fresh interpreter with glibc's default allocator settings (no
        ``MALLOC_*`` variable), an error-rate sized expansion (5000 points,
        1024 centers, 10 columns) and a 1024-point Gram take few minor page
        faults: the allocator hands back no buffer between blocks or tiles
        to fault in again.  Block temporaries allocated on every call took
        about 42 000."""
        env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
        res = subprocess.run([sys.executable, "-c", _CHURN], env=env,
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert int(res.stdout) < 4000


class TestMonteCarlo:
    def test_matches_closed_forms(self):
        """MC estimates land within 4 standard errors of the closed forms."""
        x = np.array([1.0, 0.0, 0.0])
        for fam in ("rf", "nt"):
            for s in (1, 2):
                for u in (-0.5, 0.0, 0.7, 1.0):
                    xp = np.array([u, np.sqrt(1 - u * u), 0.0])
                    spec = KernelSpec(fam, s)
                    cfg = McOracleConfig(sample_count=1 << 16, seed=2024)
                    est, se = mc_estimate(spec, x, xp, cfg)
                    exact = rf_closed(s, u) if fam == "rf" else nt_two_layer(s, u)
                    assert se > 0
                    assert abs(est - exact) <= 4.0 * se, (fam, s, u)

    def test_deterministic(self):
        """Same seed produces bitwise identical estimates."""
        spec = KernelSpec("nt", 1)
        x = np.array([0.6, 0.8, 0.0])
        xp = np.array([0.0, 0.0, 1.0])
        cfg = McOracleConfig(sample_count=3 * (1 << 10) + 17, seed=5)
        assert mc_estimate(spec, x, xp, cfg) == mc_estimate(spec, x, xp, cfg)

    @pytest.mark.parametrize("family", ["rf", "nt"])
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_fused_integrand_matches_literal(self, family, s):
        """One chunk's integrand equals c^2 a_s(g1) a_s(g2) (+ the NT term) to 1e-15."""
        spec = KernelSpec(family, s)
        rng = np.random.default_rng(3)
        g1, g2 = rng.standard_normal((2, 1 << 12))
        g1[:8] = 0.0           # exact zeros on one side, the other, and both
        g2[4:12] = 0.0
        g1[12:16] = g2[12:16] = 1e-200  # q = g1 * g2 underflows to 0
        u = 0.3

        def a(k, z):
            return (z > 0.0).astype(float) if k == 0 else np.where(z > 0.0, z, 0.0) ** k

        c2 = spec.c_squared
        literal = c2 * a(s, g1) * a(s, g2)
        if family == "nt":
            literal = literal + c2 * u * s * s * a(s - 1, g1) * a(s - 1, g2)
        out = np.empty_like(g1)
        fused = kernels._mc_integrand(spec, u, g1, g2, out)
        assert fused is out
        assert_allclose(fused, literal, rtol=1e-15, atol=0)
        if family == "nt" and s == 1:
            assert np.all(fused[12:16] == c2 * u)  # the step term survives underflow

    @pytest.mark.parametrize("chunk_size", [1 << 10, McOracleConfig(1, 0).chunk_size])
    @pytest.mark.parametrize("d", [3, 5])
    @pytest.mark.parametrize("family", ["rf", "nt"])
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_bitwise_equal_to_per_chunk_reference(self, s, family, d, chunk_size):
        """The in-place chunk loop gives the bits of the out-of-place one, at
        one sample, one chunk less one, one chunk and two chunks and a bit."""
        spec = KernelSpec(family, s, d=d)
        rng = np.random.default_rng([d, s])
        x, xp = rng.standard_normal((2, d))
        x, xp = x / np.linalg.norm(x), xp / np.linalg.norm(xp)
        for n in (1, chunk_size - 1, chunk_size, 2 * chunk_size + 5):
            cfg = McOracleConfig(n, seed=17, chunk_size=chunk_size)
            assert mc_estimate(spec, x, xp, cfg) == _reference_mc(spec, x, xp, cfg), n

    @pytest.mark.parametrize("chunk_size", [1 << 10, McOracleConfig(1, 0).chunk_size])
    @pytest.mark.parametrize("d", [3, 5])
    @pytest.mark.parametrize("family", ["rf", "nt"])
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_bitwise_equal_at_every_worker_count(self, s, family, d, chunk_size,
                                                 monkeypatch):
        """One, two, three or more worker threads than chunks: the same bits as
        the per-chunk reference, since chunk sums are added in chunk order."""
        spec = KernelSpec(family, s, d=d)
        rng = np.random.default_rng([d, s, 1])
        x, xp = rng.standard_normal((2, d))
        x, xp = x / np.linalg.norm(x), xp / np.linalg.norm(xp)
        for n in (1, chunk_size - 1, chunk_size, 2 * chunk_size + 5):
            cfg = McOracleConfig(n, seed=19, chunk_size=chunk_size)
            expected = _reference_mc(spec, x, xp, cfg)
            for workers in (1, 2, 3, 8):
                monkeypatch.setattr(kernels, "_available_cpus", lambda: workers)
                assert mc_estimate(spec, x, xp, cfg) == expected, (n, workers)

    def test_threads_share_no_buffer(self, monkeypatch):
        """Eight threads switching every microsecond over 19 chunks, more
        threads than cores: a buffer that two workers shared would mix their
        chunks and break the bits."""
        spec = KernelSpec("nt", 2, d=4)
        x, xp = np.eye(4)[0], np.full(4, 0.5)
        cfg = McOracleConfig(18 * (1 << 13) + 3, seed=23, chunk_size=1 << 13)
        monkeypatch.setattr(kernels, "_available_cpus", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert mc_estimate(spec, x, xp, cfg) == _reference_mc(spec, x, xp, cfg)
        finally:
            sys.setswitchinterval(interval)

    def test_bits_do_not_depend_on_the_blas_thread_count(self):
        """Six kernels in fresh interpreters at one and two OpenBLAS threads:
        the same bits, since no chunk's sum of squares is a BLAS product."""
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            res = subprocess.run([sys.executable, "-c", _MC_THREADS], env=env,
                                 capture_output=True, text=True)
            assert res.returncode == 0, res.stderr
            outputs.append(res.stdout)
        assert outputs[0].count("\n") == 12
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("d", [3, 5])
    @pytest.mark.parametrize("family", ["rf", "nt"])
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_workers_hold_one_chunk_and_d_plus_two_blocks(self, s, family, d, workers,
                                                          monkeypatch):
        """One call's traced peak stays under w (chunk + (d + 2) block) floats
        for w workers: each one's output buffer, draw block W (d columns, at
        most ``_BLOCK`` normals) and projection blocks g1 and g2, plus one
        chunk of slack for the generators, the threads and the chunk sums."""
        cfg = McOracleConfig(sample_count=(1 << 17) * 2 + 5, seed=3)
        _assert_mc_peak(KernelSpec(family, s, d=d), cfg, workers, monkeypatch)

    def test_draw_block_does_not_grow_with_d(self, monkeypatch):
        """At d = 1000 a draw block is 32 rows, not a whole 4096-sample chunk:
        the same bound, about 0.6 MB for two workers, where 2^12 rows of
        1000 normals would take 65 MB."""
        cfg = McOracleConfig(sample_count=(1 << 12) * 2 + 5, seed=3, chunk_size=1 << 12)
        _assert_mc_peak(KernelSpec("nt", 2, d=1000), cfg, 2, monkeypatch)

    def test_dimension_above_one_block_draws_one_row(self, monkeypatch):
        """d = _BLOCK + 1 draws one row at a time (a zero-row block would never
        advance): one sample, and three chunks of one, have the bits of the
        per-chunk reference."""
        spec = KernelSpec("nt", 1, d=_BLOCK + 1)
        x, xp = _axis_and_diagonal(spec.d)
        monkeypatch.setattr(kernels, "_available_cpus", lambda: 2)
        for cfg in (McOracleConfig(1, seed=29), McOracleConfig(3, seed=29, chunk_size=1)):
            assert mc_estimate(spec, x, xp, cfg) == _reference_mc(spec, x, xp, cfg)

    @pytest.mark.parametrize("family", ["rf", "nt"])
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_one_row_blocks_are_the_contract(self, s, family, monkeypatch):
        """d = _BLOCK + 1 draws one-row blocks: five samples in one chunk have the
        same bits on one and two workers, and those of a reference that
        projects one row at a time (one whole-chunk product can round
        otherwise)."""
        spec = KernelSpec(family, s, d=_BLOCK + 1)
        x, xp = _axis_and_diagonal(spec.d)
        cfg = McOracleConfig(5, seed=31)
        assert kernels._block_rows(spec.d) == 1
        estimates = set()
        for workers in (1, 2):
            monkeypatch.setattr(kernels, "_available_cpus", lambda: workers)
            estimates.add(mc_estimate(spec, x, xp, cfg))
        assert estimates == {_reference_mc(spec, x, xp, cfg, rows=1)}

    def test_chunking_covers_all_samples(self):
        """A sample count spanning several chunks still averages every draw."""
        spec = KernelSpec("rf", 1)
        x = np.array([1.0, 0.0, 0.0])
        cfg = McOracleConfig(sample_count=1 << 15, seed=11, chunk_size=1 << 13)
        est, se = mc_estimate(spec, x, x, cfg)
        assert abs(est - 1.0) <= 4.0 * se

    def test_rejects_deep_kernels(self):
        spec = KernelSpec("nt", 1, l=3)
        x = np.array([1.0, 0.0, 0.0])
        with pytest.raises(ConfigurationError):
            mc_estimate(spec, x, x, McOracleConfig(sample_count=100, seed=0))

    def test_rejects_non_unit_input(self):
        spec = KernelSpec("rf", 1)
        for bad in ([2.0, 0.0, 0.0], [np.nan, 0.0, 0.0]):
            with pytest.raises(DomainError):
                mc_estimate(
                    spec,
                    np.array(bad),
                    np.array([1.0, 0.0, 0.0]),
                    McOracleConfig(sample_count=100, seed=0),
                )


# Prints the estimates and standard errors of six kernels at d = 3 as exact
# hex floats; the caller sets the OpenBLAS thread count of the interpreter.
_MC_THREADS = """
import numpy as np
from spherekern.kernels import KernelSpec, McOracleConfig, mc_estimate
x, xp = np.eye(3)[0], np.full(3, 3 ** -0.5)
for family in ("rf", "nt"):
    for s in (1, 2, 3):
        for n in (50_000, 200_001):
            cfg = McOracleConfig(n, seed=5)
            print(*map(float.hex, mc_estimate(KernelSpec(family, s, d=3), x, xp, cfg)))
"""


def _axis_and_diagonal(d):
    """The unit vectors e_1 and (1, ..., 1) / sqrt(d) of R^d."""
    x = np.zeros(d)
    x[0] = 1.0
    return x, np.full(d, 1.0 / sqrt(d))


def _assert_mc_peak(spec, cfg, workers, monkeypatch):
    """One call on ``workers`` threads peaks under w (chunk + (d + 2) block)
    floats, plus one chunk of slack, for a block of at most ``_BLOCK`` normals."""
    d = spec.d
    x, xp = _axis_and_diagonal(d)
    monkeypatch.setattr(kernels, "_available_cpus", lambda: workers)
    # numpy.random's and the thread pool's first-use imports
    mc_estimate(spec, x, xp, McOracleConfig(2, 0, chunk_size=1))
    tracemalloc.start()
    try:
        mc_estimate(spec, x, xp, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = min(max(1, _BLOCK // d), cfg.chunk_size)
    assert peak <= 8 * (workers * (cfg.chunk_size + (d + 2) * block) + cfg.chunk_size)


def _reference_mc(spec, x, xp, cfg, rows=None):
    """The oracle written out of place, chunk by chunk: a new array per step;
    with ``rows``, each chunk's draw is projected ``rows`` rows at a time."""
    u = float(np.clip(x @ xp, -1.0, 1.0))
    s, c2 = spec.s, spec.c_squared
    total = total_sq = 0.0
    n_done = chunk_index = 0
    while n_done < cfg.sample_count:
        take = min(cfg.chunk_size, cfg.sample_count - n_done)
        rng = np.random.Generator(np.random.Philox(key=cfg.seed).jumped(chunk_index))
        W = rng.standard_normal((take, spec.d))
        step = rows or take
        g1, g2 = (np.concatenate([W[r:r + step] @ v for r in range(0, take, step)])
                  for v in (x, xp))
        q = np.maximum(g1, 0.0) * np.maximum(g2, 0.0)
        if s == 1:
            low = (np.minimum(g1, g2) > 0.0).astype(float)
            vals = c2 * q
        else:
            low = q if s == 2 else q * q
            vals = c2 * (low * q)
        if spec.family == "nt":
            vals = vals + c2 * u * s * s * low
        total += float(vals.sum())
        total_sq += float(np.einsum("i,i", vals, vals))
        n_done += take
        chunk_index += 1
    mean = total / n_done
    if n_done == 1:
        return mean, float("inf")
    var = max(total_sq - n_done * mean * mean, 0.0) / (n_done - 1)
    return mean, sqrt(var / n_done)
