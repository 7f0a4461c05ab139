import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import eval_gegenbauer

from spherekern import (
    ConfigurationError,
    DomainError,
    FitError,
    GegenbauerBasis,
    MaternSpec,
    ParameterError,
    SpectrumTable,
    UnsupportedDimensionError,
    addition_constant,
    default_fit_range,
    eigendecay_fit,
    endpoint_coefficient,
    flatten_spectrum,
    gegenbauer,
    gegenbauer_at_one,
    make_kernel,
    matern_spectrum,
    mercer_spectrum,
    multiplicity,
    reconstruct,
    rkhs_equivalence_ratio,
    tail_sum,
    verify_endpoint,
)
from spherekern.spectral import (
    _degree_constants,
    _gegenbauer_norms,
    _gegenbauer_rows,
    _loglog_fit,
)


@pytest.fixture(scope="module")
def basis60():
    return GegenbauerBasis(3, 60)


@pytest.fixture(scope="module")
def nt1_table(basis60):
    return mercer_spectrum(make_kernel("nt", 1), 3, 60, basis=basis60)


@pytest.fixture(scope="module")
def rf1_table(basis60):
    return mercer_spectrum(make_kernel("rf", 1), 3, 60, basis=basis60)


@pytest.fixture(scope="module")
def nt2_table(basis60):
    return mercer_spectrum(make_kernel("nt", 2), 3, 60, basis=basis60)


@pytest.fixture(scope="module")
def matern_table():
    return matern_spectrum(MaternSpec(nu=0.5, d=3), 60)


class TestMultiplicity:
    def test_pinned_values(self):
        assert multiplicity(3, 1) == 3
        assert multiplicity(4, 2) == 9
        assert multiplicity(3, 0) == 1

    def test_d3_is_odd_integers(self):
        """On S^2 the degree-i eigenspace has dimension 2i+1."""
        assert [multiplicity(3, i) for i in range(6)] == [1, 3, 5, 7, 9, 11]

    def test_d2_is_two(self):
        """The circle has a cosine and a sine harmonic per positive degree."""
        assert [multiplicity(2, i) for i in range(5)] == [1, 2, 2, 2, 2]

    def test_matches_ratio_formula(self):
        """The integer form agrees with (2i+d-2)/i * binom(i+d-3, d-2)."""
        from math import comb

        rng = np.random.default_rng(42)
        for _ in range(50):
            d = int(rng.integers(2, 12))
            i = int(rng.integers(1, 30))
            expected = (2 * i + d - 2) * comb(i + d - 3, d - 2)
            assert multiplicity(d, i) * i == expected

    def test_rejects_bad_arguments(self):
        with pytest.raises(ParameterError):
            multiplicity(1, 3)
        with pytest.raises(ParameterError):
            multiplicity(3, -1)


class TestGegenbauer:
    def test_pinned_values(self):
        assert_allclose(gegenbauer(0.5, 2, 1.0), 1.0, rtol=1e-15)
        assert gegenbauer(0.5, 0, -0.3) == 1.0
        assert_allclose(gegenbauer(1.0, 1, 0.5), 1.0, rtol=1e-15)

    def test_matches_scipy(self):
        """The recurrence reproduces scipy's Gegenbauer evaluation."""
        rng = np.random.default_rng(7)
        for _ in range(40):
            alpha = float(rng.uniform(0.3, 4.0))
            i = int(rng.integers(0, 25))
            u = float(rng.uniform(-1.0, 1.0))
            assert_allclose(
                gegenbauer(alpha, i, u), eval_gegenbauer(i, alpha, u),
                rtol=1e-10, atol=1e-12,
            )

    def test_maximum_at_one(self):
        """|C_i(u)| on [-1,1] never exceeds C_i(1) for alpha > 0."""
        u = np.linspace(-1.0, 1.0, 501)
        for alpha, i in [(0.5, 7), (1.0, 12), (2.5, 5)]:
            vals = gegenbauer(alpha, i, u)
            assert np.max(np.abs(vals)) <= gegenbauer(alpha, i, 1.0) + 1e-12

    def test_value_at_one_is_binomial(self):
        from math import comb

        for d in (3, 4, 6):
            alpha = (d - 2) / 2.0
            for i in range(8):
                assert_allclose(gegenbauer(alpha, i, 1.0), comb(i + d - 3, i), rtol=1e-12)
                assert gegenbauer_at_one(d, i) == comb(i + d - 3, i)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(UnsupportedDimensionError):
            gegenbauer(0.0, 2, 0.5)


class TestAdditionConstant:
    def test_pinned_values(self):
        assert_allclose(addition_constant(3, 0), 0.5, rtol=1e-14)
        assert_allclose(addition_constant(3, 1), 1.5, rtol=1e-14)
        assert_allclose(addition_constant(4, 0), 1.0 / (2.0 * np.pi), rtol=1e-14)

    def test_positive(self):
        for d in (3, 4, 5, 8):
            for i in range(10):
                assert addition_constant(d, i) > 0

    def test_rejects_low_dimension(self):
        with pytest.raises(UnsupportedDimensionError):
            addition_constant(2, 1)


class TestGegenbauerBasis:
    def test_orthogonality(self):
        """Stored quadrature keeps distinct basis rows orthogonal to 1e-8."""
        for d in (3, 4, 5):
            basis = GegenbauerBasis(d, 40)
            assert basis.orthogonality_defect() <= 1e-8

    def test_node_budget(self):
        for M in (20, 60):
            basis = GegenbauerBasis(3, M)
            assert basis.nodes.size >= 64 * (M + 8)

    def test_projection_recovers_basis_vector(self):
        """Projecting C_5 itself yields the unit coefficient vector."""
        basis = GegenbauerBasis(4, 10)
        values = gegenbauer(basis.alpha, 5, basis.nodes)
        b = basis.project(values)
        expected = np.zeros(11)
        expected[5] = 1.0
        assert_allclose(b, expected, atol=1e-12)

    def test_immutable_arrays(self):
        basis = GegenbauerBasis(3, 5)
        with pytest.raises(ValueError):
            basis.nodes[0] = 0.0

    def test_rejects_d2(self):
        with pytest.raises(UnsupportedDimensionError):
            GegenbauerBasis(2, 10)

    def test_equal_parameters_share_one_read_only_quadrature(self):
        a, b = GegenbauerBasis(3, 60), GegenbauerBasis(3, 60)
        assert a.nodes is b.nodes and a.weights is b.weights
        assert not a.nodes.flags.writeable and not a.weights.flags.writeable
        # d = 4, M = 59 has the panel order of d = 3, M = 60 but other weights
        other = GegenbauerBasis(4, 59)
        assert other.nodes.size == a.nodes.size
        assert not np.shares_memory(other.weights, a.weights)
        assert not np.shares_memory(other.nodes, a.nodes)


def _exact_norm(d, i):
    """h_i = <C_i, C_i>_w at alpha = (d-2)/2 from exact rational arithmetic."""
    from fractions import Fraction
    from math import factorial

    m = d - 2  # 2 alpha
    if m % 2 == 0:  # Gamma(alpha)^2 = ((alpha-1)!)^2; h_i = pi * rational
        gamma_sq, pi_factor = Fraction(factorial(m // 2 - 1) ** 2), np.pi
    else:  # Gamma(k + 1/2)^2 = pi ((2k)! / (4^k k!))^2; the pi cancels
        k = (m - 1) // 2
        gamma_sq, pi_factor = Fraction(factorial(2 * k), 4**k * factorial(k)) ** 2, 1.0
    rational = Fraction(2, 2**m) * factorial(i + m - 1) / (
        factorial(i) * Fraction(2 * i + m, 2) * gamma_sq
    )
    return float(rational) * pi_factor


class TestClosedFormNorms:
    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    @pytest.mark.parametrize("M", [0, 1, 2, 60, 400])
    def test_match_quadrature(self, d, M):
        """The closed form agrees with the quadrature norms weights @ (C_i * C_i)."""
        basis = GegenbauerBasis(d, M)
        rows = _gegenbauer_rows(basis.alpha, M, basis.nodes)
        quad = [basis.weights @ (Ci * Ci) for _, Ci in rows]
        assert_allclose(_gegenbauer_norms(basis.alpha, M), quad, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("d", [3, 4, 5, 6, 9, 30])
    def test_match_exact_values(self, d):
        """The running product stays within a few ulps of the exact norms up to degree 400."""
        exact = [_exact_norm(d, i) for i in range(401)]
        assert_allclose(_gegenbauer_norms((d - 2) / 2.0, 400), exact, rtol=2e-14, atol=0)

    def test_buffered_recurrence_is_the_plain_recurrence(self):
        """The in-place rows are bitwise the rows of the textbook recurrence."""
        u = np.linspace(-1.0, 1.0, 301)
        for alpha in (0.5, 1.0, 1.5, 3.0):
            rows = [Ci.copy() for _, Ci in _gegenbauer_rows(alpha, 40, u)]
            plain = [np.ones_like(u), 2.0 * alpha * u]
            for i in range(2, 41):
                plain.append((2.0 * (i + alpha - 1.0) * u * plain[-1]
                              - (i + 2.0 * alpha - 2.0) * plain[-2]) / i)
            for got, want in zip(rows, plain):
                assert np.array_equal(got, want)


class TestDegreeConstants:
    def test_match_scalar_functions(self):
        """The arrays equal the per-degree functions exactly, c_{i,d} bit for bit."""
        for d in (3, 4, 5, 6, 8):
            cfac, at_one, mult = _degree_constants(d, 120)
            assert cfac.tolist() == [addition_constant(d, i) for i in range(121)]
            assert at_one.tolist() == [gegenbauer_at_one(d, i) for i in range(121)]
            assert mult.tolist() == [multiplicity(d, i) for i in range(121)]

    def test_int64_range(self):
        """N_{11,400} < 2^63 is exact; N_{12,400} > 2^63 is a parameter error."""
        assert int(_degree_constants(11, 400)[2][-1]) == multiplicity(11, 400)
        for d in (12, np.int64(12)):
            with pytest.raises(ParameterError, match="int64"):
                _degree_constants(d, 400)
        with pytest.raises(ParameterError, match="int64"):
            matern_spectrum(MaternSpec(1.5, 40), 400)


class TestMercerSpectrum:
    def test_linear_kernel_is_pure_degree_one(self):
        """kappa(u) = u has all mass at degree 1 with eigenvalue 2/3 (d = 3)."""
        table = mercer_spectrum(lambda u: u, 3, 5)
        assert_allclose(table.eigenvalues[1], 2.0 / 3.0, rtol=1e-12)
        others = np.delete(table.eigenvalues, 1)
        assert np.max(np.abs(others)) < 1e-14
        assert_allclose(table.eigenvalues[1] * addition_constant(3, 1), 1.0, rtol=1e-12)

    def test_provenance_inferred(self, nt1_table, rf1_table):
        assert nt1_table.provenance == "numerical-NT"
        assert rf1_table.provenance == "numerical-RF"
        assert mercer_spectrum(lambda u: u, 3, 2).provenance == "numerical-custom"

    def test_eigenvalues_nonnegative(self, nt1_table, rf1_table, nt2_table):
        for table in (nt1_table, rf1_table, nt2_table):
            assert table.eigenvalues.min() >= 0.0

    def test_parseval_mass_bounded(self, nt1_table, rf1_table):
        """Total reconstructed mass at u = 1 never exceeds kappa(1)."""
        for table, kappa1 in [(nt1_table, 2.0), (rf1_table, 1.0)]:
            mass = sum(
                table.eigenvalues[i] * addition_constant(3, i) * gegenbauer_at_one(3, i)
                for i in range(table.max_degree + 1)
            )
            assert mass <= kappa1 + 1e-6

    def test_basis_must_cover_requested_degree(self, basis60):
        with pytest.raises(ConfigurationError):
            mercer_spectrum(make_kernel("rf", 1), 3, 80, basis=basis60)
        with pytest.raises(ConfigurationError):
            mercer_spectrum(make_kernel("rf", 1), 4, 10, basis=basis60)

    def test_rejects_d2(self):
        with pytest.raises(UnsupportedDimensionError):
            mercer_spectrum(make_kernel("rf", 1), 2, 10)

    # n_clamped of the spectra the benchmark computes: (l, d) = (2, 3), (2, 5),
    # (3, 3), (3, 5) at M = 60, then l = 2, d = 3 at M = 400
    BENCHMARK_CLAMPED = {
        ("nt", 1): [16, 14, 0, 0, 103], ("nt", 2): [12, 13, 0, 0, 96],
        ("nt", 3): [15, 14, 0, 0, 134], ("rf", 1): [16, 14, 0, 0, 103],
        ("rf", 2): [12, 14, 0, 0, 127], ("rf", 3): [15, 14, 0, 0, 175],
    }

    @pytest.mark.parametrize("family, s", sorted(BENCHMARK_CLAMPED))
    def test_benchmark_clamp_counts_pinned(self, family, s):
        """The closed-form norms leave every benchmark spectrum's n_clamped as it was."""
        cases = [(2, 3, 60), (2, 5, 60), (3, 3, 60), (3, 5, 60), (2, 3, 400)]
        counts = [
            mercer_spectrum(make_kernel(family, s, l=l, d=d), d, M).n_clamped
            for l, d, M in cases
        ]
        assert counts == self.BENCHMARK_CLAMPED[(family, s)]


class TestEigendecay:
    def test_nt1_dominant_parity_slope(self, nt1_table):
        """NT s=1 d=3 decays like i^{-3} on its dominant (even) degrees."""
        slope, r2 = eigendecay_fit(nt1_table, parity="even", degree_range=(10, 60))
        assert abs(slope - (-3.0)) <= 0.3
        assert r2 > 0.999

    def test_rf1_dominant_parity_slope(self, rf1_table):
        """RF s=1 d=3 decays like i^{-5} on its dominant (even) degrees."""
        slope, _ = eigendecay_fit(rf1_table, parity="even", degree_range=(10, 60))
        assert abs(slope - (-5.0)) <= 0.5

    def test_nt2_dominant_parity_slope(self, nt2_table):
        """NT s=2 d=3 decays like i^{-5} on its dominant (odd) degrees."""
        slope, _ = eigendecay_fit(nt2_table, parity="odd", degree_range=(9, 59))
        assert abs(slope - (-5.0)) <= 0.5

    def test_matern_slope(self, matern_table):
        """Matern nu=1/2 d=3 decays like i^{-2(nu+(d-1)/2)} = i^{-3}."""
        slope, r2 = eigendecay_fit(matern_table, parity="all", degree_range=(10, 60))
        assert abs(slope - (-3.0)) <= 0.1
        assert r2 > 0.999

    def test_suppressed_parity_has_no_usable_degrees(self, nt1_table):
        """NT s=1 odd eigenvalues vanish beyond degree 1, so the fit refuses."""
        with pytest.raises(FitError, match="0 usable"):
            eigendecay_fit(nt1_table, parity="odd", degree_range=(9, 59))

    def test_parity_suppression_factor(self, nt1_table):
        """Each suppressed eigenvalue sits far below its dominant neighbors."""
        lam = nt1_table.eigenvalues
        for i in range(11, 60, 2):
            neighbor_mean = np.sqrt(lam[i - 1] * lam[i + 1])
            assert lam[i] <= neighbor_mean / 5.0

    def test_exact_power_law_recovered(self):
        """A synthetic i^{-3} table fits slope -3 with r^2 = 1."""
        i = np.arange(61, dtype=float)
        lam = np.zeros(61)
        lam[1:] = i[1:] ** -3.0
        table = SpectrumTable(
            d=3, eigenvalues=lam,
            multiplicities=[multiplicity(3, j) for j in range(61)],
            provenance="numerical-custom",
        )
        slope, r2 = eigendecay_fit(table, parity="all", degree_range=(5, 60))
        assert_allclose(slope, -3.0, atol=1e-10)
        assert_allclose(r2, 1.0, atol=1e-12)

    def test_default_range(self):
        assert default_fit_range() == (9, 59)
        assert default_fit_range(1) == (9, 59)
        assert default_fit_range(3) == (9, 59)
        assert default_fit_range(4) == (11, 59)

    def test_fit_error_names_count(self, nt1_table):
        with pytest.raises(FitError, match="need at least 5"):
            eigendecay_fit(nt1_table, parity="even", degree_range=(10, 14))

    def test_loglog_fit_exact_line(self):
        x = np.array([2.0, 4.0, 8.0, 16.0])
        slope, intercept, r2 = _loglog_fit(x, 3.0 * x**-2.5)
        assert_allclose(slope, -2.5, rtol=1e-12)
        assert_allclose(np.exp(intercept), 3.0, rtol=1e-12)
        assert_allclose(r2, 1.0, atol=1e-14)


class TestReconstruction:
    def test_linear_kernel_roundtrip(self):
        table = mercer_spectrum(lambda u: u, 3, 5)
        assert_allclose(reconstruct(table, 0.7), 0.7, atol=1e-8)

    def test_nt1_pointwise_within_tail(self, nt1_table):
        """Truncation error at stray points stays inside the tail bound."""
        bound = tail_sum("nt", 1, 3, 60)
        assert abs(reconstruct(nt1_table, 0.0) - 1.0 / np.pi) <= bound
        assert abs(reconstruct(nt1_table, 1.0) - 2.0) <= bound

    def test_rf1_at_one_within_tail(self, rf1_table):
        bound = tail_sum("rf", 1, 3, 60)
        assert abs(reconstruct(rf1_table, 1.0) - 1.0) <= bound

    def test_sup_error_within_tail_bound(self, nt1_table, rf1_table):
        """Sup-norm truncation error over a 201-point grid obeys tail_sum."""
        u = np.linspace(-1.0, 1.0, 201)
        for table, fam, s in [(nt1_table, "nt", 1), (rf1_table, "rf", 1)]:
            k = make_kernel(fam, s)
            sup_err = np.max(np.abs(reconstruct(table, u) - k(u)))
            assert sup_err <= tail_sum(fam, s, 3, 60)

    def test_convergence_in_truncation_degree(self):
        """Sup error is nonincreasing in M and decays at least like M^{-(2s-1)}."""
        u = np.linspace(-1.0, 1.0, 201)
        k = make_kernel("nt", 1)
        kv = k(u)
        errs = []
        for M in (10, 20, 40):
            table = mercer_spectrum(k, 3, M)
            errs.append(np.max(np.abs(reconstruct(table, u) - kv)))
        assert errs[0] >= errs[1] >= errs[2]
        slope, _, _ = _loglog_fit([10, 20, 40], errs)
        assert slope <= -(2 * 1 - 1) + 0.5


class TestTailSum:
    def test_nt1_halving(self):
        """Doubling M halves the NT s=1 tail (decay exponent 2s-1 = 1)."""
        vals = [tail_sum("nt", 1, 3, M) for M in (8, 16, 32)]
        for lo, hi in zip(vals[1:], vals[:-1]):
            assert abs(lo / hi - 0.5) <= 0.25 * 0.5

    def test_nt2_ratio(self):
        """NT s=2 tails shrink by 2^{-3} per doubling."""
        vals = [tail_sum("nt", 2, 3, M) for M in (8, 16, 32)]
        for lo, hi in zip(vals[1:], vals[:-1]):
            assert abs(lo / hi - 0.125) <= 0.25 * 0.125

    def test_rf1_ratio_converges(self):
        """RF s=1 ratios approach 2^{-3}, tightening as M grows."""
        vals = [tail_sum("rf", 1, 3, M) for M in (16, 32, 64, 128)]
        ratios = np.array([lo / hi for lo, hi in zip(vals[1:], vals[:-1])])
        devs = np.abs(ratios - 0.125)
        assert devs[-1] <= 0.25 * 0.125
        assert devs[-1] <= devs[0]

    def test_nonnegative_at_cutoff(self):
        assert tail_sum("nt", 1, 3, 399) >= 0.0

    def test_rejects_m_beyond_cutoff(self):
        with pytest.raises(ConfigurationError):
            tail_sum("nt", 1, 3, 400)

    @pytest.mark.parametrize("M", [-3, -1, 2.5, "8"])
    def test_rejects_negative_or_non_integer_m(self, M):
        """A negative M would sum only the last terms; 2.5 is not a degree."""
        with pytest.raises(ParameterError, match="integer"):
            tail_sum("nt", 1, 3, M)

    def test_accepts_numpy_integer_m(self):
        assert tail_sum("nt", 1, 3, np.int64(16)) == tail_sum("nt", 1, 3, 16)


class TestMaternSpectrum:
    def test_pinned_values(self):
        table = matern_spectrum(MaternSpec(nu=0.5, d=3), 5)
        assert_allclose(table.eigenvalues[0], 1.0, rtol=1e-15)
        assert_allclose(table.eigenvalues[1], 3.0**-1.5, rtol=1e-15)
        table4 = matern_spectrum(MaternSpec(nu=1.5, d=4), 5)
        assert_allclose(table4.eigenvalues[2], 11.0**-3, rtol=1e-15)

    def test_matches_formula_everywhere(self):
        """The table is evaluated, not quadratured: exact to float precision."""
        spec = MaternSpec(nu=2.5, d=5, lengthscale=0.7)
        table = matern_spectrum(spec, 30)
        i = np.arange(31, dtype=float)
        expected = (2.0 * 2.5 / (0.7 * 0.7) + i * (i + 3.0)) ** -(2.5 + 2.0)
        assert_allclose(table.eigenvalues, expected, rtol=0, atol=0)

    def test_strictly_decreasing(self):
        table = matern_spectrum(MaternSpec(nu=0.5, d=3), 40)
        assert np.all(np.diff(table.eigenvalues) < 0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            MaternSpec(nu=0.0, d=3)
        with pytest.raises(ParameterError):
            MaternSpec(nu=0.5, d=3, lengthscale=-1.0)


class TestFlatten:
    def test_small_example(self):
        table = SpectrumTable(
            d=3, eigenvalues=[0.9, 0.2], multiplicities=[1, 3],
            provenance="numerical-custom",
        )
        assert_allclose(flatten_spectrum(table), [0.9, 0.2, 0.2, 0.2], rtol=0)

    def test_matern_repetitions(self):
        table = matern_spectrum(MaternSpec(nu=0.5, d=3), 2)
        flat = flatten_spectrum(table)
        expected = np.concatenate([[1.0], [3.0**-1.5] * 3, [7.0**-1.5] * 5])
        assert_allclose(flat, expected, rtol=1e-15)

    def test_length_and_order(self, nt1_table):
        flat = flatten_spectrum(nt1_table)
        assert flat.size == int(nt1_table.multiplicities.sum())
        assert np.all(np.diff(flat) <= 0)

    def test_nt1_flattened_slope(self):
        """Sorted-eigenvalue decay matches -(d+2s-2)/(d-1) = -3/2 for NT s=1 d=3."""
        table = mercer_spectrum(make_kernel("nt", 1), 3, 40)
        flat = flatten_spectrum(table)
        positive = flat[flat > 1e-14]
        ranks = np.arange(1, positive.size + 1)
        slope, _, _ = _loglog_fit(ranks[30:], positive[30:])
        assert abs(slope - (-1.5)) <= 0.25


class TestEndpoint:
    def test_pinned_coefficients(self):
        c_minus, c_plus = endpoint_coefficient(1)
        assert_allclose(c_minus, 2.0 * np.sqrt(2.0) / (3.0 * np.pi), rtol=1e-15)
        assert c_plus == c_minus
        c_minus2, c_plus2 = endpoint_coefficient(2)
        assert_allclose(c_minus2, 16.0 * np.sqrt(2.0) / (45.0 * np.pi), rtol=1e-15)
        assert c_plus2 == -c_minus2

    def test_sign_alternation(self):
        """c_plus flips sign with each power: (-1)^{s-1} c_minus."""
        for s in (1, 2, 3):
            c_minus, c_plus = endpoint_coefficient(s)
            assert c_minus > 0
            assert_allclose(c_plus, (-1.0) ** (s - 1) * c_minus, rtol=1e-15)

    def test_verify_converges_within_two_percent(self):
        """Sampled ratios near u = -1 land on the analytic coefficient."""
        for s in (1, 2):
            ratios = verify_endpoint(s)
            c_minus, _ = endpoint_coefficient(s)
            assert abs(ratios[-1] / c_minus - 1.0) <= 0.02

    def test_verify_s3_on_reliable_grid(self):
        """For s=3 the kernel value near -1 falls under 1e-15, so t stops at
        3e-4 before float64 cancellation dominates; the ratio is then tight."""
        ratios = verify_endpoint(3, np.array([1e-2, 1e-3, 3e-4]))
        c_minus, _ = endpoint_coefficient(3)
        assert abs(ratios[-1] / c_minus - 1.0) <= 0.02

    def test_ratio_differences_shrink(self):
        ratios = verify_endpoint(1, np.array([1e-1, 1e-2, 1e-3, 1e-4]))
        c_minus, _ = endpoint_coefficient(1)
        gaps = np.abs(ratios - c_minus)
        assert np.all(np.diff(gaps) < 0)

    def test_rejects_bad_grid(self):
        with pytest.raises(ParameterError):
            verify_endpoint(1, np.array([0.2]))
        with pytest.raises(ParameterError):
            verify_endpoint(1, np.array([0.0]))


class TestRkhsEquivalence:
    def test_table_against_itself(self, matern_table):
        assert rkhs_equivalence_ratio(matern_table, matern_table, (5, 59)) == (1.0, 1.0)

    def test_nt1_vs_matern_dominant_parity_bounded(self, nt1_table, matern_table):
        """Same decay on the dominant parity keeps the ratio spread under 20."""
        lo, hi = rkhs_equivalence_ratio(nt1_table, matern_table, (6, 58), parity="even")
        assert lo > 0
        assert hi / lo < 20.0

    def test_nt1_vs_matern_suppressed_parity_vanishes(self, nt1_table, matern_table):
        """Opposite-parity ratios collapse: containment without equivalence."""
        lo_even, _ = rkhs_equivalence_ratio(nt1_table, matern_table, (6, 58), "even")
        lo_odd, hi_odd = rkhs_equivalence_ratio(nt1_table, matern_table, (5, 59), "odd")
        assert lo_odd <= lo_even / 10.0
        assert np.isfinite(hi_odd)

    def test_rejects_dimension_mismatch(self, nt1_table):
        other = matern_spectrum(MaternSpec(nu=0.5, d=4), 60)
        with pytest.raises(ConfigurationError):
            rkhs_equivalence_ratio(nt1_table, other, (5, 20))

    def test_rejects_zero_denominator(self, nt1_table, matern_table):
        with pytest.raises(DomainError, match="degree"):
            rkhs_equivalence_ratio(matern_table, nt1_table, (5, 59), parity="odd")

    def test_negative_window_start_is_an_error(self, nt1_table, matern_table):
        """A negative lo would index from the end of the tables (degrees 58-60 at -3)."""
        with pytest.raises(ParameterError, match="-3"):
            rkhs_equivalence_ratio(nt1_table, matern_table, (-3, 10))
        with pytest.raises(ParameterError, match="-3"):
            eigendecay_fit(nt1_table, degree_range=(-3, 30))


class TestSerialization:
    def test_csv_roundtrip(self, matern_table):
        text = matern_table.to_csv()
        lines = text.split("\r\n")
        assert lines[0] == "degree,eigenvalue,multiplicity"
        cells = lines[2].split(",")
        assert int(cells[0]) == 1
        assert float(cells[1]) == matern_table.eigenvalues[1]
        assert int(cells[2]) == 3

    def test_json_document(self, matern_table):
        import json

        doc = json.loads(matern_table.to_json(timestamp="MASKED"))
        assert doc["meta"]["timestamp"] == "MASKED"
        assert doc["payload"]["d"] == 3
        assert doc["payload"]["provenance"] == "analytic-Matérn"
        assert doc["payload"]["n_clamped"] == 0
        assert doc["payload"]["max_degree"] == matern_table.max_degree
        assert doc["payload"]["degrees"] == list(range(matern_table.max_degree + 1))
        assert_allclose(doc["payload"]["eigenvalues"], matern_table.eigenvalues)
