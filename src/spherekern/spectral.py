"""Mercer spectra of dot-product kernels on the sphere S^{d-1}.

A continuous kernel of the inner product diagonalizes in spherical
harmonics; by the addition theorem the degree-i harmonics enter only
through Gegenbauer polynomials, so the kernel expands as

    kappa(u) = sum_i  lam_i * c_{i,d} * C_i^alpha(u),      alpha = (d-2)/2,

where ``lam_i`` is the eigenvalue shared by the ``N_{d,i}`` harmonics of
degree i and ``c_{i,d}`` is the addition-theorem constant.  This module
computes the ``lam_i`` by weighted Gegenbauer projection on a composite
Gauss-Legendre grid refined toward the endpoints (the kernels have
fractional-power behavior at u = +-1), provides analytic Matern spectra
for comparison, and offers tail bounds, decay-rate fits, endpoint
expansion coefficients, and RKHS-equivalence ratio tests on top.

The tail bound needs no quadrature: each degree's share
t_i = lam_i c_{i,d} C_i(1) of kappa(1) has a closed form for two-layer
kernels (:func:`_degree_terms`), and :func:`tail_sum` sums those past M
and bounds the rest by a proven ratio inequality.

The ambient dimension must be an integer d >= 3 for spectral operations,
else an UnsupportedDimensionError: at d = 2 the Gegenbauer weight degenerates
(alpha = 0).  Every degree argument is a non-negative integer (a numpy integer
too, a bool not), else a ParameterError; both by ``errors._check_int``.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import comb, exp, gamma, lgamma, log, pi, prod, sqrt
from sys import float_info

import numpy as np

from .errors import (
    ConfigurationError,
    DomainError,
    FitError,
    ParameterError,
    SpectralAccuracyError,
    UnsupportedDimensionError,
    UnsupportedSmoothnessError,
    _check_int,
    _check_positive,
)
from .kernels import DotProductKernel, KernelSpec, _as_ufloat, double_factorial_odd, rf_closed
from .serialize import JsonReport

#: Degrees with eigenvalue below this are treated as numerically zero
#: (suppressed parity) by the fitting routines.
ZERO_EIGENVALUE = 1e-14

#: Composite quadrature panels: N_GEO geometrically refined panels toward
#: each endpoint and N_MID uniform panels across [-0.5, 0.5].
N_GEO = 30
N_MID = 12


def multiplicity(d, i):
    """Number N_{d,i} of degree-i spherical harmonics on S^{d-1} (exact int).

    Evaluates (2i+d-2)/i * binomial(i+d-3, d-2) in the integer-exact form
    2*binomial(i+d-3, i-1) + binomial(i+d-3, i); N_{d,0} = 1.
    """
    i = _check_int(i, "degree", 0)
    d = _check_int(d, "d", 2, UnsupportedDimensionError)
    if i == 0:
        return 1
    return 2 * comb(i + d - 3, i - 1) + comb(i + d - 3, i)


def _gegenbauer_rows(alpha, max_degree, u):
    """Yield (i, C_i^alpha(u)) for i = 0..max_degree via the three-term recurrence.

    The rows live in three rotating buffers updated in place: a yielded row
    stays valid until the row after next is requested, so consume or copy it.
    """
    prev2 = np.ones_like(u)
    yield 0, prev2
    if max_degree == 0:
        return
    prev1 = np.multiply(u, 2.0 * alpha, out=np.empty_like(u))
    yield 1, prev1
    cur = np.empty_like(u)
    for i in range(2, max_degree + 1):
        # C_i = (2 (i + alpha - 1) u C_{i-1} - (i + 2 alpha - 2) C_{i-2}) / i
        np.multiply(u, 2.0 * (i + alpha - 1.0), out=cur)
        cur *= prev1
        prev2 *= i + 2.0 * alpha - 2.0
        cur -= prev2
        cur /= i
        yield i, cur
        prev2, prev1, cur = prev1, cur, prev2


def _gegenbauer_norms(alpha, max_degree):
    """Closed-form norms h_i = <C_i, C_i>_w for i = 0..max_degree.

    h_i = pi 2^(1 - 2 alpha) Gamma(i + 2 alpha) / (i! (i + alpha) Gamma(alpha)^2).
    h_0 goes through lgamma, because Gamma overflows past 171; h_i follows as
    the running product of h_k / h_{k-1} = (k + 2 alpha - 1)(k + alpha - 1) /
    (k (k + alpha)), which stays within a few ulps where the difference
    lgamma(i + 2 alpha) - lgamma(i + 1) would lose 5e-13 by degree 400.
    """
    h0 = exp(log(pi) + (1.0 - 2.0 * alpha) * log(2.0)
             + lgamma(2.0 * alpha) - 2.0 * lgamma(alpha)) / alpha
    k = np.arange(1.0, max_degree + 1.0)
    ratios = (k + 2.0 * alpha - 1.0) * (k + alpha - 1.0) / (k * (k + alpha))
    return h0 * np.concatenate(([1.0], np.cumprod(ratios)))


def gegenbauer(alpha, i, u):
    """Gegenbauer polynomial C_i^alpha(u) for a finite alpha > 0.

    The maximum over [-1, 1] is attained at u = 1, where the value is
    binomial(i + 2*alpha - 1, i).  ``u`` is checked as every kernel evaluator
    checks it: a NaN, or an entry beyond [-1, 1] by more than
    ``U_CLAMP_TOL``, raises DomainError.
    """
    if not 0.0 < alpha < float("inf"):  # NaN fails both comparisons
        raise UnsupportedDimensionError(
            f"Gegenbauer weight requires a finite alpha > 0 (d >= 3); got alpha={alpha}"
        )
    i = _check_int(i, "degree", 0)
    arr, scalar = _as_ufloat(u)
    for _, row in _gegenbauer_rows(alpha, i, arr):
        pass  # the last row is degree i
    return float(row[0]) if scalar else row


def gegenbauer_at_one(d, i):
    """C_i^{(d-2)/2}(1) = binomial(i + d - 3, i), exact."""
    i = _check_int(i, "degree", 0)
    return comb(i + _check_int(d, "d", 3, UnsupportedDimensionError) - 3, i)


def addition_constant(d, i):
    """Addition-theorem constant c_{i,d} = N_{d,i} Gamma((d-2)/2) / (2 pi^{(d-2)/2} C_i(1))."""
    d = _check_int(d, "d", 3, UnsupportedDimensionError)
    i = _check_int(i, "degree", 0)
    return float(_degree_constants(d, i)[0][i])


def _exact_table(f, d, M):
    """``[f(d, i) for i = 0..M]`` as int64; a ParameterError if a value does not fit."""
    try:
        return np.array([f(d, i) for i in range(M + 1)], dtype=np.int64)
    except OverflowError:
        raise ParameterError(
            f"{f.__name__} at d={d} up to degree {M} exceeds the int64 range"
        ) from None


def _degree_constants(d, M):
    """``(c_{i,d}, C_i(1), N_{d,i})`` for i = 0..M as arrays, for an int d >= 3.

    C_i(1) and N_{d,i} are the exact :func:`gegenbauer_at_one` and
    :func:`multiplicity` as int64 (a ParameterError if they do not fit);
    :func:`addition_constant` reads c_{i,d} from here.

    c_{i,d} = N Gamma((d-2)/2) / (2 pi^{(d-2)/2} C_i(1)).  Where N Gamma
    overflows (at degree 2 from d = 341, Gamma itself from d = 346), the
    table comes from lgamma instead, to about 1e-13.  From d = 441 on
    c_{i,d} is not a finite float, a ParameterError.
    """
    at_one = _exact_table(gegenbauer_at_one, d, M)
    mult = _exact_table(multiplicity, d, M)
    alpha = (d - 2) / 2.0
    with np.errstate(over="ignore"):
        try:
            cfac = mult * gamma(alpha) / (2.0 * pi ** alpha * at_one)
        except OverflowError:  # Gamma itself
            cfac = np.array(np.inf)
        if not np.isfinite(cfac).all():
            cfac = mult / at_one * np.exp(lgamma(alpha) - log(2.0) - alpha * log(pi))
    if not np.isfinite(cfac).all():
        raise ParameterError(f"addition-theorem constants at d={d} overflow the float range")
    return cfac, at_one, mult


def _composite_panel_edges():
    """Panel edges on [-1, 1]: geometrically refined near the endpoints."""
    edges = [-1.0]
    for k in range(N_GEO - 1, -1, -1):
        edges.append(-1.0 + 0.5 * 2.0 ** (-k))
    edges.extend(np.linspace(-0.5, 0.5, N_MID + 1)[1:-1])
    for k in range(N_GEO):
        edges.append(1.0 - 0.5 * 2.0 ** (-k))
    edges.append(1.0)
    return np.array(edges)


@lru_cache(maxsize=8)
def _quadrature(d, panel_order):
    """Read-only composite Gauss-Legendre nodes and weights, spherical weight folded in."""
    edges = _composite_panel_edges()
    x, w = np.polynomial.legendre.leggauss(panel_order)
    half = 0.5 * np.diff(edges)[:, None]
    nodes = (edges[:-1, None] + half * (x + 1.0)).ravel()
    weights = (w * half).ravel() * (1.0 - nodes * nodes) ** ((d - 3) / 2.0)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


class GegenbauerBasis:
    """Quadrature-backed Gegenbauer basis of degree <= max_degree on [-1, 1].

    Stores composite Gauss-Legendre nodes and weights with the spherical
    weight w(t) = (1 - t^2)^{(d-3)/2} folded into the weights, so stored
    weights integrate directly against plain function values.  Panels are
    geometrically refined toward +-1 where the kernels lose smoothness.
    The per-panel order is max_degree + 8 + d, which integrates
    polynomials of degree well beyond 2*max_degree + 8 exactly within each
    panel; with 2*N_GEO + N_MID = 72 panels the node budget exceeds
    64*(max_degree + 8).

    The quadrature is built once per (d, panel order) and shared: bases
    with equal parameters hold the same read-only ``nodes`` and ``weights``
    arrays.  Immutable after construction.
    """

    def __init__(self, d, max_degree):
        self.d = _check_int(d, "d", 3, UnsupportedDimensionError)
        self.alpha = (self.d - 2) / 2.0
        self.max_degree = _check_int(max_degree, "max_degree", 0)
        self.nodes, self.weights = _quadrature(self.d, self.max_degree + 8 + self.d)

    def project(self, values, max_degree=None):
        """Projection coefficients b_i = <f, C_i>_w / h_i for i <= max_degree.

        The numerator is one weighted dot product per degree; the norm is the
        closed form h_i = <C_i, C_i>_w = pi 2^(1 - 2 alpha) Gamma(i + 2 alpha)
        / (i! (i + alpha) Gamma(alpha)^2).
        """
        M = self.max_degree if max_degree is None else _check_int(max_degree, "max_degree", 0)
        if M > self.max_degree:
            raise ConfigurationError(
                f"basis supports degrees <= {self.max_degree}, requested {M}"
            )
        wv = self.weights * np.asarray(values, dtype=float)
        dots = np.empty(M + 1)
        for i, Ci in _gegenbauer_rows(self.alpha, M, self.nodes):
            dots[i] = wv @ Ci
        return dots / _gegenbauer_norms(self.alpha, M)

    def orthogonality_defect(self):
        """Largest normalized off-diagonal weighted inner product between basis rows."""
        M = self.max_degree
        C = np.empty((M + 1, self.nodes.size))
        for i, Ci in _gegenbauer_rows(self.alpha, M, self.nodes):
            C[i] = Ci
        G = (C * self.weights) @ C.T
        norms = np.sqrt(np.diag(G))
        R = np.abs(G) / np.outer(norms, norms)
        np.fill_diagonal(R, 0.0)
        return float(R.max())

    def __repr__(self):
        return (
            f"GegenbauerBasis(d={self.d}, max_degree={self.max_degree}, "
            f"nodes={self.nodes.size})"
        )


@dataclass(frozen=True)
class SpectrumTable(JsonReport):
    """Per-degree eigenvalues lam_i of a spherical kernel with multiplicities.

    ``eigenvalues[i]`` is the eigenvalue shared by all ``multiplicities[i]``
    spherical harmonics of degree i; tiny quadrature negatives are clamped
    to zero at construction and counted in ``n_clamped``.
    """

    d: int
    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    provenance: str
    n_clamped: int = 0

    _json_extra = ("max_degree", "degrees")
    _csv_columns = {"degree": "degrees", "eigenvalue": "eigenvalues",
                    "multiplicity": "multiplicities"}

    def __post_init__(self):
        _check_int(self.d, "d", 2, UnsupportedDimensionError)
        ev = np.asarray(self.eigenvalues, dtype=float)
        mult = np.asarray(self.multiplicities, dtype=np.int64)
        if ev.shape != mult.shape or ev.ndim != 1:
            raise ParameterError("eigenvalues and multiplicities must be 1-d and equal length")
        ev.setflags(write=False)
        mult.setflags(write=False)
        object.__setattr__(self, "eigenvalues", ev)
        object.__setattr__(self, "multiplicities", mult)

    @property
    def max_degree(self):
        return self.eigenvalues.size - 1

    @property
    def degrees(self):
        return np.arange(self.eigenvalues.size)


def mercer_spectrum(kernel, d, M):
    """Project a dot-product kernel onto the Gegenbauer basis.

    Parameters
    ----------
    kernel : callable
        Vectorized map u -> kappa(u) on [-1, 1]; typically a
        :class:`~spherekern.kernels.DotProductKernel`, whose family names
        the provenance (any other callable is ``numerical-custom``).
    d : int >= 3
        Sphere dimension parameter (inputs live on S^{d-1}).
    M : int >= 0
        Largest degree to compute.  The quadrature of a :class:`GegenbauerBasis`
        of degree M is built once per (d, M) and shared.

    Raises
    ------
    SpectralAccuracyError
        If a projected eigenvalue is more negative than -1e-10 times the
        degree-0 eigenvalue, or the reconstructed kernel mass overshoots
        kappa(1) or is NaN; both indicate insufficient quadrature for the
        requested M.
    ParameterError
        If a positive eigenvalue is a subnormal float, which keeps fewer
        than 53 bits (for NT/RF kernels, from d of about 435 on).
    """
    basis = GegenbauerBasis(d, M)
    if isinstance(kernel, DotProductKernel):
        provenance = "numerical-NT" if kernel.spec.family == "nt" else "numerical-RF"
    else:
        provenance = "numerical-custom"

    values = kernel(basis.nodes)
    b = basis.project(values)
    cfac, at_one, mult = _degree_constants(basis.d, M)
    lam = b / cfac

    # Clamp scale: the largest eigenvalue (equals lam[0] for NT/RF kernels,
    # but stays meaningful for kernels whose degree-0 mass is itself zero).
    floor = -1e-10 * max(float(lam.max()), 0.0) - 1e-30
    if np.any(lam < floor):
        worst = float(lam.min())
        raise SpectralAccuracyError(
            f"eigenvalue {worst:.3e} below clamp floor {floor:.3e}; "
            "increase quadrature order or reduce M"
        )
    negatives = lam < 0.0
    n_clamped = int(negatives.sum())
    lam = np.where(negatives, 0.0, lam)
    subnormal = (lam > 0.0) & (lam < float_info.min)
    if subnormal.any():
        raise ParameterError(
            f"eigenvalues at d={d} underflow to subnormal floats "
            f"from degree {int(np.argmax(subnormal))}"
        )

    mass = float(np.sum(lam * cfac * at_one))
    kappa_one = float(kernel(np.array(1.0)))
    if not mass <= kappa_one + 1e-6:  # a NaN mass fails too
        raise SpectralAccuracyError(
            f"reconstructed mass {mass:.9f} is not at most kappa(1)={kappa_one:.9f}; "
            "increase quadrature order"
        )

    return SpectrumTable(
        d=basis.d, eigenvalues=lam, multiplicities=mult,
        provenance=provenance, n_clamped=n_clamped,
    )


def reconstruct(table, u):
    """Evaluate the truncated expansion sum_i lam_i c_{i,d} C_i^alpha(u).

    ``u`` is checked as every kernel evaluator checks it: a NaN, or an entry
    beyond [-1, 1] by more than ``U_CLAMP_TOL``, raises DomainError.
    """
    d = _check_int(table.d, "d", 3, UnsupportedDimensionError)
    alpha = (d - 2) / 2.0
    arr, scalar = _as_ufloat(u)
    out = np.zeros_like(arr)
    coef = table.eigenvalues * _degree_constants(d, table.max_degree)[0]
    for i, Ci in _gegenbauer_rows(alpha, table.max_degree, arr):
        out += coef[i] * Ci
    return float(out[0]) if scalar else out


def _degree_terms(family, s, d, K):
    """Exact shares t_k = lam_k c_{k,d} C_k(1) of kappa(1), k = 0..K, of the l = 2
    kernel (family, s) on S^{d-1}, RF s = 0 included; over all k they sum to kappa(1).

    RF (Funk-Hecke; Bach, 2017, JMLR, App. D.2): t_k = A N_{d,k} p_k^2 with
    p_{k+2} = p_k (k - s)/(k + s + d), so the parity of s vanishes past degree s.
    The terms recur on themselves, since N_{d,k} alone overflows a float at
    large d,

        t_{k+2}/t_k = (2k+d+2)(k+d-1)(k+d-2) / ((2k+d-2)(k+2)(k+1)) * ((k-s)/(k+s+d))^2,

    from two lgamma anchors, with c^2 = 2/(2s-1)!!:

        t_0 = c^2 2^s Gamma(d/2+s) Gamma(d/2) Gamma((s+1)/2)^2 / (4 pi Gamma((s+d)/2)^2),
        t_1 = d * t_0 with (s+2)/2 and (s+d+1)/2 in place of (s+1)/2 and (s+d)/2.

    NT = kappa_s + (s^2/(2s-1)) u kappa_{s-1} (Bietti & Mairal, 2019), and with
    P_k = C_k/C_k(1), u P_k = k/(2k+d-2) P_{k-1} + (k+d-2)/(2k+d-2) P_{k+1}: the
    RF s-1 term a_k moves those two shares to degrees k - 1 and k + 1.
    """
    if family == "nt":
        a = _degree_terms("rf", s - 1, d, K + 1)
        k = np.arange(K + 2.0)
        shift = a[1:] * k[1:] / (2.0 * k[1:] + d - 2.0)  # a_k's share at degree k - 1
        shift[1:] += (a * (k + d - 2.0) / (2.0 * k + d - 2.0))[:K]  # and at k + 1
        return _degree_terms("rf", s, d, K) + s * s / (2 * s - 1) * shift
    log_a = (log(2.0 / double_factorial_odd(s) / (4.0 * pi)) + s * log(2.0)
             + lgamma(d / 2.0 + s) + lgamma(d / 2.0))
    t = np.empty(max(K, 1) + 1)
    t[0] = exp(log_a + 2.0 * (lgamma((s + 1) / 2.0) - lgamma((s + d) / 2.0)))
    t[1] = d * exp(log_a + 2.0 * (lgamma((s + 2) / 2.0) - lgamma((s + d + 1) / 2.0)))
    k = np.arange(t.size - 2.0)
    ratio = ((2.0 * k + d + 2.0) * (k + d - 1.0) * (k + d - 2.0)
             / ((2.0 * k + d - 2.0) * (k + 2.0) * (k + 1.0)) * ((k - s) / (k + s + d)) ** 2)
    t[2::2] = t[0] * np.cumprod(ratio[0::2])
    t[3::2] = t[1] * np.cumprod(ratio[1::2])
    return t[:K + 1]


def tail_sum(family, s, d, M):
    """Upper bound on the sup-norm of the degree->M spectral tail of an l = 2 kernel.

    Degree i adds t_i = lam_i c_{i,d} C_i(1) to kappa(1) and at most that at any
    u, so sum_{i>M} t_i bounds the truncation error; this returns that sum from
    above, from the closed-form terms of :func:`_degree_terms` (no quadrature),
    for any integer d >= 3 (an UnsupportedDimensionError otherwise) and any
    integer M >= 0 (a ParameterError otherwise, a bool included).

    An NT tail is a sum of RF tails: with beta = s^2/(2s-1) and a_k the RF s-1
    terms, which u moves to degrees k -+ 1,

        sum_{i>M} t_i = T_s(M) + beta (T_{s-1}(M+1) + a_M (M+d-2)/(2M+d-2)
                                        + a_{M+1} (M+d-1)/(2M+d)),

    where T_r(m) is the tail past degree m of RF power r.  Each T_r(m) sums
    the exact terms up to K = m + 1026 or m + 1027, whichever has K - r odd
    (the parity that survives), and bounds the rest by

        sum_{k>K} t_k <= t_K (K + alpha) / (2 (q - 1)),   q = 2r + 2,  alpha = (d-2)/2.

    That follows from the ratio inequality, for every d >= 3 and k > r:

        t_{k+2}/t_k <= ((k + alpha)/(k + alpha + 2))^q.

    Proof: with y = k + alpha + 1 and c = alpha + r + 1 the ratio is
    (y+1)/(y-1) * (y+alpha)(y+alpha-1)/((y-alpha)(y-alpha+1)) * ((y-c)/(y+c))^2,
    and log((y+x)/(y-x)) = 2 g(x) with g(x) = artanh(x/y), so the claim reads
    (q+1) g(1) + g(alpha) + g(alpha-1) <= 2 g(c).  g is odd and convex on
    [0, y) with g(0) = 0, so g(x)/x does not decrease there, and y > c as k > r.
    For d >= 4 the arguments 1, alpha and alpha - 1 lie in [0, c] and sum to
    (q+1) + 2 alpha - 1 = 2c, so the left side is at most 2 g(c); at d = 3,
    g(1/2) + g(-1/2) = 0 and q + 1 = 2c.  Chained, the ratios give
    t_{K+2i} <= t_K ((K+alpha)/(K+alpha+2i))^q, and the sum over i >= 1 is at
    most t_K (K+alpha)^q times the integral of (K+alpha+2x)^-q over x >= 0.

    Rounding: a term is a product of at most K/2 ratios of about ten roundings
    each (2.5 K eps relative), the sum adds K eps / 2 and the lgamma anchors
    about 3 eps d log d, so the float sum can fall a few 1e-15 below the
    exact tail; the result is scaled by 1 + 16 eps (K + d log d).

    Against a 60-digit tail, kappa(1) less the exact terms up to M, the bound
    is at most 3.2e-4 above (relative) for d <= 12 and M <= 4096 and 6.7e-3
    above at d = 440 for M <= 400.  Time and memory grow linearly in M (about
    1 ms at M = 4096).  The log-log slope in M approaches -(2s-1) for NT and
    -(2s+1) for RF.
    """
    M = _check_int(M, "M", 0)
    d = _check_int(d, "d", 3, UnsupportedDimensionError)
    KernelSpec(family, s, d=d)  # family and s as every kernel checks them
    alpha = (d - 2) / 2.0
    parts = [(1.0, s, M)]
    if family == "nt":
        parts.append((s * s / (2 * s - 1), s - 1, M + 1))
    total = 0.0
    for weight, r, m in parts:
        K = m + 1026 + (m + r + 1) % 2
        t = _degree_terms("rf", r, d, K)
        total += weight * (t[m + 1:].sum() + t[K] * (K + alpha) / (4 * r + 2))
        if m > M:  # the shares of a_M and a_{M+1} that u moves past M
            total += weight * (t[M] * (M + d - 2) / (2 * M + d - 2)
                               + t[M + 1] * (M + d - 1) / (2 * M + d))
    return float(total * (1.0 + 16 * float_info.epsilon * (K + d * log(d))))


@dataclass(frozen=True)
class MaternSpec:
    """Matern kernel parameters: smoothness nu > 0 and lengthscale > 0 on S^{d-1}.

    The lengthscale defaults to 1; it shifts constants but not the decay rate.
    """

    nu: float
    d: int
    lengthscale: float = 1.0

    def __post_init__(self):
        _check_positive(self.nu, f"nu must be positive, got {self.nu}")
        _check_positive(self.lengthscale,
                        f"lengthscale must be positive, got {self.lengthscale}")
        _check_int(self.d, "d", 2, UnsupportedDimensionError)


def matern_spectrum(spec, M):
    """Analytic Matern spectrum lam_i = (2 nu/l^2 + i(i+d-2))^{-(nu + (d-1)/2)}.

    Evaluated, not quadratured: the table matches the formula to full
    floating precision and is strictly decreasing in the degree.
    """
    M = _check_int(M, "M", 0)
    i = np.arange(M + 1, dtype=float)
    shift = 2.0 * spec.nu / (spec.lengthscale * spec.lengthscale)
    lam = (shift + i * (i + spec.d - 2.0)) ** (-(spec.nu + (spec.d - 1.0) / 2.0))
    return SpectrumTable(
        d=spec.d, eigenvalues=lam, multiplicities=_exact_table(multiplicity, spec.d, M),
        provenance="analytic-Matérn", n_clamped=0,
    )


def flatten_spectrum(table):
    """Decreasingly ordered eigenvalue sequence: lam_i repeated N_{d,i} times.

    The global sort matters when parity suppression breaks per-degree
    monotonicity.  Output length is sum_i N_{d,i}.
    """
    flat = np.repeat(table.eigenvalues, table.multiplicities)
    return np.sort(flat)[::-1]


def endpoint_coefficient(s):
    """Leading coefficients of kappa_s near u = -1 and u = +1.

    kappa_s(-1 + t) = c_minus * t^{(2s+1)/2} + o(t^{(2s+1)/2}) with
    c_minus = (2^s sqrt(2)/pi) * prod_{r=1}^s r^2/(4r^2 - 1), and the
    non-polynomial part at +1 carries c_plus = (-1)^{s-1} c_minus.
    """
    s = _check_int(s, "s", 1, UnsupportedSmoothnessError)
    c_minus = (2.0**s * sqrt(2.0) / pi) * prod(
        r * r / (4.0 * r * r - 1.0) for r in range(1, s + 1)
    )
    c_plus = (-1.0) ** (s - 1) * c_minus
    return c_minus, c_plus


def verify_endpoint(s, t_grid=None):
    """Ratios kappa_s(-1 + t) / t^{(2s+1)/2} over a grid of small t.

    The sequence converges to the analytic endpoint coefficient as t -> 0;
    at t = 1e-4 it agrees within 2 percent.
    """
    if t_grid is None:
        t_grid = np.array([1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4])
    t = np.asarray(t_grid, dtype=float)
    if np.any(t <= 0.0) or np.any(t > 0.1):
        raise ParameterError("t values must lie in (0, 0.1]")
    return rf_closed(s, -1.0 + t) / t ** ((2 * s + 1) / 2.0)


def _loglog_fit(x, y):
    """Least-squares line through (log x, log y): returns (slope, intercept, r^2)."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    A = np.vstack([lx, np.ones_like(lx)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, ly, rcond=None)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def _window(max_degree, degree_range, parity):
    """Degrees lo..min(hi, max_degree) of parity 'even', 'odd' or 'all', as an index array.

    Each bound must be a non-negative integer (a negative lo would index from
    the end of a table), else a ParameterError.
    """
    lo, hi = (_check_int(x, "degree range bound", 0) for x in degree_range)
    if parity not in ("even", "odd", "all"):
        raise ParameterError(f"parity must be 'even', 'odd' or 'all', got {parity!r}")
    deg = np.arange(lo, min(hi, max_degree) + 1)
    return deg if parity == "all" else deg[deg % 2 == (parity == "odd")]


def default_fit_range(s=None):
    """Default degree range for eigendecay fits: [max(9, 2s+3), 59]."""
    lo = 9 if s is None else max(9, 2 * _check_int(s, "s", 0, UnsupportedSmoothnessError) + 3)
    return (lo, 59)


def eigendecay_fit(table, parity="all", degree_range=None, s=None):
    """Fit the power-law decay of log lam_i vs log i on a degree window.

    The window holds the degrees lo..hi of ``degree_range`` (default
    :func:`default_fit_range`) of the given parity, up to the table's max
    degree, less degree 0 and the degrees with lam_i <= 1e-14, which are
    numerically zero (suppressed parity).  Returns (slope, r_squared).  A
    bound that is not a non-negative integer is a ParameterError; fewer than
    5 usable degrees raises a fit error naming the count.
    """
    lo, hi = default_fit_range(s) if degree_range is None else degree_range
    deg = _window(table.max_degree, (lo, hi), parity)
    deg = deg[(deg > 0) & (table.eigenvalues[deg] > ZERO_EIGENVALUE)]
    if deg.size < 5:
        raise FitError(
            f"only {deg.size} usable degrees in [{lo}, {hi}] with parity={parity}; "
            "need at least 5"
        )
    slope, _, r2 = _loglog_fit(deg, table.eigenvalues[deg])
    return slope, r2


def rkhs_equivalence_ratio(numerator, denominator, degree_range, parity="all"):
    """Extremes of lam_i^num / lam_i^den over the degree window of both tables.

    The window holds the degrees lo..hi of ``degree_range`` of the given
    parity, up to the smaller max degree; a bound that is not a non-negative
    integer, or an empty window, is a ParameterError.  Both extremes bounded away from 0 and infinity
    witness RKHS equivalence; a bounded max with vanishing min witnesses
    one-sided containment (the opposite-parity case).
    """
    if numerator.d != denominator.d:
        raise ConfigurationError(
            f"dimension mismatch: {numerator.d} vs {denominator.d}"
        )
    max_degree = min(numerator.max_degree, denominator.max_degree)
    deg = _window(max_degree, degree_range, parity)
    if deg.size == 0:
        raise ParameterError(f"empty degree window {degree_range} with parity={parity}")
    den = denominator.eigenvalues[deg]
    if np.any(den <= 0.0):
        bad = int(deg[np.argmin(den)])
        raise DomainError(f"denominator eigenvalue at degree {bad} is not positive")
    ratios = numerator.eigenvalues[deg] / den
    return float(ratios.min()), float(ratios.max())
