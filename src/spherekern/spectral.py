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

The ambient dimension must satisfy d >= 3 for spectral operations: at
d = 2 the Gegenbauer weight degenerates (alpha = 0).
"""

from dataclasses import dataclass
from functools import lru_cache
from math import comb, exp, gamma, lgamma, log, pi, prod, sqrt

import numpy as np

from .errors import (
    ConfigurationError,
    DomainError,
    FitError,
    ParameterError,
    SpectralAccuracyError,
    UnsupportedDimensionError,
    UnsupportedSmoothnessError,
    _check_positive,
)
from .kernels import DotProductKernel, make_kernel, rf_closed
from .serialize import JsonReport, csv_document

#: Degrees with eigenvalue below this are treated as numerically zero
#: (suppressed parity) by the fitting routines.
ZERO_EIGENVALUE = 1e-14

#: Cutoff degree for tail_sum: numeric summation below, analytic
#: power-law remainder (constant fit from the last octave) above.
TAIL_M_MAX = 400

#: Factor by which tail_sum inflates its fitted power-law remainder.
TAIL_SAFETY = 1.1

#: Composite quadrature panels: N_GEO geometrically refined panels toward
#: each endpoint and N_MID uniform panels across [-0.5, 0.5].
N_GEO = 30
N_MID = 12


def multiplicity(d, i):
    """Number N_{d,i} of degree-i spherical harmonics on S^{d-1} (exact int).

    Evaluates (2i+d-2)/i * binomial(i+d-3, d-2) in the integer-exact form
    2*binomial(i+d-3, i-1) + binomial(i+d-3, i); N_{d,0} = 1.
    """
    if d < 2 or i < 0:
        raise ParameterError(f"multiplicity requires d >= 2 and i >= 0, got d={d}, i={i}")
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
    """Gegenbauer polynomial C_i^alpha(u) for alpha > 0.

    The maximum over [-1, 1] is attained at u = 1, where the value is
    binomial(i + 2*alpha - 1, i).
    """
    if alpha <= 0:
        raise UnsupportedDimensionError(
            f"Gegenbauer weight requires alpha > 0 (d >= 3); got alpha={alpha}"
        )
    if i < 0:
        raise ParameterError(f"degree must be nonnegative, got {i}")
    arr = np.asarray(u, dtype=float)
    for j, row in _gegenbauer_rows(alpha, i, arr):
        if j == i:
            return float(row) if arr.ndim == 0 else row
    raise AssertionError("unreachable")


def gegenbauer_at_one(d, i):
    """C_i^{(d-2)/2}(1) = binomial(i + d - 3, i), exact."""
    return comb(i + d - 3, i)


def addition_constant(d, i):
    """Addition-theorem constant c_{i,d} = N_{d,i} Gamma((d-2)/2) / (2 pi^{(d-2)/2} C_i(1))."""
    if d < 3:
        raise UnsupportedDimensionError(f"addition_constant requires d >= 3, got d={d}")
    return (
        multiplicity(d, i)
        * gamma((d - 2) / 2.0)
        / (2.0 * pi ** ((d - 2) / 2.0) * gegenbauer_at_one(d, i))
    )


def _exact_table(f, d, M):
    """``[f(d, i) for i = 0..M]`` as int64; a ParameterError if a value does not fit."""
    try:
        return np.array([f(d, i) for i in range(M + 1)], dtype=np.int64)
    except OverflowError:
        raise ParameterError(
            f"{f.__name__} at d={d} up to degree {M} exceeds the int64 range"
        ) from None


def _degree_constants(d, M):
    """``(c_{i,d}, C_i(1), N_{d,i})`` for i = 0..M as arrays, d >= 3.

    C_i(1) and N_{d,i} are the exact :func:`gegenbauer_at_one` and
    :func:`multiplicity` as int64 (a ParameterError if they do not fit);
    c_{i,d} is :func:`addition_constant`, bit for bit.
    """
    d = int(d)  # Python floats in cfac, even for a numpy d
    at_one = _exact_table(gegenbauer_at_one, d, M)
    mult = _exact_table(multiplicity, d, M)
    cfac = mult * gamma((d - 2) / 2.0) / (2.0 * pi ** ((d - 2) / 2.0) * at_one)
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
        if d < 3:
            raise UnsupportedDimensionError(
                f"spectral operations require d >= 3, got d={d}"
            )
        if max_degree < 0:
            raise ParameterError(f"max_degree must be >= 0, got {max_degree}")
        self.d = int(d)
        self.alpha = (d - 2) / 2.0
        self.max_degree = int(max_degree)
        self.nodes, self.weights = _quadrature(self.d, self.max_degree + 8 + self.d)

    def project(self, values, max_degree=None):
        """Projection coefficients b_i = <f, C_i>_w / h_i for i <= max_degree.

        The numerator is one weighted dot product per degree; the norm is the
        closed form h_i = <C_i, C_i>_w = pi 2^(1 - 2 alpha) Gamma(i + 2 alpha)
        / (i! (i + alpha) Gamma(alpha)^2).
        """
        M = self.max_degree if max_degree is None else max_degree
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

    def __post_init__(self):
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

    def to_csv(self):
        rows = zip(self.degrees, self.eigenvalues, self.multiplicities)
        return csv_document(["degree", "eigenvalue", "multiplicity"], rows)


def mercer_spectrum(kernel, d, M, basis=None, provenance=None):
    """Project a dot-product kernel onto the Gegenbauer basis.

    Parameters
    ----------
    kernel : callable
        Vectorized map u -> kappa(u) on [-1, 1]; typically a
        :class:`~spherekern.kernels.DotProductKernel`.
    d : int >= 3
        Sphere dimension parameter (inputs live on S^{d-1}).
    M : int
        Largest degree to compute.
    basis : GegenbauerBasis, optional
        Reused quadrature; must satisfy ``basis.max_degree >= M`` and match d.
    provenance : str, optional
        Overrides the provenance tag; inferred for DotProductKernel inputs.

    Raises
    ------
    SpectralAccuracyError
        If a projected eigenvalue is more negative than -1e-10 times the
        degree-0 eigenvalue, or the reconstructed kernel mass overshoots
        kappa(1); both indicate insufficient quadrature for the requested M.
    """
    if basis is None:
        basis = GegenbauerBasis(d, M)
    if basis.d != d:
        raise ConfigurationError(f"basis dimension {basis.d} does not match d={d}")
    if basis.max_degree < M:
        raise ConfigurationError(
            f"basis max_degree {basis.max_degree} < requested M={M}"
        )
    if provenance is None:
        if isinstance(kernel, DotProductKernel):
            provenance = "numerical-NT" if kernel.spec.family == "nt" else "numerical-RF"
        else:
            provenance = "numerical-custom"

    values = kernel(basis.nodes)
    b = basis.project(values, M)
    cfac, at_one, mult = _degree_constants(d, M)
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

    mass = float(np.sum(lam * cfac * at_one))
    kappa_one = float(kernel(np.array(1.0)))
    if mass > kappa_one + 1e-6:
        raise SpectralAccuracyError(
            f"reconstructed mass {mass:.9f} exceeds kappa(1)={kappa_one:.9f}; "
            "increase quadrature order"
        )

    return SpectrumTable(
        d=d, eigenvalues=lam, multiplicities=mult,
        provenance=provenance, n_clamped=n_clamped,
    )


def reconstruct(table, u):
    """Evaluate the truncated expansion sum_i lam_i c_{i,d} C_i^alpha(u)."""
    alpha = (table.d - 2) / 2.0
    if alpha <= 0:
        raise UnsupportedDimensionError("reconstruction requires d >= 3")
    arr = np.asarray(u, dtype=float)
    out = np.zeros_like(arr, dtype=float)
    coef = table.eigenvalues * _degree_constants(table.d, table.max_degree)[0]
    for i, Ci in _gegenbauer_rows(alpha, table.max_degree, arr):
        out += coef[i] * Ci
    return float(out) if arr.ndim == 0 else out


@lru_cache(maxsize=16)
def _cached_full_spectrum(family, s, d):
    kernel = make_kernel(family, s, d=d)
    return mercer_spectrum(kernel, d, TAIL_M_MAX)


def tail_sum(family, s, d, M):
    """Upper bound on the sup-norm of the degree->M spectral tail, for 0 <= M < TAIL_M_MAX.

    Sums lam_i c_{i,d} C_i(1) = lam_i N_{d,i} Gamma((d-2)/2)/(2 pi^{(d-2)/2})
    — each degree's contribution to kappa(1), which bounds its contribution
    at any u — numerically for M < i <= TAIL_M_MAX = 400, then adds an
    analytic power-law remainder whose constant is fit from the last
    computed octave (degree terms decay like i^{-2s} for NT and i^{-2s-2}
    for RF) and inflated by TAIL_SAFETY = 1.1.  The log-log slope of the
    result vs M approaches -(2s-1) for NT and -(2s+1) for RF while the
    spectrum up to TAIL_M_MAX stays above the quadrature noise floor.
    Any other M, a non-integer one included, is a ParameterError.
    """
    if not (isinstance(M, (int, np.integer)) and 0 <= M < TAIL_M_MAX):
        raise ParameterError(f"tail_sum requires an integer 0 <= M < {TAIL_M_MAX}, got {M!r}")
    table = _cached_full_spectrum(family, s, d)
    cfac, at_one, _ = _degree_constants(d, TAIL_M_MAX)
    terms = table.eigenvalues * cfac * at_one
    numeric = float(terms[M + 1 :].sum())
    p = 2 * s if family == "nt" else 2 * s + 2
    octave = float(terms[TAIL_M_MAX // 2 + 1 :].sum())
    remainder = octave / (2.0 ** (p - 1) - 1.0) * TAIL_SAFETY
    return numeric + remainder


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
        if self.d < 2:
            raise ParameterError(f"d must be >= 2, got {self.d}")


def matern_spectrum(spec, M):
    """Analytic Matern spectrum lam_i = (2 nu/l^2 + i(i+d-2))^{-(nu + (d-1)/2)}.

    Evaluated, not quadratured: the table matches the formula to full
    floating precision and is strictly decreasing in the degree.
    """
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
    if s < 1:
        raise ParameterError(f"endpoint coefficients require s >= 1, got {s}")
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

    A negative lo is a ParameterError: it would index from the end of a table.
    """
    lo, hi = degree_range
    if lo < 0:
        raise ParameterError(f"degree range must start at 0 or above, got {lo}")
    if parity not in ("even", "odd", "all"):
        raise ParameterError(f"parity must be 'even', 'odd' or 'all', got {parity!r}")
    deg = np.arange(lo, min(hi, max_degree) + 1)
    return deg if parity == "all" else deg[deg % 2 == (parity == "odd")]


def default_fit_range(s=None):
    """Default degree range for eigendecay fits: [max(9, 2s+3), 59]."""
    lo = 9 if s is None else max(9, 2 * s + 3)
    return (lo, 59)


def eigendecay_fit(table, parity="all", degree_range=None, s=None):
    """Fit the power-law decay of log lam_i vs log i on a degree window.

    The window holds the degrees lo..hi of ``degree_range`` (default
    :func:`default_fit_range`) of the given parity, up to the table's max
    degree, less degree 0 and the degrees with lam_i <= 1e-14, which are
    numerically zero (suppressed parity).  Returns (slope, r_squared).  A
    negative lo is a ParameterError; fewer than 5 usable degrees raises a
    fit error naming the count.
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
    parity, up to the smaller max degree; a negative lo or an empty window
    is a ParameterError.  Both extremes bounded away from 0 and infinity
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
