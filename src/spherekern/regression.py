"""Kernel ridge regression on the sphere with posterior-uncertainty tooling.

Implements the regressor f_hat(x) = k_n(x)^T (K_n + lam^2 I)^{-1} Y_n and
its posterior variance sigma_n^2(x) = kappa(1) - k_n(x)^T (K_n+lam^2 I)^{-1}
k_n(x), plus the quantities used to reason about sample efficiency:
information gain I = 1/2 log det(I + K/lam^2), effective dimension
d_eff = Tr(K (K + lam^2 I)^{-1}), confidence bands with multiplier
beta(delta) = B + (R/lam) sqrt(2 log(1/delta)), and greedy max-variance
data collection over a candidate grid.

All log-determinants come from Cholesky factors (sum of log-diagonals,
doubled), never from raw determinants; information gain, effective
dimension and the variance-sum bound of one point set share a single
factor.  A point set's K + lam^2 I takes one n x n buffer from inner
products to factor: ``kernels.gram`` writes the kernel values over the
inner products, lam^2 goes onto that array's diagonal, and the lower
factor overwrites it.  Only the effective dimension needs a second n x n
array, the one L^{-1} is solved into.

Greedy selection grows the inverse of the factor one row at a time and
evaluates the kernel only on the rows of the points it selects, so an
n-step run over an m-point grid costs n*m kernel evaluations, O(n^2 m)
arithmetic and O(n m) memory; it never forms the m x m grid Gram.
"""

from dataclasses import dataclass
from math import log, sqrt

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

from .errors import (
    ConfigurationError,
    DomainError,
    IllConditionedGramError,
    ParameterError,
    _check_lam,
    _check_positive,
)
from .kernels import _check_unit_rows, _cross_gram, gram
from .serialize import JsonReport

#: Jitter escalation for near-singular factorizations, as multiples of trace/n.
JITTER_LADDER = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)


@dataclass(frozen=True)
class SphericalDataset:
    """Training inputs on the unit sphere with observed values.

    ``noise_scale`` records the sub-Gaussian scale of the observation noise
    (metadata used by confidence bands and experiment protocols; 0 means
    noiseless observations).
    """

    X: np.ndarray
    Y: np.ndarray
    noise_scale: float = 0.0

    def __post_init__(self):
        # copies, so that freezing them leaves the caller's arrays writable
        X = np.array(self.X, dtype=float, ndmin=2)
        Y = np.array(self.Y, dtype=float).ravel()
        if X.shape[0] != Y.shape[0]:
            raise ParameterError(
                f"got {X.shape[0]} inputs but {Y.shape[0]} values"
            )
        _check_unit_rows(X, "input")
        bad = np.flatnonzero(~np.isfinite(Y))
        if bad.size:
            raise DomainError(f"value {bad[0]} is not finite: {Y[bad[0]]}")
        _check_positive(self.noise_scale, "noise_scale must be nonnegative", allow_zero=True)
        X.setflags(write=False)
        Y.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    def __len__(self):
        return self.Y.size

    @property
    def d(self):
        return self.X.shape[1]


@dataclass(frozen=True)
class ConfidenceParams:
    """Band parameters: RKHS norm bound B, noise scale R, failure probability delta."""

    norm_bound: float
    noise_scale: float
    delta: float

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ParameterError(f"delta must lie in (0, 1), got {self.delta}")
        _check_positive(self.norm_bound, "norm_bound must be positive")
        _check_positive(self.noise_scale, "noise_scale must be nonnegative", allow_zero=True)

    def beta(self, lam):
        """Multiplier beta(delta) = B + (R/lam) sqrt(2 log(1/delta))."""
        return self.norm_bound + (self.noise_scale / lam) * sqrt(
            2.0 * log(1.0 / self.delta)
        )


class FittedRegressor:
    """Immutable result of a kernel ridge regression fit.

    Holds the lower Cholesky factor L of K_n + lam^2 I (plus any jitter the
    factorization needed, recorded in ``jitter``) and the dual weights
    alpha = (K_n + lam^2 I)^{-1} Y_n.  The n = 0 instance built by
    :meth:`empty` is the prior: mean 0, variance kappa(1).
    """

    def __init__(self, kernel, X, lam, L, alpha, jitter=0.0):
        self.kernel = kernel
        # checked once here, so that predictions check only their own points
        self.X = _check_unit_rows(X, "training point")
        self.lam = float(lam)
        self.L = L
        self.alpha = alpha
        self.jitter = float(jitter)
        for arr in (self.X, self.L, self.alpha):
            arr.setflags(write=False)

    @classmethod
    def empty(cls, kernel, lam, d=None):
        """The prior model (no training data)."""
        _check_lam(lam)
        if d is None:
            spec = getattr(kernel, "spec", None)
            d = spec.d if spec is not None else 3
        return cls(kernel, np.empty((0, d)), lam, np.empty((0, 0)), np.empty(0))

    @property
    def n(self):
        return self.X.shape[0]


def sample_sphere(d, n, seed):
    """n points uniform on S^{d-1}: normalized standard Gaussian rows.

    Deterministic given the seed (which may be an int or a seed sequence).
    """
    if d < 2:
        raise ParameterError(f"d must be >= 2, got {d}")
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    while np.any(norms == 0.0):  # probability-zero guard
        X = rng.standard_normal((n, d))
        norms = np.linalg.norm(X, axis=1, keepdims=True)
    return X / norms


def _chol_with_jitter(build):
    """``(L, jitter)``: lower Cholesky factor of ``build()``, escalating diagonal
    jitter on failure.

    ``build`` returns a fresh, exactly symmetric, C-ordered matrix.  It is
    factored in place through its Fortran-ordered transpose, which holds the
    same numbers, so L shares its buffer.  A failed factorization leaves the
    buffer overwritten, so each later rung calls ``build`` again.  LAPACK gets
    the buffer unchecked; a factor with a non-finite diagonal counts as a
    failed rung.
    """
    A = build()
    n = A.shape[0]
    diag = A.diagonal().copy()
    scale = float(np.trace(A)) / max(n, 1)
    for level in JITTER_LADDER:
        if level > 0.0:  # the failed rung before this one overwrote A
            A = build()
            A.flat[:: n + 1] += level * scale
        try:
            L = cholesky(A.T, lower=True, overwrite_a=True, check_finite=False)
        except np.linalg.LinAlgError:
            continue
        # unchecked input: a NaN or inf in the triangle LAPACK reads reaches
        # the diagonal of L (or fails the factorization), so this O(n) test
        # stands in for the n x n one
        if np.isfinite(L.diagonal()).all():
            return L, level * scale
    ratio = float(np.max(diag) / np.min(diag))
    raise IllConditionedGramError(
        f"Cholesky failed for {n}x{n} system even with jitter "
        f"{JITTER_LADDER[-1]:.0e}*trace/n (diagonal ratio max/min {ratio:.3e})"
    )


def _ridge_factor(kernel, points, lam2):
    """``(L, jitter)``: lower Cholesky factor of gram(points) + lam2 I.

    lam2 goes onto the Gram's own diagonal and the factor overwrites it, so
    the Gram buffer is the only n x n array made.
    """
    def build():
        A = gram(kernel, points)
        A.flat[:: A.shape[0] + 1] += lam2
        return A

    return _chol_with_jitter(build)


def fit(kernel, dataset, lam):
    """Fit kernel ridge regression with regularization lam (noise std scale).

    The linear system uses lam^2 on the diagonal.  Near-singular Gram
    matrices (e.g. duplicated training points at small lam) get escalating
    diagonal jitter before the fit is abandoned.
    """
    _check_lam(lam)
    if len(dataset) == 0:
        raise ConfigurationError("fit requires a non-empty dataset; use FittedRegressor.empty")
    L, jitter = _ridge_factor(kernel, dataset.X, lam * lam)
    alpha = cho_solve((L, True), dataset.Y)
    return FittedRegressor(kernel, dataset.X, lam, L, alpha, jitter)


def _test_points(x):
    """``(points, was_single_point)``: x checked once as rows of unit vectors."""
    arr = np.asarray(x, dtype=float)
    return _check_unit_rows(arr, "test point"), arr.ndim == 1


def predict_mean(model, x):
    """Posterior mean at x (scalar for a single point, array for a batch)."""
    pts, scalar = _test_points(x)
    if model.n == 0:
        out = np.zeros(pts.shape[0])
    else:
        out = _cross_gram(model.kernel, pts, model.X) @ model.alpha
    return float(out[0]) if scalar else out


def predict_variance(model, x):
    """Posterior variance at x; independent of Y and clamped into [0, kappa(1)]."""
    pts, scalar = _test_points(x)
    kappa_one = model.kernel.kappa_one
    if model.n == 0:
        out = np.full(pts.shape[0], kappa_one)
    else:
        k = _cross_gram(model.kernel, pts, model.X)
        z = solve_triangular(model.L, k.T, lower=True)
        out = kappa_one - np.sum(z * z, axis=0)
        out = np.clip(out, 0.0, kappa_one)
    return float(out[0]) if scalar else out


def confidence_band(model, x, params):
    """Half-width beta(delta) * sigma_n(x) of the pointwise confidence band."""
    var = predict_variance(model, x)
    return params.beta(model.lam) * np.sqrt(var)


def _infogain_summary(kernel, points, lam, effective_dim=True):
    """``(info_gain, effective_dim, sum_variance, bound_rhs)`` of one point set.

    One Gram and one Cholesky factor L of K + lam^2 I give all four:
    log det from diag(L), Tr((K + lam^2 I)^{-1}) = ||L^{-1}||_F^2 from one
    triangular solve, and the sequential variances sigma_{i-1}^2(x_i) =
    L_ii^2 - lam^2 (see :func:`variance_sum_check`).  With
    ``effective_dim=False`` the n x n triangular solve, which only the
    effective dimension needs, is skipped and None returned in its place.
    """
    _check_lam(lam)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    lam2 = lam * lam
    L, _ = _ridge_factor(kernel, points, lam2)
    diag = np.diag(L)
    half_logdet = float(np.sum(np.log(diag)) - n * log(lam))
    eff = None
    if effective_dim:
        # the identity is solved and squared in place: a second n x n buffer
        L_inv = solve_triangular(L, np.eye(n, order="F"), lower=True, overwrite_b=True)
        eff = float(n - lam2 * np.sum(np.square(L_inv, out=L_inv)))
    sum_variance = float(np.sum(diag * diag) - n * lam2)
    bound_rhs = (2.0 / log(1.0 + 1.0 / lam2)) * (2.0 * half_logdet)
    return max(half_logdet, 0.0), eff, sum_variance, bound_rhs


def information_gain(kernel, points, lam):
    """Mutual information I = 1/2 log det(I + K/lam^2) for points on the sphere."""
    return _infogain_summary(kernel, points, lam, effective_dim=False)[0]


def effective_dimension(kernel, points, lam):
    """Effective dimension Tr(K (K + lam^2 I)^{-1}) = sum_j mu_j/(mu_j + lam^2)."""
    return _infogain_summary(kernel, points, lam)[1]


@dataclass(frozen=True)
class InfoGainReport(JsonReport):
    """Information gain and effective dimension of one point set.

    ``sum_variance`` and ``bound_rhs`` are the two sides of
    :func:`variance_sum_check` evaluated over the points in their given
    order, so the report and greedy traces share one CSV schema.
    """

    n: int
    info_gain: float
    effective_dim: float
    lam: float
    sum_variance: float
    bound_rhs: float

    _csv_columns = {name: name for name in
                    ("n", "info_gain", "effective_dim", "sum_variance", "bound_rhs")}


@dataclass(frozen=True)
class GreedyTrace(JsonReport):
    """Per-step record of a greedy max-variance run.

    Arrays are indexed by step; entry i describes the model after i+1
    selections.  ``bound_rhs`` is the sequential-decomposition bound
    (2/log(1 + lam^{-2})) * log det(I + K/lam^2) that dominates
    ``sum_variance`` at every prefix.
    """

    lam: float
    selected_indices: np.ndarray
    selected_points: np.ndarray
    selected_variance: np.ndarray
    info_gain: np.ndarray
    effective_dim: np.ndarray
    sum_variance: np.ndarray
    bound_rhs: np.ndarray

    _json_extra = ("n",)
    _json_omit = ("selected_points",)
    _csv_columns = {**InfoGainReport._csv_columns, "n": "prefix_sizes"}

    @property
    def n(self):
        return self.selected_indices.size

    @property
    def prefix_sizes(self):
        """1..n: the number of points selected after each step."""
        return np.arange(1, self.n + 1)


def greedy_max_variance(kernel, candidate_grid, n, lam):
    """Select n points by repeated posterior-variance argmax over a grid.

    Ties break toward the lowest grid index, so runs are deterministic for
    a fixed grid order; repetitions are permitted (a reselected point still
    carries lam^2 observation variance).  Returns a :class:`GreedyTrace`
    with the selection order, the variance at each selection, and per-prefix
    information gain, effective dimension, and variance-sum bound.
    """
    _check_lam(lam)
    grid = np.atleast_2d(np.asarray(candidate_grid, dtype=float))
    if grid.shape[0] == 0:
        raise ConfigurationError("candidate grid is empty")
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    _check_unit_rows(grid)

    m = grid.shape[0]
    kappa_one = kernel.kappa_one
    lam2 = lam * lam
    log_lam = log(lam)

    V = np.empty((n, m))
    L_inv = np.zeros((n, n))  # rows of the inverse of the growing factor
    sigma2 = np.full(m, kappa_one)
    sel = np.empty(n, dtype=np.int64)
    sel_var = np.empty(n)
    info = np.empty(n)
    eff = np.empty(n)
    sum_log_diag = 0.0
    tr_inv = 0.0

    for i in range(n):
        j = int(np.argmax(sigma2))
        sel[i] = j
        sel_var[i] = max(float(sigma2[j]), 0.0)

        v = V[:i, j]
        schur = kappa_one + lam2 - float(v @ v)
        if schur <= 0.0:
            raise IllConditionedGramError(
                f"greedy step {i}: nonpositive Schur complement {schur:.3e}"
            )
        ell = sqrt(schur)
        # appending row (v, ell) to L appends (-u / ell, 1 / ell) to L^{-1}
        u = v @ L_inv[:i, :i]
        L_inv[i, :i] = -u / ell
        L_inv[i, i] = 1.0 / ell
        k_row = kernel(np.clip(grid @ grid[j], -1.0, 1.0))
        V[i] = (k_row - v @ V[:i]) / ell
        sigma2 -= V[i] * V[i]
        np.clip(sigma2, 0.0, None, out=sigma2)

        sum_log_diag += log(ell)
        tr_inv += (float(u @ u) + 1.0) / schur
        info[i] = sum_log_diag - (i + 1) * log_lam
        eff[i] = (i + 1) - lam2 * tr_inv

    sum_var = np.cumsum(sel_var)
    bound = (2.0 / log(1.0 + 1.0 / lam2)) * (2.0 * info)
    return GreedyTrace(
        lam=lam,
        selected_indices=sel,
        selected_points=grid[sel],
        selected_variance=sel_var,
        info_gain=info,
        effective_dim=eff,
        sum_variance=sum_var,
        bound_rhs=bound,
    )


def variance_sum_check(kernel, points, lam):
    """Both sides of the total-uncertainty bound for a sequential point set.

    lhs is the sum of prior-to-selection variances sigma_{i-1}^2(x_i); rhs
    is (2/log(1 + lam^{-2})) * log det(I + K_n/lam^2).  The identity
    sigma_{i-1}^2(x_i) = L_ii^2 - lam^2 (L the Cholesky factor of
    K + lam^2 I) turns both into one factorization.  lhs <= rhs holds for
    every sequence; both values are returned for reporting.
    """
    return _infogain_summary(kernel, points, lam, effective_dim=False)[2:]
