"""Kernel ridge regression on the sphere with posterior-uncertainty tooling.

Implements the regressor f_hat(x) = k_n(x)^T (K_n + lam^2 I)^{-1} Y_n and
its posterior variance sigma_n^2(x) = kappa(1) - k_n(x)^T (K_n+lam^2 I)^{-1}
k_n(x), plus the quantities used to reason about sample efficiency:
information gain I = 1/2 log det(I + K/lam^2), effective dimension
d_eff = Tr(K (K + lam^2 I)^{-1}), confidence bands with multiplier
beta(delta) = B + (R/lam) sqrt(2 log(1/delta)), and greedy max-variance
data collection over a candidate grid.

Information gain, effective dimension, the variance sum and its bound
come from one ledger, :func:`_ledger`, over a point sequence's sequential
variances sigma_{i-1}^2(x_i): the GP-UCB chain rule I = 1/2 sum_i
log1p(sigma_{i-1}^2(x_i)/lam^2) (Srinivas et al., 2010) never subtracts
nearly equal numbers, so every lam with lam^2 and 1/lam^2 normal floats
gets full relative accuracy.  Greedy traces feed it from their growing
factor, fixed point sets from one Cholesky factor; both start every point
at the prior variance kappa(1), which is also every Gram diagonal entry,
bit for bit.  Every K + shift I, a fit's, a point set's or a synthetic
target's, is built and factored by :func:`_ridge_factor`, which also owns
the jitter ladder: a failed factorization is retried on a fresh build with
escalating diagonal jitter, returned with the factor.  A point set's
K + lam^2 I takes one n x n buffer from inner products to factor:
``kernels.gram`` writes the kernel values over the inner products, lam^2
goes onto that array's diagonal, and the lower factor overwrites it.  The
effective dimension reads L^{-1} one column block at a time, so it adds
O(n * block) memory, not a second n x n array.

Predictions stream their test points, so no test x training Gram is held
whole.  The mean is a kernel expansion (``kernels._expansion``); the
variance takes the same tiles of the cross Gram from ``kernels._tiles``,
:func:`_variance_rows` test points at a time, solves each transposed tile
in place by :func:`_solve_lower` and sums its column squares.

Greedy selection grows the factor one row at a time and evaluates the
kernel only on the rows of the points it selects, so an n-step run over an
m-point grid costs n*m kernel evaluations, O(n^2 m) arithmetic and one
buffer of n x max(n, m) floats; it never forms the m x m grid Gram, and
every step's row is evaluated out of one kernel workspace.  Row i of the
factor is V[:i, sel[i]] and its diagonal, so the steps keep only the
diagonal, and the finished factor is compacted into the buffer's leading
n x n square, over the rows of V that it no longer needs; the identity
columns of its inverse's solves come from the buffer's dead tail.  Each
step's product with V[:i], the bulk of a run, is split by columns on more
than one CPU: one blocked helper thread per run computes the right part
while the step computes the left part and its kernel row, with the bits of
the whole product.  The steps live in ``_greedy``, which only a greedy run
imports.

The factorization and the triangular solves (:func:`cholesky`,
:func:`solve_triangular`, :func:`cho_solve`) take numpy alone.  One
recursive substitution, :func:`_solve_lower`, is every triangular solve:
it halves the triangle down to leaves of at most 32 rows, which it
inverts, and joins the halves by one matrix product.  The factorization is
left-looking over blocks of columns, with ``np.linalg.cholesky`` for each
diagonal block and that solve for its inverse.  All three take
lower-triangular factors, and the factorization works in place on a
C-ordered buffer.
"""

from dataclasses import dataclass
from math import log, sqrt

import numpy as np

from .errors import (
    ConfigurationError,
    DomainError,
    IllConditionedGramError,
    ParameterError,
    UnsupportedDimensionError,
    _check_int,
    _check_lam,
    _check_positive,
)
from .kernels import _block_rows, _check_unit_rows, _expansion, _tiles, gram
from .serialize import JsonReport

#: Jitter escalation for near-singular factorizations, as multiples of trace/n.
JITTER_LADDER = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)


@dataclass(frozen=True)
class SphericalDataset:
    """Training inputs on the unit sphere with observed values.

    ``noise_scale`` records the sub-Gaussian scale of the observation noise
    (0 means noiseless observations).  It is metadata: no library code reads
    it; confidence bands take theirs from :class:`ConfidenceParams`.
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
            d = getattr(getattr(kernel, "spec", None), "d", 3)
        d = _check_int(d, "d", 2, UnsupportedDimensionError)
        return cls(kernel, np.empty((0, d)), lam, np.empty((0, 0)), np.empty(0))

    @property
    def n(self):
        return self.X.shape[0]


def sample_sphere(d, n, seed):
    """n points uniform on S^{d-1}: normalized standard Gaussian rows.

    Deterministic given the seed: a non-negative integer or a list or tuple
    of them (a seed sequence).
    """
    d = _check_int(d, "d", 2, UnsupportedDimensionError)
    n = _check_int(n, "n", 1)
    for part in seed if isinstance(seed, (list, tuple)) else (seed,):
        _check_int(part, "seed", 0)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    while np.any(norms == 0.0):  # probability-zero guard
        X = rng.standard_normal((n, d))
        norms = np.linalg.norm(X, axis=1, keepdims=True)
    return X / norms


def _block_size(n):
    """Columns per block of an n x n Cholesky factorization: the power of two
    at or above n/8, within [64, 256]."""
    return min(256, max(64, 1 << ((n - 1) // 8).bit_length()))


def _solve_lower(t, x, trans):
    """Overwrite the n x k array x by T^{-1} x (``trans="N"``) or T^{-T} x
    (``"T"``) and return it, T the lower triangle of square ``t``.

    T = [[A, 0], [C, D]] is split in halves: "N" solves A, subtracts C times
    that half of x from the other and solves D; "T" solves D^T, subtracts
    C^T times that half and solves A^T.  Only leaves of at most 32 rows are
    inverted, by ``np.linalg.inv``; a zero on the diagonal raises
    ``np.linalg.LinAlgError``.
    """
    n = t.shape[0]
    if n <= 32:
        inv = np.tril(np.linalg.inv(np.tril(t)))
        x[...] = (inv if trans == "N" else inv.T) @ x
        return x
    h = n // 2
    if trans == "N":
        x[h:] -= t[h:, :h] @ _solve_lower(t[:h, :h], x[:h], trans)
        _solve_lower(t[h:, h:], x[h:], trans)
    else:
        x[:h] -= t[h:, :h].T @ _solve_lower(t[h:, h:], x[h:], trans)
        _solve_lower(t[:h, :h], x[:h], trans)
    return x


def cholesky(a, overwrite_a=False):
    """Lower Cholesky factor L of a symmetric positive definite matrix, L L^T = a.

    Only the lower triangle of ``a`` is read; the strict upper triangle of L
    is zero.  With ``overwrite_a`` a C-ordered float array is factored in
    place and returned; any other input is copied first.  The factorization
    is left-looking over blocks of :func:`_block_size` columns: a block
    column is updated by the columns left of it, one row block per
    ``np.matmul`` into one block-sized buffer; its diagonal block is then
    factored by ``np.linalg.cholesky``, which raises
    ``np.linalg.LinAlgError`` if that block is not positive definite, and the
    rows below are multiplied by the transposed inverse of that factor, which
    :func:`_solve_lower` solves from the identity; the last block column has
    no rows below, so its inverse is never formed.  The input is not checked
    for finiteness: a NaN or inf in the lower triangle reaches the diagonal
    of L or fails the factorization.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    L = a if overwrite_a and a.dtype == float and a.flags.carray else np.array(a, float, order="C")
    n = L.shape[0]
    b = _block_size(n)
    prod = np.empty((b, b))
    for c0 in range(0, n, b):
        c1 = min(c0 + b, n)
        left = L[c0:c1, :c0].T
        for r0 in range(c0, n, b):
            r1 = min(r0 + b, n)
            rows, out = L[r0:r1, c0:c1], prod[:r1 - r0, :c1 - c0]
            rows -= np.matmul(L[r0:r1, :c0], left, out=out)
            if r0 == c0:
                rows[...] = np.linalg.cholesky(rows)
                if c1 < n:  # only row blocks below take its inverse
                    inv_t = _solve_lower(rows, np.eye(c1 - c0), "N").T
            else:
                rows[...] = np.matmul(rows, inv_t, out=out)
        L[c0:c1, c1:] = 0.0
    return L


def solve_triangular(a, b, trans="N", overwrite_b=False):
    """Solve L x = b (``trans="N"``) or L^T x = b (``trans="T"``), L = ``a``
    lower triangular; its strict upper triangle is not read.

    ``b`` is a vector or a matrix of right-hand sides; an empty system
    (n = 0) gives an empty x.  With ``overwrite_b``
    a writable float ``b`` is overwritten by x and returned.  One call of
    :func:`_solve_lower` on all columns at once; a zero on the diagonal of L
    raises ``np.linalg.LinAlgError``.
    """
    if trans not in ("N", "T"):
        raise ValueError(f"trans must be 'N' or 'T', got {trans!r}")
    b = np.asarray(b)
    n = a.shape[0]
    x = b if overwrite_b and b.dtype == float and b.flags.writeable else b.astype(float)
    if a.shape != (n, n) or x.ndim not in (1, 2) or x.shape[0] != n:
        raise ValueError(f"shapes {a.shape} and {x.shape} do not match")
    _solve_lower(a, x[:, None] if x.ndim == 1 else x, trans)
    return x


def cho_solve(c, b):
    """Solve (L L^T) x = b from the lower Cholesky factor L = ``c``: a forward
    and a back :func:`solve_triangular`."""
    return solve_triangular(c, solve_triangular(c, b), trans="T", overwrite_b=True)


def _ridge_factor(kernel, points, shift):
    """``(L, jitter)``: lower Cholesky factor of gram(points) + (shift + jitter) I,
    the one builder of every ridge system, with the jitter it needed.

    Each rung of :data:`JITTER_LADDER` builds the Gram afresh and adds shift
    to its diagonal, which is kappa(1) bit for bit; a rung after a failed one
    then adds jitter = level * trace/n of that build, so the first rung's
    jitter is exactly 0.0 even where the trace overflows.  :func:`cholesky`
    factors the buffer in place, so the Gram buffer is the only n x n array
    made, and a failed rung leaves it overwritten.  The buffer is not checked
    for finiteness; a factor with a non-finite diagonal counts as a failed
    rung.
    """
    for level in JITTER_LADDER:
        A = gram(kernel, points)
        n = A.shape[0]
        A.flat[:: n + 1] += shift
        jitter = 0.0
        if level > 0.0:
            jitter = level * (float(A.diagonal().sum()) / n)
            A.flat[:: n + 1] += jitter
        try:
            L = cholesky(A, overwrite_a=True)
        except np.linalg.LinAlgError:
            continue
        # unchecked input: a NaN or inf in the lower triangle reaches the
        # diagonal of L (or fails the factorization), so this O(n) test
        # stands in for the n x n one
        if np.isfinite(L.diagonal()).all():
            return L, jitter
    raise IllConditionedGramError(
        f"Cholesky failed for {n}x{n} system with shift {shift:.3e} "
        f"even with jitter {jitter:.3e}"
    )


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
    alpha = cho_solve(L, dataset.Y)
    return FittedRegressor(kernel, dataset.X, lam, L, alpha, jitter)


def _test_points(model, x):
    """``(points, was_single_point)``: x checked once as rows of unit vectors
    of the model's dimension."""
    pts = _check_unit_rows(x, "test point")
    if (d := pts.shape[1]) != model.X.shape[1]:
        raise DomainError(f"test points of dimension {d}, model of dimension {model.X.shape[1]}")
    return pts, np.ndim(x) == 1


def predict_mean(model, x):
    """Posterior mean k_n(x)^T alpha at x (scalar for a single point, array for
    a batch), a kernel expansion evaluated by ``kernels._expansion``: the test
    points stream through in tiles of one kernel block, so no test x
    training Gram is held whole."""
    pts, scalar = _test_points(model, x)
    out = _expansion(model.kernel, pts, model.X, model.alpha)
    return float(out[0]) if scalar else out


def predict_variance(model, x):
    """Posterior variance kappa(1) - |L^{-1} k_n(x)|^2 at x (scalar for a single
    point, array for a batch); independent of Y and clamped into
    [0, kappa(1)].  With no training points the sum is empty and the
    variance is the prior's kappa(1).

    The test points stream through ``kernels._tiles`` of
    :func:`_variance_rows` points: each tile's transposed cross Gram is
    forward-solved in place by :func:`_solve_lower` and its columns' squares
    are summed, so no test x training Gram, solved copy or square of it is
    held whole.
    """
    pts, scalar = _test_points(model, x)
    kappa_one = model.kernel.kappa_one
    out = np.empty(len(pts))
    for rows, tile in _tiles(model.kernel, pts, model.X, _variance_rows(model.n)):
        _solve_lower(model.L, tile.T, "N")  # column j of tile.T becomes L^{-1} k_n(x_j)
        np.square(tile, out=tile).sum(axis=1, out=out[rows])
    np.clip(np.subtract(kappa_one, out, out=out), 0.0, kappa_one, out=out)
    return float(out[0]) if scalar else out


def _variance_rows(n):
    """Test points per tile of :func:`predict_variance` against n training
    points: eight kernel blocks (``8 * _block_rows(n)``, at most 2^18
    entries), and at least 256 points.

    Every tile streams all of L through the solve's products and inverts
    its 32-row leaves again, so tiles of one kernel block (64 down to 8
    points at n = 500-4096) measured 1.2-3.8x slower than one whole solve.
    From n = 1024 on 256-point tiles were the fastest height tried, or
    within noise of it; smaller models were fastest at 2^17-2^20 entries
    per tile (one BLAS thread, ``BENCH_streamed_variance.json``).
    """
    return max(256, 8 * _block_rows(n))


def confidence_band(model, x, params):
    """Half-width beta(delta) * sigma_n(x) of the pointwise confidence band."""
    var = predict_variance(model, x)
    return params.beta(model.lam) * np.sqrt(var)


def _ledger(variance, lam, kappa_one, lower=None):
    """Per-prefix ``(info_gain, effective_dim, sum_variance, bound_rhs)`` arrays
    of a point sequence.

    ``variance[i]`` is the sequential variance sigma_{i-1}^2(x_i), which
    the ledger clamps at 0 in place (the one clamp these quantities get);
    ``lower[i]`` is m_i, the squared norm of row i of L^{-1} left of its
    diagonal, L the Cholesky factor of K + lam^2 I.  Because L_ii^2 =
    sigma_{i-1}^2(x_i) + lam^2, after n points

        info_gain     = 1/2 sum log1p(sigma^2 / lam^2)  = 1/2 log det(I + K/lam^2)
        effective_dim = sum [sigma^2/(sigma^2 + lam^2) - lam^2 m_i]
                      = n - lam^2 ||L^{-1}||_F^2        = Tr(K (K + lam^2 I)^{-1})
        sum_variance  = sum sigma^2
        bound_rhs     = c sum log1p(sigma^2 / lam^2),
                        c = max(2 / log1p(1 / lam^2), kappa(1) / log1p(kappa(1) / lam^2))

    x / log1p(x / lam^2) grows with x, so its supremum on (0, kappa(1)] is
    the second term of c, and sum_variance <= bound_rhs for every kappa(1)
    (``kappa_one``).  The first term, the classic constant, wins whenever
    kappa(1) <= 2 and keeps its bits there.  Every term is formed from
    sigma^2/lam^2, never from a difference with n or n log lam, so no prefix
    cancels at large lam.  With ``lower=None`` the effective dimension is
    None.
    """
    var = np.maximum(variance, 0.0, out=variance)
    lam2 = lam * lam
    gain = np.cumsum(np.log1p(var / lam2))
    eff = None if lower is None else np.cumsum(var / (var + lam2) - lam2 * lower)
    # c = num / log1p(arg / lam^2) for the larger of the two (num, arg) pairs
    num, arg = max((2.0, 1.0), (kappa_one, kappa_one), key=lambda c: c[0] / np.log1p(c[1] / lam2))
    return 0.5 * gain, eff, np.cumsum(var), num * gain / np.log1p(arg / lam2)


def _strict_row_squares(T):
    """Per row i, sum_{j<i} T_ij^2 of a T that is zero above its diagonal
    (square, or with more rows than columns), which it squares in place
    after zeroing the diagonal: no temporary of T's size."""
    np.fill_diagonal(T, 0.0)
    return np.square(T, out=T).sum(axis=1)


def _inverse_row_squares(L, work=np.empty(0)):
    """Per row i, sum_{j<i} (L^{-1})_ij^2 of the lower triangle of L, which it
    leaves unchanged; the strict upper triangle is not read.

    L^{-1} is solved one block of columns [c0, c1) at a time: those columns
    are zero above row c0, and below it they solve L[c0:, c0:] X = the
    matching columns of the identity.  That is n^3/6 multiply-adds and
    O(n * block) memory, with no n x n temporary.  Each block's identity
    columns (the bits of ``np.eye``) are written into the front of the flat
    float array ``work`` when it holds them, else into a new array.
    """
    n = L.shape[0]
    lower = np.zeros(n)
    size = _block_size(n)
    for c0 in range(0, n, size):
        rows, width = n - c0, min(size, n - c0)
        fits = work.size >= rows * width
        cols = work[: rows * width].reshape(rows, width) if fits else np.empty((rows, width))
        cols[...] = 0.0
        np.fill_diagonal(cols, 1.0)
        lower[c0:] += _strict_row_squares(solve_triangular(L[c0:, c0:], cols, overwrite_b=True))
    return lower


def _infogain_summary(kernel, points, lam, effective_dim=True):
    """The :class:`InfoGainReport` of one point set, in its given order.

    One Cholesky factor L of K + lam^2 I, from :func:`_ridge_factor`, feeds
    :func:`_ledger`: the sequential variances are sigma_{i-1}^2(x_i) =
    kappa(1) + jitter - sum_{j<i} L_ij^2, kappa(1) being every K_ii, and
    the row norms m_i come from L^{-1} by :func:`_inverse_row_squares`.
    With ``effective_dim=False`` those solves, which only the effective
    dimension needs, are skipped and the report's ``effective_dim`` is None.
    """
    _check_lam(lam)
    L, jitter = _ridge_factor(kernel, points, lam * lam)
    n = L.shape[0]
    lower = _inverse_row_squares(L) if effective_dim else None
    variance = kernel.kappa_one + jitter - _strict_row_squares(L)
    info, eff, sum_var, bound = (None if a is None else float(a[-1])
                                 for a in _ledger(variance, lam, kernel.kappa_one, lower))
    return InfoGainReport(n=n, info_gain=info, effective_dim=eff, lam=lam,
                          sum_variance=sum_var, bound_rhs=bound)


def information_gain(kernel, points, lam):
    """Mutual information I = 1/2 log det(I + K/lam^2) for points on the sphere."""
    return _infogain_summary(kernel, points, lam, effective_dim=False).info_gain


def effective_dimension(kernel, points, lam):
    """Effective dimension Tr(K (K + lam^2 I)^{-1}) = sum_j mu_j/(mu_j + lam^2)."""
    return _infogain_summary(kernel, points, lam).effective_dim


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
    c * log det(I + K/lam^2), c = max(2/log1p(1/lam^2),
    kappa(1)/log1p(kappa(1)/lam^2)), that dominates ``sum_variance`` at
    every prefix.
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
    information gain, effective dimension, and variance-sum bound, all from
    :func:`_ledger`.  An n-step run over m grid points takes O(n m) memory:
    the steps (``_greedy._select``) fill one buffer of n x max(n, m) floats
    and leave the factor in its leading n x n square, and the row norms of
    its inverse, which only the effective dimension needs, come from it by
    :func:`_inverse_row_squares`, whose identity columns take the buffer's
    dead tail when m > n.  On more than one CPU each step's product with
    the factor's rows is split by columns with a helper thread, with the
    bits of the whole product.
    """
    _check_lam(lam)
    n = _check_int(n, "n", 1)
    grid = np.atleast_2d(np.asarray(candidate_grid, dtype=float))
    if grid.shape[0] == 0:
        raise ConfigurationError("candidate grid is empty")
    _check_unit_rows(grid)

    from ._greedy import _select

    sel, variance, L, tail = _select(kernel, grid, n, lam * lam)
    lower = _inverse_row_squares(L, tail)
    info, eff, sum_var, bound = _ledger(variance, lam, kernel.kappa_one, lower)
    return GreedyTrace(
        lam=lam,
        selected_indices=sel,
        selected_points=grid[sel],
        selected_variance=variance,
        info_gain=info,
        effective_dim=eff,
        sum_variance=sum_var,
        bound_rhs=bound,
    )


def variance_sum_check(kernel, points, lam):
    """Both sides of the total-uncertainty bound for a sequential point set.

    lhs is the sum of prior-to-selection variances sigma_{i-1}^2(x_i); rhs
    is c * log det(I + K_n/lam^2), the ledger's c sum
    log1p(sigma_{i-1}^2(x_i)/lam^2) with c = max(2/log1p(1/lam^2),
    kappa(1)/log1p(kappa(1)/lam^2)).  Both come from the one Cholesky factor
    of :func:`_infogain_summary`, without its effective-dimension solve.
    lhs <= rhs holds for every sequence and every kappa(1); both values are
    returned for reporting.
    """
    report = _infogain_summary(kernel, points, lam, effective_dim=False)
    return report.sum_variance, report.bound_rhs
