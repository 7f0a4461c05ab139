"""Synthetic learning-rate and information-gain experiments.

The experiments measure two asymptotic quantities for NT/RF kernels:

* error-rate exponents — kernel ridge regression against a random RKHS
  ground truth, sup-error vs training-set size on a log-log scale; and
* maximal-information-gain growth — greedy max-variance data collection,
  information gain vs sample count.

Ground truths follow the random-anchor construction: draw n0 anchor
points, sample anchor values from the kernel's Gaussian prior, define
g = k^T (K + ridge I)^{-1} Y_hat, and normalize by the range of g over a
large uniform sample.  The resulting f has certified finite RKHS norm.

An error-rate repetition with nested training sets factors K + lam^2 I
once, for the largest set: the factor of each smaller (leading) set is the
leading block of that factor, so a jitter rung the largest set needs
applies to every prefix.  The evaluation points stream through in row
tiles of at most one kernel block (``kernels._BLOCK`` entries), each
scored against every n by one GEMM, so memory stays O(n^2) whatever the
evaluation sample size.

Every quantity is a pure function of the configuration: repetition r of
a run with master seed m draws all of its randomness from seed sequences
``[m + r, salt]`` with fixed salts per role (anchors, anchor values,
range sample, training points, evaluation points, noise).  Repetitions
are independent and can be distributed across worker processes without
changing any output bit.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from .errors import (
    DegenerateFunctionError,
    DomainError,
    ExperimentError,
    NumericalError,
    ParameterError,
    _check_positive,
)
from .kernels import _BLOCK, _check_unit_rows, _cross_gram, gram, make_kernel
from .regression import _chol_with_jitter, _ridge_factor, greedy_max_variance, sample_sphere
from .serialize import JsonReport, csv_document
from .spectral import _loglog_fit

# Seed-sequence salts: one substream per random role, so protocol changes
# in one role never shift the draws of another.
SALT_ANCHORS = 101
SALT_ANCHOR_VALUES = 102
SALT_RANGE_SAMPLE = 103
SALT_TRAIN = 201
SALT_EVAL = 202
SALT_NOISE = 203
SALT_GREEDY_GRID = 301


def theoretical_error_exponent(family, s, d):
    """Predicted sup-error exponent: NT (1-2s)/(2d+4s-4), RF -(2s+1)/(2d+4s)."""
    if s < 1 or d < 2:
        raise ParameterError(f"need s >= 1 and d >= 2, got s={s}, d={d}")
    if family == "nt":
        return (-2.0 * s + 1.0) / (2.0 * d + 4.0 * s - 4.0)
    if family == "rf":
        return (-2.0 * s - 1.0) / (2.0 * d + 4.0 * s)
    raise ParameterError(f"family must be 'nt' or 'rf', got {family!r}")


def theoretical_mig_exponent(family, s, d):
    """Predicted info-gain growth exponent: NT (d-1)/(d+2s-2), RF (d-1)/(d+2s)."""
    if s < 1 or d < 2:
        raise ParameterError(f"need s >= 1 and d >= 2, got s={s}, d={d}")
    if family == "nt":
        return (d - 1.0) / (d + 2.0 * s - 2.0)
    if family == "rf":
        return (d - 1.0) / (d + 2.0 * s)
    raise ParameterError(f"family must be 'nt' or 'rf', got {family!r}")


def fit_loglog_slope(xs, ys):
    """Least squares on (log x, log y): returns (slope, intercept, r_squared)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 3 or ys.size != xs.size:
        raise ParameterError(f"need >= 3 paired points, got {xs.size} and {ys.size}")
    # NaN fails both comparisons, so finite and > 0 is one test
    if not (np.all((xs > 0) & (xs < np.inf)) and np.all((ys > 0) & (ys < np.inf))):
        raise DomainError("log-log fit requires finite, strictly positive inputs")
    return _loglog_fit(xs, ys)


@dataclass(frozen=True)
class SyntheticFunction:
    """Random RKHS ground truth f = g / range_normalizer.

    ``norm_bound`` is the certified squared RKHS norm of g, which the
    construction guarantees is at most |Y_hat|^2 / ridge.  The anchors are
    checked to be unit vectors once, at construction; a call checks its points.
    """

    kernel: object
    anchors: np.ndarray
    anchor_values: np.ndarray
    ridge: float
    range_normalizer: float
    norm_bound: float
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "anchors", _check_unit_rows(self.anchors, "anchor"))

    def __call__(self, x):
        """Evaluate f at unit vectors x (single point or batch)."""
        vals = self._values(_check_unit_rows(x))
        return float(vals[0]) if np.asarray(x).ndim == 1 else vals

    def _values(self, pts):
        """f at the rows of ``pts``, a 2-D array already checked to be unit vectors."""
        vals = _cross_gram(self.kernel, pts, self.anchors) @ self.weights
        return vals / self.range_normalizer


def make_synthetic(kernel, d, n0=100, ridge=0.01, seed=0, range_sample=10_000,
                   anchor_values=None):
    """Construct a random ground-truth function in the kernel's RKHS.

    Anchor inputs are uniform on the sphere; anchor values default to a
    draw from N(0, K) (``anchor_values`` overrides them, e.g. for custom
    ground truths).  The interpolant g = k^T (K + ridge I)^{-1} Y_hat is
    normalized by its range over ``range_sample`` fresh uniform points.

    Raises
    ------
    DegenerateFunctionError
        If the estimated range is below 1e-12 (e.g. forced zero values).
    ExperimentError
        If the certified norm chain |g|^2 <= |Y_hat|^2 / ridge fails
        numerically.
    """
    _check_positive(ridge, f"ridge must be positive, got {ridge}")
    anchors = sample_sphere(d, n0, [seed, SALT_ANCHORS])
    K = gram(kernel, anchors)
    if anchor_values is None:
        z = np.random.default_rng([seed, SALT_ANCHOR_VALUES]).standard_normal(n0)
        L_prior, _ = _chol_with_jitter(K)
        y_hat = L_prior @ z
    else:
        y_hat = np.asarray(anchor_values, dtype=float)
        if y_hat.shape != (n0,):
            raise ParameterError(f"anchor_values must have shape ({n0},)")

    L, _ = _chol_with_jitter(K + ridge * np.eye(n0))
    weights = cho_solve((L, True), y_hat)
    norm_sq = float(weights @ (K @ weights))
    cap = float(y_hat @ y_hat) / ridge
    if norm_sq > cap + 1e-6:
        raise ExperimentError(
            f"norm certification failed: |g|^2 = {norm_sq:.6e} exceeds "
            f"|Y|^2/ridge = {cap:.6e}"
        )

    probe = sample_sphere(d, range_sample, [seed, SALT_RANGE_SAMPLE])
    g_vals = gram(kernel, probe, anchors) @ weights
    width = float(g_vals.max() - g_vals.min())
    if width < 1e-12:
        raise DegenerateFunctionError(
            f"ground-truth range {width:.3e} is degenerate"
        )
    return SyntheticFunction(
        kernel=kernel, anchors=anchors, anchor_values=y_hat, ridge=ridge,
        range_normalizer=width, norm_bound=norm_sq, weights=weights,
    )


@dataclass(frozen=True)
class ErrorRateReport(JsonReport):
    """Sup-error decay of KRR against synthetic ground truths.

    ``sup_errors[r, j]`` is repetition ``rep_indices[r]`` evaluated at
    ``n_grid[j]``; exponents are per-repetition upper-half log-log slopes.
    """

    family: str
    s: int
    d: int
    n_grid: np.ndarray
    rep_indices: np.ndarray
    sup_errors: np.ndarray
    rep_exponents: np.ndarray
    mean_exponent: float
    exponent_std: float
    theoretical_exponent: float
    train_lam2: float
    noise_scale: float
    failures: tuple = ()

    def to_csv(self):
        rows = [
            [int(n), int(rep), self.sup_errors[r, j]]
            for j, n in enumerate(self.n_grid)
            for r, rep in enumerate(self.rep_indices)
        ]
        return csv_document(["n", "rep", "sup_error"], rows)

    def summary_csv(self):
        """Per-n mean and standard deviation, ready for rate plots."""
        mean = self.sup_errors.mean(axis=0)
        std = self.sup_errors.std(axis=0, ddof=1) if self.sup_errors.shape[0] > 1 \
            else np.zeros(self.n_grid.size)
        rows = [
            [int(n), mean[j], std[j]] for j, n in enumerate(self.n_grid)
        ]
        return csv_document(["n", "mean_sup_error", "std_sup_error"], rows)


def _grid(n_grid, max_exp):
    """The n grid as int64 (default 2^1 .. 2^max_exp) and the slice of its upper half.

    The upper half, at least 3 points, is the asymptotic part that slope fits use.
    """
    if n_grid is None:
        n_grid = 2 ** np.arange(1, max_exp + 1)
    n_grid = np.asarray(n_grid, dtype=np.int64)
    if np.any(np.diff(n_grid) <= 0):
        raise ParameterError("n_grid must be strictly increasing")
    k = len(n_grid)
    if k < 3:
        raise ParameterError(f"n_grid needs >= 3 entries for a slope fit, got {k}")
    return n_grid, slice(min(k // 2, k - 3), None)


def _error_rate_rep(family, s, d, n_grid, rep_seed, eval_sample, train_lam2,
                    noise_scale, n0, ridge, nested):
    """One repetition: returns sup-errors over the n grid.

    The training points are drawn as pools, each with its own seed salt:
    nested, one pool of max(n_grid) points for every n; independent
    (``nested=False``), one pool of n points per n.  Each pool's
    K + lam^2 I is factored once and fit j solves with the leading block
    L[:n_j, :n_j] of its pool's factor.  The pools are stacked into one
    training matrix ``X`` and the fits into one weight matrix whose column
    j holds the weights of fit j (zero outside its rows).  The evaluation
    points then stream through in tiles of max(1, _BLOCK // rows of X)
    rows: one tile x X Gram, one GEMM and a running max |error| per n.
    """
    kernel = make_kernel(family, s, d=d)
    target = make_synthetic(kernel, d, n0=n0, ridge=ridge, seed=rep_seed)

    pools = [((), n_grid)] if nested else [((int(n),), [n]) for n in n_grid]
    sets = []
    alpha = np.zeros((sum(int(sizes[-1]) for _, sizes in pools), len(n_grid)))
    row = j = 0
    for salt, sizes in pools:
        size = int(sizes[-1])
        P = sample_sphere(d, size, [rep_seed, SALT_TRAIN, *salt])
        noise = (
            np.random.default_rng([rep_seed, SALT_NOISE, *salt]).standard_normal(size)
            * noise_scale
        )
        Y = target(P) + noise
        L, _ = _ridge_factor(kernel, P, train_lam2)
        for n in sizes:
            alpha[row:row + n, j] = cho_solve((L[:n, :n], True), Y[:n])
            j += 1
        sets.append(P)
        row += size
    X = np.vstack(sets)

    # X passed the unit-norm check in _ridge_factor and the anchors theirs when
    # the target was built; the evaluation points are checked once, not per tile
    eval_pts = _check_unit_rows(sample_sphere(d, eval_sample, [rep_seed, SALT_EVAL]))
    tile = max(1, _BLOCK // X.shape[0])
    errors = np.zeros(len(n_grid))
    for lo in range(0, eval_sample, tile):
        pts = eval_pts[lo:lo + tile]
        resid = _cross_gram(kernel, pts, X) @ alpha - target._values(pts)[:, None]
        np.maximum(errors, np.max(np.abs(resid), axis=0), out=errors)
    return errors


def _error_rate_rep_star(args):
    """Pool-friendly wrapper: numerical failures become string diagnostics."""
    try:
        return _error_rate_rep(*args)
    except NumericalError as exc:
        return f"{type(exc).__name__}: {exc}"


def error_rate_experiment(family, s, d, n_grid=None, repetitions=5, master_seed=0,
                          eval_sample=10_000, train_lam2=0.01, noise_scale=0.0,
                          n0=100, ridge=0.01, nested=True, workers=None):
    """Measure the sup-error decay exponent of KRR on synthetic targets.

    Each repetition r (seeded ``master_seed + r``) draws a fresh ground
    truth, nested uniform training sets over the n grid (independent
    resampling available via ``nested=False``), fits KRR with diagonal
    ``train_lam2``, and records the sup-error over a fixed fresh
    evaluation sample.  The per-repetition exponent is the log-log slope
    over the upper half of the grid, where the decay is past its
    pre-asymptotic regime.

    A repetition that fails numerically is excluded and recorded; if 20%
    or more fail, the whole experiment errors out.
    """
    n_grid, half = _grid(n_grid, 11)
    if repetitions < 1:
        raise ParameterError("repetitions must be >= 1")
    if eval_sample < 1 or n0 < 1:
        raise ParameterError(f"need eval_sample >= 1 and n0 >= 1, got {eval_sample} and {n0}")
    _check_positive(train_lam2, f"train_lam2 must be positive, got {train_lam2}")
    _check_positive(noise_scale, f"noise_scale must be nonnegative, got {noise_scale}",
                    allow_zero=True)
    _check_positive(ridge, f"ridge must be positive, got {ridge}")

    tasks = [
        (family, s, d, n_grid, master_seed + r, eval_sample, train_lam2,
         noise_scale, n0, ridge, nested)
        for r in range(repetitions)
    ]
    if workers is not None and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_error_rate_rep_star, tasks))
    else:
        outcomes = [_error_rate_rep_star(task) for task in tasks]

    failures = [(r, out) for r, out in enumerate(outcomes) if isinstance(out, str)]
    kept = [(r, out) for r, out in enumerate(outcomes) if not isinstance(out, str)]
    if len(failures) >= 0.2 * repetitions or not kept:
        raise ExperimentError(
            f"{len(failures)}/{repetitions} repetitions failed: {failures}"
        )

    rep_indices = np.array([r for r, _ in kept], dtype=np.int64)
    sup_errors = np.vstack([res for _, res in kept])
    rep_exponents = np.array([
        fit_loglog_slope(n_grid[half], row[half])[0] for row in sup_errors
    ])
    mean_exp = float(rep_exponents.mean())
    std_exp = float(rep_exponents.std(ddof=1)) if rep_exponents.size > 1 else 0.0
    return ErrorRateReport(
        family=family, s=s, d=d, n_grid=n_grid, rep_indices=rep_indices,
        sup_errors=sup_errors, rep_exponents=rep_exponents,
        mean_exponent=mean_exp, exponent_std=std_exp,
        theoretical_exponent=theoretical_error_exponent(family, s, d),
        train_lam2=train_lam2, noise_scale=noise_scale,
        failures=tuple(failures),
    )


@dataclass(frozen=True)
class MigGrowthReport(JsonReport):
    """Greedy information-gain growth over n, with the theoretical exponent.

    The greedy trace is a lower-bound surrogate for the maximal
    information gain; its fitted upper-half growth exponent should respect
    the theoretical rate up to log factors.
    """

    family: str
    s: int
    d: int
    lam: float
    n_grid: np.ndarray
    info_gain: np.ndarray
    effective_dim: np.ndarray
    fitted_exponent: float
    theoretical_exponent: float

    def to_csv(self):
        rows = [
            [int(n), self.info_gain[j]] for j, n in enumerate(self.n_grid)
        ]
        return csv_document(["n", "info_gain"], rows)


def mig_growth_experiment(family, s, d, n_grid=None, lam=1.0,
                          candidate_grid_size=4096, seed=0):
    """Greedy info-gain growth curve and its fitted exponent.

    A single greedy run to max(n_grid) over a seeded uniform candidate
    grid supplies every prefix; the growth exponent is fit over the upper
    half of the grid and reported next to the theoretical value.
    """
    n_grid, half = _grid(n_grid, 10)
    max_n = int(n_grid[-1])
    if max_n > candidate_grid_size:
        raise ParameterError(
            f"max n {max_n} exceeds candidate grid size {candidate_grid_size}"
        )
    kernel = make_kernel(family, s, d=d)
    grid = sample_sphere(d, candidate_grid_size, [seed, SALT_GREEDY_GRID])
    trace = greedy_max_variance(kernel, grid, max_n, lam)
    info = trace.info_gain[n_grid - 1]
    eff = trace.effective_dim[n_grid - 1]
    slope, _, _ = fit_loglog_slope(n_grid[half], info[half])
    return MigGrowthReport(
        family=family, s=s, d=d, lam=lam, n_grid=n_grid,
        info_gain=info, effective_dim=eff, fitted_exponent=slope,
        theoretical_exponent=theoretical_mig_exponent(family, s, d),
    )
