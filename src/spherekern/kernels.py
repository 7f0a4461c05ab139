"""Closed-form and Monte-Carlo evaluation of neural kernels on the sphere.

Two kernel families are supported for the power-ReLU activations
``a_s(z) = max(0, z)**s``:

* the random-feature (RF) kernel ``kappa_s(u)``, the covariance of the
  network output when only the last layer is trained, and
* the neural tangent (NT) kernel ``kappa_NT,s(u)``, the kernel of the
  network linearized around its random initialization.

Both are functions of the inner product ``u = x . x'`` of unit vectors.
Closed forms are available for ``s in {0, 1, 2, 3}``, each one row of a
coefficient table: ``kappa = (P(u) t + Q(u) S) / (D pi)`` with
``t = pi - arccos(u)``, ``S = sin(arccos(u))``, integer polynomials P and Q
and an integer D, the NT value and the slope ``kappa_s'`` included.  Every
2-layer form is within about 2 eps kappa(1) of its exact value (tested
against mpmath).  Deeper networks (``l > 2``) are handled by the layer recursion.
Every public evaluator, ``rf_derivative`` included, goes through one path:
it validates ``u`` once, on entry (NaN is rejected), then evaluates it in
cache-sized blocks.  A seeded Monte-Carlo oracle estimates the defining Gaussian
expectations directly and is used to validate the closed forms.  It draws its
samples in chunks, each from its own Philox substream, on one thread per
available CPU (at most one per chunk); every worker fills buffers that the
calling thread allocated, and the chunk sums are added in chunk order, so the
estimate has the same bits on any number of threads.

A Gram matrix takes one n x n buffer: numpy computes ``X @ X.T`` as an
exactly symmetric rank-k update (``test_kernels.py::TestGram::
test_symmetric_psd`` pins it bit for bit), its diagonal is set to 1, the
inner product of a unit vector with itself, so that every K_ii is
``kappa(1)`` bit for bit, and the kernel writes its values back into the
same buffer (``DotProductKernel.__call__(u, out=u)``), which the
regression code then shifts and factors in place.  The effective dimension
of ``infogain`` reads L^{-1} one block of columns at a time, so no second
n x n array is made.
"""

import os
from dataclasses import dataclass
from math import prod, sqrt

import numpy as np

from .errors import (
    ConfigurationError,
    DomainError,
    UnsupportedDimensionError,
    UnsupportedSmoothnessError,
    _check_int,
)

#: Hard bound for inner products: values in (1, 1 + U_CLAMP_TOL] are treated
#: as rounding noise and clamped to 1 (same at -1); anything larger is an error.
U_CLAMP_TOL = 1e-12

#: Largest | |x| - 1 | accepted for a point on the unit sphere.
_UNIT_NORM_TOL = 1e-8

_SUPPORTED_S = (1, 2, 3)

#: Entries per block of the layer recursion: one block's temporaries (256 KB
#: each) stay in L2 cache.  Also the size of the error-rate evaluation tiles and
#: the row block of the Monte-Carlo draws.
_BLOCK = 1 << 15


#: The closed forms: ``kappa = (P(u) t + Q(u) S) / (D pi)`` with
#: ``t = pi - arccos(u)`` and ``S = sin(arccos(u))``.  Each row holds the integer
#: coefficients of P and Q, lowest degree first, and D; every P and Q is even or
#: odd in u.  NT's row is ``u kappa_s' + kappa_s`` summed into one form.
_FORMS = {
    ("rf", 0): ((1,), (), 1),
    ("rf", 1): ((0, 1), (1,), 1),
    ("rf", 2): ((1, 0, 2), (0, 3), 3),
    ("rf", 3): ((0, 9, 0, 6), (4, 0, 11), 15),  # by S^3 = S (1 - u^2)
    ("nt", 1): ((0, 2), (1,), 1),
    ("nt", 2): ((1, 0, 6), (0, 7), 3),
    ("nt", 3): ((0, 18, 0, 24), (4, 0, 38), 15),
}


def _slope_row(s):
    """``kappa_s' = (s^2/(2s-1)) kappa_{s-1}``: RF row s-1 with P and Q times s^2
    and D times 2s-1."""
    P, Q, D = _FORMS["rf", s - 1]
    return tuple(s * s * c for c in P), tuple(s * s * c for c in Q), (2 * s - 1) * D


_FORMS.update({("slope", s): _slope_row(s) for s in _SUPPORTED_S})


def _as_ufloat(u, out=None):
    """Validate and clamp an inner-product argument.

    Returns (array, was_scalar), a scalar as a 1-element array.  Raises
    DomainError if any entry is NaN or lies outside [-1 - U_CLAMP_TOL,
    1 + U_CLAMP_TOL].  Only clamping copies, into ``out`` when it is given,
    so never write into the array unless it is ``out``.
    """
    arr = np.asarray(u, dtype=float)
    if out is not None and not (
        out.shape == arr.shape and out.dtype == float and out.flags.c_contiguous
    ):
        raise ConfigurationError(
            f"out must be a C-contiguous float array of shape {arr.shape}"
        )
    hi, lo = arr.max(initial=-1.0), arr.min(initial=1.0)  # both NaN if one entry is
    if np.isnan(hi):
        raise DomainError("inner product is NaN")
    excess = max(hi - 1.0, -1.0 - lo)
    if excess > U_CLAMP_TOL:
        raise DomainError(
            f"inner product outside [-1, 1] by {excess:.3e} (tolerance {U_CLAMP_TOL:.0e})"
        )
    clamped = np.clip(arr, -1.0, 1.0, out=out) if excess > 0.0 else arr
    return np.atleast_1d(clamped), arr.ndim == 0


def _times_poly(coefs, u, u2, x, out=None):
    """``P(u) * x`` for an even or odd P with integer coefficients, lowest degree
    first: Horner's rule in ``u2 = u * u``, times u for odd P, times x.
    Written into ``out``, which may be x itself; None gives a new array.

    The order matters in the last bits: ``(x u) p(u2)`` would move the rf
    s = 3 ``n_clamped`` of a benchmark spectrum
    (``test_spectral.py::test_benchmark_clamp_counts_pinned``).
    """
    top, *rest = coefs[::-2]  # P's nonzero coefficients, highest degree first
    odd = len(coefs) % 2 == 0
    if not rest and top == 1:  # P = u or P = 1
        return np.multiply(u, x, out=out) if odd else (x if out is x else x.copy())
    p = top
    for c in rest:
        p = p * u2  # a new array on the first pass, so the in-place steps are safe
        p += c
    if odd:
        p = top * u if not rest else np.multiply(p, u, out=p)
    return np.multiply(p, x, out=p if out is None and (rest or odd) else out)


def _form(row, u, u2, t, sin_t, out=None, consume=False):
    """One closed form ``(P(u) t + Q(u) S) / (D pi)`` of ``_FORMS``, into ``out``
    when it is given, else into a new array; ``consume`` lets it overwrite t
    and S."""
    P, Q, D = row
    val = _times_poly(P, u, u2, t, t if consume else None)
    if Q:
        val += _times_poly(Q, u, u2, sin_t, sin_t if consume else None)
    return np.divide(val, D * np.pi, out=val if out is None else out)


def _rows(x, s, keys, out=None):
    """The rows ``keys`` of ``_FORMS`` at power s on a validated block x.

    ``t = pi - arccos(x)``, ``S = sin(arccos(x))`` and ``x^2`` are computed
    once for all of them; the last row overwrites t and S and goes into
    ``out`` when it is given, so one row takes four block buffers at most:
    t, S, x^2 and one temporary.
    """
    t = np.arccos(x)
    np.subtract(np.pi, t, out=t)
    # S as sqrt((1-x)(1+x)) avoids cancellation near |x| = 1; both factors
    # are >= 0 for x in [-1, 1]
    sin_t = (1.0 - x) * (1.0 + x)
    np.sqrt(sin_t, out=sin_t)
    args = (x, x * x if s > 1 else None, t, sin_t)  # x^2 enters from s = 2 on
    *first, last = keys
    vals = [_form(_FORMS[key, s], *args) for key in first]
    return vals + [_form(_FORMS[last, s], *args, out, consume=True)]


def _layers(u, s, l, family, c2, out):
    """The depth-``l`` layer recursion of ``family`` on a validated 1-D block
    of u, written into ``out`` (which may be u) after the last read of u.

    Layer 2 takes the value from the family's row of ``_FORMS`` ("rf", "nt"
    or "slope"); every later layer takes the RF value and, for NT, the slope
    at the previous RF value.
    Integer coefficients and one division by ``D pi`` last keep the absolute
    error of every 2-layer form within about 2 eps kappa(1) of the exact
    value (``test_kernels.py::TestClosedForms::test_matches_mpmath`` pins it
    on a grid dense at u = +-1).
    """
    nt = family == "nt"
    if l == 2:
        _rows(u, s, (family,), out)
        return
    if nt:
        val, rf = _rows(u, s, ("nt", "rf"))
    else:
        rf, = _rows(u, s, ("rf",))
    for layer in range(3, l + 1):
        last = out if layer == l else None
        # rounding can lift a layer's value past 1, outside arccos's domain
        x = np.clip(rf, -1.0, 1.0, out=rf)
        if not nt:
            rf, = _rows(x, s, ("rf",), last)
            continue
        rf, slope = _rows(x, s, ("rf", "slope"))
        val *= c2
        val *= slope
        np.add(val, rf, out=val if last is None else last)


def _evaluate(u, s, l=2, family="rf", drop_c2=False, out=None):
    """Validate ``u`` and ``s`` once, then run the layer recursion on u block by block.

    The recursion is elementwise, so evaluating the flattened ``u`` in blocks
    of ``_BLOCK`` entries gives the same bits as one pass while each block's
    temporaries stay in cache.  A block is read in full before its values are
    written, so ``out`` (returned when given) may be ``u`` itself.
    """
    l = _check_int(l, "l", 2)
    s = _check_int(s, "s", 0, UnsupportedSmoothnessError)
    arr, scalar = _as_ufloat(u, out)
    if (family, s) not in _FORMS:
        supported = sorted(k for f, k in _FORMS if f == family)
        raise UnsupportedSmoothnessError(
            f"no closed form for s={s}; supported s in {supported}"
        )
    c2 = 1.0 if drop_c2 else 2.0 / double_factorial_odd(s)
    flat = arr.ravel()
    res = np.empty(flat.size) if out is None else out.reshape(-1)
    for lo in range(0, flat.size, _BLOCK):
        _layers(flat[lo:lo + _BLOCK], s, l, family, c2, res[lo:lo + _BLOCK])
    if out is not None:
        return out
    return float(res[0]) if scalar else res.reshape(arr.shape)


def double_factorial_odd(s):
    """(2s-1)!! for integer s >= 0 (empty product = 1)."""
    return prod(range(1, 2 * s, 2))


def rf_closed(s, u):
    """Evaluate the 2-layer RF kernel ``kappa_s(u)`` in closed form.

    Parameters
    ----------
    s : int in {0, 1, 2, 3}
        Activation power.  ``s = 0`` is the step-function kernel, the
        rescaled derivative of ``kappa_1``.
    u : float or array
        Inner product(s) in [-1, 1] (clamped within 1e-12; NaN raises
        :class:`DomainError`), validated once per call and never modified.
    """
    return _evaluate(u, s)


def rf_derivative(s, u):
    """Derivative ``kappa_s'(u) = (s^2/(2s-1)) * kappa_{s-1}(u)`` for s >= 1: the
    slope row of ``_FORMS``, the one the NT layer recursion uses."""
    return _evaluate(u, s, family="slope")


def nt_two_layer(s, u):
    """2-layer NT kernel ``kappa_NT,s(u) = u * kappa_s'(u) + kappa_s(u)``."""
    return _evaluate(u, s, family="nt")


def rf_deep(s, l, u):
    """Depth-``l`` RF kernel via the composition ``kappa^l = kappa_s(kappa^{l-1})``."""
    return _evaluate(u, s, l)


def nt_deep(s, l, u, drop_c2=False):
    """Depth-``l`` NT kernel via the layer recursion.

    Each layer applies ``nt^l = c^2 * nt^{l-1} * kappa_s'(rf^{l-1}) + rf^l``
    with ``c^2 = 2/(2s-1)!!``.  With ``drop_c2=True`` the ``c^2`` factor is
    omitted, which matches the standard NTK recursion
    ``Theta^l = Theta^{l-1} * Sigma-dot^l + Sigma^l``; the default keeps the
    factor.
    """
    return _evaluate(u, s, l, "nt", drop_c2)


@dataclass(frozen=True)
class KernelSpec:
    """Identifies a kernel: family ("rf" or "nt"), power s, depth l, ambient dim d."""

    family: str
    s: int
    l: int = 2
    d: int = 3

    def __post_init__(self):
        if self.family not in ("rf", "nt"):
            raise ConfigurationError(f"family must be 'rf' or 'nt', got {self.family!r}")
        if _check_int(self.s, "s", 0, UnsupportedSmoothnessError) not in _SUPPORTED_S:
            raise UnsupportedSmoothnessError(
                f"s={self.s} unsupported; closed forms exist for s in {_SUPPORTED_S}"
            )
        _check_int(self.l, "l", 2)
        _check_int(self.d, "d", 2, UnsupportedDimensionError)

    @property
    def c_squared(self):
        """Normalization constant c^2 = 2/(2s-1)!!."""
        return 2.0 / double_factorial_odd(self.s)


class DotProductKernel:
    """An evaluable kernel ``u -> kappa(u)``, immutable after construction.

    Instances are callable on scalars or arrays of inner products.  The
    attribute ``kappa_one`` caches the value at ``u = 1`` (the maximum for
    these kernels, used by posterior-variance code as the prior variance).
    """

    def __init__(self, spec, drop_c2=False):
        self.spec = spec
        self.drop_c2 = bool(drop_c2)
        self.kappa_one = float(self(1.0))

    def __call__(self, u, out=None):
        """kappa(u); with ``out`` (a C-contiguous float array of u's shape,
        possibly u itself) the values are written into it and it is returned."""
        spec = self.spec
        return _evaluate(u, spec.s, spec.l, spec.family, self.drop_c2, out)

    def __repr__(self):
        extra = ", drop_c2=True" if self.drop_c2 else ""
        return (
            f"DotProductKernel({self.spec.family}, s={self.spec.s}, "
            f"l={self.spec.l}, d={self.spec.d}{extra})"
        )


def make_kernel(family, s, l=2, d=3, drop_c2=False):
    """Convenience constructor for :class:`DotProductKernel`."""
    return DotProductKernel(KernelSpec(family, s, l, d), drop_c2=drop_c2)


def _check_unit_rows(points, what="point"):
    """``points`` as 2-D rows; DomainError for a row not of norm 1, NaN included."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    norms = np.linalg.norm(points, axis=1)
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= _UNIT_NORM_TOL))
    if bad.size:
        raise DomainError(f"{what} {bad[0]} is not unit-norm: |x| = {norms[bad[0]]:.12f}")
    return points


def gram(kernel, points, points2=None):
    """Kernel matrix ``K[i, j] = kappa(x_i . y_j)`` for unit vectors.

    With ``points2=None`` returns the Gram matrix of ``points``, exactly
    symmetric because ``X @ X.T`` is, with the diagonal ``kappa(1)`` bit for
    bit (``kernel.kappa_one``): a unit vector's inner product with itself is
    set to 1 before the kernel is applied, not taken from the matrix product,
    which can be an ulp off.  Inner products are clipped to [-1, 1] before
    kernel evaluation so that rounding in the matrix product cannot push them
    outside the kernel domain.  The kernel (a :class:`DotProductKernel`)
    writes into the inner-product array, so the result is the only n x m
    array made.
    """
    X = _check_unit_rows(points)
    if points2 is not None:
        return _cross_gram(kernel, X, _check_unit_rows(points2))
    U = X @ X.T
    np.fill_diagonal(U, 1.0)
    return kernel(np.clip(U, -1.0, 1.0, out=U), out=U)


def _cross_gram(kernel, X, Y):
    """``kappa(X @ Y.T)`` for 2-D arrays of rows already checked to be unit vectors;
    the kernel values overwrite the inner products."""
    U = X @ Y.T
    return kernel(np.clip(U, -1.0, 1.0, out=U), out=U)


@dataclass(frozen=True)
class McOracleConfig:
    """Sample count and seed for the Monte-Carlo oracle.

    Samples are generated in fixed-size chunks, each from an independent
    Philox substream (``jumped(chunk_index)``), so the estimate is
    bit-reproducible no matter how chunks are scheduled across workers:
    ``mc_estimate`` runs them on as many threads as the process has CPUs
    (at most one per chunk) and adds their sums in chunk order.
    The Philox stream, the chunk size and the order in which chunk sums
    are accumulated are the reproducibility contract: changing any of them
    changes the estimate.
    """

    sample_count: int
    seed: int
    chunk_size: int = 1 << 17

    def __post_init__(self):
        _check_int(self.sample_count, "sample_count", 1)
        _check_int(self.seed, "seed", 0)
        _check_int(self.chunk_size, "chunk_size", 1)


def _mc_integrand(spec, u, g1, g2, out):
    """Per-sample integrand of the Monte-Carlo oracle for projections g1, g2.

    ``c^2 q^s`` with ``q = a_1(g1) a_1(g2)``, plus ``c^2 u s^2 q^(s-1)`` for NT,
    written into ``out``, which is returned.  It takes no buffer of its own:
    q overwrites g1, and g2 holds q^2 and then the NT term.  q^0 is the
    step-function product, tested on min(g1, g2) into ``out`` before g1 and g2
    are overwritten, because q itself can underflow to 0.  Each value takes
    the products of the out-of-place form in the same order, ``c2 * q`` or
    ``c2 * (q^(s-1) * q)`` plus ``(c2 u s s) * q^(s-1)``, so it is the same bits.
    """
    s, c2 = spec.s, spec.c_squared
    nt = spec.family == "nt"
    if s == 1:
        np.greater(np.minimum(g1, g2, out=out), 0.0, out=out)
    q = np.maximum(g1, 0.0, out=g1)
    q *= np.maximum(g2, 0.0, out=g2)
    if s == 1:
        if nt:
            np.multiply(out, c2 * u * s * s, out=g2)
        np.multiply(q, c2, out=out)
    else:
        low = q if s == 2 else np.multiply(q, q, out=g2)  # q^(s-1)
        np.multiply(low, q, out=out)
        out *= c2
        if nt:
            np.multiply(low, c2 * u * s * s, out=g2)
    if nt:
        out += g2
    return out


def _available_cpus():
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _mc_chunks(spec, u, x, x_prime, cfg, chunks, W, g, vals):
    """(sum, sum of squares) of each chunk in ``chunks``, in the given buffers.

    A chunk's draw comes from its own Philox substream in row blocks of
    ``len(W)`` rows; each block's projections ``g[0] = W x`` and ``g[1] = W x'``
    and its integrand fill the next rows of ``vals``.  The sum and the sum of
    squares run over the whole chunk, so they are the bits of one draw.  The
    squares are summed by ``np.einsum``, not a BLAS dot product, whose bits
    would depend on the BLAS thread count, and with no chunk-length
    temporary.
    """
    block = len(W)
    pairs = []
    for c in chunks:
        take = min(cfg.chunk_size, cfg.sample_count - c * cfg.chunk_size)
        rng = np.random.Generator(np.random.Philox(key=cfg.seed).jumped(c))
        for r in range(0, take, block):
            b = min(block, take - r)
            rng.standard_normal(out=W[:b])
            np.matmul(W[:b], x, out=g[0, :b])
            np.matmul(W[:b], x_prime, out=g[1, :b])
            _mc_integrand(spec, u, g[0, :b], g[1, :b], vals[r:r + b])
        chunk = vals[:take]
        pairs.append((float(chunk.sum()), float(np.einsum("i,i", chunk, chunk))))
    return pairs


def mc_estimate(spec, x, x_prime, cfg):
    """Monte-Carlo estimate of a 2-layer kernel value with its standard error.

    Draws ``w ~ N(0, I_d)`` and averages the defining integrand:
    ``c^2 * a_s(w.x) a_s(w.x')`` for RF, plus the derivative term
    ``c^2 * (x.x') * s^2 * a_{s-1}(w.x) a_{s-1}(w.x')`` for NT, with
    ``a_s(z) = max(0, z)^s`` and ``a_0`` the step function.  Each chunk of
    samples adds its sum and its sum of squares to the running totals, in
    chunk order.

    The chunks run on a pool of w = min(available CPUs, chunks) threads:
    worker k takes chunks k, k + w, k + 2w, ..., and the caller adds their
    sums in chunk order, so the result does not depend on w.  Each worker
    holds one chunk-length output buffer plus d + 2 columns of one row block
    (min(``_BLOCK``, chunk, n) rows): the draw W and the projections
    ``g1 = W x`` and ``g2 = W x'``.  All of them are allocated here, in the
    calling thread, since memory freed by a worker thread would stay in that
    thread's malloc arena.

    Returns
    -------
    (estimate, std_error) : tuple of floats
        Sample mean and its standard error (sample std / sqrt(n)).
    """
    if spec.l != 2:
        raise ConfigurationError("the Monte-Carlo oracle covers 2-layer kernels only")
    x = np.asarray(x, dtype=float)
    x_prime = np.asarray(x_prime, dtype=float)
    if x.shape != (spec.d,) or x_prime.shape != (spec.d,):
        raise ConfigurationError(f"inputs must have shape ({spec.d},)")
    _check_unit_rows([x, x_prime], "mc_estimate input")

    u = float(np.clip(x @ x_prime, -1.0, 1.0))
    n = cfg.sample_count
    n_chunks = -(-n // cfg.chunk_size)
    workers = min(_available_cpus(), n_chunks)
    length = min(cfg.chunk_size, n)
    block = min(_BLOCK, length)
    W = np.empty((workers, block, spec.d))
    g = np.empty((workers, 2, block))
    vals = np.empty((workers, length))

    def work(k):
        return _mc_chunks(spec, u, x, x_prime, cfg, range(k, n_chunks, workers),
                          W[k], g[k], vals[k])

    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        per_worker = list(pool.map(work, range(workers)))
    total = 0.0
    total_sq = 0.0
    for c in range(n_chunks):
        chunk_sum, chunk_sq = per_worker[c % workers][c // workers]
        total += chunk_sum
        total_sq += chunk_sq

    mean = total / n
    if n > 1:
        var = max(total_sq - n * mean * mean, 0.0) / (n - 1)
        std_error = sqrt(var / n)
    else:
        std_error = float("inf")
    return mean, std_error
