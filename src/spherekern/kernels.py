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
cache-sized blocks of ``_EVAL_BLOCK`` entries out of one workspace of block
buffers that the calling thread allocates once per evaluation, into a new
array: three (t, S and one scratch buffer), and two more for NT from depth
3 on.  Gram matrices, kernel expansions, posterior variances and greedy
rows, whose inner products are already clipped, write kappa over them
through the one in-place evaluator, :func:`_in_place`: a
:class:`DotProductKernel` there skips the second validation and shares one
workspace across all blocks, tiles and steps.  Every layer takes any
vectorised callable ``u -> kappa(u)`` as a kernel; where it needs the prior
variance, the kernel also carries ``kappa_one``, kappa(1).  A seeded
Monte-Carlo oracle estimates the defining Gaussian expectations directly
and is used to validate the closed forms.  It draws its samples in chunks,
each from its own Philox substream, on one thread per available CPU (at
most one per chunk); every worker fills buffers that the calling thread
allocated, and the chunk sums are added in chunk order, so the estimate has
the same bits on any number of threads.

A Gram matrix takes one n x n buffer: numpy computes ``X @ X.T`` as an
exactly symmetric rank-k update (``test_kernels.py::TestGram::
test_symmetric_psd`` pins it bit for bit), its diagonal is set to 1, the
inner product of a unit vector with itself, so that every K_ii is
``kappa(1)`` bit for bit, and the kernel writes its values back into the
same buffer, which the regression code then shifts and factors in place.
The effective dimension of ``infogain`` reads L^{-1} one block of columns
at a time, so no second n x n array is made.  A cross Gram against many
points x is never held whole: :func:`_tiles` streams the points through,
a caller-given number of rows at a time, into one tile buffer evaluated
out of one workspace.  A kernel expansion sum_k a_k kappa(x . c_k) (a
synthetic target, a posterior mean) takes tiles of one kernel block;
posterior variances take taller ones (``regression._variance_rows``).
"""

import os
from dataclasses import dataclass
from math import prod, sqrt

import numpy as np

from .errors import (
    ConfigurationError,
    DomainError,
    ParameterError,
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

#: Entries per tile of a kernel expansion (:func:`_block_rows`) and the most
#: entries that one Monte-Carlo draw block holds: both set where the BLAS
#: products split their rows, so both are part of the bits.
_BLOCK = 1 << 15

#: Entries per block of the layer recursion.  The recursion is elementwise,
#: so this moves no bit; 128 KB buffers keep a whole workspace, with its
#: input and output blocks, in L2 cache and hold less memory at a Gram
#: build's peak than 2^15 entries, at the same speed.
_EVAL_BLOCK = 1 << 14


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


def _as_ufloat(u):
    """Validate and clamp an inner-product argument.

    Returns (array, was_scalar), a scalar as a 1-element array.  Raises
    DomainError if any entry is NaN or lies outside [-1 - U_CLAMP_TOL,
    1 + U_CLAMP_TOL].  Only clamping copies, so never write into the array.
    """
    arr = np.asarray(u, dtype=float)
    hi, lo = arr.max(initial=-1.0), arr.min(initial=1.0)  # both NaN if one entry is
    if np.isnan(hi):
        raise DomainError("inner product is NaN")
    excess = max(hi - 1.0, -1.0 - lo)
    if excess > U_CLAMP_TOL:
        raise DomainError(
            f"inner product outside [-1, 1] by {excess:.3e} (tolerance {U_CLAMP_TOL:.0e})"
        )
    clamped = np.clip(arr, -1.0, 1.0) if excess > 0.0 else arr
    return np.atleast_1d(clamped), arr.ndim == 0


def _times_poly(coefs, u, x, p, out=None):
    """``P(u) * x`` for an even or odd P with integer coefficients, lowest degree
    first and at most two of them nonzero (as in every row of ``_FORMS``):
    ``top u^2 + c`` formed in the scratch buffer p, times u for odd P, times x.
    Written into ``out``, which may be x itself; None puts it into p, or
    returns x itself for P = 1.

    The order matters in the last bits: ``(x u) p(u2)`` would move the rf
    s = 3 ``n_clamped`` of a benchmark spectrum
    (``test_spectral.py::test_benchmark_clamp_counts_pinned``).
    """
    top, *rest = coefs[::-2]  # P's nonzero coefficients, highest degree first
    odd = len(coefs) % 2 == 0
    if rest:
        (c,) = rest
        h = np.multiply(u, u, out=p)
        h *= top
        h += c
        if odd:
            h *= u
    elif odd:
        h = u if top == 1 else np.multiply(u, top, out=p)
    elif top == 1 and out is None:
        return x
    else:
        h = top
    return np.multiply(h, x, out=p if out is None else out)


def _form(row, u, t, sin_t, p, val, out):
    """One closed form ``(P(u) t + Q(u) S) / (D pi)`` of ``_FORMS`` into ``out``:
    ``P(u) t`` goes into ``val``, which may be t itself, and ``Q(u) S`` into
    the scratch buffer p; out is written last, so it may be u."""
    P, Q, D = row
    _times_poly(P, u, t, p, val)
    if Q:
        val += _times_poly(Q, u, sin_t, p)
    np.divide(val, D * np.pi, out=out)


def _rows(x, s, keys, work, out):
    """The rows ``keys`` of ``_FORMS`` at power s on a validated block x, out of
    the block buffers ``work = (t, S, p, *vals)``: every row but the last
    goes into the next of ``vals``, the last into out, which may be x.

    ``t = pi - arccos(x)`` and ``S = sin(arccos(x))`` are computed once for
    all of them; p takes the Horner values and the products ``Q(x) S``, and
    the last row forms ``P(x) t`` in t itself.  So one row takes three
    buffers of x's length, t, S and p, and each earlier row one more; no
    row allocates.
    """
    t, sin_t, p, *vals = work
    np.arccos(x, out=t)
    np.subtract(np.pi, t, out=t)
    # S as sqrt((1-x)(1+x)) avoids cancellation near |x| = 1; both factors
    # are >= 0 for x in [-1, 1]
    np.subtract(1.0, x, out=sin_t)
    sin_t *= np.add(1.0, x, out=p)
    np.sqrt(sin_t, out=sin_t)
    *first, last = keys
    for key, val in zip(first, vals):
        _form(_FORMS[key, s], x, t, sin_t, p, val, val)
    _form(_FORMS[last, s], x, t, sin_t, p, t, out)


def _workspace(l, family, size):
    """The block buffers of one evaluation of up to ``size`` entries at a time,
    each of ``min(size, _EVAL_BLOCK)`` floats: three (t, S and the Horner
    scratch of :func:`_rows`), and two more for NT from l = 3 on, its value
    and the slope.  Every layer writes its RF value into the output block,
    so nothing else is held."""
    count = 5 if family == "nt" and l > 2 else 3
    return np.empty((count, max(1, min(size, _EVAL_BLOCK))))


def _layers(u, s, l, family, c2, out, work):
    """The depth-``l`` layer recursion of ``family`` on a validated 1-D block
    of u, written into ``out`` (which may be u) after the last read of u, out
    of the block buffers of a :func:`_workspace` (each of ``_EVAL_BLOCK``
    floats at most, allocated once per evaluation by the calling thread),
    each cut to u's length.

    Layer 2 takes the value from the family's row of ``_FORMS`` ("rf", "nt"
    or "slope"); every later layer takes the RF value and, for NT, the slope
    at the previous RF value.  Each layer's RF value goes into ``out``, the
    next layer's argument, so the recursion holds the three buffers of
    :func:`_rows` and, for NT from l = 3 on, the NT value and the slope.
    Integer coefficients and one division by ``D pi`` last keep the absolute
    error of every 2-layer form within about 2 eps kappa(1) of the exact
    value (``test_kernels.py::TestClosedForms::test_matches_mpmath`` pins it
    on a grid dense at u = +-1).
    """
    work = [w[:u.size] for w in work]
    if l == 2:
        _rows(u, s, (family,), work, out)
        return
    nt = family == "nt"
    if nt:
        t, sin_t, p, val, slope = work
        _rows(u, s, ("nt", "rf"), (t, sin_t, p, val), out)
    else:
        _rows(u, s, ("rf",), work, out)
    for layer in range(3, l + 1):
        # rounding can lift a layer's value past 1, outside arccos's domain
        x = np.clip(out, -1.0, 1.0, out=out)
        if not nt:
            _rows(x, s, ("rf",), work, out)
            continue
        _rows(x, s, ("slope", "rf"), (t, sin_t, p, slope), out)
        val *= c2
        val *= slope
        np.add(val, out, out=out if layer == l else val)


def _kappa(u, out, s, l, family, c2, work):
    """The layer recursion on validated inner products u, block by block out
    of ``work``, into ``out``: a C-contiguous array of u's size, which may be
    u itself.

    The recursion is elementwise, so evaluating the flattened ``u`` in blocks
    gives the same bits as one pass, and a block is read in full before its
    values are written.
    """
    flat, res = u.ravel(), out.reshape(-1)
    block = work.shape[1]
    for lo in range(0, flat.size, block):
        _layers(flat[lo:lo + block], s, l, family, c2, res[lo:lo + block], work)
    return out


def _evaluate(u, s, l=2, family="rf", drop_c2=False):
    """Validate ``u`` and ``s`` once, then run the layer recursion on u block by
    block out of one :func:`_workspace` into a new array (a float for a
    scalar u)."""
    l = _check_int(l, "l", 2)
    s = _check_int(s, "s", 0, UnsupportedSmoothnessError)
    arr, scalar = _as_ufloat(u)
    if (family, s) not in _FORMS:
        supported = sorted(k for f, k in _FORMS if f == family)
        raise UnsupportedSmoothnessError(
            f"no closed form for s={s}; supported s in {supported}"
        )
    c2 = 1.0 if drop_c2 else 2.0 / double_factorial_odd(s)
    res = _kappa(arr, np.empty(arr.shape), s, l, family, c2, _workspace(l, family, arr.size))
    return float(res[0]) if scalar else res


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

    def __call__(self, u):
        """kappa(u) as a new array, or a float for a scalar u."""
        spec = self.spec
        return _evaluate(u, spec.s, spec.l, spec.family, self.drop_c2)

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
    outside the kernel domain.  The kernel values are written over the
    inner-product array (:func:`_in_place`), so for a
    :class:`DotProductKernel` the result is, besides one workspace, the only
    array made; any other kernel is a vectorised callable ``u -> kappa(u)``.
    """
    X = _check_unit_rows(points)
    Y = X if points2 is None else _check_unit_rows(points2)
    kappa = _in_place(kernel, len(X) * len(Y))
    if points2 is not None:
        return _cross_gram(kappa, X, Y)
    U = X @ X.T
    np.fill_diagonal(U, 1.0)
    return kappa(np.clip(U, -1.0, 1.0, out=U))


def _in_place(kernel, size):
    """``U -> kappa(U)`` written over U and returned, for C-contiguous inner
    products already clipped to [-1, 1]: the one in-place evaluator of
    kappa, which Gram matrices, expansion tiles, posterior variances and
    greedy rows all go through.

    A :class:`DotProductKernel` skips the second validation and evaluates
    every array it is given block by block out of one :func:`_workspace` for
    ``size`` entries at a time, allocated here, in the calling thread, so
    that the blocks of all its calls reuse the same buffers.  Any other
    kernel, a vectorised callable ``u -> kappa(u)``, is called on U and its
    values are copied over U.
    """
    if not isinstance(kernel, DotProductKernel):
        def evaluate(U):
            U[...] = kernel(U)
            return U
        return evaluate
    spec = kernel.spec
    c2 = 1.0 if kernel.drop_c2 else spec.c_squared
    work = _workspace(spec.l, spec.family, size)
    return lambda U: _kappa(U, U, spec.s, spec.l, spec.family, c2, work)


def _cross_gram(kappa, X, Y, out=None):
    """``kappa(X @ Y.T)`` for 2-D arrays of rows already checked to be unit
    vectors, with an evaluator of :func:`_in_place`, into ``out`` if given;
    the kernel values overwrite the inner products."""
    U = np.matmul(X, Y.T, out=out)
    return kappa(np.clip(U, -1.0, 1.0, out=U))


def _block_rows(width):
    """Rows of ``width`` entries in one tile: the most that are a power of two
    and fit in ``_BLOCK`` entries, at least one.

    Power-of-two tiles start on multiples of the row groups of the BLAS
    products, so the rows of a tiled product keep the bits of one product
    while a tile holds a whole group.
    """
    return max(1, _BLOCK >> (width - 1).bit_length())


def _expansion(kernel, X, centers, coef):
    """``kappa(X @ centers.T) @ coef``, the kernel expansion sum_k coef[k]
    kappa(x . c_k) at each row x of X (one column per column of a 2-D coef),
    for rows already checked to be unit vectors.

    X streams through :func:`_tiles` of :func:`_block_rows`
    ``(len(centers))`` rows, so a tile of the cross Gram holds one kernel
    block, and the result is the only array of X's length made.
    """
    out = np.empty((len(X),) + coef.shape[1:])
    for rows, tile in _tiles(kernel, X, centers, _block_rows(len(centers))):
        np.matmul(tile, coef, out=out[rows])
    return out


def _tiles(kernel, X, centers, height):
    """``(rows, kappa(X[rows] @ centers.T))`` for consecutive slices ``rows``
    of ``height`` rows of X (the last one shorter), rows already checked to
    be unit vectors: the cross Gram one tile at a time, each written into the
    same tile buffer and evaluated out of the same workspace.  A tile is the
    caller's to overwrite until it asks for the next one."""
    kappa = _in_place(kernel, height * len(centers))
    buf = np.empty((min(height, len(X)), len(centers)))
    for lo in range(0, len(X), height):
        rows = slice(lo, lo + height)
        yield rows, _cross_gram(kappa, X[rows], centers, buf[:len(X) - lo])


@dataclass(frozen=True)
class McOracleConfig:
    """Sample count and seed for the Monte-Carlo oracle.

    Samples are generated in fixed-size chunks, each from an independent
    Philox substream (``jumped(chunk_index)``), so the estimate is
    bit-reproducible no matter how chunks are scheduled across workers:
    ``mc_estimate`` runs them on as many threads as the process has CPUs
    (at most one per chunk) and adds their sums in chunk order.
    A chunk's rows are drawn and projected in blocks of
    :func:`_block_rows` ``(d)`` rows (a power of two, one row for d above
    ``_BLOCK / 2``), and the BLAS products of a block of fewer than four
    rows can round otherwise than longer blocks do.  The Philox stream, the
    chunk size, the draw block and the order in which chunk sums are
    accumulated are the reproducibility contract: changing any of them
    changes the estimate.  The seed is the Philox key, an integer in
    [0, 2^128).
    """

    sample_count: int
    seed: int
    chunk_size: int = 1 << 17

    def __post_init__(self):
        _check_int(self.sample_count, "sample_count", 1)
        if _check_int(self.seed, "seed", 0) >= 1 << 128:
            raise ParameterError(f"seed must be below 2**128 (a Philox key), got {self.seed}")
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
    holds one chunk-length output buffer plus one row block: the draw W and
    the projections ``g1 = W x`` and ``g2 = W x'``.  The block has
    :func:`_block_rows` ``(d)`` rows (at most min(chunk, n)), the rule that
    tiles kernel expansions, so W holds at most one kernel block whatever d
    is.  All of them are allocated here, in the calling thread, since memory
    freed by a worker thread would stay in that thread's malloc arena.

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
    block = min(_block_rows(spec.d), length)
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
