"""Property tests of the closed-form kernels kappa on [-1, 1].

Derandomized, so every run draws the same examples.  Each example mixes
uniform draws on [-1, 1], points within 10^-16 ... 1 of either end, and
the eight floats on each side of every one of them, so adjacent floats are
compared where the slopes are largest.  The six kernels, NT and RF at
s = 1, 2, 3, are taken at depths l = 2 and 3.

The invariants:

- |kappa(u)| <= kappa(1) everywhere on [-1, 1];
- kappa is nondecreasing on [0, 1] within 4 eps kappa(1), and RF on all of
  [-1, 1].  NT is not monotone on [-1, 0): NT s = 1 at l = 2 falls there
  from kappa(-1) = 0 to -0.137 near u = -0.79.

Blocked evaluation moves no bit: on random shapes, 1-D with sizes within 3
of a multiple of ``_EVAL_BLOCK`` and 2-D in C and in Fortran order, kappa
called directly and through ``kernels._in_place`` equals one evaluation in
a single block.

NT s = 1 at l = 3 breaks the second near u = 1.  Its outer layer takes
arccos of the inner layer's rounded value, with a slope that grows like
(1 - w)^(-1/2), so an ulp of the inner value becomes about 3e-10 of kappa
within 1e-12 of u = 1, and adjacent floats fall by up to 2.9e-10
(0.99999999999974 and the float after it).  That case is a strict xfail on
that cluster, outside the search.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from spherekern import kernels, make_kernel  # noqa: E402

EPS = np.finfo(float).eps
_B = kernels._EVAL_BLOCK

_KERNELS = [(family, s, l) for family in ("nt", "rf") for s in (1, 2, 3) for l in (2, 3)]

_points = st.tuples(
    st.lists(st.floats(-1.0, 1.0), max_size=32),
    st.lists(st.floats(-16.0, 0.0), max_size=16),
)


def _grid(uniform, log_gaps):
    """Sorted distinct points of [-1, 1]: the uniform draws, 1 - g and
    -1 + g for g = 10^log_gaps, both ends and 0, and the eight floats on each
    side of each."""
    gaps = 10.0 ** np.asarray(log_gaps, dtype=float)
    base = np.concatenate([uniform, 1.0 - gaps, gaps - 1.0, [-1.0, 0.0, 1.0]])
    steps = np.arange(-8, 9)[:, None] * np.spacing(base)
    return np.unique(np.clip(base + steps, -1.0, 1.0))


@pytest.mark.parametrize("family, s, l", _KERNELS)
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(points=_points)
def test_kappa_never_exceeds_kappa_one(family, s, l, points):
    kernel = make_kernel(family, s, l=l)
    values = kernel(_grid(*points))
    assert np.all(np.abs(values) <= kernel.kappa_one)


def _check_nondecreasing(family, s, l, u):
    """No value of kappa on u, restricted to [0, 1] (all of [-1, 1] for RF),
    lies more than 4 eps kappa(1) below one at a smaller u."""
    kernel = make_kernel(family, s, l=l)
    values = kernel(u[u >= (-1.0 if family == "rf" else 0.0)])
    drop = np.maximum.accumulate(values) - values
    assert drop.max() <= 4.0 * EPS * kernel.kappa_one


@pytest.mark.parametrize("family, s, l", [k for k in _KERNELS if k != ("nt", 1, 3)])
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(points=_points)
def test_kappa_is_nondecreasing(family, s, l, points):
    """On [0, 1] for every kernel but NT s = 1 at l = 3, on [-1, 1] for RF."""
    _check_nondecreasing(family, s, l, _grid(*points))


@pytest.mark.xfail(strict=True, reason="an ulp of the inner layer's value drops kappa by "
                                       "up to 2.9e-10 near u = 1")
def test_kappa_is_nondecreasing_near_one_nt_1_3():
    """NT s = 1 at l = 3 on the measured cluster: 0.99999999999974 and the
    eight floats on each side, where adjacent values fall by 2.9e-10.  A
    fixed example rather than a search, so that no failing example is
    discovered and saved."""
    _check_nondecreasing("nt", 1, 3, _grid([0.99999999999974], []))


@st.composite
def _blocked_inputs(draw):
    """Uniform inner products of at most 3 * _EVAL_BLOCK entries: 1-D within 3
    of a multiple of the block, or 2-D in C or Fortran order."""
    if draw(st.booleans()):
        k, off = draw(st.integers(0, 3)), draw(st.integers(-3, 3))
        shape = (min(3 * _B, max(1, k * _B + off)),)
    else:
        rows = draw(st.integers(1, 512))
        shape = (rows, draw(st.integers(1, 3 * _B // rows)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.array(rng.uniform(-1.0, 1.0, shape), order=draw(st.sampled_from("CF")))


@pytest.mark.parametrize("family, s, l", _KERNELS)
@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(u=_blocked_inputs())
def test_blocked_evaluation_matches_one_block(family, s, l, u):
    """kappa directly and through _in_place, the latter on the C-ordered view
    (u, or u.T for Fortran order), keeps the bits of a single block."""
    kernel = make_kernel(family, s, l=l)
    c_view = u if u.flags.c_contiguous else u.T

    def both():
        return kernel(u), kernels._in_place(kernel, u.size)(c_view.copy())

    blocked = both()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_EVAL_BLOCK", 1 << 40)
        assert kernels._workspace(l, family, u.size).shape[1] == u.size
        whole, whole_in_place = both()
    assert blocked[0].tobytes() == whole.tobytes()
    assert blocked[1].tobytes() == whole_in_place.tobytes()
    assert whole_in_place.tobytes() == np.ascontiguousarray(whole if u is c_view else whole.T).tobytes()
