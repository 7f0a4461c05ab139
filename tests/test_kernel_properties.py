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

NT s = 1 at l = 3 breaks the second near u = 1.  Its outer layer takes
arccos of the inner layer's rounded value, with a slope that grows like
(1 - w)^(-1/2), so an ulp of the inner value becomes about 3e-10 of kappa
within 1e-12 of u = 1, and adjacent floats fall by up to 2.9e-10
(0.99999999999974 and the float after it).  That case is a strict xfail.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from spherekern import make_kernel  # noqa: E402

EPS = np.finfo(float).eps

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


def _nondecreasing_case(family, s, l):
    marks = ()
    if (family, s, l) == ("nt", 1, 3):
        marks = pytest.mark.xfail(
            strict=True, reason="an ulp of the inner layer's value drops kappa by "
                                "up to 2.9e-10 near u = 1")
    return pytest.param(family, s, l, marks=marks)


@pytest.mark.parametrize("family, s, l", _KERNELS)
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(points=_points)
def test_kappa_never_exceeds_kappa_one(family, s, l, points):
    kernel = make_kernel(family, s, l=l)
    values = kernel(_grid(*points))
    assert np.all(np.abs(values) <= kernel.kappa_one)


@pytest.mark.parametrize("family, s, l", [_nondecreasing_case(*k) for k in _KERNELS])
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(points=_points)
def test_kappa_is_nondecreasing(family, s, l, points):
    """On [0, 1] for every kernel, on [-1, 1] for RF: no value lies more than
    4 eps kappa(1) below one at a smaller u."""
    kernel = make_kernel(family, s, l=l)
    u = _grid(*points)
    values = kernel(u[u >= (-1.0 if family == "rf" else 0.0)])
    drop = np.maximum.accumulate(values) - values
    assert drop.max() <= 4.0 * EPS * kernel.kappa_one
