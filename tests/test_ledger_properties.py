"""Property tests of the information-gain ledger over greedy traces.

Derandomized, so every run draws the same examples.  lam ranges
log-uniformly over [1e-2, 1e12]; the kernels are RF and NT at s = 1, 2, 3.
Greedy and ``kernels.gram`` both put kappa(1) on the diagonal bit for bit,
so a greedy prefix and the point set it selected factor the same matrix up
to the rounding of their off-diagonal inner products, and the prefix
identity holds at rtol 1e-11 for all six kernels.  One exception: greedy
may select a point again, and where it does, its row holds kappa(1) for the
earlier copy, while the Gram holds kappa of that point's inner product with
itself from a matrix product, up to an ulp below 1.  NT s = 1 has an
unbounded slope at u = 1 (its kappa_0 term), which turns that ulp into
about 1e-8, and the nearly singular system of two copies magnifies it
(2.2e-6 relative at worst over 400 seeded draws of these ranges), so such
prefixes get rtol 1e-5.  The variance-sum bound holds for every kappa(1),
NT s = 2 and 3 (7/3 and 2.8) included.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from spherekern import greedy_max_variance, make_kernel, regression, sample_sphere  # noqa: E402

FIELDS = ("info_gain", "effective_dim", "sum_variance", "bound_rhs")


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(
    family=st.sampled_from(("rf", "nt")),
    s=st.integers(1, 3),
    d=st.integers(3, 5),
    m=st.integers(4, 64),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**16),
    log_lam=st.floats(-2.0, 12.0),
)
def test_every_greedy_prefix_is_its_point_set(family, s, d, m, n, seed, log_lam):
    """Each prefix matches _infogain_summary of the points it selected, in
    selection order, and keeps sum_variance <= bound_rhs and <= n kappa(1)."""
    lam = 10.0 ** log_lam
    kernel = make_kernel(family, s, d=d)
    trace = greedy_max_variance(kernel, sample_sphere(d, m, seed), n, lam)
    for p in range(1, n + 1):
        repeats = np.unique(trace.selected_indices[:p]).size < p
        rtol = 1e-5 if repeats and (family, s) == ("nt", 1) else 1e-11
        report = regression._infogain_summary(kernel, trace.selected_points[:p], lam)
        for name in FIELDS:
            assert_allclose(getattr(trace, name)[p - 1], getattr(report, name),
                            rtol=rtol, err_msg=f"{name} at prefix {p}")
    assert np.all(trace.sum_variance <= trace.bound_rhs)
    # the running float sum of kappa(1): n * kappa(1) rounds below it for 7/3
    assert np.all(trace.sum_variance <= np.cumsum(np.full(n, kernel.kappa_one)))
