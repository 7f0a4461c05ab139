"""Property tests of the information-gain ledger over greedy traces.

Derandomized, so every run draws the same examples.  lam ranges
log-uniformly over [1e-2, 1e12]; the kernels are RF s = 1, 2, 3, whose
kappa(1) = 1 keeps the variance-sum bound valid and whose Gram diagonal
equals kappa(1) to the last bits, so a greedy prefix and the point set it
selected factor the same matrix.  (NT s = 1 has a square-root term at
u = 1: its Gram diagonal sits up to about 1e-8 below kappa(1), the value
the greedy factor uses.)
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from spherekern import greedy_max_variance, make_kernel, regression, sample_sphere  # noqa: E402

FIELDS = ("info_gain", "effective_dim", "sum_variance", "bound_rhs")


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    s=st.integers(1, 3),
    d=st.integers(3, 5),
    m=st.integers(4, 64),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**16),
    log_lam=st.floats(-2.0, 12.0),
)
def test_every_greedy_prefix_is_its_point_set(s, d, m, n, seed, log_lam):
    """Each prefix matches _infogain_summary of the points it selected, in
    selection order, and keeps sum_variance <= bound_rhs and <= n kappa(1)."""
    lam = 10.0 ** log_lam
    kernel = make_kernel("rf", s, d=d)
    trace = greedy_max_variance(kernel, sample_sphere(d, m, seed), n, lam)
    for p in range(1, n + 1):
        report = regression._infogain_summary(kernel, trace.selected_points[:p], lam)
        for name in FIELDS:
            assert_allclose(getattr(trace, name)[p - 1], getattr(report, name),
                            rtol=1e-11, err_msg=f"{name} at prefix {p}")
    assert np.all(trace.sum_variance <= trace.bound_rhs)
    assert np.all(trace.sum_variance <= trace.prefix_sizes * kernel.kappa_one)
