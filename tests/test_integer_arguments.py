"""One integer rule for every dimension, power, depth, degree and count argument.

Each entry of ``_INTEGER_ARGUMENTS`` calls a library entry point with one bad
integer argument; each must raise its error before any sampling, kernel
evaluation, Gram, quadrature or factorization starts.  Degree arguments have
their own table in ``test_spectral.py``.
"""

import re
from types import SimpleNamespace

import numpy as np
import pytest

from spherekern import (
    FittedRegressor,
    GegenbauerBasis,
    KernelSpec,
    MaternSpec,
    McOracleConfig,
    ParameterError,
    SpectrumTable,
    UnsupportedDimensionError,
    UnsupportedSmoothnessError,
    addition_constant,
    default_fit_range,
    endpoint_coefficient,
    error_rate_experiment,
    gegenbauer_at_one,
    greedy_max_variance,
    make_kernel,
    make_synthetic,
    mc_estimate,
    mig_growth_experiment,
    multiplicity,
    nt_deep,
    reconstruct,
    rf_closed,
    sample_sphere,
    tail_sum,
    theoretical_error_exponent,
    theoretical_mig_exponent,
)
from spherekern import experiments, kernels, regression, spectral
from spherekern.experiments import _grid

_NT1 = make_kernel("nt", 1)
_DIM, _POW = UnsupportedDimensionError, UnsupportedSmoothnessError

# "function.argument": (call with the bad value, floor, error class).
_INTEGER_ARGUMENTS = {
    # dimensions
    "KernelSpec.d": (lambda v: KernelSpec("nt", 1, d=v), 2, _DIM),
    "sample_sphere.d": (lambda v: sample_sphere(v, 4, 0), 2, _DIM),
    "multiplicity.d": (lambda v: multiplicity(v, 2), 2, _DIM),
    "MaternSpec.d": (lambda v: MaternSpec(nu=0.5, d=v), 2, _DIM),
    "SpectrumTable.d": (lambda v: SpectrumTable(v, [1.0], [1], "test"), 2, _DIM),
    "theoretical_error_exponent.d": (lambda v: theoretical_error_exponent("nt", 1, v), 2, _DIM),
    "theoretical_mig_exponent.d": (lambda v: theoretical_mig_exponent("nt", 1, v), 2, _DIM),
    "gegenbauer_at_one.d": (lambda v: gegenbauer_at_one(v, 2), 3, _DIM),
    "addition_constant.d": (lambda v: addition_constant(v, 2), 3, _DIM),
    "GegenbauerBasis.d": (lambda v: GegenbauerBasis(v, 10), 3, _DIM),
    "reconstruct.d": (lambda v: reconstruct(
        SimpleNamespace(d=v, eigenvalues=np.ones(3), max_degree=2), 0.3), 3, _DIM),
    "tail_sum.d": (lambda v: tail_sum("nt", 1, v, 8), 3, _DIM),
    "FittedRegressor.empty.d": (lambda v: FittedRegressor.empty(_NT1, 1.0, d=v), 2, _DIM),
    # powers
    "KernelSpec.s": (lambda v: KernelSpec("nt", v), 0, _POW),
    "rf_closed.s": (lambda v: rf_closed(v, 0.3), 0, _POW),
    "endpoint_coefficient.s": (lambda v: endpoint_coefficient(v), 1, _POW),
    "default_fit_range.s": (lambda v: default_fit_range(v), 0, _POW),
    "theoretical_error_exponent.s": (lambda v: theoretical_error_exponent("nt", v, 3), 1, _POW),
    "theoretical_mig_exponent.s": (lambda v: theoretical_mig_exponent("nt", v, 3), 1, _POW),
    # depths
    "KernelSpec.l": (lambda v: KernelSpec("nt", 1, l=v), 2, ParameterError),
    "nt_deep.l": (lambda v: nt_deep(1, v, 0.3), 2, ParameterError),
    # counts and seeds
    "sample_sphere.n": (lambda v: sample_sphere(3, v, 0), 1, ParameterError),
    "greedy_max_variance.n": (lambda v: greedy_max_variance(_NT1, np.eye(3), v, 1.0),
                              1, ParameterError),
    "make_synthetic.n0": (lambda v: make_synthetic(_NT1, 3, n0=v), 1, ParameterError),
    "make_synthetic.range_sample": (lambda v: make_synthetic(_NT1, 3, range_sample=v),
                                    1, ParameterError),
    "error_rate_experiment.repetitions": (
        lambda v: error_rate_experiment("nt", 1, 3, repetitions=v), 1, ParameterError),
    "error_rate_experiment.eval_sample": (
        lambda v: error_rate_experiment("nt", 1, 3, eval_sample=v), 1, ParameterError),
    "error_rate_experiment.n0": (
        lambda v: error_rate_experiment("nt", 1, 3, n0=v), 1, ParameterError),
    "error_rate_experiment.workers": (
        lambda v: error_rate_experiment("nt", 1, 3, workers=v), 1, ParameterError),
    "mig_growth_experiment.candidate_grid_size": (
        lambda v: mig_growth_experiment("nt", 1, 3, candidate_grid_size=v), 1, ParameterError),
    "McOracleConfig.sample_count": (lambda v: McOracleConfig(v, 0), 1, ParameterError),
    "McOracleConfig.chunk_size": (lambda v: McOracleConfig(10, 0, chunk_size=v),
                                  1, ParameterError),
    "McOracleConfig.seed": (lambda v: McOracleConfig(10, v), 0, ParameterError),
    "sample_sphere.seed": (lambda v: sample_sphere(3, 4, v), 0, ParameterError),
    "make_synthetic.seed": (lambda v: make_synthetic(_NT1, 3, seed=v), 0, ParameterError),
    "error_rate_experiment.master_seed": (
        lambda v: error_rate_experiment("nt", 1, 3, master_seed=v), 0, ParameterError),
    "mig_growth_experiment.seed": (
        lambda v: mig_growth_experiment("nt", 1, 3, seed=v), 0, ParameterError),
    "_grid.max_exp": (lambda v: _grid(None, v), 1, ParameterError),
}


def _refuse(*args, **kwargs):
    raise AssertionError("work started before the integer arguments were checked")


@pytest.fixture
def no_work(monkeypatch):
    """Make sampling, kernel evaluation (so every Gram), quadrature, tail terms,
    factorization and error-rate repetitions fail if they start."""
    for owner, name in ((np.random, "default_rng"), (np.random, "Philox"),
                        (kernels, "_layers"), (spectral, "_quadrature"),
                        (spectral, "_degree_terms"), (regression, "cholesky"),
                        (experiments, "_error_rate_rep")):
        monkeypatch.setattr(owner, name, _refuse)


@pytest.mark.parametrize("bad", ["floor - 1", 2.5, True, "3"])
@pytest.mark.parametrize("entry", sorted(_INTEGER_ARGUMENTS))
def test_integer_arguments_follow_one_rule(entry, bad, no_work):
    """Below the floor, fractional, bool or string: the entry's error, a
    ParameterError, raised on entry, never a TypeError, a hang or a silent
    coercion."""
    call, floor, error = _INTEGER_ARGUMENTS[entry]
    value = floor - 1 if bad == "floor - 1" else bad
    name = re.escape(entry.rsplit(".", 1)[1])
    message = (f"{name} must be a non-negative integer" if floor == 0
               else f"need an integer {name} >= {floor}, got ")
    with pytest.raises(error, match=message) as info:
        call(value)
    assert isinstance(info.value, ParameterError)


def test_dimension_and_power_errors_are_parameter_errors():
    assert issubclass(UnsupportedDimensionError, ParameterError)
    assert issubclass(UnsupportedSmoothnessError, ParameterError)


def test_zero_chunk_size_raises_at_construction():
    """A zero chunk would draw zero samples forever in ``mc_estimate``."""
    with pytest.raises(ParameterError, match="chunk_size >= 1"):
        McOracleConfig(10, 0, chunk_size=0)


def test_seed_limits(no_work):
    """Every integer of a seed sequence is a seed, and a Monte-Carlo seed is a
    128-bit Philox key: numpy's ValueError never surfaces."""
    for seed in ([0, -1], (3, 2.5), [True]):
        with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
            sample_sphere(3, 4, seed)
    assert McOracleConfig(10, 2**128 - 1).seed == 2**128 - 1
    with pytest.raises(ParameterError, match="seed must be below 2\\*\\*128"):
        McOracleConfig(10, 2**128)


@pytest.mark.parametrize("grid", [[0, 2, 4], [-2, 4, 8], [2.5, 4, 8], [2.0, 4.0, 8.0],
                                  ["2", "4", "8"], [[2, 4, 8]]])
def test_grid_entries_are_positive_integers(grid, no_work):
    """A fractional entry is not rounded down, a float array is not cast, and a
    zero entry fails before any repetition, not in the final log fit."""
    with pytest.raises(ParameterError, match="n_grid entry >= 1"):
        error_rate_experiment("nt", 1, 3, n_grid=grid)
    with pytest.raises(ParameterError, match="n_grid entry >= 1"):
        mig_growth_experiment("nt", 1, 3, n_grid=grid)


def test_numpy_integers_are_accepted():
    """A numpy integer is the int it holds: the same kernel values, samples,
    Monte-Carlo estimate, tail and report bytes."""
    i64, i32 = np.int64, np.int32
    u = np.linspace(-1.0, 1.0, 101)
    assert np.array_equal(make_kernel("nt", i64(2), i32(3), i64(4))(u),
                          make_kernel("nt", 2, 3, 4)(u))
    assert np.array_equal(sample_sphere(i64(3), i64(5), 0), sample_sphere(3, 5, 0))
    x = np.array([1.0, 0.0, 0.0])
    spec = KernelSpec("rf", 1)
    assert (mc_estimate(spec, x, x, McOracleConfig(i64(10), np.uint32(3), chunk_size=i64(4)))
            == mc_estimate(spec, x, x, McOracleConfig(10, 3, chunk_size=4)))
    basis = GegenbauerBasis(i64(4), i64(6))
    assert type(basis.d) is int and type(basis.max_degree) is int
    assert addition_constant(i64(4), 2) == addition_constant(4, 2)
    assert tail_sum("rf", i64(2), i64(3), 8) == tail_sum("rf", 2, 3, 8)
    assert endpoint_coefficient(i64(2)) == endpoint_coefficient(2)
    small = dict(n_grid=2 ** np.arange(1, 5), eval_sample=50)
    as_numpy = error_rate_experiment("nt", 1, 3, repetitions=i64(2), n0=i64(5), **small)
    as_int = error_rate_experiment("nt", 1, 3, repetitions=2, n0=5, **small)
    assert as_numpy.to_csv() == as_int.to_csv()
