"""spherekern: neural-kernel spectra and regression on the sphere.

``import spherekern`` loads the kernel and spectral layers only.  The names
of ``regression`` and ``experiments`` are resolved on first access by the
module ``__getattr__`` (PEP 562), so a process that never fits a model
never imports them.  The package's only dependency is numpy.
"""

__version__ = "0.1.0"

import importlib

from .errors import (
    ConfigurationError,
    DegenerateFunctionError,
    DomainError,
    ExperimentError,
    FitError,
    IllConditionedGramError,
    NumericalError,
    ParameterError,
    SphereKernError,
    SpectralAccuracyError,
    UnsupportedDimensionError,
    UnsupportedSmoothnessError,
)
from .kernels import (
    DotProductKernel,
    KernelSpec,
    McOracleConfig,
    gram,
    make_kernel,
    mc_estimate,
    nt_deep,
    nt_two_layer,
    rf_closed,
    rf_deep,
    rf_derivative,
)
from .spectral import (
    GegenbauerBasis,
    MaternSpec,
    SpectrumTable,
    addition_constant,
    default_fit_range,
    eigendecay_fit,
    endpoint_coefficient,
    flatten_spectrum,
    gegenbauer,
    gegenbauer_at_one,
    matern_spectrum,
    mercer_spectrum,
    multiplicity,
    reconstruct,
    rkhs_equivalence_ratio,
    tail_sum,
    verify_endpoint,
)

# Names resolved on first access, by home module.
_LAZY = {
    **dict.fromkeys((
        "ConfidenceParams", "FittedRegressor", "GreedyTrace", "InfoGainReport",
        "SphericalDataset", "confidence_band", "effective_dimension", "fit",
        "greedy_max_variance", "information_gain", "predict_mean",
        "predict_variance", "sample_sphere", "variance_sum_check",
    ), "regression"),
    **dict.fromkeys((
        "ErrorRateReport", "MigGrowthReport", "SyntheticFunction",
        "error_rate_experiment", "fit_loglog_slope", "make_synthetic",
        "mig_growth_experiment", "theoretical_error_exponent",
        "theoretical_mig_exponent",
    ), "experiments"),
}


def __getattr__(name):
    """Import ``regression`` or ``experiments`` when it or one of its names is first used."""
    if name in ("regression", "experiments"):
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)


def __dir__():
    """The loaded names plus the lazy ones, so ``dir`` lists all of ``__all__``."""
    return sorted(set(globals()) | set(_LAZY))


# Every name imported above from a submodule, then the lazy ones.
__all__ = [
    "__version__",
    *(name for name, obj in globals().items()
      if getattr(obj, "__module__", "").startswith(f"{__name__}.")),
    *_LAZY,
]
