"""Power-variation laboratory for parabolic SPDEs with fractional spectral Laplacian
on boxes: spectral simulation, normalized variation estimators, and the limit theory
they converge to."""

from ._version import __version__
from .combinatorics import alpha_permanent, complete_bell, cycle_count, gaussian_even_moment
from .harness import (
    ConvergenceRow,
    ExperimentSpec,
    HolderEstimate,
    LimitReport,
    estimate_holder,
    report_constants,
    run_convergence,
    variation_levels,
)
from .limits import (
    Regime,
    RegimeParams,
    holder_exponent,
    increment_variance,
    increment_weights,
    k_r,
    limit_constant_even_power,
    limit_process_general_sigma,
    norm_weights,
    tau_n,
)
from .qform import norm_functional_mean
from .rqmc import MonteCarloEstimate, mu_rF_estimate
from .simulator import (
    CoefficientPath,
    ConstantSigma,
    FieldSigma,
    SimConfig,
    StateSigma,
    sample_additive_increments,
    simulate,
)
from .spectrum import (
    DomainSpec,
    ZetaValue,
    eigenvalues,
    spectral_zeta,
    weyl_constant,
)
from .variations import VariationRequest, VariationSeries

__all__ = [name for name in dir() if not name.startswith("_")]
