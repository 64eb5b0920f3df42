"""Gibbs-measure verification harness for derivative NLS on the circle.

The package builds truncated Gaussian fields mode by mode, evaluates the
conserved functionals and the cutoff density of the associated Gibbs
measure, runs the truncated Hamiltonian flow, and wraps the statistical
experiments (Cauchy rates, chaos moment ratios, tail fits, invariance
checks) behind a config-driven command line tool.
"""

from .spectral import (
    FourierCoeffs,
    QuadratureGrid,
    antiderivative,
    conjugate,
    derivative,
    inner_product_hermitian,
    lp_norm,
    multiply,
    pairing_bilinear,
    project,
)
from .sampling import (
    GENERATOR_NAME,
    SeedSpec,
    sample_gaussian,
    sample_phi,
)
from .functionals import (
    chi,
    density_G,
    energy,
    f_quadrature_oracle,
    f_quartic,
    gauge_F,
    hamiltonian_H2,
    mass,
    momentum,
)
from .chaos import (
    RateFit,
    TailFit,
    cauchy_rate,
    chaos_ratio,
    f_decompose,
    kernel_tail_sum,
    random_coeff_table,
    tail_survival,
    y3_sum,
)
from .flow import (
    FlowState,
    IntegratorConfig,
    apply_K,
    evolve,
    gauge_transform,
    invariance_experiment,
    rhs_expanded,
    rhs_hamiltonian,
    variational_derivatives,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    RunRecord,
    emit,
    parse_config,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "FourierCoeffs",
    "QuadratureGrid",
    "antiderivative",
    "conjugate",
    "derivative",
    "inner_product_hermitian",
    "lp_norm",
    "multiply",
    "pairing_bilinear",
    "project",
    "GENERATOR_NAME",
    "SeedSpec",
    "sample_gaussian",
    "sample_phi",
    "chi",
    "density_G",
    "energy",
    "f_quadrature_oracle",
    "f_quartic",
    "gauge_F",
    "hamiltonian_H2",
    "mass",
    "momentum",
    "RateFit",
    "TailFit",
    "cauchy_rate",
    "chaos_ratio",
    "f_decompose",
    "kernel_tail_sum",
    "random_coeff_table",
    "tail_survival",
    "y3_sum",
    "FlowState",
    "IntegratorConfig",
    "apply_K",
    "evolve",
    "gauge_transform",
    "invariance_experiment",
    "rhs_expanded",
    "rhs_hamiltonian",
    "variational_derivatives",
    "ConfigError",
    "ExperimentConfig",
    "RunRecord",
    "emit",
    "parse_config",
    "run",
    "__version__",
]
