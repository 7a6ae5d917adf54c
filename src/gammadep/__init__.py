"""Exponent-indexed dependence metrics with permutation and half-normal
inference, built on three unbiased kernel-product mean estimates."""

from .data_model import (
    DCOV,
    GHSIC,
    INFINITY,
    PCOV,
    CombinedResult,
    GammaResult,
    GammaSet,
    KernelPairSpec,
    Sample,
    StatTriple,
    TestReport,
    gamma_label,
    normalize_gamma,
    validate_sample,
)
from .errors import GammadepError
from .inference import (
    COMBINERS,
    PermutationPlan,
    asymptotic_pvalue,
    combine_cauchy,
    combine_fisher,
    combine_min,
    derive_seed,
    permutation_test,
)
from .kernels import (
    PairKernelMatrices,
    build_pair_matrices,
    kernel_values,
    median_bandwidth,
    pairwise_dcov,
    pairwise_ghsic,
    resolve_kernel_spec,
)
from .metric import aggregate, gamma_stats, rate_w
from .simgen import (
    KAPPA_DEFAULTS,
    PopulationTriple,
    SimConfig,
    SizePowerResult,
    gen_model,
    mc_population_triple,
    size_power_experiment,
)
from .ustat import (
    TupleBudget,
    brute_force_triple,
    fast_triple_pair,
)
from .variance import (
    jackknife_brute,
    jackknife_fast,
    permutation_sigma0_sq,
)

__version__ = "0.1.0"

__all__ = [
    "COMBINERS",
    "DCOV",
    "GHSIC",
    "INFINITY",
    "KAPPA_DEFAULTS",
    "PCOV",
    "CombinedResult",
    "GammaResult",
    "GammaSet",
    "GammadepError",
    "KernelPairSpec",
    "PairKernelMatrices",
    "PermutationPlan",
    "PopulationTriple",
    "Sample",
    "SimConfig",
    "SizePowerResult",
    "StatTriple",
    "TestReport",
    "TupleBudget",
    "aggregate",
    "asymptotic_pvalue",
    "brute_force_triple",
    "build_pair_matrices",
    "combine_cauchy",
    "combine_fisher",
    "combine_min",
    "derive_seed",
    "fast_triple_pair",
    "gamma_label",
    "gamma_stats",
    "gen_model",
    "jackknife_brute",
    "jackknife_fast",
    "kernel_values",
    "mc_population_triple",
    "median_bandwidth",
    "normalize_gamma",
    "pairwise_dcov",
    "pairwise_ghsic",
    "permutation_sigma0_sq",
    "permutation_test",
    "rate_w",
    "resolve_kernel_spec",
    "size_power_experiment",
    "validate_sample",
]
