"""Estimate the number of improper components in complex-valued data.

A complex random signal is improper when it is correlated with its own
complex conjugate. This package estimates how many such components a
multichannel Gaussian recording contains, from the sample circularity
coefficients (canonical correlations between the data and its conjugate):

* ``mdl_itc_full`` / ``mdl_itc_reduced`` — minimum-description-length
  information criterion, full-sample and reduced-rank;
* ``glrt_full`` / ``glrt_reduced`` — sequential likelihood-ratio tests,
  full-sample and reduced-rank (small-sample corrected statistic).

The reduced-rank variants jointly pick a PCA rank and the order, which
keeps them usable when the snapshot count is comparable to (or below)
the channel count, and none of the detectors assume white noise — only
proper noise. A scenario generator (``simulate``), Monte Carlo harness
(``harness``), and the ``improperdim`` CLI reproduce detection-probability
experiments end to end.
"""

from .detectors import (
    DF_RULES,
    DetectionResult,
    GlrtDiagnostics,
    ItcDiagnostics,
    box_statistic,
    glrt_full,
    glrt_reduced,
    itc_fit_term,
    itc_penalty,
    mdl_itc_full,
    mdl_itc_reduced,
    wilks_statistic,
)
from .fileio import (
    FormatError,
    format_scenario_config,
    load_dataset,
    load_scenario_config,
    parse_scenario_config,
    write_dataset,
)
from .harness import (
    CSV_HEADER,
    CurveRow,
    DETECTOR_NAMES,
    ExperimentPlan,
    InfeasibleOptionsError,
    default_r_max,
    detect,
    dump_scenario,
    format_curve_csv,
    format_detection_report,
    format_plan,
    load_plan,
    parse_plan,
    run_detection,
    run_experiment,
    run_montecarlo,
    trial_seed,
)
from .numerics import (
    TakagiFactorization,
    chi2_quantile,
    hermitian_inv_sqrt,
    regularized_gamma_p,
    takagi,
)
from .simulate import (
    DEFAULT_PHASE_FACTOR,
    NoiseSpec,
    ScenarioConfig,
    SourceSpec,
    ar_spatial_covariance,
    generate_noise,
    generate_scenario,
    generate_sources,
    population_covariances,
    steering_matrix,
)
from .stats import (
    DEFAULT_RCOND,
    CircularitySpectrum,
    CovariancePair,
    as_data_matrix,
    augmented_covariance,
    circularity_coefficients,
    circularity_profile,
    pca_reduce,
    sample_covariances,
)

__version__ = "0.1.0"

__all__ = [
    "CSV_HEADER",
    "CircularitySpectrum",
    "CovariancePair",
    "CurveRow",
    "DEFAULT_PHASE_FACTOR",
    "DEFAULT_RCOND",
    "DETECTOR_NAMES",
    "DF_RULES",
    "DetectionResult",
    "ExperimentPlan",
    "FormatError",
    "GlrtDiagnostics",
    "InfeasibleOptionsError",
    "ItcDiagnostics",
    "NoiseSpec",
    "ScenarioConfig",
    "SourceSpec",
    "TakagiFactorization",
    "ar_spatial_covariance",
    "as_data_matrix",
    "augmented_covariance",
    "box_statistic",
    "chi2_quantile",
    "circularity_coefficients",
    "circularity_profile",
    "default_r_max",
    "detect",
    "dump_scenario",
    "format_curve_csv",
    "format_detection_report",
    "format_plan",
    "format_scenario_config",
    "generate_noise",
    "generate_scenario",
    "generate_sources",
    "glrt_full",
    "glrt_reduced",
    "hermitian_inv_sqrt",
    "itc_fit_term",
    "itc_penalty",
    "load_dataset",
    "load_plan",
    "load_scenario_config",
    "mdl_itc_full",
    "mdl_itc_reduced",
    "parse_plan",
    "parse_scenario_config",
    "pca_reduce",
    "population_covariances",
    "regularized_gamma_p",
    "run_detection",
    "run_experiment",
    "run_montecarlo",
    "sample_covariances",
    "steering_matrix",
    "takagi",
    "trial_seed",
    "wilks_statistic",
    "write_dataset",
]
