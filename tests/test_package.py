"""The public API: each module's ``__all__`` is the one declaration of its
names, and the package re-exports them all."""

import inspect

import numpy as np
import pytest

import improperdim
from improperdim import detectors, fileio, harness, numerics, simulate, stats, write_dataset

MODULES = (detectors, fileio, harness, numerics, simulate, stats)

# the API pin, and the one deliberate second copy of the public names
PUBLIC_NAMES = [
    "CSV_HEADER", "CircularitySpectrum", "CovariancePair", "CurveRow", "DEFAULT_PHASE_FACTOR",
    "DEFAULT_RCOND", "DETECTOR_NAMES", "DF_RULES", "DetectionResult", "ExperimentPlan",
    "FormatError", "GlrtDiagnostics", "InfeasibleOptionsError", "ItcDiagnostics", "NoiseSpec",
    "ScenarioConfig", "SourceSpec", "TakagiFactorization", "ar_spatial_covariance",
    "as_data_matrix", "augmented_covariance", "box_statistic", "chi2_quantile",
    "circularity_coefficients", "circularity_profile", "default_r_max", "detect", "dump_scenario",
    "format_curve_csv", "format_detection_report", "format_plan", "format_scenario_config",
    "generate_noise", "generate_scenario", "generate_sources", "glrt_full", "glrt_reduced",
    "hermitian_inv_sqrt", "itc_fit_term", "itc_penalty", "load_dataset", "load_plan",
    "load_scenario_config", "mdl_itc_full", "mdl_itc_reduced", "parse_plan",
    "parse_scenario_config", "pca_reduce", "population_covariances", "regularized_gamma_p",
    "run_detection", "run_experiment", "run_montecarlo", "sample_covariances", "steering_matrix",
    "takagi", "trial_seed", "wilks_statistic", "write_dataset",
]


def test_package_all_is_pinned():
    assert improperdim.__all__ == PUBLIC_NAMES


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_module_all_names_exist(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_no_name_is_declared_by_two_modules():
    # a star import would let the later module silently shadow the earlier
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))


def test_namespace_holds_only_all_and_submodules():
    public = [name for name in dir(improperdim) if not name.startswith("_")]
    assert [name for name in public if not inspect.ismodule(getattr(improperdim, name))] == (
        improperdim.__all__
    )


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from improperdim import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(improperdim.__all__)


def test_write_dataset_matches_per_value_format(tmp_path):
    special = [-0.0, 5e-324, 1.7976931348623157e308, -5e-324, 0.1, -1.7976931348623157e308]
    rng = np.random.default_rng(11)
    rows = np.array([special, rng.standard_normal(6) * 10.0 ** rng.integers(-300, 300, 6)])
    # rows are snapshots with re/im interleaved over three channels
    data = (rows[:, 0::2] + 1j * rows[:, 1::2]).T
    data.real[0, 0] = -0.0  # 1j * im would have turned it into +0.0
    path = tmp_path / "special.txt"
    write_dataset(path, data)
    expected = "improperdim v1 m=3 M=2\n" + "".join(
        " ".join(format(value, ".17g") for value in row) + "\n" for row in rows
    )
    assert path.read_bytes() == expected.encode("ascii")
