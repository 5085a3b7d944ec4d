"""The public API: each module's ``__all__`` is the one declaration of its
names, and the package re-exports them all."""

import inspect
from pathlib import Path

import numpy as np
import pytest

import improperdim
from improperdim import (
    NoiseSpec,
    ScenarioConfig,
    circularity_profile,
    detectors,
    fileio,
    glrt_reduced,
    harness,
    mdl_itc_reduced,
    numerics,
    pca_reduce,
    simulate,
    stats,
    steering_matrix,
    write_dataset,
)
from helpers import result_bytes

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
    random = rng.standard_normal(6) * 10.0 ** rng.integers(-300, 300, 6)
    rows = np.array([special, [1e300, -1e300, -0.0, -0.0, 5e-324, 1e300], random])
    # rows are snapshots with re/im interleaved over three channels
    data = rows.view(np.complex128).T
    expected = "improperdim v1 m=3 M=3\n" + "".join(
        " ".join(format(value, ".17g") for value in row) + "\n" for row in rows
    )
    path = tmp_path / "special.txt"
    # C order, the F-order view a loaded matrix has, and a strided view
    for layout in (np.ascontiguousarray(data), data, np.repeat(data, 2, axis=1)[:, ::2]):
        write_dataset(path, layout)
        assert path.read_bytes() == expected.encode("ascii")


WHITE = NoiseSpec("white", 1.0)
_RNG = np.random.default_rng(4)
DATA = _RNG.standard_normal((3, 40)) + 0.5j * _RNG.standard_normal((3, 40))
PROFILE = circularity_profile(DATA, 3)

# every public entry that takes a count, with that count set to ``value``
COUNT_ENTRIES = {
    "ScenarioConfig.sensor_count": lambda value: ScenarioConfig(value, (), (), WHITE, 10, 1),
    "ScenarioConfig.snapshot_count": lambda value: ScenarioConfig(6, (), (), WHITE, value, 1),
    "ScenarioConfig.seed": lambda value: ScenarioConfig(6, (), (), WHITE, 10, value),
    "steering_matrix": lambda value: steering_matrix([10.0], value),
    "circularity_profile": lambda value: circularity_profile(DATA, value),
    "pca_reduce": lambda value: pca_reduce(DATA, value),
    "mdl_itc_reduced": lambda value: mdl_itc_reduced(PROFILE, value, 40),
    "glrt_reduced": lambda value: glrt_reduced(PROFILE, value, 0.005),
}


def comparable(value):
    """A call's return value in a form == compares exactly: arrays by their
    bytes, results field by field, a config with the types of its fields."""
    if isinstance(value, list):
        return [comparable(entry) for entry in value]
    if isinstance(value, np.ndarray):
        return value.tobytes()
    fields = result_bytes(value)
    return fields, [type(field) for field in fields.values()]


@pytest.mark.parametrize("value", [2.5, True, np.True_, float("nan")], ids=repr)
@pytest.mark.parametrize("entry", COUNT_ENTRIES)
def test_every_public_count_refuses_a_non_integer(entry, value):
    with pytest.raises(ValueError, match=" must be an integer, got "):
        COUNT_ENTRIES[entry](value)


@pytest.mark.parametrize("entry", COUNT_ENTRIES)
def test_every_public_count_takes_an_integral_float_as_its_int(entry):
    assert comparable(COUNT_ENTRIES[entry](2.0)) == comparable(COUNT_ENTRIES[entry](2))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ScenarioConfig(0, (), (), WHITE, 10, 1), "sensor_count must be at least 1"),
        (lambda: ScenarioConfig(6, (), (), WHITE, 0, 1), "snapshot_count must be at least 1"),
        (lambda: steering_matrix([10.0], 0), "sensor_count must be at least 1"),
    ],
)
def test_counts_below_one_keep_their_messages(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_no_source_line_is_longer_than_100_characters():
    package = Path(improperdim.__file__).parent
    long_lines = [
        f"{path.name}:{number}: {len(line)} characters"
        for path in sorted(package.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert long_lines == []
