"""Property tests: dataset files round-trip every finite double, configs
and plans round-trip through their text, the dataset reader and the
config and plan parsers fail on any input with FormatError only, and the
paper's invariants hold on random improper data: coefficients in [0, 1],
the forced ones at M < 2m, and bit-identical detection under power-of-two
scaling."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from improperdim import (
    DETECTOR_NAMES,
    DF_RULES,
    ExperimentPlan,
    FormatError,
    NoiseSpec,
    ScenarioConfig,
    SourceSpec,
    circularity_coefficients,
    circularity_profile,
    detect,
    format_plan,
    format_scenario_config,
    load_dataset,
    parse_plan,
    parse_scenario_config,
    sample_covariances,
    write_dataset,
)
from helpers import detector_inputs, improper_data, result_bytes

# (channels, snapshots, re/im) arrays of finite doubles, -0.0 and subnormals included
parts_arrays = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 4), st.integers(1, 6), st.just(2)),
    elements=st.floats(allow_nan=False, allow_infinity=False),
)


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    return tmp_path_factory.mktemp("roundtrip") / "data.txt"


@settings(deadline=None)
@given(parts=parts_arrays)
@example(parts=np.array([[[-0.0, 5.0]], [[5.0, -0.0]], [[5e-324, -2.2250738585072e-308]]]))
def test_dataset_round_trip_is_bit_exact(dataset_path, parts):
    data = np.ascontiguousarray(parts).view(np.complex128)[..., 0]
    write_dataset(dataset_path, data)
    loaded = load_dataset(dataset_path)
    assert loaded.shape == data.shape
    assert loaded.tobytes() == data.tobytes()


positive_floats = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
seeds = st.integers(0, 2**64 - 1)
# AR coefficients whose absolute values sum below 1 always give a stable filter
stable_ar = st.lists(st.floats(-1.0, 1.0), max_size=4).map(
    lambda raw: tuple(a / (1.0 + sum(map(abs, raw))) for a in raw)
)
noises = st.one_of(
    st.builds(NoiseSpec, st.just("white"), positive_floats),
    st.builds(NoiseSpec, st.just("spatial_ar"), positive_floats, stable_ar),
)


@st.composite
def scenarios(draw):
    """Valid scenarios: 2..12 sensors and fewer sources at distinct angles."""
    sensor_count = draw(st.integers(2, 12))
    count = draw(st.integers(0, sensor_count - 1))
    angles = draw(st.lists(st.floats(0.0, 180.0), min_size=count, max_size=count, unique=True))
    source = st.builds(SourceSpec, positive_floats, st.floats(0.0, 1.0))
    sources = draw(st.lists(source, min_size=count, max_size=count))
    snapshot_count = draw(st.integers(1, 10**6))
    return ScenarioConfig(sensor_count, angles, sources, draw(noises), snapshot_count, draw(seeds))


@st.composite
def plans(draw):
    """Valid plans: increasing sample counts, 1-4 distinct detectors, and p_fa
    values in (0, 1), at least one when a glrt detector is listed."""
    counts = draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=5, unique=True))
    detectors = draw(st.lists(st.sampled_from(DETECTOR_NAMES), min_size=1, max_size=4, unique=True))
    p_fa = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    glrt = any(name.startswith("glrt") for name in detectors)
    return ExperimentPlan(
        scenario=draw(scenarios()),
        sample_counts=sorted(counts),
        trials=draw(st.integers(1, 1000)),
        detectors=detectors,
        p_fa_list=draw(st.lists(p_fa, min_size=1 if glrt else 0, max_size=3)),
        base_seed=draw(seeds),
        r_max=draw(st.one_of(st.none(), st.integers(1, 100))),
    )


@settings(deadline=None, max_examples=200)
@given(config=scenarios())
def test_config_round_trip(config):
    assert parse_scenario_config(format_scenario_config(config)) == config


@settings(deadline=None, max_examples=200)
@given(plan=plans())
def test_plan_round_trip(plan):
    assert parse_plan(format_plan(plan)) == plan


CONFIG_ENTRIES = {
    "m": "8",
    "angles_deg": "40, 70",
    "source_variances": "5, 5",
    "source_circularities": "0.9, 0.7",
    "noise_kind": "spatial_ar",
    "noise_variance": "1",
    "ar_coefficients": "0.5, 0.25",
    "M": "10",
    "seed": "3",
}
PLAN_ENTRIES = {
    **{key: value for key, value in CONFIG_ENTRIES.items() if key != "M"},
    "trials": "2",
    "sample_counts": "10, 20",
    "detectors": "itc_rr, glrt_rr",
    "pfa_list": "0.005",
    "r_max": "3",
}

tokens = st.one_of(
    st.text(max_size=8),
    st.floats().map(repr),
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from(
        ["white", "spatial_ar", "pink", "itc_full", "itc_rr", "glrt_full", "glrt_rr",
         "inf", "-inf", "nan", "-0", "1e308", "5e-324", "0", "-1", "2.5", ""]
    ),
)
values = st.lists(tokens, max_size=5).map(", ".join)


@st.composite
def entry_texts(draw, valid_entries):
    """A valid config or plan with some values replaced, some keys dropped
    and some extra lines, so the text reaches every validation step."""
    keys = sorted(valid_entries)
    entries = dict(valid_entries)
    for key in draw(st.lists(st.sampled_from(keys), unique=True, max_size=4)):
        entries[key] = draw(values)
    for key in draw(st.lists(st.sampled_from(keys), unique=True, max_size=2)):
        del entries[key]
    lines = [f"{key} = {value}" for key, value in entries.items()]
    lines += draw(st.lists(st.text(max_size=30), max_size=2))
    return "\n".join(draw(st.permutations(lines)))


@pytest.mark.parametrize(
    "parse, valid_entries",
    [(parse_scenario_config, CONFIG_ENTRIES), (parse_plan, PLAN_ENTRIES)],
    ids=["config", "plan"],
)
@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_parsers_raise_only_format_error(parse, valid_entries, data):
    parse("\n".join(f"{key} = {value}" for key, value in valid_entries.items()))
    text = data.draw(st.one_of(st.text(), entry_texts(valid_entries)))
    try:
        parse(text)
    except FormatError:
        pass


counts = st.one_of(st.integers(0, 4), st.integers(0, 10**20)).map(str)
dataset_tokens = st.one_of(
    st.floats().map(repr),
    st.text(max_size=6),
    st.sampled_from(["-0.0", "5e-324", "1e400", "nan", "-inf", "1_0", "0x1p3", ""]),
)


@st.composite
def dataset_texts(draw):
    """A header with small or huge counts, then lines of number-like tokens."""
    header = draw(
        st.one_of(
            st.builds("improperdim v1 m={} M={}".format, counts, counts),
            st.text(max_size=40),
        )
    )
    lines = draw(st.lists(st.lists(dataset_tokens, max_size=6).map(" ".join), max_size=4))
    return "\n".join([header, *lines]) + draw(st.sampled_from(["", "\n", "\r\n"]))


@settings(deadline=None, max_examples=300)
@given(raw=st.one_of(st.binary(max_size=80), dataset_texts().map(str.encode)))
@example(raw=b"improperdim v1 m=1000000000000000 M=1\n1 2\n")
@example(raw="improperdim v1 m=1 M=1\n1 2\u00e9\n".encode("utf-8"))
@example(raw=b"improperdim v1 m=" + b"9" * 4301 + b" M=1\n1 2\n")
def test_load_dataset_raises_only_format_error(dataset_path, raw):
    dataset_path.write_bytes(raw)
    try:
        data = load_dataset(dataset_path)
    except FormatError:
        return
    header = raw.decode("ascii").splitlines()[0].split()
    assert data.shape == (int(header[2][2:]), int(header[3][2:]))
    assert data.dtype == np.complex128 and np.all(np.isfinite(data))


@settings(deadline=None, max_examples=200)
@given(inputs=detector_inputs())
def test_coefficients_lie_in_the_unit_interval(inputs):
    data, r_max = inputs
    spectra = [circularity_coefficients(sample_covariances(data))]
    spectra += circularity_profile(data, r_max)
    for spectrum in spectra:
        assert np.all((spectrum.coefficients >= 0.0) & (spectrum.coefficients <= 1.0))


@settings(deadline=None, max_examples=200)
@given(data=improper_data(lambda size: st.integers(1, 2 * size - 1)))
def test_rank_deficiency_forces_unit_coefficients(data):
    # with M < 2m snapshots, at least 2m - M coefficients equal 1 when M >= m,
    # and exactly M when M < m; ones to criterion 5's tolerance
    size, count = data.shape
    coefficients = circularity_coefficients(sample_covariances(data)).coefficients
    assert np.count_nonzero(coefficients >= 1.0 - 1e-8) >= min(count, 2 * size - count)


@settings(deadline=None, max_examples=200)
@given(
    inputs=detector_inputs(),
    exponent=st.integers(-1000, 1000),
    df_rule=st.sampled_from(DF_RULES),
    p_fa=st.floats(1e-12, 0.5),
)
def test_power_of_two_scaling_is_bit_identical(inputs, exponent, df_rule, p_fa):
    data, r_max = inputs
    parts = data.view(np.float64)
    scaled = np.ldexp(parts, exponent)
    assume(np.array_equal(np.ldexp(scaled, -exponent), parts))  # no entry rounded
    options = dict(p_fa=p_fa, r_max=r_max, box_df=df_rule)
    for detector in DETECTOR_NAMES:
        expected = result_bytes(detect(data, detector, **options))
        assert result_bytes(detect(scaled.view(np.complex128), detector, **options)) == expected
