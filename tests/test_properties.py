"""Property tests: dataset files round-trip every finite double, and the
dataset reader and the config and plan parsers fail on any input with
FormatError only."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from improperdim import FormatError, load_dataset, parse_plan, parse_scenario_config, write_dataset

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
