"""Property tests: dataset files round-trip every finite double, the
dataset reader's one pass agrees with its line loop, configs and plans
round-trip through their text, the dataset reader and the config and
plan parsers fail on any input with FormatError only, the CLI ends any
detect run in exit 0, 2 or 3, and the paper's invariants hold on random
improper data: coefficients in [0, 1], the forced ones at M < 2m,
bit-identical detection under power-of-two scaling, a scale-free
structure check, a bit-equivariant inverse square root, covariance
pairs invariant under channel transforms, and coefficients invariant under
conjugation, snapshot order and channel transforms of the data."""

import contextlib
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from improperdim import (
    DETECTOR_NAMES,
    DF_RULES,
    CovariancePair,
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
    hermitian_inv_sqrt,
    load_dataset,
    parse_plan,
    parse_scenario_config,
    sample_covariances,
    write_dataset,
)
from improperdim import fileio
from improperdim.cli import main
from improperdim.numerics import _structured
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


extreme_doubles = [-0.0, 5e-324, 2.2250738585072e-308, 1.7976931348623157e308]
finite_doubles = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(extreme_doubles + [-x for x in extreme_doubles]),
)
# (kind, snapshot line, position, choice): a token 1_0, nan or inf, a
# ragged line, a blank or whitespace-only line, a \x0b, \x0c, \x1c or \x1f
# inside a line, or CRLF or lone CR line endings
SPOILERS = (
    ["1_0", "nan", "inf", "-Infinity"],
    None,
    ["", " ", "\t", " \t "],
    ["\x0b", "\x0c", "\x1c", "\x1f"],
)


@st.composite
def reader_cases(draw):
    """Finite doubles for 1-4 channels and 1-6 snapshots, a text style and
    up to two spoilers (kind 4: CRLF or lone CR line endings)."""
    channels, count = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    values = draw(hnp.arrays(np.float64, (count, 2 * channels), elements=finite_doubles))
    style = draw(st.sampled_from(["write_dataset", "%r", "%.3e"]))
    spoiler = st.tuples(
        st.integers(0, 4), st.integers(1, count), st.integers(0, 99), st.integers(0, 3)
    )
    return values, style, draw(st.lists(spoiler, max_size=2))


def _render(case, path):
    """A reader case as dataset text: written by write_dataset or formatted
    with repr or %.3e (which rounds the largest doubles to inf), then spoilt."""
    values, style, spoilers = case
    if style == "write_dataset":
        write_dataset(path, values.view(np.complex128).T)
        lines = path.read_text().splitlines()
    else:
        lines = [f"improperdim v1 m={values.shape[1] // 2} M={values.shape[0]}"]
        lines += [" ".join(style % value for value in row) for row in values.tolist()]
    newline = "\n"
    for kind, row, at, choice in spoilers:
        fields = lines[row].split(" ")
        if kind == 0:
            fields[at % len(fields)] = SPOILERS[0][choice]
        elif kind == 1:
            fields = fields[1:] if at % 2 else fields + ["1"]
        elif kind == 2:
            lines.insert(row, SPOILERS[2][choice])
            continue
        elif kind == 3:
            at %= len(lines[row]) + 1
            fields = [lines[row][:at] + SPOILERS[3][choice] + lines[row][at:]]
        else:
            newline = "\r" if choice % 2 else "\r\n"
        lines[row] = " ".join(fields)
    return newline.join(lines) + newline


def _read(path):
    """``load_dataset``'s matrix shape and bytes, or its FormatError message."""
    try:
        data = load_dataset(path)
    except FormatError as exc:
        return str(exc)
    return data.shape, data.tobytes()


@settings(deadline=None, max_examples=200)
@given(case=reader_cases())
@example(case="improperdim v1 m=1 M=2\n1_0 2\n3 4\n")  # only float() reads 1_0
@example(case="improperdim v1 m=1 M=3\n1 2\n3 4\nnan 5\n")
@example(case="improperdim v1 m=1 M=1\n1 2 3\n")  # one field too many
# a line ends only at \n, \r\n or \r: these four are whitespace inside it
@example(case="improperdim v1 m=2 M=1\n1 2\x0b3 4\n")
@example(case="improperdim v1 m=2 M=1\n1 2\x0c3 4\n")
@example(case="improperdim v1 m=2 M=1\n1 2\x1c3 4\n")
@example(case="improperdim v1 m=2 M=1\n1 2\x1f3 4\n")
@example(case="improperdim v1 m=1 M=2\r1 2\r3 4\r")  # lone CR endings
@example(case="improperdim v1 m=1 M=2\n")  # the header alone
@example(case="improperdim v1 m=1 M=2\n\n \n\t\n")  # the header and blank lines
def test_reader_agrees_with_the_line_loop(dataset_path, case):
    text = case if isinstance(case, str) else _render(case, dataset_path)
    dataset_path.write_text(text, newline="")
    fast = _read(dataset_path)
    # the line loop alone: load_dataset with its one loadtxt pass refused
    with mock.patch.object(fileio.np, "loadtxt", side_effect=ValueError):
        assert _read(dataset_path) == fast


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
    """Valid plans: increasing sample counts, 1-4 distinct detectors, and
    distinct p_fa values in (0, 1), at least one when a glrt detector is listed."""
    counts = draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=5, unique=True))
    detectors = draw(st.lists(st.sampled_from(DETECTOR_NAMES), min_size=1, max_size=4, unique=True))
    p_fa = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    glrt = any(name.startswith("glrt") for name in detectors)
    return ExperimentPlan(
        scenario=draw(scenarios()),
        sample_counts=sorted(counts),
        trials=draw(st.integers(1, 1000)),
        detectors=detectors,
        p_fa_list=draw(st.lists(p_fa, min_size=1 if glrt else 0, max_size=3, unique=True)),
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


def _scaled(matrix, exponent):
    return np.ldexp(matrix.view(np.float64), exponent).view(np.complex128)


def _structure_verdict(matrix, hermitian, exponent):
    """The structure check's message on ``matrix`` times 2**exponent, or
    the symmetric part it returns, scaled back by 2**-exponent."""
    try:
        return _scaled(_structured(_scaled(matrix, exponent), hermitian, "matrix"), -exponent)
    except ValueError as exc:
        return str(exc)


@settings(deadline=None, max_examples=200)
@given(
    data=improper_data(lambda size: st.integers(1, 30 * size)),
    skew=st.one_of(st.none(), st.floats(-12.0, -4.0)),
    exponent=st.integers(-500, 500),
)
def test_structure_check_and_coefficients_are_scale_free(data, skew, exponent):
    # plain products: Hermitian and symmetric only up to rounding
    size, count = data.shape
    matrices = [data @ data.conj().T / count, data @ data.T / count]
    if skew is not None:  # a random asymmetry of 10**skew times the largest entry
        rng = np.random.default_rng(count)
        noise = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        matrices = [m + 10.0**skew * np.abs(m).max() * noise for m in matrices]
    for matrix in matrices:
        assume(np.array_equal(_scaled(_scaled(matrix, exponent), -exponent), matrix))
    verdicts = []
    for matrix, hermitian in zip(matrices, (True, False)):
        verdict = _structure_verdict(matrix, hermitian, 0)
        scaled = _structure_verdict(matrix, hermitian, exponent)
        assert type(scaled) is type(verdict)
        assert (scaled == verdict) if isinstance(verdict, str) else scaled.tobytes() == verdict.tobytes()
        verdicts.append(verdict)
    if skew is None:
        assert not any(isinstance(verdict, str) for verdict in verdicts)
    if any(isinstance(verdict, str) for verdict in verdicts):
        return
    pair = CovariancePair(*matrices, count)
    moved = CovariancePair(*(_scaled(matrix, exponent) for matrix in matrices), count)
    expected = circularity_coefficients(pair).coefficients
    got = circularity_coefficients(moved).coefficients
    if exponent % 2 == 0:
        # the engine rescales the pair by an even power of two, so a pair
        # scaled by 4**j reaches the same bits
        assert got.tobytes() == expected.tobytes()
    else:
        # an odd power scales the inverse roots by sqrt(2), which is not a
        # double, so each coherence entry rounds differently (about 2 eps)
        # and each SVD errs on its own input by its backward error, of
        # order m eps; the largest seen over 3000 draws was 2 m eps
        assert np.abs(got - expected).max() <= 8 * size * np.finfo(float).eps


@settings(deadline=None, max_examples=200)
@given(
    size=st.integers(2, 7),
    count_factor=st.floats(0.3, 4.0),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.integers(-250, 250),
)
@example(size=4, count_factor=2.0, seed=0, exponent=250)
@example(size=4, count_factor=2.0, seed=0, exponent=-250)
def test_hermitian_inv_sqrt_is_bit_equivariant_under_powers_of_four(
    size, count_factor, seed, exponent
):
    # beyond about 1e+-146 LAPACK's eigh rescales its input by a factor that
    # is not a power of two, so the factored matrix is first unit-scaled
    rng = np.random.default_rng(seed)
    count = max(1, round(count_factor * size))  # rank deficient below m snapshots
    data = rng.standard_normal((size, count)) + 1j * rng.standard_normal((size, count))
    covariance = sample_covariances(data).covariance
    expected = _scaled(hermitian_inv_sqrt(covariance), -exponent)
    assert hermitian_inv_sqrt(_scaled(covariance, 2 * exponent)).tobytes() == expected.tobytes()


def _random_unitary(rng, size):
    raw = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    return np.linalg.qr(raw)[0]


@settings(deadline=None, max_examples=200)
@given(
    data=improper_data(lambda size: st.integers(2 * size, 30 * size)),
    seed=seeds,
    log_cond=st.floats(0.0, 3.0),
)
def test_channel_transforms_keep_the_coefficients(data, seed, log_cond):
    # T = U diag(s) V with s spread over 10**-log_cond..1; (T C T^H, T P T^T)
    # is the pair of T x, formed here in floating point
    size, count = data.shape
    rng = np.random.default_rng(seed)
    spread = 10.0 ** (-log_cond * rng.uniform(0.0, 1.0, size))
    transform = (_random_unitary(rng, size) * spread) @ _random_unitary(rng, size)
    pair = sample_covariances(data)
    moved = CovariancePair(
        transform @ pair.covariance @ transform.conj().T,
        transform @ pair.complementary @ transform.T,
        count,
    )
    # forming the moved pair errs by about m eps |T|^2 |C|; whitening by
    # the moved covariance divides that by its smallest eigenvalue, at least
    # sigma_min(T)^2 lambda_min(C), so the coefficients move by about
    # m eps cond(T)^2 cond(C) (at most 3 of those over 3000 random draws)
    amplification = np.linalg.cond(transform) ** 2 * np.linalg.cond(pair.covariance)
    assume(amplification < 1e10)  # clear of the 1e-12 eigenvalue cut
    expected = circularity_coefficients(pair).coefficients
    got = circularity_coefficients(moved).coefficients
    assert np.abs(got - expected).max() <= 8 * size * np.finfo(float).eps * amplification


def _profile_amplifications(data):
    """Per rank r, how much a rounding-sized change of the covariance can move
    the rank-r coefficients, in units of that change over the largest
    eigenvalue l_1: l_1 / l_r from whitening by the rank-r eigenvalues, plus
    l_1 / (l_r - l_(r+1)) from the turn of the rank-r principal subspace
    (none at r = m, whose coefficients do not depend on a basis)."""
    values = np.linalg.eigvalsh(sample_covariances(data).covariance)[::-1]
    gaps = np.append(values[:-1] - values[1:], np.inf)
    return values[0] / values + values[0] / gaps


@settings(deadline=None, max_examples=200)
@given(data=improper_data(lambda size: st.integers(2 * size, 30 * size)), seed=seeds)
def test_conjugation_and_snapshot_order_keep_the_profile(data, seed):
    # conjugating negates the imaginary rows of the Gram's stack, so the pair is
    # the exact conjugate (the coefficients were bit-identical in 3000 random
    # draws); a permutation sums the Gram in another order, which changes it
    # by about m eps of its largest eigenvalue, and each rank's coefficients
    # move by that times its amplification (at most 3 of those over 3000 draws)
    size, count = data.shape
    amplifications = _profile_amplifications(data)
    assume(amplifications[-1] < 1e10)  # clear of the 1e-12 eigenvalue cut
    expected = circularity_profile(data, size)
    permuted = data[:, np.random.default_rng(seed).permutation(count)]
    for moved in (data.conj(), permuted):
        for got, want, amplification in zip(
            circularity_profile(moved, size), expected, amplifications
        ):
            error = np.abs(got.coefficients - want.coefficients).max()
            assert error <= 8 * size * np.finfo(float).eps * amplification


@settings(deadline=None, max_examples=200)
@given(
    data=improper_data(lambda size: st.integers(2 * size, 30 * size)),
    seed=seeds,
    log_cond=st.floats(0.0, 3.0),
)
def test_channel_transforms_of_the_data_keep_the_coefficients(data, seed, log_cond):
    # the rank-m coefficients of T x, with T as in the pair-level property;
    # T @ x errs by about m eps |T| |x|, which the pair and the whitening
    # carry as m eps cond(T)^2 cond(C) (at most 2.5 of those over 3000 draws).
    # The lower ranks are not invariant: T moves the principal subspaces
    size, count = data.shape
    rng = np.random.default_rng(seed)
    spread = 10.0 ** (-log_cond * rng.uniform(0.0, 1.0, size))
    transform = (_random_unitary(rng, size) * spread) @ _random_unitary(rng, size)
    amplification = np.linalg.cond(transform) ** 2 * _profile_amplifications(data)[-1]
    assume(amplification < 1e10)  # clear of the 1e-12 eigenvalue cut
    expected = circularity_profile(data, size)[-1].coefficients
    got = circularity_profile(transform @ data, size)[-1].coefficients
    assert np.abs(got - expected).max() <= 8 * size * np.finfo(float).eps * amplification


finite_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["0", "-0.0", "1", "5e-324", "1e308", "-1e308", "1e-300", "1e-160"]),
)
cli_numbers = st.one_of(
    st.floats(0.0, 1.0).map(repr),
    finite_numbers,
    st.floats().map(repr),
    st.integers(-(2**70), 2**70).map(str),
)


@st.composite
def cli_datasets(draw):
    """Dataset text of at most a few KB: a well-formed file of small m and
    M with arbitrary finite numbers, or the reader's malformed texts."""
    channels, count = draw(st.integers(1, 5)), draw(st.integers(1, 12))
    rows = st.lists(finite_numbers, min_size=2 * channels, max_size=2 * channels)
    lines = draw(st.lists(rows.map(" ".join), min_size=count, max_size=count))
    header = f"improperdim v1 m={channels} M={count}"
    if draw(st.integers(0, 2)):
        return "\n".join([header, *lines]) + "\n"
    return draw(dataset_texts())


@settings(deadline=None, max_examples=150)
@given(
    text=cli_datasets(),
    detector=st.sampled_from(DETECTOR_NAMES),
    pfa=st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(repr), cli_numbers),
    r_max=st.one_of(st.none(), st.integers(-3, 14).map(str), st.none(), cli_numbers),
    df_rule=st.sampled_from(DF_RULES),
)
def test_detect_cli_exits_cleanly_on_any_input(dataset_path, text, detector, pfa, r_max, df_rule):
    dataset_path.write_text(text)
    argv = ["detect", str(dataset_path), f"--detector={detector.replace('_', '-')}"]
    argv += [f"--pfa={pfa}", f"--box-df={df_rule}"]
    argv += [] if r_max is None else [f"--rmax={r_max}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    errors = err.getvalue().splitlines()
    assert len(errors) == (0 if code == 0 else 1)
    assert all(line.startswith("error: ") for line in errors)
    assert ("estimated improper dimension" in out.getvalue()) == (code == 0)
