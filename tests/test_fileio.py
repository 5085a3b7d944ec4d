"""Tests for dataset files and scenario config parsing."""

import re
import tracemalloc

import numpy as np
import pytest

from improperdim import (
    FormatError,
    NoiseSpec,
    ScenarioConfig,
    format_scenario_config,
    generate_scenario,
    load_dataset,
    parse_plan,
    parse_scenario_config,
    write_dataset,
)
from improperdim.fileio import _parse_snapshot_lines, parse_key_values
from helpers import AR_COEFFICIENTS, array_scenario, small_scenario

CONFIG_TEXT = """\
# benchmark scenario
m = 10
angles_deg = 10, 15, 20, 25
source_variances = 5, 5, 5, 5
source_circularities = 1, 0.9, 0.8, 0.6
noise_kind = white
noise_variance = 1      # per-sensor variance
M = 200
seed = 42
"""

AR_CONFIG_TEXT = """\
m = 4
angles_deg = 40
source_variances = 5
source_circularities = 0.9
noise_kind = spatial_ar
noise_variance = 1
ar_coefficients = 0.5, 0.25
seed = 0
"""

# (line of AR_CONFIG_TEXT, its non-finite replacement, expected message)
NON_FINITE_FIELDS = [
    ("source_variances = 5", "source_variances = inf", "source variance must be positive and finite"),
    ("noise_variance = 1", "noise_variance = inf", "noise variance must be positive and finite"),
    ("noise_variance = 1", "noise_variance = nan", "noise variance must be positive and finite"),
    ("ar_coefficients = 0.5, 0.25", "ar_coefficients = 0.5, nan", "AR coefficients must be finite"),
    ("ar_coefficients = 0.5, 0.25", "ar_coefficients = -inf", "AR coefficients must be finite"),
]


class TestDatasetRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((4, 7)) + 1j * rng.standard_normal((4, 7))
        data[0, 0] = 1e-300 + 1e300j
        data[1, 2] = 0.1 - 0.3j
        data[2, 3] = -0.0 + 0.0j
        path = tmp_path / "data.txt"
        write_dataset(path, data)
        assert np.array_equal(load_dataset(path), data)

    def test_header_reports_shape(self, tmp_path):
        config = array_scenario(snapshot_count=5, seed=0)
        path = tmp_path / "bench.txt"
        write_dataset(path, generate_scenario(config))
        first_line = path.read_text().splitlines()[0]
        assert first_line == "improperdim v1 m=60 M=5"
        assert load_dataset(path).shape == (60, 5)

    def test_token_only_float_reads(self, tmp_path):
        # np.loadtxt refuses 1_0, so the line loop reads this file
        path = tmp_path / "underscore.txt"
        path.write_text("improperdim v1 m=1 M=2\n1_0 -0.0\n2 3\n")
        data = load_dataset(path)
        assert data.tobytes() == np.array([[complex(10.0, -0.0), 2 + 3j]]).tobytes()

    def test_one_pass_and_line_loop_return_the_snapshot_major_buffer(self, tmp_path):
        # m = 2, so a channels-major matrix would have other strides
        data = generate_scenario(small_scenario(sensor_count=3, snapshot_count=4, seed=2))[:2]
        path = tmp_path / "data.txt"
        write_dataset(path, data)
        for loaded in (load_dataset(path), _parse_snapshot_lines(path)):
            assert loaded.strides == (16, 32)  # one snapshot's re/im pairs are adjacent
            assert loaded.base is not None  # a view of the parse buffer, not a copy of it
            assert loaded.tobytes() == data.tobytes()

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_crlf_and_lone_cr_endings_read_as_lf(self, tmp_path, newline):
        data = generate_scenario(small_scenario(snapshot_count=9, seed=5))
        path = tmp_path / "data.txt"
        write_dataset(path, data)
        path.write_bytes(path.read_bytes().replace(b"\n", newline.encode()))
        assert load_dataset(path).tobytes() == data.tobytes()

    def test_form_feed_inside_a_line_is_whitespace(self, tmp_path):
        # a line ends only at \n, \r\n or \r, where str.splitlines also breaks at \x0c
        path = tmp_path / "form_feed.txt"
        path.write_text("improperdim v1 m=2 M=1\n1 2\x0c3 4\n")
        assert load_dataset(path).tobytes() == np.array([[1 + 2j], [3 + 4j]]).tobytes()

    def test_peak_memory_stays_near_the_matrix(self, tmp_path):
        # the reader holds numpy's parse buffer and the matrix, not the file text
        rng = np.random.default_rng(1)
        data = rng.standard_normal((8, 4000)) + 1j * rng.standard_normal((8, 4000))
        path = tmp_path / "data.txt"
        write_dataset(path, data)
        tracemalloc.start()
        try:
            loaded = load_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded, data)
        assert peak < 1.5 * loaded.nbytes

    def test_single_snapshot(self, tmp_path):
        data = np.array([[1.0 + 2.0j], [3.0 - 4.0j]])
        path = tmp_path / "one.txt"
        write_dataset(path, data)
        assert np.array_equal(load_dataset(path), data)

    def test_identical_writes_are_byte_identical(self, tmp_path):
        data = generate_scenario(small_scenario(snapshot_count=9, seed=5))
        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        write_dataset(first, data)
        write_dataset(second, data)
        assert first.read_bytes() == second.read_bytes()


class TestDatasetErrors:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(FormatError, match="empty"):
            load_dataset(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a dataset\n1 2\n")
        with pytest.raises(FormatError, match="header"):
            load_dataset(path)

    def test_wrong_line_count(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("improperdim v1 m=1 M=3\n1 2\n3 4\n")
        with pytest.raises(FormatError, match="snapshot lines"):
            load_dataset(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "fields.txt"
        path.write_text("improperdim v1 m=2 M=1\n1 2 3\n")
        with pytest.raises(FormatError, match="fields"):
            load_dataset(path)

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("improperdim v1 m=1 M=1\n1 x\n")
        with pytest.raises(FormatError, match="non-numeric"):
            load_dataset(path)

    def test_non_finite_field(self, tmp_path):
        path = tmp_path / "inf.txt"
        path.write_text("improperdim v1 m=1 M=1\n1 inf\n")
        with pytest.raises(FormatError, match="non-finite"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "lines, message",
        [
            ("1 2\n3 4\nnan 5", "snapshot line 3: non-finite value"),
            ("1 2\n3 x\n5 6", "snapshot line 2: non-numeric field"),
            ("1 2\n3 4 5\n6 7", "snapshot line 2: expected 2 fields, found 3"),
            # one field too many on every line: loadtxt reads a wrong shape
            ("1 2 0\n3 4 0\n5 6 0", "snapshot line 1: expected 2 fields, found 3"),
        ],
    )
    def test_message_names_the_first_bad_line(self, tmp_path, lines, message):
        path = tmp_path / "bad.txt"
        path.write_text(f"improperdim v1 m=1 M=3\n{lines}\n")
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            load_dataset(path)

    def test_header_larger_than_the_lines_fails_before_allocating(self, tmp_path):
        # m = 10^15 would be a 16 PB matrix; the lines' length is checked first
        path = tmp_path / "huge_m.txt"
        path.write_text("improperdim v1 m=1000000000000000 M=1\n1 2\n")
        with pytest.raises(FormatError, match="too short for 2000000000000000 fields"):
            load_dataset(path)

    def test_non_ascii_file(self, tmp_path):
        path = tmp_path / "utf8.txt"
        path.write_bytes("improperdim v1 m=1 M=1\n1 2\u00e9\n".encode("utf-8"))
        with pytest.raises(FormatError, match="not ASCII"):
            load_dataset(path)

    def test_header_count_beyond_int_digit_limit(self, tmp_path):
        path = tmp_path / "digits.txt"
        path.write_text(f"improperdim v1 m={'9' * 4301} M=1\n1 2\n")
        with pytest.raises(FormatError, match="header"):
            load_dataset(path)


class TestKeyValueParsing:
    def test_comments_and_blanks(self):
        text = "\n# full-line comment\n a = 1 # trailing\n\nb=2\n"
        assert parse_key_values(text) == {"a": "1", "b": "2"}

    def test_missing_equals(self):
        with pytest.raises(FormatError, match="key = value"):
            parse_key_values("just words\n")

    def test_duplicate_key(self):
        with pytest.raises(FormatError, match="duplicate"):
            parse_key_values("a = 1\na = 2\n")


class TestScenarioConfigParsing:
    def test_parse_full_config(self):
        config = parse_scenario_config(CONFIG_TEXT)
        assert config.sensor_count == 10
        assert config.angles_deg == (10.0, 15.0, 20.0, 25.0)
        assert [s.circularity for s in config.sources] == [1.0, 0.9, 0.8, 0.6]
        assert config.noise == NoiseSpec("white", 1.0)
        assert config.snapshot_count == 200
        assert config.seed == 42

    def test_round_trip_identity(self):
        config = array_scenario(noise_kind="spatial_ar", snapshot_count=31, seed=9)
        assert parse_scenario_config(format_scenario_config(config)) == config

    def test_round_trip_zero_sources(self):
        config = ScenarioConfig(3, (), (), NoiseSpec("white", 2.0), 5, 1)
        assert parse_scenario_config(format_scenario_config(config)) == config

    def test_ar_coefficients_parsed(self):
        text = (
            "m = 6\nangles_deg =\nsource_variances =\nsource_circularities =\n"
            "noise_kind = spatial_ar\nnoise_variance = 0.25\n"
            "ar_coefficients = 0.5, 0.66143782776614768, 0.5, 0.25\n"
            "M = 50\nseed = 3\n"
        )
        config = parse_scenario_config(text)
        assert config.noise.kind == "spatial_ar"
        assert config.noise.ar_coefficients == pytest.approx(AR_COEFFICIENTS)

    def test_unknown_key_rejected(self):
        with pytest.raises(FormatError, match="unknown key"):
            parse_scenario_config(CONFIG_TEXT + "extra = 1\n")

    def test_missing_key_rejected(self):
        bad = "\n".join(
            line for line in CONFIG_TEXT.splitlines() if not line.startswith("seed")
        )
        with pytest.raises(FormatError, match="seed"):
            parse_scenario_config(bad)

    def test_mismatched_list_lengths(self):
        bad = CONFIG_TEXT.replace("source_variances = 5, 5, 5, 5", "source_variances = 5, 5")
        with pytest.raises(FormatError, match="equal lengths"):
            parse_scenario_config(bad)

    def test_white_noise_with_ar_coefficients_rejected(self):
        with pytest.raises(FormatError, match="AR coefficients"):
            parse_scenario_config(CONFIG_TEXT + "ar_coefficients = 0.5\n")

    def test_unstable_ar_rejected(self):
        text = (
            "m = 4\nangles_deg =\nsource_variances =\nsource_circularities =\n"
            "noise_kind = spatial_ar\nnoise_variance = 1\nar_coefficients = -2.5, 1\n"
            "M = 10\nseed = 0\n"
        )
        with pytest.raises(FormatError, match="unstable"):
            parse_scenario_config(text)

    def test_non_numeric_value(self):
        with pytest.raises(FormatError, match="integer"):
            parse_scenario_config(CONFIG_TEXT.replace("M = 200", "M = many"))


class TestNonFiniteScenarioValues:
    @pytest.mark.parametrize("line, bad_line, message", NON_FINITE_FIELDS)
    @pytest.mark.parametrize(
        "parse, sweep_keys",
        [(parse_scenario_config, "M = 10\n"),
         (parse_plan, "trials = 1\nsample_counts = 10\ndetectors = itc_rr\n")],
        ids=["config", "plan"],
    )
    def test_rejected_with_the_field_named(self, parse, sweep_keys, line, bad_line, message):
        parse(AR_CONFIG_TEXT + sweep_keys)
        with pytest.raises(FormatError, match=message):
            parse(AR_CONFIG_TEXT.replace(line, bad_line) + sweep_keys)
