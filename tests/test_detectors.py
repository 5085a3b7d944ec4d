"""Tests for the ITC and GLRT detectors."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from improperdim import (
    DF_RULES,
    CircularitySpectrum,
    box_statistic,
    chi2_quantile,
    circularity_coefficients,
    circularity_profile,
    detect,
    generate_scenario,
    glrt_full,
    glrt_reduced,
    itc_fit_term,
    itc_penalty,
    mdl_itc_full,
    mdl_itc_reduced,
    sample_covariances,
    wilks_statistic,
)
from improperdim import detectors, fileio, harness, numerics, simulate, stats
from improperdim.detectors import _threshold_table
from improperdim.numerics import _chi2_inverse
from improperdim.stats import _unit_scaled
from helpers import (
    detector_inputs,
    proper_scenario,
    reference_glrt_full,
    reference_glrt_reduced,
    reference_mdl_itc_full,
    reference_mdl_itc_reduced,
    reference_spectra,
    result_bytes,
    small_scenario,
)


def spectrum_of(coefficients, sample_count, rank_context=None):
    values = np.asarray(coefficients, dtype=float)
    return CircularitySpectrum(values, rank_context or values.size, sample_count)


def brute_force_scores(coefficients, dim, sample_count):
    # independent evaluation of the criterion, one order at a time
    scores = []
    for order in range(dim):
        fit = 0.0
        for coeff in coefficients[:order]:
            fit += 0.5 * sample_count * math.log(max(1.0 - coeff**2, 1e-300))
        penalty = 0.5 * math.log(sample_count) * (2 * dim * order - order**2 + order)
        scores.append(fit + penalty)
    return np.asarray(scores)


class TestItcFitTerm:
    def test_zero_order_is_zero(self):
        assert itc_fit_term(spectrum_of([0.9, 0.3], 50), 0) == 0.0

    def test_hand_value(self):
        value = itc_fit_term(spectrum_of([0.8], 100), 1)
        assert value == pytest.approx(50.0 * math.log(0.36), abs=1e-10)
        assert value == pytest.approx(-51.0826, abs=1e-4)

    def test_all_zero_coefficients(self):
        spectrum = spectrum_of([0.0, 0.0, 0.0], 200)
        for order in range(4):
            assert itc_fit_term(spectrum, order) == 0.0

    def test_unit_coefficient_is_floored_not_infinite(self):
        value = itc_fit_term(spectrum_of([1.0], 100), 1)
        assert math.isfinite(value)
        assert value <= 50.0 * math.log(1e-300) * 0.999

    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            itc_fit_term(spectrum_of([0.5], 10), 2)
        with pytest.raises(ValueError):
            itc_fit_term(spectrum_of([0.5], 10), -1)


class TestItcPenalty:
    def test_zero_order(self):
        assert itc_penalty(0, 7, 100) == 0.0

    def test_free_parameter_count(self):
        # 2*60*4 - 16 + 4 = 468 free parameters, half of that times ln M
        assert itc_penalty(4, 60, 100) == pytest.approx(234.0 * math.log(100.0), rel=1e-12)

    def test_hand_value(self):
        assert itc_penalty(1, 2, 100) == pytest.approx(9.21034, abs=1e-4)

    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            itc_penalty(3, 2, 100)


class TestMdlItcFull:
    def test_all_zero_spectrum_gives_zero(self):
        result = mdl_itc_full(spectrum_of([0.0] * 5, 1000))
        assert result.estimate == 0
        assert result.selected_rank is None

    def test_matches_brute_force_evaluation(self):
        coefficients = [0.8, 0.01]
        result = mdl_itc_full(spectrum_of(coefficients, 100))
        expected = brute_force_scores(coefficients, 2, 100)
        assert np.allclose(result.scores, expected, atol=1e-10)
        assert result.estimate == 1
        assert result.scores[1] == pytest.approx(-41.872222, abs=1e-5)

    def test_monte_carlo_two_sources(self):
        hits = 0
        trials = 50
        for trial in range(trials):
            config = small_scenario(snapshot_count=5000, seed=10_000 + trial)
            data = generate_scenario(config)
            result = mdl_itc_full(circularity_coefficients(sample_covariances(data)))
            hits += result.estimate == 2
        assert hits >= int(0.9 * trials)

    def test_deterministic(self):
        data = generate_scenario(small_scenario(snapshot_count=800, seed=5))
        spectrum = circularity_coefficients(sample_covariances(data))
        first = mdl_itc_full(spectrum)
        second = mdl_itc_full(spectrum)
        assert first.estimate == second.estimate
        assert np.array_equal(first.scores, second.scores)


class TestMdlItcReduced:
    def test_all_proper_estimates_zero(self):
        data = generate_scenario(proper_scenario(sensor_count=8, snapshot_count=900, seed=3))
        profile = circularity_profile(data, 6)
        result = mdl_itc_reduced(profile, 6, 900)
        assert result.estimate == 0

    def test_r_max_one_only_allows_zero(self):
        data = generate_scenario(small_scenario(snapshot_count=300, seed=8))
        profile = circularity_profile(data, 1)
        result = mdl_itc_reduced(profile, 1, 300)
        assert result.estimate == 0
        assert result.selected_rank == 1

    def test_table_shape_and_invariants(self):
        data = generate_scenario(small_scenario(snapshot_count=1000, seed=12))
        profile = circularity_profile(data, 7)
        result = mdl_itc_reduced(profile, 7, 1000)
        assert result.scores.shape == (7, 7)
        for rank in range(1, 8):
            row = result.scores[rank - 1]
            assert np.all(np.isfinite(row[:rank]))
            assert np.all(np.isnan(row[rank:]))
            assert result.per_rank_argmin[rank - 1] == int(np.nanargmin(row))
        assert result.estimate == result.per_rank_argmin.max()
        smallest = int(np.argmax(result.per_rank_argmin == result.estimate)) + 1
        assert result.selected_rank == smallest
        assert 0 <= result.estimate <= 7

    def test_full_rank_row_matches_full_sample_scores(self):
        data = generate_scenario(small_scenario(snapshot_count=600, seed=4))
        size = data.shape[0]
        profile = circularity_profile(data, size)
        reduced = mdl_itc_reduced(profile, size, 600)
        full = mdl_itc_full(circularity_coefficients(sample_covariances(data)))
        scale = np.maximum(1.0, np.abs(full.scores))
        assert np.all(np.abs(reduced.scores[size - 1] - full.scores) <= 1e-10 * scale)

    def test_detects_two_sources(self):
        data = generate_scenario(small_scenario(snapshot_count=2000, seed=77))
        profile = circularity_profile(data, 6)
        assert mdl_itc_reduced(profile, 6, 2000).estimate == 2

    def test_r_max_out_of_range(self):
        data = generate_scenario(small_scenario(snapshot_count=300, seed=1))
        profile = circularity_profile(data, 4)
        with pytest.raises(ValueError):
            mdl_itc_reduced(profile, 5, 300)


REDUCED_DETECTORS = {
    "itc_rr": lambda profile, r_max: mdl_itc_reduced(profile, r_max, 100),
    "glrt_rr": lambda profile, r_max: glrt_reduced(profile, r_max, 0.005),
}


class TestMalformedProfiles:
    @pytest.mark.parametrize("detector", REDUCED_DETECTORS)
    @pytest.mark.parametrize(
        "profile, message",
        [
            (
                [spectrum_of([0.9, 0.1], 100), spectrum_of([0.9], 100)],
                r"^profile\[r-1\] must be the rank-r spectrum for r = 1..r_max$",
            ),
            (
                [spectrum_of([0.9], 50), spectrum_of([0.9, 0.1], 100)],
                r"^the profile's spectra differ in sample count: \[50, 100\]$",
            ),
        ],
        ids=["ranks-swapped", "mixed-counts"],
    )
    def test_refused_by_both_reduced_detectors(self, detector, profile, message):
        with pytest.raises(ValueError, match=message):
            REDUCED_DETECTORS[detector](profile, 2)

    def test_mdl_sample_count_must_be_the_spectra_count(self):
        profile = [spectrum_of([0.9], 100), spectrum_of([0.9, 0.1], 100)]
        with pytest.raises(ValueError, match="^sample_count=7 differs from the profile's M=100$"):
            mdl_itc_reduced(profile, 2, 7)
        expected = result_bytes(mdl_itc_reduced(profile, 2, 100))
        assert result_bytes(mdl_itc_reduced(profile, 2, 100.0)) == expected

    @pytest.mark.parametrize("detector", REDUCED_DETECTORS)
    def test_only_the_ranks_up_to_r_max_are_read(self, detector):
        # a longer profile's tail is not part of the decision
        profile = [spectrum_of([0.9], 100), spectrum_of([0.9, 0.1], 100)]
        expected = result_bytes(REDUCED_DETECTORS[detector](profile, 2))
        tail = [spectrum_of([0.5], 60)]
        assert result_bytes(REDUCED_DETECTORS[detector](profile + tail, 2)) == expected


class TestWilksStatistic:
    def test_zero_tail(self):
        statistic, df = wilks_statistic(spectrum_of([0.9, 0.0, 0.0], 100), 1)
        assert statistic == 0.0
        assert df == 2 * 3

    def test_benchmark_degrees_of_freedom(self):
        statistic, df = wilks_statistic(spectrum_of([0.5] * 60, 100), 4)
        assert df == 56 * 57

    def test_hand_value(self):
        coefficients = [0.9] * 5 + [0.5]
        statistic, df = wilks_statistic(spectrum_of(coefficients, 100), 5)
        assert statistic == pytest.approx(-100.0 * math.log(0.75), abs=1e-10)
        assert statistic == pytest.approx(28.768, abs=1e-3)
        assert df == 2

    def test_monotone_nonincreasing_in_s(self):
        rng = np.random.default_rng(31)
        coefficients = np.sort(rng.uniform(0, 0.99, size=8))[::-1]
        spectrum = spectrum_of(coefficients, 500)
        values = [wilks_statistic(spectrum, s)[0] for s in range(8)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        assert all(v >= 0.0 for v in values)

    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            wilks_statistic(spectrum_of([0.5, 0.4], 100), 2)


class TestBoxStatistic:
    def test_zero_tail(self):
        statistic, _ = box_statistic(spectrum_of([0.7, 0.0], 50), 1)
        assert statistic == 0.0

    def test_hand_value_with_correction(self):
        coefficients = [0.9] * 9 + [0.5]
        statistic, _ = box_statistic(spectrum_of(coefficients, 110), 9)
        assert statistic == pytest.approx(-100.0 * math.log(0.75), abs=1e-10)
        assert statistic == pytest.approx(28.768, abs=1e-3)

    def test_derived_degrees_of_freedom(self):
        _, df = box_statistic(spectrum_of([0.5] * 5, 100), 2)
        assert df == 3 * 4

    def test_printed_degrees_of_freedom(self):
        _, df = box_statistic(spectrum_of([0.5] * 5, 100), 2, df_rule="printed")
        assert df == 4 * 4

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            box_statistic(spectrum_of([0.5] * 5, 100), 2, df_rule="other")

    def test_rank_must_be_below_sample_count(self):
        with pytest.raises(ValueError):
            box_statistic(spectrum_of([0.5] * 5, 5), 1)

    def test_monotone_nonincreasing_in_s(self):
        rng = np.random.default_rng(32)
        coefficients = np.sort(rng.uniform(0, 0.99, size=6))[::-1]
        spectrum = spectrum_of(coefficients, 200)
        values = [box_statistic(spectrum, s)[0] for s in range(6)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


class TestGlrtFull:
    def test_all_zero_spectrum(self):
        result = glrt_full(spectrum_of([0.0] * 6, 2000), 0.005)
        assert result.estimate == 0

    def test_single_dominant_coefficient(self):
        coefficients = [0.99, 0.03, 0.02, 0.02, 0.01, 0.01]
        result = glrt_full(spectrum_of(coefficients, 2000), 0.005)
        assert result.estimate == 1
        assert result.statistics[0] >= result.thresholds[0]
        assert result.statistics[1] < result.thresholds[1]

    def test_saturates_at_dimension_when_all_rejected(self):
        result = glrt_full(spectrum_of([1.0, 1.0, 1.0], 50), 0.005)
        assert result.estimate == 3

    def test_null_calibration(self):
        # proper data: H0 at s = 0 should be rejected about p_fa of the time
        rejections = 0
        trials = 1000
        for trial in range(trials):
            config = proper_scenario(sensor_count=10, snapshot_count=2000, seed=40_000 + trial)
            spectrum = circularity_coefficients(sample_covariances(generate_scenario(config)))
            rejections += glrt_full(spectrum, 0.005).estimate > 0
        assert rejections / trials <= 0.02

    def test_p_fa_domain(self):
        spectrum = spectrum_of([0.5], 100)
        for bad in (0.0, 1.0):
            with pytest.raises(ValueError):
                glrt_full(spectrum, bad)


class TestGlrtReduced:
    def test_all_proper_estimates_zero(self):
        zeros = 0
        trials = 1000
        for trial in range(trials):
            config = proper_scenario(sensor_count=20, snapshot_count=600, seed=60_000 + trial)
            profile = circularity_profile(generate_scenario(config), 10)
            zeros += glrt_reduced(profile, 10, 0.005).estimate == 0
        assert zeros / trials >= 0.95

    def test_r_max_one_boundary(self):
        data = generate_scenario(small_scenario(snapshot_count=400, seed=9))
        profile = circularity_profile(data, 1)
        assert glrt_reduced(profile, 1, 0.005).estimate in (0, 1)

    def test_detects_two_sources(self):
        data = generate_scenario(small_scenario(snapshot_count=2000, seed=90))
        profile = circularity_profile(data, 6)
        assert glrt_reduced(profile, 6, 0.005).estimate == 2

    def test_tables_and_invariants(self):
        data = generate_scenario(small_scenario(snapshot_count=900, seed=15))
        profile = circularity_profile(data, 7)
        result = glrt_reduced(profile, 7, 0.01)
        assert result.p_fa == 0.01
        for rank in range(1, 8):
            stats_row = result.statistics[rank - 1]
            thresh_row = result.thresholds[rank - 1]
            assert np.all(np.isfinite(stats_row[:rank]))
            assert np.all(np.isnan(stats_row[rank:]))
            accepted = stats_row[:rank] < thresh_row[:rank]
            expected_stop = int(np.argmax(accepted)) if accepted.any() else rank
            assert result.per_rank_stop[rank - 1] == expected_stop
        assert result.estimate == result.per_rank_stop.max()
        smallest = int(np.argmax(result.per_rank_stop == result.estimate)) + 1
        assert result.selected_rank == smallest
        assert 0 <= result.estimate <= 7

    def test_thresholds_match_chi2_quantiles(self):
        data = generate_scenario(small_scenario(snapshot_count=500, seed=18))
        profile = circularity_profile(data, 4)
        result = glrt_reduced(profile, 4, 0.005)
        for rank in range(1, 5):
            for s in range(rank):
                df = (rank - s) * (rank - s + 1)
                assert result.thresholds[rank - 1, s] == pytest.approx(
                    chi2_quantile(df, 0.995), rel=1e-12
                )

    @pytest.mark.parametrize("p_fa", [1e-9, 1e-12, 1e-15, 1e-17, 1e-100, 1e-300])
    def test_small_false_alarm_thresholds_match_scipy(self, p_fa):
        # 1 - p_fa keeps few digits of p_fa, and rounds to 1 below 1.1e-16
        for df in (1, 2, 12, 110, 3660):
            expected = scipy_stats.chi2.isf(p_fa, df)
            assert _chi2_inverse(df, p_fa, upper=True) == pytest.approx(
                expected, rel=1e-12, abs=0.0
            )

    def test_printed_rule_changes_thresholds(self):
        data = generate_scenario(small_scenario(snapshot_count=500, seed=19))
        profile = circularity_profile(data, 5)
        derived = glrt_reduced(profile, 5, 0.005, df_rule="derived")
        printed = glrt_reduced(profile, 5, 0.005, df_rule="printed")
        # at rank 5, order 1: derived df = 20, printed df = 4*5 = 20 -> equal;
        # at order 3 they differ (6 vs 12)
        assert printed.thresholds[4, 3] > derived.thresholds[4, 3]
        assert np.array_equal(printed.statistics[4, :5], derived.statistics[4, :5])

    def test_printed_rule_always_rejects_at_rank_one(self):
        # rank 1 has (1 - 1)(1 - 0 + 1) = 0 d.f. under the printed rule, so its
        # threshold is 0 and even proper data stop at 1 there
        data = generate_scenario(proper_scenario(sensor_count=8, snapshot_count=400, seed=5))
        profile = circularity_profile(data, 8)
        printed = glrt_reduced(profile, 8, 0.005, df_rule="printed")
        assert printed.thresholds[0, 0] == 0.0
        assert printed.per_rank_stop[0] == 1
        assert printed.estimate >= 1
        assert glrt_reduced(profile, 8, 0.005).per_rank_stop[0] == 0

    def test_r_max_must_be_below_sample_count(self):
        data = generate_scenario(small_scenario(snapshot_count=300, seed=2))
        profile = circularity_profile(data, 5)
        bad_profile = [
            CircularitySpectrum(s.coefficients, s.rank_context, 5) for s in profile
        ]
        with pytest.raises(ValueError):
            glrt_reduced(bad_profile, 5, 0.005)

    def test_deterministic_bit_for_bit(self):
        data = generate_scenario(small_scenario(snapshot_count=700, seed=33))
        profile = circularity_profile(data, 6)
        first = glrt_reduced(profile, 6, 0.005)
        second = glrt_reduced(profile, 6, 0.005)
        assert first.estimate == second.estimate
        assert first.selected_rank == second.selected_rank
        assert np.array_equal(first.statistics, second.statistics, equal_nan=True)
        assert np.array_equal(first.thresholds, second.thresholds, equal_nan=True)
        assert np.array_equal(first.per_rank_stop, second.per_rank_stop)


@settings(deadline=None, max_examples=200)
@given(
    inputs=detector_inputs(),
    df_rule=st.sampled_from(DF_RULES),
    p_fa=st.floats(1e-12, 0.5),
    exponent=st.sampled_from((-600, 0, 600)),
)
def test_table_kernels_equal_the_per_rank_loops_bit_for_bit(inputs, df_rule, p_fa, exponent):
    data, r_max = inputs
    parts = np.ldexp(data.view(np.float64), exponent)
    assume(np.array_equal(np.ldexp(parts, -exponent), data.view(np.float64)))  # no entry rounded
    data = parts.view(np.complex128)
    count = data.shape[1]
    pair = sample_covariances(_unit_scaled(data))
    profile = circularity_profile(data, r_max)
    for entry, expected in zip(profile, reference_spectra(pair, range(1, r_max + 1))):
        assert entry.rank_context == expected.rank_context
        assert entry.coefficients.tobytes() == expected.coefficients.tobytes()
    spectrum = circularity_coefficients(pair)
    assert result_bytes(mdl_itc_full(spectrum)) == result_bytes(reference_mdl_itc_full(spectrum))
    assert result_bytes(glrt_full(spectrum, p_fa)) == result_bytes(
        reference_glrt_full(spectrum, p_fa)
    )
    assert result_bytes(mdl_itc_reduced(profile, r_max, count)) == result_bytes(
        reference_mdl_itc_reduced(profile, r_max, count)
    )
    reduced = glrt_reduced(profile, r_max, p_fa, df_rule)
    assert result_bytes(reduced) == result_bytes(
        reference_glrt_reduced(profile, r_max, p_fa, df_rule)
    )
    # the per-order public functions return the very cells the detectors decide with
    full = glrt_full(spectrum, p_fa)
    scores = mdl_itc_full(spectrum).scores
    for order in range(spectrum.rank_context):
        assert wilks_statistic(spectrum, order)[0] == full.statistics[order]
        fit = itc_fit_term(spectrum, order)
        assert fit + itc_penalty(order, spectrum.rank_context, count) == scores[order]
    scores = mdl_itc_reduced(profile, r_max, count).scores
    for rank, entry in enumerate(profile[:r_max], start=1):
        for order in range(rank):
            assert box_statistic(entry, order, df_rule)[0] == reduced.statistics[rank - 1, order]
            fit = itc_fit_term(entry, order)
            assert fit + itc_penalty(order, rank, count) == scores[rank - 1, order]
    # detect decides from the wrappers' spectra, at M < 2m and 2**-600 or 2**600 too
    routes = {
        "itc_full": mdl_itc_full(spectrum),
        "itc_rr": mdl_itc_reduced(profile, r_max, count),
        "glrt_full": full,
        "glrt_rr": reduced,
    }
    for detector, expected in routes.items():
        found = detect(data, detector, p_fa=p_fa, r_max=r_max, box_df=df_rule)
        assert result_bytes(found) == result_bytes(expected)


class TestCachedTables:
    def test_writes_into_results_never_reach_a_later_call(self):
        data = generate_scenario(small_scenario(snapshot_count=300, seed=21))
        spectrum = circularity_coefficients(sample_covariances(data))
        profile = circularity_profile(data, 6)
        calls = [
            lambda: mdl_itc_full(spectrum),
            lambda: glrt_full(spectrum, 0.005),
            lambda: mdl_itc_reduced(profile, 6, 300),
            lambda: glrt_reduced(profile, 6, 0.005),
            lambda: glrt_reduced(profile, 6, 0.005, df_rule="printed"),
        ]
        for call in calls:
            first = call()
            expected = result_bytes(first)
            for name in ("scores", "statistics", "thresholds"):
                table = getattr(first, name, None)
                if table is not None:
                    table[...] = -1.0
            assert result_bytes(call()) == expected

    def test_threshold_tables_are_read_only_and_bounded(self):
        table = _threshold_table(5, "derived", 0.005)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1.0
        assert _threshold_table.cache_info().maxsize is not None

    def test_every_cache_in_the_package_is_bounded(self):
        caches = {
            f"{module.__name__}.{name}": value.cache_info().maxsize
            for module in (detectors, fileio, harness, numerics, simulate, stats)
            for name, value in vars(module).items()
            if hasattr(value, "cache_info")
        }
        assert "improperdim.detectors._threshold_table" in caches
        assert "improperdim.simulate._ar_root" in caches
        assert {name: size for name, size in caches.items() if size is None} == {}
