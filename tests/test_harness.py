"""Tests for detector dispatch, plans, Monte Carlo runs, and CSV output."""

import ctypes
import dataclasses
import os
import subprocess
import sys
import tracemalloc
from itertools import product

import numpy as np
import pytest

from improperdim import harness
from improperdim import (
    CSV_HEADER,
    DETECTOR_NAMES,
    DF_RULES,
    CurveRow,
    DetectionResult,
    ExperimentPlan,
    FormatError,
    GlrtDiagnostics,
    InfeasibleOptionsError,
    ItcDiagnostics,
    default_r_max,
    detect,
    dump_scenario,
    format_curve_csv,
    format_detection_report,
    format_plan,
    format_scenario_config,
    generate_scenario,
    load_dataset,
    parse_plan,
    run_detection,
    run_experiment,
    run_montecarlo,
    trial_seed,
    write_dataset,
)
from helpers import (
    AR_COEFFICIENTS,
    array_scenario,
    proper_scenario,
    reference_detection_report,
    small_scenario,
)

PLAN_TEXT = """\
m = 8
angles_deg = 40, 70
source_variances = 5, 5
source_circularities = 0.9, 0.7
noise_kind = white
noise_variance = 1
trials = 4
sample_counts = 300, 500
detectors = itc_rr, glrt_rr
pfa_list = 0.005, 0.001
seed = 11
"""


class TestDefaultRMax:
    def test_rule(self):
        assert default_r_max(60, 1000) == 60
        assert default_r_max(60, 120) == 40
        assert default_r_max(8, 9) == 3
        assert default_r_max(8, 2) == 0


class TestTrialSeed:
    def test_deterministic_and_distinct(self):
        first = trial_seed(7, 1, 500, 3)
        assert first == trial_seed(7, 1, 500, 3)
        assert first != trial_seed(7, 1, 500, 4)
        assert first != trial_seed(7, 1, 400, 3)
        assert first != trial_seed(8, 1, 500, 3)
        assert 0 <= first < 2**64

    def test_same_seed_for_every_detector_index(self):
        # every detector of a plan decides on the one realization of its (M, trial)
        for base_seed, count, trial in [(7, 500, 3), (0, 200, 0), (2**40, 1000, 499)]:
            seeds = {trial_seed(base_seed, index, count, trial) for index in range(-1, 5)}
            assert seeds == {trial_seed(base_seed, None, count, trial)}


class TestDetectDispatch:
    def test_result_types(self):
        data = generate_scenario(small_scenario(snapshot_count=500, seed=1))
        assert isinstance(detect(data, "itc_full"), DetectionResult)
        assert isinstance(detect(data, "glrt_full"), DetectionResult)
        assert isinstance(detect(data, "itc_rr"), ItcDiagnostics)
        assert isinstance(detect(data, "glrt_rr"), GlrtDiagnostics)

    def test_unknown_detector(self):
        data = generate_scenario(small_scenario(snapshot_count=100, seed=2))
        with pytest.raises(ValueError, match="unknown detector"):
            detect(data, "music")
        # the report reads the detector table, and refuses the name the same way
        with pytest.raises(ValueError, match="unknown detector 'music'"):
            format_detection_report(detect(data, "itc_full"), "music", 8, 100)

    def test_infeasible_r_max(self):
        data = generate_scenario(small_scenario(snapshot_count=100, seed=3))
        with pytest.raises(InfeasibleOptionsError):
            detect(data, "itc_rr", r_max=100)
        with pytest.raises(InfeasibleOptionsError):
            detect(data, "glrt_rr", r_max=0)

    def test_r_max_override(self):
        data = generate_scenario(small_scenario(snapshot_count=400, seed=4))
        result = detect(data, "itc_rr", r_max=3)
        assert result.scores.shape == (3, 3)

    def test_box_df_rule_passthrough(self):
        data = generate_scenario(small_scenario(snapshot_count=400, seed=5))
        derived = detect(data, "glrt_rr", box_df="derived")
        printed = detect(data, "glrt_rr", box_df="printed")
        assert not np.array_equal(derived.thresholds, printed.thresholds, equal_nan=True)

    def test_r_max_must_be_an_integer(self):
        data = generate_scenario(small_scenario(snapshot_count=400, seed=4))
        for r_max in (2.5, True, float("nan")):
            with pytest.raises(ValueError, match="r_max must be an integer, got"):
                detect(data, "itc_rr", r_max=r_max)
        assert detect(data, "glrt_rr", r_max=3.0).statistics.shape == (3, 3)

    @pytest.mark.parametrize("detector", DETECTOR_NAMES)
    def test_unknown_box_df_rejected_by_every_detector(self, detector):
        data = generate_scenario(small_scenario(snapshot_count=100, seed=6))
        with pytest.raises(ValueError, match="unknown df_rule 'bogus'"):
            detect(data, detector, box_df="bogus")


def assert_same_result(first, second):
    assert type(first) is type(second)
    for field in dataclasses.fields(first):
        mine, theirs = getattr(first, field.name), getattr(second, field.name)
        if isinstance(mine, np.ndarray):
            assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), field.name
        else:
            assert mine == theirs, field.name


class TestSharedDecision:
    """Every detector of a Monte Carlo trial decides from one spectrum call
    on one realization, with the bits ``detect`` gives on the same data."""

    @pytest.mark.parametrize(
        "config, r_max",
        [
            (small_scenario(snapshot_count=300, seed=6), None),  # default r_max = m
            (small_scenario(snapshot_count=300, seed=6), 3),  # rank m is the extra entry
            (small_scenario(snapshot_count=12, seed=7), None),  # M < 2m, default r_max 4 < m
            (array_scenario("spatial_ar", snapshot_count=200, seed=8), 5),
        ],
        ids=["white-default", "white-r_max-3", "white-M-12", "ar-r_max-5"],
    )
    def test_every_detector_decides_as_detect_does(self, config, r_max):
        data = generate_scenario(config)
        p_fas = (0.005, 0.001)
        for detectors in (DETECTOR_NAMES, DETECTOR_NAMES[::-1]):
            shared = harness._decide(data, detectors, r_max, p_fas, "printed")
            assert set(shared) == {
                (name, p_fa)
                for name in DETECTOR_NAMES
                for p_fa in (p_fas if name.startswith("glrt") else (None,))
            }
            for (detector, p_fa), result in shared.items():  # p_fa None: an MDL detector
                alone = detect(data, detector, p_fa=p_fa or 0.5, r_max=r_max, box_df="printed")
                assert_same_result(result, alone)


class TestScaleRobustDetection:
    @pytest.mark.parametrize("detector", DETECTOR_NAMES)
    def test_power_of_two_scaling_is_bit_identical(self, detector):
        data = generate_scenario(small_scenario(snapshot_count=300, seed=12))
        reference = detect(data, detector)
        for exponent in (-600, -7, 5, 600):
            scaled = np.ldexp(data.real, exponent) + 1j * np.ldexp(data.imag, exponent)
            assert_same_result(detect(scaled, detector), reference)

    @pytest.mark.parametrize("detector", DETECTOR_NAMES)
    def test_layout_and_power_of_two_scale_give_the_contiguous_bits(self, detector):
        # 9000 snapshots: the covariance pair sums two full blocks and a part
        data = generate_scenario(small_scenario(snapshot_count=9000, seed=14))
        reference = detect(data, detector)
        assert_same_result(detect(np.asfortranarray(data), detector), reference)
        assert_same_result(detect(2.0**600 * data, detector), reference)
        assert_same_result(detect(2.0**-600 * data, detector), reference)
        strided = data[:, ::2]
        assert_same_result(detect(strided, detector), detect(strided.copy(), detector))

    @pytest.mark.parametrize("detector", DETECTOR_NAMES)
    def test_extreme_scales_keep_the_estimate(self, detector):
        data = generate_scenario(small_scenario(snapshot_count=300, seed=13))
        reference = detect(data, detector).estimate
        assert reference == 2
        for scale in (1e-170, 1e160):
            assert detect(scale * data, detector).estimate == reference


class TestDetectMemory:
    def test_peak_is_one_scaled_block_beyond_the_matrix(self):
        # the pair reads the data through one block of 2m x 4096 doubles at a
        # time: no scaled or conjugated copy of the whole matrix
        channels, count = 60, 20_000
        rng = np.random.default_rng(15)
        data = rng.standard_normal((channels, count)) + 1j * rng.standard_normal((channels, count))
        tracemalloc.start()
        try:
            result = detect(data, "glrt_rr")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.estimate == 0
        block = 2 * channels * 4096 * 8
        assert peak <= block + 32 * channels**2 * 16


class TestRunDetection:
    def test_loads_and_detects(self, tmp_path):
        config = small_scenario(snapshot_count=1500, seed=6)
        path = tmp_path / "data.txt"
        write_dataset(path, generate_scenario(config))
        result = run_detection(path, "itc_rr")
        assert result.estimate == 2

    def test_white_noise_estimates_zero(self, tmp_path):
        path = tmp_path / "noise.txt"
        write_dataset(path, generate_scenario(proper_scenario(sensor_count=6, snapshot_count=600, seed=7)))
        assert run_detection(path, "itc_rr").estimate == 0


def every_channel_improper():
    """3 x 500 data whose three channels are all improper: glrt_full rejects
    every order and saturates, and glrt_rr accepts no order at some ranks."""
    rng = np.random.default_rng(0)
    return rng.standard_normal((3, 500)) + 0.3j * rng.standard_normal((3, 500))


class TestDetectionReport:
    @pytest.mark.parametrize("box_df", DF_RULES)
    @pytest.mark.parametrize("detector", DETECTOR_NAMES)
    def test_bytes_equal_the_four_branch_reference(self, detector, box_df):
        datasets = [
            generate_scenario(small_scenario(snapshot_count=1500, seed=8)),
            generate_scenario(small_scenario(snapshot_count=10, seed=9)),  # M < 2m
            every_channel_improper(),
        ]
        reports = []
        for data, r_max, p_fa in product(datasets, (None, 2), (0.005, 0.9999999999999999)):
            result = detect(data, detector, p_fa=p_fa, r_max=r_max, box_df=box_df)
            for shown in (p_fa, None):
                report = format_detection_report(result, detector, *data.shape, p_fa=shown)
                assert report == reference_detection_report(result, detector, *data.shape, shown)
                reports.append(report)
        # the cases that the layouts treat apart all occur
        features = {
            "itc_full": ["note: M < 2m", "  *"],
            "itc_rr": ["selected PCA rank: ", "rank  d_hat     score"],
            "glrt_full": ["note: M < 2m", "saturates at m", "accept", "(p_fa=0.9999999999999999)"],
            "glrt_rr": ["(no order accepted)", "(p_fa=0.9999999999999999)"],
        }[detector]
        assert all(any(feature in report for report in reports) for feature in features)

    def test_header_prints_p_fa_at_full_precision(self):
        data = generate_scenario(small_scenario(snapshot_count=300, seed=11))
        for p_fa in (0.9999999999999999, 0.0050000001, 1e-300):
            result = detect(data, "glrt_rr", p_fa=p_fa)
            head = format_detection_report(result, "glrt_rr", 8, 300, p_fa=p_fa).splitlines()[0]
            assert head == f"detector: glrt_rr (p_fa={p_fa!r})"

    def test_reduced_report_mentions_estimate_and_rank(self):
        data = generate_scenario(small_scenario(snapshot_count=1500, seed=8))
        result = detect(data, "glrt_rr", p_fa=0.005)
        report = format_detection_report(result, "glrt_rr", 8, 1500, p_fa=0.005)
        assert "estimated improper dimension: 2" in report
        assert "selected PCA rank:" in report
        assert "p_fa=0.005" in report

    def test_full_sample_small_m_note(self):
        data = generate_scenario(small_scenario(snapshot_count=10, seed=9))
        result = detect(data, "itc_full")
        report = format_detection_report(result, "itc_full", 8, 10)
        assert "M < 2m" in report
        assert "itc_rr" in report

    def test_full_glrt_report_has_verdicts(self):
        data = generate_scenario(small_scenario(snapshot_count=900, seed=10))
        result = detect(data, "glrt_full", p_fa=0.01)
        report = format_detection_report(result, "glrt_full", 8, 900, p_fa=0.01)
        assert "accept" in report and "reject" in report

    @pytest.mark.parametrize("detector", DETECTOR_NAMES)
    def test_header_shows_p_fa_for_glrt_detectors_only(self, detector):
        data = generate_scenario(small_scenario(snapshot_count=300, seed=11))
        result = detect(data, detector, p_fa=0.01)
        head = format_detection_report(result, detector, 8, 300, p_fa=0.01).splitlines()[0]
        expected = " (p_fa=0.01)" if detector.startswith("glrt") else ""
        assert head == f"detector: {detector}{expected}"


class TestPlanParsing:
    def test_parse_fields(self):
        plan = parse_plan(PLAN_TEXT)
        assert plan.sample_counts == (300, 500)
        assert plan.trials == 4
        assert plan.detectors == ("itc_rr", "glrt_rr")
        assert plan.p_fa_list == (0.005, 0.001)
        assert plan.base_seed == 11
        assert plan.r_max is None
        assert plan.scenario.sensor_count == 8
        assert plan.scenario.snapshot_count == 300

    def test_round_trip_identity(self):
        plan = parse_plan(PLAN_TEXT)
        assert parse_plan(format_plan(plan)) == plan

    def test_round_trip_with_r_max(self):
        plan = parse_plan(PLAN_TEXT + "r_max = 5\n")
        assert plan.r_max == 5
        assert parse_plan(format_plan(plan)) == plan

    def test_m_key_tolerated(self):
        plan = parse_plan(PLAN_TEXT + "M = 999\n")
        assert plan.scenario.snapshot_count == 300

    def test_glrt_requires_pfa_list(self):
        bad = PLAN_TEXT.replace("pfa_list = 0.005, 0.001\n", "")
        with pytest.raises(FormatError, match="pfa_list"):
            parse_plan(bad)

    def test_itc_only_plan_needs_no_pfa(self):
        text = PLAN_TEXT.replace("pfa_list = 0.005, 0.001\n", "").replace(
            "detectors = itc_rr, glrt_rr", "detectors = itc_rr"
        )
        plan = parse_plan(text)
        assert plan.p_fa_list == ()

    @pytest.mark.parametrize(
        "listed, repeated, message",
        [
            ("detectors = itc_rr, glrt_rr", "detectors = itc_rr, glrt_rr, itc_rr", "detector"),
            ("pfa_list = 0.005, 0.001", "pfa_list = 0.005, 0.001, 5e-3", "p_fa"),
        ],
    )
    def test_repeated_detector_or_p_fa_rejected(self, listed, repeated, message):
        # outcomes are keyed by (detector, p_fa): a repeat would write one curve twice
        with pytest.raises(FormatError, match=f"^duplicate {message}$"):
            parse_plan(PLAN_TEXT.replace(listed, repeated))

    def test_repeated_p_fa_rejected_by_the_plan(self):
        with pytest.raises(ValueError, match="^duplicate p_fa$"):
            dataclasses.replace(parse_plan(PLAN_TEXT), p_fa_list=(0.005, 0.001, 0.005))

    def test_unknown_detector_rejected(self):
        with pytest.raises(FormatError, match="unknown detector"):
            parse_plan(PLAN_TEXT.replace("detectors = itc_rr, glrt_rr", "detectors = pca"))

    def test_sample_counts_must_increase(self):
        with pytest.raises(FormatError, match="strictly increasing"):
            parse_plan(PLAN_TEXT.replace("sample_counts = 300, 500", "sample_counts = 500, 300"))

    def test_unknown_key_rejected(self):
        with pytest.raises(FormatError, match="unknown key"):
            parse_plan(PLAN_TEXT + "workers = 4\n")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("trials", 2.5),
            ("trials", True),
            ("r_max", 2.5),
            ("r_max", True),
            ("sample_counts", (60.7, 300)),
            ("sample_counts", (True, 300)),
            ("trials", np.True_),
            ("r_max", float("inf")),
        ],
    )
    def test_integer_fields_refuse_other_values(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            dataclasses.replace(parse_plan(PLAN_TEXT), **{field: value})

    def test_integral_values_become_ints_and_round_trip(self):
        plan = dataclasses.replace(
            parse_plan(PLAN_TEXT), trials=4.0, r_max=np.int64(5), sample_counts=(300.0, 500)
        )
        assert (plan.trials, plan.r_max, plan.sample_counts) == (4, 5, (300, 500))
        assert {type(v) for v in (plan.trials, plan.r_max, *plan.sample_counts)} == {int}
        assert parse_plan(format_plan(plan)) == plan


class TestRunExperiment:
    def test_single_trial_rows(self):
        plan = ExperimentPlan(
            scenario=small_scenario(snapshot_count=300, seed=0),
            sample_counts=(300,),
            trials=1,
            detectors=("itc_rr",),
            p_fa_list=(),
            base_seed=5,
        )
        rows = run_experiment(plan)
        assert len(rows) == 1
        row = rows[0]
        assert row.detector == "itc_rr"
        assert row.p_fa is None
        assert row.trials == 1
        assert row.p_detect in (0.0, 1.0)
        assert row.mean_selected_rank is not None

    def test_row_ordering_and_pfa_expansion(self):
        plan = parse_plan(PLAN_TEXT)
        rows = run_experiment(plan)
        key = [(r.detector, r.p_fa, r.sample_count) for r in rows]
        assert key == [
            ("itc_rr", None, 300),
            ("itc_rr", None, 500),
            ("glrt_rr", 0.005, 300),
            ("glrt_rr", 0.005, 500),
            ("glrt_rr", 0.001, 300),
            ("glrt_rr", 0.001, 500),
        ]

    def test_results_independent_of_detector_order(self):
        # a detector's rows are the same bytes alone, with all four, or in reverse
        base = dataclasses.replace(parse_plan(PLAN_TEXT), r_max=5)
        listings = [(name,) for name in DETECTOR_NAMES]
        listings += [DETECTOR_NAMES, DETECTOR_NAMES[::-1]]
        lines = {}
        for detectors in listings:
            plan = dataclasses.replace(base, detectors=detectors)
            for line in format_curve_csv(run_experiment(plan)).splitlines()[1:]:
                lines.setdefault(line.split(",")[0], []).append(line)
        assert sorted(lines) == sorted(DETECTOR_NAMES)
        for name, found in lines.items():
            rows = len(base.sample_counts) * (2 if name.startswith("glrt") else 1)
            assert found == found[:rows] * 3

    @pytest.mark.parametrize("detectors", [("glrt_rr",), DETECTOR_NAMES])
    def test_one_realization_per_sample_count_and_trial(self, monkeypatch, detectors):
        generated = []
        real_generate = harness.generate_scenario

        def recording_generate(config):
            generated.append((config.snapshot_count, config.seed))
            return real_generate(config)

        monkeypatch.setattr(harness, "generate_scenario", recording_generate)
        use_cpus(monkeypatch, 1)  # the recorder sees every trial in this process
        plan = dataclasses.replace(parse_plan(PLAN_TEXT), trials=3, detectors=detectors)
        run_experiment(plan)
        assert sorted(generated) == sorted(
            (count, trial_seed(plan.base_seed, None, count, trial))
            for count, trial in product(plan.sample_counts, range(plan.trials))
        )

    def test_detects_sources_with_enough_samples(self):
        plan = ExperimentPlan(
            scenario=small_scenario(snapshot_count=2000, seed=0),
            sample_counts=(2000,),
            trials=6,
            detectors=("itc_rr", "glrt_rr"),
            p_fa_list=(0.005,),
            base_seed=123,
        )
        for row in run_experiment(plan):
            # glrt occasionally overestimates by design (false alarms at p_fa)
            assert row.p_detect >= 0.8

    def test_full_sample_detectors_have_blank_rank(self):
        plan = ExperimentPlan(
            scenario=small_scenario(snapshot_count=800, seed=0),
            sample_counts=(800,),
            trials=2,
            detectors=("itc_full", "glrt_full"),
            p_fa_list=(0.01,),
            base_seed=9,
        )
        for row in run_experiment(plan):
            assert row.mean_selected_rank is None

    def test_infeasible_fixed_r_max(self):
        plan = ExperimentPlan(
            scenario=small_scenario(snapshot_count=300, seed=0),
            sample_counts=(300,),
            trials=1,
            detectors=("itc_rr",),
            p_fa_list=(),
            base_seed=1,
            r_max=300,
        )
        with pytest.raises(InfeasibleOptionsError):
            run_experiment(plan)

    def test_infeasible_r_max_fails_before_the_first_trial(self, monkeypatch):
        generated = []
        real_generate = harness.generate_scenario

        def counting_generate(config):
            generated.append(config)
            return real_generate(config)

        monkeypatch.setattr(harness, "generate_scenario", counting_generate)
        plan = ExperimentPlan(
            scenario=small_scenario(snapshot_count=300, seed=0),
            sample_counts=(100, 300),
            trials=2,
            detectors=("itc_full", "glrt_full", "itc_rr"),
            p_fa_list=(0.01,),
            base_seed=1,
            r_max=9,
        )
        with pytest.raises(InfeasibleOptionsError, match=r"r_max=9 must lie in 1\.\.m=8"):
            run_experiment(plan)
        assert generated == []

    def test_unknown_box_df_fails_before_the_first_trial(self, monkeypatch):
        generated = []
        real_generate = harness.generate_scenario

        def counting_generate(config):
            generated.append(config)
            return real_generate(config)

        monkeypatch.setattr(harness, "generate_scenario", counting_generate)
        # a check inside the trial would fail only after the realization was drawn
        plan = dataclasses.replace(parse_plan(PLAN_TEXT), trials=1)  # one in-process worker
        with pytest.raises(ValueError, match="unknown df_rule 'bogus'"):
            run_experiment(plan, box_df="bogus")
        assert generated == []

    @pytest.mark.parametrize(
        "option, value",
        [("detector", "music"), ("box_df", "bogus")]
        + [("p_fa", value) for value in (0.0, 1.0, -1.0, float("nan"), 7.0)],
    )
    def test_each_bad_option_gives_one_message_before_the_first_trial(
        self, monkeypatch, tmp_path, option, value
    ):
        data = generate_scenario(small_scenario(snapshot_count=300, seed=0))
        generated = []
        monkeypatch.setattr(harness, "generate_scenario", generated.append)
        options = {"detector": "glrt_rr", "box_df": "derived", "p_fa": 0.005, option: value}
        detector, box_df, p_fa = options["detector"], options["box_df"], options["p_fa"]
        plan_text = PLAN_TEXT.replace("itc_rr, glrt_rr", detector).replace(
            "0.005, 0.001", repr(p_fa)
        )
        plan_path = tmp_path / "plan.txt"
        plan_path.write_text(plan_text)
        calls = [
            lambda: detect(data, detector, p_fa=p_fa, box_df=box_df),
            lambda: run_montecarlo(plan_path, tmp_path / "curve.csv", box_df=box_df),
        ]
        if option == "box_df":  # a plan has no d.f. rule; the run takes it
            calls.append(lambda: run_experiment(parse_plan(plan_text), box_df=box_df))
        else:
            scenario = small_scenario(snapshot_count=300, seed=0)
            calls.append(lambda: parse_plan(plan_text))
            calls.append(lambda: ExperimentPlan(scenario, (300,), 1, (detector,), (p_fa,), 1))
        messages = []
        for call in calls:
            with pytest.raises(ValueError) as caught:
                call()
            messages.append(str(caught.value))
        expected = {
            "detector": "unknown detector 'music' "
            "(expected one of itc_full, itc_rr, glrt_full, glrt_rr)",
            "box_df": "unknown df_rule 'bogus'; expected one of ('derived', 'printed')",
            "p_fa": "p_fa must lie strictly between 0 and 1",
        }[option]
        assert messages == [expected] * len(calls)
        assert generated == []
        assert not (tmp_path / "curve.csv").exists()


AR_PLAN_TEXT = PLAN_TEXT.replace(
    "noise_kind = white\nnoise_variance = 1\n",
    "noise_kind = spatial_ar\nnoise_variance = 0.25\n"
    f"ar_coefficients = {', '.join(repr(v) for v in AR_COEFFICIENTS)}\n",
).replace("detectors = itc_rr, glrt_rr", "detectors = itc_full, itc_rr, glrt_full, glrt_rr")


_OPENBLAS_THREAD_CALLS = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
)


def openblas_thread_calls():
    """(get, set) thread-count functions of each OpenBLAS mapped into
    this process."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.rsplit("/", 1)[-1]}
    calls = []
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for getter, setter in _OPENBLAS_THREAD_CALLS:
            if hasattr(library, getter):
                calls.append((getattr(library, getter), getattr(library, setter)))
    return calls


def openblas_thread_counts():
    """Thread count of each OpenBLAS mapped into this process."""
    return [get() for get, _ in openblas_thread_calls()]


def set_openblas_threads(counts):
    """Set each OpenBLAS, in the order of ``openblas_thread_counts``, to
    the matching thread count."""
    for (_, set_threads), count in zip(openblas_thread_calls(), counts):
        set_threads(count)


# Every worker process exits at its first trial, as if killed; the run must
# raise OSError rather than wait for results that never come.
_DYING_WORKER_SCRIPT = """
import os
import sys
from improperdim import harness

parent = os.getpid()

def dying_generate(config):
    assert os.getpid() != parent
    os._exit(1)

harness.generate_scenario = dying_generate
harness._usable_cpus = lambda: 2
try:
    harness.run_experiment(harness.parse_plan(sys.argv[1]))
except OSError as exc:
    print(exc)
    sys.exit(0)
sys.exit("no OSError")
"""


def use_cpus(monkeypatch, count):
    """Make the worker count see ``count`` usable CPUs."""
    monkeypatch.setattr(harness, "_usable_cpus", lambda: count)


class TestWorkerPool:
    """Trials over worker processes give the in-process rows byte for byte."""

    # a task is one (M, trial) of every detector: 16 tasks start two workers
    # on two or three CPUs, 24 start three
    @pytest.mark.parametrize(
        "text, box_df",
        [
            (PLAN_TEXT.replace("trials = 4", "trials = 8"), "derived"),
            (PLAN_TEXT.replace("trials = 4", "trials = 8"), "printed"),
            (AR_PLAN_TEXT.replace("trials = 4", "trials = 12"), "derived"),
            (AR_PLAN_TEXT.replace("trials = 4", "trials = 12\nr_max = 5"), "printed"),
        ],
        ids=["white-derived", "white-printed", "ar-derived", "ar-r_max-printed"],
    )
    def test_csv_identical_for_every_worker_count(self, monkeypatch, text, box_df):
        plan = parse_plan(text)
        csvs = []
        for cpus in (1, 2, 3):
            use_cpus(monkeypatch, cpus)
            csvs.append(format_curve_csv(run_experiment(plan, box_df=box_df)))
        assert csvs[0] == csvs[1] == csvs[2]

    def test_fewer_trials_than_cpus(self, monkeypatch):
        plan = parse_plan(PLAN_TEXT.replace("trials = 4", "trials = 8"))  # 16 tasks
        csvs = []
        for cpus in (1, 32):
            use_cpus(monkeypatch, cpus)
            csvs.append(format_curve_csv(run_experiment(plan)))
        assert csvs[0] == csvs[1]

    @pytest.mark.parametrize(
        "cpus, trials, in_workers", [(2, 16, True), (2, 15, False), (1, 16, False)]
    )
    def test_trials_run_in_worker_processes(self, monkeypatch, tmp_path, cpus, trials, in_workers):
        real_generate = harness.generate_scenario

        def recording_generate(config):
            (tmp_path / f"{os.getpid()}-{config.seed}").touch()
            return real_generate(config)

        monkeypatch.setattr(harness, "generate_scenario", recording_generate)
        use_cpus(monkeypatch, cpus)
        plan = parse_plan(
            PLAN_TEXT.replace("trials = 4", f"trials = {trials}")
            .replace("sample_counts = 300, 500", "sample_counts = 300")
        )
        run_experiment(plan)
        pids = {int(path.name.split("-")[0]) for path in tmp_path.iterdir()}
        assert len(list(tmp_path.iterdir())) == trials  # one realization per (M, trial)
        if in_workers:
            assert os.getpid() not in pids and 1 <= len(pids) <= 2
        else:  # one CPU, or fewer than eight (M, trial) tasks per worker, run in-process
            assert pids == {os.getpid()}

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
    def test_workers_run_openblas_on_one_thread(self, monkeypatch, tmp_path):
        parent_counts = openblas_thread_counts()
        if not parent_counts:
            pytest.skip("numpy does not use a shared OpenBLAS")
        real_generate = harness.generate_scenario

        def recording_generate(config):
            record = tmp_path / f"{os.getpid()}-{config.seed}"
            record.write_text(repr(openblas_thread_counts()))
            return real_generate(config)

        monkeypatch.setattr(harness, "generate_scenario", recording_generate)
        use_cpus(monkeypatch, 2)
        # forked workers inherit two threads, whatever OPENBLAS_NUM_THREADS says
        set_openblas_threads([2] * len(parent_counts))
        try:
            assert openblas_thread_counts() == [2] * len(parent_counts)
            run_experiment(parse_plan(PLAN_TEXT.replace("trials = 4", "trials = 8")))
        finally:
            set_openblas_threads(parent_counts)
        records = list(tmp_path.iterdir())
        assert len(records) == 16
        assert os.getpid() not in {int(path.name.split("-")[0]) for path in records}
        assert {path.read_text() for path in records} == {"[1]"}

    def test_worker_exception_reaches_the_caller(self, monkeypatch, tmp_path):
        plan = parse_plan(PLAN_TEXT.replace("trials = 4", "trials = 8"))  # two workers on 2 CPUs
        failing_seed = trial_seed(plan.base_seed, None, 500, 2)
        real_generate = harness.generate_scenario

        def failing_generate(config):
            if config.seed == failing_seed:
                (tmp_path / str(os.getpid())).touch()
                raise InfeasibleOptionsError(f"trial with seed {config.seed} failed")
            return real_generate(config)

        monkeypatch.setattr(harness, "generate_scenario", failing_generate)
        raised, pids = [], []
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            with pytest.raises(InfeasibleOptionsError) as info:
                run_experiment(plan)
            raised.append((type(info.value), str(info.value)))
            pids.append({int(path.name) for path in tmp_path.iterdir()})
            for path in tmp_path.iterdir():
                path.unlink()
        assert raised[0] == raised[1] == (
            InfeasibleOptionsError,
            f"trial with seed {failing_seed} failed",
        )
        assert pids[0] == {os.getpid()} and len(pids[1]) == 1 and os.getpid() not in pids[1]

    def test_dead_worker_raises_instead_of_hanging(self):
        plan_text = PLAN_TEXT.replace("trials = 4", "trials = 8")  # two workers on 2 CPUs
        proc = subprocess.run(
            [sys.executable, "-c", _DYING_WORKER_SCRIPT, plan_text],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr + proc.stdout
        assert proc.stdout.startswith("a worker process died: ")


class TestCsvOutput:
    def test_header_and_blank_fields(self):
        plan = parse_plan(PLAN_TEXT.replace("trials = 4", "trials = 2"))
        text = format_curve_csv(run_experiment(plan))
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        itc_line = lines[1].split(",")
        assert itc_line[0] == "itc_rr" and itc_line[1] == ""
        glrt_line = lines[3].split(",")
        assert glrt_line[0] == "glrt_rr" and glrt_line[1] == "0.005"
        assert len(lines) == 1 + 6

    def test_p_fa_printed_at_full_precision(self):
        values = (0.005, 0.0050000001, 0.9999999999999999, 1e-05)
        rows = [CurveRow("glrt_rr", p_fa, 300, 4, 0.5, 2.0) for p_fa in values]
        fields = [line.split(",")[1] for line in format_curve_csv(rows).splitlines()[1:]]
        assert fields == ["0.005", "0.0050000001", "0.9999999999999999", "1e-05"]

    def test_run_montecarlo_writes_file(self, tmp_path):
        plan_path = tmp_path / "plan.txt"
        plan_path.write_text(PLAN_TEXT.replace("trials = 4", "trials = 1"))
        out_path = tmp_path / "curve.csv"
        rows = run_montecarlo(plan_path, out_path)
        content = out_path.read_text().splitlines()
        assert content[0] == CSV_HEADER
        assert len(content) == 1 + len(rows)

    def test_run_montecarlo_seed_override(self, tmp_path, monkeypatch):
        seeds = []
        real_generate = harness.generate_scenario

        def recording_generate(config):
            seeds.append(config.seed)
            return real_generate(config)

        monkeypatch.setattr(harness, "generate_scenario", recording_generate)
        use_cpus(monkeypatch, 1)  # the recorder sees every trial in this process
        plan_path = tmp_path / "plan.txt"
        plan_path.write_text(PLAN_TEXT.replace("trials = 4", "trials = 1"))
        first = run_montecarlo(plan_path, tmp_path / "a.csv", seed=1)
        second = run_montecarlo(plan_path, tmp_path / "b.csv", seed=1)
        run_montecarlo(plan_path, tmp_path / "c.csv", seed=2)
        run_montecarlo(plan_path, tmp_path / "d.csv")
        assert first == second
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        # the override replaces the plan's seed 11 in every trial's seed; a
        # run draws its largest M first
        expected = [
            trial_seed(base, None, count, 0) for base in (1, 1, 2, 11) for count in (500, 300)
        ]
        assert seeds == expected and len(set(expected)) == 6

    def test_no_partial_file_on_write_failure(self, tmp_path):
        plan_path = tmp_path / "plan.txt"
        plan_path.write_text(PLAN_TEXT.replace("trials = 4", "trials = 1"))
        with pytest.raises(OSError):
            run_montecarlo(plan_path, tmp_path)  # a directory is not writable

    def test_unwritable_output_fails_before_the_first_trial(self, tmp_path, monkeypatch):
        generated = []
        real_generate = harness.generate_scenario

        def counting_generate(config):
            generated.append(config)
            return real_generate(config)

        monkeypatch.setattr(harness, "generate_scenario", counting_generate)
        plan_path = tmp_path / "plan.txt"
        # four trials, fewer than a worker takes, run in this process, where
        # the counter sees them
        plan_path.write_text(PLAN_TEXT.replace("trials = 4", "trials = 1"))
        out_path = tmp_path / "missing" / "curve.csv"
        with pytest.raises(OSError):
            run_montecarlo(plan_path, out_path)
        assert generated == []
        assert not out_path.parent.exists()

    def test_failed_run_keeps_an_existing_file_and_removes_a_new_one(self, tmp_path, monkeypatch):
        def failing_generate(config):
            raise ValueError("trial failed")

        monkeypatch.setattr(harness, "generate_scenario", failing_generate)
        plan_path = tmp_path / "plan.txt"
        plan_path.write_text(PLAN_TEXT.replace("trials = 4", "trials = 1"))
        existing, new = tmp_path / "old.csv", tmp_path / "new.csv"
        existing.write_bytes(b"earlier results\n")
        for out_path in (existing, new):
            with pytest.raises(ValueError, match="trial failed"):
                run_montecarlo(plan_path, out_path)
        assert existing.read_bytes() == b"earlier results\n"
        assert not new.exists()


class TestDumpScenario:
    def test_round_trip_and_determinism(self, tmp_path):
        config = small_scenario(snapshot_count=3, seed=12)
        config_path = tmp_path / "scenario.cfg"
        config_path.write_text(format_scenario_config(config))
        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        dump_scenario(config_path, first)
        dump_scenario(config_path, second)
        assert first.read_bytes() == second.read_bytes()
        assert np.array_equal(load_dataset(first), generate_scenario(config))

    def test_seed_override_changes_data(self, tmp_path):
        config_path = tmp_path / "scenario.cfg"
        config_path.write_text(format_scenario_config(small_scenario(snapshot_count=3, seed=12)))
        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        dump_scenario(config_path, first, seed=1)
        dump_scenario(config_path, second, seed=2)
        assert first.read_bytes() != second.read_bytes()
