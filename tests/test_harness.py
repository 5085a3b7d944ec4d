"""Tests for detector dispatch, plans, Monte Carlo runs, and CSV output."""

import ctypes
import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from improperdim import harness
from improperdim import (
    CSV_HEADER,
    DETECTOR_NAMES,
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
from helpers import AR_COEFFICIENTS, proper_scenario, small_scenario

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
        assert first != trial_seed(7, 2, 500, 3)
        assert first != trial_seed(7, 1, 400, 3)
        assert first != trial_seed(8, 1, 500, 3)
        assert 0 <= first < 2**64


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


def assert_same_result(first, second):
    assert type(first) is type(second)
    for field in dataclasses.fields(first):
        mine, theirs = getattr(first, field.name), getattr(second, field.name)
        if isinstance(mine, np.ndarray):
            assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), field.name
        else:
            assert mine == theirs, field.name


class TestScaleRobustDetection:
    @pytest.mark.parametrize("detector", DETECTOR_NAMES)
    def test_power_of_two_scaling_is_bit_identical(self, detector):
        data = generate_scenario(small_scenario(snapshot_count=300, seed=12))
        reference = detect(data, detector)
        for exponent in (-600, -7, 5, 600):
            scaled = np.ldexp(data.real, exponent) + 1j * np.ldexp(data.imag, exponent)
            assert_same_result(detect(scaled, detector), reference)

    @pytest.mark.parametrize("detector", DETECTOR_NAMES)
    def test_extreme_scales_keep_the_estimate(self, detector):
        data = generate_scenario(small_scenario(snapshot_count=300, seed=13))
        reference = detect(data, detector).estimate
        assert reference == 2
        for scale in (1e-170, 1e160):
            assert detect(scale * data, detector).estimate == reference


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


class TestDetectionReport:
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

    def test_unknown_detector_rejected(self):
        with pytest.raises(FormatError, match="unknown detector"):
            parse_plan(PLAN_TEXT.replace("detectors = itc_rr, glrt_rr", "detectors = pca"))

    def test_sample_counts_must_increase(self):
        with pytest.raises(FormatError, match="strictly increasing"):
            parse_plan(PLAN_TEXT.replace("sample_counts = 300, 500", "sample_counts = 500, 300"))

    def test_unknown_key_rejected(self):
        with pytest.raises(FormatError, match="unknown key"):
            parse_plan(PLAN_TEXT + "workers = 4\n")


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
        base = parse_plan(PLAN_TEXT)
        flipped = ExperimentPlan(
            scenario=base.scenario,
            sample_counts=base.sample_counts,
            trials=base.trials,
            detectors=("glrt_rr", "itc_rr"),
            p_fa_list=base.p_fa_list,
            base_seed=base.base_seed,
        )
        first = {(r.detector, r.p_fa, r.sample_count): r for r in run_experiment(base)}
        second = {(r.detector, r.p_fa, r.sample_count): r for r in run_experiment(flipped)}
        assert first == second

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

    @pytest.mark.parametrize(
        "text, box_df",
        [
            (PLAN_TEXT, "derived"),
            (PLAN_TEXT, "printed"),
            (AR_PLAN_TEXT, "derived"),
            (AR_PLAN_TEXT.replace("trials = 4", "trials = 3\nr_max = 5"), "printed"),
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
        plan = parse_plan(PLAN_TEXT)
        csvs = []
        for cpus in (1, 32):
            use_cpus(monkeypatch, cpus)
            csvs.append(format_curve_csv(run_experiment(plan)))
        assert csvs[0] == csvs[1]

    @pytest.mark.parametrize(
        "cpus, trials, in_workers", [(2, 8, True), (2, 7, False), (1, 8, False)]
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
        assert len(list(tmp_path.iterdir())) == 2 * trials
        if in_workers:
            assert os.getpid() not in pids and 1 <= len(pids) <= 2
        else:  # one CPU, or fewer than eight trials per worker, run in-process
            assert pids == {os.getpid()}

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
    def test_workers_run_openblas_on_one_thread(self, monkeypatch, tmp_path):
        parent_counts = openblas_thread_counts()
        if not parent_counts:
            pytest.skip("numpy does not use a shared OpenBLAS")
        real_generate = harness.generate_scenario

        def recording_generate(config):
            (tmp_path / f"{config.seed}").write_text(repr(openblas_thread_counts()))
            return real_generate(config)

        monkeypatch.setattr(harness, "generate_scenario", recording_generate)
        use_cpus(monkeypatch, 2)
        # forked workers inherit two threads, whatever OPENBLAS_NUM_THREADS says
        set_openblas_threads([2] * len(parent_counts))
        try:
            assert openblas_thread_counts() == [2] * len(parent_counts)
            run_experiment(parse_plan(PLAN_TEXT))
        finally:
            set_openblas_threads(parent_counts)
        assert {path.read_text() for path in tmp_path.iterdir()} == {"[1]"}

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        plan = parse_plan(PLAN_TEXT)
        failing_seed = trial_seed(plan.base_seed, DETECTOR_NAMES.index("glrt_rr"), 500, 2)
        real_generate = harness.generate_scenario

        def failing_generate(config):
            if config.seed == failing_seed:
                raise InfeasibleOptionsError(f"trial with seed {config.seed} failed")
            return real_generate(config)

        monkeypatch.setattr(harness, "generate_scenario", failing_generate)
        raised = []
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            with pytest.raises(InfeasibleOptionsError) as info:
                run_experiment(plan)
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1] == (
            InfeasibleOptionsError,
            f"trial with seed {failing_seed} failed",
        )

    def test_dead_worker_raises_instead_of_hanging(self):
        proc = subprocess.run(
            [sys.executable, "-c", _DYING_WORKER_SCRIPT, PLAN_TEXT],
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

    def test_run_montecarlo_writes_file(self, tmp_path):
        plan_path = tmp_path / "plan.txt"
        plan_path.write_text(PLAN_TEXT.replace("trials = 4", "trials = 1"))
        out_path = tmp_path / "curve.csv"
        rows = run_montecarlo(plan_path, out_path)
        content = out_path.read_text().splitlines()
        assert content[0] == CSV_HEADER
        assert len(content) == 1 + len(rows)

    def test_run_montecarlo_seed_override(self, tmp_path):
        plan_path = tmp_path / "plan.txt"
        plan_path.write_text(PLAN_TEXT.replace("trials = 4", "trials = 1"))
        first = run_montecarlo(plan_path, tmp_path / "a.csv", seed=1)
        second = run_montecarlo(plan_path, tmp_path / "b.csv", seed=1)
        third = run_montecarlo(plan_path, tmp_path / "c.csv", seed=2)
        assert first == second
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert first != third

    def test_no_partial_file_on_write_failure(self, tmp_path):
        plan_path = tmp_path / "plan.txt"
        plan_path.write_text(PLAN_TEXT.replace("trials = 4", "trials = 1"))
        with pytest.raises(OSError):
            run_montecarlo(plan_path, tmp_path)  # a directory is not writable


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
