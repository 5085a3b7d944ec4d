"""End-to-end tests of the command line interface."""

import dataclasses
import subprocess
import sys

import numpy as np
import pytest

from improperdim import (
    DETECTOR_NAMES,
    ExperimentPlan,
    NoiseSpec,
    format_plan,
    format_scenario_config,
    load_dataset,
    parse_plan,
    trial_seed,
    write_dataset,
)
from improperdim import harness
from improperdim.cli import main
from helpers import AR_COEFFICIENTS, array_scenario, proper_scenario, small_scenario


def write_config(tmp_path, config, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(format_scenario_config(config))
    return path


class TestSimulate:
    def test_writes_dataset(self, tmp_path, capsys):
        config_path = write_config(tmp_path, small_scenario(snapshot_count=20, seed=3))
        out = tmp_path / "data.txt"
        assert main(["simulate", str(config_path), "-o", str(out)]) == 0
        assert "m=8" in capsys.readouterr().out
        assert load_dataset(out).shape == (8, 20)

    def test_seed_override(self, tmp_path):
        config_path = write_config(tmp_path, small_scenario(snapshot_count=5, seed=3))
        first, second, third = (tmp_path / name for name in ("a.txt", "b.txt", "c.txt"))
        main(["simulate", str(config_path), "-o", str(first), "--seed", "9"])
        main(["simulate", str(config_path), "-o", str(second), "--seed", "9"])
        main(["simulate", str(config_path), "-o", str(third)])
        assert first.read_bytes() == second.read_bytes()
        assert first.read_bytes() != third.read_bytes()

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        config_path = tmp_path / "bad.cfg"
        config_path.write_text("m = 4\n")
        assert main(["simulate", str(config_path), "-o", str(tmp_path / "x.txt")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["simulate", str(tmp_path / "nope.cfg"), "-o", str(tmp_path / "x.txt")]) == 2

    @pytest.mark.parametrize(
        "key, value, message",
        [("source_variances", "inf, 5", "source variance must be positive and finite"),
         ("noise_variance", "inf", "noise variance must be positive and finite"),
         ("ar_coefficients", "nan", "AR coefficients must be finite"),
         ("ar_coefficients", "0.5, inf", "AR coefficients must be finite")],
    )
    def test_non_finite_value_exits_2_without_a_file(self, tmp_path, capsys, key, value, message):
        config = small_scenario(snapshot_count=20, seed=3)
        config = dataclasses.replace(config, noise=NoiseSpec("spatial_ar", 1.0, AR_COEFFICIENTS))
        lines = [
            f"{key} = {value}" if line.startswith(f"{key} =") else line
            for line in format_scenario_config(config).splitlines()
        ]
        config_path = tmp_path / "bad.cfg"
        config_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "x.txt"
        assert main(["simulate", str(config_path), "-o", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_memory_exits_2_without_a_file(self, tmp_path, capsys):
        # 10^17 snapshots of one source take 1.6 EB, beyond any address space,
        # so the allocation fails at once instead of really taking memory
        config = small_scenario(circularities=(0.9,), angles=(40.0,), seed=3)
        config_path = write_config(tmp_path, dataclasses.replace(config, snapshot_count=10**17))
        out = tmp_path / "x.txt"
        assert main(["simulate", str(config_path), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: not enough memory") and err.count("\n") == 1
        assert not out.exists()


class TestDetect:
    def test_white_noise_itc_rr_reports_zero(self, tmp_path, capsys):
        config_path = write_config(tmp_path, proper_scenario(sensor_count=6, snapshot_count=500, seed=4))
        data_path = tmp_path / "noise.txt"
        main(["simulate", str(config_path), "-o", str(data_path)])
        assert main(["detect", str(data_path), "--detector", "itc-rr"]) == 0
        assert "estimated improper dimension: 0" in capsys.readouterr().out

    def test_benchmark_glrt_rr_finds_four(self, tmp_path, capsys):
        config_path = write_config(tmp_path, array_scenario(snapshot_count=1000, seed=2024))
        data_path = tmp_path / "bench.txt"
        main(["simulate", str(config_path), "-o", str(data_path)])
        code = main(["detect", str(data_path), "--detector", "glrt-rr", "--pfa", "0.005"])
        assert code == 0
        assert "estimated improper dimension: 4" in capsys.readouterr().out

    def test_full_sample_advisory_note(self, tmp_path, capsys):
        config_path = write_config(tmp_path, small_scenario(snapshot_count=10, seed=5))
        data_path = tmp_path / "short.txt"
        main(["simulate", str(config_path), "-o", str(data_path)])
        assert main(["detect", str(data_path), "--detector", "itc-full"]) == 0
        assert "M < 2m" in capsys.readouterr().out

    def test_malformed_dataset_exits_2(self, tmp_path, capsys):
        data_path = tmp_path / "bad.txt"
        data_path.write_text("garbage\n")
        assert main(["detect", str(data_path), "--detector", "itc-rr"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_header_larger_than_the_file_exits_2(self, tmp_path, capsys):
        # m = 10^15 exceeds any address space, so a reader that allocated from
        # the header first would fail at once rather than really allocate
        data_path = tmp_path / "huge_m.txt"
        data_path.write_text("improperdim v1 m=1000000000000000 M=1\n1 2\n")
        assert main(["detect", str(data_path), "--detector", "glrt-rr"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: snapshot lines are too short") and err.count("\n") == 1

    def test_infeasible_rmax_exits_3(self, tmp_path):
        config_path = write_config(tmp_path, small_scenario(snapshot_count=20, seed=6))
        data_path = tmp_path / "d.txt"
        main(["simulate", str(config_path), "-o", str(data_path)])
        assert main(["detect", str(data_path), "--detector", "itc-rr", "--rmax", "20"]) == 3

    def test_huge_source_variance_round_trip(self, tmp_path, capsys):
        # covariances of these data overflow unless detection rescales them
        config = small_scenario(variances=(1e308, 5.0), snapshot_count=400, seed=8)
        data_path = tmp_path / "huge.txt"
        for noise in (NoiseSpec("white", 1.0), NoiseSpec("spatial_ar", 1e308, AR_COEFFICIENTS)):
            config_path = write_config(tmp_path, dataclasses.replace(config, noise=noise))
            assert main(["simulate", str(config_path), "-o", str(data_path)]) == 0
            for detector in ("itc-full", "glrt-full", "itc-rr", "glrt-rr"):
                assert main(["detect", str(data_path), "--detector", detector]) == 0
        assert "error" not in capsys.readouterr().err

    def test_box_df_flag(self, tmp_path):
        config_path = write_config(tmp_path, small_scenario(snapshot_count=400, seed=7))
        data_path = tmp_path / "d.txt"
        main(["simulate", str(config_path), "-o", str(data_path)])
        code = main(
            ["detect", str(data_path), "--detector", "glrt-rr", "--box-df", "printed"]
        )
        assert code == 0

    @pytest.mark.parametrize("p_fa", ["7", "nan", "0", "1", "-1"])
    @pytest.mark.parametrize("detector", [name.replace("_", "-") for name in DETECTOR_NAMES])
    def test_bad_pfa_exits_2_for_every_detector(self, tmp_path, capsys, detector, p_fa):
        config_path = write_config(tmp_path, small_scenario(snapshot_count=40, seed=7))
        data_path = tmp_path / "d.txt"
        main(["simulate", str(config_path), "-o", str(data_path)])
        capsys.readouterr()
        assert main(["detect", str(data_path), "--detector", detector, "--pfa", p_fa]) == 2
        err = capsys.readouterr().err
        assert err == "error: p_fa must lie strictly between 0 and 1\n"
        # a plan's pfa_list fails with the same line, whatever its detectors
        plan_path = write_plan(tmp_path)
        text = plan_path.read_text().replace("itc_rr, glrt_rr", detector.replace("-", "_"))
        plan_path.write_text(text.replace("pfa_list = 0.005", f"pfa_list = {p_fa}"))
        assert main(["montecarlo", str(plan_path), "-o", str(tmp_path / "c.csv")]) == 2
        assert capsys.readouterr().err == err

    def test_default_rmax_of_zero_names_its_rule(self, tmp_path, capsys):
        data_path = tmp_path / "two.txt"
        write_dataset(data_path, np.array([[1.0 + 2.0j, 0.5j], [-1.0, 2.0 - 1.0j]]))
        assert main(["detect", str(data_path), "--detector", "itc-rr"]) == 3
        assert capsys.readouterr().err == (
            "error: the default r_max=floor(M/3) is 0 for M=2; it needs M >= 3 snapshots\n"
        )

    @pytest.mark.parametrize("p_fa, threshold", [("1e-17", "78.2879"), ("1e-300", "1381.55")])
    def test_tiny_pfa(self, tmp_path, capsys, p_fa, threshold):
        config_path = write_config(tmp_path, small_scenario(snapshot_count=400, seed=7))
        data_path = tmp_path / "d.txt"
        main(["simulate", str(config_path), "-o", str(data_path)])
        assert main(["detect", str(data_path), "--detector", "glrt-rr", "--pfa", p_fa]) == 0
        # the first table row is rank 1, order 0: 2 d.f., threshold -2 ln p_fa
        lines = capsys.readouterr().out.splitlines()
        assert lines[lines.index("rank  d_hat  statistic  threshold") + 1].split()[3] == threshold


class TestMontecarlo:
    def test_writes_csv(self, tmp_path, capsys):
        plan_path = write_plan(tmp_path)
        out_path = tmp_path / "curve.csv"
        assert main(["montecarlo", str(plan_path), "-o", str(out_path)]) == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "detector,p_fa,M,trials,p_detect,mean_selected_rank"
        assert len(lines) == 3
        for line in lines[1:]:
            p_detect = float(line.split(",")[4])
            assert p_detect in (0.0, 1.0)

    def test_out_of_memory_exits_2_without_a_csv(self, tmp_path, capsys):
        # 1.6 EB per trial, beyond any address space (see the simulate test)
        plan_path = write_plan(tmp_path)
        text = plan_path.read_text().replace("sample_counts = 300", f"sample_counts = {10**17}")
        plan_path.write_text(text.replace("detectors = itc_rr, glrt_rr", "detectors = itc_full"))
        out_path = tmp_path / "curve.csv"
        assert main(["montecarlo", str(plan_path), "-o", str(out_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: not enough memory") and err.count("\n") == 1
        assert not out_path.exists()

    def test_malformed_plan_exits_2(self, tmp_path):
        plan_path = tmp_path / "plan.txt"
        plan_path.write_text("trials = 1\n")
        assert main(["montecarlo", str(plan_path), "-o", str(tmp_path / "c.csv")]) == 2

    def test_csv_identical_for_every_cpu_count(self, tmp_path, monkeypatch):
        plan_path = write_plan(tmp_path, trials=16)  # 16 (M, trial) tasks: two workers
        csvs = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
            out_path = tmp_path / f"curve{cpus}.csv"
            assert main(["montecarlo", str(plan_path), "-o", str(out_path)]) == 0
            csvs.append(out_path.read_bytes())
        assert csvs[0] == csvs[1] == csvs[2]

    @pytest.mark.parametrize(
        "failure, message",
        [
            ('raise ValueError(f"trial with seed {seed} failed")', "trial with seed {seed} failed"),
            ("os._exit(1)", "a worker process died: "),
        ],
        ids=["trial-raises", "worker-dies"],
    )
    def test_worker_failure_exits_2_without_a_csv(self, tmp_path, failure, message):
        plan_path = write_plan(tmp_path, trials=16)  # 16 (M, trial) tasks: two workers
        plan = parse_plan(plan_path.read_text())
        seed = trial_seed(plan.base_seed, None, 300, 1)
        out_path = tmp_path / "curve.csv"
        script = _FAILING_TRIAL_SCRIPT.replace("FAILURE", failure)
        proc = subprocess.run(
            [sys.executable, "-c", script, str(plan_path), str(out_path), str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: " + message.format(seed=seed)), proc.stderr
        assert proc.stderr.count("\n") == 1
        assert not out_path.exists()


# Runs montecarlo over two workers with one trial made to fail (FAILURE is
# replaced by a statement); the trial fails inside a worker process.
_FAILING_TRIAL_SCRIPT = """
import os
import sys
from improperdim import harness
from improperdim.cli import main
plan, curve, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
real_generate = harness.generate_scenario
parent = os.getpid()

def failing_generate(config):
    assert os.getpid() != parent
    if config.seed == seed:
        FAILURE
    return real_generate(config)

harness.generate_scenario = failing_generate
harness._usable_cpus = lambda: 2
sys.exit(main(["montecarlo", plan, "-o", curve]))
"""


def write_plan(tmp_path, trials=1):
    plan = parse_plan(
        "m = 8\nangles_deg = 40, 70\nsource_variances = 5, 5\n"
        "source_circularities = 0.9, 0.7\nnoise_kind = white\nnoise_variance = 1\n"
        f"trials = {trials}\nsample_counts = 300\ndetectors = itc_rr, glrt_rr\n"
        "pfa_list = 0.005\nseed = 2\n"
    )
    plan_path = tmp_path / "plan.txt"
    plan_path.write_text(format_plan(plan))
    return plan_path


class TestParser:
    @pytest.mark.parametrize(
        "option, message",
        [
            ("--pfa=abc", "key '--pfa': expected a number, got 'abc'"),
            ("--rmax=1.5", "key '--rmax': expected an integer, got '1.5'"),
            ("--seed=x", "key '--seed': expected an integer, got 'x'"),
        ],
    )
    def test_bad_number_exits_2_with_one_error_line(self, tmp_path, capsys, option, message):
        data_path = tmp_path / "d.txt"
        write_dataset(data_path, np.ones((2, 4)))
        config_path = write_config(tmp_path, small_scenario(snapshot_count=5, seed=1))
        commands = {
            "--pfa": [["detect", str(data_path), "--detector", "glrt-rr"]],
            "--rmax": [["detect", str(data_path), "--detector", "itc-rr"]],
            "--seed": [
                ["simulate", str(config_path), "-o", str(tmp_path / "out.txt")],
                ["montecarlo", str(write_plan(tmp_path)), "-o", str(tmp_path / "out.csv")],
            ],
        }
        for argv in commands[option.split("=")[0]]:
            assert main([*argv, option]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out.txt").exists() and not (tmp_path / "out.csv").exists()

    def test_detector_choices_are_hyphenated(self, tmp_path, capsys):
        data_path = tmp_path / "d.txt"
        data_path.write_text("improperdim v1 m=1 M=1\n1 0\n")
        with pytest.raises(SystemExit):
            main(["detect", str(data_path), "--detector", "itc_rr"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


def test_console_entry_point_runs(tmp_path):
    config_path = write_config(tmp_path, small_scenario(snapshot_count=5, seed=1))
    out_path = tmp_path / "data.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "improperdim.cli", "simulate", str(config_path), "-o", str(out_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert out_path.exists()
    assert np.array_equal(load_dataset(out_path).shape, (8, 5))


# Runs every subcommand in one fresh interpreter and reports which scipy
# modules it loaded; importing scipy.linalg costs about 0.3 s per process.
_IMPORT_PATH_SCRIPT = """
import sys
from improperdim.cli import main
config, data, plan, curve = sys.argv[1:]
assert main(["simulate", config, "-o", data]) == 0
assert main(["detect", data, "--detector", "glrt-rr"]) == 0
assert main(["montecarlo", plan, "-o", curve]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
sys.exit("scipy" in sys.modules)
"""


def run_every_subcommand(tmp_path, script):
    """Run ``script`` in a fresh interpreter with a scenario config, a
    dataset path, a one-trial four-detector plan and a CSV path."""
    config_path = write_config(tmp_path, small_scenario(snapshot_count=40, seed=11))
    plan = ExperimentPlan(
        scenario=small_scenario(),
        sample_counts=(40,),
        trials=1,
        detectors=DETECTOR_NAMES,
        p_fa_list=(0.005,),
        base_seed=12,
    )
    plan_path = tmp_path / "plan.txt"
    plan_path.write_text(format_plan(plan))
    paths = (config_path, tmp_path / "data.txt", plan_path, tmp_path / "curve.csv")
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, paths)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    return proc


def test_cli_never_imports_scipy(tmp_path):
    proc = run_every_subcommand(tmp_path, _IMPORT_PATH_SCRIPT)
    assert proc.stdout.splitlines()[-1] == "[]"


# Blocks every scipy import, then factors two TestTakagi matrices (a
# repeated singular value, and one beside a zero block) and runs every
# subcommand: the package needs numpy only.
_NO_SCIPY_SCRIPT = """
import sys
sys.modules["scipy"] = None
import numpy as np
from improperdim import takagi
from improperdim.cli import main
for seed, values in ((11, [0.7, 0.7, 0.7, 0.2, 0.2]), (12, [0.5, 0.5, 0.0, 0.0])):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((len(values),) * 2) + 1j * rng.standard_normal((len(values),) * 2)
    q, r = np.linalg.qr(raw)
    base = q * (np.diag(r) / np.abs(np.diag(r)))
    sym = base @ np.diag(values) @ base.T
    out = takagi(sym)
    factor = out.factor_unitary
    assert np.linalg.norm(factor @ np.diag(out.singular_values) @ factor.T - sym) <= 1e-9
    assert np.abs(factor @ factor.conj().T - np.eye(len(values))).max() <= 1e-10
config, data, plan, curve = sys.argv[1:]
assert main(["simulate", config, "-o", data]) == 0
assert main(["detect", data, "--detector", "glrt-rr"]) == 0
assert main(["montecarlo", plan, "-o", curve]) == 0
"""


def test_package_runs_without_scipy(tmp_path):
    run_every_subcommand(tmp_path, _NO_SCIPY_SCRIPT)


# Loads the package, runs simulate and detect, then a one-trial montecarlo
# on one usable CPU (so in-process), in one fresh interpreter, and reports
# the multiprocessing modules loaded after each step; importing
# multiprocessing costs about 17 ms, about 5% of a detect process.
_NO_POOL_SCRIPT = """
import sys

def pool_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "multiprocessing")

import improperdim
from improperdim import harness
from improperdim.cli import main
config, data, plan, curve = sys.argv[1:]
loaded = {"import": pool_modules()}
assert main(["simulate", config, "-o", data]) == 0
assert main(["detect", data, "--detector", "glrt-rr"]) == 0
loaded["simulate, detect"] = pool_modules()
harness._usable_cpus = lambda: 1
assert main(["montecarlo", plan, "-o", curve]) == 0
loaded["montecarlo on one CPU"] = pool_modules()
print(loaded)
sys.exit(any(loaded.values()))
"""


def test_detect_and_serial_montecarlo_never_import_multiprocessing(tmp_path):
    run_every_subcommand(tmp_path, _NO_POOL_SCRIPT)


# Runs one detect in a fresh interpreter and reports which of the random
# generators, the process pool and futures it loaded beyond what numpy's
# own import loads (numpy before 2.0 imports numpy.random itself).
_DETECT_IMPORTS_SCRIPT = """
import sys
import numpy
before = set(sys.modules)
from improperdim.cli import main
assert main(["detect", sys.argv[1], "--detector", "glrt-rr"]) == 0
heavy = ("numpy.random", "multiprocessing", "concurrent.futures")
print(sorted(name for name in set(sys.modules) - before if name.startswith(heavy)))
"""


def test_detect_imports_no_random_generator_or_pool(tmp_path):
    data_path = tmp_path / "data.txt"
    rng = np.random.default_rng(3)
    write_dataset(data_path, rng.standard_normal((4, 30)) + 1j * rng.standard_normal((4, 30)))
    proc = subprocess.run(
        [sys.executable, "-c", _DETECT_IMPORTS_SCRIPT, str(data_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
