"""End-to-end tests of the command line interface."""

import subprocess
import sys

import numpy as np
import pytest

from improperdim import (
    DETECTOR_NAMES,
    ExperimentPlan,
    format_plan,
    format_scenario_config,
    load_dataset,
    parse_plan,
)
from improperdim.cli import main
from helpers import array_scenario, proper_scenario, small_scenario


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

    def test_infeasible_rmax_exits_3(self, tmp_path):
        config_path = write_config(tmp_path, small_scenario(snapshot_count=20, seed=6))
        data_path = tmp_path / "d.txt"
        main(["simulate", str(config_path), "-o", str(data_path)])
        assert main(["detect", str(data_path), "--detector", "itc-rr", "--rmax", "20"]) == 3

    def test_huge_source_variance_round_trip(self, tmp_path, capsys):
        # covariances of these data overflow unless detection rescales them
        config = small_scenario(variances=(1e308, 5.0), snapshot_count=400, seed=8)
        data_path = tmp_path / "huge.txt"
        assert main(["simulate", str(write_config(tmp_path, config)), "-o", str(data_path)]) == 0
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


class TestMontecarlo:
    def test_writes_csv(self, tmp_path, capsys):
        plan = parse_plan(
            "m = 8\nangles_deg = 40, 70\nsource_variances = 5, 5\n"
            "source_circularities = 0.9, 0.7\nnoise_kind = white\nnoise_variance = 1\n"
            "trials = 1\nsample_counts = 300\ndetectors = itc_rr, glrt_rr\n"
            "pfa_list = 0.005\nseed = 2\n"
        )
        plan_path = tmp_path / "plan.txt"
        plan_path.write_text(format_plan(plan))
        out_path = tmp_path / "curve.csv"
        assert main(["montecarlo", str(plan_path), "-o", str(out_path)]) == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "detector,p_fa,M,trials,p_detect,mean_selected_rank"
        assert len(lines) == 3
        for line in lines[1:]:
            p_detect = float(line.split(",")[4])
            assert p_detect in (0.0, 1.0)

    def test_malformed_plan_exits_2(self, tmp_path):
        plan_path = tmp_path / "plan.txt"
        plan_path.write_text("trials = 1\n")
        assert main(["montecarlo", str(plan_path), "-o", str(tmp_path / "c.csv")]) == 2


class TestParser:
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


def test_cli_never_imports_scipy(tmp_path):
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
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            _IMPORT_PATH_SCRIPT,
            str(config_path),
            str(tmp_path / "data.txt"),
            str(plan_path),
            str(tmp_path / "curve.csv"),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert proc.stdout.splitlines()[-1] == "[]"
