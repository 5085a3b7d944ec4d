#!/usr/bin/env python3
"""Walkthrough: Monte Carlo detection probability versus sample count.

Sweeps the benchmark scenario over a grid of snapshot counts and runs
both reduced-rank detectors on the same independent trials per point,
counting only exact recoveries of the true improper dimension (4). Writes the
curve as CSV next to printing it. 60 trials per point keeps this demo
around a minute; the acceptance suite runs the full 500-trial version.

The CLI equivalent:

    improperdim montecarlo plan.txt -o detection_curves.csv
"""

from improperdim import ExperimentPlan, NoiseSpec, ScenarioConfig, SourceSpec, format_curve_csv, run_experiment

scenario = ScenarioConfig(
    sensor_count=60,
    angles_deg=(10.0, 15.0, 20.0, 25.0),
    sources=tuple(SourceSpec(5.0, k) for k in (1.0, 0.9, 0.8, 0.6)),
    noise=NoiseSpec("white", 1.0),
    snapshot_count=200,
    seed=0,
)

plan = ExperimentPlan(
    scenario=scenario,
    sample_counts=(150, 200, 300, 500, 800),
    trials=60,
    detectors=("itc_rr", "glrt_rr"),
    p_fa_list=(0.005, 0.001),
    base_seed=31,
)

print("white-noise benchmark, 60 trials per point (true dimension 4)")
rows = run_experiment(plan)

print(f"{'detector':>10} {'p_fa':>6} | " + " ".join(f"M={m:<4d}" for m in plan.sample_counts))
# one curve per (detector, p_fa) group of rows, in row order; p_fa is None for MDL
for detector, p_fa in dict.fromkeys((row.detector, row.p_fa) for row in rows):
    cells = [row for row in rows if (row.detector, row.p_fa) == (detector, p_fa)]
    cells.sort(key=lambda row: row.sample_count)
    label = "" if p_fa is None else f"{p_fa:g}"
    print(
        f"{detector:>10} {label:>6} | "
        + " ".join(f"{row.p_detect:6.2f}" for row in cells)
    )

out_path = "detection_curves.csv"
with open(out_path, "w", encoding="ascii") as handle:
    handle.write(format_curve_csv(rows))
print(f"\nwrote {out_path}")
print(
    "\nReading the curves: the criterion-based detector needs no tuning and\n"
    "saturates first; the test-based detector trades overfitting (larger\n"
    "p_fa) against underfitting (smaller p_fa) around its false-alarm rate."
)
