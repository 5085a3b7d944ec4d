"""What the CLI does, rebuilt from the package's public functions.

Each step runs inside a tracer span named ``<module>.<function>``, so the
same code gives the reference outputs (tracer disabled) and the
per-layer timings (tracer enabled). ``op.*`` spans wrap one operation;
their self time is the harness glue around the module calls.
"""

from __future__ import annotations

from dataclasses import replace

from improperdim import (
    DETECTOR_NAMES,
    CurveRow,
    circularity_coefficients,
    circularity_profile,
    default_r_max,
    format_curve_csv,
    format_detection_report,
    generate_scenario,
    glrt_full,
    glrt_reduced,
    load_dataset,
    load_plan,
    load_scenario_config,
    mdl_itc_full,
    mdl_itc_reduced,
    sample_covariances,
    trial_seed,
    write_dataset,
)

P_FA = 0.005  # the CLI's default --pfa
FULL_DETECTORS = ("itc_full", "glrt_full")


def _glrt(tracer, name, fn, *args, **kwargs):
    """A GLRT decision; the first one in the process is tagged cold and
    remembered so the caller can repeat it warm."""
    if tracer.enabled and tracer.cold_call is None:
        tracer.cold_call = (name, fn, args, kwargs)
        with tracer.span(name, cold=True):
            return fn(*args, **kwargs)
    return tracer.call(name, fn, *args, **kwargs)


def decide(tracer, detector: str, data, rank_cap, p_fas):
    """One detector on one data matrix: {p_fa or None: result}."""
    if detector in FULL_DETECTORS:
        pair = tracer.call("stats.sample_covariances", sample_covariances, data)
        spectrum = tracer.call("stats.circularity_coefficients", circularity_coefficients, pair)
        if detector == "itc_full":
            return {None: tracer.call("detectors.mdl_itc_full", mdl_itc_full, spectrum)}
        return {p: _glrt(tracer, "detectors.glrt_full", glrt_full, spectrum, p) for p in p_fas}
    profile = tracer.call("stats.circularity_profile", circularity_profile, data, rank_cap)
    if detector == "itc_rr":
        return {
            None: tracer.call(
                "detectors.mdl_itc_reduced", mdl_itc_reduced, profile, rank_cap, data.shape[1]
            )
        }
    return {
        p: _glrt(tracer, "detectors.glrt_reduced", glrt_reduced, profile, rank_cap, p)
        for p in p_fas
    }


def detect_report(tracer, data, detector: str) -> str:
    """The report ``improperdim detect --detector <detector>`` prints."""
    channels, count = data.shape
    rank_cap = None if detector in FULL_DETECTORS else default_r_max(channels, count)
    p_fa = P_FA if detector.startswith("glrt") else None
    result = decide(tracer, detector, data, rank_cap, (P_FA,))[p_fa]
    return format_detection_report(result, detector, channels, count, p_fa=p_fa)


def detect_op(tracer, dataset_path, detector: str) -> str:
    with tracer.span("op.detect"):
        data = tracer.call("fileio.load_dataset", load_dataset, dataset_path)
        return detect_report(tracer, data, detector)


def simulate_op(tracer, config_path, out_path) -> None:
    """``improperdim simulate`` without a seed override."""
    with tracer.span("op.simulate"):
        config = tracer.call("fileio.load_scenario_config", load_scenario_config, config_path)
        data = tracer.call("simulate.generate_scenario", generate_scenario, config)
        tracer.call("fileio.write_dataset", write_dataset, out_path, data)


def run_plan(tracer, plan) -> list:
    """Curve rows of a plan, trial by trial as ``run_experiment`` runs it."""
    true_dim = sum(1 for source in plan.scenario.sources if source.circularity > 0.0)
    channels = plan.scenario.sensor_count
    cells = {}
    with tracer.span("op.sweep"):
        for detector in plan.detectors:
            detector_index = DETECTOR_NAMES.index(detector)
            p_fas = plan.p_fa_list if detector.startswith("glrt") else (None,)
            reduced = detector.endswith("_rr")
            for count in plan.sample_counts:
                rank_cap = None
                if reduced:
                    rank_cap = plan.r_max if plan.r_max is not None else default_r_max(channels, count)
                hits = dict.fromkeys(p_fas, 0)
                ranks = dict.fromkeys(p_fas, 0)
                for trial in range(plan.trials):
                    with tracer.span("op.trial"):
                        config = replace(
                            plan.scenario,
                            snapshot_count=count,
                            seed=trial_seed(plan.base_seed, detector_index, count, trial),
                        )
                        data = tracer.call(
                            "simulate.generate_scenario", generate_scenario, config
                        )
                        outcomes = decide(tracer, detector, data, rank_cap, p_fas)
                        for p_fa, outcome in outcomes.items():
                            hits[p_fa] += outcome.estimate == true_dim
                            if reduced:
                                ranks[p_fa] += outcome.selected_rank
                for p_fa in p_fas:
                    cells[(detector, p_fa, count)] = CurveRow(
                        detector=detector,
                        p_fa=p_fa,
                        sample_count=count,
                        trials=plan.trials,
                        p_detect=hits[p_fa] / plan.trials,
                        mean_selected_rank=ranks[p_fa] / plan.trials if reduced else None,
                    )
    return [
        cells[(detector, p_fa, count)]
        for detector in plan.detectors
        for p_fa in (plan.p_fa_list if detector.startswith("glrt") else (None,))
        for count in plan.sample_counts
    ]


def sweep_op(tracer, plan_path) -> str:
    """The CSV ``improperdim montecarlo`` writes for a plan file."""
    plan = tracer.call("harness.load_plan", load_plan, plan_path)
    rows = run_plan(tracer, plan)
    return tracer.call("harness.format_curve_csv", format_curve_csv, rows)
