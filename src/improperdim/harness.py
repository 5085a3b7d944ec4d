"""Experiment orchestration.

Detector dispatch on data matrices and dataset files, Monte Carlo sweeps
of detection probability versus sample count with reproducible per-trial
seeding, experiment plan files, and CSV curve emission.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .detectors import (
    GlrtDiagnostics,
    ItcDiagnostics,
    glrt_full,
    glrt_reduced,
    mdl_itc_full,
    mdl_itc_reduced,
)
from .fileio import (
    FormatError,
    SCENARIO_FIELD_KEYS,
    format_scenario_fields,
    load_dataset,
    load_scenario_config,
    parse_float_list,
    parse_int,
    parse_int_list,
    parse_key_values,
    parse_name_list,
    require_key,
    scenario_fields,
    write_dataset,
)
from .simulate import ScenarioConfig, generate_scenario
from .stats import (
    DEFAULT_RCOND,
    _unit_scaled,
    as_data_matrix,
    circularity_coefficients,
    circularity_profile,
    sample_covariances,
)

__all__ = [
    "CSV_HEADER",
    "CurveRow",
    "DETECTOR_NAMES",
    "ExperimentPlan",
    "InfeasibleOptionsError",
    "default_r_max",
    "detect",
    "dump_scenario",
    "format_curve_csv",
    "format_detection_report",
    "format_plan",
    "load_plan",
    "parse_plan",
    "run_detection",
    "run_experiment",
    "run_montecarlo",
    "trial_seed",
]

DETECTOR_NAMES = ("itc_full", "itc_rr", "glrt_full", "glrt_rr")
CSV_HEADER = "detector,p_fa,M,trials,p_detect,mean_selected_rank"

_PLAN_ONLY_KEYS = frozenset({"M", "seed", "trials", "sample_counts", "detectors", "pfa_list", "r_max"})


class InfeasibleOptionsError(ValueError):
    """Requested options cannot be satisfied by the data (e.g. r_max >= M)."""


def default_r_max(sensor_count: int, snapshot_count: int) -> int:
    """Default maximum PCA rank: floor(M/3), capped at the channel count
    and at M - 1."""
    return min(snapshot_count // 3, sensor_count, snapshot_count - 1)


def _resolved_r_max(r_max: int | None, channels: int, count: int, count_name: str) -> int:
    """Maximum PCA rank for m x M data: ``r_max``, or the default when None.

    Raises InfeasibleOptionsError unless it lies in 1..m and below M;
    ``count_name`` names M in the message.
    """
    rank_cap = default_r_max(channels, count) if r_max is None else int(r_max)
    if rank_cap >= count:
        raise InfeasibleOptionsError(
            f"r_max={rank_cap} must be smaller than the {count_name} M={count}"
        )
    if not 1 <= rank_cap <= channels:
        raise InfeasibleOptionsError(f"r_max={rank_cap} must lie in 1..m={channels}")
    return rank_cap


def _decide(data, detector: str, rank_cap, p_fas, rcond: float, box_df: str) -> dict:
    """One detector on a validated data matrix: {p_fa: result}. One spectrum
    or rank profile serves every p_fa; MDL maps every key to one result.
    Both scale the data by a power of two first (the profile does it
    itself), so detection works across the double range."""
    if detector.endswith("_full"):
        spectrum = circularity_coefficients(sample_covariances(_unit_scaled(data)), rcond)
        if detector == "itc_full":
            return dict.fromkeys(p_fas, mdl_itc_full(spectrum))
        return {p_fa: glrt_full(spectrum, p_fa) for p_fa in p_fas}
    profile = circularity_profile(data, rank_cap, rcond)
    if detector == "itc_rr":
        return dict.fromkeys(p_fas, mdl_itc_reduced(profile, rank_cap, data.shape[1]))
    return {p_fa: glrt_reduced(profile, rank_cap, p_fa, df_rule=box_df) for p_fa in p_fas}


def detect(
    samples,
    detector: str,
    *,
    p_fa: float = 0.005,
    r_max: int | None = None,
    rcond: float = DEFAULT_RCOND,
    box_df: str = "derived",
):
    """Run one detector on a data matrix.

    Returns the detector's own result object (DetectionResult for the
    full-sample variants, ItcDiagnostics/GlrtDiagnostics for the
    reduced-rank ones); every result carries ``estimate``. Results are
    bit-identical under power-of-two scaling across the double range.
    """
    data = as_data_matrix(samples)
    channels, count = data.shape
    if detector not in DETECTOR_NAMES:
        raise ValueError(
            f"unknown detector '{detector}' (expected one of {', '.join(DETECTOR_NAMES)})"
        )
    reduced = detector.endswith("_rr")
    rank_cap = _resolved_r_max(r_max, channels, count, "snapshot count") if reduced else None
    return _decide(data, detector, rank_cap, (p_fa,), rcond, box_df)[p_fa]


def run_detection(
    dataset_path,
    detector: str,
    *,
    p_fa: float = 0.005,
    r_max: int | None = None,
    rcond: float = DEFAULT_RCOND,
    box_df: str = "derived",
):
    """Load a dataset file and run one detector on it."""
    return detect(
        load_dataset(dataset_path), detector, p_fa=p_fa, r_max=r_max, rcond=rcond, box_df=box_df
    )


def format_detection_report(
    result, detector: str, channels: int, count: int, p_fa: float | None = None
) -> str:
    """Human-readable report: estimate, selected rank, diagnostic table."""
    head = f"detector: {detector}"
    if p_fa is not None:
        head += f" (p_fa={p_fa:g})"
    lines = [head, f"dataset: m={channels}, M={count}"]
    if detector in ("itc_full", "glrt_full") and count < 2 * channels:
        lines.append(
            "note: M < 2m snapshots; full-sample estimates are unreliable in this "
            "regime (rank deficiency forces sample circularity coefficients to 1), "
            "consider itc_rr or glrt_rr"
        )
    lines.append(f"estimated improper dimension: {result.estimate}")
    if getattr(result, "selected_rank", None) is not None:
        lines.append(f"selected PCA rank: {result.selected_rank}")
    if isinstance(result, ItcDiagnostics):
        lines.append("rank  d_hat     score")
        for rank in range(1, result.per_rank_argmin.size + 1):
            order = int(result.per_rank_argmin[rank - 1])
            lines.append(f"{rank:4d}  {order:5d}  {result.scores[rank - 1, order]: .6g}")
    elif isinstance(result, GlrtDiagnostics):
        lines.append("rank  d_hat  statistic  threshold")
        for rank in range(1, result.per_rank_stop.size + 1):
            stop = int(result.per_rank_stop[rank - 1])
            probe = min(stop, rank - 1)
            note = "" if stop < rank else "  (no order accepted)"
            lines.append(
                f"{rank:4d}  {stop:5d}  {result.statistics[rank - 1, probe]: .6g}"
                f"  {result.thresholds[rank - 1, probe]: .6g}{note}"
            )
    elif result.scores is not None:
        lines.append("order     score")
        for order, score in enumerate(result.scores):
            marker = "  *" if order == result.estimate else ""
            lines.append(f"{order:5d}  {score: .6g}{marker}")
    else:
        lines.append("order  statistic  threshold  verdict")
        for order in range(result.statistics.size):
            verdict = (
                "accept" if result.statistics[order] < result.thresholds[order] else "reject"
            )
            lines.append(
                f"{order:5d}  {result.statistics[order]: .6g}"
                f"  {result.thresholds[order]: .6g}  {verdict}"
            )
        if result.estimate == result.statistics.size:
            lines.append("(every order rejected; estimate saturates at m)")
    return "\n".join(lines)


@dataclass(frozen=True)
class ExperimentPlan:
    """Monte Carlo experiment: a scenario template swept over sample counts.

    ``r_max`` fixes the maximum PCA rank of the reduced-rank detectors;
    None applies the floor(M/3) rule per sample count. The scenario
    template's snapshot count and seed are normalized (they are overridden
    per point / per trial anyway), which makes plan serialization
    round-trip exactly.
    """

    scenario: ScenarioConfig
    sample_counts: tuple[int, ...]
    trials: int
    detectors: tuple[str, ...]
    p_fa_list: tuple[float, ...]
    base_seed: int
    r_max: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "sample_counts", tuple(int(v) for v in self.sample_counts))
        object.__setattr__(self, "detectors", tuple(self.detectors))
        object.__setattr__(self, "p_fa_list", tuple(float(v) for v in self.p_fa_list))
        if not self.sample_counts:
            raise ValueError("sample_counts must not be empty")
        if any(b <= a for a, b in zip(self.sample_counts, self.sample_counts[1:])):
            raise ValueError("sample_counts must be strictly increasing")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not self.detectors:
            raise ValueError("at least one detector is required")
        for name in self.detectors:
            if name not in DETECTOR_NAMES:
                raise ValueError(f"unknown detector '{name}'")
        if len(set(self.detectors)) != len(self.detectors):
            raise ValueError("duplicate detector")
        for value in self.p_fa_list:
            if not 0.0 < value < 1.0:
                raise ValueError("p_fa values must lie strictly between 0 and 1")
        if any(name.startswith("glrt") for name in self.detectors) and not self.p_fa_list:
            raise ValueError("glrt detectors require a nonempty pfa_list")
        if self.r_max is not None and int(self.r_max) < 1:
            raise ValueError("r_max must be positive")
        if not 0 <= self.base_seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        object.__setattr__(
            self,
            "scenario",
            replace(self.scenario, snapshot_count=self.sample_counts[0], seed=self.base_seed),
        )


def parse_plan(text: str) -> ExperimentPlan:
    """Parse experiment plan text into an ExperimentPlan.

    Uses the scenario keys plus trials, sample_counts, detectors,
    pfa_list (required when a glrt detector is listed), optional r_max,
    and seed; an M key is accepted but ignored (sample_counts drives the
    sweep).
    """
    entries = parse_key_values(text)
    unknown = set(entries) - SCENARIO_FIELD_KEYS - _PLAN_ONLY_KEYS
    if unknown:
        raise FormatError(f"unknown key(s): {', '.join(sorted(unknown))}")
    sensor_count, angles, sources, noise = scenario_fields(entries)
    sample_counts = parse_int_list("sample_counts", require_key(entries, "sample_counts"))
    trials = parse_int("trials", require_key(entries, "trials"))
    detectors = parse_name_list("detectors", require_key(entries, "detectors"))
    p_fa_list = parse_float_list("pfa_list", entries.get("pfa_list", ""))
    r_max = parse_int("r_max", entries["r_max"]) if "r_max" in entries else None
    seed = parse_int("seed", require_key(entries, "seed"))
    if not sample_counts:
        raise FormatError("sample_counts must not be empty")
    try:
        scenario = ScenarioConfig(sensor_count, angles, sources, noise, sample_counts[0], seed)
        return ExperimentPlan(scenario, sample_counts, trials, detectors, p_fa_list, seed, r_max)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def format_plan(plan: ExperimentPlan) -> str:
    """Serialize an ExperimentPlan; parse_plan round-trips it."""
    lines = format_scenario_fields(plan.scenario)
    lines.append(f"trials = {plan.trials}")
    lines.append(f"sample_counts = {', '.join(str(v) for v in plan.sample_counts)}")
    lines.append(f"detectors = {', '.join(plan.detectors)}")
    if plan.p_fa_list:
        lines.append(f"pfa_list = {', '.join(repr(v) for v in plan.p_fa_list)}")
    if plan.r_max is not None:
        lines.append(f"r_max = {plan.r_max}")
    lines.append(f"seed = {plan.base_seed}")
    return "\n".join(lines) + "\n"


def load_plan(path) -> ExperimentPlan:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_plan(handle.read())


@dataclass(frozen=True)
class CurveRow:
    """One Monte Carlo summary point: probability of exactly recovering
    the true improper count."""

    detector: str
    p_fa: float | None
    sample_count: int
    trials: int
    p_detect: float
    mean_selected_rank: float | None


def trial_seed(base_seed: int, detector_index: int, sample_count: int, trial_index: int) -> int:
    """Derived 64-bit seed for one trial.

    A pure mixing hash of its arguments, so trials are reproducible in any
    execution order (or concurrently) and per-detector streams never
    collide.
    """
    mixer = np.random.SeedSequence(
        [int(base_seed), int(detector_index), int(sample_count), int(trial_index)]
    )
    return int(mixer.generate_state(1, np.uint64)[0])


def _p_fas(plan: ExperimentPlan, detector: str) -> tuple:
    """The p_fa values of a detector's curves; MDL has one, None."""
    return plan.p_fa_list if detector.startswith("glrt") else (None,)


def _run_trial(plan: ExperimentPlan, rank_caps: dict, box_df: str, task) -> tuple:
    """One Monte Carlo trial, ``task`` = (detector, M, trial index): one
    (estimate, selected_rank) pair per p_fa of the detector. The one trial
    function of the in-process run and of the worker pool."""
    detector, count, trial = task
    seed = trial_seed(plan.base_seed, DETECTOR_NAMES.index(detector), count, trial)
    data = generate_scenario(replace(plan.scenario, snapshot_count=count, seed=seed))
    p_fas = _p_fas(plan, detector)
    outcomes = _decide(data, detector, rank_caps.get(count), p_fas, DEFAULT_RCOND, box_df)
    return tuple((outcomes[p_fa].estimate, outcomes[p_fa].selected_rank) for p_fa in p_fas)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# system, ILP64, and numpy/scipy wheel (scipy-openblas) builds
_OPENBLAS_THREAD_SETTERS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
)


def _one_openblas_thread() -> None:
    """Give every OpenBLAS mapped into this process (Linux) one thread.

    A forked worker inherits the parent's BLAS thread count; two workers
    with two OpenBLAS threads each ran a sweep 3-8x slower on two cores.
    Other BLAS builds are left to their environment variables.
    """
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.rsplit("/", 1)[-1]}
        for path in paths:
            library = ctypes.CDLL(path)
            for name in _OPENBLAS_THREAD_SETTERS:
                if hasattr(library, name):
                    getattr(library, name)(1)
    except OSError:
        pass


# Each worker pays the fork and a cold first trial of every detector (up
# to 0.2 s on 2 cores); on 60-channel plans, two workers lost to one
# process up to 12 white-noise trials and won from 16 on.
_TRIALS_PER_WORKER = 8


def _map_trials(trial, tasks: list) -> list:
    """``trial`` of every task, in task order, over one forked worker
    process per usable CPU, at most one per ``_TRIALS_PER_WORKER`` tasks.
    One worker, or a platform without the fork start method, runs
    in-process without importing multiprocessing. A worker that dies (say,
    killed for memory) raises OSError, where multiprocessing.Pool would
    wait forever."""
    workers = min(_usable_cpus(), len(tasks) // _TRIALS_PER_WORKER)
    if workers > 1:
        import multiprocessing
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(workers, context, _one_openblas_thread) as pool:
                try:
                    return list(pool.map(trial, tasks))
                except BrokenProcessPool as exc:
                    raise OSError(f"a worker process died: {exc}") from exc
    return [trial(task) for task in tasks]


def run_experiment(plan: ExperimentPlan, box_df: str = "derived") -> list[CurveRow]:
    """Run every (detector, p_fa, M) point of the plan.

    Each trial decides through the same dispatch as ``detect``, and a
    detection counts as a success only when the estimate equals the true
    improper source count exactly. An infeasible r_max fails before the
    first trial. Results are independent of detector ordering in the plan
    because per-trial seeds hash the canonical detector index.

    The trials run over one forked worker process per usable CPU (the
    process's CPU affinity, so ``taskset`` limits them), at most one per
    eight trials; a single worker runs them in this process. Every trial's
    seed is a pure hash of (seed, detector, M, trial) and the rows sum
    integer hit and rank counts in (detector, p_fa, M, trial) order, so the
    rows are identical for every worker count. An exception in a trial
    reaches the caller with its type and message; a worker that dies
    raises OSError. Workers set OpenBLAS to one thread each; pin other
    BLAS builds to one thread (``OMP_NUM_THREADS=1``, ``MKL_NUM_THREADS=1``).
    """
    true_dim = sum(1 for source in plan.scenario.sources if source.circularity > 0.0)
    rank_caps = {
        count: _resolved_r_max(plan.r_max, plan.scenario.sensor_count, count, "sample count")
        for count in plan.sample_counts
        if any(name.endswith("_rr") for name in plan.detectors)
    }
    tasks = [
        (detector, count, trial)
        for detector in plan.detectors
        for count in plan.sample_counts
        for trial in range(plan.trials)
    ]
    run_trial = partial(_run_trial, plan, rank_caps, box_df)
    outcomes = dict(zip(tasks, _map_trials(run_trial, tasks)))
    rows = []
    for detector in plan.detectors:
        reduced = detector.endswith("_rr")
        for column, p_fa in enumerate(_p_fas(plan, detector)):
            for count in plan.sample_counts:
                picks = [outcomes[detector, count, trial][column] for trial in range(plan.trials)]
                p_detect = sum(estimate == true_dim for estimate, _ in picks) / plan.trials
                mean_rank = sum(rank for _, rank in picks) / plan.trials if reduced else None
                rows.append(CurveRow(detector, p_fa, count, plan.trials, p_detect, mean_rank))
    return rows


def format_curve_csv(rows) -> str:
    """CSV text with the fixed header and one line per curve row."""
    lines = [CSV_HEADER]
    for row in rows:
        p_fa = "" if row.p_fa is None else f"{row.p_fa:g}"
        rank = "" if row.mean_selected_rank is None else f"{row.mean_selected_rank:g}"
        lines.append(
            f"{row.detector},{p_fa},{row.sample_count},{row.trials},{row.p_detect:g},{rank}"
        )
    return "\n".join(lines) + "\n"


def run_montecarlo(plan_path, out_path, box_df: str = "derived", seed: int | None = None):
    """Load a plan file, run it, and write the detection curve CSV.

    The CSV is written once, after all trials complete; a failure while
    writing removes the partial file.
    """
    plan = load_plan(plan_path)
    if seed is not None:
        plan = replace(plan, base_seed=seed)
    rows = run_experiment(plan, box_df=box_df)
    try:
        with open(out_path, "w", encoding="ascii", newline="\n") as handle:
            handle.write(format_curve_csv(rows))
    except BaseException:
        try:
            os.remove(out_path)
        except OSError:
            pass
        raise
    return rows


def dump_scenario(config_path, out_path, seed: int | None = None) -> ScenarioConfig:
    """Generate one dataset from a scenario config file and write it.

    The written file loads back bit-exactly; the same config and seed
    always produce byte-identical files.
    """
    config = load_scenario_config(config_path)
    if seed is not None:
        config = replace(config, seed=seed)
    write_dataset(out_path, generate_scenario(config))
    return config
