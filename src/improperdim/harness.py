"""Experiment orchestration.

Detector dispatch on data matrices and dataset files, Monte Carlo sweeps
of detection probability versus sample count with reproducible per-trial
seeding, experiment plan files, and CSV curve emission.
"""

from __future__ import annotations

import os
from collections import namedtuple
from contextlib import suppress
from dataclasses import dataclass, replace
from functools import partial
from itertools import product

import numpy as np

from .detectors import _check_df_rule, glrt_full, glrt_reduced, mdl_itc_full, mdl_itc_reduced
from .fileio import (
    FormatError,
    format_scenario_fields,
    load_dataset,
    load_scenario_config,
    parse_key_values,
    parse_name_list,
    parse_number,
    parse_numbers,
    require_key,
    scenario_config,
    write_dataset,
)
from .numerics import _whole
from .simulate import ScenarioConfig, generate_scenario
from .stats import _covariance_pair, _principal_spectra, as_data_matrix

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


# What each detector name means: whether it scans PCA ranks 1..r_max (else it takes the
# one rank-m spectrum), whether it takes a p_fa, and its decision on the spectra, given the
# keywords it names of r_max, count (M), p_fa and rule.
_Detector = namedtuple("_Detector", "reduced tested decide")
_DETECTORS = {
    "itc_full": _Detector(False, False, lambda spectra, **_: mdl_itc_full(spectra[0])),
    "itc_rr": _Detector(
        True, False, lambda spectra, r_max, count, **_: mdl_itc_reduced(spectra, r_max, count)
    ),
    "glrt_full": _Detector(False, True, lambda spectra, p_fa, **_: glrt_full(spectra[0], p_fa)),
    "glrt_rr": _Detector(
        True, True, lambda spectra, r_max, p_fa, rule, **_: glrt_reduced(spectra, r_max, p_fa, rule)
    ),
}
DETECTOR_NAMES = tuple(_DETECTORS)
CSV_HEADER = "detector,p_fa,M,trials,p_detect,mean_selected_rank"

_PLAN_ONLY_KEYS = frozenset({"M", "trials", "sample_counts", "detectors", "pfa_list", "r_max"})


class InfeasibleOptionsError(ValueError):
    """Requested options cannot be satisfied by the data (e.g. r_max >= M)."""


def default_r_max(sensor_count: int, snapshot_count: int) -> int:
    """Default maximum PCA rank: floor(M/3), capped at the channel count
    and at M - 1."""
    return min(snapshot_count // 3, sensor_count, snapshot_count - 1)


def _resolved_r_max(r_max: int | None, channels: int, count: int) -> int:
    """Maximum PCA rank for m x M data: ``r_max``, or the default when None.

    Raises InfeasibleOptionsError unless it lies in 1..m and below M.
    """
    rank_cap = default_r_max(channels, count) if r_max is None else _whole("r_max", r_max)
    if rank_cap >= count:
        raise InfeasibleOptionsError(
            f"r_max={rank_cap} must be smaller than the snapshot count M={count}"
        )
    if r_max is None and rank_cap < 1:
        raise InfeasibleOptionsError(
            f"the default r_max=floor(M/3) is 0 for M={count}; it needs M >= 3 snapshots"
        )
    if not 1 <= rank_cap <= channels:
        raise InfeasibleOptionsError(f"r_max={rank_cap} must lie in 1..m={channels}")
    return rank_cap


def _check_options(detectors, p_fas, box_df: str = "derived") -> None:
    """Refuse an unknown detector, an unknown d.f. rule or a p_fa outside
    (0, 1): the one option check of ``detect``, ``ExperimentPlan``,
    ``run_experiment`` (each before its first trial) and the report."""
    for name in detectors:
        if name not in DETECTOR_NAMES:
            raise ValueError(
                f"unknown detector '{name}' (expected one of {', '.join(DETECTOR_NAMES)})"
            )
    _check_df_rule(box_df)
    if not all(0.0 < p_fa < 1.0 for p_fa in p_fas):
        raise ValueError("p_fa must lie strictly between 0 and 1")


def _decide(data, detectors, r_max, p_fas, box_df: str) -> dict:
    """Detectors on one data matrix: {(detector, p_fa, None if untested): result}.
    One pair of the data scaled by a power of two (so detection works across
    the double range) and one spectrum call over ranks 1..r_max, plus rank m
    for a full-sample detector, serve every detector and p_fa."""
    channels, count = data.shape
    scans = [_DETECTORS[name].reduced for name in detectors]
    rank_cap = _resolved_r_max(r_max, channels, count) if any(scans) else 0
    full = [] if all(scans) or rank_cap == channels else [channels]
    pair = _covariance_pair(data, unit=True)
    spectra = _principal_spectra(pair, [*range(1, rank_cap + 1), *full])
    options = {"r_max": rank_cap, "count": count, "rule": box_df}
    outcomes = {}
    for name in detectors:
        reduced, tested, decide = _DETECTORS[name]
        chosen = spectra[:rank_cap] if reduced else spectra[-1:]
        for p_fa in p_fas if tested else (None,):
            outcomes[name, p_fa] = decide(chosen, p_fa=p_fa, **options)
    return outcomes


def detect(
    samples,
    detector: str,
    *,
    p_fa: float = 0.005,
    r_max: int | None = None,
    box_df: str = "derived",
):
    """Run one detector on a data matrix.

    Returns the detector's own result object (DetectionResult for the
    full-sample variants, ItcDiagnostics/GlrtDiagnostics for the
    reduced-rank ones); every result carries ``estimate``. Results are
    bit-identical under power-of-two scaling across the double range.
    """
    data = as_data_matrix(samples)
    _check_options((detector,), (p_fa,), box_df)  # every option, for every detector
    return [*_decide(data, (detector,), r_max, (p_fa,), box_df).values()][0]


def run_detection(
    dataset_path,
    detector: str,
    *,
    p_fa: float = 0.005,
    r_max: int | None = None,
    box_df: str = "derived",
):
    """Load a dataset file and run one detector on it."""
    return detect(load_dataset(dataset_path), detector, p_fa=p_fa, r_max=r_max, box_df=box_df)


def format_detection_report(
    result, detector: str, channels: int, count: int, p_fa: float | None = None
) -> str:
    """Human-readable report: estimate, selected rank, diagnostic table.
    The header shows ``p_fa`` for the glrt detectors only. A reduced-rank
    table has one row per PCA rank, its cells taken at the rank's pick; a
    full-sample table has one row per order."""
    _check_options((detector,), ())
    reduced, tested, _ = _DETECTORS[detector]
    shown = f" (p_fa={float(p_fa)!r})" if p_fa is not None and tested else ""
    lines = [f"detector: {detector}{shown}", f"dataset: m={channels}, M={count}"]
    if not reduced and count < 2 * channels:
        lines.append(
            "note: M < 2m snapshots; full-sample estimates are unreliable in this "
            "regime (rank deficiency forces sample circularity coefficients to 1), "
            "consider itc_rr or glrt_rr"
        )
    lines.append(f"estimated improper dimension: {result.estimate}")
    tables = (result.statistics, result.thresholds) if tested else (result.scores,)
    columns = "  statistic  threshold" if tested else "     score"
    if reduced:
        lines += [f"selected PCA rank: {result.selected_rank}", "rank  d_hat" + columns]
        picks = result.per_rank_stop if tested else result.per_rank_argmin
        for rank, pick in enumerate(picks.tolist(), 1):
            cells = "".join(f"  {table[rank - 1, min(pick, rank - 1)]: .6g}" for table in tables)
            note = "" if pick < rank else "  (no order accepted)"
            lines.append(f"{rank:4d}  {pick:5d}{cells}{note}")
    else:
        lines.append("order" + columns + ("  verdict" if tested else ""))
        for order, row in enumerate(zip(*tables)):
            cells = "".join(f"  {cell: .6g}" for cell in row)
            if tested:
                note = "  accept" if row[0] < row[1] else "  reject"
            else:
                note = "  *" if order == result.estimate else ""
            lines.append(f"{order:5d}{cells}{note}")
        if tested and result.estimate == len(result.statistics):
            lines.append("(every order rejected; estimate saturates at m)")
    return "\n".join(lines)


@dataclass(frozen=True)
class ExperimentPlan:
    """Monte Carlo experiment: a scenario template swept over sample counts.

    ``r_max`` fixes the maximum PCA rank of the reduced-rank detectors;
    None applies the floor(M/3) rule per sample count. The scenario
    template's snapshot count and seed become the first sample count and
    the base seed, which the scenario checks (each point and trial sets
    its own), so plan serialization round-trips exactly.
    """

    scenario: ScenarioConfig
    sample_counts: tuple[int, ...]
    trials: int
    detectors: tuple[str, ...]
    p_fa_list: tuple[float, ...]
    base_seed: int
    r_max: int | None = None

    def __post_init__(self):
        counts = tuple(_whole("sample_counts", v) for v in self.sample_counts)
        object.__setattr__(self, "sample_counts", counts)
        object.__setattr__(self, "trials", _whole("trials", self.trials, 1))
        object.__setattr__(self, "detectors", tuple(self.detectors))
        object.__setattr__(self, "p_fa_list", tuple(float(v) for v in self.p_fa_list))
        if not self.sample_counts:
            raise ValueError("sample_counts must not be empty")
        if any(b <= a for a, b in zip(self.sample_counts, self.sample_counts[1:])):
            raise ValueError("sample_counts must be strictly increasing")
        if not self.detectors:
            raise ValueError("at least one detector is required")
        _check_options(self.detectors, self.p_fa_list)
        for name, values in (("detector", self.detectors), ("p_fa", self.p_fa_list)):
            if len(set(values)) != len(values):
                raise ValueError(f"duplicate {name}")
        if any(_DETECTORS[name].tested for name in self.detectors) and not self.p_fa_list:
            raise ValueError("glrt detectors require a nonempty pfa_list")
        if self.r_max is not None:
            object.__setattr__(self, "r_max", _whole("r_max", self.r_max, 1))
        scenario = replace(self.scenario, snapshot_count=self.sample_counts[0], seed=self.base_seed)
        object.__setattr__(self, "scenario", scenario)


def parse_plan(text: str) -> ExperimentPlan:
    """Parse experiment plan text into an ExperimentPlan.

    Uses the scenario keys plus trials, sample_counts, detectors,
    pfa_list (required when a glrt detector is listed), optional r_max,
    and seed; an M key is accepted but ignored (sample_counts drives the
    sweep).
    """
    entries = parse_key_values(text)
    scenario = scenario_config(entries, _PLAN_ONLY_KEYS, 1)  # ExperimentPlan sets M
    sample_counts = parse_numbers("sample_counts", require_key(entries, "sample_counts"), int)
    trials = parse_number("trials", require_key(entries, "trials"), int)
    detectors = parse_name_list("detectors", require_key(entries, "detectors"))
    p_fa_list = parse_numbers("pfa_list", entries.get("pfa_list", ""), float)
    r_max = parse_number("r_max", entries["r_max"], int) if "r_max" in entries else None
    try:
        return ExperimentPlan(
            scenario, sample_counts, trials, detectors, p_fa_list, scenario.seed, r_max
        )
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


def trial_seed(base_seed: int, detector_index, sample_count: int, trial_index: int) -> int:
    """Derived 64-bit seed of one (M, trial): every detector of a plan
    decides on the realization it draws.

    A pure mixing hash of (base seed, M, trial index), so trials are
    reproducible in any execution order (or concurrently).
    ``detector_index`` is accepted for callers that still pass one per
    detector, and no longer used.
    """
    mixer = np.random.SeedSequence([int(base_seed), int(sample_count), int(trial_index)])
    return int(mixer.generate_state(1, np.uint64)[0])


def _run_trial(plan: ExperimentPlan, box_df: str, task) -> dict:
    """One Monte Carlo trial, ``task`` = (M, trial index), of every detector of
    the plan on one realization: {(detector, p_fa): (estimate, selected_rank)}.
    The one trial function of the in-process run and of the worker pool."""
    count, trial = task
    seed = trial_seed(plan.base_seed, None, count, trial)
    data = generate_scenario(replace(plan.scenario, snapshot_count=count, seed=seed))
    outcomes = _decide(data, plan.detectors, plan.r_max, plan.p_fa_list, box_df)
    return {key: (result.estimate, result.selected_rank) for key, result in outcomes.items()}


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


# Each worker pays the fork and cold first trials: 1.6x the warm time for all
# four detectors on 2 cores (m = 60, M = 1000). At 3x (the former bisection
# thresholds) two workers lost to one process up to 12 white-noise trials.
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
            import numpy.random  # noqa: F401 - trials draw from it; workers fork with it loaded
            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(workers, context, _one_openblas_thread) as pool:
                try:
                    return list(pool.map(trial, tasks))
                except BrokenProcessPool as exc:
                    raise OSError(f"a worker process died: {exc}") from exc
    return [trial(task) for task in tasks]


def run_experiment(plan: ExperimentPlan, box_df: str = "derived") -> list[CurveRow]:
    """Run every (detector, p_fa, M) point of the plan.

    A trial is one (M, trial index): one realization, on which every
    detector of the plan decides through the same dispatch as ``detect``,
    so the detectors are paired on common draws. A detection counts as a
    success only when the estimate equals the true improper source count
    exactly. An infeasible r_max or an unknown ``box_df`` fails before the
    first trial.

    The trials, largest M first, run over one forked worker process per
    usable CPU (the process's CPU affinity, so ``taskset`` limits them), at
    most one per eight; a single worker runs them in this process. Every trial's
    seed is a pure hash of (seed, M, trial) and the rows sum integer hit
    and rank counts in (detector, p_fa, M, trial) order, so the rows are
    identical for every worker count. An exception in a trial reaches the
    caller with its type and message; a worker that dies raises OSError.
    Workers set OpenBLAS to one thread each; pin other BLAS builds to one
    thread (``OMP_NUM_THREADS=1``, ``MKL_NUM_THREADS=1``).
    """
    _check_options(plan.detectors, plan.p_fa_list, box_df)
    true_dim = sum(1 for source in plan.scenario.sources if source.circularity > 0.0)
    if any(_DETECTORS[name].reduced for name in plan.detectors):  # the smallest M is strictest
        _resolved_r_max(plan.r_max, plan.scenario.sensor_count, plan.sample_counts[0])
    tasks = list(product(reversed(plan.sample_counts), range(plan.trials)))
    outcomes = dict(zip(tasks, _map_trials(partial(_run_trial, plan, box_df), tasks)))
    rows = []
    for detector in plan.detectors:
        reduced, tested, _ = _DETECTORS[detector]
        for p_fa in plan.p_fa_list if tested else (None,):
            for count in plan.sample_counts:
                picks = [outcomes[count, trial][detector, p_fa] for trial in range(plan.trials)]
                p_detect = sum(estimate == true_dim for estimate, _ in picks) / plan.trials
                mean_rank = sum(rank for _, rank in picks) / plan.trials if reduced else None
                rows.append(CurveRow(detector, p_fa, count, plan.trials, p_detect, mean_rank))
    return rows


def format_curve_csv(rows) -> str:
    """CSV text with the fixed header and one line per curve row."""
    lines = [CSV_HEADER]
    for row in rows:
        p_fa = "" if row.p_fa is None else repr(float(row.p_fa))
        rank = "" if row.mean_selected_rank is None else f"{row.mean_selected_rank:g}"
        lines.append(
            f"{row.detector},{p_fa},{row.sample_count},{row.trials},{row.p_detect:g},{rank}"
        )
    return "\n".join(lines) + "\n"


def run_montecarlo(plan_path, out_path, box_df: str = "derived", seed: int | None = None):
    """Load a plan file, run it, and write the detection curve CSV.

    The output is opened for appending before the first trial, so a path
    that cannot be written fails at once; the CSV is written after the
    last. A failed run leaves an existing file as it was, and removes a
    file it created or had begun to write.
    """
    plan = load_plan(plan_path)
    if seed is not None:
        plan = replace(plan, base_seed=seed)
    keep = os.path.exists(out_path)
    open(out_path, "a", encoding="ascii").close()
    try:
        rows = run_experiment(plan, box_df=box_df)
        keep = False  # from here a failure leaves a partial file
        with open(out_path, "w", encoding="ascii", newline="\n") as handle:
            handle.write(format_curve_csv(rows))
    except BaseException:
        if not keep:
            with suppress(OSError):
                os.remove(out_path)
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
