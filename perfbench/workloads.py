"""Benchmark workloads: inputs from the seed, timed CLI runs, output
checks, and the metrics derived from them.

Import this module only after ``run.prepare()`` has pinned BLAS to one
thread and put the checkout's ``src`` on the path: it imports the
package under test (through ``replica``) for the reference outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import improperdim
import replica
from improperdim import NoiseSpec, ScenarioConfig, SourceSpec, default_r_max, load_dataset
from run import HERE, ROOT, program_env
from spans import Tracer, duration, self_times

WORK = HERE / "_work"
PROCESS_TIMEOUT = 60.0  # seconds; the longest operation takes a few
DETECTORS = ("itc_full", "itc_rr", "glrt_full", "glrt_rr")
GUARD_DETECTORS = ("itc_rr", "glrt_rr")
GUARD_LINE = "estimated improper dimension: 4"

# the README's benchmark scenario; the AR filter is that of acceptance
# criterion 2 (innovation variance 1/4)
ANGLES = (10.0, 15.0, 20.0, 25.0)
CIRCULARITIES = (1.0, 0.9, 0.8, 0.6)
SOURCE_VARIANCE = 5.0
AR_COEFFICIENTS = (0.5, math.sqrt(7.0) / 4.0, 0.5, 0.25)
P_FAS = (0.005, 0.001)

# full size: a sweep takes about 2.5 s on a 2-core x86 box, so a 30 s
# run times a dozen sweeps or about ten cli rounds
SIZES = {
    "full": {
        "m": 60,
        "cli_M": 1000,
        "white_Ms": (200, 400, 600, 800, 1000),
        "white_trials": 10,
        "ar_Ms": (1000,),
        "ar_trials": 30,
        "setup_repeats": 5,
        "probe_repeats": 3,
        "overhead_repeats": 10,
    },
    "tiny": {
        "m": 12,
        "cli_M": 150,
        "white_Ms": (60, 120),
        "white_trials": 2,
        "ar_Ms": (120,),
        "ar_trials": 3,
        "setup_repeats": 1,
        "probe_repeats": 1,
        "overhead_repeats": 2,
    },
}

NULL_TRACER = Tracer(enabled=False)


def derive_seed(seed: int, *labels) -> int:
    """64-bit seed from the workload seed and labels (pure function)."""
    text = ":".join(str(part) for part in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def scenario(m: int, noise_kind: str, snapshot_count: int, seed: int) -> ScenarioConfig:
    if noise_kind == "white":
        noise = NoiseSpec("white", 1.0)
    else:
        noise = NoiseSpec("spatial_ar", 0.25, AR_COEFFICIENTS)
    return ScenarioConfig(
        sensor_count=m,
        angles_deg=ANGLES,
        sources=tuple(SourceSpec(SOURCE_VARIANCE, k) for k in CIRCULARITIES),
        noise=noise,
        snapshot_count=snapshot_count,
        seed=seed,
    )


def _floats(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def scenario_lines(config: ScenarioConfig) -> list[str]:
    lines = [
        f"m = {config.sensor_count}",
        f"angles_deg = {_floats(config.angles_deg)}",
        f"source_variances = {_floats(s.variance for s in config.sources)}",
        f"source_circularities = {_floats(s.circularity for s in config.sources)}",
        f"noise_kind = {config.noise.kind}",
        f"noise_variance = {config.noise.variance!r}",
    ]
    if config.noise.ar_coefficients:
        lines.append(f"ar_coefficients = {_floats(config.noise.ar_coefficients)}")
    return lines


def config_text(config: ScenarioConfig) -> str:
    lines = scenario_lines(config) + [f"M = {config.snapshot_count}", f"seed = {config.seed}"]
    return "\n".join(lines) + "\n"


def plan_text(config: ScenarioConfig, sample_counts, trials, detectors, seed) -> str:
    lines = scenario_lines(config) + [
        f"trials = {trials}",
        f"sample_counts = {', '.join(str(v) for v in sample_counts)}",
        f"detectors = {', '.join(detectors)}",
        f"pfa_list = {_floats(P_FAS)}",
        f"seed = {seed}",
    ]
    return "\n".join(lines) + "\n"


def run_program(*args):
    """Run the CLI once: (exit code or None on timeout, stdout, seconds)."""
    command = [sys.executable, "-m", "improperdim.cli", *map(str, args)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=program_env(), capture_output=True, text=True,
            timeout=PROCESS_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return None, "", time.perf_counter() - start
    return proc.returncode, proc.stdout, time.perf_counter() - start


def run_traced(request: dict, directory: Path):
    """Run one operation in the traced driver; its result dict, or None."""
    request_path = directory / f"request-{request['op_id']}.json"
    result_path = directory / f"result-{request['op_id']}.json"
    request_path.write_text(json.dumps(request))
    result_path.unlink(missing_ok=True)
    command = [sys.executable, str(HERE / "traced.py"), str(request_path), str(result_path)]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=program_env(), capture_output=True, text=True,
            timeout=PROCESS_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        return None
    return json.loads(result_path.read_text())


def read_text(path: Path):
    try:
        return path.read_text(encoding="ascii")
    except (OSError, UnicodeDecodeError):
        return None


def load_or_none(path: Path):
    try:
        return load_dataset(path)
    except (OSError, ValueError, UnicodeDecodeError):
        return None


def same_matrix(a, b) -> bool:
    return a is not None and b is not None and a.shape == b.shape and a.tobytes() == b.tobytes()


def tail(values):
    """(value, percentile) of the highest order statistic with at least
    ten samples above it. Below 20 samples that statistic would lie under
    the median, so the nearest-rank 90th percentile stands in for it: the
    second largest of a dozen sweeps, which one stray slow sweep does not
    move."""
    ordered = sorted(values)
    count = len(ordered)
    if count < 20:
        return ordered[math.ceil(0.9 * count) - 1], 90.0
    return ordered[count - 11], 100.0 * (count - 10) / count


@dataclass
class Run:
    """Counters and samples of one benchmark run."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)
    setup_s: list = field(default_factory=list)
    traced_ops: list = field(default_factory=list)
    probe: dict | None = None

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)


class Workload:
    """One closed-loop client running the CLI on inputs made from a seed."""

    name = ""

    def __init__(self, seed: int, size: str = "full", after_program=None):
        self.seed = seed
        self.size = SIZES[size]
        self.dir = WORK / self.name
        # test hook: called with (kind, path) after each program run that
        # wrote a checked file, before the check
        self.after_program = after_program or (lambda kind, path: None)

    # -- set-up ---------------------------------------------------------
    def setup(self, run: Run) -> None:
        """Make the inputs and run one untimed warm-up invocation."""
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.write_inputs()
        self.warm_up(run)

    def simulate_guard_dataset(self, run: Run) -> Path:
        config_path = self.dir / "guard.cfg"
        config_path.write_text(config_text(scenario(60, "white", 1000, 8)))
        data_path = self.dir / "guard.txt"
        code, _, _ = run_program("simulate", config_path, "-o", data_path)
        run.check(code == 0, "guard: simulate failed")
        return data_path

    def guard(self, run: Run) -> None:
        """The README's seed-8 dataset must give d = 4 for itc-rr and glrt-rr,
        so a fast but wrong estimator cannot pass."""
        data_path = self.dir / "guard.txt"
        if not data_path.exists():
            self.simulate_guard_dataset(run)
        for detector in GUARD_DETECTORS:
            code, out, _ = run_program("detect", data_path, "--detector", cli_name(detector))
            run.check(
                code == 0 and GUARD_LINE in out.splitlines(),
                f"guard: detect {detector} did not report d = 4",
            )

    def write_inputs(self) -> None:
        pass

    def warm_up(self, run: Run) -> None:
        pass

    def prepare_reference(self, traced: bool) -> None:
        pass

    # -- timed loop -----------------------------------------------------
    def measure(self, run: Run, seconds: float, traced: bool) -> None:
        start = time.perf_counter()
        index = 0
        while index == 0 or time.perf_counter() - start < seconds:
            self.round(run, index, traced)
            index += 1

    def traced_op(self, run: Run, request: dict, wall: float, self_pair: bool = True):
        """Repeat a CLI operation in the traced driver. ``self_pair`` marks
        operations short enough for ``cli.self_ms`` to resolve the CLI's
        own time against run-to-run noise."""
        result = run_traced(request, self.dir)
        if result is not None:
            run.traced_ops.append(
                {"kind": request["op"], "wall": wall, "spans": result["spans"],
                 "self_pair": self_pair}
            )
        return result

    def run_probe(self, run: Run, config: ScenarioConfig, **extra) -> None:
        config_path = self.dir / "probe.cfg"
        config_path.write_text(config_text(config))
        request = {
            "op": "probe",
            "op_id": "probe",
            "config": str(config_path),
            "out": str(self.dir / "probe.txt"),
            "repeats": self.size["probe_repeats"],
            "overhead_repeats": self.size["overhead_repeats"],
            **extra,
        }
        result = run_traced(request, self.dir)
        if run.check(result is not None, "probe: traced driver failed"):
            run.probe = result
            run.add("dataset_bytes_probe", (self.dir / "probe.txt").stat().st_size)


def cli_name(detector: str) -> str:
    return detector.replace("_", "-")


class CliWorkload(Workload):
    """Rounds of ``simulate`` then ``detect`` with each detector."""

    name = "cli"

    def warm_up(self, run: Run) -> None:
        self.simulate_guard_dataset(run)

    def config(self, index: int) -> ScenarioConfig:
        return scenario(
            self.size["m"], "white", self.size["cli_M"], derive_seed(self.seed, "cli", index)
        )

    def round(self, run: Run, index: int, traced: bool) -> None:
        config = self.config(index)
        config_path = self.dir / "round.cfg"
        config_path.write_text(config_text(config))
        data_path = self.dir / "data.txt"
        data_path.unlink(missing_ok=True)
        code, _, simulate_s = run_program("simulate", config_path, "-o", data_path)
        self.after_program("dataset", data_path)
        data = load_or_none(data_path) if code == 0 else None
        expected = improperdim.generate_scenario(config)
        round_ok = run.check(same_matrix(data, expected), f"simulate round {index}: dataset differs")
        if round_ok:
            run.add("simulate_s", simulate_s)
            run.add("dataset_bytes", data_path.stat().st_size)
        if traced:
            traced_path = self.dir / "traced.txt"
            request = {"op": "simulate", "op_id": f"sim{index}", "config": str(config_path),
                       "out": str(traced_path)}
            result = self.traced_op(run, request, simulate_s)
            run.check(
                result is not None and read_text(traced_path) == read_text(data_path),
                f"traced simulate round {index}: file differs from the CLI's",
            )
        elapsed = simulate_s
        for detector in DETECTORS:
            code, out, detect_s = run_program("detect", data_path, "--detector", cli_name(detector))
            if traced:
                request = {"op": "detect", "op_id": f"det{index}{detector}",
                           "dataset": str(data_path), "detector": detector}
                result = self.traced_op(run, request, detect_s)
                report = None if result is None else result["report"]
            else:
                report = None if data is None else replica.detect_report(NULL_TRACER, data, detector)
            ok = run.check(
                code == 0 and report is not None and out == report + "\n",
                f"detect {detector} round {index}: report differs",
            )
            round_ok = round_ok and ok
            if ok:
                run.add("proc_s", detect_s)
            elapsed += detect_s
        if round_ok:
            run.add("trials", len(DETECTORS))
            run.add("trial_s", elapsed)

    def probe(self, run: Run) -> None:
        config = scenario(self.size["m"], "white", self.size["cli_M"], derive_seed(self.seed, "probe"))
        self.run_probe(run, config, detectors=list(DETECTORS))

    # -- computed counts --------------------------------------------------
    def generate_calls(self):
        return [(self.size["m"], "white", self.size["cli_M"])]

    def profile_ranks(self):
        return [default_r_max(self.size["m"], self.size["cli_M"])]

    def chi2_cold(self) -> int:
        m = self.size["m"]
        per_op = [
            chi2_needed([("full", m, replica.P_FA)]),
            chi2_needed([("reduced", default_r_max(m, self.size["cli_M"]), replica.P_FA)]),
        ]
        return int(statistics.median(per_op))

    def share_units(self, run: Run):
        """(wall, {layer: seconds}) for each traced detect operation."""
        for op in run.traced_ops:
            if op["kind"] != "detect":
                continue
            skip = _warm_repeat_ids(op["spans"])
            layers = {}
            for span in op["spans"]:
                if span["id"] not in skip:
                    prefix = span["name"].split(".")[0]
                    layers[prefix] = layers.get(prefix, 0.0) + duration(span)
            yield op["wall"], layers

    def op_span_name(self) -> str:
        return "op.detect"


class SweepWorkload(Workload):
    """Repeated ``montecarlo`` sweeps of one plan made from the seed."""

    noise_kind = ""
    detectors: tuple = ()

    @property
    def sample_counts(self):
        return self.size[f"{self.short}_Ms"]

    @property
    def trials(self):
        return self.size[f"{self.short}_trials"]

    def template(self, seed: int) -> ScenarioConfig:
        return scenario(self.size["m"], self.noise_kind, self.sample_counts[-1], seed)

    def write_plan(self, path: Path, trials: int) -> None:
        seed = derive_seed(self.seed, self.name)
        path.write_text(
            plan_text(self.template(seed), self.sample_counts, trials, self.detectors, seed)
        )

    def write_inputs(self) -> None:
        self.plan_path = self.dir / "plan.txt"
        self.write_plan(self.plan_path, self.trials)
        self.warm_path = self.dir / "warm.txt"
        self.write_plan(self.warm_path, 1)

    def warm_up(self, run: Run) -> None:
        code, _, _ = run_program("montecarlo", self.warm_path, "-o", self.dir / "warm.csv")
        run.check(code == 0, "warm-up montecarlo failed")

    def prepare_reference(self, traced: bool) -> None:
        self.reference = None if traced else replica.sweep_op(NULL_TRACER, self.plan_path)

    def round(self, run: Run, index: int, traced: bool) -> None:
        csv_path = self.dir / "curve.csv"
        csv_path.unlink(missing_ok=True)
        code, _, sweep_s = run_program("montecarlo", self.plan_path, "-o", csv_path)
        self.after_program("csv", csv_path)
        expected = self.reference
        if traced:
            request = {"op": "sweep", "op_id": f"sweep{index}", "plan": str(self.plan_path)}
            result = self.traced_op(run, request, sweep_s, self_pair=False)
            expected = None if result is None else result["csv"]
            self.traced_warm_sweep(run, index)
        ok = run.check(
            code == 0 and expected is not None and read_text(csv_path) == expected,
            f"montecarlo sweep {index}: CSV differs",
        )
        if ok:
            run.add("proc_s", sweep_s)
            run.add("trials", self.trials_per_sweep())
            run.add("trial_s", sweep_s)

    def traced_warm_sweep(self, run: Run, index: int) -> None:
        """The one-trial plan through the CLI and the traced driver: a full
        sweep varies by more than the CLI's own time, this one does not."""
        csv_path = self.dir / "warm.csv"
        csv_path.unlink(missing_ok=True)
        code, _, sweep_s = run_program("montecarlo", self.warm_path, "-o", csv_path)
        request = {"op": "sweep", "op_id": f"warm{index}", "plan": str(self.warm_path)}
        result = self.traced_op(run, request, sweep_s)
        run.check(
            code == 0 and result is not None and read_text(csv_path) == result["csv"],
            f"one-trial sweep {index}: CSV differs",
        )

    def trials_per_sweep(self) -> int:
        return self.trials * len(self.detectors) * len(self.sample_counts)

    def probe(self, run: Run) -> None:
        self.run_probe(
            run,
            self.template(derive_seed(self.seed, "probe")),
            plan=str(self.plan_path),
            overhead_trials=max(1, self.trials // 10),
        )

    # -- computed counts --------------------------------------------------
    def generate_calls(self):
        return [(self.size["m"], self.noise_kind, count) for count in self.sample_counts]

    def profile_ranks(self):
        return [default_r_max(self.size["m"], count) for count in self.sample_counts]

    def chi2_cold(self) -> int:
        m = self.size["m"]
        calls = []
        for detector in self.detectors:
            if not detector.startswith("glrt"):
                continue
            for count in self.sample_counts:
                size = m if detector == "glrt_full" else default_r_max(m, count)
                kind = "full" if detector == "glrt_full" else "reduced"
                calls.extend((kind, size, p_fa) for p_fa in P_FAS)
        return chi2_needed(calls)

    def share_units(self, run: Run):
        """(wall, {layer: seconds}) for each traced trial."""
        for op in run.traced_ops:
            spans = op["spans"]
            trials = {span["id"]: span for span in spans if span["name"] == "op.trial"}
            layers = {span_id: {} for span_id in trials}
            for span in spans:
                if span["parent"] in trials:
                    prefix = span["name"].split(".")[0]
                    bucket = layers[span["parent"]]
                    bucket[prefix] = bucket.get(prefix, 0.0) + duration(span)
            for span_id, span in trials.items():
                yield duration(span), layers[span_id]

    def op_span_name(self) -> str:
        return "op.trial"


class WhiteSweep(SweepWorkload):
    name = "mc_white"
    short = "white"
    noise_kind = "white"
    detectors = DETECTORS


class ArSweep(SweepWorkload):
    name = "mc_ar"
    short = "ar"
    noise_kind = "spatial_ar"
    detectors = ("itc_rr", "glrt_rr")


WORKLOADS = {cls.name: cls for cls in (CliWorkload, WhiteSweep, ArSweep)}


def chi2_needed(calls) -> int:
    """Distinct chi-squared quantiles (d.f. > 0, p_fa) that GLRT calls of
    the given (kind, size, p_fa) need, under the default d.f. rule."""
    needed = set()
    for kind, size, p_fa in calls:
        if kind == "full":
            dfs = {(size - s) * (size - s + 1) for s in range(size)}
        else:
            dfs = {(r - s) * (r - s + 1) for r in range(1, size + 1) for s in range(r)}
        needed.update((df, p_fa) for df in dfs if df > 0)
    return len(needed)


def normals(m: int, noise_kind: str, count: int) -> tuple[int, int]:
    """(normals drawn, normals kept) by one generate_scenario call."""
    sources = 2 * len(CIRCULARITIES) * count
    burn_in = getattr(improperdim, "AR_BURN_IN", 0) if noise_kind != "white" else 0
    return sources + 2 * (burn_in + m) * count, sources + 2 * m * count


def profile_flops(rank_cap: int) -> float:
    """Complex bidiagonalisation flops of the per-rank SVDs, (32/3) r^3 each."""
    return sum(32.0 / 3.0 * r**3 for r in range(1, rank_cap + 1))


def _warm_repeat_ids(spans) -> set:
    skip = {span["id"] for span in spans if span["name"] == "probe.warm_repeat"}
    return skip | {span["id"] for span in spans if span["parent"] in skip}


def _median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


LAYER_CALLS = (
    "fileio.load_dataset",
    "fileio.write_dataset",
    "simulate.generate_scenario",
    "stats.sample_covariances",
    "stats.circularity_profile",
    "stats.circularity_coefficients",
    "detectors.mdl_itc_full",
    "detectors.mdl_itc_reduced",
    "detectors.glrt_full",
    "detectors.glrt_reduced",
)

# exact counts derived from the inputs, not timed
COMPUTED = (
    "fileio.load_dataset_bytes",
    "fileio.write_dataset_bytes",
    "simulate.normals_drawn",
    "simulate.normals_kept_frac",
    "stats.svds_per_profile",
    "stats.profile_flops",
    "numerics.chi2_quantiles_cold",
)


def end_to_end_metrics(workload: Workload, run: Run):
    """(values, sample counts, notes) of the end-to-end metrics."""
    proc = run.samples.get("proc_s", [])
    trial_s = run.samples.get("trial_s", [])
    tail_value, tail_pct = tail(proc) if proc else (0.0, 0.0)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    values = {
        "setup_s": statistics.median(run.setup_s),
        "proc_s.p50": _median_or_zero(proc),
        "proc_s.tail": tail_value,
        "trials_per_s": sum(run.samples.get("trials", [])) / sum(trial_s) if trial_s else 0.0,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    counts = {
        "setup_s": len(run.setup_s),
        "proc_s.p50": len(proc),
        "proc_s.tail": len(proc),
        "trials_per_s": len(trial_s),
        "peak_rss_mb": run.attempted,
    }
    notes = {"proc_s.tail_percentile": tail_pct}
    if "simulate_s" in run.samples:
        notes["simulate_s.p50"] = statistics.median(run.samples["simulate_s"])
    return values, counts, notes


def layer_metrics(workload: Workload, run: Run):
    """(values, sample counts) of the per-layer metrics of a traced run."""
    op_spans = [span for op in run.traced_ops for span in op["spans"]]
    probe_spans = run.probe["spans"] if run.probe else []
    values, counts = {}, {}

    def put(name, samples):
        values[name] = _median_or_zero(samples)
        counts[name] = len(samples)

    put("import.improperdim_ms", [
        1000 * duration(s) for s in op_spans + probe_spans if s["name"] == "import.improperdim"
    ])
    self_ms = []
    for op in run.traced_ops:
        if not op["self_pair"]:
            continue
        skip = _warm_repeat_ids(op["spans"])
        top = sum(duration(s) for s in op["spans"] if s["parent"] is None and s["id"] not in skip)
        self_ms.append(1000 * (op["wall"] - top))
    put("cli.self_ms", self_ms)

    def warm_ms(spans, name):
        return [
            1000 * duration(s)
            for s in spans
            if s["name"] == name and not s.get("tags", {}).get("cold")
        ]

    for name in LAYER_CALLS:
        put(f"{name}_ms", warm_ms(op_spans, name) or warm_ms(probe_spans, name))

    def cold_ms(spans):
        first = [s for s in spans if s.get("tags", {}).get("cold")]
        again = [s for s in spans if s.get("tags", {}).get("warm_repeat")]
        return [1000 * (duration(first[0]) - duration(again[0]))] if first and again else []

    cold = [ms for op in run.traced_ops for ms in cold_ms(op["spans"])]
    put("numerics.threshold_cold_ms", cold or cold_ms(probe_spans))

    harness = []
    for op in run.traced_ops:
        own = self_times(op["spans"])
        harness.extend(
            1000 * own[s["id"]] for s in op["spans"] if s["name"] == workload.op_span_name()
        )
    put("harness.trial_self_ms", harness)

    put("trace.overhead_frac", run.probe["overhead"] if run.probe else [])

    walls, layers, units = 0.0, {}, 0
    for wall, parts in workload.share_units(run):
        walls += wall
        units += 1
        for prefix, seconds in parts.items():
            layers[prefix] = layers.get(prefix, 0.0) + seconds
    for name, prefixes in (
        ("share.import_fileio", ("import", "fileio")),
        ("share.simulate", ("simulate",)),
        ("share.stats", ("stats",)),
    ):
        values[name] = sum(layers.get(p, 0.0) for p in prefixes) / walls if walls else 0.0
        counts[name] = units

    def exact(name, value):
        values[name] = value
        counts[name] = 1

    sizes = run.samples.get("dataset_bytes") or run.samples.get("dataset_bytes_probe", [])
    for name in ("fileio.load_dataset_bytes", "fileio.write_dataset_bytes"):
        put(name, sizes)
    drawn = [normals(*call) for call in workload.generate_calls()]
    exact("simulate.normals_drawn", statistics.mean(d for d, _ in drawn))
    exact("simulate.normals_kept_frac", sum(k for _, k in drawn) / sum(d for d, _ in drawn))
    ranks = workload.profile_ranks()
    exact("stats.svds_per_profile", statistics.mean(ranks))
    exact("stats.profile_flops", statistics.mean(profile_flops(r) for r in ranks))
    exact("numerics.chi2_quantiles_cold", workload.chi2_cold())
    return values, counts


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 size: str = "full", after_program=None):
    """Set up, measure and check one workload; returns (workload, run)."""
    workload = WORKLOADS[name](seed, size, after_program)
    run = Run()
    for _ in range(workload.size["setup_repeats"]):
        start = time.perf_counter()
        workload.setup(run)
        run.setup_s.append(time.perf_counter() - start)
    workload.guard(run)
    workload.prepare_reference(traced)
    workload.measure(run, seconds, traced)
    if traced:
        workload.probe(run)
    return workload, run
