"""improperdim benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {cli,mc_white,mc_ar,all} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}]

Runs the package's CLI (``python -m improperdim.cli``) from ``src/`` in
subprocesses with BLAS pinned to one thread, checks every output, and
prints a human-readable report followed, on the last line, by one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` a
traced run reports the per-layer ones. ``--workload all`` runs the three
workloads one after another, each in its own process, and names the
metrics ``<workload>/<metric>``. ``--size tiny`` shrinks every
input for the benchmark's own tests. Exits 2 without a result when the
package is not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "improperdim"
WORKLOAD_NAMES = ("cli", "mc_white", "mc_ar")
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def program_env() -> dict:
    """Environment of every program process: BLAS on one thread, the
    checkout's ``src`` as the only extra import path."""
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def prepare() -> None:
    """Pin BLAS threads and import the package from this checkout. Must run
    before numpy is imported in this process."""
    if not (PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"error: no improperdim package under {SRC}")
    os.environ.update(BLAS_ENV)
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import improperdim

    if Path(improperdim.__file__).resolve().parent != PACKAGE.resolve():
        raise SystemExit(f"error: imported improperdim from {improperdim.__file__}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
        ]
        proc = subprocess.run(command, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        *report, last = proc.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(report))
        result = json.loads(last)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{name}/{metric}": value for metric, value in result["metrics"].items()}
        )
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        prepare()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    import workloads
    from machine import machine_block

    workload, run = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.size
    )
    if args.trace:
        values, counts = workloads.layer_metrics(workload, run)
        notes = {}
    else:
        values, counts, notes = workloads.end_to_end_metrics(workload, run)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "machine": machine_block(ROOT, PACKAGE),
        "sample_counts": counts,
        "notes": notes,
        "computed": [name for name in workloads.COMPUTED if name in values],
        "failures": run.failures,
    }
    for name, unit in units.items():
        label = "  (computed)" if name in workloads.COMPUTED else ""
        print(f"{name:36s} {values[name]:16.6g} {unit:6s} n={counts[name]}{label}")
    for name, value in notes.items():
        print(f"{name:36s} {value:16.6g}")
    print(f"failed_frac {run.failed / max(run.attempted, 1):.6g} "
          f"({run.failed} of {run.attempted} operations)")
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    result = {
        "correct": run.failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
