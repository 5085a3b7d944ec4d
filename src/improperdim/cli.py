"""Command line interface: simulate, detect, montecarlo.

Exit codes: 0 success, 2 malformed file or bad value, 3 infeasible
options (e.g. r_max not smaller than the snapshot count).
"""

from __future__ import annotations

import argparse
import sys

from .detectors import DF_RULES
from .fileio import FormatError, load_dataset
from .harness import (
    DETECTOR_NAMES,
    InfeasibleOptionsError,
    detect,
    dump_scenario,
    format_detection_report,
    run_montecarlo,
)

_DETECTOR_CHOICES = tuple(name.replace("_", "-") for name in DETECTOR_NAMES)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="improperdim",
        description="Estimate the number of improper components in complex-valued data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a dataset from a scenario config")
    sim.add_argument("config", help="scenario config file (key = value lines)")
    sim.add_argument("-o", "--output", required=True, help="dataset file to write")
    sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    sim.set_defaults(func=_cmd_simulate)

    det = sub.add_parser("detect", help="estimate the improper dimension of a dataset")
    det.add_argument("dataset", help="dataset file written by simulate")
    det.add_argument("--detector", required=True, choices=_DETECTOR_CHOICES)
    det.add_argument(
        "--pfa", type=float, default=0.005, help="false-alarm probability (glrt detectors)"
    )
    det.add_argument(
        "--rmax", type=int, default=None, help="maximum PCA rank (reduced-rank detectors)"
    )
    det.add_argument(
        "--box-df",
        choices=DF_RULES,
        default="derived",
        help="degree-of-freedom rule for the reduced-rank test statistic",
    )
    det.set_defaults(func=_cmd_detect)

    mc = sub.add_parser("montecarlo", help="run an experiment plan and write a CSV curve")
    mc.add_argument("plan", help="experiment plan file (key = value lines)")
    mc.add_argument("-o", "--output", required=True, help="CSV file to write")
    mc.add_argument("--seed", type=int, default=None, help="override the plan seed")
    mc.add_argument("--box-df", choices=DF_RULES, default="derived")
    mc.set_defaults(func=_cmd_montecarlo)
    return parser


def _cmd_simulate(args) -> int:
    config = dump_scenario(args.config, args.output, seed=args.seed)
    print(
        f"wrote {args.output}: m={config.sensor_count}, M={config.snapshot_count}, "
        f"seed={config.seed}"
    )
    return 0


def _cmd_detect(args) -> int:
    detector = args.detector.replace("-", "_")
    data = load_dataset(args.dataset)
    result = detect(data, detector, p_fa=args.pfa, r_max=args.rmax, box_df=args.box_df)
    p_fa = args.pfa if detector.startswith("glrt") else None
    print(format_detection_report(result, detector, data.shape[0], data.shape[1], p_fa=p_fa))
    return 0


def _cmd_montecarlo(args) -> int:
    rows = run_montecarlo(args.plan, args.output, box_df=args.box_df, seed=args.seed)
    print(f"wrote {args.output}: {len(rows)} rows")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleOptionsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
