"""Command line interface: simulate, detect, montecarlo.

Exit codes: 0 success, 2 malformed file, bad value or not enough
memory, 3 infeasible options (e.g. r_max not smaller than M).
"""

from __future__ import annotations

import argparse
import sys

from .detectors import DF_RULES
from .fileio import FormatError, load_dataset, parse_float, parse_int
from .harness import (
    DETECTOR_NAMES,
    InfeasibleOptionsError,
    detect,
    dump_scenario,
    format_detection_report,
    run_montecarlo,
)

_DETECTOR_CHOICES = tuple(name.replace("_", "-") for name in DETECTOR_NAMES)
_BOX_DF_HELP = (
    "degree-of-freedom rule for the reduced-rank test statistic; printed gives "
    "rank 1 zero d.f., so glrt-rr then never estimates 0"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="improperdim",
        description="Estimate the number of improper components in complex-valued data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a dataset from a scenario config")
    sim.add_argument("config", help="scenario config file (key = value lines)")
    sim.add_argument("-o", "--output", required=True, help="dataset file to write")
    sim.add_argument("--seed", help="override the config seed")
    sim.set_defaults(func=_cmd_simulate)

    det = sub.add_parser("detect", help="estimate the improper dimension of a dataset")
    det.add_argument("dataset", help="dataset file written by simulate")
    det.add_argument("--detector", required=True, choices=_DETECTOR_CHOICES)
    det.add_argument("--pfa", default="0.005", help="false-alarm probability (glrt detectors)")
    det.add_argument("--rmax", help="maximum PCA rank (reduced-rank detectors)")
    det.add_argument("--box-df", choices=DF_RULES, default="derived", help=_BOX_DF_HELP)
    det.set_defaults(func=_cmd_detect)

    mc = sub.add_parser("montecarlo", help="run an experiment plan and write a CSV curve")
    mc.add_argument("plan", help="experiment plan file (key = value lines)")
    mc.add_argument("-o", "--output", required=True, help="CSV file to write")
    mc.add_argument("--seed", help="override the plan seed")
    mc.add_argument("--box-df", choices=DF_RULES, default="derived", help=_BOX_DF_HELP)
    mc.set_defaults(func=_cmd_montecarlo)
    return parser


def _cmd_simulate(args) -> int:
    seed = None if args.seed is None else parse_int("--seed", args.seed)
    config = dump_scenario(args.config, args.output, seed=seed)
    print(
        f"wrote {args.output}: m={config.sensor_count}, M={config.snapshot_count}, "
        f"seed={config.seed}"
    )
    return 0


def _cmd_detect(args) -> int:
    detector = args.detector.replace("-", "_")
    p_fa = parse_float("--pfa", args.pfa)
    r_max = None if args.rmax is None else parse_int("--rmax", args.rmax)
    data = load_dataset(args.dataset)
    result = detect(data, detector, p_fa=p_fa, r_max=r_max, box_df=args.box_df)
    print(format_detection_report(result, detector, *data.shape, p_fa=p_fa))
    return 0


def _cmd_montecarlo(args) -> int:
    seed = None if args.seed is None else parse_int("--seed", args.seed)
    rows = run_montecarlo(args.plan, args.output, box_df=args.box_df, seed=seed)
    print(f"wrote {args.output}: {len(rows)} rows")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, InfeasibleOptionsError) else 2
    except MemoryError as exc:
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
