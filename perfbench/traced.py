"""Traced driver: one operation in a fresh process, with spans.

Usage: python3 traced.py REQUEST.json RESULT.json

The request names the operation (``detect``, ``simulate``, ``sweep`` or
``probe``) and its files. The result holds the spans and the operation's
output, so the caller can check it against the CLI's output of the same
operation. BLAS threads must be pinned in the environment before start.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import replace

from spans import Tracer


def warm_repeat(tracer: Tracer) -> None:
    """Repeat the process's first (cold) GLRT decision, now warm."""
    if tracer.cold_call is None:
        return
    name, fn, args, kwargs = tracer.cold_call
    with tracer.span("probe.warm_repeat"):
        with tracer.span(name, warm_repeat=True):
            fn(*args, **kwargs)


def overhead(replica, request) -> list:
    """Traced over untraced wall time of the same operations, minus one,
    for pairs run back to back (alternating which goes first)."""
    from improperdim import generate_scenario, load_plan, load_scenario_config

    if request.get("plan"):
        plan = replace(load_plan(request["plan"]), trials=request["overhead_trials"])

        def work(tracer):
            replica.run_plan(tracer, plan)

    else:
        data = generate_scenario(load_scenario_config(request["config"]))

        def work(tracer):
            for detector in request["detectors"]:
                replica.detect_report(tracer, data, detector)

    def timed(enabled):
        start = time.perf_counter()
        work(Tracer("overhead", enabled=enabled))
        return time.perf_counter() - start

    timed(False)
    ratios = []
    for pair in range(request["overhead_repeats"]):
        order = (True, False) if pair % 2 == 0 else (False, True)
        seconds = {enabled: timed(enabled) for enabled in order}
        ratios.append(seconds[True] / seconds[False] - 1.0)
    return ratios


def probe(tracer: Tracer, replica, request) -> dict:
    """Call every timed public function on the workload's own scenario,
    for layers the workload's operations do not reach."""
    from improperdim import (
        default_r_max,
        generate_scenario,
        load_dataset,
        load_scenario_config,
        write_dataset,
    )

    config = load_scenario_config(request["config"])
    rank_cap = default_r_max(config.sensor_count, config.snapshot_count)
    for _ in range(request["repeats"]):
        with tracer.span("op.probe"):
            data = tracer.call("simulate.generate_scenario", generate_scenario, config)
            tracer.call("fileio.write_dataset", write_dataset, request["out"], data)
            tracer.call("fileio.load_dataset", load_dataset, request["out"])
            for detector in ("itc_full", "glrt_full", "itc_rr", "glrt_rr"):
                replica.decide(
                    tracer, detector, data, None if detector.endswith("full") else rank_cap,
                    (replica.P_FA,),
                )
    return {"overhead": overhead(replica, request)}


def main(argv) -> int:
    request_path, result_path = argv
    with open(request_path, encoding="utf-8") as handle:
        request = json.load(handle)
    tracer = Tracer(request["op_id"])
    with tracer.span("import.improperdim"):
        import improperdim  # noqa: F401
    import replica

    op = request["op"]
    result = {}
    if op == "detect":
        result["report"] = replica.detect_op(tracer, request["dataset"], request["detector"])
    elif op == "simulate":
        replica.simulate_op(tracer, request["config"], request["out"])
    elif op == "sweep":
        result["csv"] = replica.sweep_op(tracer, request["plan"])
    elif op == "probe":
        result = probe(tracer, replica, request)
    else:
        raise SystemExit(f"unknown operation {op!r}")
    warm_repeat(tracer)
    result["spans"] = tracer.spans
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
