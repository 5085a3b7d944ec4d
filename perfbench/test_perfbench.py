"""Tests of the benchmark itself, at the tiny input size.

Run from the root of the checkout: python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import run

run.prepare()

import workloads  # noqa: E402  (needs run.prepare() first)
from spans import check_nesting, duration, self_times  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 5


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_workload_emits_every_metric(workload, trace):
    result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def flip_digit(path):
    """Corrupt one byte: change a digit in the middle of the file."""
    data = bytearray(path.read_bytes())
    for index in range(len(data) // 2, len(data)):
        if chr(data[index]).isdigit():
            data[index] = ord("1") if data[index] != ord("1") else ord("2")
            break
    else:
        raise AssertionError(f"no digit to corrupt in {path}")
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("workload, kind", [("cli", "dataset"), ("mc_white", "csv")])
def test_tampered_output_counts_as_failed(workload, kind):
    def tamper(written_kind, path):
        if written_kind == kind:
            flip_digit(path)

    _, result = workloads.run_workload(workload, SEED, 0.0, False, "tiny", after_program=tamper)
    assert result.failed >= 1
    assert all(kind in message or "CSV" in message for message in result.failures)


def test_untampered_run_has_no_failures():
    _, result = workloads.run_workload("mc_ar", SEED, 0.0, False, "tiny")
    assert result.failed == 0 and result.attempted >= 1


@pytest.mark.parametrize("workload", ["cli", "mc_ar"])
def test_spans_nest_with_bounded_self_times(workload):
    _, result = workloads.run_workload(workload, SEED, 0.0, True, "tiny")
    assert result.failed == 0 and result.traced_ops
    for op in result.traced_ops + [result.probe]:
        spans = op["spans"]
        assert check_nesting(spans) == []
        own = self_times(spans)
        assert min(own.values()) >= 0.0
        children = {}
        for span in spans:
            children.setdefault(span["parent"], []).append(span)
        for root in children[None]:
            subtree, stack = [], [root]
            while stack:
                span = stack.pop()
                subtree.append(span)
                stack.extend(children.get(span["id"], []))
            assert sum(own[s["id"]] for s in subtree) <= duration(root) + 1e-9
    for op in result.traced_ops:
        top = [s for s in op["spans"] if s["parent"] is None and s["name"] != "probe.warm_repeat"]
        assert {s["name"] for s in top} >= {"import.improperdim"}


def test_tail_is_the_highest_order_statistic_with_ten_above():
    values = list(range(1, 41))
    assert workloads.tail(values) == (30, 75.0)
    assert workloads.tail([3.0, 1.0, 2.0]) == (3.0, 90.0)
    assert workloads.tail(list(range(12))) == (10, 90.0)
