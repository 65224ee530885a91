"""Smoke test of the benchmark at tiny sizes, from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    _, result = run.run_workload(workload, 3, 0, trace, tiny=True)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_wrong_reference_counts_as_failed():
    references = json.loads(run.REFERENCES.read_text())
    key = "chain2 prob covid(p1)"
    references[key] = {"prob": references[key]["prob"] + 0.01}
    record, result = run.run_workload("chain", 3, 0, False, references=references, tiny=True)
    assert result["failed"] > 0 and not result["correct"]
    assert record["failed_ops"] == [key]


@pytest.mark.parametrize("workload", ["negation", "corpus"])
def test_same_seed_same_stream_and_counts(workload):
    runs = [run.run_workload(workload, 5, 0, True, tiny=True) for _ in range(2)]
    (record1, result1), (record2, result2) = runs
    assert record1["stream"] == record2["stream"]

    def counts(result):
        return {k: v["value"] for k, v in result["metrics"].items() if "ms" not in v["unit"]}

    assert counts(result1) == counts(result2)
