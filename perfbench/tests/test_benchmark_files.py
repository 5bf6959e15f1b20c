"""Schema checks for BENCHMARK.json, the interaction table and a real result file.

    python3 -m pytest perfbench/tests -q

The result-file tests run the benchmark for about a second per run.
"""

import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def load(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def spec():
    return load(ROOT / "BENCHMARK.json")


def test_benchmark_json_matches_schema(spec):
    jsonschema.validate(spec, load(BENCH / "schema" / "benchmark.schema.json"))
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert len(json.dumps(spec).encode()) <= 64 * 1024


def test_workloads_match_the_runner(spec):
    sys.path.insert(0, str(BENCH))
    import run
    import tracer

    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOAD_NAMES
    assert [(k, u) for k, u in tracer.LAYER_UNITS.items()] == [
        (m["name"], m["unit"]) for m in spec["per_layer"]
    ]


def test_interaction_table_covers_every_layer_metric(spec):
    table = load(BENCH / "interactions.json")
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert [row["metric"] for row in table["per_layer"]] == [m["name"] for m in spec["per_layer"]]
    for row in table["per_layer"]:
        for move in row["moves"]:
            assert move["metric"] in metrics and move["workload"] in workloads
        assert set(row["no_change_on"]) <= workloads
    assert len(table["predictions"]) == 2
    for pred in table["predictions"]:
        for item in pred["moves"] + pred["no_change_on"]:
            assert item["metric"] in metrics and item["workload"] in workloads


@pytest.mark.parametrize("trace", [0, 1])
def test_result_file_matches_schema(spec, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "verify-mixed",
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    section = "per_layer" if trace else "end_to_end"
    assert set(line["metrics"]) == {m["name"] for m in spec[section]}
    for m in spec[section]:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]

    result = load(BENCH / "out" / f"verify-mixed-seed7-trace{trace}.json")
    jsonschema.validate(result, load(BENCH / "schema" / "result.schema.json"))
    assert result["metrics"] == line["metrics"]
    assert result["environment"]["seed"] == 7
