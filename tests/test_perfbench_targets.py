"""The benchmark's tracer patches module-global names in czcp; each must exist.

perfbench's own tests (perfbench/tests, also in this suite's testpaths)
trace only the verify-mixed workload. Here every lookup site is checked by
name, and the construction and search workloads run traced, so a renamed
or deleted site fails tier-1 instead of a later traced benchmark run.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module_name, name, _, _ in tracer.TARGETS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, name, None)), (module_name, name)


def _traced_run(workload):
    # one second of the workload under the tracer; `correct` checks every
    # output against perfbench/expected.json
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload]
        + ["--seed", "7", "--seconds", "1", "--trace", "1"],
        capture_output=True,
        text=True,
        cwd=PERFBENCH.parent,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    return result["metrics"]


def test_traced_construct_run_is_correct():
    # per construction: the seed is classified, the GCP's correlations are shared
    metrics = _traced_run("construct-k28")
    assert metrics["verify.classify_calls"]["value"] == 1
    assert metrics["correlation.calls"]["value"] == 2


def test_traced_search_run_is_correct():
    # per M = 24 search: middle class 0's 4 join matches, one of each swap
    # pair and every one a survivor, fall into 4 classes, and each class is
    # verified once, on its representative
    metrics = _traced_run("search-m24")
    assert metrics["search.survivors"]["value"] == 4
    assert metrics["verify.width_calls"]["value"] == 4
