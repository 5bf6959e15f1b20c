"""The benchmark's tracer patches module-global names in czcp; each must exist.

perfbench's own tests, which install the tracer, are not part of this
suite, so a renamed or deleted lookup site would otherwise go unnoticed
until a traced benchmark run fails.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module_name, name, _, _ in tracer.TARGETS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, name, None)), (module_name, name)
