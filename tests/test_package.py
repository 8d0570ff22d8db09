import importlib
import importlib.util
from pathlib import Path

import lamplighter


def test_every_export_resolves():
    missing = [name for name in lamplighter.__all__ if not hasattr(lamplighter, name)]
    assert missing == []


def test_every_benchmark_trace_target_resolves():
    # perfbench/tracer.py wraps layers by name (a module attribute or a
    # Class.method); a renamed or deleted target would break a traced run.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [(module, attr) for module, attr, _ in tracer.SPANS.values()]
    targets += list(tracer.COUNTED.values())
    missing = []
    for module_name, attr in targets:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls, method = attr.split(".")
            found = hasattr(module, cls) and method in vars(getattr(module, cls))
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{module_name}.{attr}")
    assert missing == []
