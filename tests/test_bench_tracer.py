"""The benchmark tracer's targets still exist in the package.

``bench/tracer.py`` wraps each (module, attribute) of ``TRACED`` by name;
one that a refactor renamed or removed would only fail when a traced run
starts.  This reads the list and resolves every entry.
"""

import importlib
import importlib.util
import inspect
import pathlib

import pytest

_TRACER_PATH = (pathlib.Path(__file__).resolve().parent.parent
                / "bench" / "tracer.py")
_spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER_PATH)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

TARGETS = [target for targets in tracer.TRACED.values() for target in targets]


@pytest.mark.parametrize("module_name,attr", TARGETS,
                         ids=[f"{m}:{a}" for m, a in TARGETS])
def test_traced_target_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        class_name, method = attr.split(".")
        cls = getattr(module, class_name)
        assert inspect.isclass(cls)
        assert method in cls.__dict__
    else:
        assert inspect.isfunction(getattr(module, attr))
