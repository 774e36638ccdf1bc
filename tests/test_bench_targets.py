"""The traced benchmark (`bench/run.py --trace 1`) wraps poselift functions that
`bench/tracing.py` names in `TARGETS`; each name must stay in `src/`."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).parents[1] / "bench" / "tracing.py"


def tracing_targets() -> tuple:
    """`TARGETS` of bench/tracing.py, loaded by path: it imports only the standard library."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module, attr, span", tracing_targets())
def test_every_traced_name_is_a_callable_in_poselift(module, attr, span):
    owner = importlib.import_module(module)
    if "." in attr:
        # the tracer wraps the entry in the class's own namespace, not an inherited one
        cls_name, meth = attr.split(".")
        target = vars(getattr(owner, cls_name)).get(meth)
        target = getattr(target, "__func__", target)            # a classmethod's function
    else:
        target = getattr(owner, attr)
    assert callable(target), f"{module}.{attr} (span {span}) is not a callable"
