"""The benchmark tracer's layer targets must exist in the package.

perfbench/tracer.py wraps perdom functions by (module, attribute) name and
only prints "not found" for a missing one, which then reads as a zero
metric.  Loading the tracer module (without running it) and resolving every
target here turns a renamed layer function into a test failure.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def targets():
    tracer = load_tracer()
    out = [(mod, attr) for _name, mod, attr in tracer.TIMED + tracer.COUNTED]
    out += [(mod, attr) for _span, _items, mod, attr in tracer.GENERATORS]
    out.append(tracer.RANK[1:])
    return out


@pytest.mark.parametrize("module,attr", targets(), ids=lambda x: x)
def test_tracer_target_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
