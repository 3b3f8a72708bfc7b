"""The benchmark tracer's layer targets must exist in the package.

perfbench/tracer.py wraps perdom functions by (module, attribute) name and
only prints "not found" for a missing one, which then reads as a zero
metric.  Loading the tracer module (without running it) and resolving every
target here turns a renamed layer function into a test failure.  A traced
run of a small version of each benchmark workload then checks that every
metric layers.json requires on that workload is nonzero, so a layer that is
found but no longer called fails here too.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
RUN = ROOT / "perfbench" / "run.py"
# small inputs exercising the same layers as each benchmark workload
SMALL_WORKLOADS = {
    "zeta_d3": ("zeta", "--g", "2,1,-3", "--q", "2", "--n", "1..2"),
    "stalk_d4": ("stalk", "--g", "2,1,-3", "--q", "2", "--n", "1"),
    "kcomplex_d4": ("kcomplex", "--d", "3", "--q", "2"),
    "table_d9": ("table", "--drinfeld", "4", "--q", "2", "--n", "1..2"),
}


def load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def targets():
    tracer = load(TRACER, "perfbench_tracer")
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


@pytest.mark.parametrize("workload", SMALL_WORKLOADS)
def test_traced_small_workload_has_no_zero_metric(workload, tmp_path):
    run = load(RUN, "perfbench_run")
    argv = [sys.executable, str(TRACER), str(tmp_path), workload, "--", *SMALL_WORKLOADS[workload]]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    metrics = run.layer_metrics(run.load_trace(tmp_path), wall)
    # the overhead compares with untraced runs, which this test does not make
    required = [name for name, m in run.layer_map().items()
                if workload in m["workloads"] and name != "traced.overhead_s"]
    assert [name for name in required if not metrics.get(name)] == []
