"""The benchmark's ``sweep`` workload binds ``verify`` by name.

``perfbench/workloads.py`` is loaded from its path and never changed here.
Its ``Sweep`` counts every check as failed unless ``run_verify`` returns
exactly its pinned sweep names, and it patches ``verify``'s sweep functions
and input generators by name.  A sweep added, renamed or dropped would
otherwise break only benchmark runs, which the test suite does not make.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from twobridge import verify

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
CHANGE_BENCHMARK_FIRST = ("the benchmark pins verify's sweep names: a new or "
                          "renamed count needs a benchmark change first")


@pytest.fixture
def workloads():
    """``perfbench/workloads.py``, with ``perfbench/`` on ``sys.path`` only
    for the import; ``sys.path`` and ``sys.modules`` are put back after."""
    path, modules = list(sys.path), dict(sys.modules)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look it up there
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
        for key in set(sys.modules) - set(modules):
            del sys.modules[key]
        sys.modules.update(modules)
    return module


def test_run_verify_returns_the_pinned_sweeps(workloads):
    counts = verify.run_verify(max_sum=4, max_p=12)
    assert set(counts) == set(workloads.SWEEPS), CHANGE_BENCHMARK_FIRST


def test_patched_names_are_verify_callables(workloads):
    for name in (*workloads.SWEEPS.values(), *workloads._SWEEP_SOURCES):
        assert callable(getattr(verify, name, None)), (
            f"verify.{name}: {CHANGE_BENCHMARK_FIRST}")
