"""The benchmark's span tracer binds twobridge callables by name.

``perfbench/tracer.py`` is loaded from its path and never changed here.  A
renamed or deleted traced name would otherwise break only traced benchmark
runs, which the test suite does not make.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
MODULES = ("cli", "cfrac", "jones", "laurent", "snake", "verify")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _is_twobridge(key):
    return key.partition(".")[0] == "twobridge"


@pytest.fixture
def fresh():
    """twobridge imported afresh, as the benchmark does, keyed by short
    module name; the modules the other tests use are put back afterwards."""
    saved = {k: m for k, m in sys.modules.items() if _is_twobridge(k)}
    for key in saved:
        del sys.modules[key]
    try:
        for name in MODULES:
            importlib.import_module(f"twobridge.{name}")
        yield {k.rpartition(".")[2]: m for k, m in sys.modules.items()
               if _is_twobridge(k)}
    finally:
        for key in [k for k in sys.modules if _is_twobridge(k)]:
            del sys.modules[key]
        sys.modules.update(saved)


def test_every_traced_name_resolves(fresh):
    tracer = _load_tracer()
    for _, modname, attrs in tracer.FUNCTIONS:
        for attr in attrs:
            assert callable(getattr(fresh[modname], attr, None)), (modname, attr)
    hlpoly = vars(fresh["laurent"].HLPoly)
    for _, attrs in tracer.HLPOLY_METHODS:
        for attr in attrs:
            assert callable(hlpoly.get(attr)), attr


def test_install_then_uninstall_restores_every_attribute(fresh):
    tracer = _load_tracer()
    cls = fresh["laurent"].HLPoly

    def snapshot():
        return ({name: dict(vars(mod)) for name, mod in fresh.items()},
                dict(vars(cls)))

    before = snapshot()
    t = tracer.Tracer()
    t.install(fresh)
    try:
        for _, modname, attrs in tracer.FUNCTIONS:
            for attr in attrs:
                assert (getattr(fresh[modname], attr)
                        is not before[0][modname][attr]), (modname, attr)
        for _, attrs in tracer.HLPOLY_METHODS:
            for attr in attrs:
                assert vars(cls)[attr] is not before[1][attr], attr
    finally:
        t.uninstall()
    assert snapshot() == before  # functions compare by identity
