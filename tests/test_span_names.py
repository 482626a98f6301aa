"""Every span name that the benchmark's per-layer reduction reads names a
public function or method of the package, one that ``bench/spans.py``
wraps.  A renamed or deleted function would otherwise leave its layer
metric reading 0 calls without an error."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("CONV_GRID", "CONV_DIRECT", "DENSE_STATE", "MODE_TABLE",
         "INTEGRATE", "MANIFOLD_EVAL", "MANIFOLD_REMAINDER", "AUDIT", "SCAN")


def _spans():
    spec = importlib.util.spec_from_file_location(
        "bench_spans", ROOT / "bench" / "spans.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


SPANS = _spans()


def _traced(name):
    """Whether ``install`` wraps a function or method under ``name``."""
    layer, attr, *meth = name.split(".")
    short = {m.lstrip("_"): m for m in SPANS.MODULES}.get(layer)
    if short is None:
        return False
    mod = importlib.import_module(f"geobalance.{short}")
    obj = vars(mod).get(attr)
    if attr.startswith("_") or getattr(obj, "__module__", None) \
            != mod.__name__:
        return False
    if not meth:
        return inspect.isfunction(obj)
    mname, = meth
    fn = vars(obj).get(mname) if inspect.isclass(obj) else None
    if isinstance(fn, (classmethod, staticmethod)):
        fn = fn.__func__
    return ((not mname.startswith("_") or mname in SPANS.PUBLIC_DUNDERS)
            and name not in SPANS.UNTRACED and inspect.isfunction(fn)
            and not inspect.isgeneratorfunction(fn))


@pytest.mark.parametrize("const", NAMES)
def test_layer_names_are_traced(const):
    value = getattr(SPANS, const)
    for name in (value,) if isinstance(value, str) else value:
        assert _traced(name), f"{const}: {name} names no traced function"


def test_a_missing_name_is_caught():
    assert not _traced("engine.ModeTable.no_such_method")
    assert not _traced("engine.ModeTable._grid_setup")
    assert not _traced("slowmanifold._Ctx.conv")
