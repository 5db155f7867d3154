"""Every public name resolves.

Each module's __all__ names attributes of that module, and every name the
benchmark's tracer wraps (perfbench/tracing.py: SPANNED, COUNTED,
AUTODIFF_OPS and the AugmentTarget.build classmethod) exists in the package
with the kind the tracer expects.  The tracer's lists are read from the
tracer itself, so a removal here or a new entry there is checked without a
traced benchmark run.
"""

import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import chromacc

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(m.name for m in pkgutil.iter_modules(chromacc.__path__))


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _tracing()


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"chromacc.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"


def test_every_traced_name_resolves():
    wanted = [(mod, fn) for table in (TRACING.SPANNED, TRACING.COUNTED)
              for mod, fns in table.items() for fn in fns]
    wanted += [("autodiff", op) for op in TRACING.AUTODIFF_OPS]
    wanted.append(("autodiff", "backward"))
    missing = [f"{mod}.{fn}" for mod, fn in wanted if not callable(
        getattr(importlib.import_module(f"chromacc.{mod}"), fn, None))]
    assert not missing, f"the tracer wraps missing names {missing}"
    build = importlib.import_module("chromacc.sensor") \
        .AugmentTarget.__dict__.get("build")
    assert isinstance(build, classmethod)
    assert inspect.isfunction(build.__func__)
