"""The benchmark tracer wraps library functions by name; those names must resolve.

bench/spans.py replaces each (module, name) in its HOOKS table with a timing
wrapper. The tier-1 suite does not collect bench/, so without this check a
rename in the library would silently zero the layer metric that wraps it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_hooks():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HOOKS


HOOKS = load_hooks()


@pytest.mark.parametrize("module_name,name", sorted({(hook[0], hook[1]) for hook in HOOKS}))
def test_hooked_name_resolves(module_name, name):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, name, None)), f"{module_name}.{name} is gone"


def test_pool_hook_is_a_class():
    # spans.py counts pool starts and tasks only by subclassing the pool class;
    # a plain function in its place would only have its calls timed.
    simulation = importlib.import_module("vmbpbb.simulation")
    assert isinstance(simulation.ProcessPoolExecutor, type)
