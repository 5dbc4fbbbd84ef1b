"""The benchmark's traced layers still resolve inside the package.

``perfbench/tracer.py`` wraps each layer by ``(module, attribute)`` name
from outside the package, so a refactor that moves, renames or inherits
one of them silently drops that layer from the per-layer ledger.  These
checks resolve every ``SPANS`` / ``COUNTED`` entry the way
``Tracer._patch`` does: the module imports, a plain attribute exists on
it, and a dotted ``Class.method`` sits in the class's own ``__dict__``
(the tracer patches the defining class, never a base).
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _load_tracer()
ENTRIES = list(LAYERS.SPANS) + list(LAYERS.COUNTED)


def test_tracer_lists_layers():
    assert LAYERS.SPANS and LAYERS.COUNTED


@pytest.mark.parametrize(
    "name, module_name, attr",
    ENTRIES,
    ids=[f"{name}={module}.{attr}" for name, module, attr in ENTRIES],
)
def test_layer_resolves(name, module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        owner_name, method = attr.split(".")
        owner = getattr(module, owner_name)
        assert method in owner.__dict__, (
            f"{module_name}.{owner_name} does not define {method} itself; "
            f"the traced run would lose layer {name!r}"
        )
    else:
        assert hasattr(module, attr), (
            f"{module_name} has no {attr}; the traced run would lose "
            f"layer {name!r}"
        )
