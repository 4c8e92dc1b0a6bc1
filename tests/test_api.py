"""The public surface of altsums, and its split from the test oracles.

Each quantity has one production path in `altsums` and one independent
oracle in `tests/oracles.py`; no name the oracles define exists in altsums.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import altsums

ORACLES = Path(__file__).with_name("oracles.py")


def test_every_public_name_resolves_and_star_import_yields_all():
    assert len(set(altsums.__all__)) == len(altsums.__all__)
    assert [name for name in altsums.__all__ if not hasattr(altsums, name)] == []
    namespace = {}
    exec("from altsums import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(altsums.__all__)


def _defined_names(path):
    """The names bound at the top level of `path` by a def, class or assignment."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_no_oracle_name_is_an_attribute_of_any_altsums_module():
    names = _defined_names(ORACLES)
    assert {"raw_sum", "descent_consistency", "psi", "sum_chi2",
            "triple_sum_direct", "ROW_CHUNK", "exact_numerators"} <= names
    modules = [altsums] + [importlib.import_module(f"altsums.{m.name}")
                           for m in pkgutil.iter_modules(altsums.__path__)]
    assert len(modules) == 10
    assert sorted(f"{m.__name__}.{name}" for m in modules for name in names
                  if hasattr(m, name)) == []


def test_element_codes_are_the_only_scalar_api():
    """An element is an int code everywhere: no module keeps an element
    wrapper or a character on one, and a field has no element constructors."""
    modules = [altsums] + [importlib.import_module(f"altsums.{m.name}")
                           for m in pkgutil.iter_modules(altsums.__path__)]
    assert [f"{m.__name__}.{name}" for m in modules for name in ("FieldElement", "chi2")
            if hasattr(m, name)] == []
    gone = ("zero", "one", "gen", "from_int", "from_log", "element", "elements",
            "sub_code", "trace_abs_code")
    assert [name for name in gone if hasattr(altsums.FieldDescriptor, name)] == []
