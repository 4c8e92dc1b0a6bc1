"""The public surface of altsums, and its split from the test oracles.

Each quantity has one production path in `altsums` and one independent
oracle in `tests/oracles.py`; no name the oracles define exists in altsums.
"""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import altsums

ORACLES = Path(__file__).with_name("oracles.py")
LAYERS = ("fields", "cyclotomic", "characters", "traces", "groups", "identities",
          "curves", "verdict")


def fresh_python(code):
    """The JSON that `code` prints in a new interpreter importing this
    checkout's altsums, with OPENBLAS_NUM_THREADS unset."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(altsums.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    return json.loads(proc.stdout)


LOADED = "sorted(m for m in sys.modules if m.startswith('altsums.'))"


def test_every_public_name_resolves_and_star_import_yields_all():
    assert len(set(altsums.__all__)) == len(altsums.__all__)
    assert [name for name in altsums.__all__ if not hasattr(altsums, name)] == []
    namespace = {}
    exec("from altsums import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(altsums.__all__)


def test_import_altsums_loads_numpy_and_no_layer():
    assert fresh_python(
        "import json, os, sys, altsums; print(json.dumps(["
        f"{LOADED}, 'numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS')]))"
    ) == [[], True, None]
    assert fresh_python(f"import json, sys, altsums.cli; print(json.dumps({LOADED}))") == sorted(
        f"altsums.{name}" for name in (*LAYERS, "cli"))


def test_a_public_name_imports_its_home_module_and_what_that_imports():
    assert fresh_python(
        f"import json, sys; from altsums import gauss_identities; print(json.dumps({LOADED}))"
    ) == ["altsums.characters", "altsums.cyclotomic", "altsums.fields"]


def test_public_names_are_their_home_modules_objects():
    """In this process and in a new one that imports the CLI first, as
    `python -m altsums.cli` does; `verdict` is the function, not its module."""
    assert sorted(altsums._HOME) + ["__version__"] == altsums.__all__
    assert set(altsums._EXPORTS) == set(LAYERS)
    assert [name for name, layer in altsums._HOME.items()
            if getattr(altsums, name) is not getattr(
                importlib.import_module(f"altsums.{layer}"), name)] == []
    assert fresh_python(
        "import json, sys, altsums.cli, altsums; print(json.dumps("
        "[name for name, layer in altsums._HOME.items() if getattr(altsums, name)"
        " is not getattr(sys.modules['altsums.' + layer], name)]))") == []


def test_layer_names_resolve_to_their_modules():
    """Each layer name imports its module on first access, except `verdict`,
    the public function that shadows its module, as it always has."""
    got = fresh_python(
        "import json, sys, altsums; print(json.dumps([['altsums.' + name in sys.modules, "
        "getattr(altsums, name) is sys.modules.get('altsums.' + name)] "
        f"for name in {LAYERS!r}]))")
    assert got == [[False, True]] * 7 + [[False, False]]
    assert altsums.verdict is sys.modules["altsums.verdict"].verdict


def test_an_unknown_name_is_no_attribute_and_loads_nothing():
    assert fresh_python(
        "import json, sys, altsums; print(json.dumps([hasattr(altsums, 'psi'), "
        f"hasattr(altsums, 'cli'), {LOADED}]))") == [False, False, []]
    with pytest.raises(AttributeError, match="module 'altsums' has no attribute 'psi'"):
        altsums.psi  # noqa: B018


def test_dir_lists_every_public_name_before_vars_holds_it():
    """`dir` lists the public names at once; `vars` holds one only after its
    first access."""
    before, after, listed = fresh_python(
        "import json, altsums; public = set(altsums.__all__) - {'__version__'}; "
        "before = sorted(public & set(vars(altsums))); altsums.spectrum; "
        "print(json.dumps([before, sorted(public & set(vars(altsums))), "
        "set(altsums.__all__) <= set(dir(altsums))]))")
    assert (before, after, listed) == ([], ["spectrum"], True)
    assert set(altsums.__all__) <= set(dir(altsums))


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
