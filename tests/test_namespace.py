"""The package namespace: lazy, complete, and the submodules' own objects."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weilzeta

ROOT = Path(__file__).resolve().parent.parent


def test_every_public_name_is_its_submodules_object():
    for name in weilzeta.__all__:
        if name == "__version__":
            continue
        home = f"weilzeta.{weilzeta._SOURCE[name]}"
        module = importlib.import_module(home)
        value = getattr(weilzeta, name)
        if name == weilzeta._SOURCE[name]:
            assert value is module
        else:
            assert value is getattr(module, name)
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == home, name


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from weilzeta import *", namespace)
    assert set(weilzeta.__all__) <= set(namespace)
    assert set(weilzeta.__all__) <= set(dir(weilzeta))


@pytest.mark.parametrize("name", ["no_such_name", "same_number", "enumerate_field",
                                  "FieldSpec", "FFElement"])
def test_unknown_names_raise_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(weilzeta, name)
    assert not hasattr(weilzeta, name)


def test_import_loads_no_submodule():
    # a fresh interpreter, since this one has loaded every submodule already
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, weilzeta; print(sorted(m for m in sys.modules if 'weilzeta' in m))"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.split() == ["['weilzeta']"]
