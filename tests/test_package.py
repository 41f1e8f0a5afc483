import subprocess
import sys
from pathlib import Path

import pytest

import eqfactor
from eqfactor import connectivity


def test_every_export_is_its_defining_modules_object():
    star = {}
    exec("from eqfactor import *", star)
    assert len(eqfactor.__all__) == 35
    for name in eqfactor.__all__:
        obj = getattr(eqfactor, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name
        assert star[name] is obj, name
    assert set(star) - {"__builtins__"} == set(eqfactor.__all__)


def test_dir_lists_every_export():
    assert set(eqfactor.__all__) <= set(dir(eqfactor))


@pytest.mark.parametrize("name", ["no_such_name", "near_balanced_orientation", "DEFAULT_BUDGET"])
def test_a_name_outside_the_exports_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(eqfactor, name)
    assert not hasattr(eqfactor, name)


def test_an_export_follows_a_patch_of_its_module(monkeypatch):
    """The package hands out the module's current attribute and keeps no
    copy, so a wrapper put on the module (a tracer's) and taken off again
    is seen both times."""
    original = connectivity.analyze

    def patched(g):
        return original(g)

    monkeypatch.setattr(connectivity, "analyze", patched)
    assert eqfactor.analyze is patched
    monkeypatch.undo()
    assert eqfactor.analyze is original
    assert "analyze" not in vars(eqfactor)


def test_importing_the_package_loads_none_of_its_modules():
    src = str(Path(eqfactor.__file__).parent.parent)
    probe = (f"import sys; sys.path.insert(0, {src!r}); import eqfactor\n"
             "print(sorted(m for m in sys.modules if m.startswith('eqfactor.')))")
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
