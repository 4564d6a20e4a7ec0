"""Every name in a hypolab module's ``__all__`` resolves."""
import importlib
import pkgutil

import pytest

import hypolab


def _modules() -> list[str]:
    names = ["hypolab"]
    names += [info.name for info in pkgutil.walk_packages(hypolab.__path__, "hypolab.")]
    return sorted(names)


def test_the_walk_covers_packages_and_submodules():
    names = _modules()
    for name in ("hypolab.flows", "hypolab.flows.simulate", "hypolab.fieldlang",
                 "hypolab.fieldlang.fields", "hypolab.harness", "hypolab.harness.config"):
        assert name in names


@pytest.mark.parametrize("name", _modules())
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert all(isinstance(item, str) for item in exported)
    assert len(set(exported)) == len(exported), "a name is exported twice"
    missing = [item for item in exported if not hasattr(module, item)]
    assert not missing, f"{name}.__all__ names {missing}, which the module lacks"
