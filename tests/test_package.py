"""The package namespace: exactly the public names of its modules."""

import nlresolvent
from nlresolvent import completeness, graphs, nonlinearity, resolvent, solver, testkit


def test_package_exports_the_modules_public_names():
    modules = (graphs, nonlinearity, solver, resolvent, completeness, testkit)
    exported = [n for n in nlresolvent.__all__ if n != "__version__"]
    assert len(exported) == len(set(exported))
    assert set(exported) == {n for mod in modules for n in mod.__all__}
    for mod in modules:
        for name in mod.__all__:
            assert getattr(nlresolvent, name) is getattr(mod, name)
