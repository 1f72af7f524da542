"""The top-level package re-exports exactly the modules' public names.

A name dropped from a module's ``__all__`` must leave ``smallball`` too, and
a name added to one must appear there.
"""

import types

import smallball as sb
from smallball import asymptotics, mc, paths, schrodinger, spectral

MODULES = (asymptotics, mc, paths, schrodinger, spectral)


def test_package_reexports_exactly_the_module_all_lists():
    public = {n for n in dir(sb) if not n.startswith("_") and not isinstance(getattr(sb, n), types.ModuleType)}
    exported = {n for m in MODULES for n in m.__all__}
    assert public == exported | {"NumericError"}
    for m in MODULES:
        for name in m.__all__:
            assert getattr(sb, name) is getattr(m, name), f"{m.__name__}.{name}"
