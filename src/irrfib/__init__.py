"""Exact-arithmetic invariants of polarized abelian surfaces and the
irrational fibrations they induce on covering surfaces.

Everything is computed over the rationals: lattices, alternating forms,
torsion characters, intersection numbers, and the elliptic-curve bundle
calculus. The `irrfib` console script exposes the same operations with
machine-readable reports.

Each public name lives in the module that defines it, and is imported from
there: `from irrfib.torus import classify_pair`. `import irrfib` runs no
submodule: it registers each one but `cli` in sys.modules, and as an
attribute of the package, through LazyLoader, so a module's body runs on
the first attribute access to it. `__all__` lists those submodules, so
`from irrfib import *` binds them unloaded.
"""

import sys as _sys
from importlib.util import LazyLoader as _LazyLoader
from importlib.util import module_from_spec as _module_from_spec
from importlib.util import spec_from_file_location as _spec_from_file

__all__ = ["bundles", "characters", "errors", "intersection", "invariants",
           "lattice", "linalg", "polarization", "record", "report", "torus"]
__version__ = "0.1.0"


def _register(module):
    # the spec a path finder would give, without its search
    name = __name__ + "." + module
    spec = _spec_from_file(name, __path__[0] + "/" + module + ".py")
    spec.loader = _LazyLoader(spec.loader)
    lazy = _module_from_spec(spec)
    _sys.modules[name] = lazy
    spec.loader.exec_module(lazy)
    return lazy


for _module in __all__:
    globals()[_module] = _register(_module)
