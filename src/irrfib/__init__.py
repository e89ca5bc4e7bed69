"""Exact-arithmetic invariants of polarized abelian surfaces and the
irrational fibrations they induce on covering surfaces.

Everything is computed over the rationals: lattices, alternating forms,
torsion characters, intersection numbers, and the elliptic-curve bundle
calculus. The `irrfib` console script exposes the same operations with
machine-readable reports.

`import irrfib` runs no submodule: it registers each one but `cli` in
sys.modules, and as an attribute of the package, through LazyLoader, so a
module's body runs on the first attribute access to it. A name below
resolves on its first access, from the module _EXPORTS lists it under.
"""

import sys as _sys
from importlib.util import LazyLoader as _LazyLoader
from importlib.util import module_from_spec as _module_from_spec
from importlib.util import spec_from_file_location as _spec_from_file

# the public names of the package, by the module that defines them
_EXPORTS = {
    "bundles": (
        "BundleDecomposition", "EllipticPoint", "IndecomposableBundle",
        "XiaoShape", "ample_part_is_line", "atiyah_bundle", "elliptic_origin",
        "generic_point", "h0", "h1", "h0_omega_twisted_minus_fibre",
        "jump_h1", "pushforward_decomposition", "twist", "xiao_structure"),
    "characters": (
        "Character", "kernel_of_restriction", "restrict_character",
        "torsion_characters", "trivial_character",
        "two_torsion_character_tables"),
    "errors": (
        "ContradictsXiao", "DegenerateEmbedding", "DegenerateForm",
        "IncompatibleLattice", "InvalidBranching", "InvalidModulus",
        "InvalidOrder", "InvalidRank", "InvalidShape", "InvalidTorsionList",
        "InvalidTwist", "IrrfibError", "NonPrimitive", "NotApplicable",
        "UndefinedSlope", "UnsupportedIndex"),
    "intersection": (
        "DivisorClass", "IntersectionLattice", "KernelCurve",
        "degree_vs_product_polarization", "derive_pen6_pairings", "dot",
        "kernel_dot", "kernel_dot_oracle", "nef_violation_certificate",
        "pen6_fibres", "pen6_lattice", "serrano_canonical_pen6"),
    "invariants": (
        "ExampleSurface", "FibrationRecord", "SurfaceInvariants",
        "double_cover_fibre_genus", "example_record", "genus_bound_rank_one",
        "isotrivial_examples", "isotriviality_obstruction",
        "nonisotrivial_examples", "slope", "unbounded_family"),
    "lattice": (
        "FiniteAbelianGroup", "Lattice", "Rational", "SublatticeEmbedding",
        "TorsionPoint", "origin", "parse_rational", "quotient_group",
        "sublattice_index"),
    "linalg": ("smith_normal_form",),
    "polarization": (
        "AlternatingForm", "PolarizationType", "kernel_K_L",
        "phi_two_torsion_data", "polarization_type", "restrict_form"),
    "record": (),
    "report": (),
    "torus": (
        "SpecialAbelianSurface", "admissible_pairs", "build_reference_surface",
        "character_name", "classification_report", "classification_sweep",
        "classify_pair", "display_name", "parse_character",
        "reference_lattice_a", "reference_lattice_b", "rf_pair"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])
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


for _module in _EXPORTS:
    globals()[_module] = _register(_module)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = globals()[name] = getattr(globals()[module], name)
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
