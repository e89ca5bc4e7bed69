"""Exact-arithmetic invariants of polarized abelian surfaces and the
irrational fibrations they induce on covering surfaces.

Everything is computed over the rationals: lattices, alternating forms,
torsion characters, intersection numbers, and the elliptic-curve bundle
calculus. The `irrfib` console script exposes the same operations with
machine-readable reports.
"""

from .bundles import (BundleDecomposition, EllipticPoint,
                      IndecomposableBundle, XiaoShape, ample_part_is_line,
                      atiyah_bundle, elliptic_origin, generic_point, h0, h1,
                      h0_omega_twisted_minus_fibre, jump_h1,
                      pushforward_decomposition, twist, xiao_structure)
from .characters import (Character, kernel_of_restriction,
                         restrict_character, torsion_characters,
                         trivial_character, two_torsion_character_tables)
from .errors import (ContradictsXiao, DegenerateEmbedding, DegenerateForm,
                     IncompatibleLattice, InvalidBranching, InvalidModulus,
                     InvalidOrder, InvalidRank, InvalidShape,
                     InvalidTorsionList, InvalidTwist, IrrfibError,
                     NonPrimitive, NotApplicable, UndefinedSlope,
                     UnsupportedIndex)
from .intersection import (DivisorClass, IntersectionLattice, KernelCurve,
                           degree_vs_product_polarization,
                           derive_pen6_pairings, dot, kernel_dot,
                           kernel_dot_oracle, nef_violation_certificate,
                           pen6_fibres, pen6_lattice, serrano_canonical_pen6)
from .invariants import (ExampleSurface, FibrationRecord, SurfaceInvariants,
                         double_cover_fibre_genus, example_record,
                         genus_bound_rank_one, isotrivial_examples,
                         isotriviality_obstruction, nonisotrivial_examples,
                         slope, unbounded_family)
from .lattice import (FiniteAbelianGroup, Lattice, Rational,
                      SublatticeEmbedding, TorsionPoint, origin,
                      parse_rational, quotient_group, sublattice_index,
                      torsion_subgroup)
from .linalg import smith_normal_form
from .polarization import (AlternatingForm, PolarizationType, kernel_K_L,
                           phi_L_on_point, phi_two_torsion_data,
                           polarization_type, restrict_form)
from .torus import (SpecialAbelianSurface, admissible_pairs,
                    build_reference_surface, character_name,
                    classification_report, classification_sweep,
                    classify_origin_singularity,
                    classify_origin_singularity_oracle, display_name,
                    moduli_type, parse_character, psi_image,
                    reducible_through_origin, reference_lattice_a,
                    reference_lattice_b, rf_pair,
                    translation_points_for_twist)

__version__ = "0.1.0"
