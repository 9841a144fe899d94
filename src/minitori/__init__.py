"""Minimal isometric immersions of flat n-tori into round spheres.

Certificates are matrix data {Q, Y, weights} (homogeneous) or coefficient
operators A A^t over a geometry (Q, Y) (general); this package constructs
them (rational sampling + exact LP, one-parameter pencils, the rank-4
Lagrange system, the Pythagorean and 2-torus families), verifies the full
equation system exactly or at tolerance, tests embeddedness, and reduces the
target sphere dimension by convex-combination reduction.

numpy is imported only by the float optimizers and the float-regime LAPACK
calls of `symmetric`, never at import time.
"""

from .scalars import (AlgebraicField, AlgebraicScalar, format_rational,
                      irreducible_degree_le4, parse_rational, sqrt_field)
from .symmetric import (SymMatrix, determinant, inverse, is_positive_definite,
                        logdet, psd_sqrt, trace_inner)
from .lattices import (DualLattice, Lattice, NormClassList, dual,
                       eigenfunction_index, enumerate_norm,
                       rational_points_on_ellipsoid, shortest_vectors, spectrum)
from .optimize import (AffineSliceW, ConvergenceFailure, HullPoint,
                       InfeasibleRegion, NoCommonEllipsoid, PencilResult,
                       Rank4Critical, build_slice, caratheodory_reduce,
                       columns_from_matrix, kkt_gap, maximize_logdet_C,
                       maximize_logdet_W, pencil_maximize, rank4_lagrange)
from .certificates import (EmbeddednessResult, EtaSystem, GramOperator,
                           MatrixData, UnverifiedCertificate,
                           VerificationReport, embeddedness, eta_sets,
                           is_homogeneous, reduce_target_dimension,
                           verify_full, verify_matrix_data)
from .constructions import (Bryant2TorusParams, CATALOG_IDS, ConstructionError,
                            IrrationalityReport, PythagoreanParams,
                            PythagoreanResult, RationalPipelineConfig,
                            bryant_2torus, catalog, construct_pencil_3torus,
                            construct_rational, pythagorean_family)
from .io import emit, parse, read_certificate, write_certificate

__version__ = "0.1.0"
