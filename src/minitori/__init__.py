"""Minimal isometric immersions of flat n-tori into round spheres.

Certificates are matrix data {Q, Y, weights} (homogeneous) or coefficient
operators A A^t over a geometry (Q, Y) (general); this package constructs
them (rational sampling + exact LP, the exact critical point of det on a
one-parameter pencil (n <= 5) or on the rank-4 slice (n = 3), the
Pythagorean and 2-torus families), verifies the full
equation system exactly or at tolerance, tests embeddedness, and reduces the
target sphere dimension by convex-combination reduction.

Sym_n has one coordinate map, the upper triangle (S_ik)_{i <= k} row by row
(`SymMatrix.upper`, `SymMatrix.from_upper`, `rank_one_rows`), and all exact
linear algebra one elimination kernel (`scalars.pivot`, `scalars.eliminate`),
where exactness is argued once; the directions of an affine slice of the PD
cone are a primitive integer kernel basis (`build_slice`), and hull
membership over Q or Q(w) is one integer simplex (`exact_hull_weights`).

The package is plain Python with no runtime dependency: float inverses and
determinants are the exact ones rounded once, and the hull maximizer
`maximize_logdet_C` runs Frank-Wolfe with Sherman-Morrison updates.
"""

from .scalars import (AlgebraicField, AlgebraicScalar, format_rational,
                      irreducible_degree_le4, parse_rational, sqrt_field)
from .symmetric import SymMatrix, determinant, inverse, is_positive_definite, trace_inner
from .lattices import (NormClassList, eigenfunction_index, enumerate_norm,
                       rational_points_on_ellipsoid, shortest_vectors, spectrum)
from .optimize import (AffineSliceW, ConvergenceFailure, HullPoint,
                       InfeasibleRegion, NoCommonEllipsoid, PencilResult,
                       Rank4Critical, build_slice, caratheodory_reduce,
                       columns_from_matrix, kkt_gap, maximize_logdet_C,
                       pencil_maximize, rank4_lagrange)
from .certificates import (EmbeddednessResult, GramOperator, MatrixData,
                           UnverifiedCertificate, VerificationReport,
                           embeddedness, is_homogeneous,
                           reduce_target_dimension, verify_full,
                           verify_matrix_data)
from .constructions import (Bryant2TorusParams, CATALOG_IDS, ConstructionError,
                            IrrationalityReport, PythagoreanParams,
                            PythagoreanResult, RationalPipelineConfig,
                            bryant_2torus, catalog, construct_pencil_3torus,
                            construct_rational, pythagorean_family)
from .io import emit, parse

__version__ = "0.1.0"
