"""Exact Steiner distance hypermatrices of trees.

The library builds order-k Steiner distance hypermatrices of labeled trees,
produces exact cyclotomic nullvector certificates that their hyperdeterminants
vanish for every odd k (n >= 3), works out the order-3 nullvariety algebra
(s and the distance quadratic g cut it out; s^3 lies in the gradient ideal
with explicit degree-based cofactors), verifies the classical distance-matrix
facts (Graham-Pollak determinant, Graham-Lovász inverse), evaluates the only
directly computable hyperdeterminants (order 2, and Cayley's 2x2x2), and runs
a seeded numeric search at even orders: exact points, proven residual bounds,
evidence only.  It issues no even-order certificate for n >= 3.
"""

from .errors import (BudgetExceeded, ConductorMismatch, EmptySet, EvenOrder,
                     MalformedInput, NotATree, NotDegenerateZeroed,
                     OrderTooLow, SteinerError, TooLarge, TooSmall, WrongShape,
                     ZeroVector)
from .scalar import (CycNum, cyclotomic_polynomial, euler_phi, root_of_unity,
                     unify_conductor)
from .trees import (Tree, canonical_key, enumerate_trees, format_tree,
                    parse_tree, path_tree, prufer_decode, prufer_encode,
                    random_tree, star_tree, steiner_distance_bruteforce)
from .hypermatrix import (Hypermatrix, build_steiner, export_json, export_text,
                          import_json, import_text, zero_degenerate)
from .forms import (SparsePoly, gradient_direct, hessian_direct, order3_tensor,
                    steiner_form, verify_form_divisible, verify_not_divisible,
                    verify_product_decomposition, verify_s3_decomposition)
from .distmatrix import RatMatrix, gl_inverse, graham_pollak_value
from .smalldet import (cayley_222, det_order2, two_vertex_nullvector_witness,
                       verify_k2_no_nullvector)
from .nullspace import (CompletionCandidate, NullvectorReport, SearchCandidate,
                        canonical_odd_nullvector, complete_nullvector,
                        completion_quadratic, degenerate_nullvector,
                        membership_sg, numeric_search, verify_form_nullvector,
                        verify_nullvector)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
