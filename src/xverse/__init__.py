"""Combinatorial transverse invariants of braid closures.

The package computes the differential graded algebra attached to a braid
word, its degree-0 quotient, augmentation counts over small prime fields,
and the two-strand augmentation polynomial, together with executable
checks of the invariance properties these objects satisfy.
"""

from .augment import (AugPolyResult, AugQuery, AugResult, BudgetError,
                      EliminationError, PRIMES,
                      augmentation_number, augmentation_polynomial_index2,
                      count_augmentations, count_augmentations_exhaustive,
                      sylvester_resultant)
from .braid import (BraidError, BraidStats, BraidWord, braid_stats,
                    braid_transform, markov_move, parse_braid)
from .commpoly import CommPoly
from .dga import (DgaError, DgaPresentation, StructuredMatrices, build_dga,
                  build_modified_dga, differential, structured_matrices,
                  verify_d_squared, verify_d_squared_sampled,
                  verify_phi_factorization, verify_phi_factorization_sampled)
from .ht0 import (Ht0Presentation, b_consequences, eliminate_linear,
                  ht0_relations, normalize_unit, reduced_relations)
from .ncpoly import GenMatrix, Generator, NCPoly, evaluate_abelian, gen
from .phi import (apply_phi, phi_matrices, phi_matrix_inverses,
                  sigma_images, verify_chain_rules)
from .verify import (CHECKS, CheckReport, CheckSpec, TableReport,
                     TABLE_ROWS, TableRowResult, reproduce_table, run_check)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
